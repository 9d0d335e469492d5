"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned in the assertions; nothing is deferred.
"""

import time

import numpy as np
import pytest

from circulantwl.circulant import (
    base_tuple,
    is_quasinormal,
    singular_classes,
    singular_extension,
    xgroup_lattice,
)
from circulantwl.core import (
    Relation,
    generated_equivalence,
    point_extension,
    quotient,
    restriction,
    tensor_product,
    validate,
)
from circulantwl.dimension import (
    enumerate_graphs,
    graph_scheme,
    verify_discreteness,
    verify_main_theorem,
    verify_muzychuk,
    verify_oracle,
    verify_reduction,
    verify_schur,
    verify_uniqueness,
)
from circulantwl.wl import projection, wl_m_refine


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {num} [{status}]: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def _merged(reports):
    """Sum the counts and join the violations of several check reports."""
    reports = list(reports)
    return sum(r.checked for r in reports), [v for r in reports for v in r.violations]


@pytest.fixture(scope="module")
def main_theorem_reports():
    return verify_main_theorem(range(4, 17), max_m=4)


def test_criterion_1_main_theorem(main_theorem_reports):
    t0 = time.time()
    reports = main_theorem_reports
    within = all(r.within_bound for r in reports)
    settled = sum(1 for r in reports if r.estimate == 2)
    share = settled / len(reports)
    _report(
        1,
        "estimated dimension <= Omega(n)+3 for every undirected circulant graph, 4 <= n <= 16",
        within and share >= 0.95,
        f"{len(reports)} graphs, {share:.1%} settle at m=2, {time.time() - t0:.0f}s",
    )


def test_criterion_2_prime_power_spot_check(main_theorem_reports):
    relevant = [r for r in main_theorem_reports if r.order in (8, 9)]
    ok = bool(relevant) and all(
        r.estimate is not None and r.estimate <= 3 for r in relevant
    )
    _report(
        2,
        "every estimate at orders 8 and 9 is at most 3",
        ok,
        f"{len(relevant)} graphs, max estimate {max(r.estimate for r in relevant)}",
    )


def test_criterion_3_muzychuk_conformance(schemes_up_to_13):
    checked, counterexamples = _merged(
        verify_muzychuk(schemes_up_to_13[n]) for n in range(1, 13)
    )
    _report(
        3,
        "every algebraic isomorphism between schemes of order <= 12 is induced by an isomorphism",
        not counterexamples,
        f"{checked} maps checked, {len(counterexamples)} counterexamples",
    )


def test_criterion_4_schur_multiplier_invariance(schemes_up_to_13):
    checked, violations = _merged(verify_schur(schemes_up_to_13[n]) for n in range(1, 14))
    _report(
        4,
        "multiplication by any unit permutes the connection sets of every scheme, n <= 13",
        not violations,
        f"{checked} unit actions checked",
    )


def _non_quasinormal_corpus(schemes_up_to_13, z20_fixture):
    out = [
        X
        for n in range(1, 13)
        for X in schemes_up_to_13[n]
        if not is_quasinormal(X)
    ]
    out.append(z20_fixture)
    return out


def test_criterion_5_singular_extension_ledger(schemes_up_to_13, z20_fixture):
    count = 0
    for X in _non_quasinormal_corpus(schemes_up_to_13, z20_fixture):
        for rep in singular_classes(X):
            if not rep.is_singular:
                continue
            for sec in rep.sections:
                # all ledger statements are asserted inside the operation:
                # rank growth, singular count drop, and color preservation
                star = singular_extension(X, sec)
                assert star.rank > X.rank
                count += 1
    _report(
        5,
        "singular extensions grow rank, drop one singular class and preserve outside colors",
        count > 0,
        f"{count} extensions checked across the non-quasinormal corpus",
    )


def test_criterion_6_extension_theorems(schemes_up_to_13, z20_fixture):
    corpus = _non_quasinormal_corpus(schemes_up_to_13, z20_fixture)
    unique_checked, unique_violations = _merged(verify_uniqueness(X) for X in corpus)
    _, reduction_violations = _merged(verify_reduction(X, m) for X in corpus for m in (2, 3))
    _report(
        6,
        "unique algebraic extensions and reduction conformance at m = 2, 3",
        not unique_violations and not reduction_violations,
        f"{unique_checked} (phi, psi) pairs checked, {len(unique_violations)} not unique, "
        f"{len(reduction_violations)} reduction violations",
    )


def test_criterion_7_discreteness(schemes_up_to_16):
    # a violation is a section of the base-tuple extension that is not discrete
    sections_checked, failures = _merged(
        verify_discreteness(schemes_up_to_16[n]) for n in range(1, 17)
    )
    _report(
        7,
        "point extensions at base tuples are discrete on every controlled section, n <= 16",
        not failures,
        f"{sections_checked} sections checked",
    )


def test_criterion_8_oracle_equivalence(schemes_up_to_13):
    t0 = time.time()
    runs, disagreements = _merged(verify_oracle(schemes_up_to_13[n]) for n in range(1, 9))
    elapsed = time.time() - t0
    _report(
        8,
        "pebble game oracle agrees with the refinement route on all pairs, n <= 8, m = 2",
        not disagreements and elapsed <= 300,
        f"{runs} runs, {elapsed:.0f}s",
    )


def test_criterion_9_axiom_suite(schemes_up_to_13, z20_fixture):
    checked = 0
    # closures of every graph of order <= 10
    for n in range(1, 11):
        for conn in enumerate_graphs(n).graphs:
            cc = graph_scheme(n, conn).cc
            assert validate(cc).valid
            checked += 1
    # quotients, restrictions, tensor products, point extensions
    for n in range(2, 11):
        for X in schemes_up_to_13[n]:
            for H in xgroup_lattice(X):
                if 1 < H.order:
                    colors = frozenset(
                        X.color_of_difference(d) for d in H.elements
                    )
                    e = generated_equivalence(Relation(X.cc, colors))
                    assert validate(quotient(X.cc, e)).valid
                    assert validate(restriction(X.cc, sorted(H.elements))).valid
                    checked += 2
            assert validate(point_extension(X.cc, base_tuple(X))).valid
            checked += 1
    for a in schemes_up_to_13[4]:
        for b in schemes_up_to_13[5]:
            assert validate(tensor_product(a.cc, b.cc)).valid
            checked += 1
    # singular extensions validate
    for X in _non_quasinormal_corpus(schemes_up_to_13, z20_fixture)[:10]:
        rep = [r for r in singular_classes(X) if r.is_singular][0]
        assert validate(singular_extension(X, rep.smallest).cc).valid
        checked += 1
    # binary projection of the 3-ary refinement refines the scheme, n <= 10
    for n in range(2, 11):
        for X in schemes_up_to_13[n]:
            p2 = projection(wl_m_refine(X.cc, 3), 2)
            flat = p2.color_of.reshape(n, n)
            for c in range(p2.rank):
                assert len(np.unique(X.cc.colors[flat == c])) == 1
            checked += 1
    _report(
        9,
        "validation passes on every derived configuration; 3-ary projections refine the base",
        True,
        f"{checked} configurations checked",
    )
