"""Each benchmark check passes a true output and fails a corrupted one.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import io

import numpy as np

import checks
from circulantwl import cli, dimension, wl
from workloads import DENSE, ROOK, SHRIKHANDE, _cayley_arcs, _kind_map, _srg_arcs


def _main_table(n: int) -> str:
    out = io.StringIO()
    assert cli.run(["verify", "--theorem", "main", "--orders", f"{n}..{n}"], out=out) == 0
    return out.getvalue()


def _rows(text: str):
    return checks.parse_main_table(text)


# -- main_bound ---------------------------------------------------------------------


def test_burnside_count_matches_small_orders_by_hand():
    # n = 5: {}, {1,4}, {2,3}~{1,4} under the unit 2, {1,2,3,4}
    assert checks.undirected_class_count(5) == 3
    assert [checks.undirected_class_count(n) for n in (4, 6, 7, 8)] == [4, 8, 4, 12]


def test_big_omega_counts_multiplicity():
    assert [checks.big_omega(n) for n in (2, 8, 12, 17, 20)] == [1, 3, 3, 1, 3]


def test_main_rows_pass_on_the_true_table():
    for n in (6, 8, 9):
        assert checks.check_main_rows(n, _rows(_main_table(n))) == []


def test_main_rows_fail_on_a_dropped_row():
    rows = _rows(_main_table(8))
    assert checks.check_main_rows(8, rows[:-1])


def test_main_rows_fail_on_a_unit_image_in_place_of_a_class():
    rows = _rows(_main_table(8))
    i = next(i for i, r in enumerate(rows) if frozenset(3 * d % 8 for d in r[1]) != r[1])
    order, conn, estimate, bound = rows[i]
    corrupt = list(rows)
    corrupt[i - 1] = (order, frozenset(3 * d % 8 for d in conn), estimate, bound)
    assert checks.check_main_rows(8, corrupt)


def test_main_rows_fail_on_a_wrong_bound():
    rows = _rows(_main_table(8))
    order, conn, estimate, _ = rows[0]
    assert checks.check_main_rows(8, [(order, conn, estimate, "5")] + rows[1:])


def test_main_rows_fail_on_an_estimate_over_the_bound():
    rows = _rows(_main_table(8))
    order, conn, _, bound = rows[0]
    for estimate in (str(int(bound) + 1), ">4"):
        assert checks.check_main_rows(8, [(order, conn, estimate, bound)] + rows[1:])


def test_main_rows_fail_on_a_directed_set():
    rows = _rows(_main_table(8))
    order, _, estimate, bound = rows[0]
    assert checks.check_main_rows(8, [(order, frozenset({1}), estimate, bound)] + rows[1:])


# -- scheme_enum --------------------------------------------------------------------


def _corpus(n: int):
    return [checks.as_partition(X.connection_sets) for X in dimension.enumerate_schemes(n).schemes]


def test_scheme_checks_pass_on_the_true_corpus():
    for n in (7, 8, 9):
        assert checks.check_schemes(n, _corpus(n)) == []
    assert checks.check_prime_schemes(7, _corpus(7)) == []


def test_sring_check_fails_on_a_coarsened_scheme():
    # merge {1, 7} into {2, 6} in the scheme of the 8-cycle
    part = checks.as_partition([[0], [1, 7], [2, 6], [3, 5], [4]])
    assert checks.sring_failures(8, part) == []
    bad = checks.as_partition([[0], [1, 7, 2, 6], [3, 5], [4]])
    assert checks.sring_failures(8, bad)


def test_sring_check_fails_without_negation_closure():
    bad = checks.as_partition([[0], [1, 2], [3, 4]])
    assert checks.sring_failures(5, bad)


def test_unit_closure_check_fails_on_a_partition_a_unit_moves():
    corpus = _corpus(8)
    assert checks.check_unit_closure(8, corpus) == []
    moved = checks.as_partition([[0], [1, 2, 6, 7], [3, 5], [4]])
    assert checks.check_unit_closure(8, corpus + [moved])


def test_prime_check_fails_on_a_dropped_or_foreign_scheme():
    corpus = _corpus(7)
    assert checks.check_prime_schemes(7, corpus[:-1])
    foreign = checks.as_partition([[0], [1, 6], [2, 3, 4, 5]])  # not a subgroup orbit split
    assert checks.check_prime_schemes(7, corpus[:-1] + [foreign])


def test_warm_check_fails_when_the_warm_corpus_differs():
    corpus = _corpus(8)
    assert checks.check_warm_equals_cold(8, corpus, list(corpus)) == []
    assert checks.check_warm_equals_cold(8, corpus, corpus[1:])


# -- reduction ----------------------------------------------------------------------


def test_reduction_check():
    assert checks.check_reduction("x", 2, 2, []) == []
    assert checks.check_reduction("x", 0, 0, [])
    assert checks.check_reduction("x", 2, 1, [])
    assert checks.check_reduction("x", 2, 2, ["map (0, 1) does not extend"])


# -- wl_ladder ----------------------------------------------------------------------


def test_row0_closure_matches_the_cycle_scheme():
    colors = checks.row0_closure(8, {1, 7})
    assert checks.same_partition(colors, [min(d, 8 - d) for d in range(8)])


def test_dense_closure_check_passes_and_fails_on_a_swapped_cell():
    n, conn = 64, DENSE[64]
    perm = list(np.random.default_rng(1).permutation(n))
    colors = wl.wl_closure(_cayley_arcs(n, conn, perm)).colors.tolist()
    assert checks.check_dense_closure(n, conn, perm, colors) == []
    colors[perm[0]][perm[1]], colors[perm[0]][perm[2]] = (
        colors[perm[0]][perm[2]], colors[perm[0]][perm[1]])
    assert checks.check_dense_closure(n, conn, perm, colors)


def test_equivalence_check_on_the_srg_pair():
    ident = list(range(16))
    rook, shr = _srg_arcs(ROOK, ident), _srg_arcs(SHRIKHANDE, ident)
    a, b = wl.wl_closure(rook), wl.wl_closure(shr)
    cmap = _kind_map(a, rook, b, shr)
    assert checks.check_equivalence("m2", wl.wl_m_equivalent(a, b, cmap, 2), True) == []
    assert checks.check_equivalence("m3", wl.wl_m_equivalent(a, b, cmap, 3), False) == []
    assert checks.check_equivalence("m3", True, False)
    assert checks.check_equivalence("m2", False, True)


def test_same_partition():
    assert checks.same_partition([0, 0, 1], [5, 5, 2])
    assert not checks.same_partition([0, 0, 1], [5, 2, 2])
    assert not checks.same_partition([0, 1, 1], [5, 5, 5])
    assert not checks.same_partition([0, 1, 2], [0, 1])
