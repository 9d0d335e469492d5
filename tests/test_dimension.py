import hashlib
import io
from dataclasses import replace
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from circulantwl import circulant, cli, core, dimension
from circulantwl.algebra import CapExceededError, enumerate_algebraic_isos, find_isomorphism
from circulantwl.circulant import (
    CirculantScheme,
    close_labels,
    is_quasinormal,
    section_labels,
    sections,
)
from circulantwl.dimension import (
    DEFAULT_SCHEME_CAP,
    SCHEME_KINDS,
    DimensionReport,
    brute_force_schemes,
    burnside_graph_count,
    enumerate_graphs,
    enumerate_schemes,
    estimate_dimension,
    format_csv,
    format_table,
    prepare_analysis,
    scheme_candidates,
    verify_main_theorem,
    verify_muzychuk,
    verify_reduction,
)
from circulantwl.refine import refine_circulant
from circulantwl.wl import wl_m_equivalent


# -- graph enumeration -------------------------------------------------------------


def test_order_five_has_three_graphs():
    corpus = enumerate_graphs(5)
    assert [sorted(g) for g in corpus.graphs] == [[], [1, 2, 3, 4], [1, 4]]


def test_order_four_has_four_graphs():
    corpus = enumerate_graphs(4)
    assert [sorted(g) for g in corpus.graphs] == [[], [1, 2, 3], [1, 3], [2]]


def test_order_one_graph():
    assert enumerate_graphs(1).graphs == [frozenset()]


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12, 15, 16])
def test_graph_counts_match_burnside(n):
    assert len(enumerate_graphs(n).graphs) == burnside_graph_count(n)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_directed_counts_match_burnside(n):
    assert len(enumerate_graphs(n, directed=True).graphs) == burnside_graph_count(
        n, directed=True
    )


def test_graph_cap():
    with pytest.raises(CapExceededError):
        enumerate_graphs(24)
    with pytest.raises(CapExceededError):
        enumerate_graphs(14, directed=True)


# -- scheme enumeration -------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
def test_scheme_lattice_matches_partition_filter(n):
    fast = set(enumerate_schemes(n).schemes)
    slow = set(brute_force_schemes(n))
    assert fast == slow


def test_trivial_and_regular_present():
    schemes = enumerate_schemes(12).schemes
    assert CirculantScheme.trivial(12) in schemes
    assert CirculantScheme.regular(12) in schemes


def test_prime_scheme_count_is_divisor_count():
    # schemes over Z_p are in bijection with divisors of p-1
    assert len(enumerate_schemes(11).schemes) == 4
    assert len(enumerate_schemes(13).schemes) == 6


def test_scheme_counts_up_to_16(schemes_up_to_16):
    counts = [len(schemes_up_to_16[n]) for n in range(1, 17)]
    assert counts == [1, 1, 2, 3, 3, 7, 4, 10, 7, 10, 4, 32, 6, 13, 21, 37]


def test_scheme_count_stable_across_runs():
    a = enumerate_schemes(12).schemes
    b = enumerate_schemes(12).schemes
    assert [s.partition_key for s in a] == [s.partition_key for s in b]


def test_scheme_corpora_17_18_are_pinned():
    # digests of the corpora that closing every unit class of connection
    # sets and every join of two schemes gave, in corpus order
    digests = {
        17: "a2db11021dab9e0ee2262e41e1de9badbbb127c5e622fd915422b0061be57bef",
        18: "153d60a1ead95c1dd55081683cd3514a888e27b64bdb3a83584cfaa5f72d58dd",
    }
    for n, digest in digests.items():
        schemes = enumerate_schemes(n).schemes
        text = repr([sorted(sorted(c) for c in X.connection_sets) for X in schemes])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _corpora_without(kind, top):
    corpora = {}
    for d in range(1, top + 1):
        candidates = (r for k, r in scheme_candidates(d, corpora) if k != kind)
        rows = {dimension._partition_key(r): r for r in candidates}
        closed = [close_labels(r) for r in rows.values()]
        corpora[d] = {X for X, coherent in closed if coherent}
    return corpora


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_every_constructor_is_needed(kind, schemes_up_to_16):
    without = _corpora_without(kind, 16)
    lost = [n for n in range(1, 17) if without[n] != set(schemes_up_to_16[n])]
    assert lost
    assert all(without[n] <= set(schemes_up_to_16[n]) for n in range(1, 17))


def test_cold_enumeration_has_no_process_memo(monkeypatch):
    monkeypatch.delenv("CIRCULANTWL_CACHE", raising=False)
    calls = []

    def counted(n, corpora):
        calls.append(n)
        return scheme_candidates(n, corpora)

    monkeypatch.setattr(dimension, "scheme_candidates", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        enumerate_schemes(12)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_enumeration_and_sections_run_no_closure(monkeypatch):
    # candidates and sections are schemes by a theorem, so neither is closed
    monkeypatch.delenv("CIRCULANTWL_CACHE", raising=False)
    calls = []

    def counted(row):
        calls.append(len(row))
        return refine_circulant(row)

    monkeypatch.setattr(circulant, "refine_circulant", counted)
    schemes = enumerate_schemes(12).schemes
    assert all(sections(X) for X in schemes) and len(schemes) == 32
    assert calls == []
    # the counter sees the closure of a graph, which may not be coherent
    dimension.graph_scheme(12, frozenset({1, 11}))
    assert calls == [12]


def test_an_order_is_closed_in_one_stack(monkeypatch, tmp_path):
    # prepare_analysis closes an order's graphs, and a warm read its cached
    # partitions, in one refine_circulant call
    calls = []

    def counted(rows):
        calls.append(np.shape(rows))
        return refine_circulant(rows)

    monkeypatch.setattr(circulant, "refine_circulant", counted)
    corpus = enumerate_graphs(16)
    schemes, index = prepare_analysis(corpus)
    assert calls == [(len(corpus.graphs), 16)]
    assert [schemes[index[conn]] for conn in corpus.graphs] == [
        dimension.graph_scheme(16, conn) for conn in corpus.graphs
    ]
    monkeypatch.setenv("CIRCULANTWL_CACHE", str(tmp_path))
    cold = enumerate_schemes(12).schemes
    calls.clear()
    assert enumerate_schemes(12).schemes == cold
    assert calls == [(len(cold), 12)]


def _not_coherent(candidates):
    """The (kind, labels) pairs whose label row its WL closure splits."""
    return [(kind, labels.tolist()) for kind, labels in candidates if not close_labels(labels)[1]]


def _forged_wreath_12():
    """The wreath row of order 12 over U of order 6 and L of order 2 built
    from A = {0}, {3}, {1, 2, 4, 5} over Z_6 and the regular scheme over
    Z_6, whose sections on U/L disagree (ranks 2 and 3)."""
    A, B, x = CirculantScheme([0, 1, 1, 2, 1, 1]), CirculantScheme.regular(6), np.arange(12)
    return np.where(x % 2 == 0, A.row[x // 2], A.rank + B.row[x % 6])


def test_candidates_and_sections_are_coherent_as_built():
    # every candidate of every order <= 24, before deduplication, and every
    # section row of every scheme of those orders is its own WL closure
    corpora = {}
    for n in range(1, 25):
        assert _not_coherent(scheme_candidates(n, corpora)) == []
        corpora[n] = enumerate_schemes(n).schemes
        for X in corpora[n]:
            for sec in sections(X):
                closed, coherent = close_labels(section_labels(X, sec.upper, sec.lower))
                assert coherent and closed == sec.scheme
    # the check fails on a wreath row over two sections that disagree
    forged = _forged_wreath_12()
    candidates = chain(scheme_candidates(12, corpora), [("wreath", forged)])
    assert _not_coherent(candidates) == [("wreath", forged.tolist())]


def test_enumeration_and_cache_read_build_no_dense_matrix(monkeypatch, tmp_path):
    # schemes are rows: building candidates, reading their sections and
    # reading the cache back never canonicalise an n x n matrix
    def refuse(mat):
        raise AssertionError("dense canonicalisation")

    monkeypatch.setattr(core, "canonical_color_matrix", refuse)
    monkeypatch.delenv("CIRCULANTWL_CACHE", raising=False)
    cold = enumerate_schemes(12).schemes
    monkeypatch.setenv("CIRCULANTWL_CACHE", str(tmp_path))
    written, read = enumerate_schemes(12).schemes, enumerate_schemes(12).schemes
    assert (tmp_path / "schemes_12.json").exists()
    assert len(cold) == 32 and cold == written == read
    assert all(sections(X) for X in read)


def test_scheme_cap_is_refused_above_the_default(capsys):
    with pytest.raises(CapExceededError, match=f"capped at n <= {DEFAULT_SCHEME_CAP}"):
        enumerate_schemes(DEFAULT_SCHEME_CAP + 1)
    out = io.StringIO()
    argv = ["enumerate", "--schemes", "--order", str(DEFAULT_SCHEME_CAP + 1)]
    assert cli.run(argv, out=out) == 1
    assert out.getvalue() == ""
    assert "raise it with --cap" in capsys.readouterr().err


# -- dimension estimation -------------------------------------------------------------


def test_pentagon_has_dimension_two():
    corpus = enumerate_graphs(5)
    rep = estimate_dimension(frozenset({1, 4}), corpus)
    assert rep.estimate == 2
    assert rep.bound == 4


def test_complete_graph_dimension_two():
    corpus = enumerate_graphs(7)
    rep = estimate_dimension(frozenset(range(1, 7)), corpus)
    assert rep.estimate == 2


def test_estimates_monotone_witness_counts():
    corpus = enumerate_graphs(8)
    for conn in corpus.graphs:
        rep = estimate_dimension(conn, corpus)
        assert rep.estimate is not None
        levels = [m for (_, _, m) in rep.witnesses]
        # failing set shrinks: witness levels are nondecreasing multiplicities
        assert levels == sorted(levels)


def test_main_theorem_small_orders():
    reports = verify_main_theorem(range(4, 9))
    assert all(r.within_bound for r in reports)


def test_isomorphic_pairs_stay_equivalent_at_all_m():
    # sanity direction: an induced map is equivalent at every level
    schemes, _ = prepare_analysis(enumerate_graphs(8))
    for s in schemes[:4]:
        for phi in enumerate_algebraic_isos(s.cc, s.cc):
            if find_isomorphism(s.cc, s.cc, phi) is not None:
                for m in (2, 3):
                    assert wl_m_equivalent(s.cc, s.cc, phi.color_map, m)


def test_main_theorem_matches_single_graph_estimates():
    # the per-scheme run of verify_main_theorem and the one-graph entry agree
    reports = verify_main_theorem(range(4, 11))
    expected = [
        estimate_dimension(conn, corpus)
        for corpus in map(enumerate_graphs, range(4, 11))
        for conn in corpus.graphs
    ]
    assert reports == expected


def _no_map_induced(monkeypatch):
    monkeypatch.setattr(dimension, "is_induced", lambda *args: False)


def test_unit_image_gets_its_canonical_report(monkeypatch):
    # with no map induced the reports carry witnesses, so they can differ
    _no_map_induced(monkeypatch)
    corpus = enumerate_graphs(8)
    canonical = estimate_dimension(frozenset({1, 7}), corpus)
    assert canonical.witnesses
    # 3 * {1, 7} = {3, 5} in Z_8
    image = estimate_dimension(frozenset({3, 5}), corpus)
    assert image == replace(canonical, connection_set=frozenset({3, 5}))


def test_ladder_runs_every_level_when_no_map_is_induced(monkeypatch):
    # every algebraic isomorphism out of a graph's scheme survives every
    # level, so no estimate is reached and each level records all of them
    _no_map_induced(monkeypatch)
    reports = iter(verify_main_theorem(range(4, 7), max_m=4))
    for n in range(4, 7):
        corpus = enumerate_graphs(n)
        schemes, index = prepare_analysis(corpus)
        for conn in corpus.graphs:
            X = schemes[index[conn]]
            candidates = [
                (Y.partition_key, phi.color_map)
                for Y in schemes
                for phi in enumerate_algebraic_isos(X.cc, Y.cc)
            ]
            rep = next(reports)
            assert rep.connection_set == conn and rep.estimate is None
            assert len(rep.witnesses) == 3 * len(candidates)
            assert rep.witnesses == [(*c, m) for m in (2, 3, 4) for c in candidates]
    assert next(reports, None) is None
    argv = ["verify", "--theorem", "main", "--orders", "4..6", "--max-m", "4"]
    assert cli.run(argv, out=io.StringIO()) == 1


@pytest.mark.parametrize("n", [8, 12])
def test_muzychuk_and_estimate_walk_the_same_maps(n, monkeypatch):
    # with no map induced, the Muzychuk check reports every map of the walk
    # and the estimate keeps every map out of each scheme as a candidate; a
    # scheme's algebraic isomorphisms all survive 2-dim WL, so each one is a
    # witness at m = 2
    _no_map_induced(monkeypatch)
    schemes = enumerate_schemes(n).schemes
    report = verify_muzychuk(schemes)
    witnesses = sum(len(dimension._estimate(X, schemes, max_m=2)[1]) for X in schemes)
    assert report.checked == len(report.violations) == witnesses > 0


def test_witnesses_name_their_target_scheme(monkeypatch):
    # no two distinct schemes of order <= 16 are algebraically isomorphic, so
    # on the corpus every target is the source; a stand-in target sharing the
    # source's configuration under its own label tells the two apart
    _no_map_induced(monkeypatch)
    X = CirculantScheme.regular(8)
    target = SimpleNamespace(cc=X.cc, partition_key="target")
    estimate, witnesses = dimension._estimate(X, [target], max_m=2)
    assert estimate is None and len(witnesses) == 4
    assert {label for label, _, _ in witnesses} == {"target"}


def test_estimate_bites_on_rook_and_shrikhande(rook_and_shrikhande):
    # negative control of the headline check: the rook's graph and the
    # Shrikhande graph share one algebraic isomorphism that 2-dim WL keeps,
    # no point isomorphism induces and 3-dim WL refutes, so the estimate is 3
    rook, shrikhande = (
        SimpleNamespace(cc=cc, partition_key=name)
        for cc, name in zip(rook_and_shrikhande, ("rook", "shrikhande"))
    )
    witness = [("shrikhande", (0, 1, 2), 2)]
    assert dimension._estimate(rook, [rook, shrikhande], max_m=3) == (3, witness)
    assert dimension._estimate(rook, [rook, shrikhande], max_m=2) == (None, witness)
    report = DimensionReport(
        frozenset(), order=16, rank=3, estimate=3, bound=3, searched_up_to=3, witnesses=witness
    )
    assert report.within_bound and not replace(report, bound=2).within_bound


def test_format_outputs_are_deterministic():
    reports = verify_main_theorem([5, 6])
    assert format_table(reports) == format_table(reports)
    csv = format_csv(reports)
    assert csv.splitlines()[0] == "order,connectionSet,rank,Omega(n),estimate,bound,witnesses"
    assert len(csv.splitlines()) == len(reports) + 1


# -- reduction -----------------------------------------------------------------------


def test_reduction_on_z20_fixture(z20_fixture):
    rep = verify_reduction(z20_fixture, 2)
    assert rep.ok
    assert rep.checked == rep.extended == 4


def test_reduction_requires_singular_class():
    with pytest.raises(ValueError):
        verify_reduction(CirculantScheme.regular(12), 2)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 9])
def test_reduction_on_trivial_schemes(n):
    X = CirculantScheme.trivial(n)
    assert not is_quasinormal(X)
    rep = verify_reduction(X, 2)
    assert rep.ok
