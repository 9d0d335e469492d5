"""Randomized and corpus-wide invariant checks (seeded, deterministic)."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import circulantwl
from circulantwl import algebra
from circulantwl.algebra import (
    enumerate_algebraic_isos,
    extendable_at,
    is_algebraic_isomorphism,
)
from circulantwl.circulant import (
    CirculantScheme,
    Section,
    XGroup,
    _read_section_permutation,
    _section_cells,
    _section_color_map,
    base_tuple,
    from_connection_partition,
    is_quasinormal,
    label_classes,
    scheme_radical,
    secc0,
    sections,
    xgroup_lattice,
)
from circulantwl.core import (
    CoherentConfig,
    Parabolic,
    Relation,
    _covering_colors,
    circulant_matrix,
    generated_equivalence,
    intersection_tensor,
    point_extension,
    quotient,
    radical,
    restriction,
    tensor_product,
    trivial_config,
    validate,
)
from circulantwl.dimension import enumerate_graphs, enumerate_schemes
from circulantwl.refine import (
    close_pairs,
    origin_tuple_index,
    InvariantError,
    refine_circulant,
    refine_tuples,
    tuple_digits,
)
from circulantwl.wl import (
    pebble_game_oracle,
    projection,
    validate_m_ary,
    wl_closure,
    wl_m_refine,
)
from oracles import induced_on_section, refine_pairs, section_coset


def random_partition(rng, n):
    k = int(rng.integers(1, n))
    labels = rng.integers(0, k, size=n - 1)
    parts = {}
    for d, lab in zip(range(1, n), labels):
        parts.setdefault(int(lab), set()).add(d)
    return list(parts.values())


@pytest.mark.parametrize("seed", range(8))
def test_random_circulant_closures_are_coherent_and_invariant(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        n = int(rng.integers(2, 17))
        scheme, _ = from_connection_partition(n, random_partition(rng, n))
        assert validate(scheme.cc).valid
        row = scheme.cc.colors[0]
        for a in range(n):
            for b in range(n):
                assert scheme.cc.colors[a, b] == row[(b - a) % n]


@pytest.mark.parametrize("seed", range(4))
def test_quotients_and_restrictions_validate(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(6, 14))
    scheme, _ = from_connection_partition(n, random_partition(rng, n))
    for H in xgroup_lattice(scheme):
        if H.order == 1:
            continue
        colors = frozenset(
            scheme.color_of_difference(d) for d in H.elements
        )
        e = generated_equivalence(Relation(scheme.cc, colors))
        q = quotient(scheme.cc, e)
        assert validate(q).valid
        r = restriction(scheme.cc, sorted(H.elements))
        assert validate(r).valid


@pytest.mark.parametrize("seed", range(6))
def test_radical_refines_span_on_random_relations(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(4, 13))
    scheme, _ = from_connection_partition(n, random_partition(rng, n))
    cc = scheme.cc
    k = int(rng.integers(1, cc.rank)) if cc.rank > 1 else 1
    colors = frozenset(int(c) for c in rng.choice(cc.rank, size=k, replace=False))
    rel = Relation(cc, colors)
    assert radical(rel).refines(generated_equivalence(rel))


@pytest.mark.parametrize("seed", range(5))
def test_point_extension_depends_on_set_only(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(4, 11))
    scheme, _ = from_connection_partition(n, random_partition(rng, n))
    pts = [int(p) for p in rng.choice(n, size=3, replace=True)]
    shuffled = list(pts)
    rng.shuffle(shuffled)
    a = point_extension(scheme.cc, tuple(pts))
    b = point_extension(scheme.cc, tuple(shuffled) + (pts[0],))
    assert a == b
    assert validate(a).valid


def test_tensor_products_of_corpus_schemes_validate():
    small = enumerate_schemes(4).schemes + enumerate_schemes(5).schemes
    for a in small:
        for b in small:
            t = tensor_product(a.cc, b.cc)
            assert t.rank == a.cc.rank * b.cc.rank
            assert validate(t).valid


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_m_ary_refinements_are_coherent(n):
    for scheme in enumerate_schemes(n).schemes[:4]:
        mc = wl_m_refine(scheme.cc, 3)
        assert validate_m_ary(mc)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_wl_monotone_under_projection(n):
    for scheme in enumerate_schemes(n).schemes[:4]:
        m3 = wl_m_refine(scheme.cc, 3)
        m4 = wl_m_refine(scheme.cc, 4)
        p3 = projection(m4, 3)
        for c in range(p3.rank):
            mask = p3.color_of == c
            assert len(np.unique(m3.color_of[mask])) == 1


def test_game_table_transposition_symmetry():
    schemes = enumerate_schemes(6).schemes
    for a in schemes[:4]:
        for phi in enumerate_algebraic_isos(a.cc, a.cc):
            fwd = pebble_game_oracle(a.cc, a.cc, phi.color_map, 2)
            bwd = pebble_game_oracle(a.cc, a.cc, phi.inverse().color_map, 2)
            for x, y in zip(fwd.levels, bwd.levels):
                assert np.array_equal(x.T, y)


def _cycle_arcs(n, step=1):
    init = np.eye(n, dtype=np.int64)
    for a in range(n):
        init[a, (a + step) % n] = init[(a + step) % n, a] = 2
    return init


def test_lockstep_refinement_symmetric():
    # two identical sides refine exactly like one side, for pairs and at m = 3
    for init in (
        CirculantScheme.regular(8).cc.colors,
        _cycle_arcs(9),
        np.random.default_rng(7).integers(0, 3, size=(7, 7)),
    ):
        for closure in (close_pairs, refine_pairs):
            (ma, mb), rank = closure(init, init)
            [single], single_rank = closure(init)
            assert rank == single_rank
            assert np.array_equal(ma, mb) and np.array_equal(ma, single)
        n = len(init)
        (ta, tb), rank = refine_tuples(init, init, m=3)
        [single], single_rank = refine_tuples(init, m=3)
        assert rank == single_rank
        assert np.array_equal(ta, tb) and np.array_equal(ta, single)


def _every_connection_set():
    for n in range(2, 12):
        for bits in range(2 ** (n - 1)):
            yield np.array([0] + [(bits >> (d - 1)) & 1 for d in range(1, n)])


def _one_set_per_unit_class():
    for n in range(12, 15):
        for conn in enumerate_graphs(n, directed=True, cap=14).graphs:
            row = np.zeros(n, dtype=np.int64)
            row[list(conn)] = 1
            yield row


def _set_partition_labels(k):
    """Restricted growth strings of length k, one per set partition."""
    if k == 0:
        yield ()
        return
    for head in _set_partition_labels(k - 1):
        for label in range(max(head, default=-1) + 2):
            yield head + (label,)


def _every_partition():
    for n in range(2, 10):
        for labels in _set_partition_labels(n - 1):
            yield np.array((0,) + tuple(label + 1 for label in labels))


@pytest.mark.parametrize(
    "rows", [_every_connection_set, _one_set_per_unit_class, _every_partition]
)
def test_row0_closure_matches_dense_closure(rows):
    # the dense pair round is the oracle of the row-0 round wl_closure takes
    for row in rows():
        arcs = circulant_matrix(row)
        init = arcs * 2
        init[np.diag_indices(len(row))] += 1
        [dense], _ = refine_pairs(init)
        assert np.array_equal(wl_closure(arcs).colors, CoherentConfig(dense).colors), row


def test_stacked_row0_closure_matches_single_rows():
    # every undirected graph of orders 1..20 and directed graph of orders
    # 1..12, closed as one stack per order and row by row: equal ids and ranks
    for n, directed in [(n, False) for n in range(1, 21)] + [(n, True) for n in range(1, 13)]:
        conns = enumerate_graphs(n, directed=directed).graphs
        init = np.zeros((len(conns), n), dtype=np.int64)
        for row, conn in zip(init, conns):
            row[list(conn)] = 2
        init[:, 0] += 1
        stable, ranks = refine_circulant(init)
        for row, closed, rank in zip(init, stable, ranks.tolist()):
            alone, alone_rank = refine_circulant(row)
            assert rank == alone_rank and np.array_equal(closed, alone), (n, row)


def test_scheme_row_is_the_dense_canonical_row(schemes_up_to_16):
    # the canonical numbering of the dense matrix is the oracle of the row's;
    # a row given in any other labels, negative and sparse ones too, ranks
    # back to the same scheme
    rng = np.random.default_rng(29)
    for n, schemes in schemes_up_to_16.items():
        for X in schemes:
            dense = CoherentConfig(circulant_matrix(X.row))
            assert np.array_equal(dense.colors[0], X.row), (n, sorted(map(sorted, X.partition_key)))
            perm = rng.permutation(X.rank)
            assert CirculantScheme(perm[X.row] * 7 - 50) == X, (n, perm.tolist())


def test_partition_closure_matches_dense_closure():
    # every partition of Z_n for n <= 7, also those where 0 shares a class:
    # the closure of the dense matrix is the oracle of the row closure
    seen = 0
    for n in range(1, 8):
        for labels in _set_partition_labels(n):
            row = np.array(labels)
            X, coherent = from_connection_partition(n, label_classes(row))
            dense = wl_closure(circulant_matrix(row))
            assert np.array_equal(X.cc.colors, dense.colors), labels
            assert coherent == (dense.rank == max(labels) + 1), labels
            seen += 1
    assert seen == 1155


def _x0_refinement_expanded(mats, n, m):
    res = refine_tuples(*mats, m=m, origin=True)
    if res is None:
        return None
    sides, rank = res
    origin = origin_tuple_index(tuple_digits(n, m), n)
    return [side[origin] for side in sides], rank


def test_x0_refinement_matches_dense_refinement():
    # the dense m-ary round is the oracle of the x0 = 0 round
    checked = 0
    for n in range(2, 10):
        for X in enumerate_schemes(n).schemes:
            for m in (2, 3, 4) if n <= 8 else (2, 3):
                [dense], rank = refine_tuples(X.cc.colors, m=m)
                [reduced], reduced_rank = _x0_refinement_expanded([X.cc.colors], n, m)
                assert reduced_rank == rank and np.array_equal(reduced, dense), (n, m, X.rank)
                checked += 1
    assert checked == 104


def _transpositions(X, rng, k=2):
    """k color maps that swap two random non-diagonal colors of X."""
    off = [c for c in range(X.rank) if c != X.cc.colors[0, 0]]
    if len(off) < 2:
        return []
    out = []
    for _ in range(k):
        a, b = rng.choice(off, size=2, replace=False)
        swap = list(range(X.rank))
        swap[a], swap[b] = b, a
        out.append(swap)
    return out


def test_x0_lockstep_diverges_exactly_when_dense_does():
    rng = np.random.default_rng(10)
    verdicts = {True: 0, False: 0}
    for n in range(2, 11):
        for X in enumerate_schemes(n).schemes:
            maps = [phi.color_map for phi in enumerate_algebraic_isos(X.cc, X.cc)]
            for cmap in maps + _transpositions(X, rng):
                inverse = np.argsort(cmap)
                mats = (X.cc.colors, inverse[X.cc.colors])
                for m in (2, 3):
                    dense = refine_tuples(*mats, m=m)
                    reduced = _x0_refinement_expanded(mats, n, m)
                    assert (reduced is None) == (dense is None), (n, cmap, m)
                    if dense is not None:
                        assert reduced[1] == dense[1]
                        assert all(map(np.array_equal, reduced[0], dense[0]))
                    verdicts[dense is None] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


def test_lockstep_refinement_diverges():
    for closure in (close_pairs, refine_pairs):
        assert closure(np.zeros((3, 3)), np.zeros((4, 4))) is None
        # the 6-cycle and two triangles: equal degrees, so the sides diverge
        # only after a round
        assert closure(_cycle_arcs(6), _cycle_arcs(6, 2)) is None


def test_lockstep_refinement_separates_rook_from_shrikhande(rook_and_shrikhande):
    rook, shrikhande = rook_and_shrikhande
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    inverse = phi.inverse().array
    for m, diverges in ((2, False), (3, True)):
        mats = (rook.colors, inverse[shrikhande.colors])
        assert (refine_tuples(*mats, m=m) is None) == diverges


def test_quasinormal_sections_decompose_into_controlled_factors(schemes_up_to_16):
    from circulantwl.circulant import (
        is_quasinormal,
        quasinormal_section_decomposition,
        secc0,
    )

    checked = 0
    for n in range(2, 17):
        for X in schemes_up_to_16[n]:
            if not is_quasinormal(X):
                continue
            for sec in secc0(X):
                if sec.order <= 1:
                    continue
                dec = quasinormal_section_decomposition(X, sec)
                assert dec is not None, (n, sec.label())
                assert sec.order == int(np.prod([s.order for s in dec]))
                checked += 1
    assert checked > 200


@pytest.mark.parametrize("n", [6, 9, 10, 12])
def test_scheme_radical_independent_of_generator(n):
    import math

    for scheme in enumerate_schemes(n).schemes:
        rads = {
            scheme.connection_sets[scheme.color_of_difference(g)]
            for g in range(1, n)
            if math.gcd(g, n) == 1
        }
        orders = set()
        for conn in rads:
            # the largest subgroup whose shifts fix the set
            orders.add(
                max(
                    order
                    for order in range(1, n + 1)
                    if n % order == 0 and frozenset((x + n // order) % n for x in conn) == conn
                )
            )
        assert len(orders) == 1
        assert orders.pop() == scheme_radical(scheme).order


# -- section maps: closed forms against the generic restriction-then-quotient maps


def _coset_blocks(sec):
    return tuple(tuple(sorted(section_coset(sec, i))) for i in range(sec.order))


def _generic_section_map(phi, sec):
    pts, blocks = sorted(sec.upper.elements), _coset_blocks(sec)
    return induced_on_section(phi, pts, blocks, pts, blocks)


def _dense_section(cc, sec):
    """cc restricted to U, modulo the cosets of L; None when the coset
    partition is not a relation of the restriction."""
    pts = sorted(sec.upper.elements)
    sub = restriction(cc, pts)
    relabel = {p: i for i, p in enumerate(pts)}
    blocks = tuple(tuple(sorted(relabel[p] for p in blk)) for blk in _coset_blocks(sec))
    colors = _covering_colors(sub, blocks)
    return None if colors is None else quotient(sub, Parabolic(blocks, colors))


def _generic_diagonal_images(ext, sec):
    """The cell (j, j2) of the image of each diagonal cell (i, i) under the
    generic section map of the lifted map; None when the section of either
    point extension is not discrete."""
    induced = _generic_section_map(ext.lifted, sec)
    src, tgt = induced.source, induced.target
    if src.rank != sec.order**2 or tgt.rank != sec.order**2:
        return None
    return [
        tuple(int(v) for v in np.argwhere(tgt.colors == induced(src.color_of(i, i)))[0])
        for i in range(sec.order)
    ]


def test_section_color_map_matches_generic_section_map(schemes_up_to_13):
    moved = Counter()
    for n in range(2, 11):
        for X in schemes_up_to_13[n]:
            autos = enumerate_algebraic_isos(X.cc, X.cc)
            for sec in sections(X):
                for phi in autos:
                    generic = _generic_section_map(phi, sec)
                    closed = _section_color_map(X, sec, phi)
                    assert generic.source == closed.source == sec.scheme.cc
                    assert closed.color_map == generic.color_map, (n, sec.label(), phi.color_map)
                    moved[closed.is_identity] += 1
    assert moved == {True: 509, False: 93}


def test_section_cells_are_discrete_exactly_when_the_dense_quotient_is(schemes_up_to_13):
    discrete = Counter()
    for n in range(2, 13):
        for X in schemes_up_to_13[n]:
            cases = [(point_extension(X.cc, (0,)), sections(X))]
            if is_quasinormal(X):
                cases.append((point_extension(X.cc, base_tuple(X)), secc0(X)))
            for ext, secs in cases:
                for sec in secs:
                    cells = _section_cells(ext, sec)
                    dense = _dense_section(ext, sec)
                    assert (cells is not None) == (dense.rank == sec.order**2), (n, sec.label())
                    discrete[cells is not None] += 1
    assert discrete == {True: 929, False: 180}


def test_section_permutation_matches_generic_section_map(schemes_up_to_13):
    read = Counter()
    for n in range(2, 9):
        for X in schemes_up_to_13[n]:
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                for x in {base_tuple(X), (0,)}:
                    ext = extendable_at(phi, x)
                    for sec in secc0(X) if ext is not None else ():
                        cells = _generic_diagonal_images(ext, sec)
                        if cells is None or any(j != j2 for j, j2 in cells):
                            with pytest.raises(InvariantError):
                                _read_section_permutation(ext, sec)
                            read[False] += 1
                        else:
                            assert _read_section_permutation(ext, sec) == tuple(j for j, _ in cells)
                            read[True] += 1
    assert read == {True: 590, False: 28}


def test_section_cells_refuse_a_coset_partition_that_is_not_a_relation():
    # the single off-diagonal color of the trivial configuration on Z_4 meets
    # pairs inside and across the cosets of {0, 2}
    cc, sec = trivial_config(4), Section(XGroup(4, 4), XGroup(4, 2), CirculantScheme.regular(2))
    assert _dense_section(cc, sec) is None
    with pytest.raises(InvariantError, match="coset partition is not a relation"):
        _section_cells(cc, sec)
    script = (
        "from circulantwl.circulant import CirculantScheme, Section, XGroup, _section_cells\n"
        "from circulantwl.core import trivial_config\n"
        "from circulantwl.refine import InvariantError\n"
        "sec = Section(XGroup(4, 4), XGroup(4, 2), CirculantScheme.regular(2))\n"
        "try:\n"
        "    _section_cells(trivial_config(4), sec)\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(circulantwl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.stdout == "coset partition is not a relation of the configuration\n", res.stderr


# -- vector forms against the per-color loops they replaced


def _tensor_by_color(cc):
    k = cc.rank
    tensor = np.zeros((k, k, k), dtype=np.int64)
    for t in range(k):
        a, b = cc.representative[t]
        pair = cc.colors[a] * np.int64(k) + cc.colors[:, b]
        tensor[:, :, t] = np.bincount(pair, minlength=k * k).reshape(k, k)
    return tensor


def _lifted_by_shared_color(ext, mat_a, mat_b, rank):
    lifted = [-1] * rank
    for shared in range(rank):
        (a, b), (a2, b2) = np.argwhere(mat_a == shared)[0], np.argwhere(mat_b == shared)[0]
        lifted[ext.ext_source.color_of(a, b)] = ext.ext_target.color_of(a2, b2)
    return lifted


def test_tensor_iso_test_and_lifted_map_match_per_color_loops(monkeypatch, schemes_up_to_13):
    refined = []

    def recording_close_pairs(*inits):
        refined.append(close_pairs(*inits))
        return refined[-1]

    monkeypatch.setattr(algebra, "close_pairs", recording_close_pairs)
    rng = np.random.default_rng(11)
    verdicts = Counter()
    for n in range(2, 9):
        for X in schemes_up_to_13[n]:
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                ext = extendable_at(phi, (0,))
                (mat_a, mat_b), rank = refined[-1]
                lifted = _lifted_by_shared_color(ext, mat_a, mat_b, rank)
                assert ext.lifted.color_map == tuple(lifted)
                src, tgt = ext.ext_source, ext.ext_target
                ta, tb = _tensor_by_color(src), _tensor_by_color(tgt)
                assert np.array_equal(intersection_tensor(src), ta)
                for cmap in (lifted, list(rng.permutation(rank))):
                    expected = np.array_equal(ta, tb[np.ix_(cmap, cmap, cmap)])
                    assert is_algebraic_isomorphism(src, tgt, cmap) == expected
                    verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts
