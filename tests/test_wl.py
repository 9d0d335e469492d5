import ast
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circulantwl
from circulantwl import algebra, core, refine, wl
from circulantwl.algebra import identity_iso, tuple_extension
from circulantwl.core import (
    CoherentConfig,
    circulant_matrix,
    point_extension,
    trivial_config,
    validate,
)
from circulantwl.circulant import base_tuple
from circulantwl.dimension import enumerate_schemes, graph_scheme
from circulantwl.refine import (
    DEFAULT_TUPLE_CAP,
    CapExceededError,
    InvariantError,
    close_pairs,
    refine_circulant,
    refine_pairs,
)
from circulantwl.wl import (
    GameTable,
    MAryConfig,
    pebble_game_oracle,
    projection,
    validate_m_ary,
    wl_closure,
    wl_m_equivalent,
    wl_m_refine,
)


def cay_arcs(n, conn):
    return np.array(
        [[1 if (b - a) % n in conn else 0 for b in range(n)] for a in range(n)]
    )


def cay_closure(n, conn):
    return wl_closure(cay_arcs(n, conn))


# -- renumbering -----------------------------------------------------------------


def _tables():
    rng = np.random.default_rng(1)
    big = rng.integers(0, 2**52, size=3)
    yield np.zeros((1, 1), dtype=np.int64)
    for shape in ((9, 1), (16, 17), (800, 21), (16_000, 3), (4_096, 65)):
        yield rng.integers(0, 3, size=shape)
    yield np.full((50, 4), 7, dtype=np.int64)
    yield rng.integers(0, 2**52, size=(500, 3))
    yield big[rng.integers(0, 3, size=(600, 3))]


def test_renumbering_gives_the_ids_of_np_unique():
    # the ids of every refinement round: ascending lexicographic row order
    for rows in _tables():
        uniq, inv = np.unique(rows, axis=0, return_inverse=True)
        ids, count = refine._renumber_rows(rows)
        assert count == len(uniq) and ids.dtype == np.int64
        assert np.array_equal(ids, inv.ravel()), rows.shape


def _oracle_tables():
    """Seeded tables of widths 1..40 and 1..5,000 rows, drawn from a pool
    of a third as many rows so that rows repeat.  Entries span 0/1, small
    ranks, the packing's bit boundaries, 2**20, 2**40 and 2**53, shifted
    negative in every other table.  Short, narrow tables of small entries
    pack into one key with a small range and are ranked by counting; the
    others are sorted, by one key or several."""
    rng = np.random.default_rng(25)
    tops = (2, 3, 4, 5, 8, 9, 16, 17, 2**20, 2**20 + 1, 2**40, 2**53)
    for width in range(1, 41):
        for i, top in enumerate(tops):
            count = int(np.exp(rng.uniform(0, np.log(5_000)))) if width % 10 else 5_000
            pool = rng.integers(0, top, size=(max(2, count // 3), width))
            # pairs of pool rows differ in the last column alone, which holds
            # the widest entry, so no key may drop or truncate it
            pool[1::2, :-1] = pool[::2, :-1][: len(pool) // 2]
            pool[0, -1] = top - 1
            rows = pool[rng.integers(0, len(pool), size=count)]
            yield rows - top // 2 if i % 2 else rows


def test_renumbering_matches_np_unique_on_every_packing():
    # np.unique is the pebble game's independent form of the renumbering;
    # an empty table has no minimum to shift out and ranks to no ids
    empty = [np.zeros((0, width), dtype=np.int64) for width in (1, 3)]
    for rows in itertools.chain(_oracle_tables(), empty):
        uniq, inv = np.unique(rows, axis=0, return_inverse=True)
        ids, count = refine._renumber_rows(rows)
        assert count == len(uniq) and np.array_equal(ids, inv.ravel()), (rows.shape, rows.max())


def test_rows_are_renumbered_by_one_mechanism():
    # refinement ids come from refine._renumber_rows alone; the pebble-game
    # oracle keeps its own np.unique so that it stays independent of it
    found = []
    for path in sorted(Path(circulantwl.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "np.unique"
                    and any(kw.arg == "axis" and ast.unparse(kw.value) == "0"
                            for kw in node.keywords)
                ):
                    found.append((path.name, getattr(top, "name", None)))
    assert found == [("wl.py", "_consistency")]


def _digest(array):
    return hashlib.sha256(np.asarray(array, dtype=np.int64).tobytes()).hexdigest()


def test_ids_that_stdout_does_not_show_are_pinned(schemes_up_to_16, rook_and_shrikhande):
    corpus = hashlib.sha256()
    for n in range(1, 17):
        for X in schemes_up_to_16[n]:
            corpus.update(repr((n, X.cc.colors.tolist())).encode())
    assert corpus.hexdigest() == (
        "1109265e1be0a614a7c16af028eb69a257e300374ace883fc679d51a248f2be8"
    )
    cycle = wl_m_refine(graph_scheme(12, frozenset({1, 11})).cc, 3)  # x0 = 0 path
    assert (cycle.rank, _digest(cycle.color_of)) == (
        74, "24d23febf529a151f91688b9f95f23f33982c8b7f7e8b6ccbc5e11b44c7f984a"
    )
    rook = rook_and_shrikhande[0]  # dense path
    dense = [wl_m_refine(rook, m) for m in (2, 3)]
    assert [(mc.rank, _digest(mc.color_of)) for mc in dense] == [
        (3, "5147c31796507908dee5943ae80708e97539db2d78c3a0a200cd0c48a0b7699a"),
        (15, "4806673ddf788d3f42bb212c9373da771ffcc12f6b5dd1ab544304925c6d9dab"),
    ]


# -- closure ---------------------------------------------------------------------


def test_complete_graph_closes_to_trivial():
    assert cay_closure(4, {1, 2, 3}) == trivial_config(4)


def test_pentagon_closes_to_distance_scheme():
    cc = cay_closure(5, {1, 4})
    assert cc.rank == 3
    assert validate(cc).valid
    # connection classes {0}, {+-1}, {+-2}
    assert cc.color_of(0, 1) == cc.color_of(0, 4)
    assert cc.color_of(0, 2) == cc.color_of(0, 3)
    assert cc.color_of(0, 1) != cc.color_of(0, 2)


def test_directed_cycle_closes_to_regular():
    cc = cay_closure(5, {1})
    assert cc.rank == 5
    expected = CoherentConfig(
        np.array([[(b - a) % 5 for b in range(5)] for a in range(5)])
    )
    assert cc == expected


def test_closure_refines_arc_partition():
    rng = np.random.default_rng(11)
    for _ in range(10):
        arcs = rng.integers(0, 2, size=(7, 7))
        cc = wl_closure(arcs)
        assert validate(cc).valid
        for c in range(cc.rank):
            mask = cc.colors == c
            assert len(np.unique(arcs[mask])) == 1


def test_closure_is_idempotent():
    cc = cay_closure(6, {1, 5})
    again = wl_closure(cc.colors)
    assert again == cc


# -- m-ary refinement --------------------------------------------------------------


def test_two_ary_refinement_matches_binary_rank():
    cc = cay_closure(5, {1, 4})
    mc = wl_m_refine(cc, 2)
    assert mc.rank == cc.rank
    assert validate_m_ary(mc)


def test_three_ary_on_trivial_distinguishes_equality_patterns_only():
    mc = wl_m_refine(trivial_config(4), 3)
    # patterns on 3-tuples: aaa, aab, aba, abb(=baa shape), abc
    assert mc.rank == 5
    assert validate_m_ary(mc)


def test_projection_identity_and_coherence():
    cc = cay_closure(5, {1, 4})
    mc = wl_m_refine(cc, 3)
    assert projection(mc, 3) is mc
    p2 = projection(mc, 2)
    flat = p2.color_of.reshape(5, 5)
    assert validate(CoherentConfig(flat)).valid


@pytest.mark.parametrize("n,conn", [(5, {1, 4}), (6, {1, 5}), (6, {2, 4}), (7, {1, 6})])
def test_projection_of_wl3_refines_base(n, conn):
    cc = cay_closure(n, conn)
    p2 = projection(wl_m_refine(cc, 3), 2)
    flat = p2.color_of.reshape(n, n)
    for c in range(p2.rank):
        assert len(np.unique(cc.colors[flat == c])) == 1


def test_wl_monotone_in_m():
    cc = cay_closure(8, {1, 7})
    m2 = wl_m_refine(cc, 2)
    m3 = projection(wl_m_refine(cc, 3), 2)
    # m3's binary projection refines m2's classes
    a = m2.color_of.reshape(8, 8)
    b = m3.color_of.reshape(8, 8)
    for c in range(m3.rank):
        assert len(np.unique(a[b == c])) == 1


def test_memory_cap_refuses():
    with pytest.raises(CapExceededError):
        wl_m_refine(trivial_config(10), 4, cap=100)


def test_tuple_cap_bounds_the_substitution_table():
    # a dense 3-ary round on 10 points builds 10**4 * 3 substitution
    # entries, not 10**3; an individualised point keeps it dense
    dense = point_extension(trivial_config(10), (0,))
    wl_m_refine(dense, 3, cap=10**4 * 3)
    with pytest.raises(CapExceededError, match=r"10\*\*4\*3 entries"):
        wl_m_refine(dense, 3, cap=10**4 * 3 - 1)
    # a translation-invariant one runs on the tuples with x0 = 0, n times fewer
    wl_m_refine(trivial_config(10), 3, cap=10**3 * 3)
    with pytest.raises(CapExceededError, match=r"10\*\*3\*3 entries \(tuples with x0 = 0\)"):
        wl_m_refine(trivial_config(10), 3, cap=10**3 * 3 - 1)


def test_m_ary_validation_refuses_a_dense_round_over_the_cap():
    # a circulant config refines on its x0 = 0 tuples, but validate_m_ary
    # checks it with a dense round: 101**4*3 entries, refused before allocating
    mc = MAryConfig(m=3, n=101, color_of=np.zeros(101**3, dtype=np.int64), rank=1)
    with pytest.raises(CapExceededError, match=r"101\*\*4\*3 entries > cap"):
        validate_m_ary(mc)


def test_pair_round_cap_refuses_before_allocating():
    # 465**3 just exceeds the cap; the check runs before the n**3 round table
    with pytest.raises(CapExceededError, match=r"465\*\*3 entries"):
        wl_closure(np.eye(465, k=1, dtype=np.int64))


def relabelled(rng, arcs):
    perm = rng.permutation(len(arcs))
    out = np.empty_like(arcs)
    out[np.ix_(perm, perm)] = arcs
    return out


def test_hashed_closure_matches_lockstep_closure(monkeypatch, rook_and_shrikhande_arcs):
    # refine_pairs is the oracle of close_pairs on every input that
    # wl_closure and point_extension hand it
    checked = []

    def checked_close_pairs(init):
        stable, rank = close_pairs(init)
        [oracle], oracle_rank = refine_pairs(init)
        assert rank == oracle_rank and CoherentConfig(stable) == CoherentConfig(oracle)
        checked.append(len(init))
        return stable, rank

    monkeypatch.setattr(wl, "close_pairs", checked_close_pairs)
    monkeypatch.setattr(core, "close_pairs", checked_close_pairs)
    _close_relabelled_and_random(rook_and_shrikhande_arcs)
    dense = len(checked)  # one circulant drawn is K_8, which relabels to itself
    _extend_small_schemes()
    assert (dense, len(checked) - dense) == (25, 96)


def _close_relabelled_and_random(rook_and_shrikhande_arcs):
    rng = np.random.default_rng(12)
    for _ in range(12):
        n = int(rng.integers(5, 25))
        row = np.zeros(n, dtype=np.int64)
        row[rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False)] = 1
        wl_closure(relabelled(rng, circulant_matrix(row)))
    for arcs in rook_and_shrikhande_arcs:
        wl_closure(relabelled(rng, arcs))
    for _ in range(12):
        n = int(rng.integers(2, 13))
        wl_closure(rng.integers(0, 3, size=(n, n)))


def _extend_small_schemes():
    for n in range(1, 11):
        for X in enumerate_schemes(n).schemes:
            point_extension(X.cc, (0,))
            point_extension(X.cc, base_tuple(X))


def _whole_table_unstable_pairs(mat, rank):
    """The stability mask from the whole n**3 table of exact pair rows."""
    flat = mat.ravel()
    codes = refine._pair_round_codes(mat, rank)
    return (codes != codes[np.unique(flat, return_index=True)[1][flat]]).any(axis=1)


def test_blockwise_stability_check_matches_whole_table(monkeypatch, rook_and_shrikhande_arcs):
    # every check close_pairs makes on the hashed-closure inputs and, where
    # forced hash collisions leave partitions unstable, on the collision
    # inputs; then the CC3 mask of a configuration that is not coherent
    seen = []

    def checked_unstable_pairs(mat, rank):
        mask = unstable_pairs(mat, rank)
        assert np.array_equal(mask, _whole_table_unstable_pairs(mat, rank))
        seen.append(bool(mask.any()))
        return mask

    unstable_pairs = refine._unstable_pairs
    monkeypatch.setattr(refine, "_unstable_pairs", checked_unstable_pairs)
    _close_relabelled_and_random(rook_and_shrikhande_arcs)
    _extend_small_schemes()
    assert len(seen) >= 121
    monkeypatch.setattr(refine, "_hash_weights", lambda rng, rank, n: np.ones((4, rank)))
    for init in _collision_inputs():
        close_pairs(init)
    assert any(seen)
    mat = np.zeros((7, 7), dtype=np.int64)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)):
        mat[a, b] = mat[b, a] = 1
    cc = CoherentConfig(mat)
    mask = unstable_pairs(cc.colors, cc.rank)
    assert mask.any() and np.array_equal(mask, _whole_table_unstable_pairs(cc.colors, cc.rank))
    assert not validate(cc).valid


def test_forced_hash_collisions_still_reach_the_closure(monkeypatch):
    # constant weights give every pair the same sums, so no hashed round
    # splits and only the exact check and exact rounds refine
    monkeypatch.setattr(refine, "_hash_weights", lambda rng, rank, n: np.ones((4, rank)))
    for init in _collision_inputs():
        stable, rank = close_pairs(init)
        [oracle], oracle_rank = refine_pairs(init)
        assert rank == oracle_rank > len(np.unique(init))
        assert CoherentConfig(stable) == CoherentConfig(oracle)


def _collision_inputs():
    rng = np.random.default_rng(0)
    return [
        relabelled(rng, cay_arcs(12, {1, 11})) * 2 + np.eye(12, dtype=np.int64),
        relabelled(rng, cay_arcs(15, {1, 3, 12, 14})) * 2 + np.eye(15, dtype=np.int64),
        np.eye(9, k=1, dtype=np.int64),
        rng.integers(0, 3, size=(8, 8)),
    ]


def test_closures_take_the_hashed_round_and_extensions_the_lockstep_one(monkeypatch):
    def lockstep(*inits):
        raise RuntimeError("lockstep pair round")

    for module in (refine, core, wl, algebra):
        monkeypatch.setattr(module, "refine_pairs", lockstep, raising=False)
    assert validate(wl_closure(relabelled(np.random.default_rng(2), cay_arcs(10, {1, 9})))).valid
    cc = graph_scheme(10, frozenset({1, 9})).cc
    assert validate(point_extension(cc, (0,))).valid
    with pytest.raises(RuntimeError, match="lockstep pair round"):
        tuple_extension(identity_iso(cc), (0,), (0,))


def test_hash_sums_stay_exact_up_to_the_pair_cap(monkeypatch):
    n = 464  # the largest order whose pair round fits the cap
    assert n**3 <= DEFAULT_TUPLE_CAP < (n + 1) ** 3
    weights = refine._hash_weights(np.random.default_rng(0), 10**4, n)
    top = int(weights.max())
    assert weights.min() >= 1 and n * top**2 < 2**53 and top > 4 * 10**6
    # weights past the bound are refused, not summed inexactly
    monkeypatch.setattr(refine, "_hash_weights", lambda rng, rank, n: np.full((4, rank), 2.0**26))
    with pytest.raises(InvariantError, match="inexact"):
        close_pairs(np.eye(4, k=1, dtype=np.int64))


def test_hash_bound_fires_under_python_O():
    script = (
        "import numpy as np\n"
        "from circulantwl import refine\n"
        "refine._hash_weights = lambda rng, rank, n: np.full((4, rank), 2.0**26)\n"
        "try:\n"
        "    refine.close_pairs(np.eye(4, k=1, dtype=np.int64))\n"
        "except refine.InvariantError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    src = str(Path(circulantwl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.stdout == "False hash weight 67108864 makes sums of 4 products inexact\n", res.stderr


def test_row0_round_cap_refuses_before_allocating():
    # 10**4 * (10**4 + 1) just exceeds the cap; only row 0 is ever built
    with pytest.raises(CapExceededError, match=r"10000\*10001 entries"):
        refine_circulant(np.zeros(10**4, dtype=np.int64))


def test_row0_stack_closes_alike_across_chunk_boundaries(monkeypatch):
    # a budget of 1 closes one row per chunk; 3 rows of order 16 split 7 rows
    # unevenly; either way each row is the row it closes to alone
    rows = np.array([cay_arcs(16, conn)[0] for conn in
                     ({1, 15}, {1, 15, 3, 13}, set(), {8}, {2, 14, 5, 11}, {1, 2, 3}, {4, 12})])
    init = rows * 2
    init[:, 0] += 1
    alone = [refine_circulant(row) for row in init]
    for budget in (1, 3 * 16 * 17, refine.STACK_ENTRIES):
        monkeypatch.setattr(refine, "STACK_ENTRIES", budget)
        stable, ranks = refine_circulant(init)
        assert [(row.tolist(), rank) for row, rank in zip(stable, ranks.tolist())] == [
            (row.tolist(), rank) for row, rank in alone
        ]


def test_row0_refinement_keeps_the_dense_ids():
    # row d of the row-0 round is the dense row of every pair (a, a + d)
    rows = ([0, 1, 2, 2, 1, 0, 1, 2, 2, 1], cay_arcs(16, {1, 15, 3, 13})[0],
            cay_arcs(40, {1, 39, 3, 37, 8})[0])
    for row in rows:
        init = circulant_matrix(np.asarray(row)) * 2 + np.eye(len(row), dtype=np.int64)
        [dense], rank = refine_pairs(init)
        stable, row_rank = refine_circulant(init[0])
        assert row_rank == rank and np.array_equal(circulant_matrix(stable), dense)


def test_refinement_is_deterministic():
    cc = cay_closure(9, {1, 8, 3, 6})
    a = wl_m_refine(cc, 3)
    b = wl_m_refine(cc, 3)
    assert np.array_equal(a.color_of, b.color_of)


# -- WL_m equivalence ----------------------------------------------------------------


def test_self_equivalence_identity():
    cc = cay_closure(6, {1, 5})
    ident = list(range(cc.rank))
    for m in (2, 3):
        assert wl_m_equivalent(cc, cc, ident, m)


def test_equivalence_under_induced_isomorphism():
    # relabeling a graph induces a color bijection; equivalence must hold
    cc = cay_closure(7, {1, 6})
    perm = np.array([0, 3, 6, 2, 5, 1, 4])  # multiplication by 3 mod 7
    relabeled = CoherentConfig(cc.colors[perm][:, perm])
    # identity on canonical colors: relabeling by a unit preserves the scheme
    assert relabeled == cc
    assert wl_m_equivalent(cc, relabeled, list(range(cc.rank)), 2)


def test_rank_mismatch_is_inequivalent():
    c6 = cay_closure(6, {1, 5})
    two_triangles = cay_closure(6, {2, 4})
    assert c6.rank != two_triangles.rank
    assert not wl_m_equivalent(c6, two_triangles, list(range(c6.rank)), 2)


def test_non_isomorphism_color_swap_is_inequivalent():
    cc = cay_closure(8, {1})
    bad = list(range(cc.rank))
    c1, c2 = cc.color_of(0, 1), cc.color_of(0, 2)
    bad[c1], bad[c2] = bad[c2], bad[c1]
    assert not wl_m_equivalent(cc, cc, bad, 2)


@pytest.mark.parametrize("bad", [[-1, 1, 2, 3, 4], [0] * 5, [0, 1, 2, 3, 5]])
def test_color_map_must_be_a_permutation(bad):
    # a negative entry, a duplicate and an out-of-range id are no bijection
    # of the 5 colors; the inverse map would read uninitialised entries
    cc = graph_scheme(8, frozenset({1, 7})).cc
    assert cc.rank == 5
    with pytest.raises(ValueError, match="not a permutation"):
        wl_m_equivalent(cc, cc, bad, 2)
    with pytest.raises(ValueError, match="not a permutation"):
        pebble_game_oracle(cc, cc, bad, 2)


def test_m_ary_rounds_take_the_x0_path_on_circulant_input(monkeypatch, rook_and_shrikhande):
    # with the dense substitution table gone, circulant input still answers
    # and point-relabelled input still reaches the dense table
    def refuse(*args):
        raise RuntimeError("dense substitution table")

    monkeypatch.setattr(refine, "_substitution_table", refuse)
    cc = cay_closure(12, {1, 11})
    assert wl_m_equivalent(cc, cc, list(range(cc.rank)), 3)
    assert wl_m_refine(cc, 3).rank > cc.rank
    perm = np.random.default_rng(5).permutation(16)
    rook, shrikhande = (CoherentConfig(c.colors[perm][:, perm]) for c in rook_and_shrikhande)
    with pytest.raises(RuntimeError, match="dense substitution table"):
        wl_m_equivalent(rook, shrikhande, list(range(rook.rank)), 3)


# -- pebble game oracle -----------------------------------------------------------------


def test_empty_configuration_wins_for_identity():
    cc = cay_closure(5, {1, 4})
    gt = pebble_game_oracle(cc, cc, list(range(cc.rank)), 2)
    assert gt.levels[0][0, 0]


def test_winning_pairs_match_wl_classes():
    cc = cay_closure(6, {1, 5})
    gt = pebble_game_oracle(cc, cc, list(range(cc.rank)), 2)
    mc = wl_m_refine(cc, 2)
    table = gt.table
    for i in range(36):
        for j in range(36):
            assert bool(table[i, j]) == (mc.color_of[i] == mc.color_of[j])


def test_oracle_symmetry_under_swapping_sides():
    cc = cay_closure(6, {1, 5})
    other = cay_closure(6, {1, 5})
    ident = list(range(cc.rank))
    gt_ab = pebble_game_oracle(cc, other, ident, 2)
    gt_ba = pebble_game_oracle(other, cc, ident, 2)
    for a, b in zip(gt_ab.levels, gt_ba.levels):
        assert np.array_equal(a.T, b)


@pytest.mark.parametrize(
    "n,conn", [(4, {1, 3}), (5, {1, 4}), (6, {2, 4}), (7, {1, 2, 4}), (8, {1, 7})]
)
def test_oracle_agrees_with_refinement_identity_map(n, conn):
    cc = cay_closure(n, conn)
    ident = list(range(cc.rank))
    gt = pebble_game_oracle(cc, cc, ident, 2)
    assert gt.full_support == wl_m_equivalent(cc, cc, ident, 2)


def test_oracle_disagrees_nowhere_on_broken_map():
    cc = cay_closure(8, {1})
    bad = list(range(cc.rank))
    c1, c2 = cc.color_of(0, 1), cc.color_of(0, 2)
    bad[c1], bad[c2] = bad[c2], bad[c1]
    gt = pebble_game_oracle(cc, cc, bad, 2)
    assert gt.full_support == wl_m_equivalent(cc, cc, bad, 2) == False  # noqa: E712


def test_oracle_caps():
    with pytest.raises(CapExceededError):
        pebble_game_oracle(trivial_config(9), trivial_config(9), [0, 1], 2)
    with pytest.raises(CapExceededError):
        pebble_game_oracle(trivial_config(4), trivial_config(4), [0, 1], 4)


def test_game_table_winning_sets():
    cc = trivial_config(3)
    gt = pebble_game_oracle(cc, cc, [0, 1], 2)
    wins = gt.winning_at(2)
    assert (((0, 1), (1, 2)) in wins) == bool(gt.table[1, 5])
    assert gt.winning  # nonempty across levels
