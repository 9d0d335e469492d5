import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import circulantwl
from circulantwl import algebra, core, refine, wl
from circulantwl.algebra import (
    AlgebraicIso,
    enumerate_algebraic_isos,
    extendable_at,
    identity_iso,
    iter_isomorphisms,
    tuple_extension,
)
from circulantwl.core import (
    CoherentConfig,
    circulant_matrix,
    point_extension,
    trivial_config,
    units,
    validate,
)
from circulantwl.circulant import CirculantScheme, base_tuple, from_connection_partition
from circulantwl.dimension import enumerate_graphs, enumerate_schemes, graph_scheme
from circulantwl.refine import (
    DEFAULT_TUPLE_CAP,
    CapExceededError,
    InvariantError,
    close_pairs,
    close_tuples,
    normalize_colors,
    refine_circulant,
    refine_tuples,
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
from oracles import refine_pairs, substitution_table_by_index


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


def test_a_translation_invariant_closure_is_built_canonical():
    # the row-0 path reads the closed row, ranked by least difference, as the
    # canonical one; canonicalising its n x n matrix changes nothing
    checked = 0
    for n in range(1, 17):
        for conn in enumerate_graphs(n).graphs:
            closed = cay_closure(n, conn)
            built = CoherentConfig(closed.colors)
            assert closed.colors.dtype == built.colors.dtype and not closed.colors.flags.writeable
            assert np.array_equal(closed.colors, built.colors) and closed.rank == built.rank
            assert np.array_equal(closed.representative, built.representative)
            assert np.array_equal(closed.valencies, built.valencies)
            checked += 1
    assert checked == 314


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


def _atomic_types(cc: CoherentConfig, m: int) -> MAryConfig:
    """The m-tuples colored by their matrix of pair colors, numbered by
    ``np.unique``: each class has one equality pattern, and the type of
    every substituted tuple is read off the type."""
    digits = refine.tuple_digits(cc.n, m)
    rows = np.stack([cc.colors[digits[i], digits[j]] for i in range(m) for j in range(m)], axis=1)
    types = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    return MAryConfig(m=m, n=cc.n, color_of=types, rank=int(types.max()) + 1)


def test_m_ary_validation_fails_each_condition(monkeypatch, rook_and_shrikhande):
    # one color on the pairs of 3 points is closed and stable, but mixes
    # the equality patterns of (a, a) and (a, b)
    assert not validate_m_ary(MAryConfig(m=2, n=3, color_of=np.zeros(9, dtype=np.int64), rank=1))
    # the 3-ary atomic types keep the patterns and are closed; one more
    # round splits Shrikhande's 15 types into 31 and leaves rook's
    rook, shrikhande = rook_and_shrikhande
    assert validate_m_ary(_atomic_types(rook, 3))
    assert not validate_m_ary(_atomic_types(shrikhande, 3))
    # the diagonal, the pairs (0, b) and the rest keep the patterns, but the
    # converses of the rest span both off-diagonal classes.  No stable pair
    # coloring of 2 or 3 points with constant patterns fails the closure
    # alone, so the case is also refused with the round stubbed to split nothing
    split = MAryConfig(m=2, n=3, color_of=np.array([0, 1, 1, 2, 0, 2, 2, 2, 0]), rank=3)
    assert not validate_m_ary(split)
    monkeypatch.setattr(wl, "_refine", lambda inits, rows: (inits, len(np.unique(inits[0]))))
    assert validate_m_ary(_atomic_types(shrikhande, 3))
    assert not validate_m_ary(split)


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

    def checked_close_pairs(*inits):
        res = close_pairs(*inits)
        [stable], rank = res
        [oracle], oracle_rank = refine_pairs(*inits)
        assert rank == oracle_rank and CoherentConfig(stable) == CoherentConfig(oracle)
        checked.append(len(stable))
        return res

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


def _whole_table_unstable_pairs(mat, rank, ref=None):
    """The stability mask from the whole n**3 table of exact pair rows,
    against the rows of the first pairs of ref (by default mat)."""
    ref = mat if ref is None else ref
    first = refine._pair_round_codes(ref, rank)[np.unique(ref, return_index=True)[1]]
    return (refine._pair_round_codes(mat, rank) != first[mat.ravel()]).any(axis=1)


def test_blockwise_stability_check_matches_whole_table(monkeypatch, rook_and_shrikhande_arcs):
    # every check close_pairs makes on the hashed-closure inputs and, where
    # forced hash collisions leave partitions unstable, on the collision
    # inputs and on both sides of the tuple extensions at (0,) of the
    # schemes of order at most 8; then the CC3 mask of a configuration that
    # is not coherent
    seen = []

    def checked_unstable_pairs(mat, rank, ref=None):
        mask = unstable_pairs(mat, rank, ref)
        assert np.array_equal(mask, _whole_table_unstable_pairs(mat, rank, ref))
        seen.append((ref is None or ref is mat, bool(mask.any())))
        return mask

    unstable_pairs = refine._unstable_pairs
    monkeypatch.setattr(refine, "_unstable_pairs", checked_unstable_pairs)
    _close_relabelled_and_random(rook_and_shrikhande_arcs)
    _extend_small_schemes()
    assert len(seen) >= 121
    monkeypatch.setattr(refine, "_hash_weights", lambda rng, rank, n: np.ones((4, rank)))
    for init in _collision_inputs():
        close_pairs(init)
    for n in range(1, 9):
        for X in enumerate_schemes(n).schemes:
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                extendable_at(phi, (0,))
    assert tuple_extension(_forced_map(), (), ()) is None
    # unstable pairs found on side 0, and on a later side alone
    assert (True, True) in seen and (False, True) in seen
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
        [stable], rank = close_pairs(init)
        [oracle], oracle_rank = refine_pairs(init)
        assert rank == oracle_rank > len(np.unique(init))
        assert CoherentConfig(stable) == CoherentConfig(oracle)


def _forced_map():
    """A color map between two schemes of order 12, each color's image
    forced by diagonal flag and valency, that is not algebraic: each side
    is coherent alone, and only a joint check tells them apart."""
    a, b = (
        from_connection_partition(12, parts)[0].cc
        for parts in (
            [{1, 2, 5, 7, 10, 11}, {3, 6, 9}, {4, 8}],
            [{1, 3, 5, 7, 9, 11}, {2, 6, 10}, {4, 8}],
        )
    )
    keys_a, keys_b = algebra._color_keys(a), algebra._color_keys(b)
    phi = AlgebraicIso(a, b, tuple(int(np.flatnonzero(keys_b == key)[0]) for key in keys_a))
    assert (keys_a[:, None] == keys_b).sum(axis=1).tolist() == [1] * a.rank
    assert not algebra.is_algebraic_isomorphism(a, b, phi.color_map)
    return phi


def _extension_inputs(phi, x, x_image):
    """The two seeded colorings that ``tuple_extension`` closes in lockstep."""
    init_b = phi.inverse().array[phi.target.colors]
    return core._individualise(phi.source.colors, x), core._individualise(init_b, x_image)


def _same_result(res, expected):
    """Whether two lockstep results agree on None, on the rank and on the
    joint partition, which fixes each side's extension and the lifted map:
    the shared ids of the two results must pair up one to one."""
    if res is None or expected is None:
        return res is expected
    (mats, rank), (oracle, oracle_rank) = res, expected
    pairs = np.unique(np.concatenate(mats) * rank + np.concatenate(oracle))
    return rank == oracle_rank == len(pairs)


def test_lockstep_closure_matches_the_exact_lockstep_oracle(monkeypatch, rook_and_shrikhande):
    # every algebraic automorphism of every scheme of order at most 10, at
    # (0,) and at the base tuple, against every candidate image tuple, and
    # the one algebraic map from rook to Shrikhande at (0,): the same
    # verdict, rank and joint partition as exact lockstep rounds, with
    # hashed weights and with constant ones, which leave every split to the
    # exact check and rounds
    hashed, constant = refine._hash_weights, lambda rng, rank, n: np.ones((4, rank))
    rook, shrikhande = rook_and_shrikhande
    cases = [
        (phi, x)
        for n in range(1, 11)
        for X in enumerate_schemes(n).schemes
        for phi in enumerate_algebraic_isos(X.cc, X.cc)
        for x in {(0,), base_tuple(X)}
    ]
    cases += [(phi, (0,)) for phi in enumerate_algebraic_isos(rook, shrikhande)]
    verdicts = {True: 0, False: 0}
    for phi, x in cases:
        for x_image in iter_isomorphisms(phi.source, phi.target, phi, x):
            inits = _extension_inputs(phi, x, x_image)
            expected = refine_pairs(*inits)
            for weights in (hashed, constant):
                monkeypatch.setattr(refine, "_hash_weights", weights)
                assert _same_result(close_pairs(*inits), expected), (phi, x, x_image)
            verdicts[expected is None] += 1
    assert verdicts == {True: 16, False: 6444}
    # each side of the forced map is coherent alone, so under constant
    # weights only the joint check can refuse it
    inits = _extension_inputs(_forced_map(), (), ())
    assert refine_pairs(*inits) is None
    for weights in (hashed, constant):
        monkeypatch.setattr(refine, "_hash_weights", weights)
        assert close_pairs(*inits) is None


def _collision_inputs():
    rng = np.random.default_rng(0)
    return [
        relabelled(rng, cay_arcs(12, {1, 11})) * 2 + np.eye(12, dtype=np.int64),
        relabelled(rng, cay_arcs(15, {1, 3, 12, 14})) * 2 + np.eye(15, dtype=np.int64),
        np.eye(9, k=1, dtype=np.int64),
        rng.integers(0, 3, size=(8, 8)),
    ]


def test_every_pair_closure_runs_the_hashed_round(monkeypatch):
    # the one-sided closures and the two-sided tuple extension each hand
    # _refine the hashed round of close_pairs, and no other dense pair
    # closure is left in the library
    cc = graph_scheme(10, frozenset({1, 9})).cc
    arcs = relabelled(np.random.default_rng(2), cay_arcs(10, {1, 9}))
    rounds, refine_loop = [], refine._refine

    def recorded(inits, round_rows):
        rounds.append(round_rows.__qualname__)
        return refine_loop(inits, round_rows)

    monkeypatch.setattr(refine, "_refine", recorded)
    for closure in (
        lambda: wl_closure(arcs),
        lambda: point_extension(cc, (0,)),
        lambda: tuple_extension(identity_iso(cc), (0,), (0,)).ext_source,
    ):
        rounds.clear()
        assert validate(closure()).valid
        assert rounds and set(rounds) == {"close_pairs.<locals>.round_rows"}
    for path in Path(circulantwl.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "refine_pairs" not in defined, path.name


def test_hash_sums_stay_exact_up_to_the_pair_cap(monkeypatch):
    n = 464  # the largest order whose pair round fits the cap
    assert n**3 <= DEFAULT_TUPLE_CAP < (n + 1) ** 3
    weights = refine._hash_weights(random.Random(0), 10**4, n)
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


def test_key_collisions_still_reach_the_closure(monkeypatch):
    # with its mix bits cleared a round key is its color alone, so no
    # hashed round splits and only the exact check and exact rounds refine
    round_keys, pair_round_codes, exact = refine._round_keys, refine._pair_round_codes, []

    def color_only(mat, s1, s2, bits):
        keys = round_keys(mat, s1, s2, bits) >> bits << bits
        assert np.array_equal(keys, mat.ravel() << bits)
        return keys

    def counted(mat, rank):
        exact.append(rank)
        return pair_round_codes(mat, rank)

    monkeypatch.setattr(refine, "_round_keys", color_only)
    monkeypatch.setattr(refine, "_pair_round_codes", counted)
    for init in _collision_inputs():
        [stable], rank = close_pairs(init)
        [oracle], oracle_rank = refine_pairs(init)
        assert rank == oracle_rank > len(np.unique(init))
        assert CoherentConfig(stable) == CoherentConfig(oracle)
    assert len(exact) >= len(_collision_inputs())


def test_code_width_is_the_narrowest_that_holds_rank_squared():
    ranks = (1, 181, 182, 46_340, 46_341, 464**2)
    widths = [np.int16, np.int16, np.int32, np.int32, np.int64, np.int64]
    assert [refine._code_dtype(rank) for rank in ranks] == widths
    for rank, width in zip(ranks, widths):
        assert rank * rank - 1 <= np.iinfo(width).max


def _width_inputs():
    """A stable and an unstable coloring at a rank of at most 181, then at
    a rank above it: the closure of a random 40-point coloring, that
    closure with two colors merged, and a rank-512 coloring whose unstable
    rows differ by one code that 16 bits would wrap away."""
    rng = np.random.default_rng(5)
    small = wl_closure(relabelled(rng, cay_arcs(12, {1, 11})))
    cycles = np.zeros((7, 7), dtype=np.int64)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)):
        cycles[a, b] = cycles[b, a] = 1
    [wide], _ = close_pairs(rng.integers(0, 4, size=(40, 40)))
    merged = np.where(wide == wide[0, 1], wide[0, 2], wide)
    wrapping = (np.arange(24 * 24) % 512).reshape(24, 24)  # every color 0..511
    wrapping[1] = wrapping[0]
    wrapping[1, 7] += 128  # (1, b) differs from (0, b) by 128 * 512 = 2**16 at g = 7
    return [
        (small.colors, small.rank),
        normalize_colors(cycles * 2 + np.eye(7, dtype=np.int64)),
        normalize_colors(wide),
        normalize_colors(merged),
        (wrapping, 512),
    ]


@pytest.mark.parametrize("forced", [None, np.int64])
def test_certificate_matches_whole_table_on_every_code_width(monkeypatch, forced):
    # each width the rank selects, and the int64 one forced at small ranks
    code_dtype, widths, verdicts = refine._code_dtype, [], []

    def recorded(rank):
        widths.append(forced or code_dtype(rank))
        return widths[-1]

    inputs = _width_inputs()
    monkeypatch.setattr(refine, "_code_dtype", recorded)
    assert [rank > 181 for _, rank in inputs] == [False, False, True, True, True]
    for mat, rank in inputs:
        mask = refine._unstable_pairs(mat, rank)
        assert np.array_equal(mask, _whole_table_unstable_pairs(mat, rank))
        verdicts.append(bool(mask.any()))
    assert verdicts == [False, True, False, True, True]
    assert widths == ([np.int16] * 2 + [np.int32] * 3 if forced is None else [np.int64] * 5)


def _dense_bench_digest(n):
    """Relabelled Cay(Z_n, {1, 3, -3, -1}) at seeds 0..2: the closure, its
    CC3 verdict, the verdict on the unclosed coloring and a point extension."""
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        arcs = relabelled(np.random.default_rng(seed), cay_arcs(n, {1, 3, n - 3, n - 1}))
        cc = wl_closure(arcs)
        raw = validate(CoherentConfig(arcs * 2 + np.eye(n, dtype=np.int64)))
        ext = point_extension(cc, (seed,))
        digest.update(repr((
            seed, cc.rank, cc.colors.tolist(), validate(cc).valid,
            raw.valid, raw.violations, ext.rank, ext.colors.tolist(),
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "n,digest",
    [
        (64, "44465b1f5527738787944a6574ab6af37da66d9aaa4c45a0a38e6228987b2f6e"),
        (128, "e53786d07b75e19446108cff53972628022fc1ec57b96eb0f92e391422190596"),
    ],
)
def test_dense_closures_at_the_bench_sizes_are_pinned(n, digest):
    # refine_pairs is too slow to be the oracle at these orders; the closures
    # (int16 codes), extensions (int32) and CC3 verdicts are pinned instead
    assert _dense_bench_digest(n) == digest


def test_round_keys_keep_40_hash_bits_up_to_the_pair_cap(monkeypatch):
    n = 464  # the largest order whose pair round fits the cap
    bits = refine._hash_bits(n * n)  # a rank never exceeds the n**2 pairs
    assert bits >= 40
    top = np.full((1, 1), 2.0**53 - 1)
    [key] = refine._round_keys(np.full((1, 1), n * n - 1), top, top, bits)
    assert key >= 0 and key >> bits == n * n - 1
    # a rank whose colors leave no room below them is refused, not truncated
    monkeypatch.setattr(refine, "_renumber_rows", lambda rows: (rows[:, 0], 2**63))
    with pytest.raises(InvariantError, match="no hash bits"):
        close_pairs(np.eye(4, k=1, dtype=np.int64))


def test_key_budget_fires_under_python_O():
    script = (
        "import numpy as np\n"
        "from circulantwl import refine\n"
        "refine._renumber_rows = lambda rows: (rows[:, 0], 2**63)\n"
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
    assert res.stdout == f"False rank {2**63} leaves no hash bits in a 63-bit key\n", res.stderr


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


def _spy_on_the_m_ary_engine(monkeypatch) -> list[int]:
    """The m of every call that reaches ``wl.close_tuples``, in order."""
    reached, engine = [], wl.close_tuples
    monkeypatch.setattr(
        wl,
        "close_tuples",
        lambda *mats, m, origin: reached.append(m) or engine(*mats, m=m, origin=origin),
    )
    return reached


def _swap_1_2(cc: CoherentConfig) -> list[int]:
    """The identity with the colors of differences 1 and 2 swapped: on the
    regular scheme of Z_8 no algebraic isomorphism."""
    swap = list(range(cc.rank))
    c1, c2 = cc.color_of(0, 1), cc.color_of(0, 2)
    swap[c1], swap[c2] = c2, c1
    return swap


def _unit_image(X: CirculantScheme, v: int) -> CirculantScheme:
    """The image of X under x -> vx, built as a second scheme object."""
    row = np.empty(X.n, dtype=np.int64)
    row[v * np.arange(X.n) % X.n] = X.row
    return CirculantScheme(row)


def test_maps_a_known_point_map_induces_pass_the_m_ary_lockstep(schemes_up_to_13):
    # wl_m_equivalent answers these maps without the lockstep; the lockstep
    # itself must agree, since a point map that induces a map carries every
    # m-ary round of one side onto the other's
    checked = 0
    for n in range(1, 13):
        for X in schemes_up_to_13[n]:
            Y = _unit_image(X, units(n)[-1])
            assert Y.cc is not X.cc
            pairs = [(X.cc, X.cc, phi.color_map) for phi in enumerate_algebraic_isos(X.cc, X.cc)]
            pairs += [(X.cc, Y.cc, c) for c in algebra.unit_multipliers(X.row, Y.row)[1].tolist()]
            for a, b, cmap in pairs:
                if not algebra._induced_by_known_map(a, b, cmap):
                    continue
                inverse = np.argsort(cmap)
                for m in (2, 3):
                    assert close_tuples(a.colors, inverse[b.colors], m=m, origin=True) is not None
                checked += 1
    assert checked == 527  # 175 self maps of 179, and 352 unit maps X -> Y


def test_known_maps_do_not_reach_the_m_ary_engine(monkeypatch, rook_and_shrikhande):
    reached = _spy_on_the_m_ary_engine(monkeypatch)
    cc = cay_closure(8, {1})
    for phi in enumerate_algebraic_isos(cc, cc):  # the unit maps of Z_8
        assert wl_m_equivalent(cc, cc, phi.color_map, 3)
    X = graph_scheme(12, frozenset({1, 11}))
    Y = _unit_image(X, 5)
    for cmap in algebra.unit_multipliers(X.row, Y.row)[1].tolist():
        assert wl_m_equivalent(X.cc, Y.cc, cmap, 3)
    rook, shrikhande = rook_and_shrikhande
    assert wl_m_equivalent(rook, rook, list(range(rook.rank)), 3)
    assert reached == []
    # the swap of test_non_isomorphism_color_swap_is_inequivalent and
    # rook -> Shrikhande are induced by no known point map
    assert not wl_m_equivalent(cc, cc, _swap_1_2(cc), 2)
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    assert wl_m_equivalent(rook, shrikhande, phi.color_map, 2)
    assert not wl_m_equivalent(rook, shrikhande, phi.color_map, 3)
    assert reached == [2, 2, 3]


def test_identity_over_the_tuple_cap_is_refused_before_it_is_answered(rook_and_shrikhande):
    cc = cay_closure(10, {1, 9})
    ident = list(range(cc.rank))
    assert wl_m_equivalent(cc, cc, ident, 3, cap=10**3 * 3)
    with pytest.raises(
        CapExceededError,
        match=r"^refusing 3-tuple substitution table of 10\*\*3\*3 entries "
        r"\(tuples with x0 = 0\) > cap 2999$",
    ):
        wl_m_equivalent(cc, cc, ident, 3, cap=10**3 * 3 - 1)
    rook, _ = rook_and_shrikhande
    with pytest.raises(
        CapExceededError, match=r"^refusing 3-tuple substitution table of 16\*\*4\*3 entries > cap 196607$"
    ):
        wl_m_equivalent(rook, rook, list(range(rook.rank)), 3, cap=16**4 * 3 - 1)


def test_m_ary_rounds_take_the_x0_path_for_a_map_no_known_point_map_induces(monkeypatch):
    # swapping the basic sets {3} and {6} of this scheme of Z_9 is induced by
    # a point map but by no unit multiplier, so the lockstep runs, and on
    # circulant input it runs without the dense substitution table
    def refuse(*args):
        raise RuntimeError("dense substitution table")

    monkeypatch.setattr(refine, "_substitution_table", refuse)
    reached = _spy_on_the_m_ary_engine(monkeypatch)
    X = from_connection_partition(9, [{1, 4, 7}, {2, 5, 8}, {3}, {6}])[0]
    cmap = list(range(X.rank))
    a, b = X.color_of_difference(3), X.color_of_difference(6)
    cmap[a], cmap[b] = b, a
    assert not algebra._induced_by_known_map(X.cc, X.cc, cmap)
    assert algebra.is_induced(X.cc, X.cc, AlgebraicIso(X.cc, X.cc, tuple(cmap)))
    assert wl_m_equivalent(X.cc, X.cc, cmap, 3)
    assert reached == [3]


def test_substitution_table_matches_the_index_arithmetic():
    # one broadcast copy per slot against a gather at computed indices, for
    # one coloring read at every slot and for an (m, N) stack, slot i row i
    rng = np.random.default_rng(3)
    for n in range(1, 8):
        for m in range(1, 5):
            colors = rng.integers(0, 50, size=n**m)
            table = refine._substitution_table(colors, n, m)
            assert np.array_equal(table, substitution_table_by_index(colors, n, m)), (n, m)
            stack = rng.integers(0, 2**63, size=(m, n**m), dtype=np.uint64)
            table = refine._substitution_table(stack, n, m)
            for i in range(m):
                assert np.array_equal(table[:, i], substitution_table_by_index(stack[i], n, m)[:, i])


def _constant_slot_weights(rng, m, rank):
    return np.ones((m, rank), dtype=np.uint64)


def _exact_tuple_lockstep(mats, m, origin):
    """The exact m-ary lockstep engine of the path, on the inputs that
    ``close_tuples`` takes."""
    return refine_tuples(*mats, m=m, origin=origin)


def test_hashed_tuple_lockstep_matches_the_exact_engines(monkeypatch, rook_and_shrikhande):
    # every algebraic automorphism of every scheme of order at most 10 at
    # m = 2, 3 on both paths, a color swap that diverges, and rook ->
    # Shrikhande, equivalent at m = 2 and refuted at m = 3: the same verdict,
    # rank and joint partition as the exact engines, with hashed weights and
    # with constant ones, under which no hashed round splits and only the
    # exact certifying rounds refine
    exact_rounds, tuple_rounds = [], refine._tuple_rounds

    def counted(table, n):
        round_rows = tuple_rounds(table, n)
        return lambda sides, rank: exact_rounds.append(rank) or round_rows(sides, rank)

    monkeypatch.setattr(refine, "_tuple_rounds", counted)
    z8 = cay_closure(8, {1})
    cases = [
        (X.cc, X.cc, phi.color_map, m, origin)
        for n in range(1, 11)
        for X in enumerate_schemes(n).schemes
        for phi in enumerate_algebraic_isos(X.cc, X.cc)
        for m in (2, 3)
        for origin in (True, False)
    ]
    cases += [(z8, z8, _swap_1_2(z8), m, origin) for m in (2, 3) for origin in (True, False)]
    rook, shrikhande = rook_and_shrikhande
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    cases += [(rook, shrikhande, phi.color_map, m, False) for m in (2, 3)]
    weighings = {"hashed": refine._slot_weights, "constant": _constant_slot_weights}
    verdicts, resumed = {True: 0, False: 0}, dict.fromkeys(weighings, 0)
    for cc_a, cc_b, cmap, m, origin in cases:
        mats = [cc_a.colors, np.argsort(cmap)[cc_b.colors]]
        expected = _exact_tuple_lockstep(mats, m, origin)
        for name, weights in weighings.items():
            monkeypatch.setattr(refine, "_slot_weights", weights)
            exact_rounds.clear()
            res = close_tuples(*mats, m=m, origin=origin)
            assert _same_result(res, expected), (name, cmap, m, origin)
            resumed[name] += len(exact_rounds) > 1
        verdicts[expected is None] += 1
    assert verdicts == {True: 5, False: 397}
    # random weights leave no split to the exact round; constant ones leave
    # every split to it, and refining resumes after each
    assert resumed["hashed"] == 0 and resumed["constant"] > 0


def test_tuple_keys_keep_36_hash_bits_at_every_rank_the_tuple_cap_admits():
    # a lockstep of two sides of N tuples has a joint rank of at most 2N,
    # and the cap admits a table of N * n * m entries per side, on either
    # path; the largest such N comes with n = 2
    def largest_order(m, origin):
        n = 1
        while True:
            try:
                refine._check_substitution_table(n + 1, m, DEFAULT_TUPLE_CAP, origin)
            except CapExceededError:
                return n
            n += 1

    ranks = [
        2 * largest_order(m, origin) ** (m - origin)
        for m in range(2, DEFAULT_TUPLE_CAP.bit_length())
        for origin in (False, True)
        if largest_order(m, origin) > 1
    ]
    rank = max(ranks)
    assert rank < DEFAULT_TUPLE_CAP
    bits = refine._hash_bits(rank)
    assert bits >= 36
    [key] = refine._pack_keys(np.array([rank - 1]), np.array([2**64 - 1], dtype=np.uint64), bits)
    assert key >= 0 and key >> bits == rank - 1


def test_tuple_key_budget_fires_under_python_O():
    # one side, so that no histogram of 2**63 colors is counted first
    script = (
        "import numpy as np\n"
        "from circulantwl import refine\n"
        "refine._renumber_rows = lambda rows: (rows[:, 0], 2**63)\n"
        "try:\n"
        "    refine.close_tuples(np.eye(3, dtype=np.int64), m=2)\n"
        "except refine.InvariantError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    src = str(Path(circulantwl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for flags in ([], ["-O"]):
        res = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        expected = f"{not flags} rank {2**63} leaves no hash bits in a 63-bit key\n"
        assert res.stdout == expected, res.stderr


def test_a_hashed_tuple_round_peaks_below_the_exact_round(monkeypatch, rook_and_shrikhande):
    # each engine's first round on the same two sides, traced: the hashed
    # round holds one side's table at a time, the exact one renumbers both
    peaks, refine_loop = {}, refine._refine

    def traced(inits, round_rows):
        ids, rank = refine._renumber_rows(np.concatenate(inits)[:, None])
        sides = np.split(ids, len(inits))
        tracemalloc.start()
        round_rows(sides, rank)
        peaks.setdefault(round_rows.__qualname__, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return refine_loop(inits, round_rows)

    monkeypatch.setattr(refine, "_refine", traced)
    cycle = cay_closure(24, {1, 23})
    rook, shrikhande = rook_and_shrikhande
    for mats, m, origin in (
        ([rook.colors, shrikhande.colors], 3, False),
        ([cycle.colors, cycle.colors], 3, True),
        ([cycle.colors, cycle.colors], 4, True),
    ):
        peaks.clear()
        close_tuples(*mats, m=m, origin=origin)
        _exact_tuple_lockstep(mats, m, origin)
        hashed = peaks["close_tuples.<locals>.round_rows"]
        exact = peaks["_tuple_rounds.<locals>.round_rows"]
        table = len(mats[0]) ** (m + 1 - origin) * m * 8  # bytes of one side's table
        assert table < hashed < exact, (m, origin, hashed / table, exact / table)


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


def test_pebble_game_agrees_with_the_m_ary_engine(schemes_up_to_13):
    # against the lockstep itself: wl_m_equivalent answers the maps that a
    # known point map induces before it reaches the lockstep
    cases = [
        (X.cc, phi.color_map)
        for n in range(4, 9)
        for X in schemes_up_to_13[n]
        for phi in enumerate_algebraic_isos(X.cc, X.cc)
    ]
    z8 = cay_closure(8, {1})
    verdicts = []
    for cc, cmap in [*cases, (z8, _swap_1_2(z8))]:
        inverse = np.argsort(cmap)
        refined = close_tuples(cc.colors, inverse[cc.colors], m=2, origin=True) is not None
        assert pebble_game_oracle(cc, cc, cmap, 2).full_support == refined
        verdicts.append(refined)
    assert verdicts == [True] * len(cases) + [False]


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
