import itertools

import numpy as np
import pytest

from circulantwl.core import (
    CoherentConfig,
    Relation,
    generated_equivalence,
    radical,
    is_translation_invariant,
    trivial_config,
    units,
)
from circulantwl.algebra import (
    AlgebraicIso,
    enumerate_algebraic_isos,
    extendable_at,
    find_isomorphism,
    identity_iso,
    induced_color_map,
    induced_on_quotient,
    induced_on_restriction,
    is_algebraic_isomorphism,
    is_m_extendable,
    image_parabolic,
    iter_isomorphisms,
    tuple_extension,
)
from circulantwl import algebra, dimension
from circulantwl.circulant import CirculantScheme, base_tuple, from_connection_partition
from circulantwl.refine import InvariantError
from circulantwl.wl import wl_closure
from oracles import brute_force_algebraic_isos, extendable_at_unpinned, is_m_extendable_by_loop


def cay(n, conn):
    return wl_closure(
        np.array([[1 if (b - a) % n in conn else 0 for b in range(n)] for a in range(n)])
    )


def unit_map(reg, n, u):
    cmap = [0] * n
    for d in range(n):
        cmap[reg.color_of(0, d)] = reg.color_of(0, (u * d) % n)
    return AlgebraicIso(reg, reg, tuple(cmap))


# -- enumeration ------------------------------------------------------------------


def test_trivial_has_one_algebraic_automorphism():
    t5 = trivial_config(5)
    isos = enumerate_algebraic_isos(t5, t5)
    assert len(isos) == 1 and isos[0].is_identity


def test_regular_z5_has_four():
    z5 = cay(5, {1})
    assert len(enumerate_algebraic_isos(z5, z5)) == 4


def test_rank_mismatch_gives_none():
    assert enumerate_algebraic_isos(cay(5, {1, 4}), trivial_config(5)) == []


def test_all_enumerated_maps_preserve_tensor():
    cc = cay(12, {1, 5, 7, 11})
    for iso in enumerate_algebraic_isos(cc, cc):
        assert is_algebraic_isomorphism(cc, cc, iso.color_map)


def test_color_search_keeps_exactly_the_permutations_that_pass(schemes_up_to_13):
    # the search against every color permutation, on all small scheme pairs
    pairs = 0
    for n in range(1, 13):
        small = [X for X in schemes_up_to_13[n] if X.rank <= 6]
        for a in small:
            for b in small:
                if a.rank != b.rank:
                    continue
                pairs += 1
                brute = [
                    f
                    for f in itertools.permutations(range(a.rank))
                    if is_algebraic_isomorphism(a.cc, b.cc, f)
                ]
                assert [phi.color_map for phi in enumerate_algebraic_isos(a.cc, b.cc)] == brute
    assert pairs == 225


def test_color_search_equals_the_brute_force_oracle(schemes_up_to_13):
    # every self pair and every cross pair of equal _iso_key of orders
    # 1..12, through both stages of the search: pairs whose diagonal flags
    # and valencies force one map, and pairs that reach the backtracking
    pairs, forced = 0, {True: 0, False: 0}
    for n in range(1, 13):
        schemes = schemes_up_to_13[n]
        for a, b in itertools.product(schemes, repeat=2):
            if dimension._iso_key(a.cc) != dimension._iso_key(b.cc):
                continue
            pairs += 1
            keys_a, keys_b = algebra._color_keys(a.cc), algebra._color_keys(b.cc)
            forced[bool(((keys_a[:, None] == keys_b).sum(axis=1) == 1).all())] += 1
            found = [phi.color_map for phi in enumerate_algebraic_isos(a.cc, b.cc)]
            assert sorted(found) == brute_force_algebraic_isos(a.cc, b.cc)
    assert pairs == 110 and forced == {True: 31, False: 79}
    # a cross pair whose keys force a bijection that is not algebraic
    a, b = (
        next(X for X in schemes_up_to_13[12] if X.partition_key == frozenset(map(frozenset, parts)))
        for parts in (
            [{0}, {1, 2, 5, 7, 10, 11}, {3, 6, 9}, {4, 8}],
            [{0}, {1, 3, 5, 7, 9, 11}, {2, 6, 10}, {4, 8}],
        )
    )
    assert (algebra._color_keys(a.cc) == algebra._color_keys(b.cc)).all()
    assert enumerate_algebraic_isos(a.cc, b.cc) == brute_force_algebraic_isos(a.cc, b.cc) == []


def test_iso_group_structure():
    z7 = cay(7, {1})
    isos = enumerate_algebraic_isos(z7, z7)
    assert len(isos) == 6
    maps = {iso.color_map for iso in isos}
    for a in isos:
        assert a.compose(a.inverse()).is_identity
        for b in isos:
            assert a.compose(b).color_map in maps


# -- unit multipliers ----------------------------------------------------------------


def test_unit_maps_are_the_color_maps_of_unit_multipliers(schemes_up_to_13, rook_and_shrikhande):
    for n in range(1, 14):
        for a, b in itertools.product(schemes_up_to_13[n], repeat=2):
            expected = {}
            for u in range(n):
                # x -> ux keeps the partitions exactly when it induces a color map
                f = [u * x % n for x in range(n)]
                if len(set(f)) == n:
                    try:
                        expected[u] = induced_color_map(a.cc, b.cc, f).color_map
                    except ValueError:
                        pass
            us, cmaps = algebra.unit_multipliers(a.row, b.row)
            assert us.tolist() == sorted(expected)
            assert list(map(tuple, cmaps.tolist())) == [expected[u] for u in sorted(expected)]
            if a is b:
                unit_maps = algebra._unit_maps(a.cc)
                assert list(map(tuple, unit_maps.tolist())) == sorted(set(expected.values()))
    us, cmaps = algebra.unit_multipliers(np.arange(4), np.arange(6))
    assert us.shape == (0,) and cmaps.shape == (0, 4)
    rook, _ = rook_and_shrikhande
    assert algebra._unit_maps(rook).shape == (0, rook.rank)


def test_pruned_color_search_equals_unpruned(schemes_up_to_16, monkeypatch):
    # the search without unit maps is the unpruned one; the pruned one keeps
    # fewer maps out of the backtracking and returns the same sorted lists
    pairs = [
        (a.cc, b.cc) for schemes in schemes_up_to_16.values() for a in schemes for b in schemes
    ]
    leaves = []
    backtrack = algebra._backtrack
    monkeypatch.setattr(
        algebra, "_backtrack", lambda *args: [leaves.append(f) or f for f in backtrack(*args)]
    )
    pruned = [algebra._search_color_maps(a, b) for a, b in pairs]
    pruned_leaves = len(leaves)
    monkeypatch.setattr(algebra, "_unit_maps", lambda cc: np.empty((0, cc.rank), dtype=np.int64))
    assert [algebra._search_color_maps(a, b) for a, b in pairs] == pruned
    assert pruned_leaves < len(leaves) - pruned_leaves


def _swap_1_2(cc: CoherentConfig) -> np.ndarray:
    """The identity with the colors of differences 1 and 2 swapped."""
    swap = np.arange(cc.rank)
    swap[[cc.color_of(0, 1), cc.color_of(0, 2)]] = cc.color_of(0, 2), cc.color_of(0, 1)
    return swap


def test_forged_unit_map_is_caught(monkeypatch):
    # a row that is no automorphism spreads into maps the final check
    # rejects: on the unit maps that prune the backtracking of cay(8, {1, 7}),
    # and on the unit multipliers that answer the discrete scheme cay(8, {1})
    cc = cay(8, {1, 7})
    forged = _swap_1_2(cc)
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_unit_maps", lambda cc: np.stack([np.arange(cc.rank), forged]))
        with pytest.raises(InvariantError):
            algebra._search_color_maps(cc, cc)
    z8 = cay(8, {1})
    forged = _swap_1_2(z8)
    monkeypatch.setattr(algebra, "unit_multipliers", lambda a, b: (np.array([1]), forged[None]))
    with pytest.raises(InvariantError):
        algebra._search_color_maps(z8, z8)


def test_is_induced_agrees_with_the_point_search(schemes_up_to_16, rook_and_shrikhande):
    for n in range(1, 17):
        schemes = schemes_up_to_16[n]
        for a, b, phi, induced in dimension._induced_walk(schemes, schemes):
            f = find_isomorphism(a.cc, b.cc, phi)
            assert induced == (f is not None) == algebra.is_induced(a.cc, b.cc, phi)
            # pinning 0 to 0 keeps the least of all point isomorphisms
            assert f == next(iter_isomorphisms(a.cc, b.cc, phi), None)
    rook, shrikhande = rook_and_shrikhande
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    assert not algebra.is_induced(rook, shrikhande, phi)
    assert algebra.is_induced(rook, rook, identity_iso(rook))


def test_units_decide_before_the_point_search(schemes_up_to_13, monkeypatch):
    # with no point search, exactly the unit maps of a scheme are induced
    monkeypatch.setattr(algebra, "find_isomorphism", lambda *args: None)
    for n in range(1, 14):
        for X in schemes_up_to_13[n]:
            unit_maps = set(map(tuple, algebra._unit_maps(X.cc).tolist()))
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                assert algebra.is_induced(X.cc, X.cc, phi) == (phi.color_map in unit_maps)


def test_units_decide_between_two_configurations_before_the_point_search(
    schemes_up_to_13, monkeypatch
):
    # the image Y of X under x -> vx is X again (Schur), built as a second
    # configuration object; with no point search, a map from X to Y is
    # induced exactly when some x -> ux induces it
    monkeypatch.setattr(algebra, "find_isomorphism", lambda *args: None)
    for n in range(1, 14):
        for X in schemes_up_to_13[n]:
            v = units(n)[-1]
            row = np.empty(n, dtype=np.int64)
            row[v * np.arange(n) % n] = X.row
            Y = CirculantScheme(row)
            assert np.array_equal(Y.row, X.row) and Y.cc is not X.cc
            expected = set()
            for u in units(n):
                f = [u * x % n for x in range(n)]
                try:
                    expected.add(induced_color_map(X.cc, Y.cc, f).color_map)
                except ValueError:
                    pass
            for phi in enumerate_algebraic_isos(X.cc, Y.cc):
                assert algebra.is_induced(X.cc, Y.cc, phi) == (phi.color_map in expected)


# -- combinatorial isomorphisms ------------------------------------------------------


def test_identity_on_trivial_finds_identity_first():
    t6 = trivial_config(6)
    assert find_isomorphism(t6, t6, identity_iso(t6)) == tuple(range(6))


def test_every_map_of_a_regular_scheme_is_induced():
    z8 = cay(8, {1})
    for iso in enumerate_algebraic_isos(z8, z8):
        f = find_isomorphism(z8, z8, iso)
        assert f is not None
        assert induced_color_map(z8, z8, f).color_map == iso.color_map


@pytest.mark.parametrize("n,conn", [(6, {1, 5}), (8, {1, 7}), (9, {1, 8}), (10, {2, 8})])
def test_induced_maps_are_enumerated(n, conn):
    cc = cay(n, conn)
    enumerated = {iso.color_map for iso in enumerate_algebraic_isos(cc, cc)}
    for f in iter_isomorphisms(cc, cc, identity_iso(cc)):
        assert induced_color_map(cc, cc, f).color_map in enumerated


def test_isomorphisms_come_out_in_lexicographic_order():
    # each color map of the 8-cycle is induced by the 16 maps x -> +-u x + b
    z8 = cay(8, {1, 7})
    for iso in enumerate_algebraic_isos(z8, z8):
        found = list(iter_isomorphisms(z8, z8, iso))
        assert found == sorted(found) and len(found) == len(set(found)) == 16
        assert found[0] == find_isomorphism(z8, z8, iso)


def test_repeated_domain_points_share_their_image():
    z8 = cay(8, {1, 7})
    for f in iter_isomorphisms(z8, z8, identity_iso(z8), (3, 0, 3)):
        assert f[0] == f[2] != f[1]


# -- induced maps -----------------------------------------------------------------------


def test_identity_induces_identities():
    z12 = cay(12, {1})
    e = generated_equivalence(
        Relation(z12, frozenset({z12.color_of(0, d) for d in (0, 4, 8)}))
    )
    assert induced_on_quotient(identity_iso(z12), e).is_identity
    assert induced_on_restriction(
        identity_iso(z12), (0, 4, 8), (0, 4, 8)
    ).is_identity


def test_map_commutes_with_span_and_radical():
    z12 = cay(12, {1})
    phi = unit_map(z12, 12, 5)
    s = Relation(z12, frozenset({z12.color_of(0, d) for d in (1, 5, 7, 11)}))
    phi_s = Relation(z12, phi.apply_set(s.color_set))
    assert image_parabolic(phi, generated_equivalence(s)).blocks == generated_equivalence(phi_s).blocks
    assert image_parabolic(phi, radical(s)).blocks == radical(phi_s).blocks


def test_restriction_rejects_incompatible_targets():
    z12 = cay(12, {1})
    with pytest.raises(ValueError):
        # restricting onto point sets of different sizes cannot be induced
        induced_on_restriction(identity_iso(z12), (0, 4, 8), (0, 6))


def test_unit5_induces_identity_on_quotient():
    z12 = cay(12, {1})
    phi = unit_map(z12, 12, 5)
    e = generated_equivalence(
        Relation(z12, frozenset({z12.color_of(0, d) for d in (0, 4, 8)}))
    )
    induced = induced_on_quotient(phi, e)
    assert induced.source.rank == 4
    assert induced.is_identity  # 5 = 1 mod 4


# -- tuple extensions ----------------------------------------------------------------------


def test_identity_extension_at_matching_tuples():
    cc = cay(6, {1, 5})
    ext = tuple_extension(identity_iso(cc), (0, 2), (0, 2))
    assert ext is not None and ext.lifted.is_identity


def test_regular_extension_lifts_unit_action():
    z12 = cay(12, {1})
    phi = unit_map(z12, 12, 5)
    ext = tuple_extension(phi, (0,), (0,))
    assert ext is not None
    for d in range(12):
        c = ext.ext_source.color_of(0, d)
        a, b = ext.ext_target.representative[ext.lifted(c)]
        assert (b - a) % 12 == (5 * d) % 12


def test_extension_requires_matching_equality_pattern():
    cc = cay(5, {1, 4})
    assert tuple_extension(identity_iso(cc), (0, 0), (0, 1)) is None


@pytest.mark.parametrize("x", [(-1,), (0, 5)])
def test_extension_refuses_points_out_of_range(x):
    # a negative point must not wrap round to n - 1
    with pytest.raises(ValueError, match="out of range"):
        tuple_extension(identity_iso(cay(5, {1, 4})), x, x)


def test_extension_unique_color_map_over_image_choices():
    # all successful image tuples give the same action on the old colors
    z8 = cay(8, {1})
    phi = unit_map(z8, 8, 3)
    base_maps = set()
    for b in range(8):
        ext = tuple_extension(phi, (0,), (b,))
        if ext is None:
            continue
        action = []
        for s in range(z8.rank):
            pieces = {
                ext.lifted(c)
                for c in range(ext.ext_source.rank)
                if z8.color_of(*map(int, ext.ext_source.representative[c])) == s
            }
            parents = {
                z8.color_of(*map(int, ext.ext_target.representative[c])) for c in pieces
            }
            assert len(parents) == 1
            action.append(parents.pop())
        base_maps.add(tuple(action))
    assert base_maps == {phi.color_map}


def test_section_compatibility_of_extensions():
    z12 = cay(12, {1})
    phi = unit_map(z12, 12, 5)
    ext = tuple_extension(phi, (0, 3), (0, 15 % 12))
    assert ext is not None
    e = generated_equivalence(
        Relation(z12, frozenset({z12.color_of(0, d) for d in (0, 4, 8)}))
    )
    phi_s = induced_on_quotient(phi, e)
    block = {p: i for i, blk in enumerate(sorted(e.blocks, key=min)) for p in blk}
    x_s = tuple(block[p] for p in (0, 3))
    x_s2 = tuple(block[p] for p in (0, 3))
    assert tuple_extension(phi_s, x_s, x_s2) is not None


def test_lift_matches_x_with_x_image_over_phi(schemes_up_to_13):
    # both sides are tagged alike and start from phi-aligned colors; tagging
    # each side's points by their sorted rank would match them out of order
    checked = 0
    for n in range(2, 11):
        for X in schemes_up_to_13[n]:
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                for x in {base_tuple(X), (1, 0), (0, 1, 0)}:
                    ext = extendable_at(phi, x)
                    if ext is None:
                        continue
                    src, tgt, lifted = ext.ext_source, ext.ext_target, ext.lifted
                    for p, q in zip(ext.x, ext.x_image):
                        assert lifted(src.color_of(p, p)) == tgt.color_of(q, q), (n, x)
                    (a, b), (a2, b2) = src.representative.T, tgt.representative[lifted.array].T
                    assert np.array_equal(phi.array[X.cc.colors[a, b]], X.cc.colors[a2, b2])
                    checked += 1
    assert checked == 294  # every map of order <= 10 extends at each of these x


# -- extendability ---------------------------------------------------------------------------


def _z9_swap() -> AlgebraicIso:
    """The swap of the basic sets {3} and {6} of a scheme of Z_9: induced by
    a point map, but by no unit multiplier."""
    X = from_connection_partition(9, [{1, 4, 7}, {2, 5, 8}, {3}, {6}])[0]
    cmap = list(range(X.rank))
    a, b = X.color_of_difference(3), X.color_of_difference(6)
    cmap[a], cmap[b] = b, a
    return AlgebraicIso(X.cc, X.cc, tuple(cmap))


def _unit_image(X: CirculantScheme, v: int) -> CirculantScheme:
    """The image of X under x -> vx, built as a second scheme object."""
    row = np.empty(X.n, dtype=np.int64)
    row[v * np.arange(X.n) % X.n] = X.row
    return CirculantScheme(row)


def test_zero_extendable_always():
    cc = cay(6, {1, 5})
    for iso in enumerate_algebraic_isos(cc, cc):
        assert is_m_extendable(iso, 0)


@pytest.mark.parametrize("u", [1, 5, 7, 11])
def test_regular_scheme_maps_extend_everywhere(u):
    z12 = cay(12, {1})
    phi = unit_map(z12, 12, u)
    assert is_m_extendable(phi, 2)


def test_extendable_monotone_in_m():
    cc = cay(8, {1, 7})
    for iso in enumerate_algebraic_isos(cc, cc):
        if is_m_extendable(iso, 2):
            assert is_m_extendable(iso, 1)


def test_extendable_at_finds_image_tuple():
    z5 = cay(5, {1})
    phi = unit_map(z5, 5, 2)
    ext = extendable_at(phi, (0, 1))
    assert ext is not None
    assert ext.x == (0, 1)


def test_extendable_at_repeated_entries():
    z5 = cay(5, {1})
    assert extendable_at(unit_map(z5, 5, 2), (0, 1, 0)).x_image == (0, 2, 0)
    z8 = cay(8, {1, 7})
    images = [extendable_at(phi, (3, 0, 3, 5)).x_image for phi in enumerate_algebraic_isos(z8, z8)]
    assert images == [(0, 3, 0, 6), (0, 1, 0, 2)]


def test_rook_to_shrikhande_is_not_1_extendable(rook_and_shrikhande):
    rook, shrikhande = rook_and_shrikhande
    assert not is_translation_invariant(rook.colors)
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    assert is_m_extendable(phi, 0)
    assert not is_m_extendable(phi, 1)


def test_point_sets_tested_for_extendability(monkeypatch, rook_and_shrikhande):
    tested = []
    monkeypatch.setattr(algebra, "extendable_at", lambda phi, x: tested.append(x) or x)
    assert is_m_extendable(_z9_swap(), 3)
    assert tested == [
        (0,), (0, 1), (0, 2), (0, 3), (0, 4),
        (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 1, 7),
        (0, 2, 4), (0, 2, 5), (0, 2, 6), (0, 3, 6),
    ]
    tested.clear()
    rook, shrikhande = rook_and_shrikhande
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    assert is_m_extendable(phi, 1)
    assert tested == [(p,) for p in range(16)]


def test_known_maps_are_m_extendable_as_the_loop_finds(schemes_up_to_13):
    # is_m_extendable answers the maps a known point map induces without a
    # tuple extension; the loop over every point set must agree with it
    z8 = cay(8, {1})
    swap = AlgebraicIso(z8, z8, tuple(_swap_1_2(z8).tolist()))  # a self map, not algebraic
    cases, self_maps = [(swap, 1)], 0
    for n in range(1, 11):
        for X in schemes_up_to_13[n]:
            Y = _unit_image(X, units(n)[-1])
            maps = enumerate_algebraic_isos(X.cc, X.cc)
            self_maps += len(maps)
            unit_cmaps = algebra.unit_multipliers(X.row, Y.row)[1].tolist()
            maps += [AlgebraicIso(X.cc, Y.cc, tuple(c)) for c in unit_cmaps]
            cases += [(phi, m) for phi in maps for m in (1, 2, 3)]
    answers = [is_m_extendable(phi, m) for phi, m in cases]
    assert answers == [is_m_extendable_by_loop(phi, m) for phi, m in cases]
    # 99 self maps of orders 1..10 (94 of orders 4..10), and the swap alone refused
    assert self_maps == 99 and answers.count(False) == 1 and not answers[0]


def test_known_maps_build_no_tuple_extension(monkeypatch, rook_and_shrikhande):
    reached, extend = [], algebra.extendable_at
    monkeypatch.setattr(
        algebra, "extendable_at", lambda phi, x: reached.append(x) or extend(phi, x)
    )
    z8 = cay(8, {1})
    for phi in enumerate_algebraic_isos(z8, z8):  # the unit maps of Z_8
        assert is_m_extendable(phi, 3)
    X = from_connection_partition(12, [{1, 11}, {2, 10}, {3, 9}, {4, 8}, {5, 7}, {6}])[0]
    Y = _unit_image(X, 5)
    for cmap in algebra.unit_multipliers(X.row, Y.row)[1].tolist():
        assert is_m_extendable(AlgebraicIso(X.cc, Y.cc, tuple(cmap)), 2)
    rook, shrikhande = rook_and_shrikhande
    assert is_m_extendable(identity_iso(rook), 2)
    assert reached == []
    # maps that no known point map induces: the Z_9 swap and rook -> Shrikhande
    assert is_m_extendable(_z9_swap(), 2)
    assert reached == [(0,), (0, 1), (0, 2), (0, 3), (0, 4)]
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    assert not is_m_extendable(phi, 1)
    assert reached[5:] == [(0,)]


def test_discrete_scheme_maps_are_those_of_the_unit_multipliers(monkeypatch):
    # the discrete scheme of Z_n takes the units' maps without a search; a
    # relabelled copy that is not translation invariant still backtracks,
    # and its maps are the units' maps seen through the relabelling
    searched, backtrack = [], algebra._backtrack_color_maps
    monkeypatch.setattr(
        algebra, "_backtrack_color_maps", lambda a, b: searched.append(a.n) or backtrack(a, b)
    )
    for n in range(13, 41):
        X, Y = (from_connection_partition(n, [{d} for d in range(1, n)])[0] for _ in range(2))
        assert X.rank == n and X.cc is not Y.cc
        found = algebra._search_color_maps(X.cc, X.cc)
        assert algebra._search_color_maps(X.cc, Y.cc) == found
        assert len(found) == len(units(n)) and searched == []
        perm = list(range(n))
        perm[1], perm[2] = perm[2], perm[1]
        relabelled = CoherentConfig(X.cc.colors[np.ix_(np.argsort(perm), np.argsort(perm))])
        assert not is_translation_invariant(relabelled.colors)
        to = induced_color_map(X.cc, relabelled, perm).array
        seen = sorted(tuple(to[np.asarray(f)[np.argsort(to)]].tolist()) for f in found)
        assert algebra._search_color_maps(relabelled, relabelled) == seen
        assert searched == [n]
        searched.clear()


def test_translation_cut_returns_the_unpinned_extension(
    schemes_up_to_13, rook_and_shrikhande, monkeypatch
):
    # on a translation-invariant target only x' with x'_0 = 0 are tried, and
    # the extension found is the one of the loop over every candidate
    tried = []
    extension = algebra.tuple_extension
    monkeypatch.setattr(
        algebra, "tuple_extension", lambda phi, x, xi: tried.append(xi) or extension(phi, x, xi)
    )
    z8 = cay(8, {1})
    swap = list(range(z8.rank))  # no algebraic isomorphism: it extends nowhere
    c1, c2 = z8.color_of(0, 1), z8.color_of(0, 2)
    swap[c1], swap[c2] = c2, c1
    cases = [(AlgebraicIso(z8, z8, tuple(swap)), x) for x in ((0,), (0, 4))]
    for n in range(1, 11):
        for X in schemes_up_to_13[n]:
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                cases += [(phi, (0,)), (phi, base_tuple(X))]
    found = []
    for phi, x in cases:
        tried.clear()
        ext = extendable_at(phi, x)
        assert tried and all(xi[0] == 0 for xi in tried)
        want = extendable_at_unpinned(phi, x)
        if ext is None or want is None:
            assert ext is want is None
        else:
            assert ext.x_image == want.x_image
            assert ext.lifted.color_map == want.lifted.color_map
        found.append(ext is not None)
    assert found == [False, False] + [True] * (len(cases) - 2)
    # rook -> Shrikhande is not translation invariant: every image is tried
    rook, shrikhande = rook_and_shrikhande
    (phi,) = enumerate_algebraic_isos(rook, shrikhande)
    tried.clear()
    assert extendable_at(phi, (0,)) is None is extendable_at_unpinned(phi, (0,))
    assert tried == [(p,) for p in range(16)]


@pytest.mark.parametrize("n,conn", [(6, {1, 5}), (8, {1, 7}), (9, {1, 8})])
def test_extendability_survives_non_translation_relabelling(n, conn):
    cc = cay(n, conn)
    perm = list(range(n))
    perm[1], perm[2] = perm[2], perm[1]
    relabelled = CoherentConfig(cc.colors[np.ix_(np.argsort(perm), np.argsort(perm))])
    assert is_translation_invariant(cc.colors)
    assert not is_translation_invariant(relabelled.colors)
    to_relabelled = induced_color_map(cc, relabelled, perm)
    for phi in enumerate_algebraic_isos(cc, cc):
        conjugate = to_relabelled.inverse().compose(phi).compose(to_relabelled)
        for m in (1, 2):
            assert is_m_extendable(phi, m) == is_m_extendable(conjugate, m)
