import itertools

import numpy as np
import pytest

from circulantwl import refine
from circulantwl.algebra import identity_iso, iter_isomorphisms
from circulantwl.core import (
    CoherentConfig,
    Relation,
    converse,
    dot_product,
    generated_equivalence,
    intersection_number,
    intersection_tensor,
    point_extension,
    quotient,
    radical,
    restriction,
    tensor_product,
    trivial_config,
    validate,
)


def regular(n):
    return CoherentConfig(np.array([[(b - a) % n for b in range(n)] for a in range(n)]))


def cycle_scheme(n):
    """Distance coloring of the undirected n-cycle."""
    mat = np.array(
        [[min((b - a) % n, (a - b) % n) for b in range(n)] for a in range(n)]
    )
    return CoherentConfig(mat)


# -- brute-force oracles -------------------------------------------------------


def brute_force_axioms(mat):
    """Check CC1-CC3 by direct enumeration of points and triples."""
    n = len(mat)
    colors = sorted({mat[a][b] for a in range(n) for b in range(n)})
    classes = {
        c: {(a, b) for a in range(n) for b in range(n) if mat[a][b] == c}
        for c in colors
    }
    diag = {(a, a) for a in range(n)}
    for c, cls in classes.items():
        if cls & diag and not cls <= diag:
            return False
    for c, cls in classes.items():
        if {(b, a) for a, b in cls} not in classes.values():
            return False
    for r in colors:
        for s in colors:
            for t in colors:
                counts = {
                    sum(
                        1
                        for g in range(n)
                        if mat[a][g] == r and mat[g][b] == s
                    )
                    for (a, b) in classes[t]
                }
                if len(counts) > 1:
                    return False
    return True


def brute_force_intersection(mat, r, s, t):
    n = len(mat)
    for a in range(n):
        for b in range(n):
            if mat[a][b] == t:
                return sum(
                    1 for g in range(n) if mat[a][g] == r and mat[g][b] == s
                )
    raise AssertionError("empty class")


# -- validation ----------------------------------------------------------------


def test_trivial_is_valid_rank_two():
    cc = trivial_config(5)
    assert validate(cc).valid
    assert cc.rank == 2
    assert cc.is_homogeneous


def test_split_diagonal_without_split_offdiagonal_reports_cc3():
    mat = [[0, 2, 2], [2, 1, 2], [2, 2, 1]]
    assert not brute_force_axioms(mat)
    rep = validate(CoherentConfig(np.array(mat)))
    assert not rep.valid
    assert any(v[0] == "CC3" for v in rep.violations)


def test_regular_cyclic_is_valid():
    cc = regular(4)
    assert validate(cc).valid
    assert cc.rank == 4


def test_cc2_violation_detected():
    # a directed relation without its converse as a class
    mat = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    # this one is actually coherent (regular Z_3); break it:
    bad = np.array([[0, 1, 2], [2, 0, 2], [1, 1, 0]])
    rep = validate(CoherentConfig(bad))
    assert not rep.valid
    assert brute_force_axioms(mat.tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_validate_agrees_with_brute_force_on_random_colorings(n):
    rng = np.random.default_rng(20240 + n)
    for _ in range(20):
        raw = rng.integers(0, 3, size=(n, n))
        np.fill_diagonal(raw, raw.diagonal() + 3)
        cc = CoherentConfig(raw)
        assert validate(cc).valid == brute_force_axioms(cc.colors.tolist())


def test_first_occurrences_are_those_of_a_sort():
    # the canonical numbering, the representatives and the stability check
    # read each color's first pair without sorting the n**2 entries; seeded
    # colorings in which every color occurs, up to rank n**2
    rng = np.random.default_rng(31)
    for n, rank in [(1, 1), (5, 2), (9, 30), (16, 200), (12, 144), (20, 400)]:
        flat = rng.integers(0, rank, n * n)
        flat[rng.permutation(n * n)[:rank]] = np.arange(rank)
        want = np.unique(flat, return_index=True)[1]
        assert np.array_equal(refine._first_occurrences(flat, rank), want)
        mat = flat.reshape(n, n)
        codes = refine._pair_round_codes(mat, rank)
        assert np.array_equal(
            refine._unstable_pairs(mat, rank), (codes != codes[want][flat]).any(axis=1)
        )
        cc = CoherentConfig(mat)
        first = np.unique(cc.colors, return_index=True)[1]
        assert np.array_equal(cc.representative, np.stack(np.divmod(first, n), axis=1))


# -- intersection numbers ------------------------------------------------------


def test_trivial_intersection_number_counts_common_neighbors():
    cc = trivial_config(5)
    off = 1
    assert intersection_number(cc, off, off, off) == 3
    assert intersection_number(cc, off, off, off) == brute_force_intersection(
        cc.colors.tolist(), off, off, off
    )


def test_identity_color_is_neutral():
    cc = regular(7)
    for t in range(cc.rank):
        a, b = cc.representative[t]
        e = cc.color_of(a, a)
        assert intersection_number(cc, e, t, t) == 1


def test_pentagon_distance_scheme():
    cc = cycle_scheme(5)
    d1 = cc.color_of(0, 1)
    d2 = cc.color_of(0, 2)
    assert intersection_number(cc, d1, d1, d2) == 1
    assert intersection_number(cc, d1, d1, d2) == brute_force_intersection(
        cc.colors.tolist(), d1, d1, d2
    )


def test_intersection_number_builds_no_tensor():
    # one number is counted at one pair, not read off the rank**3 tensor
    cc = cycle_scheme(9)
    numbers = [
        [[intersection_number(cc, r, s, t) for t in range(cc.rank)] for s in range(cc.rank)]
        for r in range(cc.rank)
    ]
    assert "tensor" not in cc._cache
    assert np.array_equal(numbers, intersection_tensor(cc))


def test_intersection_number_rejects_bad_color():
    with pytest.raises(ValueError):
        intersection_number(trivial_config(4), 0, 0, 5)


@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_intersection_numbers_independent_of_representative(n):
    cc = cycle_scheme(n)
    assert validate(cc).valid
    mat = cc.colors
    for t in range(cc.rank):
        pairs = np.argwhere(mat == t)
        base = None
        for a, b in pairs:
            cnt = np.bincount(mat[a] * cc.rank + mat[:, b], minlength=cc.rank**2)
            if base is None:
                base = cnt
            assert np.array_equal(base, cnt)


def test_row_sums_of_tensor_match_fiber_size():
    cc = cycle_scheme(8)
    tensor = intersection_tensor(cc)
    # sum over r, s of c_rs^t counts every middle point once: equals n
    for t in range(cc.rank):
        assert tensor[:, :, t].sum() == cc.n


def test_tensor_rows_sum_to_valency():
    # for fixed r and t, summing c_rs^t over s counts the whole r-row
    for cc in (cycle_scheme(9), regular(8), trivial_config(6)):
        tensor = intersection_tensor(cc)
        for r in range(cc.rank):
            for t in range(cc.rank):
                a, _ = cc.representative[t]
                expected = int(np.count_nonzero(cc.colors[a] == r))
                assert tensor[r, :, t].sum() == expected


# -- fibers --------------------------------------------------------------------


def test_fibers_trivial_and_extension():
    assert trivial_config(5).fibers == ((0, 1, 2, 3, 4),)
    ext = point_extension(trivial_config(5), (2,))
    assert set(ext.fibers) == {(2,), (0, 1, 3, 4)}
    assert not ext.is_homogeneous


def test_regular_scheme_rank_and_homogeneity():
    cc = regular(12)
    assert cc.rank == 12
    assert cc.is_homogeneous


# -- relations, radical, generated equivalence ----------------------------------


def test_radical_and_span_of_cayley_relation():
    z12 = regular(12)
    s = Relation(z12, frozenset({z12.color_of(0, d) for d in (1, 5, 7, 11)}))
    rad = radical(s)
    assert set(rad.blocks) == {tuple(sorted((i, i + 6))) for i in range(6)}
    gen = generated_equivalence(s)
    assert gen.blocks == (tuple(range(12)),)


def test_radical_refines_generated_equivalence():
    rng = np.random.default_rng(7)
    z12 = regular(12)
    for _ in range(10):
        cols = frozenset(int(c) for c in rng.choice(12, size=3, replace=False))
        s = Relation(z12, cols)
        assert radical(s).refines(generated_equivalence(s))


def test_identity_relation_is_its_own_radical():
    cc = trivial_config(6)
    ident = Relation(cc, frozenset({cc.color_of(0, 0)}))
    assert radical(ident).blocks == tuple((i,) for i in range(6))
    assert generated_equivalence(ident).blocks == tuple((i,) for i in range(6))


def test_converse_and_dot_product():
    z5 = regular(5)
    c1 = Relation(z5, frozenset({z5.color_of(0, 1)}))
    c4 = converse(c1)
    assert c4.color_set == frozenset({z5.color_of(0, 4)})
    c2 = dot_product(c1, c1)
    assert c2.color_set == frozenset({z5.color_of(0, 2)})


def test_relation_union_intersection_support():
    z6 = regular(6)
    a = Relation(z6, frozenset({z6.color_of(0, 1)}))
    b = Relation(z6, frozenset({z6.color_of(0, 2)}))
    both = a | b
    assert both.color_set == a.color_set | b.color_set
    assert (both & a).color_set == a.color_set
    assert both.support() == tuple(range(6))
    with pytest.raises(ValueError):
        a & b  # disjoint color sets give an empty relation


# -- quotient and restriction ----------------------------------------------------


def test_quotient_of_regular_scheme():
    z12 = regular(12)
    h = frozenset({z12.color_of(0, d) for d in (0, 4, 8)})
    e = generated_equivalence(Relation(z12, h))
    q = quotient(z12, e)
    assert q == regular(4)
    assert validate(q).valid


def test_quotient_by_identity_is_identity():
    cc = cycle_scheme(6)
    e = generated_equivalence(Relation(cc, frozenset({cc.color_of(0, 0)})))
    assert quotient(cc, e) == cc


def test_quotient_rejects_non_relation():
    from circulantwl.core import Parabolic

    cc = trivial_config(6)
    fake = Parabolic(((0, 1), (2, 3), (4, 5)), frozenset({0}))
    with pytest.raises(ValueError):
        quotient(cc, fake)


def test_restriction_of_trivial():
    assert restriction(trivial_config(6), [0, 2, 5]) == trivial_config(3)


def test_restriction_to_fiber_union():
    ext = point_extension(trivial_config(6), (1,))
    big = next(f for f in ext.fibers if len(f) > 1)
    sub = restriction(ext, big)
    assert sub == trivial_config(5)


# -- tensor product ---------------------------------------------------------------


def test_tensor_rank_multiplies_and_validates():
    t = tensor_product(trivial_config(2), trivial_config(2))
    assert t.rank == 4 and t.n == 4
    assert validate(t).valid
    big = tensor_product(trivial_config(4), regular(5))
    assert big.rank == 10 and big.n == 20
    assert validate(big).valid


def test_tensor_with_one_point_is_identity():
    cc = cycle_scheme(6)
    assert tensor_product(cc, trivial_config(1)) == cc


@pytest.mark.parametrize(
    "f1,f2", [(trivial_config, regular), (cycle_scheme, trivial_config)]
)
def test_tensor_intersection_numbers_factor(f1, f2):
    a, b = f1(4), f2(5)
    prod = tensor_product(a, b)
    ta, tb, tp = (
        intersection_tensor(a),
        intersection_tensor(b),
        intersection_tensor(prod),
    )
    # product colors were canonicalized: recover the pairing via class counts
    amat, bmat = a.colors, b.colors
    pairs = (amat[:, None, :, None] * b.rank + bmat[None, :, None, :]).reshape(
        prod.n, prod.n
    )
    lut = {}
    for c in range(prod.rank):
        i, j = prod.representative[c]
        lut[c] = (int(pairs[i, j]) // b.rank, int(pairs[i, j]) % b.rank)
    for r in range(prod.rank):
        for s in range(prod.rank):
            for t in range(prod.rank):
                ra, rb = lut[r]
                sa, sb = lut[s]
                tta, ttb = lut[t]
                assert tp[r, s, t] == ta[ra, sa, tta] * tb[rb, sb, ttb]


# -- point extension ----------------------------------------------------------------


def test_point_extension_of_trivial_has_expected_classes():
    ext = point_extension(trivial_config(5), (2,))
    assert ext.rank == 5
    assert validate(ext).valid


def test_extension_at_all_points_is_discrete():
    ext = point_extension(trivial_config(4), (0, 1, 2, 3))
    assert ext.rank == 16


def test_extension_of_regular_at_one_point_is_discrete():
    ext = point_extension(regular(7), (3,))
    assert ext.rank == 49


def test_extension_depends_only_on_point_set():
    cc = cycle_scheme(8)
    assert point_extension(cc, (1, 5)) == point_extension(cc, (5, 1, 1))


def test_extension_refines_base():
    cc = cycle_scheme(8)
    ext = point_extension(cc, (0,))
    # every extension color lies inside a base color
    for c in range(ext.rank):
        mask = ext.colors == c
        assert len(np.unique(cc.colors[mask])) == 1


# -- automorphism sanity ---------------------------------------------------------


def brute_force_automorphisms(cc, cap=200000):
    """All color-preserving permutations, by backtracking."""
    n, mat = cc.n, cc.colors
    out = []
    assign = [-1] * n
    used = [False] * n

    def rec(i):
        if len(out) > cap:
            raise RuntimeError("cap")
        if i == n:
            out.append(tuple(assign))
            return
        for img in range(n):
            if used[img]:
                continue
            ok = all(
                mat[assign[j], img] == mat[j, i] and mat[img, assign[j]] == mat[i, j]
                for j in range(i)
            )
            if ok and mat[img, img] == mat[i, i]:
                assign[i] = img
                used[img] = True
                rec(i + 1)
                used[img] = False
                assign[i] = -1

    rec(0)
    return out


@pytest.mark.parametrize("make,n", [(regular, 8), (cycle_scheme, 7), (cycle_scheme, 10)])
def test_orbits_of_automorphisms_respect_colors(make, n):
    cc = make(n)
    autos = brute_force_automorphisms(cc)
    assert autos
    for f in autos:
        perm = np.array(f)
        assert np.array_equal(cc.colors[perm][:, perm], cc.colors)
    # the library's point search lists the same maps in the same order
    assert list(iter_isomorphisms(cc, cc, identity_iso(cc))) == autos


def test_invariant_config_of_full_symmetric_group_is_trivial():
    # the trivial configuration is its own invariant configuration
    cc = trivial_config(6)
    autos = brute_force_automorphisms(cc, cap=1000)
    assert len(autos) == 720
