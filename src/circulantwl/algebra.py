"""Isomorphisms of coherent configurations.

Two layers: color bijections preserving all intersection numbers
(algebraic isomorphisms), and point bijections inducing them
(combinatorial isomorphisms, represented as plain tuples of point
images).  Tuple extensions lift an algebraic isomorphism to the point
extensions at matched tuples via seeded lockstep refinement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .core import (
    CoherentConfig,
    Parabolic,
    intersection_tensor,
    is_translation_invariant,
    quotient,
    restriction,
)
from .refine import joint_refine_pair


class CapExceededError(Exception):
    """A brute-force search was asked to exceed its configured cap."""


@dataclass(frozen=True)
class AlgebraicIso:
    """A bijection of color ids preserving all intersection numbers."""

    source: CoherentConfig
    target: CoherentConfig
    color_map: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.color_map) != list(range(self.source.rank)):
            raise ValueError("color map is not a bijection onto contiguous ids")

    def __call__(self, color: int) -> int:
        return self.color_map[color]

    def apply_set(self, colors) -> frozenset[int]:
        return frozenset(self.color_map[c] for c in colors)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.color_map, dtype=np.int64)

    def inverse(self) -> "AlgebraicIso":
        inv = [0] * len(self.color_map)
        for c, img in enumerate(self.color_map):
            inv[img] = c
        return AlgebraicIso(self.target, self.source, tuple(inv))

    def compose(self, then: "AlgebraicIso") -> "AlgebraicIso":
        """self followed by ``then``."""
        return AlgebraicIso(
            self.source, then.target, tuple(then.color_map[c] for c in self.color_map)
        )

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and all(
            i == c for i, c in enumerate(self.color_map)
        )

    def to_json(self) -> str:
        return json.dumps({"map": list(self.color_map)})

    @staticmethod
    def from_json(source: CoherentConfig, target: CoherentConfig, text: str) -> "AlgebraicIso":
        data = json.loads(text)
        return AlgebraicIso(source, target, tuple(int(c) for c in data["map"]))


def is_algebraic_isomorphism(
    cc_a: CoherentConfig, cc_b: CoherentConfig, color_map
) -> bool:
    if cc_a.n != cc_b.n or cc_a.rank != cc_b.rank:
        return False
    cmap = np.asarray(list(color_map), dtype=np.int64)
    ta, tb = intersection_tensor(cc_a), intersection_tensor(cc_b)
    return bool(np.array_equal(ta, tb[np.ix_(cmap, cmap, cmap)]))


def identity_iso(cc: CoherentConfig) -> AlgebraicIso:
    return AlgebraicIso(cc, cc, tuple(range(cc.rank)))


# -- enumeration of algebraic isomorphisms --------------------------------------


def _color_invariants(cc: CoherentConfig) -> list[tuple]:
    t = intersection_tensor(cc)
    keys = []
    for c in range(cc.rank):
        keys.append(
            (
                cc.is_diagonal_color(c),
                int(cc.valencies[c]),
                tuple(sorted(t[c].ravel().tolist())),
                tuple(sorted(t[:, c, :].ravel().tolist())),
                tuple(sorted(t[:, :, c].ravel().tolist())),
            )
        )
    return keys


def enumerate_algebraic_isos(
    cc_a: CoherentConfig, cc_b: CoherentConfig
) -> list[AlgebraicIso]:
    """All color bijections preserving the intersection tensor, by
    backtracking over colors ordered by invariant rarity."""
    if cc_a.n != cc_b.n or cc_a.rank != cc_b.rank:
        return []
    rank = cc_a.rank
    keys_a, keys_b = _color_invariants(cc_a), _color_invariants(cc_b)
    cand = [
        [cb for cb in range(rank) if keys_b[cb] == keys_a[ca]] for ca in range(rank)
    ]
    if any(not c for c in cand):
        return []
    order = sorted(range(rank), key=lambda c: (len(cand[c]), c))
    ta, tb = intersection_tensor(cc_a), intersection_tensor(cc_b)
    conv_a, conv_b = cc_a.converse_map, cc_b.converse_map

    assigned: dict[int, int] = {}
    used = [False] * rank
    found: list[tuple[int, ...]] = []

    def consistent(c: int, img: int) -> bool:
        if used[img]:
            return False
        ca = int(conv_a[c])
        if ca in assigned and assigned[ca] != int(conv_b[img]):
            return False
        trial = {**assigned, c: img}
        items = list(trial.items())
        for (r, r2) in items:
            for (s, s2) in items:
                if (
                    ta[r, s, c] != tb[r2, s2, img]
                    or ta[r, c, s] != tb[r2, img, s2]
                    or ta[c, r, s] != tb[img, r2, s2]
                ):
                    return False
        return True

    def rec(i: int) -> None:
        if i == rank:
            found.append(tuple(assigned[c] for c in range(rank)))
            return
        c = order[i]
        for img in cand[c]:
            if consistent(c, img):
                assigned[c] = img
                used[img] = True
                rec(i + 1)
                used[img] = False
                del assigned[c]

    rec(0)
    out = [AlgebraicIso(cc_a, cc_b, f) for f in sorted(found)]
    assert all(is_algebraic_isomorphism(cc_a, cc_b, iso.color_map) for iso in out)
    return out


def algebraic_automorphisms(cc: CoherentConfig) -> list[AlgebraicIso]:
    return enumerate_algebraic_isos(cc, cc)


# -- combinatorial isomorphisms ----------------------------------------------------


def iter_isomorphisms(
    cc_a: CoherentConfig, cc_b: CoherentConfig, phi: AlgebraicIso, domain=None
):
    """Yield image tuples of the points of ``domain`` (default: all points)
    whose colors match phi on every diagonal pair and on every pair with an
    earlier domain point.

    Distinct domain points get distinct images and a repeated point is sent
    where its first occurrence went.  Images are tried in increasing point
    order, so tuples come out in lexicographic order.
    """
    n = cc_a.n
    if cc_b.n != n:
        return
    domain = tuple(range(n)) if domain is None else tuple(int(p) for p in domain)
    first = [domain.index(p) for p in domain]
    mapped = phi.array[cc_a.colors]
    mat_b = cc_b.colors
    diag_b = mat_b.diagonal()
    assign = [0] * len(domain)
    used = np.zeros(n, dtype=bool)

    def rec(i: int):
        if i == len(domain):
            yield tuple(assign)
            return
        if first[i] < i:
            assign[i] = assign[first[i]]
            yield from rec(i + 1)
            return
        p = domain[i]
        ok = ~used & (diag_b == mapped[p, p])
        for j in range(i):
            q, fq = domain[j], assign[j]
            ok &= mat_b[fq, :] == mapped[q, p]
            ok &= mat_b[:, fq] == mapped[p, q]
            if not ok.any():
                return
        for img in np.flatnonzero(ok):
            assign[i] = int(img)
            used[img] = True
            yield from rec(i + 1)
            used[img] = False

    yield from rec(0)


def find_isomorphism(
    cc_a: CoherentConfig, cc_b: CoherentConfig, phi: AlgebraicIso
) -> tuple[int, ...] | None:
    """The lexicographically least point bijection f with
    color'(f a, f b) = phi(color(a, b)) for all pairs, or None."""
    f = next(iter_isomorphisms(cc_a, cc_b, phi), None)
    if f is not None:
        assert induced_color_map(cc_a, cc_b, f).color_map == phi.color_map
    return f


def induced_color_map(
    cc_a: CoherentConfig, cc_b: CoherentConfig, f
) -> AlgebraicIso:
    """The algebraic isomorphism phi_f of a combinatorial isomorphism f."""
    perm = np.asarray(list(f), dtype=np.int64)
    image = np.empty_like(cc_a.colors)
    image[perm[:, None], perm[None, :]] = cc_a.colors
    # image now holds, at (a', b'), the source color of the preimage pair
    cmap = np.full(cc_a.rank, -1, dtype=np.int64)
    cmap[image.ravel()] = cc_b.colors.ravel()
    lost = np.flatnonzero(cmap < 0)
    if len(lost):
        raise ValueError("point map is not a bijection")
    target_check = cc_b.colors[perm[:, None], perm[None, :]]
    if not np.array_equal(cmap[cc_a.colors], target_check):
        raise ValueError("point map does not send color classes onto color classes")
    return AlgebraicIso(cc_a, cc_b, tuple(int(c) for c in cmap))


def is_isomorphism(cc_a: CoherentConfig, cc_b: CoherentConfig, f) -> bool:
    try:
        induced_color_map(cc_a, cc_b, f)
        return True
    except ValueError:
        return False


# -- induced maps on quotients, restrictions, sections -------------------------------


def image_parabolic(phi: AlgebraicIso, e: Parabolic) -> Parabolic:
    """phi(e): the parabolic of the target covered by the mapped colors."""
    if e.color_set is None:
        raise ValueError("parabolic is not a relation of the source")
    colors = phi.apply_set(e.color_set)
    mat = np.isin(phi.target.colors, list(colors))
    support = np.flatnonzero(mat.any(axis=1))
    labels: dict[int, int] = {}
    for p in support:
        row = np.flatnonzero(mat[p])
        labels[int(p)] = int(row[0])
    groups: dict[int, list[int]] = {}
    for p, lab in labels.items():
        groups.setdefault(lab, []).append(p)
    blocks = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    return Parabolic(blocks, frozenset(colors))


def induced_on_quotient(phi: AlgebraicIso, e: Parabolic) -> AlgebraicIso:
    """The map induced by phi between the quotients modulo e and phi(e)."""
    e2 = image_parabolic(phi, e)
    q_a, q_b = quotient(phi.source, e), quotient(phi.target, e2)
    block_a = _block_array(e, phi.source.n)
    block_b = _block_array(e2, phi.target.n)
    cmap = np.full(q_a.rank, -1, dtype=np.int64)
    for s in range(phi.source.rank):
        a, b = phi.source.representative[s]
        qa = q_a.colors[block_a[a], block_a[b]]
        a2, b2 = phi.target.representative[phi(s)]
        qb = q_b.colors[block_b[a2], block_b[b2]]
        if cmap[qa] not in (-1, qb):
            raise ValueError("color map does not descend to the quotient")
        cmap[qa] = qb
    out = AlgebraicIso(q_a, q_b, tuple(int(c) for c in cmap))
    if not is_algebraic_isomorphism(q_a, q_b, out.color_map):
        raise ValueError("induced quotient map is not an algebraic isomorphism")
    return out


def _block_array(e: Parabolic, n: int) -> np.ndarray:
    out = np.full(n, -1, dtype=np.int64)
    for i, blk in enumerate(sorted(e.blocks, key=min)):
        out[list(blk)] = i
    return out


def induced_on_restriction(
    phi: AlgebraicIso, delta, delta2
) -> AlgebraicIso:
    """The map induced by phi between the restrictions to delta and delta2."""
    pts_a = sorted(int(p) for p in delta)
    pts_b = sorted(int(p) for p in delta2)
    r_a = restriction(phi.source, pts_a)
    r_b = restriction(phi.target, pts_b)
    sub_a = phi.source.colors[np.ix_(pts_a, pts_a)]
    sub_b = phi.target.colors[np.ix_(pts_b, pts_b)]
    cmap = np.full(r_a.rank, -1, dtype=np.int64)
    for c in range(r_a.rank):
        cells = np.argwhere(r_a.colors == c)
        a, b = cells[0]
        parent = int(sub_a[a, b])
        target_cells = np.argwhere(sub_b == phi(parent))
        if not len(target_cells):
            raise ValueError("restriction images are not compatible with the map")
        a2, b2 = target_cells[0]
        cmap[c] = r_b.colors[a2, b2]
    out = AlgebraicIso(r_a, r_b, tuple(int(v) for v in cmap))
    if not is_algebraic_isomorphism(r_a, r_b, out.color_map):
        raise ValueError("induced restriction map is not an algebraic isomorphism")
    return out


def induced_on_section(
    phi: AlgebraicIso, delta, e_blocks, delta2, e_blocks2
) -> AlgebraicIso:
    """Restriction followed by quotient: the induced map between sections.

    Blocks are given in original point labels; the image equivalence must
    agree with ``e_blocks2`` (checked).
    """
    rest = induced_on_restriction(phi, delta, delta2)
    relabel = {p: i for i, p in enumerate(sorted(int(p) for p in delta))}
    blocks = tuple(tuple(sorted(relabel[p] for p in blk)) for blk in e_blocks)
    e = Parabolic(blocks, _covering(rest.source, blocks))
    relabel2 = {p: i for i, p in enumerate(sorted(int(p) for p in delta2))}
    blocks2 = frozenset(
        tuple(sorted(relabel2[p] for p in blk)) for blk in e_blocks2
    )
    if frozenset(image_parabolic(rest, e).blocks) != blocks2:
        raise ValueError("map does not send the first section equivalence to the second")
    return induced_on_quotient(rest, e)


def _covering(cc: CoherentConfig, blocks) -> frozenset[int]:
    from .core import _covering_colors

    cols = _covering_colors(cc, blocks)
    if cols is None:
        raise ValueError("equivalence is not a relation of the restriction")
    return cols


# -- tuple extensions ------------------------------------------------------------------


@dataclass(frozen=True)
class TupleExtension:
    """The unique lift of an algebraic isomorphism to matched point extensions."""

    base: AlgebraicIso
    x: tuple[int, ...]
    x_image: tuple[int, ...]
    ext_source: CoherentConfig
    ext_target: CoherentConfig
    lifted: AlgebraicIso


def _tag_array(n: int, x: tuple[int, ...]) -> np.ndarray:
    """Encode which tuple indices sit on each point (0 marks untagged points)."""
    groups: dict[int, tuple[int, ...]] = {}
    for i, p in enumerate(x):
        groups[p] = groups.get(p, ()) + (i,)
    codes: dict[tuple[int, ...], int] = {}
    tags = np.zeros(n, dtype=np.int64)
    for p, idx in groups.items():
        tags[p] = codes.setdefault(idx, len(codes) + 1)
    return tags


def tuple_extension(
    phi: AlgebraicIso, x, x_image
) -> TupleExtension | None:
    """The (x, x')-extension of phi, or None when the seeded lockstep
    refinements of the two point extensions diverge."""
    x = tuple(int(p) for p in x)
    x_image = tuple(int(p) for p in x_image)
    if len(x) != len(x_image):
        raise ValueError("tuples must have equal length")
    for i, j in combinations_with_replacement(range(len(x)), 2):
        if (x[i] == x[j]) != (x_image[i] == x_image[j]):
            return None
    cc_a, cc_b = phi.source, phi.target
    n = cc_a.n
    tags_a = _tag_array(n, x)
    tags_b = _tag_array(n, x_image)
    inv = phi.inverse().array
    k = max(len(x) + 2, 2)
    init_a = (cc_a.colors * k + tags_a[:, None]) * k + tags_a[None, :]
    init_b = (inv[cc_b.colors] * k + tags_b[:, None]) * k + tags_b[None, :]
    res = joint_refine_pair(init_a, init_b)
    if res is None:
        return None
    mat_a, mat_b, rank = res
    ext_a, ext_b = CoherentConfig(mat_a), CoherentConfig(mat_b)
    cmap = np.full(ext_a.rank, -1, dtype=np.int64)
    for shared in range(rank):
        cells_a = np.argwhere(mat_a == shared)
        cells_b = np.argwhere(mat_b == shared)
        ca = ext_a.colors[cells_a[0][0], cells_a[0][1]]
        cb = ext_b.colors[cells_b[0][0], cells_b[0][1]]
        cmap[ca] = cb
    lifted = AlgebraicIso(ext_a, ext_b, tuple(int(c) for c in cmap))
    assert is_algebraic_isomorphism(ext_a, ext_b, lifted.color_map)
    _assert_extends(phi, ext_a, ext_b, lifted)
    for i in range(len(x)):
        assert lifted(ext_a.color_of(x[i], x[i])) == ext_b.color_of(
            x_image[i], x_image[i]
        )
    return TupleExtension(
        base=phi, x=x, x_image=x_image, ext_source=ext_a, ext_target=ext_b, lifted=lifted
    )


def _assert_extends(phi: AlgebraicIso, ext_a, ext_b, lifted: AlgebraicIso) -> None:
    """Refined classes must map inside the phi-image of their base class."""
    base_of_a = {}
    for c in range(ext_a.rank):
        a, b = ext_a.representative[c]
        base_of_a[c] = phi.source.color_of(a, b)
    preimage = lifted.inverse().color_map
    for c in range(ext_b.rank):
        a, b = ext_b.representative[c]
        assert phi(base_of_a[preimage[c]]) == phi.target.color_of(a, b)


def extendable_at(phi: AlgebraicIso, x) -> TupleExtension | None:
    """The (x, x')-extension of phi for the least candidate image tuple x'
    that has one, or None."""
    x = tuple(int(p) for p in x)
    for x_image in iter_isomorphisms(phi.source, phi.target, phi, x):
        ext = tuple_extension(phi, x, x_image)
        if ext is not None:
            return ext
    return None


def is_m_extendable(phi: AlgebraicIso, m: int) -> bool:
    """Whether phi admits an (x, x')-extension for every m-tuple x.

    Extendability depends only on the set of entries, and only up to
    color-preserving automorphisms of the source, so only sets of at most m
    points are tested.  When the source is translation invariant, every
    translation is such an automorphism and only sets containing 0 are
    tested.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = phi.source.n
    invariant = is_translation_invariant(phi.source.colors)
    sets = (
        s
        for size in range(1, min(m, n) + 1)
        for s in combinations(range(n), size)
        if not invariant or s[0] == 0
    )
    return all(extendable_at(phi, s) is not None for s in sets)
