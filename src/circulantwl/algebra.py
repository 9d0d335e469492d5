"""Isomorphisms of coherent configurations.

Two layers: color bijections preserving all intersection numbers (algebraic
isomorphisms), and point bijections inducing them (combinatorial
isomorphisms, represented as plain tuples of point images).  One
backtracking engine, ``_backtrack``, searches both; each search supplies
only its candidate matrix and its pruning step.  One compare,
``unit_multipliers``, finds the units u of Z_n whose x -> ux carries one
label row onto another.  Those of a translation-invariant configuration are
a symmetry known in advance: the color-map search keeps one image per orbit
of their color maps and closes its result under them, and ``is_induced``
tries them before any point search.  A tuple extension individualises x
and x' as a point extension does (``core._individualise``), over base colors
aligned by phi, and refines both sides in lockstep into the lifted map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .core import (
    CoherentConfig,
    Parabolic,
    _covering_colors,
    _individualise,
    intersection_tensor,
    is_translation_invariant,
    quotient,
    restriction,
    units,
)
from .refine import CapExceededError, InvariantError, _renumber_rows, refine_pairs


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
        return AlgebraicIso(self.target, self.source, tuple(np.argsort(self.color_map).tolist()))

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

    @staticmethod
    def from_json(source: CoherentConfig, target: CoherentConfig, text: str) -> "AlgebraicIso":
        data = json.loads(text)
        return AlgebraicIso(source, target, tuple(int(c) for c in data["map"]))


def is_algebraic_isomorphism(
    cc_a: CoherentConfig, cc_b: CoherentConfig, color_map
) -> bool:
    """Whether color_map preserves every intersection number: at a
    representative (a, b) of each color, the mapped multiset of pairs
    (color(a, g), color(g, b)) over g equals the one at a representative of
    its image.  Takes rank * n entries per side, not the rank**3 tensor."""
    if cc_a.n != cc_b.n or cc_a.rank != cc_b.rank:
        return False
    cmap, k = np.asarray(list(color_map), dtype=np.int64), np.int64(cc_a.rank)
    mapped, (a, b) = cmap[cc_a.colors], cc_a.representative.T
    a2, b2 = cc_b.representative[cmap].T
    rows_a = np.sort(mapped[a] * k + mapped[:, b].T, axis=1)
    rows_b = np.sort(cc_b.colors[a2] * k + cc_b.colors[:, b2].T, axis=1)
    return bool(np.array_equal(rows_a, rows_b))


def identity_iso(cc: CoherentConfig) -> AlgebraicIso:
    return AlgebraicIso(cc, cc, tuple(range(cc.rank)))


# -- unit multipliers ------------------------------------------------------------


def _row(cc: CoherentConfig) -> np.ndarray | None:
    """Row 0 of a translation-invariant configuration, else None; cached."""
    if "row" not in cc._cache:
        cc._cache["row"] = cc.colors[0] if is_translation_invariant(cc.colors) else None
    return cc._cache["row"]


def unit_multipliers(row_a, row_b) -> tuple[np.ndarray, np.ndarray]:
    """The units u of Z_n, increasing, for which row_b[u * x] over x relabels
    label row a (labels 0..k-1) bijectively, and the color map c ->
    row_b[u * least_a(c)] of each, one row per u; none for unequal lengths."""
    n, least = len(row_a), np.unique(row_a, return_index=True)[1]
    us = np.asarray(units(n) if len(row_b) == n else [], dtype=np.int64)
    images = row_b[np.outer(us, np.arange(n)) % n]
    # each color goes where its least x goes; u is kept when all agree
    cmaps = images[:, least]
    kept = (cmaps[:, row_a] == images).all(axis=1) & (len(least) == len(np.unique(row_b)))
    return us[kept], cmaps[kept]


def _unit_maps(cc: CoherentConfig) -> np.ndarray:
    """The distinct color maps, in increasing order, of the unit multipliers
    of row 0 of a translation-invariant cc: a group of algebraic
    automorphisms that holds the identity.  No rows for any other cc; cached."""
    if "unit_maps" not in cc._cache:
        maps, row = np.empty((0, cc.rank), dtype=np.int64), _row(cc)
        if row is not None:
            cmaps = unit_multipliers(row, row)[1].tolist()
            maps = np.array(sorted(set(map(tuple, cmaps))), dtype=np.int64)
        cc._cache["unit_maps"] = maps
    return cc._cache["unit_maps"]


def is_induced(cc_a: CoherentConfig, cc_b: CoherentConfig, phi: AlgebraicIso) -> bool:
    """Whether a point isomorphism induces phi: first whether phi is the color
    map of a unit multiplier (cached for a self pair), when both sides are
    translation invariant, then by ``find_isomorphism``."""
    row_a, row_b = _row(cc_a), _row(cc_b)
    if row_a is not None and row_b is not None:
        maps = _unit_maps(cc_a) if cc_a is cc_b else unit_multipliers(row_a, row_b)[1]
        if (maps == phi.array).all(axis=1).any():
            return True
    return find_isomorphism(cc_a, cc_b, phi) is not None


# -- enumeration of algebraic isomorphisms --------------------------------------


def _color_invariants(cc: CoherentConfig) -> np.ndarray:
    """One int64 row per color: whether it is diagonal, its valency and the
    multisets of its three tensor slices (c, ., .), (., c, .) and (., ., c),
    each as the count of every value 0..n it holds; cached."""
    if "invariants" not in cc._cache:
        t, r, width = intersection_tensor(cc), cc.rank, cc.n + 1
        diagonal = np.isin(np.arange(r), list(cc.diagonal_colors))
        counts = []
        for k in (0, 1, 2):
            # the values of slice k at color c, shifted into c * width .. (c + 1) * width - 1
            shifted = np.moveaxis(t, k, 0) + width * np.arange(r)[:, None, None]
            counts.append(np.bincount(shifted.ravel("K"), minlength=r * width).reshape(r, width))
        cc._cache["invariants"] = np.concatenate(
            [diagonal[:, None], cc.valencies[:, None], *counts], axis=1, dtype=np.int64
        )
    return cc._cache["invariants"]


def enumerate_algebraic_isos(
    cc_a: CoherentConfig, cc_b: CoherentConfig
) -> list[AlgebraicIso]:
    """All color bijections preserving the intersection tensor, in order of
    their color maps.  The algebraic automorphisms of one configuration are
    searched once and their color maps kept in its cache."""
    cache = cc_a._cache if cc_a is cc_b else {}
    if "autos" not in cache:
        cache["autos"] = _search_color_maps(cc_a, cc_b)
    return [AlgebraicIso(cc_a, cc_b, f) for f in cache["autos"]]


def _search_color_maps(cc_a: CoherentConfig, cc_b: CoherentConfig) -> list[tuple[int, ...]]:
    """Backtracking over colors ordered by invariant rarity: a color may go
    to an image only where every intersection number among it and the colors
    already mapped is preserved.

    The unit maps H of cc_b (``_unit_maps``) send every map found to another
    one, h o f.  So the first color with a choice of images, the pivot, is
    sent only to images least in their H-orbit: any map f equals h o g for
    the h taking f(pivot) to the least of its orbit and g = h^-1 o f.  The
    maps found are then closed under H."""
    if cc_a.n != cc_b.n or cc_a.rank != cc_b.rank:
        return []
    rank = cc_a.rank
    # equal invariants get equal ids in one renumbering of both sides' rows
    ids, _ = _renumber_rows(np.concatenate([_color_invariants(cc_a), _color_invariants(cc_b)]))
    cand = ids[:rank, None] == ids[None, rank:]
    if not cand.any(axis=1).all():
        return []
    order = sorted(range(rank), key=lambda c: (int(cand[c].sum()), c))
    group = np.vstack([np.arange(rank), _unit_maps(cc_b)])
    pivot = next((c for c in order if cand[c].sum() > 1), None)
    if pivot is not None:
        # the identity is in H, so an image is least in its orbit when no h lowers it
        cand[pivot] &= (group >= np.arange(rank)).all(axis=0)
    ta, tb = intersection_tensor(cc_a), intersection_tensor(cc_b)
    # each tensor's three views with one slot moved last, stacked
    va, vb = (np.stack([np.moveaxis(t, k, 2) for k in (0, 1, 2)], axis=-1) for t in (ta, tb))
    search = np.asarray(order)

    def narrow(i: int, images: np.ndarray, js: np.ndarray) -> np.ndarray:
        # numbers among c and the colors before it: (r, s, c), (c, c, s) of each view, (c, c, c)
        c, before = order[i], search[:i]
        pairs = vb[images[:, None, None], images[:, None], js]
        ok = (pairs == va[before[:, None], before, c, None]).all((0, 1, 3))
        ok &= (vb[js[:, None], js[:, None], images] == va[c, c, before]).all((1, 2))
        return ok & (vb[js, js, js, 0] == va[c, c, c, 0])

    position = [order.index(c) for c in range(rank)]
    found = np.array(
        [[images[i] for i in position] for images in _backtrack(cand, order, narrow)],
        dtype=np.int64,
    ).reshape(-1, rank)
    closed = sorted(set(map(tuple, group[:, found].reshape(-1, rank).tolist())))
    if not all(is_algebraic_isomorphism(cc_a, cc_b, f) for f in closed):
        raise InvariantError("search returned a map that is not an algebraic isomorphism")
    return closed


def _backtrack(cand: np.ndarray, domain, narrow):
    """Yield image tuples of ``domain`` in lexicographic order.

    Item i of the domain may go to the images js that no earlier item took
    and that ``cand[domain[i]]`` allows, where ``narrow(i, images, js)`` keeps
    them; ``images`` holds the images of ``domain[:i]``.  A repeated item goes
    where its first occurrence went.
    """
    first = [domain.index(p) for p in domain]
    used = np.zeros(cand.shape[1], dtype=bool)
    images = np.zeros(len(domain), dtype=np.int64)

    def rec(i: int):
        if i == len(domain):
            yield tuple(images.tolist())
            return
        if first[i] < i:
            images[i] = images[first[i]]
            yield from rec(i + 1)
            return
        js = np.flatnonzero(cand[domain[i]] & ~used)
        if len(js):
            js = js[narrow(i, images[:i], js)]
        for j in js:
            images[i] = j
            used[j] = True
            yield from rec(i + 1)
            used[j] = False

    try:
        yield from rec(0)
    finally:
        del rec  # rec refers to itself; break the cycle so what it holds is freed now


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
    if cc_b.n != cc_a.n:
        return
    domain = tuple(range(cc_a.n)) if domain is None else tuple(int(p) for p in domain)
    cand, narrow = _point_search(cc_a, cc_b, phi, domain)
    yield from _backtrack(cand, domain, narrow)


def _point_search(cc_a: CoherentConfig, cc_b: CoherentConfig, phi: AlgebraicIso, domain):
    """The candidate matrix and pruning step of a point search over domain."""
    full, mat_b = phi.array[cc_a.colors], cc_b.colors
    # the mapped source colors between domain positions
    mapped = full[np.ix_(domain, domain)]

    def narrow(i: int, images: np.ndarray, js: np.ndarray) -> np.ndarray:
        return (mat_b[images[:, None], js] == mapped[:i, i, None]).all(0) & (
            mat_b[js[:, None], images] == mapped[i, :i]
        ).all(1)

    return full.diagonal()[:, None] == mat_b.diagonal(), narrow


def find_isomorphism(
    cc_a: CoherentConfig, cc_b: CoherentConfig, phi: AlgebraicIso
) -> tuple[int, ...] | None:
    """The lexicographically least point bijection f with
    color'(f a, f b) = phi(color(a, b)) for all pairs, or None.

    When cc_b is translation invariant, following any such f by the
    translation taking f(0) to 0 gives another, so the least one sends 0 to
    0 and only such maps are searched."""
    f = None
    if cc_b.n == cc_a.n:
        domain = tuple(range(cc_a.n))
        cand, narrow = _point_search(cc_a, cc_b, phi, domain)
        if _row(cc_b) is not None:
            cand[0, 1:] = False
        f = next(_backtrack(cand, domain, narrow), None)
    if f is not None and induced_color_map(cc_a, cc_b, f).color_map != phi.color_map:
        raise InvariantError("point isomorphism does not induce the color map")
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
    if (cmap < 0).any():
        raise ValueError("point map is not a bijection")
    target_check = cc_b.colors[perm[:, None], perm[None, :]]
    if not np.array_equal(cmap[cc_a.colors], target_check):
        raise ValueError("point map does not send color classes onto color classes")
    return AlgebraicIso(cc_a, cc_b, tuple(int(c) for c in cmap))


# -- induced maps on quotients, restrictions, sections -------------------------------


def image_parabolic(phi: AlgebraicIso, e: Parabolic) -> Parabolic:
    """phi(e): the parabolic of the target covered by the mapped colors."""
    if e.color_set is None:
        raise ValueError("parabolic is not a relation of the source")
    colors = phi.apply_set(e.color_set)
    mat = np.isin(phi.target.colors, list(colors))
    groups: dict[int, list[int]] = {}
    for p in np.flatnonzero(mat.any(axis=1)):
        # the points of one block share their least neighbour
        groups.setdefault(int(np.argmax(mat[p])), []).append(int(p))
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
    # equal tags and phi-aligned base colors on both sides, and refinement only
    # splits: so each lifted class lies over the phi-image of its base class
    # and the diagonal of x[i] goes to that of x_image[i]
    init_b = phi.inverse().array[phi.target.colors]
    res = refine_pairs(_individualise(phi.source.colors, x), _individualise(init_b, x_image))
    if res is None:
        return None
    (mat_a, mat_b), rank = res
    ext_a, ext_b = CoherentConfig(mat_a), CoherentConfig(mat_b)
    # each side's canonical renumbering, as a map from the shared ids
    to_a, to_b = np.empty(rank, dtype=np.int64), np.empty(rank, dtype=np.int64)
    to_a[mat_a], to_b[mat_b] = ext_a.colors, ext_b.colors
    cmap = np.empty(rank, dtype=np.int64)
    cmap[to_a] = to_b
    lifted = AlgebraicIso(ext_a, ext_b, tuple(int(c) for c in cmap))
    if not is_algebraic_isomorphism(ext_a, ext_b, lifted.color_map):
        raise InvariantError("lifted map is not an algebraic isomorphism")
    return TupleExtension(
        base=phi, x=x, x_image=x_image, ext_source=ext_a, ext_target=ext_b, lifted=lifted
    )


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
    translation is such an automorphism and only one set per translation
    orbit is tested: the least of its translates that contain 0.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = phi.source.n
    invariant = is_translation_invariant(phi.source.colors)
    sets = (
        s
        for size in range(1, min(m, n) + 1)
        for s in combinations(range(n), size)
        if not invariant or s == min(tuple(sorted((p - q) % n for p in s)) for q in s)
    )
    return all(extendable_at(phi, s) is not None for s in sets)
