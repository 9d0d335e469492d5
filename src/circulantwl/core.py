"""Coherent configurations: the color-partition data model and basic operations.

A coherent configuration is a partition of Omega x Omega into color classes
such that the diagonal is a union of classes, the transpose of a class is a
class, and all composition counts (intersection numbers) are well defined.
Instances are immutable; colors are always stored in a canonical numbering
so that equal configurations have bit-identical matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .refine import _first_occurrences, _unstable_pairs, close_pairs, normalize_colors


def canonical_color_matrix(mat: np.ndarray) -> np.ndarray:
    """Renumber colors canonically: diagonal classes first, then by
    (source fiber, target fiber, lexicographically least pair).

    The key is intrinsic to the partition, so two equal partitions get
    identical matrices regardless of input numbering.
    """
    mat, rank = normalize_colors(mat)
    n = mat.shape[0]
    flat = mat.ravel()
    total = np.bincount(flat, minlength=rank)
    on_diag = np.bincount(mat.diagonal(), minlength=rank)
    pure_diag = (on_diag == total) & (on_diag > 0)
    first = _first_occurrences(flat, rank)

    # fiber index per point, ordered by least point of the fiber
    fiber_of = np.full(n, n, dtype=np.int64)
    diag = mat.diagonal()
    diag_colors = sorted(
        (c for c in range(rank) if pure_diag[c]),
        key=lambda c: int(np.argmax(diag == c)),
    )
    for i, c in enumerate(diag_colors):
        fiber_of[diag == c] = i

    keys = []
    for c in range(rank):
        a, b = divmod(int(first[c]), n)
        keys.append((0 if pure_diag[c] else 1, int(fiber_of[a]), int(fiber_of[b]), int(first[c])))
    order = sorted(range(rank), key=lambda c: keys[c])
    perm = np.empty(rank, dtype=np.int64)
    perm[np.asarray(order)] = np.arange(rank)
    return perm[mat]


class CoherentConfig:
    """An arc coloring of a finite point set, canonically numbered.

    The constructor only canonicalizes; it does not check the coherence
    axioms.  Use :func:`validate` for that.
    """

    __slots__ = ("n", "colors", "rank", "_cache", "__dict__")

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=np.int64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("color matrix must be square")
        if mat.shape[0] == 0:
            raise ValueError("empty point set")
        self.colors = canonical_color_matrix(mat)
        self.colors.flags.writeable = False
        self.n = int(mat.shape[0])
        self.rank = int(self.colors.max()) + 1
        self._cache: dict = {}

    @classmethod
    def from_canonical_row(cls, row: np.ndarray) -> "CoherentConfig":
        """The translation-invariant configuration with row 0 ``row``, whose
        colors are numbered by least difference.  Every color's least pair
        is (0, its least difference), so that is the numbering
        ``canonical_color_matrix`` gives, and nothing is renumbered.  Row 0,
        the representatives and the valencies are read off the row."""
        row = np.asarray(row, dtype=np.int64)
        least = np.unique(row, return_index=True)[1]
        cc = cls.__new__(cls)
        cc.colors = circulant_matrix(row)
        cc.colors.flags.writeable = False
        cc.n, cc.rank = len(row), len(least)
        cc._cache = {"row": cc.colors[0]}
        cc.representative = np.stack([np.zeros_like(least), least], axis=1)
        cc.valencies = np.bincount(row)
        return cc

    # -- identity ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoherentConfig)
            and self.n == other.n
            and np.array_equal(self.colors, other.colors)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.colors.tobytes()))

    def __repr__(self) -> str:
        return f"CoherentConfig(n={self.n}, rank={self.rank})"

    # -- basic structure ---------------------------------------------------
    @cached_property
    def diagonal_colors(self) -> frozenset[int]:
        return frozenset(int(c) for c in np.unique(self.colors.diagonal()))

    @cached_property
    def is_homogeneous(self) -> bool:
        return len(self.diagonal_colors) == 1

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        diag = self.colors.diagonal()
        return tuple(
            tuple(int(p) for p in np.flatnonzero(diag == c))
            for c in sorted(self.diagonal_colors)
        )

    @cached_property
    def representative(self) -> np.ndarray:
        """(rank, 2) array: lexicographically least pair of each color."""
        first = _first_occurrences(self.colors.ravel(), self.rank)
        return np.stack([first // self.n, first % self.n], axis=1)

    @cached_property
    def converse_map(self) -> np.ndarray:
        """Color of the transposed class, from a representative pair."""
        rep = self.representative
        return self.colors[rep[:, 1], rep[:, 0]].copy()

    @cached_property
    def valencies(self) -> np.ndarray:
        """Out-valency of each color at its representative source point."""
        rep = self.representative
        return np.array(
            [int(np.count_nonzero(self.colors[rep[c, 0]] == c)) for c in range(self.rank)]
        )

    def color_of(self, a: int, b: int) -> int:
        return int(self.colors[a, b])


# -- standard configurations ------------------------------------------------


def trivial_config(n: int) -> CoherentConfig:
    """Diagonal plus (for n > 1) one off-diagonal class."""
    mat = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(mat, 0)
    return CoherentConfig(mat)


def circulant_matrix(row) -> np.ndarray:
    """The n x n matrix of a circulant object given by its row 0: entry
    (a, b) is row[(b - a) mod n]."""
    row = np.asarray(row)
    n = len(row)
    return row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def units(n: int) -> list[int]:
    """The units of Z_n, as 1..n coprime to n ([0] for n = 1)."""
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1] if n > 1 else [0]


def is_translation_invariant(colors: np.ndarray) -> bool:
    """Whether the color of (a, b) depends only on b - a mod n, so that
    every translation of Z_n preserves colors."""
    return bool(np.array_equal(circulant_matrix(colors[0]), colors))


def _row(cc: CoherentConfig) -> np.ndarray | None:
    """Row 0 of a translation-invariant configuration, else None; cached
    under the key that ``CoherentConfig.from_canonical_row`` seeds."""
    if "row" not in cc._cache:
        cc._cache["row"] = cc.colors[0] if is_translation_invariant(cc.colors) else None
    return cc._cache["row"]


# -- validation --------------------------------------------------------------


@dataclass
class ValidationReport:
    valid: bool
    violations: list[tuple[str, tuple, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid


def validate(cc: CoherentConfig) -> ValidationReport:
    """Check the three coherence axioms, reporting a witness per violation."""
    violations: list[tuple[str, tuple, str]] = []
    mat = cc.colors
    n = cc.n

    # diagonal must be a union of classes
    diag_colors = set(int(c) for c in np.unique(mat.diagonal()))
    for c in diag_colors:
        off = np.nonzero((mat == c) & ~np.eye(n, dtype=bool))
        if len(off[0]):
            a, b = int(off[0][0]), int(off[1][0])
            violations.append(
                ("CC1", (c, a, b), f"color {c} meets the diagonal and pair ({a},{b})")
            )

    # transpose of a class must be a class
    trans = cc.converse_map[mat]
    bad = np.nonzero(mat.T != trans)
    if len(bad[0]):
        a, b = int(bad[0][0]), int(bad[1][0])
        violations.append(
            ("CC2", (int(mat[b, a]), b, a), f"class of color {int(mat[b, a])} has no single converse")
        )

    # composition counts must be constant on each class
    if n > 1:
        unstable = np.flatnonzero(_unstable_pairs(mat, cc.rank))
        colors, at = np.unique(mat.ravel()[unstable], return_index=True)
        for c, j0 in zip(colors.tolist(), unstable[at].tolist()):
            a0, b0 = (int(v) for v in cc.representative[c])
            a1, b1 = divmod(j0, n)
            r, s = _differing_composition(mat, cc.rank, (a0, b0), (a1, b1))
            violations.append(
                (
                    "CC3",
                    (r, s, c),
                    f"c[{r},{s};{c}] differs between pairs ({a0},{b0}) and ({a1},{b1})",
                )
            )
    return ValidationReport(valid=not violations, violations=violations)


def _differing_composition(mat, rank, p0, p1) -> tuple[int, int]:
    def counts(a, b):
        return np.bincount(mat[a] * rank + mat[:, b], minlength=rank * rank)

    diff = np.flatnonzero(counts(*p0) != counts(*p1))
    return int(diff[0]) // rank, int(diff[0]) % rank


# -- intersection numbers ----------------------------------------------------


def intersection_number(cc: CoherentConfig, r: int, s: int, t: int) -> int:
    """c_{rs}^t: for (a,b) of color t, the number of g with
    color(a,g) = r and color(g,b) = s, counted at the representative of t."""
    for c in (r, s, t):
        if not 0 <= c < cc.rank:
            raise ValueError(f"color id {c} out of range 0..{cc.rank - 1}")
    a, b = cc.representative[t]
    return int(np.count_nonzero((cc.colors[a] == r) & (cc.colors[:, b] == s)))


def intersection_tensor(cc: CoherentConfig) -> np.ndarray:
    """Full (rank, rank, rank) tensor of intersection numbers, cached."""
    if "tensor" not in cc._cache:
        k = cc.rank
        a, b = cc.representative.T
        # entry (t, g) counts toward (color(a_t, g), color(g, b_t), t)
        flat = (cc.colors[a] * k + cc.colors[:, b].T) * k + np.arange(k)[:, None]
        tensor = np.bincount(flat.ravel(), minlength=k**3).reshape(k, k, k)
        tensor.flags.writeable = False
        cc._cache["tensor"] = tensor
    return cc._cache["tensor"]


# -- relations and parabolics -------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """A union of color classes of a fixed configuration."""

    cc: CoherentConfig
    color_set: frozenset[int]

    def __post_init__(self):
        if not self.color_set:
            raise ValueError("relation must be a nonempty set of colors")
        if any(not 0 <= c < self.cc.rank for c in self.color_set):
            raise ValueError("color id out of range")

    @property
    def matrix(self) -> np.ndarray:
        return np.isin(self.cc.colors, list(self.color_set))

    def pairs(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.matrix)
        return [(int(a), int(b)) for a, b in zip(rows, cols)]

    def support(self) -> tuple[int, ...]:
        m = self.matrix
        return tuple(int(p) for p in np.flatnonzero(m.any(axis=0) | m.any(axis=1)))

    def __or__(self, other: "Relation") -> "Relation":
        return Relation(self.cc, self.color_set | other.color_set)

    def __and__(self, other: "Relation") -> "Relation":
        inter = self.color_set & other.color_set
        return Relation(self.cc, inter)


@dataclass(frozen=True)
class Parabolic:
    """An equivalence relation on a support set, block form plus the
    covering color set when it is a relation of the configuration."""

    blocks: tuple[tuple[int, ...], ...]
    color_set: frozenset[int] | None = None

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(p for blk in self.blocks for p in blk))

    def block_of(self) -> dict[int, int]:
        return {p: i for i, blk in enumerate(self.blocks) for p in blk}

    def is_full(self, n: int) -> bool:
        return len(self.support) == n

    def refines(self, other: "Parabolic") -> bool:
        """Every block of self lies inside a block of other (on self's support)."""
        out = other.block_of()
        for blk in self.blocks:
            ids = {out.get(p) for p in blk}
            if len(ids) != 1 or None in ids:
                return False
        return True


def _blocks_from_labels(labels: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for p, lab in labels.items():
        groups.setdefault(lab, []).append(p)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def _covering_colors(cc: CoherentConfig, parab_blocks) -> frozenset[int] | None:
    """Colors whose classes lie inside the block relation; None when the
    union does not reproduce the relation exactly."""
    block = np.full(cc.n, -1, dtype=np.int64)
    for i, blk in enumerate(parab_blocks):
        block[list(blk)] = i
    inside = (block[:, None] == block[None, :]) & (block[:, None] >= 0)
    flat = cc.colors.ravel()
    good = np.flatnonzero(
        np.bincount(flat, weights=inside.ravel(), minlength=cc.rank)
        == np.bincount(flat, minlength=cc.rank)
    )
    covered = np.isin(cc.colors, good)
    if np.array_equal(covered, inside):
        return frozenset(int(c) for c in good)
    return None


def converse(rel: Relation) -> Relation:
    return Relation(rel.cc, frozenset(int(rel.cc.converse_map[c]) for c in rel.color_set))


def dot_product(r: Relation, s: Relation) -> Relation:
    """Smallest relation containing the composition r . s; for a coherent
    configuration this is the composition itself."""
    if r.cc is not s.cc and r.cc != s.cc:
        raise ValueError("relations live on different configurations")
    prod = (r.matrix.astype(np.int64) @ s.matrix.astype(np.int64)) > 0
    colors = frozenset(int(c) for c in np.unique(r.cc.colors[prod]))
    return Relation(r.cc, colors)


def generated_equivalence(s: Relation) -> Parabolic:
    """The least equivalence on the support of s containing s."""
    support = s.support()
    parent = {p: p for p in support}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a, b in s.pairs():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    labels = {p: find(p) for p in support}
    blocks = _blocks_from_labels(labels)
    return Parabolic(blocks, _covering_colors(s.cc, blocks))


def radical(s: Relation) -> Parabolic:
    """Largest equivalence e on the support of s with e.s = s.e = s.

    Two points are equivalent exactly when they have identical out- and
    in-neighborhoods in s.
    """
    m = s.matrix
    support = s.support()
    profile: dict[int, tuple[bytes, bytes]] = {
        p: (m[p].tobytes(), m[:, p].tobytes()) for p in support
    }
    keys = {prof: i for i, prof in enumerate(sorted(set(profile.values())))}
    labels = {p: keys[profile[p]] for p in support}
    blocks = _blocks_from_labels(labels)
    return Parabolic(blocks, _covering_colors(s.cc, blocks))


# -- quotients, restrictions, products ---------------------------------------


def quotient(cc: CoherentConfig, e: Parabolic) -> CoherentConfig:
    """Quotient configuration modulo a parabolic with full support."""
    if not e.is_full(cc.n):
        raise ValueError("quotient requires a parabolic with full support")
    if e.color_set is None or _covering_colors(cc, e.blocks) != e.color_set:
        raise ValueError("the given equivalence is not a relation of the configuration")
    block = np.empty(cc.n, dtype=np.int64)
    blocks = sorted(e.blocks, key=min)
    for i, blk in enumerate(blocks):
        block[list(blk)] = i
    k = len(blocks)
    # cell (i,j) -> set of colors meeting it; distinct sets become colors
    cell_sets: dict[tuple[int, int], frozenset[int]] = {}
    for i in range(k):
        rows = list(blocks[i])
        for j in range(k):
            cols = list(blocks[j])
            cell_sets[(i, j)] = frozenset(
                int(c) for c in np.unique(cc.colors[np.ix_(rows, cols)])
            )
    # each original color must project to a single quotient class
    seen: dict[int, frozenset[int]] = {}
    for cell, cs in cell_sets.items():
        for c in cs:
            if c in seen and seen[c] != cs:
                raise ValueError("equivalence classes do not project the colors consistently")
            seen[c] = cs
    ids = {cs: i for i, cs in enumerate(sorted(set(cell_sets.values()), key=sorted))}
    mat = np.empty((k, k), dtype=np.int64)
    for (i, j), cs in cell_sets.items():
        mat[i, j] = ids[cs]
    return CoherentConfig(mat)


def restriction(cc: CoherentConfig, points) -> CoherentConfig:
    """Restrict to a union of fibers or to a class of a parabolic.

    For any other point set the restricted coloring is generally not
    coherent; in that case a ValueError is raised.
    """
    pts = sorted(set(int(p) for p in points))
    if not pts:
        raise ValueError("empty restriction support")
    pset = set(pts)
    fiber_union = all(set(f) <= pset or not (set(f) & pset) for f in cc.fibers)
    sub = CoherentConfig(cc.colors[np.ix_(pts, pts)])
    if not fiber_union and not validate(sub).valid:
        raise ValueError("restriction support is not a homogeneity set or parabolic class")
    return sub


def tensor_product(cc1: CoherentConfig, cc2: CoherentConfig) -> CoherentConfig:
    """Product configuration on the lexicographic product of the point sets."""
    mat = (
        cc1.colors[:, None, :, None] * np.int64(cc2.rank) + cc2.colors[None, :, None, :]
    ).reshape(cc1.n * cc2.n, cc1.n * cc2.n)
    return CoherentConfig(mat)


def _individualise(colors: np.ndarray, x) -> np.ndarray:
    """The pair coloring colors refined by the tag of each end: 1 plus the
    first index at which the point occurs in x, 0 for points not in x."""
    x = [int(p) for p in x]
    tag = np.zeros(colors.shape[0], dtype=np.int64)
    for i, p in reversed(list(enumerate(x))):
        if not 0 <= p < len(tag):
            raise ValueError("extension point out of range")
        tag[p] = i + 1
    k = len(x) + 1
    return (colors * k + tag[:, None]) * k + tag[None, :]


def point_extension(cc: CoherentConfig, x) -> CoherentConfig:
    """Smallest coherent refinement of cc in which every point of x is a
    singleton fiber.  Depends only on the set of entries of x."""
    [stable], _ = close_pairs(_individualise(cc.colors, x))
    return CoherentConfig(stable)
