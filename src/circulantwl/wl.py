"""WL closures of graphs, m-ary refinement, and the pebble-game oracle.

The m-ary refinement colors all m-tuples of points, starting from atomic
types (the matrix of pairwise colors, which also encodes the equality
pattern) and refining by the multiset of colors of one-point substitutions.
Equivalence of two configurations with respect to a color bijection is
decided by running both refinements in lockstep through a shared color
dictionary and comparing histograms each round, except for a bijection
that a point map known in advance induces (``algebra._induced_by_known_map``).
The lockstep rounds are hashed (``refine.close_tuples``) and their
fixpoint is certified by one exact round; a single refinement keeps the
exact rounds (``refine.refine_tuples``), whose ids are independent of the
input numbering.  Both run on the x0 = 0 tuples when every side is
translation invariant.

The pebble-game oracle is an independent implementation of the same
equivalence for tiny instances: an exact greatest-fixpoint computation of
the winning configurations of the bijective (m+1)-pebble game.  It is
deliberately kept free of the refinement machinery so the two can be
cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import _induced_by_known_map
from .circulant import close_labels
from .core import CoherentConfig, _row, is_translation_invariant
from .refine import (
    DEFAULT_TUPLE_CAP,
    CapExceededError,
    InvariantError,
    _check_substitution_table,
    _refine,
    _substitution_table,
    _tuple_rounds,
    close_pairs,
    close_tuples,
    origin_tuple_index,
    refine_tuples,
    tuple_digits,
    tuple_strides,
)

DEFAULT_ORACLE_POINT_CAP = 8
DEFAULT_ORACLE_PEBBLE_CAP = 3


# -- 2-dim closure -------------------------------------------------------------


def wl_closure(arc_colors: np.ndarray) -> CoherentConfig:
    """Smallest coherent configuration refining an arc coloring of a digraph.

    ``arc_colors`` is any square integer matrix (e.g. 0/1 adjacency); loops
    are permitted.  The diagonal is split off before refinement.  A
    translation-invariant coloring is closed on its row 0 alone
    (``close_labels``), and that row, ranked by least difference, is
    already in the canonical numbering; any other is closed by the pair
    closure ``close_pairs``, exact but with arbitrary ids, which the
    canonical numbering of ``CoherentConfig`` makes immaterial.
    """
    arcs = np.asarray(arc_colors, dtype=np.int64)
    if arcs.ndim != 2 or arcs.shape[0] != arcs.shape[1]:
        raise ValueError("arc color matrix must be square")
    if is_translation_invariant(arcs):
        return close_labels(arcs[0])[0].cc
    init = arcs * 2
    init[np.diag_indices(arcs.shape[0])] += 1
    [stable], _ = close_pairs(init)
    return CoherentConfig(stable)


# -- m-ary configurations ------------------------------------------------------


@dataclass(frozen=True)
class MAryConfig:
    """A stable coloring of Omega^m, stored as a flat row-major array."""

    m: int
    n: int
    color_of: np.ndarray
    rank: int


def wl_m_refine(cc: CoherentConfig, m: int, cap: int = DEFAULT_TUPLE_CAP) -> MAryConfig:
    """Stable m-ary refinement of a coherent configuration, m >= 2."""
    if m < 2:
        raise ValueError("m-ary refinement needs m >= 2")
    origin = _row(cc) is not None
    _check_substitution_table(cc.n, m, cap, origin)
    [colors], rank = refine_tuples(cc.colors, m=m, origin=origin)
    if origin:  # a translate of x has the color of x
        # entry (a, t) is the tuple (a, x1, ...), for t the index of (0, x1, ...)
        low = tuple_digits(cc.n, m - 1)[:, None, :]
        colors = colors[origin_tuple_index([np.arange(cc.n)[:, None], *low], cc.n)].ravel()
    return MAryConfig(m=m, n=cc.n, color_of=colors, rank=rank)


def projection(mc: MAryConfig, k: int) -> MAryConfig:
    """The k-ary configuration of prefixes of the m-tuple classes."""
    if not 1 <= k <= mc.m:
        raise ValueError("projection arity out of range")
    if k == mc.m:
        return mc
    n = mc.n
    tail = n ** (mc.m - k)
    grouped = mc.color_of.reshape(n**k, tail)
    # prefix class = set of m-colors above the prefix; distinct sets are colors
    sets = [frozenset(int(c) for c in np.unique(row)) for row in grouped]
    ids: dict[frozenset, int] = {}
    seen_color: dict[int, frozenset] = {}
    for s in sets:
        for c in s:
            prev = seen_color.setdefault(c, s)
            if prev != s:
                raise InvariantError("projection classes do not form a partition")
        ids.setdefault(s, len(ids))
    colors = np.array([ids[s] for s in sets], dtype=np.int64)
    return MAryConfig(m=k, n=n, color_of=colors, rank=len(ids))


def validate_m_ary(mc: MAryConfig) -> bool:
    """Check the m-ary coherence conditions directly (small instances only).

    Conditions: constant equality pattern per class, closure of the class
    partition under index substitutions, and constant substitution-count
    vectors per class (checked as stability under one refinement round).
    """
    n, m = mc.n, mc.m
    _check_substitution_table(n, m, DEFAULT_TUPLE_CAP)  # of the dense round below
    digits = tuple_digits(n, m)
    colors = mc.color_of
    # equality pattern constant per class
    pattern = np.zeros(n**m, dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            pattern = pattern * 2 + (digits[i] == digits[j])
    for c in range(mc.rank):
        if len(np.unique(pattern[colors == c])) > 1:
            return False
    # closure under all index substitutions sigma: M -> M
    strides = tuple_strides(n, m)
    for sigma in product(range(m), repeat=m):
        mapped = sum(digits[sigma[i]] * strides[i] for i in range(m))
        img = colors[mapped]
        for c in range(mc.rank):
            if len(np.unique(img[colors == c])) > 1:
                return False
    # stability: one more refinement round must not split
    _, rank = _refine([colors], _tuple_rounds(lambda c: _substitution_table(c, n, m), n))
    return rank == mc.rank


# -- WL_m equivalence ----------------------------------------------------------


def _color_permutation(color_map, rank: int) -> np.ndarray:
    cmap = np.asarray(list(color_map), dtype=np.int64)
    if not np.array_equal(np.sort(cmap), np.arange(rank)):
        raise ValueError(f"color map {cmap.tolist()} is not a permutation of range({rank})")
    return cmap


def wl_m_equivalent(
    cc_a: CoherentConfig,
    cc_b: CoherentConfig,
    color_map,
    m: int,
    cap: int = DEFAULT_TUPLE_CAP,
) -> bool:
    """Whether the m-dim WL refinements of the two configurations admit a
    color correspondence whose binary projection is the given color map.

    ``color_map`` sends color ids of ``cc_a`` to color ids of ``cc_b``.  It
    must be a permutation (ValueError otherwise) and an algebraic
    isomorphism (this is not re-checked here).  Past the cap check, a map
    that a known point map induces is equivalent at once (proof in the README).
    """
    if m < 2:
        raise ValueError("WL_m equivalence needs m >= 2")
    if cc_a.n != cc_b.n or cc_a.rank != cc_b.rank:
        return False
    cmap = _color_permutation(color_map, cc_a.rank)
    origin = _row(cc_a) is not None and _row(cc_b) is not None
    _check_substitution_table(cc_a.n, m, cap, origin)
    if _induced_by_known_map(cc_a, cc_b, cmap):
        return True
    inverse = np.argsort(cmap)
    return close_tuples(cc_a.colors, inverse[cc_b.colors], m=m, origin=origin) is not None


# -- the bijective pebble game ---------------------------------------------------


def _has_perfect_matching(rows: tuple[int, ...], n: int, memo: dict) -> bool:
    """Perfect matching on a bipartite graph given as per-left-vertex bitmasks."""
    res = memo.get(rows)
    if res is not None:
        return res
    if any(r == 0 for r in rows):
        memo[rows] = False
        return False
    match_right = [-1] * n

    def augment(u: int, visited: list[int]) -> bool:
        free = rows[u] & ~visited[0]
        while free:
            v = (free & -free).bit_length() - 1
            free &= free - 1
            visited[0] |= 1 << v
            if match_right[v] == -1 or augment(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    ok = all(augment(u, [0]) for u in range(n))
    memo[rows] = ok
    return ok


def _consistency(
    cc_a: CoherentConfig, cc_b: CoherentConfig, cmap: np.ndarray, k: int
) -> np.ndarray:
    """(n^k, n^k) bool: the pebbled partial map is a local phi-isomorphism."""
    n = cc_a.n
    if k == 0:
        return np.ones((1, 1), dtype=bool)
    da = tuple_digits(n, k)
    rows_a = np.stack(
        [cmap[cc_a.colors[da[p], da[q]]] for p in range(k) for q in range(k)], axis=1
    )
    rows_b = np.stack(
        [cc_b.colors[da[p], da[q]] for p in range(k) for q in range(k)], axis=1
    )
    uniq, inv = np.unique(np.concatenate([rows_a, rows_b]), axis=0, return_inverse=True)
    code_a, code_b = inv[: n**k], inv[n**k :]
    return code_a[:, None] == code_b[None, :]


def _matching_table(win: np.ndarray, n: int, k: int, memo: dict) -> np.ndarray:
    """(n^k, n^k) bool: reduced configs from which a bijection response exists,
    judged against the winning (k+1)-configs ``win``."""
    blocks = win.reshape(n**k, n, n**k, n).transpose(0, 2, 1, 3)
    weights = 1 << np.arange(n, dtype=np.int64)
    masks = (blocks.astype(np.int64) * weights).sum(axis=3)
    out = np.zeros((n**k, n**k), dtype=bool)
    candidates = np.nonzero(masks.all(axis=2))
    for y, y2 in zip(*candidates):
        out[y, y2] = _has_perfect_matching(tuple(int(v) for v in masks[y, y2]), n, memo)
    return out


def _removal_maps(n: int, k: int) -> list[np.ndarray]:
    """For each slot p, the map from k-tuple index to (k-1)-tuple index."""
    digits = tuple_digits(n, k)
    strides = tuple_strides(n, k - 1)
    maps = []
    for p in range(k):
        keep = [i for i in range(k) if i != p]
        maps.append(sum(digits[i] * s for i, s in zip(keep, strides)))
    return maps


@dataclass(frozen=True)
class GameTable:
    """Winning initial configurations of the bijective pebble game.

    ``levels[k]`` marks the winning pairs of k-tuples, k = 0..m; the game
    itself is played with m+1 pebble pairs.
    """

    m: int
    n: int
    levels: tuple[np.ndarray, ...]

    @property
    def table(self) -> np.ndarray:
        return self.levels[self.m]

    @property
    def full_support(self) -> bool:
        t = self.table
        return bool(t.any(axis=1).all() and t.any(axis=0).all())

    def winning_at(self, k: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
        digits = tuple_digits(self.n, k) if k else np.zeros((0, 1), dtype=np.int64)
        out = set()
        for i, j in zip(*np.nonzero(self.levels[k])):
            x = tuple(int(digits[p, i]) for p in range(k))
            y = tuple(int(digits[p, j]) for p in range(k))
            out.add((x, y))
        return out

    @property
    def winning(self) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
        out: set = set()
        for k in range(self.m + 1):
            out |= self.winning_at(k)
        return out


def pebble_game_oracle(
    cc_a: CoherentConfig,
    cc_b: CoherentConfig,
    color_map,
    m: int,
    point_cap: int = DEFAULT_ORACLE_POINT_CAP,
    pebble_cap: int = DEFAULT_ORACLE_PEBBLE_CAP,
) -> GameTable:
    """Exact winning table of the bijective game with m+1 pebble pairs.

    A configuration survives the greatest fixpoint iff it is locally
    consistent and, for every pebble Spoiler may move, some point bijection
    keeps all successor configurations winning (a perfect-matching test on
    the compatibility graph).
    """
    n = cc_a.n
    if cc_b.n != n:
        raise ValueError("point sets must have equal size")
    if cc_b.rank != cc_a.rank:
        raise ValueError("configurations must have equal rank")
    cmap = _color_permutation(color_map, cc_a.rank)
    if n > point_cap:
        raise CapExceededError(f"oracle point cap {point_cap} exceeded (n={n})")
    if m > pebble_cap:
        raise CapExceededError(f"oracle pebble cap {pebble_cap} exceeded (m={m})")
    full = m + 1
    memo: dict = {}

    win = _consistency(cc_a, cc_b, cmap, full)
    removals = _removal_maps(n, full)
    while True:
        match = _matching_table(win, n, m, memo)
        new = win.copy()
        for rem in removals:
            new &= match[rem[:, None], rem[None, :]]
        if np.array_equal(new, win):
            break
        win = new
        memo.clear()

    levels: list[np.ndarray] = [np.empty(0)] * (m + 1)
    upper = win
    for k in range(m, -1, -1):
        feasible = _matching_table(upper, n, k, memo)
        levels[k] = _consistency(cc_a, cc_b, cmap, k) & feasible
        upper = levels[k]
    if cc_a == cc_b and all(c == i for i, c in enumerate(cmap)):
        # swapping the two sides inverts the map, so the identity table
        # must be symmetric
        if not all(np.array_equal(lv, lv.T) for lv in levels):
            raise InvariantError("identity game table is not symmetric")
    return GameTable(m=m, n=n, levels=tuple(levels))
