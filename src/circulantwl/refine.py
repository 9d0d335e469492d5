"""Vectorized Weisfeiler-Leman refinement: one lockstep engine and one
Las Vegas pair closure.

Everything here works on integer color arrays and knows nothing about
coherent configurations; the wrapping modules interpret the results.
``_refine`` refines k >= 1 colorings in lockstep through one shared color
dictionary (k = 1 is plain refinement); pair (2-dim), row-0 (2-dim on a
translation-invariant coloring), m-tuple and x0 = 0 m-tuple (m-ary on a
translation-invariant coloring) refinement differ only in the round
function that builds each round's signature rows.  The color ids of these
rounds are assigned by sorted signature order (``_renumber_rows``, which
packs each row into as few int64 keys as its entries allow and ranks the
keys by counting or by one sort), so their output is deterministic and
independent of the input numbering; the row-0 and x0 = 0 rounds see the
same distinct rows as their dense forms, so they produce the dense ids.
Row-0 refinement closes a stack of rows at once, each as if alone.

``close_pairs`` is the exception: a single-sided 2-dim closure whose rounds
key each pair by random bilinear hashes of its signature and whose fixpoint
is confirmed by one exact round.  It returns the same partition as
``refine_pairs`` with arbitrary ids, for callers that canonicalize.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

DEFAULT_TUPLE_CAP = 10**8
# a single packed key spanning less than this many times the row count is
# ranked by counting, in time linear in rows plus range; against one argsort
# of 2,000 to 131,072 keys it is 1.2-1.3x faster at 4 times, 1.4-3x slower at 8
COUNTING_RANGE = 4
# entries of one row-0 round table; a stack of rows is closed in chunks of
# at most this many, since larger tables pack worse and cost more memory
STACK_ENTRIES = 2**16


class CapExceededError(Exception):
    """A request was refused because it would exceed a size or search cap."""


class InvariantError(AssertionError):
    """An internal invariant failed; raised explicitly so that it also fires
    under ``python -O``, where ``assert`` statements are removed."""


def _renumber_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Contiguous ids of the rows of a 2-D integer array in ascending
    lexicographic order, and their count: the inverse and count of
    ``np.unique(rows, axis=0)``.

    With the minimum shifted out, every entry fits in ``bits`` bits, so
    63 // bits columns pack into one int64 key, most significant column
    first; key order is then row order.  Entries too wide to share a key
    keep one column each.  A single key whose range is less than
    ``COUNTING_RANGE`` times the row count is ranked by counting; otherwise
    the keys are sorted once (one key) or lexsorted.
    """
    count, width = rows.shape
    keys = rows
    if rows.size:  # an empty table has no minimum
        low = int(rows.min())
        bits = max((int(rows.max()) - low).bit_length(), 1)
        per = 63 // bits
        if per > 1:
            if low:
                rows = rows - low
            weights = np.left_shift(1, np.arange(per - 1, -1, -1, dtype=np.int64) * bits)
            keys = np.empty((count, -(-width // per)), dtype=np.int64)
            for j, a in enumerate(range(0, width, per)):
                block = rows[:, a : a + per]
                keys[:, j] = block @ weights[per - block.shape[1] :]
            if keys.shape[1] == 1 and (top := int(keys.max())) < COUNTING_RANGE * count:
                seen = np.cumsum(np.bincount(keys[:, 0], minlength=top + 1) > 0)
                return seen[keys[:, 0]] - 1, int(seen[-1])
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    srt = keys[order]
    new = np.ones(count, dtype=bool)
    np.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
    ids = np.empty(count, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, int(new.sum())


def normalize_colors(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber an arbitrary integer matrix to contiguous ids 0..rank-1."""
    flat = np.asarray(mat, dtype=np.int64).ravel()
    inv, rank = _renumber_rows(flat[:, None])
    return inv.reshape(mat.shape), rank


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """Stack the sides' arrays in order; a single side is returned uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _refine(
    inits: list[np.ndarray], round_rows: Callable[[list[np.ndarray], int], np.ndarray]
) -> tuple[list[np.ndarray], int] | None:
    """Refine k >= 1 equally sized flat colorings in lockstep to the fixpoint.

    ``round_rows(sides, rank)`` returns the next round's signature rows of
    all sides, stacked in side order.  Returns the stable colorings (with
    shared ids) and their common rank, or None as soon as two sides' color
    histograms differ: then no color correspondence compatible with the
    seeds exists.
    """
    ids, rank = _renumber_rows(_join(inits)[:, None])
    while True:
        sides = np.split(ids, len(inits))
        if len(sides) > 1:
            hist = np.bincount(sides[0], minlength=rank)
            if any(np.any(np.bincount(s, minlength=rank) != hist) for s in sides[1:]):
                return None
        ids, new_rank = _renumber_rows(round_rows(sides, rank))
        # an unchanged rank means an unchanged partition, and the rows lead
        # with the old color, so the old ids are already the canonical ones
        if new_rank == rank:
            return sides, rank
        rank = new_rank


def _check_pair_cap(n: int) -> None:
    """Refuse a pair round on n points, whose table holds n**3 entries."""
    if n**3 > DEFAULT_TUPLE_CAP:
        raise CapExceededError(f"refusing pair round of {n}**3 entries > cap {DEFAULT_TUPLE_CAP}")


def _pair_round_codes(mat: np.ndarray, rank: int) -> np.ndarray:
    """Per-pair sorted composition multisets: row (a,b) lists {(c(a,g),c(g,b)): g}."""
    n = mat.shape[0]
    _check_pair_cap(n)
    codes = mat[:, None, :] * np.int64(rank) + mat.T[None, :, :]
    codes.sort(axis=2)
    return np.concatenate([mat.reshape(n * n, 1), codes.reshape(n * n, n)], axis=1)


def refine_pairs(*inits: np.ndarray) -> tuple[list[np.ndarray], int] | None:
    """2-dim WL refinement of (n, n) pair colorings, in lockstep.

    Returns the stable matrices with shared canonical ids and their rank,
    or None when the sides differ in n or diverge.
    """
    n = inits[0].shape[0]
    if any(init.shape[0] != n for init in inits):
        return None

    def round_rows(sides, rank):
        return _join([_pair_round_codes(side.reshape(n, n), rank) for side in sides])

    res = _refine([np.asarray(init, np.int64).ravel() for init in inits], round_rows)
    if res is None:
        return None
    sides, rank = res
    return [side.reshape(n, n) for side in sides], rank


def _unstable_pairs(mat: np.ndarray, rank: int) -> np.ndarray:
    """Flat mask of the pairs whose exact pair-round row differs from that of
    the first pair of their color; no pair is marked exactly when ``mat`` is
    stable.  Compares the sorted codes of a few source rows at a time with
    those of each color's first pair, never a whole n**3 table."""
    n = mat.shape[0]
    _check_pair_cap(n)
    a0, b0 = np.divmod(np.unique(mat.ravel(), return_index=True)[1], n)
    ref = mat[a0] * np.int64(rank) + mat.T[b0]
    ref.sort(axis=1)
    out = np.empty((n, n), dtype=bool)
    step = max(1, 2**16 // n**2)
    for a in range(0, n, step):
        rows = mat[a : a + step]
        block = rows[:, None, :] * np.int64(rank) + mat.T[None, :, :]
        block.sort(axis=2)
        np.any(block != ref[rows], axis=2, out=out[a : a + step])
    return out.ravel()


def _hash_weights(rng: np.random.Generator, rank: int, n: int) -> np.ndarray:
    """(4, rank) float64 color weights u1, v1, u2, v2, each below
    sqrt(2**53 / n), so that a sum of n products of two is exact."""
    return rng.integers(1, math.isqrt((2**53 - 1) // n), size=(4, rank)).astype(np.float64)


def close_pairs(init: np.ndarray) -> tuple[np.ndarray, int]:
    """Stable 2-dim WL partition of one (n, n) pair coloring, and its rank.

    A hashed round keys pair (a, b) by its color and two sums
    sum_g u[c(a,g)] * v[c(g,b)], one n x n matmul each.  A sum depends only
    on the pair's exact row, so every split is genuine and the partition
    never gets finer than the closure.  When a hashed round does not split,
    the exact check confirms stability, or one exact round runs and hashing
    resumes.  The ids are arbitrary, not those of ``refine_pairs``.
    """
    mat, rank = normalize_colors(init)
    n = mat.shape[0]
    _check_pair_cap(n)
    rng = np.random.default_rng(0)
    while True:
        u1, v1, u2, v2 = weights = _hash_weights(rng, rank, n)
        top = int(np.abs(weights).max())
        if n * top * top >= 2**53:
            raise InvariantError(f"hash weight {top} makes sums of {n} products inexact")
        sums = [(u[mat] @ v[mat]).astype(np.int64).ravel() for u, v in ((u1, v1), (u2, v2))]
        ids, new_rank = _renumber_rows(np.stack([mat.ravel()] + sums, axis=1))
        # an unchanged rank leaves the partition and, leading with the
        # color, the ids unchanged
        if new_rank == rank:
            if not _unstable_pairs(mat, rank).any():
                return mat, rank
            ids, new_rank = _renumber_rows(_pair_round_codes(mat, rank))
        mat, rank = ids.reshape(n, n), new_rank


def refine_circulant(init_row: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """2-dim WL refinement of a translation-invariant pair coloring, given
    by its row 0 (the color of (a, b) is init_row[(b - a) mod n]), or of a
    (G, n) stack of such rows, each refined as if alone.

    Every round stays translation invariant, and the dense row of (a, b) is
    row d = b - a of the n rows [r(d), sorted {(r(h), r(d - h)) : h}], so
    the renumbering sees the same rows in the same order: the stable row and
    rank equal row 0 and rank of ``refine_pairs`` on the full matrix.  A
    stack returns its stable rows and their ranks; ``STACK_ENTRIES`` bounds
    the round table of each chunk it is refined in.
    """
    rows = np.asarray(init_row, dtype=np.int64)
    stack = rows.reshape(-1, rows.shape[-1])
    n = stack.shape[1]
    if n * (n + 1) > DEFAULT_TUPLE_CAP:
        raise CapExceededError(
            f"refusing row-0 round of {n}*{n + 1} entries > cap {DEFAULT_TUPLE_CAP}"
        )
    idx = np.arange(n, dtype=np.int64)
    minus = (idx[:, None] - idx[None, :]) % n  # minus[d, h] = d - h
    stable = np.empty_like(stack)
    ranks = np.empty(len(stack), dtype=np.int64)
    step = max(1, STACK_ENTRIES // (n * (n + 1)))
    for a in range(0, len(stack), step):
        stable[a : a + step], ranks[a : a + step] = _refine_row_stack(stack[a : a + step], minus)
    return (stable[0], int(ranks[0])) if rows.ndim == 1 else (stable, ranks)


def _refine_row_stack(stack: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine G rows 0 in one loop.  Each row's colors form one contiguous
    id range, ordered as its own, and its signature rows lead with its
    colors, so they sort as one block in the order they have alone: each
    row keeps the ids it gets alone, shifted by the colors of the rows
    before it, and the extra rounds that other rows need leave it stable."""
    count, n = stack.shape
    shifted = stack - stack.min(axis=1, keepdims=True)
    span = int(shifted.max()) + 1  # row g's colors start at g * span
    init = (shifted + np.arange(count, dtype=np.int64)[:, None] * span).ravel()
    table = np.empty((count, n, n + 1), dtype=np.int64)

    def round_rows(sides, rank):
        colors = sides[0].reshape(count, n)
        codes = table[:, :, 1:]
        codes[...] = colors[:, minus]
        codes += colors[:, None, :] * np.int64(rank)
        codes.sort(axis=2)
        table[:, :, 0] = colors
        return table.reshape(count * n, n + 1)

    [flat], _ = _refine([init], round_rows)
    colors = flat.reshape(count, n)
    low = colors.min(axis=1)
    return colors - low[:, None], colors.max(axis=1) - low + 1


def tuple_strides(n: int, m: int) -> list[int]:
    """Row-major strides: tuple (x_0..x_{m-1}) has flat index sum(x_i * n^(m-1-i))."""
    return [n ** (m - 1 - i) for i in range(m)]


def tuple_digits(n: int, m: int) -> np.ndarray:
    """(m, n^m) array: digits[i, t] is entry i of the tuple with flat index t."""
    idx = np.arange(n**m, dtype=np.int64)
    return np.stack([(idx // s) % n for s in tuple_strides(n, m)])


def _tuple_types(mats, digits: np.ndarray) -> list[np.ndarray]:
    m = len(digits)
    rows = [
        np.stack([mat[digits[i], digits[j]] for i in range(m) for j in range(m)], axis=1)
        for mat in mats
    ]
    inv, _ = _renumber_rows(_join(rows))
    return np.split(inv, len(mats))


def initial_tuple_colors(*mats: np.ndarray, m: int) -> list[np.ndarray]:
    """Atomic types of m-tuples: the full matrix of pair colors (c(x_i, x_j))_{i,j}.

    Diagonal colors encode equality of entries, so the index-equality
    pattern is part of the type.  Several point sets are encoded through
    one shared dictionary; the callers pre-map their colors so that
    corresponding pair colors carry equal integers.
    """
    return _tuple_types(mats, tuple_digits(mats[0].shape[0], m))


def _substitution_table(colors: np.ndarray, n: int, m: int) -> np.ndarray:
    """(N*n, m) rows: row (t, a) holds colors of x_{i<-a} for i = 0..m-1."""
    idx = np.arange(n**m, dtype=np.int64)
    alphas = np.arange(n, dtype=np.int64)
    out = np.empty((n**m, n, m), dtype=np.int64)
    for i, stride in enumerate(tuple_strides(n, m)):
        base = idx - ((idx // stride) % n) * stride
        out[:, :, i] = colors[base[:, None] + stride * alphas[None, :]]
    return out.reshape(n**m * n, m)


def _tuple_rounds(table: Callable[[np.ndarray], np.ndarray], n: int):
    """The m-ary round: a tuple's row is its color followed by the sorted ids
    of its n substitution rows, which ``table(colors)`` lists tuple by tuple."""

    def round_rows(sides, rank):
        codes, _ = _renumber_rows(_join([table(side) for side in sides]))
        per_alpha = np.sort(codes.reshape(-1, n), axis=1)
        return np.concatenate([_join(sides)[:, None], per_alpha], axis=1)

    return round_rows


def refine_tuples(*inits: np.ndarray, n: int, m: int) -> tuple[list[np.ndarray], int] | None:
    """m-ary WL refinement of flat colorings of Omega^m, in lockstep.

    Returns the stable colorings with shared ids and their rank, or None
    when the sides diverge.
    """
    return _refine(
        [np.asarray(init, np.int64) for init in inits],
        _tuple_rounds(lambda colors: _substitution_table(colors, n, m), n),
    )


def origin_tuple_index(digits, n: int) -> np.ndarray:
    """Index among the x0 = 0 tuples of the translate (0, x1 - x0, ...) of
    each tuple given by its digits: m rows, as from ``tuple_digits``, or m
    arrays that broadcast together."""
    strides = tuple_strides(n, len(digits))
    return sum(((digits[i] - digits[0]) % n) * strides[i] for i in range(1, len(digits)))


def refine_circulant_tuples(*mats: np.ndarray, m: int) -> tuple[list[np.ndarray], int] | None:
    """m-ary WL refinement of translation-invariant (n, n) pair colorings on
    the n^(m-1) tuples (0, x1, ..., x_{m-1}), in lockstep.

    Translations fix every color, so tuple x has the color of entry
    ``origin_tuple_index`` of x.  A substitution at slot i >= 1 keeps
    x0 = 0, and one of a at slot 0 is read on (0, x1 - a, ..., x_{m-1} - a).
    Each dense row equals the row of its translate, so the renumbering sees
    the same distinct rows in the same order: the ids and rank are those of
    ``refine_tuples`` on the dense tables, and every histogram is 1/n of
    the dense one, so the sides diverge in the same round.  Like the dense
    round, each round gathers its n^m * m substitution table one slot (n^m
    entries) at a time; only the x0 = 0 tuples' digits are kept.
    """
    n = mats[0].shape[0]
    count = n ** (m - 1)
    digits = tuple_digits(n, m - 1)  # x1, ..., x_{m-1} of the x0 = 0 tuples
    strides = tuple_strides(n, m)
    alphas = np.arange(n, dtype=np.int64)
    # slot0[t, a] indexes the translate of (a, x1, ...), for t the index of (0, x1, ...)
    slot0 = origin_tuple_index([alphas[None, :], *digits[:, :, None]], n)
    # substituting a at slot i >= 1 sends t to bases[i - 1][t] + a * stride_i
    bases = [np.arange(count) - digits[i - 1] * strides[i] for i in range(1, m)]

    def table(colors):
        out = np.empty((count, n, m), dtype=np.int64)
        out[:, :, 0] = colors[slot0]
        for i in range(1, m):
            out[:, :, i] = colors[bases[i - 1][:, None] + strides[i] * alphas[None, :]]
        return out.reshape(count * n, m)

    inits = _tuple_types(mats, [np.zeros(count, dtype=np.int64), *digits])
    return _refine(inits, _tuple_rounds(table, n))
