"""Vectorized Weisfeiler-Leman refinement: one lockstep engine.

Everything here works on integer color arrays and knows nothing about
coherent configurations; the wrapping modules interpret the results.
``_refine`` refines k >= 1 colorings in lockstep through one shared color
dictionary (k = 1 is plain refinement); hashed pair (2-dim), row-0 (2-dim
on a translation-invariant coloring), exact m-tuple and hashed m-tuple
(m-ary in lockstep) refinement differ only in the round function that
builds each round's signature rows.  Each round's ids are assigned by
sorted row order (``_renumber_rows``, which packs each row into as few
int64 keys as its entries allow and ranks the keys by counting or by one
sort).  Row-0 refinement closes a stack of rows at once, each as if alone.

The row-0 and exact m-tuple rows are exact signatures, so those ids are
independent of the input numbering.  Both m-tuple engines run on one
layout, ``_tuple_layout``: the dense m-tuples, or the x0 = 0 ones of
translation-invariant colorings.  The row-0 and x0 = 0 rounds see the
same distinct rows as their dense forms, so they produce the dense ids.

The pair closure ``close_pairs`` and the m-ary lockstep ``close_tuples``
key each pair or tuple by its color above a hash of its signature, so
their ids are arbitrary, for callers that canonicalize or only ask for
the verdict.  Where ``_refine`` stops, an exact comparison with each
color's first pair or tuple certifies the fixpoint (``_unstable_pairs``,
``_unstable_tuples``).  A pair partition that fails takes one joint exact
round; a tuple class that fails is split by the comparison itself.
Either way refining resumes.  The lockstep streams its tables: each
hashed round and the certification build one chunk of tuples at a time.
"""

from __future__ import annotations

import math
import random
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
# odd 64-bit multiplier (2**64 over the golden ratio) that mixes the two
# exact sums of a hashed pair round into the hash bits of one key
HASH_MIX = np.uint64(0x9E3779B97F4A7C15)


class CapExceededError(Exception):
    """A request was refused because it would exceed a size or search cap."""


class InvariantError(AssertionError):
    """An internal invariant failed; raised explicitly so that it also fires
    under ``python -O``, where ``assert`` statements are removed."""


def _pack_rows(rows: np.ndarray, low: int, bits: int) -> np.ndarray:
    """(count, keys) int64 keys of the rows of a 2-D integer array whose
    entries lie in [low, low + 2**bits): 63 // bits entries to a key, most
    significant first, so that comparing keys in order compares rows."""
    per = 63 // bits
    if low:
        rows = rows - low
    weights = np.left_shift(1, np.arange(per - 1, -1, -1, dtype=np.int64) * bits)
    keys = np.empty((len(rows), -(-rows.shape[1] // per)), dtype=np.int64)
    for j, a in enumerate(range(0, rows.shape[1], per)):
        block = rows[:, a : a + per]
        keys[:, j] = block @ weights[per - block.shape[1] :]
    return keys


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
        if 63 // bits > 1:
            keys = _pack_rows(rows, low, bits)
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


def _code_dtype(rank: int) -> type:
    """The narrowest signed integer type that holds every composition code
    c * rank + c' < rank**2: int16 up to rank 181, int32 up to 46,340."""
    for dtype in (np.int16, np.int32):
        if rank * rank - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _first_occurrences(flat: np.ndarray, rank: int) -> np.ndarray:
    """The first index in ``flat`` of each color 0..rank-1 (len(flat) for a
    color that does not occur): one minimum per entry, not a sort."""
    first = np.full(rank, len(flat), dtype=np.int64)
    np.minimum.at(first, flat, np.arange(len(flat)))
    return first


def _unstable_pairs(mat: np.ndarray, rank: int, ref: np.ndarray | None = None) -> np.ndarray:
    """Flat mask of the pairs whose exact pair-round row differs from that of
    the first pair of their color in ``ref``, a matrix with the same ids in
    which every color occurs (by default ``mat`` itself: then no pair is
    marked exactly when ``mat`` is stable).  Compares the sorted codes of a
    few source rows at a time with those of each color's first pair, never
    a whole n**3 table.  The codes take the narrowest type that holds them
    and are read from a contiguous copy of the transpose, since sorting is
    most of the cost."""
    n = mat.shape[0]
    _check_pair_cap(n)
    dtype = _code_dtype(rank)
    ref = mat if ref is None else ref
    a0, b0 = np.divmod(_first_occurrences(ref.ravel(), rank), n)
    first = ref[a0].astype(dtype) * dtype(rank) + ref[:, b0].T.astype(dtype)
    first.sort(axis=1)
    left = mat.astype(dtype) * dtype(rank)  # left[a, g] = c(a, g) * rank
    right = np.ascontiguousarray(mat.T, dtype=dtype)  # right[b, g] = c(g, b)
    out = np.empty((n, n), dtype=bool)
    step = max(1, 2**16 // n**2)
    for a in range(0, n, step):
        block = left[a : a + step, None, :] + right[None, :, :]
        block.sort(axis=2)
        np.any(block != first[mat[a : a + step]], axis=2, out=out[a : a + step])
    return out.ravel()


def _hash_weights(rng: random.Random, rank: int, n: int) -> np.ndarray:
    """(4, rank) float64 color weights u1, v1, u2, v2, each from 1 to below
    sqrt(2**53 / n), so that a sum of n products of two is exact.  The bytes
    come from the standard library, as importing ``numpy.random`` costs a
    process about 6 MB."""
    raw = np.frombuffer(rng.randbytes(32 * rank), dtype=np.uint64).reshape(4, rank)
    top = np.uint64(math.isqrt((2**53 - 1) // n) - 1)
    return (raw % top + np.uint64(1)).astype(np.float64)


def _hash_bits(rank: int) -> int:
    """Bits of a 63-bit round key left below a color id under ``rank``."""
    bits = 63 - (rank - 1).bit_length()
    if bits < 1:
        raise InvariantError(f"rank {rank} leaves no hash bits in a 63-bit key")
    return bits


def _pack_keys(colors: np.ndarray, mix: np.ndarray, bits: int) -> np.ndarray:
    """Flat int64 keys of a hashed round: each color, shifted up by
    ``bits``, over the top ``bits`` bits of its uint64 mix."""
    top = mix.ravel() >> np.uint64(64 - bits)
    return ((colors.ravel().astype(np.uint64) << np.uint64(bits)) | top).view(np.int64)


def _round_keys(mat: np.ndarray, s1: np.ndarray, s2: np.ndarray, bits: int) -> np.ndarray:
    """The keys of a hashed pair round: each pair's color over the mix
    (s1 * HASH_MIX + s2) mod 2**64 of its two exact sums."""
    return _pack_keys(mat, s1.astype(np.uint64) * HASH_MIX + s2.astype(np.uint64), bits)


def close_pairs(*inits: np.ndarray) -> tuple[list[np.ndarray], int] | None:
    """2-dim WL closure of (n, n) pair colorings, in lockstep: the stable
    matrices with shared, arbitrary ids and their rank, or None when the
    sides differ in n or their color histograms diverge.

    Each round is hashed: pair (a, b) gets one int64 key, its color above a
    mix of two exact sums sum_g u[c(a,g)] * v[c(g,b)], one n x n matmul
    each, with the same weights on every side.  A key depends only on the
    color and the exact row in the shared ids, so every split is a true WL
    split.  Where ``_refine`` stops, every side is checked against the
    exact rows of side 0's first pairs (each color occurs there, as the
    histograms agree), which certifies the joint closure; a failed check
    costs one joint exact round, and refining resumes.
    """
    n = inits[0].shape[0]
    if any(init.shape[0] != n for init in inits):
        return None
    _check_pair_cap(n)
    rng = random.Random(0)

    def round_rows(sides, rank):
        bits = _hash_bits(rank)
        u1, v1, u2, v2 = weights = _hash_weights(rng, rank, n)
        top = int(np.abs(weights).max())
        if n * top * top >= 2**53:
            raise InvariantError(f"hash weight {top} makes sums of {n} products inexact")
        mats = [side.reshape(n, n) for side in sides]
        return _join([_round_keys(m, u1[m] @ v1[m], u2[m] @ v2[m], bits) for m in mats])[:, None]

    flats = [np.asarray(init, np.int64).ravel() for init in inits]
    while (res := _refine(flats, round_rows)) is not None:
        mats, rank = [side.reshape(n, n) for side in res[0]], res[1]
        if not any(_unstable_pairs(mat, rank, mats[0]).any() for mat in mats):
            return mats, rank
        ids, _ = _renumber_rows(_join([_pair_round_codes(mat, rank) for mat in mats]))
        flats = np.split(ids, len(mats))
    return None


def refine_circulant(init_row: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """2-dim WL refinement of a translation-invariant pair coloring, given
    by its row 0 (the color of (a, b) is init_row[(b - a) mod n]), or of a
    (G, n) stack of such rows, each refined as if alone.

    Every round stays translation invariant, and the dense row of (a, b) is
    row d = b - a of the n rows [r(d), sorted {(r(h), r(d - h)) : h}], so
    the renumbering sees the same rows in the same order: the stable row and
    rank equal row 0 and rank of exact dense pair rounds on the full matrix.
    A stack returns its stable rows and their ranks; ``STACK_ENTRIES``
    bounds the round table of each chunk it is refined in.
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


def _check_substitution_table(n: int, m: int, cap: int, origin: bool = False) -> None:
    """Refuse an m-ary round whose substitution table would hold more than
    ``cap`` entries per side: n^(m+1) * m on the dense path, n^m * m on the
    x0 = 0 path.  The exact rounds build that table whole; the lockstep
    streams it, so there the cap bounds a round's work."""
    power = m if origin else m + 1
    if n**power * m > cap:
        which = " (tuples with x0 = 0)" if origin else ""
        raise CapExceededError(
            f"refusing {m}-tuple substitution table of {n}**{power}*{m} entries{which} > cap {cap}"
        )


def tuple_strides(n: int, m: int) -> list[int]:
    """Row-major strides: tuple (x_0..x_{m-1}) has flat index sum(x_i * n^(m-1-i))."""
    return [n ** (m - 1 - i) for i in range(m)]


def _place(n: int, m: int) -> np.ndarray:
    """``tuple_strides`` as an (m, 1) array."""
    return np.array(tuple_strides(n, m), dtype=np.int64).reshape(m, 1)


def _digits(idx: np.ndarray, n: int, m: int) -> np.ndarray:
    """(m, len(idx)) array: the m base-n digits of each flat index."""
    return idx // _place(n, m) % n


def tuple_digits(n: int, m: int) -> np.ndarray:
    """(m, n^m) array: digits[i, t] is entry i of the tuple with flat index t."""
    return _digits(np.arange(n**m, dtype=np.int64), n, m)


def origin_tuple_index(digits, n: int) -> np.ndarray:
    """Index among the x0 = 0 tuples of the translate (0, x1 - x0, ...) of
    each tuple given by its digits: m rows, as from ``tuple_digits``, or m
    arrays that broadcast together."""
    strides = tuple_strides(n, len(digits))
    return sum(((digits[i] - digits[0]) % n) * strides[i] for i in range(1, len(digits)))


def _substituted(colors: np.ndarray, n: int, stride: int) -> np.ndarray:
    """One slot's (len(colors), n) substitution column, as a view of
    ``colors`` that broadcasts onto the column reshaped to (-1, n, stride,
    n): entry (t, a) is the color of tuple t (a flat index) with its digit
    of place value ``stride`` replaced by a.  That color does not depend on
    the digit replaced, so it needs no copy and no index array."""
    return colors.reshape(-1, n, stride).transpose(0, 2, 1)[:, None]


def _substitution_table(colors: np.ndarray, n: int, m: int) -> np.ndarray:
    """(N*n, m) rows: row (t, a) holds colors of x_{i<-a} for i = 0..m-1,
    where the N tuples are blocks of n^m (one for a whole table), each
    substituted in its own m digits.  Given an (m, N) stack, slot i reads
    row i.  The table is stored slot by slot, so that each slot's column is
    one contiguous array."""
    slots = colors if np.ndim(colors) == 2 else np.broadcast_to(colors, (m, len(colors)))
    out = np.empty((m, slots.shape[1], n), dtype=slots.dtype)
    for i in range(m):
        stride = n ** (m - 1 - i)
        out[i].reshape(-1, n, stride, n)[...] = _substituted(slots[i], n, stride)
    return out.reshape(m, slots.shape[1] * n).T


def _tuple_layout(mats, m: int, origin: bool):
    """The initial types of the m-tuples of (n, n) pair colorings, the
    builder of their substitution rows, and the chunks that cover them.

    A type is the matrix of pair colors (c(x_i, x_j))_{i,j}, whose diagonal
    encodes the equality pattern, numbered in one dictionary for all sides
    (callers pre-map corresponding colors to equal integers) in the order
    of its rows, which are packed into int64 keys a chunk at a time.  With
    ``origin`` (every coloring translation invariant) only the tuples
    (0, x1, ..., x_{m-1}) are laid out: tuple x has the color of entry
    ``origin_tuple_index`` of x.  On either layout slot i >= origin
    substitutes the digit of place value n^(m-1-i), and slot 0 of the
    x0 = 0 layout reads (a, x1, ...) on (0, x1 - a, ..., x_{m-1} - a).

    One builder, ``columns(stack, prefixes, j)``, yields each slot's
    substitution column for the blocks of n^j tuples whose leading digits
    read ``prefixes``, with slot i reading row i of the (m, N) ``stack``:
    for each such tuple t and each a, stack[i][c(t_{i<-a})].  A trailing
    slot substitutes inside its block, a leading one reads the block whose
    prefix has that digit replaced.  ``sums(stack, prefixes, j)`` adds the
    columns up; ``table(colors)`` lays out the one whole block's columns as
    ``_substitution_table``, which it is on the dense path.  Each chunk is
    (prefixes, j, span), a run of whole blocks covering the tuples
    ``span``, with j as large as lets a chunk's table hold at most
    ``STACK_ENTRIES`` entries.
    """
    n = mats[0].shape[0]
    width = m - origin  # the digits of a tuple's index
    count = n**width
    j = width
    while j and n ** (j + 1) * m > STACK_ENTRIES:
        j -= 1
    block, blocks = n**j, n ** (width - j)
    step = max(1, STACK_ENTRIES // (n ** (j + 1) * m))
    chunks = [
        (np.arange(p, min(p + step, blocks)), j, slice(p * block, min(p + step, blocks) * block))
        for p in range(0, blocks, step)
    ]
    alphas, fixed = np.arange(n, dtype=np.int64), {}

    def translated(digits):
        """(g, n): for g tuples' k given digits and each a, those digits'
        part of the index of the translate (0, x1 - a, ...) that slot 0 of
        the x0 = 0 layout reads."""
        part = origin_tuple_index([alphas, *digits[:, :, None]], n)
        return np.zeros((digits.shape[1], n), dtype=np.int64) + part

    def columns(stack, prefixes, j):
        block, lead = n**j, width - j
        # the leading digits' place values and slot 0's in-block part, kept
        # for chunks but not for a whole table, where it is one slot's worth
        values, inside = fixed.get(j) or (_place(n, lead), origin and translated(_digits(np.arange(block), n, j)))
        if block * n <= STACK_ENTRIES:
            fixed[j] = values, inside
        digits = prefixes // values % n
        own = stack[m - j :]  # the blocks' own values, which slots m-j..m-1 read
        if lead:
            own = own.reshape(j, count // block, block)[:, prefixes].reshape(j, len(prefixes) * block)
        if origin:  # slot 0 reads translates; slots m-j.. are in-block digits, not the dense table
            yield 0, stack[0][inside + translated(digits)[:, None, :] * block if lead else inside]
            for r in range(j):
                stride = n ** (j - 1 - r)
                view = _substituted(own[r], n, stride)
                yield m - j + r, np.broadcast_to(view, (len(view), n, stride, n))
        elif j:
            yield from zip(range(m - j, m), _substitution_table(own, n, j).T)
        if lead:  # slots origin..m-j-1 read the blocks with that digit of the prefix replaced
            rows = prefixes[:, None] + (alphas - digits[:, :, None]) * values[:, :, None]
            slots = np.arange(lead)[:, None, None]
            read = stack[origin : m - j].reshape(lead, -1, block)[slots, rows]
            yield from zip(range(origin, m - j), read.transpose(0, 1, 3, 2))

    # a column is an array or broadcast view whose entries in C order are
    # the column's; the first is a new array, which sums adds into, unless
    # every slot leads, and then it is copied
    def sums(stack, prefixes, j):
        parts = columns(stack, prefixes, j)
        out = np.ascontiguousarray(next(parts)[1])
        for _, part in parts:
            view = out.reshape(part.shape)
            view += part
        return out.reshape(-1)

    def table(colors):
        if not origin:  # one array already; its columns would be copied
            return _substitution_table(colors, n, m)
        out = np.empty((m, count * n), dtype=colors.dtype)
        for i, part in columns(np.broadcast_to(colors, (m, count)), np.zeros(1, dtype=np.int64), width):
            out[i].reshape(part.shape)[...] = part
        return out.T

    low = min(int(mat.min()) for mat in mats)
    bits = max((max(int(mat.max()) for mat in mats) - low).bit_length(), 1)
    flats = [np.ascontiguousarray(mat).ravel() for mat in mats]
    keys = np.empty((len(mats), count, -(-m * m // (63 // bits))), dtype=np.int64)
    for _, _, span in chunks:
        x = _digits(np.arange(span.start, span.stop, dtype=np.int64), n, width)
        if origin:
            x = np.concatenate([np.zeros_like(x[:1]), x])
        cells = (x[:, None] * n + x[None]).reshape(m * m, -1).T  # pair (x_a, x_b) at column a*m + b
        for side, flat in zip(keys, flats):
            side[span] = _pack_rows(flat[cells], low, bits)
    inits, _ = _renumber_rows(keys.reshape(-1, keys.shape[2]))
    return np.split(inits, len(mats)), table, sums, chunks


def _tuple_rounds(table: Callable[[np.ndarray], np.ndarray], n: int):
    """The m-ary round: a tuple's row is its color followed by the sorted ids
    of its n substitution rows, which ``table(colors)`` lists tuple by tuple."""

    def round_rows(sides, rank):
        codes, _ = _renumber_rows(_join([table(side) for side in sides]))
        per_alpha = np.sort(codes.reshape(-1, n), axis=1)
        return np.concatenate([_join(sides)[:, None], per_alpha], axis=1)

    return round_rows


def refine_tuples(
    *mats: np.ndarray, m: int, origin: bool = False
) -> tuple[list[np.ndarray], int] | None:
    """Exact m-ary WL refinement of (n, n) pair colorings in lockstep, on
    the tuples of ``_tuple_layout``, each round on whole substitution
    tables: the stable colorings with shared ids and their rank, or None
    when the sides diverge.  A dense row equals the row of its x0 = 0
    translate, so with ``origin`` the ids and rank are the dense ones, and
    every histogram is 1/n of the dense one, so the sides diverge in the
    same round.
    """
    inits, table, _, _ = _tuple_layout(mats, m, origin)
    return _refine(inits, _tuple_rounds(table, mats[0].shape[0]))


def _slot_weights(rng: random.Random, m: int, rank: int) -> np.ndarray:
    """(m, rank) uint64 color weights, one row per substitution slot, from
    the standard library's bytes (see ``_hash_weights``)."""
    return np.frombuffer(rng.randbytes(8 * m * rank), dtype=np.uint64).reshape(m, rank)


def _scramble(x: np.ndarray) -> np.ndarray:
    """The finalizer of splitmix64, in place on a uint64 array: a bijection
    of 64-bit words that is far from additive, so that a sum of scrambled
    row weights keeps the multiset of rows, not only each slot's colors."""
    shifted = x >> np.uint64(30)  # one temporary for the three shifts
    x ^= shifted
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def _unstable_tuples(
    sides: list[np.ndarray], rank: int, m: int, n: int, sums, chunks
) -> list[np.ndarray]:
    """Per side, the mask of the tuples whose sorted substitution rows
    differ from those of the first tuple of their color on side 0, in
    which every color occurs: no tuple is marked exactly when the joint
    coloring is stable.  Like ``_unstable_pairs``, it compares one chunk
    of ``_tuple_layout`` at a time with the rows of its colors' first
    tuples, built for that chunk, never a whole table.  A row's m ids are
    packed as ``_pack_rows`` packs them, 63 // bits to a key column, by
    summing shifted ids slot by slot, so rows compare exactly at every
    rank."""
    bits = max((rank - 1).bit_length(), 1)
    per = 63 // bits

    def packed(side):  # per key column, the (m, N) stack of its slots' shifted ids
        stacks = np.zeros((-(-m // per), m, len(side)), dtype=np.int64)
        for i in range(m):
            c = i // per
            stacks[c, i] = side << bits * (min(c * per + per, m) - 1 - i)
        return stacks

    def rows(stacks, prefixes, j):  # key columns of (T, n) rows, each tuple's in order
        cols = [sums(stack, prefixes, j).reshape(-1, n) for stack in stacks]
        if len(cols) == 1:
            cols[0].sort(axis=1)
            return cols
        order = np.lexsort(cols[::-1], axis=1)
        return [np.take_along_axis(col, order, axis=1) for col in cols]

    first, stacks = _first_occurrences(sides[0], rank), [packed(side) for side in sides]
    marks = [np.zeros(len(side), dtype=bool) for side in sides]
    for prefixes, j, span in chunks:
        colors, inverse = np.unique(_join([side[span] for side in sides]), return_inverse=True)
        refs = rows(stacks[0], first[colors], 0)
        for mark, side, at in zip(marks, stacks, inverse.reshape(len(sides), -1)):
            for own, ref in zip(rows(side, prefixes, j), refs):
                mark[span] |= np.any(own != ref[at], axis=1)
    # a first tuple is its own reference, so it differs only if the chunk and
    # reference rows disagree; a class marked whole would then never split
    if marks[0][first[first < len(sides[0])]].any():
        raise InvariantError("a color's first tuple differs from its own reference rows")
    return marks


def close_tuples(
    *mats: np.ndarray, m: int, origin: bool = False
) -> tuple[list[np.ndarray], int] | None:
    """``refine_tuples`` with arbitrary ids: the same verdict, rank and
    joint partition, on the same layout, one chunk of tuples at a time.

    Each round is hashed: tuple x gets one int64 key, its color above the
    top bits of the wrapping uint64 sum over a of a scrambled mix
    sum_i w_i[c(x_{i<-a})] of its substitution row, with the same slot
    weights w on every side.  A key depends only on the color and the
    exact signature in the shared ids, so every hashed partition coarsens
    the exact one alike on every side.  Where ``_refine`` stops,
    ``_unstable_tuples`` certifies the fixpoint; a tuple whose rows differ
    from those of its color's first tuple gets a new color, which splits
    its class by the exact signature, and hashing resumes from those ids,
    whose histograms ``_refine`` compares first, so a None is never early
    or late.  Per side, a round holds the coloring, its slot weights and
    one chunk's table.
    """
    n = mats[0].shape[0]
    inits, _, sums, chunks = _tuple_layout(mats, m, origin)
    rng = random.Random(0)

    def round_rows(sides, rank):
        bits = _hash_bits(rank)
        weights = _slot_weights(rng, m, rank)
        keys = []
        for side in sides:
            stack = weights[:, side]
            hashes = np.empty(len(side), dtype=np.uint64)
            for prefixes, j, span in chunks:
                mix = _scramble(sums(stack, prefixes, j)).reshape(-1, n)
                # einsum sums each tuple's n words a few times faster than .sum(axis=1)
                hashes[span] = np.einsum("ta->t", mix)
            keys.append(_pack_keys(side, hashes, bits))
        return _join(keys)[:, None]

    while (res := _refine(inits, round_rows)) is not None:
        sides, rank = res
        marks = _unstable_tuples(sides, rank, m, n, sums, chunks)
        if not any(mark.any() for mark in marks):
            return sides, rank
        inits = [side + rank * mark for side, mark in zip(sides, marks)]
    return None
