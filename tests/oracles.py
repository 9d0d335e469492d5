"""Independent oracles that only the tests read.

Each recomputes by definition, or by brute force, what the library computes
by a faster route: the unit classes of connection sets and their Burnside
count, the schemes of an order and their corpus order, the algebraic
isomorphisms between two configurations, quasinormality, the cosets of a
section and the map induced on it, exact lockstep 2-dim WL, the m-ary
substitution table by index arithmetic, the search for an image tuple of a
tuple extension without the translation cut, m-extendability tested point
set by point set, with no map answered in advance, and the extensions of a
pair of maps found by scanning every automorphism of the singular
extension.  None of them is called by the library.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from circulantwl.algebra import (
    AlgebraicIso,
    TupleExtension,
    enumerate_algebraic_isos,
    extendable_at,
    image_parabolic,
    induced_on_quotient,
    induced_on_restriction,
    is_algebraic_isomorphism,
    iter_isomorphisms,
    tuple_extension,
)
from circulantwl.circulant import (
    CirculantScheme,
    Section,
    _extends_scheme_map,
    _section_color_map,
    from_connection_partition,
    is_normal,
    proj_equivalence_classes,
    sections,
)
from circulantwl.core import (
    CoherentConfig,
    Parabolic,
    _covering_colors,
    is_translation_invariant,
    units,
)
from circulantwl.refine import _join, _pair_round_codes, _refine, tuple_strides


# -- graph corpora -------------------------------------------------------------------


def brute_force_graphs(n: int, directed: bool = False) -> list[frozenset[int]]:
    """Every union of generator orbits, (d,) or {d, -d}, reduced to its
    least image under the units of Z_n as a sorted tuple, in increasing
    order."""
    orbits = sorted({frozenset({d} if directed else {d, -d % n}) for d in range(1, n)}, key=min)
    reps = set()
    for size in range(len(orbits) + 1):
        for combo in combinations(orbits, size):
            conn = frozenset().union(*combo)
            reps.add(frozenset(min(tuple(sorted(u * d % n for d in conn)) for u in units(n))))
    return sorted(reps, key=sorted)


def burnside_graph_count(n: int, directed: bool = False) -> int:
    """The number of unit classes of connection sets, by Burnside's lemma."""
    if n == 1:
        return 1
    us = units(n)
    total = 0
    for u in us:
        gens = [u] if directed else [u, n - 1]
        total += 2 ** _orbit_count(n, gens)
    return total // len(us)


def _orbit_count(n: int, gens: list[int]) -> int:
    seen = set()
    count = 0
    for x in range(1, n):
        if x in seen:
            continue
        count += 1
        stack = [x]
        while stack:
            y = stack.pop()
            if y in seen:
                continue
            seen.add(y)
            for g in gens:
                stack.append((g * y) % n)
    return count


# -- schemes -------------------------------------------------------------------------


def brute_force_schemes(n: int) -> list[CirculantScheme]:
    """Filter every partition of Z_n minus 0 through validation."""

    def partitions(rest):
        if not rest:
            yield []
            return
        head, tail = rest[0], rest[1:]
        for sub in partitions(tail):
            for i in range(len(sub)):
                yield sub[:i] + [sub[i] | {head}] + sub[i + 1 :]
            yield sub + [{head}]

    closed = (from_connection_partition(n, part) for part in partitions(list(range(1, n))))
    return sorted({X for X, coherent in closed if coherent}, key=scheme_order_by_sets)


def scheme_order_by_sets(X: CirculantScheme):
    """Corpus order read off the frozenset view: by rank, then by the list
    of sorted basic sets in the order ``connection_sets`` holds them."""
    return X.rank, [sorted(c) for c in X.connection_sets]


def quasinormal_by_definition(X: CirculantScheme) -> bool:
    """Every trivial section must be projectively equivalent to a
    subsection of a normal section."""
    classes = proj_equivalence_classes(X)
    normal_secs = [s for s in sections(X) if is_normal(s.scheme)]
    return all(
        any(t <= big for t in cls for big in normal_secs)
        for cls in classes
        if cls[0].is_trivial and cls[0].order > 1
    )


# -- algebraic isomorphisms ----------------------------------------------------------


def _numbers_by_definition(cc: CoherentConfig) -> tuple[list[tuple[bool, int]], np.ndarray]:
    """Each color's diagonal flag and valency, and p[i, j, k]: at the first
    pair (a, b) of color k, the points g with color(a, g) = i and
    color(g, b) = j, counted one point at a time."""
    colors, r = cc.colors, cc.rank
    diagonal = set(colors.diagonal().tolist())
    keys = [(c in diagonal, int((colors == c).sum(axis=1).max())) for c in range(r)]
    p = np.zeros((r, r, r), dtype=np.int64)
    for k in range(r):
        a, b = np.argwhere(colors == k)[0]
        for g in range(cc.n):
            p[colors[a, g], colors[g, b], k] += 1
    return keys, p


def brute_force_algebraic_isos(cc_a: CoherentConfig, cc_b: CoherentConfig) -> list[tuple[int, ...]]:
    """Every color permutation that keeps each color's diagonal flag and
    valency and that ``is_algebraic_isomorphism`` accepts, in increasing
    order.

    The permutations are walked color by color; a branch is cut as soon as
    an intersection number among the colors placed so far, counted by
    definition, is not kept, since no permutation below it keeps them all.
    Without that cut the regular scheme of Z_12 alone would take 11! leaves."""
    if cc_a.n != cc_b.n or cc_a.rank != cc_b.rank:
        return []
    (keys_a, p_a), (keys_b, p_b) = _numbers_by_definition(cc_a), _numbers_by_definition(cc_b)
    rank, found = cc_a.rank, []

    def walk(f: list[int]) -> None:
        c = len(f)
        if c == rank:
            if is_algebraic_isomorphism(cc_a, cc_b, f):
                found.append(tuple(f))
            return
        for j in range(rank):
            if j in f or keys_b[j] != keys_a[c]:
                continue
            g = f + [j]
            if all(
                p_a[x, y, z] == p_b[g[x], g[y], g[z]]
                for x, y, z in product(range(c + 1), repeat=3)
                if c in (x, y, z)
            ):
                walk(g)

    walk([])
    return found


# -- pair refinement -----------------------------------------------------------------


def refine_pairs(*inits: np.ndarray) -> tuple[list[np.ndarray], int] | None:
    """Exact 2-dim WL refinement of (n, n) pair colorings, in lockstep:
    every round renumbers the whole n**3 table of sorted composition rows.

    Returns the stable matrices with shared ids, ascending in signature
    order, and their rank, or None when the sides differ in n or diverge.
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


def substitution_table_by_index(colors: np.ndarray, n: int, m: int) -> np.ndarray:
    """The dense m-ary substitution table by index arithmetic: row (t, a)
    holds the colors of t with entry i replaced by a, i = 0..m-1, each
    read at its flat index t - x_i * n^(m-1-i) + a * n^(m-1-i)."""
    idx = np.arange(n**m, dtype=np.int64)
    alphas = np.arange(n, dtype=np.int64)
    out = np.empty((n**m, n, m), dtype=np.asarray(colors).dtype)
    for i, stride in enumerate(tuple_strides(n, m)):
        base = idx - ((idx // stride) % n) * stride
        out[:, :, i] = colors[base[:, None] + stride * alphas[None, :]]
    return out.reshape(n**m * n, m)


# -- tuple extensions ----------------------------------------------------------------


def extendable_at_unpinned(phi: AlgebraicIso, x) -> TupleExtension | None:
    """The (x, x')-extension of phi for the least candidate x' that has
    one, or None: every candidate is tried in order, with no translation
    cut."""
    x = tuple(int(p) for p in x)
    for x_image in iter_isomorphisms(phi.source, phi.target, phi, x):
        ext = tuple_extension(phi, x, x_image)
        if ext is not None:
            return ext
    return None


def is_m_extendable_by_loop(phi: AlgebraicIso, m: int) -> bool:
    """Whether ``extendable_at`` finds an extension of phi at every set of at
    most m points: one set per translation orbit, the least translate that
    holds 0, on a translation-invariant source, and every set otherwise.
    No map is answered without this loop, whatever point map induces it."""
    n = phi.source.n
    invariant = is_translation_invariant(phi.source.colors)
    sets = (
        s
        for size in range(1, min(m, n) + 1)
        for s in combinations(range(n), size)
        if not invariant or s == min(tuple(sorted((p - q) % n for p in s)) for q in s)
    )
    return all(extendable_at(phi, s) is not None for s in sets)


# -- section maps --------------------------------------------------------------------


def section_coset(sec: Section, i: int) -> frozenset[int]:
    """The coset of the lower group, as a set of group elements, that is
    element i of the section."""
    return frozenset((sec.lift(i) + g) % sec.upper.n for g in sec.lower.elements)


def induced_on_section(phi: AlgebraicIso, delta, e_blocks, delta2, e_blocks2) -> AlgebraicIso:
    """Restriction followed by quotient: the induced map between sections of
    any configuration.

    Blocks are given in original point labels; the image equivalence must
    agree with ``e_blocks2`` (checked).
    """
    rest = induced_on_restriction(phi, delta, delta2)
    relabel = {p: i for i, p in enumerate(sorted(int(p) for p in delta))}
    blocks = tuple(tuple(sorted(relabel[p] for p in blk)) for blk in e_blocks)
    e = Parabolic(blocks, _covering(rest.source, blocks))
    relabel2 = {p: i for i, p in enumerate(sorted(int(p) for p in delta2))}
    blocks2 = frozenset(tuple(sorted(relabel2[p] for p in blk)) for blk in e_blocks2)
    if frozenset(image_parabolic(rest, e).blocks) != blocks2:
        raise ValueError("map does not send the first section equivalence to the second")
    return induced_on_quotient(rest, e)


def extension_candidates_by_loop(X, star, phi, psi, section) -> list[AlgebraicIso]:
    """The automorphisms of the extension star that extend phi and restrict
    to psi on the section, in enumeration order: every automorphism is
    tested, and its section map rebuilt, for every pair."""
    out = []
    for cand in enumerate_algebraic_isos(star.cc, star.cc):
        if not _extends_scheme_map(X, star, phi, cand):
            continue
        restricted = _section_color_map(star, section, cand)
        if restricted.color_map == psi.color_map:
            out.append(cand)
    return out


def _covering(cc: CoherentConfig, blocks) -> frozenset[int]:
    cols = _covering_colors(cc, blocks)
    if cols is None:
        raise ValueError("equivalence is not a relation of the restriction")
    return cols
