"""Circulant schemes: coherent configurations invariant under a cyclic group.

Every color class of such a scheme is determined by its connection set of
differences, so the whole object is a partition of Z_n, held as a label
row: the color of each difference.  Subgroups whose coset equivalence is a
relation of the scheme play the role of parabolics; sections are quotients
of nested such subgroups and carry quotient schemes over smaller cyclic
groups.  Connection sets are a view for output only.

``Section.project`` and ``Section.lift`` are the one numbering of a
section.  A map on a circulant scheme is read off its row: the projection
of the least difference of each color inside U goes to the projection of
that of its image.  A point extension is not circulant, so its section is
read off coset cells: the cell (i, j) of U/L that each of its colors meets
on U x U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraicIso,
    TupleExtension,
    enumerate_algebraic_isos,
    extendable_at,
    find_isomorphism,
    identity_iso,
    is_algebraic_isomorphism,
    iter_isomorphisms,
    unit_multipliers,
)
from .core import CoherentConfig, circulant_matrix, point_extension, units  # noqa: F401 (re-export)
from .refine import CapExceededError, InvariantError, refine_circulant

DEFAULT_NORMALITY_CAP = 20


def _factorize(n: int) -> list[tuple[int, int]]:
    """(p, k) for every prime power p^k exactly dividing n, by increasing p."""
    out, d = [], 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            k += 1
            n //= d
        if k:
            out.append((d, k))
        d += 1
    return out + [(n, 1)] if n > 1 else out


def omega(n: int) -> int:
    """Total number of prime divisors counted with multiplicity."""
    return sum(k for _, k in _factorize(n))


@dataclass(frozen=True)
class XGroup:
    """The subgroup of Z_n of a given order (subgroups of Z_n are unique per order)."""

    n: int
    order: int

    def __post_init__(self):
        if self.n % self.order:
            raise ValueError("subgroup order must divide the group order")

    @property
    def elements(self) -> frozenset[int]:
        step = self.n // self.order
        return frozenset(range(0, self.n, step))

    @property
    def mask(self) -> np.ndarray:
        """Which elements of Z_n lie in the subgroup."""
        return np.arange(self.n) % (self.n // self.order) == 0

    def __le__(self, other: "XGroup") -> bool:
        return other.order % self.order == 0

    def meet(self, other: "XGroup") -> "XGroup":
        return XGroup(self.n, math.gcd(self.order, other.order))

    def join(self, other: "XGroup") -> "XGroup":
        return XGroup(self.n, (self.order * other.order) // math.gcd(self.order, other.order))


def label_classes(labels: np.ndarray) -> list[frozenset[int]]:
    """The classes of equal labels, in ascending label order: one stable
    sort, split where the label changes."""
    order = np.argsort(labels, kind="stable")
    items = order.tolist()
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(items)]
    return [frozenset(items[a:b]) for a, b in zip(cuts, cuts[1:])]


def _partition_key(labels) -> tuple[int, ...]:
    """The partition of a sequence of labels, as its labels renumbered by
    first occurrence: two sequences get equal keys exactly when their
    classes agree.  A canonical row is its own key."""
    seen: dict = {}
    labels = labels.tolist() if isinstance(labels, np.ndarray) else labels
    return tuple(seen.setdefault(v, len(seen)) for v in labels)


class CirculantScheme:
    """A coherent configuration over Z_n whose colors are difference classes,
    held as its row 0 (the color of (a, b) is ``row[(b - a) mod n]``) with
    colors numbered by least difference: the numbering that
    ``canonical_color_matrix`` gives the dense ``cc``, built on first use."""

    def __init__(self, row):
        row = np.asarray(row, dtype=np.int64)
        if row.ndim != 1 or not len(row):
            raise ValueError("a circulant scheme takes its row 0, a nonempty 1-D array")
        _, first, ids = np.unique(row, return_index=True, return_inverse=True)
        self.row = np.argsort(np.argsort(first))[ids]  # ranked by least difference
        self.row.flags.writeable = False
        self.n = len(row)
        self.rank = len(first)
        self._cache: dict = {}

    @cached_property
    def cc(self) -> CoherentConfig:
        return CoherentConfig(circulant_matrix(self.row))

    @cached_property
    def connection_sets(self) -> tuple[frozenset[int], ...]:
        """The basic sets of differences, in color order: the output view."""
        return tuple(label_classes(self.row))

    @cached_property
    def least(self) -> np.ndarray:
        """The least difference of each color, in color order."""
        return np.unique(self.row, return_index=True)[1]

    # -- construction -------------------------------------------------------
    @staticmethod
    def regular(n: int) -> "CirculantScheme":
        return CirculantScheme(np.arange(n))

    @staticmethod
    def trivial(n: int) -> "CirculantScheme":
        return CirculantScheme(np.minimum(np.arange(n), 1))

    # -- identity ------------------------------------------------------------
    @property
    def partition_key(self) -> frozenset[frozenset[int]]:
        return frozenset(self.connection_sets)

    def __eq__(self, other) -> bool:
        return isinstance(other, CirculantScheme) and np.array_equal(self.row, other.row)

    def __hash__(self) -> int:
        return hash(self.row.tobytes())

    def __repr__(self) -> str:
        return f"CirculantScheme(n={self.n}, rank={self.rank})"

    # -- basics ----------------------------------------------------------------
    def color_of_difference(self, d: int) -> int:
        return int(self.row[d % self.n])


def _close_rows(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed rows 0 of a label row or of a (G, n) stack of them, and
    whether each label partition was already coherent."""
    row = labels * 2
    # difference 0 is split off as in ``wl_closure``; the closure refines
    # the partition, so it is coherent exactly when closing adds no class
    row[..., 0] += 1
    closed, rank = refine_circulant(row)
    distinct = np.count_nonzero(np.diff(np.sort(labels, axis=-1), axis=-1), axis=-1) + 1
    return closed, rank == distinct


def close_labels(labels) -> tuple[CirculantScheme, bool]:
    """The WL closure of the translation-invariant coloring with row 0
    ``labels``, a circulant scheme, and whether the partition of Z_n into
    classes of equal labels was already coherent."""
    closed, coherent = _close_rows(np.asarray(labels, dtype=np.int64))
    return CirculantScheme(closed), bool(coherent)


def _close_stack(labels: np.ndarray) -> list[tuple[CirculantScheme, bool]]:
    """``close_labels`` of each row of a (G, n) stack, in one closure."""
    closed, coherent = _close_rows(labels)
    return [(CirculantScheme(row), flag) for row, flag in zip(closed, coherent.tolist())]


def _partition_labels(n: int, parts) -> np.ndarray:
    """The label row of a partition of Z_n (or of Z_n minus 0): class i is
    labelled i; raises ValueError unless the classes cover Z_n minus 0
    without overlap."""
    parts = [[int(x) for x in p] for p in parts if len(p)]
    covered = [x for p in parts for x in p]
    if any(not 0 <= x < n for x in covered):
        raise ValueError(f"connection classes hold an element outside 0..{n - 1}")
    # a repeat inside one class counts as much as one across two
    if len(seen := set(covered)) != len(covered):
        twice = next(x for x in covered if covered.count(x) > 1)
        raise ValueError(f"connection classes overlap: {twice} appears more than once")
    if len(seen | {0}) < n:
        raise ValueError("connection classes do not cover the group")
    labels = np.full(n, len(parts), dtype=np.int64)  # 0 alone when no class holds it
    for i, p in enumerate(parts):
        labels[p] = i
    return labels


def from_connection_partition(n: int, parts) -> tuple[CirculantScheme, bool]:
    """Turn a partition of Z_n (or of Z_n minus 0) into a circulant scheme,
    as ``close_labels`` does for its label row."""
    return close_labels(_partition_labels(n, parts))


# -- subgroup lattice and sections ------------------------------------------------


def _colors_meeting(X: CirculantScheme, mask: np.ndarray) -> np.ndarray:
    """Which colors of X hold a difference in the mask, indexed by color."""
    meets = np.zeros(X.rank, dtype=bool)
    meets[X.row[mask]] = True
    return meets


def xgroup_lattice(X: CirculantScheme) -> list[XGroup]:
    """Subgroups whose coset partition is a relation of the scheme: no color
    meets both the subgroup and its complement."""
    if "xgroups" not in X._cache:
        groups = [XGroup(X.n, order) for order in divisors(X.n)]
        meets = [(_colors_meeting(X, H.mask), _colors_meeting(X, ~H.mask)) for H in groups]
        X._cache["xgroups"] = [H for H, (a, b) in zip(groups, meets) if not (a & b).any()]
    return list(X._cache["xgroups"])


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class Section:
    """A quotient U/L of nested subgroups, with its quotient scheme."""

    upper: XGroup
    lower: XGroup
    scheme: CirculantScheme

    @property
    def order(self) -> int:
        return self.upper.order // self.lower.order

    @property
    def is_trivial(self) -> bool:
        return self.scheme.rank <= 2

    @property
    def is_principal(self) -> bool:
        return scheme_radical(self.scheme).order == 1

    def project(self, g: int) -> int:
        """Index of the lower-coset of a group element of the upper group."""
        h = self.upper.n // self.upper.order
        if g % h:
            raise ValueError("element lies outside the upper group")
        return (g // h) % self.order

    def lift(self, i: int) -> int:
        h = self.upper.n // self.upper.order
        return (i % self.order) * h

    def subset(self, i: int) -> frozenset[int]:
        """The lower-coset (as a set of group elements) of section element i."""
        return frozenset((self.lift(i) + l) % self.upper.n for l in self.lower.elements)

    def __le__(self, other: "Section") -> bool:
        """Subsection order: contained upper group, containing lower group."""
        return self.upper <= other.upper and other.lower <= self.lower

    def label(self) -> str:
        return f"{self.upper.order}/{self.lower.order}"


def section_labels(X: CirculantScheme, upper: XGroup, lower: XGroup) -> np.ndarray:
    """The basic sets of the quotient on U/L as a label row of Z_|U/L|,
    numbered by first occurrence: the cosets of L in U, numbered as
    ``Section.project`` numbers them, keyed by the sorted colors of their
    elements.  For X-groups L <= U these keys are the projections of the
    basic sets inside U, which partition U/L (proof in the README).

    Raises ValueError unless L <= U are X-groups of X."""
    groups = xgroup_lattice(X)
    if upper not in groups or lower not in groups or not lower <= upper:
        raise ValueError("a section needs X-groups L <= U of the scheme")
    k, h, row = upper.order // lower.order, X.n // upper.order, X.row.tolist()
    # coset i holds the differences (i + k * j) * h for j < |L|
    cosets = [tuple(sorted(row[(i + k * j) * h] for j in range(lower.order))) for i in range(k)]
    return np.array(_partition_key(cosets))


def section_scheme(X: CirculantScheme, upper: XGroup, lower: XGroup) -> CirculantScheme:
    """Quotient scheme on U/L: its label row is a scheme as it stands (the
    projections of the basic sets span an S-ring; see the README)."""
    return CirculantScheme(section_labels(X, upper, lower))


def sections(X: CirculantScheme) -> list[Section]:
    """All sections over nested pairs of X-groups (those containing the identity coset)."""
    if "sections" not in X._cache:
        groups = xgroup_lattice(X)
        X._cache["sections"] = {
            (U, L): Section(U, L, section_scheme(X, U, L))
            for L in groups
            for U in groups
            if L <= U
        }
    return list(X._cache["sections"].values())


def _section(X: CirculantScheme, upper: XGroup, lower: XGroup) -> Section:
    """The section U/L of X, read from the cache of ``sections`` when X has
    built it and computed alone otherwise."""
    cached = X._cache.get("sections", {}).get((upper, lower))
    return cached or Section(upper, lower, section_scheme(X, upper, lower))


def scheme_radical(X: CirculantScheme) -> XGroup:
    """The subgroup whose cosets stabilize the color of a generator pair:
    the shifts fixing the differences of color c(0, 1) form a subgroup,
    generated by the least of them, which divides n."""
    mask = X.row == X.color_of_difference(1)
    step = next(s for s in divisors(X.n) if np.array_equal(np.roll(mask, s), mask))
    return XGroup(X.n, X.n // step)


# -- multiples, projective equivalence, bridges -------------------------------------


def is_multiple(S: Section, T: Section) -> bool:
    """Whether S is a multiple of T in the subgroup lattice."""
    return (
        T.lower.order == T.upper.meet(S.lower).order
        and S.upper.order == T.upper.join(S.lower).order
    )


def _lower_split(S: Section) -> tuple[int, int]:
    """(a, c) with |L| = a*c for S = U/L of order k: a over the primes of k, c coprime to k."""
    a, c = 1, S.lower.order
    while (g := math.gcd(c, S.order)) > 1:
        a, c = a * g, c // g
    return a, c


def proj_equivalence_classes(X: CirculantScheme) -> list[list[Section]]:
    """Connected components of the symmetric closure of the multiple relation.

    Sections are equivalent exactly when they share k and a (``_lower_split``): a direct multiple
    keeps k and a and multiplies c by the unit |U_S|/|U_T|, and two sections with equal (k, a) are
    direct multiples of their meet, an X-section because X-groups are closed under intersection.
    """
    groups: dict[tuple[int, int], list[Section]] = {}
    for s in sections(X):
        groups.setdefault((s.order, _lower_split(s)[0]), []).append(s)
    out = [sorted(g, key=lambda s: (s.upper.order, s.lower.order)) for g in groups.values()]
    return sorted(out, key=lambda g: (g[0].upper.order, g[0].lower.order, len(g)))


def section_bridge(X: CirculantScheme, T: Section, S: Section) -> int:
    """Unit u realizing the composed projective-equivalence isomorphism T -> S: c_S / c_T mod k,
    the product of the units |U_S|/|U_T| along any path of direct multiples.  Verified on return
    to be among the unit multipliers of the two section rows."""
    (a_t, c_t), (a_s, c_s) = _lower_split(T), _lower_split(S)
    secs = sections(X)
    if T not in secs or S not in secs or (T.order, a_t) != (S.order, a_s):
        raise ValueError("sections are not projectively equivalent")
    u = c_s * pow(c_t, -1, S.order) % S.order
    if u not in unit_multipliers(T.scheme.row, S.scheme.row)[0]:
        raise InvariantError("bridge is not a Cayley isomorphism of the section schemes")
    return u


# -- the U/L-condition, normality, quasinormality --------------------------------------


def satisfies_ul_condition(X: CirculantScheme, upper: XGroup, lower: XGroup) -> bool:
    """Every basis color disjoint from the U-cosets has all L-translates equal."""
    if not lower <= upper:
        raise ValueError("lower group must lie inside the upper group")
    # the differences whose color is disjoint from U, and their L-translates
    away = np.flatnonzero(~_colors_meeting(X, upper.mask)[X.row])
    return bool(np.array_equal(X.row[(away + X.n // lower.order) % X.n], X.row[away]))


def _in_holomorph(f: tuple[int, ...], n: int) -> bool:
    b = f[0]
    if n == 1:
        return True
    u = (f[1] - b) % n
    if math.gcd(u, n) != 1:
        return False
    return all(f[x] == (u * x + b) % n for x in range(n))


def is_normal(X: CirculantScheme, cap: int = DEFAULT_NORMALITY_CAP) -> bool:
    """Whether the translation group is normal in the full automorphism group.

    Equivalent to every automorphism lying in the holomorph; the search
    stops at the first automorphism outside it.
    """
    if X.n > cap:
        raise CapExceededError(f"normality test capped at n <= {cap}")
    if "normal" not in X._cache:
        autos = iter_isomorphisms(X.cc, X.cc, identity_iso(X.cc))
        X._cache["normal"] = all(_in_holomorph(f, X.n) for f in autos)
    return X._cache["normal"]


def is_quasinormal(X: CirculantScheme) -> bool:
    """Quasinormality decided through the orders of the singular classes."""
    return all(rep.order == 3 for rep in singular_classes(X) if rep.is_singular)


def quasinormal_by_definition(X: CirculantScheme) -> bool:
    """Slow cross-validation path: every trivial section must be projectively
    equivalent to a subsection of a normal section."""
    classes = proj_equivalence_classes(X)
    normal_secs = [s for s in sections(X) if is_normal(s.scheme)]
    return all(
        any(t <= big for t in cls for big in normal_secs)
        for cls in classes
        if cls[0].is_trivial and cls[0].order > 1
    )


# -- singular classes ---------------------------------------------------------------------


@dataclass(frozen=True)
class SingularClassReport:
    sections: tuple[Section, ...]
    smallest: Section
    largest: Section
    order: int
    is_singular: bool


def _tensor_condition(X: CirculantScheme, T: Section, S: Section) -> bool:
    """S2: the section U(S)/L(T) must split as the product of U(T)/L(T) and L(S)/L(T)."""
    l0, l1 = T.lower, T.upper
    u0, u1 = S.lower, S.upper
    big = _section(X, u1, l0).scheme
    part_a = _section(X, l1, l0).scheme
    part_b = _section(X, u0, l0).scheme
    k, kk = part_a.n, part_b.n
    if k * kk != big.n:
        return False
    # v goes to (v / kk mod k, v / k mod kk); the pairs of colors must give
    # exactly the classes of the big section
    v = np.arange(big.n)
    i, j = v * pow(kk, -1, k) % k, v * pow(k, -1, kk) % kk
    return _partition_key(part_a.row[i] * part_b.rank + part_b.row[j]) == _partition_key(big.row)


def _pair_is_singular_witness(X: CirculantScheme, T: Section, S: Section) -> bool:
    if not is_multiple(S, T):
        return False
    l0, l1 = T.lower, T.upper
    u0, u1 = S.lower, S.upper
    return (
        satisfies_ul_condition(X, u0, l0)
        and satisfies_ul_condition(X, u1, l1)
        and _tensor_condition(X, T, S)
    )


def singular_classes(X: CirculantScheme) -> list[SingularClassReport]:
    """Reports for every trivial projective-equivalence class of order > 2."""
    if "singular" in X._cache:
        return list(X._cache["singular"])
    out = []
    for cls in proj_equivalence_classes(X):
        order = cls[0].order
        trivial_flags = {s.is_trivial for s in cls}
        if len(trivial_flags) != 1:
            raise InvariantError("triviality is a class property")
        if order <= 2 or not trivial_flags.pop():
            continue
        smallest = min(cls, key=lambda s: (s.upper.order, s.lower.order))
        largest = max(cls, key=lambda s: (s.upper.order, s.lower.order))
        witnesses = [
            (t, s) for t in cls for s in cls if _pair_is_singular_witness(X, t, s)
        ]
        is_sing = bool(witnesses)
        if is_sing and not _pair_is_singular_witness(X, smallest, largest):
            raise InvariantError("the smallest/largest pair must witness singularity")
        out.append(
            SingularClassReport(
                sections=tuple(cls),
                smallest=smallest,
                largest=largest,
                order=order,
                is_singular=is_sing,
            )
        )
    X._cache["singular"] = out
    return list(out)


# -- singular extension ----------------------------------------------------------------------


def _class_of_section(X: CirculantScheme, S: Section) -> SingularClassReport:
    for rep in singular_classes(X):
        if S in rep.sections:
            return rep
    raise ValueError("section does not belong to a trivial class of order > 2")


def singular_extension(X: CirculantScheme, S: Section) -> CirculantScheme:
    """Smallest circulant scheme above X whose restriction to S is regular.

    Built as the WL closure of X's partition refined by the cosets of L(S)
    inside U(S); the added relations are Cayley relations, so the closure
    stays circulant.
    """
    rep = _class_of_section(X, S)
    if not rep.is_singular:
        raise ValueError("section does not belong to a singular class")
    star = _coset_split_closure(X, S)
    _assert_extension_ledger(X, star, rep)
    return star


def _coset_split_closure(X: CirculantScheme, S: Section) -> CirculantScheme:
    # each basic set splits into its part outside U and its part in each coset of L
    d, h = np.arange(X.n), X.n // S.upper.order
    coset = np.where(d % h == 0, d // h % S.order, -1)
    return close_labels(X.row * (S.order + 1) + coset + 1)[0]


def _assert_extension_ledger(
    X: CirculantScheme, star: CirculantScheme, rep: SingularClassReport
) -> None:
    """Rank grows, the singular count drops by one, colors disjoint from the
    cosets of the class top group or inside the class bottom-anchor group are
    untouched, and the witnessing conditions survive in the extension."""
    if star.rank <= X.rank:
        raise InvariantError(f"extension rank {star.rank} does not exceed rank {X.rank}")
    before = sum(1 for r in singular_classes(X) if r.is_singular)
    after = sum(1 for r in singular_classes(star) if r.is_singular)
    if after != before - 1:
        raise InvariantError(f"singular class count {before} -> {after}")
    u1, u0 = rep.largest.upper.mask, rep.largest.lower.mask
    for what, where in (
        ("disjoint from the top group", lambda Y: ~_colors_meeting(Y, u1)[Y.row]),
        ("inside the bottom-anchor group", lambda Y: ~_colors_meeting(Y, ~u0)[Y.row]),
    ):
        # the same differences, split into the same classes
        mask = where(X)
        same = np.array_equal(mask, where(star))
        if not (same and _partition_key(X.row[mask]) == _partition_key(star.row[mask])):
            raise InvariantError(f"extension changed a color {what}")
    # the witness pair still satisfies the split conditions in the extension
    star_small = _section(star, rep.smallest.upper, rep.smallest.lower)
    star_large = _section(star, rep.largest.upper, rep.largest.lower)
    if not (
        satisfies_ul_condition(star, rep.largest.lower, rep.smallest.lower)
        and satisfies_ul_condition(star, rep.largest.upper, rep.smallest.upper)
        and _tensor_condition(star, star_small, star_large)
    ):
        raise InvariantError("the witness pair no longer splits in the extension")


def extend_algebraic_automorphism(
    X: CirculantScheme,
    star: CirculantScheme,
    phi: AlgebraicIso,
    psi: AlgebraicIso,
    section: Section,
) -> AlgebraicIso:
    """The unique color automorphism of the extension restricting to psi on
    the section and extending phi; found by exhausting the color search."""
    matches = _extension_candidates(X, star, phi, psi, section)
    if not matches:
        raise InvariantError("no extension found where exactly one was predicted")
    if len(matches) > 1:
        raise InvariantError("extension is not unique")
    return matches[0]


def _extension_candidates(X, star, phi, psi, section) -> list[AlgebraicIso]:
    out = []
    for cand in enumerate_algebraic_isos(star.cc, star.cc):
        if not _extends_scheme_map(X, star, phi, cand):
            continue
        restricted = _section_color_map(star, section, cand)
        if restricted.color_map == psi.color_map:
            out.append(cand)
    return out


def _extends_scheme_map(
    X: CirculantScheme, star: CirculantScheme, phi: AlgebraicIso, cand: AlgebraicIso
) -> bool:
    """Whether cand, a color map of a refinement star of X, sends each color
    into the phi-image of the X color that holds it."""
    # the X color of each star color, read at its least difference
    parent = X.row[star.least]
    if not np.array_equal(parent[star.row], X.row):
        raise InvariantError("extension does not refine the scheme")
    return bool(np.array_equal(parent[cand.array], phi.array[parent]))


def _section_color_map(
    X: CirculantScheme, section: Section, phi: AlgebraicIso
) -> AlgebraicIso:
    """The color map that an algebraic automorphism phi of X induces on the
    section scheme: the projection of each basic set T_c inside U goes to the
    projection of T_phi(c), each read at its least difference.  Raises
    ValueError where phi does not descend to the section."""
    h, k = X.n // section.upper.order, section.order
    inside = np.flatnonzero(~_colors_meeting(X, ~section.upper.mask))  # basic sets in U
    src, img = X.least[inside], X.least[phi.array[inside]]
    if np.any(img % h):
        raise ValueError("element lies outside the upper group")
    s, t = section.scheme.row[src // h % k], section.scheme.row[img // h % k]
    cmap = np.full(section.scheme.rank, -1, dtype=np.int64)
    cmap[s] = t
    if not np.array_equal(cmap[s], t):
        raise ValueError("color map does not descend to the section")
    out = AlgebraicIso(section.scheme.cc, section.scheme.cc, tuple(cmap.tolist()))
    if not is_algebraic_isomorphism(out.source, out.target, out.color_map):
        raise ValueError("induced section map is not an algebraic isomorphism")
    return out


# -- base tuples and discreteness -------------------------------------------------------------


def base_tuple(X: CirculantScheme) -> tuple[int, ...]:
    """The identity and n/p^j for every prime power p^j dividing n: 1 +
    Omega(n) entries, among them a generator of every prime-power section
    U/L (for q the p-part of |U|, n/q lies in U and projects to |U|/q, a
    unit mod |U/L|; see the README)."""
    n = X.n
    return (0, *(n // p**j for p, k in _factorize(n) for j in range(1, k + 1)))


def secc0(X: CirculantScheme) -> list[Section]:
    """Sections projectively equivalent to a principal section."""
    out = []
    for cls in proj_equivalence_classes(X):
        if any(s.is_principal for s in cls):
            out.extend(cls)
    return out


def _section_cells(cc: CoherentConfig, section: Section) -> np.ndarray | None:
    """The cell i*k + j of (U/L) x (U/L) that each color of cc meets on U x U,
    cosets numbered by ``project`` (-1 for a color off U x U); None when some
    color meets two cells, that is, when the section of cc is not discrete.

    Raises InvariantError when the coset partition of L in U is not a relation
    of cc: some color meets both same-coset and cross-coset pairs."""
    k = section.order
    pts = sorted(section.upper.elements)
    coset = np.array([section.project(p) for p in pts], dtype=np.int64)
    cells = (coset[:, None] * k + coset[None, :]).ravel()
    colors = cc.colors[np.ix_(pts, pts)].ravel()
    same = np.bincount(colors, weights=cells // k == cells % k, minlength=cc.rank)
    if np.any((same > 0) & (same < np.bincount(colors, minlength=cc.rank))):
        raise InvariantError("coset partition is not a relation of the configuration")
    out = np.full(cc.rank, -1, dtype=np.int64)
    out[colors] = cells
    return out if np.array_equal(out[colors], cells) else None


def section_discreteness_check(
    X: CirculantScheme, x: tuple[int, ...]
) -> dict[str, bool]:
    """For each section equivalent to a principal one, whether the section of
    the point extension at x is discrete."""
    ext = point_extension(X.cc, x)
    return {sec.label(): _section_cells(ext, sec) is not None for sec in secc0(X)}


# -- multipliers --------------------------------------------------------------------------------


@dataclass(frozen=True)
class Multiplier:
    """Consistent family of section automorphisms read off a tuple extension,
    each multiplication by a unit: one (section, unit) entry per section."""

    entries: tuple[tuple[Section, int], ...]

    def unit(self, section: Section) -> int:
        return dict(self.entries)[section]


def extract_multiplier(X: CirculantScheme, ext: TupleExtension) -> Multiplier:
    """Read the section automorphisms off the extension ext of phi = ext.base.

    Requires X to be quasinormal and every relevant section of the extension
    to be discrete (guaranteed for quasinormal schemes at base tuples).  Each
    sigma is checked to be multiplication by a unit u, and its induced color
    map to send row[d] to row[u*d] on the section's label row.  The other two
    conditions hold for any family read off one lifted map (proof in the
    README): units agree mod |S| on S <= T, and sections in one projective
    class carry one unit.
    """
    if not is_quasinormal(X):
        raise ValueError("scheme is not quasinormal")
    secs = secc0(X)
    # every sigma is read before any is checked: a section that is not
    # discrete is reported before a condition fails
    sigmas = [_read_section_permutation(ext, sec) for sec in secs]
    units = {}
    for sec, sigma in zip(secs, sigmas):
        k, row = sec.order, sec.scheme.row
        u = sigma[1] if k > 1 else 1
        d = np.arange(k) * u % k
        if math.gcd(u, k) != 1 or not np.array_equal(sigma, d):
            raise InvariantError("section automorphism must be multiplication by a unit")
        if not np.array_equal(_section_color_map(X, sec, ext.base).array[row], row[d]):
            raise InvariantError("section permutation must induce the section color map")
        units[sec] = u
    return Multiplier(entries=tuple(units.items()))


def _read_section_permutation(ext: TupleExtension, sec: Section) -> tuple[int, ...]:
    """sigma(i) = j where the lifted map sends the color of the diagonal
    cell (i, i) of the discrete section to the color of the cell (j, j)."""
    src, tgt = _section_cells(ext.ext_source, sec), _section_cells(ext.ext_target, sec)
    if src is None or tgt is None:
        raise InvariantError("section of the extension is not discrete")
    diagonal = [ext.ext_source.color_of(g, g) for g in map(sec.lift, range(sec.order))]
    j, j2 = np.divmod(tgt[ext.lifted.array[diagonal]], sec.order)
    if np.any(j != j2):
        raise InvariantError("image of a diagonal singleton must be diagonal")
    return tuple(int(v) for v in j)


def _is_quasinormal_certified(X: CirculantScheme, sec: Section) -> bool:
    """Whether some projectively equivalent copy of sec sits inside a
    principal normal section."""
    cls = next(c for c in proj_equivalence_classes(X) if sec in c)
    principal_normal = [s for s in sections(X) if s.is_principal and is_normal(s.scheme)]
    return any(t <= big for t in cls for big in principal_normal)


def quasinormal_section_decomposition(X: CirculantScheme, sec: Section) -> list[Section] | None:
    """Split a section of a quasinormal scheme into a tensor product of
    sections controlled by principal normal ones, searching over coprime
    subgroup complements; None when no such decomposition exists."""
    if _is_quasinormal_certified(X, sec):
        return [sec]
    k = sec.order
    for a in divisors(k):
        b = k // a
        if a <= 1 or b <= 1 or math.gcd(a, b) != 1:
            continue
        # subgroup of order a inside the section, pulled back to X-groups
        upper_a = XGroup(X.n, a * sec.lower.order)
        upper_b = XGroup(X.n, b * sec.lower.order)
        if upper_a not in xgroup_lattice(X) or upper_b not in xgroup_lattice(X):
            continue
        sec_a = _section(X, upper_a, sec.lower)
        sec_b = _section(X, upper_b, sec.lower)
        # the diamond partner of sec_a inside sec: U(sec)/upper_b
        partner = _section(X, sec.upper, upper_b)
        if not _tensor_condition(X, sec_a, partner):
            continue
        left = quasinormal_section_decomposition(X, sec_a)
        right = quasinormal_section_decomposition(X, sec_b)
        if left is not None and right is not None:
            return left + right
    return None


# -- induced-by-isomorphism pathway ------------------------------------------------------------


def is_induced_by_isomorphism(
    X: CirculantScheme, phi: AlgebraicIso
) -> tuple[int, ...] | None:
    """Search for a point bijection inducing phi, after checking the
    quasinormal/extendability hypotheses that predict one exists."""
    if not is_quasinormal(X):
        raise ValueError("scheme is not quasinormal")
    x = base_tuple(X)
    if extendable_at(phi, x) is None:
        raise ValueError("color map is not extendable at a base tuple")
    return find_isomorphism(X.cc, X.cc, phi)
