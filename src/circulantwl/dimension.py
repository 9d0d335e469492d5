"""Corpus enumeration and WL-dimension estimation for circulant graphs.

The dimension of a graph with respect to the corpus of its order is the
smallest m >= 2 at which every color-preserving correspondence to a corpus
member that survives m-dim WL refinement is realized by an actual point
isomorphism.  It depends only on the graph's scheme (its WL closure), so it
is estimated once per distinct scheme of an order.  Graphs are deduplicated
under the unit-multiplier action only, so isomorphism collisions across
different multiplier classes stay observable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraicIso,
    enumerate_algebraic_isos,
    is_induced,
    is_m_extendable,
    unit_multipliers,
)
from .circulant import (
    CirculantScheme,
    Section,
    XGroup,
    _close_rows,
    _extends_scheme_map,
    _label_lists,
    _partition_key,
    _partition_labels,
    _section,
    base_tuple,
    close_labels,
    divisors,
    extend_algebraic_automorphism,
    is_quasinormal,
    omega,
    section_discreteness_check,
    section_labels,
    singular_classes,
    singular_extension,
    xgroup_lattice,
)
from .core import CoherentConfig, units
from .refine import CapExceededError
from .wl import pebble_game_oracle, wl_m_equivalent

DEFAULT_UNDIRECTED_CAP = 20
DEFAULT_DIRECTED_CAP = 12
DEFAULT_SCHEME_CAP = 36
SCHEME_CACHE_VERSION = 1


@dataclass
class Corpus:
    """Connection sets (and optionally schemes) of one order, up to unit multipliers."""

    n: int
    graphs: list[frozenset[int]] = field(default_factory=list)
    schemes: list[CirculantScheme] = field(default_factory=list)


def enumerate_graphs(n: int, directed: bool = False, cap: int | None = None) -> Corpus:
    """All circulant connection sets of one order up to unit multipliers.

    A connection set is a union of generator orbits, (d,) when directed and
    {d, -d} when not, so it is a bitmask over the orbits, and each unit
    permutes the orbits.  The masks are walked in order.  A mask not yet
    seen starts a new unit class: its images under every unit are that
    whole class, so they are marked seen, and the least of them as a sorted
    tuple represents the class.  That is the least sorted image over the
    units of any one member, the representative a brute force over every
    union of orbits would pick.  The result is sorted the same way."""
    if n < 1:
        raise ValueError(f"graph enumeration needs an order >= 1, got {n}")
    if cap is None:
        cap = DEFAULT_DIRECTED_CAP if directed else DEFAULT_UNDIRECTED_CAP
    if n > cap:
        raise CapExceededError(f"graph enumeration capped at n <= {cap}")
    orbits = sorted({frozenset({d} if directed else {d, -d % n}) for d in range(1, n)}, key=min)
    orbit_of = {d: i for i, orbit in enumerate(orbits) for d in orbit}
    # perm[i] is the mask of the orbit that one unit sends orbit i to
    perms = [[1 << orbit_of[u * min(orbit) % n] for orbit in orbits] for u in units(n)]
    seen, reps = set(), []
    for mask in range(2 ** len(orbits)):
        if mask in seen:
            continue
        bits = [i for i in range(len(orbits)) if mask >> i & 1]
        images = {sum(perm[i] for i in bits) for perm in perms}
        seen |= images
        members = (
            sorted(d for i, orbit in enumerate(orbits) if image >> i & 1 for d in orbit)
            for image in images
        )
        reps.append(min(members))
    return Corpus(n=n, graphs=[frozenset(rep) for rep in sorted(reps)])


# -- scheme enumeration -----------------------------------------------------------


SCHEME_KINDS = ("trivial", "cyclotomic", "tensor", "wreath")


def _scheme_order(X: CirculantScheme):
    """Corpus order: by rank, then by the list of sorted basic sets in order
    of least element, read off the row (``_label_lists``): on a scheme row
    colors are numbered by least difference, so ascending label order is
    that order, and each class comes as its differences in increasing order."""
    return X.rank, _label_lists(X.row)


def _unit_subgroups(n: int) -> set[frozenset[int]]:
    """Every subgroup of the unit group Z_n^*, grown from {1} one adjoined unit at a time."""
    us, found = units(n), {frozenset({1 % n})}
    todo = list(found)
    while todo:
        K = todo.pop()
        for g in us:
            grown, p = set(K), g
            while p not in K:
                grown |= {k * p % n for k in K}
                p = p * g % n
            if (H := frozenset(grown)) not in found:
                found.add(H)
                todo.append(H)
    return found


def _orbit_labels(n: int, K: frozenset[int]) -> np.ndarray:
    """Each element of Z_n labelled by the least element of its K-orbit."""
    labels = np.full(n, -1)
    for x in range(n):
        if labels[x] < 0:
            labels[[k * x % n for k in K]] = x
    return labels


def _has_xgroup(X: CirculantScheme, order: int) -> bool:
    return any(H.order == order for H in xgroup_lattice(X))


def scheme_candidates(n: int, corpora: dict[int, list[CirculantScheme]]):
    """(kind, label row of a partition of Z_n) for every candidate scheme of
    order n, built from the schemes in ``corpora`` of every proper divisor
    of n.

    By Leung and Man every scheme over Z_n is of one of the four kinds of
    ``SCHEME_KINDS``, so these candidates include every scheme of order n:
    - "trivial": {0} and Z_n minus 0
    - "cyclotomic": the orbits of a subgroup K of Z_n^* (the orbit of 1 is K)
    - "tensor": A over Z_n1 times B over Z_n2 for n = n1*n2 with coprime
      1 < n1 < n2, read through x -> (x mod n1, x mod n2)
    - "wreath": the U/L wreath product for 1 < L <= U < Z_n of A over
      U = Z_|U|, in which L is an X-group, and B over Z_n/L = Z_(n/|L|), in
      which U/L is an X-group, that agree on U/L: A's basic sets scaled into
      U, and the preimages of B's basic sets outside U/L.
    Every candidate is a scheme as it stands, by the textbook argument for
    its kind (proofs in the README), so none needs closing; one partition
    may come several times.
    """
    x = np.arange(n)
    yield "trivial", np.minimum(x, 1)
    for K in _unit_subgroups(n):
        yield "cyclotomic", _orbit_labels(n, K)
    for n1 in divisors(n):
        n2 = n // n1
        if 1 < n1 < n2 and math.gcd(n1, n2) == 1:
            for A in corpora[n1]:
                for B in corpora[n2]:
                    yield "tensor", A.row[x % n1] * B.rank + B.row[x % n2]
    for u in divisors(n)[1:-1]:
        h, top = n // u, XGroup(u, u)
        in_u = x % h == 0
        for lo in divisors(u)[1:]:
            k = u // lo
            sections = {}
            for B in corpora[n // lo]:
                if _has_xgroup(B, k):
                    sub = XGroup(n // lo, k)
                    key = tuple(section_labels(B, sub, XGroup(n // lo, 1)))
                    sections.setdefault(key, []).append(B)
            for A in corpora[u]:
                if not _has_xgroup(A, lo):
                    continue
                key = tuple(section_labels(A, top, XGroup(u, lo)))
                for B in sections.get(key, []):
                    outside = A.rank + B.row[x % (n // lo)]
                    yield "wreath", np.where(in_u, A.row[x // h], outside)


def _corpora(n: int) -> dict[int, list[CirculantScheme]]:
    """The schemes of every divisor of n, in corpus order: the candidates of
    each divisor, built from the divisors before it, one per partition."""
    corpora: dict[int, list[CirculantScheme]] = {}
    for d in divisors(n):
        keys = dict.fromkeys(_partition_key(labels) for _, labels in scheme_candidates(d, corpora))
        corpora[d] = sorted(map(CirculantScheme, keys), key=_scheme_order)
    return corpora


def enumerate_schemes(n: int, cap: int = DEFAULT_SCHEME_CAP) -> Corpus:
    """All circulant schemes of order n.

    Every scheme over Z_n is trivial, cyclotomic, a tensor product over a
    coprime split of n, or a generalised wreath product over a section U/L
    with 1 < L <= U < Z_n (Leung and Man, J. Algebra 1996 and Israel
    J. Math. 1998).  So the candidates of ``scheme_candidates``, built from
    the schemes of the proper divisors, include every scheme of order n,
    and each of them is a scheme without closing (see ``scheme_candidates``).
    The divisor corpora are memoized for this call only.  Results are memoized
    on disk when CIRCULANTWL_CACHE points to a directory.
    """
    if n < 1:
        raise ValueError(f"scheme enumeration needs an order >= 1, got {n}")
    if n > cap:
        raise CapExceededError(f"scheme enumeration capped at n <= {cap}")
    if n == 1:
        return Corpus(n=1, schemes=[CirculantScheme.trivial(1)])
    cached = _read_scheme_cache(n)
    if cached is not None:
        return cached
    corpus = Corpus(n=n, schemes=_corpora(n)[n])
    _write_scheme_cache(corpus)
    return corpus


def _cache_path(n: int):
    root = os.environ.get("CIRCULANTWL_CACHE")
    if not root:
        return None
    return os.path.join(root, f"schemes_{n}.json")


def _read_scheme_cache(n: int) -> Corpus | None:
    path = _cache_path(n)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        partitions = data["schemes"]
        for parts in partitions:
            for c in parts:  # JSON integers: not a string's digits, a float or a bool
                if not isinstance(c, list) or any(type(x) is not int for x in c):
                    raise TypeError(f"a class must be a list of integers, not {c!r}")
        labels = [_partition_labels(n, parts) for parts in partitions]
    except OSError as exc:
        raise ValueError(f"scheme cache {path} cannot be read: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"scheme cache {path} is malformed: {exc!r}") from exc
    closed, coherent = _close_rows(np.array(labels, dtype=np.int64).reshape(len(labels), n))
    for flag, parts in zip(coherent.tolist(), partitions):
        if not flag:
            raise ValueError(f"scheme cache {path} holds a partition that is not coherent: {parts}")
    schemes = [CirculantScheme(row) for row in closed]
    keys = [_scheme_order(X) for X in schemes]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError(f"scheme cache {path} is not strictly increasing in corpus order")
    # checked last, so a file that is also malformed is named as malformed
    if data.get("version") != SCHEME_CACHE_VERSION:
        raise ValueError(
            f"scheme cache {path} has format version {data.get('version')!r}, expected "
            f"{SCHEME_CACHE_VERSION}; delete the file to rebuild it"
        )
    # every order >= 2 has the trivial scheme (rank 2) first and the discrete one (rank n) last
    if not schemes or schemes[0].rank != 2 or schemes[-1].rank != n:
        raise ValueError(f"scheme cache {path} does not start trivial and end discrete")
    return Corpus(n=n, schemes=schemes)


def _write_scheme_cache(corpus: Corpus) -> None:
    """Write to a file beside the cache file, then move it into place, so a
    reader never sees a partly written cache.  The text is built in one
    ``json.dumps`` call, which takes the C encoder; ``json.dump`` streams
    through the pure-Python one."""
    path = _cache_path(corpus.n)
    if path is None:
        return
    data = {
        "version": SCHEME_CACHE_VERSION,
        "schemes": [_label_lists(X.row) for X in corpus.schemes],
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise ValueError(f"scheme cache {path} cannot be written: {exc}") from exc


# -- dimension estimation ------------------------------------------------------------


@dataclass
class DimensionReport:
    connection_set: frozenset[int]
    order: int
    rank: int
    estimate: int | None
    bound: int
    searched_up_to: int
    witnesses: list[tuple[frozenset[frozenset[int]], tuple[int, ...], int]] = field(
        default_factory=list
    )

    @property
    def within_bound(self) -> bool:
        return self.estimate is not None and self.estimate <= self.bound


def _graph_labels(n: int, conns) -> np.ndarray:
    """(len(conns), n) label rows: row i marks the connection set conns[i]."""
    labels = np.zeros((len(conns), n), dtype=np.int64)
    for row, conn in zip(labels, conns):
        row[sorted(conn)] = 1
    return labels


def graph_scheme(n: int, conn: frozenset[int]) -> CirculantScheme:
    """The WL closure of the circulant graph on Z_n with connection set conn."""
    return close_labels(_graph_labels(n, [conn])[0])[0]


def prepare_analysis(corpus: Corpus) -> tuple[list[CirculantScheme], dict[frozenset[int], int]]:
    """The distinct schemes of the corpus graphs in first-seen order, and
    each graph's position among them.  The graphs are closed in one stack;
    each closed row is keyed by ``_partition_key``, its ranking by least
    difference, and one scheme is built per distinct key."""
    closed = _close_rows(_graph_labels(corpus.n, corpus.graphs))[0]
    position: dict[tuple[int, ...], int] = {}
    index = {
        conn: position.setdefault(_partition_key(row), len(position))
        for conn, row in zip(corpus.graphs, closed)
    }
    return [CirculantScheme(key) for key in position], index


def _estimate(
    X: CirculantScheme, candidates: list[tuple[CirculantScheme, AlgebraicIso]], max_m: int
) -> tuple[int | None, list[tuple[frozenset[frozenset[int]], tuple[int, ...], int]]]:
    """Smallest m <= max_m at which none of the candidates, the algebraic
    isomorphisms phi from X to a scheme b that no point isomorphism
    induces, survives m-dim WL refinement (None when max_m is too small),
    and one witness per survivor and level, labelled by b's partition key.

    A map that fails at level m is not rechecked at m+1 (equivalence is
    monotone down in m, and being induced does not depend on m)."""
    witnesses = []
    for m in range(2, max_m + 1):
        candidates = [
            (b, phi) for b, phi in candidates if wl_m_equivalent(X.cc, b.cc, phi.color_map, m)
        ]
        if not candidates:
            return m, witnesses
        witnesses += [(b.partition_key, phi.color_map, m) for b, phi in candidates]
    return None, witnesses


def _report(conn: frozenset[int], X: CirculantScheme, max_m: int, estimate, witnesses):
    return DimensionReport(
        connection_set=conn,
        order=X.n,
        rank=X.rank,
        estimate=estimate,
        bound=omega(X.n) + 3,
        searched_up_to=max_m,
        witnesses=list(witnesses),
    )


def estimate_dimension(conn: frozenset[int], corpus: Corpus, max_m: int = 4) -> DimensionReport:
    """The dimension estimate of one graph of the corpus: the smallest
    m <= max_m at which every refinement-surviving color map out of its
    scheme to a corpus scheme is induced by an isomorphism; None when max_m
    is too small.  The estimate depends only on the graph's scheme."""
    schemes, index = prepare_analysis(corpus)
    # a unit multiplier permutes the basis sets of every circulant scheme, so
    # conn closes to the scheme of the one corpus graph among its unit images
    n = corpus.n
    images = (frozenset(u * d % n for d in conn) for u in units(n))
    i = next((index[image] for image in images if image in index), None)
    if i is None:
        raise ValueError(f"connection set {sorted(conn)} is not in the corpus of order {n}")
    X = schemes[i]
    return _report(conn, X, max_m, *_estimate(X, _not_induced([X], schemes)[0], max_m))


def verify_main_theorem(
    orders, max_m: int = 4, directed: bool = False
) -> list[DimensionReport]:
    """One ``DimensionReport`` per graph of the given orders, estimated once
    per distinct scheme of each order from one walk over the algebraic
    isomorphisms among its schemes; the bound holds where every report is
    ``within_bound``."""
    reports = []
    for n in orders:
        corpus = enumerate_graphs(n, directed=directed)
        schemes, index = prepare_analysis(corpus)
        candidates = _not_induced(schemes, schemes)
        estimates = [_estimate(X, maps, max_m) for X, maps in zip(schemes, candidates)]
        reports += [_report(conn, schemes[i], max_m, *estimates[i]) for conn, i in index.items()]
    return reports


def summary_rows(reports: list[DimensionReport]) -> list[tuple]:
    return [
        (
            rep.order,
            "{" + ",".join(str(d) for d in sorted(rep.connection_set)) + "}",
            rep.rank,
            omega(rep.order),
            rep.estimate if rep.estimate is not None else f">{rep.searched_up_to}",
            rep.bound,
            len(rep.witnesses),
        )
        for rep in reports
    ]


def format_table(reports: list[DimensionReport]) -> str:
    header = ("order", "connectionSet", "rank", "Omega(n)", "estimate", "bound", "witnesses")
    rows = [header] + [tuple(str(v) for v in r) for r in summary_rows(reports)]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "".join("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n" for r in rows)


def format_csv(reports: list[DimensionReport]) -> str:
    lines = ["order,connectionSet,rank,Omega(n),estimate,bound,witnesses"]
    lines += [",".join([str(r[0]), f'"{r[1]}"', *map(str, r[2:])]) for r in summary_rows(reports)]
    return "\n".join(lines) + "\n"


# -- verification checks -------------------------------------------------------------


@dataclass
class CheckReport:
    """Counts and failure witnesses of one verification check: ``checked``
    counts the objects tested, ``extended`` the maps that extend (reduction
    only), and ``violations`` describes each failure."""

    checked: int = 0
    extended: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _iso_key(cc: CoherentConfig) -> tuple:
    """Order, rank and sorted valencies (on a circulant scheme, the counts of
    each color in row 0): equal on the two sides of any algebraic isomorphism."""
    return cc.n, cc.rank, tuple(sorted(cc.valencies.tolist()))


def _algebraic_isos(sources: list[CirculantScheme], targets: list[CirculantScheme]):
    """(a, b, phi) for every algebraic isomorphism phi from a source a to a
    target b, in order of a, then b.  Only the targets that share a's
    ``_iso_key`` are searched."""
    buckets: dict[tuple, list[CirculantScheme]] = {}
    for b in targets:
        buckets.setdefault(_iso_key(b.cc), []).append(b)
    for a in sources:
        for b in buckets.get(_iso_key(a.cc), []):
            for phi in enumerate_algebraic_isos(a.cc, b.cc):
                yield a, b, phi


def _induced_walk(sources: list[CirculantScheme], targets: list[CirculantScheme]):
    """(a, b, phi, induced) for every algebraic isomorphism phi from a
    source a to a target b; ``induced`` tells whether a point isomorphism
    induces phi (``is_induced``, the one place this module decides it)."""
    for a, b, phi in _algebraic_isos(sources, targets):
        yield a, b, phi, is_induced(a.cc, b.cc, phi)


def _not_induced(sources: list[CirculantScheme], targets: list[CirculantScheme]):
    """For each source a, in order, the (b, phi) of every algebraic
    isomorphism phi from a to a target b that no point isomorphism induces,
    from one ``_induced_walk``."""
    found: dict[int, list[tuple[CirculantScheme, AlgebraicIso]]] = {id(a): [] for a in sources}
    for a, b, phi, induced in _induced_walk(sources, targets):
        if not induced:
            found[id(a)].append((b, phi))
    return list(found.values())


def verify_muzychuk(schemes: list[CirculantScheme]) -> CheckReport:
    """Every algebraic isomorphism between schemes of one order is induced
    by a point isomorphism."""
    report = CheckReport()
    for a, _, phi, induced in _induced_walk(schemes, schemes):
        report.checked += 1
        if not induced:
            report.violations.append(f"n={a.n} map {phi.color_map} is not induced")
    return report


def verify_schur(schemes: list[CirculantScheme]) -> CheckReport:
    """Multiplication by every unit permutes the connection sets of every scheme."""
    report = CheckReport()
    for X in schemes:
        kept = unit_multipliers(X.row, X.row)[0]
        for u in units(X.n):
            report.checked += 1
            if u not in kept:
                report.violations.append(f"n={X.n} rank={X.rank}: unit {u} is not a multiplier")
    return report


def verify_discreteness(schemes: list[CirculantScheme]) -> CheckReport:
    """The point extension at the base tuple of every quasinormal scheme is
    discrete on every section equivalent to a principal one; ``checked``
    counts those sections."""
    report = CheckReport()
    for X in schemes:
        if not is_quasinormal(X):
            continue
        for label, discrete in section_discreteness_check(X, base_tuple(X)).items():
            report.checked += 1
            if not discrete:
                report.violations.append(f"n={X.n} rank={X.rank}: section {label} is not discrete")
    return report


def verify_oracle(schemes: list[CirculantScheme]) -> CheckReport:
    """The pebble-game oracle and 2-dim refinement agree on every algebraic
    isomorphism between schemes of one order; ``checked`` counts the runs.
    Past the oracle's point cap the first run raises CapExceededError."""
    report = CheckReport()
    for a, b, phi in _algebraic_isos(schemes, schemes):
        report.checked += 1
        table = pebble_game_oracle(a.cc, b.cc, phi.color_map, 2)
        if table.full_support != wl_m_equivalent(a.cc, b.cc, phi.color_map, 2):
            report.violations.append(f"n={a.n} map {phi.color_map}: oracle and refinement disagree")
    return report


def _first_singular_extension(X: CirculantScheme) -> tuple[Section, CirculantScheme]:
    """The smallest section of the first singular class of X, and the
    singular extension of X at it."""
    reps = [r for r in singular_classes(X) if r.is_singular]
    if not reps:
        raise ValueError("scheme has no singular class")
    sec = reps[0].smallest
    return sec, singular_extension(X, sec)


def verify_uniqueness(X: CirculantScheme) -> CheckReport:
    """Every algebraic automorphism of X, paired with one of the section of
    its singular extension, extends in exactly one way; ``checked`` counts
    the pairs, and each pair without a unique extension is a violation."""
    smallest, star = _first_singular_extension(X)
    sec = _section(star, smallest.upper, smallest.lower)
    report = CheckReport()
    for phi in enumerate_algebraic_isos(X.cc, X.cc):
        for psi in enumerate_algebraic_isos(sec.scheme.cc, sec.scheme.cc):
            report.checked += 1
            try:
                extend_algebraic_automorphism(X, star, phi, psi, sec)
            except AssertionError as exc:
                report.violations.append(
                    f"n={X.n} rank={X.rank}: map {phi.color_map} with {psi.color_map} "
                    f"on {sec.label()}: {exc}"
                )
    return report


def verify_reduction(X: CirculantScheme, m: int) -> CheckReport:
    """Every self-equivalence of X at level m must extend to one of the
    singular extension, and be (m-2)-extendable on the way."""
    star = _first_singular_extension(X)[1]
    star_autos = enumerate_algebraic_isos(star.cc, star.cc)
    report = CheckReport()
    for phi in enumerate_algebraic_isos(X.cc, X.cc):
        if not wl_m_equivalent(X.cc, X.cc, phi.color_map, m):
            continue
        report.checked += 1
        if not is_m_extendable(phi, m - 2):
            report.violations.append(
                f"map {phi.color_map} equivalent at m={m} but not {m - 2}-extendable"
            )
        if any(
            _extends_scheme_map(X, star, phi, cand)
            and wl_m_equivalent(star.cc, star.cc, cand.color_map, m)
            for cand in star_autos
        ):
            report.extended += 1
        else:
            report.violations.append(
                f"map {phi.color_map} does not extend to the singular extension at m={m}"
            )
    return report
