"""Corpus enumeration and WL-dimension estimation for circulant graphs.

The dimension of a graph with respect to the corpus of its order is the
smallest m >= 2 at which every color-preserving correspondence to a corpus
member that survives m-dim WL refinement is realized by an actual point
isomorphism.  Graphs are deduplicated under the unit-multiplier action
only, so isomorphism collisions across different multiplier classes stay
observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .algebra import (
    AlgebraicIso,
    CapExceededError,
    enumerate_algebraic_isos,
    find_isomorphism,
    is_m_extendable,
)
from .circulant import (
    CirculantScheme,
    _extends_scheme_map,
    from_connection_partition,
    omega,
    singular_classes,
    singular_extension,
    units,
)
from .wl import wl_m_equivalent

DEFAULT_UNDIRECTED_CAP = 20
DEFAULT_DIRECTED_CAP = 12
DEFAULT_SCHEME_CAP = 16


@dataclass
class Corpus:
    """Connection sets (and optionally schemes) of one order, up to unit multipliers."""

    n: int
    graphs: list[frozenset[int]] = field(default_factory=list)
    schemes: list[CirculantScheme] = field(default_factory=list)


def _unit_canonical(n: int, conn: frozenset[int]) -> frozenset[int]:
    best = None
    for u in units(n):
        image = tuple(sorted((u * d) % n for d in conn))
        if best is None or image < best:
            best = image
    return frozenset(best)


def enumerate_graphs(
    n: int,
    directed: bool = False,
    cap_undirected: int = DEFAULT_UNDIRECTED_CAP,
    cap_directed: int = DEFAULT_DIRECTED_CAP,
) -> Corpus:
    """All circulant connection sets of one order up to unit multipliers."""
    cap = cap_directed if directed else cap_undirected
    if n > cap:
        raise CapExceededError(f"graph enumeration capped at n <= {cap}")
    if n == 1:
        return Corpus(n=1, graphs=[frozenset()])
    if directed:
        ground = list(range(1, n))
        seen = set()
        out = []
        for size in range(0, len(ground) + 1):
            for combo in combinations(ground, size):
                canon = _unit_canonical(n, frozenset(combo))
                if canon not in seen:
                    seen.add(canon)
                    out.append(canon)
        return Corpus(n=n, graphs=sorted(out, key=sorted))
    pairs = sorted({frozenset({d, (n - d) % n}) for d in range(1, n)}, key=min)
    seen = set()
    out = []
    for size in range(0, len(pairs) + 1):
        for combo in combinations(pairs, size):
            conn = frozenset().union(*combo) if combo else frozenset()
            canon = _unit_canonical(n, conn)
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
    return Corpus(n=n, graphs=sorted(out, key=sorted))


def burnside_graph_count(n: int, directed: bool = False) -> int:
    """Independent orbit count of connection sets under the unit action."""
    if n == 1:
        return 1
    us = units(n)
    total = 0
    for u in us:
        gens = [u] if directed else [u, n - 1]
        orbits = _orbit_count(n, gens)
        total += 2**orbits
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


# -- scheme enumeration -----------------------------------------------------------


def scheme_unit_image(X: CirculantScheme, u: int) -> CirculantScheme:
    image = [frozenset((u * d) % X.n for d in conn) for conn in X.connection_sets]
    scheme, coherent = from_connection_partition(X.n, image)
    assert coherent, "unit image of a coherent partition must stay coherent"
    return scheme


def _join(a: CirculantScheme, b: CirculantScheme) -> CirculantScheme:
    pieces = []
    for ca in a.connection_sets:
        for cb in b.connection_sets:
            inter = ca & cb
            if inter:
                pieces.append(inter)
    return from_connection_partition(a.n, pieces)[0]


def enumerate_schemes(n: int, cap: int = DEFAULT_SCHEME_CAP) -> Corpus:
    """All circulant schemes of order n.

    Generated as the join-closure of the single-set refinements: every
    scheme is the join of the closures of its own basis sets, and the set
    of schemes is closed under joins, so iterating pairwise joins from all
    closures WL(Cay(Z_n, C)) reaches exactly the schemes of order n.
    Results are memoized on disk when CIRCULANTWL_CACHE points to a
    directory.
    """
    if n > cap:
        raise CapExceededError(f"scheme enumeration capped at n <= {cap}")
    if n == 1:
        return Corpus(n=1, schemes=[CirculantScheme.trivial(1)])
    cached = _read_scheme_cache(n)
    if cached is not None:
        return cached
    reps = set()
    for size in range(0, n):
        for combo in combinations(range(1, n), size):
            reps.add(_unit_canonical(n, frozenset(combo)))
    found: set[CirculantScheme] = set()
    for conn in reps:
        found.add(graph_scheme(n, conn))
    for scheme in list(found):
        for u in units(n):
            found.add(scheme_unit_image(scheme, u))
    frontier = set(found)
    while frontier:
        new: set[CirculantScheme] = set()
        for a in frontier:
            for b in found:
                j = _join(a, b)
                if j not in found and j not in new:
                    new.add(j)
        found |= new
        frontier = new
    ordered = sorted(found, key=lambda s: (s.rank, sorted(sorted(c) for c in s.connection_sets)))
    corpus = Corpus(n=n, schemes=ordered)
    _write_scheme_cache(corpus)
    return corpus


def _cache_path(n: int):
    import os

    root = os.environ.get("CIRCULANTWL_CACHE")
    if not root:
        return None
    return os.path.join(root, f"schemes_{n}.json")


def _read_scheme_cache(n: int) -> Corpus | None:
    import json
    import os

    path = _cache_path(n)
    if path is None or not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    schemes = [
        from_connection_partition(n, [set(c) for c in parts])[0]
        for parts in data["schemes"]
    ]
    return Corpus(n=n, schemes=schemes)


def _write_scheme_cache(corpus: Corpus) -> None:
    import json
    import os

    path = _cache_path(corpus.n)
    if path is None:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = {
        "schemes": [
            sorted(sorted(c) for c in s.connection_sets) for s in corpus.schemes
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def brute_force_schemes(n: int) -> list[CirculantScheme]:
    """Oracle path: filter every partition of Z_n minus 0 through validation."""
    if n == 1:
        return [CirculantScheme.trivial(1)]
    elements = list(range(1, n))
    out = []

    def partitions(rest):
        if not rest:
            yield []
            return
        head, tail = rest[0], rest[1:]
        for sub in partitions(tail):
            for i in range(len(sub)):
                yield sub[:i] + [sub[i] | {head}] + sub[i + 1 :]
            yield sub + [{head}]

    for part in partitions(elements):
        scheme, coherent = from_connection_partition(n, part)
        if coherent:
            out.append(scheme)
    return sorted(
        set(out), key=lambda s: (s.rank, sorted(sorted(c) for c in s.connection_sets))
    )


# -- dimension estimation ------------------------------------------------------------


@dataclass
class DimensionReport:
    connection_set: frozenset[int]
    order: int
    rank: int
    estimate: int | None
    bound: int
    searched_up_to: int
    witnesses: list[tuple[frozenset[int], tuple[int, ...], int]] = field(
        default_factory=list
    )

    @property
    def within_bound(self) -> bool:
        return self.estimate is not None and self.estimate <= self.bound


class BoundViolation(AssertionError):
    """An estimated dimension exceeded the proven bound."""


class _OrderAnalysis:
    """Shared pairwise data of all schemes of one order."""

    def __init__(
        self, n: int, schemes: list[CirculantScheme], index: dict[frozenset[int], int]
    ):
        self.n = n
        self.schemes = schemes
        self.index = index
        self._isos: dict[tuple[int, int], list[AlgebraicIso]] = {}
        self._induced: dict[tuple[int, int, tuple[int, ...]], bool] = {}

    def isos(self, i: int, j: int) -> list[AlgebraicIso]:
        if (i, j) not in self._isos:
            self._isos[(i, j)] = enumerate_algebraic_isos(
                self.schemes[i].cc, self.schemes[j].cc
            )
        return self._isos[(i, j)]

    def induced(self, i: int, j: int, phi: AlgebraicIso) -> bool:
        key = (i, j, phi.color_map)
        if key not in self._induced:
            self._induced[key] = (
                find_isomorphism(self.schemes[i].cc, self.schemes[j].cc, phi)
                is not None
            )
        return self._induced[key]


def graph_scheme(n: int, conn: frozenset[int]) -> CirculantScheme:
    parts = [set(conn)] if conn else []
    rest = set(range(1, n)) - set(conn)
    parts.extend([rest] if rest else [])
    return from_connection_partition(n, parts)[0]


def estimate_dimension(
    conn: frozenset[int],
    corpus: Corpus,
    max_m: int = 4,
    analysis: _OrderAnalysis | None = None,
) -> DimensionReport:
    """Smallest m <= max_m at which every refinement-surviving color map to a
    corpus member is induced by an isomorphism; None when max_m is too small.

    A pair that fails at level m is only rechecked at m+1 (equivalence is
    monotone down in m, and being induced does not depend on m)."""
    n = corpus.n
    if analysis is None:
        analysis = prepare_analysis(corpus)
    schemes = analysis.schemes
    # a unit multiplier permutes the basis sets of every circulant scheme,
    # so conn closes to the scheme of its unit-canonical representative
    i = analysis.index.get(_unit_canonical(n, conn))
    if i is None:
        raise ValueError(f"connection set {sorted(conn)} is not in the corpus of order {n}")
    bound = omega(n) + 3

    candidates: list[tuple[int, AlgebraicIso]] = []
    for j in range(len(schemes)):
        for phi in analysis.isos(i, j):
            if not analysis.induced(i, j, phi):
                candidates.append((j, phi))
    witnesses: list[tuple[frozenset[int], tuple[int, ...], int]] = []
    estimate = None
    m = 2
    while m <= max_m:
        still = []
        for j, phi in candidates:
            if wl_m_equivalent(schemes[i].cc, schemes[j].cc, phi.color_map, m):
                still.append((j, phi))
                witnesses.append(
                    (frozenset(min(schemes[j].connection_sets, key=sorted)), phi.color_map, m)
                )
        if not still:
            estimate = m
            break
        candidates = still
        m += 1
    return DimensionReport(
        connection_set=conn,
        order=n,
        rank=schemes[i].rank,
        estimate=estimate,
        bound=bound,
        searched_up_to=max_m,
        witnesses=witnesses,
    )


def prepare_analysis(corpus: Corpus) -> _OrderAnalysis:
    schemes: list[CirculantScheme] = []
    position: dict[CirculantScheme, int] = {}
    index: dict[frozenset[int], int] = {}
    for conn in corpus.graphs:
        s = graph_scheme(corpus.n, conn)
        if s not in position:
            position[s] = len(schemes)
            schemes.append(s)
        index[conn] = position[s]
    return _OrderAnalysis(corpus.n, schemes, index)


def verify_main_theorem(
    orders, max_m: int = 4, directed: bool = False
) -> list[DimensionReport]:
    """Estimate the dimension of every graph of the given orders and check
    the estimates against the bound; a violation raises immediately."""
    reports = []
    for n in orders:
        corpus = enumerate_graphs(n, directed=directed)
        analysis = prepare_analysis(corpus)
        for conn in corpus.graphs:
            rep = estimate_dimension(conn, corpus, max_m=max_m, analysis=analysis)
            if rep.estimate is not None and rep.estimate > rep.bound:
                raise BoundViolation(
                    f"n={n} conn={sorted(conn)}: estimate {rep.estimate} exceeds bound {rep.bound}"
                )
            reports.append(rep)
    return reports


def summary_rows(reports: list[DimensionReport]) -> list[tuple]:
    rows = []
    for rep in reports:
        rows.append(
            (
                rep.order,
                "{" + ",".join(str(d) for d in sorted(rep.connection_set)) + "}",
                rep.rank,
                omega(rep.order),
                rep.estimate if rep.estimate is not None else f">{rep.searched_up_to}",
                rep.bound,
                len(rep.witnesses),
            )
        )
    return rows


def format_table(reports: list[DimensionReport]) -> str:
    header = ("order", "connectionSet", "rank", "Omega(n)", "estimate", "bound", "witnesses")
    rows = [header] + [tuple(str(v) for v in r) for r in summary_rows(reports)]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def format_csv(reports: list[DimensionReport]) -> str:
    lines = ["order,connectionSet,rank,Omega(n),estimate,bound,witnesses"]
    for r in summary_rows(reports):
        conn = r[1]
        lines.append(
            ",".join([str(r[0]), '"' + conn + '"'] + [str(v) for v in r[2:]])
        )
    return "\n".join(lines) + "\n"


# -- reduction verification -------------------------------------------------------------


@dataclass
class ReductionReport:
    checked: int = 0
    extended: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_reduction(X: CirculantScheme, m: int) -> ReductionReport:
    """Every self-equivalence of X at level m must extend to one of the
    singular extension, and be (m-2)-extendable on the way."""
    reps = [r for r in singular_classes(X) if r.is_singular]
    if not reps:
        raise ValueError("scheme has no singular class")
    star = singular_extension(X, reps[0].smallest)
    autos = enumerate_algebraic_isos(X.cc, X.cc)
    star_autos = enumerate_algebraic_isos(star.cc, star.cc)
    report = ReductionReport()
    for phi in autos:
        if not wl_m_equivalent(X.cc, X.cc, phi.color_map, m):
            continue
        report.checked += 1
        if not is_m_extendable(phi, m - 2):
            report.violations.append(
                f"map {phi.color_map} equivalent at m={m} but not {m - 2}-extendable"
            )
        found = False
        for cand in star_autos:
            if not _extends_scheme_map(X, star, phi, cand):
                continue
            if wl_m_equivalent(star.cc, star.cc, cand.color_map, m):
                found = True
                break
        if found:
            report.extended += 1
        else:
            report.violations.append(
                f"map {phi.color_map} does not extend to the singular extension at m={m}"
            )
    return report
