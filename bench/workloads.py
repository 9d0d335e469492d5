"""The benchmark's four workloads.

A workload's ``build`` makes its inputs from the seed (this is the set-up
that ``setup_s`` times) and ``ops`` lists one round of operations.  Each
operation builds its library objects afresh, because schemes and
configurations cache derived data on themselves and a reused object would
make later rounds cheaper than the first.  Every library call goes through
a module attribute (``circulant.is_quasinormal``, not a name imported into
this file), so the traced run sees it.

The seed picks free choices only: point relabellings and unit-multiplier
images.  None of them changes an answer or the amount of work.  The
operations of a round run in a fixed order, so that the memory each leaves
behind, and with it the peak RSS, is the same in every run; ``main_bound``
and ``scheme_enum`` take a list of orders and have no free choice.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from circulantwl import algebra, circulant, cli, dimension, wl

HERE = Path(__file__).resolve().parent


class CacheNotFresh(RuntimeError):
    """A cold enumeration would have read a cache file left by another run."""


@dataclass
class Op:
    key: str
    weight: int  # operations this call counts for in ``attempted``
    run: Callable[[], object]
    check: Callable[[object], list[str]]


class Workload:
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def build(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


# -- main_bound -----------------------------------------------------------------


class MainBound(Workload):
    """``verify --theorem main`` over the undirected corpus, one order per
    ``cli.run`` call so that each order is timed on its own."""

    orders = range(4, 18)

    def build(self) -> None:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.run(["verify", "--theorem", "main", "--orders", "4..6"], out=io.StringIO())
        self.rows = {n: checks.undirected_class_count(n) for n in self.orders}

    def ops(self) -> list[Op]:
        return [
            Op(f"verify:{n}", self.rows[n], lambda n=n: self._verify(n), lambda r, n=n: self._check(n, r))
            for n in self.orders
        ]

    @staticmethod
    def _verify(n: int):
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["verify", "--theorem", "main", "--orders", f"{n}..{n}"], out=out)
        if code != 0:
            raise RuntimeError(f"verify --orders {n}..{n} exited {code}")
        return out.getvalue()

    @staticmethod
    def _check(n: int, text: str) -> list[str]:
        return checks.check_main_rows(n, checks.parse_main_table(text))


# -- scheme_enum ----------------------------------------------------------------


class SchemeEnum(Workload):
    """Cold enumeration into a fresh cache directory, then the warm read of
    the file it wrote.  13 is the prime order."""

    orders = (12, 13)

    def build(self) -> None:
        with _cache_env(None):
            dimension.enumerate_schemes(6)

    def ops(self) -> list[Op]:
        return [
            Op(f"enumerate:{n}", 1, lambda n=n: self._enumerate(n), lambda r, n=n: self._check(n, r))
            for n in self.orders
        ]

    def _enumerate(self, n: int):
        cache = Path(tempfile.mkdtemp(prefix=f"cache-{n}-", dir=self.workdir))
        with _cache_env(cache):
            if any(cache.iterdir()):
                raise CacheNotFresh(f"{cache} is not empty before a cold enumeration")
            cold = dimension.enumerate_schemes(n)
            if not (cache / f"schemes_{n}.json").exists():
                raise RuntimeError("cold enumeration wrote no cache file")
            if self.tracer is not None:
                self.tracer.warm = True
            try:
                warm = dimension.enumerate_schemes(n)
            finally:
                if self.tracer is not None:
                    self.tracer.warm = False
        return cold, warm

    @staticmethod
    def _check(n: int, result) -> list[str]:
        cold, warm = ([checks.as_partition(X.connection_sets) for X in c.schemes] for c in result)
        fails = checks.check_schemes(n, cold) + checks.check_warm_equals_cold(n, cold, warm)
        if checks.factorize(n) == {n: 1}:
            fails += checks.check_prime_schemes(n, cold)
        return fails


@contextlib.contextmanager
def _cache_env(path):
    """Point CIRCULANTWL_CACHE at ``path`` (None: unset) for the block."""
    if path is None:
        os.environ.pop("CIRCULANTWL_CACHE", None)
    else:
        os.environ["CIRCULANTWL_CACHE"] = str(path)
    try:
        yield
    finally:
        os.environ.pop("CIRCULANTWL_CACHE", None)


# -- reduction --------------------------------------------------------------------


class Reduction(Workload):
    """Reduction checks at m = 2 and 3 and the unique extension of every
    (phi, psi) pair, on a fixed list of non-quasinormal schemes, each
    replaced by its image under a seeded unit multiplier."""

    # At least two samples of each operation; one round takes most of a run.
    min_rounds = 2

    def build(self) -> None:
        rng = random.Random(self.seed)
        entries = json.loads((HERE / "reduction_schemes.json").read_text(encoding="utf-8"))
        self.schemes = []
        for entry in entries:
            n = entry["n"]
            u = rng.choice(checks.unit_group(n))
            classes = [sorted(u * d % n for d in c) for c in entry["classes"]]
            circulant.from_connection_partition(n, classes)  # rejects a corrupt list early
            self.schemes.append((n, classes))

    def ops(self) -> list[Op]:
        out = []
        for i, (n, classes) in enumerate(self.schemes):
            label = f"n={n} #{i}"
            out.append(Op(f"extend+m2:{i}", 1, lambda c=classes, n=n: self._extend_m2(n, c),
                          lambda r, lab=label: self._check_m2(lab, r)))
            out.append(Op(f"m3:{i}", 1, lambda c=classes, n=n: self._m3(n, c),
                          lambda r, lab=label: self._check_m3(lab, r)))
        return out

    @staticmethod
    def _extend_m2(n: int, classes):
        X = circulant.from_connection_partition(n, classes)[0]
        quasinormal = circulant.is_quasinormal(X)
        rep = next(r for r in circulant.singular_classes(X) if r.is_singular)
        star = circulant.singular_extension(X, rep.smallest)
        upper, lower = rep.smallest.upper, rep.smallest.lower
        sec = circulant.Section(upper, lower, circulant.section_scheme(star, upper, lower))
        pairs = 0
        for phi in algebra.enumerate_algebraic_isos(X.cc, X.cc):
            for psi in algebra.enumerate_algebraic_isos(sec.scheme.cc, sec.scheme.cc):
                circulant.extend_algebraic_automorphism(X, star, phi, psi, sec)
                pairs += 1
        return quasinormal, pairs, dimension.verify_reduction(X, 2)

    @staticmethod
    def _m3(n: int, classes):
        X = circulant.from_connection_partition(n, classes)[0]
        return dimension.verify_reduction(X, 3)

    @staticmethod
    def _check_m2(label: str, result) -> list[str]:
        quasinormal, pairs, rep = result
        fails = [f"{label}: listed scheme is quasinormal"] if quasinormal else []
        if pairs < 1:
            fails.append(f"{label}: no (phi, psi) pair was extended")
        return fails + checks.check_reduction(f"{label} m=2", rep.checked, rep.extended, rep.violations)

    @staticmethod
    def _check_m3(label: str, rep) -> list[str]:
        return checks.check_reduction(f"{label} m=3", rep.checked, rep.extended, rep.violations)


# -- wl_ladder --------------------------------------------------------------------


def _cayley_arcs(n: int, conn, perm) -> np.ndarray:
    """0/1 arcs of Cay(Z_n, conn) with point a relabelled perm[a]."""
    arcs = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for d in conn:
            arcs[perm[a], perm[(a + d) % n]] = 1
    return arcs


def _srg_arcs(gens, perm) -> np.ndarray:
    """0/1 arcs of a Cayley graph on Z_4 x Z_4, point (i, j) labelled perm[4i + j]."""
    arcs = np.zeros((16, 16), dtype=np.int64)
    for p in range(16):
        i, j = divmod(p, 4)
        for gi, gj in gens:
            arcs[perm[p], perm[(i + gi) % 4 * 4 + (j + gj) % 4]] = 1
    return arcs


ROOK = [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]
SHRIKHANDE = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
DENSE = {64: (1, 3, 61, 63), 128: (1, 3, 125, 127)}


def _kind_map(cc_a, arcs_a, cc_b, arcs_b) -> tuple[int, ...]:
    """Colour map sending diagonal, arc and non-arc classes to their kind."""
    def kinds(cc, arcs):
        return {c: (a == b, int(arcs[a, b])) for c, (a, b) in enumerate(cc.representative)}

    target = {kind: c for c, kind in kinds(cc_b, arcs_b).items()}
    return tuple(target[kind] for _, kind in sorted(kinds(cc_a, arcs_a).items()))


class WLLadder(Workload):
    """m-ary WL equivalence at m = 2, 3, 4 on cycle schemes of orders 16
    (rank 9) and 12 (rank 7), the rook's graph against the Shrikhande graph,
    and dense closures of Cay(Z_n, {1, 3, -3, -1}) at n = 64 and 128."""

    ladder = {16: (2, 3), 12: (2, 3, 4)}

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.maps = {}
        for n in self.ladder:
            X = dimension.graph_scheme(n, frozenset({1, n - 1}))
            u = rng.choice(checks.unit_group(n))
            unit_map = tuple(X.color_of_difference(u * min(c)) for c in X.connection_sets)
            swap = list(range(X.rank))
            a, b = X.color_of_difference(1), X.color_of_difference(n // 2)
            swap[a], swap[b] = b, a
            self.maps[n] = (X.cc, unit_map, tuple(swap))
        rook = _srg_arcs(ROOK, rng.sample(range(16), 16))
        shrikhande = _srg_arcs(SHRIKHANDE, rng.sample(range(16), 16))
        cc_rook, cc_shrikhande = wl.wl_closure(rook), wl.wl_closure(shrikhande)
        self.srg = (cc_rook, cc_shrikhande, _kind_map(cc_rook, rook, cc_shrikhande, shrikhande))
        self.dense = {}
        for n, conn in DENSE.items():
            perm = rng.sample(range(n), n)
            self.dense[n] = (conn, perm, _cayley_arcs(n, conn, perm))

    def ops(self) -> list[Op]:
        out = []
        for n, ms in self.ladder.items():
            cc, unit_map, swap = self.maps[n]
            for m in ms:
                out.append(self._equivalence(f"unit-map:{n}:m{m}", cc, cc, unit_map, m, True))
            out.append(self._equivalence(f"swap-map:{n}:m2", cc, cc, swap, 2, False))
        cc_rook, cc_shrikhande, kind_map = self.srg
        for m, want in ((2, True), (3, False)):
            out.append(self._equivalence(f"rook-shrikhande:m{m}", cc_rook, cc_shrikhande, kind_map, m, want))
        for n, (conn, perm, arcs) in self.dense.items():
            out.append(Op(f"closure:{n}", 1, lambda arcs=arcs: wl.wl_closure(arcs),
                          lambda cc, n=n, conn=conn, perm=perm: checks.check_dense_closure(
                              n, conn, perm, cc.colors.tolist())))
        return out

    @staticmethod
    def _equivalence(key, cc_a, cc_b, cmap, m, want) -> Op:
        return Op(key, 1, lambda: wl.wl_m_equivalent(cc_a, cc_b, cmap, m),
                  lambda got: checks.check_equivalence(key, got, want))


WORKLOADS = {
    "main_bound": MainBound,
    "scheme_enum": SchemeEnum,
    "reduction": Reduction,
    "wl_ladder": WLLadder,
}
