"""Command-line interface.

Every verb maps to one library entry point; reports go to standard output
(byte-deterministic for fixed inputs), run metadata to standard error.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import circulant, dimension, io, wl
from .algebra import (
    AlgebraicIso,
    CapExceededError,
    enumerate_algebraic_isos,
    extendable_at,
    find_isomorphism,
)
from .core import validate
from .refine import MemoryCapError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulantwl",
        description="coherent configurations and WL analysis of circulant graphs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_input(p, scheme=True, graph=True, config=False):
        if scheme:
            p.add_argument("--scheme", help="path to a scheme file")
        if graph:
            p.add_argument("--graph", help="inline graph spec n=..;S=..")
        if config:
            p.add_argument("--config", help="path to a configuration file")

    p = sub.add_parser("close", help="WL closure of a graph")
    add_input(p, scheme=False, graph=True, config=True)
    p.add_argument("--file", help="path to a file holding an inline graph spec")

    p = sub.add_parser("validate", help="check the coherence axioms")
    add_input(p, scheme=True, graph=True, config=True)

    p = sub.add_parser("analyze", help="summary of a circulant scheme")
    add_input(p)
    p.add_argument("--normality-cap", type=int, default=20)

    p = sub.add_parser("sections", help="sections and projective equivalence classes")
    add_input(p)

    p = sub.add_parser("singular", help="singular class reports")
    add_input(p)

    p = sub.add_parser("extend", help="singular extension of a scheme")
    add_input(p)
    p.add_argument("--section", help="U/L as orders, e.g. 4/1 (default: first singular)")

    p = sub.add_parser("wlm", help="WL_m equivalence of two inputs")
    add_input(p)
    p.add_argument("--scheme2", help="second scheme file")
    p.add_argument("--graph2", help="second inline graph")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--tuple-cap", type=int, default=10**8)

    p = sub.add_parser("dim", help="WL-dimension estimate within the order corpus")
    add_input(p, scheme=False)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--directed", action="store_true")

    p = sub.add_parser("enumerate", help="corpus of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--schemes", action="store_true", help="schemes instead of graphs")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--cap", type=int, help="raise the enumeration order cap")

    p = sub.add_parser("iso", help="algebraic isomorphisms between two schemes")
    add_input(p)
    p.add_argument("--scheme2")
    p.add_argument("--graph2")
    p.add_argument("--find", action="store_true", help="also search point isomorphisms")

    p = sub.add_parser("multiplier", help="multiplier of an algebraic automorphism")
    add_input(p)
    p.add_argument("--unit", type=int, help="unit of Z_n inducing the color map")
    p.add_argument("--phi", help='JSON color map {"map": [...]}')

    p = sub.add_parser("verify", help="run a verification harness")
    p.add_argument(
        "--theorem",
        required=True,
        choices=["main", "reduction", "muzychuk", "schur", "discreteness", "oracle", "uniqueness"],
    )
    p.add_argument("--orders", required=True, help="range A..B or single order")
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--directed", action="store_true")
    return parser


def _load_scheme(args) -> circulant.CirculantScheme:
    if getattr(args, "scheme", None):
        return io.parse_scheme(_read(args.scheme))
    if getattr(args, "graph", None):
        n, conn = io.parse_connection_set(args.graph)
        return dimension.graph_scheme(n, conn)
    raise io.FormatError("need an input: --scheme or --graph")


def _load_second(args) -> circulant.CirculantScheme:
    if getattr(args, "scheme2", None):
        return io.parse_scheme(_read(args.scheme2))
    if getattr(args, "graph2", None):
        n, conn = io.parse_connection_set(args.graph2)
        return dimension.graph_scheme(n, conn)
    raise io.FormatError("need a second input: --scheme2 or --graph2")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise io.FormatError(f"cannot read {path}: {exc}") from exc


def _parse_orders(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        orders = list(range(int(lo), int(hi) + 1))
        if not orders:
            raise io.FormatError(f"empty order range {text}")
        return orders
    return [int(text)]


def _cmd_close(args, out) -> int:
    if args.config:
        cc = io.parse_config(_read(args.config))
        closed = wl.wl_closure(cc.colors)
        out.write(io.dump_config(closed))
        return 0
    spec = args.graph or (_read(args.file).strip() if args.file else None)
    if spec is None:
        raise io.FormatError("need --graph, --file or --config")
    n, arcs = io.parse_graph_spec(spec)
    closed = wl.wl_closure(arcs)
    try:
        scheme = circulant.CirculantScheme(closed)
        out.write(io.dump_scheme(scheme))
    except ValueError:
        out.write(io.dump_config(closed))
    return 0


def _cmd_validate(args, out) -> int:
    if getattr(args, "config", None):
        cc = io.parse_config(_read(args.config))
    elif args.scheme:
        scheme, coherent = io.parse_scheme_lenient(_read(args.scheme))
        if not coherent:
            out.write("not coherent; closure rank %d\n" % scheme.rank)
            return 0
        cc = scheme.cc
    else:
        n, arcs = io.parse_graph_spec(args.graph)
        cc = wl.wl_closure(arcs)
    report = validate(cc)
    if report.valid:
        out.write(f"valid, rank {cc.rank}\n")
    else:
        for axiom, witness, detail in report.violations:
            out.write(f"violation {axiom} witness={witness}: {detail}\n")
    return 0


def _cmd_analyze(args, out) -> int:
    X = _load_scheme(args)
    out.write(f"n={X.n}\n")
    out.write(f"rank={X.rank}\n")
    out.write(f"homogeneous={X.cc.is_homogeneous}\n")
    out.write(
        "xgroups=" + ",".join(str(g.order) for g in circulant.xgroup_lattice(X)) + "\n"
    )
    out.write(f"radical={circulant.scheme_radical(X).order}\n")
    try:
        out.write(f"normal={circulant.is_normal(X, cap=args.normality_cap)}\n")
    except CapExceededError:
        out.write("normal=unknown (cap exceeded; raise --normality-cap)\n")
    out.write(f"quasinormal={circulant.is_quasinormal(X)}\n")
    singular = [r for r in circulant.singular_classes(X) if r.is_singular]
    out.write(f"singular_classes={len(singular)}\n")
    out.write(
        "base_tuple=" + ",".join(str(p) for p in circulant.base_tuple(X)) + "\n"
    )
    return 0


def _cmd_sections(args, out) -> int:
    X = _load_scheme(args)
    for i, cls in enumerate(circulant.proj_equivalence_classes(X)):
        for sec in cls:
            out.write(
                f"class={i} section={sec.label()} order={sec.order} "
                f"trivial={sec.is_trivial} principal={sec.is_principal}\n"
            )
    return 0


def _cmd_singular(args, out) -> int:
    X = _load_scheme(args)
    reports = circulant.singular_classes(X)
    if not reports:
        out.write("no trivial classes of order > 2\n")
        return 0
    for rep in reports:
        out.write(
            f"order={rep.order} singular={rep.is_singular} "
            f"smallest={rep.smallest.label()} largest={rep.largest.label()} "
            f"members={','.join(s.label() for s in rep.sections)}\n"
        )
    return 0


def _cmd_extend(args, out) -> int:
    X = _load_scheme(args)
    singular = [r for r in circulant.singular_classes(X) if r.is_singular]
    if args.section:
        upper, lower = (int(v) for v in args.section.split("/"))
        sec = next(
            (
                s
                for r in singular
                for s in r.sections
                if s.upper.order == upper and s.lower.order == lower
            ),
            None,
        )
        if sec is None:
            raise io.FormatError(f"{args.section} is not a section of a singular class")
    else:
        if not singular:
            raise io.FormatError("scheme has no singular class")
        sec = singular[0].smallest
    star = circulant.singular_extension(X, sec)
    out.write(io.dump_scheme(star))
    return 0


def _cmd_wlm(args, out) -> int:
    a = _load_scheme(args)
    b = _load_second(args)
    isos = enumerate_algebraic_isos(a.cc, b.cc)
    if not isos:
        out.write("no algebraic isomorphisms\n")
        return 0
    for phi in isos:
        verdict = wl.wl_m_equivalent(a.cc, b.cc, phi.color_map, args.m, cap=args.tuple_cap)
        out.write(f"phi={json.dumps(list(phi.color_map))} m={args.m} equivalent={verdict}\n")
    return 0


def _cmd_dim(args, out) -> int:
    n, conn = io.parse_connection_set(args.graph)
    corpus = dimension.enumerate_graphs(n, directed=args.directed)
    rep = dimension.estimate_dimension(conn, corpus, max_m=args.max_m)
    out.write(dimension.format_table([rep]))
    return 0


def _cmd_enumerate(args, out) -> int:
    try:
        if args.schemes:
            kw = {"cap": args.cap} if args.cap else {}
            corpus = dimension.enumerate_schemes(args.order, **kw)
            for s in corpus.schemes:
                sets = sorted(s.connection_sets, key=lambda c: sorted(c))
                out.write(
                    "; ".join(",".join(str(d) for d in sorted(c)) for c in sets) + "\n"
                )
        else:
            kw = (
                {"cap_directed": args.cap, "cap_undirected": args.cap}
                if args.cap
                else {}
            )
            corpus = dimension.enumerate_graphs(args.order, directed=args.directed, **kw)
            for g in corpus.graphs:
                out.write("S=" + ",".join(str(d) for d in sorted(g)) + "\n")
    except CapExceededError as exc:
        raise CapExceededError(f"{exc}; raise it with --cap") from exc
    return 0


def _cmd_iso(args, out) -> int:
    a = _load_scheme(args)
    b = _load_second(args)
    isos = enumerate_algebraic_isos(a.cc, b.cc)
    if not isos:
        out.write("no algebraic isomorphisms\n")
        return 0
    for phi in isos:
        line = f"phi={json.dumps(list(phi.color_map))}"
        if args.find:
            f = find_isomorphism(a.cc, b.cc, phi)
            line += f" f={json.dumps(list(f)) if f is not None else 'none'}"
        out.write(line + "\n")
    return 0


def _cmd_multiplier(args, out) -> int:
    X = _load_scheme(args)
    if args.unit is not None:
        cmap = [0] * X.rank
        for d in range(X.n):
            cmap[X.color_of_difference(d)] = X.color_of_difference(args.unit * d % X.n)
        phi = AlgebraicIso(X.cc, X.cc, tuple(cmap))
    elif args.phi:
        phi = AlgebraicIso.from_json(X.cc, X.cc, args.phi)
    else:
        raise io.FormatError("need --unit or --phi")
    x = circulant.base_tuple(X)
    ext = extendable_at(phi, x)
    if ext is None:
        out.write("not extendable at the base tuple\n")
        return 0
    mult = circulant.extract_multiplier(X, phi, x, ext.x_image)
    for sec, perm in mult.entries:
        unit = perm[1] if sec.order > 1 else 1
        out.write(f"section={sec.label()} unit={unit}\n")
    return 0


def _verify_main_order(task) -> list:
    n, max_m, directed = task
    return dimension.verify_main_theorem([n], max_m=max_m, directed=directed)


def _cmd_verify(args, out) -> int:
    orders = _parse_orders(args.orders)
    t0 = time.time()
    if args.theorem == "main":
        if args.jobs > 1:
            tasks = [(n, args.max_m, args.directed) for n in orders]
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                chunks = list(pool.map(_verify_main_order, tasks))
            reports = [r for chunk in chunks for r in chunk]
        else:
            reports = dimension.verify_main_theorem(
                orders, max_m=args.max_m, directed=args.directed
            )
        text = (
            dimension.format_csv(reports)
            if args.format == "csv"
            else dimension.format_table(reports)
        )
        out.write(text)
        ok = all(r.estimate is not None and r.estimate <= r.bound for r in reports)
    elif args.theorem == "reduction":
        ok = True
        for n in orders:
            for X in dimension.enumerate_schemes(n).schemes:
                if circulant.is_quasinormal(X):
                    continue
                for m in (2, min(3, args.max_m)):
                    rep = dimension.verify_reduction(X, m)
                    tag = "ok" if rep.ok else "VIOLATION"
                    out.write(
                        f"n={n} rank={X.rank} m={m} checked={rep.checked} "
                        f"extended={rep.extended} {tag}\n"
                    )
                    ok &= rep.ok
    elif args.theorem == "muzychuk":
        ok = True
        for n in orders:
            schemes = dimension.enumerate_schemes(n).schemes
            pairs = failures = 0
            for a in schemes:
                for b in schemes:
                    for phi in enumerate_algebraic_isos(a.cc, b.cc):
                        pairs += 1
                        if find_isomorphism(a.cc, b.cc, phi) is None:
                            failures += 1
            out.write(f"n={n} maps={pairs} not_induced={failures}\n")
            ok &= failures == 0
    elif args.theorem == "schur":
        ok = True
        for n in orders:
            bad = 0
            for X in dimension.enumerate_schemes(n).schemes:
                for u in circulant.units(n):
                    if not circulant.unit_permutes_connection_sets(X, u):
                        bad += 1
            out.write(f"n={n} violations={bad}\n")
            ok &= bad == 0
    elif args.theorem == "discreteness":
        ok = True
        for n in orders:
            checked = bad = 0
            for X in dimension.enumerate_schemes(n).schemes:
                if not circulant.is_quasinormal(X):
                    continue
                res = circulant.section_discreteness_check(X, circulant.base_tuple(X))
                checked += len(res)
                bad += sum(1 for v in res.values() if not v)
            out.write(f"n={n} sections={checked} nondiscrete={bad}\n")
            ok &= bad == 0
    elif args.theorem == "oracle":
        ok = True
        for n in orders:
            if n > wl.DEFAULT_ORACLE_POINT_CAP:
                raise CapExceededError(f"oracle capped at n <= {wl.DEFAULT_ORACLE_POINT_CAP}")
            schemes = dimension.enumerate_schemes(n).schemes
            agree = disagree = 0
            for a in schemes:
                for b in schemes:
                    for phi in enumerate_algebraic_isos(a.cc, b.cc):
                        table = wl.pebble_game_oracle(a.cc, b.cc, phi.color_map, 2)
                        same = table.full_support == wl.wl_m_equivalent(
                            a.cc, b.cc, phi.color_map, 2
                        )
                        agree += same
                        disagree += not same
            out.write(f"n={n} maps={agree + disagree} disagreements={disagree}\n")
            ok &= disagree == 0
    elif args.theorem == "uniqueness":
        ok = True
        for n in orders:
            for X in dimension.enumerate_schemes(n).schemes:
                singular = [r for r in circulant.singular_classes(X) if r.is_singular]
                if not singular:
                    continue
                rep = singular[0]
                star = circulant.singular_extension(X, rep.smallest)
                sec = circulant.Section(
                    rep.smallest.upper,
                    rep.smallest.lower,
                    circulant.section_scheme(star, rep.smallest.upper, rep.smallest.lower),
                )
                count = 0
                for phi in enumerate_algebraic_isos(X.cc, X.cc):
                    for psi in enumerate_algebraic_isos(sec.scheme.cc, sec.scheme.cc):
                        circulant.extend_algebraic_automorphism(X, star, phi, psi, sec)
                        count += 1
                out.write(f"n={n} rank={X.rank} unique_extensions={count}\n")
        ok = True
    else:  # pragma: no cover - argparse restricts choices
        raise io.FormatError(f"unknown theorem {args.theorem}")
    print(f"verify {args.theorem} finished in {time.time() - t0:.1f}s", file=sys.stderr)
    return 0 if ok else 1


_COMMANDS = {
    "close": _cmd_close,
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "sections": _cmd_sections,
    "singular": _cmd_singular,
    "extend": _cmd_extend,
    "wlm": _cmd_wlm,
    "dim": _cmd_dim,
    "enumerate": _cmd_enumerate,
    "iso": _cmd_iso,
    "multiplier": _cmd_multiplier,
    "verify": _cmd_verify,
}


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.verb](args, out)
    except (io.FormatError, MemoryCapError, CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
