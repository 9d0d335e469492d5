"""Command-line interface.

Every verb maps to one library entry point; reports go to standard output
(byte-deterministic for fixed inputs), run metadata to standard error.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import algebra, circulant, dimension, io, wl
from .algebra import AlgebraicIso, enumerate_algebraic_isos, extendable_at, find_isomorphism
from .core import is_translation_invariant, validate
from .refine import DEFAULT_TUPLE_CAP, CapExceededError


@functools.cache  # built once: a parser is a web of cycles that only gc frees
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
    p.add_argument("--normality-cap", type=int, default=circulant.DEFAULT_NORMALITY_CAP)

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
    p.add_argument("--tuple-cap", type=int, default=DEFAULT_TUPLE_CAP)

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


def _one_input(args, *options: str) -> str | None:
    """The one option among ``options`` that is given, or None; two given
    are refused, since only one of them would be read."""
    given = [o for o in options if getattr(args, o) is not None]
    if len(given) > 1:
        names = " and ".join(f"--{o}" for o in given)
        raise io.FormatError(f"{names} both give an input; give one")
    return given[0] if given else None


def _load_scheme(args, suffix: str = "") -> circulant.CirculantScheme:
    """The scheme of --scheme or --graph (of --scheme2 or --graph2 with
    suffix "2"): a scheme file or an inline graph spec."""
    which = _one_input(args, "scheme" + suffix, "graph" + suffix)
    if which == "scheme" + suffix:
        return io.parse_scheme(_read(getattr(args, which)))
    if which is not None:
        n, conn = io.parse_connection_set(getattr(args, which))
        return dimension.graph_scheme(n, conn)
    raise io.FormatError("need an input: --scheme or --graph (--scheme2 or --graph2 for a second)")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise io.FormatError(f"cannot read {path}: {exc}") from exc


def _parse_orders(text: str) -> list[int]:
    """The orders of ``--orders N`` or ``--orders A..B``, all at least 1."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise io.FormatError(f"--orders takes N or A..B with integer bounds, got {text!r}") from None
    orders = list(range(lo, hi + 1))
    if not orders:
        raise io.FormatError(f"empty order range {text}")
    if lo < 1:
        raise io.FormatError(f"--orders takes N or A..B with orders >= 1, got {text!r}")
    return orders


def _cmd_close(args, out) -> int:
    which = _one_input(args, "graph", "file", "config")
    if which == "config":
        cc = io.parse_config(_read(args.config))
        closed = wl.wl_closure(cc.colors)
        out.write(io.dump_config(closed))
        return 0
    if which is None:
        raise io.FormatError("need --graph, --file or --config")
    spec = args.graph if which == "graph" else _read(args.file).strip()
    n, arcs = io.parse_graph_spec(spec)
    # a closure refines its input, so it is translation invariant exactly
    # when the input is
    if is_translation_invariant(arcs):
        out.write(io.dump_scheme(circulant.close_labels(arcs[0])[0]))
    else:
        out.write(io.dump_config(wl.wl_closure(arcs)))
    return 0


def _cmd_validate(args, out) -> int:
    which = _one_input(args, "scheme", "graph", "config")
    if which == "config":
        cc = io.parse_config(_read(args.config))
    elif which == "scheme":
        scheme, coherent = io.parse_scheme_lenient(_read(args.scheme))
        if not coherent:
            out.write("not coherent; closure rank %d\n" % scheme.rank)
            return 0
        cc = scheme.cc
    elif which is None:
        raise io.FormatError("validate needs --scheme, --graph or --config")
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
        upper, sep, lower = args.section.partition("/")
        if not (sep and upper.isdigit() and lower.isdigit()):
            raise io.FormatError(f"--section takes U/L with integer orders, got {args.section!r}")
        upper, lower = int(upper), int(lower)
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


def _per_map(args, out, line) -> int:
    """Write ``phi=<map>`` and line(a, b, phi) for each algebraic isomorphism
    phi between the two input schemes a and b."""
    a = _load_scheme(args)
    b = _load_scheme(args, "2")
    isos = enumerate_algebraic_isos(a.cc, b.cc)
    if not isos:
        out.write("no algebraic isomorphisms\n")
    for phi in isos:
        out.write(f"phi={json.dumps(list(phi.color_map))}{line(a.cc, b.cc, phi)}\n")
    return 0


def _cmd_wlm(args, out) -> int:
    if args.m < 2:
        raise io.FormatError(f"--m takes an m >= 2, got {args.m}")
    if args.tuple_cap < 1:
        raise io.FormatError(f"--tuple-cap takes a cap >= 1, got {args.tuple_cap}")

    def line(a, b, phi):
        verdict = wl.wl_m_equivalent(a, b, phi.color_map, args.m, cap=args.tuple_cap)
        return f" m={args.m} equivalent={verdict}"

    return _per_map(args, out, line)


def _cmd_dim(args, out) -> int:
    if args.graph is None:
        raise io.FormatError("dim needs --graph")
    if args.max_m < 2:
        raise io.FormatError(f"dim needs --max-m >= 2, got {args.max_m}")
    n, conn = io.parse_connection_set(args.graph)
    corpus = dimension.enumerate_graphs(n, directed=args.directed)
    rep = dimension.estimate_dimension(conn, corpus, max_m=args.max_m)
    out.write(dimension.format_table([rep]))
    return 0


def _cmd_enumerate(args, out) -> int:
    if args.order < 1:
        raise io.FormatError(f"--order takes an order >= 1, got {args.order}")
    if args.cap is not None and args.cap < 1:
        raise io.FormatError(f"--cap takes a cap >= 1, got {args.cap}")
    kw = {"cap": args.cap} if args.cap else {}
    try:
        if args.schemes:
            corpus = dimension.enumerate_schemes(args.order, **kw)
            for s in corpus.schemes:
                sets = (",".join(map(str, sorted(c))) for c in s.connection_sets)
                out.write("; ".join(sets) + "\n")
        else:
            corpus = dimension.enumerate_graphs(args.order, directed=args.directed, **kw)
            for g in corpus.graphs:
                out.write("S=" + ",".join(str(d) for d in sorted(g)) + "\n")
    except CapExceededError as exc:
        raise CapExceededError(f"{exc}; raise it with --cap") from exc
    return 0


def _cmd_iso(args, out) -> int:
    def line(a, b, phi):
        if not args.find:
            return ""
        f = find_isomorphism(a, b, phi)
        return f" f={json.dumps(list(f)) if f is not None else 'none'}"

    return _per_map(args, out, line)


def _cmd_multiplier(args, out) -> int:
    X = _load_scheme(args)
    if args.unit is not None:
        # by Schur's theorem every unit of Z_n permutes the basic sets
        us, cmaps = algebra.unit_multipliers(X.row, X.row)
        if args.unit % X.n not in us:
            raise io.FormatError(f"--unit takes a unit of Z_{X.n}, got {args.unit}")
        phi = AlgebraicIso(X.cc, X.cc, tuple(cmaps[us == args.unit % X.n][0].tolist()))
    elif args.phi:
        try:
            phi = AlgebraicIso.from_json(X.cc, X.cc, args.phi)
        except (ValueError, KeyError, TypeError) as exc:
            raise io.FormatError(f'--phi takes {{"map": [color permutation]}}: {exc!r}') from None
        if not algebra.is_algebraic_isomorphism(X.cc, X.cc, phi.color_map):
            raise io.FormatError("--phi is not an algebraic automorphism of the scheme")
    else:
        raise io.FormatError("need --unit or --phi")
    x = circulant.base_tuple(X)
    ext = extendable_at(phi, x)
    if ext is None:
        out.write("not extendable at the base tuple\n")
        return 0
    for sec, unit in circulant.extract_multiplier(X, ext).entries:
        out.write(f"section={sec.label()} unit={unit}\n")
    return 0


_ORDER_CHECKS = {
    "muzychuk": (dimension.verify_muzychuk, "maps={checked} not_induced={bad}"),
    "schur": (dimension.verify_schur, "violations={bad}"),
    "discreteness": (dimension.verify_discreteness, "sections={checked} nondiscrete={bad}"),
    "oracle": (dimension.verify_oracle, "maps={checked} disagreements={bad}"),
}


def _verify_order(theorem: str, max_m: int, directed: bool, n: int) -> list:
    """What verify reports for order n: the ``DimensionReport``s of main,
    or the (line, ok) pairs that every other theorem prints."""
    if theorem == "main":
        return dimension.verify_main_theorem([n], max_m=max_m, directed=directed)
    schemes = dimension.enumerate_schemes(n).schemes
    if theorem in _ORDER_CHECKS:
        check, fields = _ORDER_CHECKS[theorem]
        rep = check(schemes)
        return [(f"n={n} " + fields.format(checked=rep.checked, bad=len(rep.violations)), rep.ok)]
    lines = []
    for X in schemes:
        if theorem == "reduction" and not circulant.is_quasinormal(X):
            for m in (2, 3) if max_m >= 3 else (2,):
                rep = dimension.verify_reduction(X, m)
                tag = "ok" if rep.ok else "VIOLATION"
                line = f"n={n} rank={X.rank} m={m} checked={rep.checked} extended={rep.extended}"
                lines.append((f"{line} {tag}", rep.ok))
        elif theorem == "uniqueness" and any(r.is_singular for r in circulant.singular_classes(X)):
            rep = dimension.verify_uniqueness(X)
            unique = rep.checked - len(rep.violations)
            lines.append((f"n={n} rank={X.rank} unique_extensions={unique}", rep.ok))
    return lines


def _map_orders(fn, orders: list[int], jobs: int):
    """fn(n) for each order, in order: on a process pool when jobs > 1,
    in-process otherwise."""
    if jobs > 1:
        # no more workers than orders or cores: the pool starts them all at once
        workers = min(jobs, len(orders), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, orders)
    else:
        yield from map(fn, orders)


def _cmd_verify(args, out) -> int:
    orders = _parse_orders(args.orders)
    if args.max_m < 2:
        raise io.FormatError(f"verify needs --max-m >= 2, got {args.max_m}")
    if args.jobs < 1:
        raise io.FormatError(f"--jobs takes a worker count >= 1, got {args.jobs}")
    # the cap the largest order meets first, checked before any order runs
    if args.theorem == "main":
        what = "graph enumeration"
        cap = dimension.DEFAULT_DIRECTED_CAP if args.directed else dimension.DEFAULT_UNDIRECTED_CAP
    elif args.theorem == "oracle":
        what, cap = "oracle", wl.DEFAULT_ORACLE_POINT_CAP
    else:
        what, cap = "scheme enumeration", dimension.DEFAULT_SCHEME_CAP
    if orders[-1] > cap:
        raise CapExceededError(f"{what} capped at n <= {cap}")
    t0 = time.time()
    check = functools.partial(_verify_order, args.theorem, args.max_m, args.directed)
    results = _map_orders(check, orders, args.jobs)
    if args.theorem == "main":
        # column widths span every order, so the table is written once
        reports = [r for chunk in results for r in chunk]
        fmt = dimension.format_csv if args.format == "csv" else dimension.format_table
        out.write(fmt(reports))
        ok = all(r.within_bound for r in reports)
    else:
        ok = True
        for chunk in results:
            for line, line_ok in chunk:
                out.write(line + "\n")
                ok &= line_ok
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
    except (io.FormatError, CapExceededError, ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
