"""Parsers and serializers for the text formats used by the CLI.

Formats:
  configuration  "n=<int>" then n rows of n color ids
  scheme         "n=<int>" then one line "C: a,b,c" per connection set;
                 each of 1..n-1 in exactly one set, 0 in at most one
  graph          inline "n=<int>;S=a,b,c" (circulant shorthand) or
                 "n=<int>;arcs=<color>:<i>,<j>;..." (arc-colored digraph)
"""

from __future__ import annotations

import numpy as np

from .circulant import CirculantScheme, from_connection_partition
from .core import CoherentConfig, circulant_matrix, is_translation_invariant
from .refine import DEFAULT_TUPLE_CAP, CapExceededError


class FormatError(ValueError):
    """Malformed input text for one of the file formats."""


def _parse_header(line: str) -> int:
    line = line.strip()
    if not line.startswith("n="):
        raise FormatError("first line must be n=<int>")
    try:
        n = int(line[2:])
    except ValueError as exc:
        raise FormatError("first line must be n=<int>") from exc
    if n < 1:
        raise FormatError("point count must be positive")
    # every format holds or builds an n x n matrix; refuse before allocating
    if n * n > DEFAULT_TUPLE_CAP:
        raise CapExceededError(f"refusing order {n}: {n}**2 entries > cap {DEFAULT_TUPLE_CAP}")
    return n


def parse_config(text: str) -> CoherentConfig:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty configuration file")
    n = _parse_header(lines[0])
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(v) for v in ln.split()]
        except ValueError as exc:
            raise FormatError("matrix entries must be integers") from exc
        if len(row) != n:
            raise FormatError(f"expected {n} entries per row")
        rows.append(row)
    return CoherentConfig(np.array(rows, dtype=np.int64))


def dump_config(cc: CoherentConfig) -> str:
    lines = [f"n={cc.n}"]
    for row in cc.colors:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_scheme_lenient(text: str) -> tuple[CirculantScheme, bool]:
    """Parse a scheme file; returns (scheme-or-closure, was coherent)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty scheme file")
    n = _parse_header(lines[0])
    sets = []
    for ln in lines[1:]:
        body = ln.strip()
        if not body.startswith("C:"):
            raise FormatError("connection set lines must start with 'C:'")
        items = body[2:].strip()
        if not items:
            raise FormatError("empty connection set line")
        try:
            sets.append([int(v) for v in items.split(",")])
        except ValueError as exc:
            raise FormatError("connection set entries must be integers") from exc
    try:
        return from_connection_partition(n, sets)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_scheme(text: str) -> CirculantScheme:
    scheme, coherent = parse_scheme_lenient(text)
    if not coherent:
        raise FormatError("connection partition is not coherent")
    return scheme


def dump_scheme(X: CirculantScheme) -> str:
    lines = [f"n={X.n}"]
    for conn in X.connection_sets:
        lines.append("C: " + ",".join(str(d) for d in sorted(conn)))
    return "\n".join(lines) + "\n"


def parse_graph_spec(text: str) -> tuple[int, np.ndarray]:
    """Inline graph input; returns the order and an arc color matrix."""
    parts = [p.strip() for p in text.strip().split(";") if p.strip()]
    if not parts:
        raise FormatError("empty graph spec")
    n = _parse_header(parts[0])
    arcs = np.zeros((n, n), dtype=np.int64)
    if len(parts) == 1:
        return n, arcs
    body = parts[1]
    if body.startswith("S="):
        if parts[2:]:
            raise FormatError(f"S= takes no parts after it, got {';'.join(parts[2:])!r}")
        items = body[2:].strip()
        try:
            conn = {int(v) % n for v in items.split(",")} if items else set()
        except ValueError as exc:
            raise FormatError("connection set entries must be integers") from exc
        if 0 in conn:
            raise FormatError("connection set must not contain 0")
        row = np.zeros(n, dtype=np.int64)
        row[list(conn)] = 1
        return n, circulant_matrix(row)
    if body.startswith("arcs="):
        for chunk in [body[5:]] + parts[2:]:
            if not chunk:
                continue
            try:
                color_part, pair = chunk.split(":")
                i, j = (int(v) for v in pair.split(","))
                color = int(color_part)
            except ValueError as exc:
                raise FormatError(f"malformed arc chunk {chunk!r}") from exc
            if not (0 <= i < n and 0 <= j < n):
                raise FormatError(f"arc index out of range 0..{n - 1} in {chunk!r}")
            arcs[i, j] = color
        return n, arcs
    raise FormatError("graph spec needs S=... or arcs=...")


def parse_connection_set(text: str) -> tuple[int, frozenset[int]]:
    """Circulant shorthand only; returns (n, connection set)."""
    n, arcs = parse_graph_spec(text)
    if not (np.isin(arcs, (0, 1)).all() and is_translation_invariant(arcs)):
        raise FormatError("graph is not circulant shorthand")
    return n, frozenset(int(d) for d in np.flatnonzero(arcs[0]))
