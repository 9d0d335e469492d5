"""Regenerate ``bench/reduction_schemes.json``, the inputs of the reduction workload.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reduction_list.py

The list is stored as connection partitions so that the benchmark's set-up
does not run scheme enumeration.  Each entry is the first scheme, in corpus
order, of the wanted (order, rank) among the non-quasinormal schemes that
``enumerate_schemes`` lists, plus the Z_20 fixture of acceptance criterion
6, which ``is_quasinormal`` must also reject.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from circulantwl.circulant import from_connection_partition, is_quasinormal
from circulantwl.dimension import enumerate_schemes

WANTED = [
    (6, 2, "small trivial scheme"),
    (8, 2, "large automorphism group under the cap: 8! = 40,320"),
    (8, 3, "odd differences against even ones"),
    (9, 2, "automorphism group over the 100,000 cap: unpruned fallback"),
    (10, 4, "non-trivial scheme of a composite order"),
]


def z20_fixture():
    classes = defaultdict(set)
    for d in range(20):
        classes[(d % 4 == 0, d % 5)].add(d)
    return from_connection_partition(20, classes.values())[0]


def main() -> None:
    entries = []
    for n, rank, why in WANTED:
        scheme = next(
            X
            for X in enumerate_schemes(n).schemes
            if X.rank == rank and not is_quasinormal(X)
        )
        entries.append((scheme, why))
    fixture = z20_fixture()
    if is_quasinormal(fixture):
        raise SystemExit("the Z_20 fixture is quasinormal")
    entries.append((fixture, "Z_20 fixture of acceptance criterion 6"))
    data = [
        {"n": X.n, "classes": sorted(sorted(c) for c in X.connection_sets), "why": why}
        for X, why in entries
    ]
    path = Path(__file__).with_name("reduction_schemes.json")
    lines = ",\n".join(" " + json.dumps(entry) for entry in data)
    path.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    print(f"wrote {len(data)} schemes to {path}")


if __name__ == "__main__":
    main()
