"""Checks of the benchmark's answers, computed apart from the library.

Nothing here imports ``circulantwl``: every expected value comes from its
own arithmetic (a Burnside count, a factorisation, a primitive root, a
row-0 refinement).  Each check returns a list of failure messages; an
empty list means the output passed.  ``bench/test_checks.py`` feeds each
check a corrupted output and sees it fail.
"""

from __future__ import annotations

from math import gcd


# -- number theory ---------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def big_omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity."""
    return sum(factorize(n).values())


def unit_group(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def divisor_count(n: int) -> int:
    count = 1
    for e in factorize(n).values():
        count *= e + 1
    return count


def primitive_root(p: int) -> int:
    primes = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in primes):
            return g
    return 1  # p == 2


# -- main_bound -------------------------------------------------------------------


def undirected_class_count(n: int) -> int:
    """Burnside count of undirected connection sets of Z_n up to units.

    The units act on the ``{d, -d}`` pairs of Z_n minus 0; a connection set
    is a set of pairs, so a unit fixes 2**(its cycles on the pairs) of them.
    """
    pairs = sorted({min(d, n - d) for d in range(1, n)})
    units = unit_group(n)
    total = 0
    for u in units:
        seen: set[int] = set()
        cycles = 0
        for p in pairs:
            if p in seen:
                continue
            cycles += 1
            q = p
            while q not in seen:
                seen.add(q)
                q = min(u * q % n, -u * q % n)
        total += 2**cycles
    return total // len(units)


def unit_canonical(n: int, conn) -> tuple[int, ...]:
    return min(tuple(sorted(u * d % n for d in conn)) for u in unit_group(n))


def parse_main_table(text: str) -> list[tuple[int, frozenset[int], str, str]]:
    """Rows ``(order, connection set, estimate, bound)`` of the text table
    printed by ``verify --theorem main``; the header line is skipped."""
    rows = []
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) != 7:
            raise ValueError(f"malformed table row: {line!r}")
        conn = fields[1].strip("{}")
        members = frozenset(int(d) for d in conn.split(",")) if conn else frozenset()
        rows.append((int(fields[0]), members, fields[4], fields[5]))
    return rows


def check_main_rows(n: int, rows) -> list[str]:
    """One order's rows: one per unit class of undirected connection sets,
    each bound equal to Omega(n) + 3 and each estimate within it."""
    fails = []
    expected = undirected_class_count(n)
    if len(rows) != expected:
        fails.append(f"n={n}: {len(rows)} rows, Burnside count is {expected}")
    classes = set()
    for order, conn, estimate, bound in rows:
        label = f"n={n} S={sorted(conn)}"
        if order != n:
            fails.append(f"{label}: row reports order {order}")
        if 0 in conn or any((n - d) % n not in conn for d in conn):
            fails.append(f"{label}: not an undirected connection set")
        classes.add(unit_canonical(n, conn))
        if bound != str(big_omega(n) + 3):
            fails.append(f"{label}: bound {bound}, Omega(n)+3 is {big_omega(n) + 3}")
        elif not estimate.isdigit() or int(estimate) > int(bound):
            fails.append(f"{label}: estimate {estimate} not within bound {bound}")
    if len(classes) != len(rows):
        fails.append(f"n={n}: two rows lie in one unit class")
    return fails


# -- scheme_enum ------------------------------------------------------------------


def as_partition(classes) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(int(d) for d in c) for c in classes)


def sring_failures(n: int, partition) -> list[str]:
    """Row-0 S-ring axioms of a partition of Z_n: {0} is a class, classes
    are closed under negation, and for classes R, S the number of ways to
    write t = r + s is constant over t in each class T."""
    label = f"n={n} {sorted(sorted(c) for c in partition)}"
    classes = [sorted(c) for c in partition]
    members = sorted(d for c in classes for d in c)
    if members != list(range(n)):
        return [f"{label}: classes do not partition Z_n"]
    if [0] not in classes:
        return [f"{label}: {{0}} is not a class"]
    fails = []
    for c in classes:
        if sorted(-d % n for d in c) not in classes:
            fails.append(f"{label}: -{c} is not a class")
    for r in classes:
        for s in classes:
            ways = [0] * n
            for a in r:
                for b in s:
                    ways[(a + b) % n] += 1
            for t in classes:
                if len({ways[d] for d in t}) > 1:
                    fails.append(f"{label}: {r}+{s} meets {t} unevenly")
    return fails


def check_schemes(n: int, partitions) -> list[str]:
    """Every scheme is an S-ring, the list has no repeats, and it is
    closed under unit multipliers."""
    fails = []
    for part in partitions:
        fails.extend(sring_failures(n, part))
    if len(set(partitions)) != len(partitions):
        fails.append(f"n={n}: a scheme is listed twice")
    return fails + check_unit_closure(n, partitions)


def check_unit_closure(n: int, partitions) -> list[str]:
    """The corpus is closed under unit multipliers (by Schur's theorem on
    multipliers each S-ring over Z_n is even mapped onto itself)."""
    fails = []
    corpus = set(partitions)
    for part in corpus:
        for u in unit_group(n):
            image = frozenset(frozenset(u * d % n for d in c) for c in part)
            if image not in corpus:
                fails.append(f"n={n}: unit {u} maps a scheme out of the corpus")
    return fails


def check_prime_schemes(p: int, partitions) -> list[str]:
    """Schur-Wielandt: the schemes of prime order p are the orbit partitions
    of the d(p-1) subgroups of Z_p^*, one per divisor of p - 1."""
    g = primitive_root(p)
    expected = set()
    for k in range(1, p):
        if (p - 1) % k:
            continue
        subgroup = {pow(g, (p - 1) // k * i, p) for i in range(k)}
        orbits = {frozenset(x * h % p for h in subgroup) for x in range(1, p)}
        expected.add(frozenset(orbits | {frozenset({0})}))
    fails = []
    if len(partitions) != divisor_count(p - 1):
        fails.append(f"p={p}: {len(partitions)} schemes, d(p-1) is {divisor_count(p - 1)}")
    if set(partitions) != expected:
        fails.append(f"p={p}: schemes are not the subgroup orbit partitions")
    return fails


def check_warm_equals_cold(n: int, cold, warm) -> list[str]:
    return [] if list(cold) == list(warm) else [f"n={n}: warm corpus differs from cold"]


# -- reduction --------------------------------------------------------------------


def check_reduction(label: str, checked: int, extended: int, violations) -> list[str]:
    """The identity map is always WL-equivalent to itself, so a reduction
    check that saw no map never ran."""
    fails = [f"{label}: {v}" for v in violations]
    if checked < 1:
        fails.append(f"{label}: checked {checked} maps")
    if extended != checked:
        fails.append(f"{label}: extended {extended} of {checked} maps")
    return fails


# -- wl_ladder --------------------------------------------------------------------


def row0_closure(n: int, conn) -> list[int]:
    """Coherent closure of Cay(Z_n, conn) on row 0: the colour of a
    difference d is refined by the multiset {(c(g), c(d - g)) : g in Z_n}."""
    conn = set(conn)
    color = [0 if d == 0 else 1 + (d in conn) for d in range(n)]
    while True:
        sigs = [
            (color[d], tuple(sorted((color[g], color[(d - g) % n]) for g in range(n))))
            for d in range(n)
        ]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [ids[s] for s in sigs]
        if len(ids) == len(set(color)):
            return refined
        color = refined


def same_partition(labels_a, labels_b) -> bool:
    """Whether two labellings of the same cells induce the same partition."""
    if len(labels_a) != len(labels_b):
        return False
    forward: dict = {}
    backward: dict = {}
    for a, b in zip(labels_a, labels_b):
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return False
    return True


def check_dense_closure(n: int, conn, perm, colors) -> list[str]:
    """``colors`` is the closure of Cay(Z_n, conn) relabelled by point
    a -> perm[a]; its cell (perm[a], perm[b]) must carry the class of b - a."""
    row0 = row0_closure(n, conn)
    got = [colors[perm[a]][perm[b]] for a in range(n) for b in range(n)]
    want = [row0[(b - a) % n] for a in range(n) for b in range(n)]
    if same_partition(got, want):
        return []
    return [f"dense closure of Cay(Z_{n}, {sorted(conn)}) differs from the row-0 closure"]


def check_equivalence(label: str, got: bool, want: bool) -> list[str]:
    return [] if got is want else [f"{label}: equivalent={got}, expected {want}"]
