import ast
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import circulantwl
from circulantwl import circulant, dimension
from circulantwl.algebra import (
    AlgebraicIso,
    enumerate_algebraic_isos,
    extendable_at,
    identity_iso,
    tuple_extension,
    unit_multipliers,
)
from circulantwl.circulant import (
    CirculantScheme,
    Section,
    XGroup,
    _extends_scheme_map,
    _section,
    base_tuple,
    extract_multiplier,
    from_connection_partition,
    is_induced_by_isomorphism,
    is_multiple,
    is_normal,
    is_quasinormal,
    omega,
    proj_equivalence_classes,
    quasinormal_by_definition,
    quasinormal_section_decomposition,
    scheme_radical,
    secc0,
    section_bridge,
    section_discreteness_check,
    section_scheme,
    sections,
    singular_classes,
    singular_extension,
    satisfies_ul_condition,
    units,
    xgroup_lattice,
)
from circulantwl.core import validate
from circulantwl.io import dump_scheme
from circulantwl.refine import InvariantError


def unit_color_map(X, u):
    cmap = [0] * X.rank
    for d in range(X.n):
        cmap[X.color_of_difference(d)] = X.color_of_difference(u * d % X.n)
    return AlgebraicIso(X.cc, X.cc, tuple(cmap))


# -- construction --------------------------------------------------------------


def test_trivial_partition_gives_trivial_scheme():
    scheme, coherent = from_connection_partition(12, [{0}, set(range(1, 12))])
    assert coherent and scheme == CirculantScheme.trivial(12)


def test_difference_singletons_give_regular_scheme():
    scheme, coherent = from_connection_partition(12, [{d} for d in range(12)])
    assert coherent and scheme == CirculantScheme.regular(12)


def test_incoherent_partition_returns_closure_with_flag():
    scheme, coherent = from_connection_partition(6, [{0}, {1}, set(range(2, 6))])
    assert not coherent
    assert scheme == CirculantScheme.regular(6)


def test_wreath_partition_over_subgroup_is_coherent():
    inner = {5, 10, 15}
    scheme, coherent = from_connection_partition(
        20, [{0}, inner, set(range(1, 20)) - inner]
    )
    assert coherent and scheme.rank == 3


def test_z20_fixture_shape(z20_fixture):
    scheme = z20_fixture
    assert scheme.rank == 10
    assert validate(scheme.cc).valid


def test_translation_invariance_enforced():
    import io as stdio

    from circulantwl.cli import run
    from circulantwl.core import point_extension, trivial_config

    # a scheme is its row 0, so a dense matrix is refused
    with pytest.raises(ValueError):
        CirculantScheme(point_extension(trivial_config(5), (0,)).colors)
    # close prints a configuration, not a scheme, for arcs that no
    # translation preserves
    buf = stdio.StringIO()
    assert run(["close", "--graph", "n=4;arcs=1:0,1"], out=buf) == 0
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n=4" and len(lines) == 5
    assert all(len(ln.split()) == 4 and not ln.startswith("C:") for ln in lines[1:])


def test_the_dense_configuration_is_built_only_by_cc():
    # a scheme is its row 0: nothing in the circulant layer closes through
    # wl or expands a row to an n x n matrix except the on-demand cc
    tree = ast.parse(Path(circulant.__file__).read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            units = [(f"{top.name}.{getattr(unit, 'name', '')}", unit) for unit in top.body]
        else:
            units = [(getattr(top, "name", ""), top)]
        for owner, unit in units:
            for node in ast.walk(unit):
                if isinstance(node, ast.Call):
                    name = ast.unparse(node.func).split(".")[-1]
                    if name in ("circulant_matrix", "CoherentConfig"):
                        found.append((owner, name))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                    if any(name.split(".")[-1] == "wl" for name in names):
                        found.append((owner, "import wl"))
    assert sorted(found) == [
        ("CirculantScheme.cc", "CoherentConfig"),
        ("CirculantScheme.cc", "circulant_matrix"),
    ]


def test_the_dense_configuration_is_read_only_where_points_are():
    # sections, multipliers and the lattice work on label rows; the dense cc
    # is read only where maps act on points or color maps are enumerated
    tree = ast.parse(Path(circulant.__file__).read_text(encoding="utf-8"))
    readers = set()
    for top in tree.body:
        units = top.body if isinstance(top, ast.ClassDef) else [top]
        for unit in units:
            reads = (isinstance(node, ast.Attribute) and node.attr == "cc" for node in ast.walk(unit))
            if any(reads):
                readers.add(getattr(unit, "name", ""))
    assert sorted(readers) == [
        "_extension_candidates",
        "_section_color_map",
        "is_induced_by_isomorphism",
        "is_normal",
        "section_discreteness_check",
    ]


def test_connection_sets_are_read_only_where_partitions_leave_the_library():
    # the circulant and dimension layers work on label rows; the frozenset
    # view is read only for output, the cache file and corpus order
    found = []
    for module in (circulant, dimension):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                units = [(f"{top.name}.{getattr(unit, 'name', '')}", unit) for unit in top.body]
            else:
                units = [(getattr(top, "name", ""), top)]
            for owner, unit in units:
                for node in ast.walk(unit):
                    name = getattr(node, "attr", None) or getattr(node, "id", None)
                    if isinstance(node, (ast.Attribute, ast.Name)) and name in (
                        "connection_sets",
                        "label_classes",
                    ):
                        found.append((module.__name__.split(".")[-1], owner, name))
    assert sorted(set(found)) == [
        ("circulant", "CirculantScheme.connection_sets", "label_classes"),
        ("circulant", "CirculantScheme.partition_key", "connection_sets"),
        ("dimension", "_scheme_order", "connection_sets"),
        ("dimension", "_write_scheme_cache", "connection_sets"),
    ]


# -- subgroup lattice and sections ------------------------------------------------


def test_trivial_scheme_has_only_extreme_subgroups():
    assert [g.order for g in xgroup_lattice(CirculantScheme.trivial(12))] == [1, 12]


def test_regular_scheme_has_all_subgroups():
    assert [g.order for g in xgroup_lattice(CirculantScheme.regular(12))] == [
        1,
        2,
        3,
        4,
        6,
        12,
    ]


def test_z20_fixture_xgroups(z20_fixture):
    assert [g.order for g in xgroup_lattice(z20_fixture)] == [1, 4, 5, 20]


def test_section_schemes_validate():
    X = CirculantScheme.regular(12)
    for sec in sections(X):
        assert validate(sec.scheme.cc).valid
        assert sec.scheme.n == sec.order


def test_section_lookup_reads_the_sections_cache():
    X = CirculantScheme.regular(12)
    U, L = XGroup(12, 6), XGroup(12, 2)
    alone = _section(X, U, L)
    # a lookup does not list the sections of a scheme that has not listed them
    assert "sections" not in X._cache
    cached = next(s for s in sections(X) if (s.upper, s.lower) == (U, L))
    assert alone == cached and _section(X, U, L) is cached


def test_section_layer_of_every_scheme_to_16_is_pinned(schemes_up_to_16):
    # X-groups, radical, projective classes, singular classes and
    # quasinormality of every scheme of order <= 16, in corpus order
    rows = [
        (
            [g.order for g in xgroup_lattice(X)],
            scheme_radical(X).order,
            [[s.label() for s in cls] for cls in proj_equivalence_classes(X)],
            [
                (r.order, r.is_singular, r.smallest.label(), r.largest.label(),
                 [s.label() for s in r.sections])
                for r in singular_classes(X)
            ],
            is_quasinormal(X),
        )
        for n in range(1, 17)
        for X in schemes_up_to_16[n]
    ]
    assert len(rows) == 161
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "49c1e29ff90ffe39885bfbf4484a90c2574ce85e028976aeb1b954c4c89a42d8"


# -- multiples, projective equivalence, bridges --------------------------------------


def test_multiple_example_in_z12():
    z12 = CirculantScheme.regular(12)
    secs = sections(z12)
    T = next(s for s in secs if (s.upper.order, s.lower.order) == (3, 1))
    S = next(s for s in secs if (s.upper.order, s.lower.order) == (12, 4))
    assert is_multiple(S, T)
    assert not is_multiple(T, S)


def test_multiple_is_reflexive_and_preserves_order():
    z12 = CirculantScheme.regular(12)
    for s in sections(z12):
        assert is_multiple(s, s)
    for s in sections(z12):
        for t in sections(z12):
            if is_multiple(s, t):
                assert s.order == t.order


def test_bridge_maps_elements_into_their_cosets():
    z12 = CirculantScheme.regular(12)
    secs = sections(z12)
    T = next(s for s in secs if (s.upper.order, s.lower.order) == (3, 1))
    S = next(s for s in secs if (s.upper.order, s.lower.order) == (12, 4))
    u = section_bridge(z12, T, S)
    for i in range(T.order):
        j = (u * i) % S.order
        # containment characterization of the bridge
        assert T.subset(i) <= S.subset(j)
        for j2 in range(S.order):
            if j2 != j:
                assert not (T.subset(i) <= S.subset(j2))


def test_bridge_identity_on_same_section():
    z12 = CirculantScheme.regular(12)
    sec = sections(z12)[3]
    assert section_bridge(z12, sec, sec) in (0, 1)


def test_projectively_equivalent_sections_share_order_and_scheme(z20_fixture):
    X = z20_fixture
    for cls in proj_equivalence_classes(X):
        orders = {s.order for s in cls}
        assert len(orders) == 1
        for s in cls:
            for t in cls:
                u = section_bridge(X, s, t)
                mapped = {
                    frozenset((u * d) % t.order for d in conn)
                    for conn in s.scheme.connection_sets
                }
                assert mapped == set(t.scheme.connection_sets)


def _classes_and_bridges_by_definition(X):
    """The classes are the connected components of the symmetric multiple
    relation on sections(X), ordered like ``proj_equivalence_classes``; the
    bridge T -> S composes the direct units |U_S|/|U_T| mod k (inverted when
    stepping down a multiple) along a path of direct multiples.  Bridges are
    keyed by the positions of T and S in sections(X)."""
    secs = sections(X)
    bridges = {}
    for i, T in enumerate(secs):
        reached, frontier = {i: 1 % T.order}, [i]
        while frontier:
            p = frontier.pop()
            for q, other in enumerate(secs):
                if q in reached:
                    continue
                if is_multiple(other, secs[p]):
                    unit = other.upper.order // secs[p].upper.order
                elif is_multiple(secs[p], other):
                    unit = pow(secs[p].upper.order // other.upper.order, -1, other.order)
                else:
                    continue
                reached[q] = unit * reached[p] % other.order
                frontier.append(q)
        bridges.update({(i, q): u for q, u in reached.items()})
    components = {frozenset(q for p, q in bridges if p == i) for i in range(len(secs))}
    key = lambda s: (s.upper.order, s.lower.order)  # noqa: E731
    classes = [sorted((secs[q] for q in c), key=key) for c in components]
    return sorted(classes, key=lambda c: (*key(c[0]), len(c))), bridges


def test_projective_classes_and_bridges_match_the_definition(schemes_up_to_16, z20_fixture):
    schemes = [X for n in sorted(schemes_up_to_16) for X in schemes_up_to_16[n]]
    schemes += [z20_fixture] + [CirculantScheme.regular(n) for n in (24, 30, 36, 48, 60, 72)]
    assert len(schemes) == 168
    pairs = 0
    for X in schemes:
        classes, bridges = _classes_and_bridges_by_definition(X)
        assert proj_equivalence_classes(X) == classes
        position = {(s.upper, s.lower): i for i, s in enumerate(sections(X))}
        for cls in classes:
            for T in cls:
                for S in cls:
                    pos = position[T.upper, T.lower], position[S.upper, S.lower]
                    assert section_bridge(X, T, S) == bridges[pos]
                    pairs += 1
        if len(classes) > 1:
            with pytest.raises(ValueError):
                section_bridge(X, classes[0][0], classes[1][0])
    assert pairs == 4420


def test_bridge_refuses_a_section_of_another_scheme():
    X, Y = CirculantScheme.trivial(12), CirculantScheme.regular(12)
    T = next(s for s in sections(X) if (s.upper.order, s.lower.order) == (12, 1))
    S = next(s for s in sections(Y) if (s.upper.order, s.lower.order) == (12, 1))
    with pytest.raises(ValueError):
        section_bridge(Y, T, S)


# -- U/L-condition ---------------------------------------------------------------------


def test_ul_condition_z20(z20_fixture):
    X = z20_fixture
    assert satisfies_ul_condition(X, XGroup(20, 5), XGroup(20, 1))


def test_ul_condition_full_group_vacuous():
    X = CirculantScheme.trivial(9)
    assert satisfies_ul_condition(X, XGroup(9, 9), XGroup(9, 3))


def test_ul_condition_wreath():
    inner = {4, 8}
    X, coherent = from_connection_partition(12, [{0}, inner, set(range(1, 12)) - inner])
    assert coherent
    assert satisfies_ul_condition(X, XGroup(12, 3), XGroup(12, 3))


# -- normality and quasinormality ---------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_regular_prime_scheme_is_normal(p):
    assert is_normal(CirculantScheme.regular(p))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_trivial_scheme_not_normal_from_four_points(n):
    assert not is_normal(CirculantScheme.trivial(n))


def test_trivial_on_three_points_is_normal():
    assert is_normal(CirculantScheme.trivial(3))


def test_z20_fixture_not_quasinormal(z20_fixture):
    X = z20_fixture
    assert not is_quasinormal(X)


@pytest.mark.parametrize("n", [3, 4, 6, 8, 9, 12])
def test_quasinormality_matches_definition(n):
    for X in (CirculantScheme.trivial(n), CirculantScheme.regular(n)):
        assert is_quasinormal(X) == quasinormal_by_definition(X)


def test_section_splits_into_a_tensor_product_of_controlled_factors(monkeypatch):
    # 12/1 is not certified directly, so the decomposition must split it
    X, _ = from_connection_partition(
        24,
        [{0}, {1, 3, 9, 11, 17, 19}, {2, 10, 14, 22}, {4, 20}, {5, 7, 13, 15, 21, 23},
         {6, 18}, {8, 16}, {12}],
    )
    sec = _section(X, XGroup(24, 12), XGroup(24, 1))
    assert X.rank == 8 and is_quasinormal(X)
    parts = quasinormal_section_decomposition(X, sec)
    assert [s.label() for s in parts] == ["3/1", "4/1"]
    monkeypatch.setattr(circulant, "_tensor_condition", lambda *args: False)
    assert quasinormal_section_decomposition(X, sec) is None


# -- singular classes -----------------------------------------------------------------------


def test_z20_singular_class_structure(z20_fixture):
    X = z20_fixture
    reports = [r for r in singular_classes(X) if r.is_singular]
    assert len(reports) == 1
    rep = reports[0]
    assert rep.order == 4
    assert (rep.smallest.upper.order, rep.smallest.lower.order) == (4, 1)
    assert (rep.largest.upper.order, rep.largest.lower.order) == (20, 5)


def test_quasinormal_scheme_singular_orders_are_three():
    for n in (3, 6, 9, 12):
        X = CirculantScheme.regular(n)
        assert is_quasinormal(X)
        for rep in singular_classes(X):
            if rep.is_singular:
                assert rep.order == 3


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12])
def test_trivial_class_of_composite_order_is_singular(n, z20_fixture):
    for X in (CirculantScheme.trivial(n), z20_fixture if n == 4 else CirculantScheme.trivial(n)):
        for rep in singular_classes(X):
            order = rep.order
            composite = any(order % p == 0 for p in range(2, order) if p * p <= order)
            if composite:
                assert rep.is_singular


# -- singular extension ------------------------------------------------------------------------


_UNSPLIT_EXTENSION = """
import sys

from circulantwl import circulant, io
from circulantwl.refine import InvariantError

with open(sys.argv[1]) as fh:
    X = io.parse_scheme(fh.read())
rep = next(r for r in circulant.singular_classes(X) if r.is_singular)
circulant._coset_split_closure = lambda X, S: X
try:
    circulant.singular_extension(X, rep.smallest)
except InvariantError as exc:
    print(__debug__, exc)
"""


def test_extension_ledger_fires_under_python_O(z20_fixture, tmp_path):
    # the Z_20 fixture's extension with the coset split undone keeps rank 10;
    # the ledger must refuse it also where assert statements are compiled away
    path = tmp_path / "z20.txt"
    path.write_text(dump_scheme(z20_fixture))
    src = str(Path(circulantwl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-O", "-c", _UNSPLIT_EXTENSION, str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False extension rank 10 does not exceed rank 10\n"


def test_z20_extension_is_regular_and_choice_independent(z20_fixture):
    X = z20_fixture
    rep = [r for r in singular_classes(X) if r.is_singular][0]
    star_a = singular_extension(X, rep.smallest)
    star_b = singular_extension(X, rep.largest)
    assert star_a == star_b == CirculantScheme.regular(20)
    assert sum(1 for r in singular_classes(star_a) if r.is_singular) == 0


def test_extension_rejects_nonsingular_section():
    X = CirculantScheme.regular(12)
    sec = sections(X)[0]
    with pytest.raises(ValueError):
        singular_extension(X, sec)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 9])
def test_trivial_scheme_extension_ledger(n):
    X = CirculantScheme.trivial(n)
    reps = [r for r in singular_classes(X) if r.is_singular]
    assert reps
    star = singular_extension(X, reps[0].smallest)
    assert star.rank > X.rank


def _extends_by_definition(X, star, phi, cand):
    """Every star color goes inside the phi-image of the X color of each of
    its differences."""
    return all(
        star.connection_sets[cand(c)] <= X.connection_sets[phi(X.color_of_difference(d))]
        for c, conn in enumerate(star.connection_sets)
        for d in conn
    )


def test_scheme_map_extension_matches_the_subset_definition(schemes_up_to_13):
    verdicts = []
    for n in range(4, 14):
        for X in schemes_up_to_13[n]:
            reps = [r for r in singular_classes(X) if r.is_singular]
            if not reps:
                continue
            star = singular_extension(X, reps[0].smallest)
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                for cand in enumerate_algebraic_isos(star.cc, star.cc):
                    verdict = _extends_scheme_map(X, star, phi, cand)
                    assert verdict == _extends_by_definition(X, star, phi, cand)
                    verdicts.append(verdict)
    assert set(verdicts) == {False, True}


def test_scheme_map_extension_needs_a_refinement():
    X, coarse = CirculantScheme.regular(8), CirculantScheme.trivial(8)
    with pytest.raises(InvariantError, match="does not refine"):
        _extends_scheme_map(X, coarse, identity_iso(X.cc), identity_iso(coarse.cc))


# -- Schur invariance --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 8, 12])
def test_units_permute_connection_sets(n):
    for X in (CirculantScheme.trivial(n), CirculantScheme.regular(n)):
        assert unit_multipliers(X.row, X.row)[0].tolist() == units(n)


# -- base tuples and discreteness ------------------------------------------------------------


def test_omega_values():
    assert [omega(n) for n in (1, 2, 8, 12, 17, 20, 388)] == [0, 1, 3, 3, 1, 3, 3]


def test_base_tuple_values():
    assert base_tuple(CirculantScheme.regular(12)) == (0, 6, 3, 4)
    assert base_tuple(CirculantScheme.regular(8)) == (0, 4, 2, 1)
    assert base_tuple(CirculantScheme.regular(5)) == (0, 1)


@pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 12, 16, 30, 1680])
def test_base_tuple_length_bound(n):
    x = base_tuple(CirculantScheme.regular(n))
    assert len(x) == omega(n) + 1


def _witnesses_prime_power_sections(n, x):
    """Whether x holds 0 and, for every pair L <= U of subgroups of Z_n with
    |U/L| a prime power, an element of U whose coset generates U/L."""

    def primes(k):
        out, d = set(), 2
        while k > 1:
            if k % d:
                d += 1
            else:
                out.add(d)
                k //= d
        return out

    divisors = [d for d in range(1, n + 1) if n % d == 0]
    pairs = [(u, lo) for u in divisors for lo in divisors if u % lo == 0]
    return 0 in x and all(
        any(g % (n // u) == 0 and math.gcd(g // (n // u), u // lo) == 1 for g in x)
        for u, lo in pairs
        if len(primes(u // lo)) == 1
    )


@pytest.mark.parametrize("n", [8, 12, 30, 72, 1680])
def test_base_tuple_witnesses_every_prime_power_section(n):
    x = base_tuple(CirculantScheme.trivial(n))
    assert _witnesses_prime_power_sections(n, x)
    # and no entry can be spared
    for i in range(len(x)):
        assert not _witnesses_prime_power_sections(n, x[:i] + x[i + 1 :]), x[i]


def test_regular_sections_all_discrete_at_base_tuple():
    X = CirculantScheme.regular(12)
    res = section_discreteness_check(X, base_tuple(X))
    assert res and all(res.values())


def test_radical_of_regular_is_trivial_and_wreath_is_not():
    assert scheme_radical(CirculantScheme.regular(12)).order == 1
    inner = {4, 8}
    X, _ = from_connection_partition(12, [{0}, inner, set(range(1, 12)) - inner])
    assert scheme_radical(X).order == 3


# -- multipliers ---------------------------------------------------------------------------------


def test_identity_multiplier_is_trivial():
    X = CirculantScheme.regular(12)
    x = base_tuple(X)
    mult = extract_multiplier(X, tuple_extension(identity_iso(X.cc), x, x))
    for sec in secc0(X):
        if sec.order > 1:
            assert mult.unit(sec) == 1


def test_unit_map_multiplier_reads_the_unit():
    X = CirculantScheme.regular(12)
    phi = unit_color_map(X, 5)
    x = base_tuple(X)
    x_img = tuple((5 * p) % 12 for p in x)
    mult = extract_multiplier(X, tuple_extension(phi, x, x_img))
    full = next(s for s in secc0(X) if s.order == 12)
    assert mult.unit(full) == 5


def test_restriction_compatibility_on_nested_sections():
    X = CirculantScheme.regular(12)
    phi = unit_color_map(X, 7)
    x = base_tuple(X)
    x_img = tuple((7 * p) % 12 for p in x)
    mult = extract_multiplier(X, tuple_extension(phi, x, x_img))  # M1-M3 asserted internally
    sub = next(s for s in secc0(X) if s.order == 6 and s.lower.order == 1)
    assert mult.unit(sub) == 7 % 6


def _multiplier_at_base(X, phi):
    """The multiplier of phi at the base tuple, or None when phi is not
    extendable there."""
    x = base_tuple(X)
    ext = extendable_at(phi, x)
    return None if ext is None else extract_multiplier(X, ext)


def _z6_tensor():
    # the trivial scheme on Z_3 times the regular one on Z_2
    X, coherent = from_connection_partition(6, [{0}, {3}, {2, 4}, {1, 5}])
    assert coherent and is_quasinormal(X)
    return X


@pytest.mark.parametrize(
    "scheme,perms,message",
    [
        # sigma(1) = 3 is no unit of Z_6
        ("z6", {"6/1": (0, 3, 0, 3, 0, 3)}, "multiplication by a unit"),
        # sigma(1) = 1, but sigma swaps 4 and 5
        ("z6", {"6/1": (0, 1, 2, 3, 5, 4)}, "multiplication by a unit"),
        # multiplication by 5 moves the colors of the regular scheme that phi fixes
        ("z12", {"12/1": tuple(5 * a % 12 for a in range(12))},
         "section permutation must induce the section color map"),
    ],
)
def test_each_multiplier_condition_can_fail(scheme, perms, message, monkeypatch):
    X = _z6_tensor() if scheme == "z6" else CirculantScheme.regular(12)
    read = circulant._read_section_permutation
    forged = lambda ext, sec: perms.get(sec.label()) or read(ext, sec)  # noqa: E731
    monkeypatch.setattr(circulant, "_read_section_permutation", forged)
    with pytest.raises(InvariantError, match=message):
        _multiplier_at_base(X, identity_iso(X.cc))


def _points_read_off_their_coset(ext, sec):
    """The points p of U whose diagonal color the lifted map sends to a cell
    other than (sigma(i), sigma(i)), for i the coset of p and sigma read at
    lift(i) alone."""
    sigma = circulant._read_section_permutation(ext, sec)
    cells = circulant._section_cells(ext.ext_target, sec)
    pts = sorted(sec.upper.elements)
    images = cells[ext.lifted.array[[ext.ext_source.color_of(p, p) for p in pts]]]
    return [p for p, cell in zip(pts, images) if cell != sigma[sec.project(p)] * (sec.order + 1)]


def test_sigma_reads_the_same_coset_at_every_point_of_it(schemes_up_to_13):
    # step 1 of the README's proof that restriction and bridge compatibility
    # need no check: every point of a coset reads the coset that lift(i) reads
    maps = reads = 0
    for n in range(1, 13):
        for X in filter(is_quasinormal, schemes_up_to_13[n]):
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                ext = extendable_at(phi, base_tuple(X))
                maps += ext is not None
                for sec in secc0(X) if ext is not None else ():
                    assert _points_read_off_their_coset(ext, sec) == []
                    reads += sec.upper.order
    assert (maps, reads) == (154, 6199)


def test_a_lifted_map_that_splits_a_coset_is_caught():
    # 6 and 7 lie in the cosets 0 and 1 of 12/2, and neither is a lift(i)
    X = CirculantScheme.regular(12)
    ext = extendable_at(identity_iso(X.cc), base_tuple(X))
    sec = next(s for s in secc0(X) if s.label() == "12/2")
    assert _points_read_off_their_coset(ext, sec) == []
    cmap = list(ext.lifted.color_map)
    a, b = ext.ext_source.color_of(6, 6), ext.ext_source.color_of(7, 7)
    cmap[a], cmap[b] = cmap[b], cmap[a]
    forged = replace(ext, lifted=AlgebraicIso(ext.ext_source, ext.ext_target, tuple(cmap)))
    assert circulant._read_section_permutation(forged, sec) == tuple(range(6))
    assert _points_read_off_their_coset(forged, sec) == [6, 7]


def test_multipliers_of_every_scheme_to_16_are_pinned(schemes_up_to_16):
    # the unit on each section of order > 1 of every map extendable at the
    # base tuple, on every quasinormal scheme of order <= 16
    rows, maps = [], 0
    for n in range(1, 17):
        for X in filter(is_quasinormal, schemes_up_to_16[n]):
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                mult = _multiplier_at_base(X, phi)
                maps += mult is not None
                for sec in secc0(X) if mult is not None else ():
                    if sec.order > 1:
                        rows.append((n, X.rank, phi.color_map, sec.label(), mult.unit(sec)))
    assert (maps, len(rows)) == (389, 1669)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "d6d3876cc479b7b12970b7fd15db7b2a38c9be61a282dd30c07765f7e19ca2ba"


# -- induced-by-isomorphism pathway ------------------------------------------------------------


def test_identity_is_induced():
    X = CirculantScheme.regular(9)
    assert is_induced_by_isomorphism(X, identity_iso(X.cc)) == tuple(range(9))


@pytest.mark.parametrize("u", [5, 7, 11])
def test_unit_maps_are_induced_on_regular_scheme(u):
    X = CirculantScheme.regular(12)
    f = is_induced_by_isomorphism(X, unit_color_map(X, u))
    assert f is not None


def test_induced_requires_quasinormal(z20_fixture):
    X = z20_fixture
    with pytest.raises(ValueError):
        is_induced_by_isomorphism(X, identity_iso(X.cc))


def test_extendable_maps_on_quasinormal_corpus_are_induced(schemes_up_to_13):
    from circulantwl.algebra import enumerate_algebraic_isos, extendable_at

    checked = 0
    for n in range(2, 11):
        for X in schemes_up_to_13[n]:
            if not is_quasinormal(X):
                continue
            x = base_tuple(X)
            for phi in enumerate_algebraic_isos(X.cc, X.cc):
                if extendable_at(phi, x) is None:
                    continue
                assert is_induced_by_isomorphism(X, phi) is not None
                checked += 1
    assert checked >= 80


def test_z20_automorphisms_agree_with_constructed_witnesses(z20_fixture):
    # backtracking results cross-checked against directly constructed maps
    from circulantwl.algebra import (
        enumerate_algebraic_isos,
        find_isomorphism,
        induced_color_map,
    )

    X = z20_fixture
    constructed = {}
    for u in units(20):
        um = tuple((u * x) % 20 for x in range(20))
        constructed[induced_color_map(X.cc, X.cc, um).color_map] = um
    for phi in enumerate_algebraic_isos(X.cc, X.cc):
        f = find_isomorphism(X.cc, X.cc, phi)
        assert f is not None
        assert phi.color_map in constructed


def test_extension_search_lists_the_automorphisms_once(z20_fixture, monkeypatch):
    # every (phi, psi) pair of the Z_20 fixture searches the singular
    # extension for its unique extension; the extension's automorphisms are
    # enumerated by the first pair only
    from circulantwl import algebra
    from circulantwl.algebra import enumerate_algebraic_isos
    from circulantwl.circulant import extend_algebraic_automorphism

    X = z20_fixture
    rep = next(r for r in singular_classes(X) if r.is_singular)
    star = singular_extension(X, rep.smallest)
    sec = _section(star, rep.smallest.upper, rep.smallest.lower)
    searched = []

    def counted(cc):
        searched.append(cc)
        return color_invariants(cc)

    color_invariants = algebra._color_invariants
    monkeypatch.setattr(algebra, "_color_invariants", counted)
    pairs = [
        (phi, psi)
        for phi in enumerate_algebraic_isos(X.cc, X.cc)
        for psi in enumerate_algebraic_isos(sec.scheme.cc, sec.scheme.cc)
    ]
    extensions = [extend_algebraic_automorphism(X, star, phi, psi, sec) for phi, psi in pairs]
    assert len(pairs) == len(set(extensions)) > 1
    # one search, which reads the invariants of its source and its target
    assert sum(cc is star.cc for cc in searched) == 2
    # the kept maps are not the caller's to change
    autos = enumerate_algebraic_isos(star.cc, star.cc)
    expected = [iso.color_map for iso in autos]
    autos.clear()
    assert [iso.color_map for iso in enumerate_algebraic_isos(star.cc, star.cc)] == expected
    assert sum(cc is star.cc for cc in searched) == 2
