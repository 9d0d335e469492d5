import argparse
import gc
import hashlib
import io as stdio
import json
import os
import resource
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import circulantwl
from circulantwl import cli, dimension, io, wl
from circulantwl.circulant import CirculantScheme
from circulantwl.cli import run
from circulantwl.core import trivial_config


def invoke(*argv):
    buf = stdio.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


# -- formats -----------------------------------------------------------------


def test_config_round_trip():
    cc = trivial_config(5)
    text = io.dump_config(cc)
    assert io.parse_config(text) == cc


def test_scheme_round_trip():
    X = CirculantScheme.regular(6)
    assert io.parse_scheme(io.dump_scheme(X)) == X


def test_graph_shorthand_parsing():
    n, arcs = io.parse_graph_spec("n=5;S=1,4")
    assert n == 5
    assert arcs[0, 1] == 1 and arcs[0, 4] == 1 and arcs[0, 2] == 0
    # differences in the shorthand are read mod n, unlike scheme file entries
    assert np.array_equal(io.parse_graph_spec("n=5;S=-1,1")[1], arcs)


def test_arc_list_parsing():
    n, arcs = io.parse_graph_spec("n=3;arcs=1:0,1;2:1,2")
    assert arcs[0, 1] == 1 and arcs[1, 2] == 2


def test_malformed_inputs_raise():
    with pytest.raises(io.FormatError):
        io.parse_config("nope")
    with pytest.raises(io.FormatError):
        io.parse_scheme("n=4\nC: 1\n")  # does not cover the group
    with pytest.raises(io.FormatError):
        io.parse_graph_spec("n=4;S=0,1")


# -- CLI ----------------------------------------------------------------------


def test_close_pentagon(tmp_path):
    code, out = invoke("close", "--graph", "n=5;S=1,4")
    assert code == 0
    assert out == "n=5\nC: 0\nC: 1,4\nC: 2,3\n"


def test_close_round_trip_and_idempotence(tmp_path):
    code, out = invoke("close", "--graph", "n=12;S=1,11")
    assert code == 0
    path = tmp_path / "scheme.txt"
    path.write_text(out)
    code2, report = invoke("validate", "--scheme", str(path))
    assert code2 == 0 and report.startswith("valid")
    # re-closing each connection class reproduces the same scheme
    scheme = io.parse_scheme(out)
    again = io.dump_scheme(scheme)
    assert again == out


def test_validate_trivial(tmp_path):
    path = tmp_path / "trivial.txt"
    path.write_text(io.dump_scheme(CirculantScheme.trivial(5)))
    code, out = invoke("validate", "--scheme", str(path))
    assert code == 0
    assert out == "valid, rank 2\n"


def test_identical_invocations_identical_bytes():
    a = invoke("verify", "--theorem", "main", "--orders", "4..6")
    b = invoke("verify", "--theorem", "main", "--orders", "4..6")
    assert a == b


def test_verify_main_csv():
    code, out = invoke(
        "verify", "--theorem", "main", "--orders", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,connectionSet,rank,Omega(n),estimate,bound,witnesses"
    assert len(lines) == 4  # three graphs of order 5


@pytest.mark.parametrize(
    "args,digest",
    [
        (("--orders", "4..12"), "950839519cbab4346e20fe3eed2da3defc5bb5402c886f2f97a44e4fa8dcec26"),
        (
            ("--orders", "4..10", "--directed"),
            "91ae26dfb7d711bcabf354793591959902d305aae57bbd5531c004d64831b5d0",
        ),
        (
            ("--orders", "13..20"),
            "be00e9298aea87bc3a36f3b8324ab7d331e306cdebc6635bb68772cc2af6c988",
        ),
        (
            ("--orders", "11..12", "--directed"),
            "92ebd347cad728555105018e9970c0cd8e98d9c6a54cc8dbbd9ef3c0b42be818",
        ),
    ],
)
def test_main_table_is_pinned(args, digest):
    # the headline table, byte for byte, as a sha256 digest of its stdout
    code, out = invoke("verify", "--theorem", "main", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "verify --theorem discreteness --orders 1..12",
            "19c36a81110468d5e4afeaa0ea76c86ea297f09d400a42833cc19f1adfb18c0c",
        ),
        (
            "verify --theorem discreteness --orders 1..20",
            "ea8cd7e6c15711c69bba1ed4e14d31985c6f6059ac39a0bf6106ed55db2da5ec",
        ),
        (
            "verify --theorem uniqueness --orders 4..10",
            "d80a300edb6e02034f99ebf8f7ebec250b76fd67c30a11c6efa6fa130a70edc4",
        ),
        (
            "multiplier --graph n=12;S=1 --unit 5",
            "6881bd624b8673a7d6871ec7dd882d9a8e657085e4668fbd49344b955efe8873",
        ),
        (
            "multiplier --graph n=20;S=1,19 --unit 3",
            "287db07010cbad385d044df96fe7c29850a37e35158cb112b80940a21f81bb5b",
        ),
        (
            "verify --theorem muzychuk --orders 4..16",
            "bbeacca75380512ec62d356975a032509782845a8b93330f0d4a8041195feb8d",
        ),
        (
            "iso --graph n=16;S=1,15 --graph2 n=16;S=3,13 --find",
            "cad9cca2fccef7e7597340fc09e70eb854b3e36c438d7c0278d41b12a4211225",
        ),
    ],
)
def test_section_map_output_is_pinned(argv, digest):
    # runs that read section discreteness, section color maps and multipliers
    code, out = invoke(*argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "verify --theorem reduction --orders 4..16",
            "a97d67df254b6275c1c5e2e72b4144cea642bd7accef0fafaf27ad6c7c313291",
        ),
        (
            "verify --theorem schur --orders 4..16",
            "02d7153ffeaa8bfa5231d0d086ba61ba26c8f098f2d2c2e427b9f960e7614a54",
        ),
    ],
)
def test_section_layer_output_is_pinned(argv, digest):
    # runs that read U/L conditions, tensor splits, coset-split closures and
    # Cayley isomorphisms of every scheme of the orders
    code, out = invoke(*argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_graphs_output():
    code, out = invoke("enumerate", "--order", "5")
    assert code == 0
    assert out == "S=\nS=1,2,3,4\nS=1,4\n"


def test_enumerate_schemes_output():
    code, out = invoke("enumerate", "--order", "5", "--schemes")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_dim_verb():
    code, out = invoke("dim", "--graph", "n=8;S=1,7")
    assert code == 0
    assert "estimate" in out and "\n8" in "\n" + out


def test_iso_verb_lists_maps():
    code, out = invoke(
        "iso", "--graph", "n=5;S=1,4", "--graph2", "n=5;S=2,3", "--find"
    )
    assert code == 0
    assert out.count("phi=") == 2
    assert "f=" in out and "none" not in out


def test_usage_error_exit_code():
    code, _ = invoke("frobnicate")
    assert code == 2
    code, _ = invoke("enumerate")
    assert code == 2


def test_domain_error_exit_code(tmp_path):
    code, _ = invoke("validate", "--scheme", str(tmp_path / "missing.txt"))
    assert code == 1
    code, _ = invoke("extend", "--graph", "n=12;S=1,11")  # no singular class
    assert code == 1


def test_wlm_verb():
    code, out = invoke("wlm", "--graph", "n=5;S=1,4", "--graph2", "n=5;S=2,3", "--m", "2")
    assert code == 0
    assert "equivalent=True" in out


_CYCLE16_MAPS = (
    "[0, 1, 2, 3, 4, 5, 6, 7, 8]",
    "[0, 3, 6, 7, 4, 1, 2, 5, 8]",
    "[0, 5, 6, 1, 4, 7, 2, 3, 8]",
    "[0, 7, 2, 5, 4, 3, 6, 1, 8]",
)


@pytest.mark.parametrize(
    "graph,m,expected",
    [
        ("n=12;S=1,11", 3, "phi=[0, 1, 2, 3, 4, 5, 6] m=3 equivalent=True\n"
                           "phi=[0, 5, 2, 3, 4, 1, 6] m=3 equivalent=True\n"),
        ("n=16;S=1,15", 2, "".join(f"phi={p} m=2 equivalent=True\n" for p in _CYCLE16_MAPS)),
        ("n=16;S=1,15", 3, "".join(f"phi={p} m=3 equivalent=True\n" for p in _CYCLE16_MAPS)),
    ],
)
def test_wlm_output_is_pinned(graph, m, expected):
    code, out = invoke("wlm", "--graph", graph, "--graph2", graph, "--m", str(m))
    assert code == 0
    assert out == expected


def test_multiplier_verb(tmp_path):
    path = tmp_path / "reg12.txt"
    path.write_text(io.dump_scheme(CirculantScheme.regular(12)))
    code, out = invoke("multiplier", "--scheme", str(path), "--unit", "5")
    assert code == 0
    assert "section=12/1 unit=5" in out



def test_multiplier_refuses_a_scheme_that_is_not_quasinormal(capsys):
    # multiplication by 3 is extendable at the base tuple of the trivial
    # scheme on Z_4, which is not quasinormal
    code, out = invoke("multiplier", "--graph", "n=4;S=1,2,3", "--unit", "3")
    assert (code, out) == (1, "")
    assert "error: scheme is not quasinormal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,why",
    [
        # 7 is no element of Z_6; read mod 6 it would merge into the class of 1
        ("C: 0\nC: 1,5,7\nC: 2,4\nC: 3", "hold an element outside 0..5"),
        ("C: 0\nC: -1,1\nC: 2,4\nC: 3", "hold an element outside 0..5"),
        ("C: 0\nC: 1,1,5\nC: 2,4\nC: 3", "overlap: 1 appears more than once"),
        ("C: 0\nC: 1,5\nC: 2,4\nC: 3,5", "overlap: 5 appears more than once"),
        ("C: 0\nC: 1,5\nC: 2,4", "do not cover the group"),
    ],
    ids=["entry-past-n", "negative-entry", "repeat-in-a-class", "repeat-across-classes", "gap"],
)
def test_malformed_scheme_file_exits_1(body, why, tmp_path, capsys):
    path = tmp_path / "bad.scheme"
    path.write_text(f"n=6\n{body}\n")
    code, out = invoke("validate", "--scheme", str(path))
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert f"error: connection classes {why}" in err and "Traceback" not in err


def test_close_refuses_oversized_pair_round(capsys):
    # arcs that are not translation invariant take the dense n**3 pair round
    code, out = invoke("close", "--graph", "n=500;arcs=1:0,1")
    assert code == 1 and out == ""
    assert "error: refusing pair round of 500**3 entries > cap 100000000" in capsys.readouterr().err


def test_close_circulant_input_takes_row0_round():
    # the same order closes on row 0 when the input is circulant
    code, out = invoke("close", "--graph", "n=500;S=1")
    assert code == 0
    assert out == io.dump_scheme(CirculantScheme.regular(500))


def _arcs_spec(arcs):
    return f"n={len(arcs)};arcs=" + ";".join(f"1:{a},{b}" for a, b in zip(*np.nonzero(arcs)))


def _relabelled_cayley_64():
    """Cay(Z_64, {1, 3, 61, 63}) with point a relabelled perm[a]."""
    perm = np.random.default_rng(0).permutation(64)
    arcs = np.zeros((64, 64), dtype=np.int64)
    for a in range(64):
        for d in (1, 3, 61, 63):
            arcs[perm[a], perm[(a + d) % 64]] = 1
    return arcs


def _c4_and_k3_config(tmp_path):
    """A configuration file of the 4-cycle beside a triangle; colour 0 meets
    the diagonal and non-edges, so it is not coherent."""
    mat = np.zeros((7, 7), dtype=np.int64)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)):
        mat[a, b] = mat[b, a] = 1
    path = tmp_path / "c4k3.txt"
    path.write_text("n=7\n" + "".join(" ".join(map(str, row)) + "\n" for row in mat))
    return str(path)


@pytest.mark.parametrize(
    "verb,source,digest",
    [
        ("close", "cayley64", "9d56057fb79e489ce77a4b6a21b535a4ab135a431818b980a5459e6c884b5118"),
        ("validate", "cayley64", "9e1084a1468dfcead32bac025cdf105665ce5a494b350da7e5b02f707cd26fa3"),
        ("close", "rook", "954de9fdd78942399cf992ab2a85a0c1cbb232c1343ee25ff8e33c1b55438a34"),
        ("validate", "rook", "f8ba249a35cf98a29b88a5630436662051b41e94656590ecc2afbc3701ef322a"),
        ("close", "config", "87891737caced486ff879a25fc178df052cf0e92e66ee53a47c278d5918f89c3"),
        ("validate", "config", "3911c7fad319d8a7e004815c2866cd3092a788be0c1883faf59506e0a462b41f"),
    ],
)
def test_dense_closure_output_is_pinned(verb, source, digest, tmp_path, rook_and_shrikhande_arcs):
    # closures of input that is not translation invariant, and the CC3
    # witnesses of validate, byte for byte
    if source == "config":
        code, out = invoke(verb, "--config", _c4_and_k3_config(tmp_path))
    else:
        arcs = _relabelled_cayley_64() if source == "cayley64" else rook_and_shrikhande_arcs[0]
        code, out = invoke(verb, "--graph", _arcs_spec(arcs))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_cli_in_1gib(*argv):
    """Run the CLI in a child limited to 1 GiB of address space, so that an
    input that slips past the order check fails fast instead of allocating."""
    src = str(Path(circulantwl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "circulantwl.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space, timeout=300,
    )


_HUGE_ORDER_ERROR = "error: refusing order 100000: 100000**2 entries > cap 100000000\n"


@pytest.mark.parametrize("spec", ["n=100000;S=1", "n=100000;arcs=1:0,1"])
def test_close_refuses_huge_order_before_allocating(spec):
    res = _run_cli_in_1gib("close", "--graph", spec)
    assert (res.returncode, res.stdout, res.stderr) == (1, "", _HUGE_ORDER_ERROR)


def test_analyze_refuses_huge_scheme_file_before_allocating(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("n=100000\nC: " + ",".join(str(d) for d in range(1, 100000)) + "\n")
    res = _run_cli_in_1gib("analyze", "--scheme", str(path))
    assert (res.returncode, res.stdout, res.stderr) == (1, "", _HUGE_ORDER_ERROR)


def test_singular_and_extend_on_fixture(tmp_path):
    code, out = invoke("singular", "--graph", "n=4;S=1,2,3")
    assert code == 0
    assert "singular=True" in out
    code, star = invoke("extend", "--graph", "n=4;S=1,2,3")
    assert code == 0
    assert star == io.dump_scheme(CirculantScheme.regular(4))


def test_close_config_and_file_inputs(tmp_path):
    cfg = tmp_path / "pentagon.cfg"
    cfg.write_text(io.dump_config(trivial_config(4)))
    code, out = invoke("close", "--config", str(cfg))
    assert code == 0 and out.startswith("n=4")
    spec = tmp_path / "graph.txt"
    spec.write_text("n=5;S=1,4\n")
    code, out = invoke("close", "--file", str(spec))
    assert code == 0 and "C: 1,4" in out


def test_dim_directed():
    code, out = invoke("dim", "--graph", "n=6;S=1", "--directed")
    assert code == 0
    assert "estimate" in out


def _not_unique(*args):
    raise AssertionError("extension is not unique")


# per theorem, a dimension-level name and a stand-in that makes one inner check fail
_BROKEN = {
    "main": ("omega", lambda n: -3),  # bound omega(n) + 3 = 0 is below every estimate
    "schur": ("unit_multipliers", lambda a, b: ((), ())),  # returns no unit
    "reduction": ("_extends_scheme_map", lambda *args: False),
    "discreteness": ("section_discreteness_check", lambda X, x: {"forced": False}),
    "uniqueness": ("extend_algebraic_automorphism", _not_unique),
    "oracle": ("wl_m_equivalent", lambda *args: not wl.wl_m_equivalent(*args)),
    "muzychuk": ("is_induced", lambda *args: False),
}


@pytest.mark.parametrize(
    "theorem,orders",
    [
        ("main", "4..6"),
        ("schur", "4..8"),
        ("reduction", "4..6"),
        ("discreteness", "4..8"),
        ("uniqueness", "4..6"),
        ("oracle", "4..5"),
        ("muzychuk", "4..8"),
    ],
)
def test_verify_subcommands(theorem, orders, monkeypatch, capsys):
    code, out = invoke("verify", "--theorem", theorem, "--orders", orders)
    assert code == 0
    assert out.strip()
    assert "VIOLATION" not in out
    # the same run fails once one inner check fails; every check reports
    # the failure and goes on
    monkeypatch.setattr(dimension, *_BROKEN[theorem])
    assert invoke("verify", "--theorem", theorem, "--orders", orders)[0] == 1
    assert "error:" not in capsys.readouterr().err


def test_reduction_verb_reports_a_map_that_is_not_extendable(monkeypatch, capsys):
    # every map still extends to the singular extension; only the
    # extendability arm fails
    monkeypatch.setattr(dimension, "is_m_extendable", lambda phi, m: False)
    code, out = invoke("verify", "--theorem", "reduction", "--orders", "4..6")
    lines = out.splitlines()
    assert code == 1 and lines
    for line in lines:
        fields = dict(f.split("=") for f in line.split()[:-1])
        assert line.endswith(" VIOLATION") and fields["extended"] == fields["checked"] != "0"
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "cap,normal", [(None, "normal=True"), ("4", "normal=unknown (cap exceeded; raise --normality-cap)")]
)
def test_analyze_output_is_pinned(cap, normal):
    # the README example
    extra = () if cap is None else ("--normality-cap", cap)
    code, out = invoke("analyze", "--graph", "n=12;S=1,11", *extra)
    assert code == 0
    assert out.splitlines() == [
        "n=12",
        "rank=7",
        "homogeneous=True",
        "xgroups=1,2,3,4,6,12",
        "radical=1",
        normal,
        "quasinormal=True",
        "singular_classes=0",
        "base_tuple=0,6,3,4",
    ]


def test_uniqueness_verb_can_fail(monkeypatch, capsys):
    _, passing = invoke("verify", "--theorem", "uniqueness", "--orders", "4..6")
    calls = []

    def not_unique(*args):
        calls.append(args)
        raise AssertionError("extension is not unique")

    monkeypatch.setattr(dimension, "extend_algebraic_automorphism", not_unique)
    code, out = invoke("verify", "--theorem", "uniqueness", "--orders", "4..6")
    assert calls and code == 1
    # every scheme still gets its line, now with no unique extension
    lines = out.splitlines()
    assert len(lines) == len(passing.splitlines()) and lines
    assert all(line.endswith(" unique_extensions=0") for line in lines)
    assert "error:" not in capsys.readouterr().err


def test_uniqueness_verb_output_is_pinned():
    # stdout of the scan over orders 4..16, byte for byte, as a sha256 digest
    code, out = invoke("verify", "--theorem", "uniqueness", "--orders", "4..16")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6e83001792046164d8f946eb896dd0ebc8b8a3a6e78b1e0781a0da6dcdadcd4c"
    )


def test_sections_verb():
    code, out = invoke("sections", "--graph", "n=12;S=1,11")
    assert code == 0
    assert "section=12/1" in out and "principal=" in out


@pytest.mark.parametrize(
    "theorem,orders",
    [
        ("schur", "-3..-1"),
        ("muzychuk", "0..2"),
        ("main", "0"),
        ("main", "4..4..5"),
        ("schur", "4..x"),
        ("schur", "4.."),
        ("main", "4.5"),
    ],
)
def test_verify_rejects_malformed_orders(theorem, orders, capsys):
    code, out = invoke("verify", "--theorem", theorem, f"--orders={orders}")
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "error: --orders takes N or A..B" in err and repr(orders) in err


def test_verify_rejects_empty_order_range(capsys):
    code, out = invoke("verify", "--theorem", "main", "--orders", "9..4")
    assert code == 1 and out == ""
    assert "error: empty order range 9..4" in capsys.readouterr().err


def test_dim_rejects_graph_outside_corpus(capsys):
    # a directed connection set is not in the undirected corpus
    code, out = invoke("dim", "--graph", "n=5;S=1")
    assert code == 1 and out == ""
    assert "not in the corpus of order 5" in capsys.readouterr().err


def test_dim_accepts_unit_image_of_corpus_graph():
    code, out = invoke("dim", "--graph", "n=8;S=3,5")
    assert code == 0
    assert out.splitlines()[1].split()[:3] == ["8", "{3,5}", "5"]


def test_arc_index_out_of_range_is_rejected(capsys):
    code, out = invoke("close", "--graph", "n=3;arcs=1:-1,0")
    assert code == 1 and out == ""
    assert "error: arc index out of range 0..2" in capsys.readouterr().err
    with pytest.raises(io.FormatError):
        io.parse_graph_spec("n=3;arcs=1:0,3")


def test_scheme_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("CIRCULANTWL_CACHE", str(tmp_path))
    cold = invoke("enumerate", "--schemes", "--order", "6")
    assert [p.name for p in tmp_path.iterdir()] == ["schemes_6.json"]
    assert invoke("enumerate", "--schemes", "--order", "6") == cold


def test_scheme_cache_file_is_pinned(tmp_path, monkeypatch):
    # the bytes of a cold order-12 cache, as json.dump wrote them
    monkeypatch.setenv("CIRCULANTWL_CACHE", str(tmp_path))
    dimension.enumerate_schemes(12)
    digest = hashlib.sha256((tmp_path / "schemes_12.json").read_bytes()).hexdigest()
    assert digest == "80b5c8b6085667c4866d9207a2061b9e8a9ca7a5e02635572fd247a82270060d"


def test_poisoned_scheme_cache_is_rejected(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "schemes_6.json"
    monkeypatch.setenv("CIRCULANTWL_CACHE", str(tmp_path))
    for text, why in [
        (json.dumps({"schemes": [[[1], [2, 3, 4, 5]]]}), "not coherent"),
        # the partitions are closed in one stack, which names the first one split
        (json.dumps({"schemes": [[[1, 2, 3, 4, 5]], [[1], [2, 3, 4, 5]],
                                 [[1], [2], [3], [4], [5]]]}),
         "not coherent: [[1], [2, 3, 4, 5]]"),
        # every partition is checked before any is closed
        (json.dumps({"schemes": [[[1], [2, 3, 4, 5]], [[1], [2, 3]]]}), "malformed"),
        ("{", "malformed"),  # truncated
        (json.dumps({"schemes": [[[1], [2, 3]]]}), "do not cover the group"),
        (json.dumps({"partitions": []}), "KeyError"),
        (json.dumps({"schemes": [[[1, 2, 3, 4, 5]]]}), "version None, expected 1; delete the file"),
        (json.dumps({"version": 0, "schemes": [[[1, 2, 3, 4, 5]]]}), "version 0, expected 1; delete the file"),
    ]:
        cache.write_text(text)
        code, out = invoke("enumerate", "--schemes", "--order", "6")
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert f"error: scheme cache {cache}" in err and why in err


@pytest.mark.parametrize(
    "make,why",
    [
        # the cache root is a file, so its directory cannot be made
        (lambda root: root.write_text(""), "cannot be written"),
        # the cache file is a directory
        (lambda root: (root / "schemes_6.json").mkdir(parents=True), "cannot be read"),
    ],
    ids=["root-is-a-file", "file-is-a-directory"],
)
def test_unusable_scheme_cache_fails_cleanly(make, why, tmp_path, monkeypatch, capsys):
    root = tmp_path / "cache"
    make(root)
    monkeypatch.setenv("CIRCULANTWL_CACHE", str(root))
    code, out = invoke("enumerate", "--schemes", "--order", "6")
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert f"error: scheme cache {root / 'schemes_6.json'} {why}" in err
    assert "Traceback" not in err
    assert not [p for p in tmp_path.rglob("*.tmp")]


@pytest.mark.parametrize(
    "schemes,why",
    [
        # 7 is not an element of Z_6; read mod 6 it would give the trivial scheme
        ([[[7, 2, 3, 4, 5]]], "outside 0..5"),
        ([[[1, 2, 3, 4, 5]], [[1, 2, 3, 4, 5]]], "not strictly increasing in corpus order"),
        ([[[1], [2], [3], [4], [5]], [[1, 2, 3, 4, 5]]], "not strictly increasing in corpus order"),
        # read as a set, the string's digits would give the trivial scheme
        ([["12345"]], "malformed: TypeError(\"a class must be a list of integers, not '12345'\")"),
        # int() would read 5.0 and true as the integers 5 and 1
        ([[[1, 2, 3, 4, 5.0]]], "a class must be a list of integers, not [1, 2, 3, 4, 5.0]"),
        ([[[True, 2, 3, 4, 5]]], "a class must be a list of integers, not [True, 2, 3, 4, 5]"),
        # a set would drop the repeat and read the trivial scheme
        ([[[1, 1, 2, 3, 4, 5]]], "connection classes overlap: 1 appears more than once"),
        # every order >= 2 has the trivial and the discrete scheme
        ([], "does not start trivial and end discrete"),
        ([[[1, 2, 3, 4, 5]], [[1, 5], [2, 4], [3]]], "does not start trivial and end discrete"),
    ],
    ids=[
        "entry-past-n",
        "duplicate",
        "out-of-order",
        "string-class",
        "float-entry",
        "bool-entry",
        "repeat-in-class",
        "empty",
        "no-discrete",
    ],
)
def test_scheme_cache_outside_the_corpus_is_rejected(schemes, why, tmp_path, monkeypatch, capsys):
    (tmp_path / "schemes_6.json").write_text(json.dumps({"version": 1, "schemes": schemes}))
    monkeypatch.setenv("CIRCULANTWL_CACHE", str(tmp_path))
    code, out = invoke("enumerate", "--schemes", "--order", "6")
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert f"error: scheme cache {tmp_path / 'schemes_6.json'}" in err and why in err


def test_run_leaves_no_parser_for_the_garbage_collector():
    # an argparse parser is a web of reference cycles; building one per run
    # left thousands of objects per verify order for the cyclic collector
    invoke("enumerate", "--order", "5")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert invoke("enumerate", "--order", "5")[0] == 0
        gc.collect()
        assert not [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_verify_main_jobs_match_sequential(monkeypatch):
    argv = ["verify", "--theorem", "main", "--orders", "4..8"]
    sequential = invoke(*argv, "--jobs", "1")
    assert sequential[0] == 0
    assert invoke(*argv, "--jobs", "2") == sequential
    # a large --jobs asks for no more workers than orders; a one-thread pool
    # records the request without starting a process
    workers = []
    pool = lambda max_workers: workers.append(max_workers) or ThreadPoolExecutor(1)  # noqa: E731
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    assert invoke(*argv[:-1], "4..5", "--jobs", "64") == invoke(*argv[:-1], "4..5")
    assert workers and workers[0] <= 2


@pytest.mark.parametrize(
    "theorem,orders",
    [
        ("main", "4..6"),
        ("schur", "4..8"),
        ("reduction", "4..6"),
        ("discreteness", "4..8"),
        ("uniqueness", "4..6"),
        ("oracle", "4..5"),
        ("muzychuk", "4..8"),
    ],
)
def test_verify_jobs_match_sequential(theorem, orders, monkeypatch):
    # every theorem runs its orders through one pool; a one-thread pool
    # records each request without starting a process
    workers = []
    pool = lambda max_workers: workers.append(max_workers) or ThreadPoolExecutor(1)  # noqa: E731
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    argv = ["verify", "--theorem", theorem, "--orders", orders]
    sequential = invoke(*argv, "--jobs", "1")
    assert sequential[0] == 0 and sequential[1] and workers == []
    assert invoke(*argv, "--jobs", "2") == sequential
    assert len(workers) == 1 and 1 <= workers[0] <= 2


def test_verify_line_theorem_runs_on_processes():
    # the per-order (line, ok) pairs cross a real process boundary
    argv = ["verify", "--theorem", "schur", "--orders", "4..8"]
    sequential = invoke(*argv, "--jobs", "1")
    assert sequential[0] == 0 and len(sequential[1].splitlines()) == 5
    assert invoke(*argv, "--jobs", "2") == sequential


def test_verify_reduction_checks_each_m_once():
    argv = ["verify", "--theorem", "reduction", "--orders", "4..6"]
    code, out = invoke(*argv, "--max-m", "2")
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(set(lines)) == 3
    assert all(" m=2 " in line for line in lines)
    code, out = invoke(*argv)
    assert code == 0 and [line for line in out.splitlines() if " m=2 " in line] == lines
    assert len(out.splitlines()) == 6


@pytest.mark.parametrize(
    "argv,message",
    [
        ("main 4..6 --max-m 1", "verify needs --max-m >= 2, got 1"),
        ("reduction 4..6 --max-m 1", "verify needs --max-m >= 2, got 1"),
        ("oracle 7..9", "oracle capped at n <= 8"),
        ("schur 4..5 --jobs 0", "--jobs takes a worker count >= 1, got 0"),
        ("main 4..5 --jobs -2", "--jobs takes a worker count >= 1, got -2"),
        # refused before order 35 is printed, as oracle is past its point cap
        ("schur 35..37", "scheme enumeration capped at n <= 36"),
        ("main 11..13 --directed", "graph enumeration capped at n <= 12"),
    ],
)
def test_verify_rejects_request_before_output(argv, message, capsys):
    theorem, orders, *rest = argv.split()
    code, out = invoke("verify", "--theorem", theorem, "--orders", orders, *rest)
    assert code == 1 and out == ""
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,cap",
    [("11..13 --directed", dimension.DEFAULT_DIRECTED_CAP), ("4..21", dimension.DEFAULT_UNDIRECTED_CAP)],
)
def test_main_past_the_graph_cap_runs_no_order(argv, cap, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(dimension, "verify_main_theorem", lambda *args, **kw: calls.append(args))
    assert invoke("verify", "--theorem", "main", "--orders", *argv.split()) == (1, "")
    assert f"error: graph enumeration capped at n <= {cap}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "argv,message",
    [
        ("dim", "dim needs --graph"),
        ("dim --graph n=8;S=1,7 --max-m 1", "dim needs --max-m >= 2, got 1"),
        ("dim --graph n=8;S=1,7 --max-m 0", "dim needs --max-m >= 2, got 0"),
        ("validate", "validate needs --scheme, --graph or --config"),
        ("multiplier --graph n=8;S=1,7 --phi {}", '--phi takes {"map": [color permutation]}'),
        ("multiplier --graph n=8;S=1,7 --phi [1]", '--phi takes {"map": [color permutation]}'),
        # read with int(), each of these would be the identity of the pentagon's scheme
        ('multiplier --graph n=5;S=1,4 --phi {"map":"012"}', '--phi takes {"map": [color'),
        ('multiplier --graph n=5;S=1,4 --phi {"map":[0.0,1.5,2]}', '--phi takes {"map": [color'),
        ('multiplier --graph n=5;S=1,4 --phi {"map":[false,true,2]}', '--phi takes {"map": [color'),
        (
            'multiplier --graph n=8;S=1,7 --phi {"map":[0,2,1,3,4]}',
            "--phi is not an algebraic automorphism of the scheme",
        ),
        ("multiplier --graph n=12;S=1,11 --unit 2", "--unit takes a unit of Z_12, got 2"),
        ("multiplier --graph n=12;S=1,11 --unit 0", "--unit takes a unit of Z_12, got 0"),
        ("enumerate --order 0", "--order takes an order >= 1, got 0"),
        ("enumerate --order 0 --schemes", "--order takes an order >= 1, got 0"),
        ("enumerate --order -3 --schemes", "--order takes an order >= 1, got -3"),
        ("enumerate --order 8 --schemes --cap 0", "--cap takes a cap >= 1, got 0"),
        ("enumerate --order 8 --schemes --cap -3", "--cap takes a cap >= 1, got -3"),
        (
            "extend --graph n=4;S=1,2,3 --section 4",
            "--section takes U/L with integer orders, got '4'",
        ),
        (
            "extend --graph n=4;S=1,2,3 --section 4/x",
            "--section takes U/L with integer orders, got '4/x'",
        ),
        (
            "extend --graph n=4;S=1,2,3 --section x",
            "--section takes U/L with integer orders, got 'x'",
        ),
        ("extend --graph n=4;S=1,2,3 --section 2/1", "2/1 is not a section of a singular class"),
    ],
)
def test_malformed_flag_exits_1_naming_the_flag(argv, message, capsys):
    code, out = invoke(*argv.split())
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert f"error: {message}" in err and "Traceback" not in err


PENTAGON = "n=5\nC: 0\nC: 1,4\nC: 2,3\n"


# every malformed-input branch of the parsers, with the file it reads as {file}
@pytest.mark.parametrize(
    "argv,body,message",
    [
        ("analyze --graph n=x", None, "first line must be n=<int>"),
        ("analyze --graph n=0", None, "point count must be positive"),
        ("close --config {file}", "\n\n", "empty configuration file"),
        ("close --config {file}", "n=2\n0 1\n", "expected 2 matrix rows, found 1"),
        ("validate --config {file}", "n=1\nx\n", "matrix entries must be integers"),
        ("close --config {file}", "n=2\n0 1\n1\n", "expected 2 entries per row"),
        ("analyze --scheme {file}", " \n", "empty scheme file"),
        ("validate --scheme {file}", "n=2\nD: 1\n", "connection set lines must start with 'C:'"),
        ("validate --scheme {file}", "n=2\nC:\n", "empty connection set line"),
        ("validate --scheme {file}", "n=2\nC: a\n", "connection set entries must be integers"),
        (
            "analyze --scheme {file}",
            "n=6\nC: 1,2\nC: 3,4,5\n",
            "connection partition is not coherent",
        ),
        ("close --graph ;", None, "empty graph spec"),
        ("close --graph n=3;arcs=1:0", None, "malformed arc chunk '1:0'"),
        ("close --graph n=3;T=1", None, "graph spec needs S=... or arcs=..."),
        ("analyze --graph n=3;arcs=2:0,1", None, "graph is not circulant shorthand"),
        # the S= shorthand refuses what it cannot read instead of dropping it
        ("analyze --graph n=4;S=1;2", None, "S= takes no parts after it, got '2'"),
        (
            "analyze --graph n=4;S=1;2;arcs=1:0,1",
            None,
            "S= takes no parts after it, got '2;arcs=1:0,1'",
        ),
        ("close --graph n=4;S=a", None, "connection set entries must be integers"),
        ("close --graph n=4;S=1,,2", None, "connection set entries must be integers"),
        # an empty value is a given input, read and refused by its parser or reader
        ("validate --graph ''", None, "empty graph spec"),
        ("dim --graph ''", None, "empty graph spec"),
        ("close --graph ''", None, "empty graph spec"),
        ("analyze --graph ''", None, "empty graph spec"),
        ("wlm --graph '' --graph2 n=5;S=1,4", None, "empty graph spec"),
        ("iso --graph n=5;S=1,4 --graph2 ''", None, "empty graph spec"),
        ("close --file ''", None, "cannot read "),
        ("close --config ''", None, "cannot read "),
        ("validate --scheme ''", None, "cannot read "),
        ("validate --config ''", None, "cannot read "),
        ("sections --scheme ''", None, "cannot read "),
        # a second input is refused before either is read, not dropped
        ("close --graph n=5;S=1,4 --file {file}", None, "--graph and --file both give an input"),
        ("analyze --scheme {file} --graph n=5;S=1,4", PENTAGON, "--scheme and --graph both"),
        ("validate --scheme {file} --graph n=5;S=1,4", PENTAGON, "--scheme and --graph both"),
        (
            "iso --graph n=5;S=1,4 --graph2 n=5;S=2,3 --scheme2 {file}",
            PENTAGON,
            "--scheme2 and --graph2 both give an input; give one",
        ),
    ],
)
def test_malformed_input_exits_1_with_a_message(argv, body, message, tmp_path, capsys):
    path = tmp_path / "input.txt"
    if body is not None:
        path.write_text(body)
    code, out = invoke(*(arg.replace("{file}", str(path)) for arg in shlex.split(argv)))
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_tests_import_the_library_of_this_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(circulantwl.__file__).resolve().parent == src / "circulantwl"


@pytest.mark.parametrize(
    "argv,code,expected",
    [
        ("validate --scheme {file}", 0, "not coherent; closure rank 6\n"),
        ("singular --graph n=5;S=1,4", 0, "no trivial classes of order > 2\n"),
        ("iso --graph n=6;S=1,5 --graph2 n=6;S=2,4", 0, "no algebraic isomorphisms\n"),
        ("wlm --graph n=6;S=1,5 --graph2 n=6;S=2,4", 0, "no algebraic isomorphisms\n"),
        ("iso --graph n=5;S=1,4 --graph2 n=5;S=2,3", 0, "phi=[0, 1, 2]\nphi=[0, 2, 1]\n"),
        ("extend --graph n=4;S=1,2,3 --section 4/1", 0, "n=4\nC: 0\nC: 1\nC: 2\nC: 3\n"),
    ],
)
def test_verb_outputs_are_pinned(argv, code, expected, tmp_path):
    path = tmp_path / "not_coherent.scheme"
    path.write_text("n=6\nC: 1,2\nC: 3,4,5\n")
    assert invoke(*(arg.replace("{file}", str(path)) for arg in argv.split())) == (code, expected)
