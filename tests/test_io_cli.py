import io as stdio

import numpy as np
import pytest

from circulantwl import io
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


def test_multiplier_verb(tmp_path):
    path = tmp_path / "reg12.txt"
    path.write_text(io.dump_scheme(CirculantScheme.regular(12)))
    code, out = invoke("multiplier", "--scheme", str(path), "--unit", "5")
    assert code == 0
    assert "section=12/1 unit=5" in out


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


@pytest.mark.parametrize(
    "theorem,orders",
    [
        ("schur", "4..8"),
        ("reduction", "4..6"),
        ("discreteness", "4..8"),
        ("uniqueness", "4..6"),
        ("oracle", "4..5"),
        ("muzychuk", "4..8"),
    ],
)
def test_verify_subcommands(theorem, orders):
    code, out = invoke("verify", "--theorem", theorem, "--orders", orders)
    assert code == 0
    assert out.strip()
    assert "VIOLATION" not in out


def test_sections_verb():
    code, out = invoke("sections", "--graph", "n=12;S=1,11")
    assert code == 0
    assert "section=12/1" in out and "principal=" in out


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
