import json
import os
import stat
import subprocess
import sys

import pytest

from gkmflag.cli import main
from gkmflag.io import load_class_table
from gkmflag.model import flag_space
from gkmflag.classes import cell_family
from gkmflag.scalars import CohScalar, ScalarFraction, fraction_from_json, fraction_to_json


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, (out.read_text() if out.exists() else None)


def test_classes_csm_a1(tmp_path):
    rc, text = run(tmp_path, "classes", "--type", "A", "--rank", "1", "--family", "csm")
    assert rc == 0
    doc = json.loads(text)
    labels = [e["label"] for e in doc["entries"]]
    assert labels == ["e", "1"]
    # the dense cell restricts to (1, 1 + a1)
    entry = doc["entries"][1]
    vals = {v["label"]: v["value"] for v in entry["values"]}
    assert vals["e"]["num"] == [{"exponents": [0, 0], "coeff": "1"}]
    assert {tuple(t["exponents"]): t["coeff"] for t in vals["1"]["num"]} == {
        (0, 0): "1",
        (1, 0): "1",
    }


def test_classes_mc_parabolic_row_count(tmp_path):
    rc, text = run(
        tmp_path, "classes", "--type", "A", "--rank", "3", "--parabolic", "1,3",
        "--family", "mc",
    )
    assert rc == 0
    doc = json.loads(text)
    assert len(doc["entries"]) == 6


def test_unknown_family_exits_2(tmp_path):
    rc = main(["classes", "--type", "A", "--rank", "1", "--family", "mystery"])
    assert rc == 2


def test_missing_required_args_exit_2():
    assert main(["classes", "--family", "csm"]) == 2
    assert main(["verify", "--suite", "nosuch", "--type", "A", "--rank", "1"]) == 2
    assert main([]) == 2


def test_round_trip_classes(tmp_path):
    rc, text = run(
        tmp_path, "classes", "--type", "A", "--rank", "2", "--family", "smc"
    )
    assert rc == 0
    doc = json.loads(text)
    space, theory, table = load_class_table(doc)
    expected = cell_family(flag_space("A2"), "smc", "Bminus").table
    for w in space.points:
        from gkmflag.roots import word_str

        assert table[word_str(w.word)] == expected[w]

    # a value written unreduced loads as its reduced fraction
    for item in (i for e in doc["entries"] for i in e["values"]):
        f = fraction_from_json(item["value"], theory, 2)
        if not f.is_polynomial():
            break
    g = f.den + f.num.one(2)
    item["value"] = fraction_to_json(ScalarFraction(f.num * g, f.den * g))
    assert load_class_table(doc)[2] == table


def test_out_file_mode_matches_open(tmp_path):
    old = os.umask(0o022)
    try:
        rc, _ = run(tmp_path, "classes", "--type", "A", "--rank", "1", "--family", "csm")
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    assert rc == 0

    def mode(name):
        return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

    assert mode("out.txt") == mode("plain.txt") == 0o644
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "plain.txt"]


def test_output_determinism(tmp_path):
    rc1, t1 = run(tmp_path, "classes", "--type", "B", "--rank", "2", "--family", "sm")
    rc2, t2 = run(tmp_path, "classes", "--type", "B", "--rank", "2", "--family", "sm")
    assert rc1 == rc2 == 0
    assert t1 == t2


def test_csv_and_latex_formats(tmp_path):
    rc, text = run(
        tmp_path, "classes", "--type", "A", "--rank", "1", "--family", "mc",
        "--format", "csv",
    )
    assert rc == 0 and text.startswith("class,point,value")
    rc, text = run(
        tmp_path, "classes", "--type", "A", "--rank", "1", "--family", "mc",
        "--format", "latex",
    )
    assert rc == 0 and "\\alpha_{1}" in text and "tabular" in text


def test_pair_identity_matrices(tmp_path):
    rc, text = run(tmp_path, "pair", "--type", "A", "--rank", "2", "--family", "csm,sm")
    assert rc == 0
    doc = json.loads(text)
    n = len(doc["rows"])
    one = ScalarFraction.from_scalar(CohScalar.one(2))
    from gkmflag.scalars import fraction_from_json

    for i in range(n):
        for j in range(n):
            val = fraction_from_json(doc["matrix"][i][j], "H", 2)
            assert (val == one) == (i == j)
            if i != j:
                assert val.is_zero()


def test_pair_mc_smc_identity_gr24(tmp_path):
    rc, text = run(
        tmp_path, "pair", "--type", "A", "--rank", "3", "--parabolic", "1,3",
        "--family", "mc,smc",
    )
    assert rc == 0
    doc = json.loads(text)
    from gkmflag.scalars import KScalar, fraction_from_json

    one = ScalarFraction.from_scalar(KScalar.one(3))
    n = len(doc["rows"])
    assert n == 6
    for i in range(n):
        for j in range(n):
            val = fraction_from_json(doc["matrix"][i][j], "K", 3)
            assert (val == one) == (i == j)


def test_pair_theory_mismatch_exit_2(tmp_path):
    rc = main(["pair", "--type", "A", "--rank", "1", "--family", "csm,smc"])
    assert rc == 2


def test_verify_operators_b2(tmp_path):
    rc, text = run(tmp_path, "verify", "--suite", "operators", "--type", "B", "--rank", "2")
    assert rc == 0
    doc = json.loads(text)
    assert all(
        r["status"] == "pass" for rep in doc["reports"] for r in rep["results"]
    )


def test_verify_class_suites_a1(tmp_path):
    rc, _ = run(tmp_path, "verify", "--suite", "csm", "--type", "A", "--rank", "1")
    assert rc == 0
    rc, _ = run(tmp_path, "verify", "--suite", "motivic", "--type", "A", "--rank", "1")
    assert rc == 0


def test_verify_quantum(tmp_path):
    rc, text = run(tmp_path, "verify", "--suite", "quantum")
    assert rc == 0
    doc = json.loads(text)
    suites = {rep["suite"] for rep in doc["reports"]}
    assert "quantum-examples" in suites


def test_quantum_command(tmp_path):
    rc, text = run(tmp_path, "quantum")
    assert rc == 0


def test_internal_breach_exits_3(monkeypatch):
    import gkmflag.cli as cli

    def boom(*a, **k):
        raise AssertionError("witness: deliberately broken table")

    monkeypatch.setattr(cli.cls_mod, "cell_family", boom)
    rc = main(["classes", "--type", "A", "--rank", "1", "--family", "csm"])
    assert rc == 3


def test_verify_has_no_format_option():
    rc = main(["verify", "--suite", "operators", "--type", "A", "--rank", "1", "--format", "csv"])
    assert rc == 2


@pytest.mark.parametrize("content", [None, "{not json", '{"theory": "QH", "entries": []}'],
                         ids=["missing", "malformed-json", "no-space"])
@pytest.mark.parametrize("command", [["quantum"], ["verify", "--suite", "quantum"]])
def test_unreadable_fixture_table_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "table.json"
    if content is not None:
        path.write_text(content)
    rc = main(command + ["--fixtures", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("invalid table: ") and str(path) in err


@pytest.mark.parametrize("label", ["2-1-1", "2-3-3", "1"])
def test_non_minimal_table_label_exits_2(tmp_path, capsys, label):
    from gkmflag.quantum import fixture_dir

    with open(os.path.join(fixture_dir(), "gr24_qh_partial.json")) as f:
        doc = json.load(f)
    doc["entries"][0]["u"] = label
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    rc = main(["quantum", "--fixtures", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("invalid table: ") and captured.err.count("\n") == 1
    assert "the label '%s'" % label in captured.err


_ONE_K = [{"coeff": "1", "lattice": [0, 0, 0], "y": 0}]


@pytest.mark.parametrize("coeff", [
    {"num": [{"coeff": "1/0", "lattice": [0, 0, 0], "y": 0}], "den": _ONE_K},
    {"num": _ONE_K, "den": []},
    {"num": _ONE_K, "den": [{"coeff": "0", "lattice": [0, 0, 0], "y": 0}]},
], ids=["zero-coefficient-denominator", "empty-denominator", "zero-denominator-term"])
def test_zero_denominator_in_table_exits_2(tmp_path, capsys, coeff):
    from gkmflag.quantum import fixture_dir

    with open(os.path.join(fixture_dir(), "gr24_qk_partial.json")) as f:
        doc = json.load(f)
    doc["entries"][0]["terms"].append({"w": "1-2", "qdeg": [1], "coeff": coeff})
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    rc = main(["quantum", "--fixtures", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("invalid table: ") and captured.err.count("\n") == 1


def test_unreduced_fixture_coefficient_is_accepted(tmp_path):
    from gkmflag.quantum import fixture_dir

    packaged = os.path.join(fixture_dir(), "gr24_qk_partial.json")
    with open(packaged) as f:
        doc = json.load(f)
    # (2 - 2e^{-a1-a2}) / 2 is the fixture's 1 - e^{-a1-a2}
    coeff = doc["entries"][0]["terms"][0]["coeff"]
    for t in coeff["num"] + coeff["den"]:
        t["coeff"] = str(2 * int(t["coeff"]))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    rc, text = run(tmp_path, "quantum", "--fixtures", str(path))
    assert rc == 0
    assert text == run(tmp_path, "quantum", "--fixtures", packaged)[1]


def test_fixtures_outside_quantum_suites_exits_2(capsys):
    rc = main(["verify", "--suite", "operators", "--type", "A", "--rank", "1",
               "--fixtures", "/nonexistent/x.json"])
    assert rc == 2
    assert "--fixtures" in capsys.readouterr().err


@pytest.mark.parametrize("fixtures", ["", ",", "gr24_qh_partial.json, "])
@pytest.mark.parametrize("command", [["quantum"], ["verify", "--suite", "quantum"]])
def test_empty_fixture_name_exits_2(capsys, command, fixtures):
    rc = main(command + ["--fixtures", fixtures])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


def test_space_options_on_quantum_suite_exit_2():
    assert main(["verify", "--suite", "quantum", "--type", "A", "--rank", "1"]) == 2


@pytest.mark.parametrize("family,side", [
    ("schubert-b", "Bminus"), ("schubert-bminus", "B"),
    ("kschubert-b", "Bminus"), ("kschubert-bminus", "B"),
])
def test_schubert_family_with_other_side_exits_2(tmp_path, family, side):
    rc, text = run(tmp_path, "classes", "--type", "A", "--rank", "2", "--family", family,
                   "--side", side)
    assert rc == 2 and text is None


def test_schubert_family_with_own_side_and_cells_on_both_sides(tmp_path):
    rc, _ = run(tmp_path, "classes", "--type", "A", "--rank", "2", "--family", "schubert-b",
                "--side", "B")
    assert rc == 0
    rc, text = run(tmp_path, "classes", "--type", "A", "--rank", "2", "--family", "csm",
                   "--side", "Bminus")
    assert rc == 0 and json.loads(text)["side"] == "Bminus"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path / "d"
    if where == "missing-dir":
        out = out / "x.json"
    else:
        out.mkdir()
    rc = main(["classes", "--type", "A", "--rank", "1", "--family", "csm", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error: cannot write ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    import gkmflag.cli as cli

    def boom(*a, **k):
        raise KeyError("deliberately\nbroken")

    monkeypatch.setattr(cli.cls_mod, "cell_family", boom)
    rc = main(["classes", "--type", "A", "--rank", "1", "--family", "csm"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("internal invariant breach: KeyError") and err.count("\n") == 1


def test_no_start_up_import_of_dataclasses_or_inspect(tmp_path):
    # dataclasses imports inspect, and with it ast, dis and tokenize: about a
    # third of the import time of a CLI process.  -S keeps out the modules
    # that an environment's site hooks import.
    code = (
        "import sys\n"
        "import gkmflag.cli, gkmflag\n"
        "from gkmflag.cli import main\n"
        "banned = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(sorted(m for m in banned if m in sys.modules))\n"
        "out = sys.argv[1]\n"
        "rcs = [main(['verify', '--suite', 'all', '--type', 'A', '--rank', '2', '--out', out]),\n"
        "       main(['quantum', '--out', out]),\n"
        "       main(['classes', '--type', 'A', '--rank', '2', '--family', 'mc',\n"
        "             '--format', 'csv', '--out', out])]\n"
        "print(rcs, sorted(m for m in banned if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(tmp_path / "out.txt")],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n[0, 0, 0] []\n"


def test_no_start_up_import_of_typing():
    # typing took about 5 ms of the start of a CLI process under -S, where
    # no site hook has imported it already
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-S", "-c", "import sys, gkmflag.cli\n"
                          "print('typing' in sys.modules)"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"
