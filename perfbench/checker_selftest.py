"""Self-test of the output checker: it accepts gkmflag's tables and pairing
matrices and rejects a table with one restriction perturbed and a pairing
matrix with one entry changed.

    python3 perfbench/checker_selftest.py        (from the repository root)
    python3 -m pytest perfbench/checker_selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checker  # noqa: E402


def gkmflag_output(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    proc = subprocess.run([sys.executable, "-m", "gkmflag.cli"] + list(argv), env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout


def _rejects(fn):
    try:
        fn()
    except checker.CheckError:
        return True
    return False


def _check_table(doc, space, family, seed=1):
    checker.check_table(space, family, "B", checker.table_from_json(doc), random.Random(seed))


def test_hand_written_a1_csm():
    # csm(e) is the point class -alpha at e; csm(s1) = [P^1] - csm(e)
    one = [{"exponents": [0, 0], "coeff": "1"}]
    doc = {"theory": "H", "entries": [
        {"label": "e", "values": [
            {"label": "e", "value": {"num": [{"exponents": [1, 0], "coeff": "-1"}], "den": one}},
            {"label": "1", "value": {"num": [], "den": one}}]},
        {"label": "1", "values": [
            {"label": "e", "value": {"num": one, "den": one}},
            {"label": "1", "value": {"num": one + [{"exponents": [1, 0], "coeff": "1"}], "den": one}}]},
    ]}
    _check_table(doc, checker.Space("A1"), "csm")


def test_tables_accepted_and_perturbed_restriction_rejected():
    space = checker.Space("A2")
    for family in ("csm", "mc"):
        doc = json.loads(gkmflag_output("classes", "--type", "A", "--rank", "2", "--family", family))
        _check_table(doc, space, family)
        for entry, point in ((2, 1), (4, 5), (5, 0)):
            bad = copy.deepcopy(doc)
            terms = bad["entries"][entry]["values"][point]["value"]["num"]
            if terms:
                terms[0]["coeff"] = str(int(terms[0]["coeff"]) + 1)
            else:
                terms.append(copy.deepcopy(bad["entries"][entry]["values"][point]["value"]["den"][0]))
            assert _rejects(lambda: _check_table(bad, space, family)), (family, entry, point)


def test_pairing_matrix_accepted_and_changed_entry_rejected():
    space = checker.Space("A2")
    for families in ("csm,sm", "kschubert-b,kschubert-bminus"):
        doc = json.loads(gkmflag_output("pair", "--type", "A", "--rank", "2", "--family", families))
        matrix = checker.matrix_from_json(doc)
        bruhat = families.startswith("kschubert")
        checker.check_pairing_matrix(space, matrix, doc["theory"], bruhat, random.Random(2))
        bad = copy.deepcopy(doc)
        entry = bad["matrix"][0][3]
        entry["num"] = [] if entry["num"] else copy.deepcopy(entry["den"])
        assert _rejects(lambda: checker.check_pairing_matrix(
            space, checker.matrix_from_json(bad), doc["theory"], bruhat, random.Random(2)))


def test_csv_and_latex_renderings_parse_to_the_json_values():
    argv = ("classes", "--type", "A", "--rank", "2", "--family", "mc")
    doc = json.loads(gkmflag_output(*argv))
    point = checker.generic_point(checker.Space("A2"), "K", random.Random(3))
    want = checker.table_from_json(doc).classes
    for fmt in ("csv", "latex"):
        table = checker.parse_output("table", fmt, gkmflag_output(*argv, "--format", fmt), "K", 2)
        for cls, row in want.items():
            for pt, f in row.items():
                assert point.fraction(table.classes[cls][pt]) == point.fraction(f), (fmt, cls, pt)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print("ok", t.__name__)
