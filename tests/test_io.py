import json

import pytest

from gkmflag import io, model, operators, quantum
from gkmflag.classes import cell_family
from gkmflag.model import H, K


def reference(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# (space, parabolic, family, theory, side); ids keep the names of the A2 cases
TABLE_CASES = [
    ("A2", (), "csm", H, "B"),
    ("A2", (), "mc", K, "B"),
    ("A2", (), "smc", K, "Bminus"),
    ("A2", (), "csm", H, "Bminus"),
    ("A3", (1, 3), "mc", K, "B"),
]


def _table_id(case):
    label, parabolic, family, theory, side = case
    where = " %s/%s" % (label, ",".join(map(str, parabolic))) if parabolic else ""
    return "%s-%s-%s%s" % (family, theory, side, where)


@pytest.mark.parametrize(
    "label,parabolic,family,theory,side", TABLE_CASES, ids=[_table_id(c) for c in TABLE_CASES]
)
def test_class_table_documents(label, parabolic, family, theory, side):
    space = model.flag_space(label, parabolic)
    table = cell_family(space, family, side).table
    expansions = {w: model.expand_schubert(table[w], side=side) for w in space.points}
    doc = io.class_table_document(space, theory, family, side, table, expansions)
    assert io.dumps_json(doc) == reference(doc)


def test_matrix_document():
    space = model.flag_space("A2")
    mc = cell_family(space, "mc", "B").table
    smc = cell_family(space, "smc", "Bminus").table
    rows = cols = list(space.points)
    matrix = [[model.pair(mc[w], smc[u]) for u in cols] for w in rows]
    doc = io.matrix_document(space, K, rows, cols, matrix)
    assert io.dumps_json(doc) == reference(doc)


def test_report_documents():
    space = model.flag_space("A2")
    reports = []
    for theory in (H, K):
        reports.append(operators.verify_relations(space, theory))
        reports.append(operators.verify_schubert_actions(space, theory))
    for name in ("gr24_qh_partial.json", "gr24_qk_partial.json"):
        table = quantum.load_fixture_table(name)
        reports.append(quantum.verify_table(table))
        reports.append(quantum.verify_quantum_relations(table))
    reports.append(quantum.verify_quantum_examples())
    doc = {"reports": [r.to_json() for r in reports]}
    assert io.dumps_json(doc) == reference(doc)


def _shared_documents():
    """Documents holding one container object in several places."""
    d = {"a": 1, "b": [2, "x"]}
    lst = [1, "y", {"k": None}]
    inner = {"t": [3]}
    outer = {"i": inner, "j": [inner, inner]}
    empty_list, empty_dict = [], {}
    return [
        [d, d],  # one dict twice in one list
        {"p": lst, "q": [lst, [lst]], "r": lst},  # one list at three depths
        [outer, outer, {"o": outer, "i": inner}, [[outer]]],  # shared in shared
        [empty_list, empty_dict, {"e": empty_list, "f": empty_dict}, [empty_list, empty_dict]],
    ]


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
        {"t": True, "f": False, "n": None, "l": [True, False, None]},
        [0, -1, 7, -(10**40), 2**100],
        (1, (2, ("x", ())), {"k": (None,)}),
        "plain",
        -3,
        None,
        ['quote " and backslash \\', "\n\t\r\b\f\x00\x1f\x7f", "café ∃ \U0001d11e"],
        {"z": 1, "a": {"é": 2, "\"": 3, "\\": 4, "\n": 5}, "M": [1, "2"]},
    ]
    + _shared_documents(),
)
def test_hand_made_documents(doc):
    assert io.dumps_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [1.5, [0.0], {"a": {"b": 2.5}}, [object()], {"s": {1, 2}},  # values
     {1: "a"}, {"a": {None: 1}}, [{("k",): 1}]],  # non-str keys
)
def test_rejects_unsupported_values_and_keys(doc):
    with pytest.raises(TypeError):
        io.dumps_json(doc)


# Scalar text that no CLI export shows (the CLI never prints hbar), pinned in
# both syntaxes: (fraction, plain text, LaTeX text).
def _text_cases():
    from fractions import Fraction

    from gkmflag.classes import homogenize_csm
    from gkmflag.scalars import CohScalar, KScalar, ScalarFraction

    b2 = model.flag_space("B2")
    point = io.point_parser(b2)
    hz = homogenize_csm(cell_family(b2, "csm", "B").table[point("2-1-2")])
    coh = ScalarFraction(
        CohScalar(2, {(2, 0, 1): Fraction(3, 2), (0, 1, 3): -1, (1, 1, 0): Fraction(-5, 4),
                      (0, 0, 2): 2, (0, 0, 0): Fraction(1, 3)}),
        CohScalar(2, {(1, 0, 0): 1, (0, 0, 1): Fraction(2, 3)}),
    )
    k = ScalarFraction(
        KScalar(2, {(1, -2, 0): 1, (-1, 2, 1): Fraction(-1, 2), (2, 1, 3): 3, (-2, -1, 0): -1,
                    (0, 0, 2): Fraction(7, 5), (0, 0, 0): -2, (0, 1, 1): 1}),
        KScalar(2, {(0, 0, 0): 1, (-1, 0, 1): -1}),
    )
    return [
        (hz.values[point("1-2")],
         "-2*a2*h^3 - a1*h^3 - 2*a2^2*h^2 - 5*a1*a2*h^2 - 2*a1^2*h^2 - 2*a1*a2^2*h"
         " - 3*a1^2*a2*h - a1^3*h",
         r"-2 \alpha_{2} \hbar^{3} - \alpha_{1} \hbar^{3} - 2 \alpha_{2}^{2} \hbar^{2}"
         r" - 5 \alpha_{1} \alpha_{2} \hbar^{2} - 2 \alpha_{1}^{2} \hbar^{2}"
         r" - 2 \alpha_{1} \alpha_{2}^{2} \hbar - 3 \alpha_{1}^{2} \alpha_{2} \hbar"
         r" - \alpha_{1}^{3} \hbar"),
        (coh,
         "(-a2*h^3 + 3/2*a1^2*h + 2*h^2 - 5/4*a1*a2 + 1/3)/(2/3*h + a1)",
         r"\frac{-\alpha_{2} \hbar^{3} + \tfrac{3}{2} \alpha_{1}^{2} \hbar + 2 \hbar^{2}"
         r" - \tfrac{5}{4} \alpha_{1} \alpha_{2} + \tfrac{1}{3}}{\tfrac{2}{3} \hbar + \alpha_{1}}"),
        (k,
         "(3*E[2*a1+a2]*y^3 + E[a1-2*a2] + E[a2]*y + 7/5*y^2 - 2 - 1/2*E[-a1+2*a2]*y"
         " - E[-2*a1-a2])/(1 - E[-a1]*y)",
         r"\frac{3 e^{2\alpha_{1}+\alpha_{2}} y^{3} + e^{\alpha_{1}-2\alpha_{2}}"
         r" + e^{\alpha_{2}} y + \tfrac{7}{5} y^{2} - 2"
         r" - \tfrac{1}{2} e^{-\alpha_{1}+2\alpha_{2}} y"
         r" - e^{-2\alpha_{1}-\alpha_{2}}}{1 - e^{-\alpha_{1}} y}"),
    ]


@pytest.mark.parametrize("index", range(3), ids=["homogenized-csm", "coh-rational", "k-lattice"])
def test_scalar_text_in_both_syntaxes(index):
    from gkmflag.scalars import LATEX, PLAIN, render_fraction

    f, plain, latex = _text_cases()[index]
    assert render_fraction(f) == render_fraction(f, PLAIN) == plain
    assert render_fraction(f, LATEX) == latex
    assert repr(f) == "Frac(%s)" % plain
