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
