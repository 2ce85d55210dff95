import json

import pytest

from gkmflag import io, model, operators, quantum
from gkmflag.classes import cell_family
from gkmflag.model import H, K


def reference(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "family,theory,side", [("csm", H, "B"), ("mc", K, "B"), ("smc", K, "Bminus")]
)
def test_class_table_documents(family, theory, side):
    space = model.flag_space("A2")
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
    ],
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
