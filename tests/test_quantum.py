import copy
import json
import os
import subprocess
import sys
from functools import partial

import pytest

from gkmflag.model import H, K, flag_space
from gkmflag.quantum import (
    QH,
    QK,
    FormalQElem,
    QuantumClass,
    TableValidationError,
    MissingProductError,
    formal_leibniz_eval,
    generator_facts,
    load_fixture_table,
    load_table,
    q_multiply,
    quantum_degrees,
    quantum_delta,
    quantum_demazure_dual,
    verify_quantum_examples,
    verify_quantum_relations,
    verify_table,
    weyl_left_q,
)
from gkmflag.scalars import CohScalar, KScalar, ScalarFraction


FIXDIR = os.path.join(os.path.dirname(__file__), "..", "src", "gkmflag", "fixtures")


def fixture_doc(name):
    with open(os.path.join(FIXDIR, name)) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def gr24():
    return flag_space("A3", (1, 3))


@pytest.fixture(scope="module")
def qh_table():
    return load_table(fixture_doc("gr24_qh_partial.json"))


@pytest.fixture(scope="module")
def qk_table():
    return load_table(fixture_doc("gr24_qk_partial.json"))


def test_quantum_degrees(gr24):
    qnodes, degs = quantum_degrees(gr24)
    assert qnodes == (2,)
    assert degs == {2: 4}


def test_non_integral_degree_raises_under_optimize():
    # a pairing that is not a constant is no degree; the check must not be an
    # assert, which ``python -O`` strips, leaving degree 0
    code = (
        "import gkmflag.quantum as q\n"
        "from gkmflag.model import flag_space\n"
        "from gkmflag.scalars import CohScalar, ScalarFraction\n"
        "q.pair = lambda a, b: ScalarFraction.from_scalar(CohScalar.linear_form((1, 0, 0)))\n"
        "try:\n"
        "    print(q.quantum_degrees(flag_space('A3', (1, 3))))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: degree of q_2 is not an integer\n"


def test_load_table_validates(qh_table, qk_table):
    assert len(qh_table.entries) == 2
    assert len(qk_table.entries) == 2


def test_empty_table_with_unit_rows_valid(gr24):
    doc = {
        "space": {"type": "A", "rank": 3, "parabolic": [1, 3]},
        "theory": "QH",
        "qdeg_arity": 1,
        "entries": [
            {
                "u": "e",
                "v": "2",
                "terms": [
                    {
                        "w": "2",
                        "qdeg": [0],
                        "coeff": {
                            "num": [{"exponents": [0, 0, 0, 0], "coeff": "1"}],
                            "den": [{"exponents": [0, 0, 0, 0], "coeff": "1"}],
                        },
                    }
                ],
            }
        ],
    }
    table = load_table(doc)
    assert len(table.entries) == 1


def test_bad_unit_row_rejected():
    doc = {
        "space": {"type": "A", "rank": 3, "parabolic": [1, 3]},
        "theory": "QH",
        "qdeg_arity": 1,
        "entries": [
            {
                "u": "e",
                "v": "2",
                "terms": [
                    {
                        "w": "1-2",
                        "qdeg": [0],
                        "coeff": {
                            "num": [{"exponents": [0, 0, 0, 0], "coeff": "1"}],
                            "den": [{"exponents": [0, 0, 0, 0], "coeff": "1"}],
                        },
                    }
                ],
            }
        ],
    }
    with pytest.raises(TableValidationError):
        load_table(doc)


@pytest.mark.parametrize("label", ["2-1-1", "2-3-3", "1"])
def test_non_minimal_labels_rejected(label):
    # another word of the point 2, and a word of s1, which is no minimal coset
    # representative on A3/{1,3}; neither may be read as some point
    doc = copy.deepcopy(fixture_doc("gr24_qh_partial.json"))
    assert doc["entries"][0]["u"] == "2"
    doc["entries"][0]["u"] = label
    with pytest.raises(TableValidationError, match="has the label '%s'$" % label):
        load_table(doc)


def test_classical_limit_violation_rejected():
    doc = fixture_doc("gr24_qh_partial.json")
    doc = copy.deepcopy(doc)
    # tamper with one classical coefficient
    doc["entries"][0]["terms"][0]["coeff"]["num"][0]["coeff"] = "7"
    with pytest.raises(TableValidationError):
        load_table(doc)


def test_grading_violation_rejected():
    doc = copy.deepcopy(fixture_doc("gr24_qh_partial.json"))
    # a q-term of impossible degree on sigma1 * sigma11
    ent = [e for e in doc["entries"] if {e["u"], e["v"]} == {"2", "1-2"}][0]
    ent["terms"].append(
        {
            "w": "e",
            "qdeg": [1],
            "coeff": {
                "num": [{"exponents": [0, 0, 0, 0], "coeff": "1"}],
                "den": [{"exponents": [0, 0, 0, 0], "coeff": "1"}],
            },
        }
    )
    with pytest.raises(TableValidationError):
        load_table(doc)


def test_q_multiply_unit_and_point_class(gr24, qh_table):
    rs = gr24.rs
    s2 = rs.from_word((2,))
    s12 = rs.from_word((1, 2))
    point = rs.from_word((2, 1, 3, 2))
    one_cls = QuantumClass.basis_element(gr24, QH, rs.identity, arity=1)
    b1 = QuantumClass.basis_element(gr24, QH, s2, arity=1)
    b11 = QuantumClass.basis_element(gr24, QH, s12, arity=1)
    assert q_multiply(qh_table, one_cls, b11) == b11
    # the printed point-class combination
    a1 = CohScalar.linear_form((1, 0, 0))
    combo = q_multiply(qh_table, b11, b11) - q_multiply(qh_table, b1, b11).scale(a1)
    assert combo == QuantumClass.basis_element(gr24, QH, point, arity=1)
    # commutativity through the canonical key
    assert q_multiply(qh_table, b1, b11) == q_multiply(qh_table, b11, b1)
    # distributivity over a scalar combination
    lin = b1.scale(CohScalar.linear_form((0, 1, 0))) + b11
    lhs = q_multiply(qh_table, lin, b11)
    rhs = q_multiply(qh_table, b1, b11).scale(CohScalar.linear_form((0, 1, 0))) + q_multiply(
        qh_table, b11, b11
    )
    assert lhs == rhs
    with pytest.raises(MissingProductError):
        q_multiply(qh_table, b1, b1)


def test_weyl_left_q(gr24, qh_table):
    rs = gr24.rs
    s2 = rs.from_word((2,))
    s12 = rs.from_word((1, 2))
    b1 = QuantumClass.basis_element(gr24, QH, s2, arity=1)
    b11 = QuantumClass.basis_element(gr24, QH, s12, arity=1)
    w = rs.simple(2)
    assert weyl_left_q(rs.identity, b1) == b1
    # automorphism against the fixture products where available
    lhs = weyl_left_q(w, q_multiply(qh_table, b1, b11))
    rhs = q_multiply(qh_table, weyl_left_q(w, b1), weyl_left_q(w, b11))
    assert lhs == rhs
    lhs = weyl_left_q(w, q_multiply(qh_table, b11, b11))
    rhs = q_multiply(qh_table, weyl_left_q(w, b11), weyl_left_q(w, b11))
    assert lhs == rhs


def test_quantum_delta_examples(gr24):
    rs = gr24.rs
    s2 = rs.from_word((2,))
    s12 = rs.from_word((1, 2))
    b1 = QuantumClass.basis_element(gr24, QH, s2, arity=1)
    b11 = QuantumClass.basis_element(gr24, QH, s12, arity=1)
    one_cls = QuantumClass.basis_element(gr24, QH, rs.identity, arity=1)
    assert quantum_delta(2, b1) == one_cls
    assert quantum_delta(1, b11) == b1
    zero = QuantumClass(gr24, QH, {})
    assert quantum_delta(1, b1) == zero
    assert quantum_delta(3, b1) == zero
    assert quantum_delta(2, b11) == zero
    assert quantum_delta(3, b11) == zero
    # q-linearity: delta of q^d * 1 vanishes
    qone = QuantumClass.basis_element(gr24, QH, rs.identity, qdeg=(3,))
    for i in (1, 2, 3):
        assert quantum_delta(i, qone) == zero
    with pytest.raises(ValueError):
        quantum_delta(1, QuantumClass.basis_element(gr24, QK, s2, arity=1))


def test_quantum_demazure_dual_examples(gr24):
    rs = gr24.rs
    s2 = rs.from_word((2,))
    s12 = rs.from_word((1, 2))
    point = rs.from_word((2, 1, 3, 2))
    mid = rs.from_word((1, 3, 2))
    b1 = QuantumClass.basis_element(gr24, QK, s2, arity=1)
    b11 = QuantumClass.basis_element(gr24, QK, s12, arity=1)
    one_cls = QuantumClass.basis_element(gr24, QK, rs.identity, arity=1)
    assert quantum_demazure_dual(2, b1) == one_cls
    assert quantum_demazure_dual(2, b11) == b11
    assert quantum_demazure_dual(2, QuantumClass.basis_element(gr24, QK, point, arity=1)) == (
        QuantumClass.basis_element(gr24, QK, mid, arity=1)
    )
    assert quantum_demazure_dual(1, one_cls) == one_cls


def test_formal_engine_reproduces_paper_examples():
    rep = verify_quantum_examples()
    assert rep.ok, rep.failures()


def test_formal_engine_pieces(gr24):
    rs = gr24.rs
    gens = {"sig1": rs.from_word((2,)), "sig11": rs.from_word((1, 2))}
    facts = generator_facts(gr24, QH, 2, gens)
    rank = 3
    g = lambda n: FormalQElem.generator(rank, H, n)
    a1 = ScalarFraction.from_scalar(CohScalar.linear_form((1, 0, 0)))
    a12 = ScalarFraction.from_scalar(CohScalar.linear_form((1, 1, 0)))
    x = g("sig11") * g("sig11") - (g("sig1") * g("sig11")).scale(a1)
    out = formal_leibniz_eval(facts, x)
    assert out == g("sig1") * g("sig11") - g("sig11").scale(a12)
    # missing generator fact raises
    broken = FormalQElem.generator(rank, H, "mystery")
    with pytest.raises(KeyError):
        formal_leibniz_eval(facts, broken)


def test_generator_facts_leave_span():
    space = flag_space("A2")
    gens = {"g": space.rs.from_word((1, 2))}
    with pytest.raises(ValueError):
        generator_facts(space, QH, 1, gens)  # delta_1 g = [X^{s2}] is no generator


def test_quantum_operators_restrict_to_classical(gr24):
    # every q-degree of a quantum operator's image is its classical
    # counterpart applied to that degree (localize, operate, peel), over the
    # basis at q-degrees 0 and 2, a combination with a proper-fraction
    # coefficient, and the Weyl action of s_i, of w0 and of an element
    # outside W^P
    from gkmflag.model import SchubertExpansion, expand_schubert, rebuild_from_expansion
    from gkmflag.operators import bgg_left, demazure_left, weyl_left

    rs = gr24.rs
    outside = rs.from_word((3, 2, 1))
    assert outside not in gr24.points

    def classical(op, a):
        theory = H if a.theory == QH else K
        out = {}
        for qd, exp in a.terms.items():
            cls = rebuild_from_expansion(SchubertExpansion(gr24, theory, "Bminus", exp))
            img = expand_schubert(op(cls), side="Bminus").nonzero()
            if img:
                out[qd] = img
        return QuantumClass(gr24, a.theory, out)

    fracs = {
        QH: ScalarFraction.make(CohScalar.linear_form((1, 0, 0)),
                                CohScalar.one(3) + CohScalar.linear_form((0, 1, 0))),
        QK: ScalarFraction.make(KScalar.character((1, 0, 0)),
                                KScalar.from_rational(2, 3) - KScalar.character((0, 1, 0))),
    }
    for theory in (QH, QK):
        inputs = []
        for w in gr24.points:
            inputs.append(QuantumClass.basis_element(gr24, theory, w, qdeg=(0,)))
            inputs.append(QuantumClass.basis_element(gr24, theory, w, qdeg=(2,)).scale(
                fracs[theory]) + QuantumClass.basis_element(gr24, theory, rs.identity, qdeg=(1,)))
        for a in inputs:
            for i in (1, 2, 3):
                if theory == QH:
                    assert quantum_delta(i, a) == classical(partial(bgg_left, i), a)
                else:
                    assert quantum_demazure_dual(i, a) == classical(
                        partial(demazure_left, i, dual=True), a)
            for w in [rs.simple(i) for i in (1, 2, 3)] + [rs.longest_element, outside]:
                assert weyl_left_q(w, a) == classical(partial(weyl_left, w), a)


def test_quantum_suite_peels_only_the_classical_limit(monkeypatch, capsys):
    # the quantum operators act in Schubert coordinates: during the quantum
    # suite only _validate_table's classical limit expands a localized
    # class, once per product of each packaged table (the examples reuse the
    # tables the suite loaded), and nothing rebuilds one
    from gkmflag import cli, model, quantum

    callers = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            callers.append((fn.__name__, sys._getframe(1).f_code.co_name))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("expand_schubert", "rebuild_from_expansion"):
        monkeypatch.setattr(quantum, name, counted(getattr(model, name)), raising=False)
    assert cli.main(["verify", "--suite", "quantum"]) == 0
    capsys.readouterr()
    assert callers == [("expand_schubert", "_validate_table")] * 4


def test_quantum_suite_loads_each_fixture_once(monkeypatch, capsys, tmp_path):
    # the examples reuse the tables loaded under their own fixture names and
    # still load the packaged ones when --fixtures names other files
    from gkmflag import cli, quantum

    loaded = []
    load = quantum.load_fixture_table

    def counted(name):
        loaded.append(name)
        return load(name)

    monkeypatch.setattr(quantum, "load_fixture_table", counted)
    assert cli.main(["verify", "--suite", "quantum"]) == 0
    assert loaded == ["gr24_qh_partial.json", "gr24_qk_partial.json"]
    other = tmp_path / "qh.json"
    with open(os.path.join(FIXDIR, "gr24_qh_partial.json")) as f:
        other.write_text(f.read())
    del loaded[:]
    assert cli.main(["verify", "--suite", "quantum", "--fixtures", str(other)]) == 0
    assert loaded == [str(other), "gr24_qh_partial.json", "gr24_qk_partial.json"]
    capsys.readouterr()


def test_table_leibniz_and_relations(qh_table, qk_table):
    for table in (qh_table, qk_table):
        rep = verify_table(table)
        assert rep.ok, rep.failures()
        rep = verify_quantum_relations(table)
        assert rep.ok, rep.failures()


def test_fixture_loader_env_override(tmp_path, monkeypatch):
    src = os.path.join(FIXDIR, "gr24_qh_partial.json")
    with open(src) as f:
        content = f.read()
    alt = tmp_path / "gr24_qh_partial.json"
    alt.write_text(content)
    monkeypatch.setenv("GKMFLAG_FIXTURES", str(tmp_path))
    table = load_fixture_table("gr24_qh_partial.json")
    assert len(table.entries) == 2
