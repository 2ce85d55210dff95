"""Quantum modules with pluggable structure tables and the formal Leibniz engine.

The quantum product is data: a structure table maps pairs of opposite
Schubert basis elements to q-graded combinations, validated against
commutativity, the unit law, the classical (q = 0) limit computed in the
localization model, and (for quantum cohomology) the grading by the degrees
of the quantum parameters.  Gromov-Witten invariants are never computed here.

The left Weyl action and the left divided-difference operators act
q-linearly on the opposite Schubert coordinates of each q-degree, by the
classical Schubert action rules (``operators.left_in_coordinates``); no
class is localized.  The quantum Leibniz rules then hold by construction of
the left Weyl action and are verified over every table entry for which the
needed products are available (fixture tables are deliberately partial).

The formal engine evaluates the same Leibniz rules on free symbolic products
of generators, given the operator facts for single generators; those facts
are the quantum operators applied to the generators' basis elements, not
entered by hand.
"""

from __future__ import annotations

import json
import operator
import os
from functools import partial

from .io import point_parser, space_from_json
from .model import (
    H,
    K,
    _as_fraction,
    _one_fraction,
    expand_schubert,
    first_chern_class,
    flag_space,
    pair,
    schubert_class,
)
from .operators import (
    VerificationReport,
    _space_label,
    apply_word,
    braid_words,
    leibniz_rhs,
    left_in_coordinates,
)
from .roots import word_str
from .scalars import (
    CohScalar,
    KScalar,
    ScalarFraction,
    fraction_from_json,
    render_fraction,
    weyl_act_scalar,
)

QH = "QH"
QK = "QK"


class TableValidationError(ValueError):
    def __init__(self, message, pair_labels=None):
        super().__init__(message)
        self.pair_labels = pair_labels


class MissingProductError(KeyError):
    def __init__(self, u, v):
        super().__init__((u, v))
        self.pair_labels = (word_str(u.word), word_str(v.word))


def _classical_theory(theory):
    if theory == QH:
        return H
    if theory == QK:
        return K
    raise ValueError("theory must be QH or QK")


class StructureTable:
    """A (possibly partial) table of quantum structure constants."""

    def __init__(self, space, theory, qnodes, entries):
        self.space = space
        self.theory = theory
        self.qnodes = qnodes  # simple indices carrying a quantum parameter
        self.entries = entries  # (u, v) sorted pair -> tuple of (w, qdeg, coeff)

    def key(self, u, v):
        return tuple(sorted((u, v), key=lambda x: (x.length, x.word)))

    def product(self, u, v):
        """Terms of the product of two basis elements, or a unit shortcut."""
        e = self.space.rs.identity
        zero = (0,) * len(self.qnodes)
        if u is e or v is e:
            one = _one_fraction(self.space.rs.rank, _classical_theory(self.theory))
            return ((v if u is e else u, zero, one),)
        got = self.entries.get(self.key(u, v))
        if got is None:
            raise MissingProductError(u, v)
        return got


def quantum_degrees(space):
    """Degrees of the quantum parameters: integrals of c1(TX) against the
    curve classes indexed by the simple roots outside the parabolic."""
    qnodes = tuple(
        i for i in range(1, space.rs.rank + 1) if i not in space.parabolic.indices
    )
    c1 = first_chern_class(space)
    degs = {}
    for i in qnodes:
        val = pair(c1, schubert_class(space, H, space.rs.simple(i)))
        if not (val.is_polynomial() and val.num.is_constant()):
            raise ArithmeticError("degree of q_%d is not an integer" % i)
        degs[i] = int(val.num.constant_value())
    return qnodes, degs


def load_table(doc):
    """Parse and validate a structure table document (dict or JSON text).

    Text that is not JSON and a document with a missing key, a value of the
    wrong kind or a zero denominator raise TableValidationError, like a table
    that fails validation.
    """
    try:
        table, qdegs = _parse_table(json.loads(doc) if isinstance(doc, str) else doc)
    except TableValidationError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise TableValidationError(
            "malformed table document (%s: %s)" % (type(exc).__name__, exc)
        ) from exc
    _validate_table(table, qdegs)
    return table


def _parse_table(doc):
    space = space_from_json(doc["space"])
    point = point_parser(space)
    theory = doc["theory"]
    cls_theory = _classical_theory(theory)
    qnodes, qdegs = quantum_degrees(space)
    if doc.get("qdeg_arity", len(qnodes)) != len(qnodes):
        raise TableValidationError("qdeg_arity does not match the space")
    rank = space.rs.rank

    def element(label):
        try:
            return point(label)
        except ValueError as exc:
            raise TableValidationError(str(exc)) from exc

    entries = {}
    for ent in doc.get("entries", ()):
        u = element(ent["u"])
        v = element(ent["v"])
        terms = []
        for t in ent["terms"]:
            w = element(t["w"])
            qd = tuple(t.get("qdeg", (0,) * len(qnodes)))
            if len(qd) != len(qnodes) or any(d < 0 for d in qd):
                raise TableValidationError(
                    "bad q-degree on (%s, %s)" % (ent["u"], ent["v"]),
                    (ent["u"], ent["v"]),
                )
            coeff = fraction_from_json(t["coeff"], cls_theory, rank)
            if not coeff.is_zero():
                terms.append((w, qd, coeff))
        key = tuple(sorted((u, v), key=lambda x: (x.length, x.word)))
        canon = tuple(sorted(terms, key=lambda t: (t[1], t[0].length, t[0].word)))
        if key in entries and entries[key] != canon:
            raise TableValidationError(
                "commutativity violated on (%s, %s)" % (ent["u"], ent["v"]),
                (ent["u"], ent["v"]),
            )
        entries[key] = canon
    return StructureTable(space, theory, qnodes, entries), qdegs


def _validate_table(table, qdegs):
    space, theory = table.space, table.theory
    cls_theory = _classical_theory(theory)
    basis = space.schubert_basis(cls_theory, "Bminus")
    e = space.rs.identity
    zero_q = (0,) * len(table.qnodes)
    for (u, v), terms in table.entries.items():
        labels = (word_str(u.word), word_str(v.word))
        if u is e:
            expect = ((v, zero_q, _one_fraction(space.rs.rank, cls_theory)),)
            if terms != expect:
                raise TableValidationError(
                    "unit row violated on (%s, %s)" % labels, labels
                )
            continue
        # classical limit against the localization product
        classical = {w: c for w, qd, c in terms if qd == zero_q}
        product = expand_schubert(basis[u] * basis[v], side="Bminus")
        for w in space.points:
            got = classical.get(w)
            want = product.coeffs.get(w)
            gz = got is None or got.is_zero()
            wz = want is None or want.is_zero()
            if gz != wz or (not gz and got != want):
                raise TableValidationError(
                    "classical limit violated on (%s, %s) at %s"
                    % (labels[0], labels[1], word_str(w.word)),
                    labels,
                )
        if theory == QH:
            for w, qd, c in terms:
                want = u.length + v.length - w.length - sum(
                    d * qdegs[i] for d, i in zip(qd, table.qnodes)
                )
                if want < 0:
                    raise TableValidationError(
                        "grading violated on (%s, %s)" % labels, labels
                    )
                if not c.is_polynomial() or any(
                    sum(k) != want for k in c.num.terms
                ):
                    raise TableValidationError(
                        "grading violated on (%s, %s)" % labels, labels
                    )


# ---------------------------------------------------------------------------
# q-graded classes and operators
# ---------------------------------------------------------------------------

class QuantumClass:
    """A finite q-graded combination of opposite Schubert basis classes."""

    def __init__(self, space, theory, terms):
        self.space = space
        self.theory = theory
        self.terms = terms  # qdeg tuple -> {w: ScalarFraction}

    @classmethod
    def basis_element(cls, space, theory, w, qdeg=None, arity=None):
        if qdeg is None:
            if arity is None:
                arity = len(
                    [i for i in range(1, space.rs.rank + 1) if i not in space.parabolic.indices]
                )
            qdeg = (0,) * arity
        one = _one_fraction(space.rs.rank, _classical_theory(theory))
        return cls(space, theory, {tuple(qdeg): {w: one}})

    def normalized(self):
        out = {}
        for qd, exp in self.terms.items():
            nz = {w: c for w, c in exp.items() if not c.is_zero()}
            if nz:
                out[qd] = nz
        return QuantumClass(self.space, self.theory, out)

    def __add__(self, other):
        out = {qd: dict(exp) for qd, exp in self.terms.items()}
        for qd, exp in other.terms.items():
            tgt = out.setdefault(qd, {})
            for w, c in exp.items():
                tgt[w] = tgt[w] + c if w in tgt else c
        return QuantumClass(self.space, self.theory, out).normalized()

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if isinstance(c, ScalarFraction):
            out = {qd: {w: x * c for w, x in exp.items()} for qd, exp in self.terms.items()}
        else:
            s = _as_fraction(self.space.rs.rank, _classical_theory(self.theory), c).num
            out = {qd: {w: x.mul_scalar(s) for w, x in exp.items()} for qd, exp in self.terms.items()}
        return QuantumClass(self.space, self.theory, out).normalized()

    def __eq__(self, other):
        if not isinstance(other, QuantumClass):
            return NotImplemented
        return (
            self.space is other.space
            and self.theory == other.theory
            and self.normalized().terms == other.normalized().terms
        )


def q_multiply(table, a, b):
    """The quantum product through the structure table (unit law built in)."""
    if a.space is not table.space or a.theory != table.theory:
        raise ValueError("class does not match the table")
    if b.space is not table.space or b.theory != table.theory:
        raise ValueError("class does not match the table")
    out = QuantumClass(table.space, table.theory, {})
    acc = {}
    for d1, exp1 in a.terms.items():
        for d2, exp2 in b.terms.items():
            for u, cu in exp1.items():
                if cu.is_zero():
                    continue
                for v, cv in exp2.items():
                    if cv.is_zero():
                        continue
                    cuv = cu * cv
                    for w, dq, c in table.product(u, v):
                        qd = tuple(x + y + z for x, y, z in zip(d1, d2, dq))
                        tgt = acc.setdefault(qd, {})
                        add = cuv * c
                        tgt[w] = tgt[w] + add if w in tgt else add
    out.terms = acc
    return out.normalized()


def _left_q(i, a, p, q, den):
    """(p s_i^L - q) / den on the Schubert coordinates of every q-degree."""
    return QuantumClass(a.space, a.theory, {
        qd: left_in_coordinates(a.space, _classical_theory(a.theory), "Bminus", i, exp, p, q, den)
        for qd, exp in a.terms.items()}).normalized()


def weyl_left_q(w, a):
    """The q-linear extension of the left Weyl action: s_i^L letter by
    letter along w, with (p, q, den) = (1, 0, 1)."""
    base = CohScalar if a.theory == QH else KScalar
    one, zero = base.one(a.space.rs.rank), base.zero(a.space.rs.rank)
    for i in reversed(w.word):
        a = _left_q(i, a, one, zero, one)
    return a


def quantum_delta(i, a):
    """Quantum left divided difference on QH classes: (1 - s_i^L) / alpha_i."""
    if a.theory != QH:
        raise ValueError("quantum_delta acts on QH classes")
    m = CohScalar.from_rational(-1, a.space.rs.rank)
    return _left_q(i, a, m, m, CohScalar.linear_form(a.space.rs.simple_root(i)))


def quantum_demazure_dual(i, a):
    """Quantum dual left Demazure operator (1 - e^{-a_i} s_i^L)/(1 - e^{-a_i}) on QK."""
    if a.theory != QK:
        raise ValueError("quantum_demazure_dual acts on QK classes")
    t = KScalar.character(tuple(-c for c in a.space.rs.simple_root(i)))
    one = KScalar.one(a.space.rs.rank)
    return _left_q(i, a, -t, -one, one - t)


# ---------------------------------------------------------------------------
# the free symbolic module and the Leibniz engine
# ---------------------------------------------------------------------------

class FormalQElem:
    """A combination of commutative words in generator symbols with scalar
    fraction coefficients; the empty word is the unit."""

    __slots__ = ("rank", "kind", "terms")

    def __init__(self, rank, kind, terms):
        self.rank = rank
        self.kind = kind  # H or K scalars
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    @classmethod
    def unit(cls, rank, kind):
        return cls(rank, kind, {(): _one_fraction(rank, kind)})

    @classmethod
    def generator(cls, rank, kind, name):
        return cls(rank, kind, {(name,): _one_fraction(rank, kind)})

    @classmethod
    def zero(cls, rank, kind):
        return cls(rank, kind, {})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return FormalQElem(self.rank, self.kind, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] - c if w in out else -c
        return FormalQElem(self.rank, self.kind, out)

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(sorted(w1 + w2))
                c = c1 * c2
                out[w] = out[w] + c if w in out else c
        return FormalQElem(self.rank, self.kind, out)

    def scale(self, c):
        c = _as_fraction(self.rank, self.kind, c)
        return FormalQElem(self.rank, self.kind, {w: x * c for w, x in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, FormalQElem)
            and self.kind == other.kind
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            name = "*".join(w) if w else "1"
            bits.append("(%s)%s" % (render_fraction(c), "" if not w else "*" + name))
        return " + ".join(bits)


class GeneratorFacts:
    """Single-generator operator facts feeding the formal Leibniz engine."""

    def __init__(self, rs, i, kind, delta, sweyl):
        self.rs = rs
        self.i = i
        self.kind = kind  # H for the QH rules, K for the QK rules
        self.delta = delta  # generator name -> FormalQElem
        self.sweyl = sweyl  # generator name -> FormalQElem


def formal_leibniz_eval(facts, x):
    """Evaluate the left divided difference on a formal product by the
    Leibniz rule (two-term in cohomology, three-term in K theory), over the
    generators of each word and then over its scalar coefficient."""
    rank = facts.rs.rank
    kind = facts.kind
    si = facts.rs.simple(facts.i)
    alpha = facts.rs.simple_root(facts.i)
    one = _one_fraction(rank, kind)

    if kind == H:
        t = None
        alpha_f = ScalarFraction.from_scalar(CohScalar.linear_form(alpha))

        def dd_scalar(c):
            return (c - weyl_act_scalar(si, c)) / alpha_f
    else:
        t = ScalarFraction.from_scalar(KScalar.character(tuple(-a for a in alpha)))
        den = one - t

        def dd_scalar(c):
            return (c - t * weyl_act_scalar(si, c)) / den

    def monomial(word):
        return FormalQElem(rank, kind, {word: one})

    def s_word(word):
        out = FormalQElem.unit(rank, kind)
        for g in word:
            out = out * facts.sweyl[g]
        return out

    def delta_word(word):
        # unit: delta(1) = 0 in cohomology, 1 in K theory
        if not word:
            if kind == H:
                return FormalQElem.zero(rank, kind)
            return FormalQElem.unit(rank, kind)
        g, rest = word[0], word[1:]
        dg = facts.delta.get(g)
        if dg is None:
            raise KeyError("no operator fact for generator %r" % (g,))
        return leibniz_rhs(operator.mul, dg, monomial(rest), facts.sweyl[g],
                           delta_word(rest), s_word(rest), t)

    out = FormalQElem.zero(rank, kind)
    for word, c in x.terms.items():
        out = out + leibniz_rhs(lambda f, e: e.scale(f), dd_scalar(c), monomial(word),
                                weyl_act_scalar(si, c), delta_word(word), s_word(word), t)
    return out


def generator_facts(space, theory, i, generators):
    """Operator facts for the named generators: the quantum left divided
    difference and the left simple reflection of each generator's basis
    element, read in the named basis elements.

    The image may only involve the unit and the generators themselves;
    anything else means the chosen generators do not suffice.
    """
    kind = _classical_theory(theory)
    rank = space.rs.rank
    names = {w: name for name, w in generators.items()}
    op = quantum_delta if theory == QH else quantum_demazure_dual

    def to_formal(img):
        terms = {}
        for exp in img.terms.values():  # degree zero only: the operators are q-linear
            for w, c in exp.items():
                if w.length and w not in names:
                    raise ValueError(
                        "operator image leaves the generator span at %s" % word_str(w.word))
                terms[(names[w],) if w.length else ()] = c
        return FormalQElem(rank, kind, terms)

    basis = {n: QuantumClass.basis_element(space, theory, w) for n, w in generators.items()}
    delta = {n: to_formal(op(i, b)) for n, b in basis.items()}
    sweyl = {n: to_formal(weyl_left_q(space.rs.simple(i), b)) for n, b in basis.items()}
    return GeneratorFacts(space.rs, i, kind, delta, sweyl)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_table(table):
    """Quantum Leibniz rule over every basis pair of the table for which all
    needed products exist; pairs with missing products are reported skipped."""
    space, theory = table.space, table.theory
    rs = space.rs
    rep = VerificationReport("quantum:%s" % theory, _space_label(space))
    arity = len(table.qnodes)
    op = quantum_delta if theory == QH else quantum_demazure_dual
    checked = 0
    skipped = []
    for (u, v) in list(table.entries):
        for (a_el, b_el) in ((u, v), (v, u)):
            a = QuantumClass.basis_element(space, theory, a_el, arity=arity)
            b = QuantumClass.basis_element(space, theory, b_el, arity=arity)
            for i in range(1, rs.rank + 1):
                si = rs.simple(i)
                t = None if theory == QH else KScalar.character(tuple(-c for c in rs.simple_root(i)))
                try:
                    lhs = op(i, q_multiply(table, a, b))
                    rhs = leibniz_rhs(partial(q_multiply, table), op(i, a), b, weyl_left_q(si, a),
                                      op(i, b), weyl_left_q(si, b), t)
                except MissingProductError as exc:
                    skipped.append(
                        "i=%d (%s,%s) needs %s"
                        % (i, word_str(a_el.word), word_str(b_el.word), exc.pair_labels)
                    )
                    continue
                checked += 1
                if lhs != rhs:
                    rep.record(
                        "quantum Leibniz", False,
                        "i=%d (%s,%s)" % (i, word_str(a_el.word), word_str(b_el.word)),
                    )
                    return rep
    rep.record("quantum Leibniz on %d checkable triples" % checked, True)
    if skipped:
        rep.record("skipped (partial table): %d" % len(skipped), True)
    return rep


def verify_quantum_examples(tables=None):
    """The two worked derivations on the Grassmannian of planes in 4-space,
    reproduced end to end through the formal Leibniz engine and, where the
    fixture tables carry the products, through table-mode multiplication.
    ``tables`` maps fixture names to tables already loaded under those names;
    the fixtures it lacks are loaded here.

    Character letters follow the documented convention: the generator-fact
    classes printed with T_i letters correspond to T_i = e^{-alpha_i}.
    """
    rep = VerificationReport("quantum-examples", "A3/{1,3}")
    space = flag_space("A3", (1, 3))
    rs = space.rs
    rank = rs.rank
    s2 = rs.from_word((2,))
    s12 = rs.from_word((1, 2))
    s132 = rs.from_word((1, 3, 2))
    point = rs.from_word((2, 1, 3, 2))

    # quantum cohomology derivation
    gens = {"sig1": s2, "sig11": s12}
    facts = generator_facts(space, QH, 2, gens)
    g = lambda n: FormalQElem.generator(rank, H, n)
    a1 = ScalarFraction.from_scalar(CohScalar.linear_form((1, 0, 0)))
    a12 = ScalarFraction.from_scalar(CohScalar.linear_form((1, 1, 0)))
    x = g("sig11") * g("sig11") - (g("sig1") * g("sig11")).scale(a1)
    out = formal_leibniz_eval(facts, x)
    expect = g("sig1") * g("sig11") - g("sig11").scale(a12)
    rep.record("QH point-class derivation via formal Leibniz", out == expect)
    unit = FormalQElem.unit(rank, H)
    facts1 = generator_facts(space, QH, 1, gens)
    facts3 = generator_facts(space, QH, 3, gens)
    rep.record(
        "QH single-generator operator facts",
        facts.delta["sig1"] == unit
        and facts1.delta["sig11"] == g("sig1")
        and facts1.delta["sig1"] == FormalQElem.zero(rank, H)
        and facts3.delta["sig1"] == FormalQElem.zero(rank, H)
        and facts.delta["sig11"] == FormalQElem.zero(rank, H)
        and facts3.delta["sig11"] == FormalQElem.zero(rank, H),
    )

    # quantum K derivation, with T_i read as e^{-alpha_i}
    kgens = {"O1": s2, "O11": s12}
    kfacts = generator_facts(space, QK, 2, kgens)
    kg = lambda n: FormalQElem.generator(rank, K, n)
    kone = ScalarFraction.from_scalar(KScalar.one(rank))
    t1_inv = ScalarFraction.from_scalar(KScalar.character((1, 0, 0)))
    t12_inv = ScalarFraction.from_scalar(KScalar.character((1, 1, 0)))
    t2_inv = ScalarFraction.from_scalar(KScalar.character((0, 1, 0)))
    kunit = FormalQElem.unit(rank, K)
    rep.record(
        "QK single-generator operator facts",
        kfacts.delta["O11"] == kg("O11")
        and kfacts.sweyl["O11"] == kg("O11")
        and kfacts.delta["O1"] == kunit
        and kfacts.sweyl["O1"] == kg("O1").scale(t2_inv) + kunit.scale(kone - t2_inv),
    )
    first = formal_leibniz_eval(kfacts, (kg("O11") * kg("O11")).scale(t1_inv))
    rep.record("QK first summand maps to zero", first == FormalQElem.zero(rank, K))
    kx = (kg("O11") * kg("O11")).scale(t1_inv) + (kg("O1") * kg("O11")).scale(kone - t1_inv)
    kout = formal_leibniz_eval(kfacts, kx)
    kexpect = (kg("O1") * kg("O11")).scale(t12_inv) + kg("O11").scale(kone - t12_inv)
    rep.record("QK point-class derivation via formal Leibniz", kout == kexpect)

    # table mode: the fixture products realize the same identities
    for theory, fname in ((QH, "gr24_qh_partial.json"), (QK, "gr24_qk_partial.json")):
        table = (tables or {}).get(fname) or load_fixture_table(fname)
        arity = len(table.qnodes)
        b1 = QuantumClass.basis_element(space, theory, s2, arity=arity)
        b11 = QuantumClass.basis_element(space, theory, s12, arity=arity)
        ppoint = QuantumClass.basis_element(space, theory, point, arity=arity)
        pmid = QuantumClass.basis_element(space, theory, s132, arity=arity)
        if theory == QH:
            combo = q_multiply(table, b11, b11) - q_multiply(table, b1, b11).scale(
                CohScalar.linear_form((1, 0, 0))
            )
            rep.record("QH fixture reproduces the point class", combo == ppoint)
            rep.record(
                "QH quantum delta sends the point class down",
                quantum_delta(2, ppoint) == pmid,
            )
        else:
            e_a1 = KScalar.character((1, 0, 0))
            one = KScalar.one(rank)
            combo = q_multiply(table, b11, b11).scale(e_a1) + q_multiply(
                table, b1, b11
            ).scale(one - e_a1)
            rep.record("QK fixture reproduces the point class", combo == ppoint)
            rep.record(
                "QK dual quantum Demazure sends the point class down",
                quantum_demazure_dual(2, ppoint) == pmid,
            )
    return rep


def fixture_dir():
    override = os.environ.get("GKMFLAG_FIXTURES")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


def load_fixture_table(name):
    """Load a structure table file; an unreadable or invalid file raises
    TableValidationError naming the file."""
    path = name if os.path.sep in name or os.path.exists(name) else os.path.join(
        fixture_dir(), name
    )
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TableValidationError("cannot read %s: %s" % (path, exc)) from exc
    try:
        return load_table(text)
    except TableValidationError as exc:
        raise TableValidationError("%s: %s" % (path, exc), exc.pair_labels) from exc


def verify_quantum_relations(table):
    """Braid and quadratic relations of the quantum operators over the basis
    tensored with small q-degrees; these act degree-wise, so this pins the
    q-linear extension."""
    space, theory = table.space, table.theory
    rs = space.rs
    rep = VerificationReport("quantum-relations:%s" % theory, _space_label(space))
    arity = len(table.qnodes)
    op = quantum_delta if theory == QH else quantum_demazure_dual

    def qdeg(d):
        return (d,) + (0,) * (arity - 1) if arity else ()
    elements = {(w, d): QuantumClass.basis_element(space, theory, w, qdeg=qdeg(d))
                for w in space.points for d in range(3)}
    images = {}

    def image(i, w, d):
        # op(i, a) for the basis element a at (w, q^d), once per suite
        if (i, w, d) not in images:
            images[i, w, d] = op(i, elements[w, d])
        return images[i, w, d]

    def gen_idem():
        for i in range(1, rs.rank + 1):
            for w in space.points:
                for d in range(3):
                    da = image(i, w, d)
                    expect = QuantumClass(space, theory, {}) if theory == QH else da
                    yield ("i=%d w=%s q=%s" % (i, word_str(w.word), qdeg(d)), op(i, da), expect)
    rep.check("quantum delta squares", gen_idem())

    def gen_braid():
        # the rightmost letter of each word acts on a q^1 basis element
        for i, j, wi, wj in braid_words(rs):
            for w in space.points:
                yield ("(%d,%d) w=%s" % (i, j, word_str(w.word)),
                       apply_word(op, wi[:-1], image(wi[-1], w, 1)),
                       apply_word(op, wj[:-1], image(wj[-1], w, 1)))
    rep.check("quantum delta braid relations", gen_braid())
    return rep
