import random
from functools import partial

import pytest

from gkmflag import operators as ops
from gkmflag.model import (
    H,
    K,
    LocalizedClass,
    SchubertExpansion,
    ambient_class,
    expand_schubert,
    fixed_point_class,
    flag_space,
    line_bundle_class,
    rebuild_from_expansion,
    schubert_class,
)
from gkmflag.operators import (
    NonDivisibilityError,
    NonReducedWordError,
    RightOperatorOnParabolicError,
    VerificationReport,
    apply_word,
    bgg_left,
    bgg_right,
    demazure_left,
    demazure_right,
    dl_left,
    dl_left_homogenized,
    dl_right,
    dl_right_inverse,
    left_in_coordinates,
    verify_relations,
    verify_schubert_actions,
    weyl_left,
    weyl_right,
)
from gkmflag.scalars import CohScalar, KScalar, ScalarFraction


def fr(s):
    return ScalarFraction.from_scalar(s)


@pytest.fixture(scope="module")
def a1():
    return flag_space("A1")


def test_weyl_left_examples(a1):
    e, s1 = a1.points
    # left reflection moves fixed point classes
    assert weyl_left(a1.rs.simple(1), fixed_point_class(a1, H, e)) == fixed_point_class(a1, H, s1)
    kid = fixed_point_class(a1, K, e)
    moved = weyl_left(a1.rs.simple(1), kid)
    assert moved == fixed_point_class(a1, K, s1)
    assert moved.values[s1] == fr(KScalar.one(1) - KScalar.character((-1,)))
    # identity acts trivially
    assert weyl_left(a1.rs.identity, kid) == kid


def test_weyl_right_examples(a1):
    e, s1 = a1.points
    s = a1.rs.simple(1)
    assert weyl_right(s, fixed_point_class(a1, H, e)) == -fixed_point_class(a1, H, s1)
    got = weyl_right(s, fixed_point_class(a1, K, e))
    expect = fixed_point_class(a1, K, s1).scale(KScalar.character((1,))).scale(-1)
    assert got == expect
    assert weyl_right(a1.rs.identity, fixed_point_class(a1, H, e)) == fixed_point_class(a1, H, e)
    with pytest.raises(RightOperatorOnParabolicError):
        weyl_right(s, LocalizedClass.unit(flag_space("A2", (1,)), H))


def test_bgg_right_examples(a1):
    e, s1 = a1.points
    assert bgg_right(1, fixed_point_class(a1, H, e)) == schubert_class(a1, H, s1)
    assert bgg_right(1, schubert_class(a1, H, s1)).is_zero()
    assert bgg_right(1, LocalizedClass.unit(a1, H)).is_zero()


def test_bgg_left_examples(a1):
    e, s1 = a1.points
    # delta_1 [X^{s1}] = [X^{id}] = (1, 1)
    got = bgg_left(1, schubert_class(a1, H, s1, side="Bminus"))
    assert got == LocalizedClass.unit(a1, H)
    assert bgg_left(1, LocalizedClass.unit(a1, H)).is_zero()
    # on the Grassmannian of planes: delta_2 kills one box
    gr = flag_space("A3", (1, 3))
    sig1 = schubert_class(gr, H, gr.rs.simple(2), side="Bminus")
    assert bgg_left(2, sig1) == LocalizedClass.unit(gr, H)


def test_demazure_right_examples(a1):
    e, s1 = a1.points
    oid = schubert_class(a1, K, e)
    assert demazure_right(1, oid) == LocalizedClass.unit(a1, K)
    # idempotence on Schubert classes with a descent
    os1 = schubert_class(a1, K, s1)
    assert demazure_right(1, os1) == os1
    assert demazure_right(1, LocalizedClass.unit(a1, K)) == LocalizedClass.unit(a1, K)


def test_demazure_left_examples(a1):
    e, s1 = a1.points
    assert demazure_left(1, schubert_class(a1, K, e)) == schubert_class(a1, K, s1)
    assert demazure_left(1, LocalizedClass.unit(a1, K)) == LocalizedClass.unit(a1, K)
    gr = flag_space("A3", (1, 3))
    o1 = schubert_class(gr, K, gr.rs.simple(2), side="Bminus")
    assert demazure_left(2, o1, dual=True) == LocalizedClass.unit(gr, K)


def test_dl_right_examples(a1):
    e, s1 = a1.points
    alpha = CohScalar.linear_form((1,))
    one = CohScalar.one(1)
    got = dl_right(1, fixed_point_class(a1, H, e))
    assert got == LocalizedClass.from_scalars(a1, H, {e: one, s1: one + alpha})
    # constants: T^R negates 1 in cohomology (the divided difference kills
    # constants, the right reflection fixes them), returns y L in K theory
    assert dl_right(1, LocalizedClass.unit(a1, H)) == -LocalizedClass.unit(a1, H)
    klhs = dl_right(1, LocalizedClass.unit(a1, K))
    y = KScalar.y(1)
    assert klhs == line_bundle_class(a1, (1,)).scale(y)
    kgot = dl_right(1, schubert_class(a1, K, e))
    ea = KScalar.character((1,))
    em = KScalar.character((-1,))
    kone = KScalar.one(1)
    assert kgot == LocalizedClass.from_scalars(
        a1, K, {e: ea * (kone + y), s1: kone + y * em}
    )


def test_dl_left_examples(a1):
    e, s1 = a1.points
    alpha = CohScalar.linear_form((1,))
    one = CohScalar.one(1)
    # T_1^L [X_id] = (1 + a1)[X_{s1}] + [X_id]
    got = dl_left(1, fixed_point_class(a1, H, e))
    expect = schubert_class(a1, H, s1).scale(one + alpha) + fixed_point_class(a1, H, e)
    assert got == expect
    # T_1^L O_id = (1 + y e^{-a1}) O_{s1} - (1 + y + y e^{-a1}) O_id
    y = KScalar.y(1)
    em = KScalar.character((-1,))
    kone = KScalar.one(1)
    kgot = dl_left(1, schubert_class(a1, K, e))
    kexpect = schubert_class(a1, K, s1).scale(kone + y * em) - schubert_class(
        a1, K, e
    ).scale(kone + y + y * em)
    assert kgot == kexpect
    # applying twice in cohomology returns the input
    assert dl_left(1, got) == fixed_point_class(a1, H, e)


def test_dl_right_inverse(a1):
    for th in (H, K):
        b = schubert_class(a1, th, a1.points[0])
        assert dl_right_inverse(1, dl_right(1, b)) == b
        assert dl_right(1, dl_right_inverse(1, b, dual=True), dual=True) == b


def test_dl_left_homogenized(a1):
    e, s1 = a1.points
    csm_id = fixed_point_class(a1, H, e)
    hbar = CohScalar.hbar(1)
    alpha = CohScalar.linear_form((1,))
    # homogenized image of the point class is the homogenized dense cell class
    got = dl_left_homogenized(1, csm_id)
    assert got == LocalizedClass.from_scalars(a1, H, {e: hbar, s1: hbar + alpha})
    # the recovery identity s_i^L = a/(a+h) T + h/(a+h) id over the basis
    a2 = flag_space("A2")
    for i in (1, 2):
        al = CohScalar.linear_form(a2.rs.simple_root(i))
        hb = CohScalar.hbar(2)
        den = fr(al + hb)
        for w in a2.points:
            b = schubert_class(a2, H, w)
            lhs = weyl_left(a2.rs.simple(i), b)
            rhs = dl_left_homogenized(i, b).scale(fr(al) / den) + b.scale(fr(hb) / den)
            assert lhs == rhs


def _guard_class(kind, theory):
    if kind == "parabolic":
        return LocalizedClass.unit(flag_space("A2", (1,)), theory)
    a1 = flag_space("A1")
    if kind == "full":
        return LocalizedClass.unit(a1, theory)
    # polynomial restrictions 0 at e and 1 at s1: not a GKM class, so every
    # divided difference of it has a pole
    base = CohScalar if theory == H else KScalar
    e, s1 = a1.points
    return LocalizedClass.from_scalars(a1, theory, {e: base.zero(1), s1: base.one(1)})


def _guard_cases():
    other = {H: K, K: H}
    for name, op in (("bgg_right", bgg_right), ("demazure_right", demazure_right), ("dl_right", dl_right)):
        for th in (H, K):
            yield pytest.param(
                op, {}, "parabolic", th, RightOperatorOnParabolicError, "right operators",
                id="%s-parabolic-%s" % (name, th),
            )
    for name, op, th in (
        ("bgg_right", bgg_right, H), ("bgg_left", bgg_left, H),
        ("dl_left_homogenized", dl_left_homogenized, H),
        ("demazure_right", demazure_right, K), ("demazure_left", demazure_left, K),
    ):
        yield pytest.param(
            op, {}, "full", other[th], ValueError, "%s needs theory %s" % (name, th),
            id="%s-theory-%s" % (name, other[th]),
        )
    for name, op, kwargs, theories in (
        ("bgg_right", bgg_right, {}, (H,)),
        ("bgg_left", bgg_left, {}, (H,)),
        ("dl_left_homogenized", dl_left_homogenized, {}, (H,)),
        ("demazure_right", demazure_right, {}, (K,)),
        ("demazure_left", demazure_left, {}, (K,)),
        ("demazure_left_dual", demazure_left, {"dual": True}, (K,)),
        ("dl_right", dl_right, {}, (H, K)),
        ("dl_right", dl_right, {"dual": True}, (H, K)),
        ("dl_left", dl_left, {}, (H, K)),
        ("dl_left", dl_left, {"dual": True}, (H, K)),
    ):
        for th in theories:
            yield pytest.param(
                op, kwargs, "nongkm", th, NonDivisibilityError, "^%s output left" % name,
                id="%s%s-nondivisible-%s" % (op.__name__, "-dual" if kwargs else "", th),
            )


@pytest.mark.parametrize("op,kwargs,kind,theory,exc,match", list(_guard_cases()))
def test_operator_guards(op, kwargs, kind, theory, exc, match):
    with pytest.raises(exc, match=match):
        op(1, _guard_class(kind, theory), **kwargs)


def test_apply_word(a1):
    b = fixed_point_class(a1, H, a1.points[0])
    assert apply_word(dl_right, (), b) == b
    a2 = flag_space("A2")
    base = fixed_point_class(a2, H, a2.rs.identity)
    lhs = apply_word(dl_right, (1, 2, 1), base)
    rhs = apply_word(dl_right, (2, 1, 2), base)
    assert lhs == rhs
    assert apply_word(dl_right, a2.rs.longest_element, base) == lhs
    with pytest.raises(NonReducedWordError):
        apply_word(dl_right, (1, 1), base)
    # dl words generate csm classes from the point class
    from gkmflag.classes import cell_family

    csm = cell_family(a2, "csm", "B")
    for w in a2.points:
        assert apply_word(dl_right, w.inverse(), base) == csm[w]
    # the inverse word operator undoes a dl word
    for space in (a2, flag_space("B2")):
        for theory in (H, K):
            cls = space.schubert_basis(theory, "Bminus")[space.points[1]]
            for dual in (False, True):
                for w in space.points:
                    img = apply_word(lambda i, x: dl_right(i, x, dual=dual), w, cls)
                    back = apply_word(lambda i, x: dl_right_inverse(i, x, dual=dual), w.inverse(), img)
                    assert back == cls
    # left dl words generate csm classes on G/P
    gr24 = flag_space("A3", (1, 3))
    point = fixed_point_class(gr24, H, gr24.rs.identity)
    csm = cell_family(gr24, "csm", "B")
    for w in gr24.points:
        assert apply_word(dl_left, w, point) == csm[w]


def test_k_linearity_of_right_demazure(a1):
    # demazure_right is linear over the character ring
    lam = KScalar.character((1,))
    b = schubert_class(a1, K, a1.points[1], side="Bminus")
    assert demazure_right(1, b.scale(lam)) == demazure_right(1, b).scale(lam)


def test_left_ops_linear_over_invariants():
    # invariant scalars pass through the left operators
    a2 = flag_space("A2")
    sym = KScalar.zero(2)
    for b in a2.rs.positive_roots:
        sym = sym + KScalar.character(b) + KScalar.character(tuple(-c for c in b))
    b = schubert_class(a2, K, a2.points[3], side="Bminus")
    for i in (1, 2):
        assert demazure_left(i, b.scale(sym)) == demazure_left(i, b).scale(sym)
        assert dl_left(i, b.scale(sym)) == dl_left(i, b).scale(sym)


def _coordinate_operators(rank, theory, alpha):
    """(name, localized operator, (p, q, den)) for each left operator that
    ``left_in_coordinates`` serves, with (p s_i^L - q) / den its shape."""
    base = CohScalar if theory == H else KScalar
    one = base.one(rank)
    ops = [("s_i^L", lambda i, a: weyl_left(a.space.rs.simple(i), a), (one, base.zero(rank), one))]
    if theory == H:
        a = CohScalar.linear_form(alpha)
        return ops + [("delta_i", bgg_left, (-one, -one, a)), ("T_i^L", dl_left, (one + a, one, a))]
    t = KScalar.character(tuple(-c for c in alpha))
    return ops + [("delta_i^v", partial(demazure_left, dual=True), (-t, -one, one - t)),
                  ("T_i^L", dl_left, (one + KScalar.y(rank) * t, one + KScalar.y(rank), one - t))]


@pytest.mark.parametrize("label,par", [("A2", ()), ("B2", ()), ("G2", ()), ("A3", (1, 3)),
                                       ("C3", (2, 3))])
def test_left_in_coordinates_matches_the_peel(label, par):
    # the coordinate kernel against localize, operate and peel, on unit
    # vectors and one seeded combination with polynomial coefficients
    space = flag_space(label, par)
    rank = space.rs.rank
    rng = random.Random(label + str(par))
    for theory in (H, K):
        base = CohScalar if theory == H else KScalar
        one = fr(base.one(rank))

        def poly():
            vec = tuple(rng.randint(-2, 2) for _ in range(rank))
            atom = CohScalar.linear_form(vec) if theory == H else KScalar.character(vec)
            return fr(atom * rng.randint(-3, 3) + base.from_rational(rng.randint(-3, 3), rank))
        inputs = [{w: one} for w in space.points]
        inputs.append({w: poly() for w in space.points})
        for side in ("B", "Bminus"):
            for i in range(1, rank + 1):
                for name, op, (p, q, den) in _coordinate_operators(rank, theory,
                                                                   space.rs.simple_root(i)):
                    for x in inputs:
                        cls = rebuild_from_expansion(SchubertExpansion(space, theory, side, x))
                        want = expand_schubert(op(i, cls), side=side).nonzero()
                        got = left_in_coordinates(space, theory, side, i, x, p, q, den)
                        assert got == want, (name, theory, side, i)
    # a step that would carry S_v to S_{s_i v} with a non-polynomial factor
    one = CohScalar.one(rank)
    with pytest.raises(ArithmeticError):
        left_in_coordinates(space, H, "B", 1, {space.points[0]: fr(one)}, one, one,
                            CohScalar.linear_form(space.rs.simple_root(2)))


def test_verify_relations_small_spaces():
    assert verify_relations(flag_space("A2"), H).ok
    assert verify_relations(flag_space("B2"), K).ok
    rep = verify_relations(flag_space("A1"), H, corrupt=True)
    assert not rep.ok
    identity, witness = rep.failures()[0]
    assert "quadratic" in identity and witness
    # the corrupt quadratic evaluation fails every quadratic identity at its
    # first case, and nothing else
    assert verify_relations(flag_space("A2"), K, corrupt=True).failures() == [
        ("quadratic T^L", "i=1 w=e"),
        ("quadratic T^L,dual", "i=1 w=e"),
        ("quadratic T^R", "i=1 w=e"),
        ("quadratic T^R,dual", "i=1 w=e"),
    ]


# Kernel applications (calls of ``_left`` and ``_right``) of one operator
# suite.  Before the suite shared its single-letter images they were A2 744
# and 984, B2 1092 and 1508, A3/{1,3} 553 and 895 (H and K).
KERNEL_CALLS = {
    ("A2", (), H): 468, ("A2", (), K): 522,
    ("B2", (), H): 708, ("B2", (), K): 796,
    ("A3", (1, 3), H): 357, ("A3", (1, 3), K): 438,
}


@pytest.mark.parametrize("label,par,theory", sorted(KERNEL_CALLS))
def test_verify_relations_applies_each_letter_once(monkeypatch, label, par, theory):
    # count the kernel applications, and key every operator application to
    # a Schubert class by (operator, dual, letter, class): none may repeat
    space = flag_space(label, par)
    basis = {id(c) for side in ("B", "Bminus") for c in space.schubert_basis(theory, side).values()}
    kernel_calls = [0]
    seen = []

    def counted(kernel):
        def run(*args):
            kernel_calls[0] += 1
            return kernel(*args)
        return run

    def recorded(name, fn):
        def run(i, a, **kw):
            if id(a) in basis:
                seen.append((name, kw.get("dual", False), i, id(a)))
            return fn(i, a, **kw)
        return run

    for kernel in ("_left", "_right"):
        monkeypatch.setattr(ops, kernel, counted(getattr(ops, kernel)))
    for name in ("weyl_left", "bgg_left", "bgg_right", "demazure_left", "demazure_right",
                 "dl_left", "dl_right"):
        monkeypatch.setattr(ops, name, recorded(name, getattr(ops, name)))
    assert ops.verify_relations(space, theory).ok
    assert kernel_calls[0] == KERNEL_CALLS[label, par, theory]
    assert seen and len(seen) == len(set(seen))


def test_verify_schubert_actions_small_spaces():
    for label, par in (("A2", ()), ("B2", ()), ("A3", (1, 3))):
        space = flag_space(label, par)
        for th in (H, K):
            assert verify_schubert_actions(space, th).ok


def test_report_serialization():
    rep = verify_relations(flag_space("A1"), H)
    doc = rep.to_json()
    assert doc["suite"] == "operators:H"
    assert all(r["status"] == "pass" for r in doc["results"])


def test_reports_do_not_share_entries():
    a = VerificationReport("operators:H", "A1/B")
    b = VerificationReport("operators:H", "A1/B")
    a.record("one", True)
    assert a.entries == [("one", "pass", None)] and b.entries == []
    assert b.ok and not b.failures()
