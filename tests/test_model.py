import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gkmflag.model import (
    H,
    K,
    LocalizedClass,
    TheoryMismatchError,
    ambient_class,
    expand_schubert,
    first_chern_class,
    fixed_point_class,
    flag_space,
    gkm_check,
    integrate,
    line_bundle_class,
    pair,
    pullback_parabolic,
    pushforward_parabolic,
    rebuild_from_expansion,
    schubert_class,
)
from gkmflag.scalars import CohScalar, KScalar, ScalarFraction


def fr(s):
    return ScalarFraction.from_scalar(s)


def coh(space, vals):
    """Helper: a cohomology class from scalar restrictions listed by point."""
    return LocalizedClass.from_scalars(
        space, H, dict(zip(space.points, vals))
    )


@pytest.fixture(scope="module")
def a1():
    return flag_space("A1")


@pytest.fixture(scope="module")
def gr24():
    return flag_space("A3", (1, 3))


def test_tangent_and_euler(a1, gr24):
    e, s1 = a1.points
    assert a1.tangent_weights(e) == ((-1,),)
    assert a1.euler_class(e) == -CohScalar.linear_form((1,))
    assert a1.euler_class(s1) == CohScalar.linear_form((1,))
    one = KScalar.one(1)
    assert a1.lambda_minus1_cotangent(e) == one - KScalar.character((1,))
    assert a1.lambda_minus1_cotangent(s1) == one - KScalar.character((-1,))

    wts = set(gr24.tangent_weights(gr24.points[0]))
    assert wts == {(0, -1, 0), (-1, -1, 0), (0, -1, -1), (-1, -1, -1)}
    assert gr24.dim == 4
    assert gr24.dim == max(w.length for w in gr24.points)


def test_fixed_point_classes(a1):
    e, s1 = a1.points
    fid = fixed_point_class(a1, H, e)
    assert fid.values[e] == fr(-CohScalar.linear_form((1,)))
    assert fid.values[s1].is_zero()
    kid = fixed_point_class(a1, K, e)
    assert kid.values[e] == fr(KScalar.one(1) - KScalar.character((1,)))
    for space in (a1, flag_space("A2", (1,))):
        for th in (H, K):
            for v in space.points:
                fp = fixed_point_class(space, th, v)
                support = [u for u in space.points if not fp.values[u].is_zero()]
                assert support == [v]


def test_line_bundle_class(a1):
    triv = line_bundle_class(a1, (0,))
    assert triv == LocalizedClass.unit(a1, K)
    lb = line_bundle_class(a1, (1,))
    e, s1 = a1.points
    assert lb.values[e] == fr(KScalar.character((1,)))
    assert lb.values[s1] == fr(KScalar.character((-1,)))
    # restriction at the longest element is the twisted character
    a2 = flag_space("A2")
    lam = (2, 1)
    lb2 = line_bundle_class(a2, lam)
    w0 = a2.rs.longest_element
    assert lb2.values[w0] == fr(KScalar.character(w0.act(lam)))
    # on a parabolic space the weight must be W_P-invariant
    p2 = flag_space("A2", (1,))
    with pytest.raises(ValueError):
        line_bundle_class(p2, (1, 0))


def test_schubert_classes_a1(a1):
    e, s1 = a1.points
    alpha = CohScalar.linear_form((1,))
    assert schubert_class(a1, H, s1) == coh(a1, [CohScalar.one(1), CohScalar.one(1)])
    assert schubert_class(a1, H, s1, side="Bminus") == coh(
        a1, [CohScalar.zero(1), alpha]
    )
    os1 = schubert_class(a1, K, s1)
    assert os1 == LocalizedClass.unit(a1, K)
    # the point class in K is the structure sheaf of the fixed point
    assert schubert_class(a1, K, e) == fixed_point_class(a1, K, e)


def test_fixed_point_expansion_in_k_schubert_basis(a1):
    # iota_{s1} = (1 - e^{-a1}) O_{s1} + e^{-a1} O_id
    e, s1 = a1.points
    iota = fixed_point_class(a1, K, s1)
    exp = expand_schubert(iota, side="B")
    one = KScalar.one(1)
    em = KScalar.character((-1,))
    assert exp.coeffs[s1] == fr(one - em)
    assert exp.coeffs[e] == fr(em)
    assert rebuild_from_expansion(exp) == iota

    opp = expand_schubert(iota, side="Bminus")
    assert rebuild_from_expansion(opp) == iota


def test_integrate_and_pair(a1):
    e, s1 = a1.points
    one = fr(CohScalar.one(1))
    assert integrate(fixed_point_class(a1, H, e)) == one
    assert integrate(schubert_class(a1, H, s1)).is_zero()
    kone = fr(KScalar.one(1))
    assert integrate(schubert_class(a1, K, s1)) == kone  # chi(P^1, O) = 1
    assert integrate(LocalizedClass.unit(a1, K)) == kone
    assert pair(fixed_point_class(a1, H, e), schubert_class(a1, H, s1)) == one
    a = schubert_class(a1, H, s1)
    b = fixed_point_class(a1, H, e)
    assert pair(a, b) == pair(b, a)
    with pytest.raises(TheoryMismatchError):
        pair(schubert_class(a1, H, s1), schubert_class(a1, K, s1))


def test_pushforward_pullback(gr24):
    full = gr24.full_flag()
    rs = gr24.rs
    e = rs.identity
    # the point class pushes to the point class
    assert pushforward_parabolic(
        schubert_class(full, H, e), gr24
    ) == schubert_class(gr24, H, e)
    # a class indexed outside the minimal representatives pushes to zero
    s1 = rs.simple(1)
    assert pushforward_parabolic(schubert_class(full, H, s1), gr24).is_zero()
    # pullback of the unit is the unit, pushforward of the unit in K is 1
    assert pullback_parabolic(LocalizedClass.unit(gr24, H), full) == LocalizedClass.unit(full, H)
    assert pushforward_parabolic(LocalizedClass.unit(full, K), gr24) == LocalizedClass.unit(gr24, K)
    # push-pull is multiplication by the pushforward of 1
    for th in (H, K):
        b = schubert_class(gr24, th, gr24.points[2])
        lhs = pushforward_parabolic(pullback_parabolic(b, full), gr24)
        rhs = b * pushforward_parabolic(LocalizedClass.unit(full, th), gr24)
        assert lhs == rhs
    # K pushforward of a parabolic-compatible Schubert class
    for w in gr24.points:
        assert pushforward_parabolic(
            schubert_class(full, K, w), gr24
        ) == schubert_class(gr24, K, w)


def test_gkm_check(a1):
    e, s1 = a1.points
    assert gkm_check(schubert_class(a1, H, s1)) == ("pass", None)
    alpha = CohScalar.linear_form((1,))
    good = coh(a1, [alpha, CohScalar.zero(1)])
    assert gkm_check(good) == ("pass", None)
    bad = coh(a1, [CohScalar.one(1), CohScalar.zero(1)])
    status, witness = gkm_check(bad)
    assert status == "fail" and witness == (e, (1,))
    frac = LocalizedClass(
        a1, H, {e: ScalarFraction.make(CohScalar.one(1), alpha), s1: fr(CohScalar.zero(1))}
    )
    assert gkm_check(frac)[0] == "nonpolynomial"


def test_gkm_passes_on_generated_classes():
    for label, par in (("A2", ()), ("B2", ()), ("A3", (1, 3))):
        space = flag_space(label, par)
        for th in (H, K):
            for side in ("B", "Bminus"):
                for w in space.points:
                    assert gkm_check(schubert_class(space, th, w, side=side))[0] == "pass"
            for v in space.points:
                assert gkm_check(fixed_point_class(space, th, v))[0] == "pass"


def test_localization_expansion_identity():
    for label, par in (("A2", ()), ("B2", ()), ("A3", (1, 3))):
        space = flag_space(label, par)
        for th in (H, K):
            a = schubert_class(space, th, space.points[-1], side="Bminus")
            numers, den = space.weights(th)
            total = LocalizedClass.zero(space, th)
            for v in space.points:
                weight = a.values[v] * ScalarFraction.make(numers[v], den)
                total = total + fixed_point_class(space, th, v).scale(weight)
            assert total == a


def test_schubert_gram_matrices_unimodular_triangular():
    from gkmflag.roots import bruhat_leq

    for label, par in (("A1", ()), ("A2", ()), ("B2", ()), ("A3", ()), ("G2", ())):
        space = flag_space(label, par)
        for th in (H, K):
            bas = space.schubert_basis(th, "B")
            obas = space.schubert_basis(th, "Bminus")
            for u in space.points:
                for v in space.points:
                    val = pair(bas[u], obas[v])
                    if u is v:
                        assert val == fr(
                            CohScalar.one(space.rs.rank) if th == H else KScalar.one(space.rs.rank)
                        )
                    elif not bruhat_leq(v, u):
                        assert val.is_zero()
                    elif th == H:
                        # cohomology: the full matrix is the identity
                        assert val.is_zero()


def test_ambient_class(a1):
    alpha = CohScalar.linear_form((1,))
    one = CohScalar.one(1)
    assert ambient_class(a1, H) == coh(a1, [one - alpha, one + alpha])
    amb = ambient_class(a1, K)
    y = KScalar.y(1)
    assert amb.values[a1.points[0]] == fr(KScalar.one(1) + y * KScalar.character((1,)))
    # y = 0 specialization of the K ambient class is the unit
    for v in a1.points:
        assert amb.values[v].num.substitute_y(0) == KScalar.one(1)


def test_first_chern_degree_on_gr24(gr24):
    c1 = first_chern_class(gr24)
    deg = pair(c1, schubert_class(gr24, H, gr24.rs.simple(2)))
    assert deg == fr(CohScalar.from_rational(4, 3))


def test_expansion_round_trip_all_bases():
    space = flag_space("A2")
    for th in (H, K):
        for side in ("B", "Bminus"):
            a = ambient_class(space, th)
            exp = expand_schubert(a, side=side)
            assert rebuild_from_expansion(exp) == a
            # cohomology Schubert expansions of polynomial classes are polynomial
            if th == H:
                assert all(c.is_polynomial() for c in exp.coeffs.values())


def test_duality_pairing_complementary_dimensions():
    space = flag_space("A2")
    dim = space.dim
    for w in space.points:
        for u in space.points:
            val = pair(schubert_class(space, H, w), schubert_class(space, H, u, side="Bminus"))
            if w.length + u.length == dim:
                expected = fr(CohScalar.one(2)) if w is u else None
                if w is u:
                    assert val == expected


def test_nonterminating_expansion_raises_under_optimize():
    # a basis that is not triangular leaves a remainder; the check must not
    # be an assert, which ``python -O`` strips
    code = (
        "from gkmflag.model import H, LocalizedClass, expand_schubert, fixed_point_class, flag_space\n"
        "sp = flag_space('A1')\n"
        "unit = LocalizedClass.unit(sp, H)\n"
        "sp._cache[('schubert', H, 'B')] = {w: unit for w in sp.points}\n"
        "try:\n"
        "    expand_schubert(fixed_point_class(sp, H, sp.points[0]))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: expansion did not terminate\n"
