import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gkmflag.roots import build_root_system
from gkmflag.scalars import (
    CohScalar,
    KScalar,
    ScalarFraction,
    divides_exactly,
    fraction_from_json,
    fraction_to_json,
    ring_arithmetic,
    scalar_gcd,
    weyl_act_scalar,
)


def frac(s):
    return ScalarFraction.from_scalar(s)


def test_ring_arithmetic_examples():
    a = CohScalar.linear_form((1, 0))
    one = CohScalar.one(2)
    fa = frac(a)
    assert ring_arithmetic(fa, fa, "div") == frac(one)
    inv = ScalarFraction.make(one, a)
    assert ring_arithmetic(inv, inv, "sub").is_zero()
    assert ring_arithmetic(inv, inv, "sub").is_polynomial()

    x = KScalar.character((1,))
    k1 = KScalar.one(1)
    f = ScalarFraction.make(k1 - x * x, k1 - x)
    assert f.is_polynomial()
    assert f.num == k1 + x

    with pytest.raises(ZeroDivisionError):
        ring_arithmetic(fa, frac(CohScalar.zero(2)), "div")
    with pytest.raises(ValueError):
        ring_arithmetic(fa, fa, "pow")


def test_divides_exactly_examples():
    a1 = CohScalar.linear_form((1, 0))
    a2 = CohScalar.linear_form((0, 1))
    ok, q = divides_exactly(a1, a1 * a1 + a1 * a2)
    assert ok and q == a1 + a2
    ok, q = divides_exactly(a1, a2)
    assert not ok and q is None

    one = KScalar.one(1)
    x = KScalar.character((1,))
    ok, q = divides_exactly(one - x, one - x * x)
    assert ok and q == one + x
    # Laurent shift: dividing by a pure character
    ok, q = divides_exactly(KScalar.character((-2,)), x)
    assert ok and q == KScalar.character((3,))


def _rand_coh(rng, rank):
    t = {}
    for _ in range(4):
        k = tuple(rng.randrange(0, 3) for _ in range(rank + 1))
        t[k] = t.get(k, 0) + Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return CohScalar.from_terms(rank, t)


def _rand_k(rng, rank):
    t = {}
    for _ in range(4):
        k = tuple(rng.randrange(-2, 3) for _ in range(rank)) + (rng.randrange(0, 3),)
        t[k] = t.get(k, 0) + Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return KScalar.from_terms(rank, t)


@pytest.mark.parametrize("maker", [_rand_coh, _rand_k])
def test_fraction_canonical_form_unique(maker):
    rng = random.Random(7)
    done = 0
    while done < 50:
        p, q, g = maker(rng, 2), maker(rng, 2), maker(rng, 2)
        if p.is_zero() or q.is_zero() or g.is_zero():
            continue
        f1 = ScalarFraction.make(p * g, q * g)
        f2 = ScalarFraction.make(p, q)
        # canonical forms agree exactly, and cross multiplication concurs
        assert f1 == f2
        assert f1.num * f2.den == f2.num * f1.den
        done += 1


def test_denominator_is_monic_and_shifted():
    x = KScalar.character((1,))
    one = KScalar.one(1)
    f = ScalarFraction.make(one, (one - x).scale(Fraction(-3)))
    lead = f.den.terms[max(f.den.terms, key=f.den._order_key)]
    assert lead == 1
    # no monomial content left in the denominator
    assert min(k[0] for k in f.den.terms) == 0
    g = ScalarFraction.make(one, KScalar.character((-2,)) - KScalar.character((-3,)))
    assert min(k[0] for k in g.den.terms) == 0


def test_weyl_action_on_scalars():
    a1 = build_root_system("A1")
    s1 = a1.simple(1)
    alpha = CohScalar.linear_form((1,))
    assert weyl_act_scalar(s1, alpha) == -alpha
    assert weyl_act_scalar(s1, CohScalar.hbar(1)) == CohScalar.hbar(1)

    a3 = build_root_system("A3")
    s2 = a3.simple(2)
    assert weyl_act_scalar(s2, KScalar.character((-1, 0, 0))) == KScalar.character(
        (-1, -1, 0)
    )
    y = KScalar.y(3)
    for w in a3.weyl_elements()[:6]:
        assert weyl_act_scalar(w, y) == y

    # involution on fractions
    w0 = a3.longest_element
    f = ScalarFraction.make(
        KScalar.character((1, 2, 1)) + y, KScalar.one(3) - KScalar.character((0, 1, 0))
    )
    assert weyl_act_scalar(w0, weyl_act_scalar(w0, f)) == f

    # ring automorphism and composition law
    g = ScalarFraction.make(CohScalar.linear_form((1, 1, 0)), CohScalar.one(3) + CohScalar.linear_form((0, 0, 1)))
    for w in a3.weyl_elements()[5:10]:
        for u in a3.weyl_elements()[10:14]:
            assert weyl_act_scalar(w, weyl_act_scalar(u, g)) == weyl_act_scalar(w * u, g)


def test_weyl_action_fixes_symmetric_combination():
    for label in ("A2", "B2"):
        rs = build_root_system(label)
        for beta in rs.positive_roots:
            sym = KScalar.character(beta) + KScalar.character(tuple(-c for c in beta))
            refl = rs.reflection(beta)
            assert weyl_act_scalar(refl, sym) == sym


def test_gcd_of_laurent_inputs():
    x = KScalar.character((1,))
    one = KScalar.one(1)
    g = scalar_gcd(KScalar.character((-1,)) - KScalar.character((1,)), one - x * x)
    # up to the unit normalization the gcd is 1 - x^2
    ok, _ = divides_exactly(g, one - x * x)
    assert ok
    assert len(g.terms) == 2


def test_serialization_round_trip():
    a3 = build_root_system("A3")
    f = ScalarFraction.make(
        CohScalar.linear_form((1, 2, 0)) * CohScalar.hbar(3) + CohScalar.from_rational(Fraction(2, 3), 3),
        CohScalar.linear_form((0, 1, 1)),
    )
    doc = json.loads(json.dumps(fraction_to_json(f)))
    assert fraction_from_json(doc, "H", 3) == f

    k = ScalarFraction.make(
        KScalar.character((-1, 0, 2)).scale(Fraction(5, 7)) + KScalar.y(3),
        KScalar.one(3) + KScalar.y(3) * KScalar.character((1, 1, 0)),
    )
    doc = json.loads(json.dumps(fraction_to_json(k)))
    assert fraction_from_json(doc, "K", 3) == k
    # byte-exact determinism
    assert json.dumps(fraction_to_json(k), sort_keys=True) == json.dumps(
        fraction_to_json(fraction_from_json(doc, "K", 3)), sort_keys=True
    )


def test_render_smoke():
    x = KScalar.character((1, 0))
    f = ScalarFraction.make(KScalar.one(2) - x * x, KScalar.one(2) - x)
    assert repr(f) == "Frac(E[a1] + 1)"
    a = CohScalar.linear_form((1, 1)) + CohScalar.hbar(2)
    assert "a1" in repr(a) and "h" in repr(a)


def test_non_dividing_gcd_raises_under_optimize():
    # the check must not be an assert, which ``python -O`` strips
    code = (
        "import gkmflag.scalars as s\n"
        "s.divides_exactly = lambda a, b: (False, b)\n"
        "x = s.CohScalar.linear_form((1, 0))\n"
        "try:\n"
        "    print(s.ScalarFraction.make(x * x, x))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: gcd does not divide the fraction\n"
