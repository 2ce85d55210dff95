import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gkmflag import scalars
from gkmflag.roots import build_root_system
from gkmflag.scalars import (
    CohScalar,
    KScalar,
    ScalarFraction,
    _p_div_exact,
    _p_gcd,
    _p_mul,
    _rat_primitive,
    divides_exactly,
    fraction_from_json,
    fraction_to_json,
    scalar_from_json,
    scalar_gcd,
    scalar_to_json,
    weyl_act_scalar,
)


def frac(s):
    return ScalarFraction.from_scalar(s)


def test_ring_arithmetic_examples():
    a = CohScalar.linear_form((1, 0))
    one = CohScalar.one(2)
    fa = frac(a)
    assert fa / fa == frac(one)
    inv = ScalarFraction.make(one, a)
    assert (inv - inv).is_zero()
    assert (inv - inv).is_polynomial()

    x = KScalar.character((1,))
    k1 = KScalar.one(1)
    f = ScalarFraction.make(k1 - x * x, k1 - x)
    assert f.is_polynomial()
    assert f.num == k1 + x

    with pytest.raises(ZeroDivisionError):
        fa / frac(CohScalar.zero(2))


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


@pytest.mark.parametrize(
    "text,value", [("-3", -3), ("5/7", Fraction(5, 7)), ("-10/4", Fraction(-5, 2))]
)
def test_coefficient_text_round_trip(text, value):
    docs = {
        "H": [{"exponents": [0, 1, 0, 2], "coeff": text}],
        "K": [{"lattice": [1, 0, -1], "y": 2, "coeff": text}],
    }
    for kind, doc in docs.items():
        s = scalar_from_json(doc, kind, 3)
        (c,) = s.terms.values()
        assert c == value and type(c) is type(value)  # integral values stay int
        assert scalar_from_json(scalar_to_json(s), kind, 3) == s


def test_render_smoke():
    x = KScalar.character((1, 0))
    f = ScalarFraction.make(KScalar.one(2) - x * x, KScalar.one(2) - x)
    assert repr(f) == "Frac(E[a1] + 1)"
    a = CohScalar.linear_form((1, 1)) + CohScalar.hbar(2)
    assert repr(a) == "CohScalar(h + a2 + a1)"
    assert repr(x) == "KScalar(E[a1])" and repr(KScalar.zero(2)) == "KScalar(0)"


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


# ---------------------------------------------------------------------------
# differential tests of the kernels against naive reference implementations
# ---------------------------------------------------------------------------

def naive_mul(f, g):
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def naive_add(f, g):
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def rand_poly(rng, nv, terms, lo=0, hi=3, fractions=False):
    out = {}
    for _ in range(terms):
        k = tuple(rng.randrange(lo, hi + 1) for _ in range(nv))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        if fractions:
            c = Fraction(c, rng.randrange(1, 5))
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def rand_monomial(rng, nv, lo=0, hi=4):
    return {tuple(rng.randrange(lo, hi + 1) for _ in range(nv)): rng.choice([-2, -1, 1, 3])}


@pytest.mark.parametrize("fractions", [False, True])
def test_p_mul_matches_naive_product(fractions):
    rng = random.Random(11)
    for _ in range(300):
        nv = rng.randrange(2, 5)
        f = rand_poly(rng, nv, rng.randrange(0, 8), fractions=fractions)
        g = rand_poly(rng, nv, rng.randrange(0, 8), fractions=fractions)
        assert _p_mul(f, g) == naive_mul(f, g)
        # a factor with a negative copy cancels terms of the product
        assert _p_mul(naive_add(f, g), naive_add(f, {k: -c for k, c in g.items()})) == naive_add(
            naive_mul(f, f), {k: -c for k, c in naive_mul(g, g).items()})


@pytest.mark.parametrize("fractions", [False, True])
def test_p_div_exact_quotient_or_none(fractions):
    rng = random.Random(12)
    done = 0
    while done < 200:
        nv = rng.randrange(2, 5)
        d = rand_poly(rng, nv, rng.randrange(2, 6), fractions=fractions)
        q = rand_poly(rng, nv, rng.randrange(1, 8), fractions=fractions)
        if len(d) < 2 or not q:
            continue
        f = naive_mul(d, q)
        assert _p_div_exact(f, d) == q
        assert _p_div_exact(f, q) == d
        # a polynomial with two or more terms divides no monomial, so adding
        # one (not cancelled by q*d) leaves a non-multiple of d
        m = rand_monomial(rng, nv)
        g = naive_add(f, m)
        if g and g != f:
            assert _p_div_exact(g, d) is None
        done += 1
    assert _p_div_exact({}, {(1, 0): 2}) == {}
    with pytest.raises(ZeroDivisionError):
        _p_div_exact({(1, 0): 1}, {})


def test_gcd_told_of_a_failed_trial_is_unchanged():
    # ScalarFraction.make passes on its failed trial num/den; the gcd and its
    # term order stay as without it: where the trial is skipped (cofactors
    # with a constant term shift f and g alike) and where unequal monomial
    # shifts make the shifted trial exact (g = monomial * h)
    rng = random.Random(17)
    done = 0
    while done < 150:
        nv = rng.randrange(2, 4)
        h = rand_poly(rng, nv, rng.randrange(1, 4))
        lift = {(0,) * nv: 1} if done % 3 == 1 else {}
        f = naive_mul(h, naive_add(rand_poly(rng, nv, rng.randrange(1, 4)), lift))
        g = naive_mul(h, naive_add(rand_poly(rng, nv, rng.randrange(1, 4)), lift)
                      if done % 3 else rand_monomial(rng, nv))
        if not f or not g or _p_div_exact(f, g) is not None:
            continue
        assert list(_p_gcd(f, g, not_multiple=True).items()) == list(_p_gcd(f, g).items())
        done += 1


def test_rat_primitive_matches_rational_scaling():
    rng = random.Random(16)
    for _ in range(300):
        f = rand_poly(rng, 3, rng.randrange(1, 7), fractions=rng.random() < 0.5)
        if not f:
            continue
        # reference: one rational scale factor, applied with Fraction arithmetic
        dens = [Fraction(c).denominator for c in f.values()]
        lcm = 1
        for d in dens:
            lcm = lcm * d // math.gcd(lcm, d)
        g = 0
        for c in f.values():
            g = math.gcd(g, abs(Fraction(c).numerator))
        scale = Fraction(lcm, g) * (1 if f[max(f)] > 0 else -1)
        got = _rat_primitive(f)
        assert got == {k: c * scale for k, c in f.items()}
        assert all(type(c) is int for c in got.values())


def test_divides_exactly_on_laurent_scalars():
    rng = random.Random(13)
    done = 0
    while done < 200:
        rank = rng.randrange(1, 4)
        nv = rank + 1
        d = rand_poly(rng, nv, rng.randrange(2, 5), lo=-2, hi=2, fractions=rng.random() < 0.5)
        q = rand_poly(rng, nv, rng.randrange(1, 6), lo=-2, hi=2)
        # y exponents stay non-negative
        d = {k[:-1] + (abs(k[-1]),): c for k, c in d.items()}
        q = {k[:-1] + (abs(k[-1]),): c for k, c in q.items()}
        if len(d) < 2 or not q:
            continue
        ks_d, ks_q = KScalar.from_terms(rank, d), KScalar.from_terms(rank, q)
        f = KScalar.from_terms(rank, naive_mul(d, q))
        ok, got = divides_exactly(ks_d, f)
        assert ok and got == ks_q
        # Laurent monomials are units: dividing by one always succeeds
        mono = KScalar.from_terms(rank, rand_monomial(rng, nv, lo=-3, hi=3))
        ok, got = divides_exactly(mono, f)
        assert ok and got * mono == f
        g = f + KScalar.from_terms(rank, rand_monomial(rng, nv, lo=-3, hi=3))
        if g != f and not g.is_zero():
            assert divides_exactly(ks_d, g) == (False, None)
        done += 1


def _naive_pow(f, e, nv):
    out = {(0,) * nv: 1}
    for _ in range(e):
        out = naive_mul(out, f)
    return out


@pytest.mark.parametrize("label", ["A3", "B2", "G2"])
def test_weight_pairing_matches_termwise_substitution(label):
    rs = build_root_system(label)
    rank = rs.rank
    nv = rank + 1
    rng = random.Random(14)
    els = rs.weyl_elements()
    for _ in range(60):
        w = rng.choice(els)
        # cohomology: alpha_j -> w(alpha_j) as a linear form, hbar fixed
        f = rand_poly(rng, nv, rng.randrange(0, 7), fractions=rng.random() < 0.5)
        want = {}
        for k, c in f.items():
            term = {(0,) * rank + (k[rank],): c}
            for j in range(rank):
                form = {tuple(int(t == i) for t in range(nv)): a for i, a in enumerate(w.images[j]) if a}
                term = naive_mul(term, _naive_pow(form, k[j], nv))
            want = naive_add(want, term)
        assert CohScalar.from_terms(rank, f).weight_pairing(w.images).terms == want
        # K theory: e^lambda -> e^{w(lambda)}, y fixed
        g = rand_poly(rng, nv, rng.randrange(0, 7), lo=-2, hi=2)
        g = {k[:-1] + (abs(k[-1]),): c for k, c in g.items()}
        want = {}
        for k, c in g.items():
            want = naive_add(want, {w.act(k[:rank]) + (k[rank],): c})
        assert KScalar.from_terms(rank, g).weight_pairing(w.images).terms == want


@pytest.mark.parametrize("label", ["A3", "B2", "G2"])
def test_weyl_products_match_image_composition(label):
    rs = build_root_system(label)
    els = rs.weyl_elements()
    by_images = {w.images: w for w in els}

    def compose(u, v):
        # (uv)(alpha_j) = u(v(alpha_j)), with u applied through its matrix
        return tuple(
            tuple(sum(c * u.images[i][t] for i, c in enumerate(vec)) for t in range(rs.rank))
            for vec in v.images
        )

    pairs = [(u, v) for u in els for v in els]
    # the second pass reads the memoised products, in another order
    for order in (pairs, pairs[::-1]):
        for u, v in order:
            assert u * v is by_images[compose(u, v)]
            assert hash(u * v) == hash(compose(u, v))
    other = build_root_system("A2" if label != "A2" else "B2")
    with pytest.raises(ValueError):
        els[1] * other.weyl_elements()[1]


def _is_canonical(f):
    den = f.den
    lead = den.terms[max(den.terms, key=den._order_key)]
    if lead != 1:
        return False
    if isinstance(den, KScalar) and any(min(k[j] for k in den.terms) for j in range(den.rank + 1)):
        return False
    return scalar_gcd(f.num, den).is_one() or f.num.is_zero()


@pytest.mark.parametrize("maker", [_rand_coh, _rand_k])
def test_make_gives_the_canonical_reduced_form(maker):
    rng = random.Random(15)
    one = type(maker(rng, 2)).one(2)
    done = 0
    while done < 40:
        p, q, d = maker(rng, 2), maker(rng, 2), maker(rng, 2)
        if p.is_zero() or q.is_zero() or d.is_zero():
            continue
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        # exact: the quotient over 1, whatever scale the denominator carries
        f = ScalarFraction.make((p * d).scale(c), d.scale(c))
        assert f.num == p and f.den == one and _is_canonical(f)
        assert ScalarFraction.make(p * d, d) == ScalarFraction(p, one)
        # not exact: reduced by the common factor, monic (and shifted) den
        g = ScalarFraction.make((p * d).scale(c), q * d)
        assert g.num * q == p.scale(c) * g.den
        assert _is_canonical(g)
        assert g == ScalarFraction.make(p.scale(c), q)
        done += 1


# ---------------------------------------------------------------------------
# fractions over atoms against the PRS path
# ---------------------------------------------------------------------------

ATOM_TYPES = ("A2", "B2", "G2", "A3")


def _atom_pool(rs, theory):
    """Atoms of every root, positive and negative: beta, 1 + beta,
    1 - beta, hbar + beta in H, and 1 - e^beta, 1 + y e^beta, y + e^beta in K."""
    rank = rs.rank
    pool = []
    for b in rs.positive_roots:
        for v in (b, tuple(-c for c in b)):
            if theory == "H":
                one, lf = CohScalar.one(rank), CohScalar.linear_form(v)
                pool += [lf, one + lf, one - lf, CohScalar.hbar(rank) + lf]
            else:
                one, y, e = KScalar.one(rank), KScalar.y(rank), KScalar.character(v)
                pool += [one - e, one + y * e, y + e]
    return pool


def _cofactor(rng, theory, rank):
    t = {}
    for _ in range(rng.randrange(1, 4)):
        if theory == "H":
            k = tuple(rng.randrange(0, 2) for _ in range(rank + 1))
        else:
            k = tuple(rng.randrange(-1, 2) for _ in range(rank)) + (rng.randrange(0, 2),)
        t[k] = t.get(k, 0) + rng.choice([-2, -1, 1, 3, Fraction(1, 2)])
    s = (CohScalar if theory == "H" else KScalar).from_terms(rank, t)
    return s if s else (CohScalar if theory == "H" else KScalar).one(rank)


def _unit(rng, theory, rank):
    """A random constant in H, a random c x^m in K."""
    c = rng.choice([-1, 2, Fraction(-1, 3)])
    if theory == "H":
        return CohScalar.from_rational(c, rank)
    return KScalar.character(tuple(rng.randrange(-1, 2) for _ in range(rank))).scale(c)


def _product(factors, one):
    out = one
    for f in factors:
        out = out * f
    return out


def _atom_fraction(rng, pool, theory, rank):
    """(fraction made over its atoms, expanded numerator, expanded denominator):
    a random cofactor times random atoms over random atoms times a unit, so
    that some atoms cancel."""
    den_f = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
    num_f = [rng.choice(pool + den_f) for _ in range(rng.randrange(0, 3))]
    num = _product(num_f, _cofactor(rng, theory, rank))
    den = _product(den_f, _unit(rng, theory, rank))
    return ScalarFraction.make(num, den, scalars.atom_names(den_f)), num, den


def _holds_atoms(f):
    """The fraction knows its atoms, and their product is its denominator."""
    if f.atoms is None:
        return False
    return f.den == _product([scalars._ATOMS[a] for a in f.atoms], type(f.num).one(f.num.rank))


def _differential_cases(label, theory, count, seed):
    """(result over atoms, expected numerator, expected denominator) for
    random sums, differences, products, scalar products and quotients, and
    Weyl images of fractions over atoms."""
    rng = random.Random(seed)
    rs = build_root_system(label)
    rank = rs.rank
    pool = _atom_pool(rs, theory)
    els = rs.weyl_elements()
    for _ in range(count):
        f, fn, fd = _atom_fraction(rng, pool, theory, rank)
        g, gn, gd = _atom_fraction(rng, pool, theory, rank)
        yield f, fn, fd
        yield f + g, fn * gd + gn * fd, fd * gd
        yield f - g, fn * gd - gn * fd, fd * gd
        yield f - f, fn.zero(rank), fd
        yield f * g, fn * gn, fd * gd
        s = rng.choice(pool + [_cofactor(rng, theory, rank)])
        yield f.mul_scalar(s), fn * s, fd
        s = rng.choice(pool + [_unit(rng, theory, rank)])
        yield f.div_scalar(s), fn, fd * s
        w = rng.choice(els)
        yield weyl_act_scalar(w, f), weyl_act_scalar(w, fn), weyl_act_scalar(w, fd)


@pytest.mark.parametrize("theory", ["H", "K"])
@pytest.mark.parametrize("label", ATOM_TYPES)
def test_atom_arithmetic_matches_the_gcd_path(label, theory):
    cases = list(_differential_cases(label, theory, 12, 19))
    before = dict(scalars.REDUCTIONS)
    for got, num, den in cases:
        assert _holds_atoms(got)
        assert got == ScalarFraction.make(num, den)
    # the expected values took the gcd, and the results never did
    assert scalars.REDUCTIONS["prs"] > before["prs"]


def test_atom_arithmetic_never_takes_the_gcd():
    before = dict(scalars.REDUCTIONS)
    results = [got for got, _, _ in _differential_cases("B2", "K", 12, 23)]
    assert scalars.REDUCTIONS["prs"] == before["prs"]
    assert scalars.REDUCTIONS["atoms"] > before["atoms"]
    assert all(_holds_atoms(f) for f in results)


def _sympy_expr(s, sympy, gens):
    return sympy.Add(*[
        sympy.Mul(sympy.Rational(c.numerator, c.denominator), *[g ** e for g, e in zip(gens, k)])
        for k, c in s.terms.items()
    ])


@pytest.mark.parametrize("theory", ["H", "K"])
def test_atom_arithmetic_matches_sympy_cancel(theory):
    sympy = pytest.importorskip("sympy")
    for label in ATOM_TYPES:
        rank = build_root_system(label).rank
        gens = sympy.symbols(" ".join("x%d" % j for j in range(rank + 1)))
        for got, num, den in _differential_cases(label, theory, 1, 29):
            gn, gd, n, d = (_sympy_expr(x, sympy, gens) for x in (got.num, got.den, num, den))
            assert sympy.expand(gn * d - n * gd) == 0
            # reduced: cancelling leaves the denominator as it is, up to a unit c x^m
            a, b = sympy.fraction(sympy.cancel(gd / sympy.fraction(sympy.cancel(gn / gd))[1]))
            assert len(sympy.Add.make_args(sympy.expand(a))) == 1
            assert len(sympy.Add.make_args(sympy.expand(b))) == 1


def test_atom_test_needs_no_root_system():
    one, y, x = KScalar.one(2), KScalar.y(2), KScalar.character
    # in K a binomial is an atom when its y-degrees differ by one, or when
    # they agree and its lattice exponents differ by a primitive vector
    for s in (one - x((1, 1)), one + y * x((2, 1)), y + x((0, -1)), one + y, x((1, 0)) - x((0, 1))):
        assert len(scalars.atom_names([s])) == 1
    for s in (one - x((2, 0)), one - y * y, one - x((2, 2)), one + x((1, 0)) + y, y * x((1, 0))):
        with pytest.raises(ValueError):
            scalars.atom_names([s])
    a1, a2 = CohScalar.linear_form((1, 0)), CohScalar.linear_form((0, 1))
    for s in (a1, a1 + a2 + CohScalar.one(2), CohScalar.hbar(2) - a2):
        assert len(scalars.atom_names([s])) == 1
    for s in (a1 * a2, CohScalar.one(2).scale(3), a1 * a1 + a2):
        with pytest.raises(ValueError):
            scalars.atom_names([s])
    # associates share one name, in either ring, whatever the term order
    assert scalars.atom_names([a1 + a2]) == scalars.atom_names([(a2 + a1).scale(-2)])
    assert scalars.atom_names([one - x((1, 0))]) == scalars.atom_names([x((-1, 0)) - one])
    assert scalars.atom_names([y + x((1, 0)), one - x((0, 1))]) == tuple(sorted(
        scalars.atom_names([f])[0] for f in (one - x((0, 1)), y + x((1, 0)))))
    # factoring over given atoms, up to a unit
    pool = scalars.atom_names([one - x((1, 0)), y + x((1, 0)), one + y * x((0, 1))])
    s = (one - x((1, 0))) * (one - x((-1, 0))) * (y + x((1, 0))) * x((2, 1)).scale(3)
    assert scalars.factor_over(s, pool) == scalars.atom_names(
        [one - x((1, 0)), one - x((1, 0)), y + x((1, 0))])
    assert scalars.factor_over(s * (one + x((1, 0))), pool) is None


# gcd-free reductions of the identity suites, pinned: a change that takes a
# suite's fractions back to the PRS gcd shows here
REDUCTION_PINS = {
    ("csm", "A2"): {"atoms": 262, "prs": 0},
    ("csm", "B2"): {"atoms": 498, "prs": 0},
    ("csm", "G2"): {"atoms": 1198, "prs": 0},
    ("csm", "A3/1,2"): {"atoms": 107, "prs": 0},
    ("motivic", "A2"): {"atoms": 242, "prs": 0},
}


@pytest.mark.parametrize("suite,space", sorted(REDUCTION_PINS))
def test_identity_suites_reduce_over_atoms(suite, space):
    label, _, par = space.partition("/")
    argv = ["verify", "--type", label[0], "--rank", label[1:], "--suite", suite]
    if par:
        argv += ["--parabolic", par]
    code = ("import contextlib, io, json, sys\n"
            "from gkmflag import cli, scalars\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(%r)\n"
            "print(json.dumps([rc, scalars.REDUCTIONS]))\n" % (argv,))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [0, REDUCTION_PINS[suite, space]]
