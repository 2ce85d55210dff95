"""Exact scalar rings for the localization model.

Two coefficient rings, both with exact rational coefficients:

* ``CohScalar``: polynomials in the simple roots a1..ar and the homogenizing
  variable hbar, stored as {exponent tuple (e1..er, ehbar): Fraction}.
  Canonical monomial order is graded lex with a1 < ... < ar < hbar.
* ``KScalar``: the character ring, Laurent in x_i = e^{alpha_i} together with
  the parameter y, stored as {(lattice tuple, y exponent): Fraction} with
  arbitrary integer exponents.  Canonical order is lattice-then-y lex.

``ScalarFraction`` is the common fraction type over either ring.  Fractions
are always stored in canonical form: gcd-reduced, with the denominator a
monic polynomial (for KScalar additionally shifted so every variable has
minimum exponent zero in the denominator).  Two equal fractions are therefore
structurally identical.

The gcd is a primitive polynomial-remainder-sequence computed directly on the
exponent dictionaries; Laurent inputs are shifted to genuine polynomials
first.  Exact division is leading-term elimination and fails fast, which
makes "is this a multiple" checks cheap.  Most quotients in the geometry are
exact, so ``ScalarFraction.make`` first divides the numerator by the
denominator once and calls the gcd only when that fails; the gcd in turn
tries division both ways before its remainder sequence.

Exponent keys are added and subtracted with ``tuple(map(add, k1, k2))``, the
cheapest form in CPython.  The kernels insert result terms in a fixed order,
and it matters: the gcd's content loop stops at the first unit coefficient,
so equal polynomials with their terms in another order cost different
amounts in later arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from operator import add, itemgetter, neg, sub


def _coeff(c):
    """Coerce to an exact coefficient, preferring plain integers."""
    if type(c) is int:
        return c
    c = Fraction(c)
    if c.denominator == 1:
        return c.numerator
    return c


# ---------------------------------------------------------------------------
# raw polynomial dictionaries (flat exponent tuples -> Fraction)
# ---------------------------------------------------------------------------

def _p_iadd(out, g):
    """Add g into out in place; returns out."""
    for k, c in g.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _p_neg(f):
    return {k: -c for k, c in f.items()}


def _p_sub(f, g):
    out = dict(f)
    for k, c in g.items():
        s = out.get(k)
        if s is None:
            out[k] = -c
        else:
            s = s - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _p_mul(f, g):
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(map(add, k1, k2))
            s = out.get(k)
            if s is None:
                out[k] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def _p_scale(f, c):
    if not c:
        return {}
    return {k: v * c for k, v in f.items()}


def _p_shift(f, off):
    return {tuple(map(add, k, off)): c for k, c in f.items()}


def _min_exps(f):
    return tuple(map(min, zip(*f)))


def _p_div_exact(f, d):
    """Quotient f/d if exact, else None.  Exponents must be non-negative.

    Uses plain lex on the exponent tuples (any monomial order works for an
    exactness test).  Integer coefficients stay integers when they divide.
    """
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return {}
    dlead = max(d)
    dc = d[dlead]
    rem = dict(f)
    quo = {}
    while rem:
        rlead = max(rem)
        qk = tuple(map(sub, rlead, dlead))
        if min(qk) < 0:
            return None
        rc = rem[rlead]
        if type(rc) is int and type(dc) is int:
            q, r = divmod(rc, dc)
            qc = q if r == 0 else Fraction(rc, dc)
        else:
            qc = rc / dc
        quo[qk] = qc
        for k, c in d.items():
            kk = tuple(map(add, k, qk))
            s = rem.get(kk)
            if s is None:
                rem[kk] = -c * qc
            else:
                s = s - c * qc
                if s:
                    rem[kk] = s
                else:
                    del rem[kk]
    return quo


def _rat_primitive(f):
    """Scale f to integer coefficients, content 1, positive leading coeff."""
    if not f:
        return f
    num_gcd = 0
    den_lcm = 1
    for c in f.values():
        if type(c) is int:
            num_gcd = int_gcd(num_gcd, abs(c))
        else:
            num_gcd = int_gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    if f[max(f)] < 0:
        num_gcd = -num_gcd
    # exact in integers: num_gcd divides every scaled numerator
    return {
        k: (c * den_lcm if type(c) is int else c.numerator * (den_lcm // c.denominator)) // num_gcd
        for k, c in f.items()
    }


def _p_gcd(f, g, not_multiple=False):
    """Gcd of polynomial dicts with non-negative exponents.

    The result is integer-primitive with positive leading coefficient; the
    gcd of two zero polynomials is zero and gcd with a constant is one.
    ``not_multiple`` says the caller found that g does not divide f, which
    spares the trial f/g where both are shifted alike.
    """
    if not f:
        return _rat_primitive(g)
    if not g:
        return _rat_primitive(f)

    nv = len(next(iter(f)))
    mf = _min_exps(f)
    mg = _min_exps(g)
    mono = tuple(map(min, mf, mg))
    if any(mf) or any(mg):
        f = _p_shift(f, tuple(map(neg, mf)))
        g = _p_shift(g, tuple(map(neg, mg)))

    one = {(0,) * nv: 1}
    if len(f) == 1 and not any(next(iter(f))):
        core = one
    elif len(g) == 1 and not any(next(iter(g))):
        core = one
    else:
        # multiples reduce completely in one try; common in the geometry
        if not (not_multiple and mf == mg) and _p_div_exact(f, g) is not None:
            core = _rat_primitive(g)
        elif _p_div_exact(g, f) is not None:
            core = _rat_primitive(f)
        else:
            core = _gcd_prs(f, g, nv)
    if any(mono):
        core = _p_shift(core, mono)
    return core


def _gcd_prs(f, g, nv):
    """Subresultant PRS gcd (contents are stripped once, not per step)."""
    # main variable: smallest positive top degree keeps the PRS short
    degs_f = [max(k[j] for k in f) for j in range(nv)]
    degs_g = [max(k[j] for k in g) for j in range(nv)]
    main = None
    best = None
    for j in range(nv):
        d = max(degs_f[j], degs_g[j])
        if degs_f[j] > 0 or degs_g[j] > 0:
            if best is None or d < best:
                best = d
                main = j
    if main is None:
        return {(0,) * nv: 1}

    one = {(0,) * nv: 1}

    def split(p):
        coeffs = {}
        for k, c in p.items():
            e = k[main]
            kk = k[:main] + (0,) + k[main + 1:]
            coeffs.setdefault(e, {})[kk] = c
        return coeffs

    def joined(coeffs):
        out = {}
        for e, sub in coeffs.items():
            for kk, c in sub.items():
                out[kk[:main] + (e,) + kk[main + 1:]] = c
        return out

    def content(coeffs):
        c = {}
        for sub in coeffs.values():
            c = _p_gcd(c, sub)
            if len(c) == 1 and not any(next(iter(c))):
                return dict(one)
        return c

    def coeff_div(coeffs, d):
        if len(d) == 1 and not any(next(iter(d))) and d[next(iter(d))] == 1:
            return coeffs
        return {e: _p_div_exact(sub, d) for e, sub in coeffs.items()}

    def prem(A, B):
        # pseudo-remainder lc(B)^(degA-degB+1) * A mod B, on split dicts
        dB = max(B)
        lcB = B[dB]
        R = A
        dR = max(R)
        steps = dR - dB + 1
        while R and (dR := max(R)) >= dB:
            lcR = R[dR]
            newR = {}
            for e, c in R.items():
                if e != dR:
                    newR[e] = _p_mul(c, lcB)
            for e, c in B.items():
                if e != dB:
                    ee = e + dR - dB
                    prev = newR.get(ee)
                    term = _p_mul(c, lcR)
                    newR[ee] = _p_sub(prev, term) if prev is not None else _p_neg(term)
            R = {e: c for e, c in newR.items() if c}
            steps -= 1
        # match the exact multiplier lc(B)^(degA-degB+1)
        for _ in range(steps):
            R = {e: _p_mul(c, lcB) for e, c in R.items()}
        return R

    A = split(_rat_primitive(f))
    B = split(_rat_primitive(g))
    cA = content(A)
    cB = content(B)
    cont = _p_gcd(cA, cB)
    A = coeff_div(A, cA)
    B = coeff_div(B, cB)
    if max(A) < max(B):
        A, B = B, A

    gg = dict(one)
    hh = dict(one)
    while True:
        delta = max(A) - max(B)
        R = prem(A, B)
        if not R:
            break
        divisor = _p_mul(gg, _p_pow(hh, delta))
        R = split(_p_div_exact(joined(R), divisor))
        A, B = B, R
        gg = A[max(A)]
        if delta > 0:
            hh = _p_div_exact(_p_pow(gg, delta), _p_pow(hh, delta - 1))
    res = joined(B)
    res = _p_div_exact(res, content(split(res)))
    return _rat_primitive(_p_mul(cont, res))


def _p_pow(f, n):
    if n == 0:
        k = next(iter(f), None)
        if k is None:
            raise ZeroDivisionError("0^0 in polynomial power")
        return {(0,) * len(k): 1}
    out = f
    for _ in range(n - 1):
        out = _p_mul(out, f)
    return out


# ---------------------------------------------------------------------------
# the two scalar rings
# ---------------------------------------------------------------------------

class _ScalarBase:
    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms):
        # terms must not contain zero coefficients; arithmetic maintains this
        self.rank = rank
        self.terms = terms

    def _unit_key(self):
        return (0,) * (self.rank + 1)

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def one(cls, rank):
        return cls(rank, {(0,) * (rank + 1): 1})

    @classmethod
    def from_rational(cls, q, rank):
        q = _coeff(q)
        return cls(rank, {(0,) * (rank + 1): q} if q else {})

    @classmethod
    def from_terms(cls, rank, terms):
        """Safe constructor: coerces coefficients and drops zeros."""
        clean = {}
        for k, c in terms.items():
            c = _coeff(c)
            if c:
                clean[k] = c
        return cls(rank, clean)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get(self._unit_key()) == 1

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and self._unit_key() in self.terms)

    def constant_value(self):
        return self.terms.get(self._unit_key(), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, self.rank, frozenset(self.terms.items())))

    def __add__(self, other):
        return type(self)(self.rank, _p_iadd(dict(self.terms), self._co(other).terms))

    def __sub__(self, other):
        return type(self)(self.rank, _p_sub(self.terms, self._co(other).terms))

    def __neg__(self):
        return type(self)(self.rank, _p_neg(self.terms))

    def __mul__(self, other):
        return type(self)(self.rank, _p_mul(self.terms, self._co(other).terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __radd__(self, other):
        return self.__add__(other)

    def scale(self, c):
        return type(self)(self.rank, _p_scale(self.terms, _coeff(c)))

    def _co(self, other):
        if type(other) is type(self):
            if other.rank != self.rank:
                raise ValueError("scalars of different rank")
            return other
        if isinstance(other, (int, Fraction)):
            return type(self).from_rational(other, self.rank)
        raise TypeError("cannot coerce %r" % (other,))

    def sorted_terms(self):
        """Terms sorted by the canonical monomial order, leading first."""
        return sorted(self.terms.items(), key=self._item_key, reverse=True)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, render_scalar(self))


class CohScalar(_ScalarBase):
    """Polynomial in the simple roots and hbar over the rationals."""

    __slots__ = ()

    @staticmethod
    def _order_key(k):
        # graded lex with a1 < ... < ar < hbar
        return (sum(k), k[::-1])

    @staticmethod
    def _item_key(kv):  # _order_key of a (key, coefficient) item, in one call
        return (sum(kv[0]), kv[0][::-1])

    @classmethod
    def linear_form(cls, vec):
        """The linear polynomial sum(vec[j] * alpha_{j+1})."""
        rank = len(vec)
        terms = {}
        for j, c in enumerate(vec):
            if c:
                k = tuple(1 if t == j else 0 for t in range(rank + 1))
                terms[k] = _coeff(c)
        return cls(rank, terms)

    @classmethod
    def hbar(cls, rank):
        k = (0,) * rank + (1,)
        return cls(rank, {k: 1})

    def weight_pairing(self, w_images):
        """Substitute alpha_j -> linear_form(w_images[j]); hbar is fixed.

        ``w_images`` is a tuple of tuples, like ``WeylElement.images``."""
        rank = self.rank
        unit = {(0,) * (rank + 1): 1}
        images = _linear_forms(w_images)
        powers = [{0: unit} for _ in range(rank)]
        out = {}
        for k, c in self.terms.items():
            mono = None
            for j in range(rank):
                e = k[j]
                if not e:
                    continue
                cache = powers[j]
                if e not in cache:
                    base = images[j]
                    top = max(cache)
                    acc = cache[top]
                    for t in range(top + 1, e + 1):
                        acc = _p_mul(acc, base)
                        cache[t] = acc
                p = cache[e]
                mono = p if mono is None else _p_mul(mono, p)
            if mono is None:
                mono = unit
            hk = (0,) * rank + (k[rank],)
            _p_iadd(out, _p_mul(mono, {hk: c}))
        return CohScalar(rank, out)

    def degree(self):
        """Total degree (roots and hbar together); -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def substitute_hbar_one(self):
        out = {}
        for k, c in self.terms.items():
            kk = k[:self.rank] + (0,)
            s = out.get(kk)
            out[kk] = c if s is None else s + c
        return CohScalar(self.rank, {k: c for k, c in out.items() if c})


@lru_cache(maxsize=None)
def _linear_forms(w_images):
    """The term dicts of the linear forms sum_j v[j] alpha_{j+1}, one per
    vector v of ``w_images``; shared, so callers must not mutate them."""
    return tuple(CohScalar.linear_form(v).terms for v in w_images)


class KScalar(_ScalarBase):
    """Laurent polynomial in the characters e^{alpha_i} and the parameter y.

    Keys are flat tuples (l_1, ..., l_r, y_exponent): the monomial
    e^{l_1 alpha_1 + ... + l_r alpha_r} * y^{y_exponent}.  Exponents may be
    negative; gcd and exact division shift to genuine polynomials first.
    """

    __slots__ = ()

    @staticmethod
    def _order_key(k):
        return k  # lattice-then-y lex

    _item_key = itemgetter(0)

    @classmethod
    def character(cls, vec):
        """e^{lambda} for a root-lattice weight lambda."""
        return cls(len(vec), {tuple(vec) + (0,): 1})

    @classmethod
    def y(cls, rank):
        return cls(rank, {(0,) * rank + (1,): 1})

    def weight_pairing(self, w_images):
        """Substitute e^{lambda} -> e^{w(lambda)}; y is fixed."""
        rank = self.rank
        out = {}
        for k, c in self.terms.items():
            img = [0] * rank
            for j in range(rank):
                a = k[j]
                if a:
                    v = w_images[j]
                    for t in range(rank):
                        img[t] += a * v[t]
            key = tuple(img) + (k[rank],)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return KScalar(rank, {k: c for k, c in out.items() if c})

    def y_degree(self):
        if not self.terms:
            return -1
        return max(k[self.rank] for k in self.terms)

    def substitute_y(self, val):
        """Specialize y to a rational value."""
        val = _coeff(val)
        out = {}
        for k, c in self.terms.items():
            c = c * val ** k[self.rank]
            key = k[: self.rank] + (0,)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return KScalar(self.rank, {k: c for k, c in out.items() if c})


def scalar_gcd(a, b, not_multiple=False):
    """Gcd in the scalar ring; KScalar inputs are shifted to genuine
    polynomials first, so the result has min exponent zero per variable.
    ``not_multiple`` says the caller has found, as ``divides_exactly`` does,
    that b does not divide a."""
    fa, fb = a.terms, b.terms
    if isinstance(a, KScalar):
        if fa:
            m = _min_exps(fa)
            if any(m):
                fa = _p_shift(fa, tuple(map(neg, m)))
        if fb:
            m = _min_exps(fb)
            if any(m):
                fb = _p_shift(fb, tuple(map(neg, m)))
    g = _p_gcd(fa, fb, not_multiple)
    return type(a)(a.rank, g)


def divides_exactly(d, f):
    """Return (True, quotient) when d divides f exactly, else (False, None)."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero scalar")
    if f.is_zero():
        return True, type(f).zero(f.rank)
    fd, ff = d.terms, f.terms
    shift = None
    if isinstance(d, KScalar):
        md = _min_exps(fd)
        mf = _min_exps(ff)
        if any(md):
            fd = _p_shift(fd, tuple(map(neg, md)))
        if any(mf):
            ff = _p_shift(ff, tuple(map(neg, mf)))
        shift = tuple(map(sub, mf, md))
    q = _p_div_exact(ff, fd)
    if q is None:
        return False, None
    if shift is not None and any(shift):
        q = _p_shift(q, shift)
    return True, type(f)(f.rank, q)


def weyl_act_scalar(w, s):
    """The Weyl action on scalars: alpha -> w(alpha), e^l -> e^{w(l)};
    hbar and y are fixed.  Works on scalars and on their fractions."""
    if isinstance(s, ScalarFraction):
        # a ring automorphism keeps a reduced fraction reduced: no gcd
        num = weyl_act_scalar(w, s.num)
        if s.den.is_one():
            return ScalarFraction(num, s.den)
        return ScalarFraction(*_normalize_unit(num, weyl_act_scalar(w, s.den)))
    return s.weight_pairing(w.images)


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------

class ScalarFraction:
    """A reduced fraction of CohScalar or KScalar values.

    Canonical form: gcd(num, den) = 1 and the denominator is monic in the
    canonical monomial order (for KScalar also shifted so that each variable
    has minimum exponent zero in the denominator).  Denominator 1 means the
    value lies in the base ring.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num, den=None):
        if den is None:
            den = type(num).one(num.rank)
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        if num.is_zero():
            return cls(num, type(num).one(num.rank))
        if not den.is_one():
            # most quotients in the geometry are exact: one trial division
            ok, q = divides_exactly(den, num)
            if ok:
                return cls(q, type(num).one(num.rank))
            g = scalar_gcd(num, den, not_multiple=True)
            if not g.is_one():
                ok, num = divides_exactly(g, num)
                ok2, den = divides_exactly(g, den)
                if not (ok and ok2):
                    raise ArithmeticError("gcd does not divide the fraction")
            num, den = _normalize_unit(num, den)
        return cls(num, den)

    @classmethod
    def from_scalar(cls, s):
        return cls(s, type(s).one(s.rank))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_one()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ScalarFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._co(other)
        if self.den == other.den:
            return ScalarFraction.make(self.num + other.num, self.den)
        return ScalarFraction.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        other = self._co(other)
        if self.den == other.den:
            return ScalarFraction.make(self.num - other.num, self.den)
        return ScalarFraction.make(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return ScalarFraction(-self.num, self.den)

    def __mul__(self, other):
        other = self._co(other)
        return ScalarFraction.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._co(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero fraction")
        return ScalarFraction.make(self.num * other.den, self.den * other.num)

    def _co(self, other):
        if isinstance(other, ScalarFraction):
            return other
        if isinstance(other, _ScalarBase):
            return ScalarFraction.from_scalar(other)
        if isinstance(other, (int, Fraction)):
            return ScalarFraction.from_scalar(type(self.num).from_rational(other, self.num.rank))
        raise TypeError("cannot coerce %r" % (other,))

    def mul_scalar(self, s):
        """Multiply by a ring scalar; skips reduction for polynomial values."""
        if self.num.is_zero() or s.is_one():
            return self
        if self.den.is_one():
            return ScalarFraction(self.num * s, self.den)
        return ScalarFraction.make(self.num * s, self.den)

    def div_scalar(self, s):
        """Divide by a ring scalar, trying exact division first."""
        if s.is_zero():
            raise ZeroDivisionError("division by the zero scalar")
        if self.num.is_zero() or s.is_one():
            return self
        if self.den.is_one():
            ok, q = divides_exactly(s, self.num)
            if ok:
                return ScalarFraction(q, type(q).one(q.rank))
        return ScalarFraction.make(self.num, self.den * s)

    def __repr__(self):
        return "Frac(%s)" % render_fraction(self)


def _normalize_unit(num, den):
    """Make the denominator monic (and exponent-shifted for KScalar)."""
    if isinstance(den, KScalar):
        m = _min_exps(den.terms)
        if any(m):
            sh = tuple(map(neg, m))
            den = KScalar(den.rank, _p_shift(den.terms, sh))
            num = KScalar(num.rank, _p_shift(num.terms, sh))
    lead = den.terms[max(den.terms, key=den._order_key)]
    if lead != 1:
        inv = Fraction(1, lead) if type(lead) is int else 1 / lead
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


# ---------------------------------------------------------------------------
# text: one term writer, two syntaxes (plain for repr and CSV, and LaTeX)
# ---------------------------------------------------------------------------

class TextSyntax:
    """The format strings of one text syntax for scalars and fractions."""

    def __init__(self, root, hbar, power, times, scaled, rational, multiple, character, fraction):
        self.root = root            # the simple root alpha_j, from j
        self.hbar = hbar
        self.power = power          # a variable's name to an exponent other than 1
        self.times = times          # between the factors of a monomial
        self.scaled = scaled        # a magnitude other than 1, then a monomial
        self.rational = rational    # a magnitude that is not an integer, from its two parts
        self.multiple = multiple    # a multiple other than -1 and 1 of a root, in e^{...}
        self.character = character  # e^{lambda}, from the text of lambda
        self.fraction = fraction    # numerator, then denominator


PLAIN = TextSyntax("a%d", "h", "%s^%d", "*", "%s*%s", "%d/%d", "%+d*%s", "E[%s]", "(%s)/(%s)")
LATEX = TextSyntax(
    r"\alpha_{%d}", r"\hbar", "%s^{%d}", " ", "%s %s", r"\tfrac{%d}{%d}", "%+d%s", "e^{%s}",
    r"\frac{%s}{%s}",
)


def render_scalar(s, syntax=PLAIN):
    """``s`` as text, leading term first: each term a sign, a magnitude
    (left out when it is 1 and a monomial follows) and a monomial."""
    if not s.terms:
        return "0"
    rank = s.rank
    roots = [syntax.root % (j + 1) for j in range(rank)]
    k_theory = isinstance(s, KScalar)
    last = "y" if k_theory else syntax.hbar
    parts = []
    for k, c in s.sorted_terms():
        if k_theory:
            lam = "".join(
                ("+" if a == 1 else "-") + name if a in (1, -1) else syntax.multiple % (a, name)
                for a, name in zip(k, roots) if a
            )
            factors = [syntax.character % lam.lstrip("+")] if lam else []
        else:
            factors = [name if e == 1 else syntax.power % (name, e)
                       for e, name in zip(k, roots) if e]
        e = k[rank]
        if e:
            factors.append(last if e == 1 else syntax.power % (last, e))
        mag = abs(c)
        n, d = mag.numerator, mag.denominator
        text = str(n) if d == 1 else syntax.rational % (n, d)
        if factors:
            body = syntax.times.join(factors)
            text = body if mag == 1 else syntax.scaled % (text, body)
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(text)
    return "".join(parts)


def render_fraction(f, syntax=PLAIN):
    if f.is_polynomial():
        return render_scalar(f.num, syntax)
    return syntax.fraction % (render_scalar(f.num, syntax), render_scalar(f.den, syntax))


# ---------------------------------------------------------------------------
# serialization (bit-exact round trip)
# ---------------------------------------------------------------------------

def _frac_str(c):
    if type(c) is int:
        return str(c)
    return "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 else str(c.numerator)


def _scalar_json(s, terms):
    """The JSON terms of ``s``, leading first.  ``terms`` maps (theory,
    exponent key, coefficient) to the term dict built for it, so callers that
    share one map share each distinct term dict: read-only results."""
    coh = isinstance(s, CohScalar)
    out = []
    for k, c in s.sorted_terms():
        t = terms.get((coh, k, c))
        if t is None:
            t = terms[coh, k, c] = (
                {"exponents": list(k), "coeff": _frac_str(c)} if coh
                else {"lattice": list(k[:-1]), "y": k[-1], "coeff": _frac_str(c)}
            )
        out.append(t)
    return out


def _fraction_json(f, terms):
    return {"num": _scalar_json(f.num, terms), "den": _scalar_json(f.den, terms)}


def scalar_to_json(s):
    return _scalar_json(s, {})


def scalar_from_json(doc, kind, rank):
    """Parse JSON terms; zero coefficients are dropped, as arithmetic does."""
    if kind == "H":
        return CohScalar.from_terms(rank, {tuple(t["exponents"]): t["coeff"] for t in doc})
    return KScalar.from_terms(rank, {tuple(t["lattice"]) + (t["y"],): t["coeff"] for t in doc})


def fraction_to_json(f):
    return _fraction_json(f, {})


def fraction_from_json(doc, kind, rank):
    """Parse a fraction and reduce it, so a document may write it unreduced."""
    den = scalar_from_json(doc["den"], kind, rank)
    if den.is_zero():
        raise ValueError("fraction with zero denominator")
    return ScalarFraction.make(scalar_from_json(doc["num"], kind, rank), den)
