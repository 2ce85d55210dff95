"""The fixed-point localization model of H^*_T(G/P) and K_T(G/P).

A class is a total map from the fixed points (minimal coset representatives
in W^P) to scalar fractions: CohScalar fractions for theory "H", KScalar
fractions for theory "K".  Schubert classes are generated from the point
class by the right divided differences on the full flag space and by the
left ones on G/P, which walk W^P upward without leaving it; opposite
classes come from the longest-element twist.

``expand_schubert`` expands any class in a Schubert basis by a triangular
peel; ``classes.family_expansions`` uses it only for the smc cells.

Integration and pairing use the Atiyah-Bott style weights 1/e(T_v) resp.
1/lambda_{-1}(T_v^*).  Over one space all these weights share a common
denominator (a product over the full set of positive roots), so localization
sums of polynomial classes accumulate a single numerator and reduce once.
"""

from __future__ import annotations

from functools import lru_cache

from .roots import ParabolicSubset, build_root_system, word_str
from .scalars import (
    CohScalar,
    KScalar,
    ScalarFraction,
    atom_names,
    divides_exactly,
)

H = "H"
K = "K"


class TheoryMismatchError(ValueError):
    pass


class FlagSpace:
    """A partial flag space G/P in the localization model.

    Immutable after construction; the Schubert bases and localization weights
    are cached on first use and read-only afterwards.
    """

    def __init__(self, rs, parabolic):
        self.rs = rs
        self.parabolic = parabolic
        self.points = parabolic.minimal_representatives
        rp = set(parabolic.positive_roots)
        self.complement_roots = tuple(
            b for b in rs.positive_roots if b not in rp
        )
        self.dim = len(self.complement_roots)
        self._cache = {}

    def __repr__(self):
        par = ",".join(str(i) for i in self.parabolic.indices)
        return "FlagSpace(%s/{%s})" % (self.rs.type_label, par)

    @property
    def is_full_flag(self):
        return not self.parabolic.indices

    def full_flag(self):
        return flag_space(self.rs.type_label)

    def rep(self, w):
        """Minimal representative of the coset w W_P."""
        return self.parabolic.minimal_representative(w)

    def coset(self, w):
        """All elements of the coset w W_P (only sensible for small W_P)."""
        r = self.rep(w)
        return [r * u for u in sorted(self.parabolic.subgroup, key=lambda x: (x.length, x.word))]

    def tangent_weights(self, v):
        """The weights {v(-alpha)} of T_v(G/P)."""
        return tuple(tuple(-c for c in v.act(b)) for b in self.complement_roots)

    def euler_class(self, v):
        out = CohScalar.one(self.rs.rank)
        for wt in self.tangent_weights(v):
            out = out * CohScalar.linear_form(wt)
        return out

    def lambda_minus1_cotangent(self, v):
        """lambda_{-1}(T_v^*) = prod (1 - e^{v(alpha)})."""
        rank = self.rs.rank
        out = KScalar.one(rank)
        one = KScalar.one(rank)
        for b in self.complement_roots:
            out = out * (one - KScalar.character(v.act(b)))
        return out

    def ambient_restriction(self, theory, v):
        """c(T_X)|_v for H, lambda_y(T_X^*)|_v for K."""
        out = (CohScalar if theory == H else KScalar).one(self.rs.rank)
        for f in self._ambient_factors(theory, v):
            out = out * f
        return out

    def _ambient_factors(self, theory, v):
        """The factors 1 + wt resp. 1 + y e^{v(alpha)} of the ambient
        restriction at v, one per tangent direction: distinct and irreducible."""
        rank = self.rs.rank
        if theory == H:
            one = CohScalar.one(rank)
            return [one + CohScalar.linear_form(wt) for wt in self.tangent_weights(v)]
        one, y = KScalar.one(rank), KScalar.y(rank)
        return [one + y * KScalar.character(v.act(b)) for b in self.complement_roots]

    def normalizer(self, theory, v):
        """The localization weight denominator at v."""
        return self.euler_class(v) if theory == H else self.lambda_minus1_cotangent(v)

    # -- shared localization weights ---------------------------------------

    def weights(self, theory, extra_ambient_weight=False):
        """(numerators, common denominator) with 1/N_v = numer_v / den: N_v is
        the localization weight denominator at v, times the ambient restriction
        at v with ``extra_ambient_weight`` (the characteristic-class dualities)."""
        key = ("weights", theory, extra_ambient_weight)
        if key not in self._cache:
            den = (CohScalar if theory == H else KScalar).one(self.rs.rank)
            for f in self._weight_factors(theory, extra_ambient_weight):
                den = den * f
            numers = {}
            for v in self.points:
                norm = self.normalizer(theory, v)
                if extra_ambient_weight:
                    norm = norm * self.ambient_restriction(theory, v)
                ok, q = divides_exactly(norm, den)
                if not ok:
                    raise ArithmeticError("localization weight is not a subproduct")
                numers[v] = q
            self._cache[key] = (numers, den)
        return self._cache[key]

    def weight_atoms(self, theory, extra_ambient_weight=False):
        """The names of the atoms whose product is the common denominator
        of ``weights`` up to a unit; with ``extra_ambient_weight``, every atom
        of a root."""
        key = ("weight atoms", theory, extra_ambient_weight)
        if key not in self._cache:
            self._cache[key] = atom_names(self._weight_factors(theory, extra_ambient_weight))
        return self._cache[key]

    def _weight_factors(self, theory, extra_ambient_weight):
        """The factors of the common weight denominator: beta (H) resp.
        1 - e^beta (K) for every positive root beta, and with
        ``extra_ambient_weight`` also 1 - beta and 1 + beta resp.
        1 + y e^beta and e^beta + y."""
        rank = self.rs.rank
        one, y = (CohScalar if theory == H else KScalar).one(rank), KScalar.y(rank)
        out = []
        for b in self.rs.positive_roots:
            if theory == H:
                lf = CohScalar.linear_form(b)
                factors = (lf, one - lf, one + lf)
            else:
                e = KScalar.character(b)
                factors = (one - e, one + y * e, e + y)
            out.extend(factors[:3 if extra_ambient_weight else 1])
        return out

    # -- Schubert bases ------------------------------------------------------

    def schubert_basis(self, theory, side):
        key = ("schubert", theory, side)
        if key not in self._cache:
            self._cache[key] = _build_schubert_basis(self, theory, side)
        return self._cache[key]


@lru_cache(maxsize=None)
def _flag_space(label, indices):
    rs = build_root_system(label)
    return FlagSpace(rs, ParabolicSubset.create(rs, indices))


def flag_space(label, parabolic=()):
    """The flag space of the given Cartan type and parabolic index set."""
    return _flag_space(label.strip().upper(), tuple(sorted(set(parabolic))))


class LocalizedClass:
    """An equivariant class given by its fixed-point restrictions."""

    __slots__ = ("space", "theory", "values")

    def __init__(self, space, theory, values):
        self.space = space
        self.theory = theory
        self.values = values

    @classmethod
    def from_scalars(cls, space, theory, scalars):
        vals = {v: ScalarFraction.from_scalar(s) for v, s in scalars.items()}
        return cls(space, theory, vals)

    @classmethod
    def zero(cls, space, theory):
        z = _zero_fraction(space.rs.rank, theory)
        return cls(space, theory, {v: z for v in space.points})

    @classmethod
    def unit(cls, space, theory):
        o = _one_fraction(space.rs.rank, theory)
        return cls(space, theory, {v: o for v in space.points})

    def _check(self, other):
        if self.space is not other.space or self.theory != other.theory:
            raise TheoryMismatchError("classes on different spaces or theories")

    def __add__(self, other):
        self._check(other)
        return LocalizedClass(
            self.space, self.theory,
            {v: self.values[v] + other.values[v] for v in self.space.points},
        )

    def __sub__(self, other):
        self._check(other)
        return LocalizedClass(
            self.space, self.theory,
            {v: self.values[v] - other.values[v] for v in self.space.points},
        )

    def __neg__(self):
        return LocalizedClass(
            self.space, self.theory, {v: -f for v, f in self.values.items()}
        )

    def __mul__(self, other):
        """Pointwise (cup/tensor) product."""
        self._check(other)
        return LocalizedClass(
            self.space, self.theory,
            {v: self.values[v] * other.values[v] for v in self.space.points},
        )

    def scale(self, c):
        """Multiply by a global scalar (fraction, ring scalar, or rational)."""
        c = _as_fraction(self.space.rs.rank, self.theory, c)
        return LocalizedClass(
            self.space, self.theory, {v: f * c for v, f in self.values.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, LocalizedClass):
            return NotImplemented
        return (
            self.space is other.space
            and self.theory == other.theory
            and self.values == other.values
        )

    def is_zero(self):
        return all(f.is_zero() for f in self.values.values())

    def is_polynomial(self):
        return all(f.is_polynomial() for f in self.values.values())

    def map_values(self, fn):
        return LocalizedClass(self.space, self.theory, {v: fn(v, f) for v, f in self.values.items()})

    def __repr__(self):
        parts = ", ".join(
            "%s: %r" % (word_str(v.word), f) for v, f in sorted(
                self.values.items(), key=lambda kv: (kv[0].length, kv[0].word)
            )
        )
        return "{%s}" % parts


def _zero_fraction(rank, theory):
    s = CohScalar.zero(rank) if theory == H else KScalar.zero(rank)
    return ScalarFraction.from_scalar(s)


def _one_fraction(rank, theory):
    s = CohScalar.one(rank) if theory == H else KScalar.one(rank)
    return ScalarFraction.from_scalar(s)


def _as_fraction(rank, theory, c):
    """A fraction, ring scalar or rational as a fraction of the theory's ring."""
    if isinstance(c, ScalarFraction):
        return c
    if isinstance(c, (CohScalar, KScalar)):
        return ScalarFraction.from_scalar(c)
    base = CohScalar if theory == H else KScalar
    return ScalarFraction.from_scalar(base.from_rational(c, rank))


# ---------------------------------------------------------------------------
# distinguished classes
# ---------------------------------------------------------------------------

def euler_class(space, v):
    """e(T_v(G/P)), the product of the tangent weights at v."""
    return space.euler_class(v)


def lambda_minus1_cotangent(space, v):
    """lambda_{-1}(T_v^*(G/P)) = prod (1 - e^{v(alpha)})."""
    return space.lambda_minus1_cotangent(v)


def fixed_point_class(space, theory, v):
    """The class of the fixed point e_v: delta_{v,u} times the weight at v."""
    vals = {}
    for u in space.points:
        if u is v:
            vals[u] = ScalarFraction.from_scalar(space.normalizer(theory, v))
        else:
            vals[u] = _zero_fraction(space.rs.rank, theory)
    return LocalizedClass(space, theory, vals)


def line_bundle_class(space, lam):
    """K-theory class of the line bundle attached to a root-lattice weight:
    restriction e^{v(lam)} at the fixed point v."""
    lam = tuple(lam)
    if not space.is_full_flag:
        for j in space.parabolic.indices:
            if space.rs.reflect_simple(j, lam) != lam:
                raise ValueError(
                    "line bundle weight must be W_P-invariant on a parabolic space"
                )
    vals = {
        v: ScalarFraction.from_scalar(KScalar.character(v.act(lam)))
        for v in space.points
    }
    return LocalizedClass(space, K, vals)


def ambient_class(space, theory):
    """c(T_X) in cohomology, lambda_y(T_X^*) in K-theory."""
    return LocalizedClass.from_scalars(
        space, theory,
        {v: space.ambient_restriction(theory, v) for v in space.points},
    )


def first_chern_class(space):
    """c_1(T_X): restriction sum of the tangent weights."""
    vals = {}
    for v in space.points:
        acc = CohScalar.zero(space.rs.rank)
        for wt in space.tangent_weights(v):
            acc = acc + CohScalar.linear_form(wt)
        vals[v] = acc
    return LocalizedClass.from_scalars(space, H, vals)


def _w0_twist(space, table):
    """The longest-element twist: entry w is w0^L of the entry at w0 w W_P."""
    # operators imports this module, so here and in _build_schubert_basis
    # operators is imported when called
    from . import operators as ops

    w0 = space.rs.longest_element
    return {w: ops.weyl_left(w0, table[space.rep(w0 * w)]) for w in space.points}


def _recursive_table(space, theory, side, right_step, left_step, cached):
    """A table of classes made by an operator recursion from the point class.

    On G/B the class at w is right_step(i, class at w s_i) for the last letter
    i of w's word.  On G/P it is left_step(i, class at s_i w) for the first
    letter i: s_i w is again in W^P, so the walk never leaves W^P.  The Bminus
    side is the w0 twist of the B side; ``cached(side)`` returns the (cached)
    table of the same family on the given side.
    """
    if side == "Bminus":
        return _w0_twist(space, cached("B"))
    simple = space.rs.simple
    full = space.is_full_flag
    table = {}
    for w in space.points:  # sorted by length, so shorter classes exist first
        if w.length == 0:
            table[w] = fixed_point_class(space, theory, w)
        elif full:
            i = w.word[-1]
            table[w] = right_step(i, table[w * simple(i)])
        else:
            i = w.word[0]
            table[w] = left_step(i, table[simple(i) * w])
    return table


def _build_schubert_basis(space, theory, side):
    from . import operators as ops

    if side not in ("B", "Bminus"):
        raise ValueError("side must be 'B' or 'Bminus'")
    if theory == H:
        right, left = ops.bgg_right, lambda i, a: -ops.bgg_left(i, a)
    else:
        right, left = ops.demazure_right, ops.demazure_left
    return _recursive_table(
        space, theory, side, right, left, lambda sd: space.schubert_basis(theory, sd)
    )


def schubert_class(space, theory, w, side="B"):
    """[X_w] / [X^w] in cohomology, O_w / O^w in K-theory, for w in W^P."""
    basis = space.schubert_basis(theory, side)
    if w not in basis:
        raise ValueError("%r is not a minimal coset representative" % (w,))
    return basis[w]


# ---------------------------------------------------------------------------
# integration, pairing, projections
# ---------------------------------------------------------------------------

def integrate(a, extra_ambient_weight=False):
    """Pushforward to the point: sum of a|_v over the localization weights.

    With ``extra_ambient_weight`` the weight picks up an extra factor
    1/ambient_v, which is how the Segre-type dualities pair.
    """
    space, theory = a.space, a.theory
    numers, den = space.weights(theory, extra_ambient_weight)
    atoms = space.weight_atoms(theory, extra_ambient_weight)
    if a.is_polynomial():
        rank = space.rs.rank
        acc = CohScalar.zero(rank) if theory == H else KScalar.zero(rank)
        for v in space.points:
            f = a.values[v]
            if f.is_zero():
                continue
            acc = acc + f.num * numers[v]
        return ScalarFraction.make(acc, den, atoms)
    total = _zero_fraction(space.rs.rank, theory)
    for v in space.points:
        f = a.values[v]
        if f.is_zero():
            continue
        total = total + f * ScalarFraction.make(numers[v], den, atoms)
    return total


def pair(a, b, extra_ambient_weight=False):
    """The intersection / Euler-characteristic pairing <a, b>."""
    a._check(b)
    return integrate(a * b, extra_ambient_weight=extra_ambient_weight)


def pushforward_parabolic(a, target):
    """Pushforward along G/B -> G/P (Atiyah-Bott over each fibre)."""
    space = a.space
    if not space.is_full_flag:
        raise ValueError("pushforward source must be the full flag space")
    if target.rs is not space.rs:
        raise ValueError("pushforward between different root systems")
    theory = a.theory
    numers, den = space.weights(theory)
    atoms = space.weight_atoms(theory)
    vals = {}
    rank = space.rs.rank
    for w in target.points:
        poly = True
        members = target.coset(w)
        for v in members:
            poly = poly and a.values[v].is_polynomial()
        norm = target.normalizer(theory, w)
        if poly:
            acc = CohScalar.zero(rank) if theory == H else KScalar.zero(rank)
            for v in members:
                f = a.values[v]
                if not f.is_zero():
                    acc = acc + f.num * numers[v]
            vals[w] = ScalarFraction.make(acc * norm, den, atoms)
        else:
            tot = _zero_fraction(rank, theory)
            for v in members:
                tot = tot + a.values[v] * ScalarFraction.make(numers[v], den, atoms)
            vals[w] = tot * ScalarFraction.from_scalar(norm)
    return LocalizedClass(target, theory, vals)


def pullback_parabolic(b, target_full):
    """Pullback along G/B -> G/P: restriction at v is the value at vW_P."""
    space = b.space
    if not target_full.is_full_flag or target_full.rs is not space.rs:
        raise ValueError("pullback target must be the full flag space of the same system")
    vals = {v: b.values[space.rep(v)] for v in target_full.points}
    return LocalizedClass(target_full, b.theory, vals)


# ---------------------------------------------------------------------------
# GKM membership and Schubert expansion
# ---------------------------------------------------------------------------

def gkm_check(a):
    """Divisibility test for membership in the non-localized ring.

    Returns ("pass", None), ("fail", (v, beta)) on a failed edge, or
    ("nonpolynomial", (v, None)) when some restriction is not polynomial
    (which is reported separately, not as a GKM failure).
    """
    space, theory = a.space, a.theory
    for v in space.points:
        if not a.values[v].is_polynomial():
            return ("nonpolynomial", (v, None))
    rank = space.rs.rank
    for v in space.points:
        av = a.values[v].num
        for beta in space.complement_roots:
            partner = space.rep(v * space.rs.reflection(beta))
            if partner is v:
                continue
            diff = av - a.values[partner].num
            if diff.is_zero():
                continue
            root = v.act(beta)
            if theory == H:
                divisor = CohScalar.linear_form(root)
            else:
                divisor = KScalar.one(rank) - KScalar.character(root)
            ok, _ = divides_exactly(divisor, diff)
            if not ok:
                return ("fail", (v, beta))
    return ("pass", None)


class SchubertExpansion:
    """Coefficients of a class in one of the four Schubert bases."""

    def __init__(self, space, theory, side, coeffs):
        self.space = space
        self.theory = theory
        self.side = side
        self.coeffs = coeffs

    def nonzero(self):
        return {w: c for w, c in self.coeffs.items() if not c.is_zero()}


def expand_schubert(a, side="B"):
    """Expand a localized class in the Schubert basis of the given side.

    Triangularity drives the elimination: B-side classes restrict to zero
    above their index, opposite classes to zero below, so peeling fixed
    points in the appropriate length order isolates one coefficient at a
    time.  Exact; coefficients are scalar fractions.  O(n^2) fraction
    operations per class on n fixed points.
    """
    space, theory = a.space, a.theory
    basis = space.schubert_basis(theory, side)
    order = list(space.points)
    if side == "B":
        order.sort(key=lambda w: (-w.length, w.word))
    else:
        order.sort(key=lambda w: (w.length, w.word))
    remaining = dict(a.values)
    coeffs = {}
    for w in order:
        top = remaining[w]
        cw = top / basis[w].values[w]
        coeffs[w] = cw
        if not cw.is_zero():
            bw = basis[w]
            for v in space.points:
                bv = bw.values[v]
                if not bv.is_zero():
                    remaining[v] = remaining[v] - cw * bv
    if not all(remaining[v].is_zero() for v in space.points):
        raise ArithmeticError("expansion did not terminate")
    return SchubertExpansion(space, theory, side, coeffs)


def rebuild_from_expansion(exp):
    """The localized class sum_w c_w S_w, summed point by point."""
    out = LocalizedClass.zero(exp.space, exp.theory)
    basis = exp.space.schubert_basis(exp.theory, exp.side)
    for w, c in exp.coeffs.items():
        if not c.is_zero():
            for u, f in basis[w].values.items():
                if not f.is_zero():
                    out.values[u] = out.values[u] + c * f
    return out
