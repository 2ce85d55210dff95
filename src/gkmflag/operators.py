"""Left/right Weyl actions and the divided-difference operator calculus.

Left operators act on any partial flag space and use global scalar
coefficients; right operators exist only on the full flag space and use
coefficients depending on the fixed point.  In terms of restrictions, with
s = s_i and u, v running over fixed points:

  cohomology (theory H):
    (w^L a)|_u   = w(a|_{w^{-1} u})
    (w^R a)|_u   = a|_{uw}
    (bgg_right)  (d_i a)|_v = (a|_v - a|_{vs}) / (-v(alpha_i))
    (bgg_left)   d_i = (id - s^L) / alpha_i
    dl_right     T_i^R = bgg_i - s_i^R,    dual: bgg_i + s_i^R
    dl_left      T_i^L = -d_i + s_i^L,     dual: d_i + s_i^L
    homogenized  T_i^{L,h} = s_i^L - hbar * d_i

  K theory:
    (demazure_right) (d_i a)|_v = (a|_v - e^{v(alpha_i)} a|_{vs}) / (1 - e^{v(alpha_i)})
    (demazure_left)  d_i = (id - e^{alpha_i} s_i^L) / (1 - e^{alpha_i})
                     dual: d_i^v = (id - e^{-alpha_i} s_i^L) / (1 - e^{-alpha_i})
    dl_right     T_i^R = (1 + y L_i) d_i - id,  dual: d_i (1 + y L_i) - id
                 with L_i the line bundle class of weight alpha_i
    dl_left      T_i^L = ((1 + y e^{-a_i}) s_i^L - (1 + y)) / (1 - e^{-a_i})
                 dual:  ((1 + y e^{+a_i}) s_i^L - (1 + y)) / (1 - e^{+a_i})

Every divided-difference and DL operator has one of two shapes, and each
is a ``step`` function passed to the kernel of its shape:

  _left(i, a, name, step):   (op a)|_u = step(a|_u, s_i(a|_{s_i u}))
                             on any G/P, with global coefficients;
  _right(i, a, name, step):  (op a)|_v = step(v(alpha_i), a|_v, a|_{v s_i})
                             on G/B, with coefficients depending on v.

A left operator (p s_i^L - q)/den, with global scalars p, q and den, also
acts on Schubert coordinates (``left_in_coordinates``), by one rule:

  s_i^L(f S_v) = s_i(f) (d S_v + (1 - d) S_{s_i v}) when s_i v is a point of
  W^P toward the side's growth, else s_i(f) S_v, where lambda = -alpha_i on
  B and +alpha_i on Bminus, d = e^lambda in K, and d = 1 in H with 1 - d
  read as -lambda.

(p, q, den) is (1, 0, 1) for s_i^L, (-1, -1, alpha_i) for d_i in H,
(-e^{-a_i}, -1, 1 - e^{-a_i}) for the dual d_i^v in K, and for T_i^L
(1 + alpha_i, 1, alpha_i) in H, (1 + y e^{-a_i}, 1 + y, 1 - e^{-a_i}) in K.

An operator checks its theory and space, fixes its constants and hands its
step to a kernel; the kernel loops over the fixed points.  Applying any of
these to a class with polynomial restrictions must produce polynomial
restrictions again; the kernels assert that closure after every application
and a violation raises NonDivisibilityError.

Word operators: ``apply_word(op, word, a)`` applies op_{i1} ... op_{im} to a,
rightmost letter first, for any single-letter operator ``op(i, a)``; for
instance ``apply_word(lambda i, b: demazure_left(i, b, dual=True), w, a)``,
or the inverse right DL word ``apply_word(lambda i, b: dl_right_inverse(i, b,
dual=True), w.inverse(), a)``.  The Weyl family needs no word:
``weyl_left(rs.from_word(word), a)``.

Leibniz rule: a left divided difference is delta = (1 - t s)/(1 - t) in K,
with t = e^{alpha_i} (dual: e^{-alpha_i}), and (1 - s)/alpha_i in H.  Since
ab - t s(a)s(b) = (a - t s(a))b + t s(a)(b - s(b)) and
b - s(b) = (1 - t)(delta(b) - s(b)),

  K:  delta(ab) = delta(a) b + t s(a) (delta(b) - s(b));
  H:  delta(ab) = delta(a) b + s(a) delta(b)   (t = 1, with alpha_i for 1 - t).

``leibniz_rhs`` states this once, for any product: classes, quantum
classes through a structure table, and formal products.

Shared images in ``verify_relations``: most identities of the operator
suite start from a single-letter image op(i, b) of a B or Bminus Schubert
class b, and the suite computes each such image once, in a table that lives
for one suite.  Its key is the operator callable fixed at suite start (plain
and dual are different callables), the letter and the basis element (fixed
point and side).  It is not keyed by class values: such a key would hash
whole classes and keep every image alive, intermediate ones too, while the
basis keys bound the table by operators x letters x basis elements.  The
Leibniz rules form each product b c, and each op(i, b c), once per
unordered pair.  A shared image is the same pure operator applied to the
same class, so every identity still computes both of its sides.

Divided differences on Schubert classes: d_i S_w = +-S_t when the step
enters a new cell t (s_i w on the left, w s_i on the right) in the
direction the side grows, and otherwise 0 in H and S_w in K; the sign is -1
only for bgg_left on the B side.  ``verify_schubert_actions`` states this
once, in ``check_dd``, for both operators, both sides and both theories.
"""

from __future__ import annotations

import operator
from functools import partial

from .model import H, K, LocalizedClass, fixed_point_class, pair
from .roots import word_str
from .scalars import (
    CohScalar,
    KScalar,
    divides_exactly,
    weyl_act_scalar,
)


class NonDivisibilityError(ValueError):
    """An operator left the non-localized ring on a polynomial input."""


class RightOperatorOnParabolicError(ValueError):
    """Right operators exist only on the full flag space."""


class NonReducedWordError(ValueError):
    pass


def _require_full(a):
    if not a.space.is_full_flag:
        raise RightOperatorOnParabolicError(
            "right operators are undefined on %r" % (a.space,)
        )


def _require_theory(a, theory, what):
    if a.theory != theory:
        raise ValueError("%s needs theory %s, got %s" % (what, theory, a.theory))


def _poly_guard(inp_poly, out, name):
    if inp_poly and not out.is_polynomial():
        raise NonDivisibilityError("%s output left the non-localized ring" % name)
    return out


# ---------------------------------------------------------------------------
# Weyl actions
# ---------------------------------------------------------------------------

def weyl_left(w, a):
    """(w^L a)|_u = w(a|_{w^{-1} u}); a ring automorphism on any G/P."""
    space = a.space
    winv = w.inverse()
    vals = {}
    for u in space.points:
        src = space.rep(winv * u)
        vals[u] = weyl_act_scalar(w, a.values[src])
    return LocalizedClass(space, a.theory, vals)


def weyl_right(w, a):
    """(w^R a)|_u = a|_{uw}; base-ring linear, full flag space only."""
    _require_full(a)
    vals = {u: a.values[u * w] for u in a.space.points}
    return LocalizedClass(a.space, a.theory, vals)


# ---------------------------------------------------------------------------
# the two operator shapes
# ---------------------------------------------------------------------------

def _left(i, a, name, step):
    """(op a)|_u = step(a|_u, s_i(a|_{s_i u})) at every fixed point of any G/P."""
    space = a.space
    si = space.rs.simple(i)
    poly = a.is_polynomial()
    vals = {}
    for u in space.points:
        vals[u] = step(a.values[u], weyl_act_scalar(si, a.values[space.rep(si * u)]))
    return _poly_guard(poly, LocalizedClass(space, a.theory, vals), name)


def _right(i, a, name, step):
    """(op a)|_v = step(v(alpha_i), a|_v, a|_{v s_i}) at every fixed point of G/B."""
    space = a.space
    si = space.rs.simple(i)
    alpha = space.rs.simple_root(i)
    poly = a.is_polynomial()
    vals = {}
    for v in space.points:
        vals[v] = step(v.act(alpha), a.values[v], a.values[v * si])
    return _poly_guard(poly, LocalizedClass(space, a.theory, vals), name)


def left_in_coordinates(space, theory, side, i, coords, p, q, den):
    """(p s_i^L - q) / den on a Schubert expansion {v: fraction} in the basis
    of ``side``, by the coordinate rule of the module docstring; returns the
    nonzero coordinates.  The coordinate at v gains (p d s_i(f) - q f) / den,
    one division per source coordinate, and s_i v gains p (1 - d) / den *
    s_i(f), whose factor must be a polynomial."""
    si = space.rs.simple(i)
    lam = tuple(-c if side == "B" else c for c in space.rs.simple_root(i))
    one = type(p).one(space.rs.rank)
    d = one if theory == H else KScalar.character(lam)
    fall = CohScalar.linear_form(tuple(-c for c in lam)) if theory == H else one - d
    ok, moved = divides_exactly(den, p * fall)
    if not ok:
        raise ArithmeticError("left operator step left the polynomial coordinates")
    same, up = moved == p, side == "B"  # same for T_i^L: reuse p s_i(f)
    out = {}
    for v, f in coords.items():
        sf = weyl_act_scalar(si, f)
        u = si * v
        toward = (u.length > v.length) == up and space.rep(u) is u
        x = sf.mul_scalar(p)
        y = x.mul_scalar(d) if toward else x
        y = (y - f.mul_scalar(q) if q else y).div_scalar(den)
        out[v] = out[v] + y if v in out else y
        if toward:
            y = x if same else sf.mul_scalar(moved)
            out[u] = out[u] + y if u in out else y
    return {v: c for v, c in out.items() if c}


# ---------------------------------------------------------------------------
# divided difference / Demazure operators
# ---------------------------------------------------------------------------

def bgg_right(i, a):
    _require_full(a)
    _require_theory(a, H, "bgg_right")

    def step(root, av, avs):
        return (av - avs).div_scalar(CohScalar.linear_form(tuple(-c for c in root)))
    return _right(i, a, "bgg_right", step)


def bgg_left(i, a):
    _require_theory(a, H, "bgg_left")
    alpha = CohScalar.linear_form(a.space.rs.simple_root(i))
    return _left(i, a, "bgg_left", lambda au, sval: (au - sval).div_scalar(alpha))


def demazure_right(i, a):
    _require_full(a)
    _require_theory(a, K, "demazure_right")
    one = KScalar.one(a.space.rs.rank)

    def step(root, av, avs):
        t = KScalar.character(root)
        return (av - avs.mul_scalar(t)).div_scalar(one - t)
    return _right(i, a, "demazure_right", step)


def demazure_left(i, a, dual=False):
    _require_theory(a, K, "demazure_left")
    sign = -1 if dual else 1
    t = KScalar.character(tuple(sign * c for c in a.space.rs.simple_root(i)))
    den = KScalar.one(a.space.rs.rank) - t
    return _left(i, a, "demazure_left_dual" if dual else "demazure_left",
                 lambda au, sval: (au - sval.mul_scalar(t)).div_scalar(den))


# ---------------------------------------------------------------------------
# Demazure-Lusztig operators
# ---------------------------------------------------------------------------

def dl_right(i, a, dual=False):
    _require_full(a)
    if a.theory == H:
        def step(root, av, avs):
            bgg = (av - avs).div_scalar(CohScalar.linear_form(tuple(-c for c in root)))
            return bgg + avs if dual else bgg - avs
        return _right(i, a, "dl_right", step)
    rank = a.space.rs.rank
    one = KScalar.one(rank)
    y = KScalar.y(rank)

    def step(root, av, avs):
        t = KScalar.character(root)
        lv = one + y * t
        if dual:
            # demazure of (1 + y L) a, minus a; L|_{v s_i} = e^{-v(alpha_i)}
            ts = KScalar.character(tuple(-c for c in root))
            b_v = av.mul_scalar(lv)
            b_vs = avs.mul_scalar(one + y * ts)
            dem = (b_v - b_vs.mul_scalar(t)).div_scalar(one - t)
        else:
            dem = (av - avs.mul_scalar(t)).div_scalar(one - t).mul_scalar(lv)
        return dem - av
    return _right(i, a, "dl_right", step)


def dl_left(i, a, dual=False):
    rank = a.space.rs.rank
    alpha = a.space.rs.simple_root(i)
    if a.theory == H:
        alph = CohScalar.linear_form(alpha)

        def step(au, sval):
            dd = (au - sval).div_scalar(alph)
            return (dd + sval) if dual else (sval - dd)
        return _left(i, a, "dl_left", step)
    sign = 1 if dual else -1
    t = KScalar.character(tuple(sign * c for c in alpha))
    one = KScalar.one(rank)
    y = KScalar.y(rank)
    den = one - t
    cs = one + y * t   # coefficient of s_i^L, over den
    c0 = one + y       # coefficient of id, over den
    return _left(i, a, "dl_left",
                 lambda au, sval: (sval.mul_scalar(cs) - au.mul_scalar(c0)).div_scalar(den))


def dl_left_homogenized(i, a):
    """s_i^L - hbar * delta_i, acting on cohomology with the hbar variable."""
    _require_theory(a, H, "dl_left_homogenized")
    alpha = CohScalar.linear_form(a.space.rs.simple_root(i))
    hbar = CohScalar.hbar(a.space.rs.rank)
    return _left(i, a, "dl_left_homogenized",
                 lambda au, sval: sval - (au - sval).div_scalar(alpha).mul_scalar(hbar))


def dl_right_inverse(i, a, dual=False):
    """Inverse of the right DL operator.

    In cohomology the operator is an involution.  In K theory the quadratic
    relation (T + 1)(T + y) = 0 gives T^{-1} = -(T + (1+y) id)/y.
    """
    if a.theory == H:
        return dl_right(i, a, dual=dual)
    rank = a.space.rs.rank
    one = KScalar.one(rank)
    y = KScalar.y(rank)
    out = dl_right(i, a, dual=dual) + a.scale(one + y)
    return (-out).map_values(lambda v, f: f.div_scalar(y))


# ---------------------------------------------------------------------------
# word application
# ---------------------------------------------------------------------------

def apply_word(op, word_or_element, a):
    """Apply the word operator op_{i1} ... op_{im} (rightmost letter acts
    first), where ``op(i, a)`` applies one letter.

    For an element the canonical reduced word is used; an explicit word is
    rejected unless it is reduced.  Braid relations make the result
    independent of the choice of reduced word.
    """
    if hasattr(word_or_element, "word"):
        word = word_or_element.word
    else:
        word = tuple(word_or_element)
        if a.space.rs.from_word(word).length != len(word):
            raise NonReducedWordError("word %s is not reduced" % (word_str(word),))
    for i in reversed(word):
        a = op(i, a)
    return a


def braid_words(rs):
    """(i, j, word, word') for each pair i < j of simple indices: the two
    alternating words of length m_ij, equal in the Weyl group."""
    for i in range(1, rs.rank + 1):
        for j in range(i + 1, rs.rank + 1):
            m = {0: 2, 1: 3, 2: 4, 3: 6}[rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1]]
            word = tuple((i, j)[t % 2] for t in range(m))
            yield i, j, word, tuple((j, i)[t % 2] for t in range(m))


def leibniz_rhs(mul, da, b, sa, db, sb, t=None):
    """The Leibniz rule's right-hand side for delta(ab), given delta and s on
    each factor: delta(a)b + s(a)delta(b) in H (``t`` None), and
    delta(a)b + t s(a)(delta(b) - s(b)) in K, where delta = (1 - t s)/(1 - t).
    ``mul`` multiplies two factors; ``sb`` is read only in K."""
    if t is None:
        return mul(da, b) + mul(sa, db)
    return mul(da, b) + (mul(sa, db) - mul(sa, sb)).scale(t)


def all_reduced_words(w):
    """Every reduced word of w, via left descents."""
    if w.length == 0:
        return [()]
    out = []
    for i in range(1, w.rs.rank + 1):
        if w.has_left_descent(i):
            for rest in all_reduced_words(w.rs.simple(i) * w):
                out.append((i,) + rest)
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerificationReport:
    """Pass/fail record of an identity suite with failure witnesses."""

    def __init__(self, suite, space_label):
        self.suite = suite
        self.space_label = space_label
        self.entries = []

    def record(self, identity, ok, witness=None):
        self.entries.append((identity, "pass" if ok else "fail", None if ok else witness))

    def check(self, identity, pairs):
        """pairs: iterable of (witness label, lhs, rhs); first failure wins."""
        for label, lhs, rhs in pairs:
            if lhs != rhs:
                self.record(identity, False, label)
                return False
        self.record(identity, True)
        return True

    @property
    def ok(self):
        return all(status == "pass" for _, status, _ in self.entries)

    def failures(self):
        return [(i, w) for i, status, w in self.entries if status == "fail"]

    def to_json(self):
        return {
            "suite": self.suite,
            "space": self.space_label,
            "results": [
                {"identity": i, "status": s, "witness": w}
                for i, s, w in self.entries
            ],
        }


def _space_label(space):
    par = ",".join(str(i) for i in space.parabolic.indices)
    return "%s/{%s}" % (space.rs.type_label, par) if par else "%s/B" % space.rs.type_label


def _each_iw(space, fn):
    """Witness cases ("i=%d w=%s", lhs, rhs) with (lhs, rhs) = fn(i, w), for
    every simple index i and fixed point w; lazy, so a check stops computing
    at its first failure."""
    for i in range(1, space.rs.rank + 1):
        for w in space.points:
            lhs, rhs = fn(i, w)
            yield ("i=%d w=%s" % (i, word_str(w.word)), lhs, rhs)


def verify_relations(space, theory, corrupt=False):
    """Exhaustive operator-relation suite over the Schubert basis.

    ``corrupt`` flips a sign inside one quadratic-relation evaluation and is
    only used to self-test that failures produce witnesses.

    Identities that start from the same single-letter image op(i, b) of a
    Schubert class read it from one table (see ``image`` and the module
    docstring); each identity still computes both of its sides with the
    operators.
    """
    rs = space.rs
    rep = VerificationReport("operators:%s" % theory, _space_label(space))
    basis = space.schubert_basis(theory, "B")
    obasis = space.schubert_basis(theory, "Bminus")
    tables = {"B": basis, "Bminus": obasis}
    points = space.points
    idx = range(1, rs.rank + 1)
    is_full = space.is_full_flag
    rank = rs.rank
    one = KScalar.one(rank) if theory == K else CohScalar.one(rank)

    # The operators, looked up once: each callable op(i, a) below is one key
    # of the image table, so plain and dual operators never share an entry.
    tl, tl_dual = partial(dl_left, dual=False), partial(dl_left, dual=True)
    tr, tr_dual = partial(dl_right, dual=False), partial(dl_right, dual=True)
    dleft = bgg_left if theory == H else demazure_left
    dleft_dual = partial(demazure_left, dual=True)
    dright = bgg_right if theory == H else demazure_right

    def sl(i, a):
        return weyl_left(rs.simple(i), a)

    images = {}

    def image(op, i, w, side="B"):
        # op(i, b) for the Schubert class b of ``side`` at w, once per suite;
        # i is a letter, or the Weyl element w0 for ``weyl_left``
        key = (op, i, w, side)
        out = images.get(key)
        if out is None:
            out = images[key] = op(i, tables[side][w])
        return out

    def word_image(op, word, w):
        # op_{i1} ... op_{im} on basis[w]; the rightmost letter from the table
        if not word:
            return basis[w]
        return apply_word(op, word[:-1], image(op, word[-1], w))

    def quad_defect(op, i, w):
        # (T^2 - id) b in H; (T + 1)(T + y) b in K
        b, tb = basis[w], image(op, i, w)
        if theory == H:
            d = op(i, tb) - b
        else:
            y = KScalar.y(rank)
            d = op(i, tb) + tb.scale(one + y) + b.scale(y)
        return d + b.scale(2) if corrupt else d

    sides = [("T^L", tl), ("T^L,dual", tl_dual)]
    if is_full:
        sides += [("T^R", tr), ("T^R,dual", tr_dual)]

    # quadratic relations
    zero = LocalizedClass.zero(space, theory)
    for name, op in sides:
        rep.check("quadratic " + name,
                  _each_iw(space, lambda i, w: (quad_defect(op, i, w), zero)))

    # braid relations
    for name, op in sides:
        rep.check("braid " + name, (
            ("(%d,%d) w=%s" % (i, j, word_str(w.word)), word_image(op, wi, w), word_image(op, wj, w))
            for i, j, wi, wj in braid_words(rs)
            for w in basis
        ))

    # divided-difference squares and left/right commutation
    def square(op):
        # d_i^2 = 0 in H, d_i^2 = d_i in K
        def case(i, w):
            db = image(op, i, w)
            return op(i, db), zero if theory == H else db
        return case
    rep.check("delta_i square", _each_iw(space, square(dleft)))
    if is_full:
        rep.check("partial_i square", _each_iw(space, square(dright)))

        def commute(lop, rop, swap=False):
            # lop at letter i and rop at letter j (swapped: rop at i, lop at
            # j), applied in both orders
            for i in idx:
                for j in idx:
                    li, ri = (j, i) if swap else (i, j)
                    for w in basis:
                        yield ("i=%d j=%d w=%s" % (i, j, word_str(w.word)),
                               lop(li, image(rop, ri, w)), rop(ri, image(lop, li, w)))
        rep.check("delta_i partial_j commute", commute(dleft, dright))
        rep.check("s_j^L and T_i^R commute", commute(sl, tr, swap=True))
        rep.check("T_j^L and T_i^R commute", commute(tl, tr, swap=True))

    # Adjointness.  The right identity is base-ring bilinear, so checking it
    # against the full fixed-point basis proves it for every class; it is
    # also evaluated literally on the Schubert pairs.  The left identity is
    # not bilinear (it twists by s_i), and holds on pairs whose pairing is
    # W-invariant; the Schubert-against-opposite pairs qualify, since their
    # pairing matrix is a 0/1 matrix, and that is how the identity gets used.
    fps = {v: fixed_point_class(space, theory, v) for v in points}
    if is_full:
        def gen_radj():
            for i in idx:
                duals = {v: tr_dual(i, fps[v]) for v in points}
                for w, b in basis.items():
                    tb = image(tr, i, w)
                    for v in points:
                        lhs = tb.values[v]
                        rhs = pair(b, duals[v])
                        yield ("i=%d w=%s v=%s" % (i, word_str(w.word), word_str(v.word)), lhs, rhs)
        rep.check("adjoint right, fixed-point basis", gen_radj())

        def gen_radj2():
            for i in idx:
                duals = {u: image(tr_dual, i, u, "Bminus") for u in obasis}
                for w, b in basis.items():
                    tb = image(tr, i, w)
                    for u, c in obasis.items():
                        yield (
                            "i=%d w=%s u=%s" % (i, word_str(w.word), word_str(u.word)),
                            pair(tb, c),
                            pair(b, duals[u]),
                        )
        rep.check("adjoint right, schubert pairs", gen_radj2())

    def gen_ladj():
        for i in idx:
            si = rs.simple(i)
            duals = {u: image(tl_dual, i, u, "Bminus") for u in obasis}
            for w, b in basis.items():
                tb = image(tl, i, w)
                for u, c in obasis.items():
                    yield (
                        "i=%d w=%s u=%s" % (i, word_str(w.word), word_str(u.word)),
                        pair(tb, c),
                        weyl_act_scalar(si, pair(b, duals[u])),
                    )
    rep.check("adjoint left with s_i twist, schubert pairs", gen_ladj())

    # pairing W-equivariance against the fixed-point basis
    def gen_equiv():
        for i in idx:
            si = rs.simple(i)
            acted = {v: weyl_left(si, fps[v]) for v in points}
            for w, b in basis.items():
                wb = image(sl, i, w)
                for v in points:
                    lhs = pair(wb, acted[v])
                    rhs = weyl_act_scalar(si, pair(b, fps[v]))
                    yield ("i=%d w=%s v=%s" % (i, word_str(w.word), word_str(v.word)), lhs, rhs)
    rep.check("pairing equivariance <w a, w b> = w<a, b>", gen_equiv())

    # longest-element conjugations
    w0 = rs.longest_element
    star = {}
    for i in idx:
        img = tuple(-c for c in w0.act(rs.simple_root(i)))
        for j in idx:
            if img == rs.simple_root(j):
                star[i] = j

    def gen_w0():
        for i in idx:
            for w in basis:
                lhs = weyl_left(w0, tl(i, image(weyl_left, w0, w)))
                rhs = image(tl_dual, star[i], w)
                yield ("TL i=%d w=%s" % (i, word_str(w.word)), lhs, rhs)
                lhs2 = weyl_left(w0, dleft(i, image(weyl_left, w0, w)))
                if theory == K:
                    rhs2 = image(dleft_dual, star[i], w)
                else:
                    rhs2 = -image(dleft, star[i], w)
                yield ("delta i=%d w=%s" % (i, word_str(w.word)), lhs2, rhs2)
    rep.check("w0 conjugation swaps duals", gen_w0())

    # Leibniz rules on Schubert-basis pairs.  The product b c and each
    # left-hand side op(i, b c) are formed once per unordered pair, exact
    # since b c = c b; the tables go when the Leibniz identities end.
    pairs_src = list(basis.items())
    if len(points) > 12:
        small = [(w, b) for w, b in pairs_src if w.length <= 1] + [pairs_src[-1]]
    else:
        small = pairs_src
    products = {}

    def leibniz_cases(op, rhs):
        # (label, op(i, b c), rhs(i, w, u, c)) over i and the pairs (w, b), (u, c)
        for i in idx:
            lhs = {}
            for w, b in pairs_src:
                for u, c in small:
                    key = frozenset((w, u))
                    if key not in lhs:
                        if key not in products:
                            products[key] = b * c
                        lhs[key] = op(i, products[key])
                    yield ("i=%d (%s,%s)" % (i, word_str(w.word), word_str(u.word)),
                           lhs[key], rhs(i, w, u, c))

    ts = {i: None if theory == H else KScalar.character(rs.simple_root(i)) for i in idx}

    def delta_rhs(i, w, u, c):
        return leibniz_rhs(operator.mul, image(dleft, i, w), c, image(sl, i, w),
                           image(dleft, i, u), image(sl, i, u), ts[i])
    rep.check("delta Leibniz rule", leibniz_cases(dleft, delta_rhs))

    if theory == K:
        y = KScalar.y(rank)

        def dl_rhs(i, w, u, c):
            sb = image(sl, i, w)
            return image(tl, i, w) * c + sb * image(tl, i, u) + (sb * c).scale(y)
        rep.check("T^L Leibniz rule", leibniz_cases(tl, dl_rhs))
    products.clear()

    # reduced-word independence of the word operators
    dl = tr if is_full else tl
    seed = points[0]  # the point class

    def gen_words():
        elements = points if is_full else [x for x in points if x.length <= 4]
        for w in elements:
            words = all_reduced_words(w)
            base = word_image(dl, words[0], seed)
            for wd in words[1:]:
                yield ("w=%s word=%s" % (word_str(w.word), word_str(wd)),
                       word_image(dl, wd, seed), base)
    rep.check("word operators independent of reduced word", gen_words())

    return rep


def verify_schubert_actions(space, theory):
    """Closed-form actions of the operators on Schubert classes."""
    rs = space.rs
    rep = VerificationReport("schubert-actions:%s" % theory, _space_label(space))
    basis = space.schubert_basis(theory, "B")
    zero = LocalizedClass.zero(space, theory)
    is_full = space.is_full_flag

    def point(w):
        return fixed_point_class(space, theory, w)

    def sl_point(i, w):
        return weyl_left(rs.simple(i), point(w)), point(space.rep(rs.simple(i) * w))

    def check_dd(name, op, side, left):
        # the divided-difference rule of the module docstring
        table = space.schubert_basis(theory, side)
        negate = theory == H and left and side == "B"

        def case(i, w):
            t = rs.simple(i) * w if left else w * rs.simple(i)
            lhs = op(i, table[w])
            if (t.length > w.length) == (side == "B") and space.rep(t) is t:
                return lhs, -table[t] if negate else table[t]
            return lhs, zero if theory == H else table[w]
        rep.check(name, _each_iw(space, case))

    if theory == H:
        if is_full:
            check_dd("partial_i [X_w] cases", bgg_right, "B", False)
            check_dd("partial_i [X^w] cases", bgg_right, "Bminus", False)
        check_dd("delta_i [X^w] cases", bgg_left, "Bminus", True)
        check_dd("delta_i [X_w] cases", bgg_left, "B", True)

        def sl_b(i, w):
            siw = rs.simple(i) * w
            rhs = basis[w]
            if siw.length > w.length and space.rep(siw) is siw:
                rhs = rhs + basis[siw].scale(CohScalar.linear_form(rs.simple_root(i)))
            return weyl_left(rs.simple(i), basis[w]), rhs
        rep.check("s_i^L [X_w] = [X_w] + alpha_i [X_{s_i w}] cases", _each_iw(space, sl_b))
        rep.check("s_i^L [e_w] = [e_{s_i w}]", _each_iw(space, sl_point))
        if is_full:
            rep.check(
                "s_i^R [e_w] = -[e_{w s_i}]",
                _each_iw(space, lambda i, w: (
                    weyl_right(rs.simple(i), point(w)), -point(w * rs.simple(i)))),
            )
        return rep

    # K theory
    if is_full:
        check_dd("partial_i O_w cases", demazure_right, "B", False)
        check_dd("partial_i O^w cases", demazure_right, "Bminus", False)

        def sl_b(i, w):
            siw = rs.simple(i) * w
            rhs = basis[w]
            if siw.length > w.length:
                e = KScalar.character(tuple(-c for c in rs.simple_root(i)))
                rhs = basis[w].scale(e) + basis[siw].scale(KScalar.one(rs.rank) - e)
            return weyl_left(rs.simple(i), basis[w]), rhs
        rep.check("s_i^L O_w = e^{-a_i} O_w + (1 - e^{-a_i}) O_{s_i w} cases", _each_iw(space, sl_b))

        def sr_point(i, w):
            e = KScalar.character(w.act(rs.simple_root(i)))
            return weyl_right(rs.simple(i), point(w)), point(w * rs.simple(i)).scale(e).scale(-1)
        rep.check("s_i^R iota_w = -e^{w(a_i)} iota_{w s_i}", _each_iw(space, sr_point))

    check_dd("delta_i O_w parabolic cases", demazure_left, "B", True)
    check_dd("delta_i^v O^w parabolic cases", partial(demazure_left, dual=True), "Bminus", True)
    rep.check("s_i^L iota_w = iota_{s_i w}", _each_iw(space, sl_point))
    return rep
