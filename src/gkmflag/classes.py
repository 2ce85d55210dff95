"""Characteristic classes of Schubert cells and their operator theorems.

Four families per flag space, each a table indexed by the minimal coset
representatives:

* csm / sm:   Chern-Schwartz-MacPherson classes of cells and their
              Segre-MacPherson duals (cohomology);
* mc / smc:   motivic Chern classes of cells and Segre motivic duals
              (K theory with the parameter y).

Every table comes from one recursion on the point class: right DL steps
T_i on the full flag space, left ones on G/P, and the longest-element twist
for the opposite side.  csm and mc cells take the steps T_i.  Segre
motivic cells take T_i + (1+y) = -y T_i^{-1}, which yields lambda_y(T*X)
times the class (the left operators commute with that left-invariant
factor, and on G/B the right walk gives the same classes); one pointwise
division by it follows.  Segre-MacPherson classes are the csm classes
divided by c(T_X).  The closed forms, the dual-basis solve, the other
recursions and the pushforward identities are verified as theorems rather
than used as constructors.

The paper's main theorem, how T_i acts on Chern cells and its dual on
Segre cells, is stated once, in ``_dl_cases``; ``verify_class_theorems``
checks it for every family, side and direction of step.

Schubert expansions come from ``family_expansions``: of Chern cells by the
left operators in Schubert coordinates, which the suites check by
rebuilding the cells (``_expansion_cases``), and of Segre cells by a peel.

The csm/sm duality <csm(w), sm(u) on the opposite side> = delta_{w,u} is
checked in its transposed fixed-point form (``_transposed_duality_holds``).
With A[w][v] = csm(w)|_v, B[u][v] = csm_op(u)|_v and D = diag(1/(e(T_v)
c(T)|_v)) the pairings are A D B^T, and for square matrices over a field
XY = I exactly when YX = I; so the duality holds exactly when B^T A = D^{-1},
i.e. sum_w csm_op(w)|_v csm(w)|_v' = delta_{v,v'} e(T_v) c(T)|_v: polynomial
products with no common denominator.  When that fails, the pairings are
integrated literally to name the first failing (w,u).  The mc/smc duality
stays literal: smc cells are fractions, and the same transposition over them
was slower.
"""

from __future__ import annotations

from . import model
from .model import (
    H,
    K,
    LocalizedClass,
    _recursive_table,
    ambient_class,
    fixed_point_class,
    gkm_check,
    pair,
    pullback_parabolic,
    pushforward_parabolic,
)
from .operators import (
    VerificationReport,
    _each_iw,
    _space_label,
    apply_word,
    dl_left,
    dl_left_homogenized,
    dl_right,
    dl_right_inverse,
    left_in_coordinates,
    weyl_left,
)
from .roots import bruhat_leq, word_str
from .scalars import (CohScalar, KScalar, ScalarFraction, _normalize_unit, _p_iadd, _p_mul,
                      divides_exactly, weyl_act_scalar)

FAMILIES = ("csm", "sm", "mc", "smc")

# every table family: name -> (theory, own side); cell families take either side
FAMILY_INFO = {"csm": (H, "B"), "sm": (H, "B"), "mc": (K, "B"), "smc": (K, "Bminus"),
               "schubert-b": (H, "B"), "schubert-bminus": (H, "Bminus"),
               "kschubert-b": (K, "B"), "kschubert-bminus": (K, "Bminus")}


class CellClassFamily:
    """A full table of cell classes of one family and side."""

    def __init__(self, family, side, space, table):
        self.family = family
        self.side = side
        self.space = space
        self.table = table

    def __getitem__(self, w):
        return self.table[w]


def cell_family(space, family, side="B"):
    """The family table for one of csm/sm/mc/smc on the given side (cached)."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if side not in ("B", "Bminus"):
        raise ValueError("side must be 'B' or 'Bminus'")
    key = ("cells", family, side)
    if key not in space._cache:
        space._cache[key] = CellClassFamily(family, side, space, _build(space, family, side))
    return space._cache[key]


def csm_cell(space, w, side="B"):
    return cell_family(space, "csm", side)[w]


def sm_cell(space, w, side="B"):
    return cell_family(space, "sm", side)[w]


def mc_cell(space, w, side="B"):
    return cell_family(space, "mc", side)[w]


def smc_cell(space, w, side="Bminus"):
    return cell_family(space, "smc", side)[w]


def _build(space, family, side):
    if family == "sm":
        return _over_ambient(space, H, cell_family(space, "csm", side).table)
    theory = H if family == "csm" else K
    right, left = dl_right, dl_left
    if family == "smc":
        # (T_i + 1)(T_i + y) = 0 makes T_i + (1+y) = -y T_i^{-1}: this walks
        # the inverse words and yields lambda_y(T*X) * smc, which stays
        # polynomial (see the module docstring).
        shift = KScalar.one(space.rs.rank) + KScalar.y(space.rs.rank)
        right = lambda i, a: dl_right(i, a) + a.scale(shift)
        left = lambda i, a: dl_left(i, a) + a.scale(shift)
    table = _recursive_table(
        space, theory, side, right, left, lambda sd: cell_family(space, family, sd).table
    )
    if family == "smc" and side == "B":
        return _over_ambient(space, K, table)
    return table


def _over_ambient(space, theory, table):
    """Every polynomial class of the table divided pointwise by the ambient
    class.  Its restriction at v is a product of distinct irreducible
    factors, so cancelling those that divide exactly leaves the reduced
    fraction, with no gcd."""
    factors = {v: space._ambient_factors(theory, v) for v in space.points}
    amb = {v: space.ambient_restriction(theory, v) for v in space.points}

    def quotient(v, f):
        num, den = f.num, amb[v]
        for p in factors[v]:
            ok, q = divides_exactly(p, num)
            if ok:
                num, den = q, divides_exactly(p, den)[1]
        return ScalarFraction(*_normalize_unit(num, den))
    return {w: a.map_values(quotient) for w, a in table.items()}


def family_expansions(space, family, side="B"):
    """{w: SchubertExpansion} of every class of a ``FAMILY_INFO`` table, in
    the basis of its side.  Chern cells (``_left_coordinates``) and Schubert
    classes (unit vectors) are cached; Segre cells are peeled by
    ``model.expand_schubert`` on every call, as any class is."""
    if family in ("sm", "smc"):
        table = cell_family(space, family, side).table
        return {w: model.expand_schubert(table[w], side=side) for w in space.points}
    key = ("expansions", family, side)
    if key not in space._cache:
        theory, own_side = FAMILY_INFO.get(family, (None, None))
        if theory is None or side not in ("B", "Bminus") or (
                family not in FAMILIES and side != own_side):
            raise ValueError("no expansions of family %r on side %r" % (family, side))
        if family in FAMILIES:  # csm or mc
            coords = _left_coordinates(space, theory)
            if side == "Bminus":  # the w0 twist: w0^L(f S_v) = w0(f) S^{rep(w0 v)}
                w0, rep = space.rs.longest_element, space.rep
                coords = {w: {rep(w0 * v): weyl_act_scalar(w0, f)
                              for v, f in coords[rep(w0 * w)].items()} for w in space.points}
        else:  # a Schubert basis
            one = model._one_fraction(space.rs.rank, theory)
            coords = {w: {w: one} for w in space.points}
        zero = model._zero_fraction(space.rs.rank, theory)
        space._cache[key] = {w: model.SchubertExpansion(space, theory, side, {
            v: cw.get(v, zero) for v in space.points
        }) for w, cw in coords.items()}
    return space._cache[key]


def _left_coordinates(space, theory):
    """Schubert coordinates {w: {v: nonzero polynomial fraction}} of the csm
    (H) or mc (K) cells on the B side: the cell at w is T_i^L of the cell at
    s_i w for the first letter i of w (the paper's generation theorem), one
    ``left_in_coordinates`` step with (p, q, den) = (1 + alpha_i, 1, alpha_i)
    in H and (1 + y e^{-alpha_i}, 1 + y, 1 - e^{-alpha_i}) in K."""
    rs, rank = space.rs, space.rs.rank
    one = (CohScalar if theory == H else KScalar).one(rank)
    e = space.points[0]
    coords = {e: {e: ScalarFraction.from_scalar(one)}}
    for w in space.points[1:]:  # sorted by length, so s_i w comes first
        i = w.word[0]
        alpha = rs.simple_root(i)
        if theory == H:
            den = CohScalar.linear_form(alpha)
            p, q = one + den, one
        else:
            t, y = KScalar.character(tuple(-c for c in alpha)), KScalar.y(rank)
            p, q, den = one + y * t, one + y, one - t
        coords[w] = left_in_coordinates(space, theory, "B", i, coords[rs.simple(i) * w], p, q, den)
        if not all(c.is_polynomial() for c in coords[w].values()):
            raise ArithmeticError("left operator step left the polynomial coordinates")
    return coords


def _dual_basis_solve(space, mc_table):
    """Restrictions of the Segre motivic classes from the duality pairings.

    Solving M x_u = e_u, where M[a][b] = MC(cell a)|_{point b} over the
    localization weight at b, realizes < MC(X_w), S_u > = delta_{w,u}.
    """
    pts = list(space.points)
    n = len(pts)
    numers, den = space.weights(K)
    weights = {v: ScalarFraction.make(numers[v], den) for v in pts}
    m = [
        [mc_table[w].values[v] * weights[v] for v in pts]
        for w in pts
    ]
    zero = ScalarFraction.from_scalar(KScalar.zero(space.rs.rank))
    one = ScalarFraction.from_scalar(KScalar.one(space.rs.rank))
    aug = [[one if i == j else zero for j in range(n)] for i in range(n)]
    # Gauss-Jordan over the fraction field
    for col in range(n):
        piv = next(r for r in range(col, n) if not m[r][col].is_zero())
        m[col], m[piv] = m[piv], m[col]
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = one / m[col][col]
        m[col] = [x * inv for x in m[col]]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    # column u of the inverse, spread over the points, is SMC(opposite cell u)
    out = {}
    for uj, u in enumerate(pts):
        vals = {v: aug[vj][uj] for vj, v in enumerate(pts)}
        out[u] = LocalizedClass(space, K, vals)
    return out


def homogenize_csm(a):
    """Homogenize a polynomial cohomology class to total degree dim(space).

    The degree-k part of each restriction picks up hbar^(dim - k); setting
    hbar = 1 recovers the input.
    """
    space = a.space
    dim = space.dim
    rank = space.rs.rank
    vals = {}
    for v in space.points:
        f = a.values[v]
        if not f.is_polynomial():
            raise ValueError("homogenization needs polynomial restrictions")
        out = {}
        for k, c in f.num.terms.items():
            if k[rank]:
                raise ValueError("input already involves hbar")
            d = sum(k)
            if d > dim:
                raise ValueError("degree exceeds the space dimension")
            out[k[:rank] + (dim - d,)] = c
        vals[v] = CohScalar(rank, out)
    return LocalizedClass.from_scalars(space, H, vals)


# ---------------------------------------------------------------------------
# the theorem suite
# ---------------------------------------------------------------------------

def verify_class_theorems(space, kinds=("csm", "motivic"), corrupt=False):
    """Exhaustive verification of the characteristic-class theorems.

    ``kinds`` selects the cohomology suite ("csm") and/or the K suite
    ("motivic").  ``corrupt`` perturbs one motivic Chern class before
    checking, to self-test that failures carry witnesses.
    """
    rep = VerificationReport("classes", _space_label(space))
    if "csm" in kinds:
        _verify_csm(space, rep)
    if "motivic" in kinds:
        _verify_motivic(space, rep, corrupt=corrupt)
    return rep


def _neg_y_power(rank, k):
    out = KScalar.one(rank)
    for _ in range(k):
        out = out * -KScalar.y(rank)
    return out


def _dl_cases(space, left, entries):
    """Witness cases of the paper's DL rule on cell classes, lazily.

    ``entries`` holds (label suffix, cell family, dual), one case each per
    simple index i and fixed point w.  The step takes w to t = rep(s_i w)
    (left) or w s_i (right); it goes toward the side's growth when it goes
    up on B or down on Bminus, and fold = l(s_i w) - l(t) is nonzero only
    for left steps on G/P.  With T_i (dual: T_i^dual) applied to a cell,
    in K:

      Chern cells (csm, mc):  (-y)^fold c_t toward;  -(1+y) c_w - y c_t against;
      Segre cells (sm, smc):  -(1+y) s_w + s_t toward;  -y s_t against.

    Cohomology is y = -1, where every case is c_t.
    """
    rank = space.rs.rank
    y = KScalar.y(rank)
    one_plus_y = KScalar.one(rank) + y

    def rhs(cells, w, t, toward, fold):
        ct = cells[t]
        if cells.family in ("csm", "sm"):
            return ct
        if cells.family == "smc":
            return -(cells[w].scale(one_plus_y)) + ct if toward else ct.scale(-y)
        if not toward:
            return -(cells[w].scale(one_plus_y)) - ct.scale(y)
        return ct.scale(_neg_y_power(rank, fold)) if fold else ct

    op = dl_left if left else dl_right
    for i in range(1, rank + 1):
        si = space.rs.simple(i)
        for w in space.points:
            step = si * w if left else w * si
            t = space.rep(step)
            up = step.length > w.length
            for suffix, cells, dual in entries:
                lhs = op(i, cells[w], dual=dual)
                yield ("i=%d w=%s%s" % (i, word_str(w.word), suffix), lhs,
                       rhs(cells, w, t, up == (cells.side == "B"), step.length - t.length))


def _duality_cases(space, theory, cells, duals, **pair_kw):
    """Witness cases of <cells[w], duals[u]> = delta_{w,u}, lazily."""
    base = CohScalar if theory == H else KScalar
    one = ScalarFraction.from_scalar(base.one(space.rs.rank))
    zero = ScalarFraction.from_scalar(base.zero(space.rs.rank))
    return (
        (
            "(%s,%s)" % (word_str(w.word), word_str(u.word)),
            pair(cells[w], duals[u], **pair_kw),
            one if w is u else zero,
        )
        for w in space.points
        for u in space.points
    )


def _transposed_duality_holds(space, cells, duals):
    """Whether sum_w duals[w]|_v cells[w]|_v' = delta_{v,v'} e(T_v) c(T)|_v at
    all fixed points v, v', the transposed duality of the module docstring;
    False if a restriction is not polynomial."""
    sums = {}
    for w in space.points:
        if not (cells[w].is_polynomial() and duals[w].is_polynomial()):
            return False
        left = [(v, f.num.terms) for v, f in duals[w].values.items() if f]
        right = [(v, f.num.terms) for v, f in cells[w].values.items() if f]
        for v, f in left:
            for v2, g in right:
                _p_iadd(sums.setdefault((v, v2), {}), _p_mul(f, g))
    for v in space.points:
        target = (space.normalizer(H, v) * space.ambient_restriction(H, v)).terms
        if any(sums.get((v, v2), {}) != (target if v is v2 else {}) for v2 in space.points):
            return False
    return True


def _sums_to_ambient(space, theory, cells):
    total = LocalizedClass.zero(space, theory)
    for w in space.points:
        total = total + cells[w]
    return total == ambient_class(space, theory)


def _expansion_cases(space, tables):
    """Witness cases of the generation theorem, lazily: for each (label
    suffix, cell table), the left-operator Schubert coordinates rebuilt
    through the localized Schubert basis give the table's class at every w."""
    for suffix, cells in tables:
        exps = family_expansions(space, cells.family, cells.side)
        for w in space.points:
            yield ("w=%s%s" % (word_str(w.word), suffix),
                   model.rebuild_from_expansion(exps[w]), cells[w])


def _gkm_cases(cells):
    for w in cells.space.points:
        status, _ = gkm_check(cells[w])
        yield ("%s w=%s" % (cells.family, word_str(w.word)), status, "pass")


def _verify_csm(space, rep):
    rs = space.rs
    idx = range(1, rs.rank + 1)
    pts = space.points
    csm = cell_family(space, "csm", "B")
    csm_op = cell_family(space, "csm", "Bminus")
    sm = cell_family(space, "sm", "B")
    sm_op = cell_family(space, "sm", "Bminus")
    rank = rs.rank

    if space.is_full_flag:
        rep.check("right DL recursion on csm cells", _dl_cases(space, False, [("", csm, False)]))
        rep.check(
            "dual right DL on Segre-MacPherson cells (both sides)",
            _dl_cases(space, False, [(" opp", sm_op, True), ("", sm, True)]),
        )
    rep.check(
        "left DL recursions on csm and sm cells (all four)",
        _dl_cases(space, True, [
            (" csm", csm, False), (" sm-opp", sm_op, True),
            (" csm-opp", csm_op, True), (" sm", sm, False),
        ]),
    )

    # duality: <csm cell, segre dual of opposite cell> is the identity matrix.
    # Its transpose over the fixed points holds exactly when the matrix is the
    # identity (XY = I iff YX = I) and needs no common denominator; only when
    # it fails are the pairings integrated, to name the first failing (w,u).
    duality = "csm/sm duality matrix is the identity"
    if _transposed_duality_holds(space, csm, csm_op):
        rep.record(duality, True)
    else:
        rep.check(duality, _duality_cases(space, H, csm, csm_op, extra_ambient_weight=True))
    rep.record("csm normalization: cells sum to c(TX)", _sums_to_ambient(space, H, csm),
               "sum mismatch")
    rep.record("csm normalization on opposite cells", _sums_to_ambient(space, H, csm_op),
               "sum mismatch")

    # gkm membership and support triangularity
    rep.check("gkm membership of csm cells", _gkm_cases(csm))

    # Bruhat partial sums are the classes of the closed Schubert varieties;
    # they must land in the non-localized ring and agree with the dense cell
    # at its own fixed point
    def partial_sums():
        for w in pts:
            total = LocalizedClass.zero(space, H)
            for v in pts:
                if bruhat_leq(v, w):
                    total = total + csm[v]
            status, _ = gkm_check(total)
            yield ("w=%s gkm" % word_str(w.word), status, "pass")
            yield (
                "w=%s top restriction" % word_str(w.word),
                total.values[w],
                csm[w].values[w],
            )
    rep.check("csm partial sums stay integral", partial_sums())

    rep.check(
        "csm support triangularity",
        (
            (
                "w=%s v=%s" % (word_str(w.word), word_str(v.word)),
                True,
                bruhat_leq(v, w) or csm[w].values[v].is_zero(),
            )
            for w in pts
            for v in pts
        ),
    )

    # homogenized action
    hbar = CohScalar.hbar(rank)
    ch = {w: homogenize_csm(csm[w]) for w in pts}
    rep.check(
        "hbar homogenization: hbar = 1 recovers the class",
        (
            (
                "w=%s" % word_str(w.word),
                ch[w].map_values(lambda v, f: ScalarFraction.from_scalar(f.num.substitute_hbar_one())),
                csm[w],
            )
            for w in pts
        ),
    )

    coeffs = {}  # i -> (hbar, alpha_i) / (alpha_i + hbar)
    for i in idx:
        alpha = CohScalar.linear_form(rs.simple_root(i))
        den = ScalarFraction.from_scalar(alpha + hbar)
        coeffs[i] = (ScalarFraction.from_scalar(hbar) / den, ScalarFraction.from_scalar(alpha) / den)

    def homog_action(i, w):
        si = rs.simple(i)
        c_h, c_a = coeffs[i]
        return weyl_left(si, ch[w]), ch[w].scale(c_h) + ch[space.rep(si * w)].scale(c_a)
    rep.check("left Weyl action on homogenized csm cells", _each_iw(space, homog_action))
    rep.check(
        "homogenized left DL recursion",
        _each_iw(space, lambda i, w: (dl_left_homogenized(i, ch[w]), ch[space.rep(rs.simple(i) * w)])),
    )
    rep.check("left operators in Schubert coordinates rebuild the csm cells (both sides)",
              _expansion_cases(space, [("", csm), (" opp", csm_op)]))


def _verify_motivic(space, rep, corrupt=False):
    rs = space.rs
    pts = space.points
    rank = rs.rank
    mc = cell_family(space, "mc", "B")
    if corrupt:
        w1 = pts[-1]
        table = dict(mc.table)
        table[w1] = table[w1].scale(KScalar.y(rank))
        mc = CellClassFamily("mc", "B", space, table)
    mc_op = cell_family(space, "mc", "Bminus")
    smc_op = cell_family(space, "smc", "Bminus")
    smc_b = cell_family(space, "smc", "B")

    if space.is_full_flag:
        rep.check(
            "right DL on motivic cells, both branches",
            _dl_cases(space, False, [("", mc, False), (" opp", mc_op, False)]),
        )

        w0 = rs.longest_element
        point_b = fixed_point_class(space, K, rs.identity)
        point_op = fixed_point_class(space, K, w0)
        rep.check(
            "motivic closed forms from point classes",
            (
                entry
                for w in pts
                for entry in (
                    (
                        "w=%s" % word_str(w.word),
                        apply_word(dl_right, w.inverse(), point_b),
                        mc[w],
                    ),
                    (
                        "w=%s opp" % word_str(w.word),
                        apply_word(dl_right, w.inverse() * w0, point_op),
                        mc_op[w],
                    ),
                )
            ),
        )
        rep.check(
            "dual right DL on Segre motivic cells, both branches",
            _dl_cases(space, False, [("", smc_b, True), (" opp", smc_op, True)]),
        )

        # B-side inverse-word closed form by the dual operators; the table
        # is built by the plain ones and one division by lambda_y(T*X), so
        # this is an independent identity
        def close_b():
            one, y = KScalar.one(rank), KScalar.y(rank)
            den_b = one
            for b in rs.positive_roots:
                den_b = den_b * (one + y * KScalar.character(b))
            for w in pts:
                cls = apply_word(lambda i, b: dl_right_inverse(i, b, dual=True), w.inverse(), point_b)
                fac = ScalarFraction.from_scalar(_neg_y_power(rank, w.length))
                fac = fac.div_scalar(den_b)
                yield ("w=%s" % word_str(w.word), cls.scale(fac), smc_b[w])
        rep.check("Segre motivic inverse-word closed form, B side", close_b())

        if len(pts) <= 12:
            solved = _dual_basis_solve(space, cell_family(space, "mc", "B").table)
            rep.check(
                "dual-basis solve matches the closed-form classes",
                (
                    ("w=%s" % word_str(w.word), solved[w], smc_op[w])
                    for w in pts
                ),
            )

    # literal pairings: the transposed form of the csm check runs over
    # fractional smc cells here, and was slower
    rep.check("mc/smc duality matrix is the identity", _duality_cases(space, K, mc, smc_op))
    rep.check(
        "left DL on motivic cells, with (-y) fold factor", _dl_cases(space, True, [("", mc, False)])
    )
    rep.check(
        "dual left DL on Segre motivic opposite cells", _dl_cases(space, True, [("", smc_op, True)])
    )
    rep.record("mc normalization: cells sum to lambda_y(T*X)", _sums_to_ambient(space, K, mc),
               "sum mismatch")
    rep.check("gkm membership of mc cells", _gkm_cases(mc))
    rep.check(
        "mc support triangularity and y-degree bounds",
        (
            (
                "w=%s v=%s" % (word_str(w.word), word_str(v.word)),
                True,
                (bruhat_leq(v, w) or mc[w].values[v].is_zero())
                and mc[w].values[v].num.y_degree() <= space.dim
                and (v is not w or mc[w].values[w].num.y_degree() == w.length),
            )
            for w in pts
            for v in pts
        ),
    )

    if not space.is_full_flag:
        full = space.full_flag()
        mc_full = cell_family(full, "mc", "B")
        def push_factor():
            for u in full.points:
                lhs = pushforward_parabolic(mc_full[u], space)
                t = space.rep(u)
                rhs = mc[t].scale(_neg_y_power(rank, u.length - t.length))
                yield ("u=%s" % word_str(u.word), lhs, rhs)
        rep.check("pushforward of motivic cells picks up (-y) powers", push_factor())

        # pullback vs the coset decomposition of the preimage cell: the
        # (-y) powers compensate the dimension shifts in the Segre
        # normalization of the lower-dimensional coset pieces
        smc_full = cell_family(full, "smc", "Bminus")
        def pull_additive():
            for u in pts:
                lhs = pullback_parabolic(smc_op[u], full)
                rhs = LocalizedClass.zero(full, K)
                for v in space.coset(u):
                    rhs = rhs + smc_full[v].scale(_neg_y_power(rank, v.length - u.length))
                yield ("u=%s" % word_str(u.word), lhs, rhs)
        rep.check("pullback of Segre motivic classes is coset-additive", pull_additive())

    rep.check("left operators in Schubert coordinates rebuild the mc cells (both sides)",
              _expansion_cases(space, [("", mc), (" opp", mc_op)]))
