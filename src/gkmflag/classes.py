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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    weyl_left,
)
from .roots import word_str
from .scalars import CohScalar, KScalar, ScalarFraction, _normalize_unit, divides_exactly

FAMILIES = ("csm", "sm", "mc", "smc")


@dataclass
class CellClassFamily:
    """A full table of cell classes of one family and side."""

    family: str
    side: str
    space: object
    table: dict

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


def _verify_csm(space, rep):
    rs = space.rs
    idx = range(1, rs.rank + 1)
    pts = space.points
    csm = cell_family(space, "csm", "B").table
    csm_op = cell_family(space, "csm", "Bminus").table
    sm = cell_family(space, "sm", "B").table
    sm_op = cell_family(space, "sm", "Bminus").table
    rank = rs.rank

    if space.is_full_flag:
        rep.check(
            "right DL recursion on csm cells",
            _each_iw(space, lambda i, w: (dl_right(i, csm[w]), csm[w * rs.simple(i)])),
        )
        rep.check(
            "dual right DL on Segre-MacPherson cells (both sides)",
            (
                pairline
                for i in idx
                for w in pts
                for pairline in (
                    (
                        "i=%d w=%s opp" % (i, word_str(w.word)),
                        dl_right(i, sm_op[w], dual=True),
                        sm_op[w * rs.simple(i)],
                    ),
                    (
                        "i=%d w=%s" % (i, word_str(w.word)),
                        dl_right(i, sm[w], dual=True),
                        sm[w * rs.simple(i)],
                    ),
                )
            ),
        )

    def left_cases():
        for i in idx:
            si = rs.simple(i)
            for w in pts:
                t = space.rep(si * w)
                yield ("i=%d w=%s csm" % (i, word_str(w.word)), dl_left(i, csm[w]), csm[t])
                yield (
                    "i=%d w=%s sm-opp" % (i, word_str(w.word)),
                    dl_left(i, sm_op[w], dual=True),
                    sm_op[t],
                )
                yield (
                    "i=%d w=%s csm-opp" % (i, word_str(w.word)),
                    dl_left(i, csm_op[w], dual=True),
                    csm_op[t],
                )
                yield ("i=%d w=%s sm" % (i, word_str(w.word)), dl_left(i, sm[w]), sm[t])
    rep.check("left DL recursions on csm and sm cells (all four)", left_cases())

    # duality: <csm cell, segre dual of opposite cell> is the identity matrix
    one = ScalarFraction.from_scalar(CohScalar.one(rank))
    zero = ScalarFraction.from_scalar(CohScalar.zero(rank))
    rep.check(
        "csm/sm duality matrix is the identity",
        (
            (
                "(%s,%s)" % (word_str(w.word), word_str(u.word)),
                pair(csm[w], csm_op[u], extra_ambient_weight=True),
                one if w is u else zero,
            )
            for w in pts
            for u in pts
        ),
    )

    total = LocalizedClass.zero(space, H)
    for w in pts:
        total = total + csm[w]
    rep.record("csm normalization: cells sum to c(TX)", total == ambient_class(space, H))
    total = LocalizedClass.zero(space, H)
    for w in pts:
        total = total + csm_op[w]
    rep.record("csm normalization on opposite cells", total == ambient_class(space, H))

    # gkm membership and support triangularity
    def gkm_all():
        for w in pts:
            status, witness = gkm_check(csm[w])
            yield ("csm w=%s" % word_str(w.word), status, "pass")
    rep.check("gkm membership of csm cells", gkm_all())

    from .roots import bruhat_leq

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


def _verify_motivic(space, rep, corrupt=False):
    rs = space.rs
    idx = range(1, rs.rank + 1)
    pts = space.points
    rank = rs.rank
    mc = dict(cell_family(space, "mc", "B").table)
    if corrupt:
        w1 = pts[-1]
        mc[w1] = mc[w1].scale(KScalar.y(rank))
    mc_op = cell_family(space, "mc", "Bminus").table
    smc_op = cell_family(space, "smc", "Bminus").table
    smc_b = cell_family(space, "smc", "B").table
    y = KScalar.y(rank)
    one = KScalar.one(rank)
    neg_y = -y
    one_plus_y = one + y

    def braid_factor(k):
        acc = ScalarFraction.from_scalar(one)
        for _ in range(k):
            acc = acc.mul_scalar(neg_y)
        return acc

    if space.is_full_flag:
        def mcr():
            for i in idx:
                si = rs.simple(i)
                for w in pts:
                    t = w * si
                    lhs = dl_right(i, mc[w])
                    if t.length > w.length:
                        rhs = mc[t]
                    else:
                        rhs = -(mc[w].scale(one_plus_y)) - mc[t].scale(y)
                    yield ("i=%d w=%s" % (i, word_str(w.word)), lhs, rhs)
                    lhs2 = dl_right(i, mc_op[w])
                    if t.length < w.length:
                        rhs2 = mc_op[t]
                    else:
                        rhs2 = -(mc_op[w].scale(one_plus_y)) - mc_op[t].scale(y)
                    yield ("i=%d w=%s opp" % (i, word_str(w.word)), lhs2, rhs2)
        rep.check("right DL on motivic cells, both branches", mcr())

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

        def smcr():
            for i in idx:
                si = rs.simple(i)
                for w in pts:
                    t = w * si
                    lhs = dl_right(i, smc_b[w], dual=True)
                    if t.length < w.length:
                        rhs = smc_b[t].scale(neg_y)
                    else:
                        rhs = -(smc_b[w].scale(one_plus_y)) + smc_b[t]
                    yield ("i=%d w=%s" % (i, word_str(w.word)), lhs, rhs)
                    lhs2 = dl_right(i, smc_op[w], dual=True)
                    if t.length > w.length:
                        rhs2 = smc_op[t].scale(neg_y)
                    else:
                        rhs2 = -(smc_op[w].scale(one_plus_y)) + smc_op[t]
                    yield ("i=%d w=%s opp" % (i, word_str(w.word)), lhs2, rhs2)
        rep.check("dual right DL on Segre motivic cells, both branches", smcr())

        # B-side inverse-word closed form by the dual operators; the table
        # is built by the plain ones and one division by lambda_y(T*X), so
        # this is an independent identity
        def close_b():
            den_b = one
            for b in rs.positive_roots:
                den_b = den_b * (one + y * KScalar.character(b))
            for w in pts:
                cls = apply_word(lambda i, b: dl_right_inverse(i, b, dual=True), w.inverse(), point_b)
                fac = braid_factor(w.length).div_scalar(den_b)
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

    # duality on any space
    onef = ScalarFraction.from_scalar(one)
    zerof = ScalarFraction.from_scalar(KScalar.zero(rank))
    rep.check(
        "mc/smc duality matrix is the identity",
        (
            (
                "(%s,%s)" % (word_str(w.word), word_str(u.word)),
                pair(mc[w], smc_op[u]),
                onef if w is u else zerof,
            )
            for w in pts
            for u in pts
        ),
    )

    # left DL on motivic cells, with the (-y) power on the folding branch
    def ldl(i, w):
        siw = rs.simple(i) * w
        t = space.rep(siw)
        lhs = dl_left(i, mc[w])
        if siw.length > w.length:
            return lhs, mc[t].scale(braid_factor(siw.length - t.length))
        return lhs, -(mc[w].scale(one_plus_y)) - mc[t].scale(y)
    rep.check("left DL on motivic cells, with (-y) fold factor", _each_iw(space, ldl))

    def ldl_dual(i, w):
        siw = rs.simple(i) * w
        t = space.rep(siw)
        lhs = dl_left(i, smc_op[w], dual=True)
        if siw.length > w.length:
            return lhs, smc_op[t].scale(neg_y)
        return lhs, -(smc_op[w].scale(one_plus_y)) + smc_op[t]
    rep.check("dual left DL on Segre motivic opposite cells", _each_iw(space, ldl_dual))

    total = LocalizedClass.zero(space, K)
    for w in pts:
        total = total + mc[w]
    rep.record("mc normalization: cells sum to lambda_y(T*X)", total == ambient_class(space, K),
               None if total == ambient_class(space, K) else "sum mismatch")

    def gkm_all():
        for w in pts:
            status, _ = gkm_check(mc[w])
            yield ("mc w=%s" % word_str(w.word), status, "pass")
    rep.check("gkm membership of mc cells", gkm_all())

    from .roots import bruhat_leq

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
        mc_full = cell_family(full, "mc", "B").table
        def push_factor():
            for u in full.points:
                lhs = pushforward_parabolic(mc_full[u], space)
                t = space.rep(u)
                rhs = mc[t].scale(braid_factor(u.length - t.length))
                yield ("u=%s" % word_str(u.word), lhs, rhs)
        rep.check("pushforward of motivic cells picks up (-y) powers", push_factor())

        # pullback vs the coset decomposition of the preimage cell: the
        # (-y) powers compensate the dimension shifts in the Segre
        # normalization of the lower-dimensional coset pieces
        smc_full = cell_family(full, "smc", "Bminus").table
        def pull_additive():
            for u in pts:
                lhs = pullback_parabolic(smc_op[u], full)
                rhs = LocalizedClass.zero(full, K)
                for v in space.coset(u):
                    rhs = rhs + smc_full[v].scale(braid_factor(v.length - u.length))
                yield ("u=%s" % word_str(u.word), lhs, rhs)
        rep.check("pullback of Segre motivic classes is coset-additive", pull_additive())
