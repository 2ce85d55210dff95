"""Output checker for the benchmark, written apart from gkmflag's arithmetic.

It keeps its own root-system code (simple roots in Euclidean coordinates,
Cartan matrices, simple reflections, positive roots, Weyl group elements,
tangent weights) and evaluates restrictions exactly with ``Fraction`` at a
seeded random rational point.  Nothing here imports gkmflag.

Documents it reads: the JSON class tables and pairing matrices of
``gkmflag classes`` / ``gkmflag pair`` and their CSV and LaTeX renderings.
The theorems checked on a class table are:

* point labels and class labels are exactly the minimal coset
  representatives W^P;
* support: cells and Schubert classes on the B side vanish at fixed points
  outside their Bruhat ideal, opposite ones outside their Bruhat filter;
* GKM: the restrictions at v and at the coset of v s_beta agree on the
  hyperplane v(beta) = 0 (cohomology) or e^{v(beta)} = 1 (K theory);
* csm cells sum to prod(1 + w) over the tangent weights w at every fixed
  point, mc cells to lambda_y(T*X), Segre-MacPherson cells to 1;
* integrals by localization: csm cells integrate to 1 (the Euler
  characteristic of a cell), mc cells to (-y)^dim(cell), cohomology
  Schubert classes to 1 at the point class and 0 elsewhere, K-theory
  Schubert classes to 1;
* Schubert expansions: the coefficient at the extreme cell equals the
  restriction there, every csm expansion has coefficient 1 on the point
  class, and the coefficients integrate to the class's integral.

A pairing matrix of two dual families must be the identity; for the
K-theory Schubert families, which are not dual bases, the entry (w, u) must
be 1 when u <= w in Bruhat order and 0 otherwise.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# root systems, from simple roots in Euclidean coordinates
# ---------------------------------------------------------------------------


def _e(n, *pairs):
    v = [0] * n
    for i, c in pairs:
        v[i] += c
    return tuple(v)


def _euclidean_simple_roots(label):
    kind, rank = label[0], int(label[1:])
    if kind == "A":
        return [_e(rank + 1, (i, 1), (i + 1, -1)) for i in range(rank)]
    if kind in ("B", "C"):
        roots = [_e(rank, (i, 1), (i + 1, -1)) for i in range(rank - 1)]
        roots.append(_e(rank, (rank - 1, 1 if kind == "B" else 2)))
        return roots
    if kind == "D" and rank == 4:
        return [_e(4, (0, 1), (1, -1)), _e(4, (1, 1), (2, -1)),
                _e(4, (2, 1), (3, -1)), _e(4, (2, 1), (3, 1))]
    if kind == "G" and rank == 2:
        # alpha_1 short, alpha_2 long
        return [_e(3, (0, 1), (1, -1)), _e(3, (0, -2), (1, 1), (2, 1))]
    raise ValueError("no root system for %r" % (label,))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class RootSystem:
    """Root data and Weyl group of one Cartan type, in simple-root coordinates."""

    def __init__(self, label):
        simple = _euclidean_simple_roots(label)
        self.rank = r = len(simple)
        # cartan[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i)
        self.cartan = tuple(
            tuple(2 * _dot(simple[j], simple[i]) // _dot(simple[i], simple[i]) for j in range(r))
            for i in range(r)
        )
        # the symmetrized form (alpha_i, alpha_j), for coroots of arbitrary roots
        self.gram = tuple(tuple(_dot(a, b) for b in simple) for a in simple)
        self.simple_roots = tuple(_e(r, (i, 1)) for i in range(r))
        roots = set(self.simple_roots)
        todo = list(roots)
        while todo:
            v = todo.pop()
            for i in range(r):
                w = self.reflect(i, v)
                if all(c >= 0 for c in w) and w not in roots:
                    roots.add(w)
                    todo.append(w)
        self.positive_roots = tuple(sorted(roots))
        self.identity = self.simple_roots
        self._elements = None

    def reflect(self, i, v):
        """s_{i+1}(v) for a vector v in simple-root coordinates."""
        c = sum(v[j] * self.cartan[i][j] for j in range(self.rank))
        return tuple(x - (c if k == i else 0) for k, x in enumerate(v))

    def form(self, u, v):
        return sum(u[i] * v[j] * self.gram[i][j] for i in range(self.rank) for j in range(self.rank))

    def root_reflect(self, beta, v):
        """s_beta(v) = v - 2 (v, beta) / (beta, beta) beta."""
        c = Fraction(2 * self.form(v, beta), self.form(beta, beta))
        assert c.denominator == 1
        return tuple(x - int(c) * b for x, b in zip(v, beta))

    # Weyl group elements are tuples of the images of the simple roots
    def act(self, w, v):
        out = [0] * self.rank
        for c, img in zip(v, w):
            if c:
                for k, a in enumerate(img):
                    out[k] += c * a
        return tuple(out)

    def compose(self, u, w):
        return tuple(self.act(u, img) for img in w)

    def from_word(self, word):
        """The element s_{i1} ... s_{ik} for the word (i1, ..., ik), 1-based."""
        w = self.identity
        for i in reversed(word):
            w = tuple(self.reflect(i - 1, img) for img in w)
        return w

    def reflection(self, beta):
        return tuple(self.root_reflect(beta, a) for a in self.simple_roots)

    def length(self, w):
        return sum(1 for b in self.positive_roots if any(c < 0 for c in self.act(w, b)))

    def elements(self):
        if self._elements is None:
            seen = {self.identity}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for w in frontier:
                    for i in range(self.rank):
                        x = tuple(self.reflect(i, img) for img in w)
                        if x not in seen:
                            seen.add(x)
                            nxt.append(x)
                frontier = nxt
            self._elements = tuple(seen)
        return self._elements


def _negative(v):
    return any(c < 0 for c in v)


class Space:
    """G/P: the type, the parabolic simple indices (1-based) and W^P."""

    def __init__(self, label, parabolic=()):
        self.rs = rs = RootSystem(label)
        self.parabolic = tuple(sorted(parabolic))
        pset = set(self.parabolic)
        self.complement_roots = tuple(
            b for b in rs.positive_roots
            if any(c and (j + 1) not in pset for j, c in enumerate(b))
        )
        self.dim = len(self.complement_roots)
        self.points = tuple(
            w for w in rs.elements()
            if not any(_negative(w[j - 1]) for j in self.parabolic)
        )
        self.point_set = frozenset(self.points)
        self.lengths = {w: rs.length(w) for w in self.points}
        self._ideals = {}

    def rep(self, w):
        """Minimal representative of the coset w W_P."""
        while True:
            for j in self.parabolic:
                if _negative(w[j - 1]):
                    w = self.rs.compose(w, self.rs.from_word((j,)))
                    break
            else:
                return w

    def point(self, label):
        """Parse a dash-joined word into a fixed point; None if it is not in W^P."""
        word = () if label in ("", "e") else tuple(int(p) for p in label.split("-"))
        if any(not 1 <= i <= self.rs.rank for i in word):
            return None
        w = self.rs.from_word(word)
        if w not in self.point_set or self.lengths[w] != len(word):
            return None
        return w

    def tangent_weights(self, v):
        return tuple(tuple(-c for c in self.rs.act(v, b)) for b in self.complement_roots)

    def bruhat_ideal(self, w):
        """All u <= w in Bruhat order: the products of the subwords of a
        reduced word of w."""
        got = self._ideals.get(w)
        if got is None:
            got = {self.rs.identity}
            for i in _word(self, w).split("-") if w != self.rs.identity else ():
                s = self.rs.from_word((int(i),))
                got |= {self.rs.compose(x, s) for x in got}
            self._ideals[w] = got
        return got

    def top(self):
        return max(self.points, key=lambda w: self.lengths[w])

    def identity(self):
        return self.rs.identity


# ---------------------------------------------------------------------------
# scalars: {key: Fraction}, key = (e_1..e_r, e_last) with e_last the hbar
# exponent (cohomology) or the y exponent (K theory)
# ---------------------------------------------------------------------------


class CheckError(Exception):
    """An output violates a theorem or is malformed."""


def scalar_from_json(terms, theory):
    out = {}
    for t in terms:
        if theory == "H":
            key = tuple(t["exponents"])
        else:
            key = tuple(t["lattice"]) + (t["y"],)
        out[key] = out.get(key, 0) + Fraction(t["coeff"])
    return out


def fraction_from_json(doc, theory):
    return scalar_from_json(doc["num"], theory), scalar_from_json(doc["den"], theory)


_TERM_SPLIT = re.compile(r" ([+-]) ")
_PLAIN_FACTOR = re.compile(r"E\[([^\]]*)\]|a(\d+)(?:\^(\d+))?|h(?:\^(\d+))?|y(?:\^(-?\d+))?")
_LATTICE = re.compile(r"([+-]?)(?:(\d+)\*)?a(\d+)")


def parse_plain_scalar(text, rank):
    """Parse gkmflag's plain-text scalar rendering (used in CSV output)."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _TERM_SPLIT.split(text)
    out = {}
    terms = [(sign, pieces[0])] + [
        (1 if pieces[k] == "+" else -1, pieces[k + 1]) for k in range(1, len(pieces), 2)
    ]
    for s, body in terms:
        m = re.match(r"^(\d+(?:/\d+)?)(?:\*(.*))?$", body)
        if m:
            coeff, body = Fraction(m.group(1)), m.group(2) or ""
        else:
            coeff = Fraction(1)
        key = [0] * (rank + 1)
        pos = 0
        for f in _PLAIN_FACTOR.finditer(body):
            if f.start() != pos or not f.group(0):
                raise CheckError("cannot parse term %r" % (body,))
            pos = f.end() + 1  # skip the '*' joining factors
            if f.group(1) is not None:
                for lm in _LATTICE.finditer(f.group(1)):
                    n = int(lm.group(2) or 1) * (-1 if lm.group(1) == "-" else 1)
                    key[int(lm.group(3)) - 1] += n
            elif f.group(2) is not None:
                key[int(f.group(2)) - 1] += int(f.group(3) or 1)
            elif f.group(0).startswith("h"):
                key[rank] += int(f.group(4) or 1)
            else:
                key[rank] += int(f.group(5) or 1)
        if pos < len(body):
            raise CheckError("cannot parse term %r" % (body,))
        key = tuple(key)
        out[key] = out.get(key, 0) + s * coeff
    return out


def parse_plain_fraction(text, rank):
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return parse_plain_scalar(num, rank), parse_plain_scalar(den, rank)
    return parse_plain_scalar(text, rank), {(0,) * (rank + 1): Fraction(1)}


def latex_to_plain(text):
    """Rewrite gkmflag's LaTeX scalar rendering into the plain-text form."""
    t = text.strip()
    t = re.sub(r"\\tfrac\{(\d+)\}\{(\d+)\}", r"\1/\2", t)
    t = re.sub(r"\\alpha_\{(\d+)\}\^\{(\d+)\}", r"a\1^\2", t)
    t = re.sub(r"\\alpha_\{(\d+)\}", r"a\1", t)
    t = re.sub(r"\\hbar\^\{(\d+)\}", r"h^\1", t)
    t = t.replace(r"\hbar", "h")
    t = re.sub(r"y\^\{(-?\d+)\}", r"y^\1", t)
    t = re.sub(
        r"e\^\{([^}]*)\}",
        lambda m: "E[%s]" % re.sub(r"(\d+)a", r"\1*a", m.group(1)),
        t,
    )

    def scalar(s):
        parts = _TERM_SPLIT.split(s)
        parts = [p if k % 2 else p.replace(" ", "*") for k, p in enumerate(parts)]
        return "".join(p if k % 2 == 0 else " %s " % p for k, p in enumerate(parts))

    m = re.match(r"^\\frac\{([^{}]*)\}\{([^{}]*)\}$", t)
    if m:
        return "(%s)/(%s)" % (scalar(m.group(1)), scalar(m.group(2)))
    return scalar(t)


# ---------------------------------------------------------------------------
# evaluation at a point
# ---------------------------------------------------------------------------


class Point:
    """Values of the simple roots and the last variable.

    Cohomology: alpha_i -> vals[i], hbar -> last.  K theory: e^{alpha_i} ->
    vals[i], y -> last.  Monomial values are memoized.
    """

    def __init__(self, theory, vals, last):
        self.theory = theory
        self.vals = tuple(Fraction(v) for v in vals)
        self.last = Fraction(last)
        self._memo = {}

    def monomial(self, key):
        got = self._memo.get(key)
        if got is None:
            got = Fraction(1)
            for x, e in zip(self.vals + (self.last,), key):
                if e:
                    got *= x ** e
            self._memo[key] = got
        return got

    def scalar(self, s):
        return sum((c * self.monomial(k) for k, c in s.items()), Fraction(0))

    def fraction(self, f):
        den = self.scalar(f[1])
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.scalar(f[0]) / den

    def weight(self, lam):
        """A weight lam: the linear form in cohomology, e^lam in K theory."""
        if self.theory == "H":
            return sum((c * x for c, x in zip(lam, self.vals)), Fraction(0))
        return self.monomial(tuple(lam) + (0,))


def _nonzero_rationals(rng, n, lo=2, hi=97):
    out = []
    for _ in range(n):
        out.append(Fraction(rng.randint(lo, hi), rng.randint(1, 7)) * rng.choice((1, -1)))
    return out


def generic_point(space, theory, rng):
    """A random point at which no root and no 1 +- root-type factor vanishes."""
    rs = space.rs
    while True:
        vals = _nonzero_rationals(rng, rs.rank)
        last = _nonzero_rationals(rng, 1)[0]
        p = Point(theory, vals, last)
        ws = [p.weight(b) for b in rs.positive_roots] + [p.weight(tuple(-c for c in b)) for b in rs.positive_roots]
        if theory == "H":
            bad = any(w in (0, 1, -1) for w in ws)
        else:
            bad = any(w == 1 or w * last in (1, -1) or w == -last for w in ws) or last == -1
        if not bad:
            return p


def hyperplane_point(space, theory, gamma, rng):
    """A random point on gamma = 0 (cohomology) or e^gamma = 1 (K theory).

    Cohomology takes alpha_i = a_i with a orthogonal to gamma; K theory takes
    e^{alpha_i} = z^{a_i} for a random rational z, the same a.
    """
    r = space.rs.rank
    gg = _dot(gamma, gamma)
    for _ in range(100):
        u = [rng.randint(-9, 9) for _ in range(r)]
        ug = _dot(u, gamma)
        a = [gg * x - ug * g for x, g in zip(u, gamma)]
        if not any(a) and r > 1:
            continue
        last = _nonzero_rationals(rng, 1)[0]
        if theory == "H":
            p = Point("H", a, last)
        else:
            z = Fraction(rng.randint(2, 9), rng.randint(1, 7))
            if z == 1:
                continue
            p = Point("K", [z ** x for x in a], last)
        # the only root vanishing there should be +-gamma
        ok = True
        for b in space.rs.positive_roots:
            if b == gamma or tuple(-c for c in b) == gamma:
                continue
            w = p.weight(b)
            if (theory == "H" and w == 0) or (theory == "K" and w == 1):
                ok = False
                break
        if ok and (theory == "H" or last not in (1, -1)):
            return p
    raise CheckError("no hyperplane point for %r" % (gamma,))


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


class Table:
    """A parsed class table: classes[label][point label] = (num, den)."""

    def __init__(self, theory, classes, expansions=None):
        self.theory = theory
        self.classes = classes
        self.expansions = expansions


def table_from_json(doc):
    theory = doc["theory"]
    classes = {}
    expansions = {}
    for entry in doc["entries"]:
        classes[entry["label"]] = {
            item["label"]: fraction_from_json(item["value"], theory) for item in entry["values"]
        }
        if "expansion" in entry:
            exp = entry["expansion"]
            expansions[entry["label"]] = (
                exp["side"],
                {c["label"]: fraction_from_json(c["coeff"], theory) for c in exp["coeffs"]},
            )
    return Table(theory, classes, expansions or None)


def _rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError("missing CSV header %r" % (header,))
    for line in lines[1:]:
        m = re.match(r'^([^,]*),([^,]*),"(.*)"$', line)
        if not m:
            raise CheckError("bad CSV row %r" % (line,))
        yield m.groups()


def table_from_csv(text, theory, rank):
    classes = {}
    for cls, pt, value in _rows(text, "class,point,value"):
        classes.setdefault(cls, {})[pt] = parse_plain_fraction(value, rank)
    return Table(theory, classes)


def _latex_cells(line):
    line = line.strip()
    if not line.endswith(r"\\"):
        raise CheckError("bad LaTeX row %r" % (line,))
    cells = [c.strip() for c in line[:-2].split("&")]
    out = []
    for c in cells:
        if c and not (c.startswith("$") and c.endswith("$")):
            raise CheckError("bad LaTeX cell %r" % (c,))
        out.append(c[1:-1] if c else "")
    return out


def table_from_latex(text, theory, rank):
    lines = text.splitlines()
    if lines[:2] != [r"\begin{tabular}{lll}", r"class & point & value \\ \hline"] or lines[-1] != r"\end{tabular}":
        raise CheckError("bad LaTeX table frame")
    classes = {}
    for line in lines[2:-1]:
        cls, pt, value = _latex_cells(line)
        classes.setdefault(cls, {})[pt] = parse_plain_fraction(latex_to_plain(value), rank)
    return Table(theory, classes)


class Matrix:
    def __init__(self, rows, cols, entries):
        self.rows, self.cols, self.entries = rows, cols, entries


def matrix_from_json(doc):
    theory = doc["theory"]
    return Matrix(doc["rows"], doc["cols"],
                  [[fraction_from_json(x, theory) for x in row] for row in doc["matrix"]])


def matrix_from_csv(text, rank):
    cells = {}
    rows, cols = [], []
    for r, c, value in _rows(text, "row,col,value"):
        if r not in rows:
            rows.append(r)
        if c not in cols:
            cols.append(c)
        cells[r, c] = parse_plain_fraction(value, rank)
    return Matrix(rows, cols, [[cells[r, c] for c in cols] for r in rows])


def matrix_from_latex(text, rank):
    lines = text.splitlines()
    if not lines or not lines[0].startswith(r"\begin{tabular}") or lines[-1] != r"\end{tabular}":
        raise CheckError("bad LaTeX matrix frame")
    header = lines[1]
    if not header.endswith(r" \\ \hline"):
        raise CheckError("bad LaTeX matrix header")
    cols = _latex_cells(header[: -len(r" \hline")])[1:]
    rows, entries = [], []
    for line in lines[2:-1]:
        cells = _latex_cells(line)
        rows.append(cells[0])
        entries.append([parse_plain_fraction(latex_to_plain(c), rank) for c in cells[1:]])
    return Matrix(rows, cols, entries)


def parse_output(kind, fmt, text, theory, rank):
    """Parse a ``classes`` (kind "table") or ``pair`` (kind "matrix") output."""
    import json

    if kind == "table":
        if fmt == "json":
            return table_from_json(json.loads(text))
        if fmt == "csv":
            return table_from_csv(text, theory, rank)
        return table_from_latex(text, theory, rank)
    if fmt == "json":
        return matrix_from_json(json.loads(text))
    if fmt == "csv":
        return matrix_from_csv(text, rank)
    return matrix_from_latex(text, rank)


# ---------------------------------------------------------------------------
# theorems
# ---------------------------------------------------------------------------

FAMILY_THEORY = {
    "csm": "H", "sm": "H", "mc": "K", "smc": "K",
    "schubert-b": "H", "schubert-bminus": "H",
    "kschubert-b": "K", "kschubert-bminus": "K",
}


def _points_of(space, labels, what):
    out = {}
    for lab in labels:
        w = space.point(lab)
        if w is None:
            raise CheckError("%s label %r is not a minimal coset representative" % (what, lab))
        if w in out.values():
            raise CheckError("%s label %r repeats a fixed point" % (what, lab))
        out[lab] = w
    if len(out) != len(space.points):
        raise CheckError("%s labels cover %d of %d fixed points" % (what, len(out), len(space.points)))
    return out


class Evaluated:
    """A table evaluated at one generic point: vals[w][v] = Fraction."""

    def __init__(self, space, table, point):
        self.space, self.point = space, point
        cls_pts = _points_of(space, table.classes, "class")
        self.label = {w: lab for lab, w in cls_pts.items()}
        self.vals = {}
        for lab, w in cls_pts.items():
            row = table.classes[lab]
            pts = _points_of(space, row, "point")
            self.vals[w] = {pts[pl]: point.fraction(f) for pl, f in row.items()}


def _integral(space, ev_row, point):
    """Localization sum over the fixed points of a class's restrictions."""
    total = Fraction(0)
    for v, val in ev_row.items():
        if point.theory == "H":
            e = Fraction(1)
            for wt in space.tangent_weights(v):
                e *= point.weight(wt)
        else:
            e = Fraction(1)
            for b in space.complement_roots:
                e *= 1 - point.weight(space.rs.act(v, b))
        total += val / e
    return total


def _ambient(space, point, v):
    """c(TX)|_v in cohomology, lambda_y(T*X)|_v in K theory."""
    out = Fraction(1)
    if point.theory == "H":
        for wt in space.tangent_weights(v):
            out *= 1 + point.weight(wt)
    else:
        for b in space.complement_roots:
            out *= 1 + point.last * point.weight(space.rs.act(v, b))
    return out


def check_gkm(space, table, theory, rng):
    """Restrictions at the two ends of every GKM edge agree on its hyperplane."""
    cls_pts = _points_of(space, table.classes, "class")
    rs = space.rs
    points = {}
    for lab, w in cls_pts.items():
        row = table.classes[lab]
        pts = _points_of(space, row, "point")
        by_pt = {pts[pl]: f for pl, f in row.items()}
        for v in space.points:
            for beta in space.complement_roots:
                partner = space.rep(rs.compose(v, rs.reflection(beta)))
                if partner == v or space.lengths[partner] < space.lengths[v]:
                    continue
                gamma = rs.act(v, beta)
                gamma = gamma if not _negative(gamma) else tuple(-c for c in gamma)
                p = points.get(gamma)
                if p is None:
                    p = points[gamma] = hyperplane_point(space, theory, gamma, rng)
                try:
                    a, b = p.fraction(by_pt[v]), p.fraction(by_pt[partner])
                except ZeroDivisionError:
                    continue  # a pole on this hyperplane: no condition to test
                if a != b:
                    raise CheckError("class %s fails the GKM condition on the edge (%s, %s)"
                                     % (lab, _word(space, v), _word(space, partner)))


def _word(space, w):
    """A reduced word for w (lexicographically least), for messages."""
    rs = space.rs
    word = []
    while w != rs.identity:
        for i in range(rs.rank):
            # left descent i: w^{-1}(alpha_i) < 0, i.e. s_i w is shorter
            x = tuple(rs.reflect(i, img) for img in w)
            if rs.length(x) < rs.length(w):
                word.append(i + 1)
                w = x
                break
    return "-".join(map(str, word)) or "e"


def check_table(space, family, side, table, rng):
    """Check a class table against the theorems for its family; raises CheckError."""
    theory = FAMILY_THEORY[family]
    if table.theory != theory:
        raise CheckError("theory %r, expected %r" % (table.theory, theory))
    point = generic_point(space, theory, rng)
    ev = Evaluated(space, table, point)
    pts = space.points
    lab = ev.label
    minus_y = -point.last
    e = space.identity()
    top = space.top()

    if family in ("csm", "sm", "mc"):
        for v in pts:
            total = sum((ev.vals[w][v] for w in pts), Fraction(0))
            want = Fraction(1) if family == "sm" else _ambient(space, point, v)
            if total != want:
                raise CheckError("%s cells do not sum to the %s class at %s"
                                 % (family, "unit" if family == "sm" else "ambient", _word(space, v)))

    if family != "sm" and family != "smc":
        # cells and Schubert varieties on the B side live over v <= w, on the
        # opposite side over v >= w
        for w in pts:
            below = space.bruhat_ideal(w)
            for v in pts:
                inside = v in below if side == "B" else w in space.bruhat_ideal(v)
                if not inside and ev.vals[w][v] != 0:
                    raise CheckError("class %s is supported at %s, outside its closure"
                                     % (lab[w], _word(space, v)))

    integrals = {w: _integral(space, ev.vals[w], point) for w in pts}
    for w in pts:
        cell_dim = space.lengths[w] if side == "B" else space.dim - space.lengths[w]
        if family == "csm":
            want = Fraction(1)
        elif family == "mc":
            want = minus_y ** cell_dim
        elif family.startswith("schubert"):
            want = Fraction(1 if cell_dim == 0 else 0)
        elif family.startswith("kschubert"):
            want = Fraction(1)
        else:
            continue
        if integrals[w] != want:
            raise CheckError("%s class %s integrates to %s, expected %s"
                             % (family, lab[w], integrals[w], want))

    if table.expansions is not None:
        for w in pts:
            if lab[w] not in table.expansions:
                raise CheckError("class %s has no expansion" % lab[w])
            exp_side, coeffs = table.expansions[lab[w]]
            if exp_side != side:
                raise CheckError("expansion of %s is on side %r" % (lab[w], exp_side))
            c = {}
            for cl, f in coeffs.items():
                u = space.point(cl)
                if u is None:
                    raise CheckError("expansion label %r is not a fixed point" % (cl,))
                c[u] = point.fraction(f)
            # the extreme cell sees one basis class, whose restriction there is 1
            corner = top if side == "B" else e
            if c.get(corner, 0) != ev.vals[w][corner]:
                raise CheckError("expansion of %s disagrees with its restriction at %s"
                                 % (lab[w], _word(space, corner)))
            if theory == "H":
                # only the class of a point integrates to a nonzero number
                pt_cls = e if side == "B" else top
                if c.get(pt_cls, 0) != integrals[w]:
                    raise CheckError("expansion of %s: point coefficient is not the integral" % lab[w])
            elif sum(c.values(), Fraction(0)) != integrals[w]:
                raise CheckError("expansion of %s: coefficients do not sum to the integral" % lab[w])
            if family == "csm" and side == "B" and c.get(e, 0) != 1:
                raise CheckError("csm expansion of %s has point coefficient %s" % (lab[w], c.get(e, 0)))
            if "schubert" in family and any(x != (1 if u == w else 0) for u, x in c.items()):
                raise CheckError("Schubert class %s does not expand to itself" % lab[w])

    check_gkm(space, table, theory, rng)


def check_pairing_matrix(space, matrix, theory, bruhat, rng):
    """A pairing matrix of dual families must be the identity.  With
    ``bruhat`` the entry (w, u) must instead be 1 when u <= w and 0
    otherwise: structure sheaves of Schubert and opposite Schubert varieties
    pair to the Euler characteristic of their Richardson intersection."""
    row_pts = _points_of(space, matrix.rows, "row")
    col_pts = _points_of(space, matrix.cols, "column")
    if len(matrix.entries) != len(matrix.rows):
        raise CheckError("matrix has %d rows for %d labels" % (len(matrix.entries), len(matrix.rows)))
    point = generic_point(space, theory, rng)
    for rl, row in zip(matrix.rows, matrix.entries):
        if len(row) != len(matrix.cols):
            raise CheckError("row %s has %d entries" % (rl, len(row)))
        for cl, f in zip(matrix.cols, row):
            if bruhat:
                want = 1 if col_pts[cl] in space.bruhat_ideal(row_pts[rl]) else 0
            else:
                want = 1 if row_pts[rl] == col_pts[cl] else 0
            if point.fraction(f) != want:
                raise CheckError("pairing (%s, %s) is not %d" % (rl, cl, want))


def check_output(job, text, seed):
    """Check one ``classes`` or ``pair`` job's output text; raises CheckError."""
    space = Space(job["type"], job["parabolic"])
    rng = random.Random(seed)
    if job["command"] == "classes":
        theory = FAMILY_THEORY[job["family"]]
        table = parse_output("table", job["format"], text, theory, space.rs.rank)
        side = job.get("side") or ("Bminus" if job["family"] in ("smc", "schubert-bminus", "kschubert-bminus") else "B")
        check_table(space, job["family"], side, table, rng)
    else:
        theory = FAMILY_THEORY[job["families"][0]]
        matrix = parse_output("matrix", job["format"], text, theory, space.rs.rank)
        check_pairing_matrix(space, matrix, theory, job["families"][0] == "kschubert-b", rng)


def main(argv):
    """``python3 checker.py JOB_JSON OUTPUT_PATH``: check one job's output.

    JOB_JSON is the job as run.py describes it, with ``point_seed``.  Exit 0
    when the output passes, 1 with the reason on stderr when it does not.
    """
    import json
    import sys

    job = json.loads(argv[0])
    with open(argv[1]) as f:
        text = f.read()
    try:
        check_output(job, text, job["point_seed"])
    except CheckError as exc:
        sys.stderr.write("%s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
