"""Root systems, Weyl groups, Bruhat order and parabolic coset combinatorics.

All vectors live in the simple-root basis and are integer tuples.  The Cartan
convention is ``cartan[i][j] = <alpha_j, alpha_i^vee>`` (rows indexed by the
coroot), so a simple reflection acts by

    s_i(alpha_j) = alpha_j - cartan[i][j] * alpha_i

Orientation of the non simply-laced types is fixed here, once:

* B2: alpha_2 is short (alpha_1 + 2*alpha_2 is a root);
* B3: alpha_3 is short;
* C3: alpha_3 is long;
* G2: alpha_1 is short (3*alpha_1 + 2*alpha_2 is the highest root).

Weyl group elements are interned per root system: an element is identified by
its action on the simple roots, every constructor routes through the full
enumeration table, and the stored reduced word is the lexicographically least
one.  Everything is immutable after construction.
"""

from __future__ import annotations

from functools import lru_cache

Vec = tuple  # integer vector in the simple-root basis

_CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "G2": ((2, -3), (-1, 2)),
}

_POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "C3": 9, "D4": 12, "G2": 6,
}

_WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "C3": 48, "D4": 192, "G2": 12,
}


class UnknownTypeError(ValueError):
    pass


def _vec_sub_mult(v, c, w):
    # v - c*w componentwise
    return tuple(a - c * b for a, b in zip(v, w))


def _sign(v):
    """+1 for a positive root vector, -1 for a negative one, 0 for zero."""
    if any(a > 0 for a in v):
        return 1
    if any(a < 0 for a in v):
        return -1
    return 0


class WeylElement:
    """A Weyl group element, identified by its action on the simple roots.

    ``images[j]`` is w(alpha_{j+1}) and ``inv_images[j]`` is w^{-1}(alpha_{j+1}),
    both as vectors in the simple-root basis.  ``word`` is the lexicographically
    least reduced word (tuple of 1-based simple indices); equality and hashing
    go through the root action, never through words.  Elements are interned,
    so each one keeps its hash and the products it has formed (at most |W|
    entries per element).
    """

    __slots__ = ("rs", "images", "inv_images", "word", "_hash", "_products")

    def __init__(self, rs, images, inv_images, word):
        self.rs = rs
        self.images = images
        self.inv_images = inv_images
        self.word = word
        self._hash = hash(images)
        self._products = {}

    @property
    def length(self):
        return len(self.word)

    def act(self, vec):
        """Apply w to a weight written in the simple-root basis."""
        out = [0] * self.rs.rank
        for c, img in zip(vec, self.images):
            if c:
                for k, a in enumerate(img):
                    out[k] += c * a
        return tuple(out)

    def act_inverse(self, vec):
        out = [0] * self.rs.rank
        for c, img in zip(vec, self.inv_images):
            if c:
                for k, a in enumerate(img):
                    out[k] += c * a
        return tuple(out)

    def __mul__(self, other):
        prod = self._products.get(other)
        if prod is None:
            if other.rs is not self.rs:
                raise ValueError("elements of different root systems")
            prod = self.rs._by_images[tuple(self.act(v) for v in other.images)]
            self._products[other] = prod
        return prod

    def inverse(self):
        return self.rs._by_images[self.inv_images]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, WeylElement)
            and self.rs is other.rs
            and self.images == other.images
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "W[%s]" % word_str(self.word)

    def has_left_descent(self, i):
        """True iff l(s_i w) < l(w), i.e. w^{-1}(alpha_i) < 0."""
        return _sign(self.inv_images[i - 1]) < 0

    def has_right_descent(self, i):
        """True iff l(w s_i) < l(w), i.e. w(alpha_i) < 0."""
        return _sign(self.images[i - 1]) < 0


def word_str(word):
    return "-".join(str(i) for i in word) if word else "e"


def parse_word(text):
    text = text.strip()
    if text in ("", "e"):
        return ()
    return tuple(int(p) for p in text.split("-"))


class RootDatum:
    """Cartan data of a finite root system together with its Weyl group.

    One instance per type label: compares by identity, hashes by label.
    """

    def __init__(self, type_label, rank, cartan, positive_roots):
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan
        self.positive_roots = positive_roots
        self._cache = {}

    def __hash__(self):
        return hash(self.type_label)

    def __eq__(self, other):
        return self is other

    def simple_root(self, i):
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def pair_with_coroot(self, lam, i):
        """<lam, alpha_i^vee> in the fixed Cartan convention."""
        row = self.cartan[i - 1]
        return sum(c * row[j] for j, c in enumerate(lam) if c)

    def reflect_simple(self, i, lam):
        return _vec_sub_mult(lam, self.pair_with_coroot(lam, i), self.simple_root(i))

    # -- Weyl group enumeration -------------------------------------------

    @property
    def _by_images(self):
        self.weyl_elements()
        return self._cache["by_images"]

    def weyl_elements(self):
        """All Weyl group elements, sorted by (length, canonical word)."""
        if "weyl" not in self._cache:
            self._cache["weyl"] = self._enumerate()
        return self._cache["weyl"]

    def _enumerate(self):
        rank = self.rank
        id_imgs = tuple(self.simple_root(i) for i in range(1, rank + 1))
        simple_imgs = [
            tuple(self.reflect_simple(i, self.simple_root(j)) for j in range(1, rank + 1))
            for i in range(1, rank + 1)
        ]

        def refl(i, vec):
            return _vec_sub_mult(vec, self.pair_with_coroot(vec, i), self.simple_root(i))

        # records: images -> [inv_images, word or None]
        records = {id_imgs: [id_imgs, ()]}
        level = [id_imgs]
        while level:
            nxt = []
            for imgs in level:
                inv = records[imgs][0]
                for i in range(1, rank + 1):
                    new = tuple(refl(i, v) for v in imgs)
                    if new in records:
                        continue
                    # (s_i w)^{-1} = w^{-1} s_i: apply w^{-1} to s_i(alpha_j)
                    new_inv = []
                    for j in range(1, rank + 1):
                        sv = simple_imgs[i - 1][j - 1]
                        out = [0] * rank
                        for c, img in zip(sv, inv):
                            if c:
                                for k, a in enumerate(img):
                                    out[k] += c * a
                        new_inv.append(tuple(out))
                    records[new] = [tuple(new_inv), None]
                    nxt.append(new)
            # canonical word: smallest left descent, then recurse
            for imgs in nxt:
                inv = records[imgs][0]
                for i in range(1, rank + 1):
                    if _sign(inv[i - 1]) < 0:
                        parent = tuple(refl(i, v) for v in imgs)
                        records[imgs][1] = (i,) + records[parent][1]
                        break
            level = nxt

        elements = []
        by_images = {}
        for imgs, (inv, word) in records.items():
            el = WeylElement(self, imgs, inv, word)
            elements.append(el)
            by_images[imgs] = el
        elements.sort(key=lambda w: (w.length, w.word))
        self._cache["by_images"] = by_images
        self._cache["by_word"] = {w.word: w for w in elements}
        return tuple(elements)

    @property
    def identity(self):
        return self.weyl_elements()[0]

    def simple(self, i):
        if not 1 <= i <= self.rank:
            raise ValueError("simple index out of range: %r" % (i,))
        if "by_word" not in self._cache:
            self.weyl_elements()
        return self._cache["by_word"][(i,)]

    def from_word(self, word):
        """Evaluate a word in the simple generators (not required reduced)."""
        el = self.identity
        for i in reversed(word):
            el = self.simple(i) * el
        return el

    @property
    def longest_element(self):
        return self.weyl_elements()[-1]

    def reflection(self, beta):
        """The reflection s_beta for a positive root beta."""
        if "reflections" not in self._cache:
            table = {}
            for w in self.weyl_elements():
                for i in range(1, self.rank + 1):
                    root = w.images[i - 1]
                    if _sign(root) < 0:
                        root = tuple(-a for a in root)
                    if root not in table:
                        table[root] = w * self.simple(i) * w.inverse()
            self._cache["reflections"] = table
        return self._cache["reflections"][beta]


def build_root_system(type_label):
    """Construct the root system for one of the supported Cartan types."""
    label = type_label.strip().upper()
    if label not in _CARTAN:
        raise UnknownTypeError("unsupported type label: %r" % (type_label,))
    return _build(label)


@lru_cache(maxsize=None)
def _build(label):
    cartan = _CARTAN[label]
    rank = len(cartan)
    # close the simple roots under all simple reflections, keep positives
    simples = [tuple(1 if k == j else 0 for k in range(rank)) for j in range(rank)]
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(1, rank + 1):
                c = sum(cv * cartan[i - 1][j] for j, cv in enumerate(v))
                img = _vec_sub_mult(v, c, simples[i - 1])
                if _sign(img) > 0 and img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    positive = tuple(sorted(roots, key=lambda v: (sum(v), v)))
    assert len(positive) == _POSITIVE_ROOT_COUNTS[label], label
    return RootDatum(label, rank, cartan, positive)


def weyl_elements(rs):
    """All elements of the Weyl group of ``rs`` (desk scale: rank <= 4)."""
    if rs.rank > 4:
        raise ValueError("enumeration supported only for rank <= 4")
    els = rs.weyl_elements()
    assert len(els) == _WEYL_ORDERS[rs.type_label]
    return list(els)


def act_on_weight(w, lam):
    """Apply a Weyl element to a weight in the simple-root basis."""
    return w.act(tuple(lam))


def bruhat_leq(u, v):
    """Bruhat order test u <= v, by the left-descent recursion."""
    if u.rs is not v.rs:
        raise ValueError("elements of different root systems")
    cache = u.rs._cache.setdefault("bruhat", {})

    def rec(a, b):
        if a.length > b.length:
            return False
        if a.length == b.length:
            return a is b
        key = (a, b)
        got = cache.get(key)
        if got is None:
            i = b.word[0]  # a left descent of b
            sb = b.rs.simple(i) * b
            if a.has_left_descent(i):
                got = rec(b.rs.simple(i) * a, sb)
            else:
                got = rec(a, sb)
            cache[key] = got
        return got

    return rec(u, v)


class ParabolicSubset:
    """A subset S of the simple roots with its coset combinatorics cached."""

    def __init__(self, rs, indices):
        self.rs = rs
        self.indices = indices
        self._cache = {}

    def __hash__(self):
        return hash((self.rs.type_label, self.indices))

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicSubset)
            and self.rs is other.rs
            and self.indices == other.indices
        )

    @staticmethod
    def create(rs, indices):
        idx = tuple(sorted(set(indices)))
        for i in idx:
            if not 1 <= i <= rs.rank:
                raise ValueError("parabolic index out of range: %r" % (i,))
        return ParabolicSubset(rs, idx)

    @property
    def subgroup(self):
        """The subgroup W_P (as a frozenset of elements)."""
        if "wp" not in self._cache:
            gens = [self.rs.simple(i) for i in self.indices]
            seen = {self.rs.identity}
            frontier = [self.rs.identity]
            while frontier:
                nxt = []
                for w in frontier:
                    for g in gens:
                        x = g * w
                        if x not in seen:
                            seen.add(x)
                            nxt.append(x)
                frontier = nxt
            self._cache["wp"] = frozenset(seen)
        return self._cache["wp"]

    @property
    def minimal_representatives(self):
        """W^P, sorted by (length, canonical word)."""
        if "reps" not in self._cache:
            reps = [
                w for w in self.rs.weyl_elements()
                if not any(w.has_right_descent(i) for i in self.indices)
            ]
            self._cache["reps"] = tuple(reps)
        return self._cache["reps"]

    @property
    def positive_roots(self):
        """R^+_P: the positive roots supported on S."""
        if "rp" not in self._cache:
            sset = set(self.indices)
            self._cache["rp"] = tuple(
                beta for beta in self.rs.positive_roots
                if all(c == 0 or (j + 1) in sset for j, c in enumerate(beta))
            )
        return self._cache["rp"]

    def minimal_representative(self, w):
        """The minimal-length representative of the coset w W_P."""
        while True:
            for i in self.indices:
                if w.has_right_descent(i):
                    w = w * self.rs.simple(i)
                    break
            else:
                return w


def coset_decompose(w, par):
    """Factor w = w1 * w2 with w1 in W^P, w2 in W_P and lengths adding up."""
    w1 = par.minimal_representative(w)
    w2 = w1.inverse() * w
    assert w1.length + w2.length == w.length
    return w1, w2


def parabolic_trichotomy(par, i, w):
    """Classify the pair (simple index i, minimal representative w).

    Returns ``("lower", None)`` if s_i w < w (then s_i w is again minimal),
    ``("up_minimal", None)`` if s_i w > w stays minimal, and ``("up_folds", j)``
    if s_i w > w leaves W^P, in which case s_i w = w s_j with j in S.
    """
    if any(w.has_right_descent(k) for k in par.indices):
        raise ValueError("w is not a minimal coset representative")
    if w.has_left_descent(i):
        return ("lower", None)
    mu = w.act_inverse(par.rs.simple_root(i))
    sset = set(par.indices)
    for j in sset:
        if mu == par.rs.simple_root(j):
            assert par.rs.simple(i) * w == w * par.rs.simple(j)
            return ("up_folds", j)
    return ("up_minimal", None)
