import itertools
import os
import subprocess
import sys

import pytest

from gkmflag.roots import (
    ParabolicSubset,
    RootDatum,
    UnknownTypeError,
    act_on_weight,
    bruhat_leq,
    build_root_system,
    coset_decompose,
    parabolic_trichotomy,
    weyl_elements,
)


def brute_force_roots(cartan):
    """Independent closure oracle: the W-orbit of the simple roots."""
    rank = len(cartan)
    simples = [tuple(1 if k == j else 0 for k in range(rank)) for j in range(rank)]

    def reflect(i, v):
        c = sum(cv * cartan[i][j] for j, cv in enumerate(v))
        return tuple(a - c * b for a, b in zip(v, simples[i]))

    seen = set(simples)
    frontier = set(simples)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(rank):
                img = reflect(i, v)
                if img not in seen:
                    new.add(img)
        seen |= new
        frontier = new
    return {v for v in seen if all(c >= 0 for c in v)}


EXPECTED_COUNTS = {
    "A1": (1, 2), "A2": (3, 6), "A3": (6, 24), "A4": (10, 120),
    "B2": (4, 8), "B3": (9, 48), "C3": (9, 48), "D4": (12, 192), "G2": (6, 12),
}


@pytest.mark.parametrize("label", sorted(EXPECTED_COUNTS))
def test_positive_roots_match_closure_oracle(label):
    rs = build_root_system(label)
    nroots, order = EXPECTED_COUNTS[label]
    assert len(rs.positive_roots) == nroots
    assert set(rs.positive_roots) == brute_force_roots(rs.cartan)
    assert len(weyl_elements(rs)) == order


def test_a1_and_a2_roots():
    assert build_root_system("A1").positive_roots == ((1,),)
    assert set(build_root_system("A2").positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_g2_highest_root_and_orientation():
    g2 = build_root_system("G2")
    assert (3, 2) in g2.positive_roots  # alpha_1 short
    assert (1, 2) not in g2.positive_roots


def test_b2_orientation():
    b2 = build_root_system("B2")
    assert (1, 2) in b2.positive_roots  # alpha_2 short
    assert (2, 1) not in b2.positive_roots


def test_unknown_type_rejected():
    with pytest.raises(UnknownTypeError):
        build_root_system("E8")


def test_weyl_enumeration_basics():
    a2 = build_root_system("A2")
    els = weyl_elements(a2)
    assert els[0].word == ()
    assert a2.longest_element.word == (1, 2, 1)
    b2 = build_root_system("B2")
    assert b2.longest_element.length == 4
    a1 = build_root_system("A1")
    assert [w.word for w in weyl_elements(a1)] == [(), (1,)]


def test_length_is_inversion_count():
    for label in ("A2", "B2", "G2", "A3"):
        rs = build_root_system(label)
        for w in weyl_elements(rs):
            inversions = sum(
                1 for b in rs.positive_roots if any(c < 0 for c in w.act(b))
            )
            assert inversions == w.length


def test_canonical_word_is_lex_least_reduced():
    from gkmflag.operators import all_reduced_words

    for label in ("A2", "B2", "A3"):
        rs = build_root_system(label)
        for w in weyl_elements(rs):
            words = all_reduced_words(w)
            assert w.word == min(words)
            # every reduced word evaluates to the same element
            for wd in words:
                assert rs.from_word(wd) is w


def test_action_examples():
    a1 = build_root_system("A1")
    assert act_on_weight(a1.simple(1), (1,)) == (-1,)
    a2 = build_root_system("A2")
    assert act_on_weight(a2.simple(2), (1, 0)) == (1, 1)
    assert act_on_weight(a2.longest_element, (1, 0)) == (0, -1)
    a3 = build_root_system("A3")
    assert act_on_weight(a3.simple(2), (1, 0, 0)) == (1, 1, 0)


def test_action_composition_law():
    a3 = build_root_system("A3")
    els = weyl_elements(a3)
    lam = (1, -2, 3)
    for w in els[:8]:
        for u in els[-8:]:
            assert w.act(u.act(lam)) == (w * u).act(lam)


def test_longest_element_complements_length():
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2"):
        rs = build_root_system(label)
        w0 = rs.longest_element
        for w in weyl_elements(rs):
            assert (w0 * w).length == w0.length - w.length


def _subword_oracle(u, v):
    """Independent Bruhat oracle: subword criterion on the canonical word."""
    word_v = v.word
    word_u = u.word
    rs = u.rs

    def embeds(target, inside):
        # does some subword of `inside` multiply out to the element of `target`?
        el_u = rs.from_word(target)
        for positions in itertools.combinations(range(len(inside)), len(target)):
            if tuple(inside[p] for p in positions) == tuple(target):
                return True
        return False

    # check against every reduced word of u (the criterion needs only one
    # reduced word of v but the subword must be reduced for u)
    from gkmflag.operators import all_reduced_words

    return any(embeds(wu, word_v) for wu in all_reduced_words(u))


def test_bruhat_examples_and_oracle():
    a2 = build_root_system("A2")
    e = a2.identity
    for w in weyl_elements(a2):
        assert bruhat_leq(e, w)
    assert not bruhat_leq(a2.simple(1), a2.simple(2))
    assert bruhat_leq(a2.simple(2), a2.longest_element)
    for rs in (a2, build_root_system("B2")):
        for u in weyl_elements(rs):
            for v in weyl_elements(rs):
                assert bruhat_leq(u, v) == _subword_oracle(u, v)


def test_root_datum_compares_by_identity_and_hashes_by_label():
    a2 = build_root_system("A2")
    twin = RootDatum(a2.type_label, a2.rank, a2.cartan, a2.positive_roots)
    assert build_root_system("A2") is a2
    assert twin != a2 and twin == twin
    assert hash(twin) == hash(a2) == hash("A2")


def test_parabolic_subset_equality_hash_and_own_cache():
    a3 = build_root_system("A3")
    p = ParabolicSubset.create(a3, (3, 1, 3))
    q = ParabolicSubset(a3, (1, 3))
    assert p == q and hash(p) == hash(q) == hash(("A3", (1, 3)))
    assert p != ParabolicSubset(a3, (1,))
    twin = RootDatum(a3.type_label, a3.rank, a3.cartan, a3.positive_roots)
    assert p != ParabolicSubset(twin, (1, 3))
    assert p.minimal_representatives == q.minimal_representatives
    assert p._cache is not q._cache and p._cache is not a3._cache
    assert ParabolicSubset(a3, (2,))._cache == {}


def test_coset_decompose():
    a3 = build_root_system("A3")
    par = ParabolicSubset.create(a3, (1, 3))
    w = a3.from_word((1, 2, 1))
    w1, w2 = coset_decompose(w, par)
    assert w1.word == (1, 2) and w2.word == (1,)
    w1, w2 = coset_decompose(a3.longest_element, par)
    assert w1.word == (2, 1, 3, 2) and w2.length == 2
    for u in par.minimal_representatives:
        r1, r2 = coset_decompose(u, par)
        assert r1 is u and r2.length == 0


def test_coset_bijection_ranks_up_to_three():
    for label, subsets in (
        ("A2", [(1,), (2,)]),
        ("B2", [(1,), (2,)]),
        ("A3", [(1,), (2,), (1, 3), (1, 2)]),
        ("G2", [(1,), (2,)]),
    ):
        rs = build_root_system(label)
        for s in subsets:
            par = ParabolicSubset.create(rs, s)
            seen = {}
            for w in weyl_elements(rs):
                w1, w2 = coset_decompose(w, par)
                assert w1 in set(par.minimal_representatives)
                assert w2 in par.subgroup
                assert w1 * w2 is w
                assert w1.length + w2.length == w.length
                seen[w] = (w1, w2)
            assert len(set(seen.values())) == len(seen)
            assert len(seen) == len(par.minimal_representatives) * len(par.subgroup)


def test_trichotomy_examples_and_partition():
    a3 = build_root_system("A3")
    par = ParabolicSubset.create(a3, (1, 3))
    assert parabolic_trichotomy(par, 2, a3.identity) == ("up_minimal", None)
    assert parabolic_trichotomy(par, 2, a3.from_word((2,))) == ("lower", None)
    assert parabolic_trichotomy(par, 2, a3.from_word((1, 2))) == ("up_folds", 1)
    with pytest.raises(ValueError):
        parabolic_trichotomy(par, 2, a3.from_word((1,)))

    for label, s in (("A3", (1, 3)), ("A3", (2,)), ("B2", (1,)), ("G2", (2,))):
        rs = build_root_system(label)
        par = ParabolicSubset.create(rs, s)
        reps = set(par.minimal_representatives)
        for i in range(1, rs.rank + 1):
            for w in par.minimal_representatives:
                kind, j = parabolic_trichotomy(par, i, w)
                siw = rs.simple(i) * w
                if kind == "lower":
                    assert siw.length < w.length and siw in reps
                elif kind == "up_minimal":
                    assert siw.length > w.length and siw in reps
                else:
                    assert siw.length > w.length and siw not in reps
                    assert j in s
                    assert siw is w * rs.simple(j)


def test_simple_on_a_fresh_root_system():
    # a fresh interpreter: build_root_system is cached, and another test may
    # already have enumerated the Weyl group that fills the word table
    code = "from gkmflag.roots import build_root_system\nprint(build_root_system('A1').simple(1).word)\n"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "(1,)\n"
