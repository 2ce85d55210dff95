"""Pins of the failure witnesses of the identity suites.

Golden hashes see only passing reports.  Here one operator is broken at one
letter (its result doubled there), and the list of failing identities with
their first-failure witnesses must equal the recorded one, so a reordered
case or a changed label inside a failing identity fails here.  Every table
is built before the operator is broken, so only the checks see the broken
operator.  The lists were recorded before the cell and Schubert action rules
were each stated once.  The corrupted-table lists gained one entry each
when the suites began rebuilding the Chern cells from their left-operator
Schubert coordinates, since that identity reads the same corrupted table.
The last pins double one csm cell of A1 instead of breaking an operator.
"""

import pytest

from gkmflag import classes, operators
from gkmflag.model import H, K, flag_space

SPACES = {"A2": (), "A2/{1}": (1,)}

# which inputs the broken letter acts on
WHERE = {
    "all": lambda a, kw: True,
    "dual": lambda a, kw: kw.get("dual", False),
    # classes vanishing at the identity point: skips the point class, so
    # the first witness lies further into the case order
    "off-e": lambda a, kw: a.values[a.space.points[0]].is_zero(),
}

# (suite, operator, letter, where); suite "classes" or a theory, and the
# operator None for the corrupt self-test of the class suite
SCENARIOS = [
    ("classes", "dl_left", 2, "all"),
    ("classes", "dl_right", 1, "all"),
    ("classes", "dl_left", 1, "dual"),
    ("classes", "dl_right", 2, "dual"),
    ("classes", "dl_left", 1, "off-e"),
    ("classes", "dl_right", 2, "off-e"),
    ("classes", None, None, "corrupt"),
    (H, "bgg_left", 1, "all"),
    (H, "bgg_right", 1, "all"),
    (H, "bgg_left", 2, "off-e"),
    (H, "bgg_right", 2, "off-e"),
    (K, "demazure_left", 1, "all"),
    (K, "demazure_right", 1, "all"),
    (K, "demazure_left", 2, "dual"),
    (K, "demazure_left", 2, "off-e"),
    (K, "demazure_right", 2, "off-e"),
    (H, "dl_left", 1, "all"),
    (H, "dl_left", 2, "dual"),
    (H, "dl_left", 1, "off-e"),
    (H, "dl_right", 2, "all"),
    (H, "dl_right", 1, "dual"),
    (H, "dl_right", 2, "off-e"),
    (K, "dl_left", 1, "all"),
    (K, "dl_left", 2, "dual"),
    (K, "dl_left", 1, "off-e"),
    (K, "dl_right", 2, "all"),
    (K, "dl_right", 1, "dual"),
    (K, "dl_right", 2, "off-e"),
]


def _scenario_id(scenario):
    suite, name, letter, where = scenario
    return "%s %s" % (suite, "%s@%d %s" % (name, letter, where) if name else where)


def _build_tables(space):
    for sp in (space, space.full_flag()):
        for family in classes.FAMILIES:
            for side in ("B", "Bminus"):
                classes.cell_family(sp, family, side)
        for theory in (H, K):
            for side in ("B", "Bminus"):
                sp.schubert_basis(theory, side)


def _broken(fn, letter, where):
    def op(i, a, *args, **kw):
        out = fn(i, a, *args, **kw)
        return out.scale(2) if i == letter and where(a, kw) else out
    return op


def failures(monkeypatch, space, scenario):
    """The failures of the scenario's suite with its operator broken."""
    suite, name, letter, where = scenario
    _build_tables(space)
    if suite == "classes":
        if name is None:
            return classes.verify_class_theorems(space, corrupt=True).failures()
        monkeypatch.setattr(classes, name, _broken(getattr(classes, name), letter, WHERE[where]))
        return classes.verify_class_theorems(space).failures()
    monkeypatch.setattr(operators, name, _broken(getattr(operators, name), letter, WHERE[where]))
    return (operators.verify_relations(space, suite).failures()
            + operators.verify_schubert_actions(space, suite).failures())


# right operators exist only on the full flag space
CASES = [
    (label, scenario)
    for label in sorted(SPACES)
    for scenario in SCENARIOS
    if not SPACES[label] or "right" not in (scenario[1] or "")
]

RECORDED = {
    ("A2", "H bgg_left@1 all"): [
        ("w0 conjugation swaps duals", "delta i=1 w=e"),
        ("delta_i [X^w] cases", "i=1 w=1"),
        ("delta_i [X_w] cases", "i=1 w=e"),
    ],
    ("A2", "H bgg_left@2 off-e"): [
        ("w0 conjugation swaps duals", "delta i=2 w=e"),
        ("delta_i [X^w] cases", "i=2 w=2"),
    ],
    ("A2", "H bgg_right@1 all"): [
        ("partial_i [X_w] cases", "i=1 w=e"),
        ("partial_i [X^w] cases", "i=1 w=1"),
    ],
    ("A2", "H bgg_right@2 off-e"): [
        ("partial_i [X^w] cases", "i=2 w=2"),
    ],
    ("A2", "K demazure_left@1 all"): [
        ("delta_i square", "i=1 w=e"),
        ("w0 conjugation swaps duals", "delta i=1 w=e"),
        ("delta Leibniz rule", "i=1 (e,e)"),
        ("delta_i O_w parabolic cases", "i=1 w=e"),
        ("delta_i^v O^w parabolic cases", "i=1 w=e"),
    ],
    ("A2", "K demazure_left@2 dual"): [
        ("w0 conjugation swaps duals", "delta i=1 w=e"),
        ("delta_i^v O^w parabolic cases", "i=2 w=e"),
    ],
    ("A2", "K demazure_left@2 off-e"): [
        ("w0 conjugation swaps duals", "delta i=2 w=e"),
        ("delta_i^v O^w parabolic cases", "i=2 w=1"),
    ],
    ("A2", "K demazure_right@1 all"): [
        ("partial_i square", "i=1 w=e"),
        ("partial_i O_w cases", "i=1 w=e"),
        ("partial_i O^w cases", "i=1 w=e"),
    ],
    ("A2", "K demazure_right@2 off-e"): [
        ("partial_i O^w cases", "i=2 w=1"),
    ],
    ("A2", "classes corrupt"): [
        ("right DL on motivic cells, both branches", "i=1 w=1-2"),
        ("motivic closed forms from point classes", "w=1-2-1"),
        ("mc/smc duality matrix is the identity", "(1-2-1,1-2-1)"),
        ("left DL on motivic cells, with (-y) fold factor", "i=1 w=2-1"),
        ("mc normalization: cells sum to lambda_y(T*X)", "sum mismatch"),
        ("mc support triangularity and y-degree bounds", "w=1-2-1 v=e"),
        ("left operators in Schubert coordinates rebuild the mc cells (both sides)", "w=1-2-1"),
    ],
    ("A2", "classes dl_left@1 dual"): [
        ("left DL recursions on csm and sm cells (all four)", "i=1 w=e sm-opp"),
        ("dual left DL on Segre motivic opposite cells", "i=1 w=e"),
    ],
    ("A2", "classes dl_left@1 off-e"): [
        ("left DL recursions on csm and sm cells (all four)", "i=1 w=1 sm-opp"),
        ("dual left DL on Segre motivic opposite cells", "i=1 w=1"),
    ],
    ("A2", "classes dl_left@2 all"): [
        ("left DL recursions on csm and sm cells (all four)", "i=2 w=e csm"),
        ("left DL on motivic cells, with (-y) fold factor", "i=2 w=e"),
        ("dual left DL on Segre motivic opposite cells", "i=2 w=e"),
    ],
    ("A2", "classes dl_right@1 all"): [
        ("right DL recursion on csm cells", "i=1 w=e"),
        ("dual right DL on Segre-MacPherson cells (both sides)", "i=1 w=e opp"),
        ("right DL on motivic cells, both branches", "i=1 w=e"),
        ("motivic closed forms from point classes", "w=e opp"),
        ("dual right DL on Segre motivic cells, both branches", "i=1 w=e"),
    ],
    ("A2", "classes dl_right@2 dual"): [
        ("dual right DL on Segre-MacPherson cells (both sides)", "i=2 w=e opp"),
        ("dual right DL on Segre motivic cells, both branches", "i=2 w=e"),
    ],
    ("A2", "classes dl_right@2 off-e"): [
        ("dual right DL on Segre-MacPherson cells (both sides)", "i=2 w=1 opp"),
        ("right DL on motivic cells, both branches", "i=2 w=1 opp"),
        ("motivic closed forms from point classes", "w=e opp"),
        ("dual right DL on Segre motivic cells, both branches", "i=2 w=1 opp"),
    ],
    ("A2/{1}", "H bgg_left@1 all"): [
        ("w0 conjugation swaps duals", "delta i=1 w=e"),
        ("delta_i [X^w] cases", "i=1 w=1-2"),
        ("delta_i [X_w] cases", "i=1 w=2"),
    ],
    ("A2/{1}", "H bgg_left@2 off-e"): [
        ("w0 conjugation swaps duals", "delta i=2 w=2"),
        ("delta_i [X^w] cases", "i=2 w=2"),
    ],
    ("A2/{1}", "K demazure_left@1 all"): [
        ("delta_i square", "i=1 w=e"),
        ("w0 conjugation swaps duals", "delta i=1 w=e"),
        ("delta Leibniz rule", "i=1 (e,e)"),
        ("delta_i O_w parabolic cases", "i=1 w=e"),
        ("delta_i^v O^w parabolic cases", "i=1 w=e"),
    ],
    ("A2/{1}", "K demazure_left@2 dual"): [
        ("w0 conjugation swaps duals", "delta i=1 w=e"),
        ("delta_i^v O^w parabolic cases", "i=2 w=e"),
    ],
    ("A2/{1}", "K demazure_left@2 off-e"): [
        ("w0 conjugation swaps duals", "delta i=2 w=e"),
        ("delta_i^v O^w parabolic cases", "i=2 w=2"),
    ],
    ("A2/{1}", "classes corrupt"): [
        ("mc/smc duality matrix is the identity", "(1-2,1-2)"),
        ("left DL on motivic cells, with (-y) fold factor", "i=1 w=2"),
        ("mc normalization: cells sum to lambda_y(T*X)", "sum mismatch"),
        ("mc support triangularity and y-degree bounds", "w=1-2 v=e"),
        ("pushforward of motivic cells picks up (-y) powers", "u=1-2"),
        ("left operators in Schubert coordinates rebuild the mc cells (both sides)", "w=1-2"),
    ],
    ("A2/{1}", "classes dl_left@1 dual"): [
        ("left DL recursions on csm and sm cells (all four)", "i=1 w=e sm-opp"),
        ("dual left DL on Segre motivic opposite cells", "i=1 w=e"),
    ],
    ("A2/{1}", "classes dl_left@1 off-e"): [
        ("left DL recursions on csm and sm cells (all four)", "i=1 w=2 sm-opp"),
        ("dual left DL on Segre motivic opposite cells", "i=1 w=2"),
    ],
    ("A2/{1}", "classes dl_left@2 all"): [
        ("left DL recursions on csm and sm cells (all four)", "i=2 w=e csm"),
        ("left DL on motivic cells, with (-y) fold factor", "i=2 w=e"),
        ("dual left DL on Segre motivic opposite cells", "i=2 w=e"),
    ],
    # the DL operators inside the operator suites, recorded before the suite
    # shared single-letter images between its identities: a shared image
    # that mixed up plain and dual operators, or two letters, fails here
    ("A2", "H dl_left@1 all"): [
        ("quadratic T^L", "i=1 w=e"),
        ("quadratic T^L,dual", "i=1 w=e"),
        ("braid T^L", "(1,2) w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2", "H dl_left@2 dual"): [
        ("quadratic T^L,dual", "i=2 w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("adjoint left with s_i twist, schubert pairs", "i=2 w=e u=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2", "H dl_left@1 off-e"): [
        ("adjoint left with s_i twist, schubert pairs", "i=1 w=e u=1"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2", "H dl_right@2 all"): [
        ("quadratic T^R", "i=2 w=e"),
        ("quadratic T^R,dual", "i=2 w=e"),
        ("braid T^R", "(1,2) w=e"),
        ("braid T^R,dual", "(1,2) w=e"),
        ("word operators independent of reduced word", "w=1-2-1 word=2-1-2"),
    ],
    ("A2", "H dl_right@1 dual"): [
        ("quadratic T^R,dual", "i=1 w=e"),
        ("braid T^R,dual", "(1,2) w=e"),
        ("adjoint right, fixed-point basis", "i=1 w=e v=e"),
        ("adjoint right, schubert pairs", "i=1 w=e u=e"),
    ],
    ("A2", "H dl_right@2 off-e"): [
        ("s_j^L and T_i^R commute", "i=2 j=1 w=e"),
        ("adjoint right, fixed-point basis", "i=2 w=e v=2"),
        ("adjoint right, schubert pairs", "i=2 w=e u=2"),
    ],
    ("A2", "K dl_left@1 all"): [
        ("quadratic T^L", "i=1 w=e"),
        ("quadratic T^L,dual", "i=1 w=e"),
        ("braid T^L", "(1,2) w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
        ("T^L Leibniz rule", "i=1 (e,1)"),
    ],
    ("A2", "K dl_left@2 dual"): [
        ("quadratic T^L,dual", "i=2 w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("adjoint left with s_i twist, schubert pairs", "i=2 w=e u=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2", "K dl_left@1 off-e"): [
        ("adjoint left with s_i twist, schubert pairs", "i=1 w=e u=1"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2", "K dl_right@2 all"): [
        ("quadratic T^R", "i=2 w=e"),
        ("quadratic T^R,dual", "i=2 w=e"),
        ("braid T^R", "(1,2) w=e"),
        ("braid T^R,dual", "(1,2) w=e"),
        ("word operators independent of reduced word", "w=1-2-1 word=2-1-2"),
    ],
    ("A2", "K dl_right@1 dual"): [
        ("quadratic T^R,dual", "i=1 w=e"),
        ("braid T^R,dual", "(1,2) w=e"),
        ("adjoint right, fixed-point basis", "i=1 w=e v=e"),
        ("adjoint right, schubert pairs", "i=1 w=e u=e"),
    ],
    ("A2", "K dl_right@2 off-e"): [
        ("s_j^L and T_i^R commute", "i=2 j=1 w=e"),
        ("adjoint right, fixed-point basis", "i=2 w=e v=2"),
        ("adjoint right, schubert pairs", "i=2 w=e u=2"),
    ],
    ("A2/{1}", "H dl_left@1 all"): [
        ("quadratic T^L", "i=1 w=e"),
        ("quadratic T^L,dual", "i=1 w=e"),
        ("braid T^L", "(1,2) w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2/{1}", "H dl_left@2 dual"): [
        ("quadratic T^L,dual", "i=2 w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("adjoint left with s_i twist, schubert pairs", "i=2 w=e u=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2/{1}", "H dl_left@1 off-e"): [
        ("adjoint left with s_i twist, schubert pairs", "i=1 w=2 u=2"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2/{1}", "K dl_left@1 all"): [
        ("quadratic T^L", "i=1 w=e"),
        ("quadratic T^L,dual", "i=1 w=e"),
        ("braid T^L", "(1,2) w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
        ("T^L Leibniz rule", "i=1 (e,e)"),
    ],
    ("A2/{1}", "K dl_left@2 dual"): [
        ("quadratic T^L,dual", "i=2 w=e"),
        ("braid T^L,dual", "(1,2) w=e"),
        ("adjoint left with s_i twist, schubert pairs", "i=2 w=e u=e"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
    ("A2/{1}", "K dl_left@1 off-e"): [
        ("adjoint left with s_i twist, schubert pairs", "i=1 w=2 u=2"),
        ("w0 conjugation swaps duals", "TL i=1 w=e"),
    ],
}


@pytest.mark.parametrize(
    "label,scenario", CASES, ids=["%s %s" % (lb, _scenario_id(sc)) for lb, sc in CASES]
)
def test_failure_witnesses_match_record(monkeypatch, label, scenario):
    space = flag_space("A2", SPACES[label])
    assert failures(monkeypatch, space, scenario) == RECORDED[label, _scenario_id(scenario)]


# one csm cell of A1 doubled, its top cell: every csm identity that reads
# that table fails, the normalization with the witness the motivic one has
CSM_DOUBLED = {
    "B": [
        ("right DL recursion on csm cells", "i=1 w=e"),
        ("left DL recursions on csm and sm cells (all four)", "i=1 w=e csm"),
        ("csm/sm duality matrix is the identity", "(1,1)"),
        ("csm normalization: cells sum to c(TX)", "sum mismatch"),
        ("left Weyl action on homogenized csm cells", "i=1 w=e"),
        ("homogenized left DL recursion", "i=1 w=e"),
        ("left operators in Schubert coordinates rebuild the csm cells (both sides)", "w=1"),
    ],
    "Bminus": [
        ("left DL recursions on csm and sm cells (all four)", "i=1 w=e csm-opp"),
        ("csm/sm duality matrix is the identity", "(1,1)"),
        ("csm normalization on opposite cells", "sum mismatch"),
        ("left operators in Schubert coordinates rebuild the csm cells (both sides)", "w=1 opp"),
    ],
}


@pytest.mark.parametrize("side", sorted(CSM_DOUBLED))
def test_doubled_csm_cell_witnesses(monkeypatch, side):
    space = flag_space("A1")
    _build_tables(space)
    top = space.points[-1]
    table = dict(classes.cell_family(space, "csm", side).table)
    table[top] = table[top].scale(2)
    monkeypatch.setitem(
        space._cache, ("cells", "csm", side), classes.CellClassFamily("csm", side, space, table)
    )
    assert classes.verify_class_theorems(space, kinds=("csm",)).failures() == CSM_DOUBLED[side]
