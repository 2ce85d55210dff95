"""Exports checked by the benchmark's independent oracle.

``perfbench/checker.py`` keeps its own root systems and evaluates every
restriction exactly at a seeded rational point; it does not import gkmflag.
Here it checks ``classes`` and ``pair`` exports made in-process by
``cli.main``.
"""

import os
import sys

import pytest

from gkmflag.cli import main

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import checker  # noqa: E402

FAMILIES = ("csm", "sm", "mc", "smc", "schubert-b", "schubert-bminus",
            "kschubert-b", "kschubert-bminus")


def _classes(space, family, fmt="json", side=None):
    label, _, par = space.partition("/")
    return {"command": "classes", "type": label, "family": family, "format": fmt, "side": side,
            "parabolic": tuple(int(p) for p in par.split(",")) if par else ()}


def _pair(space, families, fmt):
    return {"command": "pair", "type": space, "parabolic": (), "format": fmt,
            "families": tuple(families.split(","))}


def _jobs():
    # JSON smc on B2 and A3/{1,3} takes 5 to 12 s per export, nearly all of
    # it in the Schubert expansion (model.expand_schubert), which only JSON
    # carries; their CSV exports take a tenth of a second
    for space in ("A1", "A2", "B2", "A3/1,3"):
        for family in FAMILIES:
            if family != "smc" or space in ("A1", "A2"):
                yield _classes(space, family)
    for space in ("A2/1", "B2/1", "B2/2", "A3/1,2", "A3/2,3"):
        yield _classes(space, "smc")
    for fmt in ("csv", "latex"):
        for family in FAMILIES:
            yield _classes("A2", family, fmt)
    for families in ("csm,sm", "mc,smc", "kschubert-b,kschubert-bminus"):
        yield _pair("A2", families, "json")
    for space in ("D4/1,2,3", "A4/1,2,3", "A4/2,3,4"):
        for family in ("csm", "mc", "kschubert-b"):
            yield _classes(space, family)
    # appended, so that the jobs above keep their seeds
    yield _classes("B2", "smc", "csv")
    yield _classes("A3/1,3", "smc", "csv")
    yield _classes("G2", "sm", "latex")
    for fmt in ("csv", "latex"):
        yield _pair("A2", "mc,smc", fmt)
        yield _pair("B2", "csm,sm", fmt)
    # Chern cell expansions by the left operators in Schubert coordinates
    yield _classes("B3", "csm")
    yield _classes("G2", "mc")
    yield _classes("A3", "mc", side="Bminus")


JOBS = list(_jobs())


def _argv(job):
    argv = [job["command"], "--type", job["type"][0], "--rank", job["type"][1:],
            "--format", job["format"]]
    if job["parabolic"]:
        argv += ["--parabolic", ",".join(map(str, job["parabolic"]))]
    if job.get("side"):
        argv += ["--side", job["side"]]
    return argv + ["--family", job.get("family") or ",".join(job["families"])]


@pytest.mark.parametrize("seed,job", list(enumerate(JOBS)),
                         ids=[" ".join(_argv(j)[1:]) for j in JOBS])
def test_export_passes_the_oracle(tmp_path, seed, job):
    out = tmp_path / "out"
    assert main(_argv(job) + ["--out", str(out)]) == 0
    checker.check_output(job, out.read_text(), seed)
