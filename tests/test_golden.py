"""Byte-for-byte pins of command output.

Each command runs in-process through ``cli.main``; the sha256 of its stdout
must equal the recorded hash.  The hashes were taken from the CLI before the
Segre motivic tables moved to the operator recursion, two more before word
operators, braid words and the Leibniz rule were each stated once, two
before the polynomial kernels were rewritten, the csm suite's three before
the cell and Schubert action rules were each stated once, five before
documents shared their term objects, the two LaTeX matrices before CSV
and LaTeX exports stopped going through the JSON document, and the csm and
motivic suites' six before each gained the identity that rebuilds its
Chern cells from their left-operator Schubert coordinates, so any change
of a table, an expansion, a report or a witness label in these outputs fails
here.  When an output changes on purpose, re-record its hash with
``gkmflag <command> | sha256sum`` and say why in the change log.
"""

import hashlib

import pytest

from gkmflag import cli, model
from gkmflag.classes import FAMILY_INFO
from gkmflag.cli import main

GOLDEN = [
    ("classes --type A --rank 2 --family smc",
     "042af53ab173b81ec22244b40e834a8078d71f4c8c7fd1cda2046a4f7aa16ecb"),
    ("classes --type A --rank 2 --family smc --side B --format csv",
     "c844448c67280009261c55ef9a7a270113e6061e717e6a6ebd2ef317cce1a7dc"),
    ("classes --type A --rank 3 --parabolic 2,3 --family smc",
     "700407eaed4db2279aef5a0feec14f7516362194cf3713e52e36fdc4c5669942"),
    ("classes --type B --rank 2 --parabolic 2 --family smc --format latex",
     "b2e3c73209256a005e5ada78f7ea77470fbc1c5ef70f490690d7f284a52052d1"),
    ("classes --type A --rank 2 --family sm",
     "ab832ea0a0d97cffa1673fb331b654d206a376338fc872814f9c5a66a7e5042f"),
    ("classes --type A --rank 3 --parabolic 1,3 --family csm",
     "ef709e38ce6f8ccbc5a5e8d6b55c60018217e8569c8c28d8ca7b0e050fc6e0cf"),
    ("classes --type A --rank 2 --family csm --side Bminus --format latex",
     "1b920dbfba0e985bfe7cccb8c9f2cc7b39ff56ec8531619d6fc08c63a9c420d0"),
    ("classes --type G --rank 2 --family kschubert-b",
     "58362ead0e0eab80c2d1358876d77d872ee773093d5d1b9af0ee748eed00c9bf"),
    ("pair --type A --rank 3 --parabolic 1,2 --family mc,smc",
     "cccb5a5211dd54b852b61cbe3aa1c38e50f02f60d373fe851480889cfdf13b7b"),
    ("pair --type A --rank 2 --family mc,smc --format csv",
     "5d13eafdaf9b0e3369681a2281bc9f8394079e04bb1973146ca23d58390733ee"),
    ("verify --suite motivic --type A --rank 2",
     "8b34d57012426e43d6d1847eded7bb0cdf86ea67c4f2f150f9910c541600ca44"),
    ("verify --suite motivic --type A --rank 2 --parabolic 1",
     "b9a21d01d3a3311c81c89b177c4a9a2ad3cf8816be8ee00d1d354eed9c4df199"),
    ("verify --suite motivic --type B --rank 2 --parabolic 2",
     "081833eadef09c871e97236d0715aa0851fa437a75e89afc35f7344fae815c99"),
    ("verify --suite operators --type A --rank 2",
     "e842459125fb14305843e486352f2d8a111cfb89af7930aaf81c6ef7120b2c96"),
    ("quantum",
     "6af5c04dd3cd90cdc7804d59c8d813aa77c8a99bbad2060f84ff0ffd2be03a38"),
    # left word operators and braid relations on G/P
    ("verify --suite operators --type A --rank 3 --parabolic 1,3",
     "f8276a787b134a5999c55838173b2b42d04dd3a38185d368162bb2417dfb2da9"),
    # braid order 4 and the K Leibniz rule
    ("verify --suite operators --type B --rank 2",
     "3a23699707c1774d777c197aea1d11368ad2601afccb4f0e7daa80dceee7147c"),
    # a polynomial K expansion: exact quotients throughout
    ("classes --type A --rank 3 --family mc",
     "7e3c4a3ee5f4669d23f4d3e531cef8737687fdfe7b8c6fd130c5fb22cb7efd19"),
    # a fractional H expansion: gcd-reduced quotients
    ("classes --type B --rank 2 --family sm --format csv",
     "95e6c8509bfcd0b23c5d59d989fe6735740c80f4286098a506ea3b58ca35a3ed"),
    # the csm suite: right and left DL on cells, folding on G/P, braid order 4
    ("verify --suite csm --type A --rank 2",
     "6f0c19474cc016dcf044e4bbe39338226ac72d13c1d8643c885d98d1cde193e1"),
    ("verify --suite csm --type A --rank 3 --parabolic 1,3",
     "391b849b6b458b999a7c6e016a69b34ef56e1c0ded13b1dfe8dc244aeed07dcb"),
    ("verify --suite csm --type B --rank 2",
     "ec90f59fbc501be20ad0e2d58b3f29aaacc7bb8edb76f46079591a83a0068a16"),
    # JSON exports whose documents repeat many terms: written with shared
    # term objects and reused text
    ("classes --type A --rank 3 --family csm",
     "e466fb49e645cd9a0c336e4a92e502b33dc70780ae96eb3b834ee1ee93208186"),
    ("classes --type A --rank 3 --family schubert-bminus",
     "f6aa540ff0c3a380bb400e2604d89e2008643300defb90a8477a1032254798ed"),
    ("pair --type B --rank 2 --family csm,sm",
     "5a67098395df1dcefd5095ce40457191321fc4e899599fe87cdea319757b60cd"),
    ("classes --type C --rank 3 --parabolic 2,3 --family csm",
     "7b40d19392cea4610022fc4d20d9455ba966e006defe7fd81c44cb89078f107e"),
    ("classes --type A --rank 3 --parabolic 1,3 --family mc --side Bminus",
     "ab24e68599810a597130d3bb2472fb0210c886723a80e23841c9fc79573b43d3"),
    # pairing matrices in LaTeX: fractions and polynomials in the cells
    ("pair --type B --rank 2 --family csm,sm --format latex",
     "7ddf5c79638b8a7b64aad9beab932e6c36ee24a13d5d7ce737b7f92ca1932417"),
    ("pair --type A --rank 3 --parabolic 1,2 --family mc,smc --format latex",
     "8547ae24047005ae13bc7841d94ae48037bd80d6bc4210d351f588ccb7fd4b1d"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_matches_recorded_hash(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


TEXT_EXPORTS = [(c, d) for c, d in GOLDEN
                if c.startswith("classes") and ("--format csv" in c or "--format latex" in c)]


@pytest.mark.parametrize("command,digest", TEXT_EXPORTS, ids=[c for c, _ in TEXT_EXPORTS])
def test_text_exports_compute_no_expansion(monkeypatch, capsys, command, digest):
    # CSV and LaTeX carry no Schubert expansion, so they must not compute one
    def refuse(*args, **kwargs):
        raise RuntimeError("expand_schubert called")

    monkeypatch.setattr(model, "expand_schubert", refuse)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _family(command):
    words = command.split()
    return words[words.index("--family") + 1]


CHERN_AND_SCHUBERT_JSON = [
    (c, d) for c, d in GOLDEN
    if c.startswith("classes") and "--format" not in c
    and _family(c) in FAMILY_INFO and _family(c) not in ("sm", "smc")
]


@pytest.mark.parametrize("command,digest", CHERN_AND_SCHUBERT_JSON,
                         ids=[c for c, _ in CHERN_AND_SCHUBERT_JSON])
def test_chern_and_schubert_json_exports_peel_nothing(monkeypatch, capsys, command, digest):
    # their expansions come from the left operators in Schubert coordinates
    # and from unit vectors; a fresh cache makes the export build them
    def refuse(*args, **kwargs):
        raise RuntimeError("expand_schubert called")

    argv = command.split()
    monkeypatch.setattr(cli._space(cli.build_parser().parse_args(argv)), "_cache", {})
    monkeypatch.setattr(model, "expand_schubert", refuse)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_json_export_computes_the_expansions(monkeypatch, capsys):
    calls = []
    expand = model.expand_schubert

    def counted(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(model, "expand_schubert", counted)
    assert main("classes --type A --rank 2 --family smc".split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == dict(GOLDEN)[
        "classes --type A --rank 2 --family smc"]
    assert len(calls) == len(model.flag_space("A2").points)
