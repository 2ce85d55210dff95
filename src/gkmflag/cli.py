"""Command line front end.

Four commands: ``classes`` exports a characteristic-class or Schubert table,
``verify`` runs an identity suite, ``pair`` exports a pairing matrix, and
``quantum`` runs the quantum fixture checks.  Exit codes: 0 success, 1 an
identity failed, 2 usage error (including an option that would be ignored
or contradicts another, an unreadable fixture table and an unwritable
``--out``), 3 internal invariant breach or any other unexpected error.

Exports render what the command holds: a JSON class table also carries the
Schubert expansion of every class, and only it computes them; CSV and
LaTeX write the table or matrix of fractions directly.
"""

from __future__ import annotations

import argparse
import sys

from . import classes as cls_mod
from . import io as io_mod
from . import model, operators, quantum
from .model import H, K


SUITES = ("operators", "csm", "motivic", "quantum", "all")


class UsageError(ValueError):
    pass


def _parse_parabolic(text):
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError("bad parabolic index list: %r" % (text,))


def _space(args):
    if not args.type or args.rank is None:
        raise UsageError("--type and --rank are required")
    label = "%s%d" % (args.type.strip().upper(), args.rank)
    try:
        return model.flag_space(label, _parse_parabolic(args.parabolic))
    except Exception as exc:
        raise UsageError(str(exc))


def _family_table(space, family, side):
    info = cls_mod.FAMILY_INFO.get(family)
    if info is None:
        raise UsageError("unknown family %r" % (family,))
    theory, own_side = info
    side = side or own_side
    if side not in ("B", "Bminus"):
        raise UsageError("side must be B or Bminus")
    if family in cls_mod.FAMILIES:
        table = cls_mod.cell_family(space, family, side).table
    elif side != own_side:
        raise UsageError("family %s has side %s, not %s" % (family, own_side, side))
    else:
        table = space.schubert_basis(theory, side)
    return theory, side, table


def _write(args, text):
    if args.out:
        try:
            io_mod.write_atomic(args.out, text)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (args.out, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def cmd_classes(args):
    space = _space(args)
    theory, side, table = _family_table(space, args.family, args.side)
    if args.format == "json":  # only JSON carries the Schubert expansions
        expansions = cls_mod.family_expansions(space, args.family, side)
        doc = io_mod.class_table_document(space, theory, args.family, side, table, expansions)
        text = io_mod.dumps_json(doc)
    elif args.format == "csv":
        text = io_mod.table_to_csv(space, table)
    else:
        text = io_mod.table_to_latex(space, table)
    _write(args, text)
    return 0


def cmd_pair(args):
    space = _space(args)
    fams = (args.family or "").split(",")
    if len(fams) != 2:
        raise UsageError("pair needs --family f1,f2")
    # dual pairings put the first family on the B side and the second on the
    # opposite side; the schubert-* names carry their side explicitly
    f1, f2 = fams[0].strip(), fams[1].strip()
    th1, s1, t1 = _family_table(space, f1, "B" if f1 in cls_mod.FAMILIES else None)
    th2, s2, t2 = _family_table(space, f2, "Bminus" if f2 in cls_mod.FAMILIES else None)
    if th1 != th2:
        raise UsageError("families live in different theories")
    rows = list(space.points)
    cols = list(space.points)
    matrix = [[model.pair(t1[w], t2[u]) for u in cols] for w in rows]
    if args.format == "json":
        text = io_mod.dumps_json(io_mod.matrix_document(space, th1, rows, cols, matrix))
    elif args.format == "csv":
        text = io_mod.matrix_to_csv(rows, cols, matrix)
    else:
        text = io_mod.matrix_to_latex(rows, cols, matrix)
    _write(args, text)
    return 0


def _fixture_names(fixtures):
    if fixtures is None:
        return ["gr24_qh_partial.json", "gr24_qk_partial.json"]
    names = [name.strip() for name in fixtures.split(",")]
    if not all(names):
        raise UsageError("empty fixture name in --fixtures %r" % (fixtures,))
    return names


def _quantum_reports(names):
    # a name resolves to the same file wherever it is loaded, so the examples
    # reuse the tables loaded (and validated) under their fixture names
    reports, tables = [], {}
    for name in names:
        table = tables[name] = quantum.load_fixture_table(name)
        reports.append(quantum.verify_table(table))
        reports.append(quantum.verify_quantum_relations(table))
    reports.append(quantum.verify_quantum_examples(tables))
    return reports


def cmd_verify(args):
    if args.suite not in SUITES:
        raise UsageError("unknown suite %r" % (args.suite,))
    if args.fixtures is not None and args.suite not in ("quantum", "all"):
        raise UsageError("--fixtures applies to the quantum and all suites only")
    if args.suite == "quantum" and (args.type or args.rank is not None or args.parabolic):
        raise UsageError("--type, --rank and --parabolic do not apply to the quantum suite")
    names = _fixture_names(args.fixtures)
    reports = []
    if args.suite in ("operators", "csm", "motivic", "all"):
        space = _space(args)
    if args.suite in ("operators", "all"):
        for theory in (H, K):
            reports.append(operators.verify_relations(space, theory))
            reports.append(operators.verify_schubert_actions(space, theory))
    if args.suite in ("csm", "all"):
        reports.append(cls_mod.verify_class_theorems(space, kinds=("csm",)))
    if args.suite in ("motivic", "all"):
        reports.append(cls_mod.verify_class_theorems(space, kinds=("motivic",)))
    if args.suite in ("quantum", "all"):
        reports.extend(_quantum_reports(names))
    return _report(args, reports)


def cmd_quantum(args):
    return _report(args, _quantum_reports(_fixture_names(args.fixtures)))


def _report(args, reports):
    _write(args, io_mod.dumps_json({"reports": [r.to_json() for r in reports]}))
    return 0 if all(r.ok for r in reports) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="gkmflag",
        description="exact torus-equivariant Schubert calculus in the localization model",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--type", help="Cartan series letter, e.g. A, B, C, D, G")
        q.add_argument("--rank", type=int)
        q.add_argument("--parabolic", default="", help="comma separated simple indices")
        q.add_argument("--out", default=None)

    def export(q):
        common(q)
        q.add_argument("--format", default="json", choices=("json", "csv", "latex"))

    q = sub.add_parser("classes", help="export a class table")
    export(q)
    q.add_argument("--family", required=True)
    q.add_argument("--side", default=None)
    q.set_defaults(func=cmd_classes)

    q = sub.add_parser("verify", help="run an identity suite")
    common(q)
    q.add_argument("--suite", required=True)
    q.add_argument("--fixtures", default=None)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("pair", help="export a pairing matrix")
    export(q)
    q.add_argument("--family", required=True, help="two families, comma separated")
    q.set_defaults(func=cmd_pair)

    q = sub.add_parser("quantum", help="run the quantum fixture checks")
    q.add_argument("--fixtures", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_quantum)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except quantum.TableValidationError as exc:
        sys.stderr.write("invalid table: %s\n" % exc)
        return 2
    except Exception as exc:
        msg = " ".join(str(exc).split())
        sys.stderr.write("internal invariant breach: %s: %s\n" % (type(exc).__name__, msg))
        return 3


if __name__ == "__main__":
    sys.exit(main())
