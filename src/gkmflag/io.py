"""Serialization of class tables, pairing matrices and reports.

All documents are deterministic: entries are ordered by (length, word) and
JSON is dumped with sorted keys, so identical jobs produce identical bytes.
Scalars are always symbolic (exact rationals attached to exponent data);
nothing is ever rendered through floating point.

JSON layout: exactly ``json.dumps(doc, indent=1, sort_keys=True)`` plus a
trailing newline: non-ASCII characters as ``\\uXXXX`` escapes, one item per
line indented one space per level, ``","`` ending an item and ``": "`` after
a key, empty containers as ``[]`` and ``{}``.  ``tests/test_io.py`` pins the
bytes.  ``dumps_json`` writes that layout itself rather than calling
``json.dumps``, because with ``indent`` set ``json`` does not use its C
encoder, and its pure-Python path dominated the cost of exporting a table.

Documents share objects, so they are read-only.  ``class_table_document`` and
``matrix_document`` build each distinct term (theory, exponents, coefficient)
once per document and put that one dict wherever the term occurs.
``dumps_json`` records each container's slice of its output; meeting the same
object again at the same depth (which sets the indentation) it appends that
text instead of walking the container.  No cache outlives one call.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii as _escape

from .model import LocalizedClass, flag_space
from .roots import word_str
from .scalars import CohScalar, _fraction_json, fraction_from_json, render_fraction


def space_to_json(space):
    label = space.rs.type_label
    return {
        "type": label[:-1],
        "rank": space.rs.rank,
        "parabolic": list(space.parabolic.indices),
    }


def space_from_json(doc):
    return flag_space(
        "%s%d" % (doc["type"], doc["rank"]), tuple(doc.get("parabolic", ()))
    )


def point_parser(space):
    """A function from a fixed point's label, ``word_str`` of its word, to
    the point.  Any other text raises ValueError naming it, so that another
    word of a point, or of an element that is not a minimal coset
    representative, is not silently read as some point."""
    points = {word_str(w.word): w for w in space.points}

    def point(label):
        if label not in points:
            raise ValueError("no fixed point of %r has the label %r" % (space, label))
        return points[label]
    return point


def class_table_document(space, theory, family, side, table, expansions=None):
    """The class-table schema: fixed point restrictions per class, plus the
    Schubert expansion when provided."""
    terms = {}  # one dict per distinct term of the document
    pts = space.points  # ordered by (length, word)
    labels = [word_str(w.word) for w in pts]
    entries = []
    for w, label in zip(pts, labels):
        values = table[w].values
        entry = {
            "label": label,
            "values": [
                {"label": lb, "value": _fraction_json(values[v], terms)}
                for v, lb in zip(pts, labels)
            ],
        }
        if expansions is not None:
            exp = expansions[w]
            nonzero = exp.nonzero()
            entry["expansion"] = {
                "basis": "schubert",
                "side": exp.side,
                "coeffs": [
                    {"label": lb, "coeff": _fraction_json(nonzero[u], terms)}
                    for u, lb in zip(pts, labels)
                    if u in nonzero
                ],
            }
        entries.append(entry)
    return {
        "space": space_to_json(space),
        "theory": theory,
        "family": family,
        "side": side,
        "y_present": theory == "K",
        "basis": "fixedpoint",
        "entries": entries,
    }


def load_class_table(doc):
    """Re-ingest a class-table document into localized classes."""
    space = space_from_json(doc["space"])
    point = point_parser(space)
    theory = doc["theory"]
    rank = space.rs.rank
    out = {}
    for entry in doc["entries"]:
        vals = {}
        for item in entry["values"]:
            vals[point(item["label"])] = fraction_from_json(item["value"], theory, rank)
        out[entry["label"]] = LocalizedClass(space, theory, vals)
    return space, theory, out


def matrix_document(space, theory, rows, cols, matrix):
    terms = {}
    return {
        "space": space_to_json(space),
        "theory": theory,
        "rows": [word_str(w.word) for w in rows],
        "cols": [word_str(w.word) for w in cols],
        "matrix": [[_fraction_json(c, terms) for c in row] for row in matrix],
    }


# ---------------------------------------------------------------------------
# text renderers
# ---------------------------------------------------------------------------

def latex_scalar(s):
    if s.is_zero():
        return "0"
    parts = []
    coh = isinstance(s, CohScalar)
    for k, c in s.sorted_terms():
        if coh:
            factors = []
            for j in range(s.rank):
                if k[j] == 1:
                    factors.append(r"\alpha_{%d}" % (j + 1))
                elif k[j]:
                    factors.append(r"\alpha_{%d}^{%d}" % (j + 1, k[j]))
            if k[s.rank] == 1:
                factors.append(r"\hbar")
            elif k[s.rank]:
                factors.append(r"\hbar^{%d}" % k[s.rank])
            body = " ".join(factors)
        else:
            factors = []
            lat, ye = k[:-1], k[-1]
            if any(lat):
                exps = []
                for j, a in enumerate(lat):
                    if a == 1:
                        exps.append(r"+\alpha_{%d}" % (j + 1))
                    elif a == -1:
                        exps.append(r"-\alpha_{%d}" % (j + 1))
                    elif a:
                        exps.append(r"%+d\alpha_{%d}" % (a, j + 1))
                factors.append("e^{%s}" % "".join(exps).lstrip("+"))
            if ye == 1:
                factors.append("y")
            elif ye:
                factors.append("y^{%d}" % ye)
            body = " ".join(factors)
        mag = abs(c)
        if body:
            txt = body if mag == 1 else "%s %s" % (_latex_rat(mag), body)
        else:
            txt = _latex_rat(mag)
        if not parts:
            parts.append(("-" if c < 0 else "") + txt)
        else:
            parts.append((" - " if c < 0 else " + ") + txt)
    return "".join(parts)


def _latex_rat(q):
    if getattr(q, "denominator", 1) != 1:
        return r"\tfrac{%d}{%d}" % (q.numerator, q.denominator)
    return str(int(q))


def latex_fraction(f):
    if f.is_polynomial():
        return latex_scalar(f.num)
    return r"\frac{%s}{%s}" % (latex_scalar(f.num), latex_scalar(f.den))


def table_to_csv(doc):
    space = space_from_json(doc["space"])
    rank = space.rs.rank
    lines = ["class,point,value"]
    for entry in doc["entries"]:
        for item in entry["values"]:
            frac = fraction_from_json(item["value"], doc["theory"], rank)
            lines.append(
                '%s,%s,"%s"' % (entry["label"], item["label"], render_fraction(frac))
            )
    return "\n".join(lines) + "\n"


def table_to_latex(doc):
    space = space_from_json(doc["space"])
    rank = space.rs.rank
    out = [r"\begin{tabular}{lll}", r"class & point & value \\ \hline"]
    for entry in doc["entries"]:
        for item in entry["values"]:
            frac = fraction_from_json(item["value"], doc["theory"], rank)
            out.append(
                r"$%s$ & $%s$ & $%s$ \\"
                % (entry["label"], item["label"], latex_fraction(frac))
            )
    out.append(r"\end{tabular}")
    return "\n".join(out) + "\n"


def matrix_to_csv(doc):
    space = space_from_json(doc["space"])
    rank = space.rs.rank
    lines = ["row,col,value"]
    for rl, row in zip(doc["rows"], doc["matrix"]):
        for cl, item in zip(doc["cols"], row):
            frac = fraction_from_json(item, doc["theory"], rank)
            lines.append('%s,%s,"%s"' % (rl, cl, render_fraction(frac)))
    return "\n".join(lines) + "\n"


def matrix_to_latex(doc):
    space = space_from_json(doc["space"])
    rank = space.rs.rank
    ncols = len(doc["cols"])
    out = [r"\begin{tabular}{l%s}" % ("l" * ncols)]
    out.append(" & ".join([""] + ["$%s$" % c for c in doc["cols"]]) + r" \\ \hline")
    for rl, row in zip(doc["rows"], doc["matrix"]):
        cells = [
            "$%s$" % latex_fraction(fraction_from_json(item, doc["theory"], rank))
            for item in row
        ]
        out.append(" & ".join(["$%s$" % rl] + cells) + r" \\")
    out.append(r"\end{tabular}")
    return "\n".join(out) + "\n"


def dumps_json(doc):
    """``json.dumps(doc, indent=1, sort_keys=True) + "\\n"``, byte for byte.

    Values may be str, int, bool, None, dict (str keys only), list or tuple;
    anything else raises TypeError.  ``doc`` must not change during the call.
    """
    out = []
    _write(doc, out, [None], 0)  # frags[d] serves items at depth d >= 1
    out.append("\n")
    return "".join(out)


_int_repr = int.__repr__


def _fragments(depth):
    """(list open, dict open, item separator, list close, dict close, seen)
    for the items at ``depth`` >= 1; built once per depth and document.
    ``seen`` maps the id of each container written with its items at this
    depth to its slice of the output, or to its text once met again."""
    nl = "\n" + " " * depth
    outer = nl[:-1]
    return ("[" + nl, "{" + nl, "," + nl, outer + "]", outer + "}", {})


def _write(o, out, frags, depth):
    if isinstance(o, str):
        out.append(_escape(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(_int_repr(o))
    elif isinstance(o, dict):
        _write_dict(o, out, frags, depth)
    elif isinstance(o, (list, tuple)):
        _write_list(o, out, frags, depth)
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def _reuse(o, out, seen):
    """Append the text already written for container ``o`` at this depth, or
    return False.  The document keeps its containers alive, so ids stay put."""
    text = seen.get(id(o))
    if text is None:
        return False
    if type(text) is tuple:
        text = seen[id(o)] = "".join(out[text[0]:text[1]])
    out.append(text)
    return True


# The container writers handle the common item types inline, sparing a call
# per leaf.  Every item is preceded by the separator; the first separator is
# then overwritten with the opening bracket.

def _write_list(lst, out, frags, depth):
    if not lst:
        out.append("[]")
        return
    depth += 1
    if depth == len(frags):
        frags.append(_fragments(depth))
    lopen, _, sep, lclose, _, seen = frags[depth]
    if _reuse(lst, out, seen):
        return
    start = len(out)
    for v in lst:
        out.append(sep)
        t = type(v)
        if t is str:
            out.append(_escape(v))
        elif t is int:
            out.append(_int_repr(v))
        elif t is dict:
            _write_dict(v, out, frags, depth)
        elif t is list:
            _write_list(v, out, frags, depth)
        else:
            _write(v, out, frags, depth)
    out[start] = lopen
    out.append(lclose)
    seen[id(lst)] = (start, len(out))


def _write_dict(d, out, frags, depth):
    if not d:
        out.append("{}")
        return
    depth += 1
    if depth == len(frags):
        frags.append(_fragments(depth))
    _, dopen, sep, _, dclose, seen = frags[depth]
    if _reuse(d, out, seen):
        return
    start = len(out)
    for k in sorted(d):
        if not isinstance(k, str):
            raise TypeError("keys must be str, not %s" % type(k).__name__)
        out.append(sep)
        out.append(_escape(k))
        out.append(": ")
        v = d[k]
        t = type(v)
        if t is str:
            out.append(_escape(v))
        elif t is int:
            out.append(_int_repr(v))
        elif t is dict:
            _write_dict(v, out, frags, depth)
        elif t is list:
            _write_list(v, out, frags, depth)
        else:
            _write(v, out, frags, depth)
    out[start] = dopen
    out.append(dclose)
    seen[id(d)] = (start, len(out))


def write_atomic(path, text):
    """Write the output file in one atomic rename.

    The temporary file is created with mode 0o666, as ``open(path, "w")``
    creates files, so the umask gives the output its usual mode
    (``tempfile.mkstemp`` would leave it at 0o600).
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, ".gkmflag-%s.tmp" % os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
