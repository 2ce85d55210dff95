"""Serialization of class tables, pairing matrices and reports.

All documents are deterministic: entries are ordered by (length, word) and
JSON is dumped with sorted keys, so identical jobs produce identical bytes.
Scalars are always symbolic (exact rationals attached to exponent data);
nothing is ever rendered through floating point.

Only the JSON class table carries Schubert expansions.  The CSV and LaTeX
renderers take the table or matrix of fractions the caller holds and write
each cell with ``scalars.render_fraction``, the one term writer for text, in
its plain or LaTeX syntax; no JSON document is built or parsed for them.

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
from .scalars import LATEX, _fraction_json, fraction_from_json, render_fraction


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
# text renderers: the fractions themselves, written by ``render_fraction``
# ---------------------------------------------------------------------------

def _labels(points):
    return [word_str(w.word) for w in points]


def _table_cells(space, table):
    """(class label, point label, value) of a class table, in document order."""
    pts = space.points
    labels = _labels(pts)
    for w, lw in zip(pts, labels):
        values = table[w].values
        for v, lv in zip(pts, labels):
            yield lw, lv, values[v]


def _csv(header, cells):
    """One line per (label, label, fraction) cell, the fraction quoted."""
    lines = [header]
    lines.extend('%s,%s,"%s"' % (a, b, render_fraction(f)) for a, b, f in cells)
    return "\n".join(lines) + "\n"


def table_to_csv(space, table):
    return _csv("class,point,value", _table_cells(space, table))


def table_to_latex(space, table):
    out = [r"\begin{tabular}{lll}", r"class & point & value \\ \hline"]
    out.extend(
        r"$%s$ & $%s$ & $%s$ \\" % (a, b, render_fraction(f, LATEX))
        for a, b, f in _table_cells(space, table)
    )
    out.append(r"\end{tabular}")
    return "\n".join(out) + "\n"


def matrix_to_csv(rows, cols, matrix):
    cl = _labels(cols)
    return _csv(
        "row,col,value",
        ((r, c, f) for r, row in zip(_labels(rows), matrix) for c, f in zip(cl, row)),
    )


def matrix_to_latex(rows, cols, matrix):
    out = [r"\begin{tabular}{l%s}" % ("l" * len(cols))]
    out.append(" & ".join([""] + ["$%s$" % c for c in _labels(cols)]) + r" \\ \hline")
    for r, row in zip(_labels(rows), matrix):
        cells = ["$%s$" % render_fraction(f, LATEX) for f in row]
        out.append(" & ".join(["$%s$" % r] + cells) + r" \\")
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
