"""Per-layer tracing of gkmflag from outside the package.

``install`` wraps the public functions of each gkmflag module (plus the few
private build hooks the per-layer metrics need) and rebinds every name that
refers to them in every gkmflag module, so calls made inside the package go
through the wrappers too.  A wrapper records, while the tracer is enabled:

* a span [name, start, end, parent span, job] for calls outside the hot
  arithmetic (scalars and the root-system primitives are called up to
  millions of times per job, so they are only counted);
* call counts and busy time per metric group, the busy time taken over
  outermost activations so that recursion is not counted twice;
* self time per layer: a call's duration minus the time of the traced
  calls it made.

Everything stays in memory; ``dump`` writes it out when a job or run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "roots", "scalars", "model", "operators", "classes", "quantum", "io")

# private functions traced because a per-layer metric is defined on them
PRIVATE_HOOKS = {
    "model": ("_build_schubert_basis",),
    "classes": ("_build", "_dual_basis_solve"),
}

# counted only, no span: the hot primitives
UNRECORDED = {
    "roots.word_str", "roots.parse_word", "roots.act_on_weight", "roots.bruhat_leq",
    "roots.coset_decompose", "roots.parabolic_trichotomy",
}

OPERATOR_FUNCS = (
    "weyl_left", "weyl_right", "bgg_right", "bgg_left", "demazure_right", "demazure_left",
    "dl_right", "dl_left", "dl_left_homogenized", "dl_right_inverse", "apply_word",
    "apply_word_inverse_dl_right",
)

# metric group -> traced function names (layer.function)
GROUPS = {
    "operators.apply": tuple("operators." + f for f in OPERATOR_FUNCS),
    "operators.verify": ("operators.verify_relations", "operators.verify_schubert_actions"),
    "quantum.operator": ("quantum.quantum_delta", "quantum.quantum_demazure_dual", "quantum.weyl_left_q"),
    "quantum.leibniz": ("quantum.verify_table", "quantum.formal_leibniz_eval"),
    "io.serialize": (
        "io.class_table_document", "io.matrix_document", "io.dumps_json", "io.table_to_csv",
        "io.table_to_latex", "io.matrix_to_csv", "io.matrix_to_latex",
    ),
}
_GROUP_OF = {}
for _g, _names in GROUPS.items():
    for _n in _names:
        _GROUP_OF.setdefault(_n, []).append(_g)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.stack = []       # open calls: [span id seen by children, child seconds]
        self.spans = []       # [name, start, end, parent, job]
        self.calls = Counter()
        self.busy = Counter()     # seconds over outermost activations
        self._active = Counter()
        self.self_s = Counter()   # layer -> seconds
        self.counts = Counter()   # outcome counts: useful gcds, exact divisions, bytes

    def _enter(self, keys):
        for k in keys:
            self._active[k] += 1

    def _leave(self, keys, d):
        for k in keys:
            self.calls[k] += 1
            self._active[k] -= 1
            if not self._active[k]:
                self.busy[k] += d

    def dump(self, path, extra=None):
        doc = {
            "spans": self.spans,
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        doc.update(extra or {})
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def _after_gcd(tr, args, result):
    if not result.is_one():
        tr.counts["scalars.gcd_useful"] += 1


def _after_divides(tr, args, result):
    if result[0]:
        tr.counts["scalars.divides_hit"] += 1


def _after_write(tr, args, result):
    tr.counts["io.bytes_out"] += len(args[1].encode())


POST = {
    "scalars.scalar_gcd": _after_gcd,
    "scalars.divides_exactly": _after_divides,
    "io.write_atomic": _after_write,
}


def _wrap(tr, name, layer, fn):
    keys = (name,) + tuple(_GROUP_OF.get(name, ()))
    record = layer != "scalars" and name not in UNRECORDED
    post = POST.get(name)
    perf = time.perf_counter

    def traced(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        stack = tr.stack
        parent = stack[-1][0] if stack else -1
        if record:
            sid = len(tr.spans)
            span = [name, 0.0, 0.0, parent, tr.job]
            tr.spans.append(span)
        frame = [sid if record else parent, 0.0]
        stack.append(frame)
        tr._enter(keys)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            d = t1 - t0
            if stack:
                stack[-1][1] += d
            tr.self_s[layer] += d - frame[1]
            tr._leave(keys, d)
            if record:
                span[1], span[2] = t0, t1
        if post is not None:
            post(tr, args, result)
        return result

    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def install(tr):
    """Wrap gkmflag's public functions for ``tr``; returns the number wrapped."""
    import gkmflag

    mods = {layer: importlib.import_module("gkmflag." + layer) for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        hooks = PRIVATE_HOOKS.get(layer, ())
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in hooks:
                continue
            wrappers[obj] = _wrap(tr, "%s.%s" % (layer, attr), layer, obj)
    for mod in [gkmflag] + list(mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    sf = mods["scalars"].ScalarFraction
    sf.make = classmethod(_wrap(tr, "scalars.ScalarFraction.make", "scalars", sf.make.__func__))
    return len(wrappers) + 1


# ---------------------------------------------------------------------------
# per-layer metrics from summed tracer dumps
# ---------------------------------------------------------------------------

def merge(total, doc):
    """Add one dump's counters into ``total`` (a dict of Counters)."""
    for key in ("calls", "busy", "self_s", "counts"):
        total.setdefault(key, Counter()).update(doc.get(key, {}))
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(total, jobs, start_s):
    """Per-layer metrics, per job; ``start_s`` is the summed cli start time."""
    calls = total.get("calls", Counter())
    busy = total.get("busy", Counter())
    selfs = total.get("self_s", Counter())
    counts = total.get("counts", Counter())
    n = max(jobs, 1)
    requests = calls["classes.cell_family"]
    builds = calls["classes._build"]
    m = {
        "cli.start_s": (start_s / n, "s/job"),
        "roots.build_s": (busy["roots.build_root_system"] / n, "s/job"),
        "roots.bruhat_calls": (calls["roots.bruhat_leq"] / n, "count/job"),
        "roots.bruhat_s": (busy["roots.bruhat_leq"] / n, "s/job"),
        "scalars.gcd_calls": (calls["scalars.scalar_gcd"] / n, "count/job"),
        "scalars.gcd_s": (busy["scalars.scalar_gcd"] / n, "s/job"),
        "scalars.gcd_useful_ratio": (_ratio(counts["scalars.gcd_useful"], calls["scalars.scalar_gcd"]), "ratio"),
        "scalars.make_calls": (calls["scalars.ScalarFraction.make"] / n, "count/job"),
        "scalars.divides_calls": (calls["scalars.divides_exactly"] / n, "count/job"),
        "scalars.divides_s": (busy["scalars.divides_exactly"] / n, "s/job"),
        "scalars.divides_hit_ratio": (_ratio(counts["scalars.divides_hit"], calls["scalars.divides_exactly"]), "ratio"),
        "scalars.weyl_act_calls": (calls["scalars.weyl_act_scalar"] / n, "count/job"),
        "scalars.weyl_act_s": (busy["scalars.weyl_act_scalar"] / n, "s/job"),
        "model.expand_calls": (calls["model.expand_schubert"] / n, "count/job"),
        "model.expand_s": (busy["model.expand_schubert"] / n, "s/job"),
        "model.pushforward_s": (busy["model.pushforward_parabolic"] / n, "s/job"),
        "model.schubert_builds": (calls["model._build_schubert_basis"] / n, "count/job"),
        "model.pair_calls": (calls["model.pair"] / n, "count/job"),
        "model.pair_s": (busy["model.pair"] / n, "s/job"),
        "model.gkm_s": (busy["model.gkm_check"] / n, "s/job"),
        "operators.apply_calls": (calls["operators.apply"] / n, "count/job"),
        "operators.apply_s": (busy["operators.apply"] / n, "s/job"),
        "operators.verify_s": (busy["operators.verify"] / n, "s/job"),
        "classes.family_requests": (requests / n, "count/job"),
        "classes.family_builds": (builds / n, "count/job"),
        "classes.family_hit_ratio": (_ratio(requests - builds, requests), "ratio"),
        "classes.build_s": (busy["classes._build"] / n, "s/job"),
        "classes.dual_solve_s": (busy["classes._dual_basis_solve"] / n, "s/job"),
        "classes.verify_s": (busy["classes.verify_class_theorems"] / n, "s/job"),
        "quantum.multiply_calls": (calls["quantum.q_multiply"] / n, "count/job"),
        "quantum.multiply_s": (busy["quantum.q_multiply"] / n, "s/job"),
        "quantum.operator_s": (busy["quantum.operator"] / n, "s/job"),
        "quantum.leibniz_s": (busy["quantum.leibniz"] / n, "s/job"),
        "io.serialize_s": (busy["io.serialize"] / n, "s/job"),
        "io.write_s": (busy["io.write_atomic"] / n, "s/job"),
        "io.bytes_out": (counts["io.bytes_out"] / n, "B/job"),
    }
    for layer in LAYERS:
        m["%s.self_s" % layer] = (selfs[layer] / n, "s/job")
    return m
