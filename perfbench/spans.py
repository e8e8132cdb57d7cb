"""Spans around the public functions of each rankgradient layer.

A traced benchmark command calls ``install()`` after importing
``rankgradient.cli`` and before calling its ``main``.  ``install`` wraps
every function in ``WRAPPED`` and rebinds the wrapper under every name in
every ``rankgradient.*`` module that holds the original object: a
``from .x import y`` copies the binding, so patching only the defining
module would miss callers such as ``chains.rank_bounds``.

Spans stay in memory and ``Recorder.dump`` writes them as JSON lines when
the command ends, never to stdout.  ``layer_metrics`` (called by run.py)
turns one pass's spans into the per-layer metrics: self times, call counts
and the counts read from call arguments and return values.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _nnz(rows):
    return sum(len(row) - row.count(0) for row in rows)


def _cache_attrs(args, kwargs, ret):
    from rankgradient.cache import cache_key

    cache = args[0]
    hit = ret.provenance == "cache"
    size = 0
    if cache.enabled:
        spec = args[2] if len(args) > 2 else kwargs.get("spec")
        path = cache._path(cache_key(_arg(args, kwargs, 1, "pres"), spec))
        if os.path.exists(path):
            size = os.path.getsize(path)
    return {"hit": hit, "bytes": size}


def _tietze_attrs(args, kwargs, ret):
    pres = _arg(args, kwargs, 0, "pres")
    return {
        "letters_in": sum(len(r) for r in pres.relators),
        "gens_in": pres.rank,
        "gens_out": ret.rank,
    }


def _matrix_attrs(args, kwargs, ret):
    rows, cols = ret
    return {"rows": len(rows), "cols": cols, "nnz": _nnz(rows)}


def _report_attrs(args, kwargs, ret):
    matrix = _arg(args, kwargs, 0, "matrix")
    return {"rows": len(matrix), "nnz": _nnz(matrix)}


def _snf_attrs(args, kwargs, ret):
    matrix = _arg(args, kwargs, 0, "matrix")
    return {"cells": len(matrix) * (len(matrix[0]) if matrix else 0)}


def _index_out(args, kwargs, ret):
    return {"cosets_out": ret.index}


def _levels(args, kwargs, ret):
    return {"levels": len(ret.levels)}


# (module, attribute path, function computing span attributes or None)
WRAPPED = (
    ("words", "parse_presentation", None),
    ("cosets", "enumerate_cosets", _index_out),
    ("cosets", "low_index", lambda a, k, ret: {"tables": len(ret)}),
    ("cosets", "with_schreier_spec", None),
    ("cosets", "intersect", _index_out),
    ("cosets", "normal_core", None),
    ("cosets", "canonicalize", None),
    ("cosets", "validate", None),
    ("subgroups", "tietze_simplify", _tietze_attrs),
    ("subgroups", "rewrite_presentation", None),
    ("subgroups", "schreier_generators", None),
    ("subgroups", "subgroup_abelianized_matrix", _matrix_attrs),
    ("subgroups", "rank_bounds", lambda a, k, ret: {"gap": ret[1] - ret[0]}),
    ("homology", "report_from_matrix", _report_attrs),
    ("homology", "smith_normal_form", _snf_attrs),
    ("chains", "farber_chain", _levels),
    ("chains", "hnn_chain", _levels),
    ("chains", "lamplighter_chain", _levels),
    ("chains", "gradient_sequence", None),
    ("chains", "report_to_json", None),
    ("chains", "report_to_csv", None),
    ("graphings", "minimize_graphing", None),
    ("graphings", "is_l_graphing", lambda a, k, ret: {"accepted": ret.verdict is True}),
    ("towers", "build_tower", lambda a, k, ret: {"points": sum(c.n for c in ret)}),
    ("towers", "finite_group_data", None),
    ("towers", "injectivity_radius", None),
    ("towers", "verify_level", None),
    ("cache", "TableCache.enumerate", _cache_attrs),
    ("cli", "emit", lambda a, k, ret: {"bytes": len(ret.encode("utf-8"))}),
    ("cli", "main", None),
)

BOOKKEEPING = "trace.bookkeeping"


class Recorder:
    """In-memory span list of one command; single-threaded by design."""

    def __init__(self):
        self.spans = []  # [name, parent id, start, end, attrs]
        self.stack = []

    def wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, parent, 0.0, 0.0, {}])
            stack.append(sid)
            start = perf_counter()
            try:
                ret = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                spans[sid][2:] = [start, end, {"error": type(exc).__name__}]
                raise
            end = perf_counter()
            stack.pop()
            spans[sid][2:4] = [start, end]
            if attrs_fn is not None:
                spans[sid][4] = attrs_fn(args, kwargs, ret)
                # Counting is tracer work: give it its own span so that the
                # caller's self time does not absorb it.
                spans.append([BOOKKEEPING, parent, end, perf_counter(), {}])
            return ret

        return wrapper

    def dump(self, path, command_id):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "command": command_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end, "attrs": attrs,
                }) + "\n")


def install() -> Recorder:
    """Wrap every function in WRAPPED; rankgradient.cli must be imported."""
    recorder = Recorder()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "rankgradient" or n.startswith("rankgradient."))]
    for module_name, path, attrs_fn in WRAPPED:
        owner = sys.modules["rankgradient." + module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(f"{module_name}.{path}", original, attrs_fn)
        setattr(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return recorder


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics (in run.py)
# ---------------------------------------------------------------------------

# span name -> (self-time metric, call-count metric, {attr: count metric})
SELF_TIME = {
    "words.parse_presentation": ("words.parse_s", None, {}),
    "cosets.enumerate_cosets": ("cosets.enumerate_s", "cosets.enumerate_calls",
                                {"cosets_out": "cosets.enumerate_cosets_out"}),
    "cosets.low_index": ("cosets.low_index_s", None, {"tables": "cosets.low_index_tables"}),
    "cosets.with_schreier_spec": ("cosets.schreier_spec_s", "cosets.schreier_spec_calls", {}),
    "cosets.intersect": ("cosets.intersect_s", None,
                         {"cosets_out": "cosets.intersect_cosets_out"}),
    "cosets.normal_core": ("cosets.normal_core_s", None, {}),
    "cosets.canonicalize": ("cosets.canonicalize_s", None, {}),
    "cosets.validate": ("cosets.validate_s", None, {}),
    "subgroups.tietze_simplify": ("subgroups.tietze_s", "subgroups.tietze_calls", {
        "letters_in": "subgroups.tietze_letters_in",
        "gens_in": "subgroups.tietze_gens_in",
        "gens_out": "subgroups.tietze_gens_out",
    }),
    "subgroups.rewrite_presentation": ("subgroups.rewrite_s", None, {}),
    "subgroups.schreier_generators": ("subgroups.schreier_s", "subgroups.schreier_calls", {}),
    "subgroups.subgroup_abelianized_matrix": ("subgroups.matrix_s", None, {
        "rows": "subgroups.matrix_rows",
        "cols": "subgroups.matrix_cols",
        "nnz": "subgroups.matrix_nnz",
    }),
    "subgroups.rank_bounds": (None, None, {"gap": "subgroups.rank_gap"}),
    "homology.report_from_matrix": ("homology.report_s", "homology.report_calls", {
        "rows": "homology.rows_in", "nnz": "homology.nnz_in",
    }),
    "homology.smith_normal_form": ("homology.snf_s", None, {"cells": "homology.snf_cells"}),
    "chains.farber_chain": ("chains.build_s", None, {"levels": "chains.levels"}),
    "chains.hnn_chain": ("chains.build_s", None, {"levels": "chains.levels"}),
    "chains.lamplighter_chain": ("chains.build_s", None, {"levels": "chains.levels"}),
    "chains.gradient_sequence": ("chains.gradient_s", None, {}),
    "chains.report_to_json": ("chains.serialize_s", None, {}),
    "chains.report_to_csv": ("chains.serialize_s", None, {}),
    "graphings.minimize_graphing": ("graphings.minimize_s", None, {}),
    "graphings.is_l_graphing": ("graphings.lcheck_s", "graphings.lcheck_calls",
                                {"accepted": "graphings.lcheck_accepted"}),
    "towers.build_tower": ("towers.build_s", None, {"points": "towers.cover_points"}),
    "towers.finite_group_data": ("towers.group_data_s", None, {}),
    "towers.injectivity_radius": ("towers.radius_s", "towers.radius_calls", {}),
    "towers.verify_level": ("towers.verify_s", None, {}),
    "cli.emit": ("cli.emit_s", None, {"bytes": "cli.stdout_bytes"}),
    "cli.main": ("trace.unspanned_s", None, {}),
}

# Inclusive times: the span's whole duration, children included.
INCLUSIVE = {"subgroups.rank_bounds": "subgroups.rank_bounds_s"}

CACHE_METRICS = ("cache.hits", "cache.misses", "cache.read_s", "cache.write_s",
                 "cache.bytes_read", "cache.bytes_written")


def metric_names():
    names = set(INCLUSIVE.values()) | set(CACHE_METRICS)
    for time_metric, calls_metric, counts in SELF_TIME.values():
        names |= {time_metric, calls_metric} | set(counts.values())
    names.discard(None)
    return sorted(names)


def read_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans):
    """Per-layer totals over the spans of one or more commands."""
    out = dict.fromkeys(metric_names(), 0)
    child_time = {}
    bookkeeping = {}  # tracer time inside each span's subtree
    # A parent's id is smaller than its children's, so descending ids
    # visit every subtree before its root.
    for s in sorted(spans, key=lambda s: (s["command"], s["id"]), reverse=True):
        if s["parent"] is None:
            continue
        key = (s["command"], s["parent"])
        duration = s["end"] - s["start"]
        child_time[key] = child_time.get(key, 0.0) + duration
        inner = bookkeeping.get((s["command"], s["id"]), 0.0)
        if s["name"] == BOOKKEEPING:
            inner += duration
        bookkeeping[key] = bookkeeping.get(key, 0.0) + inner
    for s in spans:
        name, attrs = s["name"], s["attrs"]
        key = (s["command"], s["id"])
        duration = s["end"] - s["start"] - bookkeeping.get(key, 0.0)
        self_time = s["end"] - s["start"] - child_time.get(key, 0.0)
        if name == "cache.TableCache.enumerate":
            if attrs.get("hit"):
                out["cache.hits"] += 1
                out["cache.read_s"] += duration
                out["cache.bytes_read"] += attrs["bytes"]
            else:
                out["cache.misses"] += 1
                out["cache.write_s"] += self_time
                out["cache.bytes_written"] += attrs.get("bytes", 0)
            continue
        if name in INCLUSIVE:
            out[INCLUSIVE[name]] += duration
        if name not in SELF_TIME:
            continue
        time_metric, calls_metric, counts = SELF_TIME[name]
        if time_metric:
            out[time_metric] += self_time
        if calls_metric:
            out[calls_metric] += 1
        for attr, metric in counts.items():
            out[metric] += int(attrs.get(attr, 0))
    return out
