"""Value checks on the JSON reports of benchmark commands.

Each check compares the values a command reports with reference values
recorded from the program (``expected.json``), never bytes: the config echo
may change on purpose without the answer changing.  Exact quantities
(index, beta1, b1p, rank_lower, counts, truncation marker) must match;
upper bounds (rank_upper, a graphing's rank_bound) may only tighten.
Every check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(path=EXPECTED_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_report(text):
    """The ``report`` body of a JSON CLI output."""
    return json.loads(text)["report"]


def _compare(problems, where, key, got, want):
    if got != want:
        problems.append(f"{where}: {key} {got!r}, expected {want!r}")


def _upper(problems, where, key, got, ceiling, floor):
    if not isinstance(got, int) or not floor <= got <= ceiling:
        problems.append(f"{where}: {key} {got!r} outside [{floor}, {ceiling}]")


def check_chain(ref, report):
    problems = []
    chain = report.get("chain", {})
    _compare(problems, "chain", "truncated", chain.get("truncated"), ref["truncated"])
    _compare(problems, "chain", "indices", chain.get("indices"), ref["indices"])
    levels = report.get("levels", [])
    _compare(problems, "chain", "level count", len(levels), len(ref["levels"]))
    for got, want in zip(levels, ref["levels"]):
        where = f"level {want['level']}"
        if "error" in got:
            problems.append(f"{where}: error {got['error']!r}")
            continue
        for key in ("level", "index", "beta1", "b1p", "rank_lower"):
            _compare(problems, where, key, got.get(key), want[key])
        _upper(problems, where, "rank_upper", got.get("rank_upper"),
               want["rank_upper"], want["rank_lower"])
    return problems


def check_tower(ref, report):
    problems = []
    levels = report.get("levels", [])
    _compare(problems, "tower", "level count", len(levels), len(ref["levels"]))
    for i, (got, want) in enumerate(zip(levels, ref["levels"])):
        where = f"tower level {i}"
        computed = got.get("computed", {})
        _compare(problems, where, "n", got.get("n"), want["n"])
        _compare(problems, where, "p", got.get("p"), want["p"])
        _compare(problems, where, "index", computed.get("index"), got.get("n"))
        _compare(problems, where, "beta1", computed.get("beta1"), want["beta1"])
        _compare(problems, where, "b1p", computed.get("b1p"), want["b1p"])
        _compare(problems, where, "b1p_match", got.get("b1p_match"), True)
        _compare(problems, where, "beta1_formula", got.get("beta1_formula"), "n-p+1")
        lower, upper = (computed.get("rank_interval") or [None, None])[:2]
        _compare(problems, where, "rank_lower", lower, want["rank_lower"])
        _upper(problems, where, "rank_upper", upper, want["rank_upper"], want["rank_lower"])
        try:
            d = Fraction(got["predicted"]["d"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"{where}: no predicted d")
            continue
        if lower is None or upper is None or not lower <= d <= upper:
            problems.append(f"{where}: predicted d {d} outside [{lower}, {upper}]")
    return problems


def check_lowindex(ref, report):
    problems = []
    _compare(problems, "lowindex", "counts", report.get("counts"), ref["counts"])
    _compare(problems, "lowindex", "total", report.get("total"), sum(ref["counts"].values()))
    return problems


def check_graphing(ref, report):
    problems = []
    for key in ("level", "index"):
        _compare(problems, "graphing", key, report.get(key), ref[key])
    _upper(problems, "graphing", "rank_bound", report.get("rank_bound"), ref["rank_bound"], 1)
    return problems


def check_enumerate(index, hits, misses, report, cold=None):
    """A cache-backed enumeration of a subgroup of known index; ``cold`` is
    the report of the earlier run that filled the cache, if any."""
    problems = []
    _compare(problems, "enumerate", "index", report.get("index"), index)
    cache = report.get("cache", {})
    _compare(problems, "enumerate", "hits/misses",
             (cache.get("hits"), cache.get("misses")), (hits, misses))
    perms = report.get("perms", {})
    for name, perm in perms.items():
        if sorted(perm) != list(range(index)):
            problems.append(f"enumerate: generator {name} does not permute {index} cosets")
    if cold is not None and perms != cold.get("perms"):
        problems.append("enumerate: warm perms differ from cold perms")
    return problems
