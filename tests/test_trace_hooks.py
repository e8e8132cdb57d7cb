"""The benchmark's span hooks still fit the library.

``perfbench/spans.py`` wraps named rankgradient functions and reads counts
off their arguments and return values, such as a relation matrix's
nonzeros as ``len(row) - row.count(0)``.  A renamed function, a changed
signature or a row format that breaks that count fails here.  The hooks
rebind module attributes, so they run in a subprocess of their own.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, os, sys

root, spans_path = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import rankgradient.cli as cli
import spans

recorder = spans.install()
codes, marks = [], [0]
for argv in (
    ["tower", "--group", "z2z2", "--mu", "1/2", "--depth", "1"],
    ["chain", "--preset", "fig8", "--depth", "3"],
    ["graphing", "--preset", "fig8", "--depth", "3", "--level", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    marks.append(len(recorder.spans))
recorder.dump(spans_path, "hooks")
recorded = spans.read_spans(spans_path)
tower, chain, graphing = (
    spans.layer_metrics([s for s in recorded if start <= s["id"] < end])
    for start, end in zip(marks, marks[1:])
)
print(json.dumps({"codes": codes, "tower": tower, "chain": chain, "graphing": graphing}))
"""


def test_span_hooks_wrap_and_count(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    for name in ("tower", "chain"):
        metrics = result[name]
        assert metrics["subgroups.matrix_nnz"] > 0
        assert metrics["homology.nnz_in"] >= metrics["subgroups.matrix_nnz"]
    # A tower's rank upper bound is the Kurosh count of its cover's orbits,
    # taken without rewriting or Tietze; the chain simplifies each level.
    assert result["tower"]["subgroups.tietze_calls"] == 0
    assert result["tower"]["subgroups.rewrite_s"] == 0
    assert result["chain"]["subgroups.tietze_calls"] == 4
    # graphing --preset fig8 --depth 3 --level 3: the seed's 3 labels meet
    # the homology floor 3, so minimization tries no candidate and the final
    # check is the only one.  Its loop image is enumerated once, after one
    # enumeration per chain level.
    graphing = result["graphing"]
    assert graphing["graphings.lcheck_calls"] == 1
    assert graphing["graphings.lcheck_accepted"] == 1
    assert graphing["cosets.enumerate_calls"] == 5
