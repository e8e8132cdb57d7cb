"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 0-9] [--trace] [--out FILE]

Runs perfbench/run.py once per seed and workload (``run_seconds`` from
BENCHMARK.json) and prints, for each end-to-end metric, the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, next to a third of the metric's bound.  With
``--trace`` it also makes one traced run per workload at the first seed.
``--out`` writes every run's values and metadata, the summaries and the
traced per-layer values to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_run(spec, workload, seed, trace):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    result = json.loads(lines[-1])
    unscaled = {line.split()[1]: float(line.split()[2])
                for line in lines if line.startswith("unscaled ")}
    return {
        "seed": seed,
        "result": result,
        "values": {k: v["value"] for k, v in result["metrics"].items()},
        "unscaled": unscaled,
        "passes": len(meta["passes"]),
        "loadavg": [meta["loadavg_before"][0], meta["loadavg_after"][0]],
        "meta": {k: meta[k] for k in ("revision", "nproc", "python", "inputs")},
        "pass_wall_s": [p["wall_s"] for p in meta["passes"]],
        "reference_s": meta.get("reference_s", []),
    }


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=list(range(10)))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = bench_run(spec, workload, seed, 0)
            res = run["result"]
            print(f"{workload} seed {seed}: failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
            runs.append(run)
        summary = {}
        for name in bounds:
            stats = summarize([r["values"][name] for r in runs])
            summary[name] = stats
            verdict = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            if name == "setup_s":
                verdict = "(not bounded)"
            raw = summarize([r["unscaled"][name] for r in runs])
            print(f"  {name:12s} median {stats['median']:.4g} q1 {stats['q1']:.4g} "
                  f"q3 {stats['q3']:.4g} spread {stats['spread']:.4f} "
                  f"bound/3 {bounds[name] / 3:.4f} {verdict} "
                  f"(unscaled median {raw['median']:.4g} spread {raw['spread']:.4f})",
                  flush=True)
        entry = {"end_to_end": summary,
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "runs": [{k: v for k, v in r.items() if k != "result"} for r in runs]}
        if args.trace:
            traced = bench_run(spec, workload, args.seeds[0], 1)
            res = traced["result"]
            entry["traced"] = {"seed": args.seeds[0], "failed": res["failed"],
                               "attempted": res["attempted"], "per_layer": traced["values"]}
            print(f"  traced seed {args.seeds[0]}: failed {res['failed']}/{res['attempted']}",
                  flush=True)
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
