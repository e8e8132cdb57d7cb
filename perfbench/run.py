"""Closed-loop benchmark of the rankgradient CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
One client runs the workload's CLI commands one after another, each in a
fresh single-threaded Python subprocess (perfbench/child.py); a command
starts only after the previous one has exited.  One pass runs the
workload's command list once.  After an unrecorded warm-up (the first
command, which writes the byte-code cache), passes repeat until
``--seconds`` have passed.  Every command's output is checked (checks.py);
a command fails if it exits non-zero or its output fails its check.

``--trace 0`` prints the end-to-end metrics of a pass:

  wall_s       spawn-to-exit time of the pass's commands, summed (mean over
               the passes); run.py's own work between commands is left out
  cpu_s        user + system CPU time of the pass's commands (mean)
  peak_rss_mb  largest peak RSS of any command of the pass (median)
  setup_s      time from spawn until ``rankgradient.cli.main`` is called,
               summed over a pass's commands (median per command times the
               commands per pass)

Times are scaled to a nominal machine speed (see REF_NOMINAL_S); the
unscaled values are printed on ``unscaled`` lines.  Resources come from each
child's own rusage (``os.wait4``).  ``error_rate`` (failed / attempted
commands) is printed too.

``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics of spans.py (unscaled medians over the traced passes),
the time in ``main`` outside every layer span, and the tracing overhead:
traced minus untraced median pass wall time.

A ``meta`` line records the seed, the generated inputs, the revision,
nproc, the Python version, the load average before and after, the
reference times and every pass.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# Tower search time depends strongly on the tower seed (3.6-6.0 s over
# seeds 0-10 on a 2-core box).  Runs made at different benchmark seeds must
# measure the same work, so tower_s3 always builds the seed-0 tower.
TOWER_SEED = 0
# The coset_search presentation: Z/n1 x Z/n2 x Z/n3 with each n_i in
# ABELIAN_FACTOR and n1*n2*n3 (the index of its trivial subgroup H) in
# ABELIAN_INDEX, so that the enumeration work is alike for every seed.
ABELIAN_INDEX = (7600, 8400)
ABELIAN_FACTOR = (16, 25)
# Times are reported at a nominal machine speed: multiplied by REF_NOMINAL_S
# over the mean time of reference.py, which runs after every command for at
# least REF_SHARE of that command's time.  On a shared 2-core box the raw
# time of one command drifted by up to 75% within minutes, and the
# reference drifts with it (spreads before and after scaling are recorded
# in baseline.json).
REF_NOMINAL_S = 0.2
REF_SHARE = 0.2
HELD_OUT_SEED = 7919  # not used while tuning; for confirming later claims
RUN_DEADLINE_S = 170.0  # no command may run past this point of a run

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Command:
    label: str
    argv: list
    check: Callable  # (report, reports of earlier commands by label) -> problems


@dataclass
class Result:
    command: Command
    spawned: float
    exited: float
    setup: float | None
    cpu: float
    rss_mb: float
    exit_code: int
    out_path: str
    err_path: str
    spans_path: str | None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def tower_s3(seed, run_dir, pass_dir, expected):
    return [Command("tower", ["tower", "--group", "s3", "--mu", "3/4", "--depth", "3",
                              "--seed", str(TOWER_SEED)],
                    lambda report, done: checks.check_tower(expected["tower_s3"], report))]


def fig8_chain(seed, run_dir, pass_dir, expected):
    return [Command("fig8_chain", ["chain", "--preset", "fig8", "--depth", "14"],
                    lambda report, done: checks.check_chain(expected["fig8_chain"], report))]


def abelian_factors(seed):
    """(n1, n2, n3) of the generated presentation."""
    lo, hi = ABELIAN_FACTOR
    candidates = [
        (a, b, c)
        for a in range(lo, hi + 1) for b in range(lo, hi + 1) for c in range(lo, hi + 1)
        if ABELIAN_INDEX[0] <= a * b * c <= ABELIAN_INDEX[1]
    ]
    return random.Random(f"coset_search:{seed}").choice(candidates)


def write_abelian(path, factors):
    n1, n2, n3 = factors
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# Z/{n1} x Z/{n2} x Z/{n3}; H is trivial, of index {n1 * n2 * n3}\n"
            "gens a b c\n"
            f"rel a^{n1}\nrel b^{n2}\nrel c^{n3}\n"
            "rel a b a^-1 b^-1\nrel a c a^-1 c^-1\nrel b c b^-1 c^-1\n"
            f"sub H a^{n1}\n"
        )


def coset_search(seed, run_dir, pass_dir, expected):
    factors = abelian_factors(seed)
    index = factors[0] * factors[1] * factors[2]
    source = os.path.join(run_dir, "abelian.txt")
    if not os.path.exists(source):
        write_abelian(source, factors)
    enum = ["enumerate", "--input", source, "--sub", "H",
            "--cache-dir", os.path.join(pass_dir, "cache")]
    return [
        Command("surface2_lowindex", ["lowindex", "--preset", "surface2", "--max", "4"],
                lambda r, d: checks.check_lowindex(expected["surface2_lowindex"], r)),
        Command("f2_chain", ["chain", "--preset", "f2", "--depth", "4"],
                lambda r, d: checks.check_chain(expected["f2_chain"], r)),
        Command("fig8_graphing",
                ["graphing", "--preset", "fig8", "--depth", "3", "--level", "3"],
                lambda r, d: checks.check_graphing(expected["fig8_graphing"], r)),
        Command("enumerate_cold", enum,
                lambda r, d: checks.check_enumerate(index, 0, 1, r)),
        Command("enumerate_warm", enum,
                lambda r, d: checks.check_enumerate(index, 1, 0, r, d.get("enumerate_cold"))),
    ]


WORKLOADS = {"tower_s3": tower_s3, "fig8_chain": fig8_chain, "coset_search": coset_search}


def workload_inputs(name, seed):
    """The generated inputs of a run, recorded with its results."""
    if name == "tower_s3":
        return {"tower_seed": TOWER_SEED}
    if name == "coset_search":
        return {"abelian_factors": abelian_factors(seed)}
    return {}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def child_env(spans_path=None, command_id=""):
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "PYTHONPYCACHEPREFIX": os.path.join(WORK_DIR, "pycache"),
    }
    if spans_path:
        env["PERFBENCH_SPANS"] = spans_path
        env["PERFBENCH_COMMAND"] = command_id
    return env


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, env, file_actions, deadline):
    """Run ``python3 <argv>`` to completion: (spawn time, exit time, status,
    the child's own rusage).  The child is killed at ``deadline``."""
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                         file_actions=file_actions)
    watchdog = threading.Timer(max(deadline - spawned, 1.0), _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    return spawned, time.monotonic(), status, usage


def run_reference(deadline):
    """Seconds, spawn to exit, of perfbench/reference.py."""
    spawned, exited, status, _ = spawn([REFERENCE], child_env(), [], deadline)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("the reference workload failed")
    return exited - spawned


def run_command(cmd, pass_dir, position, deadline, traced):
    out_path = os.path.join(pass_dir, f"{position}.out")
    err_path = os.path.join(pass_dir, f"{position}.err")
    spans_path = os.path.join(pass_dir, f"{position}.spans") if traced else None
    ready_r, ready_w = os.pipe()
    out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2),
                   (os.POSIX_SPAWN_DUP2, ready_w, 3)]
        env = child_env(spans_path, f"{position}:{cmd.label}")
        try:
            spawned, exited, status, usage = spawn([CHILD] + cmd.argv, env, actions, deadline)
        finally:
            os.close(ready_w)
            ready_w = None
        ready = os.read(ready_r, 64)
    finally:
        for fd in (ready_r, ready_w, out_fd, err_fd):
            if fd is not None:
                os.close(fd)
    return Result(
        command=cmd,
        spawned=spawned,
        exited=exited,
        setup=float(ready) - spawned if ready else None,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=os.waitstatus_to_exitcode(status),
        out_path=out_path,
        err_path=err_path,
        spans_path=spans_path,
    )


def check_results(results):
    """Problems per command, in order; an empty list means the command passed."""
    done = {}
    verdicts = []
    for res in results:
        if res.exit_code != 0:
            with open(res.err_path, encoding="utf-8", errors="replace") as fh:
                verdicts.append([f"exit code {res.exit_code}: {fh.read()[-300:].strip()}"])
            continue
        try:
            with open(res.out_path, encoding="utf-8") as fh:
                report = checks.parse_report(fh.read())
            problems = res.command.check(report, done)
            done[res.command.label] = report
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if res.setup is None:
            problems.append("no set-up time reported")
        verdicts.append(problems)
    return verdicts


@dataclass
class Pass:
    traced: bool
    wall: float
    results: list
    failed: int
    layers: dict | None


def run_pass(workload, seed, run_dir, expected, deadline, traced, refs=None, limit=None):
    """Run the workload's commands (the first ``limit`` of them) once.  With
    ``refs``, time the reference workload after each command into it, for at
    least REF_SHARE of the command's time."""
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=run_dir)
    try:
        commands = workload(seed, run_dir, pass_dir, expected)[:limit]
        results = []
        for position, cmd in enumerate(commands):
            res = run_command(cmd, pass_dir, position, deadline, traced)
            results.append(res)
            spent = 0.0
            while refs is not None and spent < REF_SHARE * (res.exited - res.spawned):
                refs.append(run_reference(deadline))
                spent += refs[-1]
        # Work of this process between commands is left out.
        wall = sum(r.exited - r.spawned for r in results)
        failed = 0
        for res, problems in zip(results, check_results(results)):
            if problems:
                failed += 1
                print(f"FAILED {res.command.label}: " + "; ".join(problems[:5]),
                      file=sys.stderr)
        layers = None
        if traced:
            records = []
            for res in results:
                if os.path.exists(res.spans_path):
                    records.extend(spans.read_spans(res.spans_path))
            layers = spans.layer_metrics(records)
        return Pass(traced, wall, results, failed, layers)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(passes, scale):
    """Times per pass (means over the passes) multiplied by ``scale``, and
    the median peak RSS."""
    setups = [r.setup for p in passes for r in p.results if r.setup is not None]
    return {
        "wall_s": statistics.fmean(p.wall for p in passes) * scale,
        "cpu_s": statistics.fmean(sum(r.cpu for r in p.results) for p in passes) * scale,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.results) for p in passes),
        "setup_s": (statistics.median(setups) * len(passes[0].results) * scale
                    if setups else 0.0),
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    names = spans.metric_names()
    out = {n: statistics.median(p.layers[n] for p in traced) for n in names}
    out["trace.overhead_s"] = 0.0
    if untraced:
        out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in untraced))
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "rankgradient", "cli.py")):
        print(f"error: no rankgradient sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    begun = time.monotonic()
    deadline = begun + RUN_DEADLINE_S
    expected = checks.load_expected()
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": workload_inputs(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_before": os.getloadavg(),
    }
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        # Every command imports the whole package, so one command writes
        # the byte-code cache for all of them.
        warm_up = run_pass(workload, args.seed, run_dir, expected, deadline,
                           traced=False, limit=1)
        passes = []
        refs = [] if args.trace else [run_reference(deadline)]
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            passes.append(run_pass(workload, args.seed, run_dir, expected, deadline, traced,
                                   None if args.trace else refs))
            now = time.monotonic()
            enough = now - start >= args.seconds and (not args.trace or len(passes) >= 2)
            if enough or now + passes[-1].wall > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    meta["loadavg_after"] = os.getloadavg()
    meta["reference_s"] = refs
    meta["warm_up_failed"] = warm_up.failed
    meta["passes"] = [
        {"traced": p.traced, "wall_s": p.wall, "failed": p.failed,
         "commands": [{"label": r.command.label, "wall_s": r.exited - r.spawned,
                       "setup_s": r.setup, "cpu_s": r.cpu, "rss_mb": r.rss_mb,
                       "exit": r.exit_code} for r in p.results]}
        for p in passes
    ]
    print("meta " + json.dumps(meta))

    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        values = per_layer(passes)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(passes, REF_NOMINAL_S / statistics.fmean(refs))
        units = E2E_UNITS
        for name, value in end_to_end(passes, 1.0).items():
            print(f"unscaled {name} {value!r} {units[name]}")
    print(f"error_rate {failed / attempted!r} ratio ({failed}/{attempted} commands)")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
