"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one tower command, the fig8 chain and the cold/warm enumeration pair
once each, then feeds their real outputs and tampered copies through the
same check the benchmark uses (run.check_results).  A loosened rank_upper,
a b1p off by one, changed perms or wrong cache counters must count as a
failed command; a tightened upper bound or a changed config echo must not.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import tempfile
import time
import unittest

import checks
import run


class TamperedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        cls.dir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
        expected = checks.load_expected()
        commands = (
            run.tower_s3(0, cls.dir, cls.dir, expected)
            + run.fig8_chain(0, cls.dir, cls.dir, expected)
            + run.coset_search(0, cls.dir, cls.dir, expected)[3:]
        )
        deadline = time.monotonic() + run.RUN_DEADLINE_S
        cls.results = {
            cmd.label: run.run_command(cmd, cls.dir, i, deadline, traced=False)
            for i, cmd in enumerate(commands)
        }
        cls.outputs = {}
        for label, res in cls.results.items():
            with open(res.out_path, encoding="utf-8") as fh:
                cls.outputs[label] = json.load(fh)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def failures(self, tampered):
        """Commands counted as failed when outputs are replaced by ``tampered``."""
        results = []
        for label, res in self.results.items():
            path = res.out_path + ".tampered"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tampered.get(label, self.outputs[label]), fh, indent=2)
            results.append(dataclasses.replace(res, out_path=path))
        verdicts = run.check_results(results)
        return [res.command.label for res, problems in zip(results, verdicts) if problems]

    def tamper(self, label, edit):
        out = copy.deepcopy(self.outputs[label])
        edit(out["report"], out)
        return {label: out}

    def test_untampered_outputs_pass(self):
        self.assertEqual(self.failures({}), [])

    def test_loosened_tower_rank_upper_fails(self):
        def edit(report, _):
            report["levels"][2]["computed"]["rank_interval"][1] += 1
        self.assertEqual(self.failures(self.tamper("tower", edit)), ["tower"])

    def test_tower_b1p_off_by_one_fails(self):
        def edit(report, _):
            report["levels"][0]["computed"]["b1p"]["2"] -= 1
        self.assertEqual(self.failures(self.tamper("tower", edit)), ["tower"])

    def test_loosened_chain_rank_upper_fails(self):
        def edit(report, _):
            report["levels"][-1]["rank_upper"] += 1
        self.assertEqual(self.failures(self.tamper("fig8_chain", edit)), ["fig8_chain"])

    def test_chain_b1p_off_by_one_fails(self):
        def edit(report, _):
            report["levels"][5]["b1p"]["3"] += 1
        self.assertEqual(self.failures(self.tamper("fig8_chain", edit)), ["fig8_chain"])

    def test_tightened_upper_bound_passes(self):
        def edit(report, _):
            interval = report["levels"][1]["computed"]["rank_interval"]
            interval[1] = max(interval[0], interval[1] - 1)
        self.assertEqual(self.failures(self.tamper("tower", edit)), [])

    def test_changed_config_echo_passes(self):
        def edit(_, out):
            out["config"].pop("jobs")
            out["version"] = "0.2.0"
        self.assertEqual(self.failures(self.tamper("fig8_chain", edit)), [])

    def test_warm_perms_differing_from_cold_fail(self):
        def edit(report, _):
            perm = report["perms"]["a"]
            perm[0], perm[1] = perm[1], perm[0]
        self.assertEqual(self.failures(self.tamper("enumerate_warm", edit)), ["enumerate_warm"])

    def test_warm_run_reporting_a_miss_fails(self):
        def edit(report, _):
            report["cache"].update(hits=0, misses=1)
        self.assertEqual(self.failures(self.tamper("enumerate_warm", edit)), ["enumerate_warm"])


if __name__ == "__main__":
    unittest.main()
