"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 bench/smoke_test.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both the untraced and the traced mode, and that the output checks count a
deliberately corrupted output as a failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(REPO, "src"), HERE]

from compacts import fileformats, incremental  # noqa: E402
from compacts.evaluator import NormState  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "hospital-run": {"full": 6, "half": 3},
    "datatrust-eval": {"full": 8, "half": 4},
    "peerreview-monitor": {"full": 10},
}
SEED = 7


def tiny_run(name: str, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name](sizes=TINY[name], variants={size: 1 for size in TINY[name]})
    return run.run_workload(name, SEED, 0.05, trace, workload=workload)


def printed(record: dict) -> tuple[dict, dict]:
    """(metric -> (value, unit)) from the human lines, and the JSON line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(record)
    lines = out.getvalue().splitlines()
    human = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()[:3]
            human[name] = (float(value), unit)
    return human, json.loads(lines[-1])


def declared(kind: str) -> list[dict]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[kind]


def _tampered_write_report(original):
    def write_report(report, path):
        row = report["instances"][0]
        row["state"] = "satisfied" if row["state"] != "satisfied" else "violated"
        return original(report, path)

    return write_report


def _tampered_apply_block(original, last_index: int):
    def apply_block(state, block):
        state = original(state, block)
        if block.header.index != last_index:
            return state
        key, inst = sorted(state.instances.items())[0]
        flipped = NormState.EXPIRED if inst.state is not NormState.EXPIRED else NormState.ACTIVE
        instances = dict(state.instances)
        instances[key] = dataclasses.replace(inst, state=flipped)
        return dataclasses.replace(state, instances=instances)

    return apply_block


class MetricsPrinted(unittest.TestCase):
    def test_end_to_end_metrics_printed_with_units(self):
        wanted = {m["name"]: m["unit"] for m in declared("end_to_end")}
        for name in TINY:
            with self.subTest(workload=name):
                human, result = printed(tiny_run(name, trace=False))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(wanted))
                for metric, unit in wanted.items():
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertGreater(result["metrics"][metric]["value"], 0)
                    self.assertEqual(human[metric][1], unit)
                self.assertEqual(human["failed_ops_frac"], (0.0, "fraction"))

    def test_per_layer_metrics_printed_with_units(self):
        wanted = {m["name"]: m["unit"] for m in declared("per_layer")}
        for name in TINY:
            with self.subTest(workload=name):
                human, result = printed(tiny_run(name, trace=True))
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(wanted))
                for metric, unit in wanted.items():
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertEqual(human[metric][1], unit)

    def test_traced_counts_repeat_at_one_seed(self):
        deterministic = (
            "ledger.nonces_tried", "ledger.blocks_verified", "validator.integrity_calls",
            "network.orphan_ratio", "evaluator.instances",
        )
        first = tiny_run("hospital-run", trace=True)["metrics"]
        second = tiny_run("hospital-run", trace=True)["metrics"]
        for metric in deterministic:
            self.assertEqual(first[metric], second[metric], metric)
        self.assertGreater(first["network.blocks_mined"]["value"], 0)


class CorruptionCounted(unittest.TestCase):
    def _assert_failures_counted(self, name: str) -> None:
        record = tiny_run(name, trace=False)
        self.assertGreater(record["failed"], 0)
        self.assertGreater(record["failed_ops_frac"], 0)
        human, result = printed(record)
        self.assertFalse(result["correct"])
        self.assertAlmostEqual(human["failed_ops_frac"][0], record["failed_ops_frac"], places=5)

    def test_tampered_report_instance_counts_as_failed(self):
        original = fileformats.write_report
        fileformats.write_report = _tampered_write_report(original)
        try:
            for name in ("hospital-run", "datatrust-eval"):
                with self.subTest(workload=name):
                    self._assert_failures_counted(name)
        finally:
            fileformats.write_report = original

    def test_tampered_monitor_state_counts_as_failed(self):
        original = incremental.apply_block
        probe = workloads.PeerreviewMonitor(sizes=TINY["peerreview-monitor"])
        probe.setup(SEED, os.path.join(REPO, ".bench_out"), {"full": 1})
        last_index = probe.inputs[(0, "full")].chain.height
        incremental.apply_block = _tampered_apply_block(original, last_index)
        try:
            self._assert_failures_counted("peerreview-monitor")
        finally:
            incremental.apply_block = original


if __name__ == "__main__":
    unittest.main()
