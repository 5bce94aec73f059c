"""Benchmark of the compacts pipeline: one workload per run, stdlib only.

    python3 bench/run.py --workload hospital-run --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):
  hospital-run        compacts run: gossip, mining, admission, verification
  datatrust-eval      compacts eval: batch evaluation and matching
  peerreview-monitor  validate_block + apply_block per block of a live chain

--trace 0 times untraced passes and reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes over the first input and
reports the per-layer metrics. Either way every pass is checked outside the
timed region, and the last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Details of the run (inputs,
git revision, interpreter, src/ line count) go to .bench_out/ in the
checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT_DIR = os.path.join(REPO, ".bench_out")
SETUP_REPEATS = 5  # set-ups timed per run: at least this many, for at least SETUP_SECONDS
SETUP_SECONDS = 1.0
MIN_CYCLES = 1  # timed cycles after the warm-up one, so every input runs at least twice
REFERENCE_SLOTS = 1 << 18
REFERENCE_STRIDE = 7919  # table keys are slot * stride, the layout the loop was tuned with
REFERENCE_STEPS = 60000
REFERENCE_SECONDS = 0.030  # one loop's time on the host the bounds were set on, when it ran fast

END_TO_END_UNITS = {
    "events_per_s": "events/s",
    "growth_x": "ratio",
    "block_ms.p50": "ms",
    "block_ms.p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "lang.parse_s": "s",
    "lang.check_s": "s",
    "fileformats.read_s": "s",
    "fileformats.report_s": "s",
    "fileformats.report_bytes": "bytes",
    "network.run_s": "s",
    "network.self_s": "s",
    "network.rounds": "count",
    "network.blocks_mined": "count",
    "network.orphan_ratio": "ratio",
    "network.chain_checks": "count",
    "ledger.verify_s": "s",
    "ledger.blocks_verified": "count",
    "ledger.reverify_ratio": "ratio",
    "ledger.validate_block_s": "s",
    "ledger.mine_s": "s",
    "ledger.nonces_tried": "count",
    "validator.schema_calls": "count",
    "validator.schema_s": "s",
    "validator.integrity_calls": "count",
    "validator.integrity_s": "s",
    "validator.events_scanned": "count",
    "validator.rejections": "count",
    "evaluator.evaluate_s": "s",
    "evaluator.instances": "count",
    "evaluator.facts": "count",
    "matching.calls": "count",
    "matching.match_s": "s",
    "incremental.apply_block_calls": "count",
    "incremental.apply_block_s": "s",
    "governance.counts_as_s": "s",
    "governance.activations": "count",
    "trust.report_s": "s",
    "trust.rows": "count",
    "trace.pass_s": "s",
    "trace.events_per_s": "events/s",
    "trace.untraced_events_per_s": "events/s",
    "trace.overhead_frac": "fraction",
}

# per-layer time metric -> span name summed for it
LAYER_TIMES = {
    "lang.parse_s": "lang.parse",
    "lang.check_s": "lang.check",
    "fileformats.read_s": "fileformats.read",
    "fileformats.report_s": "fileformats.report",
    "network.run_s": "network.run",
    "network.self_s": "network.run.self",
    "ledger.verify_s": "ledger.verify",
    "ledger.validate_block_s": "ledger.validate_block",
    "ledger.mine_s": "ledger.mine",
    "validator.schema_s": "validator.schema",
    "validator.integrity_s": "validator.integrity",
    "evaluator.evaluate_s": "evaluator.evaluate",
    "matching.match_s": "matching.match",
    "incremental.apply_block_s": "incremental.apply_block",
    "governance.counts_as_s": "governance.counts_as",
    "trust.report_s": "trust.report",
}

# per-layer count metric -> span name counted for it
LAYER_CALL_COUNTS = {
    "ledger.blocks_verified": "ledger.validate_block",
    "validator.schema_calls": "validator.schema",
    "validator.integrity_calls": "validator.integrity",
    "matching.calls": "matching.match",
    "incremental.apply_block_calls": "incremental.apply_block",
}

HOOK_COUNTS = (
    "fileformats.report_bytes",
    "network.rounds",
    "ledger.nonces_tried",
    "validator.events_scanned",
    "validator.rejections",
    "evaluator.instances",
    "evaluator.facts",
    "governance.activations",
    "trust.rows",
)


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _provenance() -> dict:
    """What the numbers were measured on: revision, interpreter, machine, code size."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(REPO)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src_lines = 0
    tree = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(REPO, "src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as handle:
                    data = handle.read()
                src_lines += data.count(b"\n")
                tree.update(name.encode() + b"\0" + data)
    return {
        "git_rev": rev,
        "src_sha256": tree.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


class ReferenceLoop:
    """Measures how fast the host runs right now, to turn wall seconds into
    reference seconds.

    The host's speed drifts by up to 2x over minutes. That drift is far
    larger than the changes the benchmark must resolve. The loop times
    random lookups in a dict of 2^18 int keys to strings, about 30 MB. It is
    a fixed pure-Python loop that slows with the host's cache and memory
    contention much as the workloads do. It never calls compacts, so a
    change to the program cannot move it. Its table is allocated only after
    peak RSS is read.
    """

    def __init__(self) -> None:
        self.table = {slot * REFERENCE_STRIDE: str(slot) for slot in range(REFERENCE_SLOTS)}

    def seconds(self) -> float:
        table, mask = self.table, REFERENCE_SLOTS - 1
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            slot, total = 1, 0
            for _ in range(REFERENCE_STEPS):
                slot = (slot * 1103515245 + 12345) & mask
                total += len(table[slot * REFERENCE_STRIDE])
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def _run_passes(cycle: list, seconds: float, run_one, reference: ReferenceLoop) -> tuple[list, float]:
    """Run the cycle's steps in turn until the time is spent, and the whole
    cycle at least MIN_CYCLES times.

    The reference loop runs before every pass and once after the last. Each
    pass's scale is REFERENCE_SECONDS over the mean of the loop times just
    before and after it. Returns the passes and the run's scale,
    REFERENCE_SECONDS over the median loop time of the run.
    """
    deadline = time.perf_counter() + seconds
    passes = []
    samples = [reference.seconds()]
    rounds = 0
    while rounds < MIN_CYCLES or time.perf_counter() < deadline:
        for step in cycle:
            if rounds >= MIN_CYCLES and time.perf_counter() >= deadline:
                break
            done = run_one(step)
            samples.append(reference.seconds())
            done.scale = REFERENCE_SECONDS / ((samples[-2] + samples[-1]) / 2)
            passes.append(done)
        rounds += 1
    return passes, REFERENCE_SECONDS / median(samples)


def _checked(workload, done):
    done.failed = workload.check(done)
    return done


def end_to_end(workload, seed: int, seconds: float, workdir: str) -> tuple[dict, list, dict]:
    def run_one(step):
        return _checked(workload, workload.run_pass(*step))

    workload.setup(seed, workdir, workload.variants)
    warmup = [run_one(key) for key in sorted(workload.inputs)]
    peak_rss_mb = _peak_rss_mb()
    reference = ReferenceLoop()
    setup_times: list[float] = []
    setup_deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() < setup_deadline:
        reference_seconds = reference.seconds()
        start = time.perf_counter()
        workload.setup(seed, workdir, workload.variants)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * REFERENCE_SECONDS / reference_seconds)
    passes, scale = _run_passes(workload.cycle(), seconds, run_one, reference)

    def med(key: tuple[int, str], attr: str) -> float:
        return median([getattr(p, attr) for p in passes if (p.variant, p.size) == key])

    full = [key for key in workload.inputs if key[1] == "full"]
    half = [key for key in workload.inputs if key[1] == "half"]
    full_seconds = sum(med(key, "seconds") for key in full)
    events = sum(workload.inputs[key].events for key in full)
    full_work = fmean([med(key, "work_seconds") for key in full])
    if half:
        half_work = fmean([med(key, "work_seconds") for key in half])
    else:
        half_work = fmean([med(key, "first_half_seconds") for key in full])
    # Throughput is a median over whole passes and takes the run's scale. A
    # latency sample belongs to one pass and takes that pass's scale, so a
    # slow moment in the run does not stretch the tail.
    samples = [ms * p.scale for p in passes if p.size == "full" for ms in p.block_ms]
    metrics = {
        "events_per_s": events / (full_seconds * scale),
        "growth_x": full_work / half_work,
        "block_ms.p50": _percentile(samples, 0.50),
        "block_ms.p95": _percentile(samples, 0.95),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "block_ms_samples": len(samples),
        "setup_repeats": len(setup_times),
        "warmup_passes": len(warmup),
        "reference_scale": round(scale, 4),
        "events_per_wall_s": round(events / full_seconds, 3),
    }
    return ({name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
            warmup + passes, notes)


def per_layer(workload, seed: int, seconds: float, workdir: str, tracer) -> tuple[dict, list, dict]:
    from tracing import activations

    tracer.pass_id = "setup"
    tracer.install()
    try:
        tracer.call("setup", workload.setup, (seed, workdir, {"full": 1}), {})
    finally:
        tracer.uninstall()
    traced_ids = []

    def run_one(step):
        traced = step == "traced"
        if traced:
            tracer.pass_id = f"traced-{len(traced_ids)}"
            traced_ids.append(tracer.pass_id)
            tracer.install()
            try:
                done = tracer.call("pass", workload.run_pass, (0, "full"), {})
            finally:
                tracer.uninstall()
            if "state" in done.outputs:
                tracer.count("governance.activations", activations(done.outputs["state"]))
        else:
            done = workload.run_pass(0, "full")
        done.outputs["traced"] = tracer.pass_id if traced else None
        return _checked(workload, done)

    warmup = run_one("untraced")
    reference = ReferenceLoop()
    passes, scale = _run_passes(["untraced", "traced"], seconds, run_one, reference)
    traced = [p for p in passes if p.outputs["traced"]]
    setup_times = tracer.layer_times("setup")
    pass_times = [tracer.layer_times(p.outputs["traced"]) for p in traced]
    first = traced_ids[0]
    calls = tracer.span_counts("setup")
    for name, count in tracer.span_counts(first).items():
        calls[name] += count
    counters = {name: tracer.counters["setup"].get(name, 0) + tracer.counters[first].get(name, 0)
                for name in HOOK_COUNTS + ("network.final_chain_blocks", "ledger.distinct_blocks")}
    metrics = {
        name: (setup_times.get(span, 0.0) + median([times.get(span, 0.0) for times in pass_times])) * scale
        for name, span in LAYER_TIMES.items()
    }
    metrics.update({name: calls.get(span, 0) for name, span in LAYER_CALL_COUNTS.items()})
    metrics.update({name: counters[name] for name in HOOK_COUNTS})
    mined_in_pass = tracer.span_counts(first).get("ledger.mine", 0)
    metrics["network.blocks_mined"] = mined_in_pass
    metrics["network.orphan_ratio"] = (
        (mined_in_pass - counters["network.final_chain_blocks"]) / mined_in_pass if mined_in_pass else 0.0
    )
    metrics["network.chain_checks"] = _child_calls(tracer, first, "network.run", "ledger.verify")
    distinct = counters["ledger.distinct_blocks"]
    metrics["ledger.reverify_ratio"] = metrics["ledger.blocks_verified"] / distinct if distinct else 0.0
    events = workload.inputs[(0, "full")].events
    traced_s = median([p.seconds for p in traced]) * scale
    untraced_s = median([p.seconds for p in passes if not p.outputs["traced"]]) * scale
    metrics["trace.pass_s"] = traced_s
    metrics["trace.events_per_s"] = events / traced_s
    metrics["trace.untraced_events_per_s"] = events / untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    block_s = median([p.work_seconds for p in traced]) * scale
    notes = {
        "traced_passes": len(traced_ids),
        "reference_scale": round(scale, 4),
        "spans": len(tracer.spans),
        "stress": _stress_share(workload, metrics, block_s),
    }
    return {name: (metrics[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}, [warmup] + passes, notes


def _child_calls(tracer, pass_id: str, parent_name: str, child_name: str) -> int:
    spans = tracer.spans
    return sum(
        1 for name, _, _, parent, pid in spans
        if pid == pass_id and name == child_name and parent >= 0 and spans[parent][0] == parent_name
    )


def _stress_share(workload, metrics: dict, block_s: float) -> str:
    """The layer each workload is meant to stress, as a share of its base."""
    if workload.name == "hospital-run":
        return f"network.run_s = {metrics['network.run_s'] / metrics['trace.pass_s']:.1%} of pass time"
    if workload.name == "datatrust-eval":
        return f"evaluator.evaluate_s = {metrics['evaluator.evaluate_s'] / metrics['trace.pass_s']:.1%} of pass time"
    return f"incremental.apply_block_s = {metrics['incremental.apply_block_s'] / block_s:.1%} of block time"


def run_workload(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Run one workload and return the result record (metrics and provenance)."""
    import workloads
    from tracing import Tracer

    if workload is None:
        workload = workloads.WORKLOADS[name]()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    tracer = Tracer() if trace else None
    try:
        if trace:
            metrics, passes, notes = per_layer(workload, seed, seconds, workdir, tracer)
        else:
            metrics, passes, notes = end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "inputs": [
            {"variant": variant, "size": size, "events": item.events, "blocks": item.blocks,
             "entities": item.entities}
            for (variant, size), item in sorted(workload.inputs.items())
        ],
        "notes": notes,
        "pass_seconds": [
            [p.variant, p.size, round(p.seconds, 6), round(p.scale, 6)]
            for p in passes
        ],
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
        **_provenance(),
    }
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl.gz")
    return record


def print_result(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']} git_rev={record['git_rev']} python={record['python']} "
          f"nproc={record['nproc']} src_lines={record['src_lines']}")
    for item in record["inputs"]:
        print(f"# input v{item['variant']} {item['size']}: {item['events']} events, "
              f"{item['blocks']} blocks, {item['entities']} entities")
    for key, value in record["notes"].items():
        print(f"# {key}: {value}")
    for metric, entry in record["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ops_frac {record['failed_ops_frac']:.6g} fraction "
          f"({record['failed']} of {record['attempted']} operations)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("hospital-run", "datatrust-eval", "peerreview-monitor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, "src", "compacts")) or not os.path.isdir(os.path.join(REPO, "demos")):
        print(f"error: no compacts sources under {REPO}/src and demos/", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(REPO, "src"), HERE]

    print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
