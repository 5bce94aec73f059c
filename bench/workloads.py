"""The three benchmark workloads: inputs, one timed pass, untimed checks.

A workload sets up several independent inputs from one seed, at full size
and, for the CLI workloads, at half size, so that one run averages over
several gossip schedules and event layouts rather than one. A pass runs
one input through the program's public entry points and returns its
timing; ``check`` then decides, outside every timed region, whether that
pass's outputs are right, and returns how many of its operations failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from compacts import cli, evaluator, fileformats, incremental, lang, ledger
from compacts.governance import Organization, ruleset_from_spec

import generators

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Pass:
    """One timed pass over one input."""

    variant: int
    size: str  # "full" or "half"
    seconds: float  # wall time of the pass
    work_seconds: float  # the part growth_x compares: the pass, or its blocks
    ops: int  # operations attempted: 1 per CLI pass, 1 per monitored block
    block_ms: list[float] = field(default_factory=list)
    first_half_seconds: Optional[float] = None  # monitor: blocks of the first half
    rc: int = 0
    outputs: dict = field(default_factory=dict)
    failed: int = 0
    scale: float = 1.0  # reference seconds per wall second around this pass


@dataclass
class Input:
    """One generated input as the program receives it, plus what checks need."""

    events: int
    blocks: int
    entities: int
    files: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    chain: Optional[ledger.Chain] = None


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _instance_table(state) -> list:
    rows = [fileformats.instance_to_json(i) for i in state.instances_in_order()]
    return json.loads(json.dumps(rows))


def _fold(spec, org, chain: ledger.Chain):
    """State after folding apply_block over the chain's blocks."""
    state = incremental.initial_state(spec, org)
    for block in chain.blocks[1:]:
        state = incremental.apply_block(state, block)
    return state


def _variant_seeds(seed: int, variants: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(variants)]


class Workload:
    name = ""
    spec_file = ""
    sizes: dict[str, int] = {}  # size name -> patients, subjects or papers
    variants: dict[str, int] = {}  # size name -> how many independent inputs of that size

    def __init__(self, sizes: Optional[dict[str, int]] = None, variants: Optional[dict[str, int]] = None):
        if sizes is not None:
            self.sizes = sizes
        if variants is not None:
            self.variants = variants
        self.inputs: dict[tuple[int, str], Input] = {}
        self._digests: dict[tuple[int, str], str] = {}
        self._expected: dict[str, object] = {}

    def setup(self, seed: int, workdir: str, variants: dict[str, int]) -> None:
        """Parse and check the compact, then generate ``variants[size]``
        inputs of each size. Variant k of every size shares one seed."""
        with open(os.path.join(REPO, "demos", self.spec_file), encoding="utf-8") as handle:
            self.spec = lang.parse_compact(handle.read())
        errors = [d for d in lang.check_well_formedness(self.spec) if d.severity == "error"]
        if errors:
            raise ValueError(f"{self.spec_file} is ill-formed: {errors[0].message}")
        self.rules = ruleset_from_spec(self.spec)
        self.inputs = {}
        seeds = _variant_seeds(seed, max(variants.values()))
        for size, count in variants.items():
            for variant in range(count):
                stem = os.path.join(workdir, f"v{variant}-{size}")
                self.inputs[(variant, size)] = self.make_input(seeds[variant], self.sizes[size], stem)

    def cycle(self) -> list[tuple[int, str]]:
        return sorted(self.inputs)

    def org(self, item: Input) -> Organization:
        return Organization.make(self.spec.context, item.config["roles"])

    def make_input(self, seed: int, count: int, stem: str) -> Input:
        raise NotImplementedError

    def run_pass(self, variant: int, size: str) -> Pass:
        raise NotImplementedError

    def check(self, done: Pass) -> int:
        raise NotImplementedError

    def _run_cli(self, variant: int, size: str, argv: list[str]) -> Pass:
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
        return Pass(variant, size, seconds, seconds, ops=1, rc=rc)

    def _stable_report(self, done: Pass) -> Optional[dict]:
        """The pass's report if the command succeeded and its bytes match
        every earlier pass over the same input; None otherwise."""
        path = self.inputs[(done.variant, done.size)].files["report"]
        if done.rc != 0 or not os.path.exists(path):
            return None
        digest = _digest(path)
        if self._digests.setdefault((done.variant, done.size), digest) != digest:
            return None
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


class HospitalRun(Workload):
    """``compacts run`` on generated hospital scenarios: gossip, mining,
    admission and chain verification at the demo target, then evaluation."""

    name = "hospital-run"
    spec_file = "hospital.cpt"
    sizes = {"full": 40, "half": 20}
    # Forks weigh more in the half-size network run, so its work varies more
    # from input to input than the full size's; growth_x averages over six.
    variants = {"full": 1, "half": 6}

    def cycle(self) -> list[tuple[int, str]]:
        """The full-size input before every second half-size one, so both
        sizes are timed across the whole run."""
        steps: list[tuple[int, str]] = []
        for index, key in enumerate(key for key in sorted(self.inputs) if key[1] == "half"):
            if index % 2 == 0:
                steps.append((0, "full"))
            steps.append(key)
        return steps

    def make_input(self, seed: int, count: int, stem: str) -> Input:
        lines, config = generators.hospital_inputs(seed, count)
        files = {
            "scenario": stem + ".scenario.jsonl",
            "net": stem + ".net.json",
            "report": stem + ".report.json",
            "chain_out": stem + ".chain.json",
        }
        with open(files["scenario"], "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(line) + "\n" for line in lines)
        _write_json(files["net"], config)
        return Input(events=len(lines), blocks=0, entities=count, files=files, config=config)

    def run_pass(self, variant: int, size: str) -> Pass:
        files = self.inputs[(variant, size)].files
        for stale in (files["report"], files["chain_out"]):
            if os.path.exists(stale):
                os.remove(stale)
        done = self._run_cli(variant, size, [
            "run", "--spec", os.path.join(REPO, "demos", self.spec_file),
            "--scenario", files["scenario"], "--net", files["net"],
            "--out", files["report"], "--chain-out", files["chain_out"],
        ])
        if done.rc == 0:
            chain_blocks = fileformats.read_chain(files["chain_out"]).height
            self.inputs[(variant, size)].blocks = chain_blocks
            done.block_ms = [done.seconds * 1e3 / max(1, chain_blocks)]
        return done

    def check(self, done: Pass) -> int:
        report = self._stable_report(done)
        if report is None or not report.get("network", {}).get("converged"):
            return 1
        item = self.inputs[(done.variant, done.size)]
        key = _digest(item.files["chain_out"])
        if key not in self._expected:
            self._expected[key] = self._expected_table(item)
        return 0 if report["instances"] == self._expected[key] else 1

    def _expected_table(self, item: Input) -> Optional[list]:
        """Instance table of the written chain if it passes full verification."""
        chain = fileformats.read_chain(item.files["chain_out"])
        org = self.org(item)
        roster = {p["id"]: p["secret"] for p in item.config["principals"]}
        bad = ledger.verify_chain(
            chain, target=generators.DEMO_TARGET, roster=roster, rules=self.rules,
            roles_of=org.roles_of,
        )
        if bad is not None:
            return None
        return _instance_table(_fold(self.spec, org, chain))


class DatatrustEval(Workload):
    """``compacts eval`` of a chain snapshot mined at EASY_TARGET: the batch
    evaluator and matching, with structure-only verification."""

    name = "datatrust-eval"
    spec_file = "datatrust.cpt"
    sizes = {"full": 60, "half": 30}
    variants = {"full": 3, "half": 3}

    def make_input(self, seed: int, count: int, stem: str) -> Input:
        blocks, config = generators.datatrust_inputs(seed, count)
        chain = ledger.Chain(blocks=(ledger.GENESIS_BLOCK,) + tuple(blocks))
        files = {"chain": stem + ".chain.json", "net": stem + ".net.json", "report": stem + ".report.json"}
        fileformats.write_chain(chain, files["chain"])
        _write_json(files["net"], config)
        events = sum(len(block.events) for block in blocks)
        return Input(events=events, blocks=len(blocks), entities=count, files=files, config=config, chain=chain)

    def run_pass(self, variant: int, size: str) -> Pass:
        item = self.inputs[(variant, size)]
        if os.path.exists(item.files["report"]):
            os.remove(item.files["report"])
        done = self._run_cli(variant, size, [
            "eval", "--chain", item.files["chain"],
            "--spec", os.path.join(REPO, "demos", self.spec_file),
            "--net", item.files["net"], "--out", item.files["report"],
        ])
        done.block_ms = [done.seconds * 1e3 / item.blocks]
        return done

    def check(self, done: Pass) -> int:
        report = self._stable_report(done)
        if report is None:
            return 1
        key = f"{done.variant}-{done.size}"
        if key not in self._expected:
            item = self.inputs[(done.variant, done.size)]
            self._expected[key] = _instance_table(_fold(self.spec, self.org(item), item.chain))
        return 0 if report["instances"] == self._expected[key] else 1


class PeerreviewMonitor(Workload):
    """A live monitor: validate_block then apply_block for each block of a
    chain mined at the demo target; one latency sample per block."""

    name = "peerreview-monitor"
    spec_file = "peerreview.cpt"
    sizes = {"full": 80}
    variants = {"full": 1}

    def make_input(self, seed: int, count: int, stem: str) -> Input:
        blocks, config = generators.peerreview_inputs(seed, count)
        chain = ledger.Chain(blocks=(ledger.GENESIS_BLOCK,) + tuple(blocks))
        events = sum(len(block.events) for block in blocks)
        return Input(events=events, blocks=len(blocks), entities=count, config=config, chain=chain)

    def run_pass(self, variant: int, size: str) -> Pass:
        item = self.inputs[(variant, size)]
        org = self.org(item)
        roster = {p["id"]: p["secret"] for p in item.config["principals"]}
        target = int(item.config["target"], 16)
        blocks = item.chain.blocks[1:]
        half = len(blocks) // 2
        latencies = []
        rejected = 0
        start = time.perf_counter()
        state = incremental.initial_state(self.spec, org)
        prefix = ledger.genesis_chain()
        for block in blocks:
            begin = time.perf_counter()
            rejection = ledger.validate_block(prefix, block, target, roster, self.rules, org.roles_of)
            state = incremental.apply_block(state, block)
            latencies.append(time.perf_counter() - begin)
            rejected += rejection is not None
            prefix = prefix.extend(block)
        seconds = time.perf_counter() - start
        done = Pass(
            variant, size, seconds, sum(latencies), ops=len(blocks),
            block_ms=[t * 1e3 for t in latencies], first_half_seconds=sum(latencies[:half]),
        )
        done.outputs = {"rejected": rejected, "state": state}
        return done

    def check(self, done: Pass) -> int:
        key = str(done.variant)
        if key not in self._expected:
            item = self.inputs[(done.variant, done.size)]
            batch = evaluator.evaluate(item.chain, self.spec, self.org(item))
            self._expected[key] = _instance_table(batch)
        if _instance_table(done.outputs.pop("state")) != self._expected[key]:
            return done.ops
        return done.outputs["rejected"]


WORKLOADS = {w.name: w for w in (HospitalRun, DatatrustEval, PeerreviewMonitor)}
