"""Spans and counters recorded around the calls into each layer of compacts.

Nothing inside the program is instrumented. A Tracer replaces a public
function at the module attribute its caller looks up (``compacts.network.
verify_chain`` is what run_network calls, ``compacts.ledger.validate_block``
what verify_chain calls) with a wrapper that records a span, and puts the
original back on uninstall. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Optional

# A counter hook gets the tracer, the call's positional arguments and its result.
Hook = Optional[Callable[["Tracer", tuple, object], None]]


def _mined(tracer: "Tracer", args: tuple, header) -> None:
    tracer.count("ledger.nonces_tried", header.nonce + 1)


def _network_result(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("network.rounds", result.rounds_used)
    tracer.count("network.final_chain_blocks", len(result.active_chain.blocks) - 1)


def _validated(tracer: "Tracer", args: tuple, rejection) -> None:
    tracer.distinct("ledger.distinct_blocks", args[1].header)


def _integrity(tracer: "Tracer", args: tuple, problems) -> None:
    tracer.count("validator.events_scanned", len(args[1]))
    if problems:
        tracer.count("validator.rejections")


def _schema(tracer: "Tracer", args: tuple, problems) -> None:
    if problems:
        tracer.count("validator.rejections")


def _evaluated(tracer: "Tracer", args: tuple, state) -> None:
    tracer.count("evaluator.instances", len(state.instances))
    tracer.count("evaluator.facts", len(state.facts))
    tracer.count("governance.activations", activations(state))


def _trust(tracer: "Tracer", args: tuple, rows) -> None:
    tracer.count("trust.rows", len(rows))


def _report_written(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("fileformats.report_bytes", os.path.getsize(args[1]))


# (module, attribute its caller looks up, span name, counter hook or None)
LAYER_CALLS: tuple[tuple[str, str, str, Hook], ...] = (
    ("compacts.cli", "parse_compact", "lang.parse", None),
    ("compacts.lang", "parse_compact", "lang.parse", None),
    ("compacts.cli", "check_well_formedness", "lang.check", None),
    ("compacts.lang", "check_well_formedness", "lang.check", None),
    ("compacts.evaluator", "check_well_formedness", "lang.check", None),
    ("compacts.fileformats", "read_chain", "fileformats.read", None),
    ("compacts.fileformats", "read_scenario", "fileformats.read", None),
    ("compacts.fileformats", "read_network_config", "fileformats.read", None),
    ("compacts.fileformats", "build_report", "fileformats.report", None),
    ("compacts.fileformats", "write_report", "fileformats.report", _report_written),
    ("compacts.cli", "run_network", "network.run", _network_result),
    ("compacts.network", "verify_chain", "ledger.verify", None),
    ("compacts.cli", "verify_chain", "ledger.verify", None),
    ("compacts.evaluator", "verify_chain", "ledger.verify", None),
    ("compacts.ledger", "validate_block", "ledger.validate_block", _validated),
    ("compacts.network", "mine_block", "ledger.mine", _mined),
    ("compacts.ledger", "mine_block", "ledger.mine", _mined),
    ("compacts.network", "validate_event_schema", "validator.schema", _schema),
    ("compacts.validator", "validate_event_schema", "validator.schema", _schema),
    ("compacts.network", "check_integrity", "validator.integrity", _integrity),
    ("compacts.validator", "check_integrity", "validator.integrity", _integrity),
    ("compacts.cli", "evaluate", "evaluator.evaluate", _evaluated),
    ("compacts.evaluator", "match_condition", "matching.match", None),
    ("compacts.incremental", "apply_block", "incremental.apply_block", None),
    ("compacts.evaluator", "counts_as_facts_for_event", "governance.counts_as", None),
    ("compacts.incremental", "counts_as_facts_for_event", "governance.counts_as", None),
    ("compacts.cli", "trust_report", "trust.report", _trust),
)


def activations(state) -> int:
    """Instances of norms whose create condition mentions a norm-state fact."""
    from compacts.lang import ast

    def on_state(cond) -> bool:
        if isinstance(cond, ast.NormStateFactPattern):
            return True
        if isinstance(cond, (ast.And, ast.Or, ast.Before)):
            return on_state(cond.left) or on_state(cond.right)
        return False

    governed = {norm.id for norm in state.spec.norms if on_state(norm.create)}
    return sum(1 for norm_id, _ in state.instances if norm_id in governed)


class Tracer:
    """Spans (name, start ns, end ns, parent span index, pass id) and counters."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, int, int, int, str]]] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._distinct: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.pass_id = ""

    # --- recording ------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[self.pass_id][name] += amount

    def distinct(self, name: str, key) -> None:
        seen = self._distinct[self.pass_id][name]
        if key not in seen:
            seen.add(key)
            self.counters[self.pass_id][name] += 1

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, hook: Hook = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id)
        if hook is not None:
            hook(self, args, result)
        return result

    def install(self) -> None:
        """Wrap every entry of LAYER_CALLS; uninstall() restores them."""
        for module_name, attr, name, hook in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, name: str, fn: Callable, hook: Hook) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        return traced

    # --- reading --------------------------------------------------------

    def layer_times(self, pass_id: str) -> dict[str, float]:
        """Seconds per span name in one pass, plus ``<name>.self`` seconds:
        span time minus the time its direct children cover."""
        totals: dict[str, float] = defaultdict(float)
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            totals[name] += (end - start) / 1e9
            totals[name + ".self"] += (end - start - child_ns[index]) / 1e9
        return totals

    def span_counts(self, pass_id: str) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name, _, _, _, pid in self.spans:
            if pid == pass_id:
                counts[name] += 1
        return counts

    def write(self, path: str) -> None:
        """All spans as gzip-compressed JSON lines, then the counters."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for index, (name, start, end, parent, pid) in enumerate(self.spans):
                span = {"id": index, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "pass": pid}
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"counters": self.counters}) + "\n")
