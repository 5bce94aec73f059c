"""The benchmark's traced run wraps layer functions at named module
attributes; every one of them must exist, or `bench/run.py --trace 1` fails,
and must be called, or its layer's spans and counters read zero."""

import importlib
import importlib.util
from collections import Counter

import pytest

from conftest import REPO


def _layer_calls():
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_CALLS


@pytest.mark.parametrize("module, attribute", [(m, a) for m, a, _, _ in _layer_calls()])
def test_benchmark_hook_point_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


def _counting(calls: Counter, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_every_benchmark_hook_point_is_called(monkeypatch, tmp_path):
    # one checked pass over each input of the three workloads, at the sizes
    # the benchmark's smoke test runs them
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    smoke = importlib.import_module("smoke_test")
    calls: Counter = Counter()
    pairs = [(m, a) for m, a, _, _ in _layer_calls()]
    for module_name, attribute in pairs:
        module = importlib.import_module(module_name)
        wrapped = _counting(calls, (module_name, attribute), getattr(module, attribute))
        monkeypatch.setattr(module, attribute, wrapped)
    for name, sizes in smoke.TINY.items():
        workload = smoke.workloads.WORKLOADS[name](sizes=sizes, variants={size: 1 for size in sizes})
        workload.setup(smoke.SEED, str(tmp_path), workload.variants)
        for variant, size in sorted(workload.inputs):
            assert workload.check(workload.run_pass(variant, size)) == 0, (name, size)
    assert [pair for pair in pairs if not calls[pair]] == []
