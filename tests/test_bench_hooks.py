"""The benchmark's traced run wraps layer functions at named module
attributes; every one of them must exist, or `bench/run.py --trace 1` fails."""

import importlib
import importlib.util

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
