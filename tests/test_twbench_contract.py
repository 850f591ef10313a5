"""What the repository benchmark (``twbench/``) reaches inside the program.

twbench wraps program functions by name to time them (``spans.py``) and
reads a few program objects for its per-layer metrics (``common.py``).
Neither runs in tier-1, so a rename or deletion there would only surface
when the benchmark runs.  These tests load both modules from their files
and exercise those entry points on a small compiled model.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import repro

TWBENCH = Path(__file__).resolve().parent.parent / "twbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"twbench_{name}", TWBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordingTracer:
    """Stands in for ``spans.Tracer``: records each wrap, patches nothing."""

    def __init__(self) -> None:
        self.targets: list[tuple[object, str, str]] = []

    def wrap(self, owner, attr: str, name: str, key=None) -> None:
        self.targets.append((owner, attr, name))


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((32, 48)), rng.standard_normal((48, 32))]
    return repro.compile(weights, pattern="tw", sparsity=0.5, granularity=8)


def test_every_span_target_exists():
    spans = _load("spans")
    tracer = RecordingTracer()
    spans.install_kernel_wrappers(tracer, {})
    spans.install_setup_wrappers(tracer)
    spans.install_server_wrappers(tracer)
    # one span name from each installer, so none of them ran empty
    assert {name for _o, _a, name in tracer.targets} >= {
        "kernels.tw_gemm", "runtime.scheduler.plan", "runtime.server.flush",
    }
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for owner, attr, name in tracer.targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing


def test_flops_exec_over_useful_on_a_compiled_stack(model):
    common = _load("common")
    for layer in model.layers:
        ratio = common.flops_exec_over_useful(layer)
        assert np.isfinite(ratio) and ratio >= 1.0


def test_server_counters_read_by_the_benchmark(model):
    common = _load("common")
    x = np.random.default_rng(1).standard_normal((4, 32))
    with model.serve() as server:
        server.serve(x)
        counters = common.server_counters(server)
    assert counters["waves"] == 1 and counters["rows"] == 4
    assert counters["hits"] == model.n_layers
    assert counters["lookups"] == model.n_layers
