"""What the benchmark under `bench/` reads from the package.

`bench/tracing.py` wraps the public functions it names wherever the package
binds them, and `bench/checks.py` recomputes each workload's outputs with its
own numpy code, reading `evolve`'s kept states on the way.  These tests load
both modules read-only (no bytecode is written next to them) and run them at
the benchmark's own tiny sizes, so a change to the package that would break
the benchmark fails here, not in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import nlwlab
from nlwlab.harness import run_experiment

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("tracing", "checks", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `tracing`, `checks` and `workloads` modules, imported
    from `bench/` without writing bytecode there and unloaded afterwards."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        yield tuple(importlib.import_module(name) for name in BENCH_MODULES)
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def _public(dotted):
    module, attr = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(f"nlwlab.{module}"), attr)


def test_every_traced_layer_is_bound_and_restored(bench):
    tracing, _, _ = bench
    originals = {dotted: _public(dotted) for dotted in tracing.LAYER_FUNCTIONS}
    tracer = tracing.Tracer()
    tracer.install()  # raises when a name is bound nowhere in the package
    try:
        assert nlwlab.evolve is not originals["dynamics.evolve"]
    finally:
        tracer.remove()
    assert {dotted: _public(dotted) for dotted in originals} == originals
    assert nlwlab.evolve is originals["dynamics.evolve"]


# `bench/checks.py` calls `np.fft.irfftn(x, s=...)` without `axes`, which
# numpy 2 deprecates; the benchmark runs outside pytest and never sees it.
@pytest.mark.filterwarnings("ignore:`axes` should not be `None`:DeprecationWarning")
@pytest.mark.parametrize("workload", ["growth-kick", "strichartz-norms"])
def test_output_checks_pass_at_tiny_size(bench, workload):
    _, checks, workloads = bench
    spec = workloads.WORKLOADS[workload]
    values = spec.config(0, tiny=True)
    rows = run_experiment(spec.experiment, values, workers=1).records
    results = checks.CHECKS[spec.experiment](values, rows)
    assert results
    failed = [(c.name, c.value, c.bound) for c in results if not c.value <= c.bound]
    assert failed == []
