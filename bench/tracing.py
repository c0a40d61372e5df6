"""Per-layer tracing from outside the package: call counts and self times.

`Tracer.install()` replaces each traced public function by a timing wrapper
under every name the package binds it to (for example `experiments.py`
imports `evolve` by value, so `nlwlab.harness.experiments.evolve` is wrapped
as well as `nlwlab.dynamics.evolve`), and replaces numpy's FFT entry points by
a counting wrapper.  `remove()` puts every original object back.

A layer's self time is the duration of its spans minus the part covered by
child spans; FFT calls are leaf spans, so `fft.self_s` is the time spent
inside numpy's transforms and is subtracted from the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Traced public functions, named by their path below the `nlwlab` package.
LAYER_FUNCTIONS = (
    "data.synthesize",
    "dynamics.evolve",
    "dynamics.linear_trajectory",
    "dynamics.propagate_linear",
    "dynamics.pair_sobolev_norm",
    "diagnostics.smoothed_energy",
    "diagnostics.spacetime_norm",
    "diagnostics.energy_drift",
    "fields.lebesgue_norm",
    "fields.apply_multiplier",
    "fields.sobolev_norm",
    "harness.run_experiment",
    "harness.records.write_csv",
    "harness.records.write_summary",
)

# Complex-to-complex and real-to-complex entry points, so that counts stay
# comparable when the hot path moves from one kind to the other.
FFT_FUNCTIONS = ("fftn", "ifftn", "fft", "ifft", "rfftn", "irfftn", "rfft", "irfft")


class Tracer:
    """Counts calls, self time and (for FFTs) transformed points per layer."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.fft_points = 0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.fft_points = 0

    def snapshot(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["fft.points"] = self.fft_points
        return out

    def _wrap(self, name: str, fn, count_points: bool = False):
        stack = self._stack
        self.calls[name] = 0
        self.self_s[name] = 0.0

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - frame[0]
                if stack:
                    stack[-1][0] += span
            if count_points:
                self.fft_points += max(np.size(args[0]), np.size(result))
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        package = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "nlwlab" or key.startswith("nlwlab."))]
        for dotted in LAYER_FUNCTIONS:
            module_name, attr = dotted.rsplit(".", 1)
            original = getattr(importlib.import_module(f"nlwlab.{module_name}"), attr)
            wrapper = self._wrap(dotted, original)
            bound = 0
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"nlwlab.{dotted} is bound nowhere")
        for name in FFT_FUNCTIONS:
            original = getattr(np.fft, name)
            self._patched.append((np.fft, name, original))
            setattr(np.fft, name, self._wrap("fft", original, count_points=True))

    def remove(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
