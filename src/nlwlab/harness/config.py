"""Flat dotted-key configuration for the experiment harness.

Config files are plain text, one `key = value` per line, `#` comments allowed.
There is no nesting: structure lives in the key (grid.n, acl.cutoffs).  Every
knob an experiment consults, including pass/fail thresholds, has a documented
default here and can be overridden from a file or from --override arguments.
Lists are comma-separated, floats must be finite, and `build_config` checks
every per-experiment rule of `CONSTRAINTS`, so a bad config fails before any
cell runs.  The resolved configuration is hashed (sha256 of the canonical
key=value listing) and the hash is stamped into every output so records from
different configurations can never be silently mixed.
"""

from __future__ import annotations

import hashlib
import math
from itertools import pairwise

from ..dynamics import MAX_STEPS, step_plan
from ..fields import FieldError
from .records import SCHEMAS

EXPERIMENTS = tuple(SCHEMAS)


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


_BASE = {
    "grid.n": 32,
    "grid.L": 32.0,
    "grid.dim": 3,
    "pde.p": 4.0,
    "pde.s": 0.95,
    "recipe.k_min": 0.19,
    "recipe.k_max": 4.7,
    "recipe.size_hs": 10.0,
    "recipe.window": True,
    "stepper.dt": 1.0 / 64,
    "stepper.oversample": 2,
    "seeds": (0, 1, 2, 3, 4),
}

DEFAULTS: dict[str, dict] = {
    # The drift ladder runs on a dense box (same n, smaller L) so that every
    # cutoff rung damps resolved content: with s close to 1 the smoothing
    # bites visibly only below half the top wavenumber.
    "acl": _BASE | {
        "grid.L": 8.0,
        "recipe.k_min": 0.79,
        "recipe.k_max": 19.5,
        "recipe.size_hs": 3.0,
        "acl.cutoffs": (2.0, 4.0, 8.0, 16.0),
        "acl.horizon": 4.0,
        "acl.sample_interval": 0.25,
        "acl.slope_max": -0.2,
    },
    # Ratio ensembles run on a small box so the cutoff ladder reaches the
    # damping regime of the smoothing operator within the resolved band.
    "lemma-a": {
        "grid.n": 32,
        "grid.L": math.pi / 2.0,
        "grid.dim": 3,
        "pde.p": 4.0,
        "pde.s": 0.95,
        "recipe.k_min": 3.9,
        "recipe.k_max": 60.0,
        "recipe.size_hs": 1.0,
        "recipe.window": True,
        "ensemble.count": 1000,
        "bounds.cutoffs": (2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        "bounds.headroom": 1.5,
        "bounds.trend_max": 0.05,
        "seeds": (),  # empty: derive range(ensemble.count)
    },
    "lemma-b": _BASE | {
        "bracket.cutoffs": (4.0, 8.0, 16.0),
        "bracket.horizon": 2.0,
        "bracket.sample_interval": 0.25,
        "bracket.headroom": 1.5,
        "bracket.trend_max": 0.1,
        "seeds": tuple(range(20)),
    },
    "growth": _BASE | {
        "growth.checkpoints": (1.0, 2.0, 4.0, 8.0, 16.0),
        "growth.sample_interval": 0.25,
        "growth.headroom": 1.5,
    },
    "scaling": _BASE | {
        "scaling.lambdas": (1.0, 2.0, 4.0),
        "scaling.horizon": 1.0,
        "scaling.sample_interval": 0.25,
        "scaling.exact_tol": 1e-10,
        "scaling.correspondence_factor": 5.0,
        "scaling.residual_band": 2.0,
    },
    "continuity": _BASE | {
        "continuity.eps": (1e-1, 1e-2, 1e-3, 1e-4),
        "continuity.t_star": 1.0,
        "continuity.slope_min": 0.8,
        "continuity.bump_seed": 10000,
    },
    "strichartz": _BASE | {
        "strichartz.cutoff": 4.0,
        "strichartz.horizon": 1.0,
        "strichartz.sample_interval": 0.0625,
        "strichartz.headroom": 1.5,
        "zbound.tau": 0.5,
        "zbound.cutoff": 4.0,
        "zbound.energy_target": 0.9,
        "zbound.energy_cap": 1.0,
        "zbound.sample_interval": 0.0625,
        "seeds": tuple(range(20)),
    },
}

# Integer-valued list keys (everything else comma-separated parses as floats).
_INT_TUPLE_KEYS = {"seeds"}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a raw string mapping."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_overrides(pairs) -> dict[str, str]:
    """Parse --override arguments of the form key=value."""
    out: dict[str, str] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(key: str, raw: str, default):
    """Interpret a raw string with the type of the documented default."""
    try:
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            if raw == "":
                return ()
            parts = [p.strip() for p in raw.split(",")]
            if key in _INT_TUPLE_KEYS:
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}") from exc


def _require_finite(key: str, value) -> None:
    items = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"{key} must be finite, got {canonical_value(value)!r}")


def _at_least(key: str, count: int) -> tuple:
    return f"{key} needs {count} or more values", lambda v: len(v[key]) >= count


def _step_cap(horizon_key: str, interval_key: str, divisor: int = 1) -> tuple:
    """At most MAX_STEPS steps in evolve's own plan (`step_plan`) at
    stepper.dt / divisor; a list horizon is its max.  A divisor counts a run
    at a fraction of the step.  A plan that step_plan rejects passes here: a
    later row, StepperConfig or evolve names its fault."""
    dt_key = "stepper.dt" if divisor == 1 else f"stepper.dt / {divisor}"

    def holds(v: dict) -> bool:
        horizon = v[horizon_key]
        horizon = max(horizon) if isinstance(horizon, tuple) else horizon
        dt = v["stepper.dt"] / divisor
        if not dt > 0.0:
            return True
        try:
            samples, steps_per, _ = step_plan(horizon, v[interval_key], dt)
        except FieldError:
            return True
        return samples * steps_per <= MAX_STEPS
    return (f"{horizon_key} in steps of {dt_key}, rounded down to divide "
            f"{interval_key}, asks for more steps than the cap of {MAX_STEPS}", holds)


def _whole_intervals(horizon_key: str, interval_key: str) -> tuple:
    """The horizon is a positive whole number of sample intervals, as evolve
    and linear_trajectory demand; `_positive_interval` rejects a non-positive
    interval."""
    def holds(v: dict) -> bool:
        horizon, interval = v[horizon_key], v[interval_key]
        if interval <= 0.0:
            return True
        count = round(horizon / interval)
        return count >= 1 and abs(count * interval - horizon) <= 1e-9 * horizon
    return f"{horizon_key} must be a whole number of {interval_key}", holds


def _positive_interval(interval_key: str) -> tuple:
    return f"{interval_key} outside (0, horizon]", lambda v: v[interval_key] > 0.0


def _on_sample_grid(v: dict) -> bool:
    ts, h = v["growth.checkpoints"], v["growth.sample_interval"]
    return h > 0.0 and all(a < b for a, b in pairwise(ts)) and all(
        abs(round(t / h) * h - t) <= 1e-9 * t for t in ts)


_TWO_SEEDS = ("calibrate/hold-out protocol needs at least 2 seeds",
              lambda v: len(seed_list(v)) >= 2)

# experiment -> (message, predicate) rows over the resolved values, checked in
# order by build_config; a row may rely on the rows before it.
CONSTRAINTS: dict[str, tuple] = {
    "acl": (_at_least("acl.cutoffs", 3),
            _step_cap("acl.horizon", "acl.sample_interval"),
            _whole_intervals("acl.horizon", "acl.sample_interval"),
            _positive_interval("acl.sample_interval")),
    "lemma-a": (_at_least("bounds.cutoffs", 3), _TWO_SEEDS),
    "lemma-b": (_at_least("bracket.cutoffs", 3), _TWO_SEEDS,
                _step_cap("bracket.horizon", "bracket.sample_interval"),
                _whole_intervals("bracket.horizon", "bracket.sample_interval"),
                _positive_interval("bracket.sample_interval")),
    "growth": (
        _at_least("growth.checkpoints", 2),
        ("growth.checkpoints must be strictly increasing multiples of a "
         "positive growth.sample_interval", _on_sample_grid),
        _step_cap("growth.checkpoints", "growth.sample_interval")),
    "scaling": (
        _at_least("scaling.lambdas", 1),
        # the residual reads the fourth sample of the base run
        ("scaling.horizon must be at least 3 x scaling.sample_interval", lambda v:
         v["scaling.horizon"] * (1.0 + 1e-9) >= 3.0 * v["scaling.sample_interval"]),
        # the calibration run takes steps of stepper.dt / 2
        _step_cap("scaling.horizon", "scaling.sample_interval", divisor=2),
        _whole_intervals("scaling.horizon", "scaling.sample_interval"),
        _positive_interval("scaling.sample_interval")),
    "continuity": (
        _at_least("continuity.eps", 3),
        ("continuity.eps must be strictly decreasing",
         lambda v: all(a > b for a, b in pairwise(v["continuity.eps"]))),
        _step_cap("continuity.t_star", "continuity.t_star")),
    "strichartz": (_TWO_SEEDS, _step_cap("zbound.tau", "zbound.sample_interval"),
                   _whole_intervals("strichartz.horizon", "strichartz.sample_interval"),
                   _whole_intervals("zbound.tau", "zbound.sample_interval"),
                   _positive_interval("strichartz.sample_interval"),
                   _positive_interval("zbound.sample_interval")),
}


def build_config(experiment: str, file_text: str | None = None,
                 overrides=None) -> dict:
    """Resolve defaults, file values, and overrides into a typed mapping."""
    if experiment not in DEFAULTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    values = dict(DEFAULTS[experiment])
    layers = []
    if file_text is not None:
        layers.append(parse_config_text(file_text))
    if overrides:
        layers.append(parse_overrides(overrides))
    for layer in layers:
        for key, raw in layer.items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r} for {experiment}")
            values[key] = _coerce(key, raw, DEFAULTS[experiment][key])
            _require_finite(key, values[key])
    seed_list(values)
    for message, holds in CONSTRAINTS[experiment]:
        if not holds(values):
            raise ConfigError(message)
    return values


def seed_list(values: dict) -> tuple[int, ...]:
    """The explicit seed list, or range(ensemble.count) when seeds is empty."""
    seeds = values["seeds"]
    if not seeds:
        count = values.get("ensemble.count")
        if not count:
            raise ConfigError("empty seed list and no ensemble.count to derive it")
        seeds = tuple(range(count))
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    return tuple(seeds)


def canonical_value(value) -> str:
    """Deterministic string form used for hashing and the JSON summary."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(canonical_value(v) for v in value)
    return str(value)


def config_hash(experiment: str, values: dict) -> str:
    """sha256 over the canonical `experiment` + sorted key=value listing."""
    lines = [experiment]
    lines.extend(f"{k}={canonical_value(values[k])}" for k in sorted(values))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
