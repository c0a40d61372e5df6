"""Flat dotted-key configuration for the experiment harness.

Config files are plain text, one `key = value` per line, `#` comments allowed.
There is no nesting: structure lives in the key (grid.n, acl.cutoffs).  Every
knob an experiment consults, including pass/fail thresholds, has a documented
default here and can be overridden from a file or from --override arguments.
Lists are comma-separated, floats must be finite, and `build_config` builds
the smoothing multiplier of every cutoff, checks the rows of `CONSTRAINTS`,
then builds what the cells build: the grid, PDE parameters (and, for
`growth`, its exponents), stepper, data recipe (and its band on the grid,
`data._check_band`) and every run's `dynamics.step_plan`.  A
library error there becomes a ConfigError naming the keys, so a bad config
fails before any cell runs.  The resolved configuration is hashed (sha256 of
the canonical key=value listing) and the hash is stamped into every output
so records from different configurations can never be silently mixed.
"""

from __future__ import annotations

import hashlib
import math
from itertools import pairwise

from ..data import DataError, DataRecipe, _check_band, _dyadic_exponent
from ..dynamics import StepperConfig, step_plan
from ..fields import FieldError, Grid, smoothing_multiplier
from ..params import ParamError, PdeParams, growth_exponents
from .records import SCHEMAS, canonical_value

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


def _increasing(key: str) -> tuple:
    return (f"{key} must be strictly increasing",
            lambda v: all(a < b for a, b in pairwise(v[key])))


_TWO_SEEDS = ("calibrate/hold-out protocol needs at least 2 seeds",
              lambda v: len(seed_list(v)) >= 2)

# experiment -> (message, predicate) rows: the rules no library object holds,
# checked in order by build_config; a row may rely on the rows before it.
CONSTRAINTS: dict[str, tuple] = {
    # a judge fits a slope over the cutoffs, and acl's reads the drift's
    # monotonicity along them, so they are distinct and in order
    "acl": (_at_least("acl.cutoffs", 3), _increasing("acl.cutoffs")),
    "lemma-a": (_at_least("bounds.cutoffs", 3), _TWO_SEEDS,
                _increasing("bounds.cutoffs")),
    "lemma-b": (_at_least("bracket.cutoffs", 3), _TWO_SEEDS,
                _increasing("bracket.cutoffs")),
    "growth": (_at_least("growth.checkpoints", 2), _increasing("growth.checkpoints")),
    "scaling": (
        _at_least("scaling.lambdas", 1),
        # the residual reads the fourth sample of the base run
        ("scaling.horizon must be at least 3 x scaling.sample_interval", lambda v:
         v["scaling.horizon"] * (1.0 + 1e-9) >= 3.0 * v["scaling.sample_interval"])),
    "continuity": (
        _at_least("continuity.eps", 3),
        ("continuity.eps must be strictly decreasing",
         lambda v: all(a > b for a, b in pairwise(v["continuity.eps"]))),
        # data.perturb takes eps = 0, but the log-log continuity fit cannot
        ("continuity.eps must be positive", lambda v: min(v["continuity.eps"]) > 0.0),
        ("continuity.bump_seed must be non-negative",
         lambda v: v["continuity.bump_seed"] >= 0)),
    "strichartz": (
        _TWO_SEEDS,
        ("zbound.energy_target must be positive",
         lambda v: v["zbound.energy_target"] > 0.0)),
}


def _named(keys: tuple, build, *args, **kwargs):
    """build(*args, **kwargs); a library error becomes a ConfigError naming keys."""
    try:
        return build(*args, **kwargs)
    except (DataError, FieldError, ParamError) as exc:
        raise ConfigError(f"{', '.join(keys)}: {exc}") from exc


# What a cell builds from the resolved values v.
def _grid(v: dict) -> Grid:
    return _named(("grid.n", "grid.L", "grid.dim"), Grid,
                  v["grid.n"], v["grid.L"], v["grid.dim"])


def _pde(v: dict) -> PdeParams:
    return _named(("pde.p", "pde.s"), PdeParams, v["pde.p"], v["pde.s"])


def _stepper(v: dict) -> StepperConfig:
    return _named(("stepper.dt", "pde.p", "stepper.oversample"), StepperConfig,
                  v["stepper.dt"], v["pde.p"], v["stepper.oversample"])


def _recipe(v: dict, seed: int) -> DataRecipe:
    return _named(("pde.s", "recipe.k_min", "recipe.k_max", "recipe.size_hs"),
                  DataRecipe, seed, v["pde.s"], v["recipe.k_min"],
                  v["recipe.k_max"], v["recipe.size_hs"], window=v["recipe.window"])


def _plan_runs(experiment: str, v: dict, grid: Grid) -> None:
    """Plan every run the experiment's cell makes (`dynamics.step_plan`),
    with the horizon, interval and step the cell passes, and the kept-state
    cap exactly where the cell keeps states: `scaling`'s base and rescaled
    runs.  Every other run is measured as it goes (`diagnostics.OrbitMeter`)
    or read only at its end."""
    def plan(keys, horizon, interval, dt, keep=False):
        _named(keys, step_plan, horizon, interval, dt, grid if keep else None)

    dt = v.get("stepper.dt")
    if experiment in ("acl", "lemma-b", "scaling"):
        prefix = "bracket" if experiment == "lemma-b" else experiment
        keys = (f"{prefix}.horizon", f"{prefix}.sample_interval", "stepper.dt")
        horizon, interval = v[keys[0]], v[keys[1]]
        plan(keys, horizon, interval, dt, keep=experiment == "scaling")
        if experiment == "scaling":
            plan(keys, horizon, interval, dt / 2)  # the calibration run
            for lam in v["scaling.lambdas"]:
                _named(("scaling.lambdas",), _dyadic_exponent, lam)
                plan(keys + ("scaling.lambdas",), horizon * lam, interval * lam,
                     dt * lam, keep=True)
    elif experiment == "growth":  # one run, observed at every checkpoint
        keys = ("growth.checkpoints", "growth.sample_interval", "stepper.dt")
        for t in v["growth.checkpoints"]:
            plan(keys, t, v["growth.sample_interval"], dt)
    elif experiment == "continuity":
        t_star = v["continuity.t_star"]
        plan(("continuity.t_star", "stepper.dt"), t_star, t_star, dt)
    elif experiment == "strichartz":  # the linear orbit takes one step per interval
        keys = ("strichartz.horizon", "strichartz.sample_interval")
        plan(keys, v[keys[0]], v[keys[1]], v[keys[1]])
        keys = ("zbound.tau", "zbound.sample_interval", "stepper.dt")
        plan(keys, v[keys[0]], v[keys[1]], dt)


def build_config(experiment: str, file_text: str | None = None,
                 overrides=None) -> dict:
    """Resolve defaults, file values, and overrides into a typed mapping, and
    check it by building what the experiment's cells build from it."""
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
    seeds = seed_list(values)
    # each smoothing cutoff is checked before the rules on the lists of them
    for key, value in values.items():
        if key.endswith((".cutoff", ".cutoffs")):
            for cutoff in value if isinstance(value, tuple) else (value,):
                _named((key,), smoothing_multiplier, cutoff, values["pde.s"])
    for message, holds in CONSTRAINTS[experiment]:
        if not holds(values):
            raise ConfigError(message)
    grid = _grid(values)
    params = _pde(values)
    if experiment == "growth":  # its envelope needs s above the regularity threshold
        _named(("pde.p", "pde.s"), growth_exponents, params)
    _named(("grid.n", "grid.L", "recipe.k_min", "recipe.k_max"), _check_band,
           _recipe(values, seeds[0]), grid)
    if "stepper.dt" in values:
        _stepper(values)
    _plan_runs(experiment, values, grid)
    return values


def seed_list(values: dict) -> tuple[int, ...]:
    """The explicit seed list, or range(ensemble.count), a count of at least
    1, when seeds is empty."""
    seeds = values["seeds"]
    if not seeds:
        count = values.get("ensemble.count")
        if count is None:
            raise ConfigError("empty seed list and no ensemble.count to derive it")
        if count < 1:
            raise ConfigError(f"ensemble.count must be at least 1, got {count}")
        seeds = tuple(range(count))
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be non-negative, got {seeds}")
    return tuple(seeds)


def config_hash(experiment: str, values: dict) -> str:
    """sha256 over the canonical `experiment` + sorted key=value listing."""
    lines = [experiment]
    lines.extend(f"{k}={canonical_value(values[k])}" for k in sorted(values))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
