"""Flat dotted-key configuration for the experiment harness.

Config files are plain text, one `key = value` per line, `#` comments allowed.
There is no nesting: structure lives in the key (grid.n, acl.cutoffs).  Every
knob an experiment consults, including pass/fail thresholds, has a documented
default here and can be overridden from a file or from --override arguments.
Lists are comma-separated; float values must be finite, and a stepped run may
not ask for more than MAX_STEPS steps.  The resolved configuration is hashed
(sha256 of the canonical key=value listing) and the hash is stamped into every
output so records from different configurations can never be silently mixed.
"""

from __future__ import annotations

import hashlib
import math

from ..dynamics import MAX_STEPS

EXPERIMENTS = ("acl", "lemma-a", "lemma-b", "growth", "scaling", "continuity",
               "strichartz")


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

# (horizon, sample interval) keys of each experiment's stepped run; a list
# horizon means its largest entry.
_STEPPED_RUN = {
    "acl": ("acl.horizon", "acl.sample_interval"),
    "lemma-b": ("bracket.horizon", "bracket.sample_interval"),
    "growth": ("growth.checkpoints", "growth.sample_interval"),
    "scaling": ("scaling.horizon", "scaling.sample_interval"),
    "continuity": ("continuity.t_star", "continuity.t_star"),
    "strichartz": ("zbound.tau", "zbound.sample_interval"),
}


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


def _check_step_count(experiment: str, values: dict) -> None:
    """Reject a stepped run that asks for more than MAX_STEPS steps."""
    if experiment not in _STEPPED_RUN:
        return
    horizon_key, interval_key = _STEPPED_RUN[experiment]
    horizon = values[horizon_key]
    if isinstance(horizon, tuple):
        horizon = max(horizon, default=0.0)
    step = min(values["stepper.dt"], values[interval_key])
    if horizon > 0.0 and step > 0.0 and horizon / step > MAX_STEPS:
        raise ConfigError(
            f"{horizon_key}={horizon!r} with step {step!r} asks for about "
            f"{horizon / step:.3g} steps, above the cap of {MAX_STEPS}")


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
    _check_step_count(experiment, values)
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
