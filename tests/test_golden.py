"""Golden values: the shrunk configs of all seven experiments, pinned.

Every numeric CSV column of each experiment's records, run with the `SHRUNK`
overrides of the release gate, is compared against `golden_values.json` at
relative tolerance 1e-9.  The summary's assertions (name, sense, value,
threshold, passed) and every leaf of its `fits` are compared against
`golden_summaries.json` the same way.  Byte identity (test 10) only pins a result against
a re-run of the same code; this file pins it across code changes, so a
faster kernel that changes the physics fails here even when every loose
acceptance gate still passes.

Columns that measure a roundoff-level quantity (a gap that is zero in exact
arithmetic, such as the dyadic rescaling gaps) carry no physics in their
digits; they are compared against an absolute floor instead, listed in
`ROUNDOFF_FLOOR`.  The summary values built from them get the floors in
`SUMMARY_FLOOR`: the largest gaps keep the 1e-12 floor, and the
correspondence factor divides that gap by a calibration error of about 1e-4,
so its floor is 1e-12 / 1e-5.

Regenerate only when the physics is meant to change, and say so:

    PYTHONPATH=src python tests/test_golden.py --write

To show that a change is bit for bit, print the SHA-256 of each shrunk
experiment's CSV text and of its summary without `duration_seconds` (the
text `write_summary` writes), on both trees, and diff the two printouts:

    PYTHONPATH=src python tests/test_golden.py --hashes

A change that moves bits reports its margin: print, per experiment and
column, the largest relative deviation from `golden_values.json` and its row
(columns under `ROUNDOFF_FLOOR`, compared against their absolute floor, are
marked; a deviation over the tolerance is marked too):

    PYTHONPATH=src python tests/test_golden.py --deviations

To show what a change does to memory, print the tracemalloc peak of one
warm run of each shrunk experiment (one run after an untraced run of the
same config, so the caches and workspaces already exist), on both trees.
Under each peak a second line gives the bytes the process keeps after that
experiment's runs: the distinct workspace buffers and the arrays that the
`_symbol`, `_rotation`, `_kmag` and `_dft_matrices` caches hold, with their
entry counts.
Every cache is emptied before each experiment, so each line is one
experiment's alone:

    PYTHONPATH=src python tests/test_golden.py --peaks
"""

import functools
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlwlab import dynamics, fields
from nlwlab.harness.config import build_config
from nlwlab.harness.experiments import run_experiment
from nlwlab.harness.records import rows_to_csv_text

from test_acceptance import SHRUNK

GOLDEN = Path(__file__).with_name("golden_values.json")
GOLDEN_SUMMARIES = Path(__file__).with_name("golden_summaries.json")
RTOL = 1e-9
# experiment -> column -> absolute floor for roundoff-level measurements
ROUNDOFF_FLOOR = {
    "scaling": {"crit_gap_rel": 1e-12, "hs_gap_rel": 1e-12,
                "correspondence": 1e-12},
}
# experiment -> assertion name or top-level fit key -> absolute floor
SUMMARY_FLOOR = {
    "scaling": {"critical_norm_invariance": 1e-12,
                "order_s_norm_scaling": 1e-12,
                "trajectory_correspondence": 1e-7,
                "worst_correspondence_factor": 1e-7},
}
_TEXT_COLUMNS = ("experiment", "config_hash", "phase")


@functools.lru_cache(maxsize=None)
def _shrunk_run(name: str):
    """Run one shrunk experiment serially, once per process."""
    return run_experiment(name, build_config(name, overrides=SHRUNK[name]),
                          workers=1)


def numeric_columns(name: str) -> dict:
    """Numeric CSV columns of one shrunk experiment."""
    result = _shrunk_run(name)
    columns = [c for c in result.records[0] if c not in _TEXT_COLUMNS]
    # a blank cell (a column that does not apply to the row) is kept as None
    return {c: [None if row[c] == "" else float(row[c])
                for row in result.records] for c in columns}


def summary_values(name: str) -> dict:
    """The pinned part of one shrunk experiment's summary."""
    summary = _shrunk_run(name).summary
    return {"assertions": summary["assertions"], "fits": summary["fits"]}


def _leaves(obj, path=()):
    """(path, value) for every leaf; an assertion is keyed by its name."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            key = val["name"] if isinstance(val, dict) and "name" in val else i
            yield from _leaves(val, path + (key,))
    else:
        yield path, obj


def _summary_mismatches(name: str, got: dict, want: dict) -> list:
    order = [[a["name"] for a in d["assertions"]] for d in (got, want)]
    if order[0] != order[1]:
        return [f"assertions {order[0]} != golden {order[1]}"]
    got_leaves, want_leaves = dict(_leaves(got)), dict(_leaves(want))
    if set(got_leaves) != set(want_leaves):
        odd = set(got_leaves) ^ set(want_leaves)
        return [f"leaves differ: {sorted(map(str, odd))}"]
    floors = SUMMARY_FLOOR.get(name, {})
    out = []
    for path, b in want_leaves.items():
        a = got_leaves[path]
        if isinstance(b, bool) or not isinstance(b, (int, float)):
            same = a == b
        else:
            floor = max((floors.get(k, 0.0) for k in path[:2]), default=0.0)
            same = (isinstance(a, (int, float)) and not isinstance(a, bool)
                    and (a == b or abs(a - b) <= max(RTOL * abs(b), floor)))
        if not same:
            out.append(f"{'/'.join(map(str, path))}: {a!r} vs golden {b!r}")
    return out


def _mismatches(name: str, got: dict, want: dict) -> list:
    if sorted(got) != sorted(want):
        return [f"columns {sorted(got)} != {sorted(want)}"]
    floors = ROUNDOFF_FLOOR.get(name, {})
    out = []
    for col, ref in want.items():
        vals = got[col]
        if len(vals) != len(ref):
            out.append(f"{col}: {len(vals)} rows != {len(ref)}")
            continue
        for i, (a, b) in enumerate(zip(vals, ref)):
            if a is None or b is None:
                same = a is b
            else:
                same = a == b or abs(a - b) <= max(RTOL * abs(b),
                                                   floors.get(col, 0.0))
            if not same:
                out.append(f"{col}[{i}]: {a!r} vs golden {b!r}")
    return out


def column_deviations(got: dict, want: dict) -> dict:
    """column -> (largest relative deviation |a - b| / |b|, its row) of one
    experiment's numeric columns against the golden ones, for the columns of
    both.  Blank cells and equal values deviate by 0; a NaN deviation, or a
    nonzero value against a golden 0, counts as the largest."""
    out = {}
    for col in want.keys() & got.keys():
        worst = (0.0, None)
        for i, (a, b) in enumerate(zip(got[col], want[col])):
            if a is None or b is None or a == b:
                continue
            dev = abs(a - b) / abs(b) if b else math.inf
            if not dev <= worst[0]:
                worst = (dev, i)
        out[col] = worst
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_summaries():
    return json.loads(GOLDEN_SUMMARIES.read_text())


def test_golden_covers_every_experiment(golden, golden_summaries):
    assert sorted(golden) == sorted(SHRUNK)
    assert sorted(golden_summaries) == sorted(SHRUNK)


@pytest.mark.parametrize("name", ["growth", "strichartz"])
def test_runs_never_complete_a_field(name, monkeypatch):
    # every kernel reads and writes k_z < n/2 halves, so a run builds no
    # full layout; only a reader of `.coeffs` does, which the spy counts
    calls = []
    complete = fields._complete

    def spy(grid, half):
        calls.append(grid)
        return complete(grid, half)

    monkeypatch.setattr(fields, "_complete", spy)
    result = run_experiment(name, build_config(name, overrides=SHRUNK[name]), workers=1)
    assert result.records and calls == []
    grid = fields.Grid(n=16, L=32.0)
    fields.from_physical(grid, np.ones(grid.shape)).coeffs
    assert calls == [grid]


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_numeric_columns_match_golden(name, golden):
    bad = _mismatches(name, numeric_columns(name), golden[name])
    assert not bad, f"{name}: " + "; ".join(bad[:5])


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_summary_matches_golden(name, golden_summaries):
    bad = _summary_mismatches(name, summary_values(name), golden_summaries[name])
    assert not bad, f"{name}: " + "; ".join(bad[:5])


def test_summary_mismatch_detects_a_change():
    want = {"assertions": [{"name": "a", "value": 2.0, "threshold": 1.0,
                            "sense": "<=", "passed": False}],
            "fits": {"per_seed": [[0, 1.0]]}}

    def changed(path, value):
        got = json.loads(json.dumps(want))
        *head, last = path
        node = got
        for key in head:
            node = node[key]
        node[last] = value
        return _summary_mismatches("acl", got, want)

    assert changed(("fits", "per_seed", 0, 1), 1.0 + 0.5e-9) == []
    assert changed(("fits", "per_seed", 0, 1), 1.0 + 2e-9)
    assert changed(("fits", "per_seed", 0, 0), 1)
    assert changed(("assertions", 0, "passed"), True)
    assert changed(("assertions", 0, "sense"), ">=")
    assert changed(("assertions", 0, "name"), "b")
    assert changed(("assertions", 0, "value"), math.nan)
    assert changed(("fits", "extra"), 1.0)


def test_mismatch_detects_a_relative_change():
    want = {"x": [1.0, 2.0]}
    assert _mismatches("acl", {"x": [1.0, 2.0 * (1 + 0.5e-9)]}, want) == []
    assert _mismatches("acl", {"x": [1.0, 2.0 * (1 + 2e-9)]}, want)
    assert _mismatches("acl", {"x": [1.0, math.nan]}, want)
    assert _mismatches("acl", {"x": [1.0, None]}, want)
    assert _mismatches("acl", {"y": [1.0, 2.0]}, want)


def test_deviations_read_zero_against_itself_and_flag_a_change(golden):
    for cols in golden.values():
        assert all(dev == 0.0 for dev, _ in column_deviations(cols, cols).values())
    want = golden["acl"]
    row = next(i for i, v in enumerate(want["drift"]) if v)
    got = json.loads(json.dumps(want))
    got["drift"][row] *= 1.0 + 2e-9
    devs = column_deviations(got, want)
    dev, at = devs.pop("drift")
    assert at == row and RTOL < dev == pytest.approx(2e-9, rel=1e-3)
    assert all(d == 0.0 for d, _ in devs.values())
    got["drift"][row] = math.nan
    dev, at = column_deviations(got, want)["drift"]
    assert math.isnan(dev) and at == row


# Run in a fresh process: the thread count numpy's OpenBLAS reports (None
# where the library is not found), and the SHA-256 of an n = 64 kick, whose
# last-axis products are large enough for OpenBLAS to split them over its
# threads, and of a shrunk `growth` CSV (overrides in argv[1]).
THREADS_SCRIPT = """
import ctypes, glob, hashlib, json, os, sys
import numpy as np
from nlwlab.dynamics import nonlinear_term
from nlwlab.fields import Grid, apply_multiplier, from_coeffs, power_multiplier
from nlwlab.harness.config import build_config
from nlwlab.harness.experiments import run_experiment
from nlwlab.harness.records import rows_to_csv_text

def blas_threads():
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None

grid = Grid(n=64, L=32.0)
rng = np.random.default_rng(5)
u = from_coeffs(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
u = apply_multiplier(u, power_multiplier(-1.5))
kick = nonlinear_term(u, 4.0, 2).coeffs.tobytes()
result = run_experiment("growth", build_config("growth", overrides=json.loads(sys.argv[1])),
                        workers=1)
csv = rows_to_csv_text("growth", result.records).encode("utf-8")
print(json.dumps({"threads": blas_threads(), "kick": hashlib.sha256(kick).hexdigest(),
                  "csv": hashlib.sha256(csv).hexdigest()}))
"""


def test_blas_thread_count_leaves_the_bits_unchanged():
    # the last-axis transforms are BLAS products, which OpenBLAS may split
    # over threads; one thread and two must give the same bytes
    src = str(Path(fields.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    runs = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT, json.dumps(SHRUNK["growth"])],
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout.splitlines()[-1])
        assert runs[threads]["threads"] in (threads, None)
    assert runs[1]["kick"] == runs[2]["kick"]
    assert runs[1]["csv"] == runs[2]["csv"]


def output_hashes(name: str) -> tuple[str, str]:
    """SHA-256 of one shrunk experiment's CSV text and of its summary text
    without `duration_seconds`, the one field that differs between runs."""
    result = _shrunk_run(name)
    summary = {k: v for k, v in result.summary.items() if k != "duration_seconds"}
    texts = (rows_to_csv_text(name, result.records),
             json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return tuple(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts)


# the caches whose arrays `kept_bytes` counts, by the name it prints
CACHES = {"_symbol": fields._symbol, "_rotation": dynamics._rotation, "_kmag": fields._kmag,
          "_dft_matrices": fields._dft_matrices}


def clear_caches() -> None:
    """Empty the spectral caches and drop the workspace buffers."""
    for cache in CACHES.values():
        cache.cache_clear()
    fields._BUFFERS.clear()
    fields._workspace.cache_clear()


def cached_results(cache) -> list:
    """The results an `lru_cache` holds: on CPython, `gc.get_referents` of
    the cache yields each entry's key and result, and only results are
    arrays or tuples of arrays here."""
    return [obj for obj in gc.get_referents(cache)
            if isinstance(obj, np.ndarray)
            or (isinstance(obj, tuple) and obj and isinstance(obj[0], np.ndarray))]


def kept_bytes() -> dict:
    """(bytes, entries) held now, by holder: "buffers", the workspace
    buffers, and each of `CACHES`."""
    buffers = [buf for held in fields._BUFFERS.values() for buf in held.values()]
    kept = {"buffers": (sum(buf.nbytes for buf in buffers), len(buffers))}
    for label, cache in CACHES.items():
        results = cached_results(cache)
        arrays = [a for r in results for a in (r if isinstance(r, tuple) else (r,))]
        kept[label] = (sum(a.nbytes for a in arrays), len(results))
    return kept


def warm_peak(name: str) -> int:
    """Tracemalloc peak, in bytes, of one serial run of a shrunk experiment
    after an untraced one."""
    values = build_config(name, overrides=SHRUNK[name])
    run_experiment(name, values, workers=1)
    tracemalloc.start()
    try:
        run_experiment(name, values, workers=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    if sys.argv[1:] == ["--hashes"]:
        for name in sorted(SHRUNK):
            for digest, suffix in zip(output_hashes(name), (".csv", "_summary.json")):
                print(f"{digest}  {name}{suffix}")
    elif sys.argv[1:] == ["--peaks"]:
        mib = 2 ** 20
        for name in sorted(SHRUNK):
            clear_caches()
            print(f"{warm_peak(name) / mib:8.3f} MiB  {name}")
            kept = kept_bytes()
            total = sum(size for size, _ in kept.values())
            print(f"          kept {total / mib:.3f} MiB: " + ", ".join(
                f"{label} {size / mib:.3f} in {count}" for label, (size, count) in kept.items()))
    elif sys.argv[1:] == ["--deviations"]:
        golden_values = json.loads(GOLDEN.read_text())
        for name in sorted(SHRUNK):
            print(name)
            devs = column_deviations(numeric_columns(name), golden_values[name])
            floors = ROUNDOFF_FLOOR.get(name, {})
            for col, (dev, row) in sorted(devs.items()):
                line = f"  {dev:9.3g}  {col}" + ("" if row is None else f"[{row}]")
                if col in floors:
                    line += f"  (roundoff floor {floors[col]:g})"
                elif not dev <= RTOL:
                    line += f"  (over rtol {RTOL:g})"
                print(line)
    elif sys.argv[1:] == ["--write"]:
        for path, build in ((GOLDEN, numeric_columns),
                            (GOLDEN_SUMMARIES, summary_values)):
            values = {name: build(name) for name in sorted(SHRUNK)}
            path.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py "
                 "--write | --hashes | --peaks | --deviations")
