"""Golden values: the shrunk configs of all seven experiments, pinned.

Every numeric CSV column of each experiment's records, run with the `SHRUNK`
overrides of the release gate, is compared against `golden_values.json` at
relative tolerance 1e-9.  Byte identity (test 10) only pins a result against
a re-run of the same code; this file pins it across code changes, so a
faster kernel that changes the physics fails here even when every loose
acceptance gate still passes.

Columns that measure a roundoff-level quantity (a gap that is zero in exact
arithmetic, such as the dyadic rescaling gaps) carry no physics in their
digits; they are compared against an absolute floor instead, listed in
`ROUNDOFF_FLOOR`.

Regenerate only when the physics is meant to change, and say so:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import math
import sys
from pathlib import Path

import pytest

from nlwlab.harness.config import build_config
from nlwlab.harness.experiments import run_experiment

from test_acceptance import SHRUNK

GOLDEN = Path(__file__).with_name("golden_values.json")
RTOL = 1e-9
# experiment -> column -> absolute floor for roundoff-level measurements
ROUNDOFF_FLOOR = {
    "scaling": {"crit_gap_rel": 1e-12, "hs_gap_rel": 1e-12,
                "correspondence": 1e-12},
}
_TEXT_COLUMNS = ("experiment", "config_hash", "phase")


def numeric_columns(name: str) -> dict:
    """Run one shrunk experiment serially; return its numeric columns."""
    result = run_experiment(name, build_config(name, overrides=SHRUNK[name]),
                            workers=1)
    columns = [c for c in result.records[0] if c not in _TEXT_COLUMNS]
    # a blank cell (a column that does not apply to the row) is kept as None
    return {c: [None if row[c] == "" else float(row[c])
                for row in result.records] for c in columns}


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


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_experiment(golden):
    assert sorted(golden) == sorted(SHRUNK)


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_numeric_columns_match_golden(name, golden):
    bad = _mismatches(name, numeric_columns(name), golden[name])
    assert not bad, f"{name}: " + "; ".join(bad[:5])


def test_mismatch_detects_a_relative_change():
    want = {"x": [1.0, 2.0]}
    assert _mismatches("acl", {"x": [1.0, 2.0 * (1 + 0.5e-9)]}, want) == []
    assert _mismatches("acl", {"x": [1.0, 2.0 * (1 + 2e-9)]}, want)
    assert _mismatches("acl", {"x": [1.0, math.nan]}, want)
    assert _mismatches("acl", {"x": [1.0, None]}, want)
    assert _mismatches("acl", {"y": [1.0, 2.0]}, want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    values = {name: numeric_columns(name) for name in sorted(SHRUNK)}
    GOLDEN.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
