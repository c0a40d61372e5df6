"""Record schemas, RFC-4180 CSV emission, and JSON summaries.

One CSV row per (seed x sweep point), fixed column order per experiment,
floats written with repr (shortest round-trip form) so identical runs emit
byte-identical files.  Wall-clock duration deliberately lives in the JSON
summary, never in the CSV, to keep the byte-identity guarantee.  Each write
replaces the file whole, so a rerun of the same config leaves the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path


class RecordsError(ValueError):
    """Schema violation or unusable record set."""


SCHEMA_VERSION = 1

_PREFIX = ("experiment", "config_hash", "seed")

SCHEMAS: dict[str, tuple[str, ...]] = {
    "acl": _PREFIX + ("cutoff", "drift", "e_sup"),
    "lemma-a": _PREFIX + ("cutoff", "ratio_gradient", "ratio_velocity",
                          "ratio_potential", "ratio_energy"),
    "lemma-b": _PREFIX + ("cutoff", "initial_norm", "final_norm", "e_sup",
                          "z_max", "ratio"),
    "growth": _PREFIX + ("horizon", "sup_norm_s", "sup_norm_crit", "ratio",
                         "ratio_crit"),
    "scaling": _PREFIX + ("lam", "crit_gap_rel", "hs_gap_rel", "correspondence",
                          "calibration_error", "residual_base",
                          "residual_rescaled"),
    "continuity": _PREFIX + ("eps", "distance"),
    "strichartz": _PREFIX + ("phase", "m", "q", "r", "value", "reference",
                             "ratio"),
}


def schema_tag(experiment: str) -> str:
    return f"{experiment}/{SCHEMA_VERSION}"


def canonical_value(value) -> str:
    """Deterministic text form of a CSV cell, a config value and a hash line:
    repr for floats, str for ints and strings, true/false for bools, and
    comma-joined items for tuples."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(canonical_value(v) for v in value)
    return str(value)


def validate_rows(experiment: str, rows) -> tuple[str, ...]:
    if experiment not in SCHEMAS:
        raise RecordsError(f"no schema for experiment {experiment!r}")
    columns = SCHEMAS[experiment]
    if not rows:
        raise RecordsError("refusing to emit an empty record set")
    hashes = {row.get("config_hash") for row in rows}
    if len(hashes) != 1:
        raise RecordsError(f"records mix config hashes: {sorted(hashes)}")
    for row in rows:
        if set(row) != set(columns):
            missing = set(columns) - set(row)
            extra = set(row) - set(columns)
            raise RecordsError(
                f"row does not match schema {schema_tag(experiment)}: "
                f"missing {sorted(missing)}, extra {sorted(extra)}")
    return columns


def rows_to_csv_text(experiment: str, rows) -> str:
    """Render rows as RFC-4180 CSV text (CRLF, header row, minimal quoting)."""
    columns = validate_rows(experiment, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([canonical_value(row[c]) for c in columns])
    return buf.getvalue()


def _write_text(path, text: str, what: str) -> Path:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
    return path


def write_csv(path, experiment: str, rows) -> Path:
    """Write the experiment CSV, replacing any earlier file."""
    return _write_text(path, rows_to_csv_text(experiment, rows), "records")


def read_csv(path) -> tuple[tuple[str, ...], list[dict[str, str]]]:
    """Bundled reader: header tuple plus one string-valued dict per row."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read records from {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    table = [row for row in reader if row]
    if not table:
        raise RecordsError(f"{path}: no header row")
    header = tuple(table[0])
    rows = [dict(zip(header, row, strict=True)) for row in table[1:]]
    return header, rows


def write_summary(path, summary: dict) -> Path:
    """Write the JSON summary (sorted keys, trailing newline), replacing any
    earlier file."""
    return _write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n",
                       "summary")
