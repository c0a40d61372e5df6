"""Seeded experiment harness: configuration, runners, records, CLI."""

from .config import (
    DEFAULTS,
    EXPERIMENTS,
    ConfigError,
    build_config,
    config_hash,
    parse_config_text,
    parse_overrides,
    seed_list,
)
from .experiments import ExperimentResult, run_experiment, worker_count
from .records import (
    SCHEMAS,
    RecordsError,
    canonical_value,
    read_csv,
    rows_to_csv_text,
    schema_tag,
    write_csv,
    write_summary,
)
