"""Config resolution, record emission, experiment orchestration, and the CLI.

The heavyweight experiment defaults are exercised in the acceptance suite;
here the runs are shrunk by overrides so the orchestration contract (hashing,
byte-identical records, worker independence, exit codes) stays fast to check.
"""

import importlib.util
import json
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from nlwlab.data import synthesize
from nlwlab.diagnostics import energy_drift, norm_growth_ratio, smoothed_energy
from nlwlab.dynamics import evolve, linear_trajectory, step_plan
from nlwlab.harness import experiments
from nlwlab.harness.cli import main
from nlwlab.harness.config import (
    CONSTRAINTS,
    DEFAULTS,
    EXPERIMENTS,
    ConfigError,
    _grid,
    _pde,
    _recipe,
    _stepper,
    build_config,
    canonical_value,
    config_hash,
    parse_config_text,
    parse_overrides,
    seed_list,
)
from nlwlab.harness.experiments import run_experiment, worker_count
from nlwlab.harness.records import (
    SCHEMAS,
    RecordsError,
    read_csv,
    rows_to_csv_text,
    schema_tag,
    validate_rows,
    write_csv,
    write_summary,
)

from test_acceptance import SHRUNK

TINY_CONTINUITY = ("continuity.eps=0.1,0.01,0.001", "continuity.t_star=0.25",
                   "seeds=0,1")

# (experiment, case, space-separated overrides, expected stderr after
# "config error: "): a CONSTRAINTS row's message, or a library message after
# the config keys it names.  Every row has at least one case.  The test id is
# "<experiment>-<case>-<overrides>": a number is the index of the CONSTRAINTS
# row the case was written for, kept for the cases whose rule has since moved
# into the built objects, so that no id changes; a word names what the
# library builds and rejects.
ACL_RUN = "acl.horizon, acl.sample_interval, stepper.dt: "
BRACKET_RUN = "bracket.horizon, bracket.sample_interval, stepper.dt: "
GROWTH_RUN = "growth.checkpoints, growth.sample_interval, stepper.dt: "
SCALING_RUN = "scaling.horizon, scaling.sample_interval, stepper.dt: "
LINEAR_RUN = "strichartz.horizon, strichartz.sample_interval: "
ZBOUND_RUN = "zbound.tau, zbound.sample_interval, stepper.dt: "
STEPPER = "stepper.dt, pde.p, stepper.oversample: "
BAND = "grid.n, grid.L, recipe.k_min, recipe.k_max: "
CAP = "exceeds the cap of 1048576 steps"
KEPT = "kept states of 32768 points exceed the cap of 2147483648 bytes"
VIOLATIONS = [
    ("acl", 0, "acl.cutoffs=2,4", "acl.cutoffs needs 3 or more values"),
    ("acl", "order", "acl.cutoffs=8,4,2", "acl.cutoffs must be strictly increasing"),
    ("acl", "order", "acl.cutoffs=2,4,4", "acl.cutoffs must be strictly increasing"),
    # every cutoff builds the smoothing multiplier, which names the rule
    ("acl", "cutoff", "acl.cutoffs=-2,4,8", "acl.cutoffs: cutoff must be positive, got -2.0"),
    ("acl", 1, "acl.horizon=1e6",
     ACL_RUN + f"horizon 1000000.0 in intervals of 0.25 at step 0.015625 {CAP}"),
    # 400000 intervals of ceil(0.25 / 0.1) = 3 steps: over the cap, although
    # the horizon is under it in steps of min(dt, interval)
    ("acl", 1, "stepper.dt=0.1 acl.horizon=100000",
     ACL_RUN + f"horizon 100000.0 in intervals of 0.25 at step 0.1 {CAP}"),
    # horizon / interval overflows to inf
    ("acl", 1, "acl.horizon=1e300 acl.sample_interval=1e-10",
     ACL_RUN + f"horizon 1e+300 in intervals of 1e-10 at step 0.015625 {CAP}"),
    ("acl", 2, "acl.horizon=1.1",
     ACL_RUN + "horizon 1.1 is not an integer number of sampling intervals 0.25"),
    ("acl", 3, "acl.sample_interval=0",
     ACL_RUN + "sampling interval 0.0 outside (0, horizon]"),
    ("acl", "stepper", "stepper.dt=0",
     STEPPER + "dt must be positive and finite, got 0.0"),
    ("acl", "stepper", "stepper.oversample=0",
     STEPPER + "oversample must be an integer >= 1, got 0"),
    ("acl", "grid", "grid.n=20",
     "grid.n, grid.L, grid.dim: n must be a power of two >= 16, got 20"),
    ("acl", "grid", "grid.dim=1", "grid.n, grid.L, grid.dim: dim must be 3, got 1"),
    ("acl", "band", "grid.n=16",
     BAND + "band edge 19.5 is not resolved (representable limit 9.522446662229642)"),
    ("acl", "pde", "pde.p=6",
     "pde.p, pde.s: nonlinearity power p=6.0 outside the supported open range "
     "(3.6666666666666665, 5.0)"),
    ("lemma-a", 0, "bounds.cutoffs=2,4", "bounds.cutoffs needs 3 or more values"),
    ("lemma-a", "cutoff", "bounds.cutoffs=0,4,8",
     "bounds.cutoffs: cutoff must be positive, got 0.0"),
    ("lemma-a", 1, "ensemble.count=1",
     "calibrate/hold-out protocol needs at least 2 seeds"),
    # range(-3) is empty: no seed list, not a crash in min(())
    ("lemma-a", "count", "ensemble.count=-3", "ensemble.count must be at least 1, got -3"),
    # a repeated cutoff leaves the trend fit fewer than 3 distinct points
    ("lemma-a", "order", "bounds.cutoffs=4,4,4", "bounds.cutoffs must be strictly increasing"),
    ("lemma-a", "order", "bounds.cutoffs=2,8,4", "bounds.cutoffs must be strictly increasing"),
    ("lemma-a", "recipe", "recipe.size_hs=0",
     "pde.s, recipe.k_min, recipe.k_max, recipe.size_hs: size_hs must be "
     "positive, got 0.0"),
    ("lemma-b", 0, "bracket.cutoffs=4,8", "bracket.cutoffs needs 3 or more values"),
    ("lemma-b", "cutoff", "bracket.cutoffs=4,-8,16",
     "bracket.cutoffs: cutoff must be positive, got -8.0"),
    ("lemma-b", 1, "seeds=0", "calibrate/hold-out protocol needs at least 2 seeds"),
    ("lemma-b", "order", "bracket.cutoffs=8,8,8",
     "bracket.cutoffs must be strictly increasing"),
    ("lemma-b", 2, "bracket.horizon=1e5",
     BRACKET_RUN + f"horizon 100000.0 in intervals of 0.25 at step 0.015625 {CAP}"),
    ("lemma-b", 3, "bracket.horizon=0.3",
     BRACKET_RUN + "horizon 0.3 is not an integer number of sampling intervals 0.25"),
    ("lemma-b", 4, "bracket.sample_interval=-0.25",
     BRACKET_RUN + "sampling interval -0.25 outside (0, horizon]"),
    ("growth", 0, "growth.checkpoints=1", "growth.checkpoints needs 2 or more values"),
    ("growth", 1, "growth.checkpoints=2,1",
     "growth.checkpoints must be strictly increasing"),
    ("growth", 1, "growth.checkpoints=1,1.1",
     GROWTH_RUN + "horizon 1.1 is not an integer number of sampling intervals 0.25"),
    ("growth", 1, "growth.sample_interval=0",
     GROWTH_RUN + "sampling interval 0.0 outside (0, horizon]"),
    ("growth", 2, "growth.checkpoints=1,2e5",
     GROWTH_RUN + f"horizon 200000.0 in intervals of 0.25 at step 0.015625 {CAP}"),
    ("growth", "recipe", "recipe.k_min=5",
     "pde.s, recipe.k_min, recipe.k_max, recipe.size_hs: need 0 < k_min < k_max, "
     "got [5.0, 4.7]"),
    # the data band is checked on the grid before the first cell synthesizes
    ("growth", "band", "recipe.k_min=0.01 recipe.k_max=0.02",
     BAND + "band [0.01, 0.02] holds no mode off the mean and the Nyquist planes"),
    ("growth", "band", "recipe.k_max=5.2",
     BAND + "band edge 5.2 is not resolved (representable limit 5.101310711908737)"),
    # above s_c, so PdeParams takes it, but at or below the regularity threshold
    ("growth", "exponents", "pde.s=0.9",
     "pde.p, pde.s: s=0.9 is at or below the regularity threshold for p=4.0; "
     "growth exponents diverge"),
    ("scaling", 0, "scaling.lambdas=", "scaling.lambdas needs 1 or more values"),
    ("scaling", 1, "scaling.horizon=0.5",
     "scaling.horizon must be at least 3 x scaling.sample_interval"),
    ("scaling", 2, "scaling.horizon=1e5",
     SCALING_RUN + f"horizon 100000.0 in intervals of 0.25 at step 0.015625 {CAP}"),
    # 640000 steps, under the cap, but the base run keeps 40001 states of 1 MiB
    ("scaling", 2, "scaling.horizon=10000", SCALING_RUN + "40001 " + KEPT),
    # the base run fits under both caps, its half-step calibration run does not
    ("scaling", 2, "scaling.horizon=9600 scaling.sample_interval=16",
     SCALING_RUN + f"horizon 9600.0 in intervals of 16.0 at step 0.0078125 {CAP}"),
    ("scaling", 3, "scaling.horizon=0.8",
     SCALING_RUN + "horizon 0.8 is not an integer number of sampling intervals 0.25"),
    ("scaling", 4, "scaling.sample_interval=0",
     SCALING_RUN + "sampling interval 0.0 outside (0, horizon]"),
    ("scaling", "lambdas", "scaling.lambdas=1,3",
     "scaling.lambdas: scale factor must be a power of two, got 3.0"),
    ("continuity", 0, "continuity.eps=0.1,0.01",
     "continuity.eps needs 3 or more values"),
    ("continuity", 1, "continuity.eps=0.01,0.1,0.001",
     "continuity.eps must be strictly decreasing"),
    # strictly decreasing, but not positive; data.perturb itself accepts 0
    ("continuity", 2, "continuity.eps=0.1,0.01,-0.001",
     "continuity.eps must be positive"),
    ("continuity", 2, "continuity.eps=0.1,0.01,0",
     "continuity.eps must be positive"),
    ("continuity", 2, "continuity.t_star=1e5",
     "continuity.t_star, stepper.dt: horizon 100000.0 in intervals of 100000.0 "
     f"at step 0.015625 {CAP}"),
    ("continuity", "plan", "continuity.t_star=0",
     "continuity.t_star, stepper.dt: horizon must be positive, got 0.0"),
    ("continuity", "stepper", "stepper.dt=-0.1",
     STEPPER + "dt must be positive and finite, got -0.1"),
    ("continuity", "bump", "continuity.bump_seed=-20000",
     "continuity.bump_seed must be non-negative"),
    # any seed of the list, not only the first, whose recipe is built
    ("continuity", "seeds", "seeds=-3,1", "seeds must be non-negative, got (-3, 1)"),
    ("continuity", "seeds", "seeds=0,-1", "seeds must be non-negative, got (0, -1)"),
    ("strichartz", 0, "seeds=0", "calibrate/hold-out protocol needs at least 2 seeds"),
    ("strichartz", "target", "zbound.energy_target=-1", "zbound.energy_target must be positive"),
    ("strichartz", "target", "zbound.energy_target=0", "zbound.energy_target must be positive"),
    ("strichartz", "cutoff", "strichartz.cutoff=-1",
     "strichartz.cutoff: cutoff must be positive, got -1.0"),
    ("strichartz", "cutoff", "zbound.cutoff=0", "zbound.cutoff: cutoff must be positive, got 0.0"),
    ("strichartz", 1, "zbound.tau=1e5",
     ZBOUND_RUN + f"horizon 100000.0 in intervals of 0.0625 at step 0.015625 {CAP}"),
    ("strichartz", 2, "strichartz.horizon=1.03125",
     LINEAR_RUN + "horizon 1.03125 is not an integer number of sampling "
     "intervals 0.0625"),
    ("strichartz", 3, "zbound.tau=0.1",
     ZBOUND_RUN + "horizon 0.1 is not an integer number of sampling intervals 0.0625"),
    ("strichartz", 4, "strichartz.sample_interval=0",
     LINEAR_RUN + "sampling interval 0.0 outside (0, horizon]"),
    ("strichartz", 5, "zbound.sample_interval=-0.0625",
     ZBOUND_RUN + "sampling interval -0.0625 outside (0, horizon]"),
    # the linear orbit is planned at one step per interval
    ("strichartz", "plan", "strichartz.horizon=1e5",
     LINEAR_RUN + f"horizon 100000.0 in intervals of 0.0625 at step 0.0625 {CAP}"),
]
VIOLATION_IDS = [f"{name}-{case}-{override}" for name, case, override, _ in VIOLATIONS]


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclass looks its module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestConfigParsing:
    def test_comments_and_blanks(self):
        text = "# header\n\ngrid.n = 16  # inline\nstepper.dt = 0.25\n"
        raw = parse_config_text(text)
        assert raw == {"grid.n": "16", "stepper.dt": "0.25"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.n = 16\ngrid.n = 32\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.n 16\n")
        with pytest.raises(ConfigError):
            parse_config_text("= 16\n")

    def test_override_pairs(self):
        assert parse_overrides(["a.b=1", "c = 2"]) == {"a.b": "1", "c": "2"}
        with pytest.raises(ConfigError):
            parse_overrides(["nonsense"])


class TestBuildConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            build_config("bogus")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_config("acl", overrides=["no.such.key=1"])

    def test_defaults_complete(self):
        for name in EXPERIMENTS:
            values = build_config(name)
            assert values == DEFAULTS[name]

    def test_coercion_types(self):
        values = build_config("acl", overrides=[
            "grid.n=64", "grid.L=16.0", "recipe.window=false",
            "acl.cutoffs=2,4,8", "seeds=3,5,8"])
        assert values["grid.n"] == 64 and isinstance(values["grid.n"], int)
        assert values["grid.L"] == 16.0
        assert values["recipe.window"] is False
        assert values["acl.cutoffs"] == (2.0, 4.0, 8.0)
        assert values["seeds"] == (3, 5, 8)

    def test_bool_spellings(self):
        for word, expected in (("true", True), ("1", True), ("yes", True),
                               ("false", False), ("0", False), ("no", False)):
            assert build_config("acl", overrides=[f"recipe.window={word}"])[
                "recipe.window"] is expected
        with pytest.raises(ConfigError):
            build_config("acl", overrides=["recipe.window=maybe"])

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError):
            build_config("acl", overrides=["grid.n=sixteen"])
        with pytest.raises(ConfigError):
            build_config("acl", overrides=["acl.cutoffs=2,two"])

    def test_override_beats_file(self):
        values = build_config("acl", file_text="grid.n = 64\n",
                              overrides=["grid.n=128"])
        assert values["grid.n"] == 128

    @pytest.mark.parametrize("pair", ["continuity.t_star=inf",
                                      "recipe.size_hs=nan",
                                      "continuity.eps=0.1,-inf"])
    def test_non_finite_float_rejected(self, pair):
        with pytest.raises(ConfigError, match="finite"):
            build_config("continuity", overrides=[pair])

    def test_step_count_capped(self):
        with pytest.raises(ConfigError, match="steps"):
            build_config("growth", overrides=["growth.checkpoints=1,2e6",
                                              "growth.sample_interval=1"])
        build_config("growth", overrides=["growth.checkpoints=1,2"])

    @pytest.mark.parametrize("experiment,overrides", [
        # 1024000 steps, under MAX_STEPS, observed as it goes: 1024001 kept
        # states of 1 MiB would exceed MAX_KEPT_BYTES, but none is kept
        ("acl", ["acl.horizon=16000", "acl.sample_interval=0.015625"]),
        # a linear orbit of 3201 samples, measured as it goes
        ("strichartz", ["strichartz.horizon=200"]),
    ], ids=["acl", "strichartz"])
    def test_unkept_run_has_no_kept_state_cap(self, experiment, overrides):
        build_config(experiment, overrides=overrides)  # only checked, not run

    def test_growth_exponents_checked_for_growth_only(self):
        with pytest.raises(ConfigError, match="regularity threshold"):
            build_config("growth", overrides=["pde.s=0.9"])
        # the other experiments run at any s above s_c
        build_config("continuity", overrides=["pde.s=0.9"])
        build_config("growth", overrides=["pde.s=0.97"])

    def test_shipped_configs_pass(self):
        for name in EXPERIMENTS:
            build_config(name)
            build_config(name, overrides=SHRUNK[name])
        for workload in _bench_workloads().values():
            for tiny in (False, True):
                for warmup in (False, True):
                    workload.config(0, tiny=tiny, warmup=warmup)

    def test_every_constraint_row_has_a_violation(self):
        rows = {(name, message) for name, table in CONSTRAINTS.items()
                for message, _ in table}
        assert rows <= {(name, expected) for name, _, _, expected in VIOLATIONS}
        assert tuple(CONSTRAINTS) == EXPERIMENTS

    def test_empty_tuple_value(self):
        values = build_config("lemma-a", overrides=["seeds="])
        assert values["seeds"] == ()


class TestSeedList:
    def test_explicit(self):
        assert seed_list({"seeds": (4, 2, 7)}) == (4, 2, 7)

    def test_derived_from_ensemble_count(self):
        assert seed_list({"seeds": (), "ensemble.count": 4}) == (0, 1, 2, 3)

    def test_empty_without_count(self):
        with pytest.raises(ConfigError):
            seed_list({"seeds": ()})

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            seed_list({"seeds": (1, 1, 2)})

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ConfigError, match=f"at least 1, got {count}"):
            seed_list({"seeds": (), "ensemble.count": count})

    def test_negative_rejected_anywhere_in_the_list(self):
        with pytest.raises(ConfigError, match="non-negative"):
            seed_list({"seeds": (1, 2, -3)})


class TestConfigHash:
    def test_insertion_order_irrelevant(self):
        a = build_config("acl")
        b = dict(reversed(list(a.items())))
        assert config_hash("acl", a) == config_hash("acl", b)

    def test_sensitive_to_values_and_experiment(self):
        base = build_config("acl")
        bumped = build_config("acl", overrides=["grid.n=64"])
        assert config_hash("acl", base) != config_hash("acl", bumped)
        assert config_hash("acl", base) != config_hash("lemma-b", base)

    def test_canonical_value_forms(self):
        assert canonical_value(True) == "true"
        assert canonical_value(0.1) == "0.1"
        assert canonical_value(1.0 / 64) == "0.015625"
        assert canonical_value((2.0, 4.0)) == "2.0,4.0"
        assert canonical_value((0, 1)) == "0,1"
        assert canonical_value(3) == "3"
        assert canonical_value("linear") == "linear"


class TestRecords:
    def make_rows(self, n=2, h="abc"):
        return [{"experiment": "acl", "config_hash": h, "seed": i,
                 "cutoff": 2.0, "drift": 0.5 * (i + 1), "e_sup": 1.25}
                for i in range(n)]

    def test_schema_tag(self):
        assert schema_tag("acl") == "acl/1"

    def test_validate_rejects_bad_shape(self):
        rows = self.make_rows()
        del rows[1]["drift"]
        with pytest.raises(RecordsError):
            validate_rows("acl", rows)
        with pytest.raises(RecordsError):
            validate_rows("acl", [])
        with pytest.raises(RecordsError):
            validate_rows("bogus", self.make_rows())

    def test_validate_rejects_mixed_hashes(self):
        rows = self.make_rows() + self.make_rows(h="xyz")
        with pytest.raises(RecordsError):
            validate_rows("acl", rows)

    def test_csv_text_is_crlf_rfc4180(self):
        text = rows_to_csv_text("acl", self.make_rows())
        lines = text.split("\r\n")
        assert lines[0] == ",".join(SCHEMAS["acl"])
        assert lines[-1] == ""
        assert "\n" not in text.replace("\r\n", "")

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "acl.csv"
        rows = self.make_rows()
        write_csv(path, "acl", rows)
        header, back = read_csv(path)
        assert header == SCHEMAS["acl"]
        assert len(back) == 2
        assert float(back[0]["drift"]) == 0.5
        assert back[1]["config_hash"] == "abc"

    @pytest.mark.parametrize("case", ["same_hash", "other_hash", "other_schema"])
    def test_write_replaces_earlier_file(self, case, tmp_path):
        path = tmp_path / "records.csv"
        write_csv(path, "acl", self.make_rows())
        experiment, rows = {
            "same_hash": ("acl", self.make_rows()),
            "other_hash": ("acl", self.make_rows(h="xyz")),
            "other_schema": ("continuity", [
                {"experiment": "continuity", "config_hash": "abc", "seed": 0,
                 "eps": 0.1, "distance": 0.1}]),
        }[case]
        write_csv(path, experiment, rows)
        assert path.read_bytes() == rows_to_csv_text(experiment, rows).encode("utf-8")

    @pytest.mark.parametrize("what", ["records", "summary"])
    def test_write_error_names_the_path(self, what, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "out"
        message = re.escape(f"cannot write {what} to {path}")
        with pytest.raises(OSError, match=message):
            if what == "records":
                write_csv(path, "acl", self.make_rows())
            else:
                write_summary(path, {})

    def test_read_missing_and_empty(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "absent.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(RecordsError):
            read_csv(empty)

    def test_summary_json(self, tmp_path):
        path = tmp_path / "sum.json"
        write_summary(path, {"b": 1, "a": [2, 3]})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [2, 3], "b": 1}
        assert text.index('"a"') < text.index('"b"')


class TestWorkerCount:
    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv("NLWLAB_WORKERS", "3")
        assert worker_count() == 3

    def test_env_validated(self, monkeypatch):
        monkeypatch.setenv("NLWLAB_WORKERS", "zero")
        with pytest.raises(ConfigError):
            worker_count()
        monkeypatch.setenv("NLWLAB_WORKERS", "0")
        with pytest.raises(ConfigError):
            worker_count()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("NLWLAB_WORKERS", raising=False)
        assert worker_count() >= 1


class TestRunExperiment:
    def test_experiments_named_in_one_place(self):
        assert tuple(DEFAULTS) == EXPERIMENTS == tuple(SCHEMAS)
        assert tuple(experiments._TABLE) == EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run_experiment("bogus", {})

    def test_summary_contract(self):
        values = build_config("continuity", overrides=TINY_CONTINUITY)
        result = run_experiment("continuity", values, workers=1)
        s = result.summary
        assert s["experiment"] == "continuity"
        assert s["schema"] == "continuity/1"
        assert s["config_hash"] == config_hash("continuity", values)
        assert s["seeds"] == [0, 1]
        assert s["passed"] is True and result.passed is True
        assert s["duration_seconds"] >= 0.0
        assert all(set(r) == set(SCHEMAS["continuity"]) for r in result.records)
        names = [a["name"] for a in s["assertions"]]
        assert "distance_monotone_violations" in names
        assert "median_distance_slope" in names

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_build_config_plans_every_run(self, name, monkeypatch):
        # `config._plan_runs` restates each cell's evolve and linear_trajectory
        # calls by hand: every run a cell makes must have been planned, with
        # its horizon, interval, step and kept-state cap
        calls = []

        def spy(horizon, interval, dt, keep=None):
            calls.append((horizon, interval, dt, keep is not None))
            return step_plan(horizon, interval, dt, keep)

        monkeypatch.setattr("nlwlab.dynamics.step_plan", spy)
        monkeypatch.setattr("nlwlab.harness.config.step_plan", spy)
        values = build_config(name, overrides=SHRUNK[name])
        planned = set(calls)
        calls.clear()
        run_experiment(name, values, workers=1)
        assert bool(calls) == (name != "lemma-a")  # lemma-a measures data only
        assert set(calls) <= planned

    @pytest.mark.parametrize("name,runs", [
        ("acl", ["evolve"]), ("lemma-b", ["evolve"]),
        ("strichartz", ["evolve", "linear_trajectory"])])
    def test_measured_runs_keep_no_orbit(self, name, runs, monkeypatch):
        # these cells measure each state as it is produced (OrbitMeter);
        # strichartz runs its zbound run first, so the linear orbit can take
        # the data's only reference
        calls = []
        for fn in ("evolve", "linear_trajectory"):
            def spy(*args, _fn=fn, _original=getattr(experiments, fn), **kwargs):
                calls.append((_fn, kwargs.get("keep_states", True),
                              kwargs.get("observer") is not None))
                return _original(*args, **kwargs)
            monkeypatch.setattr(experiments, fn, spy)
        values = build_config(name, overrides=SHRUNK[name])
        cell, _ = experiments._TABLE[name]
        cell(values, seed_list(values)[0])
        assert calls == [(fn, False, True) for fn in runs]

    @pytest.mark.parametrize("name", ["acl", "lemma-b", "growth", "strichartz"])
    def test_measured_runs_let_go_of_their_input(self, name, monkeypatch):
        # each cell hands every measured run (`evolve`, and strichartz's
        # linear orbit too) its only reference to the run's input, so the
        # input is gone by the time the observer sees sample 1
        dead = []

        def watching(run, state, observer):
            ref, samples = weakref.ref(state), []

            def watch(sample):
                if len(samples) == 1:
                    dead.append((run, ref() is None))
                samples.append(sample.t)
                observer(sample)
            return watch

        # each spy names its arguments: a call through *args would hold the
        # input in an argument tuple for the whole run
        def evolve_spy(state, horizon, cfg, *, sample_interval, keep_states, observer):
            watch = watching("evolve", state, observer)
            box = [state]
            del state  # the spy holds no reference while the run goes on
            return evolve(box.pop(), horizon, cfg, sample_interval=sample_interval,
                          keep_states=keep_states, observer=watch)

        def linear_spy(state, horizon, sample_interval, *, keep_states, observer):
            watch = watching("linear_trajectory", state, observer)
            box = [state]
            del state
            return linear_trajectory(box.pop(), horizon, sample_interval,
                                     keep_states=keep_states, observer=watch)

        monkeypatch.setattr(experiments, "evolve", evolve_spy)
        monkeypatch.setattr(experiments, "linear_trajectory", linear_spy)
        values = build_config(name, overrides=SHRUNK[name])
        cell, _ = experiments._TABLE[name]
        cell(values, seed_list(values)[0])
        runs = ["evolve", "linear_trajectory"] if name == "strichartz" else ["evolve"]
        assert dead == [(run, True) for run in runs]

    def test_acl_drifts_use_the_stepper_oversample(self):
        # each rung's drift is max |E - E0| of the smoothed energy on the
        # stepper's oversampled grid, along the same run with its states kept
        values = build_config("acl", overrides=SHRUNK["acl"] + ["stepper.oversample=3"])
        rows = experiments._acl_cell(values, 0)
        params, stepper = _pde(values), _stepper(values)
        traj = evolve(synthesize(_recipe(values, 0), _grid(values)), values["acl.horizon"],
                      stepper, sample_interval=values["acl.sample_interval"])
        assert [row[0] for row in rows] == list(values["acl.cutoffs"])
        for cutoff, drift, e_sup in rows:
            energies = np.array([smoothed_energy(w, cutoff, params.s, params.p, 3).total
                                 for w in traj.states])
            assert drift == float(np.max(np.abs(energies - energies[0])))
            assert e_sup == float(np.max(energies))

    @pytest.mark.parametrize("name", ["acl", "lemma-b"])
    def test_kept_trajectory_diagnostics_use_the_run_oversample(self, name):
        # the public functions over the same run with its states kept give
        # the cells' values bit for bit, at the stepper's factor, not 2
        values = build_config(name, overrides=SHRUNK[name] + ["stepper.oversample=3"])
        params, stepper = _pde(values), _stepper(values)
        prefix = "acl" if name == "acl" else "bracket"
        traj = evolve(synthesize(_recipe(values, 0), _grid(values)),
                      values[f"{prefix}.horizon"], stepper,
                      sample_interval=values[f"{prefix}.sample_interval"])
        assert traj.oversample == 3
        for row in experiments._TABLE[name][0](values, 0):
            cutoff = row[0]
            if name == "acl":
                rep = energy_drift(traj, cutoff, params.s, params.p)
                assert row == (cutoff, rep.drift, rep.e_sup)
            else:
                rep = norm_growth_ratio(traj, params, cutoff)
                assert row == (cutoff, rep.initial, rep.final, rep.e_sup, rep.z_max,
                               rep.ratio)

    def test_rerun_is_byte_identical(self):
        values = build_config("continuity", overrides=TINY_CONTINUITY)
        a = run_experiment("continuity", values, workers=1)
        b = run_experiment("continuity", values, workers=1)
        assert rows_to_csv_text("continuity", a.records) == \
            rows_to_csv_text("continuity", b.records)

    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_row_of_wrong_length_raises(self, extra, monkeypatch):
        cell, judge = experiments._TABLE["continuity"]

        def misshapen(values, seed):
            return [tup + (0.0,) if extra > 0 else tup[:-1]
                    for tup in cell(values, seed)]

        monkeypatch.setitem(experiments._TABLE, "continuity", (misshapen, judge))
        values = build_config("continuity", overrides=TINY_CONTINUITY)
        with pytest.raises(ValueError):
            run_experiment("continuity", values, workers=1)

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_judges_read_columns_by_name(self, name, monkeypatch):
        # rotate the experiment's own columns, in its schema and in every
        # tuple its cell returns: the records, assertions and fits stay put
        cell, judge = experiments._TABLE[name]
        values = build_config(name, overrides=SHRUNK[name])
        tuples = {seed: cell(values, seed) for seed in seed_list(values)}
        monkeypatch.setitem(experiments._TABLE, name,
                            (lambda _, seed: tuples[seed], judge))
        plain = run_experiment(name, values, workers=1)
        prefix, own = SCHEMAS[name][:3], SCHEMAS[name][3:]
        monkeypatch.setitem(SCHEMAS, name, prefix + own[1:] + own[:1])
        monkeypatch.setitem(
            experiments._TABLE, name,
            (lambda _, seed: [t[1:] + t[:1] for t in tuples[seed]], judge))
        rotated = run_experiment(name, values, workers=1)
        assert rotated.records == plain.records
        assert rotated.summary["assertions"] == plain.summary["assertions"]
        assert rotated.summary["fits"] == plain.summary["fits"]

    def test_growth_gate_fails_on_outgrown_envelope(self, monkeypatch):
        # negative control: an observed norm that doubles every sample
        # outgrows both envelopes, which are nearly flat below T = 1
        true_norm = experiments.pair_sobolev_norm
        interval = 0.25

        def doubling(state, s):
            return true_norm(state, s) * 2.0 ** (state.t / interval)

        monkeypatch.setattr(experiments, "pair_sobolev_norm", doubling)
        values = build_config("growth", overrides=[
            "growth.checkpoints=0.25,0.5", f"growth.sample_interval={interval}",
            "seeds=0"])
        result = run_experiment("growth", values, workers=1)
        assert result.passed is False
        headroom = values["growth.headroom"]
        for a in result.summary["assertions"]:
            assert a["passed"] is False
            assert a["value"] > headroom

    def test_workers_do_not_change_records(self):
        values = build_config("continuity", overrides=TINY_CONTINUITY)
        serial = run_experiment("continuity", values, workers=1)
        parallel = run_experiment("continuity", values, workers=2)
        assert rows_to_csv_text("continuity", serial.records) == \
            rows_to_csv_text("continuity", parallel.records)


class TestCli:
    def test_params_report(self, capsys):
        code = main(["params", "--p", "4", "--s", "0.95"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert report["s_crit"] == pytest.approx(5.0 / 6.0)
        assert report["s_threshold"] == pytest.approx(17.0 / 18.0)
        assert report["alpha"] == pytest.approx(33.5, rel=1e-9)
        assert report["beta"] == pytest.approx(7.7, rel=1e-9)
        assert report["cutoff"] >= 1.0

    def test_params_below_threshold_reports_undefined(self, capsys):
        code = main(["params", "--p", "4", "--s", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "undefined" in out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["alpha"] is None and report["cutoff"] is None

    def test_params_rejects_bad_power(self, capsys):
        assert main(["params", "--p", "3", "--s", "0.8"]) == 2

    def test_unknown_override_is_config_error(self, capsys):
        assert main(["continuity", "--override", "no.such=1"]) == 2

    def test_duplicate_seeds_is_config_error(self, capsys):
        assert main(["continuity", "--seeds", "1,1"]) == 2

    def test_single_growth_checkpoint_is_config_error(self, capsys):
        assert main(["growth", "--seeds", "0", "--workers", "1",
                     "--override", "growth.checkpoints=1"]) == 2

    def test_infinite_t_star_is_config_error(self, capsys):
        assert main(["continuity", "--seeds", "0,1", "--workers", "1",
                     "--override", "continuity.t_star=inf"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["0", "-0.0625"])
    def test_non_positive_linear_interval_is_config_error(self, interval, capsys):
        assert main(["strichartz", "--seeds", "0,1", "--workers", "1",
                     "--override", f"strichartz.sample_interval={interval}"]) == 2
        assert "outside (0, horizon]" in capsys.readouterr().err

    def test_infinite_data_size_is_config_error(self, capsys):
        assert main(["continuity", "--seeds", "0,1", "--workers", "1",
                     "--override", "recipe.size_hs=inf"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_tiny_step_is_config_error_before_any_run(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the run must not start")
        monkeypatch.setattr("nlwlab.harness.cli.run_experiment", refuse)
        assert main(["continuity", "--seeds", "0,1", "--workers", "1",
                     "--override", "stepper.dt=1e-300"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("name,case,override,expected", VIOLATIONS,
                             ids=VIOLATION_IDS)
    def test_constraint_is_config_error_before_any_run(self, name, case, override,
                                                       expected, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the run must not start")
        monkeypatch.setattr("nlwlab.harness.cli.run_experiment", refuse)
        args = [name, "--workers", "1"]
        for item in override.split():
            args += ["--override", item]
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: {expected}\n"

    def test_unexpected_exception_is_runtime_error(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise ZeroDivisionError("unforeseen")
        monkeypatch.setattr("nlwlab.harness.cli.run_experiment", crash)
        assert main(["continuity", "--seeds", "0,1", "--workers", "1"]) == 3
        assert "ZeroDivisionError: unforeseen" in capsys.readouterr().err

    def test_bad_worker_count(self, capsys):
        assert main(["continuity", "--workers", "0"]) == 2

    def test_tiny_run_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["continuity", "--out", str(out_dir), "--seeds", "0",
                     "--override", "continuity.eps=0.1,0.01,0.001",
                     "--override", "continuity.t_star=0.25",
                     "--workers", "1"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "[PASS] continuity/" in printed
        header, rows = read_csv(out_dir / "continuity.csv")
        assert header == SCHEMAS["continuity"]
        assert len(rows) == 3
        summary = json.loads((out_dir / "continuity_summary.json").read_text())
        assert summary["passed"] is True

    def run_tiny_continuity(self, out_dir, seeds):
        code = main(["continuity", "--out", str(out_dir), "--seeds", seeds,
                     "--override", "continuity.eps=0.1,0.01,0.001",
                     "--override", "continuity.t_star=0.25", "--workers", "1"])
        csv_bytes = (out_dir / "continuity.csv").read_bytes()
        summary = json.loads((out_dir / "continuity_summary.json").read_text())
        return code, csv_bytes, summary

    def test_rerun_replaces_outputs_with_same_bytes(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, first, summary = self.run_tiny_continuity(out_dir, "0,1")
        assert code == 0
        code, second, again = self.run_tiny_continuity(out_dir, "0,1")
        assert code == 0
        assert second == first
        _, rows = read_csv(out_dir / "continuity.csv")
        assert len(rows) == 6
        del summary["duration_seconds"], again["duration_seconds"]
        assert again == summary

    def test_other_seeds_replace_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert self.run_tiny_continuity(out_dir, "0,1")[0] == 0
        code, _, summary = self.run_tiny_continuity(out_dir, "2")
        assert code == 0
        _, rows = read_csv(out_dir / "continuity.csv")
        assert {row["seed"] for row in rows} == {"2"}
        assert summary["seeds"] == [2]

    def test_failing_experiment_exits_one(self, tmp_path, capsys):
        # zero headroom: no positive held-out ratio can meet it
        out_dir = tmp_path / "growth"
        code = main(["growth", "--out", str(out_dir), "--seeds", "0",
                     "--override", "growth.checkpoints=1,2",
                     "--override", "growth.headroom=0",
                     "--workers", "1"])
        printed = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] growth/ratio_held_out_bounded" in printed
        summary = json.loads((out_dir / "growth_summary.json").read_text())
        assert summary["passed"] is False

    def test_config_file_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("continuity.t_star = 0.25\n"
                       "continuity.eps = 0.1,0.01,0.001\n")
        out_dir = tmp_path / "run"
        code = main(["continuity", "--config", str(cfg), "--out", str(out_dir),
                     "--seeds", "0", "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((out_dir / "continuity_summary.json").read_text())
        assert summary["config"]["continuity.t_star"] == "0.25"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["continuity", "--config",
                     str(tmp_path / "absent.cfg")]) == 2
