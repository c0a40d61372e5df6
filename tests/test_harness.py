"""Config resolution, record emission, experiment orchestration, and the CLI.

The heavyweight experiment defaults are exercised in the acceptance suite;
here the runs are shrunk by overrides so the orchestration contract (hashing,
byte-identical records, worker independence, exit codes) stays fast to check.
"""

import json

import pytest

from nlwlab.harness import experiments
from nlwlab.harness.cli import main
from nlwlab.harness.config import (
    DEFAULTS,
    EXPERIMENTS,
    ConfigError,
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
    format_cell,
    read_csv,
    rows_to_csv_text,
    schema_tag,
    validate_rows,
    write_csv,
    write_summary,
)

TINY_CONTINUITY = ("continuity.eps=0.1,0.01,0.001", "continuity.t_star=0.25",
                   "seeds=0,1")


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
            "acl.cutoffs=2,4", "seeds=3,5,8"])
        assert values["grid.n"] == 64 and isinstance(values["grid.n"], int)
        assert values["grid.L"] == 16.0
        assert values["recipe.window"] is False
        assert values["acl.cutoffs"] == (2.0, 4.0)
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


class TestRecords:
    def make_rows(self, n=2, h="abc"):
        return [{"experiment": "acl", "config_hash": h, "seed": i,
                 "cutoff": 2.0, "drift": 0.5 * (i + 1), "e_sup": 1.25}
                for i in range(n)]

    def test_schema_tag(self):
        assert schema_tag("acl") == "acl/1"

    def test_format_cell(self):
        assert format_cell(0.1) == "0.1"
        assert format_cell(3) == "3"
        assert format_cell(True) == "true"
        assert format_cell("linear") == "linear"

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

    def test_append_same_hash(self, tmp_path):
        path = tmp_path / "acl.csv"
        write_csv(path, "acl", self.make_rows())
        write_csv(path, "acl", self.make_rows())
        _, back = read_csv(path)
        assert len(back) == 4

    def test_append_refuses_other_hash(self, tmp_path):
        path = tmp_path / "acl.csv"
        write_csv(path, "acl", self.make_rows())
        with pytest.raises(RecordsError):
            write_csv(path, "acl", self.make_rows(h="xyz"))

    def test_append_refuses_other_schema(self, tmp_path):
        path = tmp_path / "mixed.csv"
        write_csv(path, "acl", self.make_rows())
        row = {"experiment": "continuity", "config_hash": "abc", "seed": 0,
               "eps": 0.1, "distance": 0.1}
        with pytest.raises(RecordsError):
            write_csv(path, "continuity", [row])

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

    def test_rerun_is_byte_identical(self):
        values = build_config("continuity", overrides=TINY_CONTINUITY)
        a = run_experiment("continuity", values, workers=1)
        b = run_experiment("continuity", values, workers=1)
        assert rows_to_csv_text("continuity", a.records) == \
            rows_to_csv_text("continuity", b.records)

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
