"""End-to-end tests of the command-line interface and its JSON reports."""

from __future__ import annotations

import json

import jsonschema
import pytest

from conftest import extreme_scales
from phrp import harp
from phrp.cli import main, report_schema
from phrp.model import save_statistics


def _run(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def _validate(report):
    jsonschema.validate(report, report_schema())


def test_schema_itself_is_valid():
    jsonschema.Draft202012Validator.check_schema(report_schema())


@pytest.fixture
def feasible_csv(tmp_path, feasible2):
    path = tmp_path / "feasible.csv"
    save_statistics(feasible2, path)
    return path


@pytest.fixture
def infeasible_csv(tmp_path, infeasible2):
    path = tmp_path / "infeasible.csv"
    save_statistics(infeasible2, path)
    return path


class TestHarpCommand:
    def test_feasible_exit_zero(self, tmp_path, feasible_csv):
        code, report = _run(tmp_path, ["harp", "--input", str(feasible_csv)])
        assert code == 0
        _validate(report)
        assert report["status"] == "FEASIBLE"
        assert sum(report["certificate"]["lambdas"]) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_exit_one(self, tmp_path, infeasible_csv):
        code, report = _run(tmp_path, ["harp", "--input", str(infeasible_csv)])
        assert code == 1
        _validate(report)
        assert report["status"] == "INFEASIBLE"
        assert report["cycle"]["cycle_ratio"] == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_missing_file_exit_11(self, tmp_path, capsys):
        code = main(["harp", "--input", str(tmp_path / "none.csv")])
        assert code == 11
        assert "io error" in capsys.readouterr().err

    def test_malformed_file_exit_11(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("p1,q1\n1,zero\n")
        assert main(["harp", "--input", str(bad)]) == 11

    def test_usage_error_exit_10(self, capsys):
        assert main(["harp"]) == 10
        assert "usage" in capsys.readouterr().err

    def test_multipliers_beyond_float64_exit_2(self, tmp_path):
        csv = tmp_path / "extreme.csv"
        save_statistics(extreme_scales(), csv)
        code, report = _run(tmp_path, ["harp", "--input", str(csv)])
        assert code == 2
        _validate(report)
        assert report["status"] == "UNDECIDED"

    def test_internal_error_exit_12(self, tmp_path, feasible_csv, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(harp, "check_harp", broken)
        code, report = _run(tmp_path, ["harp", "--input", str(feasible_csv)])
        assert code == 12
        assert report is None
        assert "internal error: ValueError: boom" in capsys.readouterr().err


class TestSeparabilityCommand:
    def test_missing_column_exit_10(self, tmp_path, feasible_csv, capsys):
        code = main(
            ["separability", "--input", str(feasible_csv), "--y-cols", "3,4"]
        )
        assert code == 10
        assert "usage error" in capsys.readouterr().err

    def test_all_columns_exit_10(self, feasible_csv):
        assert (
            main(["separability", "--input", str(feasible_csv), "--y-cols", "1,2"])
            == 10
        )

    def test_nested_data_accepted(self, tmp_path):
        csv = tmp_path / "nested.csv"
        assert main(
            ["gen", "--family", "nested-cd", "--goods", "4", "--y-goods", "2",
             "--periods", "5", "--seed", "4", "--out", str(csv),
             "--output", str(tmp_path / "gen.json")]
        ) == 0
        args = ["separability", "--input", str(csv), "--y-cols", "3,4"]
        code, report = _run(tmp_path, args)
        assert code == 0
        _validate(report)
        assert report["status"] == "FEASIBLE"
        assert report["optimum"] is None  # the exact start verified; no program solved
        assert report["lambdas"] is not None
        assert report["violated_constraints"] == []
        code2, report2 = _run(tmp_path, args, "report2.json")
        assert code2 == code
        report.pop("timings")
        report2.pop("timings")
        assert report == report2


class TestCollectiveCommands:
    def test_collective_and_class_number(self, tmp_path):
        csv = tmp_path / "agg.csv"
        wit = tmp_path / "witness.json"
        assert main(
            ["gen", "--family", "collective", "--goods", "2", "--consumers", "2",
             "--periods", "4", "--seed", "11", "--out", str(csv),
             "--witness-out", str(wit), "--output", str(tmp_path / "gen.json")]
        ) == 0
        assert json.loads(wit.read_text())["k"] == 2
        code, report = _run(tmp_path, ["collective", "--input", str(csv), "--k", "2"])
        assert code == 0
        _validate(report)
        assert report["witness"]["k"] == 2
        code, report = _run(tmp_path, ["class-number", "--input", str(csv)])
        assert code in (0, 2, 3)
        _validate(report)

    def test_class_number_all_undecided_exit_2(self, tmp_path):
        # k = 1, 2, 3 are all UNDECIDED: no k was rejected, so not exit 3
        csv = tmp_path / "extreme.csv"
        save_statistics(extreme_scales(), csv)
        code, report = _run(tmp_path, ["class-number", "--input", str(csv)])
        assert code == 2
        _validate(report)
        assert report["per_k"] == {"1": "UNDECIDED", "2": "UNDECIDED", "3": "UNDECIDED"}

    def test_class_number_all_infeasible_exit_3(self, tmp_path, infeasible_csv):
        args = ["class-number", "--input", str(infeasible_csv), "--k-max", "1"]
        code, report = _run(tmp_path, args)
        assert code == 3
        _validate(report)
        assert report["per_k"] == {"1": "INFEASIBLE"}

    def test_bad_k_exit_10(self, feasible_csv):
        assert main(["collective", "--input", str(feasible_csv), "--k", "0"]) == 10


class TestGenCommand:
    def test_schema_and_determinism(self, tmp_path):
        args = [
            "gen", "--family", "cobb-douglas", "--goods", "3", "--periods", "6",
            "--seed", "9", "--out", str(tmp_path / "a.csv"),
        ]
        code, report = _run(tmp_path, args, name="gen1.json")
        assert code == 0
        _validate(report)
        code2, report2 = _run(
            tmp_path,
            ["gen", "--family", "cobb-douglas", "--goods", "3", "--periods", "6",
             "--seed", "9", "--out", str(tmp_path / "b.csv")],
            name="gen2.json",
        )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        report.pop("timings")
        report2.pop("timings")
        report["output_path"] = report2["output_path"] = ""
        assert report == report2

    def test_generated_file_loads(self, tmp_path):
        from phrp.model import load_statistics

        out = tmp_path / "gen.csv"
        assert main(
            ["gen", "--family", "cobb-douglas", "--goods", "2", "--periods", "3",
             "--seed", "0", "--out", str(out), "--output", str(tmp_path / "r.json")]
        ) == 0
        stats = load_statistics(out)
        assert stats.periods == 3 and stats.goods == 2


class TestDeterminism:
    def test_reports_identical_modulo_timings(self, tmp_path, feasible_csv):
        code1, rep1 = _run(tmp_path, ["harp", "--input", str(feasible_csv)], "r1.json")
        code2, rep2 = _run(tmp_path, ["harp", "--input", str(feasible_csv)], "r2.json")
        assert code1 == code2
        rep1.pop("timings")
        rep2.pop("timings")
        assert rep1 == rep2
