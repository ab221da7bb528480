"""End-to-end tests of the command-line interface and its JSON reports."""

from __future__ import annotations

import json

import jsonschema
import numpy as np
import pytest

from conftest import extreme_scales, subnormal_quantity
from phrp import harp
from phrp.cli import main, report_schema
from phrp.model import MarketStatistics, save_statistics


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
        assert report["tolerances"] == {}
        assert report["lambdas"] is not None
        assert report["violated_constraints"] == []
        code2, report2 = _run(tmp_path, args, "report2.json")
        assert code2 == code
        report.pop("timings")
        report2.pop("timings")
        assert report == report2


    def test_tol_reject_is_a_usage_error_exit_10(self, feasible_csv, capsys):
        # no analysis command rejects on a slack bound, so none takes one
        for args in (
            ["separability", "--y-cols", "2"],
            ["collective", "--k", "2"],
            ["class-number"],
        ):
            argv = args + ["--input", str(feasible_csv), "--tol-reject", "1e-4"]
            assert main(argv) == 10
            assert "unrecognized arguments: --tol-reject" in capsys.readouterr().err


def _lognormal_csv(tmp_path, goods):
    rng = np.random.default_rng(0)
    stats = MarketStatistics(
        prices=np.exp(3.0 * rng.standard_normal((30, goods))),
        quantities=np.exp(3.0 * rng.standard_normal((30, goods))),
    )
    path = tmp_path / f"lognormal{goods}.csv"
    save_statistics(stats, path)
    return path


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

    def test_k_equal_to_goods_exit_0(self, tmp_path):
        csv = _lognormal_csv(tmp_path, goods=4)
        code, report = _run(tmp_path, ["collective", "--input", str(csv), "--k", "4"])
        assert code == 0
        _validate(report)
        assert report["tolerances"] == {}
        assert report["witness"]["k"] == 4

    def test_many_consumers_exit_0(self, tmp_path):
        # k far above n: every bundle splits into about k / n equal pieces
        stats = MarketStatistics(
            prices=[[1.0, 2.0], [2.0, 1.0]], quantities=[[1.0, 2.0], [2.0, 1.0]]
        )
        csv = tmp_path / "small.csv"
        save_statistics(stats, csv)
        code, report = _run(tmp_path, ["collective", "--input", str(csv), "--k", "2000"])
        assert code == 0
        _validate(report)
        assert report["witness"]["k"] == 2000

    def test_underflowing_even_split_is_no_internal_error(self, tmp_path):
        # Q / 2 rounds the quantity 5e-324 to 0; that must not raise (exit 12)
        stats = MarketStatistics(
            prices=[[1.0, 1.0], [1.0, 2.0]], quantities=[[5e-324, 1.0], [1.0, 1.0]]
        )
        csv = tmp_path / "subnormal.csv"
        save_statistics(stats, csv)
        code, report = _run(tmp_path, ["collective", "--input", str(csv), "--k", "2"])
        assert code != 12
        _validate(report)
        assert report["status"] in ("FEASIBLE", "UNDECIDED")

    @pytest.mark.parametrize("args", [["collective", "--k", "2"], ["class-number"]])
    def test_underflowing_share_start_exit_2(self, tmp_path, args):
        # share * Q rounds 5e-324 to 0 in every share start: a search miss
        # (exit 2), not an input error (exit 11)
        csv = tmp_path / "subnormal.csv"
        save_statistics(subnormal_quantity(), csv)
        code, report = _run(tmp_path, args + ["--input", str(csv)])
        assert code == 2
        _validate(report)

    def test_class_number_at_most_goods_exit_0(self, tmp_path):
        # k = n is always accepted, so class-number finds a value within n
        csv = _lognormal_csv(tmp_path, goods=2)
        code, report = _run(tmp_path, ["class-number", "--input", str(csv)])
        assert code == 0
        _validate(report)
        assert report["status"] == "FOUND" and report["value"] <= 2
        assert report["tolerances"] == {}

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

    @pytest.mark.parametrize(
        "args",
        [
            ["collective", "--k", "0"],
            ["harp", "--tol", "0"],
            ["harp", "--tol", "nan"],
            ["harp", "--tol", "0.5"],
            ["gen", "--family", "collective", "--goods", "0"],
        ],
        ids=["collective-k-0", "harp-tol-0", "harp-tol-nan", "harp-tol-0.5", "gen-goods-0"],
    )
    def test_bad_k_exit_10(self, tmp_path, feasible_csv, capsys, args):
        # a bad flag value is a usage error (10), never an internal one (12)
        if args[0] == "gen":
            io = ["--out", str(tmp_path / "gen.csv")]
        else:
            io = ["--input", str(feasible_csv)]
        assert main(args + io + ["--output", str(tmp_path / "r.json")]) == 10
        assert f"usage error: {args[-2]} must" in capsys.readouterr().err


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
