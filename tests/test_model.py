"""Tests for domain types, CSV ingestion and partitioning."""

from __future__ import annotations

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rescaled_infeasible
from phrp.model import (
    EmptyBlockError,
    IndexOutOfRangeError,
    MalformedRowError,
    MarketStatistics,
    MissingFileError,
    NonpositiveValueError,
    StatisticsError,
    _expected_header,
    _parse_cells,
    _parse_fast,
    load_statistics,
    partition,
    save_statistics,
)


class TestLoadStatistics:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("p1,p2,q1,q2\n1,1,0.5,0.5\n2,1,0.25,0.5\n")
        stats = load_statistics(path)
        assert stats.periods == 2
        assert stats.goods == 2
        np.testing.assert_array_equal(stats.prices, [[1, 1], [2, 1]])
        np.testing.assert_array_equal(stats.quantities, [[0.5, 0.5], [0.25, 0.5]])

    def test_zero_value_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("p1,p2,q1,q2\n1,1,0,0.5\n")
        with pytest.raises(NonpositiveValueError) as info:
            load_statistics(path)
        assert info.value.row == 1
        assert info.value.column == 3

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("p1,p2,q1,q2\n1,1,0.5\n")
        with pytest.raises(MalformedRowError) as info:
            load_statistics(path)
        assert info.value.row == 1

    def test_unparseable_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("p1,p2,q1,q2\n1,abc,0.5,0.5\n")
        with pytest.raises(MalformedRowError) as info:
            load_statistics(path)
        assert (info.value.row, info.value.column) == (1, 2)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c,d\n1,1,1,1\n")
        with pytest.raises(MalformedRowError) as info:
            load_statistics(path)
        assert info.value.row == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_statistics(tmp_path / "nope.csv")

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("p1,q1\n")
        with pytest.raises(MalformedRowError):
            load_statistics(path)


def _spelling(rng, value):
    """One decimal spelling of value: 1-17 significant digits, fixed or
    exponent form, maybe a leading '+', maybe spaces around it."""
    digits = int(rng.integers(1, 18))
    form = ("g", "e", "E")[int(rng.integers(3))]
    cell = f"{value:.{digits}{form}}"
    if rng.random() < 0.2:
        cell = "+" + cell
    return " " * int(rng.integers(2)) + cell + " " * int(rng.integers(2))


class TestFastIngest:
    """numpy's C parser reads the body first; the cell-by-cell loop is the reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_path_matches_loop(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        T, n = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        values = np.exp(rng.uniform(-690, 690, (T, 2 * n)))
        newline = ("\n", "\r\n")[seed % 2]
        body = newline.join(",".join(_spelling(rng, v) for v in row) for row in values)
        body += newline * int(rng.integers(1, 4))  # trailing blank lines
        path = tmp_path / "data.csv"
        path.write_bytes((",".join(_expected_header(n)) + newline + body).encode())
        fast = _parse_fast(body, n)
        assert fast is not None
        loop = _parse_cells(body, n)
        assert fast.tobytes() == loop.tobytes() and fast.shape == loop.shape == (T, 2 * n)
        stats = load_statistics(path)
        assert stats.prices.tobytes() == loop[:, :n].tobytes()
        assert stats.quantities.tobytes() == loop[:, n:].tobytes()

    @pytest.mark.parametrize("cell", ['"1.5"', "1_000", "\u0661\u0662"])
    def test_float_only_spellings_take_the_loop(self, tmp_path, cell):
        body = f"2,{cell}\n"
        assert _parse_fast(body, 1) is None
        path = tmp_path / "data.csv"
        path.write_text("p1,q1\n" + body, encoding="utf-8")
        stats = load_statistics(path)
        assert stats.quantities[0, 0] == float(cell.strip('"'))

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separators_are_rejected(self, tmp_path, sep):
        # numpy would strip these as whitespace; float() does not
        path = tmp_path / "data.csv"
        path.write_text(f"p1,q1\n1,1\n2,3{sep}\n", encoding="utf-8")
        with pytest.raises(MalformedRowError) as info:
            load_statistics(path)
        assert (info.value.row, info.value.column) == (2, 2)

    @pytest.mark.parametrize(
        "cell, error",
        [("0", NonpositiveValueError), ("nan", MalformedRowError), ("x", MalformedRowError)],
    )
    def test_errors_keep_row_and_column(self, tmp_path, cell, error):
        rows = [["1.5", "2", "0.5", "3"] for _ in range(50)]
        rows[36][2] = cell
        path = tmp_path / "data.csv"
        path.write_text("p1,p2,q1,q2\n" + "\n".join(map(",".join, rows)) + "\n")
        with pytest.raises(error) as info:
            load_statistics(path)
        assert (info.value.row, info.value.column) == (37, 3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    periods=st.integers(1, 5),
    goods=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_save_load_roundtrip(tmp_path_factory, periods, goods, seed):
    """Writing with 17 significant digits round-trips doubles exactly."""
    rng = np.random.default_rng(seed)
    stats = MarketStatistics(
        prices=np.exp(rng.uniform(-5, 5, (periods, goods))),
        quantities=np.exp(rng.uniform(-5, 5, (periods, goods))),
    )
    path = tmp_path_factory.mktemp("roundtrip") / "data.csv"
    save_statistics(stats, path)
    loaded = load_statistics(path)
    np.testing.assert_array_equal(loaded.prices, stats.prices)
    np.testing.assert_array_equal(loaded.quantities, stats.quantities)


def _reference_save(stats, path):
    """The row-by-row ``csv.writer`` form of ``save_statistics``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(stats.goods))
        for t in range(stats.periods):
            writer.writerow(
                [f"{v:.17g}" for v in stats.prices[t]] + [f"{v:.17g}" for v in stats.quantities[t]]
            )


@pytest.mark.parametrize(
    "stats",
    [
        MarketStatistics(
            np.exp(np.random.default_rng(4).normal(0.0, 3.0, (300, 7))),
            np.exp(np.random.default_rng(5).normal(0.0, 3.0, (300, 7))),
        ),
        MarketStatistics(
            [[5e-324, 3e-310, 1e-200, 1.7976931348623157e308], [1.0, 0.1, 1.0 / 3.0, 2.0**-1022]],
            [[1e308, 2.5, 1e-300, 7.0], [3e-310, 1e15, 123456789.0, 5e-324]],
        ),
    ],
    ids=["seeded", "extremes"],
)
def test_save_matches_the_csv_writer_byte_for_byte(tmp_path, stats):
    _reference_save(stats, tmp_path / "reference.csv")
    save_statistics(stats, tmp_path / "saved.csv")
    assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(StatisticsError):
            MarketStatistics(prices=[[1.0, 2.0]], quantities=[[1.0]])

    def test_negative_entry(self):
        with pytest.raises(NonpositiveValueError):
            MarketStatistics(prices=[[1.0, -2.0]], quantities=[[1.0, 1.0]])

    def test_nonfinite_entry(self):
        with pytest.raises(StatisticsError):
            MarketStatistics(prices=[[1.0, np.inf]], quantities=[[1.0, 1.0]])

    def test_arrays_immutable(self, feasible2):
        with pytest.raises(ValueError):
            feasible2.prices[0, 0] = 5.0

    def test_expenditures(self, feasible2):
        np.testing.assert_allclose(feasible2.expenditures(), [1.0, 1.0])

    def test_cross_expenditure_overflow_is_silent(self):
        stats = rescaled_infeasible(1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cross = stats.cross_expenditures()
        assert np.isinf(cross).any()


class TestPartition:
    def test_complement(self):
        stats = MarketStatistics(prices=np.ones((2, 4)), quantities=np.ones((2, 4)))
        part = partition(stats, [2, 3])
        assert part.q_block == (0, 1)
        assert part.y_block == (2, 3)

    def test_full_cover_rejected(self, feasible2):
        with pytest.raises(EmptyBlockError):
            partition(feasible2, [0, 1])

    def test_empty_rejected(self, feasible2):
        with pytest.raises(EmptyBlockError):
            partition(feasible2, [])

    def test_out_of_range(self):
        stats = MarketStatistics(prices=np.ones((1, 3)), quantities=np.ones((1, 3)))
        with pytest.raises(IndexOutOfRangeError):
            partition(stats, [4])

    def test_interleave_back(self):
        rng = np.random.default_rng(7)
        stats = MarketStatistics(
            prices=rng.uniform(0.5, 2, (3, 5)), quantities=rng.uniform(0.5, 2, (3, 5))
        )
        part = partition(stats, [1, 3])
        rebuilt_p = np.empty_like(stats.prices)
        rebuilt_q = np.empty_like(stats.quantities)
        rebuilt_p[:, list(part.q_block)] = part.q_prices
        rebuilt_p[:, list(part.y_block)] = part.y_prices
        rebuilt_q[:, list(part.q_block)] = part.q_quantities
        rebuilt_q[:, list(part.y_block)] = part.y_quantities
        np.testing.assert_array_equal(rebuilt_p, stats.prices)
        np.testing.assert_array_equal(rebuilt_q, stats.quantities)

    def test_y_statistics_view(self, feasible2):
        part = partition(feasible2, [1])
        ystats = part.y_statistics()
        assert ystats.goods == 1
        np.testing.assert_array_equal(ystats.prices[:, 0], feasible2.prices[:, 1])
