"""Tests for domain types, CSV ingestion and partitioning."""

from __future__ import annotations

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
