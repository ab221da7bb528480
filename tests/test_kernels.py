"""Backend equivalence and semantics of the hot kernels."""

from __future__ import annotations

import numpy as np
import pytest

from phrp import _kernels


def _random_graph(seed, T, diagonal=np.inf):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, (T, T))
    np.fill_diagonal(w, diagonal)
    return w


# the diagonal may be 0 or +inf: a zero self-loop never wins a strict improvement
DIAGONALS = (np.inf, 0.0)


class TestBfRounds:
    def test_converges_on_nonnegative_weights(self):
        for diagonal in DIAGONALS:
            w = np.abs(_random_graph(0, 6))
            np.fill_diagonal(w, diagonal)
            dist, parent, rounds, converged = _kernels.bf_rounds(
                w, np.zeros(6), np.full(6, -1, dtype=np.int64), 6
            )
            assert converged
            np.testing.assert_array_equal(dist, np.zeros(6))
            np.testing.assert_array_equal(parent, np.full(6, -1))

    def test_detects_negative_cycle(self):
        for diagonal in DIAGONALS:
            w = np.full((2, 2), diagonal)
            w[0, 1] = -1.0
            w[1, 0] = 0.5
            dist, parent, rounds, converged = _kernels.bf_rounds(
                w, np.zeros(2), np.full(2, -1, dtype=np.int64), 2
            )
            assert not converged
            np.testing.assert_array_equal(parent, [1, 0])

    def test_potentials_satisfy_constraints(self):
        for diagonal in DIAGONALS:
            w = np.abs(_random_graph(3, 5) * 0.1) + 0.01  # no negative cycles
            np.fill_diagonal(w, diagonal)
            dist, parent, rounds, converged = _kernels.bf_rounds(
                w, np.zeros(5), np.full(5, -1, dtype=np.int64), 5
            )
            assert converged
            for tau in range(5):
                for t in range(5):
                    assert dist[t] <= dist[tau] + w[tau, t] + 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_and_inf_diagonals_agree(self, seed):
        T = 8
        start = (np.zeros(T), np.full(T, -1, dtype=np.int64))
        with_inf = _kernels.bf_rounds(_random_graph(seed, T), *start, T)
        with_zero = _kernels.bf_rounds(_random_graph(seed, T, 0.0), *start, T)
        np.testing.assert_array_equal(with_inf[0], with_zero[0])
        np.testing.assert_array_equal(with_inf[1], with_zero[1])
        assert with_inf[2:] == with_zero[2:]


class TestBackendEquivalence:
    @pytest.fixture
    def backends(self):
        impls = _kernels.available_backends()
        if len(impls) < 2:
            pytest.skip("compiled backend not built")
        return impls

    @pytest.mark.parametrize("seed", range(5))
    def test_bf_rounds_bitwise_identical(self, backends, seed):
        T = 8
        dist0 = np.zeros(T)
        parent0 = np.full(T, -1, dtype=np.int64)
        for diagonal in DIAGONALS:
            w = _random_graph(seed, T, diagonal)
            results = {
                name: impl.bf_rounds(w, dist0, parent0, T)
                for name, impl in backends.items()
            }
            ref = results["pure"]
            other = results["fast"]
            np.testing.assert_array_equal(ref[0], other[0])
            np.testing.assert_array_equal(ref[1], other[1])
            assert ref[2:] == other[2:]

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_ops_agree(self, backends, seed):
        rng = np.random.default_rng(seed)
        nrows = 17
        counts = rng.integers(1, 6, nrows)
        rowptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        z = rng.normal(0, 3, int(counts.sum()))
        rows = np.repeat(np.arange(nrows, dtype=np.int64), counts)
        lse = {n: i.segment_logsumexp(z, rowptr) for n, i in backends.items()}
        np.testing.assert_allclose(lse["pure"], lse["fast"], rtol=1e-12)
        sums = {n: i.segment_sum(z, rows, nrows) for n, i in backends.items()}
        np.testing.assert_allclose(sums["pure"], sums["fast"], rtol=1e-12)

    def test_segment_logsumexp_reference(self, backends):
        z = np.array([0.0, 0.0, 1.0])
        rowptr = np.array([0, 2, 3], dtype=np.int64)
        for impl in backends.values():
            values = impl.segment_logsumexp(z, rowptr)
            np.testing.assert_allclose(values, [np.log(2.0), 1.0], rtol=1e-15)
