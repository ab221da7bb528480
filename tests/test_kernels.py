"""Semantics of the numpy kernels."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from phrp import _kernels
from phrp.harp import CrossGraph, _parent_cycle


def _random_graph(seed, T, diagonal=np.inf):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, (T, T))
    np.fill_diagonal(w, diagonal)
    return w


# the diagonal may be 0 or +inf: a zero self-loop never wins a strict improvement
DIAGONALS = (np.inf, 0.0)


def _whole_matrix_rounds(weights, dist, parent, max_rounds):
    """Jacobi rounds over the whole T x T matrix at once: the reference form."""
    dist = np.array(dist, dtype=np.float64, copy=True)
    parent = np.array(parent, dtype=np.int64, copy=True)
    rounds_run = 0
    converged = max_rounds == 0
    for _ in range(max_rounds):
        through = dist[:, None] + weights
        cand = through.min(axis=0)
        arg = through.argmin(axis=0)
        improved = cand < dist
        rounds_run += 1
        if not improved.any():
            converged = True
            break
        dist = np.where(improved, cand, dist)
        parent = np.where(improved, arg, parent)
    return dist, parent, rounds_run, converged


class TestBfRounds:
    def test_converges_on_nonnegative_weights(self):
        for diagonal in DIAGONALS:
            w = np.abs(_random_graph(0, 6))
            np.fill_diagonal(w, diagonal)
            dist, parent, rounds, converged, _ = _kernels.bf_rounds(
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
            dist, parent, rounds, converged, _ = _kernels.bf_rounds(
                w, np.zeros(2), np.full(2, -1, dtype=np.int64), 2
            )
            assert not converged
            np.testing.assert_array_equal(parent, [1, 0])

    def test_potentials_satisfy_constraints(self):
        for diagonal in DIAGONALS:
            w = np.abs(_random_graph(3, 5) * 0.1) + 0.01  # no negative cycles
            np.fill_diagonal(w, diagonal)
            dist, parent, rounds, converged, _ = _kernels.bf_rounds(
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

    @pytest.mark.parametrize("T", [1, 2, 128, 300])
    @pytest.mark.parametrize("diagonal", DIAGONALS)
    def test_c_and_f_order_agree(self, T, diagonal):
        # F-ordered weights are relaxed in place, C-ordered ones through a copy
        rng = np.random.default_rng(T)
        w = rng.normal(0.0, 1.0, (T, T))
        np.fill_diagonal(w, diagonal)
        dist0 = rng.normal(0.0, 1.0, T)
        parent0 = np.full(T, -1, dtype=np.int64)
        for max_rounds in (1, 4):
            c_order = _kernels.bf_rounds(np.ascontiguousarray(w), dist0, parent0, max_rounds)
            f_order = _kernels.bf_rounds(np.asfortranarray(w), dist0, parent0, max_rounds)
            assert c_order[0].tobytes() == f_order[0].tobytes()
            np.testing.assert_array_equal(c_order[1], f_order[1])
            assert c_order[2:] == f_order[2:]

    @pytest.mark.parametrize("T", [1, 127, 128, 129, 389])
    @pytest.mark.parametrize("diagonal", DIAGONALS)
    def test_blocked_rounds_match_whole_matrix(self, T, diagonal):
        # small integer weights put equal minima in many rows of every column,
        # so ties straddle the block edges and only the lowest tau may win;
        # integer sums are exact, so the two forms must agree bit for bit
        assert _kernels.BLOCK_ROWS == 128
        rng = np.random.default_rng(T)
        parent0 = np.full(T, -1, dtype=np.int64)
        for low in (0, -1):  # settles, then a graph full of negative cycles
            w = rng.integers(low, 4, (T, T)).astype(np.float64)
            w[rng.random((T, T)) < 0.05] = np.inf
            np.fill_diagonal(w, diagonal)
            for dist0 in (np.zeros(T), rng.integers(-2, 3, T).astype(np.float64)):
                for max_rounds in (0, 1, 3, T + 1):
                    want = _whole_matrix_rounds(w, dist0, parent0, max_rounds)
                    got = _kernels.bf_rounds(w, dist0, parent0, max_rounds)
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])
                    assert got[2:4] == want[2:]

    @pytest.mark.parametrize("T", [1, 127, 128, 129, 389])
    @pytest.mark.parametrize("diagonal", DIAGONALS)
    def test_frontier_rounds_match_whole_matrix(self, T, diagonal):
        # one-round calls chained through each round's improved nodes, on the
        # tie-heavy graphs above: only the edges out of the frontier are read,
        # yet labels, parents and first-index ties are those of every edge
        rng = np.random.default_rng(T)
        parent0 = np.full(T, -1, dtype=np.int64)
        dense = set()
        for low in (0, -1):  # settles, then a graph full of negative cycles
            w = rng.integers(low, 4, (T, T)).astype(np.float64)
            w[rng.random((T, T)) < 0.05] = np.inf
            np.fill_diagonal(w, diagonal)
            starts = [np.zeros(T), rng.integers(-2, 3, T).astype(np.float64)]
            frontiers = [np.ones(T, dtype=bool), np.ones(T, dtype=bool)]
            if low == 0:
                # settled labels with a few, then many, labels lowered: only
                # the lowered nodes may have edges that improve anything
                settled = _whole_matrix_rounds(w, starts[1], parent0, T + 1)[0]
                for count in (1 + T // 20, 1 + 2 * T // 5):
                    lowered = rng.choice(T, count, replace=False)
                    starts.append(settled.copy())
                    starts[-1][lowered] -= rng.integers(1, 4, count)
                    frontiers.append(np.isin(np.arange(T), lowered))
            for dist0, frontier in zip(starts, frontiers):
                want = got = (dist0, parent0)
                for _ in range(T + 1):
                    dense.add(T <= _kernels.BLOCK_ROWS or 2 * np.count_nonzero(frontier) > T)
                    step = _whole_matrix_rounds(w, *want[:2], 1)
                    got = _kernels.bf_rounds(w, *got[:2], 1, frontier)
                    np.testing.assert_array_equal(got[0], step[0])
                    np.testing.assert_array_equal(got[1], step[1])
                    assert got[2:4] == step[2:]
                    # the kernel leaves the round's improved nodes in the mask
                    np.testing.assert_array_equal(frontier, step[0] < want[0])
                    want = step
                    if got[3]:
                        break
                else:
                    assert low == -1  # only the graphs with negative cycles never settle
                    continue
                # a settled graph's empty frontier relaxes nothing
                assert not frontier.any()
                again = _kernels.bf_rounds(w, *got[:2], 5, frontier)
                assert again[2:4] == (1, True)
                assert again[0].tobytes() == got[0].tobytes()
                np.testing.assert_array_equal(again[1], got[1])
        # rounds on both sides of the dense/gather switch wherever it can gather
        assert dense == ({True, False} if T > _kernels.BLOCK_ROWS else {True})

    @pytest.mark.parametrize("T", [4, 300])
    def test_empty_frontier_relaxes_nothing(self, T):
        # even where unsettled labels would improve through a full round
        w = _random_graph(4, T)
        frontier = np.zeros(T, dtype=bool)
        start = (np.zeros(T), np.full(T, -1, dtype=np.int64))
        assert not _kernels.bf_rounds(w, *start, 1)[3]
        dist, parent, rounds, converged, _ = _kernels.bf_rounds(w, *start, 3, frontier)
        assert (rounds, converged) == (1, True)
        np.testing.assert_array_equal(dist, start[0])
        np.testing.assert_array_equal(parent, start[1])


def _factors(seed, T, kind, goods=4):
    """Random positive factors: Cobb-Douglas bundles (every cycle ratio at
    least 1, so the rounds settle) or uniform ones (negative cycles)."""
    rng = np.random.default_rng(seed)
    prices = np.exp(rng.uniform(-2.0, 2.0, (T, goods)))
    if kind == "cobb-douglas":
        shares = rng.uniform(0.5, 1.5, goods)
        budgets = np.exp(rng.uniform(-1.0, 1.0, (T, 1)))
        quantities = shares / shares.sum() * budgets / prices
    else:
        quantities = np.exp(rng.uniform(-2.0, 2.0, (T, goods)))
    return CrossGraph(prices=prices, quantities=quantities)


FACTORED_SIZES = [1, 2, 127, 128, 129, 389]


class TestFactoredRounds:
    @pytest.mark.parametrize("T", FACTORED_SIZES)
    @pytest.mark.parametrize("kind", ["cobb-douglas", "uniform"])
    def test_factored_rounds_match_whole_matrix(self, T, kind):
        # the factored rounds reach the outcome of the reference rounds on the
        # materialised log weights: settled with the same labels, or a cycle
        graph = _factors(T, T, kind)
        weights = graph.log_weights()
        start = (np.zeros(T), np.full(T, -1, dtype=np.int64))
        want = _whole_matrix_rounds(weights, *start, T + 1)
        got = _kernels.bf_rounds(graph, *start, T + 1)
        assert got[3] == want[3]
        if kind == "cobb-douglas":
            assert got[3]
        if got[3]:
            np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
            return
        # round T + 1 still improved, so the parent graph holds a cycle whose
        # ratio is below 1 by its own dot products
        cycle = _parent_cycle(got[1])
        assert cycle is not None
        nxt = cycle[1:] + cycle[:1]
        p, q = graph.prices, graph.quantities
        ratio = np.prod([(p[a] @ q[b]) / (p[b] @ q[b]) for a, b in zip(cycle, nxt)])
        assert ratio < 1.0

    @pytest.mark.parametrize("T", FACTORED_SIZES)
    @pytest.mark.parametrize("kind", ["cobb-douglas", "uniform"])
    def test_chained_rounds_match_one_call(self, T, kind):
        # one-round calls chained through the kernel's own frontier mask give
        # the bytes of one multi-round call
        graph = _factors(1000 + T, T, kind)
        start = (np.zeros(T), np.full(T, -1, dtype=np.int64))
        whole = _kernels.bf_rounds(graph, *start, T + 1)
        got, frontier, rounds = start, np.ones(T, dtype=bool), 0
        for _ in range(T + 1):
            got = _kernels.bf_rounds(graph, *got[:2], 1, frontier)
            rounds += got[2]
            if got[3]:
                break
        assert got[0].tobytes() == whole[0].tobytes()
        assert got[1].tobytes() == whole[1].tobytes()
        assert (rounds, got[3]) == whole[2:4]

    @pytest.mark.parametrize("T", [4, 300])
    def test_overflowed_cross_expenditure_raises(self, T):
        # the first round multiplies every cross expenditure: one past float64
        # stops it, without a warning
        graph = _factors(T, T, "uniform")
        prices = graph.prices.copy()
        prices[T // 2] *= 1e307
        start = (np.zeros(T), np.full(T, -1, dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_kernels.FloatRangeError, match="overflow or underflow"):
                _kernels.bf_rounds(CrossGraph(prices, graph.quantities), *start, 1)

    def test_subnormal_winner_raises(self):
        # p^1 . q^t = 1e-310 is subnormal: it passes the virtual-source round
        # (labels all 0), but from any other labels it wins with a product
        # below the smallest normal float, whose ranking cannot be trusted
        graph = CrossGraph(prices=np.array([[1.0], [1e-310], [1.0]]), quantities=np.ones((3, 1)))
        parent = np.full(3, -1, dtype=np.int64)
        assert not _kernels.bf_rounds(graph, np.zeros(3), parent, 1)[3]
        with pytest.raises(_kernels.FloatRangeError, match="scaled cross expenditures underflow"):
            _kernels.bf_rounds(graph, np.array([0.0, -1.0, 0.0]), parent, 1)


    @pytest.mark.parametrize("T", [129, 389])
    def test_certificate_check_reads_the_start(self, T):
        # Cobb-Douglas labels log(u(q^t) / (p^t . q^t)) are a certificate, and
        # multiplying one period's multiplier by e breaks one of its inequalities
        graph = _factors(T, T, "cobb-douglas")
        p, q = graph.prices, graph.quantities
        labels = -np.log(np.einsum("ti,ti->t", p, q))
        shares = p[0] * q[0] / (p[0] @ q[0])
        labels += np.log(np.prod(q**shares, axis=1))
        parent = np.full(T, -1, dtype=np.int64)
        assert _kernels.bf_rounds(graph, labels, parent, 1, None, 1e-9)[4]
        assert not _kernels.bf_rounds(graph, labels, parent, 1)[4]
        # every round given tol checks its start; here the first passes and settles
        assert _kernels.bf_rounds(graph, labels, parent, 3, None, 1e-9)[2:] == (1, True, True)
        raised = labels.copy()
        raised[T - 1] += 1.0
        assert not _kernels.bf_rounds(graph, raised, parent, 1, None, 1e-9)[4]

    def test_overflowed_own_products_certify_nothing(self):
        # every product overflows, so each row's winner is its masked
        # diagonal: an own product of +inf proves nothing
        graph = CrossGraph(np.full((3, 2), 1e200), np.full((3, 2), 1e200))
        parent = np.full(3, -1, dtype=np.int64)
        with np.errstate(all="ignore"):
            got = _kernels.bf_rounds(graph, np.array([0.0, 1.0, 2.0]), parent, 1, None, 1e-9)
        assert not got[4]

    def test_row_rule(self):
        # own products within 1 + tol of the row's cheapest, and finite
        cheapest = np.array([1.0, 2.0])
        assert _kernels.certifies(np.array([1.0, 2.0 * (1.0 + 1e-3)]), cheapest, 1e-3)
        assert not _kernels.certifies(np.array([1.0, 2.0 * (1.0 + 2e-3)]), cheapest, 1e-3)
        assert not _kernels.certifies(np.array([np.inf, 1.0]), np.array([np.inf, 2.0]), 1e-3)
        assert _kernels.folds_normally(np.array([[2.3e-308, 1.0]]))
        assert not _kernels.folds_normally(np.array([[2.2e-308, 1.0]]))


def test_segment_logsumexp_reference():
    z = np.array([0.0, 0.0, 1.0])
    rowptr = np.array([0, 2, 3], dtype=np.int64)
    values = _kernels.segment_logsumexp(z, rowptr)
    np.testing.assert_allclose(values, [np.log(2.0), 1.0], rtol=1e-15)


@pytest.mark.parametrize("seed", range(3))
def test_segment_sum_matches_add_at(seed):
    rng = np.random.default_rng(seed)
    nrows = 17
    rows = rng.integers(0, nrows - 2, 60)  # the last two buckets stay empty
    values = rng.normal(0.0, 3.0, rows.size)
    want = np.zeros(nrows)
    np.add.at(want, rows, values)
    got = _kernels.segment_sum(values, rows, nrows)
    assert got.dtype == np.float64 and got.shape == (nrows,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
