"""Tests for the exact PH-rationalizability test and utility recovery."""

from __future__ import annotations

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    extreme_scales,
    make_cd,
    near_tight_two_cycle,
    rescaled_infeasible,
    tight_copies,
)
from phrp import _kernels, harp
from phrp.datagen import perturb
from phrp.harp import (
    AfriatCertificate,
    InvalidCertificateError,
    PiecewiseLinearUtility,
    _cycle_stats,
    _decide,
    _index_potentials,
    _parent_cycle,
    _softmax,
    build_cross_graph,
    check_harp,
    recover_utility,
    shortest_potentials,
    verify_certificate,
)
from phrp.model import MarketStatistics, Status


def _weights(graph):
    """The (T, T) weights ``log(p^tau . q^t) - log(p^t . q^t)``, from the factors."""
    cross = graph.prices @ graph.quantities.T
    weights = np.log(cross) - np.log(np.diag(cross))[None, :]
    np.fill_diagonal(weights, 0.0)
    return weights


class TestCrossGraph:
    def test_underflowed_cross_expenditure_does_not_warn(self):
        # p^0 . q^1 underflows to 0: it has no log weight, so the first round
        # stops, and no warning is printed
        stats = MarketStatistics(
            prices=[[1e-200, 1e-202], [0.01, 1.0]],
            quantities=[[0.01, 1.0], [1e-200, 1e-202]],
        )
        start = (np.zeros(2), np.full(2, -1, dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = build_cross_graph(stats)
            with pytest.raises(_kernels.FloatRangeError, match="overflow or underflow"):
                _kernels.bf_rounds(graph, *start, 1)
            with pytest.raises(_kernels.FloatRangeError, match="overflow or underflow"):
                graph.log_weights()
            result = check_harp(stats)
        assert result.status is Status.UNDECIDED
        assert result.decision.detail == "cross expenditures overflow or underflow"

    def test_weights_example(self, feasible2):
        graph = build_cross_graph(feasible2)
        assert graph.nodes == 2
        for weights in (_weights(graph), graph.log_weights()):
            assert weights[1, 0] == pytest.approx(np.log(1.5), abs=1e-15)
            assert weights[0, 1] == pytest.approx(np.log(0.75), abs=1e-15)

    def test_identical_prices_zero_weights(self):
        rng = np.random.default_rng(3)
        stats = MarketStatistics(
            prices=np.tile(rng.uniform(0.5, 2, 3), (4, 1)),
            quantities=rng.uniform(0.5, 2, (4, 3)),
        )
        graph = build_cross_graph(stats)
        np.testing.assert_allclose(_weights(graph), 0.0, atol=1e-12)
        np.testing.assert_allclose(graph.log_weights(), 0.0, atol=1e-12)

    def test_single_period(self):
        stats = MarketStatistics(prices=[[1.0, 2.0]], quantities=[[1.0, 1.0]])
        graph = build_cross_graph(stats)
        assert graph.nodes == 1
        assert graph.log_weights().tolist() == [[0.0]]

    @pytest.mark.parametrize("T", [1, 2, 127, 128, 129, 600])
    def test_incoming_edge_layout(self, T):
        # sizes straddle BLOCK_ROWS = 128; prices and quantities spanning
        # 1e-3..1e3 make every bit of the logs count
        rng = np.random.default_rng(T)
        stats = MarketStatistics(
            prices=np.exp(rng.uniform(-7, 7, (T, 4))),
            quantities=np.exp(rng.uniform(-7, 7, (T, 4))),
        )
        graph = build_cross_graph(stats)
        weights = graph.log_weights()
        into = weights.T  # row t holds the weights of the edges entering t
        assert into.flags.c_contiguous
        np.testing.assert_allclose(weights, _weights(graph), rtol=0.0, atol=1e-12)
        # each incoming-edge row is log(p^tau . q^t) - log_own[t], every dot
        # product taken by the kernel's row formula, bit for bit
        p, q = stats.prices, stats.quantities
        for t in rng.choice(T, min(T, 5), replace=False):
            row = np.log(np.einsum("ti,ti->t", p, np.tile(q[t], (T, 1)))) - graph.log_own[t]
            row[t] = 0.0
            assert into[t].tobytes() == row.tobytes()
        assert graph.log_own.tobytes() == np.log(np.einsum("ti,ti->t", p, q)).tobytes()

    @pytest.mark.parametrize("f", [0.37, 1.0, 2.5, 1e3])
    def test_duplicated_period_two_cycle_weighs_zero(self, f):
        # prices times f with the same quantities: the 2-cycle's ratio is 1,
        # and every dot product on it is taken by one formula, so its weight
        # is exactly 0.0 in the graph, in the cycle statistics and in the labels
        rng = np.random.default_rng(int(f * 100))
        p, q = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)
        stats = MarketStatistics(prices=[p, p * f], quantities=[q, q])
        graph = build_cross_graph(stats)
        weights = graph.log_weights()
        assert weights[0, 1] + weights[1, 0] == 0.0
        assert _cycle_stats([0, 1], graph)[0] == 0.0
        dist, _, _, converged, _ = _kernels.bf_rounds(
            graph, np.zeros(2), np.full(2, -1, dtype=np.int64), 3
        )
        assert converged
        assert dist.tolist() == [min(weights[1, 0], 0.0), min(weights[0, 1], 0.0)]
        result = check_harp(stats)
        assert result.status is Status.FEASIBLE
        assert verify_certificate(stats, result.certificate)


class TestCheckHarp:
    def test_feasible_example(self, feasible2):
        result = check_harp(feasible2)
        assert result.status is Status.FEASIBLE
        assert verify_certificate(feasible2, result.certificate)
        # the hand-derived multipliers are one valid certificate
        assert verify_certificate(feasible2, np.array([4.0 / 7.0, 3.0 / 7.0]))

    def test_peak_memory_below_a_quarter_square(self):
        # no T x T array is built: the relaxation and the certificate check
        # hold one (BLOCK_ROWS, T) scratch block at a time
        T = 2000
        stats = make_cd(2, periods=T, goods=4)
        tracemalloc.start()
        try:
            result = check_harp(stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status is Status.FEASIBLE
        assert peak < 8 * T * T / 4

    def test_infeasible_example(self, infeasible2):
        result = check_harp(infeasible2)
        assert result.status is Status.INFEASIBLE
        cycle = result.cycle
        assert cycle.periods == (0, 1, 0)
        assert cycle.cycle_ratio == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert cycle.log_weight == pytest.approx(np.log(8.0 / 9.0), abs=1e-9)
        assert cycle.cycle_ratio < 1.0

    def test_single_period(self):
        stats = MarketStatistics(prices=[[3.0]], quantities=[[2.0]])
        result = check_harp(stats)
        assert result.status is Status.FEASIBLE
        np.testing.assert_array_equal(result.certificate.lambdas, [1.0])

    def test_bad_tolerance_rejected(self, feasible2):
        with pytest.raises(ValueError):
            check_harp(feasible2, tol=0.5)

    def test_tiny_negative_cycle_is_undecided(self):
        # cycle ratio 3(x+1)/(2(x+2)) with x = 1 - 6e-12: about 1 - 1e-12,
        # inside the default tolerance band, so neither verdict is safe
        x = 1.0 - 6e-12
        stats = MarketStatistics(
            prices=[[1.0, 1.0], [1.0, 2.0]], quantities=[[1.0, 1.0], [x, 1.0]]
        )
        result = check_harp(stats)
        assert result.status is Status.UNDECIDED
        # a coarser tolerance cannot flip it to INFEASIBLE either
        assert check_harp(stats, tol=1e-3).status is not Status.INFEASIBLE

    def test_infeasible_detail_shows_the_shortfall(self):
        # the 2-cycle's ratio is 1 - 2e-9: INFEASIBLE at tol 1e-9, and the
        # detail prints the ratio with every digit, not as "1 < 1"
        stats = near_tight_two_cycle(2e-9)
        result = check_harp(stats)
        assert result.status is Status.INFEASIBLE
        assert 1.0 - result.cycle.cycle_ratio == pytest.approx(2e-9, rel=1e-6)
        shown = re.fullmatch(r"cycle \(0, 1, 0\) has ratio (\S+) < 1", result.decision.detail)
        assert float(shown.group(1)) == result.cycle.cycle_ratio

    def test_tight_single_good_never_raises(self):
        # every cycle ratio is exactly 1, so rounding decides the sign of a
        # cycle's weight; the truth is FEASIBLE with lam_t proportional to 1/p_t
        # (20 of these 200 draws are FEASIBLE; 18 from zero labels alone)
        rng = np.random.default_rng(0)
        feasible = 0
        for _ in range(200):
            stats = _single_good(rng, 5)
            result = check_harp(stats)
            assert result.status in (Status.FEASIBLE, Status.UNDECIDED)
            if result.status is Status.FEASIBLE:
                assert verify_certificate(stats, result.certificate)
                feasible += 1
            if result.cycle is not None:
                assert result.cycle.cycle_ratio < 1.0
        assert feasible == 20

    @pytest.mark.parametrize("factor", [1e160, 1e200, 1e-200])
    def test_overflow_or_underflow_is_undecided(self, factor):
        # the unscaled instance is INFEASIBLE; scaled, its cross expenditures
        # overflow or underflow, so neither verdict can be certified
        with np.errstate(all="ignore"):
            result = check_harp(rescaled_infeasible(factor))
        assert result.status is Status.UNDECIDED
        assert result.decision.detail == "cross expenditures overflow or underflow"

    def test_multipliers_beyond_float64_are_undecided(self):
        # the shortest-path labels span more than 745, so the smallest
        # normalized multipliers underflow to 0 and no certificate can be built
        result = check_harp(extreme_scales())
        assert result.status is Status.UNDECIDED
        assert result.decision.detail == "multipliers span beyond float64"

    def test_partial_underflow_is_undecided(self):
        # p^0 . q^1 underflows to 0 while the other cross expenditures stay
        # positive, which makes the cycle (0, 1, 0) look like ratio ~1e-304
        stats = MarketStatistics(
            prices=[[1e-200, 1e-202], [0.01, 1.0]],
            quantities=[[0.01, 1.0], [1e-200, 1e-202]],
        )
        with np.errstate(all="ignore"):
            result = check_harp(stats)
        assert result.status is Status.UNDECIDED
        assert result.decision.detail == "cross expenditures overflow or underflow"
        # period 0's prices and period 1's quantities times 1e200: an exact
        # symmetry of the model, and every cross expenditure is representable
        twin = MarketStatistics(
            prices=stats.prices * [[1e200], [1.0]],
            quantities=stats.quantities * [[1.0], [1e200]],
        )
        twin_result = check_harp(twin)
        assert twin_result.status is Status.FEASIBLE
        assert verify_certificate(twin, twin_result.certificate)

    def test_duplicate_periods_kept(self, feasible2):
        doubled = MarketStatistics(
            prices=np.vstack([feasible2.prices, feasible2.prices]),
            quantities=np.vstack([feasible2.quantities, feasible2.quantities]),
        )
        result = check_harp(doubled)
        assert result.status is Status.FEASIBLE
        assert verify_certificate(doubled, result.certificate)

    @pytest.mark.parametrize("seed", range(8))
    def test_cobb_douglas_always_feasible(self, seed):
        stats = make_cd(seed, periods=2 + seed * 3, goods=2 + seed % 4)
        result = check_harp(stats)
        assert result.status is Status.FEASIBLE
        assert verify_certificate(stats, result.certificate)


def _single_good(rng, periods):
    """Every cycle ratio is exactly 1: prices p_t and quantities 1/p_t."""
    prices = rng.uniform(0.5, 2.0, (periods, 1))
    return MarketStatistics(prices=prices, quantities=1.0 / prices)


def _uniform(rng, periods, goods):
    return MarketStatistics(
        prices=rng.uniform(0.5, 2.0, (periods, goods)),
        quantities=rng.uniform(0.5, 2.0, (periods, goods)),
    )


def _labels_or_cycle(weights):
    """Run the routine and check that it returned exactly one valid witness.

    A cross graph is checked against its materialised weights."""
    labels, cycle, _ = shortest_potentials(weights)
    if not isinstance(weights, np.ndarray):
        weights = weights.log_weights()
    T = weights.shape[0]
    if cycle is None:
        assert labels.shape == (T,)
        # every constraint d_t - d_tau <= w[tau, t], exactly as relaxation compares
        assert np.all(labels[:, None] + weights >= labels[None, :])
    else:
        assert labels is None
        assert len(cycle) >= 2 and len(set(cycle)) == len(cycle)
        assert all(0 <= t < T for t in cycle)
        assert cycle[0] == min(cycle)
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert all(np.isfinite(weights[a, b]) for a, b in edges)
    return labels, cycle


def _cycle_weight(weights, cycle):
    return sum(weights[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def _dense_graph(seed, diagonal):
    """Reduced costs phi_t - phi_tau plus uniform noise.  Every third seed has
    nonnegative noise, so no negative cycle; on the others the noise dips
    below zero and makes one."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 40))
    phi = rng.normal(0.0, 3.0, T)
    weights = phi[None, :] - phi[:, None] + rng.uniform(-0.1 * (seed % 3), 1.0, (T, T))
    np.fill_diagonal(weights, diagonal)
    return weights


def _walk_cycle(parent):
    """Reference for the pointer-jumping search: walk from every node in turn."""
    T = parent.size
    on_cycle = set()
    for start in range(T):
        x = start
        for _ in range(T):
            if parent[x] < 0:
                break
            x = int(parent[x])
        else:
            on_cycle.add(x)
            y = int(parent[x])
            while y != x:
                on_cycle.add(y)
                y = int(parent[y])
    if not on_cycle:
        return None
    backward = [min(on_cycle)]
    while int(parent[backward[-1]]) != backward[0]:
        backward.append(int(parent[backward[-1]]))
    return [backward[0]] + backward[:0:-1]


class TestShortestPotentials:
    @pytest.mark.parametrize("seed", range(30))
    def test_parent_cycle_matches_walk(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 50))
        parent = rng.integers(0, T, T)
        parent[rng.random(T) < 0.2 * (seed % 4)] = -1
        parent[parent == np.arange(T)] = -1  # relaxation never makes a self-loop
        assert _parent_cycle(parent) == _walk_cycle(parent)

    @pytest.mark.parametrize("diagonal", [0.0, np.inf])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_dense_graphs(self, seed, diagonal):
        weights = _dense_graph(seed, diagonal)
        _, cycle = _labels_or_cycle(weights)
        assert (cycle is None) == (seed % 3 == 0)
        if cycle is not None:
            assert _cycle_weight(weights, cycle) < 0.0

    @pytest.mark.parametrize("periods", [2, 5, 30, 120])
    def test_tight_single_good_graphs(self, periods):
        rng = np.random.default_rng(periods)
        for _ in range(20):
            _labels_or_cycle(build_cross_graph(_single_good(rng, periods)))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_cross_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        stats = _uniform(rng, int(rng.integers(2, 60)), int(rng.integers(2, 6)))
        graph = build_cross_graph(stats)
        _, cycle = _labels_or_cycle(graph)
        if cycle is not None:
            assert _cycle_weight(graph.log_weights(), cycle) < 0.0

    @pytest.mark.parametrize("T", [129, 389])
    @pytest.mark.parametrize("kind", ["cobb-douglas", "uniform"])
    def test_factored_graphs_match_their_weights(self, T, kind):
        # beyond BLOCK_ROWS the rounds run on the factors; they reach the
        # outcome of the materialised weights, with labels within rounding
        rng = np.random.default_rng(T)
        stats = make_cd(T, periods=T, goods=5) if kind == "cobb-douglas" else _uniform(rng, T, 5)
        graph = build_cross_graph(stats)
        weights = graph.log_weights()
        labels, cycle, _ = shortest_potentials(graph)
        want_labels, want_cycle, _ = shortest_potentials(weights)
        assert (cycle is None) == (want_cycle is None) == (kind == "cobb-douglas")
        if cycle is None:
            np.testing.assert_allclose(labels, want_labels, rtol=0.0, atol=1e-12)
            assert np.all(labels[:, None] + weights >= labels[None, :] - 1e-12)
        else:
            log_weight, ratio, _ = _cycle_stats(cycle, graph)
            assert log_weight < 0.0 and ratio < 1.0

    @pytest.mark.parametrize("diagonal", [0.0, np.inf])
    @pytest.mark.parametrize("seed", range(6))
    def test_c_and_f_order_agree(self, seed, diagonal):
        weights = _dense_graph(seed, diagonal)
        labels_c, cycle_c, _ = shortest_potentials(np.ascontiguousarray(weights))
        labels_f, cycle_f, _ = shortest_potentials(np.asfortranarray(weights))
        assert cycle_c == cycle_f
        if cycle_c is None:
            assert labels_c.tobytes() == labels_f.tobytes()
        else:
            assert labels_c is None and labels_f is None

    def test_single_node(self):
        labels, cycle, _ = shortest_potentials(np.zeros((1, 1)))
        np.testing.assert_array_equal(labels, [0.0])
        assert cycle is None

    def test_cycle_in_forward_order_from_smallest(self):
        # the only negative cycle is 1 -> 3 -> 2 -> 1
        weights = np.full((4, 4), 1.0)
        np.fill_diagonal(weights, 0.0)
        weights[1, 3] = weights[3, 2] = weights[2, 1] = -1.0
        assert shortest_potentials(weights) == (None, [1, 3, 2], False)

    def test_stops_at_first_cycle(self, monkeypatch):
        # the harp-infeasible benchmark instances: T = 300, ten uniform goods
        stats = _uniform(np.random.default_rng(7), 300, 10)
        calls = []
        real = _kernels.bf_rounds

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(_kernels, "bf_rounds", counted)
        result = check_harp(stats)
        assert result.status is Status.INFEASIBLE
        assert set(calls) == {1}
        assert len(calls) <= 10


class TestTightFamilies:
    """Exactly tight data is FEASIBLE, but rounding decides the sign of every
    ratio-1 cycle, so some draws stay UNDECIDED.  FEASIBLE counts out of 200;
    from zero labels alone they were 166, 171, 49 and 40.  The single-good
    family is counted by ``test_tight_single_good_never_raises``."""

    @pytest.mark.parametrize(
        "seed, divide, count", [(0, False, 187), (1, False, 183), (0, True, 57), (1, True, 45)]
    )
    def test_copies(self, seed, divide, count):
        feasible = 0
        for _, stats in tight_copies(seed, divide):
            result = check_harp(stats)
            assert result.status is not Status.INFEASIBLE
            if result.status is Status.FEASIBLE:
                assert verify_certificate(stats, result.certificate)
                feasible += 1
        assert feasible == count

    @pytest.mark.parametrize("divide", [False, True])
    def test_copies_above_one_block_certify_at_once(self, divide):
        # T = 130 and 200: the first round from the index checks its labels
        # at tol / T per edge, which ratio-1 cycles pass whichever sign rounding gives
        # their weights; the rounds and re-verification alone left 37 (no
        # divide) and 40 (divide) of these 40 UNDECIDED
        for periods in (65, 100):
            for i, stats in tight_copies(0, divide, 20, periods):
                result = check_harp(stats)
                assert result.status is Status.FEASIBLE, (periods, i)
                index = _index_potentials(build_cross_graph(stats))
                assert result.certificate.lambdas.tobytes() == _softmax(index).tobytes()
                assert verify_certificate(stats, result.certificate)

    @pytest.mark.parametrize("periods", [65, 100])
    def test_cycle_below_a_loose_tol_stays_infeasible(self, periods):
        # a tight copy of make_cd(0, periods, 3) whose copy of period 5 has
        # the price and quantity of its good of budget share near 0.3 both
        # raised by 30%: the 2-cycle (5, periods + 5) falls about 1.6% short
        # of 1, but the index splits that shortfall so that every edge is
        # within 1%.  Checked at tol = 1e-2 per edge, the index labels would
        # pass, and FEASIBLE would hide a cycle below 1 - tol; at tol / T
        # they fail, and the rounds go on to find it
        base = make_cd(0, periods, 3)
        f = np.random.default_rng(0).uniform(0.3, 3.0, (periods, 1))
        prices = np.vstack([base.prices, base.prices * f])
        quantities = np.vstack([base.quantities, base.quantities])
        k = periods + 5
        shares = prices[k] * quantities[k] / (prices[k] @ quantities[k])
        good = int(np.argmin(abs(shares - 0.3)))
        prices[k, good] *= 1.3
        quantities[k, good] *= 1.3
        stats = MarketStatistics(prices, quantities)
        graph = build_cross_graph(stats)
        assert shortest_potentials(graph, _index_potentials(graph), 1e-2)[2]
        result = check_harp(stats, tol=1e-2)
        assert result.status is Status.INFEASIBLE
        assert result.cycle.periods == (5, k, 5)
        assert result.cycle.cycle_ratio < 1.0 - 1e-2


def _ces(seed, periods, goods, sigma):
    """Demands of a CES utility with elasticity ``sigma``: homothetic, so FEASIBLE."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, goods)
    prices = rng.uniform(0.5, 2.0, (periods, goods))
    weights = (a / a.sum()) ** sigma * prices**-sigma
    budget = rng.uniform(0.5, 2.0, (periods, 1))
    return MarketStatistics(prices, budget * weights / (weights * prices).sum(axis=1, keepdims=True))


def _sweep_draw(i, periods=None):
    if periods is None:
        periods = (2, 3, 5, 9, 17, 40, 130, 260)[i % 8]
    goods = 2 + i % 4
    rng = np.random.default_rng(i)
    kind = i % 4
    if kind == 0:
        return make_cd(i, periods, goods)
    if kind == 1:
        return perturb(make_cd(i, periods, goods), noise=0.02, seed=i)
    if kind == 2:
        return _ces(i, periods, goods, (0.1, 0.5, 2.0, 4.0)[i // 4 % 4])
    return MarketStatistics(*np.exp(rng.normal(0.0, 0.5, (2, periods, goods))))


class TestIndexStart:
    @pytest.mark.parametrize("T", [6, 127, 129, 389])
    def test_cobb_douglas_settles_in_one_round(self, T, monkeypatch):
        # the index is exact for Cobb-Douglas data: the first round settles,
        # on the dense weights (T <= 128) and on the factors alike
        stats = make_cd(T, periods=T, goods=4)
        rounds = []
        real = _kernels.bf_rounds

        def counted(*args):
            out = real(*args)
            rounds.append(out[2])
            return out

        monkeypatch.setattr(_kernels, "bf_rounds", counted)
        result = check_harp(stats)
        assert result.status is Status.FEASIBLE
        assert rounds == [1]
        assert verify_certificate(stats, result.certificate)

    def test_sweep_matches_the_zero_start(self):
        # Cobb-Douglas, perturbed Cobb-Douglas, CES and lognormal draws at
        # T 2-260: the index start never changes a status
        statuses = set()
        for i in range(64):
            stats = _sweep_draw(i)
            result = check_harp(stats)
            zero = _decide(stats, build_cross_graph(stats), 1e-9, None)
            assert result.status is zero.status, i
            statuses.add(result.status)
        assert statuses == {Status.FEASIBLE, Status.INFEASIBLE}

    def test_sweep_above_one_block_matches_the_zero_start(self):
        # each kind at T 129-700, where the first round from the index also
        # checks the certificate: still the zero-label run's status
        statuses = set()
        for i in range(16):
            stats = _sweep_draw(i, periods=(129, 200, 389, 700)[i // 4])
            result = check_harp(stats)
            zero = _decide(stats, build_cross_graph(stats), 1e-9, None)
            assert result.status is zero.status, i
            if result.status is Status.FEASIBLE:
                assert verify_certificate(stats, result.certificate), i
            statuses.add(result.status)
        assert statuses == {Status.FEASIBLE, Status.INFEASIBLE}

    @pytest.mark.parametrize("T", [129, 389, 1000])
    def test_first_round_is_the_certificate_check(self, T, monkeypatch):
        # above one block the settling round from the index certifies its
        # labels itself: no second round and no verify_certificate pass
        stats = make_cd(T, periods=T, goods=4)
        rounds = []
        real = _kernels.bf_rounds

        def counted(*args):
            out = real(*args)
            rounds.append(out[2])
            return out

        def second_pass(*args, **kwargs):
            raise AssertionError("verify_certificate was called")

        monkeypatch.setattr(_kernels, "bf_rounds", counted)
        monkeypatch.setattr(harp, "verify_certificate", second_pass)
        result = check_harp(stats)
        monkeypatch.undo()
        assert result.status is Status.FEASIBLE
        assert rounds == [1]
        assert result.certificate.lambdas.tobytes() == _softmax(
            _index_potentials(build_cross_graph(stats))
        ).tobytes()
        assert verify_certificate(stats, result.certificate)

    def test_subnormal_cycle_product_is_not_infeasible(self):
        # the 8/9 cycle of (0, 1) with p^0 . q^1 = 1e-310, a subnormal: no
        # range check vouches for it in the index run, so that run is
        # UNDECIDED and the zero-label run, whose first round checked every
        # cross expenditure, reports the cycle
        stats = MarketStatistics(
            prices=[[1e-160, 1e-160], [2.0, 1.0]], quantities=[[0.25, 0.5], [0.5e-150, 0.5e-150]]
        )
        graph = build_cross_graph(stats)
        start = _index_potentials(graph)
        assert start is not None
        from_index = _decide(stats, graph, 1e-9, start)
        assert from_index.status is Status.UNDECIDED
        assert from_index.decision.detail == "cycle expenditures leave the normal floats"
        result = check_harp(stats)
        assert result.status is Status.INFEASIBLE
        assert result.cycle.periods == (0, 1, 0)

    @pytest.mark.parametrize(
        "prices, quantities",
        [
            ([[1e200, 1.0], [1.0, 1.0]], [[1e200, 1.0], [1.0, 1.0]]),  # p^0 . q^0 overflows
            ([[1e-200, 1e-200], [1.0, 1.0]], [[1e-200, 1e-200], [1.0, 1.0]]),  # underflows
        ],
    )
    def test_no_index_outside_the_normal_floats(self, prices, quantities):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _index_potentials(build_cross_graph(MarketStatistics(prices, quantities))) is None


def _row_scalings(rows: int, count: int = 24, seed: int = 303):
    """Fixed (instance seed, factor, row) cases: seeds in [0, 500], factors in
    [0.1, 10] with both ends, rows in [0, rows).  A fixed list, unlike a
    derandomized property-test draw, does not move when unrelated code does."""
    rng = np.random.default_rng(seed)
    n = count - 2
    seeds = rng.integers(0, 501, n).tolist()
    factors = np.round(rng.uniform(0.1, 10.0, n), 3).tolist()
    picks = rng.integers(0, rows, n).tolist()
    return list(zip(seeds, factors, picks)) + [(0, 0.1, 0), (500, 10.0, rows - 1)]


class TestInvariances:
    @pytest.mark.parametrize("seed, c, row", _row_scalings(rows=4))
    def test_price_row_scaling(self, seed, c, row):
        stats = make_cd(seed, periods=4, goods=3)
        scaled = MarketStatistics(
            prices=stats.prices * np.where(np.arange(4)[:, None] == row, c, 1.0),
            quantities=stats.quantities,
        )
        assert check_harp(scaled).status is check_harp(stats).status

    @pytest.mark.parametrize("seed, c, row", _row_scalings(rows=4))
    def test_quantity_row_scaling(self, seed, c, row):
        stats = make_cd(seed, periods=4, goods=3)
        scaled = MarketStatistics(
            prices=stats.prices,
            quantities=stats.quantities
            * np.where(np.arange(4)[:, None] == row, c, 1.0),
        )
        assert check_harp(scaled).status is check_harp(stats).status

    @pytest.mark.parametrize("c, row", [(c, row) for _, c, row in _row_scalings(rows=2)])
    def test_scaling_preserves_infeasibility(self, c, row):
        base = MarketStatistics(
            prices=[[1.0, 1.0], [2.0, 1.0]], quantities=[[0.25, 0.5], [0.5, 0.5]]
        )
        scaled = MarketStatistics(
            prices=base.prices * np.where(np.arange(2)[:, None] == row, c, 1.0),
            quantities=base.quantities,
        )
        assert check_harp(scaled).status is Status.INFEASIBLE


class TestVerifyCertificate:
    def test_hand_derived_true(self, feasible2):
        assert verify_certificate(feasible2, np.array([4 / 7, 3 / 7]))

    def test_wrong_multipliers_false(self, feasible2):
        assert not verify_certificate(feasible2, np.array([0.99, 0.01]))

    def test_single_period(self):
        stats = MarketStatistics(prices=[[1.0]], quantities=[[1.0]])
        assert verify_certificate(stats, np.array([1.0]))

    def test_not_normalized_false(self, feasible2):
        assert not verify_certificate(feasible2, np.array([4 / 7, 3 / 7]) * 2.0)

    def test_nonpositive_false(self, feasible2):
        assert not verify_certificate(feasible2, np.array([1.5, -0.5]))

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_overflowed_or_underflowed_cross_false(self, feasible2, factor):
        # every cross expenditure becomes inf (or 0), where inf <= inf (0 <= 0) holds
        stats = MarketStatistics(
            prices=feasible2.prices * factor, quantities=feasible2.quantities * factor
        )
        with np.errstate(all="ignore"):
            assert not verify_certificate(stats, np.array([4 / 7, 3 / 7]))


def _reference_verify(stats, lam, tol=1e-9):
    """The blockwise check before the multipliers were folded into the prices:
    ``BLOCK_ROWS`` rows of tau at a time, raw products checked, then scaled."""
    lam = np.asarray(lam, float)
    if lam.ndim != 1 or lam.size != stats.periods:
        return False
    if not 0.0 < lam.min() <= lam.max() < np.inf:
        return False
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        return False
    p, q = stats.prices, stats.quantities
    T = lam.size
    own = np.empty(T)
    cheapest = np.empty(T)
    with np.errstate(over="ignore"):
        for lo in range(0, T, 128):
            rows = min(128, T - lo)
            cross = p[lo : lo + rows] @ q.T
            if not 0.0 < cross.min() <= cross.max() < np.inf:
                return False
            cross *= lam[lo : lo + rows, None]
            own[lo : lo + rows] = cross.reshape(-1)[lo :: T + 1]
            if lo:
                np.minimum(cheapest, cross.min(axis=0), out=cheapest)
            else:
                cross.min(axis=0, out=cheapest)
    return bool((own <= cheapest * (1.0 + tol)).all())


def _multiplier_cases(stats, rng):
    """A certificate, random and violated multipliers, and malformed ones."""
    T = stats.periods
    result = check_harp(stats)
    cases = [rng.dirichlet(np.ones(T)), np.full(T, 1.0 / T)]
    if result.certificate is not None:
        lam = result.certificate.lambdas
        violated = lam.copy()
        violated[T // 2] *= 1.5  # period T // 2 now spends more than some cross bundle costs
        cases += [lam, violated / violated.sum()]
    bad = np.full(T, 1.0 / T)
    nan, zero, double = bad.copy(), bad.copy(), bad * 2.0
    nan[0], zero[-1] = np.nan, 0.0
    tiny = bad.copy()
    tiny[0] = 1e-320  # folded prices below the normal floats
    return cases + [nan, zero, double, tiny / tiny.sum()]


def _first_round_certifies(stats, lam, edge_tol):
    """Whether a run from the labels ``log(lam)`` is certified in its first
    round, at relative tolerance ``edge_tol`` on each edge.

    check_harp starts from labels only where every own expenditure is a
    finite normal float; elsewhere the later rounds' logs may warn."""
    start = np.log(lam)
    try:
        with np.errstate(all="ignore"):
            labels, _, certified = shortest_potentials(build_cross_graph(stats), start, edge_tol)
    except _kernels.FloatRangeError:
        return False
    return certified and labels is start  # a later round would return its own labels


def _finite_label_cases(stats, rng):
    """The multiplier cases of ``_multiplier_cases`` that have finite logs."""
    return [lam for lam in _multiplier_cases(stats, rng) if 0.0 < lam.min() < np.inf]


class TestFirstRoundMatchesVerify:
    """The first factored round's certificate check gives the bool of
    ``verify_certificate`` on the same labels at the same tolerance, that of
    check_harp's check, ``tol / T`` per edge, on the data of
    ``TestVerifyMatchesReference``; up to one block it never certifies."""

    @pytest.mark.parametrize("T", [127, 128, 129, 256, 257, 300])
    @pytest.mark.parametrize("kind", ["cobb-douglas", "uniform"])
    @pytest.mark.parametrize("tol", [1e-9, 1e-2])
    def test_random_data(self, T, kind, tol):
        rng = np.random.default_rng(T)
        stats = make_cd(T, periods=T, goods=4) if kind == "cobb-douglas" else _uniform(rng, T, 4)
        verdicts = set()
        for lam in _finite_label_cases(stats, rng):
            merged = _first_round_certifies(stats, lam, tol / T)
            if T <= _kernels.BLOCK_ROWS:
                assert not merged
            else:
                assert merged == verify_certificate(stats, _softmax(np.log(lam)), tol=tol / T)
            verdicts.add(merged)
        want = {False, True} if T > _kernels.BLOCK_ROWS and kind == "cobb-douglas" else {False}
        assert verdicts == want

    @pytest.mark.parametrize("T", [129, 300])
    @pytest.mark.parametrize(
        "row_scale",
        [(1e160, 1e160), (1e-200, 1e-200), (1e200, 1.0), (1.0, 1e-200)],
        ids=["overflow", "underflow", "prices-1e200", "quantities-1e-200"],
    )
    def test_extreme_data(self, T, row_scale):
        rng = np.random.default_rng(T)
        base = make_cd(T, periods=T, goods=3)
        price_scale, quantity_scale = np.ones((T, 1)), np.ones((T, 1))
        if row_scale[0] == row_scale[1]:
            price_scale[:], quantity_scale[:] = row_scale
        else:
            price_scale[0], quantity_scale[1] = row_scale
        stats = MarketStatistics(base.prices * price_scale, base.quantities * quantity_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in _finite_label_cases(stats, rng):
                merged = _first_round_certifies(stats, lam, 1e-9 / T)
                assert merged == verify_certificate(stats, _softmax(np.log(lam)), tol=1e-9 / T)

    def test_subnormal_factors_certify_nothing(self):
        # one good at the subnormal price 1000 * 5e-324 in every period, and
        # labels 2e-6 apart: their factors exp(d - c) p would round to equal
        # subnormals and hide the violation that verify_certificate finds
        T = 130
        rng = np.random.default_rng(5)
        stats = MarketStatistics(np.full((T, 1), 1000 * 5e-324), rng.uniform(1e300, 1e301, (T, 1)))
        lam = 1.0 + 1e-6 * (-1.0) ** np.arange(T)
        lam /= lam.sum()
        assert not verify_certificate(stats, lam, tol=1e-9 / T)
        assert not _first_round_certifies(stats, lam, 1e-9 / T)

    def test_overflowed_cross_expenditure_certifies_nothing(self):
        # Cobb-Douglas data, so the index labels pass the check, but p^0 . q^1
        # = 1e300 * 1e10 * ... overflows: only the raw products' range check
        # keeps that from a certificate, as in verify_certificate
        T = 130
        rng = np.random.default_rng(7)
        prices = rng.uniform(0.5, 2.0, (T, 3))
        prices[0, 0], prices[1, 0] = 1e300, 1e-10
        stats = MarketStatistics(prices, rng.uniform(0.5, 2.0, (T, 1)) * [0.2, 0.3, 0.5] / prices)
        lam = _softmax(_index_potentials(build_cross_graph(stats)))
        assert not verify_certificate(stats, lam, tol=1e-9 / T)
        assert not _first_round_certifies(stats, lam, 1e-9 / T)
        with np.errstate(over="ignore"):
            result = check_harp(stats)
        assert result.status is Status.UNDECIDED
        assert result.decision.detail == "cross expenditures overflow or underflow"

    def test_column_bounds_keep_the_second_pass(self):
        # the column bounds overflow while every product stays finite: the
        # first round cannot vouch for the raw products, so it certifies
        # nothing and verify_certificate decides
        T = 200
        rng = np.random.default_rng(1)
        prices = rng.uniform(0.5, 2.0, (T, 2))
        prices[0, 0] = prices[1, 1] = 1e308
        stats = MarketStatistics(prices, rng.uniform(0.5, 2.0, (T, 2)))
        for lam in _finite_label_cases(stats, rng):
            assert not _first_round_certifies(stats, lam, 1e-9 / T)


class TestVerifyMatchesReference:
    @pytest.mark.parametrize("T", [2, 16, 127, 128, 129, 256, 257, 300])
    @pytest.mark.parametrize("kind", ["cobb-douglas", "uniform"])
    def test_random_data(self, T, kind):
        rng = np.random.default_rng(T)
        stats = make_cd(T, periods=T, goods=4) if kind == "cobb-douglas" else _uniform(rng, T, 4)
        for lam in _multiplier_cases(stats, rng):
            assert verify_certificate(stats, lam) == _reference_verify(stats, lam)

    @pytest.mark.parametrize("T", [5, 129, 300])
    @pytest.mark.parametrize(
        "row_scale",
        [
            (1e160, 1e160),  # every cross expenditure overflows
            (1e-200, 1e-200),  # every cross expenditure underflows
            (1e200, 1.0),  # period 0's multiplier is about 1e-200 times the others
            (1.0, 1e-200),  # period 1's own expenditure is about 1e-200
        ],
        ids=["overflow", "underflow", "prices-1e200", "quantities-1e-200"],
    )
    def test_extreme_data(self, T, row_scale):
        # the two factors scale period 0's prices and period 1's quantities,
        # or, when equal, every period's
        rng = np.random.default_rng(T)
        base = make_cd(T, periods=T, goods=3)
        price_scale, quantity_scale = np.ones((T, 1)), np.ones((T, 1))
        if row_scale[0] == row_scale[1]:
            price_scale[:], quantity_scale[:] = row_scale
        else:
            price_scale[0], quantity_scale[1] = row_scale
        stats = MarketStatistics(base.prices * price_scale, base.quantities * quantity_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in _multiplier_cases(stats, rng):
                assert verify_certificate(stats, lam) == _reference_verify(stats, lam)

    def test_subnormal_folded_prices_keep_their_digits(self):
        # one good at one subnormal price, so any multipliers within tol of
        # equal are a certificate.  Each lam_tau p^tau lies within 1e-12 of
        # 231.5 subnormal steps and rounds to 231 or 232 of them, 0.4% apart,
        # while the raw products p^tau q^t are normal and keep every digit
        T = 130
        rng = np.random.default_rng(5)
        stats = MarketStatistics(np.full((T, 1), 30_095 * 5e-324), rng.uniform(1e300, 1e301, (T, 1)))
        lam = 1.0 + 1e-12 * (-1.0) ** np.arange(T)
        lam /= lam.sum()
        assert verify_certificate(stats, lam)
        assert _reference_verify(stats, lam)

    def test_column_bounds_fall_back_to_the_raw_products(self):
        # each good's largest price and largest quantity sit in different
        # periods, so the bound sum_i max p_i * max q_i overflows while every
        # product stays finite: the raw check decides, and the certificate verifies
        T = 200
        rng = np.random.default_rng(1)
        prices = rng.uniform(0.5, 2.0, (T, 2))
        quantities = rng.uniform(0.5, 2.0, (T, 2))
        prices[0, 0] = prices[1, 1] = 1e308
        stats = MarketStatistics(prices, quantities)
        result = check_harp(stats)
        for lam in _multiplier_cases(stats, rng):
            assert verify_certificate(stats, lam) == _reference_verify(stats, lam)
        if result.certificate is not None:
            assert verify_certificate(stats, result.certificate)


class TestRecoverUtility:
    def test_single_piece(self):
        stats = MarketStatistics(prices=[[1.0, 1.0]], quantities=[[1.0, 1.0]])
        f = recover_utility(AfriatCertificate(np.array([1.0])), stats)
        assert f(np.array([2.0, 3.0])) == pytest.approx(5.0, abs=1e-15)

    def test_consistency_with_data(self, feasible2):
        cert = AfriatCertificate(np.array([4 / 7, 3 / 7]))
        f = recover_utility(cert, feasible2)
        # both pieces evaluated at q^0: min(4/7 * 1, 3/7 * 1.5) = 4/7
        assert f(feasible2.quantities[0]) == pytest.approx(4.0 / 7.0, rel=1e-12)
        for t in range(2):
            own = float(feasible2.prices[t] @ feasible2.quantities[t])
            assert f(feasible2.quantities[t]) == pytest.approx(
                cert.lambdas[t] * own, rel=1e-9
            )

    def test_homogeneity(self, feasible2):
        cert = check_harp(feasible2).certificate
        f = recover_utility(cert, feasible2)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.1, 3.0, 2)
        assert f(2.5 * x) == pytest.approx(2.5 * f(x), rel=1e-12)

    def test_invalid_certificate_rejected(self, infeasible2):
        with pytest.raises(InvalidCertificateError):
            recover_utility(AfriatCertificate(np.array([0.5, 0.5])), infeasible2)

    def test_batch_evaluation(self, feasible2):
        f = recover_utility(check_harp(feasible2).certificate, feasible2)
        batch = np.array([[1.0, 1.0], [2.0, 2.0]])
        values = f(batch)
        assert values.shape == (2,)
        assert values[1] == pytest.approx(2 * values[0], rel=1e-12)


class TestPiecewiseLinearUtility:
    def test_monotone_and_positive(self):
        f = PiecewiseLinearUtility(weights=np.array([1.0, 2.0]), rows=np.array([[1.0, 2.0], [3.0, 1.0]]))
        x = np.array([1.0, 1.0])
        assert f(x) > 0
        assert f(x + np.array([0.5, 0.0])) >= f(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearUtility(weights=np.array([-1.0]), rows=np.array([[1.0]]))


class TestSoundness:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_certificates_always_verify(self, seed):
        from phrp.datagen import perturb

        stats = perturb(make_cd(seed, periods=10, goods=3), noise=0.3, seed=seed)
        result = check_harp(stats)
        if result.status is Status.FEASIBLE:
            assert verify_certificate(stats, result.certificate)
        elif result.status is Status.INFEASIBLE:
            assert result.cycle.cycle_ratio < 1.0
            assert len(set(result.cycle.periods[:-1])) == len(result.cycle.periods) - 1
