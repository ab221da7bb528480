"""Tests for multi-consumer rationalizability and the class-number search."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_block_rows,
    extreme_scales,
    make_aggregate,
    make_cd,
    subnormal_quantity,
    tight_copies,
)
from phrp import collective, convex
from phrp.collective import (
    AllocationSolution,
    _max_cycle_mean,
    _multiplier_step,
    _share_starts,
    _split_step,
    _witness_search,
    build_collective_program,
    check_collective,
    class_number,
    split_witness,
    verify_allocation,
)
from phrp.harp import check_harp
from phrp.model import MarketStatistics, Status


@pytest.fixture
def split_lps(monkeypatch):
    """A list that grows by one at each split LP the collective module solves."""
    lps = []
    linprog = collective.linprog

    def counted_lp(*args, **kwargs):
        lps.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(collective, "linprog", counted_lp)
    return lps


class TestBuildProgram:
    def test_counts_k2_t2_n2(self):
        agg, _ = make_aggregate(0, periods=2, goods=2)
        prog = build_collective_program(agg, k=2)
        assert {block.label: len(block.const) for block in prog.blocks} == {
            "afriat": 8,
            "balance": 4,
        }
        assert prog.n_variables == 4 + 8 + 4  # lam + q + slacks

    def test_k_validation(self):
        agg, _ = make_aggregate(0, periods=2, goods=2)
        with pytest.raises(ValueError):
            build_collective_program(agg, k=0)

    def test_k1_program_reduces_to_pinned_totals(self):
        # with one consumer the substituted right side is the constant p^tau.Q^t
        stats = make_cd(4, periods=2, goods=2)
        prog = build_collective_program(stats, k=1)
        afriat = prog.blocks[0]
        assert afriat.label == "afriat" and len(afriat.const) == 4
        base_coef, base_const, terms = afriat.res
        assert not base_coef.any() and terms[0].size == 0
        cp = stats.prices @ stats.quantities.T
        np.testing.assert_allclose(base_const, [cp[0, 0], cp[1, 0], cp[0, 1], cp[1, 1]], rtol=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_loop_reference(self, k):
        agg, _ = make_aggregate(4, periods=3, goods=2)
        afriat, balance = build_collective_program(agg, k).blocks
        rows = _loop_program_rows(agg, k)
        assert_block_rows(afriat, rows["afriat"])
        assert_block_rows(balance, rows["balance"])


def _loop_program_rows(stats, k):
    """The main program's rows, built one at a time in the record form."""
    T, n = stats.periods, stats.goods
    P, Q = stats.prices, stats.quantities
    cp = P @ Q.T

    def q(a, t, i):
        return k * T + (a * T + t) * n + i

    rows = {"afriat": [], "balance": []}
    for a in range(k):
        for t in range(T):
            for tau in range(T):
                coefs = {a * T + t: 1.0}
                coefs[a * T + tau] = coefs.get(a * T + tau, 0.0) - 1.0
                lse = tuple((P[t, i], q(a, t, i)) for i in range(n))
                res = tuple((P[tau, i], q(b, t, i)) for b in range(k) if b != a for i in range(n))
                rows["afriat"].append((0.0, coefs, lse, (cp[tau, t], {}, res)))
    for t in range(T):
        for i in range(n):
            lse = tuple((1.0, q(a, t, i)) for a in range(k))
            gamma = k * T * (n + 1) + t * n + i
            rows["balance"].append((0.0, {}, lse, (Q[t, i], {gamma: -1.0}, ())))
    return rows


class TestAllocationSolution:
    def test_balance_enforced(self):
        q = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            AllocationSolution(
                sub_quantities=q,
                sub_lambdas=np.ones((2, 2)),
                residuals=np.zeros((2, 2)),
                totals=3.0 * np.ones((2, 2)),  # 2 consumers x 1 each != 3
            )

    def test_positivity_enforced(self):
        q = np.ones((1, 2, 2))
        q[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            AllocationSolution(
                sub_quantities=q,
                sub_lambdas=np.ones((1, 2)),
                residuals=np.zeros((2, 2)),
                totals=q.sum(axis=0),
            )


class TestVerifyAllocation:
    def test_generating_split_passes(self):
        agg, witness = make_aggregate(1)
        assert verify_allocation(agg, witness)

    def test_balance_break_fails(self):
        agg, witness = make_aggregate(1)
        doubled = AllocationSolution(
            sub_quantities=witness.sub_quantities * 2.0,
            sub_lambdas=witness.sub_lambdas,
            residuals=np.zeros_like(agg.quantities),
            totals=witness.sub_quantities.sum(axis=0) * 2.0,
        )
        assert not verify_allocation(agg, doubled)

    def test_swapped_lambdas_fail(self):
        agg, witness = make_aggregate(2)
        swapped = AllocationSolution(
            sub_quantities=witness.sub_quantities,
            sub_lambdas=witness.sub_lambdas[::-1].copy(),
            residuals=witness.residuals,
            totals=witness.totals,
        )
        assert not verify_allocation(agg, swapped)


class TestCheckCollective:
    def test_k1_delegates_to_exact_test(self):
        stats = make_cd(0, periods=8, goods=3)
        res = check_collective(stats, 1)
        assert res.status is Status.FEASIBLE
        assert res.allocation is not None
        assert verify_allocation(stats, res.allocation)

    def test_k1_rejects(self, infeasible2):
        res = check_collective(infeasible2, 1)
        assert res.status is Status.INFEASIBLE

    def test_even_split_for_rationalizable_aggregate(self):
        stats = make_cd(1, periods=6, goods=2)
        res = check_collective(stats, 2)
        assert res.status is Status.FEASIBLE
        assert verify_allocation(stats, res.allocation)

    def test_two_consumer_aggregate(self):
        agg, _ = make_aggregate(0)
        assert check_harp(agg).status is Status.INFEASIBLE
        res = check_collective(agg, 2)
        assert res.status is Status.FEASIBLE
        alloc = res.allocation
        assert verify_allocation(agg, alloc)
        assert np.all(alloc.residuals <= 1e-6 * agg.quantities)

    def test_multipliers_beyond_float64_are_undecided(self):
        # the aggregate needs multiplier ratios near 1e400, so every search
        # start is skipped; a miss proves nothing
        res = check_collective(extreme_scales(), 2)
        assert res.status is Status.UNDECIDED
        assert res.decision.detail == "no verifiable split found within the search budget"

    @pytest.mark.parametrize("factor", [1e6, 1e14, 1e-12])
    def test_quantity_units_are_no_rejection(self, factor):
        # quantities times factor and prices divided by it leave every cross
        # expenditure, and so the truth (FEASIBLE), as it was; at k = 2 < n the
        # witness search decides
        agg, _ = make_aggregate(9031, periods=6, goods=3)
        stats = MarketStatistics(prices=agg.prices / factor, quantities=agg.quantities * factor)
        res = check_collective(stats, 2)
        assert res.status is Status.FEASIBLE
        assert res.decision.detail == "verified witness found"
        assert verify_allocation(stats, res.allocation)

    @pytest.mark.parametrize("search", ["win", "miss"])
    def test_search_win_builds_no_program(self, monkeypatch, search):
        # neither a search win nor a miss builds or solves a slack program
        def refused(*args, **kwargs):
            raise AssertionError("a slack program was built or solved")

        agg, _ = make_aggregate(9031, periods=6, goods=3)
        monkeypatch.setattr(collective, "build_collective_program", refused)
        monkeypatch.setattr(convex, "solve", refused)
        if search == "miss":
            monkeypatch.setattr(collective, "_witness_search", lambda *args: None)
        res = check_collective(agg, 2)
        if search == "win":
            assert res.status is Status.FEASIBLE
            assert verify_allocation(agg, res.allocation)
        else:
            assert res.status is Status.UNDECIDED
            assert res.decision.detail == "no verifiable split found within the search budget"
            assert res.allocation is None

    def test_starts_are_the_share_patterns(self, monkeypatch):
        # a multiplier step that returns None ends each start at its first split
        agg, _ = make_aggregate(9012, periods=6, goods=2)
        starts = []

        def recorded(stats, sub_q):
            starts.append(sub_q)

        monkeypatch.setattr(collective, "_multiplier_step", recorded)
        assert _witness_search(agg, 2) is None
        shares = _share_starts(2, agg.goods)
        assert len(starts) == len(shares)
        for q, share in zip(starts, shares):
            expected = share[:, None, :] * agg.quantities[None, :, :] * (1.0 - 1e-6)
            np.testing.assert_array_equal(q, expected)

    @pytest.mark.parametrize("seed, goods", [(9012, 2), (9031, 3)])
    def test_share_start_wins_in_one_lp(self, monkeypatch, split_lps, seed, goods):
        # the first share start's split fails, and the split after one LP is
        # verified: two multiplier steps in all; the search is called
        # directly, since check_collective takes the collinear split at k = n = 2
        agg, _ = make_aggregate(seed, periods=6, goods=goods)
        steps = []
        multiplier_step = collective._multiplier_step

        def recorded(stats, sub_q):
            steps.append(sub_q)
            return multiplier_step(stats, sub_q)

        monkeypatch.setattr(collective, "_multiplier_step", recorded)
        alloc = _witness_search(agg, 2)
        assert alloc is not None and verify_allocation(agg, alloc)
        first = _share_starts(2, goods)[0][:, None, :] * agg.quantities * (1.0 - 1e-6)
        np.testing.assert_array_equal(steps[0], first)
        assert len(steps) == 2 and len(split_lps) == 1

    def test_sweep_of_two_consumer_aggregates(self):
        # 120 aggregates of two opposite-taste consumers, n = 2, 3 and 4: all
        # FEASIBLE at k = 2, each with a witness that passes verification
        for i in range(120):
            agg, _ = make_aggregate(9400 + i, periods=6, goods=2 + i % 3)
            res = check_collective(agg, 2)
            assert res.status is Status.FEASIBLE, i
            assert verify_allocation(agg, res.allocation), i

    def test_witness_is_deterministic(self):
        agg, _ = make_aggregate(9031, periods=6, goods=3)
        first, second = (check_collective(agg, 2).allocation for _ in range(2))
        assert first.sub_quantities.tobytes() == second.sub_quantities.tobytes()
        assert first.sub_lambdas.tobytes() == second.sub_lambdas.tobytes()

    def test_search_skips_non_finite_rows(self):
        # multiplier ratios near 1e400 overflow the split rows: every start
        # is skipped, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _witness_search(extreme_scales(), 2) is None

    def test_underflowing_share_start_is_skipped(self):
        # share * Q rounds 5e-324 to 0 for some consumer in every start; the
        # start ends before a log of 0 is taken or a zero bundle is checked
        stats = subnormal_quantity()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = check_collective(stats, 2)
        assert res.status is Status.UNDECIDED
        assert res.decision.detail == "no verifiable split found within the search budget"

    @pytest.mark.parametrize("search", ["win", "miss"])
    def test_search_checks_the_aggregate_only(self, monkeypatch, search):
        # check_harp runs once, on the aggregate; every split is certified by
        # the multipliers of its own multiplier step
        stats = make_aggregate(9031, periods=6, goods=3)[0] if search == "win" else _t8_miss()
        calls = []
        harp = collective.check_harp

        def counted(*args, **kwargs):
            calls.append(1)
            return harp(*args, **kwargs)

        monkeypatch.setattr(collective, "check_harp", counted)
        res = check_collective(stats, 2)
        assert res.status is (Status.FEASIBLE if search == "win" else Status.UNDECIDED)
        assert len(calls) == 1

    def test_miss_keeps_the_round_budget(self, split_lps):
        # 31 splits per start at most, and a start ends after 3 split steps in
        # a row that did not lower the split objective
        assert _witness_search(_t8_miss(), 2) is None
        assert len(split_lps) == 145

    def test_hint_short_circuits(self):
        agg, witness = make_aggregate(3)
        res = check_collective(agg, 2, hint=witness)
        assert res.status is Status.FEASIBLE
        assert res.allocation is witness


class TestCollinearSplit:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        periods=st.integers(1, 30),
        goods=st.integers(1, 5),
        extra=st.integers(0, 1),
        seed=st.integers(0, 10_000),
    )
    def test_k_at_least_n_is_feasible(self, periods, goods, extra, seed):
        # any positive data splits among n consumers, or more, each with
        # collinear bundles
        rng = np.random.default_rng(seed)
        stats = MarketStatistics(
            prices=10.0 ** rng.uniform(-3, 3, (periods, goods)),
            quantities=10.0 ** rng.uniform(-3, 3, (periods, goods)),
        )
        k = max(goods, 2) + extra
        res = check_collective(stats, k)
        assert res.status is Status.FEASIBLE
        assert res.allocation.consumers == k
        assert verify_allocation(stats, res.allocation)

    def test_lognormal_k_equals_n_builds_no_program(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the slack program was built")

        rng = np.random.default_rng(0)
        stats = MarketStatistics(
            prices=np.exp(3.0 * rng.standard_normal((30, 4))),
            quantities=np.exp(3.0 * rng.standard_normal((30, 4))),
        )
        monkeypatch.setattr(collective, "build_collective_program", refused)
        res = check_collective(stats, 4)
        assert res.status is Status.FEASIBLE
        assert res.decision.detail == "collinear split for k >= n"
        assert verify_allocation(stats, res.allocation)
        assert np.all(res.allocation.residuals <= 1e-6 * stats.quantities)

    def test_multipliers_beyond_float64_are_undecided(self):
        # k = n = 3 on data whose multiplier ratios near 1e400 underflow
        res = check_collective(extreme_scales(), 3)
        assert res.status is Status.UNDECIDED
        assert res.decision.detail == "collinear split for k >= n does not verify in float64"

    @pytest.mark.parametrize("k", [2, 3])
    def test_underflowing_even_split_is_skipped(self, k):
        # the aggregate is rationalizable, but Q / k rounds 5e-324 to 0, so the
        # even split has no positive bundle and the next step decides
        stats = MarketStatistics(
            prices=[[1.0, 1.0], [1.0, 2.0]], quantities=[[5e-324, 1.0], [1.0, 1.0]]
        )
        assert check_harp(stats).status is Status.FEASIBLE
        res = check_collective(stats, k)
        assert res.status in (Status.FEASIBLE, Status.UNDECIDED)
        if res.allocation is not None:
            assert verify_allocation(stats, res.allocation)

    @pytest.mark.parametrize("k", [1076, 2000, 4000])
    def test_many_consumers_split_every_bundle(self, k):
        # each of the n bundles splits into about k / n pieces, so no bundle
        # shrinks by more than a factor k / n
        stats = MarketStatistics(
            prices=[[1.0, 2.0], [2.0, 1.0]], quantities=[[1.0, 2.0], [2.0, 1.0]]
        )
        res = check_collective(stats, k)
        assert res.status is Status.FEASIBLE
        assert res.allocation.consumers == k
        assert verify_allocation(stats, res.allocation)

    def test_subnormal_bundle_is_undecided_not_raised(self):
        # for k > n a consumer's bundle is split in pieces, and 5e-324 / 3 rounds to 0
        stats = MarketStatistics(prices=[[1.0], [2.0]], quantities=[[5e-324], [1.0]])
        res = check_collective(stats, 3)
        assert res.status is Status.UNDECIDED
        assert res.allocation is None


def _rows(stats, q):
    """w[t, tau] = log(p^t . q^t) - log(p^tau . q^t), the multiplier LP's rows."""
    logc = np.log(stats.prices @ q.T)
    return np.diagonal(logc)[:, None] - logc.T


def _lp_multipliers(w):
    """The multiplier LP, solved by HiGHS: minimise s subject to
    d_t - d_tau + w[t, tau] <= s for t != tau, with d_0 = 0."""
    from scipy.optimize import linprog

    T = w.shape[0]
    t, tau = np.nonzero(~np.eye(T, dtype=bool))
    A = np.hstack([np.eye(T)[t] - np.eye(T)[tau], -np.ones((t.size, 1))])
    bounds = [(0.0, 0.0)] + [(None, None)] * T
    return linprog(np.r_[np.zeros(T), 1.0], A_ub=A, b_ub=-w[t, tau], bounds=bounds, method="highs")


def _random_split(seed, periods, goods=3, consumers=2):
    rng = np.random.default_rng(seed)
    stats = MarketStatistics(
        prices=np.exp(rng.standard_normal((periods, goods))),
        quantities=np.exp(rng.standard_normal((periods, goods))),
    )
    share = rng.uniform(0.1, 1.0, (consumers, periods, goods))
    return stats, share / share.sum(axis=0) * stats.quantities


def _t8_miss():
    """The first harp-INFEASIBLE T=8, n=3 lognormal aggregate from seed 0; the
    witness search misses it at k = 2."""
    rng = np.random.default_rng(0)
    while True:
        stats = MarketStatistics(
            prices=np.exp(rng.standard_normal((8, 3))),
            quantities=np.exp(rng.standard_normal((8, 3))),
        )
        if check_harp(stats).status is Status.INFEASIBLE:
            return stats


class TestTightSplits:
    @pytest.fixture
    def even_start(self, monkeypatch, split_lps):
        """Only the even share start, and a count of the split LPs."""
        monkeypatch.setattr(collective, "_share_starts", lambda k, n: [np.full((k, n), 1.0 / k)])
        return split_lps

    def test_even_split_is_certified_at_once(self, even_start):
        # wherever check_harp is not FEASIBLE on tight data, the even split's
        # first multiplier step certifies it, with no split LP.  These 13 data
        # sets are among the 34 that a relaxation from zero labels alone left
        # UNDECIDED; the price-index start decides the other 21.
        tight = []
        for i, stats in tight_copies():
            if check_harp(stats).status is Status.FEASIBLE:
                continue
            tight.append(i)
            alloc = _witness_search(stats, 2)
            assert alloc is not None and verify_allocation(stats, alloc), i
        assert tight == [1, 20, 29, 35, 58, 87, 112, 128, 131, 146, 174, 189, 198]
        assert not even_start

    def test_split_check_harp_leaves_undecided(self, even_start):
        # i = 20: check_harp says UNDECIDED on each consumer's bundle, a
        # tight cycle of ratio 1, yet the split verifies with the multiplier
        # step's own multipliers
        stats = dict(tight_copies(count=21))[20]
        alloc = _witness_search(stats, 2)
        assert alloc is not None and verify_allocation(stats, alloc)
        assert not even_start
        for q in alloc.sub_quantities:
            res = check_harp(MarketStatistics(prices=stats.prices, quantities=q))
            assert res.status is Status.UNDECIDED


class TestMultiplierStep:
    @pytest.mark.parametrize("periods", range(2, 7))
    def test_max_cycle_mean_is_the_best_simple_cycle(self, periods):
        rng = np.random.default_rng(periods)
        for _ in range(5):
            w = rng.standard_normal((periods, periods))
            np.fill_diagonal(w, -np.inf)
            best = max(
                np.mean(w[cycle, np.roll(cycle, -1)])
                for length in range(2, periods + 1)
                for cycle in map(list, itertools.permutations(range(periods), length))
                if cycle[0] == min(cycle)
            )
            assert _max_cycle_mean(w) == pytest.approx(best, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_lp_and_meets_every_row(self, seed):
        stats, sub_q = _random_split(seed, periods=2 + seed % 10)
        lams = _multiplier_step(stats, sub_q)
        for q, lam in zip(sub_q, lams):
            w = _rows(stats, q)
            lp = _lp_multipliers(w)
            assert lp.status == 0
            np.fill_diagonal(w, -np.inf)
            s = _max_cycle_mean(w)
            spread = np.abs(w[np.isfinite(w)]).max()
            assert s == pytest.approx(lp.fun, rel=1e-12, abs=1e-12 * spread)
            # the centred potentials are optimal: each row holds to rounding
            d = np.log(lam)
            t, tau = np.nonzero(~np.eye(stats.periods, dtype=bool))
            row = d[t] - d[tau] + w[t, tau]
            scale = np.maximum.reduce(
                [np.abs(d[t]), np.abs(d[tau]), np.abs(w[t, tau]), np.full(t.size, max(abs(s), 1.0))]
            )
            assert np.all(row - s <= 1e-12 * scale)
            assert lam.max() == 1.0

    def test_solves_no_lp(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the multiplier step solved an LP")

        monkeypatch.setattr(collective, "linprog", refused)
        stats, sub_q = _random_split(0, periods=8)
        assert _multiplier_step(stats, sub_q) is not None

    def test_one_period_has_unit_multipliers(self):
        stats, sub_q = _random_split(1, periods=1)
        np.testing.assert_array_equal(_multiplier_step(stats, sub_q), np.ones((2, 1)))

    def test_non_finite_rows_are_none(self):
        stats, sub_q = _random_split(2, periods=4)
        sub_q[1, 2] = 0.0  # log(p . 0) = -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _multiplier_step(stats, sub_q) is None


class TestSplitStep:
    @pytest.mark.parametrize("seed", range(3))
    def test_balances_and_keeps_the_floor(self, seed):
        agg, _ = make_aggregate(9031, periods=6, goods=3)
        rng = np.random.default_rng(seed)
        lams = np.exp(rng.standard_normal((2, agg.periods)))
        sub_q, objective = _split_step(agg, lams)
        Q = agg.quantities
        assert sub_q.shape == (2,) + Q.shape
        assert np.max(np.abs(sub_q.sum(axis=0) - Q) / Q) <= 1e-9
        assert np.all(sub_q >= 1e-6 * Q)
        assert np.any(sub_q == 1e-6 * Q)  # the LP puts some shares on the floor
        assert np.isfinite(objective)


class TestMonotonicity:
    def test_split_witness_extends_acceptance(self):
        agg, _ = make_aggregate(4)
        res2 = check_collective(agg, 2)
        assert res2.status is Status.FEASIBLE
        bigger = split_witness(res2.allocation, consumer=0)
        assert bigger.consumers == 3
        assert verify_allocation(agg, bigger)
        res3 = check_collective(agg, 3, hint=bigger)
        assert res3.status is Status.FEASIBLE

    def test_per_consumer_reconstruction(self):
        from phrp.harp import recover_utility, AfriatCertificate

        agg, _ = make_aggregate(5)
        res = check_collective(agg, 2)
        alloc = res.allocation
        for a in range(2):
            lam = alloc.sub_lambdas[a] / alloc.sub_lambdas[a].sum()
            consumer = MarketStatistics(prices=agg.prices, quantities=alloc.sub_quantities[a])
            f = recover_utility(AfriatCertificate(lam), consumer)
            for t in range(agg.periods):
                own = float(agg.prices[t] @ alloc.sub_quantities[a, t])
                assert f(alloc.sub_quantities[a, t]) == pytest.approx(
                    lam[t] * own, rel=1e-9
                )


class TestClassNumber:
    def test_single_consumer_data(self):
        stats = make_cd(2, periods=10, goods=3)
        res = class_number(stats)
        assert res.value == 1
        assert res.status == "FOUND"
        assert res.per_k[1].status is Status.FEASIBLE

    def test_two_consumer_aggregate(self):
        agg, _ = make_aggregate(6)
        res = class_number(agg, k_max=3)
        assert res.value == 2
        assert res.status == "FOUND"
        assert res.certified_lower_bound == 2
        assert res.per_k[1].status is Status.INFEASIBLE
        assert res.per_k[2].status is Status.FEASIBLE
        assert verify_allocation(agg, res.witness)

    def test_budget_exhausted(self, infeasible2):
        res = class_number(infeasible2, k_max=1)
        assert res.value is None
        assert res.status == "NOT_FOUND"
        assert res.per_k[1].status is Status.INFEASIBLE

    def test_k_max_validation(self, feasible2):
        with pytest.raises(ValueError):
            class_number(feasible2, k_max=0)
