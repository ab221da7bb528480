"""Tests for multi-consumer rationalizability and the class-number search."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    assert_block_rows,
    assert_program_rows,
    extreme_scales,
    make_aggregate,
    make_cd,
)
from phrp import convex
from phrp.collective import (
    AllocationSolution,
    _linearise,
    _share_starts,
    build_collective_program,
    check_collective,
    class_number,
    split_witness,
    verify_allocation,
)
from phrp.harp import check_harp
from phrp.model import MarketStatistics, Status


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


def _loop_linearisation(stats, k, qtil, lam):
    """The collective repair rows built one at a time, and the violation at (qtil, lam)."""
    T, n = stats.periods, stats.goods
    P, Q = stats.prices, stats.quantities
    e = np.exp(qtil)
    u = k * T * (n + 1)

    def q(a, t, i):
        return k * T + (a * T + t) * n + i

    rows, violation = [], 0.0
    for a in range(k):
        logc = np.log(np.einsum("si,ti->st", P, e[a]))
        weighted = np.einsum("si,ti->ts", P, e[a])
        for t in range(T):
            for tau in range(T):
                if t == tau:
                    continue
                g = lam[a, t] - lam[a, tau] + logc[t, t] - logc[tau, t] + 1e-7
                violation = max(violation, g)
                w = P[tau, :] * e[a, t, :] / weighted[t, tau]
                const = -float(np.log(weighted[t, tau])) + float(w @ qtil[a, t, :]) + 1e-7
                coefs = {a * T + t: 1.0, a * T + tau: -1.0, u: -1.0}
                coefs.update({q(a, t, i): -w[i] for i in range(n)})
                rows.append((const, coefs, tuple((P[t, i], q(a, t, i)) for i in range(n))))
    violation = max(violation, float((Q - e.sum(axis=0)).max()))
    for t in range(T):
        for i in range(n):
            const = float(Q[t, i])
            for a in range(k):
                const += float(e[a, t, i]) * (float(qtil[a, t, i]) - 1.0)
            coefs = {q(a, t, i): -e[a, t, i] for a in range(k)}
            rows.append((const, {**coefs, u: -1.0}, ()))
            rows.append((-np.log(Q[t, i]), {}, tuple((1.0, q(a, t, i)) for a in range(k))))
    return rows, violation


class TestLinearise:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_loop_reference(self, k):
        stats, _ = make_aggregate(4, periods=4, goods=3)
        rng = np.random.default_rng(k)
        shape = (k,) + stats.quantities.shape
        qtil = np.log(stats.quantities / k) + 0.3 * rng.standard_normal(shape)
        lam = rng.standard_normal((k, stats.periods))
        program, unpack = _linearise(stats, k, (qtil, lam))
        rows, violation = _loop_linearisation(stats, k, qtil, lam)
        assert program.name == f"collective-repair-k{k}"
        assert_program_rows(program, rows)
        start = np.clip(np.concatenate([lam.ravel(), qtil.ravel()]), -29.0, 29.0)
        np.testing.assert_array_equal(program.start_point()[:-1], start)
        assert program.start_point()[-1] == max(violation, 0.0) * 1.05 + 1e-6
        (new_q, new_lam), step = unpack(np.arange(program.n_variables, dtype=float))
        np.testing.assert_array_equal(new_lam.ravel(), np.arange(lam.size))
        np.testing.assert_array_equal(new_q.ravel(), lam.size + np.arange(qtil.size))
        assert step == np.max(np.abs(new_q - qtil))


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
        assert res.decision.optimum == 0.0
        assert verify_allocation(stats, res.allocation)

    def test_two_consumer_aggregate(self):
        agg, _ = make_aggregate(0)
        assert check_harp(agg).status is Status.INFEASIBLE
        res = check_collective(agg, 2)
        assert res.status is Status.FEASIBLE
        assert res.decision.optimum <= 1e-6
        alloc = res.allocation
        assert verify_allocation(agg, alloc)
        assert np.all(alloc.residuals <= 1e-6 * agg.quantities)

    def test_multipliers_beyond_float64_are_undecided(self):
        # the aggregate needs multiplier ratios near 1e400; the program's
        # phase I stalls against the localization box, which proves nothing
        res = check_collective(extreme_scales(), 2)
        assert res.status is Status.UNDECIDED
        # the stalled phase-I point is no slack optimum, so none is reported
        assert res.decision.detail.startswith("phase I stalled")
        assert res.decision.optimum is None

    def test_starts_are_the_share_patterns(self, monkeypatch):
        agg, _ = make_aggregate(9012, periods=6, goods=2)
        starts = []
        ccp = convex.ccp

        def recorded_ccp(starts_, *args, **kwargs):
            starts.extend(starts_)
            return ccp(starts_, *args, **kwargs)

        monkeypatch.setattr(convex, "ccp", recorded_ccp)
        assert check_collective(agg, 2).status is Status.FEASIBLE
        shares = _share_starts(2, agg.goods)
        assert len(starts) == len(shares)
        for (q, lam), share in zip(starts, shares):
            sub_q = share[:, None, :] * agg.quantities[None, :, :] * (1.0 - 1e-6)
            np.testing.assert_array_equal(q, np.log(sub_q))
            assert lam.shape == (2, agg.periods)

    def test_share_start_wins_in_three_repair_solves(self, monkeypatch):
        # from the main program's point this aggregate needs 20 repair solves
        agg, _ = make_aggregate(9012, periods=6, goods=2)
        names = []
        solve = convex.solve

        def counted(program, *args, **kwargs):
            names.append(program.name)
            return solve(program, *args, **kwargs)

        monkeypatch.setattr(convex, "solve", counted)
        res = check_collective(agg, 2)
        assert res.status is Status.FEASIBLE
        assert verify_allocation(agg, res.allocation)
        assert sum(name.startswith("collective-repair-") for name in names) == 3

    @pytest.mark.parametrize(
        "bound, status, detail",
        [
            (1e-5, Status.UNDECIDED, "no verifiable split found within the search budget"),
            (1e-4, Status.INFEASIBLE, "slack optimum certified >= 1.000e-04"),
        ],
    )
    def test_only_tol_reject_rejects(self, monkeypatch, bound, status, detail):
        # a main-solve bound above the solver's eps rejects only at tol_reject
        agg, _ = make_aggregate(9012, periods=6, goods=2)
        solve = convex.solve

        def bounded(program, *args, **kwargs):
            res = solve(program, *args, **kwargs)
            if "-repair-" in program.name:
                return res
            return dataclasses.replace(res, lower_bound=bound, objective=2.0 * bound)

        monkeypatch.setattr(convex, "solve", bounded)
        res = check_collective(agg, 2, tol_reject=1e-4)
        assert res.status is status
        assert res.decision.detail == detail

    def test_hint_short_circuits(self):
        agg, witness = make_aggregate(3)
        res = check_collective(agg, 2, hint=witness)
        assert res.status is Status.FEASIBLE
        assert res.decision.optimum == 0.0
        assert res.allocation is witness

    def test_tol_validation(self, feasible2):
        with pytest.raises(ValueError):
            check_collective(feasible2, 1, tol_accept=1.0, tol_reject=0.5)


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
