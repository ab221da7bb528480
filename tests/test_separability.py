"""Tests for the complete PH-separability pipeline and reconstructions."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    assert_block_rows,
    assert_program_rows,
    embed_bad_y_block,
    make_nested,
    perturbed_nested,
    rescaled_infeasible,
)
from phrp import convex
from phrp.datagen import CobbDouglasSpec, gen_nested_cd
from phrp.harp import PiecewiseLinearUtility, check_harp
from phrp.model import MarketStatistics, Status, partition
from phrp.separability import (
    InvalidMultipliersError,
    SeparabilityInstance,
    _linearise,
    build_separability_program,
    check_separability,
    reconstruct_macro_utility,
    reconstruct_subutility,
    verify_separability_solution,
    young_transform,
)


def _instance(part):
    return SeparabilityInstance.from_partition(part)


class TestBuildProgram:
    def test_constraint_counts_t2(self):
        part = make_nested(0, periods=2, q_goods=2, y_goods=2)
        prog = build_separability_program(_instance(part))
        rows = {block.label: len(block.const) for block in prog.blocks}
        assert rows == {"sub": 2, "macro": 4, "normalization": 1}  # no sub[t, t] tautologies
        assert prog.n_variables == 5  # 2 lam + 2 mu + slack

    def test_matches_loop_reference(self):
        inst = _instance(perturbed_nested(5030, 5, sigma=0.3, noise_seed=35))
        sub, macro, normalization = build_separability_program(inst).blocks
        rows = _loop_program_rows(inst)
        assert_block_rows(sub, rows["sub"])
        assert_block_rows(macro, rows["macro"])
        assert_block_rows(normalization, rows["normalization"])


def _loop_program_rows(inst):
    """The main program's rows, built one at a time in the record form."""
    T = inst.periods
    log_xy = np.log(inst.xy)
    log_e = np.log(inst.expenditures)
    rows = {"sub": [], "macro": []}
    for t in range(T):
        for tau in range(T):
            if t != tau:
                rows["sub"].append((log_xy[t, t] - log_xy[tau, t], {t: 1.0, tau: -1.0}, (), None))
    for t in range(T):
        for tau in range(T):
            a = float(inst.pq[tau, t])
            b = float(inst.xy[t, t])
            terms = []
            for i in range(T):
                d = (a if i != tau else 0.0) + (b if i != t else 0.0)
                if d > 0.0:
                    terms.append((d, i))
            coefs = {T + t: 1.0, tau: 1.0}
            coefs[T + tau] = coefs.get(T + tau, 0.0) - 1.0
            rows["macro"].append((log_e[t], coefs, (), (a + b, {}, tuple(terms))))
    lse = tuple((1.0, t) for t in range(T))
    rows["normalization"] = [(0.0, {}, lse, (1.0, {2 * T: -1.0}, ()))]
    return rows


def _loop_linearisation(inst, lam_log, margin=1e-9):
    """The separability repair rows built one at a time."""
    T = inst.periods
    log_xy = np.log(inst.xy)
    log_e = np.log(inst.expenditures)
    rows = []
    for t in range(T):
        for tau in range(T):
            if t == tau:
                continue
            const = log_xy[t, t] - log_xy[tau, t] + margin
            rows.append((const, {t: 1.0, tau: -1.0, 2 * T: -1.0}, ()))
            z_tau = lam_log[tau] + float(np.log(inst.pq[tau, t]))
            z_t = lam_log[t] + float(log_xy[t, t])
            r_hat = float(np.logaddexp(z_tau, z_t))
            w_tau = float(np.exp(z_tau - r_hat))
            w_t = float(np.exp(z_t - r_hat))
            const = log_e[t] - r_hat + w_tau * lam_log[tau] + w_t * lam_log[t] + margin
            coefs = {T + t: 1.0, T + tau: -1.0, tau: 1.0 - w_tau, t: -w_t, 2 * T: -1.0}
            rows.append((const, coefs, ()))
    return rows


def test_linearise_matches_loop_reference():
    inst = _instance(perturbed_nested(5030, 5, sigma=0.3, noise_seed=35))
    rng = np.random.default_rng(5)
    lam_log = np.log(rng.dirichlet(np.ones(inst.periods)))
    mu_log = rng.standard_normal(inst.periods)
    program, unpack = _linearise(inst, (lam_log, mu_log))
    assert program.name == "separability-repair-T5"
    assert_program_rows(program, _loop_linearisation(inst, lam_log))
    start = program.start_point()
    np.testing.assert_array_equal(start[:-1], np.concatenate([lam_log, mu_log]))
    (new_lam, new_mu), step = unpack(np.arange(program.n_variables, dtype=float))
    np.testing.assert_allclose(np.exp(new_lam).sum(), 1.0)
    np.testing.assert_array_equal(new_mu, np.arange(5, 10))
    assert step == np.max(np.abs(new_lam - lam_log))


class TestCheckSeparability:
    def test_single_period_trivially_separable(self):
        stats = MarketStatistics(prices=[[1.0, 2.0, 1.5]], quantities=[[1.0, 0.5, 2.0]])
        res = check_separability(partition(stats, [2]))
        assert res.status is Status.FEASIBLE
        np.testing.assert_allclose(res.lambdas, [1.0])
        np.testing.assert_allclose(res.mus, [1.0])

    def test_nested_cd_example(self):
        # two q-goods with inner shares (0.6, 0.4), two y-goods with inner
        # shares (0.6, 0.4), half the budget on each block, eight periods
        q_spec = CobbDouglasSpec(exponents=np.array([0.6, 0.4]), seed=100)
        y_spec = CobbDouglasSpec(exponents=np.array([0.6, 0.4]), seed=101)
        part = gen_nested_cd(q_spec, y_spec, (0.5, 0.5), periods=8, seed=102)
        res = check_separability(part)
        assert res.status is Status.FEASIBLE
        # optimum is None when the exact start verified and no program was solved
        assert res.decision.optimum is None or res.decision.optimum <= 1e-6
        inst = _instance(part)
        assert verify_separability_solution(inst, res.lambdas, res.mus)
        assert abs(res.lambdas.sum() - 1.0) < 1e-9
        assert res.mus.max() == pytest.approx(1.0)

    def test_barrier_fallback(self):
        # perturbed nested data: the exact start fails, so the program runs
        # and the certificate search finds verified multipliers
        part = make_nested(20, 4)
        shape = part.base.quantities.shape
        noise = np.exp(0.2 * np.random.default_rng(20).standard_normal(shape))
        stats = MarketStatistics(part.base.prices, part.base.quantities * noise)
        part = partition(stats, part.y_block)
        res = check_separability(part)
        assert res.status is Status.FEASIBLE
        assert res.decision.optimum is not None and res.decision.optimum <= 1e-6
        assert verify_separability_solution(_instance(part), res.lambdas, res.mus)

    def test_repair_rounds(self, monkeypatch):
        # neither the exact start nor the main program's point verifies; one
        # round of the convex-concave search repairs the multipliers
        part = perturbed_nested(5030, 5, sigma=0.3, noise_seed=35)
        names = []
        solve = convex.solve

        def counted(program, *args, **kwargs):
            names.append(program.name)
            return solve(program, *args, **kwargs)

        monkeypatch.setattr(convex, "solve", counted)
        res = check_separability(part)
        assert names == ["separability-T5", "separability-repair-T5"]
        assert res.status is Status.FEASIBLE
        assert res.decision.optimum is not None and res.decision.optimum <= 1e-6
        assert verify_separability_solution(_instance(part), res.lambdas, res.mus)

    def test_phase_one_stall_is_not_a_rejection(self):
        # rescaling one period's prices is an exact symmetry, so the truth
        # stays SEPARABLE; the main program's phase I stalls well inside the box
        part = perturbed_nested(5030, 5, sigma=0.3, noise_seed=35)
        prices = part.base.prices.copy()
        prices[0] *= 1e40
        stats = MarketStatistics(prices, part.base.quantities)
        res = check_separability(partition(stats, part.y_block))
        assert res.status is Status.UNDECIDED
        # the stalled phase-I point is no slack optimum, so none is reported
        assert res.decision.detail.startswith("phase I stalled")
        assert res.decision.optimum is None

    def test_y_cycle_inside_the_tolerance_band_is_undecided(self):
        # goods 0-1 are the q-block and goods 2-3 the y-block, whose 2-cycle
        # has log weight -5e-11: inside check_harp's band, so no rejection
        d = -2e-10
        stats = MarketStatistics(
            prices=[[1.0, 2.0, 1.0, 3.0], [2.0, 1.0, 1.0, 1.0]],
            quantities=[[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0 + d]],
        )
        part = partition(stats, [2, 3])
        y_res = check_harp(part.y_statistics())
        assert y_res.status is Status.UNDECIDED
        assert "within tolerance band" in y_res.decision.detail
        res = check_separability(part)
        assert res.status is Status.UNDECIDED
        assert res.decision.detail == (
            "phase I ended at violation 2.500e-11 inside the ambiguity band"
        )

    @pytest.mark.parametrize(
        "bound, status, detail",
        [
            (1e-5, Status.UNDECIDED, "slack optimum 2.000e-05 inside the ambiguity band"),
            (1e-4, Status.INFEASIBLE, "slack optimum certified >= 1.000e-04"),
        ],
    )
    def test_only_tol_reject_rejects(self, monkeypatch, bound, status, detail):
        # a main-solve bound above the solver's eps rejects only at tol_reject
        part = perturbed_nested(5030, 5, sigma=0.3, noise_seed=35)
        solve = convex.solve

        def bounded(program, *args, **kwargs):
            res = solve(program, *args, **kwargs)
            if "-repair-" in program.name:
                return res
            return dataclasses.replace(res, lower_bound=bound, objective=2.0 * bound)

        monkeypatch.setattr(convex, "solve", bounded)
        res = check_separability(part, tol_reject=1e-4)
        assert res.status is status
        assert res.decision.detail == detail

    @pytest.mark.parametrize("factor", [1e160, 1e200, 1e-200])
    def test_overflow_or_underflow_is_undecided(self, factor):
        # an INFEASIBLE instance whose cross expenditures overflow or underflow
        stats = rescaled_infeasible(factor)
        with np.errstate(all="ignore"):
            res = check_separability(partition(stats, [2]))
        assert res.status is Status.UNDECIDED

    def test_bad_y_block_not_separable(self):
        part = embed_bad_y_block(0, periods=4)
        res = check_separability(part)
        assert res.status is Status.INFEASIBLE
        assert res.violated_constraints

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_cd_batch(self, seed):
        part = make_nested(seed, periods=3 + 2 * seed, q_goods=3, y_goods=3)
        res = check_separability(part)
        assert res.status is Status.FEASIBLE

    def test_tol_validation(self):
        part = make_nested(0, periods=2, q_goods=2, y_goods=2)
        with pytest.raises(ValueError):
            check_separability(part, tol_accept=1e-3, tol_reject=1e-4)

    def test_scale_invariance_of_decision(self):
        part = make_nested(5, periods=4, q_goods=2, y_goods=2)
        base = check_separability(part).status
        prices = part.base.prices.copy()
        y_cols = list(part.y_block)
        prices[2, y_cols] *= 7.5
        scaled = partition(
            MarketStatistics(prices=prices, quantities=part.base.quantities),
            y_cols,
        )
        assert check_separability(scaled).status is base

    def test_scale_invariance_of_rejection(self):
        part = embed_bad_y_block(3, periods=3)
        prices = part.base.prices.copy()
        y_cols = list(part.y_block)
        prices[1, y_cols] *= 0.25
        scaled = partition(
            MarketStatistics(prices=prices, quantities=part.base.quantities),
            y_cols,
        )
        assert check_separability(scaled).status is Status.INFEASIBLE


class TestVerifySolution:
    def test_accepts_pipeline_output(self):
        part = make_nested(7, periods=5, q_goods=2, y_goods=3)
        res = check_separability(part)
        assert res.status is Status.FEASIBLE
        assert verify_separability_solution(_instance(part), res.lambdas, res.mus)

    def test_rejects_distorted_lambdas(self):
        part = make_nested(7, periods=5, q_goods=2, y_goods=3)
        res = check_separability(part)
        lam = res.lambdas.copy()
        lam[0] *= 3.0
        lam /= lam.sum()
        assert not verify_separability_solution(_instance(part), lam, res.mus)

    def test_rejects_nonpositive(self):
        part = make_nested(7, periods=3, q_goods=2, y_goods=2)
        inst = _instance(part)
        lam = np.full(3, 1.0 / 3.0)
        mu = np.array([1.0, -1.0, 1.0])
        assert not verify_separability_solution(inst, lam, mu)

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_rejects_overflowed_or_underflowed_cross(self, factor):
        # every cross expenditure becomes inf (or 0), where inf <= inf (0 <= 0) holds
        part = make_nested(7, periods=5, q_goods=2, y_goods=3)
        res = check_separability(part)
        scaled = MarketStatistics(
            prices=part.base.prices * factor, quantities=part.base.quantities * factor
        )
        with np.errstate(all="ignore"):
            inst = _instance(partition(scaled, part.y_block))
            assert not verify_separability_solution(inst, res.lambdas, res.mus)

    def test_single_period_tautology(self):
        stats = MarketStatistics(prices=[[1.0, 1.0]], quantities=[[1.0, 1.0]])
        inst = _instance(partition(stats, [1]))
        assert verify_separability_solution(inst, np.array([1.0]), np.array([1.0]))


class TestReconstruction:
    def test_subutility_single_piece(self):
        u1 = reconstruct_subutility(np.array([1.0]), np.array([[1.0, 2.0]]))
        assert u1(np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_subutility_homogeneity(self):
        part = make_nested(9, periods=4, q_goods=2, y_goods=2)
        res = check_separability(part)
        u1 = res.subutility
        y = np.array([0.7, 1.3])
        assert u1(3.0 * y) == pytest.approx(3.0 * u1(y), rel=1e-12)

    def test_subutility_consistency(self):
        part = make_nested(9, periods=4, q_goods=2, y_goods=2)
        res = check_separability(part)
        for t in range(4):
            own = float(part.y_prices[t] @ part.y_quantities[t])
            assert res.subutility(part.y_quantities[t]) == pytest.approx(
                res.lambdas[t] * own, rel=1e-9
            )

    def test_subutility_budget_facet_optimality(self):
        part = make_nested(10, periods=4, q_goods=2, y_goods=3)
        res = check_separability(part)
        rng = np.random.default_rng(0)
        for t in range(4):
            x_t = part.y_prices[t]
            budget = float(x_t @ part.y_quantities[t])
            best = res.subutility(part.y_quantities[t])
            for _ in range(100):
                direction = rng.uniform(0.05, 1.0, 3)
                y = direction * (budget / float(x_t @ direction))
                assert res.subutility(y) <= best * (1.0 + 1e-9)

    def test_macro_single_period(self):
        u0 = reconstruct_macro_utility(
            np.array([1.0]), np.array([1.0]), np.array([[1.0, 1.0]])
        )
        assert u0(np.array([1.0, 1.0]), 2.0) == pytest.approx(4.0)

    def test_macro_chain_identity(self):
        part = make_nested(11, periods=5, q_goods=3, y_goods=2)
        res = check_separability(part)
        inst = _instance(part)
        for t in range(5):
            z = res.subutility(part.y_quantities[t])
            value = res.macro(part.q_quantities[t], z)
            assert value == pytest.approx(
                res.mus[t] * inst.expenditures[t], rel=1e-9
            )

    def test_macro_homogeneity(self):
        part = make_nested(11, periods=3, q_goods=2, y_goods=2)
        res = check_separability(part)
        q = np.array([0.4, 1.1])
        z = 0.8
        c = 2.5
        assert res.macro(c * q, c * z) == pytest.approx(c * res.macro(q, z), rel=1e-12)

    def test_invalid_multipliers(self):
        with pytest.raises(InvalidMultipliersError):
            reconstruct_subutility(np.array([-1.0]), np.array([[1.0]]))
        with pytest.raises(InvalidMultipliersError):
            reconstruct_macro_utility(
                np.array([1.0, 1.0]), np.array([1.0]), np.array([[1.0]])
            )


class TestYoungTransform:
    def test_single_piece_by_hand(self):
        u = PiecewiseLinearUtility(weights=np.array([1.0]), rows=np.array([[1.0, 1.0]]))
        assert young_transform(u, np.array([1.0, 1.0])) == pytest.approx(1.0, rel=1e-9)

    def test_scaling(self):
        u = PiecewiseLinearUtility(
            weights=np.array([0.5, 1.5]), rows=np.array([[1.0, 2.0], [2.0, 0.5]])
        )
        w = np.array([1.0, 3.0])
        assert young_transform(u, 4.0 * w) == pytest.approx(
            4.0 * young_transform(u, w), rel=1e-9
        )

    def test_duality_identities(self):
        part = make_nested(13, periods=4, q_goods=2, y_goods=3)
        res = check_separability(part)
        assert res.status is Status.FEASIBLE
        u1 = res.subutility
        values = np.array([young_transform(u1, part.y_prices[t]) for t in range(4)])
        own = np.einsum("ti,ti->t", part.y_prices, part.y_quantities)
        u1_at_data = np.array([u1(part.y_quantities[t]) for t in range(4)])
        np.testing.assert_allclose(values * u1_at_data, own, rtol=1e-8)
        for tau in range(4):
            for t in range(4):
                cross = float(part.y_prices[tau] @ part.y_quantities[t])
                assert values[tau] * u1_at_data[t] <= cross * (1.0 + 1e-8)

    def test_positive_prices_required(self):
        u = PiecewiseLinearUtility(weights=np.array([1.0]), rows=np.array([[1.0]]))
        with pytest.raises(ValueError):
            young_transform(u, np.array([-1.0]))
