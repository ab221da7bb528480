"""Tests for the log-domain program representation and the barrier solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_aggregate, make_nested, perturbed_nested, reference_values
from phrp import collective, convex, separability
from phrp.collective import build_collective_program
from phrp.convex.packed import PackedProgram
from phrp.model import Status
from phrp.separability import SeparabilityInstance, build_separability_program

NO_TERMS = ((), (), ())


def _row(prog, const, coefs, label="c"):
    """Add the single affine row ``const + sum_i coefs[i] * x[i] <= 0``."""
    coef = np.zeros((1, prog.n_variables))
    for i, c in coefs.items():
        coef[0, i] = c
    prog.add_constraint(label, coef, [const])


def _program(n, **block):
    """``n`` log variables at 0 and one block of rows."""
    prog = convex.LogConvexProgram()
    for i in range(n):
        prog.add_log_variable(f"x{i}")
    prog.add_constraint("block", **block)
    return PackedProgram(prog)


def _lse_pair():
    """log(exp(x0) + exp(x1)) - log 2 <= 0."""
    lse = ([0, 0], [1.0, 1.0], [0, 1])
    return _program(2, coef=np.zeros((1, 0)), const=[-math.log(2.0)], lse=lse)


def _residual(weight):
    """0 <= log(1 - weight * exp(x0))."""
    res = ([[0.0]], [1.0], ([0], [weight], [0]))
    return _program(1, coef=np.zeros((1, 0)), const=[0.0], res=res)


class TestEvalConstraint:
    def test_affine(self):
        packed = _program(2, coef=[[1.0, -1.0]], const=[0.0])
        assert packed.eval(np.array([0.0, 1.0])).values[0] == pytest.approx(-1.0)

    def test_domain_boundary_is_inf(self):
        cache = _residual(1.0).eval(np.array([0.0]))
        assert cache.values[0] == math.inf
        assert not cache.in_domain

    def test_lse_symmetry(self):
        assert _lse_pair().eval(np.zeros(2)).values[0] == pytest.approx(0.0, abs=1e-15)


class TestGradient:
    def test_affine_constant_gradient(self):
        packed = _program(3, coef=[[2.0, 0.0, -1.0]], const=[1.5])
        np.testing.assert_allclose(packed.grad_rows(packed.eval(np.zeros(3))), [[2.0, 0.0, -1.0]])

    def test_lse_equal_weights(self):
        packed = _lse_pair()
        np.testing.assert_allclose(packed.grad_rows(packed.eval(np.zeros(2))), [[0.5, 0.5]])

    def test_domain_violation_raises(self):
        packed = _residual(2.0)
        with pytest.raises(FloatingPointError):
            packed.grad_rows(packed.eval(np.array([0.0])))


class TestStructureValidation:
    @staticmethod
    def _add(**block):
        prog = convex.LogConvexProgram()
        prog.add_log_variable("x")
        prog.add_log_variable("y")
        block = {"coef": [[1.0, 0.0]], "const": [0.0], **block}
        prog.add_constraint("block", **block)

    def test_valid_block_accepted(self):
        self._add(lse=([0], [2.0], [1]), res=([[0.0, 0.0]], [1.0], ([0], [0.5], [0])))

    def test_negative_weight_rejected(self):
        for weight in (-1.0, 0.0, math.inf):
            with pytest.raises(convex.ProgramStructureError):
                self._add(lse=([0], [weight], [1]))
            with pytest.raises(convex.ProgramStructureError):
                self._add(res=([[0.0, 0.0]], [1.0], ([0], [weight], [0])))

    def test_unknown_variable_rejected(self):
        with pytest.raises(convex.ProgramStructureError):
            self._add(coef=[[1.0, 0.0, 1.0]])
        with pytest.raises(convex.ProgramStructureError):
            self._add(lse=([0], [1.0], [3]))

    def test_non_finite_coefficient_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(convex.ProgramStructureError):
                self._add(coef=[[1.0, bad]])
            with pytest.raises(convex.ProgramStructureError):
                self._add(const=[bad])
            with pytest.raises(convex.ProgramStructureError):
                self._add(res=([[0.0, 0.0]], [bad], NO_TERMS))

    def test_constant_row_rejected(self):
        # a row that no variable enters, such as a tautology t == tau
        with pytest.raises(convex.ProgramStructureError):
            self._add(coef=[[1.0, 0.0], [0.0, 0.0]], const=[0.0, 1.0])
        with pytest.raises(convex.ProgramStructureError):
            self._add(coef=[[0.0, 0.0]], res=([[0.0, 0.0]], [1.0], NO_TERMS))

    def test_unsorted_term_rows_rejected(self):
        with pytest.raises(convex.ProgramStructureError):
            self._add(
                coef=[[1.0, 0.0], [0.0, 1.0]], const=[0.0, 0.0], lse=([1, 0], [1.0, 1.0], [0, 1])
            )


def _random_interior_point(prog, rng):
    """Start point jittered inside the box and the residual domains."""
    packed = PackedProgram(prog)
    x0 = prog.start_point()
    kinds = prog.kinds()
    for _ in range(60):
        x = x0.copy()
        for i, kind in enumerate(kinds):
            if kind == "log":
                x[i] += rng.uniform(-0.4, 0.4)
            else:
                lo, hi = packed.lo[i], packed.hi[i]
                x[i] = rng.uniform(lo + 0.05 * (hi - lo), lo + 0.6 * (hi - lo))
        if packed.eval(x).in_domain:
            return x
        x0[np.array(kinds) == "log"] -= 0.3
    raise AssertionError("no interior point found")


def _fd_gradient(packed, rows, x, h=1e-6):
    """Central differences of ``packed.eval`` in the given rows, one column per variable."""
    grad = np.zeros((len(rows), x.size))
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[:, i] = (packed.eval(xp).values[rows] - packed.eval(xm).values[rows]) / (2 * h)
    return grad


def _assert_gradient_rows(prog, x):
    packed = PackedProgram(prog)
    rows = np.arange(0, packed.m, max(1, packed.m // 6))
    analytic = packed.grad_rows(packed.eval(x))[rows]
    for a, fd in zip(analytic, _fd_gradient(packed, rows, x)):
        scale = max(1e-8, np.abs(a).max(), np.abs(fd).max())
        assert np.abs(a - fd).max() / scale < 1e-5


class TestGradientVsFiniteDifferences:
    @pytest.mark.parametrize("seed", range(4))
    def test_separability_family(self, seed):
        part = make_nested(seed, periods=3, q_goods=2, y_goods=2)
        prog = build_separability_program(SeparabilityInstance.from_partition(part))
        _assert_gradient_rows(prog, _random_interior_point(prog, np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", range(2))
    def test_collective_family(self, seed):
        agg, _ = make_aggregate(seed, periods=3, goods=2)
        prog = build_collective_program(agg, k=2)
        _assert_gradient_rows(prog, _random_interior_point(prog, np.random.default_rng(seed + 5)))


def _programs():
    """One program of each kind the package builds: both main programs and both repairs."""
    inst = SeparabilityInstance.from_partition(perturbed_nested(5030, 5, sigma=0.3, noise_seed=35))
    rng = np.random.default_rng(7)
    lam_log = np.log(rng.dirichlet(np.ones(inst.periods)))
    sep_repair, _ = separability._linearise(inst, (lam_log, rng.standard_normal(inst.periods)))
    agg, _ = make_aggregate(4, periods=4, goods=3)
    qtil = np.log(agg.quantities / 2) + 0.3 * rng.standard_normal((2,) + agg.quantities.shape)
    coll_repair, _ = collective._linearise(agg, 2, (qtil, rng.standard_normal((2, agg.periods))))
    return {
        "separability": build_separability_program(inst),
        "collective": build_collective_program(agg, k=2),
        "separability-repair": sep_repair,
        "collective-repair": coll_repair,
    }


class TestPackedEval:
    @pytest.mark.parametrize("kind", list(_programs()))
    def test_matches_row_by_row_reference(self, kind):
        prog = _programs()[kind]
        rng = np.random.default_rng(11)
        x = _random_interior_point(prog, rng)
        np.testing.assert_allclose(
            PackedProgram(prog).eval(x).values, reference_values(prog, x), rtol=1e-12
        )


class TestSolve:
    def test_empty_program(self):
        prog = convex.LogConvexProgram()
        prog.add_log_variable("x", start=0.25)
        res = convex.solve(prog)
        assert res.status is Status.FEASIBLE
        assert res.objective == 0.0
        np.testing.assert_allclose(res.point, [0.25])

    def test_forced_slack_is_reported_not_rejected(self):
        # the certified bound is far above eps, but judging it is the caller's
        prog = convex.LogConvexProgram()
        g = prog.add_slack_variable("gamma", cap=2.0, start=1.0)
        _row(prog, 0.5, {g: -1.0}, label="force")
        res = convex.solve(prog)
        assert res.status is Status.UNDECIDED
        assert res.objective == pytest.approx(0.5, abs=1e-6)
        assert res.lower_bound is not None and res.lower_bound > 1e-7

    def test_start_outside_the_domain_is_undecided(self):
        # 0 <= log(1 - 2 exp(x)) has no residual at the start x = 0
        prog = convex.LogConvexProgram()
        prog.add_log_variable("x", start=0.0)
        residual = ([[0.0]], [1.0], ([0], [2.0], [0]))
        prog.add_constraint("res", np.zeros((1, 0)), [0.0], res=residual)
        res = convex.solve(prog)
        assert res.status is Status.UNDECIDED
        assert res.message == "start point outside the domain"
        assert res.iterations == 0

    def test_reachable_zero_slack(self):
        prog = convex.LogConvexProgram()
        x = prog.add_log_variable("x", start=-1.0)
        s = prog.add_slack_variable("s", cap=1.0, start=0.5)
        _row(prog, 0.0, {x: 1.0, s: -1.0})
        res = convex.solve(prog)
        assert res.status is Status.FEASIBLE
        assert res.objective <= 1e-8
        assert res.max_violation <= 1e-8

    def test_determinism(self):
        def build():
            prog = convex.LogConvexProgram()
            x = prog.add_log_variable("x", start=0.7)
            y = prog.add_log_variable("y", start=-0.2)
            s = prog.add_slack_variable("s", cap=3.0, start=1.0)
            _row(prog, 0.3, {x: 1.0, y: -1.0, s: -1.0})
            prog.add_constraint(
                "lse", np.zeros((1, 0)), [-1.0], lse=([0, 0], [1.0, 1.0], [x, y])
            )
            return prog

        res1 = convex.solve(build())
        res2 = convex.solve(build())
        assert res1.status == res2.status
        assert res1.objective == res2.objective
        assert res1.iterations == res2.iterations
        np.testing.assert_array_equal(res1.point, res2.point)

    def test_monotone_objective_trace(self, feasible2):
        del feasible2
        part = make_nested(0, periods=4, q_goods=2, y_goods=2)
        prog = build_separability_program(SeparabilityInstance.from_partition(part))
        res = convex.solve(prog)
        trace = res.objective_trace
        assert len(trace) > 1
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_box_respected(self):
        part = make_nested(1, periods=3, q_goods=2, y_goods=2)
        prog = build_separability_program(SeparabilityInstance.from_partition(part))
        res = convex.solve(prog)
        lo, hi = prog.bounds()
        assert np.all(res.point >= lo - 1e-12)
        assert np.all(res.point <= hi + 1e-12)

    def test_boundary_demotion(self):
        prog = convex.LogConvexProgram(box_bound=30.0)
        x = prog.add_log_variable("x", start=0.0)
        # feasible only within 1e-8 of the box edge
        _row(prog, 30.0 - 1e-8, {x: -1.0})
        res = convex.solve(prog)
        assert res.status is Status.UNDECIDED
        assert "boundary" in res.message

    def test_budget_exhaustion_is_undecided(self):
        part = make_nested(2, periods=4, q_goods=2, y_goods=2)
        prog = build_separability_program(SeparabilityInstance.from_partition(part))
        res = convex.solve(prog, max_iter=3)
        assert res.status is Status.UNDECIDED

    def test_feasible_soundness_reevaluation(self):
        # program built from exactly-separable data reaches zero slack
        part = make_nested(3, periods=5, q_goods=2, y_goods=2)
        prog = build_separability_program(SeparabilityInstance.from_partition(part))
        res = convex.solve(prog)
        assert res.status is Status.FEASIBLE
        assert reference_values(prog, res.point).max() <= 1e-8
        assert res.objective <= 1e-8

    def test_stall_at_the_box_is_undecided(self):
        prog = convex.LogConvexProgram(box_bound=30.0)
        x = prog.add_log_variable("x", start=0.0)
        _row(prog, 40.0, {x: -1.0})  # x >= 40, outside the box
        res = convex.solve(prog)
        assert res.status is Status.UNDECIDED
        assert "box boundary" in res.message

    def test_eps_validation(self):
        prog = convex.LogConvexProgram()
        prog.add_log_variable("x")
        with pytest.raises(ValueError):
            convex.solve(prog, eps_feas=0.5)


class TestLinearisedProgram:
    def test_rows_slack_and_start(self):
        coef = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.5, -2.0, -1.0]])
        const = np.array([0.25, -1.0, 0.0])
        terms = (np.array([1, 1, 2]), np.array([2.0, 3.0, 1.5]), np.array([0, 1, 1]))
        start = np.array([40.0, -0.5])
        prog = convex.linearised_program("toy-repair", start, 0.2, coef, const, terms)
        assert prog.name == "toy-repair"
        assert prog.slack_indices == (2,)
        u_start = 0.2 * 1.05 + 1e-6
        np.testing.assert_array_equal(prog.start_point(), [29.0, -0.5, u_start])
        assert prog.bounds()[1][2] == 10.0 * u_start
        point = np.array([0.3, -0.7, 0.1])
        expected = coef @ point + const
        expected[1] += np.log(2.0 * np.exp(0.3) + 3.0 * np.exp(-0.7))
        expected[2] += np.log(1.5 * np.exp(-0.7))
        np.testing.assert_allclose(reference_values(prog, point), expected, rtol=1e-14)

    def test_no_terms(self):
        prog = convex.linearised_program(
            "toy-repair", np.zeros(1), -1.0, np.array([[1.0, -1.0]]), np.array([0.5])
        )
        assert all(block.lse[0].size == 0 for block in prog.blocks)
        assert prog.start_point()[1] == 1e-6  # a negative violation seeds u at 1e-6


def _toy_ccp(levels, accepted=(), steps=None, rounds=10, step_tol=1e-6):
    """Run ``convex.ccp`` over toy starts named by the keys of ``levels``.

    A state is (start, r) after r repair solves from that start.  The repair
    program is u >= levels[start][r], so that level is its slack optimum;
    the step to the next state is ``steps[(start, r)]``, else 1.  A state is
    accepted when it is in ``accepted``.  Returns the result and every state
    that was tested, in order.
    """
    steps = steps or {}
    tested = []

    def accept(state):
        tested.append(state)
        return state if state in accepted else None

    def linearise(state):
        name, r = state
        level = levels[name][r]
        program = convex.linearised_program(
            "toy-repair", np.zeros(1), level, np.array([[0.0, -1.0]]), np.array([level])
        )

        def unpack(point):
            return (name, r + 1), steps.get(state, 1.0)

        return program, unpack

    found = convex.ccp(
        [(name, 0) for name in levels],
        accept,
        linearise,
        rounds=rounds,
        max_iter=1_000,
        step_tol=step_tol,
    )
    return found, tested


IMPROVING = [0.5 / (r + 1) for r in range(10)]
STAGNANT = [0.5] * 10


class TestCcp:
    def test_first_accepted_start_wins(self):
        found, tested = _toy_ccp(
            {"a": IMPROVING, "b": IMPROVING, "c": IMPROVING}, accepted={("b", 2), ("c", 0)}
        )
        assert found == ("b", 2)
        assert [s for s in tested if s[0] == "a"] == [("a", r) for r in range(11)]
        assert tested[-3:] == [("b", 0), ("b", 1), ("b", 2)]
        assert ("c", 0) not in tested

    def test_stagnant_start_dropped_after_three_rounds(self):
        # the first solve sets the level, the next three do not lower it
        found, tested = _toy_ccp({"a": STAGNANT, "b": IMPROVING}, accepted={("b", 1)})
        assert found == ("b", 1)
        assert tested[:5] == [("a", r) for r in range(5)]
        assert tested[5:] == [("b", 0), ("b", 1)]

    def test_short_step_drops_start(self):
        found, tested = _toy_ccp({"a": IMPROVING}, steps={("a", 1): 1e-7})
        assert found is None
        assert tested == [("a", 0), ("a", 1), ("a", 2)]

    def test_accept_tried_after_round_budget(self):
        found, tested = _toy_ccp({"a": IMPROVING}, accepted={("a", 3)}, rounds=3)
        assert found == ("a", 3)
        assert tested == [("a", 0), ("a", 1), ("a", 2), ("a", 3)]

    def test_none_when_every_start_fails(self):
        found, tested = _toy_ccp({"a": STAGNANT, "b": IMPROVING}, rounds=6)
        assert found is None
        assert tested == [("a", r) for r in range(5)] + [("b", r) for r in range(7)]

    def test_solves_through_the_package_attribute(self, monkeypatch):
        # the benchmark's tracer counts repair solves by wrapping convex.solve
        names = []
        solve = convex.solve

        def counted(program, *args, **kwargs):
            names.append(program.name)
            return solve(program, *args, **kwargs)

        monkeypatch.setattr(convex, "solve", counted)
        _toy_ccp({"a": IMPROVING}, rounds=4)
        assert names == ["toy-repair"] * 4
