"""Two-phase interior-point solver for log-domain feasibility programs.

Phase I drives the maximum constraint violation negative by Newton descent
on a log-sum-exp smoothing of the max with an increasing sharpness schedule.
Phase II follows the standard logarithmic barrier path for the slack-sum
objective; at each centred point of that path the barrier duality gap
yields a certified lower bound on the least objective.  The solver judges
nothing: it returns the best point, its objective and the bound, and the
caller decides what they mean for its program.  When Phase I stalls above
tolerance the solver says why, and there is no least objective to bound: a
stall of the smoothed descent certifies nothing about the program.

The solver is deterministic: no randomness, fixed schedules, fixed tie
breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .packed import PackedProgram
from .program import LogConvexProgram

_BOX_MARGIN = 1e-9


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve call, for the caller to judge.

    Attributes:
        point: values of all program variables: the best strictly feasible
            point found, or where Phase I stopped when ``stalled`` is set.
        objective: sum of slack variables at the point.
        iterations: total Newton iterations spent (both phases).
        lower_bound: best lower bound on the least objective certified by the
            duality gap at a centred barrier point, or None.
        stalled: why Phase I did not reach the interior, or None when it did.
    """

    point: NDArray[np.float64]
    objective: float
    iterations: int
    lower_bound: float | None
    stalled: str | None


class _Run:
    def __init__(self, program: LogConvexProgram, eps_feas: float, max_iter: int):
        self.program = program
        self.packed = PackedProgram(program)
        self.eps = eps_feas
        self.max_iter = max_iter
        self.used = 0
        self.lo = self.packed.lo
        self.hi = self.packed.hi
        self.c = self.packed.c
        self.n = self.packed.n
        self.incumbent_obj = math.inf
        self.incumbent_x: NDArray[np.float64] | None = None
        self.lower_bound: float | None = None

    # -- generic pieces ------------------------------------------------------

    def _interior_clip(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        margin = _BOX_MARGIN * (self.hi - self.lo)  # strictly inside at any range
        return np.clip(x, self.lo + margin, self.hi - margin)

    def _in_box(self, x) -> bool:
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def _box_terms(self, x):
        a = x - self.lo
        b = self.hi - x
        return a, b

    def _note_incumbent(self, x: NDArray[np.float64]) -> None:
        obj = float(self.c @ x)
        if obj < self.incumbent_obj:
            self.incumbent_obj = obj
            self.incumbent_x = x.copy()

    def _newton(self, x, merit, grad_hess, max_steps, tol_dec, on_accept=None):
        """Damped Newton descent; returns (x, centred), where centred means
        that the last step's Newton decrement passed ``tol_dec``."""
        fx = merit(x)
        if not np.isfinite(fx):
            return x, False
        for _ in range(max_steps):
            self.used += 1
            if self.used > self.max_iter:
                return x, False
            g, H = grad_hess(x)
            ridge = 1e-12 * (1.0 + abs(float(np.trace(H))) / max(1, self.n))
            dx = None
            for attempt in range(3):
                try:
                    dx = np.linalg.solve(H + ridge * np.eye(self.n), -g)
                except np.linalg.LinAlgError:
                    dx = None
                if dx is not None and np.all(np.isfinite(dx)):
                    break
                ridge *= 1e4
            if dx is None or not np.all(np.isfinite(dx)):
                dx = -g
            dirder = float(g @ dx)
            if dirder >= 0.0:
                dx = -g
                dirder = float(g @ dx)
                if dirder >= 0.0:
                    return x, True
            decrement = -dirder
            alpha = 1.0
            accepted = False
            for _ in range(60):
                xn = x + alpha * dx
                fn = merit(xn)
                if np.isfinite(fn) and fn <= fx + 1e-4 * alpha * dirder:
                    x, fx = xn, fn
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                return x, False  # no further progress possible
            if on_accept is not None:
                on_accept(x)
            if decrement / 2.0 <= tol_dec:
                return x, True
        return x, False

    # -- phase I ---------------------------------------------------------------

    def phase_one(self, x: NDArray[np.float64]):
        """Returns (x, max_violation) with max_violation < 0 on success."""
        packed = self.packed
        if packed.m == 0:
            return x, -math.inf

        def violation(x_):
            return float(np.max(packed.eval(x_).values))

        v = violation(x)
        if v < 0.0:
            return x, v
        eta = 1e-8

        def merit_factory(rho):
            def merit(x_):
                if not self._in_box(x_):
                    return math.inf
                vals = packed.eval(x_).values
                if not np.all(np.isfinite(vals)):
                    return math.inf
                z = rho * vals
                mx = float(z.max())
                smooth = (mx + math.log(np.exp(z - mx).sum())) / rho
                a, b = self._box_terms(x_)
                return smooth - eta * float(np.log(a).sum() + np.log(b).sum())

            return merit

        def grad_hess_factory(rho):
            def grad_hess(x_):
                cache = packed.eval(x_)
                z = rho * cache.values
                mx = float(z.max())
                u = np.exp(z - mx)
                u /= u.sum()
                G = packed.grad_rows(cache)
                grad = G.T @ u
                H = packed.hessian_weighted(cache, u)
                Gu = G * np.sqrt(u)[:, None]
                H += rho * (Gu.T @ Gu - np.outer(grad, grad))
                a, b = self._box_terms(x_)
                grad += eta * (-1.0 / a + 1.0 / b)
                H[np.diag_indices_from(H)] += eta * (1.0 / a**2 + 1.0 / b**2)
                return grad, H

            return grad_hess

        best_v = v
        stalled = 0
        rho = 1.0
        while rho <= 4.1e9:
            x, _ = self._newton(
                x, merit_factory(rho), grad_hess_factory(rho), max_steps=40, tol_dec=1e-12
            )
            v = violation(x)
            if v < 0.0:
                return x, v
            if best_v - v < 1e-12 * max(1.0, abs(best_v)):
                stalled += 1
            else:
                stalled = 0
            best_v = min(best_v, v)
            if stalled >= 3:
                break
            rho *= 8.0
        return x, best_v

    # -- phase II --------------------------------------------------------------

    def phase_two(self, x: NDArray[np.float64]):
        packed = self.packed
        m_total = packed.m + 2 * self.n

        def merit_factory(t):
            def merit(x_):
                if not self._in_box(x_):
                    return math.inf
                vals = packed.eval(x_).values
                if vals.size and (not np.all(np.isfinite(vals)) or vals.max() >= 0.0):
                    return math.inf
                a, b = self._box_terms(x_)
                phi = -float(np.log(a).sum() + np.log(b).sum())
                if vals.size:
                    phi -= float(np.log(-vals).sum())
                return t * float(self.c @ x_) + phi

            return merit

        def grad_hess_factory(t):
            def grad_hess(x_):
                cache = packed.eval(x_)
                vals = cache.values
                a, b = self._box_terms(x_)
                grad = t * self.c + (-1.0 / a + 1.0 / b)
                Hdiag = 1.0 / a**2 + 1.0 / b**2
                H = np.diag(Hdiag)
                if vals.size:
                    s = -1.0 / vals  # positive
                    G = packed.grad_rows(cache)
                    grad += G.T @ s
                    Gs = G * s[:, None]
                    H += Gs.T @ Gs
                    H += packed.hessian_weighted(cache, s)
                return grad, H

            return grad_hess

        t = 1.0
        for _ in range(60):
            x, centred = self._newton(
                x,
                merit_factory(t),
                grad_hess_factory(t),
                max_steps=60,
                tol_dec=1e-10,
                on_accept=self._note_incumbent,
            )
            self._note_incumbent(x)
            gap = m_total / t
            if centred:  # the gap bounds the minimum only near the central path
                lb = float(self.c @ x) - 2.0 * gap
                if self.lower_bound is None or lb > self.lower_bound:
                    self.lower_bound = lb
            if gap <= 0.5 * self.eps:
                break
            if self.used >= self.max_iter:
                break
            t *= 20.0

    # -- main ------------------------------------------------------------------

    def run(self) -> SolveResult:
        x = self._interior_clip(self.program.start_point())
        if not self.packed.eval(x).in_domain:
            return self._result(x, "start point outside the domain")
        x, v = self.phase_one(x)
        if v >= 0.0:
            # a stall certifies nothing: descent on the smoothed max can stop
            # short of a feasible point that exists, or be stopped by the box
            if self.used >= self.max_iter:
                return self._result(x, "iteration budget exhausted in phase I")
            if v > 10.0 * self.eps:
                return self._result(x, f"phase I stalled at violation {v:.3e}")
            return self._result(x, f"phase I ended at violation {v:.3e} inside the ambiguity band")
        self._note_incumbent(x)
        if np.any(self.c):
            self.phase_two(x)
        return self._result(self.incumbent_x)

    def _result(self, x, stalled=None):
        return SolveResult(
            point=x.copy(),
            objective=float(self.c @ x),
            iterations=self.used,
            lower_bound=self.lower_bound,
            stalled=stalled,
        )


def solve(
    program: LogConvexProgram, eps_feas: float = 1e-8, max_iter: int = 200_000
) -> SolveResult:
    """Minimize the slack sum of the program; Phase II stops once the
    barrier duality gap is below eps_feas / 2.

    The result is reported, not judged: the caller decides what its
    objective and certified ``lower_bound`` mean for the program.

    Args:
        program: structurally valid program.
        eps_feas: feasibility/objective tolerance in (0, 1e-3].
        max_iter: total Newton iteration budget; an exhausted budget ends
            the solve with the best point so far.
    """
    if not 0.0 < eps_feas <= 1e-3:
        raise ValueError("eps_feas must lie in (0, 1e-3]")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    return _Run(program, eps_feas, max_iter).run()
