"""Two-phase interior-point solver for log-domain feasibility programs.

Phase I drives the maximum constraint violation negative by Newton descent
on a log-sum-exp smoothing of the max with an increasing sharpness schedule.
Phase II follows the standard logarithmic barrier path for the slack-sum
objective, which also yields a certified lower bound on the optimum through
the barrier duality gap.  INFEASIBLE is only reported with such a bound, or
when an exact negative cycle is found in the affine difference-constraint
subsystem, or when Phase I provably stalls above tolerance for its whole
budget; everything else ambiguous is UNDECIDED.

The solver is deterministic: no randomness, fixed schedules, fixed tie
breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ..harp import shortest_potentials
from ..model import Status
from .packed import PackedProgram
from .program import LogConvexProgram

_BOX_MARGIN = 1e-9
_BOUNDARY_DEMOTION = 1e-6


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve call.

    Attributes:
        status: FEASIBLE (objective and violation within eps_feas),
            INFEASIBLE (certified), or UNDECIDED.
        point: values of all program variables at the returned point.
        objective: sum of slack variables at the point.
        iterations: total Newton iterations spent (both phases).
        max_violation: largest constraint value g_j at the point.
        lower_bound: best certified lower bound on the optimum, if any.
        objective_trace: non-increasing incumbent objective after each
            accepted Phase-II step.
        message: diagnostic text.
    """

    status: Status
    point: NDArray[np.float64]
    objective: float
    iterations: int
    max_violation: float
    lower_bound: float | None
    objective_trace: tuple[float, ...]
    message: str


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, k: int = 1) -> bool:
        self.used += k
        return self.used <= self.limit


def _difference_cycle(packed: PackedProgram) -> list[int] | None:
    """Exact infeasibility witness from the pure difference-constraint rows.

    Rows of the form x_a - x_b + const <= 0 (no exponential terms) define a
    shortest-path system; a strictly negative cycle proves the whole program
    infeasible.  Returns the variable cycle or None.
    """
    n = packed.n
    w = np.full((n, n), np.inf)
    found = False
    exp_rows = set(packed.lse_rows.tolist()) | set(packed.res_rows.tolist())
    for local in range(packed.m):
        if local in exp_rows:
            continue
        row = packed.A[local]
        nz = np.flatnonzero(row)
        if nz.size != 2:
            continue
        ca, cb = row[nz[0]], row[nz[1]]
        if ca == 1.0 and cb == -1.0:
            a, bvar = int(nz[0]), int(nz[1])
        elif ca == -1.0 and cb == 1.0:
            a, bvar = int(nz[1]), int(nz[0])
        else:
            continue
        # x_a - x_b <= -b  => edge b -> a with weight -const
        weight = -packed.b[local]
        if weight < w[bvar, a]:
            w[bvar, a] = weight
            found = True
    if not found:
        return None
    _, cycle = shortest_potentials(w)
    if cycle is None:
        return None
    total = sum(w[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    return cycle if total < -1e-12 else None


class _Run:
    def __init__(self, program: LogConvexProgram, eps_feas: float, max_iter: int):
        self.program = program
        self.packed = PackedProgram(program)
        self.eps = eps_feas
        self.budget = _Budget(max_iter)
        self.lo = self.packed.lo
        self.hi = self.packed.hi
        self.c = self.packed.c
        self.n = self.packed.n
        self.kinds = program.kinds()
        self.trace: list[float] = []
        self.incumbent_obj = math.inf
        self.incumbent_x: NDArray[np.float64] | None = None
        self.lower_bound: float | None = None

    # -- generic pieces ------------------------------------------------------

    def _interior_clip(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        margin = _BOX_MARGIN * np.maximum(1.0, self.hi - self.lo)
        return np.clip(x, self.lo + margin, self.hi - margin)

    def _in_box(self, x) -> bool:
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def _box_terms(self, x):
        a = x - self.lo
        b = self.hi - x
        return a, b

    def _recover_domain(self, x: NDArray[np.float64]) -> NDArray[np.float64] | None:
        log_vars = np.array([k == "log" for k in self.kinds])
        slack_vars = ~log_vars
        for _ in range(120):
            cache = self.packed.eval(x)
            if cache.in_domain:
                return x
            x = x.copy()
            x[log_vars] -= 0.7
            x[slack_vars] = self.lo[slack_vars] + 0.25 * (
                x[slack_vars] - self.lo[slack_vars]
            )
            x = self._interior_clip(x)
        return None

    def _note_incumbent(self, x: NDArray[np.float64]) -> None:
        obj = float(self.c @ x)
        if obj < self.incumbent_obj:
            self.incumbent_obj = obj
            self.incumbent_x = x.copy()
        self.trace.append(min(obj, self.trace[-1]) if self.trace else obj)

    def _newton(self, x, merit, grad_hess, max_steps, tol_dec, on_accept=None):
        """Damped Newton descent; returns (x, converged)."""
        fx = merit(x)
        if not np.isfinite(fx):
            return x, False
        for _ in range(max_steps):
            if not self.budget.spend():
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
                return x, True  # no further progress possible
            if on_accept is not None:
                on_accept(x)
            if decrement / 2.0 <= tol_dec:
                return x, True
        return x, True

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
            hit_interior = [False]

            def on_accept(x_):
                if violation(x_) < 0.0:
                    hit_interior[0] = True

            x, _ = self._newton(
                x,
                merit_factory(rho),
                grad_hess_factory(rho),
                max_steps=40,
                tol_dec=1e-12,
                on_accept=on_accept,
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
        centered_gap = None
        for _ in range(60):
            x, _ = self._newton(
                x,
                merit_factory(t),
                grad_hess_factory(t),
                max_steps=60,
                tol_dec=1e-10,
                on_accept=self._note_incumbent,
            )
            self._note_incumbent(x)
            gap = m_total / t
            lb = float(self.c @ x) - 2.0 * gap
            if self.lower_bound is None or lb > self.lower_bound:
                self.lower_bound = lb
            centered_gap = gap
            if gap <= 0.5 * self.eps:
                break
            if self.budget.used >= self.budget.limit:
                break
            t *= 20.0
        return x, centered_gap

    # -- main ------------------------------------------------------------------

    def run(self) -> SolveResult:
        packed = self.packed
        for j, value in packed.const_rows:
            if value > self.eps:
                return self._result(
                    Status.INFEASIBLE,
                    self._interior_clip(self.program.start_point()),
                    message=f"constraint {self.program.constraints[j].label!r} is "
                    f"constant positive ({value:.3g})",
                )
        cycle = _difference_cycle(packed)
        if cycle is not None:
            names = [self.program.variable_names[i] for i in cycle]
            return self._result(
                Status.INFEASIBLE,
                self._interior_clip(self.program.start_point()),
                message="negative cycle in difference constraints: " + " -> ".join(names),
            )
        x = self._interior_clip(self.program.start_point())
        recovered = self._recover_domain(x)
        if recovered is None:
            return self._result(
                Status.UNDECIDED, x, message="no in-domain start point found"
            )
        x, v = self.phase_one(recovered)
        if v >= 0.0:
            exhausted = self.budget.used >= self.budget.limit
            # a stall against the box may be the box's doing, not the program's
            boxed = self._near_box_boundary(x)
            if v > 10.0 * self.eps and not exhausted and not boxed:
                return self._result(
                    Status.INFEASIBLE,
                    x,
                    message=f"phase I stalled at violation {v:.3e} for its full budget",
                )
            if exhausted:
                message = "iteration budget exhausted in phase I"
            elif boxed:
                message = f"phase I stalled at violation {v:.3e} at the localization box boundary"
            else:
                message = f"phase I ended at violation {v:.3e} inside the ambiguity band"
            return self._result(Status.UNDECIDED, x, message=message)
        self._note_incumbent(x)
        if not np.any(self.c):
            if self._near_box_boundary(x):
                return self._result(
                    Status.UNDECIDED,
                    x,
                    message="feasible point only found at the localization box boundary",
                )
            return self._result(Status.FEASIBLE, x, message="strictly feasible point found")
        x, _ = self.phase_two(x)
        x_best = self.incumbent_x if self.incumbent_x is not None else x
        if self.lower_bound is not None and self.lower_bound > 10.0 * self.eps:
            return self._result(
                Status.INFEASIBLE,
                x_best,
                message=f"certified objective lower bound {self.lower_bound:.3e} "
                f"exceeds 10*eps",
            )
        obj = float(self.c @ x_best)
        viol = packed.full_violations(x_best)
        max_viol = float(viol.max()) if viol.size else -math.inf
        if obj <= self.eps and max_viol <= self.eps:
            if self._near_box_boundary(x_best):
                return self._result(
                    Status.UNDECIDED,
                    x_best,
                    message="optimum at the localization box boundary",
                )
            return self._result(Status.FEASIBLE, x_best, message="slack objective at zero")
        if self.budget.used >= self.budget.limit:
            return self._result(
                Status.UNDECIDED, x_best, message="iteration budget exhausted"
            )
        return self._result(
            Status.UNDECIDED,
            x_best,
            message=f"objective {obj:.3e} between eps and certified-infeasible band",
        )

    def _near_box_boundary(self, x: NDArray[np.float64]) -> bool:
        thr = _BOUNDARY_DEMOTION * max(1.0, self.program.box_bound)
        for i, kind in enumerate(self.kinds):
            if kind == "log" and (x[i] - self.lo[i] < thr or self.hi[i] - x[i] < thr):
                return True
        return False

    def _result(self, status, x, message=""):
        viol = self.packed.full_violations(x)
        max_viol = float(viol.max()) if viol.size else -math.inf
        return SolveResult(
            status=status,
            point=x.copy(),
            objective=float(self.c @ x),
            iterations=self.budget.used,
            max_violation=max_viol,
            lower_bound=self.lower_bound,
            objective_trace=tuple(self.trace),
            message=message,
        )


def solve(
    program: LogConvexProgram, eps_feas: float = 1e-8, max_iter: int = 200_000
) -> SolveResult:
    """Solve the slack-minimization program to feasibility tolerance eps_feas.

    Args:
        program: structurally valid program.
        eps_feas: feasibility/objective tolerance in (0, 1e-3].
        max_iter: total Newton iteration budget; exhausting it yields
            UNDECIDED, never a definite answer.
    """
    if not 0.0 < eps_feas <= 1e-3:
        raise ValueError("eps_feas must lie in (0, 1e-3]")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    return _Run(program, eps_feas, max_iter).run()
