"""Complete PH-separability analysis of a goods partition.

A partition (q-goods, y-goods) is completely PH-separable when the data is
rationalized by a PH macro utility of the q-goods and a scalar PH sub-index
of the y-goods.  This holds iff positive multipliers (lam, mu) satisfy

    (a)  lam_t (x^t.y^t) <= lam_tau (x^tau.y^t)
    (b)  mu_t lam_tau E^t <= mu_tau (lam_tau (p^tau.q^t) + lam_t (x^t.y^t))

for all t, tau, with sum_t lam_t = 1, where E^t is total expenditure.  For
fixed multipliers ``lam``, system (b) is a difference-constraint system in
log(mu), solved exactly by shortest paths.  The decision pipeline combines
four mechanisms:

  * exact necessary checks (the y-block and the full data must each pass the
    homogeneous rationalizability test);
  * an exact start: ``lam`` = the y-block certificate, which satisfies (a) by
    construction, with the shortest-path mu; when the pair verifies, the
    verdict is SEPARABLE and no program is built;
  * otherwise the log-domain slack-minimization program built from (a)-(b),
    which rejects when its optimum is certified to be at least tol_reject;
  * and a verified-certificate search, which improves ``lam`` by the
    convex-concave procedure of :func:`phrp.convex.ccp` (inner
    linearizations of (b)), resolving mu exactly at every iterate.

Acceptance always re-validates (a)-(b) directly, so a SEPARABLE verdict never
rests on solver status alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import linprog

from . import convex
from .harp import PiecewiseLinearUtility, check_harp, shortest_potentials
from .model import Decision, PartitionedStatistics, Status


class InvalidMultipliersError(Exception):
    """Supplied multipliers are not a valid solution of the system."""


@dataclass(frozen=True)
class SeparabilityInstance:
    """A partition together with its cached inner products.

    Attributes:
        part: the goods partition.
        xy: (T, T) matrix xy[tau, t] = x^tau . y^t (y-block cross expenditures).
        pq: (T, T) matrix pq[tau, t] = p^tau . q^t (q-block cross expenditures).
        expenditures: E^t = pq[t, t] + xy[t, t].
    """

    part: PartitionedStatistics
    xy: NDArray[np.float64]
    pq: NDArray[np.float64]
    expenditures: NDArray[np.float64]

    @classmethod
    def from_partition(cls, part: PartitionedStatistics) -> "SeparabilityInstance":
        xy = part.y_prices @ part.y_quantities.T
        pq = part.q_prices @ part.q_quantities.T
        e = np.diag(pq) + np.diag(xy)
        for arr in (xy, pq, e):
            arr.setflags(write=False)
        return cls(part=part, xy=xy, pq=pq, expenditures=e)

    @property
    def periods(self) -> int:
        return self.xy.shape[0]

    @property
    def finite_positive(self) -> bool:
        """Every cross expenditure is finite and strictly positive (no over/underflow)."""
        return all(0.0 < a.min() <= a.max() < np.inf for a in (self.xy, self.pq))


@dataclass(frozen=True)
class MacroUtility:
    """PH macro utility u0(q, z) = min_t mu_t (p^t . q + z / lam_t).

    Concave, jointly PH of degree 1 in (q, z), strictly increasing in the
    composite argument z.
    """

    mus: NDArray[np.float64]
    q_prices: NDArray[np.float64]
    inv_lambdas: NDArray[np.float64]

    def __call__(self, q, z: float) -> float:
        q = np.asarray(q, dtype=np.float64)
        values = self.mus * (self.q_prices @ q + z * self.inv_lambdas)
        return float(values.min())

    @property
    def coefficients(self) -> tuple[tuple[float, NDArray[np.float64], float], ...]:
        """Triples (mu_t, price row, 1/lam_t) defining the min-form."""
        return tuple(
            (float(m), row, float(il))
            for m, row, il in zip(self.mus, self.q_prices, self.inv_lambdas)
        )


@dataclass(frozen=True)
class SeparabilityResult:
    """Decision plus multipliers and reconstructed utilities when separable."""

    decision: Decision
    lambdas: NDArray[np.float64] | None = None
    mus: NDArray[np.float64] | None = None
    subutility: PiecewiseLinearUtility | None = None
    macro: MacroUtility | None = None
    violated_constraints: tuple[str, ...] = ()

    @property
    def status(self) -> Status:
        return self.decision.status


def build_separability_program(inst: SeparabilityInstance) -> convex.LogConvexProgram:
    """Slack-minimization program deciding complete PH-separability.

    Variables: log multipliers lam_1..lam_T and mu_1..mu_T plus one slack.
    The rows are (a) in logs for every ordered pair t != tau, then (b) for
    every pair (t, tau), both row-major.  The normalization sum_t exp(lam_t)
    = 1 is relaxed to <= 1 with the slack absorbing the gap, and exp(lam_i)
    inside constraint (b) is replaced by 1 - sum_{j != i} exp(lam_j), which
    keeps the right-hand side concave.
    """
    T = inst.periods
    prog = convex.LogConvexProgram(name=f"separability-T{T}")
    for t in range(T):
        prog.add_log_variable(f"lam[{t}]", start=-np.log(2.0 * T))
    for t in range(T):
        prog.add_log_variable(f"mu[{t}]", start=0.0)
    gamma = prog.add_slack_variable("gamma", cap=1.0, start=0.25)
    log_xy = np.log(inst.xy)

    # sub[t, tau]: lam_t - lam_tau + log xy[t, t] - log xy[tau, t] <= 0
    t, tau = np.nonzero(~np.eye(T, dtype=bool))
    sub = np.zeros((t.size, 2 * T))
    sub[np.arange(t.size), t] = 1.0
    sub[np.arange(t.size), tau] = -1.0
    prog.add_constraint("sub", sub, log_xy[t, t] - log_xy[tau, t])

    # macro[t, tau]: mu_t + lam_tau - mu_tau + log E^t <= log(a + b - sum_i d_i exp(lam_i)),
    # a = pq[tau, t] and b = xy[t, t], where d_i takes a unless i == tau and b unless i == t
    t, tau = np.indices((T, T)).reshape(2, -1)
    rows = np.arange(T * T)
    macro = np.zeros((T * T, 2 * T))
    macro[rows, T + t] += 1.0
    macro[rows, T + tau] -= 1.0
    macro[rows, tau] += 1.0
    a = inst.pq[tau, t]
    b = inst.xy[t, t]
    i = np.arange(T)
    d = np.where(i != tau[:, None], a[:, None], 0.0) + np.where(i != t[:, None], b[:, None], 0.0)
    row, var = np.nonzero(d > 0.0)
    residual = (np.zeros((T * T, 0)), a + b, (row, d[row, var], var))
    prog.add_constraint("macro", macro, np.log(inst.expenditures)[t], res=residual)

    # normalization: log(sum_t exp(lam_t)) <= log(1 - gamma)
    budget = np.zeros((1, gamma + 1))
    budget[0, gamma] = -1.0
    prog.add_constraint(
        "normalization",
        np.zeros((1, 0)),
        np.zeros(1),
        lse=(np.zeros(T, dtype=int), np.ones(T), np.arange(T)),
        res=(budget, np.ones(1), ((), (), ())),
    )
    return prog


def verify_separability_solution(
    inst: SeparabilityInstance,
    lambdas: NDArray[np.float64],
    mus: NDArray[np.float64],
    tol: float = 1e-8,
) -> bool:
    """Direct check of (a)-(b) at relative tolerance tol.

    Callers should renormalize lambdas to sum 1 first; both families of
    inequalities are invariant to a common rescaling of lam or of mu, so the
    normalization itself is not rechecked here.  Cross expenditures that
    overflowed to inf or underflowed to 0 fail: ``inf <= inf`` and ``0 <= 0``
    would otherwise pass.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    mu = np.asarray(mus, dtype=np.float64)
    T = inst.periods
    if lam.shape != (T,) or mu.shape != (T,) or not inst.finite_positive:
        return False
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(mu))):
        return False
    if np.any(lam <= 0.0) or np.any(mu <= 0.0):
        return False
    own_y = lam * np.diag(inst.xy)
    cheapest_y = (lam[:, None] * inst.xy).min(axis=0)
    if not np.all(own_y <= cheapest_y * (1.0 + tol)):
        return False
    lhs = np.outer(lam, mu * inst.expenditures)  # [tau, t]
    rhs = mu[:, None] * (lam[:, None] * inst.pq + own_y[None, :])
    return bool(np.all(lhs <= rhs * (1.0 + tol)))


def _mu_log_weights(inst: SeparabilityInstance, lam: NDArray[np.float64]):
    """Difference-constraint weights for log(mu): w[tau, t] bounds mu_t - mu_tau."""
    log_lam = np.log(lam)
    mix = lam[:, None] * inst.pq + (lam * np.diag(inst.xy))[None, :]
    w = np.log(mix) - log_lam[:, None] - np.log(inst.expenditures)[None, :]
    np.fill_diagonal(w, 0.0)  # exact zero self-loops; the log form can leave -1e-16
    return w


def _resolve_mus(
    inst: SeparabilityInstance, lam: NDArray[np.float64]
) -> NDArray[np.float64] | None:
    """Exact mu recovery for fixed lam via shortest-path potentials."""
    labels, _ = shortest_potentials(_mu_log_weights(inst, lam))
    if labels is None:
        return None
    return np.exp(labels - labels.max())


def _resolve_and_verify(
    inst: SeparabilityInstance, lam: NDArray[np.float64], tol: float
) -> tuple[NDArray[np.float64] | None, bool]:
    """The exact mu for fixed lam, and whether (lam, mu) passes verification at tol."""
    mus = _resolve_mus(inst, lam)
    return mus, mus is not None and verify_separability_solution(inst, lam, mus, tol)


def _normalized_log(lam_log: NDArray[np.float64]) -> NDArray[np.float64]:
    shift = lam_log.max()
    return lam_log - (shift + np.log(np.exp(lam_log - shift).sum()))


def _linearise(inst: SeparabilityInstance, state, margin: float = 1e-9):
    """The repair program of the multiplier search at (log lam, log mu).

    Its variables are lam (T), mu (T) and the slack u.  For every ordered
    pair t != tau, row-major, the row sub[t, tau], which is (a) in logs, is
    followed by macro[t, tau], which is (b) with the concave
    log(lam_tau pq[tau, t] + lam_t xy[t, t]) replaced by its tangent.
    """
    lam_log, mu_log = state
    T = inst.periods
    # the largest log-violation of (a)-(b) at the point seeds the slack
    lam = np.exp(_normalized_log(lam_log))
    mu = np.exp(mu_log - mu_log.max())
    v1 = np.log(lam * np.diag(inst.xy)) - np.log((lam[:, None] * inst.xy).min(axis=0))
    lhs = np.outer(lam, mu * inst.expenditures)
    rhs = mu[:, None] * (lam[:, None] * inst.pq + (lam * np.diag(inst.xy))[None, :])
    v2 = np.log(lhs) - np.log(rhs)
    violation = float(max(v1.max(), v2.max()))

    t, tau = np.nonzero(~np.eye(T, dtype=bool))
    pair = np.arange(t.size)
    log_xy = np.log(inst.xy)
    z_tau = lam_log[tau] + np.log(inst.pq[tau, t])
    z_t = lam_log[t] + log_xy[t, t]
    r_hat = np.logaddexp(z_tau, z_t)
    w_tau = np.exp(z_tau - r_hat)
    w_t = np.exp(z_t - r_hat)
    coef = np.zeros((2 * t.size, 2 * T + 1))
    sub, macro = coef[0::2], coef[1::2]
    sub[pair, t] = 1.0
    sub[pair, tau] = -1.0
    macro[pair, T + t] = 1.0
    macro[pair, T + tau] = -1.0
    macro[pair, tau] = 1.0 - w_tau
    macro[pair, t] = -w_t
    coef[:, -1] = -1.0
    const = np.empty(2 * t.size)
    const[0::2] = log_xy[t, t] - log_xy[tau, t] + margin
    const[1::2] = (
        np.log(inst.expenditures)[t] - r_hat + w_tau * lam_log[tau] + w_t * lam_log[t] + margin
    )
    start = np.concatenate([lam_log, mu_log])
    program = convex.linearised_program(
        f"separability-repair-T{T}", start, violation, coef, const
    )

    def unpack(point):
        new_lam = _normalized_log(point[:T])
        return (new_lam, point[T : 2 * T]), float(np.max(np.abs(new_lam - lam_log)))

    return program, unpack


def _verified_multipliers(inst: SeparabilityInstance, lam_starts):
    """Verified (lam, mu) from the convex-concave procedure, or None.

    A state is (log lam normalized to sum 1, log mu).  Each acceptance test
    resolves mu exactly for the state's lam; the first linearization of a
    start takes its mu from those labels (zeros when there are none).
    """
    exact = [None]  # the mu resolved by the latest acceptance test

    def accept(state):
        lam = np.exp(state[0])
        lam = lam / lam.sum()
        mus, verified = _resolve_and_verify(inst, lam, 1e-8)
        exact[0] = mus
        return (lam, mus) if verified else None

    def linearise(state):
        lam_log, mu_log = state
        if mu_log is None:
            mu_log = np.zeros(inst.periods) if exact[0] is None else np.log(exact[0])
        return _linearise(inst, (lam_log, mu_log))

    starts = ((_normalized_log(np.asarray(s, dtype=np.float64)), None) for s in lam_starts)
    return convex.ccp(starts, accept, linearise, rounds=40, max_iter=20_000, step_tol=1e-11)


def _separable(part, lam, mus, optimum, detail) -> SeparabilityResult:
    return SeparabilityResult(
        decision=Decision(Status.FEASIBLE, optimum=optimum, detail=detail),
        lambdas=lam,
        mus=mus,
        subutility=reconstruct_subutility(lam, part.y_prices),
        macro=reconstruct_macro_utility(mus, lam, part.q_prices),
    )


def check_separability(
    part: PartitionedStatistics,
    tol_accept: float = 1e-6,
    tol_reject: float = 1e-4,
) -> SeparabilityResult:
    """Decide complete PH-separability of the partition.

    SEPARABLE requires multipliers that pass direct verification at 1e-8.
    They come from the exact start (the y-block certificate with the
    shortest-path mu; ``optimum`` is then None, as no program is solved) or
    else from the certificate search after a slack optimum <= tol_accept.
    NOT_SEPARABLE requires an exact necessary check to fail or, the only
    rejection by the program, a certified lower bound on its slack optimum
    of at least tol_reject.  Anything in between, and data whose cross
    expenditures overflow or underflow, is UNDECIDED.
    """
    if not 0.0 < tol_accept < tol_reject:
        raise ValueError("need 0 < tol_accept < tol_reject")
    inst = SeparabilityInstance.from_partition(part)
    T = inst.periods
    if not inst.finite_positive:
        return SeparabilityResult(
            decision=Decision(
                Status.UNDECIDED, detail="cross expenditures overflow or underflow"
            )
        )

    y_res = check_harp(part.y_statistics())
    if y_res.status is Status.INFEASIBLE:
        periods = y_res.cycle.periods if y_res.cycle else ()
        return SeparabilityResult(
            decision=Decision(
                Status.INFEASIBLE,
                detail="y-block fails PH rationalizability: "
                f"cycle {periods} with ratio {y_res.cycle.cycle_ratio:.6g}"
                if y_res.cycle
                else "y-block fails PH rationalizability",
            ),
            violated_constraints=(f"sub-cycle{periods}",),
        )
    full_res = check_harp(part.base)
    if full_res.status is Status.INFEASIBLE:
        periods = full_res.cycle.periods if full_res.cycle else ()
        return SeparabilityResult(
            decision=Decision(
                Status.INFEASIBLE,
                detail=f"full data fails PH rationalizability: cycle {periods}",
            ),
            violated_constraints=(f"full-cycle{periods}",),
        )

    if y_res.certificate is not None:
        lam = y_res.certificate.lambdas
        mus, verified = _resolve_and_verify(inst, lam, 1e-8)
        if verified:
            detail = "exact start: y-block certificate and shortest-path mu verified"
            return _separable(part, lam, mus, None, detail)

    prog = build_separability_program(inst)
    sol = convex.solve(prog)
    if not sol.objective_trace:  # phase I never finished: no slack optimum to judge
        return SeparabilityResult(decision=Decision(Status.UNDECIDED, detail=sol.message))
    if sol.lower_bound is not None and sol.lower_bound >= tol_reject:
        return SeparabilityResult(
            decision=Decision(
                Status.INFEASIBLE,
                optimum=sol.objective,
                detail=f"slack optimum certified >= {sol.lower_bound:.3e}",
            ),
            violated_constraints=("program",),
        )

    starts = [sol.point[:T]]
    if y_res.certificate is not None:
        starts.append(np.log(y_res.certificate.lambdas))
    found = _verified_multipliers(inst, starts) if sol.objective <= tol_accept else None
    if found is not None:
        lam, mus = found
        return _separable(part, lam, mus, sol.objective, "verified multipliers found")
    return SeparabilityResult(
        decision=Decision(
            Status.UNDECIDED,
            optimum=sol.objective,
            detail="slack optimum near zero but no verifiable multipliers found"
            if sol.objective <= tol_accept
            else f"slack optimum {sol.objective:.3e} inside the ambiguity band",
        )
    )


def reconstruct_subutility(
    lambdas: NDArray[np.float64], y_prices: NDArray[np.float64]
) -> PiecewiseLinearUtility:
    """Sub-index over the y-goods: u1(y) = min_t lam_t (x^t . y)."""
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1 or np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise InvalidMultipliersError("lambdas must be strictly positive and finite")
    if lam.size != np.asarray(y_prices).shape[0]:
        raise InvalidMultipliersError("lambdas length must match price rows")
    return PiecewiseLinearUtility(weights=lam, rows=np.asarray(y_prices, dtype=float))


def reconstruct_macro_utility(
    mus: NDArray[np.float64],
    lambdas: NDArray[np.float64],
    q_prices: NDArray[np.float64],
) -> MacroUtility:
    """Macro utility over (q-goods, composite): u0(q, z) = min_t mu_t (p^t.q + z/lam_t)."""
    lam = np.asarray(lambdas, dtype=np.float64)
    mu = np.asarray(mus, dtype=np.float64)
    rows = np.asarray(q_prices, dtype=np.float64)
    if np.any(lam <= 0.0) or np.any(mu <= 0.0):
        raise InvalidMultipliersError("multipliers must be strictly positive")
    if lam.shape != mu.shape or lam.size != rows.shape[0]:
        raise InvalidMultipliersError("multiplier shapes do not match price rows")
    return MacroUtility(mus=mu.copy(), q_prices=rows.copy(), inv_lambdas=1.0 / lam)


def young_transform(u: PiecewiseLinearUtility, w) -> float:
    """Dual price index nu(w) = inf { w.y : u(y) >= 1, y >= 0 }.

    For the min-of-linear-forms utility this is the linear program
    minimize w.y subject to weight_t (row_t . y) >= 1 for all t; by
    homogeneity it equals inf over u(y) > 0 of (w.y) / u(y).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or np.any(w <= 0.0):
        raise ValueError("prices must be strictly positive")
    coeff = u.weights[:, None] * u.rows
    res = linprog(
        c=w,
        A_ub=-coeff,
        b_ub=-np.ones(u.pieces),
        bounds=[(0.0, None)] * w.size,
        method="highs",
    )
    if not res.success:  # pragma: no cover - LP is always feasible and bounded
        raise RuntimeError(f"young transform LP failed: {res.message}")
    return float(res.fun)
