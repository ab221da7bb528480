"""Multi-consumer rationalizability and the minimal consumer count.

The observed demand is k-consumer rationalizable when it splits into k
strictly positive per-consumer demands, each PH-rationalizable on its own,
that sum componentwise to the data.  For k = 1 this is the exact
graph-based test.  For k >= n goods the answer is always yes, shown by a
closed-form split with collinear bundles per consumer.  For 2 <= k < n a
witness search runs.  Under PH each consumer's inequalities
lam_{a,t} p^t . q_a^t <= lam_{a,tau} p^tau . q_a^t are linear in the split
once the multipliers are fixed, and once the split is fixed the best
multipliers solve a min-max-cycle problem exactly: a maximum cycle mean
and shortest-path potentials.  The search alternates these two exact
steps, one LP per round, from fixed share patterns.  Each split it reaches
gets one multiplier step, whose multipliers serve twice: they certify the
split, rescaled onto exact balance, by direct verification of every
consumer's inequalities, and when that fails they fix the next split LP.
So a FEASIBLE verdict ships a checkable split whatever the steps returned.
A search miss is UNDECIDED, since a miss of a local search proves nothing;
nothing here rejects k >= 2.

The split LP leaves every consumer a share of every good, so splits where
a consumer buys none of some good are unreachable; reported decisions are
therefore about strictly positive allocations (interior splits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import _kernels, convex
from .convex import linprog
from .harp import check_harp, verify_certificate
from .model import Decision, MarketStatistics, Status

_FLOOR = 1e-6  # least share of each good the split step leaves a consumer
_HINT_RESIDUAL = 1e-6  # largest residual share of each quantity a hint may leave
_LOG_SPAN = 300.0  # |log multiplier| cap: exp(d - max d) stays a positive float64


@dataclass(frozen=True)
class AllocationSolution:
    """A per-consumer split of the observed quantities.

    Attributes:
        sub_quantities: (k, T, n) strictly positive per-consumer bundles.
        sub_lambdas: (k, T) positive multipliers, one row per consumer
            (verification renormalizes each row to sum 1).
        residuals: (T, n) nonnegative unallocated quantities.
        totals: (T, n) the observed quantities the split accounts for.
    """

    sub_quantities: NDArray[np.float64]
    sub_lambdas: NDArray[np.float64]
    residuals: NDArray[np.float64]
    totals: NDArray[np.float64]

    def __post_init__(self):
        q = np.asarray(self.sub_quantities, dtype=np.float64)
        lam = np.asarray(self.sub_lambdas, dtype=np.float64)
        res = np.asarray(self.residuals, dtype=np.float64)
        tot = np.asarray(self.totals, dtype=np.float64)
        if q.ndim != 3 or lam.shape != q.shape[:2] or res.shape != q.shape[1:]:
            raise ValueError("inconsistent allocation shapes")
        if tot.shape != res.shape:
            raise ValueError("totals shape mismatch")
        if np.any(q <= 0.0) or np.any(lam <= 0.0):
            raise ValueError("sub-quantities and multipliers must be positive")
        if np.any(res < 0.0):
            raise ValueError("residuals must be nonnegative")
        balance = q.sum(axis=0) + res
        if np.max(np.abs(balance - tot) / np.maximum(tot, 1e-300)) > 1e-9:
            raise ValueError("allocation does not balance to the totals within 1e-9")
        for arr in (q, lam, res, tot):
            arr.setflags(write=False)
        object.__setattr__(self, "sub_quantities", q)
        object.__setattr__(self, "sub_lambdas", lam)
        object.__setattr__(self, "residuals", res)
        object.__setattr__(self, "totals", tot)

    @property
    def consumers(self) -> int:
        return self.sub_quantities.shape[0]


@dataclass(frozen=True)
class CollectiveResult:
    """Decision for one consumer count, with the witness split when accepted."""

    decision: Decision
    k: int
    allocation: AllocationSolution | None = None

    @property
    def status(self) -> Status:
        return self.decision.status


@dataclass(frozen=True)
class ClassNumberResult:
    """Search result for the minimal accepted consumer count.

    Attributes:
        value: first accepted k, or None when the budget was exhausted.
        certified_lower_bound: 1 + length of the INFEASIBLE prefix.
        status: FOUND, LOWER_BOUND_ONLY (an UNDECIDED k below the accepted
            one), or NOT_FOUND.
        per_k: decision for each examined k.
        witness: allocation for the accepted k.
    """

    value: int | None
    certified_lower_bound: int
    status: str
    per_k: dict[int, Decision]
    witness: AllocationSolution | None


def build_collective_program(stats: MarketStatistics, k: int) -> convex.LogConvexProgram:
    """Log-domain slack program over a k-consumer split; no decider solves it.

    Its minimum is 0 for any data and any k: the balance is an inequality,
    so small collinear bundles per consumer with every slack 0 satisfy each
    row with room to spare.  A bound on its objective therefore rejects
    nothing; the program stays as a subject for the barrier solver's checks.

    Variables: per-consumer log multipliers, per-consumer log quantities, and
    one nonnegative slack per (period, good) absorbing the unallocated part
    of the balance.  In the cross-expenditure constraints each consumer's
    quantity is substituted by the total minus the other consumers' (keeping
    the right-hand side concave); the balance itself is kept as
    sum_consumers q + slack <= total with the slack sum minimized.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    T, n = stats.periods, stats.goods
    P, Q = stats.prices, stats.quantities
    prog = convex.LogConvexProgram(name=f"collective-k{k}-T{T}-n{n}")
    lam = np.arange(k * T).reshape(k, T)
    qv = k * T + np.arange(k * T * n).reshape(k, T, n)
    gam = k * T * (n + 1) + np.arange(T * n).reshape(T, n)
    for a, t in np.ndindex(k, T):
        prog.add_log_variable(f"lam[{a},{t}]", start=-np.log(2.0 * T))
    q_start = np.clip(np.log(Q / (2.0 * k)), -29.0, 29.0)  # inside the box at any units
    for a, t, i in np.ndindex(k, T, n):
        prog.add_log_variable(f"q[{a},{t},{i}]", start=float(q_start[t, i]))
    for t, i in np.ndindex(T, n):
        prog.add_slack_variable(f"gamma[{t},{i}]", cap=float(Q[t, i]), start=float(Q[t, i] / 4.0))

    # afriat[a, t, tau], row-major: every consumer but a holds its bundle in the residual
    a, t, tau = np.indices((k, T, T)).reshape(3, -1)
    rows = np.arange(a.size)
    coef = np.zeros((a.size, k * T))
    coef[rows, lam[a, t]] += 1.0
    coef[rows, lam[a, tau]] -= 1.0
    others = np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])  # b != a, in order
    res_var = qv[others[a], t[:, None]]  # (rows, k - 1, n)
    res_weight = np.broadcast_to(P[tau][:, None, :], res_var.shape)
    cp = P @ Q.T  # cp[tau, t] = p^tau . Q^t
    prog.add_constraint(
        "afriat",
        coef,
        np.zeros(a.size),
        lse=(np.repeat(rows, n), P[t].ravel(), qv[a, t].ravel()),
        res=(
            np.zeros((a.size, 0)),
            cp[tau, t],
            (np.repeat(rows, (k - 1) * n), res_weight.ravel(), res_var.ravel()),
        ),
    )

    # balance[t, i]: sum_a q_a + gamma <= Q
    rows = np.arange(T * n)
    base = np.zeros((T * n, prog.n_variables))
    base[rows, gam.ravel()] = -1.0
    prog.add_constraint(
        "balance",
        np.zeros((T * n, 0)),
        np.zeros(T * n),
        lse=(np.repeat(rows, k), np.ones(T * n * k), qv.transpose(1, 2, 0).ravel()),
        res=(base, Q.ravel(), ((), (), ())),
    )
    return prog


def verify_allocation(
    stats: MarketStatistics, alloc: AllocationSolution, tol: float = 1e-9
) -> bool:
    """Direct check: balance within tol and per-consumer certificates valid."""
    Q = stats.quantities
    if alloc.sub_quantities.shape[1:] != Q.shape:
        return False
    balance = alloc.sub_quantities.sum(axis=0) + alloc.residuals
    if np.max(np.abs(balance - Q) / Q) > tol:
        return False
    for a in range(alloc.consumers):
        lam = alloc.sub_lambdas[a]
        lam = lam / lam.sum()
        consumer = MarketStatistics(prices=stats.prices, quantities=alloc.sub_quantities[a])
        if not verify_certificate(consumer, lam, tol=tol):
            return False
    return True


def _share_starts(k: int, n: int) -> list[NDArray[np.float64]]:
    """Deterministic share patterns over consumers x goods, summing to 1.

    Round-robin tilts assign each good mostly to one consumer; they break the
    consumer-exchange symmetry that traps the search when every consumer
    starts from the same split.  The symmetric even split comes last.
    """
    patterns: list[NDArray[np.float64]] = []
    assignments = []
    for flip in (False, True):
        order = range(n - 1, -1, -1) if flip else range(n)
        assignments.append([i % k for i in order])  # goods round-robin
        assignments.append([min(i * k // n, k - 1) for i in order])  # contiguous blocks
    seen: set[tuple[float, ...]] = set()
    for theta in (0.7, 0.9):
        for assign in assignments:
            share = np.full((k, n), (1.0 - theta) / max(k - 1, 1) if k > 1 else 1.0)
            for i, a in enumerate(assign):
                share[a, i] = theta if k > 1 else 1.0
            share /= share.sum(axis=0, keepdims=True)
            key = tuple(np.round(share.reshape(-1), 12).tolist())
            if key not in seen:
                seen.add(key)
                patterns.append(share)
    patterns.append(np.full((k, n), 1.0 / k))
    return patterns


def _max_cycle_mean(w: NDArray[np.float64]) -> float:
    """The largest mean edge weight of a cycle, where edge t -> tau weighs
    ``w[t, tau]``; the diagonal is -inf and every other weight finite, T >= 2.

    Karp's table: D[j, v] is the heaviest walk of exactly j edges ending at
    v from any start, and the answer is max_v min_{j < T} (D[T, v] - D[j, v])
    / (T - j).
    """
    T = w.shape[0]
    D = np.zeros((T + 1, T))
    for j in range(T):
        D[j + 1] = (D[j][:, None] + w).max(axis=0)
    return float(((D[T] - D[:T]) / (T - np.arange(T))[:, None]).min(axis=0).max())


def _multiplier_step(stats: MarketStatistics, sub_q: NDArray[np.float64]):
    """Per consumer, the multipliers that best fit its split; None if a log
    is not finite or a log multiplier leaves +-_LOG_SPAN.

    Per consumer a the log multipliers d solve the min-max-cycle LP: minimise
    s subject to, for t != tau, d_t - d_tau + w[t, tau] <= s with
    w[t, tau] = log(p^t . q_a^t) - log(p^tau . q_a^t).  Its optimum s* is
    the maximum cycle mean of w (:func:`_max_cycle_mean`), and with
    cost = s* - w the optimal d with d_0 = 0 are the potentials
    d_t <= d_tau + cost[t, tau]: shortest paths from period 0 give the
    greatest, and shortest paths along the reversed edges, negated, the
    least.  The optimal set is convex, so their midpoint is optimal too, and
    it leaves every row off a critical cycle slack both ways.  The
    multipliers are exp(d - max d); with one period there is no row and
    they are 1.
    """
    k, T = sub_q.shape[:2]
    lams = np.ones((k, T))
    if T == 1:
        return lams
    source = np.r_[0.0, np.full(T - 1, np.inf)]
    parent = np.full(T, -1)
    for a, q in enumerate(sub_q):
        with np.errstate(all="ignore"):
            logc = np.log(stats.prices @ q.T)  # logc[s, t] = log(p^s . q_a^t)
            w = np.diagonal(logc)[:, None] - logc.T
        if not np.all(np.isfinite(w)):
            return None
        np.fill_diagonal(w, -np.inf)
        cost = _max_cycle_mean(w) - w  # +inf diagonal
        greatest = _kernels.bf_rounds(cost.T, source, parent, T)[0]
        least = -_kernels.bf_rounds(cost, source, parent, T)[0]
        d = 0.5 * (greatest + least)
        if np.max(np.abs(d)) > _LOG_SPAN:
            return None
        lams[a] = np.exp(d - d.max())
    return lams


def _split_step(stats: MarketStatistics, lams: NDArray[np.float64]):
    """The split that best fits the multipliers, and its LP objective; None
    if a row is not finite or the LP fails.

    One LP over the shares x (k, T, n), q_a = x_a Q, and one slack s_t per
    period: minimise sum_t s_t subject to, per consumer a and t != tau,
    (lam_{a,t} p^t - lam_{a,tau} p^tau) . q_a^t <= s_t lam_{a,t} p^t . Q^t / k,
    each row divided by its right-hand scale, and sum_a x = 1 with
    x >= _FLOOR.  The shares are clipped back onto the floor, which the LP
    may undershoot by its tolerance, and each (t, i)'s largest share takes
    up the balance.
    """
    k, T = lams.shape
    P, Q = stats.prices, stats.quantities
    m = Q.size  # share variables per consumer
    t, tau = np.nonzero(~np.eye(T, dtype=bool))
    with np.errstate(all="ignore"):
        ratio = lams[:, tau] / lams[:, t]
        coef = (P[t] - ratio[:, :, None] * P[tau]) * (k * Q[t] / np.sum(P * Q, 1)[t, None])
    if not np.all(np.isfinite(coef)):
        return None
    rows = np.arange(k * t.size).reshape(k, -1)
    A_ub = np.zeros((k * t.size, k * m + T))
    A_ub[rows[:, :, None], np.arange(k * m).reshape(k, T, -1)[:, t]] = coef
    A_ub[rows, k * m + t] = -1.0
    A_eq = np.hstack([np.tile(np.eye(m), k), np.zeros((m, T))])
    cost = np.r_[np.zeros(k * m), np.ones(T)]
    bounds = [(_FLOOR, None)] * (k * m) + [(None, None)] * T
    res = linprog(cost, A_ub, np.zeros(len(A_ub)), A_eq, np.ones(m), bounds, method="highs")
    if res.status != 0:
        return None
    x = np.maximum(res.x[: k * m].reshape((k,) + Q.shape), _FLOOR)
    top = x.argmax(axis=0)[None]
    np.put_along_axis(x, top, np.take_along_axis(x, top, axis=0) + 1.0 - x.sum(axis=0), axis=0)
    return x * Q, float(res.fun)


def _witness_search(stats: MarketStatistics, k: int) -> AllocationSolution | None:
    """The first verified split, from the share starts of :func:`_share_starts`
    in order; or None.

    From each start ``share * Q * (1 - 1e-6)``, every split gets one
    :func:`_multiplier_step`.  Its multipliers certify the split, rescaled
    onto exact balance, through :func:`verify_allocation`; when that fails
    they feed :func:`_split_step` for the next split.  A start ends at a
    bundle that is not positive, a step that returns None, its 31st split,
    or after 3 split steps in a row that did not lower the split objective.
    """
    Q = stats.quantities
    for share in _share_starts(k, stats.goods):
        sub_q = share[:, None, :] * Q[None, :, :] * (1.0 - 1e-6)
        prev, stagnant = math.inf, 0
        for split in range(31):
            if np.any(sub_q <= 0.0):  # share * Q may underflow
                break
            lams = _multiplier_step(stats, sub_q)
            if lams is None:
                break
            scaled = sub_q * (Q / sub_q.sum(axis=0))[None, :, :]
            alloc = AllocationSolution(scaled, lams, np.maximum(Q - scaled.sum(axis=0), 0.0), Q)
            if verify_allocation(stats, alloc):
                return alloc
            if split == 30 or stagnant >= 3:
                break
            step = _split_step(stats, lams)
            if step is None:
                break
            sub_q, objective = step
            stagnant = stagnant + 1 if prev - objective < 1e-10 * max(1.0, abs(prev)) else 0
            prev = objective
    return None


def _collinear_split(stats: MarketStatistics, k: int) -> AllocationSolution | None:
    """For k >= n, a verified split with collinear bundles per consumer, or
    None where its numbers leave float64.

    Consumer a < n buys c_{t,a} v_a, with v_a = (1 - d) e_a + (d / n) 1,
    c_t = V^-1 Q^t > 0 and d = min(1/2, (n/2) min_{t,i} Q_ti / sum_i Q_ti);
    lam_{a,t} = 1 / (p^t . v_a) meets all of a's inequalities with equality.
    For k > n, consumer a's bundle splits into m_a equal pieces, each with
    a's multipliers, where m_a is floor(k/n) or ceil(k/n) and sum_a m_a = k.
    """
    Q, n = stats.quantities, stats.goods
    with np.errstate(all="ignore"):
        total = Q.sum(axis=1, keepdims=True)
        d = min(0.5, 0.5 * n * float((Q / total).min()))
        V = (1.0 - d) * np.eye(n) + d / n  # row a is v_a
        sub_q = ((Q - d / n * total) / (1.0 - d)).T[:, :, None] * V[:, None, :]
        log_lam = -np.log(stats.prices @ V.T).T
        lams = np.exp(log_lam - log_lam.max(axis=1, keepdims=True))
    if not (np.all(np.isfinite(sub_q) & (sub_q > 0.0)) and np.all(lams > 0.0)):
        return None
    pieces = np.full(n, k // n)
    pieces[: k % n] += 1
    sub_q = np.repeat(sub_q / pieces[:, None, None], pieces, axis=0)
    lams = np.repeat(lams, pieces, axis=0)
    try:
        alloc = AllocationSolution(sub_q, lams, np.maximum(Q - sub_q.sum(axis=0), 0.0), Q)
    except ValueError:  # a subnormal bundle that lost balance or positivity
        return None
    return alloc if verify_allocation(stats, alloc) else None


def check_collective(
    stats: MarketStatistics,
    k: int,
    hint: AllocationSolution | None = None,
) -> CollectiveResult:
    """Decide k-consumer PH-rationalizability.

    k = 1 delegates to the exact graph test.  For k >= 2 an optional
    ``hint`` allocation that passes direct verification, with every residual
    below _HINT_RESIDUAL times the observed quantity, is accepted first;
    then the even split of a single-consumer rationalizable aggregate,
    skipped where Q / k underflows to 0 in some entry.  For
    k >= n goods :func:`_collinear_split` decides next (UNDECIDED where it
    does not verify); for k < n the witness search (:func:`_witness_search`)
    alternates the exact multiplier step (a maximum cycle mean and its
    potentials) with an LP for the split from each share start in turn,
    and each split is certified by its own multiplier step's multipliers;
    a miss is UNDECIDED.  The exact graph test runs once, on the aggregate,
    whatever the search does.  Only k = 1 can be INFEASIBLE.
    """
    if k == 1:
        res = check_harp(stats)
        alloc = None
        if res.status is Status.FEASIBLE:
            alloc = AllocationSolution(
                sub_quantities=stats.quantities[None, :, :],
                sub_lambdas=res.certificate.lambdas[None, :],
                residuals=np.zeros_like(stats.quantities),
                totals=stats.quantities,
            )
        return CollectiveResult(decision=res.decision, k=1, allocation=alloc)

    if hint is not None and hint.consumers == k and verify_allocation(stats, hint):
        if np.all(hint.residuals <= _HINT_RESIDUAL * stats.quantities):
            return CollectiveResult(
                decision=Decision(Status.FEASIBLE, detail="verified hint allocation"),
                k=k,
                allocation=hint,
            )
    aggregate = check_harp(stats)
    Q = stats.quantities
    share = Q / k
    if aggregate.status is Status.FEASIBLE and np.all(share > 0.0):  # Q / k may underflow
        alloc = AllocationSolution(
            sub_quantities=np.repeat(share[None, :, :], k, axis=0),
            sub_lambdas=np.repeat(aggregate.certificate.lambdas[None, :], k, axis=0),
            residuals=np.zeros_like(Q),
            totals=Q,
        )
        if verify_allocation(stats, alloc):
            return CollectiveResult(
                decision=Decision(
                    Status.FEASIBLE,
                    detail="aggregate is single-consumer rationalizable; even split",
                ),
                k=k,
                allocation=alloc,
            )

    if k >= stats.goods:
        alloc = _collinear_split(stats, k)
        if alloc is None:
            detail = "collinear split for k >= n does not verify in float64"
            return CollectiveResult(decision=Decision(Status.UNDECIDED, detail=detail), k=k)
        decision = Decision(Status.FEASIBLE, detail="collinear split for k >= n")
        return CollectiveResult(decision=decision, k=k, allocation=alloc)

    alloc = _witness_search(stats, k)
    if alloc is None:
        detail = "no verifiable split found within the search budget"
        return CollectiveResult(decision=Decision(Status.UNDECIDED, detail=detail), k=k)
    decision = Decision(Status.FEASIBLE, detail="verified witness found")
    return CollectiveResult(decision=decision, k=k, allocation=alloc)


def split_witness(alloc: AllocationSolution, consumer: int = 0) -> AllocationSolution:
    """Witness for k+1 consumers: halve one consumer's bundle across two.

    Both halves keep the original multipliers; the cross-expenditure
    inequalities are invariant to scaling a consumer's whole bundle.
    """
    q = alloc.sub_quantities
    lam = alloc.sub_lambdas
    half = q[consumer] / 2.0
    new_q = np.concatenate([q, half[None, :, :]], axis=0).copy()
    new_q[consumer] = half
    new_lam = np.concatenate([lam, lam[consumer][None, :]], axis=0)
    return AllocationSolution(
        sub_quantities=new_q,
        sub_lambdas=new_lam,
        residuals=alloc.residuals,
        totals=alloc.totals,
    )


def class_number(
    stats: MarketStatistics,
    k_max: int | None = None,
) -> ClassNumberResult:
    """Smallest k accepted by check_collective, scanning k = 1, 2, ...

    The default budget k_max = n (the number of goods) is a proven upper
    bound: every data set is n-consumer rationalizable, and check_collective
    shows it with the collinear split unless its numbers leave float64.
    Only k = 1 can be rejected, so the certified lower bound is 1 or 2.
    """
    if k_max is None:
        k_max = stats.goods
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    per_k: dict[int, Decision] = {}
    witness = None
    value = None
    undecided_below = False
    lower = 1
    for k in range(1, k_max + 1):
        res = check_collective(stats, k)
        per_k[k] = res.decision
        if res.status is Status.FEASIBLE:
            value = k
            witness = res.allocation
            break
        if res.status is Status.UNDECIDED:
            undecided_below = True
        elif not undecided_below:  # still in the INFEASIBLE prefix
            lower = k + 1
    if value is None:
        status = "NOT_FOUND"
    elif undecided_below:
        status = "LOWER_BOUND_ONLY"
    else:
        status = "FOUND"
    return ClassNumberResult(
        value=value,
        certified_lower_bound=lower,
        status=status,
        per_k=per_k,
        witness=witness,
    )
