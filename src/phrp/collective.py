"""Multi-consumer rationalizability and the minimal consumer count.

The observed demand is k-consumer rationalizable when it splits into k
strictly positive per-consumer demands, each PH-rationalizable on its own,
that sum componentwise to the data.  For k = 1 this is the exact
graph-based test; for k >= 2 the decision works through the log-domain
slack program over per-consumer multipliers and quantity logs, plus a
witness search by the convex-concave procedure of :func:`phrp.convex.ccp`:
candidate splits are rescaled onto exact balance and then validated per
consumer with the exact test, so a FEASIBLE verdict ships a checkable split.
The search starts only from fixed share patterns: from the slack program's
optimum it rarely found a witness, and then only after many repair solves,
while a tilted share usually yields one within a few.  The slack program
is still solved first, because a certified bound of at least ``tol_reject``
on its optimum rejects, and its optimum gates the search.

Because every split variable lives in log space, splits where a consumer
buys none of some good are unreachable; reported decisions are therefore
about strictly positive allocations (interior splits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import convex
from .harp import build_cross_graph, check_harp, shortest_potentials, verify_certificate
from .model import Decision, MarketStatistics, Status

_MAIN_MARGIN = 1e-7  # interior margin imposed on per-consumer constraints


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
    """Slack program deciding k-consumer PH-rationalizability.

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


def _per_consumer_lambdas(
    stats: MarketStatistics, sub_q: NDArray[np.float64]
) -> NDArray[np.float64] | None:
    """Exact per-consumer multipliers, or None if some consumer fails."""
    k = sub_q.shape[0]
    lams = np.empty((k, stats.periods))
    for a in range(k):
        result = check_harp(MarketStatistics(prices=stats.prices, quantities=sub_q[a]))
        if result.status is not Status.FEASIBLE:
            return None
        lams[a] = result.certificate.lambdas
    return lams


def _extract_allocation(
    stats: MarketStatistics, qtil: NDArray[np.float64]
) -> AllocationSolution | None:
    """Rescale a log-split onto exact balance and validate it per consumer."""
    Q = stats.quantities
    sub_q = np.exp(qtil)
    scaled = sub_q * (Q / sub_q.sum(axis=0))[None, :, :]
    lams = _per_consumer_lambdas(stats, scaled)
    if lams is None:
        return None
    residuals = np.maximum(Q - scaled.sum(axis=0), 0.0)
    alloc = AllocationSolution(
        sub_quantities=scaled, sub_lambdas=lams, residuals=residuals, totals=Q
    )
    return alloc if verify_allocation(stats, alloc) else None


def _start_lambdas(stats: MarketStatistics, sub_q: NDArray[np.float64]):
    """Per-consumer shortest-path labels; zeros where a consumer's split has a cycle."""
    out = np.zeros((sub_q.shape[0], stats.periods))
    for a, q in enumerate(sub_q):
        graph = build_cross_graph(MarketStatistics(prices=stats.prices, quantities=q))
        labels, _ = shortest_potentials(graph.weights)
        if labels is not None:
            out[a] = labels
    return out


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


def _search_starts(stats: MarketStatistics, k: int):
    """The witness search's (log split, log multipliers) starts: one per
    share pattern of :func:`_share_starts`, in order."""
    starts = []
    for share in _share_starts(k, stats.goods):
        sub_q = share[:, None, :] * stats.quantities[None, :, :] * (1.0 - 1e-6)
        starts.append((np.log(sub_q), _start_lambdas(stats, sub_q)))
    return starts


def _linearise(stats: MarketStatistics, k: int, state):
    """The repair program of the k-consumer search at (log split, log multipliers).

    Its variables are lam (k, T), q (k, T, n) and the slack u, in that
    order.  First come the rows afriat[a, t, tau], per consumer and ordered
    pair t != tau (row-major), with the concave log(p^tau . q_a^t) replaced
    by its tangent.  Then, per (t, i), the row fill[t, i] (the balance
    Q - sum_a q_a <= u, linearized) alternates with cap[t, i] (sum_a q_a <= Q).
    """
    qtil_hat, lam_hat = state
    T, n = stats.periods, stats.goods
    P, Q = stats.prices, stats.quantities
    exp_hat = np.exp(qtil_hat)  # (k, T, n)
    t, tau = np.nonzero(~np.eye(T, dtype=bool))
    lam_var = np.arange(k * T).reshape(k, T)
    q_var = k * T + np.arange(k * T * n).reshape(k, T, n)
    n_afriat = k * t.size
    coef = np.zeros((n_afriat + 2 * T * n, k * T * (n + 1) + 1))
    const = np.empty(len(coef))
    violation = 0.0
    for a in range(k):  # per consumer, so that every sum keeps its order
        logc = np.log(np.einsum("si,ti->st", P, exp_hat[a]))  # p^s . qhat_a^t
        g = lam_hat[a, t] - lam_hat[a, tau] + logc[t, t] - logc[tau, t] + _MAIN_MARGIN
        violation = max(violation, float(g.max()))
        denom = np.einsum("si,ti->ts", P, exp_hat[a])[t, tau]  # p^tau . qhat_a^t
        w = P[tau] * exp_hat[a, t] / denom[:, None]
        rows = a * t.size + np.arange(t.size)
        # stacked matmul rounds like the dot product w @ q; (w * q).sum(-1) does not
        tangent = (w[:, None, :] @ qtil_hat[a, t][:, :, None])[:, 0, 0]
        const[rows] = -np.log(denom) + tangent + _MAIN_MARGIN
        coef[rows, lam_var[a, t]] = 1.0
        coef[rows, lam_var[a, tau]] = -1.0
        coef[rows[:, None], q_var[a, t]] = -w
    violation = max(violation, float((Q - exp_hat.sum(axis=0)).max()))
    fill = n_afriat + 2 * np.arange(T * n)
    cap = fill + 1
    filled = Q
    for a in range(k):
        filled = filled + exp_hat[a] * (qtil_hat[a] - 1.0)
        coef[fill, q_var[a].ravel()] = -exp_hat[a].ravel()
    const[fill] = filled.ravel()
    const[cap] = -np.log(Q).ravel()
    coef[:, -1] = -1.0
    coef[cap, -1] = 0.0
    terms = (
        np.concatenate([np.repeat(np.arange(n_afriat), n), np.repeat(cap, k)]),
        np.concatenate([np.tile(P[t].ravel(), k), np.ones(T * n * k)]),
        np.concatenate([q_var[:, t].ravel(), q_var.transpose(1, 2, 0).ravel()]),
    )
    start = np.concatenate([lam_hat.ravel(), qtil_hat.ravel()])
    program = convex.linearised_program(
        f"collective-repair-k{k}", start, violation, coef, const, terms
    )

    def unpack(point):
        qtil = point[k * T : k * T * (n + 1)].reshape(k, T, n)
        return (qtil, point[: k * T].reshape(k, T)), float(np.max(np.abs(qtil - qtil_hat)))

    return program, unpack


def _even_split_allocation(stats, k, lambdas) -> AllocationSolution:
    Q = stats.quantities
    sub_q = np.repeat(Q[None, :, :] / k, k, axis=0)
    lam = np.repeat(lambdas[None, :], k, axis=0)
    return AllocationSolution(
        sub_quantities=sub_q,
        sub_lambdas=lam,
        residuals=np.zeros_like(Q),
        totals=Q,
    )


def check_collective(
    stats: MarketStatistics,
    k: int,
    tol_accept: float = 1e-6,
    tol_reject: float = 1e-4,
    hint: AllocationSolution | None = None,
) -> CollectiveResult:
    """Decide k-consumer PH-rationalizability.

    k = 1 delegates to the exact graph test.  For k >= 2 a FEASIBLE verdict
    requires both a slack optimum <= tol_accept and a witness allocation that
    passes direct verification (with every residual below tol_accept times
    the observed quantity); an optional ``hint`` allocation is tried first.

    Note the asymmetry: for k >= 2 the only rejection is a certified lower
    bound on the slack optimum of at least tol_reject, and as the relaxed
    program is satisfiable for any data, failures to find a witness are
    reported UNDECIDED rather than INFEASIBLE.
    """
    if not 0.0 < tol_accept < tol_reject:
        raise ValueError("need 0 < tol_accept < tol_reject")
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
        if np.all(hint.residuals <= tol_accept * stats.quantities):
            return CollectiveResult(
                decision=Decision(
                    Status.FEASIBLE, optimum=0.0, detail="verified hint allocation"
                ),
                k=k,
                allocation=hint,
            )
    aggregate = check_harp(stats)
    if aggregate.status is Status.FEASIBLE:
        alloc = _even_split_allocation(stats, k, aggregate.certificate.lambdas)
        if verify_allocation(stats, alloc):
            return CollectiveResult(
                decision=Decision(
                    Status.FEASIBLE,
                    optimum=0.0,
                    detail="aggregate is single-consumer rationalizable; even split",
                ),
                k=k,
                allocation=alloc,
            )

    prog = build_collective_program(stats, k)
    sol = convex.solve(prog)
    if sol.stalled is not None:  # phase I never finished: no slack optimum to judge
        return CollectiveResult(decision=Decision(Status.UNDECIDED, detail=sol.stalled), k=k)
    if sol.lower_bound is not None and sol.lower_bound >= tol_reject:
        return CollectiveResult(
            decision=Decision(
                Status.INFEASIBLE,
                optimum=sol.objective,
                detail=f"slack optimum certified >= {sol.lower_bound:.3e}",
            ),
            k=k,
        )

    alloc = None
    if sol.objective <= tol_accept:
        alloc = convex.ccp(
            _search_starts(stats, k),
            lambda state: _extract_allocation(stats, state[0]),
            lambda state: _linearise(stats, k, state),
            rounds=30,
            max_iter=40_000,
            step_tol=1e-9,
        )
    if alloc is not None:
        return CollectiveResult(
            decision=Decision(
                Status.FEASIBLE, optimum=sol.objective, detail="verified witness found"
            ),
            k=k,
            allocation=alloc,
        )
    return CollectiveResult(
        decision=Decision(
            Status.UNDECIDED,
            optimum=sol.objective,
            detail="no verifiable split found within the search budget",
        ),
        k=k,
    )


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
    tol_accept: float = 1e-6,
    tol_reject: float = 1e-4,
) -> ClassNumberResult:
    """Smallest k accepted by check_collective, scanning k = 1, 2, ...

    The default budget k_max = n (the number of goods) is a pragmatic
    heuristic, not a guaranteed upper bound for the minimal k.
    """
    if k_max is None:
        k_max = stats.goods
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    per_k: dict[int, Decision] = {}
    witness = None
    value = None
    undecided_below = False
    for k in range(1, k_max + 1):
        res = check_collective(stats, k, tol_accept=tol_accept, tol_reject=tol_reject)
        per_k[k] = res.decision
        if res.status is Status.FEASIBLE:
            value = k
            witness = res.allocation
            break
        if res.status is Status.UNDECIDED:
            undecided_below = True
    lower = 1
    for k in range(1, k_max + 1):
        if per_k.get(k) is not None and per_k[k].status is Status.INFEASIBLE:
            lower = k + 1
        else:
            break
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
