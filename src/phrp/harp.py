"""Exact test of rationalizability by positively homogeneous utilities.

The statistics admit a well-behaved, positively homogeneous (PH)
rationalizing utility iff there are positive multipliers ``lam`` with

    lam_t * (p^t . q^t) <= lam_tau * (p^tau . q^t)    for all t, tau.

In logs this is a system of difference constraints, so feasibility is
equivalent to the absence of a negative cycle in the complete digraph whose
edge tau -> t carries weight ``log(p^tau . q^t) - log(p^t . q^t)``.  A
label-correcting sweep (Bellman-Ford) either produces shortest-path
potentials, which exponentiate into a certificate, or a negative cycle,
whose expenditure-ratio product below 1 witnesses the violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .model import Decision, MarketStatistics, Status


class InvalidCertificateError(Exception):
    """The supplied multipliers do not satisfy the cross-expenditure system."""


@dataclass(frozen=True)
class CrossGraph:
    """Complete weighted digraph over the T observation periods.

    Attributes:
        weights: (T, T) matrix; ``weights[tau, t]`` is the edge weight
            ``log(p^tau . q^t) - log(p^t . q^t)``.  The diagonal is zero.
        cross_expenditures: (T, T) matrix ``C[a, b] = p^a . q^b``.
    """

    weights: NDArray[np.float64]
    cross_expenditures: NDArray[np.float64]

    @property
    def nodes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class AfriatCertificate:
    """Positive multipliers witnessing PH rationalizability, normalized to sum 1."""

    lambdas: NDArray[np.float64]

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.ndim != 1 or lam.size < 1:
            raise InvalidCertificateError("lambdas must be a 1-d vector")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise InvalidCertificateError("lambdas must be finite and strictly positive")
        if abs(float(lam.sum()) - 1.0) > 1e-12:
            raise InvalidCertificateError("lambdas must sum to 1 within 1e-12")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def periods(self) -> int:
        return self.lambdas.size


@dataclass(frozen=True)
class ViolationCycle:
    """A cycle of periods whose cross-expenditure ratio product is below 1.

    Attributes:
        periods: closed cyclic sequence (t_1, ..., t_m, t_1), 0-based.
        log_weight: sum of edge weights along the cycle (negative).
        cycle_ratio: product of (p^{t_i} . q^{t_{i+1}}) / (p^{t_{i+1}} . q^{t_{i+1}}).
    """

    periods: tuple[int, ...]
    log_weight: float
    cycle_ratio: float

    def __post_init__(self):
        if len(self.periods) < 3 or self.periods[0] != self.periods[-1]:
            raise ValueError("periods must be a closed cycle (t_1, ..., t_m, t_1)")
        if len(set(self.periods[:-1])) != len(self.periods) - 1:
            raise ValueError("cycle periods must be distinct")
        if not self.cycle_ratio < 1.0:
            raise ValueError("a violation cycle must have ratio < 1")
        if abs(np.log(self.cycle_ratio) - self.log_weight) > 1e-9:
            raise ValueError("log(cycle_ratio) does not match log_weight")


@dataclass(frozen=True)
class PiecewiseLinearUtility:
    """Concave PH utility of the form f(x) = min_t weight_t * (row_t . x).

    Positively homogeneous of degree 1, componentwise nondecreasing, and
    strictly positive on strictly positive bundles.
    """

    weights: NDArray[np.float64]
    rows: NDArray[np.float64]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        r = np.asarray(self.rows, dtype=np.float64)
        if w.ndim != 1 or r.ndim != 2 or r.shape[0] != w.size:
            raise ValueError("need T weights and a T x n row matrix")
        if np.any(w <= 0) or np.any(r <= 0):
            raise ValueError("weights and rows must be strictly positive")
        coeff = w[:, None] * r
        for arr in (w, r, coeff):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "_coeff", coeff)

    @property
    def pieces(self) -> int:
        return self.weights.size

    def __call__(self, x) -> float | NDArray[np.float64]:
        """Evaluate at a bundle (n,) or a batch (m, n)."""
        x = np.asarray(x, dtype=np.float64)
        values = self._coeff @ x.T  # (T,) or (T, m)
        out = values.min(axis=0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class HarpResult:
    """Decision plus its witness: a certificate or a violation cycle."""

    decision: Decision
    certificate: AfriatCertificate | None = None
    cycle: ViolationCycle | None = None

    @property
    def status(self) -> Status:
        return self.decision.status


def build_cross_graph(stats: MarketStatistics) -> CrossGraph:
    """Cross-expenditure log-ratio graph of the difference-constraint system."""
    cross = stats.cross_expenditures()
    # over- or underflowed entries give infinite or NaN weights, which callers reject
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.log(cross)
        weights -= np.diag(weights).copy()[None, :]  # np.diag may return a view
    np.fill_diagonal(weights, 0.0)
    weights.setflags(write=False)
    cross.setflags(write=False)
    return CrossGraph(weights=weights, cross_expenditures=cross)


def _softmax(logits: NDArray[np.float64]) -> NDArray[np.float64]:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _cycle_stats(
    cycle: list[int], weights: NDArray[np.float64], cross: NDArray[np.float64]
) -> tuple[float, float]:
    nxt = cycle[1:] + cycle[:1]
    log_weight = float(sum(weights[a, b] for a, b in zip(cycle, nxt)))
    ratio = float(np.prod([cross[a, b] / cross[b, b] for a, b in zip(cycle, nxt)]))
    # long cycles over extreme data can under/overflow the direct product;
    # fall back to the (clamped) log form so the pair stays consistent
    if not 0.0 < ratio < np.inf or abs(np.log(ratio) - log_weight) > 5e-10:
        log_weight = max(log_weight, -700.0)
        ratio = float(np.exp(log_weight))
    return log_weight, ratio


def _parent_cycle(parent: NDArray[np.int64]) -> list[int] | None:
    """A cycle of the parent graph in forward order from its smallest node, or None."""
    T = parent.size
    # roots point at an extra sink node T; after T or more pointer jumps every
    # node sits either at the sink or on a cycle, and every cycle node is hit
    jump = np.append(np.where(parent < 0, T, parent), T)
    for _ in range(T.bit_length()):
        jump = jump[jump]
    on_cycle = jump[:T][jump[:T] < T]
    if not on_cycle.size:
        return None
    start = int(on_cycle.min())
    backward = [start]
    x = int(parent[start])
    while x != start:
        backward.append(x)
        x = int(parent[x])
    return [start] + backward[:0:-1]


def shortest_potentials(
    weights: NDArray[np.float64],
) -> tuple[NDArray[np.float64] | None, list[int] | None]:
    """Solve ``d_t - d_tau <= w[tau, t]`` or find a negative cycle.

    ``weights`` is a (T, T) matrix whose diagonal is 0 or +inf.  Jacobi
    rounds start from the all-zero labels (a virtual source); after each
    round that still improves, the parent graph is searched for a cycle.

    Returns (labels, None) once a round settles, else (None, cycle) for the
    first parent cycle found, in forward order from its smallest period.  A
    node that improves in round k has a parent that improved in round k - 1,
    so an improvement in round T + 1 implies a parent cycle: one of the two
    is always returned.
    """
    T = weights.shape[0]
    dist = np.zeros(T)
    parent = np.full(T, -1, dtype=np.int64)
    for _ in range(T + 1):
        dist, parent, _, settled = _kernels.bf_rounds(weights, dist, parent, 1)
        if settled:
            return dist, None
        cycle = _parent_cycle(parent)
        if cycle is not None:
            return None, cycle
    raise AssertionError("round T + 1 improved, so the parent graph must hold a cycle")


def check_harp(stats: MarketStatistics, tol: float = 1e-9) -> HarpResult:
    """Decide PH rationalizability of the statistics.

    Args:
        stats: market statistics.
        tol: relative tolerance; cycles with log-weight in [-tol, 0) are
            reported UNDECIDED rather than INFEASIBLE because near-tight
            ratio products are ill-conditioned in logs.

    Returns:
        FEASIBLE with a normalized certificate, INFEASIBLE with a violation
        cycle of ratio < 1 - tol, or UNDECIDED at the numerical boundary and
        whenever some cross expenditure is not finite and strictly positive.
    """
    if not 0.0 < tol <= 1e-2:
        raise ValueError("tol must lie in (0, 1e-2]")
    if stats.periods == 1:
        cert = AfriatCertificate(np.ones(1))
        return HarpResult(
            Decision(Status.FEASIBLE, detail="single period: no cross constraints"),
            certificate=cert,
        )
    graph = build_cross_graph(stats)
    cross = graph.cross_expenditures
    if not 0.0 < cross.min() <= cross.max() < np.inf:
        # a cross expenditure that over- or underflowed carries no log weight,
        # so neither a certificate nor a cycle ratio over it can be trusted
        return HarpResult(
            Decision(Status.UNDECIDED, detail="cross expenditures overflow or underflow")
        )
    labels, cycle = shortest_potentials(graph.weights)
    if cycle is None:
        del graph, cross  # verify_certificate builds its own cross expenditures
        lambdas = _softmax(labels)
        if not lambdas.min() > 0.0:  # labels more than ~745 apart underflow
            return HarpResult(Decision(Status.UNDECIDED, detail="multipliers span beyond float64"))
        cert = AfriatCertificate(lambdas)
        if not verify_certificate(stats, cert, tol=max(tol, 1e-9)):
            return HarpResult(
                Decision(Status.UNDECIDED, detail="potentials failed re-verification")
            )
        return HarpResult(
            Decision(Status.FEASIBLE, detail="shortest-path potentials found"),
            certificate=cert,
        )
    log_weight, ratio = _cycle_stats(cycle, graph.weights, cross)
    if not (log_weight < 0.0 and ratio < 1.0):
        return HarpResult(
            Decision(
                Status.UNDECIDED,
                detail=f"cycle {tuple(cycle)} has ratio {ratio:.17g}, not below 1",
            )
        )
    witness = ViolationCycle(
        periods=tuple(cycle) + (cycle[0],), log_weight=log_weight, cycle_ratio=ratio
    )
    if log_weight <= np.log1p(-tol):
        return HarpResult(
            Decision(
                Status.INFEASIBLE,
                detail=f"cycle {witness.periods} has ratio {ratio:.6g} < 1",
            ),
            cycle=witness,
        )
    return HarpResult(
        Decision(
            Status.UNDECIDED,
            detail=f"cycle weight {log_weight:.3e} within tolerance band",
        ),
        cycle=witness,
    )


def verify_certificate(
    stats: MarketStatistics,
    cert: AfriatCertificate | NDArray[np.float64],
    tol: float = 1e-9,
) -> bool:
    """Check all T^2 cross-expenditure inequalities at relative tolerance tol.

    Also requires the multipliers to be strictly positive and to sum to 1
    within 1e-9, and every cross expenditure to be finite and strictly
    positive: after overflow to inf or underflow to 0, ``inf <= inf`` and
    ``0 <= 0`` would pass.
    """
    lam = cert.lambdas if isinstance(cert, AfriatCertificate) else np.asarray(cert, float)
    if lam.ndim != 1 or lam.size != stats.periods:
        return False
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        return False
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        return False
    cross = stats.cross_expenditures()
    if not 0.0 < cross.min() <= cross.max() < np.inf:
        return False
    own = lam * np.diag(cross)  # own[t] = lam_t p^t.q^t
    cross *= lam[:, None]  # in place: cross is a fresh array, and T x T is large
    cheapest = cross.min(axis=0)  # min_tau lam_tau p^tau.q^t
    return bool(np.all(own <= cheapest * (1.0 + tol)))


def recover_utility(
    cert: AfriatCertificate, stats: MarketStatistics
) -> PiecewiseLinearUtility:
    """Reconstruct the min-of-linear-forms utility f(x) = min_t lam_t (p^t . x).

    The result is consistent with the data: f(q^t) = lam_t (p^t . q^t) for
    every period t.

    Raises:
        InvalidCertificateError: the certificate fails verification.
    """
    if not verify_certificate(stats, cert):
        raise InvalidCertificateError("certificate does not verify against statistics")
    return PiecewiseLinearUtility(weights=cert.lambdas, rows=stats.prices)
