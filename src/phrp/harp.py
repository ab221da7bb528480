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

The cross expenditures ``p^tau . q^t`` are the entries of the rank-n matrix
P Q^T, and the graph is kept as those two factors.  Beyond ``BLOCK_ROWS``
periods the relaxation ranks candidates by products of the factors, and the
certificate check takes the T x T products, a block of rows at a time, so a
decision holds O(T n) plus one (BLOCK_ROWS, T) block, never a T x T array.
Up to ``BLOCK_ROWS`` periods the log weights are built once, no larger than
that block, and relaxed densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .model import Decision, MarketStatistics, Status


class InvalidCertificateError(Exception):
    """The supplied multipliers do not satisfy the cross-expenditure system."""


@dataclass(frozen=True)
class CrossGraph:
    """Complete weighted digraph over the T observation periods, kept as factors.

    Edge tau -> t weighs ``log(p^tau . q^t) - log(p^t . q^t)``.  No T x T
    array is stored: :func:`phrp._kernels.bf_rounds` ranks each round's
    candidates by products of the factors and takes the winners' weights
    from their own dot products, and :meth:`log_weights` builds the matrix
    for small graphs.  Every dot product that enters a weight is
    taken by ``np.einsum``, whose ``"ti,ti->t"`` and ``"ti,ai->ta"`` forms
    agree bit for bit, so a cycle through duplicated periods weighs exactly
    0 and the diagonal is exactly 0.

    Attributes:
        prices: (T, n) price rows p^tau.
        quantities: (T, n) quantity rows q^t.
    """

    prices: NDArray[np.float64]
    quantities: NDArray[np.float64]

    @property
    def nodes(self) -> int:
        return self.prices.shape[0]

    @cached_property
    def log_own(self) -> NDArray[np.float64]:
        """(T,) ``log(p^t . q^t)``; -inf or +inf where it left float64."""
        with np.errstate(divide="ignore"):
            return np.log(np.einsum("ti,ti->t", self.prices, self.quantities))

    def log_weights(self) -> NDArray[np.float64]:
        """The (T, T) weight matrix, F-ordered, built from the factors.

        Raises:
            FloatRangeError: some cross expenditure is not finite and
                strictly positive, so it has no log weight.
        """
        # into[t, tau] = q^t . p^tau; einsum sets no floating-point warnings
        into = np.einsum("ti,ai->ta", self.quantities, self.prices)
        if not 0.0 < into.min() <= into.max() < np.inf:
            raise _kernels.FloatRangeError("cross expenditures overflow or underflow")
        np.log(into, out=into)
        diagonal = into.reshape(-1)[:: self.nodes + 1]  # log_own, bit for bit
        into -= diagonal.copy()[:, None]
        diagonal[:] = 0.0
        return into.T


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
        if abs(math.log(self.cycle_ratio) - self.log_weight) > 1e-9:
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
    """Cross-expenditure log-ratio graph of the difference-constraint system.

    Holds the statistics' prices and quantities, so it costs nothing; the
    own expenditures' logs are taken on first use.  Whether every cross
    expenditure is finite and positive is checked by the relaxation's first
    round, or by :meth:`CrossGraph.log_weights`, which multiply them all
    anyway.
    """
    return CrossGraph(prices=stats.prices, quantities=stats.quantities)


def _softmax(logits: NDArray[np.float64]) -> NDArray[np.float64]:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _cycle_stats(cycle: list[int], graph: CrossGraph) -> tuple[float, float]:
    # from the cycle's own dot products (p^a . q^b) / (p^b . q^b), taken by the
    # graph's formula, so a cycle through duplicated periods weighs exactly 0
    nxt = cycle[1:] + cycle[:1]
    m = len(cycle)
    # the cycle's m cross expenditures, then the own ones of its targets
    p = graph.prices.take(cycle + nxt, axis=0)
    q = graph.quantities.take(nxt + nxt, axis=0)
    with np.errstate(all="ignore"):
        dots = np.einsum("ti,ti->t", p, q)
        logs = np.log(dots)
    log_weight = float(sum((logs[:m] - logs[m:]).tolist()))
    ratio = float(math.prod((dots[:m] / dots[m:]).tolist()))
    # long cycles over extreme data can under/overflow the direct product;
    # fall back to the (clamped) log form so the pair stays consistent
    if not 0.0 < ratio < np.inf or abs(math.log(ratio) - log_weight) > 5e-10:
        log_weight = max(log_weight, -700.0)
        ratio = float(np.exp(log_weight))
    return log_weight, ratio


def _parent_cycle(parent: NDArray[np.int64]) -> list[int] | None:
    """A cycle of the parent graph in forward order from its smallest node, or None."""
    T = parent.size
    # roots point at an extra sink node T; after T or more pointer jumps every
    # node sits either at the sink or on a cycle, and every cycle node is hit
    jump = np.empty(T + 1, dtype=np.int64)
    jump[:T] = parent
    jump[T] = T
    jump[jump < 0] = T
    for _ in range(T.bit_length()):
        jump = jump[jump]
    start = int(jump[:T].min())  # the smallest cycle node, or the sink
    if start == T:
        return None
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

    ``weights`` is a (T, T) matrix whose diagonal is 0 or +inf, or a
    :class:`CrossGraph`.  Jacobi
    rounds start from the all-zero labels (a virtual source); after each
    round that still improves, the parent graph is searched for a cycle.

    Returns (labels, None) once a round settles, else (None, cycle) for the
    first parent cycle found, in forward order from its smallest period.  A
    node that improves in round k has a parent that improved in round k - 1,
    so an improvement in round T + 1 implies a parent cycle: one of the two
    is always returned.

    Each round after the first relaxes only the edges out of the nodes the
    round before improved, a mask the kernel leaves for the next call.  On
    dense weights the labels, parents and cycles are those of relaxing every
    edge in every round.

    A dense ``weights`` is made F-ordered once, so the rounds read its
    incoming-edge rows in place.  A :class:`CrossGraph` of at most
    ``BLOCK_ROWS`` nodes is materialised once by
    :meth:`CrossGraph.log_weights`, no larger than the factored rounds'
    scratch block, since a dense round takes fewer numpy calls; a larger one
    is relaxed on its factors, whose labels match the dense rounds' to
    rounding.  Either way a cross expenditure that is not finite and
    positive raises :class:`phrp._kernels.FloatRangeError`.
    """
    if isinstance(weights, CrossGraph):
        T = weights.nodes
        if T <= _kernels.BLOCK_ROWS:
            weights = weights.log_weights()
    else:
        weights = np.asfortranarray(weights)
        T = weights.shape[0]
    dist = np.zeros(T)
    parent = np.full(T, -1, dtype=np.int64)
    frontier = np.ones(T, dtype=bool)
    for _ in range(T + 1):
        dist, parent, _, settled = _kernels.bf_rounds(weights, dist, parent, 1, frontier)
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
    try:
        labels, cycle = shortest_potentials(graph)
    except _kernels.FloatRangeError as exc:
        # a cross expenditure that over- or underflowed carries no log weight,
        # so neither a certificate nor a cycle ratio over it can be trusted
        return HarpResult(Decision(Status.UNDECIDED, detail=str(exc)))
    if cycle is None:
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
    log_weight, ratio = _cycle_stats(cycle, graph)
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
    ``0 <= 0`` would pass.  The products ``p^tau . q^t`` are taken
    ``BLOCK_ROWS`` rows of tau at a time into one scratch block, with a
    running minimum over tau of ``lam_tau p^tau . q^t`` per period t, so no
    T x T array is built.
    """
    lam = cert.lambdas if isinstance(cert, AfriatCertificate) else np.asarray(cert, float)
    if lam.ndim != 1 or lam.size != stats.periods:
        return False
    if not 0.0 < lam.min() <= lam.max() < np.inf:  # NaN fails too
        return False
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        return False
    p, q = stats.prices, stats.quantities
    T = lam.size
    scratch = np.empty(min(_kernels.BLOCK_ROWS, T) * T)
    own = np.empty(T)  # lam_t p^t.q^t
    cheapest = np.empty(T)  # min_tau lam_tau p^tau.q^t
    with np.errstate(over="ignore"):
        for lo in range(0, T, _kernels.BLOCK_ROWS):
            rows = min(_kernels.BLOCK_ROWS, T - lo)
            cross = scratch[: rows * T].reshape(rows, T)
            np.matmul(p[lo : lo + rows], q.T, out=cross)
            if not 0.0 < cross.min() <= cross.max() < np.inf:
                return False
            cross *= lam[lo : lo + rows, None]
            own[lo : lo + rows] = cross.reshape(-1)[lo :: T + 1]  # the entries (t, t)
            if lo:
                np.minimum(cheapest, cross.min(axis=0), out=cheapest)
            else:
                cross.min(axis=0, out=cheapest)
    return bool((own <= cheapest * (1.0 + tol)).all())


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
