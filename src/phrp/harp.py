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
certificate check takes the T x T products a block of target periods at a
time, with the multipliers folded into the prices, so a decision holds
O(T n) plus one (BLOCK_ROWS, T) block, never a T x T array.
Up to ``BLOCK_ROWS`` periods the log weights are built once, no larger than
that block, and relaxed densely.

Under PH the multipliers are ``lam_t = 1 / P(p^t)``, with P the utility's
unit-cost (price index) function, so the relaxation starts at the logs of a
multilateral Tornqvist index computed from the data alone (Caves,
Christensen & Diewert, Economic Journal 92, 1982).  The index is exact for
Cobb-Douglas utilities, where the first round settles, and second-order
for any homothetic one (Diewert, J. Econometrics 4, 1976).  Any finite start
is sound; a run from it that ends UNDECIDED is repeated from zero labels.
Beyond ``BLOCK_ROWS`` periods the first round's products are also the
certificate check of its start: when every period's own product is within
``tol / T`` of its row's cheapest, FEASIBLE is certified inside that round,
with no further round and no second pass over the T x T products.  Every
cycle then has ratio at least ``(1 + tol/T)^-T > 1 - tol``, so none that
the rounds could go on to find would be INFEASIBLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .model import Decision, MarketStatistics, Status

_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps


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


def _cycle_stats(cycle: list[int], graph: CrossGraph) -> tuple[float, float, bool]:
    # from the cycle's own dot products (p^a . q^b) / (p^b . q^b), taken by the
    # graph's formula, so a cycle through duplicated periods weighs exactly 0;
    # the flag says whether all 2m of them are finite normal floats
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
    values = dots.tolist()
    return log_weight, ratio, _TINY <= min(values) and max(values) < math.inf


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


def _index_potentials(graph: CrossGraph) -> NDArray[np.float64] | None:
    """Log multipliers ``-log P(p^t)`` of the multilateral Tornqvist index, or None.

    ``d_t = -sum_i (s^t_i + sbar_i) / 2 * (log p^t_i - mean_tau log p^tau_i)``,
    with budget shares ``s^t = p^t * q^t / (p^t . q^t)`` and their mean
    ``sbar`` over the periods.  Cobb-Douglas shares are the same in every
    period, and then d is ``log(u(q^t) / (p^t . q^t))`` to rounding.  None
    when an own expenditure is not a finite normal float; otherwise every
    share lies in [0, 1] and every log price is finite, and so is d.
    """
    p, q = graph.prices, graph.quantities
    mean = np.full(p.shape[0], 1.0 / p.shape[0])  # means as dot products: cheap at small T
    with np.errstate(over="ignore"):  # an own expenditure past float64 is turned away
        shares = p * q
        own = shares.sum(axis=1)
    if not (own.min() >= _TINY and math.isfinite(mean.dot(own))):
        return None
    shares /= own[:, None]
    shares += mean.dot(shares)
    logp = np.log(p)
    logp -= mean.dot(logp)
    shares *= logp
    d = shares.sum(axis=1)
    d *= -0.5
    return d


def shortest_potentials(
    weights: NDArray[np.float64],
    start: NDArray[np.float64] | None = None,
    tol: float | None = None,
) -> tuple[NDArray[np.float64] | None, list[int] | None, bool]:
    """Solve ``d_t - d_tau <= w[tau, t]`` or find a negative cycle.

    ``weights`` is a (T, T) matrix whose diagonal is 0 or +inf, or a
    :class:`CrossGraph`.  Jacobi rounds start from ``start``, finite (T,)
    labels, or from the all-zero labels (a virtual source) when it is None;
    after each round that still improves, the parent graph is searched for
    a cycle.  Any finite start is sound: labels only fall along real edges,
    so a parent cycle is a negative cycle and a settled round satisfies
    every edge.

    Returns (labels, None, False) once a round settles, else (None, cycle,
    False) for the first parent cycle found, in forward order from its
    smallest period.  A node that improves in round k has a parent that
    improved in round k - 1, so an improvement in round T + 1 implies a
    parent cycle: one of the two is always returned.

    Given ``tol``, on a graph relaxed on its factors each round with every
    node in its frontier, the first one above all, checks the labels d it
    starts from as a certificate (see :func:`phrp._kernels.bf_rounds`):
    ``lam = softmax(d)`` then meets every cross-expenditure inequality at
    relative tolerance ``tol``, as :func:`verify_certificate` would find at
    that tolerance.
    If that check passes and :func:`_cross_in_range` proves every raw cross
    expenditure finite and positive, those labels are returned at once as
    (d, None, True).  Otherwise the rounds go on as without ``tol``.

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
    rounding.  A cross expenditure that is not finite and positive raises
    :class:`phrp._kernels.FloatRangeError` from the materialised weights
    and from a factored first round at zero labels; a factored run from a
    nonzero ``start`` checks only that each winning product is normal.
    """
    if isinstance(weights, CrossGraph):
        T = weights.nodes
        if T <= _kernels.BLOCK_ROWS:
            weights = weights.log_weights()
    else:
        weights = np.asfortranarray(weights)
        T = weights.shape[0]
    dist = np.zeros(T) if start is None else start
    parent = np.full(T, -1, dtype=np.int64)
    frontier = np.ones(T, dtype=bool)
    for _ in range(T + 1):
        labels = dist
        dist, parent, _, settled, certified = _kernels.bf_rounds(
            weights, labels, parent, 1, frontier, tol
        )
        if certified and _cross_in_range(weights.prices, weights.quantities):
            return labels, None, True
        if settled:
            return dist, None, False
        cycle = _parent_cycle(parent)
        if cycle is not None:
            return None, cycle, False
    raise AssertionError("round T + 1 improved, so the parent graph must hold a cycle")


def check_harp(stats: MarketStatistics, tol: float = 1e-9) -> HarpResult:
    """Decide PH rationalizability of the statistics.

    The relaxation starts at the price-index potentials of
    :func:`_index_potentials`, which settle in the first round on
    Cobb-Douglas data, unless an own expenditure is not a finite normal
    float; then it starts from zero labels only.  The index run skips the
    zero-label round's range checks, so it reports INFEASIBLE only on a
    cycle whose 2m dot products are all finite normal floats.  When it ends
    UNDECIDED, the decision is made again from zero labels, and that result
    is returned as it is.

    A FEASIBLE is certified in one of two ways.  Above ``BLOCK_ROWS``
    periods, a run's first round checks its start labels with the products
    it forms anyway (see :func:`shortest_potentials`), at relative
    tolerance ``tol / T`` on each edge; when they pass, their multipliers
    are returned at once, with no further round and no call to
    :func:`verify_certificate`.  Since every cycle of m <= T edges then has
    ratio at least ``(1 + tol/T)^-m > 1 - tol``, no cycle the rounds could
    go on to find would be reported INFEASIBLE.  Otherwise the settled
    labels' multipliers must pass :func:`verify_certificate` at
    ``max(tol, 1e-9)``.

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
    start = _index_potentials(graph)
    if start is not None:
        result = _decide(stats, graph, tol, start)
        if result.status is not Status.UNDECIDED:
            return result
    return _decide(stats, graph, tol, None)


def _decide(
    stats: MarketStatistics,
    graph: CrossGraph,
    tol: float,
    start: NDArray[np.float64] | None,
) -> HarpResult:
    """One relaxation run from ``start`` (None: zero labels) and its verdict."""
    try:
        labels, cycle, certified = shortest_potentials(graph, start, tol / stats.periods)
    except _kernels.FloatRangeError as exc:
        # a cross expenditure that over- or underflowed carries no log weight,
        # so neither a certificate nor a cycle ratio over it can be trusted
        return HarpResult(Decision(Status.UNDECIDED, detail=str(exc)))
    if cycle is None:
        lambdas = _softmax(labels)
        if not lambdas.min() > 0.0:  # labels more than ~745 apart underflow
            return HarpResult(Decision(Status.UNDECIDED, detail="multipliers span beyond float64"))
        cert = AfriatCertificate(lambdas)
        if not (certified or verify_certificate(stats, cert, tol=max(tol, 1e-9))):
            return HarpResult(
                Decision(Status.UNDECIDED, detail="potentials failed re-verification")
            )
        return HarpResult(
            Decision(Status.FEASIBLE, detail="shortest-path potentials found"),
            certificate=cert,
        )
    log_weight, ratio, normal = _cycle_stats(cycle, graph)
    if start is not None and not normal:
        # no range check vouched for these products in this run
        return HarpResult(
            Decision(Status.UNDECIDED, detail="cycle expenditures leave the normal floats")
        )
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
    if log_weight <= math.log1p(-tol):
        return HarpResult(
            Decision(
                Status.INFEASIBLE,
                detail=f"cycle {witness.periods} has ratio {ratio:.17g} < 1",
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


def _cross_in_range(p: NDArray[np.float64], q: NDArray[np.float64]) -> bool:
    """True if every product ``p^tau . q^t`` is provably finite and positive.

    With nonnegative terms, rounding is monotone: each computed product is
    at least any one of its rounded terms, so at least the largest of the
    goods' ``min p_i * min q_i``, and at most ``sum_i max p_i * max q_i``
    within a relative ``4 n eps``.  False when these bounds cannot tell.
    """
    with np.errstate(all="ignore"):
        top = float(p.max(axis=0) @ q.max(axis=0)) * (1.0 + 4 * p.shape[1] * _EPS)
        bottom = float((p.min(axis=0) * q.min(axis=0)).max())
    return bottom > 0.0 and top < np.inf


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

    The products are taken ``BLOCK_ROWS`` target periods t at a time into
    one scratch block, so no T x T array is built, and the check returns
    False at the first block that fails.  Above one block, the multipliers
    are folded into the prices, so a block's row t holds ``(lam_tau p^tau)
    . q^t`` for every tau: one product and one row minimum per block, with
    ``lam_t p^t . q^t`` on its diagonal.  The raw cross expenditures are then
    proved finite and positive by O(T n) column bounds instead.  Up to one
    block, or when the bounds cannot tell, or when a folded price is below
    the normal floats, each block holds the raw products, which are checked
    and then scaled by the multipliers.

    :func:`check_harp` calls it only where the first relaxation round could
    not certify its start (up to ``BLOCK_ROWS`` periods, or when that
    round's check failed).  That check forms the same folded products and
    applies the same rules, :func:`phrp._kernels.folds_normally` and
    :func:`phrp._kernels.certifies`, at check_harp's ``tol / T`` per edge.
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
    folded = None  # lam_tau p^tau, where the raw products need not be formed
    if T > _kernels.BLOCK_ROWS and _cross_in_range(p, q):
        folded = lam[:, None] * p
        if not _kernels.folds_normally(folded):
            folded = None
    rows = min(_kernels.BLOCK_ROWS, T)
    scratch = np.empty(rows * T)
    with np.errstate(over="ignore"):
        for lo in range(0, T, rows):
            block = scratch[: min(rows, T - lo) * T].reshape(-1, T)
            if folded is None:
                np.matmul(q[lo : lo + rows], p.T, out=block)
                if not 0.0 < block.min() <= block.max() < np.inf:
                    return False
                block *= lam
            else:
                np.matmul(q[lo : lo + rows], folded.T, out=block)
            own = block.reshape(-1)[lo :: T + 1]  # the entries (t, t)
            if not _kernels.certifies(own, block.min(axis=1), tol):
                return False
    return True


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
