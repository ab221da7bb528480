"""The four seeded corpora, and how each instance is decided and checked.

Every corpus has a fixed make-up (periods, goods, instance counts), so one
pass costs about the same under every seed; the seed only draws the data,
and the class-number corpus ignores it (see AGGREGATES).
The kept-fault slices are fixed data that do not depend on the seed: each
of their instances fails on every run until the fault it waits on is fixed.

Deciders are looked up through their modules at call time, so the traced
mode sees the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from phrp import collective, datagen, harp, model, separability
from phrp.model import MarketStatistics, Status

from checks import (
    afriat_ok,
    allocation_ok,
    cycle_ok,
    min_cycle_log_ratio,
    min_two_cycle_log_ratio,
    separability_ok,
)

PROOF_MARGIN = np.log1p(-1e-3)  # infeasibility proofs need a cycle ratio below 1 - 1e-3


@dataclass
class Instance:
    """One corpus entry: its data, how to decide it and how to check the result."""

    name: str
    stats: MarketStatistics
    check: Callable[[object], bool]
    seed: int
    kept_fault: bool = False
    decide_args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A corpus builder plus the decider it times.

    ``min_passes`` timed passes always run, so that every run pools at least
    ``min_passes * len(corpus)`` per-instance samples.
    """

    name: str
    build: Callable[[int], list[Instance]]
    decide: Callable[..., object]
    min_passes: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _shares(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.uniform(0.5, 1.5, size)
    s = raw / raw.sum()
    s[-1] = 1.0 - float(s[:-1].sum())
    return s


def _harp_check(stats: MarketStatistics, truth: Status):
    """Accept only the true verdict, with a witness that verifies in logs."""
    p, q = stats.prices, stats.quantities

    def check(result) -> bool:
        if result.status is not truth:
            return False
        if truth is Status.FEASIBLE:
            return afriat_ok(p, q, result.certificate.lambdas, tol=1e-9)
        return cycle_ok(p, q, result.cycle.periods, tol=1e-9)

    return check


# -- harp-feasible -------------------------------------------------------------

CD_GOODS = 10
# With the two tiny kept-fault instances at the bottom of the ranking, the
# median decision falls in the middle of the T=1500 group and the p77 tail in
# the middle of the T=2000 group, never on the edge between two groups.
CD_PERIODS = (1000, 1500, 1500, 1500, 1500, 2000, 2000, 2000, 3000)
# exactly tight single-good data (every cycle ratio is 1); truth: FEASIBLE.
# T=50 is enough for every draw to fail, and keeps the slice to ~12 ms a pass,
# so fixing the fault (or stopping at the first cycle) barely moves the workload.
# Seed 20050 returns UNDECIDED; seed 20053 raises ValueError.
TIGHT_SLICE = ((50, 20_050), (50, 20_053))  # (periods, fixed seed)


def build_harp_feasible(seed: int) -> list[Instance]:
    rng = _rng(seed, 1)
    out = []
    for i, periods in enumerate(CD_PERIODS):
        s = int(rng.integers(2**31))
        r = np.random.default_rng(s)
        spec = datagen.CobbDouglasSpec(
            exponents=_shares(r, CD_GOODS), budget=float(r.uniform(0.5, 2.0)), seed=s
        )
        stats = datagen.gen_cobb_douglas(spec, periods)
        out.append(Instance(f"cd{i}-T{periods}", stats, _harp_check(stats, Status.FEASIBLE), s))
    for j, (periods, s) in enumerate(TIGHT_SLICE):
        spec = datagen.CobbDouglasSpec(exponents=np.ones(1), budget=1.0, seed=s)
        stats = datagen.gen_cobb_douglas(spec, periods)
        out.append(
            Instance(
                f"tight{j}-T{periods}",
                stats,
                _harp_check(stats, Status.FEASIBLE),
                s,
                kept_fault=True,
            )
        )
    return out


# -- harp-infeasible -----------------------------------------------------------

RANDOM_GOODS = 10
# As in harp-feasible, the three tiny kept-fault instances sit at the bottom
# of the ranking, so the median decision falls in the middle of the T=200
# group and the p77 tail in the middle of the T=300 group.
RANDOM_PERIODS = (200, 200, 200, 200, 300, 300, 300, 500)
# tiny infeasible instances rescaled so that cross expenditures overflow or
# underflow; cycle ratios are invariant, so the truth stays INFEASIBLE
RESCALED_SLICE = ((1e160, 30_160), (1e200, 30_200), (1e-200, 30_020))  # (factor, seed)


def _uniform_stats(r: np.random.Generator, periods: int, goods: int) -> MarketStatistics:
    return MarketStatistics(
        prices=r.uniform(0.5, 2.0, (periods, goods)),
        quantities=r.uniform(0.5, 2.0, (periods, goods)),
    )


def build_harp_infeasible(seed: int) -> list[Instance]:
    rng = _rng(seed, 2)
    out = []
    for i, periods in enumerate(RANDOM_PERIODS):
        s = int(rng.integers(2**31))
        stats = _uniform_stats(np.random.default_rng(s), periods, RANDOM_GOODS)
        if not min_two_cycle_log_ratio(stats.prices, stats.quantities) < PROOF_MARGIN:
            raise RuntimeError(f"seed {s}: no two-cycle proves infeasibility")
        out.append(
            Instance(f"rand{i}-T{periods}", stats, _harp_check(stats, Status.INFEASIBLE), s)
        )
    for factor, s in RESCALED_SLICE:
        base = _uniform_stats(np.random.default_rng(s), 5, 3)
        if not min_cycle_log_ratio(base.prices, base.quantities)[0] < PROOF_MARGIN:
            raise RuntimeError(f"seed {s}: the unscaled instance is not provably infeasible")
        stats = MarketStatistics(base.prices * factor, base.quantities * factor)
        out.append(
            Instance(
                f"rescaled-{factor:.0e}",
                stats,
                _harp_check(stats, Status.INFEASIBLE),
                s,
                kept_fault=True,
            )
        )
    return out


def decide_harp(stats: MarketStatistics):
    return harp.check_harp(stats)


# -- separability --------------------------------------------------------------

NESTED_PERIODS = tuple(range(6, 21))
# Rejections take ~1 ms and acceptances 50-350 ms.  With half of each, the
# median decision would be the cheapest acceptance, one seeded instance whose
# time swings 20% between seeds; with seven rejections it falls among the
# mid-sized acceptances.
BAD_PERIODS = tuple(range(2, 9))


def _nested(s: int, periods: int) -> model.PartitionedStatistics:
    r = np.random.default_rng(s)
    a = float(r.uniform(0.3, 0.7))
    q_spec = datagen.CobbDouglasSpec(exponents=_shares(r, 3), seed=s)
    y_spec = datagen.CobbDouglasSpec(exponents=_shares(r, 3), seed=s + 1)
    return datagen.gen_nested_cd(q_spec, y_spec, (a, 1.0 - a), periods=periods, seed=s)


def _bad_y_block(s: int, periods: int) -> MarketStatistics:
    """Two q-goods and two y-goods; y periods 0 and 1 replay the ratio-8/9 cycle.

    Rescaling a period's y prices or quantities leaves every cycle ratio
    unchanged; later periods and the whole q-block are ordinary positive data.
    """
    r = np.random.default_rng(s)
    y_p = np.vstack([[[1.0, 1.0], [2.0, 1.0]], r.uniform(0.5, 2.0, (periods - 2, 2))])
    y_q = np.vstack([[[0.25, 0.5], [0.5, 0.5]], r.uniform(0.2, 1.5, (periods - 2, 2))])
    y_p[:2] *= r.uniform(0.5, 2.0, (2, 1))
    y_q[:2] *= r.uniform(0.5, 2.0, (2, 1))
    q_p = r.uniform(0.3, 3.0, (periods, 2))
    q_q = r.uniform(0.2, 2.0, (periods, 2))
    return MarketStatistics(np.hstack([q_p, y_p]), np.hstack([q_q, y_q]))


def _separability_check(stats: MarketStatistics, q_block, y_block, truth: Status):
    def check(result) -> bool:
        if result.status is not truth:
            return False
        if truth is Status.INFEASIBLE:
            return True  # the embedded two-cycle, checked at build time, proves it
        return separability_ok(
            stats.prices, stats.quantities, q_block, y_block, result.lambdas, result.mus
        )

    return check


def build_separability(seed: int) -> list[Instance]:
    rng = _rng(seed, 3)
    out = []
    for i, periods in enumerate(NESTED_PERIODS):
        s = int(rng.integers(2**31))
        part = _nested(s, periods)
        check = _separability_check(part.base, part.q_block, part.y_block, Status.FEASIBLE)
        out.append(
            Instance(f"nested{i}-T{periods}", part.base, check, s, decide_args={"y_block": part.y_block})
        )
    for i, periods in enumerate(BAD_PERIODS):
        s = int(rng.integers(2**31))
        stats = _bad_y_block(s, periods)
        if not cycle_ok(stats.prices[:, 2:], stats.quantities[:, 2:], (0, 1, 0)):
            raise RuntimeError(f"seed {s}: the embedded y-block cycle is not violated")
        check = _separability_check(stats, (0, 1), (2, 3), Status.INFEASIBLE)
        out.append(Instance(f"bad{i}-T{periods}", stats, check, s, decide_args={"y_block": (2, 3)}))
    return out


def decide_separability(stats: MarketStatistics, y_block):
    return separability.check_separability(model.partition(stats, y_block))


# -- class-number --------------------------------------------------------------

# Two aggregates of the 20-instance corpus of acceptance criterion 8 (T=6,
# two consumers), chosen among its cheaper ones so that two passes fit in a
# run: one aggregate costs 2.5-10 s.  The corpus is fixed and ignores the
# seed.  Even an exact symmetry of the data, a permutation of the periods,
# moves the convex-concave search's work on one aggregate by up to 20%
# (26k-40k packed evaluations), which over two aggregates would swing
# corpus_s by more than any bound.
AGGREGATES = ((9012, 2), (9031, 3))  # (generator seed, goods)
AGGREGATE_PERIODS = 6


def _aggregate(s: int, goods: int) -> MarketStatistics:
    """Two opposite-taste Cobb-Douglas consumers with independent income paths."""
    r = np.random.default_rng(s)
    base = np.array([0.55, 0.25, 0.15, 0.05])[:goods]
    e1 = base / base.sum()
    e1[-1] = 1.0 - float(e1[:-1].sum())
    e2 = e1[::-1].copy()
    e2[-1] = 1.0 - float(e2[:-1].sum())
    T = AGGREGATE_PERIODS
    b1 = np.exp(r.uniform(np.log(0.4), np.log(2.5), T))
    b2 = np.exp(r.uniform(np.log(0.4), np.log(2.5), T))
    specs = [
        datagen.CobbDouglasSpec(exponents=e1, budget=b1, seed=s),
        datagen.CobbDouglasSpec(exponents=e2, budget=b2, seed=s),
    ]
    aggregate, _ = datagen.gen_collective(specs, periods=T, seed=s)
    return aggregate


def _class_number_check(stats: MarketStatistics):
    def check(result) -> bool:
        w = result.witness
        return (
            result.value == 2
            and w is not None
            and allocation_ok(
                stats.prices,
                stats.quantities,
                w.sub_quantities,
                w.sub_lambdas,
                w.residuals,
                consumers=2,
            )
        )

    return check


def build_class_number(seed: int) -> list[Instance]:
    out = []
    for s, goods in AGGREGATES:
        stats = _aggregate(s, goods)
        # k = 1 is infeasible: some simple cycle of the aggregate has ratio < 1 - 1e-3
        if not min_cycle_log_ratio(stats.prices, stats.quantities)[0] < PROOF_MARGIN:
            raise RuntimeError(f"aggregate {s}: k = 1 is not provably infeasible")
        out.append(
            Instance(
                f"agg{s}-n{goods}", stats, _class_number_check(stats), s, decide_args={"k_max": goods}
            )
        )
    return out


def decide_class_number(stats: MarketStatistics, k_max):
    return collective.class_number(stats, k_max=k_max)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("harp-feasible", build_harp_feasible, decide_harp, min_passes=4),
        Workload("harp-infeasible", build_harp_infeasible, decide_harp, min_passes=4),
        Workload("separability", build_separability, decide_separability, min_passes=3),
        Workload("class-number", build_class_number, decide_class_number, min_passes=2),
    )
}
