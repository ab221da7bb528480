"""Shared fixtures: the two hand-derived instances and seeded generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from phrp.datagen import CobbDouglasSpec, gen_collective, gen_nested_cd
from phrp.model import MarketStatistics


@pytest.fixture
def feasible2() -> MarketStatistics:
    """Two periods rationalizable by a PH utility; lambdas (4/7, 3/7) work."""
    return MarketStatistics(
        prices=[[1.0, 1.0], [2.0, 1.0]], quantities=[[0.5, 0.5], [0.25, 0.5]]
    )


@pytest.fixture
def infeasible2() -> MarketStatistics:
    """Two periods with the 0 -> 1 -> 0 cycle ratio 8/9 < 1."""
    return MarketStatistics(
        prices=[[1.0, 1.0], [2.0, 1.0]], quantities=[[0.25, 0.5], [0.5, 0.5]]
    )


def make_cd(seed: int, periods: int, goods: int) -> MarketStatistics:
    rng = np.random.default_rng(seed + 917)
    raw = rng.uniform(0.5, 1.5, goods)
    exps = raw / raw.sum()
    exps[-1] = 1.0 - float(exps[:-1].sum())
    spec = CobbDouglasSpec(exponents=exps, budget=float(rng.uniform(0.5, 2.0)), seed=seed)
    from phrp.datagen import gen_cobb_douglas

    return gen_cobb_douglas(spec, periods)


def make_nested(seed: int, periods: int, q_goods: int = 3, y_goods: int = 3):
    rng = np.random.default_rng(seed + 2_000_003)

    def shares(size):
        raw = rng.uniform(0.5, 1.5, size)
        s = raw / raw.sum()
        s[-1] = 1.0 - float(s[:-1].sum())
        return s

    a = float(rng.uniform(0.3, 0.7))
    q_spec = CobbDouglasSpec(exponents=shares(q_goods), seed=seed)
    y_spec = CobbDouglasSpec(exponents=shares(y_goods), seed=seed + 1)
    return gen_nested_cd(q_spec, y_spec, (a, 1.0 - a), periods=periods, seed=seed)


def make_aggregate(seed: int, periods: int = 6, goods: int = 2):
    """Two opposite-taste consumers with independent income paths."""
    rng = np.random.default_rng(seed)
    base = np.array([0.55, 0.25, 0.15, 0.05])[:goods]
    e1 = base / base.sum()
    e1[-1] = 1.0 - float(e1[:-1].sum())
    e2 = e1[::-1].copy()
    e2[-1] = 1.0 - float(e2[:-1].sum())
    b1 = np.exp(rng.uniform(np.log(0.4), np.log(2.5), periods))
    b2 = np.exp(rng.uniform(np.log(0.4), np.log(2.5), periods))
    s1 = CobbDouglasSpec(exponents=e1, budget=b1, seed=seed)
    s2 = CobbDouglasSpec(exponents=e2, budget=b2, seed=seed)
    return gen_collective([s1, s2], periods=periods, seed=seed)


def embed_bad_y_block(seed: int, periods: int = 4, q_goods: int = 2):
    """Partitioned data whose y-block provably violates the cycle condition.

    Periods 0 and 1 of the y-block replicate the ratio-8/9 violation (row
    scalings leave every cycle product unchanged); later periods and the
    whole q-block are ordinary positive data.
    """
    from phrp.model import partition

    rng = np.random.default_rng(seed + 31_337)
    y_p = np.array([[1.0, 1.0], [2.0, 1.0]])
    y_q = np.array([[0.25, 0.5], [0.5, 0.5]])
    y_prices = np.vstack([y_p, rng.uniform(0.5, 2.0, (periods - 2, 2))])
    y_quant = np.vstack([y_q, rng.uniform(0.2, 1.5, (periods - 2, 2))])
    y_prices[:2] *= rng.uniform(0.5, 2.0, (2, 1))
    y_quant[:2] *= rng.uniform(0.5, 2.0, (2, 1))
    q_prices = rng.uniform(0.3, 3.0, (periods, q_goods))
    q_quant = rng.uniform(0.2, 2.0, (periods, q_goods))
    stats = MarketStatistics(
        prices=np.hstack([q_prices, y_prices]),
        quantities=np.hstack([q_quant, y_quant]),
    )
    return partition(stats, [q_goods, q_goods + 1])


def rescaled_infeasible(factor: float) -> MarketStatistics:
    """An infeasible T=5, n=3 instance with every price and quantity times factor.

    Cycle ratios do not change, so the truth stays INFEASIBLE; at 1e160 and
    1e200 the cross expenditures overflow to inf, at 1e-200 they underflow to 0.
    """
    rng = np.random.default_rng(30160)
    prices = rng.uniform(0.5, 2.0, (5, 3))
    quantities = rng.uniform(0.5, 2.0, (5, 3))
    return MarketStatistics(prices=prices * factor, quantities=quantities * factor)


def extreme_scales() -> MarketStatistics:
    """A CD instance whose period 0 prices are times 1e-200 and period 1's times 1e200.

    Rescaling one period's prices is an exact symmetry, so the truth stays
    FEASIBLE, but the multiplier ratio it needs is about 1e400, which float64
    cannot hold; every cross expenditure stays finite and positive.
    """
    base = make_cd(0, periods=4, goods=3)
    prices = base.prices * np.array([[1e-200], [1e200], [1.0], [1.0]])
    return MarketStatistics(prices=prices, quantities=base.quantities)


def perturbed_nested(seed: int, periods: int, sigma: float, noise_seed: int):
    """``make_nested`` with its quantities times exp(sigma * N(0, 1)), same partition."""
    from phrp.model import partition

    part = make_nested(seed, periods)
    shape = part.base.quantities.shape
    noise = np.exp(sigma * np.random.default_rng(noise_seed).standard_normal(shape))
    stats = MarketStatistics(part.base.prices, part.base.quantities * noise)
    return partition(stats, part.y_block)


def assert_program_rows(program, rows):
    """``program``'s one block of rows, with no residual part, equals ``rows``,
    given one by one as (const, {var: coef}, terms); see :func:`assert_block_rows`."""
    (block,) = program.blocks
    assert_block_rows(block, [row + (None,) for row in rows])


def _assert_row(coef, const, term_arrays, j, expected):
    want_const, want_coefs, want_terms = expected
    assert const[j] == want_const
    nonzero = np.flatnonzero(coef[j])
    assert dict(zip(nonzero.tolist(), coef[j, nonzero].tolist())) == {
        v: c for v, c in want_coefs.items() if c != 0.0
    }
    term_row, weight, var = term_arrays
    mine = term_row == j
    assert tuple(zip(weight[mine].tolist(), var[mine].tolist())) == want_terms


def assert_block_rows(block, rows):
    """``block``'s rows equal ``rows``, given one by one as
    (const, {var: coef}, terms, res) with res None or (base const, {var: coef}, terms).

    ``terms`` is a tuple of (weight, variable) pairs; coefficients that are
    exactly 0 may be left out of ``rows``.  Comparisons are exact.
    """
    assert len(block.const) == len(rows)
    assert (block.res is None) == all(row[3] is None for row in rows)
    for j, (const, coefs, terms, res) in enumerate(rows):
        _assert_row(block.coef, block.const, block.lse, j, (const, coefs, terms))
        if res is not None:
            _assert_row(*block.res, j, res)


def reference_values(program, x):
    """Every row of ``program`` at ``x``, one row at a time in plain ``math``.

    Rows are read as the module docstring of ``phrp.convex.program`` states
    them; a residual that is not positive gives +inf.
    """
    x = [float(v) for v in x]

    def affine(coef, const, j):
        return const[j] + math.fsum(c * x[i] for i, c in enumerate(coef[j].tolist()))

    def exps(terms, j):
        return [w * math.exp(x[v]) for r, w, v in zip(*(a.tolist() for a in terms)) if r == j]

    values = []
    for block in program.blocks:
        for j in range(len(block.const)):
            g = affine(block.coef, block.const, j)
            lse = exps(block.lse, j)
            if lse:
                g += math.log(math.fsum(lse))
            if block.res is not None:
                base_coef, base_const, terms = block.res
                residual = affine(base_coef, base_const, j) - math.fsum(exps(terms, j))
                g = g - math.log(residual) if residual > 0.0 else math.inf
            values.append(g)
    return np.array(values)
