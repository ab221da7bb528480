"""Tests of the benchmark's independent checkers.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
acceptance is paired with a rejection, so a checker that accepts everything
fails.
"""

import numpy as np
import pytest

from checks import (
    afriat_ok,
    allocation_ok,
    cycle_log_ratio,
    cycle_ok,
    min_cycle_log_ratio,
    min_two_cycle_log_ratio,
    separability_ok,
)

# two periods rationalizable by a PH utility; lambdas (4/7, 3/7) work
FEASIBLE_P = np.array([[1.0, 1.0], [2.0, 1.0]])
FEASIBLE_Q = np.array([[0.5, 0.5], [0.25, 0.5]])
GOOD_LAMBDAS = np.array([4.0, 3.0]) / 7.0
# two periods with the 0 -> 1 -> 0 cycle of ratio 8/9
INFEASIBLE_P = np.array([[1.0, 1.0], [2.0, 1.0]])
INFEASIBLE_Q = np.array([[0.25, 0.5], [0.5, 0.5]])


def test_feasible_certificate_accepted():
    assert afriat_ok(FEASIBLE_P, FEASIBLE_Q, GOOD_LAMBDAS)


@pytest.mark.parametrize("period", [0, 1])
def test_nudged_certificate_rejected(period):
    lam = GOOD_LAMBDAS.copy()
    lam[period] += 1e-3 if period == 1 else -1e-3
    assert not afriat_ok(FEASIBLE_P, FEASIBLE_Q, lam)


def test_certificate_shape_and_sign_rejected():
    assert not afriat_ok(FEASIBLE_P, FEASIBLE_Q, [1.0])
    assert not afriat_ok(FEASIBLE_P, FEASIBLE_Q, [0.5, -0.5])


def test_violation_cycle_accepted():
    assert cycle_ok(INFEASIBLE_P, INFEASIBLE_Q, (0, 1, 0))
    assert abs(cycle_log_ratio(INFEASIBLE_P, INFEASIBLE_Q, (0, 1, 0)) - np.log(8 / 9)) < 1e-12


def test_invalid_or_nonviolating_cycles_rejected():
    assert not cycle_ok(FEASIBLE_P, FEASIBLE_Q, (0, 1, 0))  # ratio 9/8
    assert not cycle_ok(INFEASIBLE_P, INFEASIBLE_Q, (0, 1))  # not closed
    assert not cycle_ok(INFEASIBLE_P, INFEASIBLE_Q, (0, 0, 0))  # repeats a period
    assert not cycle_ok(INFEASIBLE_P, INFEASIBLE_Q, (0, 2, 0))  # no such period


@pytest.mark.parametrize("factor", [1e160, 1e200, 1e-200])
def test_checks_survive_rescaling(factor):
    assert afriat_ok(FEASIBLE_P * factor, FEASIBLE_Q * factor, GOOD_LAMBDAS)
    assert cycle_ok(INFEASIBLE_P * factor, INFEASIBLE_Q * factor, (0, 1, 0))
    assert not afriat_ok(INFEASIBLE_P * factor, INFEASIBLE_Q * factor, [0.5, 0.5])


def test_cycle_minimum_by_enumeration():
    best, cycle = min_cycle_log_ratio(INFEASIBLE_P, INFEASIBLE_Q)
    assert abs(best - np.log(8 / 9)) < 1e-12 and cycle == (0, 1, 0)
    assert min_cycle_log_ratio(FEASIBLE_P, FEASIBLE_Q)[0] > 0.0
    assert abs(min_two_cycle_log_ratio(INFEASIBLE_P, INFEASIBLE_Q) - np.log(8 / 9)) < 1e-12


def test_separability_at_constant_prices():
    # with the same prices every period, equal lambdas and mus satisfy (a) and (b)
    p = np.tile([1.0, 2.0, 0.5], (3, 1))
    q = np.array([[1.0, 0.5, 2.0], [0.7, 0.9, 1.1], [2.0, 0.3, 0.4]])
    ones = np.full(3, 1.0 / 3.0)
    assert separability_ok(p, q, (0,), (1, 2), ones, np.ones(3))
    assert not separability_ok(p, q, (0,), (1, 2), ones, [1.0, 1.0, 1.0 + 1e-3])
    assert not separability_ok(p, q, (0,), (1, 2), [0.3, 0.3, 0.4], np.ones(3))


def _two_consumer_split():
    sub = np.stack([FEASIBLE_Q, 2.0 * FEASIBLE_Q])
    lams = np.stack([GOOD_LAMBDAS, GOOD_LAMBDAS])
    return sub, lams, np.zeros_like(FEASIBLE_Q), sub.sum(axis=0)


def test_balanced_split_accepted():
    sub, lams, res, totals = _two_consumer_split()
    assert allocation_ok(FEASIBLE_P, totals, sub, lams, res, consumers=2)


def test_broken_split_rejected():
    sub, lams, res, totals = _two_consumer_split()
    unbalanced = totals * (1 + 1e-6)
    assert not allocation_ok(FEASIBLE_P, unbalanced, sub, lams, res, consumers=2)
    nudged = lams.copy()
    nudged[1, 1] += 1e-3
    assert not allocation_ok(FEASIBLE_P, totals, sub, nudged, res, consumers=2)
    big_residual = np.full_like(res, 1e-3)
    padded = totals + big_residual
    assert not allocation_ok(FEASIBLE_P, padded, sub, lams, big_residual, consumers=2)


def test_split_with_wrong_consumer_count_rejected():
    sub, lams, res, totals = _two_consumer_split()
    assert not allocation_ok(FEASIBLE_P, totals, sub, lams, res, consumers=3)
    # three consumers that balance to the same totals are not a two-consumer witness
    third = np.stack([sub[0], sub[1] / 2.0, sub[1] / 2.0])
    three_lams = np.stack([GOOD_LAMBDAS] * 3)
    assert allocation_ok(FEASIBLE_P, totals, third, three_lams, res, consumers=3)
    assert not allocation_ok(FEASIBLE_P, totals, third, three_lams, res, consumers=2)
