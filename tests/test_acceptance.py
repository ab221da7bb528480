"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all); tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import embed_bad_y_block, make_aggregate, make_cd, make_nested
from phrp import convex
from phrp.cli import main as cli_main
from phrp.collective import (
    build_collective_program,
    check_collective,
    class_number,
    split_witness,
    verify_allocation,
)
from phrp.convex.packed import PackedProgram
from phrp.datagen import perturb
from phrp.harp import check_harp, recover_utility, verify_certificate
from phrp.model import MarketStatistics, Status, save_statistics
from phrp.oracle import (
    _short_cycle_minimum,
    oracle_collective,
    oracle_harp,
    oracle_separability,
)
from phrp.separability import (
    SeparabilityInstance,
    build_separability_program,
    check_separability,
    verify_separability_solution,
    young_transform,
)


def _report(name: str, ok: bool, extra: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({extra})" if extra else ""))
    assert ok, f"{name}: {extra}"


# ---------------------------------------------------------------------------
# shared corpora (module-scoped so paired criteria reuse the same runs)


@pytest.fixture(scope="module")
def harp_corpus():
    rng = np.random.default_rng(1001)
    instances = []
    for i in range(200):
        periods = int(rng.integers(2, 51))
        goods = int(rng.integers(2, 21))
        instances.append(make_cd(10_000 + i, periods=periods, goods=goods))
    return instances


@pytest.fixture(scope="module")
def harp_results(harp_corpus):
    started = time.perf_counter()
    results = [check_harp(stats) for stats in harp_corpus]
    verified = [
        res.status is Status.FEASIBLE
        and verify_certificate(stats, res.certificate)
        for stats, res in zip(harp_corpus, results)
    ]
    elapsed = time.perf_counter() - started
    return results, verified, elapsed


@pytest.fixture(scope="module")
def separable_runs():
    rng = np.random.default_rng(2002)
    runs = []
    for i in range(50):
        periods = int(rng.integers(3, 13))
        part = make_nested(7000 + i, periods=periods, q_goods=3, y_goods=3)
        started = time.perf_counter()
        result = check_separability(part)
        runs.append((part, result, time.perf_counter() - started))
    return runs


@pytest.fixture(scope="module")
def collective_runs():
    runs = []
    seed = 0
    while len(runs) < 20 and seed < 400:
        goods = (2, 3, 4)[len(runs) % 3]
        aggregate, _ = make_aggregate(9000 + seed, periods=6, goods=goods)
        seed += 1
        harp_res = check_harp(aggregate)
        if harp_res.status is not Status.INFEASIBLE:
            continue
        if harp_res.cycle.cycle_ratio >= 1.0 - 1e-3:
            continue
        started = time.perf_counter()
        result = class_number(aggregate, k_max=goods)
        runs.append((aggregate, result, time.perf_counter() - started))
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_harp_correctness(harp_corpus, harp_results):
    results, verified, elapsed = harp_results
    feasible = sum(r.status is Status.FEASIBLE for r in results)
    ok = feasible == 200 and all(verified) and elapsed < 5.0
    _report(
        "criterion 1: harp correctness",
        ok,
        f"{feasible}/200 feasible, all certificates verified, {elapsed:.2f}s",
    )


def test_criterion_02_harp_rejection(infeasible2):
    result = check_harp(infeasible2)
    ok = (
        result.status is Status.INFEASIBLE
        and result.cycle is not None
        and result.cycle.periods == (0, 1, 0)
        and abs(result.cycle.cycle_ratio - 8.0 / 9.0) <= 1e-12
    )
    _report(
        "criterion 2: harp rejection",
        ok,
        f"cycle {result.cycle.periods}, ratio {result.cycle.cycle_ratio!r}",
    )


def test_criterion_03_utility_reconstruction(harp_corpus, harp_results):
    results, _, _ = harp_results
    rng = np.random.default_rng(77)
    worst_consistency = 0.0
    worst_homogeneity = 0.0
    for stats, res in zip(harp_corpus, results):
        f = recover_utility(res.certificate, stats)
        own = np.einsum("ti,ti->t", stats.prices, stats.quantities)
        values = f(stats.quantities)
        rel = np.abs(values - res.certificate.lambdas * own) / (
            res.certificate.lambdas * own
        )
        worst_consistency = max(worst_consistency, float(rel.max()))
        x = rng.uniform(0.1, 2.0, stats.goods)
        fx = f(x)
        for c in (0.5, 3.0):
            err = abs(f(c * x) - c * fx) / (c * fx)
            worst_homogeneity = max(worst_homogeneity, err)
    ok = worst_consistency <= 1e-9 and worst_homogeneity <= 1e-12
    _report(
        "criterion 3: utility reconstruction",
        ok,
        f"consistency {worst_consistency:.2e} <= 1e-9, "
        f"homogeneity {worst_homogeneity:.2e} <= 1e-12",
    )


def _interior_point(prog, rng):
    packed = PackedProgram(prog)
    base = prog.start_point()
    slack = np.zeros(base.size, dtype=bool)
    slack[list(prog.slack_indices)] = True
    for _ in range(80):
        x = base.copy()
        x[~slack] += rng.uniform(-0.35, 0.35, int((~slack).sum()))
        x[slack] = packed.lo[slack] + rng.uniform(0.05, 0.6) * (
            packed.hi[slack] - packed.lo[slack]
        )
        if packed.eval(x).in_domain:
            return x
        base[~slack] -= 0.25
    raise AssertionError("no interior point found")


def test_criterion_04_gradient_check():
    rng = np.random.default_rng(404)
    worst = 0.0
    pairs = 0
    programs = []
    for i in range(50):
        part = make_nested(11_000 + i, periods=int(rng.integers(2, 5)),
                           q_goods=2, y_goods=2)
        programs.append(build_separability_program(
            SeparabilityInstance.from_partition(part)))
    for i in range(50):
        aggregate, _ = make_aggregate(12_000 + i, periods=int(rng.integers(2, 4)),
                                      goods=2)
        programs.append(build_collective_program(aggregate, k=2))
    for prog in programs:
        x = _interior_point(prog, rng)
        pairs += 1
        packed = PackedProgram(prog)
        picks = rng.choice(packed.m, size=min(8, packed.m), replace=False)
        analytic = packed.grad_rows(packed.eval(x))[picks]
        fd = np.zeros_like(analytic)
        h = 1e-6
        for j in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (packed.eval(xp).values[picks] - packed.eval(xm).values[picks]) / (2 * h)
        for a, f in zip(analytic, fd):
            scale = max(1e-8, float(np.abs(a).max()), float(np.abs(f).max()))
            worst = max(worst, float(np.abs(a - f).max()) / scale)
    ok = pairs == 100 and worst <= 1e-5
    _report(
        "criterion 4: solver gradient check",
        ok,
        f"{pairs} program/point pairs, worst relative error {worst:.2e} <= 1e-5",
    )


def test_criterion_05_separability_acceptance(separable_runs):
    failures = []
    worst_time = 0.0
    for part, result, elapsed in separable_runs:
        worst_time = max(worst_time, elapsed)
        inst = SeparabilityInstance.from_partition(part)
        good = (
            result.status is Status.FEASIBLE
            and verify_separability_solution(inst, result.lambdas, result.mus)
            and elapsed < 10.0
        )
        if not good:
            failures.append((part.base.periods, result.status.value))
    _report(
        "criterion 5: separability acceptance",
        not failures,
        f"50/50 separable with verified multipliers, worst {worst_time:.2f}s < 10s"
        if not failures
        else f"failures: {failures}",
    )


def test_criterion_06_separability_rejection():
    failures = []
    for i in range(50):
        part = embed_bad_y_block(5000 + i, periods=2 + (i % 7))
        result = check_separability(part)
        if result.status is not Status.INFEASIBLE:
            failures.append((i, result.status.value))
    _report(
        "criterion 6: separability rejection",
        not failures,
        "50/50 rejected" if not failures else f"failures: {failures}",
    )


def test_criterion_07_duality(separable_runs):
    worst_identity = 0.0
    worst_excess = -np.inf
    for part, result, _ in separable_runs:
        u1 = result.subutility
        periods = part.base.periods
        nu = np.array([young_transform(u1, part.y_prices[t]) for t in range(periods)])
        u1_data = np.array([u1(part.y_quantities[t]) for t in range(periods)])
        cross = part.y_prices @ part.y_quantities.T  # [tau, t]
        own = np.diag(cross)
        identity = np.abs(nu * u1_data - own) / own
        worst_identity = max(worst_identity, float(identity.max()))
        excess = (nu[:, None] * u1_data[None, :] - cross * (1.0 + 1e-8)) / cross
        worst_excess = max(worst_excess, float(excess.max()))
    ok = worst_identity <= 1e-8 and worst_excess <= 0.0
    _report(
        "criterion 7: duality identities",
        ok,
        f"identity error {worst_identity:.2e} <= 1e-8, "
        f"inequality slack {worst_excess:.2e} <= 0",
    )


def test_criterion_08_collective_rationality(collective_runs):
    failures = []
    worst_time = 0.0
    for aggregate, result, elapsed in collective_runs:
        worst_time = max(worst_time, elapsed)
        good = (
            result.value == 2
            and result.status == "FOUND"
            and result.witness is not None
            and verify_allocation(aggregate, result.witness)
            and elapsed < 60.0
        )
        if not good:
            failures.append((result.value, result.status))
    ok = len(collective_runs) == 20 and not failures
    _report(
        "criterion 8: collective rationality",
        ok,
        f"20/20 class number 2 with verified witnesses, worst {worst_time:.2f}s < 60s"
        if ok
        else f"failures: {failures}",
    )


def test_criterion_09_monotonicity(collective_runs):
    failures = []
    for aggregate, result, _ in collective_runs:
        bigger = split_witness(result.witness, consumer=0)
        accepted = check_collective(aggregate, bigger.consumers, hint=bigger)
        if not (
            verify_allocation(aggregate, bigger)
            and accepted.status is Status.FEASIBLE
        ):
            failures.append(aggregate.periods)
    _report(
        "criterion 9: acceptance monotone in k",
        not failures,
        "split-in-half witnesses accepted at k+1 on all 20 instances"
        if not failures
        else f"failures: {failures}",
    )


def test_criterion_10_oracle_agreement():
    undecided = Status.UNDECIDED
    mismatches = []
    checked = {"harp": 0, "separability": 0, "collective": 0}

    kept = seed = 0
    while kept < 50 and seed < 300:
        stats = make_cd(3000 + seed, periods=2 + seed % 2, goods=2 + seed % 2)
        if seed % 2:
            stats = perturb(stats, 0.35, seed=seed)
        seed += 1
        if abs(_short_cycle_minimum(stats.cross_expenditures()) - 1.0) < 1e-5:
            continue
        kept += 1
        o, p = oracle_harp(stats), check_harp(stats)
        if o.status is not undecided and p.status is not undecided:
            checked["harp"] += 1
            if o.status is not p.status:
                mismatches.append(("harp", seed - 1, o.status.value, p.status.value))

    kept = seed = 0
    while kept < 50 and seed < 300:
        if seed % 2 == 0:
            part = make_nested(4000 + seed, periods=2, q_goods=2, y_goods=2)
        else:
            part = embed_bad_y_block(4000 + seed, periods=2 + seed % 2)
        seed += 1
        xy = part.y_prices @ part.y_quantities.T
        if abs(_short_cycle_minimum(xy) - 1.0) < 1e-5:
            continue
        kept += 1
        o, p = oracle_separability(part), check_separability(part)
        if o.status is not undecided and p.status is not undecided:
            checked["separability"] += 1
            if o.status is not p.status:
                mismatches.append(
                    ("separability", seed - 1, o.status.value, p.status.value)
                )

    kept = seed = 0
    while kept < 50 and seed < 300:
        kind = seed % 3
        if kind == 0:
            stats, _ = make_aggregate(6000 + seed, periods=2, goods=2)
        elif kind == 1:
            stats = make_cd(6000 + seed, periods=2, goods=2)
        else:
            rng = np.random.default_rng(6000 + seed)
            stats = MarketStatistics(
                prices=np.exp(rng.uniform(-1.5, 1.5, (2, 2))),
                quantities=np.exp(rng.uniform(-1.5, 1.5, (2, 2))),
            )
        seed += 1
        if abs(_short_cycle_minimum(stats.cross_expenditures()) - 1.0) < 1e-5:
            continue
        kept += 1
        o, p = oracle_collective(stats, 2), check_collective(stats, 2)
        if o.status is not undecided and p.status is not undecided:
            checked["collective"] += 1
            if o.status is not p.status:
                mismatches.append(
                    ("collective", seed - 1, o.status.value, p.status.value)
                )

    ok = not mismatches and all(v > 0 for v in checked.values())
    _report(
        "criterion 10: oracle agreement",
        ok,
        f"mutually decided cases per problem {checked}, 0 disagreements"
        if ok
        else f"mismatches: {mismatches}",
    )


def test_criterion_11_determinism(tmp_path, feasible2):
    def run_twice(args, name):
        reports = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.json"
            code = cli_main(args + ["--output", str(out)])
            payload = json.loads(out.read_text())
            payload.pop("timings")
            reports.append((code, json.dumps(payload, sort_keys=True)))
        return reports[0] == reports[1]

    csv_feasible = tmp_path / "feasible.csv"
    save_statistics(feasible2, csv_feasible)
    agg_csv = tmp_path / "agg.csv"
    nested_csv = tmp_path / "nested.csv"
    identical = [
        run_twice(["harp", "--input", str(csv_feasible)], "harp"),
        run_twice(
            ["gen", "--family", "nested-cd", "--goods", "4", "--y-goods", "2",
             "--periods", "4", "--seed", "17", "--out", str(nested_csv)],
            "gen",
        ),
        run_twice(
            ["separability", "--input", str(nested_csv), "--y-cols", "3,4"],
            "separability",
        ),
        run_twice(
            ["gen", "--family", "collective", "--goods", "2", "--consumers", "2",
             "--periods", "4", "--seed", "18", "--out", str(agg_csv)],
            "gen-collective",
        ),
        run_twice(["collective", "--input", str(agg_csv), "--k", "2"], "collective"),
        run_twice(["class-number", "--input", str(agg_csv)], "class-number"),
    ]
    aggregate, _ = make_aggregate(1)
    prog = build_collective_program(aggregate, k=2)
    res1, res2 = convex.solve(prog), convex.solve(prog)
    solver_identical = (
        res1.objective == res2.objective
        and res1.iterations == res2.iterations
        and np.array_equal(res1.point, res2.point)
    )
    ok = all(identical) and solver_identical
    _report(
        "criterion 11: determinism",
        ok,
        "reports bitwise identical modulo timings; solver runs bitwise identical",
    )
