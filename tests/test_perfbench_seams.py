"""The benchmark's tracer still finds every boundary it wraps.

``perfbench/tracing.py`` replaces public functions where their callers look
them up (``phrp._kernels.bf_rounds``, ``harp.check_harp`` and so on).  If one
of them moves, ``Tracer.installed`` raises ``KeyError``; this test turns that
into a tier-1 failure instead of a broken ``perfbench/run.py --trace 1``.  It
also requires the tracer to see a repair solve: it counts them by wrapping
``phrp.convex.solve`` and by the ``-repair-`` in the program's name.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from conftest import make_cd, make_nested, perturbed_nested
from phrp import _kernels, convex, harp, separability

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    original = _kernels.bf_rounds
    tracer = tracing.Tracer()
    with tracer.installed():
        assert _kernels.bf_rounds is not original
        harp.check_harp(make_cd(0, periods=6, goods=3))
        inst = separability.SeparabilityInstance.from_partition(make_nested(1, periods=3))
        convex.solve(separability.build_separability_program(inst))
        metrics = tracer.take().metrics()
        # this instance reaches the convex-concave search's repair solves
        separability.check_separability(perturbed_nested(5030, 5, sigma=0.3, noise_seed=35))
    assert _kernels.bf_rounds is original
    assert metrics["harp.calls"] == 1
    assert metrics["kernels.relax_rounds"] > 0
    assert metrics["kernels.segment_s"] > 0.0
    assert metrics["solver.main_solves"] == 1
    assert metrics["packed.evals"] > 0
    repair = tracer.take().metrics()
    assert repair["solver.repair_solves"] >= 1
    assert repair["solver.repair_newton_steps"] > 0
