"""Per-layer tracing from outside the program.

Each public function at a module boundary is replaced, where its caller
looks it up, by a wrapper that times the call and counts it.  A layer's self
time is its span's duration minus the time covered by its child spans.
Nothing inside ``phrp`` changes; :meth:`Tracer.installed` restores every
original on exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import phrp._kernels
import phrp.convex
import phrp.convex.packed
import phrp.convex.program
import phrp.convex.solver
from phrp import collective, harp, model, separability
from phrp.model import Status

COUNT_METRICS = (
    "harp.calls",
    "kernels.relax_calls",
    "kernels.relax_rounds",
    "program.constraints",
    "packed.programs",
    "packed.evals",
    "solver.main_solves",
    "solver.main_newton_steps",
    "solver.repair_solves",
    "solver.repair_newton_steps",
    "separability.verify_calls",
    "collective.checks",
    "collective.verify_calls",
)
RATIO_METRICS = ("collective.verify_pass_ratio", "collective.repair_per_witness")


def metric_unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    return "ratio" if name in RATIO_METRICS else "s"


class Tally:
    """Calls, total and self seconds per layer, plus counters read from results."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def add(self, other: "Tally") -> None:
        for field in ("calls", "total", "self_time", "counts"):
            getattr(self, field).update(getattr(other, field))

    def metrics(self) -> dict[str, float]:
        c, t, s, n = self.calls, self.total, self.self_time, self.counts
        witnesses = n["collective.witnesses"]
        return {
            "model.ingest_s": t["model.ingest"],
            "harp.calls": c["harp"],
            "harp.self_s": s["harp"],
            "harp.cross_graph_s": t["harp.cross_graph"],
            "harp.potentials_s": t["harp.potentials"],
            "harp.cycle_s": s["harp.potentials"],
            "harp.verify_s": t["harp.verify"],
            "kernels.relax_calls": c["kernels.relax"],
            "kernels.relax_rounds": n["kernels.relax_rounds"],
            "kernels.relax_s": t["kernels.relax"],
            "kernels.segment_s": t["kernels.segment"],
            "program.main_build_s": t["program.main_build"],
            "program.constraints": c["program.add_constraint"],
            "packed.programs": c["packed.pack"],
            "packed.pack_s": t["packed.pack"],
            "packed.evals": c["packed.eval"],
            "packed.eval_s": t["packed.eval"],
            "packed.hessian_s": t["packed.hessian"],
            "solver.main_solves": c["solver.main"],
            "solver.main_newton_steps": n["solver.main_newton_steps"],
            "solver.main_s": t["solver.main"],
            "solver.repair_solves": c["solver.repair"],
            "solver.repair_newton_steps": n["solver.repair_newton_steps"],
            "solver.repair_s": t["solver.repair"],
            "separability.self_s": s["separability"],
            "separability.verify_calls": c["separability.verify"],
            "separability.verify_s": t["separability.verify"],
            "collective.checks": c["collective.check"],
            "collective.self_s": s["collective.check"] + s["collective.class_number"],
            "collective.verify_calls": c["collective.verify"],
            "collective.verify_s": t["collective.verify"],
            "collective.verify_pass_ratio": (
                n["collective.verify_pass"] / c["collective.verify"]
                if c["collective.verify"]
                else 0.0
            ),
            "collective.repair_per_witness": (
                n["collective.repair_solves"] / witnesses if witnesses else 0.0
            ),
        }

    def layers(self) -> dict[str, dict[str, float]]:
        """Raw figures per layer, for the traced-run dump."""
        return {
            name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }


def _solve_layer(program, *args, **kwargs) -> str:
    """Main and repair solves are told apart by the program's name."""
    return "solver.repair" if "-repair-" in program.name else "solver.main"


class Tracer:
    """Wraps the boundaries and adds every traced call to the current tally."""

    def __init__(self):
        self._open: list[float] = []  # child time covered so far, per open span
        self.tally = Tally()

    def take(self) -> Tally:
        """The tally so far; later calls go to a fresh one."""
        tally, self.tally = self.tally, Tally()
        return tally

    def wrap(self, layer, fn, on_result=None):
        """``fn`` timed as ``layer`` (a name, or a function of the call's arguments)."""

        def traced(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                tally = self.tally
                tally.calls[name] += 1
                tally.total[name] += elapsed
                tally.self_time[name] += elapsed - children
            if on_result is not None:
                on_result(name, args, result)
            return result

        return traced

    # -- counters read from results ---------------------------------------------

    def _relax_rounds(self, name, args, result):
        self.tally.counts["kernels.relax_rounds"] += int(result[2])

    def _newton_steps(self, name, args, result):
        self.tally.counts[f"{name}_newton_steps"] += int(result.iterations)
        if args[0].name.startswith("collective-repair-"):
            self.tally.counts["collective.repair_solves"] += 1

    def _allocation_verified(self, name, args, result):
        self.tally.counts["collective.verify_pass"] += bool(result)

    def _collective_decided(self, name, args, result):
        if result.k >= 2 and result.status is Status.FEASIBLE:
            self.tally.counts["collective.witnesses"] += 1

    def _patches(self):
        """(namespace, attribute, layer, on_result) for every traced boundary."""
        packed = phrp.convex.packed.PackedProgram
        program = phrp.convex.program.LogConvexProgram
        return [
            (model, "load_statistics", "model.ingest", None),
            (harp, "check_harp", "harp", None),
            (separability, "check_harp", "harp", None),
            (collective, "check_harp", "harp", None),
            (harp, "build_cross_graph", "harp.cross_graph", None),
            (harp, "shortest_potentials", "harp.potentials", None),
            (separability, "shortest_potentials", "harp.potentials", None),
            (harp, "verify_certificate", "harp.verify", None),
            (collective, "verify_certificate", "harp.verify", None),
            (phrp._kernels, "bf_rounds", "kernels.relax", self._relax_rounds),
            (phrp._kernels, "segment_logsumexp", "kernels.segment", None),
            (phrp._kernels, "segment_sum", "kernels.segment", None),
            (separability, "build_separability_program", "program.main_build", None),
            (collective, "build_collective_program", "program.main_build", None),
            (program, "add_constraint", "program.add_constraint", None),
            (phrp.convex.solver, "PackedProgram", "packed.pack", None),
            (packed, "eval", "packed.eval", None),
            (packed, "hessian_weighted", "packed.hessian", None),
            (phrp.convex, "solve", _solve_layer, self._newton_steps),
            (separability, "check_separability", "separability", None),
            (separability, "verify_separability_solution", "separability.verify", None),
            (collective, "class_number", "collective.class_number", None),
            (collective, "check_collective", "collective.check", self._collective_decided),
            (collective, "verify_allocation", "collective.verify", self._allocation_verified),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for namespace, attr, layer, on_result in self._patches():
                original = namespace.__dict__[attr]
                saved.append((namespace, attr, original))
                setattr(namespace, attr, self.wrap(layer, original, on_result))
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)
