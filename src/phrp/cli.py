"""Command-line front end.

Each command ingests the CSV schema of :mod:`phrp.model`, runs one analysis
and writes a JSON report.  Exit codes are scripting-friendly:

* 0 - FEASIBLE / SEPARABLE / class number found
* 1 - INFEASIBLE / NOT SEPARABLE
* 2 - UNDECIDED (also: class-number with an undecided k below the accepted
  one, or with no k accepted and some k undecided)
* 3 - class-number budget exhausted: every k up to ``--k-max`` is INFEASIBLE
* 10 - usage errors, 11 - input/output errors, 12 - internal errors (a defect)

Reports are deterministic given (input, flags, seed) except for the
``timings`` subtree, and validate against the packaged ``report.schema.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from importlib import resources
from pathlib import Path

import numpy as np

from . import collective as collective_mod
from . import datagen, harp, model, separability

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNDECIDED = 2
EXIT_NOT_FOUND = 3
EXIT_USAGE = 10
EXIT_IO = 11
EXIT_INTERNAL = 12

_STATUS_EXIT = {
    model.Status.FEASIBLE: EXIT_FEASIBLE,
    model.Status.INFEASIBLE: EXIT_INFEASIBLE,
    model.Status.UNDECIDED: EXIT_UNDECIDED,
}


class UsageError(Exception):
    """Bad flags or flag combinations."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _build_parser() -> _Parser:
    parser = _Parser(prog="phrp", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="input CSV (p1..pn,q1..qn)")
        p.add_argument("--output", help="report path (default: stdout)")
        p.add_argument("--format", choices=["json"], default="json")

    p_harp = sub.add_parser("harp", help="PH rationalizability of the whole data")
    add_io(p_harp)
    p_harp.add_argument("--tol", type=float, default=1e-9)

    p_sep = sub.add_parser("separability", help="complete PH-separability of a partition")
    add_io(p_sep)
    p_sep.add_argument(
        "--y-cols", required=True, help="comma-separated 1-based goods columns of the y-block"
    )
    p_sep.add_argument("--tol-accept", type=float, default=1e-6)
    p_sep.add_argument("--tol-reject", type=float, default=1e-4)

    p_col = sub.add_parser("collective", help="k-consumer rationalizability")
    add_io(p_col)
    p_col.add_argument("--k", type=int, required=True)
    p_col.add_argument("--tol-accept", type=float, default=1e-6)
    p_col.add_argument("--tol-reject", type=float, default=1e-4)

    p_cn = sub.add_parser("class-number", help="minimal accepted consumer count")
    add_io(p_cn)
    p_cn.add_argument("--k-max", type=int, default=None)
    p_cn.add_argument("--tol-accept", type=float, default=1e-6)
    p_cn.add_argument("--tol-reject", type=float, default=1e-4)

    p_gen = sub.add_parser("gen", help="write synthetic ground-truth data")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=["cobb-douglas", "nested-cd", "collective"],
    )
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--output", help="report path (default: stdout)")
    p_gen.add_argument("--format", choices=["json"], default="json")
    p_gen.add_argument("--periods", type=int, default=8)
    p_gen.add_argument("--goods", type=int, default=4)
    p_gen.add_argument("--y-goods", type=int, default=2, help="y-block size (nested-cd)")
    p_gen.add_argument("--consumers", type=int, default=2, help="consumer count (collective)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--witness-out", help="JSON path for the generating split")
    return parser


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cycle_json(cycle: harp.ViolationCycle | None):
    if cycle is None:
        return None
    return {
        "periods": list(cycle.periods),
        "log_weight": cycle.log_weight,
        "cycle_ratio": cycle.cycle_ratio,
    }


def _witness_json(alloc: collective_mod.AllocationSolution | None):
    if alloc is None:
        return None
    return {
        "k": alloc.consumers,
        "sub_quantities": alloc.sub_quantities.tolist(),
        "sub_lambdas": alloc.sub_lambdas.tolist(),
        "residual_max": float(alloc.residuals.max()),
    }


def _parse_y_cols(spec: str, goods: int) -> list[int]:
    try:
        cols = sorted({int(c) for c in spec.split(",") if c.strip()})
    except ValueError:
        raise UsageError(f"--y-cols must be comma-separated integers, got {spec!r}")
    if not cols:
        raise UsageError("--y-cols must name at least one column")
    for c in cols:
        if not 1 <= c <= goods:
            raise UsageError(f"--y-cols column {c} outside 1..{goods}")
    if len(cols) >= goods:
        raise UsageError("--y-cols must leave at least one column for the q-block")
    return [c - 1 for c in cols]


def _run_harp(args) -> tuple[dict, int]:
    stats = model.load_statistics(args.input)
    result = harp.check_harp(stats, tol=args.tol)
    report = {
        "command": "harp",
        "input_digest": _digest(Path(args.input)),
        "status": result.status.value,
        "detail": result.decision.detail,
        "optimum": None,
        "tolerances": {"tol": args.tol},
        "certificate": (
            {"lambdas": result.certificate.lambdas.tolist()}
            if result.certificate
            else None
        ),
        "cycle": _cycle_json(result.cycle),
    }
    return report, _STATUS_EXIT[result.status]


def _run_separability(args) -> tuple[dict, int]:
    stats = model.load_statistics(args.input)
    y_cols = _parse_y_cols(args.y_cols, stats.goods)
    part = model.partition(stats, y_cols)
    result = separability.check_separability(
        part, tol_accept=args.tol_accept, tol_reject=args.tol_reject
    )
    report = {
        "command": "separability",
        "input_digest": _digest(Path(args.input)),
        "status": result.status.value,
        "detail": result.decision.detail,
        "optimum": result.decision.optimum,
        "tolerances": {"tol_accept": args.tol_accept, "tol_reject": args.tol_reject},
        "y_cols": [c + 1 for c in y_cols],
        "lambdas": result.lambdas.tolist() if result.lambdas is not None else None,
        "mus": result.mus.tolist() if result.mus is not None else None,
        "violated_constraints": list(result.violated_constraints),
    }
    return report, _STATUS_EXIT[result.status]


def _run_collective(args) -> tuple[dict, int]:
    stats = model.load_statistics(args.input)
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    result = collective_mod.check_collective(
        stats, args.k, tol_accept=args.tol_accept, tol_reject=args.tol_reject
    )
    report = {
        "command": "collective",
        "input_digest": _digest(Path(args.input)),
        "status": result.status.value,
        "detail": result.decision.detail,
        "optimum": result.decision.optimum,
        "tolerances": {"tol_accept": args.tol_accept, "tol_reject": args.tol_reject},
        "k": args.k,
        "witness": _witness_json(result.allocation),
    }
    return report, _STATUS_EXIT[result.status]


def _run_class_number(args) -> tuple[dict, int]:
    stats = model.load_statistics(args.input)
    if args.k_max is not None and args.k_max < 1:
        raise UsageError("--k-max must be at least 1")
    result = collective_mod.class_number(
        stats, k_max=args.k_max, tol_accept=args.tol_accept, tol_reject=args.tol_reject
    )
    report = {
        "command": "class-number",
        "input_digest": _digest(Path(args.input)),
        "status": result.status,
        "detail": f"certified lower bound {result.certified_lower_bound}",
        "optimum": None,
        "tolerances": {"tol_accept": args.tol_accept, "tol_reject": args.tol_reject},
        "value": result.value,
        "certified_lower_bound": result.certified_lower_bound,
        "per_k": {str(k): d.status.value for k, d in result.per_k.items()},
        "witness": _witness_json(result.witness),
    }
    if result.status == "FOUND":
        code = EXIT_FEASIBLE
    elif all(d.status is model.Status.INFEASIBLE for d in result.per_k.values()):
        code = EXIT_NOT_FOUND
    else:
        code = EXIT_UNDECIDED
    return report, code


def _dirichlet_like(rng, size: int) -> np.ndarray:
    raw = rng.uniform(0.5, 1.5, size)
    exps = raw / raw.sum()
    # exact unit sum, required by the generator spec
    exps[-1] = 1.0 - float(exps[:-1].sum())
    return exps


def _run_gen(args) -> tuple[dict, int]:
    if args.periods < 1:
        raise UsageError("--periods must be at least 1")
    rng = np.random.default_rng(args.seed)
    witness_path = None
    if args.family == "cobb-douglas":
        if args.goods < 1:
            raise UsageError("--goods must be at least 1")
        spec = datagen.CobbDouglasSpec(
            exponents=_dirichlet_like(rng, args.goods), seed=args.seed
        )
        stats = datagen.gen_cobb_douglas(spec, args.periods)
    elif args.family == "nested-cd":
        q_goods = args.goods - args.y_goods
        if q_goods < 1 or args.y_goods < 1:
            raise UsageError("nested-cd needs at least one good in each block")
        q_spec = datagen.CobbDouglasSpec(
            exponents=_dirichlet_like(rng, q_goods), seed=args.seed
        )
        y_spec = datagen.CobbDouglasSpec(
            exponents=_dirichlet_like(rng, args.y_goods), seed=args.seed + 1
        )
        part = datagen.gen_nested_cd(
            q_spec, y_spec, (0.5, 0.5), periods=args.periods, seed=args.seed
        )
        stats = part.base
    else:
        if args.consumers < 1:
            raise UsageError("--consumers must be at least 1")
        specs = []
        for a in range(args.consumers):
            budgets = np.exp(rng.uniform(np.log(0.5), np.log(2.0), args.periods))
            specs.append(
                datagen.CobbDouglasSpec(
                    exponents=_dirichlet_like(rng, args.goods),
                    budget=budgets,
                    seed=args.seed,
                )
            )
        stats, witness = datagen.gen_collective(specs, args.periods, seed=args.seed)
        if args.witness_out:
            witness_path = args.witness_out
            Path(witness_path).write_text(
                json.dumps(_witness_json(witness), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    model.save_statistics(stats, args.out)
    report = {
        "command": "gen",
        "input_digest": _digest(Path(args.out)),
        "status": "OK",
        "detail": f"wrote {stats.periods} periods x {stats.goods} goods",
        "optimum": None,
        "tolerances": {},
        "family": args.family,
        "seed": args.seed,
        "output_path": str(args.out),
        "witness_path": witness_path,
    }
    return report, EXIT_FEASIBLE


_RUNNERS = {
    "harp": _run_harp,
    "separability": _run_separability,
    "collective": _run_collective,
    "class-number": _run_class_number,
    "gen": _run_gen,
}


def report_schema() -> dict:
    """The JSON schema every report validates against."""
    text = resources.files("phrp").joinpath("report.schema.json").read_text("utf-8")
    return json.loads(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        report, code = _RUNNERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except model.MissingFileError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO
    except model.StatisticsError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_IO
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO
    except Exception as exc:  # any other exception is a defect, never a verdict
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    report["timings"] = {"wall_ms": (time.perf_counter() - started) * 1e3}
    try:
        _emit(report, args.output)
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
