"""Time phrp's three deciders on four seeded corpora, end to end and per layer.

Run from the root of a source checkout (phrp is imported from ``src/``):

    python3 perfbench/run.py                                  # all four workloads
    python3 perfbench/run.py --workload separability --seed 3
    python3 perfbench/run.py --workload class-number --trace 1

A single workload builds its corpus with ``phrp.datagen``, writes it with
``save_statistics``, runs one untimed warm-up pass, then times whole passes
that read every instance back with ``load_statistics`` and decide it, until
``--seconds`` is used up (never fewer than the workload's minimum).  The run
length defaults to ``run_seconds`` in ``BENCHMARK.json``, its one source.  Every
result is checked by ``checks.py``.  Without ``--workload`` each workload runs
in its own process.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the end-to-end metrics with
``--trace 0``, the per-layer metrics and the tracing overhead with
``--trace 1``.  A record of the run and the machine goes to ``perfbench/out/``.
See perfbench/README.md for the corpora and the meaning of each metric.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

# one BLAS thread, set before numpy is first imported: OpenBLAS's spinning
# workers make single decisions jump by 3x on a two-core machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("perfbench", "out")
WORKLOAD_NAMES = ("harp-feasible", "harp-infeasible", "separability", "class-number")
SETUP_REPEATS = 5
MIN_TAIL_SAMPLES = 40
# the setting the README's reference figures were measured under
REFERENCE_ENV = {"kernel_backend": "pure", "blas_threads": BLAS_THREADS}

END_TO_END_UNITS = {
    "setup_s": "s",
    "corpus_s": "s",
    "decide_p50_ms": "ms",
    "decide_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        import json

        with open("BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    return args


def tail_percentile(samples_per_run: int):
    """Highest whole percentile with at least ten samples beyond it, or None below 40."""
    if samples_per_run < MIN_TAIL_SAMPLES:
        return None
    return int(100 * (1 - 10 / samples_per_run))


# -- environment ------------------------------------------------------------------


def _openblas_libraries():
    """Version and live thread count of every OpenBLAS mapped into this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info = {"config": config().decode(), "threads": threads()}
                    break
            if info:
                break
        found[os.path.basename(path)] = info
    return found


def environment(seed, workload_seeds):
    import platform

    import numpy
    import phrp
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = _openblas_libraries()
    threads = [lib["threads"] for lib in blas.values() if "threads" in lib]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": max(threads) if threads else None,
        "kernel_backend": phrp.kernel_backend,
        "seed": seed,
        "instance_seeds": workload_seeds,
    }


def comparability_notes(env):
    return [
        f"{key}={env[key]} (reference figures: {want})"
        for key, want in REFERENCE_ENV.items()
        if env[key] != want
    ]


# -- one workload -----------------------------------------------------------------


def _write_corpus(instances, directory):
    from phrp import model

    os.makedirs(directory, exist_ok=True)
    for inst in instances:
        model.save_statistics(inst.stats, os.path.join(directory, inst.name + ".csv"))


# the import of phrp can happen once per process, so set-up repeats it in
# fresh interpreters (the probe times the import, not interpreter start-up)
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, 'src'); "
    "import phrp; print(time.perf_counter() - start)"
)


def _fresh_import_seconds():
    import subprocess

    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True, timeout=120
    )
    return float(probe.stdout)


def _one_pass(workload, instances, directory, tracer=None):
    """Ingest and decide every instance once.

    Returns per-instance ``(seconds, ok)`` and, when traced, per-instance tallies.
    """
    from phrp import model

    outcomes, tallies = [], []
    for inst in instances:
        path = os.path.join(directory, inst.name + ".csv")
        start = time.perf_counter()
        try:
            result = workload.decide(model.load_statistics(path), **inst.decide_args)
        except Exception:  # a raising decider is a failed operation, not a crash
            result = None
        elapsed = time.perf_counter() - start
        try:
            ok = result is not None and bool(inst.check(result))
        except Exception:  # a malformed result (say, FEASIBLE without a certificate)
            ok = False
        outcomes.append((elapsed, ok))
        if tracer is not None:
            tallies.append(tracer.take())
    return outcomes, tallies


def run_workload(name, seed, seconds, trace):
    import json
    import resource
    import shutil

    import phrp  # noqa: F401  (import cost is part of set-up)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[name]
    corpus_dir = os.path.join(OUT_DIR, f"corpus-{name}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            probe_s = _fresh_import_seconds()
            start = time.perf_counter()
            instances = workload.build(seed)
            _write_corpus(instances, corpus_dir)
            setups.append(probe_s + time.perf_counter() - start)
        setup_s = median(setups)

        _one_pass(workload, instances, corpus_dir)  # warm-up
        if trace:
            from tracing import Tracer

            tracer = Tracer()
        plain, traced, traced_tallies = [], [], []
        started = time.perf_counter()
        while True:
            plain.append(_one_pass(workload, instances, corpus_dir)[0])
            if trace:  # alternate untraced and traced passes
                with tracer.installed():
                    outcomes, tallies = _one_pass(workload, instances, corpus_dir, tracer)
                traced.append(outcomes)
                traced_tallies.append(tallies)
            elapsed = time.perf_counter() - started
            if len(plain) >= workload.min_passes and elapsed * (1 + 1 / len(plain)) > seconds:
                break
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)

    all_passes = plain + traced
    attempted = sum(len(p) for p in all_passes)
    failed = sum(not ok for p in all_passes for _, ok in p)
    correct = all(
        ok for p in all_passes for inst, (_, ok) in zip(instances, p) if not inst.kept_fault
    )

    corpus_s = [sum(t for t, _ in p) for p in plain]
    samples = [t for p in plain for t, _ in p]
    percentile = tail_percentile(workload.min_passes * len(instances))
    if percentile is None:
        # too few samples for a tail: the slowest instance's median time
        tail = max(median([p[i][0] for p in plain]) for i in range(len(instances)))
    else:
        import numpy as np

        tail = float(np.percentile(samples, percentile))
    end_to_end = {
        "setup_s": setup_s,
        "corpus_s": median(corpus_s),
        "decide_p50_ms": 1e3 * median(samples),
        "decide_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    env = environment(seed, {inst.name: inst.seed for inst in instances})
    notes = comparability_notes(env)
    record = {
        "workload": name,
        "environment": env,
        "comparable_with_reference": not notes,
        "in_process_import_s": import_s,
        "setup_s_per_repeat": setups,
        "passes": len(plain),
        "corpus_s_per_pass": corpus_s,
        "tail_percentile": percentile,
        "samples": len(samples),
        "end_to_end": end_to_end,
        "failed_instances": sorted(
            {inst.name for p in all_passes for inst, (_, ok) in zip(instances, p) if not ok}
        ),
    }
    metrics = {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in end_to_end.items()}
    if trace:
        from tracing import COUNT_METRICS, Tally, metric_unit

        per_pass = []
        for tallies in traced_tallies:
            total = Tally()
            for tally in tallies:
                total.add(tally)
            per_pass.append(total.metrics())
        per_layer = {key: median([p[key] for p in per_pass]) for key in per_pass[0]}
        traced_corpus = median([sum(t for t, _ in p) for p in traced])
        per_layer["trace.overhead_s"] = traced_corpus - end_to_end["corpus_s"]
        record.update(
            per_layer=per_layer,
            traced_corpus_s=traced_corpus,
            counts_repeat=all(p[k] == per_pass[0][k] for p in per_pass for k in COUNT_METRICS),
            instances=[
                {"instance": inst.name, "layers": tally.layers()}
                for inst, tally in zip(instances, traced_tallies[0])
            ],
        )
        metrics = {key: {"value": v, "unit": metric_unit(key)} for key, v in per_layer.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for note in notes:
        print(f"perfbench: not comparable with the reference figures: {note}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- every workload, each in its own process ------------------------------------------


def run_all(args):
    import json
    import subprocess

    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for key, metric in result["metrics"].items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results))


def main(argv=None):
    import json

    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join("src", "phrp", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a phrp checkout (src/phrp not found)\n")
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.workload == "all":
        run_all(args)
    else:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
