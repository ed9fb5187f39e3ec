#!/usr/bin/env python3
"""Benchmark of ``solve_ness`` and ``solve_first_decay_mode`` on driven chains.

Run from the repository root::

    python3 perfbench/run.py --workload ness-dense --seed 1 --seconds 20 --trace 0

``--workload`` is one of the names in ``workloads.WORKLOADS`` or ``all``. The
run is one process and one caller: operations run back to back (a closed
loop). The first is a warm-up, checked but not timed; after it the loop
starts another operation while one more of median length still fits in
``--seconds``, and makes at least ``MIN_TIMED`` timed ones. Each operation
takes its ``SweepConfig.seed`` from a generator seeded with ``--seed`` and is
checked against dense oracles computed once before the loop.

With ``--trace 0`` the run reports the end-to-end metrics. Solve time is the
median over the timed operations of their wall time scaled to a reference
machine speed, measured by the kernel in ``speed.py`` between operations; the
plain wall times are printed too. Set-up time is the median wall time of
several fresh processes that import the package and build the model. With ``--trace 1`` every operation runs under the tracer and
the run reports per-layer metrics plus the tracing overhead, the measured
cost of one wrapper call times the spans recorded. Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Run metadata, every
operation and (traced) every span go to ``perfbench/out/<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, floquet_ness and the benchmark modules that use them are imported
# inside functions, after pin_blas_threads() has set the thread count.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# One BLAS thread: timings steadier on a shared machine, and the digits
# metrics depend on the thread count through the summation order.
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_TIMED = 3

END_TO_END_UNITS = {
    "solve_ref_s": "s",
    "setup_s": "s",
    "ness_err_digits": "digits",
    "ness_residual_digits": "digits",
    "oracle_err_digits": "digits",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def use_repo_sources():
    if not (SRC / "floquet_ness").is_dir():
        raise SystemExit(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


# -- metadata -------------------------------------------------------------------


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # not a clone; src_sha256 still identifies the sources
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "floquet_ness").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads_in_use():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def metadata(args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads_in_use(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measuring --------------------------------------------------------------------


def measure_setup(name, repeats):
    """Wall seconds of fresh processes that import the package and build the model."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return samples


def timed_operation(workload, model, oracle, seed, tracer=None):
    """Run and check one operation; a raised error is a failed operation."""
    import workloads

    start = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            outcome = workloads.run_operation(workload, model, seed)
    except Exception as err:
        traceback.print_exc()
        reason = f"{type(err).__name__}: {err}"
        return {"seed": seed, "wall_s": time.perf_counter() - start, "ok": False, "reason": reason}
    wall_s = time.perf_counter() - start
    check = workloads.check_outcome(outcome, oracle)
    return {
        "seed": seed,
        "wall_s": wall_s,
        "ok": check.ok,
        "reason": check.reason,
        "ness_err": check.ness_err,
        "residual": check.residual,
        "decay_err": check.decay_err,
        "sweeps": outcome.sweeps,
    }


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100.0 * (1.0 - 10.0 / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[int(pct) - 1]


def end_to_end_metrics(ops, setup_samples):
    """Metrics of a run's operations, the warm-up first and not timed."""
    import workloads

    checked = [r for r in ops if "ness_err" in r]
    times = [r["wall_s"] for r in ops[1:]]
    ref_times = [r["ref_s"] for r in ops[1:]]

    def worst_digits(errors):
        return min((workloads.digits(e) for e in errors), default=0.0)

    values = {
        "solve_ref_s": statistics.median(ref_times),
        "setup_s": statistics.median(setup_samples),
        "ness_err_digits": worst_digits(r["ness_err"] for r in checked),
        "ness_residual_digits": worst_digits(r["residual"] for r in checked),
        "oracle_err_digits": worst_digits(
            max(r["ness_err"], r["decay_err"] or 0.0) for r in checked
        ),
        "ok_frac": sum(r["ok"] for r in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "solve_s_samples": len(times),
        "solve_ref_s_tail": tail_percentile(ref_times),
        "solve_wall_s": statistics.median(times),
        "solve_wall_s_tail": tail_percentile(times),
        "failed_frac": 1.0 - values["ok_frac"],
        "setup_s_samples": setup_samples,
    }
    decay = [r["decay_err"] for r in checked if r["decay_err"] is not None]
    if decay:
        notes["decay_err_digits"] = worst_digits(decay)
    return values, notes


def run_workload(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Run one workload and return its result, notes, operations and spans."""
    import speed
    import tracing
    import workloads

    workloads.quiet_cutoff_warnings()
    tracer = tracing.Tracer() if trace else None
    setup_samples = [] if trace else measure_setup(workload.name, setup_repeats)
    with tracer or contextlib.nullcontext():
        model = workload.build_model()
    oracle = workloads.compute_oracle(workload, model)
    build_spans = len(tracer.spans) if tracer else 0

    # The tracer wraps numpy.linalg.eig, which the kernel calls: no probe there.
    probe = speed.SpeedProbe() if tracer is None else None
    rng = random.Random(seed)
    start = time.perf_counter()
    warmup = timed_operation(workload, model, oracle, rng.randrange(2**31), tracer)
    warmup["warmup"] = True
    if tracer is not None:
        del tracer.spans[build_spans:]  # layer metrics cover the timed operations
    ops = [warmup]
    kernel_s = probe() if probe else None
    while len(ops) <= MIN_TIMED or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in ops[1:]) <= seconds
    ):
        op = timed_operation(workload, model, oracle, rng.randrange(2**31), tracer)
        if probe:
            op["kernel_s"] = (kernel_s, probe())
            op["ref_s"] = speed.scaled(op["wall_s"], *op["kernel_s"])
            kernel_s = op["kernel_s"][1]
        ops.append(op)

    times = [r["wall_s"] for r in ops[1:]]
    failed = sum(not r["ok"] for r in ops)
    if tracer is None:
        values, notes = end_to_end_metrics(ops, setup_samples)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = tracing.layer_metrics(
            tracer.spans,
            n_ops=len(times),
            op_wall_s=sum(times),
            sweeps=sum(r.get("sweeps", 0) for r in ops[1:]),
        )
        notes = {"traced_solve_s": times}
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    spans = tracer.spans if tracer is not None else []
    return result, notes, ops, spans


# -- reporting --------------------------------------------------------------------


def write_output(name, trace, meta, result, notes, ops, spans):
    OUT_DIR.mkdir(exist_ok=True)
    origin = min((s[1] for s in spans), default=0.0)
    payload = {
        "workload": name,
        "meta": meta,
        "result": result,
        "notes": notes,
        "operations": ops,
        "spans": [[s[0], s[1] - origin, s[2] - origin, s[3], s[4]] for s in spans],
    }
    path = OUT_DIR / f"{name}-trace{trace}.json"
    path.write_text(json.dumps(payload, default=str))
    return path


def print_report(name, meta, result, notes, ops, path):
    print(f"== {name}: seed {meta['seed']}, trace {meta['trace']}, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"{metric:32s} {entry['value']:.6g} {entry['unit']}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for r in ops:
        if not r["ok"]:
            print(f"# failed operation (seed {r['seed']}): {r['reason']}")
    print(f"# meta: {json.dumps(meta)}")
    print(f"# written: {path.relative_to(ROOT)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    use_repo_sources()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names} or all")
    if args.setup_probe:
        workloads.quiet_cutoff_warnings()
        workloads.WORKLOADS[args.workload].build_model()
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        meta = metadata(args)
        result, notes, ops, spans = run_workload(
            workloads.WORKLOADS[name], args.seed, args.seconds, args.trace
        )
        path = write_output(name, args.trace, meta, result, notes, ops, spans)
        print_report(name, meta, result, notes, ops, path)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
