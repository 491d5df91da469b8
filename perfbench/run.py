"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload paper-week --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from traced passes (and
writes the spans to ``perfbench/traces/``).  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the run and the machine.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE_DIR = HERE / "cache"
TRACE_DIR = HERE / "traces"

#: Set before numpy is first imported, so BLAS/OpenMP run one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PINNED_THREADS = "1"

#: Fresh interpreters timed for ``setup_s`` besides this process.
SETUP_CHILDREN = 2
SETUP_TIMEOUT_S = 120
MIN_TRACED_PASSES = 2

#: Work counts that must repeat exactly between traced passes.
REPEAT_COUNTS = (
    "optim.ipm_iterations",
    "optim.linalg_calls",
    "optim.warm_rung.active-set",
    "optim.warm_rung.warm-ipm",
    "optim.warm_rung.cold",
    "optim.warm_rung.incumbent",
    "admg.iterations",
    "core.compile_calls",
    "obs.certify_calls",
)


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS


def _import_workloads():
    """Import the workload module (and with it numpy and ``repro``)
    from this checkout's ``src/``."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {SRC}")
    return workloads


def timed_setup(workload: str, seed: int):
    """Imports plus input generation; returns ``(inputs, seconds)``."""
    start = time.perf_counter()
    wl = _import_workloads()
    inputs = wl.make_inputs(workload, seed)
    return inputs, time.perf_counter() - start


def _child_setup_s(workload: str, seed: int) -> float:
    """One ``timed_setup`` in a fresh interpreter, waited for."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-sample"],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def fingerprint() -> dict:
    """The machine and library build the numbers were taken on."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _measure(wl, make, seconds: float, min_passes: int, tracer=None) -> list:
    """Timed passes until ``seconds`` have elapsed (at least
    ``min_passes``); ``make()`` yields each pass's inputs."""
    results = []
    start = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_id = len(results)
        inputs = make()
        gc.collect()
        results.append(wl.run_pass(inputs))
    return results


def _layer_metrics(totals: dict, result, lane: str) -> dict:
    ipm = lane != "distributed"
    admg_iters = 0 if ipm else result.iterations
    metrics = {
        "traces.bundle_s": totals["traces.bundle_s"],
        "instances.generate_s": totals["instances.generate_s"],
        "sim.problem_s": totals["sim.problem_s"],
        "core.compile_calls": totals["core.compile_calls"],
        "core.compile_s": totals["core.compile_s"],
        "core.qp_for_calls": totals["core.qp_for_calls"],
        "core.qp_for_s": totals["core.qp_for_s"],
        "optim.solve_calls": totals["optim.solve_calls"],
        "optim.solve_s": totals["optim.solve_s"],
        "optim.ipm_iterations": result.iterations if ipm else 0,
        "optim.linalg_calls": totals["optim.linalg_calls"],
        "optim.linalg_s": totals["optim.linalg_s"],
        "optim.solve_failed": totals["optim.solve_failed"],
        "admg.solve_s": totals["admg.solve_s"],
        "admg.iterations": admg_iters,
        "admg.iter_ms": (
            1e3 * totals["admg.solve_s"] / admg_iters if admg_iters else 0.0
        ),
        "obs.certify_calls": totals["obs.certify_calls"],
        "obs.certify_s": totals["obs.certify_s"],
        "obs.certify_failed": totals["obs.certify_failed"],
        "engine.run_s": totals["engine.run_s"],
        "engine.self_s": totals["engine.self_s"],
        "engine.slots_failed": result.engine_failed,
    }
    for rung, count in result.warm_rungs.items():
        metrics[f"optim.warm_rung.{rung}"] = count
    for block in ("lambda", "mu", "nu", "a", "dual", "correction", "polish"):
        metrics[f"admg.{block}_s"] = totals[f"admg.{block}_s"]
    return metrics


def _median_metrics(per_pass: list[dict]) -> dict:
    return {
        name: statistics.median_low(m[name] for m in per_pass)
        for name in per_pass[0]
    }


def run(args) -> dict:
    """Run the workload and return the result object."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    inputs, own_setup = timed_setup(args.workload, args.seed)
    wl = _import_workloads()
    lane = wl.LANES[args.workload]
    setup_samples = [own_setup] + [
        _child_setup_s(args.workload, args.seed) for _ in range(SETUP_CHILDREN)
    ]
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = _measure(wl, lambda: inputs, seconds, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced, layer = [], {}
    notes = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(callers=(wl.__name__,))
        try:
            traced = _measure(
                wl,
                lambda: wl.make_inputs(args.workload, args.seed),
                seconds,
                MIN_TRACED_PASSES,
                tracer,
            )
        finally:
            tracer.uninstall()
        per_pass = [
            _layer_metrics(tracer.layer_totals(k), r, lane)
            for k, r in enumerate(traced)
        ]
        for name in REPEAT_COUNTS:
            values = {m[name] for m in per_pass}
            if len(values) > 1:
                notes.append(f"work count {name} differs between passes: {values}")
        layer = _median_metrics(per_pass)
        layer["trace_overhead_frac"] = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain)
            - 1.0
        )

    # Correctness, outside every timed region.
    results = plain + traced
    ref = wl.reference_ufc(inputs, CACHE_DIR)
    errs = [wl.ufc_rel_err_max(r, ref) for r in results]
    if any(e is None for e in errs):
        raise RuntimeError("a pass solved no slot the reference covers")
    err_max = max(errs)
    if err_max > wl.UFC_RTOL:
        notes.append(f"ufc_rel_err_max {err_max:.3e} > {wl.UFC_RTOL:.0e}")
    if any(r.ufc != results[0].ufc for r in results):
        notes.append("per-slot UFC differs between passes")
    attempted = sum(len(r.certified) for r in results)
    failed = sum(r.failed for r in results)

    walls = [r.wall_s for r in plain]
    measured = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
        "ufc_rel_err_max": err_max,
    }
    measured.update(layer)
    missing = sorted(set(units) - set(measured))
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics not measured: {missing}")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "lane": lane,
        "slots": len(inputs.problems),
        "passes": len(plain),
        "traced_passes": len(traced),
        "wall_s_per_pass": walls,
        "setup_s_samples": setup_samples,
        "failed_frac": measured["failed_frac"],
        "ufc_rel_err_max": err_max,
        "iterations": results[0].iterations,
        "fingerprint": fingerprint(),
    }
    for line in notes:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print("perfbench: " + json.dumps(info))
    if args.trace:
        tracer.dump(
            TRACE_DIR / f"{args.workload}-seed{args.seed}.json",
            {**info, "metrics": layer},
        )
    return {
        "correct": not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-sample",
        action="store_true",
        help="time one set-up in this interpreter and print it (internal)",
    )
    args = parser.parse_args(argv)
    _pin_threads()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.setup_sample:
        _, seconds = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
