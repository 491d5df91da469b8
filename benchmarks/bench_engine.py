"""Solve-engine wall-clock benchmarks.

Times the default three-strategy week (3 x 168 slots, centralized
solver) through :class:`~repro.engine.horizon.HorizonEngine` in three
modes — serial without structure caching (the per-slot assembly the
pre-engine simulator did), serial with caching, and the cached process
pool — verifies the modes produce bit-identical solutions, and records
each mode's **phase breakdown** (compile vs. solve vs. pool
overhead/IPC) from the engine's telemetry so a serial-vs-parallel gap
is explained, not just observed.

A fourth measurement pair times the a-posteriori solution certifier
(``certify=True`` vs the default off path): the certified run's
overhead is recorded, the disabled path is asserted to cost < 2 %
(it is the same code), and certified solutions are checked to be
bit-identical to uncertified ones.

A fifth pair guards the resilience layer the same way: an *armed but
idle* retry/fallback config (the solver never fails, so the budgets
are never spent) must cost < 2 % over the plain engine and produce
bit-identical solutions — fault tolerance is free until a fault
happens.

Another pair guards the fleet-supervision layer: ``supervision=None``
(the default) must cost < 2 % over the plain engine and stay
bit-identical, and ``supervision=True`` on the synchronous path must
be a pure no-op — the supervisor only wraps asynchronous execution
clients.

A further pair guards the observability plane: the default engine
(no metrics registry, no tracer, no run ledger) must cost < 2 % over
the plain baseline and stay bit-identical — the worker-report
machinery short-circuits when nobody is listening — while the fully
instrumented engine (metrics + spans + ledger) is measured and
reported without a gate.

A sixth lane times the vectorized ``centralized-batch`` solver (all
slots of a (model, strategy) group solved as one stacked
interior-point batch) against the serial cached path, in
order-balanced rounds.  The recorded ``batch_speedup_vs_serial_cached``
must reach 3x on the 168-slot week locally; the pytest smoke gates a
1.5x floor on the worst round plus certification-grade parity (every
batched slot's KKT certificate passes and UFC values match the scalar
path to solver tolerance).

The pool timing runs with ``oversubscribe=True`` on purpose: the
engine's default policy clamps workers to usable CPUs and falls back
to serial when a pool cannot help, so measuring the pool penalty
requires bypassing the guard.  What the default policy *would* have
done is recorded under ``default_policy``.

Run standalone to write the JSON summary::

    PYTHONPATH=src python benchmarks/bench_engine.py --out BENCH_engine.json \
        --telemetry-out bench_telemetry.jsonl

or through pytest-benchmark with the rest of the ``bench_*`` modules
(a shortened horizon keeps the suite's runtime sane).

Speedups depend on hardware: the pool cannot beat serial on a
single-core container, which is why ``cpu_count`` / ``usable_cpus``
are recorded next to every timing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

from repro.core.strategies import ALL_STRATEGIES
from repro.engine import HorizonEngine
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.obs import JsonlTelemetry, MetricsRegistry, SpanTracer, load_run
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle


def _horizon_problems(hours: int, seed: int):
    """The 3 x ``hours`` slot problems of the default comparison."""
    bundle = default_bundle(hours=hours, seed=seed)
    model = build_model(bundle)
    sim = Simulator(model, bundle)
    return [
        sim.problem_for_slot(t, strategy)
        for strategy in ALL_STRATEGIES
        for t in range(hours)
    ]


def _time_engine(
    problems, repeats: int = 1, telemetry=None, solver="centralized",
    **engine_kwargs,
):
    """Best-of-``repeats`` wall time, outcomes and the best run's summary."""
    best = None
    outcomes = None
    summary = None
    for _ in range(repeats):
        engine = HorizonEngine(solver, telemetry=telemetry, **engine_kwargs)
        start = time.perf_counter()
        outcomes = engine.run(problems)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            summary = engine.last_summary
    return best, outcomes, summary


def _bit_identical(a, b) -> bool:
    """Exact equality of every slot's allocation and UFC value."""
    return len(a) == len(b) and all(
        x.ok
        and y.ok
        and (x.result.allocation.lam == y.result.allocation.lam).all()
        and (x.result.allocation.mu == y.result.allocation.mu).all()
        and (x.result.allocation.nu == y.result.allocation.nu).all()
        and x.result.ufc == y.result.ufc
        and x.result.iterations == y.result.iterations
        for x, y in zip(a, b)
    )


def _certification_overhead(problems, repeats: int) -> dict:
    """Cost of the a-posteriori certifier, on and off.

    The disabled path must be free: ``certify=False`` is the default
    engine configuration, so the baseline/disabled pair times the same
    code twice and their delta bounds timer noise.  Each round is
    *order-balanced* — baseline, variants, baseline again — because
    the second run of a round is systematically warmer than the first,
    and each variant is ratioed against the mean of the surrounding
    baselines.  The median across rounds is the reported estimate; the
    **minimum** is the gated one: on a loaded container, interference
    only ever inflates a round, so the min bounds the *systematic*
    overhead from above and cannot flake on a noise spike (medians at
    a 2 % threshold were observed to).
    """
    reps = max(5, repeats)
    base_s = off_s = on_s = None
    base = certified = on_sum = None
    off_deltas: list[float] = []
    on_deltas: list[float] = []
    for _ in range(reps):
        b1_s, b, _ = _time_engine(problems, 1, structure_cache=True)
        f_s, _, _ = _time_engine(
            problems, 1, structure_cache=True, certify=False
        )
        n_s, n, n_sum = _time_engine(
            problems, 1, structure_cache=True, certify=True
        )
        b2_s, _, _ = _time_engine(problems, 1, structure_cache=True)
        mid = (b1_s + b2_s) / 2.0
        off_deltas.append(f_s / mid - 1.0)
        on_deltas.append(n_s / mid - 1.0)
        if base_s is None or min(b1_s, b2_s) < base_s:
            base_s, base = min(b1_s, b2_s), b
        if off_s is None or f_s < off_s:
            off_s = f_s
        if on_s is None or n_s < on_s:
            on_s, certified, on_sum = n_s, n, n_sum
    suspect = list(on_sum.suspect_slots)
    return {
        "repeats": reps,
        "baseline_s": round(base_s, 4),
        "disabled_s": round(off_s, 4),
        "certified_s": round(on_s, 4),
        "disabled_delta_fraction": round(statistics.median(off_deltas), 4),
        "disabled_delta_floor": round(min(off_deltas), 4),
        "certified_overhead_fraction": round(statistics.median(on_deltas), 4),
        "certify_phase_s": round(on_sum.certify_s, 4),
        "certified_slots": on_sum.certified_slots,
        "suspect_slots": suspect,
        "worst_violation": on_sum.worst_violation,
        "worst_kkt": on_sum.worst_kkt,
        "bit_identical_with_certify": _bit_identical(base, certified),
    }


def _resilience_overhead(problems, repeats: int) -> dict:
    """Cost of an armed-but-idle retry/fallback config.

    The centralized solver never fails on these slots, so the retry
    budget and fallback chain are armed but never consulted.  The
    resilient path must then be indistinguishable from the plain one:
    < 2 % wall-clock delta and bit-identical solutions.

    Rounds are order-balanced and the gate uses the minimum across
    rounds, for the same noise-robustness reasons as the
    certification pair (see :func:`_certification_overhead`).
    """
    reps = max(5, repeats)
    armed = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2), fallback=("proportional",)
    )
    base_s = armed_s = None
    base = resilient = armed_sum = None
    deltas: list[float] = []
    for _ in range(reps):
        b1_s, b, _ = _time_engine(problems, 1, structure_cache=True)
        a_s, a, a_sum = _time_engine(
            problems, 1, structure_cache=True, resilience=armed
        )
        b2_s, _, _ = _time_engine(problems, 1, structure_cache=True)
        deltas.append(a_s / ((b1_s + b2_s) / 2.0) - 1.0)
        if base_s is None or min(b1_s, b2_s) < base_s:
            base_s, base = min(b1_s, b2_s), b
        if armed_s is None or a_s < armed_s:
            armed_s, resilient, armed_sum = a_s, a, a_sum
    return {
        "repeats": reps,
        "baseline_s": round(base_s, 4),
        "armed_idle_s": round(armed_s, 4),
        "armed_idle_delta_fraction": round(statistics.median(deltas), 4),
        "armed_idle_delta_floor": round(min(deltas), 4),
        "retries_total": armed_sum.retries_total,
        "fallbacks_total": armed_sum.fallbacks_total,
        "degraded_slots": list(armed_sum.degraded_slots),
        "bit_identical_with_resilience": _bit_identical(base, resilient),
    }


def _supervision_overhead(problems, repeats: int) -> dict:
    """Cost of the fleet-supervision layer when disabled (the default).

    ``supervision=None`` is the default engine configuration, so the
    baseline/disabled pair times the same code twice and their delta
    bounds timer noise: the self-healing machinery must be free until a
    fleet exists to heal.  A third lane arms ``supervision=True`` on
    the synchronous path, where the supervisor declines to wrap (it
    supervises asynchronous clients only) — also gated < 2 %, and the
    summary must carry no fleet block.

    Rounds are order-balanced and the gate uses the minimum across
    rounds, for the same noise-robustness reasons as the
    certification pair (see :func:`_certification_overhead`).
    """
    reps = max(5, repeats)
    base_s = off_s = armed_s = None
    base = disabled = armed_out = armed_sum = None
    off_deltas: list[float] = []
    armed_deltas: list[float] = []
    for _ in range(reps):
        b1_s, b, _ = _time_engine(problems, 1, structure_cache=True)
        f_s, f, _ = _time_engine(
            problems, 1, structure_cache=True, supervision=None
        )
        a_s, a, a_sum = _time_engine(
            problems, 1, structure_cache=True, supervision=True
        )
        b2_s, _, _ = _time_engine(problems, 1, structure_cache=True)
        mid = (b1_s + b2_s) / 2.0
        off_deltas.append(f_s / mid - 1.0)
        armed_deltas.append(a_s / mid - 1.0)
        if base_s is None or min(b1_s, b2_s) < base_s:
            base_s, base = min(b1_s, b2_s), b
        if off_s is None or f_s < off_s:
            off_s, disabled = f_s, f
        if armed_s is None or a_s < armed_s:
            armed_s, armed_out, armed_sum = a_s, a, a_sum
    return {
        "repeats": reps,
        "baseline_s": round(base_s, 4),
        "disabled_s": round(off_s, 4),
        "armed_noop_s": round(armed_s, 4),
        "disabled_delta_fraction": round(statistics.median(off_deltas), 4),
        "disabled_delta_floor": round(min(off_deltas), 4),
        "armed_noop_delta_floor": round(min(armed_deltas), 4),
        "fleet_summary_absent": armed_sum.fleet is None,
        "bit_identical_with_supervision_disabled": _bit_identical(
            base, disabled
        ),
        "bit_identical_with_supervision_armed": _bit_identical(
            base, armed_out
        ),
    }


def _observability_overhead(problems, repeats: int) -> dict:
    """Cost of the distributed observability plane, on and off.

    The *disabled* pair is the acceptance gate: an engine with every
    observability knob at its default (no metrics registry, no tracer,
    no ledger, ``worker_obs`` auto-off) must be indistinguishable from
    the plain engine — < 2 % wall-clock delta (min across
    order-balanced rounds, same anti-flake reasoning as
    :func:`_certification_overhead`) and bit-identical solutions,
    because the worker-report machinery short-circuits before any
    object is built.

    The *enabled* lane (metrics + tracer + run ledger, all merging on
    the harvest path) is measured and reported but not gated — it buys
    per-slot worker samples, adopted spans and a persisted manifest,
    and its cost is allowed to show.  Solutions must still be
    bit-identical: observers never perturb the solve.
    """
    reps = max(5, repeats)
    base_s = off_s = on_s = None
    base = disabled = observed = None
    off_deltas: list[float] = []
    on_deltas: list[float] = []
    ledger_slots = 0
    worker_families = 0
    ledger_dir = tempfile.mkdtemp(prefix="repro-bench-ledger-")
    try:
        for _ in range(reps):
            b1_s, b, _ = _time_engine(problems, 1, structure_cache=True)
            f_s, f, _ = _time_engine(
                problems, 1, structure_cache=True, worker_obs=False
            )
            reg = MetricsRegistry()
            tracer = SpanTracer()
            engine = HorizonEngine(
                "centralized",
                structure_cache=True,
                metrics=reg,
                tracer=tracer,
                ledger=ledger_dir,
            )
            start = time.perf_counter()
            n = engine.run(problems)
            n_s = time.perf_counter() - start
            b2_s, _, _ = _time_engine(problems, 1, structure_cache=True)
            mid = (b1_s + b2_s) / 2.0
            off_deltas.append(f_s / mid - 1.0)
            on_deltas.append(n_s / mid - 1.0)
            if base_s is None or min(b1_s, b2_s) < base_s:
                base_s, base = min(b1_s, b2_s), b
            if off_s is None or f_s < off_s:
                off_s, disabled = f_s, f
            if on_s is None or n_s < on_s:
                on_s, observed = n_s, n
                ledger_slots = len(load_run(engine.last_ledger_path).slots)
                worker_families = sum(
                    1
                    for fam in reg.to_dict()["families"]
                    if fam["name"].startswith("repro_worker_")
                )
    finally:
        shutil.rmtree(ledger_dir, ignore_errors=True)
    return {
        "repeats": reps,
        "baseline_s": round(base_s, 4),
        "disabled_s": round(off_s, 4),
        "observed_s": round(on_s, 4),
        "disabled_delta_fraction": round(statistics.median(off_deltas), 4),
        "disabled_delta_floor": round(min(off_deltas), 4),
        "observed_overhead_fraction": round(statistics.median(on_deltas), 4),
        "ledger_slots": ledger_slots,
        "worker_metric_families": worker_families,
        "bit_identical_with_obs_disabled": _bit_identical(base, disabled),
        "bit_identical_with_obs_enabled": _bit_identical(base, observed),
    }


def _batched_lane(problems, repeats: int) -> dict:
    """The vectorized ``centralized-batch`` lane against serial-cached.

    Each round is order-balanced (serial, batched, serial) and the
    batched time is ratioed against the mean of the surrounding serial
    baselines.  Two speedup figures come back:

    - ``batch_speedup_vs_serial_cached`` — best-of-rounds serial over
      best-of-rounds batched, the cleanest estimate of the systematic
      speedup (interference only ever inflates a round, so the min
      time per lane bounds the true cost from above);
    - ``speedup_floor`` — the *worst* round's speedup, the anti-flake
      figure the smoke gate uses: a noise spike can deflate one round,
      but a real regression deflates every round.

    Solution parity is certification-grade, not bit-level: the batched
    iteration takes a different path through the QPs' flat optimal
    valleys, so allocations may differ along degenerate directions
    while UFC values agree to solver tolerance and every slot's KKT
    certificate passes (asserted here via a certified batched run).
    """
    reps = max(3, repeats)
    serial_best = batched_best = None
    batched_out = batched_sum = None
    round_speedups: list[float] = []
    for _ in range(reps):
        b1_s, _, _ = _time_engine(problems, 1, structure_cache=True)
        bat_s, out, summary = _time_engine(
            problems, 1, solver="centralized-batch", structure_cache=True
        )
        b2_s, _, _ = _time_engine(problems, 1, structure_cache=True)
        round_speedups.append((b1_s + b2_s) / 2.0 / bat_s)
        if serial_best is None or min(b1_s, b2_s) < serial_best:
            serial_best = min(b1_s, b2_s)
        if batched_best is None or bat_s < batched_best:
            batched_best, batched_out, batched_sum = bat_s, out, summary
    certified = HorizonEngine("centralized-batch", certify=True).run(problems)
    scalar = HorizonEngine("centralized").run(problems)
    max_ufc_delta = max(
        abs(x.result.ufc - y.result.ufc)
        for x, y in zip(batched_out, scalar)
    )
    return {
        "repeats": reps,
        "executor": batched_sum.executor,
        "serial_cached_s": round(serial_best, 4),
        "batched_s": round(batched_best, 4),
        "batch_speedup_vs_serial_cached": round(serial_best / batched_best, 4),
        "round_speedups": [round(s, 4) for s in round_speedups],
        "speedup_floor": round(min(round_speedups), 4),
        "converged_all": all(
            o.ok and o.result.converged for o in batched_out
        ),
        "scalar_fallback_slots": sum(
            bool(o.result.extras.get("batch_fallback"))
            for o in batched_out
            if o.ok
        ),
        "certified_all": all(
            o.ok and o.certificate is not None and o.certificate.ok
            for o in certified
        ),
        "max_ufc_delta_vs_serial": max_ufc_delta,
    }


def run_bench(
    hours: int = 168,
    seed: int = 2014,
    workers: int = 4,
    repeats: int = 3,
    telemetry=None,
) -> dict:
    """Time the three engine modes and summarize as a JSON-ready dict."""
    problems = _horizon_problems(hours, seed)
    cold_s, cold, cold_sum = _time_engine(
        problems, repeats, structure_cache=False
    )
    cached_s, cached, cached_sum = _time_engine(
        problems, repeats, structure_cache=True
    )
    workers = max(1, workers)
    pool_s, pooled, pool_sum = _time_engine(
        problems, repeats, workers=workers, oversubscribe=True, telemetry=telemetry
    )
    # What the engine's default (guarded) policy would have done with
    # this worker request on this machine.
    effective, decision, usable = HorizonEngine(
        "centralized", workers=workers
    ).plan_workers(len(problems))
    batched = _batched_lane(problems, repeats)
    # The warm lane with warm_start off must be a pure rename of the
    # centralized path: the cold rung IS solve_qp, so every slot's
    # allocation, UFC and iteration count are bit-identical.
    warm_off = HorizonEngine("centralized-warm").run(problems)
    return {
        "hours": hours,
        "seed": seed,
        "slots": len(problems),
        "strategies": [s.name for s in ALL_STRATEGIES],
        "solver": "centralized",
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "workers": workers,
        "default_policy": {
            "effective_workers": effective,
            "decision": decision,
        },
        "serial_cold_s": round(cold_s, 4),
        "serial_cached_s": round(cached_s, 4),
        "parallel_cached_s": round(pool_s, 4),
        "caching_speedup": round(cold_s / cached_s, 4),
        "parallel_speedup_vs_serial_cold": round(cold_s / pool_s, 4),
        "phase_breakdown": {
            "serial_cold": cold_sum.phase_dict(),
            "serial_cached": cached_sum.phase_dict(),
            "parallel": pool_sum.phase_dict(),
        },
        "parallel_overhead_s": round(pool_sum.overhead_s, 4),
        "bit_identical": {
            "cached_vs_cold": _bit_identical(cold, cached),
            "parallel_vs_serial": _bit_identical(cached, pooled),
            "warm_off_vs_serial": _bit_identical(cached, warm_off),
        },
        "certification": _certification_overhead(problems, repeats),
        "resilience": _resilience_overhead(problems, repeats),
        "supervision": _supervision_overhead(problems, repeats),
        "observability": _observability_overhead(problems, repeats),
        "batched": batched,
        "batched_s": batched["batched_s"],
        "batch_speedup_vs_serial_cached": (
            batched["batch_speedup_vs_serial_cached"]
        ),
    }


def test_engine_modes_agree(run_once, bench_workers):
    """Pytest entry: shortened horizon, same three-mode comparison."""
    summary = run_once(run_bench, hours=24, workers=bench_workers, repeats=1)
    print("\n" + json.dumps(summary, indent=2))
    assert summary["bit_identical"]["cached_vs_cold"]
    assert summary["bit_identical"]["parallel_vs_serial"]
    assert summary["bit_identical"]["warm_off_vs_serial"]
    breakdown = summary["phase_breakdown"]["serial_cached"]
    # The profile must explain where the time goes: compile + solve
    # account for (almost) the whole serial wall clock.
    assert breakdown["accounted_fraction"] >= 0.9
    cert = summary["certification"]
    # certify=False is the default code path: its cost must be noise.
    # The floor (min across balanced rounds) is gated rather than the
    # median: interference only inflates rounds, so a systematic >=2%
    # cost would lift every round, while a noise spike lifts only some.
    assert cert["disabled_delta_floor"] < 0.02
    # Certification never perturbs solutions.
    assert cert["bit_identical_with_certify"]
    assert not cert["suspect_slots"]
    res = summary["resilience"]
    # An armed-but-idle retry/fallback config must be free too: no
    # budget is spent when the solver never fails.
    assert res["armed_idle_delta_floor"] < 0.02
    assert res["bit_identical_with_resilience"]
    assert res["retries_total"] == 0
    assert res["fallbacks_total"] == 0
    assert res["degraded_slots"] == []
    sup = summary["supervision"]
    # Fleet supervision is strictly opt-in: disabled (the default) must
    # be free and bit-identical, and arming it on a synchronous path is
    # a no-op — no fleet block, no number changed.
    assert sup["disabled_delta_floor"] < 0.02
    assert sup["armed_noop_delta_floor"] < 0.02
    assert sup["fleet_summary_absent"]
    assert sup["bit_identical_with_supervision_disabled"]
    assert sup["bit_identical_with_supervision_armed"]
    obs = summary["observability"]
    # The observability plane must be free when off (default knobs
    # short-circuit before anything is built) and must never perturb
    # the solve when on — only wall time is allowed to change.
    assert obs["disabled_delta_floor"] < 0.02
    assert obs["bit_identical_with_obs_disabled"]
    assert obs["bit_identical_with_obs_enabled"]
    assert obs["ledger_slots"] == summary["slots"]
    assert obs["worker_metric_families"] > 0
    batched = summary["batched"]
    # The vectorized lane must actually run batched, agree with the
    # scalar path to certification tolerance, and clear the CI speedup
    # floor (1.5x; the local week target is 3x — see docs/performance
    # .md).  The floor gates the worst round: noise can slow one round,
    # a regression slows all of them.
    assert batched["executor"] == "serial-batch"
    assert batched["converged_all"]
    assert batched["certified_all"]
    assert batched["max_ufc_delta_vs_serial"] < 1e-2
    assert batched["speedup_floor"] >= 1.5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=int, default=168)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None,
                        help="write the JSON summary here (default: stdout only)")
    parser.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="write the pool runs' telemetry events (JSONL)")
    args = parser.parse_args(argv)
    sink = JsonlTelemetry(args.telemetry_out) if args.telemetry_out else None
    try:
        summary = run_bench(
            hours=args.hours, seed=args.seed, workers=args.workers,
            repeats=args.repeats, telemetry=sink,
        )
    finally:
        if sink is not None:
            sink.close()
    text = json.dumps(summary, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
