"""The benchmark's workloads: seeded inputs, one timed pass, the reference.

Every workload runs in this process through ``HorizonEngine`` with
``workers=1`` (the in-process client), so no worker process exists.

Inputs are fixed instances whose arrivals the seed jitters by
``1 + 0.01 * N(0, 1)`` per entry (see NOTES.md, "Inputs"):

- ``paper-week*``: the paper's traces (``default_bundle(hours=168)``),
  all three strategies (504 slots), on the ``centralized``,
  ``centralized-warm`` (one warm chain per strategy) and
  ``centralized-batch`` lanes, certified by the engine.
- ``scale-20x100``: ``generate_instance(ScaleSpec(20, 100, 168,
  fan_in=6))``, HYBRID, ``centralized-structured`` with the instance's
  reach.  The engine's ``certify=True`` cannot certify this lane (see
  NOTES.md), so each slot is certified here with
  ``certify_structured_solution`` on the solver's reduced duals,
  inside the timed region.
- ``admg-day``: 24 HYBRID slots of the paper's traces
  (``default_bundle(hours=24)``); ``distributed`` (ADM-G) cold per
  slot at ``tol=1e-6, max_iter=5000``, certified by the engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from repro.core.problem import UFCProblem
from repro.core.strategies import ALL_STRATEGIES, HYBRID
from repro.engine import HorizonEngine, create_solver
from repro.instances import ScaleSpec, generate_instance
from repro.obs.certify import DEFAULT_KKT_TOL, certify_structured_solution
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

PAPER_HOURS = 168
ADMG_HOURS = 24
#: Relative standard deviation of the seed-drawn arrival jitter.
ARRIVAL_JITTER = 0.01
ADMG_SOLVER_KWARGS = {"tol": 1e-6, "max_iter": 5000}
SCALE_SHAPE = (20, 100)
SCALE_FAN_IN = 6
#: Slots of scale-20x100 solved by the dense reference (about 0.6 s
#: each); the offset within the stride comes from the seed.
SCALE_REFERENCE_SLOTS = 8

#: Largest accepted per-slot |UFC - reference| / max(1, |reference|):
#: the certificate's own KKT tolerance.
UFC_RTOL = DEFAULT_KKT_TOL

LANES = {
    "paper-week": "centralized",
    "paper-week-warm": "centralized-warm",
    "paper-week-batch": "centralized-batch",
    "scale-20x100": "centralized-structured",
    "admg-day": "distributed",
}


@dataclasses.dataclass
class Inputs:
    """One workload's generated slot problems."""

    workload: str
    seed: int
    problems: list[UFCProblem]
    reach: np.ndarray | None = None


@dataclasses.dataclass
class PassResult:
    """One timed pass over every slot of the workload."""

    wall_s: float
    ufc: list[float | None]
    certified: list[bool]
    engine_failed: int
    iterations: int
    warm_rungs: dict[str, int]

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.certified if not ok)


def _jitter(arrivals: np.ndarray, seed: int) -> np.ndarray:
    """``arrivals`` with every entry scaled by a seed-drawn
    ``1 + ARRIVAL_JITTER * N(0, 1)``."""
    noise = np.random.default_rng(seed).standard_normal(arrivals.shape)
    return arrivals * np.abs(1.0 + ARRIVAL_JITTER * noise)


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's slot problems, a pure function of ``seed``.

    The instance is fixed and ``seed`` only jitters its arrivals (see
    NOTES.md, "Inputs"); paper-model slots are strategy-major.
    """
    if workload == "scale-20x100":
        n, m = SCALE_SHAPE
        inst = generate_instance(
            ScaleSpec(n, m, hours=PAPER_HOURS, fan_in=SCALE_FAN_IN)
        )
        inst = dataclasses.replace(inst, arrivals=_jitter(inst.arrivals, seed))
        return Inputs(workload, seed, inst.problems(HYBRID), reach=inst.reach)
    if workload == "admg-day":
        hours, strategies = ADMG_HOURS, (HYBRID,)
    elif workload in LANES:
        hours, strategies = PAPER_HOURS, ALL_STRATEGIES
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(LANES)}")
    bundle = default_bundle(hours=hours)
    bundle = dataclasses.replace(bundle, arrivals=_jitter(bundle.arrivals, seed))
    sim = Simulator(build_model(bundle), bundle)
    problems = [
        sim.problem_for_slot(t, s) for s in strategies for t in range(hours)
    ]
    return Inputs(workload, seed, problems)


def _engine(workload: str, reach: np.ndarray | None) -> HorizonEngine:
    lane = LANES[workload]
    if workload == "scale-20x100":
        return HorizonEngine(create_solver(lane, reach=reach), workers=1)
    kwargs = ADMG_SOLVER_KWARGS if workload == "admg-day" else {}
    return HorizonEngine(create_solver(lane, **kwargs), workers=1, certify=True)


def run_pass(inputs: Inputs) -> PassResult:
    """Solve and certify every slot once; ``wall_s`` spans the solve
    call to the last checked certificate."""
    engine = _engine(inputs.workload, inputs.reach)
    warm = inputs.workload == "paper-week-warm"
    start = time.perf_counter()
    outcomes = engine.run(inputs.problems, warm_start=warm)
    if inputs.workload == "scale-20x100":
        certs = [
            certify_structured_solution(
                o.result.extras["structured_qp"],
                problem,
                o.result.allocation,
                x=o.result.extras["structured_x"],
                duals=o.result.extras.get("duals"),
                solver=LANES[inputs.workload],
                slot=t,
            )
            if o.ok
            else None
            for t, (o, problem) in enumerate(zip(outcomes, inputs.problems))
        ]
    else:
        certs = [o.certificate if o.ok else None for o in outcomes]
    certified = [
        o.ok and c is not None and bool(c.ok) for o, c in zip(outcomes, certs)
    ]
    wall = time.perf_counter() - start

    rungs = {"active-set": 0, "warm-ipm": 0, "cold": 0, "incumbent": 0}
    if warm:
        for o in outcomes:
            if o.ok:
                mech = o.result.extras.get("warm_mechanism", "cold")
                rungs[mech] = rungs.get(mech, 0) + 1
    return PassResult(
        wall_s=wall,
        ufc=[float(o.result.ufc) if o.ok else None for o in outcomes],
        certified=certified,
        engine_failed=sum(1 for o in outcomes if not o.ok),
        iterations=sum(o.result.iterations for o in outcomes if o.ok),
        warm_rungs=rungs,
    )


# -- reference UFC -------------------------------------------------------------


def _reference_slots(inputs: Inputs) -> list[int]:
    count = len(inputs.problems)
    if inputs.workload != "scale-20x100":
        return list(range(count))
    stride = count // SCALE_REFERENCE_SLOTS
    offset = inputs.seed % stride
    return [offset + k * stride for k in range(SCALE_REFERENCE_SLOTS)]


def _digest(inputs: Inputs, slots: list[int]) -> str:
    h = hashlib.sha256()
    for t in slots:
        p = inputs.problems[t]
        h.update(p.strategy.name.encode())
        for arr in (p.inputs.arrivals, p.inputs.prices, p.inputs.carbon_rates):
            h.update(np.ascontiguousarray(arr).tobytes())
    if inputs.reach is not None:
        h.update(np.ascontiguousarray(inputs.reach).tobytes())
    return h.hexdigest()[:16]


def reference_ufc(inputs: Inputs, cache_dir: Path) -> dict[int, float]:
    """Per-slot reference UFC from the dense lane, cached per input digest.

    Paper-model workloads use ``centralized``; ``scale-20x100`` uses the
    same reduced QP through the dense factorization
    (``centralized-structured-dense``) on :data:`SCALE_REFERENCE_SLOTS`
    slots.  Call it outside every timed region.
    """
    slots = _reference_slots(inputs)
    family = "scale" if inputs.reach is not None else "paper"
    path = cache_dir / f"ref-{family}-{inputs.seed}-{_digest(inputs, slots)}.json"
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            return {int(k): v for k, v in json.load(fh).items()}
    if inputs.reach is not None:
        solver = create_solver(
            "centralized-structured", reach=inputs.reach, mode="dense"
        )
    else:
        solver = create_solver("centralized")
    outcomes = HorizonEngine(solver, workers=1).run(
        [inputs.problems[t] for t in slots]
    )
    failed = [t for t, o in zip(slots, outcomes) if not o.ok]
    if failed:
        raise RuntimeError(f"reference solve failed on slots {failed}")
    ref = {t: float(o.result.ufc) for t, o in zip(slots, outcomes)}
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in ref.items()}, fh)
    tmp.replace(path)
    return ref


def ufc_rel_err_max(result: PassResult, ref: dict[int, float]) -> float | None:
    """Largest per-slot relative UFC error; None when no slot compares."""
    errs = [
        abs(result.ufc[t] - r) / max(1.0, abs(r))
        for t, r in ref.items()
        if result.ufc[t] is not None
    ]
    return max(errs) if errs else None
