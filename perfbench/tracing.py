"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(see :data:`LAYER_FUNCTIONS`) and the dense linear-algebra calls made
under an optim solve, records one span per call, and restores every
original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

A span is ``[id, parent_id, pass_id, name, start, end, failed]``:
times are ``time.perf_counter`` seconds, ``parent_id`` is ``-1`` for a
root span, and ``failed`` counts the operations inside the call that
did not succeed (an exception, an unconverged solve, a failed
certificate).  A call made while a span of the same name is already
open is folded into it (``solve_qp_warm``'s cold rung *is*
``solve_qp``; ``CertificationContext.certify`` calls
``certify_solution``), so each name counts the outermost calls only.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: (module, attribute, span name).  ``Class.method`` attributes patch
#: the class; plain functions are patched in every loaded ``repro``
#: module that bound them with ``from ... import``.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("repro.traces.datasets", "default_bundle", "traces.bundle"),
    ("repro.instances.generator", "generate_instance", "instances.generate"),
    ("repro.sim.simulator", "build_model", "sim.problem"),
    ("repro.sim.simulator", "Simulator.problem_for_slot", "sim.problem"),
    ("repro.core.compiled", "CompiledQPStructure.__init__", "core.compile"),
    ("repro.core.compiled", "CompiledQPStructure.qp_for", "core.qp_for"),
    ("repro.core.compiled", "CompiledQPStructure.qp_for_batch", "core.qp_for"),
    ("repro.optim.kkt", "StructuredQPCompiler.__init__", "core.compile"),
    ("repro.optim.kkt", "StructuredQPCompiler.structured_qp_for", "core.qp_for"),
    ("repro.optim.ipqp", "solve_qp", "optim.solve"),
    ("repro.optim.warm", "solve_qp_warm", "optim.solve"),
    ("repro.optim.batch", "solve_qp_batch", "optim.solve"),
    ("repro.optim.kkt", "solve_structured_qp", "optim.solve"),
    ("repro.admg.solver", "DistributedUFCSolver.solve", "admg.solve"),
    ("repro.admg.subproblems", "lambda_minimization", "admg.lambda"),
    ("repro.admg.subproblems", "mu_minimization", "admg.mu"),
    ("repro.admg.subproblems", "nu_minimization", "admg.nu"),
    ("repro.admg.subproblems", "a_minimization", "admg.a"),
    ("repro.admg.subproblems", "dual_updates", "admg.dual"),
    ("repro.admg.subproblems", "correction_step", "admg.correction"),
    ("repro.core.repair", "polish_allocation", "admg.polish"),
    ("repro.obs.certify", "certify_solution", "obs.certify"),
    ("repro.obs.certify", "certify_structured_solution", "obs.certify"),
    ("repro.obs.certify", "CertificationContext.certify", "obs.certify"),
    ("repro.engine.horizon", "HorizonEngine.run", "engine.run"),
)

#: Dense solve, inverse and LU calls; recorded only under ``optim.solve``.
LINALG_FUNCTIONS: tuple[tuple[str, str], ...] = (
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "inv"),
    ("scipy.linalg", "solve"),
    ("scipy.linalg", "inv"),
    ("scipy.linalg", "lu_factor"),
    ("scipy.linalg", "lu_solve"),
)

LINALG_SPAN = "optim.linalg"
LINALG_PARENT = "optim.solve"

#: Span names whose call count and total time are reported.
TIMED_SPANS = (
    "traces.bundle",
    "instances.generate",
    "sim.problem",
    "core.compile",
    "core.qp_for",
    "optim.solve",
    "optim.linalg",
    "admg.solve",
    "admg.lambda",
    "admg.mu",
    "admg.nu",
    "admg.a",
    "admg.dual",
    "admg.correction",
    "admg.polish",
    "obs.certify",
    "engine.run",
)


def _failures(result: Any) -> int:
    """Operations inside ``result`` that did not succeed."""
    result = getattr(result, "result", result)  # WarmSolve -> IPQPResult
    for flag in ("converged", "ok"):
        value = getattr(result, flag, None)
        if value is None:
            continue
        if isinstance(value, bool):
            return int(not value)
        try:  # per-instance flags of a batched solve
            return sum(1 for v in value if not v)
        except TypeError:
            return int(not value)
    return 0


class Tracer:
    """In-memory span recorder over patched ``repro`` entry points."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.pass_id = 0
        self._stack: list[list[Any]] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        if self._open.get(name):
            return fn(*args, **kwargs)
        stack = self._stack
        rec = [len(self.spans), stack[-1][0] if stack else -1, self.pass_id,
               name, 0.0, 0.0, 0]
        self.spans.append(rec)
        stack.append(rec)
        self._open[name] = 1
        rec[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[6] = 1
            raise
        finally:
            rec[5] = time.perf_counter()
            stack.pop()
            self._open[name] = 0
        rec[6] = _failures(result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return traced

    def _wrap_linalg(self, fn: Callable) -> Callable:
        call = self._call
        is_open = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not is_open.get(LINALG_PARENT):
                return fn(*args, **kwargs)
            return call(LINALG_SPAN, fn, args, kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, owners: list[Any], attr: str, wrapper: Callable,
                        original: Callable, callers: tuple[str, ...]) -> None:
        """Replace ``original`` in ``owners``, every ``repro`` module and
        the ``callers`` modules."""
        for owner in owners:
            self._patch(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name.startswith("repro") or mod_name in callers
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def install(self, callers: tuple[str, ...] = ()) -> None:
        """Patch every layer entry point, also where the ``callers``
        modules bound it by ``from ... import``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in LAYER_FUNCTIONS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                original = getattr(module, attr)
                self._patch_function(
                    [], attr, self._wrap(name, original), original, callers
                )
        for mod_name, attr in LINALG_FUNCTIONS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._patch_function(
                [module], attr, self._wrap_linalg(original), original, callers
            )

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self, pass_id: int) -> dict[str, float]:
        """``<span>_calls``, ``<span>_s`` and ``<span>_failed`` per name,
        plus ``engine.self_s`` (engine time no child span covers)."""
        spans = [s for s in self.spans if s[2] == pass_id]
        totals: dict[str, float] = {}
        for name in TIMED_SPANS:
            totals[f"{name}_calls"] = 0
            totals[f"{name}_s"] = 0.0
            totals[f"{name}_failed"] = 0
        child_time: dict[int, float] = {}
        for span_id, parent, _, name, start, end, failed in spans:
            totals[f"{name}_calls"] += 1
            totals[f"{name}_s"] += end - start
            totals[f"{name}_failed"] += failed
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals["engine.self_s"] = sum(
            (s[5] - s[4]) - child_time.get(s[0], 0.0)
            for s in spans
            if s[3] == "engine.run"
        )
        return totals

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header and every span to ``path`` as one JSON object."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["span_fields"] = [
            "id", "parent", "pass", "name", "start", "end", "failed"
        ]
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
