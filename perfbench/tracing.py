"""Spans at the program's module boundaries, recorded from outside.

:class:`Tracer` replaces module-namespace names of the ``haptosim``
package with timing wrappers while it is active and puts the originals
back when it exits.  A target ``"mod.name"`` is wrapped in every package
module whose namespace binds that same object, so a call is recorded
whichever module makes it: ``operators.helmholtz_solve`` is caught where
``stepping`` calls it, ``analysis.norm`` both in the harness's sampling and
inside ``bounds_report``.  The program's own files are never
changed.

Each call records one span: name, start, end, the enclosing span and the
job it belongs to.  Spans live in flat arrays while the trace runs and are
turned into per-layer figures, or saved, only afterwards.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

MODULES = ("model", "operators", "stepping", "analysis", "harness", "config")

TARGETS = (
    # benchmark -> harness, config: the public path of `haptosim verify`
    "config.parse_config", "harness.run", "harness.verify",
    "config.emit_outputs",
    # harness -> stepping
    "stepping.stable_dt", "stepping.imex_step", "stepping._cell_gradient",
    "stepping.to_weighted_form", "stepping.from_weighted_form",
    # stepping -> operators, model
    "operators.helmholtz_solve", "operators.haptotaxis_divergence",
    "operators.gradient_faces", "model.taxis_weight",
    # operators -> scipy
    "operators.cg", "operators.solveh_banded",
    # harness -> analysis
    "analysis.norm", "analysis.bounds_report", "analysis.decay_fit",
    "analysis.sigma_estimate", "analysis.steady_residual",
    "analysis.steady_classify",
)

NO_PARENT = -1


def bindings(package) -> dict[tuple[str, str], object]:
    """What each package module binds under every target's name."""
    attrs = {target.split(".")[1] for target in TARGETS}
    return {(name, attr): getattr(package, name).__dict__.get(attr)
            for name in MODULES for attr in attrs}


class Tracer:
    """Context manager that records a span per call of each target."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.jobs = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.job = 0
        self.cg_iterations = 0
        self._stack = [NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            home, attr = target.split(".")
            original = getattr(self.modules[home], attr)
            fn = self._counted_cg(original) if target == "operators.cg" else original
            wrapper = self._wrap(fn, len(self.names))
            self.names.append(target)
            for module in self.modules.values():
                if module.__dict__.get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _counted_cg(self, cg):
        """``cg`` with a callback that counts its iterations."""
        def counted(*args, **kwargs):
            outer = kwargs.get("callback")

            def callback(xk):
                self.cg_iterations += 1
                if outer is not None:
                    outer(xk)

            kwargs["callback"] = callback
            return cg(*args, **kwargs)
        return counted

    def _wrap(self, fn, name_id: int):
        name_ids, parents, jobs = self.name_ids, self.parents, self.jobs
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return wrapper

    def table(self) -> "SpanTable":
        return SpanTable(self)


class SpanTable:
    """Recorded spans as arrays, with durations and self times in ns.

    A span's self time is its duration minus the durations of its direct
    children.  Calls are synchronous, so children lie inside their parent
    and self times are never negative.
    """

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_ids, dtype=np.uint16).copy()
        self.parent = np.frombuffer(tracer.parents, dtype=np.int64).copy()
        self.job = np.frombuffer(tracer.jobs, dtype=np.uint16).copy()
        self.start = np.frombuffer(tracer.starts, dtype=np.int64).copy()
        self.end = np.frombuffer(tracer.ends, dtype=np.int64).copy()
        self.cg_iterations = tracer.cg_iterations
        self.duration = self.end - self.start
        child = self.parent != NO_PARENT
        covered = np.bincount(self.parent[child], weights=self.duration[child],
                              minlength=self.duration.size)
        self.self_time = self.duration - covered.astype(np.int64)

    def _mask(self, name: str):
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str):
        return self.duration[self._mask(name)]

    def self_times(self, name: str):
        return self.self_time[self._mask(name)]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, job=self.job, start=self.start,
                 end=self.end)
