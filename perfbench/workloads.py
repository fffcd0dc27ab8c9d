"""Configuration documents for the benchmark workloads.

A workload is a list of jobs, each a ``(name, document)`` pair in the
program's configuration format.  Documents are built from the benchmark
seed with the standard library only, so building them imports nothing
from the program, and the program sees only the finished text, never the
seed.

Why these three workloads:

* ``presets_1d`` runs the four stock presets at 128 cells, the runs the
  paper's theorems are checked on.  Per-step call overhead dominates.  It
  takes no input from the seed: the presets are fixed.
* ``invasion_2d`` drops a colony into a uniform matrix on 64 x 64 cells in
  the primitive upwind form.  Nearly all of its time is the conjugate
  gradient Helmholtz solve; it records every tenth step.
* ``records_3d`` runs the weighted form on 24 x 20 x 16 cells and records
  and snapshots every step, so the artifact writer dominates and the
  retained states set the memory peak.

For the 2D and 3D workloads the seed picks the colony's bump centre, width
and amplitude inside fixed ranges.  The ranges keep every seed limited by
``dt_max``, so each seed takes the same number of steps and runs differ in
their data, not in their amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("presets_1d", "invasion_2d", "records_3d")

# bump (centre, width, amplitude) ranges per seeded workload; the centre is
# the same coordinate on every axis
BUMP_RANGES = {
    "invasion_2d": ((0.3, 0.7), (0.05, 0.15), (0.5, 1.0)),
    "records_3d": ((0.3, 0.5), (0.1, 0.2), (0.5, 1.0)),
}


def document(*, name: str, regime: str, mu: float, taxis: str,
             production: str, cells: tuple[int, ...],
             extent: tuple[float, ...], t_end: float, dt_max: float,
             record_every: float, u0: str, v0: str, m0: str,
             formulation: str = "primitive") -> str:
    """One configuration document, in the layout ``haptosim presets`` prints."""
    lines = [
        "[model]",
        f"name = {name}",
        f"regime = {regime}",
        f"mu = {mu!r}",
        "gamma = 1.0",
        "diffusion = 1.0",
        f"taxis = {taxis}",
        f"production = {production}",
        f"formulation = {formulation}",
        "",
        "[grid]",
        f"cells = {', '.join(str(n) for n in cells)}",
        f"extent = {', '.join(repr(e) for e in extent)}",
        f"origin = {', '.join('0.0' for _ in cells)}",
        "",
        "[stepper]",
        f"t_end = {t_end!r}",
        f"dt_max = {dt_max!r}",
        f"record_every = {record_every!r}",
        "cfl = 0.5",
        "flux = upwind",
        "",
        "[initial]",
        f"u0 = {u0}",
        f"v0 = {v0}",
        f"m0 = {m0}",
        "seed = 0",
        "jitter = 0.0",
    ]
    return "\n".join(lines) + "\n"


def _presets() -> list[dict]:
    theorem_u0 = "bump(0.5, 0.15, 0.2, 1.0)"
    theorem_v0 = "bump(0.5, 0.15, 0.3, 0.5)"
    common = dict(taxis="constant(0.5)", cells=(128,), extent=(1.0,),
                  m0="constant(0.1)")
    return [
        dict(common, name="theorem_bound3", regime="theorem_bound3", mu=1.0,
             production="affine(1.0, 1.0)", t_end=32.0, dt_max=0.01,
             record_every=0.1, u0=theorem_u0, v0=theorem_v0),
        dict(common, name="theorem_bound5", regime="theorem_bound5", mu=1.0,
             production="affine(0.0, 1.0)", t_end=20000.0, dt_max=0.25,
             record_every=50.0, u0=theorem_u0, v0=theorem_v0),
        dict(common, name="mu_zero_conservation", regime="mu_zero_conservation",
             mu=0.0, taxis="constant(1.0)", production="affine(0.0, 1.0)",
             t_end=5.0, dt_max=0.01, record_every=0.0125, u0=theorem_u0,
             v0=theorem_v0),
        dict(common, name="byrne_baseline", regime="byrne_baseline", mu=1.0,
             production="affine(0.0, 1.0)", t_end=10.0, dt_max=0.01,
             record_every=0.025, u0="bump(0.5, 0.1, 0.9, 0.1)",
             v0="constant(0.8)", m0="constant(0.0)"),
    ]


def _bump(workload: str, seed: int) -> str:
    rng = random.Random(f"{workload}:{seed}")
    centre, width, amplitude = (round(rng.uniform(lo, hi), 4)
                                for lo, hi in BUMP_RANGES[workload])
    return f"bump({centre!r}, {width!r}, {amplitude!r})"


def _specs(workload: str, seed: int) -> list[dict]:
    if workload == "presets_1d":
        return _presets()
    if workload == "invasion_2d":
        return [dict(name="invasion_2d", regime="byrne_baseline", mu=1.0,
                     taxis="constant(0.5)", production="affine(0.0, 1.0)",
                     cells=(64, 64), extent=(1.0, 1.0), t_end=2.0,
                     dt_max=0.01, record_every=0.1, u0=_bump(workload, seed),
                     v0="constant(0.8)", m0="constant(0.0)")]
    if workload == "records_3d":
        return [dict(name="records_3d", regime="custom", mu=1.0,
                     taxis="constant(1.0)", production="affine(0.0, 1.0)",
                     formulation="weighted", cells=(24, 20, 16),
                     extent=(1.2, 1.0, 0.8), t_end=0.4, dt_max=0.01,
                     record_every=0.01, u0=_bump(workload, seed),
                     v0="constant(1.0)", m0="constant(0.0)")]
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def _shrunk(spec: dict) -> dict:
    """A small, short copy of a job for smoke tests: few cells, ten steps."""
    dt = spec["dt_max"]
    return dict(spec, cells=tuple(max(4, n // 8) for n in spec["cells"]),
                t_end=10 * dt, record_every=min(spec["record_every"], 2 * dt))


def jobs(workload: str, seed: int, shrink: bool = False) -> list[tuple[str, str]]:
    """The workload's ``(job name, document)`` pairs for ``seed``."""
    specs = _specs(workload, seed)
    if shrink:
        specs = [_shrunk(s) for s in specs]
    return [(s["name"], document(**s)) for s in specs]
