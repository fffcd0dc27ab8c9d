"""Cross-check the two discretizations of the same model.

The solver can step the cell density either itself or through the
weighted density u*exp(-int_0^v chi), whose equation has no drift
term; both runs record the cell density.  Both must tell the same
story: this script runs them side by side at two resolutions and
prints the sup-norm gap in the recorded cell density, then measures the scheme's spatial order on a pure-diffusion scenario
where the exact answer is smooth.

Usage: python3 demos/two_formulations.py
"""

from dataclasses import replace

import numpy as np

from haptosim import FunctionSpec, ModelParams, build_grid
from haptosim.analysis import equivalence_gap
from haptosim.harness import (
    InitialSpec,
    Scenario,
    convergence_study,
    preset_scenario,
    run,
)
from haptosim.stepping import StepperConfig


def main():
    base = preset_scenario("theorem_bound3")
    print("formulation gap on theorem_bound3 (sup norm of cell density):")
    for level in (0, 1):
        cfg = base.stepper
        scen = replace(
            base,
            grid=build_grid(base.grid.cells[0] * 2 ** level, 1.0),
            stepper=StepperConfig(cfg.t_end, cfg.dt_max / 2 ** level,
                                  cfg.record_every, cfg.cfl))
        primitive = run(scen)
        weighted = run(replace(scen, formulation="weighted"))
        gap = equivalence_gap(primitive.recorded_states,
                              weighted.recorded_states)
        print(f"  {scen.grid.cells[0]:4d} cells, dt_max={scen.stepper.dt_max:g}: "
              f"max gap {np.max(gap.values):.3e} "
              f"(at t={gap.t[np.argmax(gap.values)]:.1f})")

    print("\nspatial order on a pure diffusion problem:")
    pure = Scenario(
        name="pure_diffusion", regime="custom",
        params=ModelParams(1.0, 1.0, 0.0, FunctionSpec.constant(0.0),
                           FunctionSpec.constant(0.0)),
        grid=build_grid(32, 1.0), stepper=StepperConfig(0.02, 2e-4, 0.02),
        initial_cells=InitialSpec.bump(0.5, 0.12, 1.0, 0.5),
        initial_matrix=InitialSpec.constant(0.0),
        initial_protease=InitialSpec.constant(0.0))
    study = convergence_study(pure, levels=4)
    print(f"  {'cells':>6s} {'h':>10s} {'error':>12s} {'order':>7s}")
    for row in study.rows:
        order = f"{row.observed_order:7.3f}" if not np.isnan(row.observed_order) else "      -"
        print(f"  {row.cells[0]:6d} {row.h:10.4e} {row.error:12.4e} {order}")


if __name__ == "__main__":
    main()
