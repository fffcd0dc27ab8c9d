"""Measure the exponential collapse rates and check them against theory.

The theorem_bound3 preset has growth on and a production function with
a positive floor, so the matrix sup norm must decay like
exp(-ubar*g(0)/gamma * t) = exp(-t) once the transient clears, the
cell and protease fields must settle to their flat levels, and the
protease field must stay bounded away from zero late in the run.
This script runs the preset, scores every claim, and prints the
fitted rates next to the closed-form predictions.

Usage: python3 demos/decay_rates.py
"""

from haptosim.harness import preset_scenario, run, verify


def main():
    scenario = preset_scenario("theorem_bound3")
    params = scenario.params
    result = run(scenario)
    report = verify(result)

    predicted = params.steady_protease(result.u_bar)
    print(f"ran {scenario.name} to t={result.final_state.t:g} "
          f"in {result.wall_time:.2f}s")
    print(f"predicted matrix decay rate ubar*g(0)/gamma = {predicted:g}\n")

    for claim in report.claims:
        line = f"  {claim.claim_id:32s} {claim.verdict:14s}"
        if claim.fitted is not None:
            line += (f" rate={claim.fitted.rate:8.4f}"
                     f"  r^2={claim.fitted.r_squared:.6f}")
        else:
            line += f" measured={claim.measured:.6g}"
        print(line)

    v_rate = report.claim("matrix_sup_decay_rate").fitted.rate
    print(f"\nfitted matrix rate {v_rate:.4f} vs predicted {predicted:.4f} "
          f"({abs(v_rate - predicted) / predicted:.2%} off)")
    print("all claims pass" if report.all_pass else "SOME CLAIMS FAILED")


if __name__ == "__main__":
    main()
