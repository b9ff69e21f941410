"""Scenario replay: time-varying workloads + the differential harness.

Walks the scenario subsystem end to end:

1. build a registered scenario family and inspect its phase timeline,
2. train + compile a classifier and serve the scenario through
   the unified `PegasusEngine.serve` — one per-phase report (watch the attack
   flood crater accuracy in its own phase and the heavy-hitter phase spike
   the cache hit rate),
3. register a *custom* scenario in one call and serve it,
4. run the differential harness: replay a scenario through the serving
   matrix (topology x cache x lookup backend x runtime kind) and check
   every decision stream is bit-identical to the scalar oracle
   (`repro.eval.oracle`, a pure-Python per-packet reference that shares no
   code with the served path).

Run:  python examples/scenario_replay.py
(`SCENARIO_FLOWS_PER_CLASS` shrinks the training set for CI smoke runs.)
"""

import os

from repro import EngineConfig, PegasusEngine
from repro.eval.differential import quick_cases, run_differential
from repro.eval.reporting import render_scenario_table
from repro.eval.runner import train_and_eval_model
from repro.net import build_scenario, register_scenario, scenario_names
from repro.net.scenarios import PhaseDef, Scenario, TrafficBand
from repro.net.synth.profiles import dataset_profiles

FLOWS_PER_CLASS = int(os.environ.get("SCENARIO_FLOWS_PER_CLASS", "80"))


def main():
    print("=== 1. scenario families ===")
    print(f"registered: {', '.join(scenario_names())}")
    scenario = build_scenario("attack_flood")
    workload = scenario.generate(seed=0, flows_scale=0.5)
    print(f"\n'attack_flood' horizon {scenario.horizon:.0f}s, "
          f"{workload.n_packets} packets:")
    for span in workload.phases:
        print(f"  {span.name:<10s} [{span.t_start:5.0f}s..{span.t_end:5.0f}s) "
              f"{span.n_packets:5d} packets")

    print("\n=== 2. serve per phase ===")
    row = train_and_eval_model("MLP-B", "peerrush",
                               flows_per_class=FLOWS_PER_CLASS, seed=0)
    compiled = row["_model"].compiled
    config = EngineConfig(feature_mode="stats", batch_size=256,
                          decision_cache="l1")
    for name in ("attack_flood", "heavy_hitters"):
        with PegasusEngine.from_compiled(compiled, config) as engine:
            report = engine.serve(build_scenario(name), seed=0,
                                  flows_scale=0.5)
        print(render_scenario_table(report.summary()))
        print()

    print("=== 3. a custom scenario is one registration call ===")
    profiles = dataset_profiles("peerrush")
    register_scenario("spiky-emule", lambda flows=12, **_: Scenario(
        name="spiky-emule",
        phases=(
            PhaseDef("quiet", 20.0, (TrafficBand(profiles[0], flows),)),
            PhaseDef("spike", 3.0, (TrafficBand(profiles[0], 8 * flows,
                                                ramp="up"),)),
            PhaseDef("drain", 20.0, (TrafficBand(profiles[0], flows,
                                                 ramp="down"),)),
        )), overwrite=True)
    with PegasusEngine.from_compiled(compiled, config) as engine:
        report = engine.serve(build_scenario("spiky-emule"), seed=1)
    print(render_scenario_table(report.summary()))

    print("\n=== 4. differential replay across the serving matrix ===")
    cases = quick_cases(runtimes=("windowed",))
    workload = build_scenario("microburst").generate(seed=3, flows_scale=0.3)
    diff = run_differential(workload, sources={"windowed": compiled},
                            cases=cases)
    for r in diff.rows:
        print(f"  {r['case']:<38s} "
              f"{'bit-identical' if r['match'] else 'DIVERGED'} "
              f"({r['n_decisions']} decisions)")
    print(f"matrix: {len(diff.rows)} cases, decisions_match="
          f"{diff.decisions_match}, stats_consistent={diff.stats_consistent}")
    assert diff.ok


if __name__ == "__main__":
    main()
