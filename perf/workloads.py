"""The six benchmark workloads: one traffic source x one ``EngineConfig``.

Why each workload exists is recorded next to its name in ``BENCHMARK.json``
(and at length in ``perf/README.md``); this module only says *what* it is.
``--seed`` drives traffic generation and nothing else: the model is trained
with a fixed seed, and the engine receives only the generated packets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.net.scenarios import (PhaseDef, Scenario, ScenarioTrace,
                                 TrafficBand, build_scenario)
from repro.net.synth.profiles import dataset_profiles
from repro.serving import EngineConfig

DATASET = "peerrush"
# --quick shrinks every trace to this share of its flows.
QUICK_SCALE = 1 / 8


def mice_slots_scenario() -> Scenario:
    """Two storms of below-window mice between short steady phases.

    A mouse (2-5 packets) never fills the 8-packet decision window, so a
    storm costs key canonicalisation, slot acquisition and FIFO eviction but
    almost no model time; the steady phases keep some decisions flowing so
    the correctness check has something to compare.
    """
    profiles = dataset_profiles(DATASET)
    mice = tuple(TrafficBand(replace(p, name=p.name + "-mouse",
                                     min_packets=2, max_packets=5), 500)
                 for p in profiles)
    steady = tuple(TrafficBand(p, 6) for p in profiles)
    return Scenario(
        name="mice_slots",
        description="storms of below-window mice churning the slot table",
        phases=(PhaseDef("steady-1", 5.0, steady),
                PhaseDef("storm-1", 20.0, mice),
                PhaseDef("steady-2", 5.0, steady),
                PhaseDef("storm-2", 20.0, mice),
                PhaseDef("steady-3", 5.0, steady)))


def _family(name: str):
    return lambda: build_scenario(name, dataset=DATASET)


TRAFFIC = {
    "heavy_hitters": _family("heavy_hitters"),
    "microburst": _family("microburst"),
    "mice_slots": mice_slots_scenario,
}


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    Open-loop workloads pace the trace so that its mean offered rate is
    ``offered_pps`` (see :meth:`engine_config`).
    """

    name: str
    traffic: str
    flows_scale: float
    config: EngineConfig
    mode: str = "closed"
    offered_pps: float | None = None
    max_gap: float | None = None

    def generate(self, seed: int, quick: bool = False) -> ScenarioTrace:
        scale = self.flows_scale * (QUICK_SCALE if quick else 1.0)
        return TRAFFIC[self.traffic]().generate(seed=seed, flows_scale=scale)

    def scheduled_seconds(self, trace: ScenarioTrace,
                          time_scale: float) -> float:
        """Wall seconds the paced producer needs to offer the whole trace."""
        return float(trace.arrival_offsets(time_scale,
                                           max_gap=self.max_gap)[-1])

    def engine_config(self, trace: ScenarioTrace) -> EngineConfig:
        """The config to serve ``trace`` under.

        Closed loop: the declared config. Open loop: ``time_scale`` is solved
        (bisection; the paced duration is monotone in it, also under the
        ``max_gap`` clip) so the mean offered rate is ``offered_pps`` whatever
        the seed made the trace's own time span.
        """
        if self.mode != "open":
            return self.config
        target = trace.n_packets / self.offered_pps
        lo, hi = 0.0, 1.0
        while self.scheduled_seconds(trace, hi) < target:
            hi *= 2.0
        for _ in range(40):
            mid = (lo + hi) / 2.0
            if self.scheduled_seconds(trace, mid) < target:
                lo = mid
            else:
                hi = mid
        return replace(self.config, time_scale=hi)


# The plain deployment: local, index lookup, cache off. Every workload is a
# variation of it, and the correctness reference replays through it.
BASE_CONFIG = EngineConfig(feature_mode="stats", batch_size=256)

WORKLOADS = {w.name: w for w in (
    Workload("hitters_base", "heavy_hitters", 2, BASE_CONFIG),
    Workload("hitters_l1l2", "heavy_hitters", 2,
             replace(BASE_CONFIG, decision_cache="l1+l2")),
    Workload("hitters_tcam", "heavy_hitters", 2,
             replace(BASE_CONFIG, lookup_backend="tcam-pruned")),
    Workload("mice_slots", "mice_slots", 2, replace(BASE_CONFIG, capacity=2048)),
    Workload("mice_par2", "mice_slots", 2,
             replace(BASE_CONFIG, capacity=2048, topology="parallel", n_workers=2)),
    Workload("burst_open", "microburst", 1.8,
             replace(BASE_CONFIG, batch_size=32, admission="aimd",
                     p99_target_ms=50.0, queue_capacity=512),
             mode="open", offered_pps=3000.0, max_gap=0.25),
)}
