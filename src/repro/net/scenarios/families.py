"""The built-in scenario families.

Six registered workload shapes, each targeting a different stress axis of
the serving stack (the differential harness replays every family through
the whole engine matrix):

==================  =========================================================
``diurnal``         day/night load ramp over the benign classes — exercises
                    batch cuts at slowly varying rates
``microburst``      calm baseline punctured by short line-rate bursts —
                    exercises open-loop queueing and admission under bursts
``attack_flood``    SSDP-flood + Cridex beacons ramping over a benign
                    baseline, then receding — exercises label mixtures and
                    the anomaly path's traffic shapes
``heavy_hitters``   Zipf-skewed flowlet reuse of a tiny key pool with
                    near-constant elephants — exercises the flow-decision
                    cache (repeating windows) and per-flow state reuse
``flow_churn``      storms of short-lived mice (below the decision window)
                    over a steady baseline — exercises slot-table FIFO
                    eviction and window-incomplete state
``concept_drift``   class parameters interpolating toward a different class
                    mid-trace — exercises accuracy tracking per phase
==================  =========================================================

Every factory takes ``flows`` (base flow count per phase band, scaled
further by ``Scenario.generate(flows_scale=...)``) and ``dataset`` (which
benign profile set to compose).
"""

from __future__ import annotations

from dataclasses import replace

from repro.net.scenarios.base import (PhaseDef, Scenario, TrafficBand,
                                      lerp_profile, register_scenario)
from repro.net.synth.profiles import attack_profile, dataset_profiles


def _benign(dataset: str):
    return dataset_profiles(dataset)


def _elephant(profile, name_suffix="-elephant"):
    """A constant-rate heavy-hitter variant of a benign profile.

    Fixed packet length and a constant IPD make the flow's feature window
    repeat packet after packet — the case the decision cache
    short-circuits (length buckets are ~6 bytes wide, so even small length
    jitter would break the repetition).
    """
    return replace(profile,
                   name=profile.name + name_suffix,
                   len_modes=[(640.0, 0.0, 1.0)],
                   ipd_mu=-7.0, ipd_sigma=0.0,
                   len_period=0.0, len_amp=0.0, corr=0.0,
                   extra_len_jitter=0.0,
                   min_packets=24, max_packets=48)


def _mouse(profile, name_suffix="-mouse"):
    """A short-lived variant (below the decision window) of a profile."""
    return replace(profile, name=profile.name + name_suffix,
                   min_packets=2, max_packets=5)


def _keepalive(profile, name_suffix="-keepalive"):
    """A near-constant-rate service flow (heartbeats, telemetry, NTP).

    Like :func:`_elephant` but with a whisker of jitter on length and IPD:
    consecutive windows repeat only *approximately* (feature buckets move
    by at most one or two), so the exact-window L1 usually misses while
    the quantized L2's verified near-repeat path sees real traffic. This
    is the steady service component every long-running mix carries.
    """
    return replace(profile,
                   name=profile.name + name_suffix,
                   len_modes=[(640.0, 4.0, 1.0)],
                   ipd_mu=-5.0, ipd_sigma=0.05,
                   len_period=0.0, len_amp=0.0, corr=0.0,
                   extra_len_jitter=0.0,
                   min_packets=24, max_packets=48)


@register_scenario("diurnal")
def diurnal(flows: int = 10, dataset: str = "peerrush") -> Scenario:
    profiles = _benign(dataset)

    def mix(scale, ramp="flat"):
        return tuple(TrafficBand(p, max(1, round(flows * scale)), ramp=ramp)
                     for p in profiles)

    # Benign iid windows genuinely never near-repeat (measured hit rate is
    # 0.0 in every phase), so every phase closes the L2 admission gate: the
    # exact L1 stays on, but misses stop paying the box-certificate insert.
    return Scenario(
        name="diurnal",
        description="night trough -> morning ramp -> daytime peak -> "
                    "evening decay over the benign classes",
        phases=(
            PhaseDef("night", 40.0, mix(0.4), l2_insert=False),
            PhaseDef("morning-ramp", 30.0, mix(1.0, ramp="up"),
                     l2_insert=False),
            PhaseDef("peak", 30.0, mix(2.0), l2_insert=False),
            PhaseDef("evening-decay", 40.0, mix(1.0, ramp="down"),
                     l2_insert=False),
        ),
    )


@register_scenario("microburst")
def microburst(flows: int = 8, dataset: str = "peerrush") -> Scenario:
    profiles = _benign(dataset)
    calm = tuple(TrafficBand(p, flows) for p in profiles)
    burst = tuple(TrafficBand(p, 6 * flows, ramp="up") for p in profiles[:2])
    # Like diurnal, all-benign iid traffic: cold at both cache levels by
    # construction, so no phase admits L2 inserts.
    return Scenario(
        name="microburst",
        description="calm baseline punctured by two short high-rate bursts",
        phases=(
            PhaseDef("calm-1", 40.0, calm, l2_insert=False),
            PhaseDef("burst-1", 2.0, burst, l2_insert=False),
            PhaseDef("calm-2", 40.0, calm, l2_insert=False),
            PhaseDef("burst-2", 2.0, burst, l2_insert=False),
            PhaseDef("calm-3", 40.0, calm, l2_insert=False),
        ),
    )


@register_scenario("attack_flood")
def attack_flood(flows: int = 8, dataset: str = "peerrush") -> Scenario:
    profiles = _benign(dataset)
    baseline = tuple(TrafficBand(p, flows) for p in profiles)
    flood = attack_profile("Flood")
    cridex = attack_profile("Cridex")
    return Scenario(
        name="attack_flood",
        description="SSDP reflection flood + Cridex beacons ramp over a "
                    "benign baseline, then recede",
        phases=(
            PhaseDef("baseline", 40.0, baseline),
            PhaseDef("onset", 20.0, baseline + (
                TrafficBand(flood, 2 * flows, ramp="up"),
                TrafficBand(cridex, flows, ramp="up"),
            )),
            PhaseDef("flood", 20.0, baseline + (
                TrafficBand(flood, 6 * flows),
                TrafficBand(cridex, 2 * flows),
            )),
            PhaseDef("recovery", 40.0, baseline),
        ),
    )


@register_scenario("heavy_hitters")
def heavy_hitters(flows: int = 10, dataset: str = "peerrush") -> Scenario:
    profiles = _benign(dataset)
    background = tuple(TrafficBand(p, flows) for p in profiles)
    hitters = TrafficBand(_elephant(profiles[0]), 4 * flows,
                          key_pool=max(2, flows // 2), zipf_a=1.5)
    return Scenario(
        name="heavy_hitters",
        description="Zipf-skewed flowlet reuse of a tiny key pool: a few "
                    "elephant keys carry most packets with repeating windows",
        phases=(
            PhaseDef("warmup", 30.0, background),
            PhaseDef("skewed", 60.0, background + (hitters,)),
            PhaseDef("cooldown", 30.0, background),
        ),
    )


@register_scenario("flow_churn")
def flow_churn(flows: int = 8, dataset: str = "peerrush") -> Scenario:
    profiles = _benign(dataset)
    service = TrafficBand(_keepalive(profiles[0]), max(2, flows // 2))
    baseline = tuple(TrafficBand(p, flows) for p in profiles) + (service,)
    mice = tuple(TrafficBand(_mouse(p), 8 * flows) for p in profiles)
    return Scenario(
        name="flow_churn",
        description="storms of short-lived mice (below the decision window) "
                    "churning the flow-slot table over a steady baseline "
                    "with a near-constant keepalive service",
        phases=(
            PhaseDef("steady-1", 30.0, baseline),
            PhaseDef("mice-storm-1", 10.0, mice),
            PhaseDef("steady-2", 30.0, baseline),
            PhaseDef("mice-storm-2", 10.0, mice),
        ),
    )


@register_scenario("concept_drift")
def concept_drift(flows: int = 12, dataset: str = "peerrush") -> Scenario:
    profiles = _benign(dataset)
    a, b = profiles[0], profiles[1]
    beacon = TrafficBand(_keepalive(profiles[-1], "-beacon"),
                         max(2, flows // 3))
    rest = tuple(TrafficBand(p, flows) for p in profiles[1:]) + (beacon,)
    return Scenario(
        name="concept_drift",
        description=f"{a.name} traffic drifts toward {b.name}'s statistics "
                    "mid-trace while keeping its ground-truth label; a "
                    "near-constant beacon service rides along unchanged",
        phases=(
            PhaseDef("stable-a", 40.0, (TrafficBand(a, flows),) + rest),
            PhaseDef("drift", 60.0,
                     (TrafficBand(a, 2 * flows, drift_to=b),) + rest),
            PhaseDef("stable-b", 40.0,
                     (TrafficBand(lerp_profile(a, b, 1.0), flows),) + rest),
        ),
    )
