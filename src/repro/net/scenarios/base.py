"""Declarative time-varying workload scenarios.

Every benchmark used to replay the one static Figure-8 mix; real serving
stacks diverge under *time-varying* traffic — load ramps, bursts, attack
floods, heavy-hitter skew, flow churn, concept drift. This module is the
declarative layer that composes the existing :class:`ClassProfile`
generators into exactly those workloads:

- :class:`TrafficBand` — one traffic component of a phase: a profile, how
  many flows it launches, how arrivals ramp across the phase, optional
  Zipf-skewed reuse of a small flow-key pool (heavy hitters), and an
  optional ``drift_to`` profile whose parameters the band interpolates
  toward across the phase (concept drift).
- :class:`PhaseDef` — a named stretch of trace time holding several bands.
- :class:`Scenario` — an ordered tuple of phases. ``generate(seed)``
  materializes a seeded, fully reproducible :class:`ScenarioTrace`: the
  interleaved packet trace, per-packet ground-truth labels, and the
  phase-annotated timeline (:class:`PhaseSpan` per phase).

Reproducibility contract: every flow is generated from its **own**
``spawn_rngs`` child stream (derived from the scenario seed through the
phase/band structure), so the trace is a pure function of
``(scenario, seed, flows_scale)`` — inserting a band or reordering phases
never perturbs the packets of unrelated bands.

Scenarios are registered by name (one call)::

    from repro.net.scenarios import PhaseDef, Scenario, TrafficBand, register_scenario

    register_scenario("my-burst", lambda flows=40, **_: Scenario(
        name="my-burst",
        phases=(PhaseDef("calm", 30.0, (TrafficBand(profile, flows),)),
                PhaseDef("burst", 2.0, (TrafficBand(profile, 6 * flows),))),
    ))

    workload = build_scenario("my-burst").generate(seed=7)

The built-in families live in :mod:`repro.net.scenarios.families`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.net.flow import Flow
from repro.net.packet import FlowKey
from repro.net.synth.base import ClassProfile, generate_flow, random_flow_key
from repro.net.traces import Trace
from repro.utils.rng import new_rng, spawn_rngs

ARRIVAL_RAMPS = ("flat", "up", "down")


@dataclass(frozen=True)
class TrafficBand:
    """One traffic component active during a phase.

    ``flows`` flows of ``profile`` are launched inside the phase window;
    ``ramp`` shapes the arrival-time density across the phase (``"flat"``
    uniform, ``"up"`` linearly increasing, ``"down"`` linearly decreasing).
    ``key_pool`` (heavy-hitter mode) draws each flow's 5-tuple from a pool
    of that many fixed keys with Zipf(``zipf_a``) rank probabilities instead
    of a fresh random key per flow — the same canonical key then carries
    many flowlets, which is what stresses flow-keyed state (decision cache,
    slot table). ``drift_to`` linearly interpolates the numeric profile
    parameters from ``profile`` to it across the phase (concept drift); the
    label and payload signature stay ``profile``'s, so ground truth is
    preserved while the distribution walks away from it.
    """

    profile: ClassProfile
    flows: int
    ramp: str = "flat"
    key_pool: int | None = None
    zipf_a: float = 1.3
    drift_to: ClassProfile | None = None

    def __post_init__(self):
        if self.ramp not in ARRIVAL_RAMPS:
            raise ValueError(f"unknown ramp {self.ramp!r}; choose from {ARRIVAL_RAMPS}")
        if self.flows < 0:
            raise ValueError(f"flows must be >= 0, got {self.flows}")
        if self.key_pool is not None and self.key_pool < 1:
            raise ValueError(f"key_pool must be >= 1 or None, got {self.key_pool}")


@dataclass(frozen=True)
class PhaseDef:
    """A named stretch of trace time with its active traffic bands.

    ``l2_insert=False`` marks a phase whose windows have near-zero repeat
    probability (benign iid mixes): the serving engine then closes the
    approximate-L2 admission gate for the phase's packets, skipping the
    per-miss box-certificate computation and insert churn without changing
    a single decision (the exact L1 stays fully active).
    """

    name: str
    duration: float
    bands: tuple[TrafficBand, ...]
    l2_insert: bool = True

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"phase {self.name!r} duration must be > 0")


@dataclass(frozen=True)
class PhaseSpan:
    """One phase's slice of a materialized trace.

    ``[t_start, t_end)`` is the phase's trace-time window and
    ``[start, stop)`` the half-open packet-index range of the sorted trace
    that falls inside it (the final phase also absorbs packets of flows that
    outlive the declared horizon). ``l2_insert`` carries the phase's L2
    admission gate (see :class:`PhaseDef`).
    """

    name: str
    t_start: float
    t_end: float
    start: int
    stop: int
    l2_insert: bool = True

    @property
    def n_packets(self) -> int:
        return self.stop - self.start


@dataclass
class ScenarioTrace:
    """A materialized scenario: trace + ground truth + phase timeline."""

    scenario: str
    seed: int | None
    trace: Trace
    labels: np.ndarray                  # per-packet ground-truth label
    phases: list[PhaseSpan]

    @property
    def n_packets(self) -> int:
        return len(self.trace)

    def phase_labels(self) -> np.ndarray:
        """Per-packet phase index (position in :attr:`phases`)."""
        out = np.empty(self.n_packets, dtype=np.int64)
        for i, span in enumerate(self.phases):
            out[span.start:span.stop] = i
        return out

    def ts_column(self) -> np.ndarray:
        """Per-packet trace timestamps (float64 seconds, sorted)."""
        return self.trace.ts

    def arrival_offsets(self, time_scale: float = 1.0,
                        max_gap: float | None = None) -> np.ndarray:
        """Wall-clock arrival offsets for an open-loop replay of the trace.

        Trace time is scaled by ``time_scale`` (seconds of wall clock per
        second of trace time; 0 collapses the whole trace to t=0).
        ``max_gap`` clips any single scaled inter-arrival gap to that many
        wall seconds — a pacing hook that fast-forwards long idle stretches
        (diurnal troughs, calm-phase tails) without touching the arrival
        order or the dense parts of the schedule, where queueing actually
        happens.
        """
        ts = self.ts_column()
        if self.n_packets == 0:
            return ts
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        gaps = np.diff(ts, prepend=ts[0]) * float(time_scale)
        if max_gap is not None:
            gaps = np.minimum(gaps, float(max_gap))
        return np.cumsum(gaps)

    def subset(self, indices) -> tuple[Trace, np.ndarray]:
        """The sub-trace (and labels) at the given sorted packet indices.

        The open-loop differential check replays exactly the admitted
        subset through the scalar reference; this is that subset.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return self.trace.take(idx), np.asarray(self.labels)[idx]


def _arrival_times(rng: np.random.Generator, n: int, t0: float, duration: float,
                   ramp: str) -> np.ndarray:
    """``n`` sorted arrival timestamps in ``[t0, t0 + duration)``."""
    u = rng.random(n)
    if ramp == "up":        # density grows linearly: inverse-CDF of 2u
        u = np.sqrt(u)
    elif ramp == "down":
        u = 1.0 - np.sqrt(1.0 - u)
    return t0 + duration * np.sort(u)


def _lerp(a: float, b: float, u: float) -> float:
    return float(a + (b - a) * u)


def lerp_profile(a: ClassProfile, b: ClassProfile, u: float) -> ClassProfile:
    """Interpolate the numeric parameters of two profiles (``u`` in [0, 1]).

    Length-mode mixtures interpolate pairwise when both profiles have the
    same number of modes (otherwise the nearer profile's modes are used
    wholesale). Identity fields — name, label, payload signature bytes,
    packet-count bounds — stay ``a``'s: drift moves the *distribution*, not
    the ground truth.
    """
    u = float(np.clip(u, 0.0, 1.0))
    if len(a.len_modes) == len(b.len_modes):
        modes = [(_lerp(ma[0], mb[0], u), _lerp(ma[1], mb[1], u),
                  _lerp(ma[2], mb[2], u))
                 for ma, mb in zip(a.len_modes, b.len_modes)]
    else:
        modes = list(a.len_modes if u < 0.5 else b.len_modes)
    return replace(
        a,
        len_modes=modes,
        ipd_mu=_lerp(a.ipd_mu, b.ipd_mu, u),
        ipd_sigma=_lerp(a.ipd_sigma, b.ipd_sigma, u),
        len_period=_lerp(a.len_period, b.len_period, u),
        len_amp=_lerp(a.len_amp, b.len_amp, u),
        corr=_lerp(a.corr, b.corr, u),
        extra_len_jitter=_lerp(a.extra_len_jitter, b.extra_len_jitter, u),
        motif_prob=_lerp(a.motif_prob, b.motif_prob, u),
        header_noise=_lerp(a.header_noise, b.header_noise, u),
    )


def _zipf_weights(n: int, a: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** a
    return w / w.sum()


@dataclass(frozen=True)
class Scenario:
    """An ordered tuple of phases; ``generate`` materializes it."""

    name: str
    phases: tuple[PhaseDef, ...]
    description: str = ""

    def __post_init__(self):
        if not self.phases:
            raise ValueError(f"scenario {self.name!r} has no phases")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate phase "
                             f"names: {names}")

    @property
    def horizon(self) -> float:
        """Total declared trace time across all phases."""
        return float(sum(p.duration for p in self.phases))

    def generate(self, seed: int | None = None,
                 flows_scale: float = 1.0) -> ScenarioTrace:
        """Materialize the scenario into a seeded, reproducible workload.

        ``flows_scale`` multiplies every band's flow count (tests and the
        fuzzer shrink workloads with it). Each band gets its own spawned
        RNG child, and each flow its own grandchild, so the result is a
        pure function of ``(self, seed, flows_scale)``.
        """
        if flows_scale <= 0:
            raise ValueError(f"flows_scale must be > 0, got {flows_scale}")
        root = new_rng(seed)
        band_rngs = iter(spawn_rngs(root, sum(len(p.bands) for p in self.phases)))

        flows: list[Flow] = []
        t0 = 0.0
        for phase in self.phases:
            for band in phase.bands:
                rng = next(band_rngs)
                n = int(round(band.flows * flows_scale))
                if n <= 0:
                    continue
                starts = _arrival_times(rng, n, t0, phase.duration, band.ramp)
                keys: list[FlowKey | None] = [None] * n
                if band.key_pool is not None:
                    pool = [random_flow_key(rng) for _ in range(band.key_pool)]
                    picks = rng.choice(len(pool), size=n,
                                       p=_zipf_weights(len(pool), band.zipf_a))
                    keys = [pool[int(i)] for i in picks]
                flow_rngs = spawn_rngs(rng, n)
                for i in range(n):
                    profile = band.profile
                    if band.drift_to is not None:
                        u = (float(starts[i]) - t0) / phase.duration
                        profile = lerp_profile(profile, band.drift_to, u)
                    flows.append(generate_flow(profile, flow_rngs[i],
                                               start_ts=float(starts[i]),
                                               key=keys[i]))
            t0 += phase.duration

        trace = Trace([p for f in flows for p in f.packets])
        labels = np.repeat(np.asarray([f.label for f in flows], dtype=np.int64),
                           [len(f.packets) for f in flows])
        order = np.argsort(trace.ts, kind="stable")
        trace = trace.take(order)
        labels = labels[order]
        ts = trace.ts

        spans: list[PhaseSpan] = []
        t0 = 0.0
        for i, phase in enumerate(self.phases):
            t1 = t0 + phase.duration
            start = int(np.searchsorted(ts, t0, side="left"))
            stop = (len(ts) if i == len(self.phases) - 1
                    else int(np.searchsorted(ts, t1, side="left")))
            spans.append(PhaseSpan(name=phase.name, t_start=t0, t_end=t1,
                                   start=start, stop=stop,
                                   l2_insert=phase.l2_insert))
            t0 = t1
        return ScenarioTrace(scenario=self.name, seed=seed, trace=trace,
                             labels=labels, phases=spans)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SCENARIOS: dict[str, Callable[..., Scenario]] = {}


def register_scenario(name: str, factory: Callable[..., Scenario] | None = None,
                      *, overwrite: bool = False):
    """Register a scenario factory under ``name`` (usable as a decorator).

    ``factory(**params) -> Scenario`` builds the scenario; parameters are
    factory-specific sizing knobs (the built-ins take ``flows`` and
    ``dataset``). Registering an existing name raises unless
    ``overwrite=True``.
    """
    def _register(fn):
        if not overwrite and name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered "
                             "(pass overwrite=True to replace)")
        _SCENARIOS[name] = fn
        return fn
    return _register if factory is None else _register(factory)


def unregister_scenario(name: str) -> None:
    _SCENARIOS.pop(name, None)


def scenario_names() -> tuple[str, ...]:
    """All registered scenario family names, sorted."""
    return tuple(sorted(_SCENARIOS))


def build_scenario(name: str, **params) -> Scenario:
    """Instantiate one registered scenario family."""
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; choose from "
                         f"{scenario_names()}") from None
    return factory(**params)
