"""Open-loop serving front-end: paced arrivals, admission control, SLOs.

Everything else in the serving stack is *closed-loop*: the replay hands the
next packet over exactly when the engine is ready for it, so throughput is
the only axis a report can have. Real dataplanes are **open-loop** — packets
arrive on the wire whether or not the classifier is keeping up — and the
quantities that matter under load are decision *latency* (p50/p99/p999
sojourn through the ingress queue) and *what got shed* when the queue
backed up.

This module is that front-end, three pieces:

- :class:`OpenLoopPump` — one loop that is producer and consumer by turns.
  Between two chunks it offers every packet whose precomputed wall-clock
  arrival offset has come (scenario trace timestamps scaled by
  ``EngineConfig.time_scale``; see ``ScenarioTrace.arrival_offsets`` for the
  gap-clipping pacing hook) to the admission policy and the FIFO ingress
  queue; then it drains one bounded chunk through the engine's dispatcher and
  stamps per-packet completion times. With ``time_scale=0`` the pump
  degenerates to a synchronous, deterministic as-fast-as-possible replay (no
  sleeps) — the mode the bit-identity tests pin against closed-loop replay.

- :class:`AdmissionPolicy` and the built-ins — ``none`` (admit everything,
  unbounded queue: the measurement baseline), ``tail-drop`` (shed at a full
  ingress queue — all the protection a plain bounded buffer gives you), and
  ``aimd`` (an SFC-style *source throttle*: a credit rate multiplicatively
  cut on queue-pressure/latency signals and additively recovered, so load is
  shed at the source **before** admitted packets accumulate a queue worth of
  sojourn). ``EngineConfig(admission=...)`` picks one of the three from
  the engine's closed table. The pump records exactly which packet indices
  were shed, and the differential harness proves the reported admitted
  subset replays bit-identically against the scalar reference — a serve
  cannot silently drop or invent decisions.

- :class:`OpenLoopReport` — layered on the engine's ``ServingReport``:
  overall and per-phase p50/p99/p999 sojourn latency, shed/admitted counts,
  offered vs admitted pps, and a downsampled queue-depth timeline.

The module is deliberately engine-agnostic (the engine hands the pump a
``serve_chunk(indices) -> decisions`` closure), so it imports nothing from
:mod:`repro.serving.engine` and stays cycle-free.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.dataplane.decisions import DecisionBatch

# A packet due within this long is offered now rather than slept for (timer
# granularity).
_MIN_SLEEP = 1e-4
# Points kept in the downsampled queue-depth timeline.
_TIMELINE_POINTS = 240


# ---------------------------------------------------------------------------
# Admission policies
# ---------------------------------------------------------------------------

class AdmissionPolicy:
    """Decides, per arriving packet, whether it enters the ingress queue.

    ``admit(seq, depth, now)`` is called for every arrival (``depth`` the
    current queue depth, ``now`` seconds since the replay started);
    ``observe(served, sojourn, depth, now)`` is the feedback hook fired after
    each drained chunk (``sojourn`` the oldest drained packet's queue time —
    the in-flight latency signal). The pump calls both from its one thread,
    so policies need no locking.
    """

    name = "none"

    def admit(self, seq: int, depth: int, now: float) -> bool:
        return True

    def observe(self, served: int, sojourn: float, depth: int,
                now: float) -> None:
        pass


class NoAdmission(AdmissionPolicy):
    """Admit everything; the ingress queue is unbounded.

    The pure open-loop measurement baseline: under overload the queue (and
    the sojourn percentiles) grow without bound, which is exactly the
    behavior the report should show when nothing protects the engine.
    """

    name = "none"


class TailDropAdmission(AdmissionPolicy):
    """Shed arrivals while the ingress queue is full.

    All the protection a plain bounded buffer provides — and the reference
    point the AIMD throttle is gated against: every packet tail-drop *does*
    admit under overload has a full queue in front of it, so its sojourn is
    ~``queue_capacity / service_rate`` regardless of how fast the engine
    drains.
    """

    name = "tail-drop"

    def __init__(self, queue_capacity: int):
        self.queue_capacity = int(queue_capacity)

    def admit(self, seq: int, depth: int, now: float) -> bool:
        return depth < self.queue_capacity


class AimdAdmission(AdmissionPolicy):
    """SFC-style source throttle: AIMD on the admission *rate*.

    Each arrival earns ``rate`` credits and is admitted when a full credit
    is available, so ``rate`` is the admitted fraction of offered load.
    Feedback signals cut it multiplicatively (x ``decrease``) and quiet
    periods recover it additively (+ ``increase`` per drained chunk):

    - **latency**: a drained chunk whose oldest packet waited longer than
      ``backoff_fraction * target_s`` cuts the rate — throttling at the
      source while the queue is still a fraction of a target deep, which is
      what keeps the p99 *under* the target rather than at it;
    - **queued delay**: each ``observe`` also refreshes an EWMA estimate of
      the consumer's service rate, and an arrival that finds more than
      ``backoff_fraction * target_s`` worth of *estimated drain time*
      already queued is shed and cuts the rate. This is the burst defense
      the latency signal alone cannot be: a microburst fills the queue
      faster than any drained-packet sojourn can report it, so the bound
      on queued work — not the feedback loop — is what caps the sojourn of
      whatever the burst got admitted;
    - **queue pressure**: an arrival that finds the queue at hard capacity
      is shed and cuts the rate (the backstop of last resort).

    Cuts are rate-limited to one per ``cooldown_s`` (roughly one drain
    epoch), the classic once-per-RTT AIMD discipline — without it a single
    burst would multiplicatively collapse the rate to the floor.
    """

    name = "aimd"

    def __init__(self, queue_capacity: int, target_s: float, *,
                 backoff_fraction: float = 0.5, increase: float = 0.05,
                 decrease: float = 0.5, min_rate: float = 1 / 64,
                 cooldown_s: float = 0.005, service_ewma: float = 0.2):
        self.queue_capacity = int(queue_capacity)
        self.target_s = float(target_s)
        self.backoff_fraction = float(backoff_fraction)
        self.increase = float(increase)
        self.decrease = float(decrease)
        self.min_rate = float(min_rate)
        self.cooldown_s = float(cooldown_s)
        self.service_ewma = float(service_ewma)
        self.rate = 1.0
        self.service_est = 0.0        # consumer pps, EWMA (0: no sample yet)
        self._credit = 0.0
        self._last_cut = -float("inf")
        self._last_obs = None

    def _cut(self, now: float) -> None:
        if now - self._last_cut >= self.cooldown_s:
            self.rate = max(self.min_rate, self.rate * self.decrease)
            self._last_cut = now

    def _depth_bound(self) -> float:
        """Max queued packets before estimated drain time busts the SLO."""
        bound = float(self.queue_capacity)
        if self.service_est > 0.0:
            bound = min(bound, max(
                1.0,
                self.backoff_fraction * self.target_s * self.service_est))
        return bound

    def admit(self, seq: int, depth: int, now: float) -> bool:
        if depth >= self._depth_bound():
            self._cut(now)
            return False
        self._credit += self.rate
        if self._credit >= 1.0:
            self._credit -= 1.0
            return True
        return False

    def observe(self, served: int, sojourn: float, depth: int,
                now: float) -> None:
        if self._last_obs is not None and now > self._last_obs:
            sample = served / (now - self._last_obs)
            self.service_est = (sample if self.service_est == 0.0 else
                                (1.0 - self.service_ewma) * self.service_est
                                + self.service_ewma * sample)
        self._last_obs = now
        if sojourn > self.backoff_fraction * self.target_s:
            self._cut(now)
        elif sojourn < 0.5 * self.backoff_fraction * self.target_s:
            self.rate = min(1.0, self.rate + self.increase)


# ---------------------------------------------------------------------------
# Pump
# ---------------------------------------------------------------------------

@dataclass
class PumpResult:
    """Raw per-packet telemetry of one open-loop replay."""

    n: int                        # offered packets
    admitted_flags: np.ndarray    # bool[n]: actually entered the queue
    arrival: np.ndarray           # float[n] perf_counter at admit (nan: shed)
    complete: np.ndarray          # float[n] perf_counter at decision (nan)
    depth_at: np.ndarray          # int[n]: queue depth seen on arrival
    decisions: DecisionBatch      # served decisions, global seq, FIFO order
    wall_seconds: float

    @property
    def served(self) -> int:
        return int(self.admitted_flags.sum())

    @property
    def admitted_seq(self) -> np.ndarray:
        """Indices of the packets that entered the queue."""
        return np.flatnonzero(self.admitted_flags)

    @property
    def shed_seq(self) -> np.ndarray:
        """Indices of the packets the policy shed."""
        return np.flatnonzero(~self.admitted_flags)

    def latencies(self) -> np.ndarray:
        """Sojourn seconds (arrival -> decision) of the served packets."""
        lat = self.complete - self.arrival
        return lat[np.isfinite(lat)]


class OpenLoopPump:
    """Paced arrivals -> bounded FIFO -> chunk-draining consumer.

    ``offsets`` are per-packet wall-clock arrival offsets (None replays
    synchronously, as fast as possible — fully deterministic).
    ``serve_chunk(indices)`` must return the decisions of
    the given global packet indices with ``seq`` already remapped to global
    positions, as a :class:`~repro.dataplane.decisions.DecisionBatch`; the
    engine supplies it, and the chunks are concatenated once, after the
    run. ``drain_max`` bounds how many queued packets one consumer
    iteration serves — it is the feedback granularity of the admission
    policies (one ``observe`` per drained chunk).
    """

    def __init__(self, n: int, offsets: np.ndarray | None, serve_chunk,
                 policy: AdmissionPolicy, *, drain_max: int = 256):
        if drain_max < 1:
            raise ValueError(f"drain_max must be >= 1, got {drain_max}")
        self.n = int(n)
        self.offsets = offsets
        self.serve_chunk = serve_chunk
        self.policy = policy
        self.drain_max = int(drain_max)

    def run(self) -> PumpResult:
        n = self.n
        admitted_flags = np.zeros(n, dtype=bool)
        arrival = np.full(n, np.nan)
        complete = np.full(n, np.nan)
        depth_at = np.zeros(n, dtype=np.int64)
        parts: list = []
        queue: deque[int] = deque()
        t0 = time.perf_counter()

        def drain(chunk: list[int], depth_after: int) -> None:
            idx = np.asarray(chunk, dtype=np.int64)
            parts.append(self.serve_chunk(idx))
            now = time.perf_counter()
            complete[idx] = now
            self.policy.observe(len(chunk), now - arrival[chunk[0]],
                                depth_after, now - t0)

        if self.offsets is None:
            # Synchronous as-fast-as-possible replay: no sleeps,
            # bit-reproducible (the determinism tests' mode).
            for i in range(n):
                depth = len(queue)
                depth_at[i] = depth
                if self.policy.admit(i, depth, time.perf_counter() - t0):
                    admitted_flags[i] = True
                    arrival[i] = time.perf_counter()
                    queue.append(i)
                    if len(queue) >= self.drain_max:
                        chunk = [queue.popleft()
                                 for _ in range(self.drain_max)]
                        drain(chunk, len(queue))
            while queue:
                chunk = [queue.popleft()
                         for _ in range(min(len(queue), self.drain_max))]
                drain(chunk, len(queue))
        else:
            # Paced replay on this one thread: offer every packet whose
            # arrival time has come, serve one chunk, repeat; with nothing
            # queued, sleep until the next arrival. A packet that came due
            # while a chunk was in service is stamped with its scheduled
            # arrival (its sojourn counts the rest of that service) and
            # finds the depth it would have found then: the chunk in
            # service has already left the queue. One thread on purpose:
            # under the GIL a producer thread only interleaves with the
            # consumer, and at burst rates their hand-offs cost more than
            # the serving.
            offsets = np.asarray(self.offsets, dtype=np.float64).tolist()
            i = 0
            while i < n or queue:
                now = time.perf_counter() - t0
                while i < n and offsets[i] - now <= _MIN_SLEEP:
                    depth = len(queue)
                    depth_at[i] = depth
                    if self.policy.admit(i, depth, now):
                        admitted_flags[i] = True
                        arrival[i] = t0 + min(now, offsets[i])
                        queue.append(i)
                    i += 1
                    now = time.perf_counter() - t0
                if queue:
                    chunk = [queue.popleft()
                             for _ in range(min(len(queue), self.drain_max))]
                    drain(chunk, len(queue))
                elif i < n:
                    time.sleep(offsets[i] - now)

        decisions = DecisionBatch.concat(parts)
        wall = time.perf_counter() - t0
        return PumpResult(
            n=n, admitted_flags=admitted_flags, arrival=arrival,
            complete=complete, depth_at=depth_at, decisions=decisions,
            wall_seconds=wall)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencySummary:
    """Sojourn-latency percentiles of one packet population, in ms."""

    n: int
    p50_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float
    max_ms: float

    @classmethod
    def from_seconds(cls, seconds: np.ndarray) -> "LatencySummary":
        s = np.asarray(seconds, dtype=np.float64)
        s = s[np.isfinite(s)]
        if s.size == 0:
            return cls(n=0, p50_ms=0.0, p99_ms=0.0, p999_ms=0.0,
                       mean_ms=0.0, max_ms=0.0)
        p50, p99, p999 = np.percentile(s, (50.0, 99.0, 99.9)) * 1e3
        return cls(n=int(s.size), p50_ms=float(p50), p99_ms=float(p99),
                   p999_ms=float(p999), mean_ms=float(s.mean() * 1e3),
                   max_ms=float(s.max() * 1e3))

    def summary(self) -> dict:
        return {"n": self.n, "p50_ms": self.p50_ms, "p99_ms": self.p99_ms,
                "p999_ms": self.p999_ms, "mean_ms": self.mean_ms,
                "max_ms": self.max_ms}


@dataclass(frozen=True)
class OpenLoopPhaseReport:
    """One scenario phase's slice of an open-loop replay."""

    name: str
    offered: int
    admitted: int
    shed: int
    latency: LatencySummary
    queue_depth_max: int
    queue_depth_mean: float

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def summary(self) -> dict:
        return {"offered": self.offered, "admitted": self.admitted,
                "shed": self.shed, "shed_fraction": self.shed_fraction,
                "queue_depth_max": self.queue_depth_max,
                "queue_depth_mean": self.queue_depth_mean,
                "latency": self.latency.summary()}


@dataclass
class OpenLoopReport:
    """One open-loop serve: ``ServingReport`` + the latency/shedding layer.

    ``serving`` is the engine's ordinary report over the *served* packets
    (decisions carry global trace positions); everything else is the
    open-loop layer — counts, sojourn percentiles, per-phase splits, and
    the claimed shed/admitted index sets the differential harness verifies.
    """

    scenario: str
    seed: int | None
    admission: str
    time_scale: float
    p99_target_ms: float | None
    serving: object               # ServingReport (untyped: no engine import)
    config: object                # the EngineConfig this was served under
    offered: int
    admitted: int
    shed: int
    admitted_seq: np.ndarray      # claimed admitted packet indices
    shed_seq: np.ndarray          # claimed shed packet indices
    latency: LatencySummary
    queue_depth_timeline: list    # [(trace_ts, depth)], downsampled
    wall_seconds: float
    phases: list = field(default_factory=list)
    # ^ [(PhaseSpan, OpenLoopPhaseReport)]

    @property
    def offered_pps(self) -> float:
        return self.offered / max(self.wall_seconds, 1e-9)

    @property
    def admitted_pps(self) -> float:
        return self.admitted / max(self.wall_seconds, 1e-9)

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def meets_target(self) -> bool | None:
        """p99 sojourn within the configured target (None: no target)."""
        if self.p99_target_ms is None:
            return None
        return self.latency.p99_ms <= self.p99_target_ms

    def phase(self, name: str) -> OpenLoopPhaseReport:
        for span, report in self.phases:
            if span.name == name:
                return report
        raise KeyError(f"open-loop report for {self.scenario!r} has no phase "
                       f"{name!r}; phases: {[s.name for s, _ in self.phases]}")

    def summary(self) -> dict:
        return {
            "scenario": self.scenario, "seed": self.seed,
            "admission": self.admission, "time_scale": self.time_scale,
            "p99_target_ms": self.p99_target_ms,
            "offered": self.offered, "admitted": self.admitted,
            "shed": self.shed, "shed_fraction": self.shed_fraction,
            "wall_seconds": self.wall_seconds,
            "offered_pps": self.offered_pps,
            "admitted_pps": self.admitted_pps,
            "meets_target": self.meets_target,
            "latency": self.latency.summary(),
            "phases": {span.name: report.summary()
                       for span, report in self.phases},
        }


def build_open_loop_report(result: PumpResult, *, serving, config, ts,
                           phases, scenario: str, seed,
                           admission: str, time_scale: float,
                           p99_target_ms: float | None) -> OpenLoopReport:
    """Assemble the layered report from pump telemetry + the serving report.

    ``ts`` is the per-packet trace-timestamp column (timeline x-axis) and
    ``phases`` the workload's ``PhaseSpan`` list (may be empty for plain
    traces: the per-phase split is then omitted).
    """
    lat_s = result.complete - result.arrival
    phase_reports = []
    for span in phases or ():
        sl = slice(span.start, span.stop)
        phase_lat = lat_s[sl]
        admitted = int(result.admitted_flags[sl].sum())
        depth = result.depth_at[sl]
        phase_reports.append((span, OpenLoopPhaseReport(
            name=span.name, offered=span.n_packets, admitted=admitted,
            shed=span.n_packets - admitted,
            latency=LatencySummary.from_seconds(phase_lat),
            queue_depth_max=int(depth.max()) if depth.size else 0,
            queue_depth_mean=float(depth.mean()) if depth.size else 0.0)))
    step = max(1, result.n // _TIMELINE_POINTS)
    timeline = [(float(ts[i]), int(result.depth_at[i]))
                for i in range(0, result.n, step)]
    return OpenLoopReport(
        scenario=scenario, seed=seed, admission=admission,
        time_scale=time_scale, p99_target_ms=p99_target_ms,
        serving=serving, config=config,
        offered=result.n, admitted=result.served,
        shed=result.n - result.served,
        admitted_seq=result.admitted_seq, shed_seq=result.shed_seq,
        latency=LatencySummary.from_seconds(result.latencies()),
        queue_depth_timeline=timeline, wall_seconds=result.wall_seconds,
        phases=phase_reports)


__all__ = [
    "AdmissionPolicy",
    "AimdAdmission",
    "LatencySummary",
    "NoAdmission",
    "OpenLoopPhaseReport",
    "OpenLoopPump",
    "OpenLoopReport",
    "PumpResult",
    "TailDropAdmission",
    "build_open_loop_report",
]
