"""Two-level flow-decision cache: exact L1 memo + verified approximate L2.

Per-flow serving spends most of its model invocations on a few elephant flows,
and an elephant's feature window quickly becomes repetitive (constant-rate
flows produce the *same* length/IPD bucket window packet after packet). A
:class:`FlowDecisionCache` memoizes the model's decision per
``(canonical 5-tuple, window index)`` pair, where the *window index* is the
packed byte content of the flow's current feature window — so a cache hit
returns exactly what the model would have computed and decisions stay
bit-identical to an uncached replay (asserted by the serving tests). This is
the cache-optimization lever 5GC^2ache identifies as dominant for per-flow
dataplane serving.

The exact L1 never fires on *near*-repeating windows (a flood of drone flows
whose windows differ by one IPD bucket) or across flows. The L2 of
:class:`TwoLevelDecisionCache` closes that gap without ever changing a
decision:

- the **key** is the quantized feature vector (``feats >> l2_quantize_shift``,
  packed to bytes) — near-identical windows of *different* flows land in the
  same bucket;
- the **entry** carries a *certificate*: the axis-aligned box of the compiled
  model's first-layer cell containing the inserting feature vector (fuzzy
  tables contribute their decision-tree leaf box, exact tables a width-1
  interval). First-layer outputs — and therefore every downstream layer and
  the final argmax — are constant on that cell, so any feature vector inside
  the box provably receives the same decision;
- a probe is served **only** after verify-on-hit: a vectorized
  ``lo <= feats <= hi`` bounds check against the certificate. Quantization
  alone is never trusted — a bucket collision whose box check fails falls
  through to the model (and inserts its own entry).

Exact (L1) and approximate (L2) hits are counted separately
(:class:`CacheStats`); ``exact_hits + approx_hits + misses == lookups`` is a
regression-tested identity. Every replica owns its own cache, both levels:
nothing moves between replicas, so ``sharded`` and ``parallel`` at the same
worker count report identical counters.

Wiring (both dataplane runtimes, behind ``decision_cache``)::

    from repro.dataplane.runtime import WindowedClassifierRuntime
    from repro.serving import TwoLevelDecisionCache

    runtime = WindowedClassifierRuntime(
        compiled, feature_mode="stats",
        decision_cache=TwoLevelDecisionCache()
    )

Eviction is LRU at both levels (a hit refreshes the entry/bucket). L1 keys
include the flow's canonical 5-tuple, so register eviction churn in the
runtime never invalidates the cache: a re-arriving evicted elephant hits
again as soon as its window re-forms.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

# Placeholder a batched replay inserts at the cache position where a
# one-packet step would insert the real decision, before the batch's single model
# invocation has produced it. Reserving the slot in row order keeps the LRU
# recency/eviction sequence — and therefore every subsequent hit/miss count —
# bit-identical to per-packet replay; ``fill`` swaps in the real decision
# afterwards without touching recency. Identity-compared, never equal to a
# real (integer) decision.
PENDING = object()


@dataclass
class CacheStats:
    """Hit/miss/evict counters for one decision cache.

    ``hits`` counts exact (L1) hits; ``approx_hits`` counts verified
    approximate (L2) hits — zero for a plain :class:`FlowDecisionCache`.
    ``evictions`` covers both levels (L1 entries and L2 buckets).
    ``l2_skipped`` counts misses whose L2 insert (and box certificate) was
    skipped because the cache's ``l2_admit`` knob was off — the per-phase
    admission path for workload phases with near-zero repeat probability.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    approx_hits: int = 0
    l2_skipped: int = 0

    @property
    def exact_hits(self) -> int:
        """Alias of ``hits`` — the exact-match (L1) hit count."""
        return self.hits

    @property
    def lookups(self) -> int:
        return self.hits + self.approx_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either cache level (0.0 when
        never used)."""
        lookups = self.lookups
        return (self.hits + self.approx_hits) / lookups if lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another cache's counters (e.g. across worker replicas)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.approx_hits += getattr(other, "approx_hits", 0)
        self.l2_skipped += getattr(other, "l2_skipped", 0)


class FlowDecisionCache:
    """Bounded LRU map of ``(canonical 5-tuple, window index) -> decision``.

    ``get`` refreshes recency and counts a hit or miss; ``put`` inserts,
    evicting the least recently used entry at ``capacity``. Values are the
    model's integer class decisions, so a hit can short-circuit the model
    invocation entirely.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ConfigError("capacity", capacity, allowed=">= 1",
                              reason="cache capacity")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The cached decision for ``key`` (or :data:`PENDING`), None on miss."""
        decision = self._entries.get(key)
        if decision is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return decision

    def peek(self, key):
        """Stat-free probe: refresh recency and return the value, None on
        miss. The building block :class:`TwoLevelDecisionCache` drives its
        own hit/miss accounting through (a miss here may still be an
        approximate hit one level down)."""
        decision = self._entries.get(key)
        if decision is None:
            return None
        self._entries.move_to_end(key)
        return decision

    def put(self, key, decision: int) -> None:
        """Insert (or refresh) one decision, evicting LRU at capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = decision
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = decision

    def discard_pending(self, key) -> None:
        """Drop a :data:`PENDING` placeholder, leaving real entries alone.

        Exception-path cleanup: if the model invocation that was meant to
        :meth:`fill` a reserved slot fails, the placeholder must not outlive
        the flush (a later lookup would hand the sentinel out as a
        decision). No stat counting.
        """
        if self._entries.get(key) is PENDING:
            del self._entries[key]

    def fill(self, key, decision: int) -> None:
        """Resolve a :data:`PENDING` placeholder in place, if still cached.

        No stat counting, no recency refresh: the lookup/insert already
        happened (in row order) when the placeholder went in; this only
        supplies the decision value. A placeholder evicted in the meantime
        stays evicted — exactly what a one-packet step's entry would have done.
        """
        if key in self._entries:
            self._entries[key] = decision

    def clear(self) -> None:
        """Drop all entries; counters keep accumulating."""
        self._entries.clear()


# L2 entry layout (a mutable list, so a batched replay can resolve a PENDING
# decision in place): [box_lo, box_hi, decision, group_key]. ``group_key`` is
# the L1 key of the reserving row while decision is PENDING (the batched
# replay fans later same-cell rows into that row's model group), else None.
_LO, _HI, _DEC, _GROUP = 0, 1, 2, 3


class QuantizedDecisionStore:
    """The L2: quantized-key buckets of certified decision boxes.

    Buckets are LRU-ordered (``capacity`` buckets; a probe or insert
    refreshes its bucket); each bucket holds up to ``bucket_entries``
    certificate entries in insertion order (FIFO within the bucket). The
    store itself is decision-blind bookkeeping — all hit/miss accounting
    lives in the owning :class:`TwoLevelDecisionCache`.
    """

    def __init__(self, capacity: int = 4096, quantize_shift: int = 6,
                 bucket_entries: int = 64):
        if capacity < 1:
            raise ConfigError("l2_capacity", capacity, allowed=">= 1")
        if not 0 <= quantize_shift <= 16:
            raise ConfigError("l2_quantize_shift", quantize_shift,
                              allowed="0..16")
        if bucket_entries < 1:
            raise ConfigError("bucket_entries", bucket_entries, allowed=">= 1")
        self.capacity = capacity
        self.quantize_shift = quantize_shift
        self.bucket_entries = bucket_entries
        self._buckets: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    @property
    def n_buckets(self) -> int:
        return len(self._buckets)

    def key_for(self, feats: np.ndarray) -> bytes:
        """The quantized bucket key of one int64 feature vector."""
        return (np.asarray(feats, dtype=np.int64)
                >> self.quantize_shift).tobytes()

    def probe(self, feats: np.ndarray):
        """First entry whose certificate box contains ``feats`` (else None).

        Only a verified containment is a hit: the quantized key alone never
        serves a decision. A hit refreshes the bucket's LRU position.
        """
        bucket = self._buckets.get(self.key_for(feats))
        if bucket is None:
            return None
        for entry in bucket:
            if np.all(entry[_LO] <= feats) and np.all(feats <= entry[_HI]):
                self._buckets.move_to_end(self.key_for(feats))
                return entry
        return None

    def insert(self, feats: np.ndarray, box_lo: np.ndarray,
               box_hi: np.ndarray, decision, group_key=None
               ) -> tuple[list, int]:
        """Add one certified entry at ``feats``'s bucket.

        Returns ``(entry, evictions)`` — bucket evictions are charged to the
        cache's stats by the caller.
        """
        qk = self.key_for(feats)
        evictions = 0
        bucket = self._buckets.get(qk)
        if bucket is None:
            if len(self._buckets) >= self.capacity:
                self._buckets.popitem(last=False)
                evictions += 1
            bucket = self._buckets[qk] = []
        else:
            self._buckets.move_to_end(qk)
        if len(bucket) >= self.bucket_entries:
            bucket.pop(0)
            evictions += 1
        entry = [np.asarray(box_lo, dtype=np.int64),
                 np.asarray(box_hi, dtype=np.int64), decision, group_key]
        bucket.append(entry)
        return entry, evictions

    def resolve(self, entry: list, decision: int) -> None:
        """Fill a PENDING entry's decision in place."""
        entry[_DEC] = decision
        entry[_GROUP] = None

    def remove(self, entry: list, qk: bytes) -> None:
        """Drop one entry (exception-path cleanup of a PENDING reservation)."""
        bucket = self._buckets.get(qk)
        if bucket is not None:
            try:
                bucket.remove(entry)
            except ValueError:
                pass
            if not bucket:
                del self._buckets[qk]

    def clear(self) -> None:
        self._buckets.clear()


class TwoLevelDecisionCache:
    """Exact per-flow L1 + verified-approximate L2, one stat stream.

    The runtime drives the levels explicitly (``two_level`` marks the
    protocol): :meth:`exact_get` probes L1; on miss :meth:`approx_get`
    probes the L2 with the row's feature vector; only when both miss does
    the model run, after which :meth:`reserve_l2` + :meth:`fill` populate
    both levels (:meth:`insert` does both at once). An L2 hit
    is *promoted* into L1, so a flow that keeps repeating the window turns
    its approximate hits into exact ones.

    Every lookup counts exactly one of ``hits`` / ``approx_hits`` /
    ``misses`` — the ``exact_hits + approx_hits + misses == lookups``
    identity the regression tests pin.

    ``l2_admit`` is the per-phase admission knob: when False the runtime
    keeps probing both levels (hits stay hits) but skips the L2 insert — and
    with it the box-certificate computation — on every miss, populating only
    the exact L1 (counted by :meth:`skip_l2_insert`).
    Decisions are unaffected either way (cache contents never change a
    decision), so a phase can flip the knob freely; skipped inserts are
    counted in ``stats.l2_skipped``.
    """

    two_level = True

    def __init__(self, capacity: int = 65536, l2_capacity: int = 4096,
                 l2_quantize_shift: int = 6, l2_bucket_entries: int = 64):
        self.l1 = FlowDecisionCache(capacity)
        self.l2 = QuantizedDecisionStore(l2_capacity, l2_quantize_shift,
                                         l2_bucket_entries)
        self.stats = self.l1.stats    # one stream: L1 evictions count here too
        self.l2_admit = True
        self._pending: dict = {}      # group L1 key -> (L2 entry, bucket key)

    def __len__(self) -> int:
        return len(self.l1)

    @property
    def capacity(self) -> int:
        return self.l1.capacity

    # -- probes ---------------------------------------------------------------

    def exact_get(self, key):
        """L1 probe: decision / :data:`PENDING` on hit (counted), else None.

        A None here is *not* yet a miss — the caller falls through to
        :meth:`approx_get` and only a double miss counts.
        """
        got = self.l1.peek(key)
        if got is not None:
            self.stats.hits += 1
        return got

    def approx_get(self, feats: np.ndarray):
        """Verified L2 probe: the matching entry (counted), else None."""
        entry = self.l2.probe(feats)
        if entry is not None:
            self.stats.approx_hits += 1
        return entry

    def count_miss(self) -> None:
        """Record that both levels missed (the model is about to run)."""
        self.stats.misses += 1

    # -- population -----------------------------------------------------------

    def promote(self, key, decision) -> None:
        """Copy an L2-served decision (or a PENDING reservation) into L1."""
        self.l1.put(key, decision)

    def insert(self, key, feats: np.ndarray, box_lo: np.ndarray,
               box_hi: np.ndarray, decision: int) -> None:
        """Populate both levels after a model invocation, in one call."""
        self.l1.put(key, decision)
        _, evicted = self.l2.insert(feats, box_lo, box_hi, decision)
        self.stats.evictions += evicted

    def skip_l2_insert(self) -> None:
        """Batched-path miss accounting with the L2 gate closed.

        The batched protocol already reserved the L1 slot (PENDING promote
        in pass 1) and will :meth:`fill` it; only the L2 reservation is
        skipped, so :meth:`fill` / :meth:`discard_pending` find no pending
        entry — both tolerate that.
        """
        self.stats.l2_skipped += 1

    def reserve_l2(self, key, feats: np.ndarray, box_lo: np.ndarray,
                   box_hi: np.ndarray) -> None:
        """Reserve a PENDING L2 entry before a batched model invocation.

        L2-only on purpose: the batched protocol already reserved the L1
        slot (via :meth:`promote` with PENDING) at the row's pass-1
        position — reserving it again here would refresh its LRU recency
        and diverge from the per-packet op sequence. The L2 entry carries
        ``key`` as its group tag, so later same-cell rows of the same flush
        can join this row's model group — exactly the rows that would have
        hit the real entry in one-packet steps.
        """
        entry, evicted = self.l2.insert(feats, box_lo, box_hi, PENDING,
                                        group_key=key)
        self.stats.evictions += evicted
        self._pending[key] = (entry, self.l2.key_for(feats))

    def fill(self, key, decision: int) -> None:
        """Resolve PENDING reservations under ``key`` at both levels."""
        self.l1.fill(key, decision)
        pending = self._pending.pop(key, None)
        if pending is not None:
            self.l2.resolve(pending[0], decision)

    def discard_pending(self, key) -> None:
        """Exception-path cleanup: drop PENDING reservations under ``key``."""
        self.l1.discard_pending(key)
        pending = self._pending.pop(key, None)
        if pending is not None:
            entry, qk = pending
            self.l2.remove(entry, qk)

    def clear(self) -> None:
        """Drop all entries at both levels; counters keep accumulating."""
        self.l1.clear()
        self.l2.clear()
        self._pending.clear()
