"""Vectorized TCAM emulation: prioritized ternary lookup as the switch does it.

The fancy-index path of :class:`repro.core.mapping.SegmentTable` answers a
fuzzy lookup by walking the clustering tree — numerically right, but not how
the hardware works. A PISA switch holds the tree as a **prioritized TCAM**:
packed (value, mask, priority) rows matched associatively, first match (lowest
priority number) wins. This module compiles a fuzzy segment into exactly that
shape and answers whole batches with masked-compare + priority reduction, so
the emulated lookup is bit-identical to both
:func:`repro.core.crc.lookup_prioritized` (the scalar TCAM reference) and the
tree walk the SRAM path uses.

Two encodings are materialized, mirroring the two the paper's compiler counts
(§6.1, :meth:`repro.core.fuzzy.FuzzyTree.tcam_entries`):

- **flat** — every leaf box expands into the cross product of its
  per-dimension prefix covers: one wide table, one lookup, entry count can
  blow up for deep trees over wide segments;
- **levelwise** — the multi-level comparator: each internal tree node becomes
  a small single-field table whose entries come from
  :func:`~repro.core.crc.consecutive_range_coding` (``x <= t`` coded as a
  priority-ordered prefix set over ``[0, t]`` plus a catch-all), and a batch
  walks the levels with vectorized per-node lookups.

``encoding="auto"`` picks whichever needs fewer entries — the same choice the
resource accounting makes, so the emulated layout is the accounted layout.

Keys are fixed-width like the hardware's: signed fields use excess-K (offset)
encoding and every key is clamped into the ``key_bits`` domain before
matching. For trees fitted on data inside the domain (every tree
``materialize`` builds) the clamp is exact: thresholds lie strictly inside
the domain, so out-of-range keys route identically to the tree walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.crc import PrioritizedEntry, TernaryMatch, consecutive_range_coding
from repro.core.fuzzy import FuzzyTree, key_domain
from repro.errors import CompilationError, ShapeError
from repro.dataplane.tables import ternary_entries_for_tree

TCAM_ENCODINGS = ("auto", "flat", "levelwise", "pruned")

# "pruned" forces the flat (single wide table) encoding so the interval
# pre-index has one scan to prune — unless the flat cross-product expansion
# exceeds this many entries (deep trees over wide segments, e.g. the
# two-stage 60-dim extractor), in which case it keeps levelwise and pruning
# is a no-op. Decisions are unaffected either way.
PRUNED_MAX_FLAT_ENTRIES = 1 << 14


def encode_keys(x: np.ndarray, key_bits: int, signed: bool) -> np.ndarray:
    """Excess-K encode a (N, d) key batch into the unsigned match domain.

    Keys must be integral (the dataplane only ever sees integers); they are
    clamped into the ``key_bits`` domain first, exactly as a fixed-width
    hardware key field truncates its input range.
    """
    x = np.asarray(x)
    if x.dtype.kind == "f":
        if not np.all(np.floor(x) == x):
            raise ShapeError("TCAM keys must be integral")
    x = x.astype(np.int64)
    lo, hi = key_domain(key_bits, signed)
    return np.clip(x, lo, hi) - lo


@dataclass
class PrunedMatchIndex:
    """Interval pre-index over one key field of a priority-sorted table.

    Every prefix-mask ternary entry matches, on each field, exactly the
    key interval ``[value, value | ~mask]``. Projecting all entries onto the
    most selective field and cutting its domain at the distinct interval
    endpoints yields *elementary segments*: within one segment every key has
    the same candidate entry set. The index stores, per segment, the
    candidate rows **in table (priority) order**, so the first match within
    a candidate list is the global first match — the pruned scan is provably
    first-match-identical to the full scan, it just compares each key
    against ``avg_candidates`` rows instead of ``n_entries``.
    """

    field_idx: int               # which key field the segments cut
    bounds: np.ndarray           # (n_segments,) segment start keys, sorted
    candidates: list             # per segment: np.ndarray of row indices
    avg_candidates: float        # mean candidate-list length (diagnostics)
    _padded: object = field(default=None, init=False, repr=False, compare=False)

    def segment_of(self, keys_f: np.ndarray) -> np.ndarray:
        """Elementary-segment id per key (keys clamped into the domain)."""
        return np.clip(np.searchsorted(self.bounds, keys_f, side="right") - 1,
                       0, len(self.bounds) - 1)

    def padded_candidates(self) -> np.ndarray:
        """(n_segments, max_candidates) candidate rows, -1 padded.

        Rows stay in table (priority) order, so a row-wise first True over
        this matrix is the winning entry. Built once, lazily: the padded
        form is what lets the pruned lookup run as one vectorized gather +
        compare instead of a per-segment Python loop.
        """
        if self._padded is None:
            width = max((len(c) for c in self.candidates), default=0)
            padded = np.full((len(self.candidates), max(width, 1)), -1,
                             dtype=np.int64)
            for s, cand in enumerate(self.candidates):
                padded[s, :len(cand)] = cand
            self._padded = padded
        return self._padded


def _is_prefix_mask(masks: np.ndarray, key_bits: int) -> bool:
    """True when every mask is a prefix mask (contiguous high bits).

    Prefix masks are exactly the masks whose matched key set is one interval
    ``[value, value | ~mask]`` — the property the interval pre-index needs.
    All CRC / range-to-prefix compilations emit prefix masks.
    """
    domain_mask = (1 << key_bits) - 1
    inv = (~np.asarray(masks, dtype=np.int64)) & domain_mask
    return bool(np.all((inv & (inv + 1)) == 0))


@dataclass
class PackedTernaryTable:
    """Prioritized ternary entries packed into columnar NumPy arrays.

    ``values``/``masks`` are (n_entries, n_fields) in the unsigned (encoded)
    key domain; ``priorities`` orders first-match-wins resolution (lower
    wins, ties broken by entry order, exactly like
    :func:`~repro.core.crc.lookup_prioritized`); ``results`` is what a
    matching entry reports.
    """

    values: np.ndarray
    masks: np.ndarray
    priorities: np.ndarray
    results: np.ndarray
    key_bits: int
    signed: bool = False
    # Lazily built pruned-match interval index (None until requested;
    # False when the entries are not all prefix masks and pruning is
    # impossible — the pruned lookup then falls back to the full scan).
    _pruned: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.priorities = np.asarray(self.priorities, dtype=np.int64)
        self.results = np.asarray(self.results, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.int64).reshape(len(self.priorities), -1)
        self.masks = np.asarray(self.masks, dtype=np.int64).reshape(self.values.shape)
        # Hardware stores value&mask; normalizing here makes the comparison
        # below a single equality per field.
        self.values = self.values & self.masks
        # Store rows in (priority, insertion order) — a stable sort keeps
        # lookup_prioritized's tie-break — so first-match resolution is a
        # plain argmax over the bool match matrix, with no per-lookup
        # (N, n_entries) int64 priority materialization.
        order = np.argsort(self.priorities, kind="stable")
        if not np.array_equal(order, np.arange(len(order))):
            self.values = self.values[order]
            self.masks = self.masks[order]
            self.priorities = self.priorities[order]
            self.results = self.results[order]

    @property
    def n_entries(self) -> int:
        return self.values.shape[0]

    @property
    def n_fields(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_prioritized(
        cls, entries: list[PrioritizedEntry], key_bits: int, signed: bool = False
    ) -> "PackedTernaryTable":
        """Pack a single-field :class:`PrioritizedEntry` list (CRC output)."""
        return cls(
            values=np.asarray([[e.match.value] for e in entries]),
            masks=np.asarray([[e.match.mask] for e in entries]),
            priorities=np.asarray([e.priority for e in entries]),
            results=np.asarray([e.result for e in entries]),
            key_bits=key_bits,
            signed=signed,
        )

    def lookup_encoded(self, keys_u: np.ndarray,
                       pruned: bool = False) -> np.ndarray:
        """First-match results for already-encoded (N, n_fields) keys.

        ``pruned=True`` resolves each key against its elementary segment's
        candidate rows (see :meth:`pruned_index`) instead of all
        ``n_entries`` — bit-identical results, fewer compares; tables whose
        masks are not all prefix masks silently use the full scan.
        """
        keys_u = np.asarray(keys_u, dtype=np.int64)
        if keys_u.ndim == 1:
            keys_u = keys_u[:, None]
        if keys_u.shape[1] != self.n_fields:
            raise ShapeError(f"expected {self.n_fields} key fields, got {keys_u.shape[1]}")
        if pruned:
            index = self.pruned_index()
            if index is not None:
                return self._lookup_pruned(keys_u, index)
        matched = np.ones((len(keys_u), self.n_entries), dtype=bool)
        for f in range(self.n_fields):
            matched &= (keys_u[:, f, None] & self.masks[None, :, f]) == self.values[None, :, f]
        # Rows are priority-sorted (see __post_init__): the first matching
        # row IS the winning entry.
        pick = matched.argmax(axis=1)
        if len(keys_u):
            hit = matched[np.arange(len(keys_u)), pick]
            if not hit.all():
                missed = int(np.nonzero(~hit)[0][0])
                raise LookupError(f"no TCAM entry matches key {keys_u[missed]}")
        return self.results[pick]

    def lookup(self, x: np.ndarray, pruned: bool = False) -> np.ndarray:
        """First-match results for a raw-domain (N, n_fields) key batch."""
        return self.lookup_encoded(encode_keys(x, self.key_bits, self.signed),
                                   pruned=pruned)

    # -- pruned match kernel --------------------------------------------------

    def pruned_index(self) -> PrunedMatchIndex | None:
        """Build (once) the elementary-segment interval index.

        Returns None when any entry carries a non-prefix mask — then no
        field's match set is a single interval and candidate pruning would
        be unsound, so the pruned lookup degrades to the full scan.
        """
        if self._pruned is None:
            self._pruned = self._build_pruned_index() or False
        return self._pruned if self._pruned is not False else None

    def _build_pruned_index(self) -> PrunedMatchIndex | None:
        if self.n_entries == 0 or not _is_prefix_mask(self.masks, self.key_bits):
            return None
        domain_mask = (1 << self.key_bits) - 1
        inv = (~self.masks) & domain_mask
        lo_all = self.values                    # value & mask (normalized)
        hi_all = self.values | inv
        best = None
        for f in range(self.n_fields):
            lo, hi = lo_all[:, f], hi_all[:, f]
            # Elementary segments: cut the field domain at every interval
            # endpoint. Within a segment the candidate set is constant.
            bounds = np.unique(np.concatenate(([0], lo, hi + 1)))
            bounds = bounds[bounds <= domain_mask]
            starts = bounds                     # segment s covers [bounds[s], next)
            covers = (lo[None, :] <= starts[:, None]) & (starts[:, None] <= hi[None, :])
            # Expected candidates for a uniform key: weight each segment's
            # candidate count by its width. Picks the most selective field.
            ends = np.append(bounds[1:], domain_mask + 1)
            widths = ends - bounds
            avg = float((covers.sum(axis=1) * widths).sum()) / (domain_mask + 1)
            if best is None or avg < best[0]:
                cands = [np.nonzero(covers[s])[0] for s in range(len(bounds))]
                best = (avg, PrunedMatchIndex(
                    field_idx=f, bounds=bounds, candidates=cands,
                    avg_candidates=float(np.mean([len(c) for c in cands]))))
        return best[1] if best else None

    def candidate_rows(self, keys_u: np.ndarray) -> list[np.ndarray]:
        """Per-key candidate row sets the pruned kernel would scan.

        Exposed for the property tests: for every key, the candidates must
        be a superset of the full scan's winning (argmin-priority) row.
        Empty list when the table has no usable pruned index.
        """
        index = self.pruned_index()
        if index is None:
            return []
        keys_u = np.asarray(keys_u, dtype=np.int64)
        if keys_u.ndim == 1:
            keys_u = keys_u[:, None]
        seg = index.segment_of(keys_u[:, index.field_idx])
        return [index.candidates[int(s)] for s in seg]

    # Workspace bound for the pruned compare: each chunk materializes about
    # this many (key, candidate) cells per field, keeping the gathered
    # masks/values slices cache-friendly for any batch size.
    _PRUNED_CELLS = 1 << 17

    def _lookup_pruned(self, keys_u: np.ndarray,
                       index: PrunedMatchIndex) -> np.ndarray:
        n = len(keys_u)
        out = np.empty(n, dtype=np.int64)
        if n == 0:
            return out
        seg = index.segment_of(keys_u[:, index.field_idx])
        padded = index.padded_candidates()      # (n_segments, C), -1 padded
        chunk = max(1, self._PRUNED_CELLS // padded.shape[1])
        for s in range(0, n, chunk):
            ks = keys_u[s:s + chunk]
            cs = padded[seg[s:s + chunk]]       # per-key candidate rows
            rows = np.maximum(cs, 0)            # pad-safe gather indices
            # One vectorized first-match over the candidate lists: the lists
            # keep table (priority) order, so argmax IS the winning entry.
            matched = ((ks[:, None, :] & self.masks[rows])
                       == self.values[rows]).all(axis=2)
            matched &= cs >= 0
            pick = matched.argmax(axis=1)
            ar = np.arange(len(ks))
            hit = matched[ar, pick]
            if not hit.all():
                missed = s + int(np.nonzero(~hit)[0][0])
                raise LookupError(
                    f"no TCAM entry matches key {keys_u[missed]}")
            out[s:s + chunk] = self.results[cs[ar, pick]]
        return out

    def entries(self) -> list[PrioritizedEntry]:
        """The scalar view: fields packed into one wide match, MSB first.

        Feeding these to :func:`repro.core.crc.lookup_prioritized` with the
        correspondingly packed key must reproduce :meth:`lookup` bit for bit
        — the cross-check the equivalence tests run.
        """
        width = self.n_fields * self.key_bits
        out = []
        for e in range(self.n_entries):
            value = mask = 0
            for f in range(self.n_fields):
                shift = (self.n_fields - 1 - f) * self.key_bits
                value |= int(self.values[e, f]) << shift
                mask |= int(self.masks[e, f]) << shift
            match = TernaryMatch(value=value, mask=mask, width=width)
            entry = PrioritizedEntry(
                match=match, priority=int(self.priorities[e]), result=int(self.results[e])
            )
            out.append(entry)
        return out

    def pack_keys(self, x: np.ndarray) -> list[int]:
        """Encode + pack raw keys into the scalar ints :meth:`entries` match."""
        enc = encode_keys(x, self.key_bits, self.signed)
        shifts = [(self.n_fields - 1 - f) * self.key_bits for f in range(self.n_fields)]
        return [sum(int(row[f]) << shifts[f] for f in range(self.n_fields)) for row in enc]


@dataclass
class TcamSegment:
    """One fuzzy segment compiled to its prioritized-TCAM execution form.

    ``lookup_indices`` answers a raw-domain key batch with the fuzzy (leaf)
    index per row — the drop-in TCAM replacement for
    :meth:`FuzzyTree.predict_index` that
    :meth:`repro.core.mapping.SegmentTable.lookup` dispatches to when
    ``lookup_backend="tcam"``.
    """

    key_bits: int
    signed: bool
    encoding: str
    n_leaves: int
    dim: int
    flat: PackedTernaryTable | None = None
    # Levelwise: one single-field CRC table (0 = left, 1 = right) per internal
    # node, in the tree's node order, walked over the tree's own
    # ``feature`` / ``child`` arrays.
    levels: list[PackedTernaryTable] = field(default_factory=list)
    feature: np.ndarray | None = None
    child: np.ndarray | None = None
    _flat_count: int = field(default=0, repr=False)
    _levelwise_count: int = field(default=0, repr=False)

    @classmethod
    def from_tree(
        cls, tree: FuzzyTree, key_bits: int = 8, signed: bool = False, encoding: str = "auto"
    ) -> "TcamSegment":
        """Compile a fitted clustering tree into TCAM form.

        ``encoding="auto"`` materializes whichever of flat / levelwise needs
        fewer entries — the same ``min`` the resource accounting
        (:meth:`FuzzyTree.tcam_entries`) charges for.
        """
        if encoding not in TCAM_ENCODINGS:
            msg = f"unknown TCAM encoding {encoding!r}; expected one of {TCAM_ENCODINGS}"
            raise CompilationError(msg)
        flat_count = tree._tcam_entries_flat(key_bits, signed)
        levelwise_count = tree._tcam_entries_levelwise(key_bits, signed)
        if encoding == "auto":
            encoding = "flat" if flat_count < levelwise_count else "levelwise"
        elif encoding == "pruned":
            # The pruned kernel needs one wide scan to prune, so it prefers
            # flat even where auto would pick levelwise (many tiny per-node
            # lookups cost more than one pruned wide lookup) — unless flat
            # blows up, in which case levelwise stays and pruning no-ops.
            encoding = ("flat" if flat_count <= PRUNED_MAX_FLAT_ENTRIES
                        else "levelwise")
        seg = cls(
            key_bits=key_bits,
            signed=signed,
            encoding=encoding,
            n_leaves=tree.n_leaves,
            dim=tree.dim,
        )
        seg._flat_count = flat_count
        seg._levelwise_count = levelwise_count
        if encoding == "flat":
            ternary = ternary_entries_for_tree(tree, key_bits=key_bits, signed=signed)
            if not ternary:
                raise CompilationError("flat expansion produced no entries")
            seg.flat = PackedTernaryTable(
                values=np.asarray([t.values for t in ternary]),
                masks=np.asarray([t.masks for t in ternary]),
                priorities=np.arange(len(ternary)),
                results=np.asarray([t.result for t in ternary]),
                key_bits=key_bits,
                signed=signed,
            )
        else:
            # CRC codes each node's left/right boundary in the encoded
            # (excess-K) domain.
            seg.levels = [
                PackedTernaryTable.from_prioritized(
                    consecutive_range_coding([int(b)], key_bits), key_bits,
                    signed=signed)
                for b in tree.levelwise_boundaries(key_bits, signed)]
            seg.feature, seg.child = tree.feature, tree.child
        return seg

    @property
    def n_entries(self) -> int:
        """Materialized TCAM entry count (what the encoding actually costs)."""
        if self.encoding == "flat":
            return self._flat_count
        return self._levelwise_count

    def lookup_indices(self, x: np.ndarray, pruned: bool = False) -> np.ndarray:
        """Fuzzy (leaf) indices for a raw-domain key batch (N, dim).

        ``pruned=True`` runs the flat table through its candidate-pruned
        match kernel (bit-identical first-match results); levelwise
        segments ignore the flag — their per-node tables are already tiny.
        """
        x = np.asarray(x)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise ShapeError(f"expected dim {self.dim}, got {x.shape[1]}")
        enc = encode_keys(x, self.key_bits, self.signed)
        if self.encoding == "flat":
            return self.flat.lookup_encoded(enc, pruned=pruned)
        out = np.empty(len(enc), dtype=np.int64)
        n_internal = len(self.levels)
        pending = [(0, np.arange(len(enc)))]
        while pending:
            node, rows = pending.pop()
            if node >= n_internal:
                out[rows] = node - n_internal
            elif len(rows):
                side = self.levels[node].lookup_encoded(
                    enc[rows, self.feature[node]])
                pending.append((self.child[2 * node + 1], rows[side == 1]))
                pending.append((self.child[2 * node], rows[side == 0]))
        return out

    def node_tables(self) -> list[PackedTernaryTable]:
        """Every materialized table (one for flat, one per node otherwise)."""
        return [self.flat] if self.encoding == "flat" else self.levels


def compile_segment_table(table, encoding: str = "auto") -> TcamSegment:
    """Compile a fuzzy :class:`~repro.core.mapping.SegmentTable` for TCAM.

    Duck-typed on purpose (``core.mapping`` must stay import-free of the
    dataplane): ``table`` needs ``kind``, ``tree``, ``in_bits``,
    ``in_signed``.
    """
    if table.kind != "fuzzy":
        msg = (
            "only fuzzy segment tables have a TCAM form; exact segments are "
            "direct-indexed SRAM on the hardware too"
        )
        raise CompilationError(msg)
    return TcamSegment.from_tree(
        table.tree, key_bits=table.in_bits, signed=table.in_signed, encoding=encoding
    )


def tcam_table_report(model) -> list[dict]:
    """Compile (and cache) every fuzzy table of a compiled model; summarize.

    Returns one row per fuzzy segment table with its chosen encoding and
    entry counts — the shape the equivalence report and the lookup benchmark
    print. Compiling here also warms the per-table cache, so a subsequent
    ``forward_int(..., lookup_backend="tcam")`` measures lookups, not
    compilation.
    """
    rows = []
    for li, layer in enumerate(model.layers):
        for table in layer.tables:
            if table.kind != "fuzzy":
                continue
            seg = table.tcam_segment()
            rows.append(
                {
                    "layer": li,
                    "segment": tuple(table.segment),
                    "encoding": seg.encoding,
                    "entries": seg.n_entries,
                    "entries_flat": seg._flat_count,
                    "entries_levelwise": seg._levelwise_count,
                    "leaves": seg.n_leaves,
                    "dim": seg.dim,
                }
            )
    return rows
