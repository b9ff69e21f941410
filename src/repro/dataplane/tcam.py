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
  walks the tree one level per step, every unfinished row matched against
  its current node's table.

``encoding="auto"`` picks whichever needs fewer entries — the same choice the
resource accounting makes, so the emulated layout is the accounted layout.

Every lookup runs one first-match kernel, :meth:`MatchBank.first_match`.
Keys and entries are packed MSB first into int64 match words (whole fields
per word, 63 bits used); each key's candidate rows sit in priority order,
padded with a row that never matches (mask 0, value 1); one masked compare
per word and an argmax pick the winner. The three kernels differ only in the
candidates they hand it, all packed when the segment compiles:

- **pruned** — the rows of the key's elementary interval segment
  (:class:`PrunedMatchIndex`), pre-gathered per segment: what the
  ``"tcam-pruned"`` serving backend runs on a flat table;
- **full scan** — every row of the table: the pruned kernel's fallback
  when a table's masks are not all prefixes, and the tests' reference;
- **levelwise** — the rows of the row's current node, every node's table
  stacked into one bank (a segment whose flat expansion is too large to
  prune stays levelwise).

Keys are fixed-width like the hardware's: signed fields use excess-K (offset)
encoding and every key is clamped into the ``key_bits`` domain before
matching. For trees fitted on data inside the domain (every tree
``materialize`` builds) the clamp is exact: thresholds lie strictly inside
the domain, so out-of-range keys route identically to the tree walk.
Non-finite keys have no fixed-width encoding and are rejected.
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
# exceeds this many entries (deep trees over wide segments, e.g. a 60-dim
# payload tree), in which case it keeps levelwise and pruning is a no-op.
# Decisions are unaffected either way.
PRUNED_MAX_FLAT_ENTRIES = 1 << 14

# Bits of an int64 match word a packed key uses: the sign bit stays clear.
WORD_BITS = 63

# Workspace bound of the first-match kernel: each chunk compares about this
# many (key, candidate, word) cells, for any batch size and key width. Small
# enough (128 KiB per int64 temporary) that the allocator reuses its
# temporaries: at 2^17 a cold hitters_tcam serve took ~6,600 minor page
# faults and ~35 ms of CPU, at 2^14 8 faults and ~21 ms.
_MATCH_CELLS = 1 << 14


def encode_keys(x: np.ndarray, key_bits: int, signed: bool) -> np.ndarray:
    """Excess-K encode a (N, d) key batch into the unsigned match domain.

    Keys must be finite and integral (the dataplane only ever sees
    integers); they are clamped into the ``key_bits`` domain first, exactly
    as a fixed-width hardware key field truncates its input range.
    """
    x = np.asarray(x)
    if x.dtype.kind == "f":
        if not np.isfinite(x).all():
            raise ShapeError("TCAM keys must be finite")
        if not np.all(np.floor(x) == x):
            raise ShapeError("TCAM keys must be integral")
    x = x.astype(np.int64)
    lo, hi = key_domain(key_bits, signed)
    return np.clip(x, lo, hi) - lo


def pack_words(fields: np.ndarray, key_bits: int) -> np.ndarray:
    """Pack (N, F) encoded fields into (N, W) int64 match words.

    The packing of :meth:`PackedTernaryTable.entries`, cut into words: as
    many whole fields per word as fit in :data:`WORD_BITS`, spread evenly
    over the fewest words, first field in the high bits. The last word is
    padded with zero fields at its low end; a zero field packs to mask 0 in
    an entry, so the padding matches every key.
    """
    n, n_fields = fields.shape
    n_words = -(-n_fields // max(1, WORD_BITS // key_bits))
    per_word = -(-n_fields // n_words)
    if per_word == 1:
        return fields
    if n_words * per_word > n_fields:
        fields = np.pad(fields, ((0, 0), (0, n_words * per_word - n_fields)))
    shifts = np.arange(per_word - 1, -1, -1) * key_bits
    return (fields.reshape(n, n_words, per_word) << shifts).sum(axis=2)


@dataclass(frozen=True)
class MatchBank:
    """Packed candidate rows in groups, and the one first-match kernel.

    Group ``g`` holds ``values[g]`` / ``masks[g]`` (W words x C candidates)
    and ``results[g]``: its candidate entries in priority order, padded to
    the widest group with a row that never matches (mask 0, value 1). A full
    scan is one group holding every row; the pruned kernel has one group per
    elementary segment, the levelwise walk one per tree node.
    """

    values: np.ndarray           # (G, W, C) int64, value & mask
    masks: np.ndarray            # (G, W, C) int64
    results: np.ndarray          # (G, C) int64

    @classmethod
    def gather(cls, values_w: np.ndarray, masks_w: np.ndarray,
               results: np.ndarray, rows: np.ndarray) -> "MatchBank":
        """The bank whose group ``g`` holds the packed entries ``rows[g]``.

        ``values_w`` / ``masks_w`` are (E, W) packed entries and ``rows`` a
        (G, C) row-index array with -1 marking padding.
        """
        n_entries, n_words = values_w.shape
        rows = np.where(rows < 0, n_entries, rows)   # the never-matching row
        values = np.vstack([values_w, np.ones((1, n_words), np.int64)])[rows]
        masks = np.vstack([masks_w, np.zeros((1, n_words), np.int64)])[rows]
        return cls(values=np.ascontiguousarray(values.transpose(0, 2, 1)),
                   masks=np.ascontiguousarray(masks.transpose(0, 2, 1)),
                   results=np.append(results, 0)[rows])

    def first_match(self, keys_w: np.ndarray,
                    group: np.ndarray | None = None) -> np.ndarray:
        """Result of the first matching candidate per packed key (N, W).

        ``group`` (N,) names each key's candidate group; None compares every
        key with group 0. Raises :class:`LookupError` when a key matches
        none of its candidates.
        """
        n = len(keys_w)
        _, n_words, width = self.values.shape
        out = np.empty(n, dtype=np.int64)
        step = max(1, _MATCH_CELLS // (n_words * width))
        for s in range(0, n, step):
            keys = keys_w[s:s + step, :, None]
            if group is None:
                g = 0
                values, masks = self.values[0], self.masks[0]
            else:
                # take() gathers whole groups several times faster than
                # fancy indexing a 3-D array.
                g = group[s:s + step]
                values, masks = self.values.take(g, 0), self.masks.take(g, 0)
            matched = (keys[:, 0] & masks[..., 0, :]) == values[..., 0, :]
            for w in range(1, n_words):
                matched &= (keys[:, w] & masks[..., w, :]) == values[..., w, :]
            # Candidates keep priority order: the first match IS the winner.
            pick = matched.argmax(axis=1)
            hit = matched[np.arange(len(pick)), pick]
            if not hit.all():
                missed = s + int(np.argmin(hit))
                raise LookupError("no TCAM entry matches packed key "
                                  f"{keys_w[missed].tolist()}")
            out[s:s + step] = self.results[g, pick]
        return out


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
    against its segment's rows instead of all ``n_entries``. ``bank`` holds
    the candidates pre-gathered per segment, so a lookup is one first-match
    call with the key's segment as its group.
    """

    field_idx: int               # which key field the segments cut
    bounds: np.ndarray           # (n_segments,) segment start keys, sorted
    candidates: list             # per segment: np.ndarray of row indices
    bank: MatchBank = field(repr=False, compare=False)

    def segment_of(self, keys_f: np.ndarray) -> np.ndarray:
        """Elementary-segment id per key (keys clamped into the domain)."""
        return np.clip(np.searchsorted(self.bounds, keys_f, side="right") - 1,
                       0, len(self.bounds) - 1)


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
    # Pruned-match interval index: None until built (at compile by
    # ``TcamSegment.from_tree(encoding="pruned")``, else on first request);
    # False when the entries are not all prefix masks and pruning is
    # impossible — the pruned lookup then falls back to the full scan.
    _pruned: object = field(default=None, init=False, repr=False, compare=False)
    # The full scan: one group holding every row, packed on construction.
    _scan: MatchBank = field(init=False, repr=False, compare=False)

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
        self._scan = MatchBank.gather(*self.packed_words(), self.results,
                                      np.arange(self.n_entries)[None])

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
        keys_w = pack_words(keys_u, self.key_bits)
        index = self.pruned_index() if pruned else None
        if index is None:
            return self._scan.first_match(keys_w)
        return index.bank.first_match(
            keys_w, index.segment_of(keys_u[:, index.field_idx]))

    def packed_words(self) -> tuple[np.ndarray, np.ndarray]:
        """``values`` and ``masks`` packed into (n_entries, W) match words."""
        return (pack_words(self.values, self.key_bits),
                pack_words(self.masks, self.key_bits))

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
                best = (avg, f, bounds, covers)
        _, f, bounds, covers = best
        cands = [np.nonzero(row)[0] for row in covers]
        rows = np.full((len(cands), max(max(map(len, cands)), 1)), -1,
                       dtype=np.int64)
        for s, cand in enumerate(cands):
            rows[s, :len(cand)] = cand
        return PrunedMatchIndex(
            field_idx=f, bounds=bounds, candidates=cands,
            bank=MatchBank.gather(*self.packed_words(), self.results, rows))

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
    ``lookup_backend="tcam-pruned"``.
    """

    key_bits: int
    signed: bool
    encoding: str
    n_leaves: int
    dim: int
    flat: PackedTernaryTable | None = None
    # Levelwise: one single-field CRC table (0 = left, 1 = right) per internal
    # node, in the tree's node order, walked over the tree's own
    # ``feature`` / ``child`` arrays. ``_nodes`` stacks the tables into one
    # bank, group k = node k, which is what the walk matches against.
    levels: list[PackedTernaryTable] = field(default_factory=list)
    feature: np.ndarray | None = None
    child: np.ndarray | None = None
    _nodes: MatchBank | None = field(default=None, repr=False)
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
        requested = encoding
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
            if requested == "pruned":
                seg.flat.pruned_index()
        else:
            # CRC codes each node's left/right boundary in the encoded
            # (excess-K) domain.
            seg.levels = [
                PackedTernaryTable.from_prioritized(
                    consecutive_range_coding([int(b)], key_bits), key_bits,
                    signed=signed)
                for b in tree.levelwise_boundaries(key_bits, signed)]
            seg.feature, seg.child = tree.feature, tree.child
            if seg.levels:
                seg._nodes = _stack_tables(seg.levels)
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
        A levelwise batch advances every unfinished row one tree level per
        step: each row's key field is matched against its current node's
        table, whose result (0 = left, 1 = right) picks the child.
        """
        x = np.asarray(x)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise ShapeError(f"expected dim {self.dim}, got {x.shape[1]}")
        enc = encode_keys(x, self.key_bits, self.signed)
        if self.encoding == "flat":
            return self.flat.lookup_encoded(enc, pruned=pruned)
        n_internal = len(self.levels)
        node = np.zeros(len(enc), dtype=np.int64)
        live = np.arange(len(enc) if n_internal else 0)
        while len(live):
            at = node[live]
            # One key field per node: it fits one match word as it is.
            side = self._nodes.first_match(
                enc[live, self.feature[at]][:, None], at)
            at = self.child[2 * at + side]
            node[live] = at
            live = live[at < n_internal]
        return node - n_internal

    def node_tables(self) -> list[PackedTernaryTable]:
        """Every materialized table (one for flat, one per node otherwise)."""
        return [self.flat] if self.encoding == "flat" else self.levels


def _stack_tables(tables: list[PackedTernaryTable]) -> MatchBank:
    """One bank over many tables: group k holds every row of ``tables[k]``."""
    words = [t.packed_words() for t in tables]
    counts = np.array([t.n_entries for t in tables])
    starts = np.cumsum(counts) - counts
    col = np.arange(counts.max())
    rows = np.where(col < counts[:, None], starts[:, None] + col, -1)
    return MatchBank.gather(np.vstack([v for v, _ in words]),
                            np.vstack([m for _, m in words]),
                            np.concatenate([t.results for t in tables]), rows)


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

    Returns one row per fuzzy segment table with the encoding
    ``encoding="auto"`` chooses and its entry counts — the accounted layout
    (:meth:`FuzzyTree.tcam_entries`), which is what the TCAM resource
    figures are built from. The served ``"tcam-pruned"`` backend compiles
    its own forced-flat variant (``SegmentTable.tcam_segment(pruned=True)``).
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
