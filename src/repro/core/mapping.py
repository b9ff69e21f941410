"""Mapping-table materialization: primitive programs -> integer lookup layers.

This is where Pegasus's design ❸ lands in code: mapping tables store results
precomputed **with full-precision weights**, while everything that flows
between tables is a **fixed-point integer**. Each MapStep segment becomes a
:class:`SegmentTable` — either *exact* (a direct-indexed SRAM table, when the
segment is a single unit of at most 8 bits, 2^8 entries) or *fuzzy* (a
clustering tree realized as TCAM range rules whose leaf points at a
precomputed result vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompilationError, ConfigError, ShapeError
from repro.core.fuzzy import FuzzyTree, key_domain
from repro.core.primitives import MapStep, PrimitiveProgram, SumReduceStep
from repro.utils.fixed_point import QFormat, choose_qformat


# Lookup execution backends of a compiled model. "index" answers every table
# by exact fancy indexing (exact tables) / leaf grid or tree walk (fuzzy
# tables, see SegmentTable._grid); "tcam"
# answers fuzzy tables through the vectorized prioritized-TCAM emulation in
# :mod:`repro.dataplane.tcam` — bit-identical by construction, but executing
# the very (value, mask, priority) entries the hardware would hold.
# "tcam-pruned" is the same TCAM emulation with the flat wide-table encoding
# forced and its candidate-pruned match kernel enabled: each key compares
# against the rows of its elementary interval segment instead of the whole
# table — still first-match-identical. Exact tables are direct-indexed SRAM
# on the switch too, so every backend indexes them.
LOOKUP_BACKENDS = ("index", "tcam", "tcam-pruned")

# Fuzzy tables whose whole key domain fits this many bits (d * in_bits: at
# most 65,536 cells, 64 KiB of uint8 leaves) get a leaf grid.
GRID_KEY_BITS = 16


def _check_backend(lookup_backend: str) -> None:
    if lookup_backend not in LOOKUP_BACKENDS:
        raise ConfigError("lookup_backend", lookup_backend,
                          allowed=LOOKUP_BACKENDS)


@dataclass
class MaterializeConfig:
    """Knobs for table construction."""

    fuzzy_leaves: int = 16       # clusters per fuzzy segment table
    act_bits: int = 8            # fixed-point width of activations (paper: 2^8-entry queries)
    exact_max_bits: int = 8      # exact tables allowed up to this key width
    calibration_margin: float = 1.05  # headroom when choosing QFormats


@dataclass
class SegmentTable:
    """One Map segment realized as a dataplane table."""

    segment: tuple[int, int]
    kind: str                    # "exact" | "fuzzy"
    values_int: np.ndarray       # (n_entries, out_dim) stored results
    out_format: QFormat
    in_bits: int                 # key width per input unit
    in_signed: bool = False      # signed keys use excess-K TCAM encoding
    tree: FuzzyTree | None = None
    exact_lo: int = 0            # exact tables index by (x - exact_lo)
    # Lazily compiled TCAM forms of a fuzzy table (repro.dataplane.tcam),
    # cached per encoding choice ("auto" | "pruned") so serving pays
    # compilation once per table, not per batch.
    _tcam: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    # ``leaf_of[packed key]`` over the whole key domain of a fuzzy table
    # (:meth:`FuzzyTree.leaf_grid`), or None when the domain is too large or
    # clamping into it is not leaf-preserving. Derived from the tree arrays
    # like ``_tcam`` but built eagerly — here and in :meth:`set_thresholds` —
    # so no serve pays for it.
    _grid: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        self._refresh_grid()

    def _refresh_grid(self) -> None:
        self._grid = None
        d = self.segment[1] - self.segment[0]
        if (self.kind == "fuzzy" and self.tree.dim == d
                and d * self.in_bits <= GRID_KEY_BITS):
            self._grid = self.tree.leaf_grid(
                *key_domain(self.in_bits, self.in_signed))

    @property
    def out_dim(self) -> int:
        return self.values_int.shape[1]

    @property
    def n_entries(self) -> int:
        return self.values_int.shape[0]

    def lookup(self, x_seg: np.ndarray,
               lookup_backend: str = "index") -> np.ndarray:
        """Table lookup for a batch of integer segment inputs (N, d)."""
        _check_backend(lookup_backend)
        if self.kind == "exact":
            # Direct-indexed SRAM on the hardware under every backend.
            idx = np.clip(x_seg[:, 0] - self.exact_lo, 0, self.n_entries - 1)
            return self.values_int[idx.astype(np.int64)]
        assert self.tree is not None
        if lookup_backend == "tcam":
            return self.values_int[self.tcam_indices(x_seg)]
        if lookup_backend == "tcam-pruned":
            return self.values_int[self.tcam_indices(x_seg, pruned=True)]
        return self.values_int[self.fuzzy_indices(x_seg)]

    def tcam_segment(self, pruned: bool = False):
        """The cached prioritized-TCAM form of this (fuzzy) table.

        ``pruned=True`` compiles (and caches) the pruned-kernel variant —
        flat encoding forced where affordable so the candidate pre-index
        has one wide scan to prune.
        """
        key = "pruned" if pruned else "auto"
        if key not in self._tcam:
            # Imported lazily: core stays importable without the dataplane.
            from repro.dataplane.tcam import compile_segment_table
            self._tcam[key] = compile_segment_table(self, encoding=key)
        return self._tcam[key]

    def tcam_indices(self, x_seg: np.ndarray, pruned: bool = False) -> np.ndarray:
        """Fuzzy indices via masked-compare TCAM emulation (bit-identical
        to :meth:`fuzzy_indices` for the integer keys the dataplane sees)."""
        return self.tcam_segment(pruned=pruned).lookup_indices(x_seg,
                                                               pruned=pruned)

    def set_thresholds(self, thresholds: np.ndarray) -> None:
        """Move the tree's thresholds, drop the TCAM forms compiled from the
        old ones and rebuild the leaf grid (fuzzy tables; the fine-tuner's
        only way in)."""
        self.tree.set_thresholds(thresholds)
        self._tcam.clear()
        self._refresh_grid()

    def fuzzy_indices(self, x_seg: np.ndarray) -> np.ndarray:
        """The raw fuzzy index (used when per-flow state stores indexes).

        The table's one index entry point: integer-typed ``(N, d)`` keys of
        a table with a leaf grid are clamped to the key domain, packed and
        answered by one gather; anything else walks the tree. The two agree
        on every integer key, in the domain or outside it.
        """
        if self.kind != "fuzzy":
            raise CompilationError("only fuzzy tables have fuzzy indices")
        x = np.asarray(x_seg)
        if (self._grid is None or x.ndim != 2 or x.shape[1] != self.tree.dim
                or not np.can_cast(x.dtype, np.int64)):
            return self.tree.predict_index(x_seg)
        lo, hi = key_domain(self.in_bits, self.in_signed)
        x = np.clip(x.astype(np.int64, copy=False), lo, hi)
        key = x[:, 0] - lo
        for j in range(1, x.shape[1]):
            key = (key << self.in_bits) + (x[:, j] - lo)
        return self._grid[key].astype(np.int64)

    # -- cell-box certificates -----------------------------------------------

    def leaf_box_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-leaf integer boxes of a fuzzy table, as (lo, hi) arrays.

        Shape (n_leaves, d), inclusive integer bounds in the raw key
        domain: leaf i's box is exactly the integer region the clustering
        tree routes to fuzzy index i, so the table's output is constant on
        it — the certificate :func:`decision_cell_box` hands the two-level
        decision cache.
        """
        if self.kind != "fuzzy":
            raise CompilationError("only fuzzy tables have leaf boxes")
        lo, hi = self.tree.leaf_boxes(*key_domain(self.in_bits, self.in_signed))
        return np.ceil(lo).astype(np.int64), np.floor(hi).astype(np.int64)

    def cell_box(self, x_seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive (lo, hi) box per row on which this table is constant.

        Fuzzy tables return the leaf box containing each row; exact tables
        return the width-1 point box ``[x, x]`` (their output varies with
        every key, and clipping makes wider boxes unsound at the domain
        edges).
        """
        x_seg = np.asarray(x_seg, dtype=np.int64)
        if self.kind == "exact":
            return x_seg.copy(), x_seg.copy()
        lo, hi = self.leaf_box_arrays()
        idx = self.fuzzy_indices(x_seg)
        return lo[idx], hi[idx]

    # -- resource accounting -------------------------------------------------

    def sram_bits(self) -> int:
        """Action-data storage: every entry's result vector."""
        return self.n_entries * self.out_dim * self.out_format.total_bits

    def tcam_bits(self) -> int:
        """Ternary match storage (value+mask per entry) for fuzzy tables."""
        if self.kind != "fuzzy":
            return 0
        d = self.segment[1] - self.segment[0]
        key_width = d * self.in_bits
        entries = self.tree.tcam_entries(key_bits=self.in_bits, signed=self.in_signed)
        return entries * 2 * key_width

    def bus_bits(self) -> int:
        """Action-data bus transfer per lookup."""
        return self.out_dim * self.out_format.total_bits


@dataclass(frozen=True)
class _GridPlan:
    """The leaf grids of one layer's tables, fused into one gather.

    ``cols``/``lo``/``hi``/``weights`` are ``(d_max, n_fused)``: entry
    ``[p, k]`` describes dimension ``p`` of fused table ``k`` (tables of
    fewer dimensions are padded with weight 0). A fused table's leaf is
    ``leaf_of[sum_p clip(x[cols[p, k]]) * weights[p, k] + offsets[k]]`` —
    its own packed key, shifted to its grid's place in ``leaf_of``.
    """

    grids: tuple                # per layer table: its ``_grid`` at build
    cols: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    leaf_of: np.ndarray | None  # None: no table of the layer has a grid

    @classmethod
    def build(cls, tables: list[SegmentTable]) -> "_GridPlan":
        fused = [t for t in tables if t._grid is not None]
        widths = [t.segment[1] - t.segment[0] for t in fused]
        shape = (max(widths, default=0), len(fused))
        cols, lo, hi, weights = (np.zeros(shape, dtype=np.int64)
                                 for _ in range(4))
        offsets = np.zeros(len(fused), dtype=np.int64)
        cells = 0
        for k, (t, d) in enumerate(zip(fused, widths)):
            cols[:, k] = t.segment[0]
            cols[:d, k] = np.arange(*t.segment)
            lo[:d, k], hi[:d, k] = key_domain(t.in_bits, t.in_signed)
            weights[:d, k] = 1 << (t.in_bits * np.arange(d - 1, -1, -1))
            offsets[k] = cells - (lo[:, k] * weights[:, k]).sum()
            cells += len(t._grid)
        return cls(
            grids=tuple(t._grid for t in tables),
            cols=cols, lo=lo, hi=hi, weights=weights, offsets=offsets,
            leaf_of=np.concatenate([t._grid for t in fused]) if fused else None)

    def stale(self, tables: list[SegmentTable]) -> bool:
        """A table was added, replaced or got new thresholds since build."""
        return (len(tables) != len(self.grids)
                or any(t._grid is not g for t, g in zip(tables, self.grids)))

    def leaves(self, x: np.ndarray) -> list[np.ndarray | None]:
        """Per layer table, the fuzzy indices of an integer-typed ``(N, d)``
        batch — None for a table without a grid."""
        if self.leaf_of is None:
            return [None] * len(self.grids)
        xg = x[:, self.cols].astype(np.int64, copy=False)   # a copy either way
        np.clip(xg, self.lo, self.hi, out=xg)
        xg *= self.weights
        keys = self.offsets + xg[:, 0]
        for p in range(1, xg.shape[1]):
            keys += xg[:, p]
        fused = iter(self.leaf_of[keys].T)
        return [None if g is None else next(fused) for g in self.grids]


@dataclass
class LookupLayer:
    """One fused Map(+SumReduce) round: parallel segment lookups, then sum/concat."""

    tables: list[SegmentTable]
    sum_reduce: bool
    out_format: QFormat
    _plan: _GridPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._plan = _GridPlan.build(self.tables)

    @property
    def out_dim(self) -> int:
        if self.sum_reduce:
            return self.tables[0].out_dim
        return sum(t.out_dim for t in self.tables)

    @property
    def in_dim(self) -> int:
        return max(t.segment[1] for t in self.tables)

    def forward_int(self, x_int: np.ndarray,
                    lookup_backend: str = "index") -> np.ndarray:
        """Integer-domain forward pass (bit-exact with the switch pipeline).

        Under the ``"index"`` backend every table with a leaf grid is
        indexed by the layer's one fused gather (:class:`_GridPlan`); the
        rest — exact tables, fuzzy tables that still traverse, the TCAM
        backends, non-integer inputs — go through :meth:`SegmentTable.lookup`.
        """
        x_int = np.asarray(x_int)
        leaves = [None] * len(self.tables)
        if lookup_backend == "index" and np.can_cast(x_int.dtype, np.int64):
            if self._plan.stale(self.tables):
                self._plan = _GridPlan.build(self.tables)
            leaves = self._plan.leaves(x_int)
        outs = [t.lookup(x_int[:, t.segment[0]:t.segment[1]],
                         lookup_backend=lookup_backend)
                if leaf is None else t.values_int[leaf]
                for t, leaf in zip(self.tables, leaves)]
        if self.sum_reduce:
            acc = np.zeros_like(outs[0], dtype=np.int64)
            for o in outs:
                acc += o
            # The pipeline's accumulator saturates at the activation width.
            return np.clip(acc, self.out_format.int_min, self.out_format.int_max)
        return np.concatenate(outs, axis=1)

    def sram_bits(self) -> int:
        return sum(t.sram_bits() for t in self.tables)

    def tcam_bits(self) -> int:
        return sum(t.tcam_bits() for t in self.tables)

    def bus_bits(self) -> int:
        return sum(t.bus_bits() for t in self.tables)

    @property
    def n_lookups(self) -> int:
        return len(self.tables)


@dataclass
class CompiledModel:
    """A Pegasus model compiled to lookup layers, executable on integers."""

    input_dim: int
    layers: list[LookupLayer] = field(default_factory=list)
    input_bits: int = 8
    name: str = "pegasus"

    @property
    def out_format(self) -> QFormat:
        return self.layers[-1].out_format

    def forward_int(self, x_int: np.ndarray,
                    lookup_backend: str = "index") -> np.ndarray:
        """Integer forward pass over a batch of any size.

        Every op is a table gather or a saturating integer add, so results
        are *batch-size invariant*: evaluating N rows at once is bit-equal
        to evaluating them one at a time — the property that lets the
        batched runtimes replace per-packet calls with one call per batch.
        The empty batch (0, input_dim) is explicitly supported.

        ``lookup_backend`` selects how fuzzy tables are answered: ``"index"``
        walks the clustering tree; ``"tcam"`` runs the vectorized
        prioritized-TCAM emulation (:mod:`repro.dataplane.tcam`) over the
        packed (value, mask, priority) entries the switch would hold. The
        two are bit-identical for every integer input (asserted by
        ``tests/test_dataplane_tcam.py``).
        """
        _check_backend(lookup_backend)
        x = np.asarray(x_int, dtype=np.int64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise ShapeError(f"expected a (N, {self.input_dim}) batch, got shape {x.shape}")
        if x.shape[1] != self.input_dim:
            raise ShapeError(f"expected input dim {self.input_dim}, got {x.shape[1]}")
        if x.shape[0] == 0:
            out_dim = self.layers[-1].out_dim if self.layers else self.input_dim
            return np.zeros((0, out_dim), dtype=np.int64)
        for layer in self.layers:
            x = layer.forward_int(x, lookup_backend=lookup_backend)
        return x

    def predict_scores(self, x_int: np.ndarray,
                       lookup_backend: str = "index") -> np.ndarray:
        """Dequantized final-layer scores."""
        return self.out_format.dequantize(
            self.forward_int(x_int, lookup_backend=lookup_backend))

    def predict(self, x_int: np.ndarray,
                lookup_backend: str = "index") -> np.ndarray:
        """Argmax class decision, as the switch's final compare tree does."""
        return np.argmax(self.forward_int(x_int, lookup_backend=lookup_backend),
                         axis=1)

    @property
    def num_lookup_rounds(self) -> int:
        return len(self.layers)

    @property
    def num_tables(self) -> int:
        return sum(layer.n_lookups for layer in self.layers)

    def sram_bits(self) -> int:
        return sum(layer.sram_bits() for layer in self.layers)

    def tcam_bits(self) -> int:
        return sum(layer.tcam_bits() for layer in self.layers)

    def bus_bits(self) -> int:
        return max((layer.bus_bits() for layer in self.layers), default=0)


def decision_cell_box(model: CompiledModel,
                      x_int: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row axis-aligned boxes on which the model's decision is constant.

    For a batch ``(N, input_dim)`` of integer inputs, returns inclusive
    ``(lo, hi)`` int64 arrays of the same shape such that every integer
    point inside row i's box provably receives the same final decision as
    ``x_int[i]``: the box is the intersection of the first layer's
    per-table constancy regions (fuzzy leaf box / exact point box), the
    first-layer output is therefore identical across the box, and every
    later layer — and the final argmax — is a function of that output
    alone. This is the verify-on-hit certificate of the two-level decision
    cache: an approximate (quantized-key) hit is served only when the probe
    vector lies inside the cached box.

    Dimensions no first-layer table reads (there are none in practice) stay
    pinned to the point, keeping the certificate sound by construction.
    """
    x = np.asarray(x_int, dtype=np.int64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"expected a (N, {model.input_dim}) batch, got shape {x.shape}")
    lo = x.copy()
    hi = x.copy()
    if model.layers and len(x):
        for table in model.layers[0].tables:
            start, stop = table.segment
            t_lo, t_hi = table.cell_box(x[:, start:stop])
            lo[:, start:stop] = t_lo
            hi[:, start:stop] = t_hi
    return lo, hi


# Chunk the (rows x leaves x out_dim) candidate-bound tensors so interval
# certification of a large miss batch stays within a few MB of scratch.
_BOUND_CELLS = 1 << 22


def _table_output_bounds(table: SegmentTable, lo: np.ndarray,
                         hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sound per-row output bounds of one table over input boxes [lo, hi].

    Returns ``(out_lo, out_hi, ok)``: for every integer key inside row i's
    (inclusive) box, the table's output lies in ``[out_lo[i], out_hi[i]]``
    elementwise. ``ok[i]`` is False when no table entry intersects the box
    (an empty candidate set has no meaningful bounds) — callers must treat
    such rows as uncertifiable rather than trust the sentinel values.
    """
    n = len(lo)
    vals = table.values_int
    if table.kind == "exact":
        # Direct-indexed SRAM: keys clip into [0, n_entries): a box maps to
        # a contiguous index range, bounded by a min/max over the slice.
        i0 = np.clip(lo[:, 0] - table.exact_lo, 0, table.n_entries - 1)
        i1 = np.clip(hi[:, 0] - table.exact_lo, 0, table.n_entries - 1)
        pairs, inv = np.unique(np.stack([i0, i1], axis=1), axis=0,
                               return_inverse=True)
        ulo = np.empty((len(pairs), table.out_dim), dtype=np.int64)
        uhi = np.empty_like(ulo)
        for k, (a, b) in enumerate(pairs):
            seg = vals[int(a):int(b) + 1]
            ulo[k] = seg.min(axis=0)
            uhi[k] = seg.max(axis=0)
        return ulo[inv], uhi[inv], np.ones(n, dtype=bool)
    leaf_lo, leaf_hi = table.leaf_box_arrays()
    out_lo = np.empty((n, table.out_dim), dtype=np.int64)
    out_hi = np.empty_like(out_lo)
    ok = np.empty(n, dtype=bool)
    chunk = max(1, _BOUND_CELLS // max(1, len(leaf_lo) * table.out_dim))
    for s in range(0, n, chunk):
        l_, h_ = lo[s:s + chunk], hi[s:s + chunk]
        inter = ((leaf_lo[None, :, :] <= h_[:, None, :])
                 & (leaf_hi[None, :, :] >= l_[:, None, :])).all(axis=2)
        ok[s:s + chunk] = inter.any(axis=1)
        cand = inter[:, :, None]
        out_lo[s:s + chunk] = np.where(cand, vals[None], _INT64_MAX).min(axis=1)
        out_hi[s:s + chunk] = np.where(cand, vals[None], _INT64_MIN).max(axis=1)
    return out_lo, out_hi, ok


_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


def decision_box_certified(model: CompiledModel, x_int: np.ndarray,
                           box_lo: np.ndarray,
                           box_hi: np.ndarray) -> np.ndarray:
    """Per-row bool: the decision is provably constant on ``[box_lo, box_hi]``.

    Interval abstraction over the lookup pipeline: each layer's output is
    bounded by the elementwise min/max over every table entry whose key
    region intersects the incoming box (fuzzy leaf boxes / exact index
    ranges); SumReduce adds bounds and saturates monotonically. Row i is
    certified when the final lower bound of ``x_int[i]``'s own class
    strictly exceeds every other class's upper bound — then no point in the
    box can flip the argmax, regardless of tie-breaking order. Bounds only
    ever over-approximate the reachable outputs, so a True verdict is sound
    by construction; False merely means "could not prove it".
    """
    x = np.asarray(x_int, dtype=np.int64)
    if x.ndim == 1:
        x = x[None, :]
    lo = np.asarray(box_lo, dtype=np.int64)
    hi = np.asarray(box_hi, dtype=np.int64)
    if lo.ndim == 1:
        lo, hi = lo[None, :], hi[None, :]
    n = len(x)
    if not model.layers or n == 0:
        return np.zeros(n, dtype=bool)
    dec = np.argmax(model.forward_int(x), axis=1)
    valid = np.ones(n, dtype=bool)
    for layer in model.layers:
        outs_lo, outs_hi = [], []
        for table in layer.tables:
            start, stop = table.segment
            t_lo, t_hi, ok = _table_output_bounds(
                table, lo[:, start:stop], hi[:, start:stop])
            outs_lo.append(t_lo)
            outs_hi.append(t_hi)
            valid &= ok
        if layer.sum_reduce:
            fmt = layer.out_format
            lo = np.clip(sum(outs_lo), fmt.int_min, fmt.int_max)
            hi = np.clip(sum(outs_hi), fmt.int_min, fmt.int_max)
        else:
            lo = np.concatenate(outs_lo, axis=1)
            hi = np.concatenate(outs_hi, axis=1)
    rows = np.arange(n)
    runner_up = hi.copy()
    runner_up[rows, dec] = _INT64_MIN
    return valid & (lo[rows, dec] > runner_up.max(axis=1))


def certified_decision_box(model: CompiledModel, x_int: np.ndarray,
                           quantize_shift: int | None = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Widest available sound decision box per row.

    Starts from :func:`decision_cell_box` (always sound) and, when the
    caller names the L2 store's ``quantize_shift``, tries to upgrade each
    row's box to its whole quantization bucket — the axis-aligned cube of
    side ``1 << quantize_shift`` the row's quantized L2 key denotes. The
    upgrade is taken only when :func:`decision_box_certified` proves the
    decision constant over the full cube; certified rows then satisfy
    *bucket hit implies box hit*, which is what lets scenario families
    whose flows never repeat a window byte-for-byte still share decisions
    through the L2.
    """
    cell_lo, cell_hi = decision_cell_box(model, x_int)
    if quantize_shift is None or quantize_shift <= 0 or not model.layers:
        return cell_lo, cell_hi
    x = np.asarray(x_int, dtype=np.int64)
    if x.ndim == 1:
        x = x[None, :]
    if len(x) == 0:
        return cell_lo, cell_hi
    cube_lo = (x >> quantize_shift) << quantize_shift
    cube_hi = cube_lo + (1 << quantize_shift) - 1
    cert = decision_box_certified(model, x, cube_lo, cube_hi)[:, None]
    return (np.where(cert, cube_lo, cell_lo),
            np.where(cert, cube_hi, cell_hi))


def _materialize_map(step: MapStep, sum_reduce: bool, calib_int: np.ndarray,
                     in_format: QFormat, cfg: MaterializeConfig) -> LookupLayer:
    """Build the tables of one Map(+SumReduce) round from calibration data."""
    calib_float = in_format.dequantize(calib_int)

    # Pass 1: full-precision outputs to calibrate the output format. The
    # format must hold both each partial result and (if reducing) their sum.
    partials = [fn(calib_float[:, start:stop])
                for (start, stop), fn in zip(step.partition, step.fns)]
    samples = np.concatenate([p.ravel() for p in partials])
    if sum_reduce:
        total = np.sum(np.stack(partials), axis=0)
        samples = np.concatenate([samples, total.ravel()])
    out_format = choose_qformat(samples, cfg.act_bits, margin=cfg.calibration_margin)

    tables: list[SegmentTable] = []
    for (start, stop), fn in zip(step.partition, step.fns):
        d = stop - start
        seg_int = calib_int[:, start:stop]
        if d == 1 and in_format.total_bits <= cfg.exact_max_bits:
            lo = in_format.int_min
            n_entries = 1 << in_format.total_bits
            keys = np.arange(lo, lo + n_entries, dtype=np.int64)[:, None]
            values = fn(in_format.dequantize(keys))
            tables.append(SegmentTable(
                segment=(start, stop), kind="exact",
                values_int=out_format.quantize(values),
                out_format=out_format, in_bits=in_format.total_bits,
                in_signed=in_format.signed, exact_lo=lo))
        else:
            tree = FuzzyTree.fit(seg_int.astype(np.float64), n_leaves=cfg.fuzzy_leaves)
            values = fn(in_format.dequantize(tree.centroids))
            tables.append(SegmentTable(
                segment=(start, stop), kind="fuzzy",
                values_int=out_format.quantize(values),
                out_format=out_format, in_bits=in_format.total_bits,
                in_signed=in_format.signed, tree=tree))
    return LookupLayer(tables=tables, sum_reduce=sum_reduce, out_format=out_format)


def materialize(program: PrimitiveProgram, calib_int: np.ndarray,
                cfg: MaterializeConfig | None = None,
                input_bits: int = 8, input_frac_bits: int = 0,
                input_signed: bool = False,
                name: str = "pegasus") -> CompiledModel:
    """Compile a primitive program into an integer :class:`CompiledModel`.

    ``calib_int`` is the training-set inputs in the integer domain the
    dataplane sees (e.g. raw uint8 feature buckets). Each Map round's fuzzy
    trees are fitted on the integer activations flowing into that round,
    matching the paper's i.i.d. parameter-learning assumption.
    """
    cfg = cfg or MaterializeConfig()
    program.validate()
    calib_int = np.asarray(calib_int, dtype=np.int64)
    if calib_int.ndim != 2 or calib_int.shape[1] != program.input_dim:
        raise ShapeError(
            f"calibration data must be (N, {program.input_dim}), got {calib_int.shape}")

    in_format = QFormat(input_bits, input_frac_bits, signed=input_signed)
    model = CompiledModel(input_dim=program.input_dim, input_bits=input_bits, name=name)

    steps = list(program.steps)
    i = 0
    current_int = calib_int
    current_format = in_format
    while i < len(steps):
        step = steps[i]
        if not isinstance(step, MapStep):
            raise CompilationError(
                "program must alternate Map(+SumReduce); run fuse_basic first "
                f"(found leading {type(step).__name__})")
        sum_reduce = i + 1 < len(steps) and isinstance(steps[i + 1], SumReduceStep)
        layer = _materialize_map(step, sum_reduce, current_int, current_format, cfg)
        model.layers.append(layer)
        current_int = layer.forward_int(current_int)
        current_format = layer.out_format
        i += 2 if sum_reduce else 1
    return model
