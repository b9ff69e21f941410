"""The columnar wire-format contract: one schema, checked at run time.

Every array that crosses a worker process boundary — shard payloads going
out, decision streams coming back — must have a known dtype and rank, or
the ``multiprocessing.shared_memory`` segments of
``repro.serving.rings`` silently corrupt or fall back to re-pickling. This
module is the single source of truth for that format:

- :data:`WIRE_COLUMNS` — the trace-side columns ``Trace.to_columns`` emits
  and shard payloads carry (``ts``/``length``/5-tuple keys/``labels``, plus
  the optional ``payload`` byte matrix);
- :data:`DECISION_COLUMNS` — the four flat arrays each replica's decision
  stream comes back as.

:meth:`ColumnSchema.validate_columns` enforces it, always on, at the seams
where a drifted column would otherwise be cast or corrupted in place —
``Trace.to_columns``/``from_columns``, both dispatchers' shard splits, and
the decision merges (each replica's decisions before they are cast into
the merged columns or an egress segment). Drift raises
:class:`~repro.errors.SchemaError`.

Producers name their dtypes through :func:`wire_dtype` /
:func:`decision_dtype` instead of scattered ``np.int64`` literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.errors import SchemaError


@dataclass(frozen=True)
class ColumnSpec:
    """One wire column: dtype (by canonical NumPy name), rank, nullability.

    ``nullable`` means the column may be absent from a payload (``payload``
    ships only when the runtime extracts raw bytes; ``labels`` only on
    labelled replays) — never that a present column may hold ``None``.
    """

    dtype: str
    rank: int = 1
    nullable: bool = False

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


@dataclass(frozen=True)
class ColumnSchema:
    """A frozen name -> :class:`ColumnSpec` mapping with runtime validation."""

    name: str
    columns: Mapping[str, ColumnSpec] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns",
                           MappingProxyType(dict(self.columns)))

    def np_dtype(self, column: str) -> np.dtype:
        """The declared dtype of ``column`` (KeyError on undeclared names)."""
        return self.columns[column].np_dtype

    def required(self) -> tuple[str, ...]:
        """The non-nullable column names, declaration order."""
        return tuple(name for name, spec in self.columns.items()
                     if not spec.nullable)

    def validate_columns(self, cols: Mapping[str, np.ndarray],
                         require: tuple[str, ...] | None = None,
                         context: str = "") -> None:
        """Check a columnar payload against this schema.

        ``require`` lists the columns that must be present (default: every
        non-nullable one); any *present* column must be a declared name,
        an ndarray, and match the declared dtype and rank exactly, and all
        present columns must have the same number of rows.
        """
        if require is None:
            require = self.required()
        for name in require:
            if name not in cols:
                raise SchemaError(self.name, name, "is missing",
                                  context=context)
        for name, arr in cols.items():
            spec = self.columns.get(name)
            if spec is None:
                raise SchemaError(self.name, name,
                                  "is not a declared wire column",
                                  context=context)
            if not isinstance(arr, np.ndarray):
                raise SchemaError(
                    self.name, name,
                    f"is {type(arr).__name__}, not ndarray (re-pickle "
                    f"hazard on the IPC path)", context=context)
            if arr.dtype != spec.np_dtype:
                raise SchemaError(
                    self.name, name,
                    f"has dtype {arr.dtype}, schema declares {spec.dtype}",
                    context=context)
            if arr.ndim != spec.rank:
                raise SchemaError(
                    self.name, name,
                    f"has rank {arr.ndim}, schema declares {spec.rank}",
                    context=context)
        self.check_aligned(cols, context=context)

    def check_aligned(self, cols: Mapping[str, np.ndarray],
                      context: str = "") -> None:
        """Every column in ``cols`` must have as many rows as the first."""
        first = None
        for name, arr in cols.items():
            rows = len(arr)
            if first is None:
                first = (name, rows)
            elif rows != first[1]:
                raise SchemaError(
                    self.name, name,
                    f"has {rows} rows, '{first[0]}' has {first[1]}",
                    context=context)


WIRE_COLUMNS = ColumnSchema("wire", {
    "ts": ColumnSpec("float64", 1),
    "length": ColumnSpec("int64", 1),
    "src_ip": ColumnSpec("int64", 1),
    "dst_ip": ColumnSpec("int64", 1),
    "src_port": ColumnSpec("int64", 1),
    "dst_port": ColumnSpec("int64", 1),
    "proto": ColumnSpec("int64", 1),
    "labels": ColumnSpec("int64", 1, nullable=True),
    "payload": ColumnSpec("float64", 2, nullable=True),
})

DECISION_COLUMNS = ColumnSchema("decision", {
    "seq": ColumnSpec("int64", 1),
    "flow_label": ColumnSpec("int64", 1),
    "predicted": ColumnSpec("int64", 1),
    "ts": ColumnSpec("float64", 1),
})


# Shared-segment layout (repro.serving.rings): a shard's block of the
# ingress segment is these wire columns laid out back to back (payload last,
# only when configured), its block of the egress segment the decision
# columns in this order. Every byte offset derives from these plus the
# dtypes and the block's (offset, rows).
INGRESS_RING_ORDER = ("ts", "length", "src_ip", "dst_ip", "src_port",
                      "dst_port", "proto", "labels")
EGRESS_RING_ORDER = ("seq", "flow_label", "predicted", "ts")


def wire_dtype(column: str) -> np.dtype:
    """The declared dtype of a trace-side wire column."""
    return WIRE_COLUMNS.np_dtype(column)


def decision_dtype(column: str) -> np.dtype:
    """The declared dtype of a worker-reply decision column."""
    return DECISION_COLUMNS.np_dtype(column)

