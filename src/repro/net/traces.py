"""Packet traces, stored as columns, and their binary file format.

A :class:`Trace` is the parsed-header vector the switch's parser would
fill: one array per header field, never a list of packet objects. It holds

- ``ts`` (float64 seconds, finite, see :data:`TS_UNIT_SECONDS`) and
  ``length`` (int64 bytes);
- the five raw 5-tuple columns (int64, trace order, direction as seen);
- ``key_words``: the *canonical* 5-tuple packed exactly into two uint64
  words per packet, ``[src_ip << 32 | dst_ip, src_port << 24 | dst_port << 8
  | proto]`` — the flow identity the per-flow register table is keyed by;
- the payloads as one ``uint8`` buffer, ``payload_data``, plus an int64
  ``(start, stop)`` offset pair per packet, ``payload_offsets``. A freshly
  built trace's offsets are contiguous (CSR); :meth:`Trace.take` and slices
  share the parent's buffer and only gather offset rows.

Every column is built once, when the trace is built (``Trace(packets)``,
:meth:`Trace.from_flows`, :meth:`Trace.from_columns`, :func:`read_trace`),
and validated there against the SPCAP1 field widths, so the packed key can
never alias two flows. The columns are read-only. ``packets`` (and
:meth:`Trace.canonical_keys`) are views materialized on demand for the
per-packet scalar oracle and the tests.

File format ``SPCAP1``: a magic header, then one record per packet:
``<ts:f64><length:u16><payload_len:u16><5-tuple:u32 u32 u16 u16 u8><payload bytes>``
little-endian.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.errors import TraceFormatError
from repro.net.packet import MAX_PACKET_LENGTH, FlowKey, Packet

_MAGIC = b"SPCAP1\x00\x00"
_REC_HEADER = struct.Struct("<dHHIIHHB")
# The same record header as a packed NumPy record, for whole-trace writes.
_REC_DTYPE = np.dtype([("ts", "<f8"), ("length", "<u2"), ("payload_len", "<u2"),
                       ("src_ip", "<u4"), ("dst_ip", "<u4"),
                       ("src_port", "<u2"), ("dst_port", "<u2"),
                       ("proto", "u1")])

KEY_COLUMN_NAMES = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")
#: SPCAP1 width of each 5-tuple field; the packed key relies on them.
KEY_FIELD_BITS = (32, 32, 16, 16, 8)
MAX_PAYLOAD_LENGTH = 0xFFFF      # SPCAP1 payload_len is a u16
#: The switch counts time in 64 us units (its 16-bit ``prev_ts`` register
#: keeps the low bits); every timestamp's unit count must fit an int64.
TS_UNIT_SECONDS = 64e-6
_MAX_TS_UNITS = 2.0 ** 63

_U32 = np.uint64(32)
_U24 = np.uint64(24)
_U8 = np.uint64(8)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK16 = np.uint64(0xFFFF)
_MASK8 = np.uint64(0xFF)

_schema = None


def _wire_schema():
    """The columnar wire-format schema module, imported lazily.

    ``repro.dataplane.__init__`` imports the runtime, which imports this
    module — a top-level ``from repro.dataplane.schema import ...`` here
    would hit that half-initialized package. Deferring to first use breaks
    the cycle for every import order.
    """
    global _schema
    if _schema is None:
        from repro.dataplane import schema
        _schema = schema
    return _schema


def canonicalize_key_columns(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Vectorized :meth:`FlowKey.canonical` over whole key columns.

    One boolean select pass instead of a Python call per packet; produces
    exactly the per-key canonical form (smaller (ip, port) endpoint first).
    """
    swap = (cols["src_ip"] > cols["dst_ip"]) | (
        (cols["src_ip"] == cols["dst_ip"])
        & (cols["src_port"] > cols["dst_port"]))
    return {
        "src_ip": np.where(swap, cols["dst_ip"], cols["src_ip"]),
        "dst_ip": np.where(swap, cols["src_ip"], cols["dst_ip"]),
        "src_port": np.where(swap, cols["dst_port"], cols["src_port"]),
        "dst_port": np.where(swap, cols["src_port"], cols["dst_port"]),
        "proto": np.asarray(cols["proto"]).copy(),
    }


def pack_flow_keys(cols: dict[str, np.ndarray]) -> np.ndarray:
    """The canonical 5-tuples of key columns, packed: ``(n, 2)`` uint64.

    Word 0 is ``src_ip << 32 | dst_ip``, word 1 ``src_port << 24 |
    dst_port << 8 | proto`` of the canonical key, so two packets share a
    row exactly when they share a flow. Exact only for fields inside their
    SPCAP1 widths, which every :class:`Trace` guarantees.
    """
    canon = canonicalize_key_columns(cols)
    words = np.empty((len(canon["src_ip"]), 2), dtype=np.uint64)
    src_ip, dst_ip, src_port, dst_port, proto = (
        np.asarray(canon[name]).astype(np.uint64) for name in KEY_COLUMN_NAMES)
    words[:, 0] = (src_ip << _U32) | dst_ip
    words[:, 1] = (src_port << _U24) | (dst_port << _U8) | proto
    return words


def flow_ids(words: np.ndarray) -> list[bytes]:
    """One hashable id per row of packed key words (its 16 raw bytes).

    The form the per-flow register table and the decision cache key flows
    by: built for a whole batch in one C-level pass.
    """
    return np.ascontiguousarray(words, dtype=np.uint64).view("V16") \
        .ravel().tolist()


def _check_range(what: str, col: np.ndarray, limit: int) -> None:
    """Raise unless every value of ``col`` lies in ``[0, limit]``."""
    if len(col) and (col.min() < 0 or col.max() > limit):
        bad = col[(col < 0) | (col > limit)][0]
        raise TraceFormatError(
            f"{what} {int(bad)} outside its SPCAP1 range [0, {limit}]")


def _check_timestamps(ts: np.ndarray) -> None:
    """Raise unless every timestamp is finite and its count of
    :data:`TS_UNIT_SECONDS` units fits an int64: only then do the per-packet
    and the batched runtimes truncate it to the same unit."""
    units = ts / TS_UNIT_SECONDS
    bad = ~((units >= -_MAX_TS_UNITS) & (units < _MAX_TS_UNITS))
    if bad.any():
        raise TraceFormatError(
            f"timestamp {float(ts[bad][0])!r} is not finite or its "
            f"{TS_UNIT_SECONDS * 1e6:.0f} us unit count overflows int64")


def _ragged_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``range(start, start + size)`` over rows, vectorized."""
    total = int(sizes.sum())
    firsts = np.cumsum(sizes) - sizes
    return np.arange(total, dtype=np.int64) + np.repeat(starts - firsts, sizes)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (the caller's own array stays writable)."""
    view = arr.view()
    view.flags.writeable = False
    return view


class Trace:
    """A time-ordered packet sequence, as seen on the wire: a frozen struct
    of column arrays (see the module docstring for the layout)."""

    __slots__ = ("ts", "length", "src_ip", "dst_ip", "src_port", "dst_port",
                 "proto", "key_words", "payload_data", "payload_offsets",
                 "_packets")

    def __init__(self, packets=()):
        packets = list(packets)
        n = len(packets)
        sch = _wire_schema()
        try:
            keys = np.array([p.key for p in packets],
                            dtype=sch.wire_dtype("src_ip")).reshape(n, 5).T
        except OverflowError as exc:
            raise TraceFormatError(f"key field out of range: {exc}") from None
        payloads = [np.asarray(p.payload, dtype=np.uint8) for p in packets]
        sizes = np.fromiter(map(len, payloads), dtype=np.int64, count=n)
        ends = np.cumsum(sizes)
        self._set_columns(
            np.fromiter((p.ts for p in packets), dtype=sch.wire_dtype("ts"),
                        count=n),
            np.fromiter((p.length for p in packets),
                        dtype=sch.wire_dtype("length"), count=n),
            dict(zip(KEY_COLUMN_NAMES, np.ascontiguousarray(keys))),
            np.concatenate(payloads) if n else np.zeros(0, dtype=np.uint8),
            np.stack([ends - sizes, ends], axis=1))

    def _set_columns(self, ts, length, keys: dict, payload_data,
                     payload_offsets, key_words=None) -> None:
        """Validate (unless ``key_words`` is given: already checked) and
        store every column read-only."""
        if key_words is None:
            for name, bits in zip(KEY_COLUMN_NAMES, KEY_FIELD_BITS):
                _check_range(f"key field {name}", keys[name], (1 << bits) - 1)
            _check_range("packet length", length, MAX_PACKET_LENGTH)
            _check_timestamps(ts)
            _check_range("payload length",
                         payload_offsets[:, 1] - payload_offsets[:, 0],
                         MAX_PAYLOAD_LENGTH)
            key_words = pack_flow_keys(keys)
        columns = {"ts": ts, "length": length, **keys, "key_words": key_words,
                   "payload_data": payload_data,
                   "payload_offsets": payload_offsets}
        for name, column in columns.items():
            object.__setattr__(self, name, _frozen(column))
        object.__setattr__(self, "_packets", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trace is frozen; cannot set {name!r}")

    @classmethod
    def _wrap(cls, *columns, key_words=None) -> "Trace":
        trace = cls.__new__(cls)
        trace._set_columns(*columns, key_words=key_words)
        return trace

    def __len__(self) -> int:
        return len(self.ts)

    def __repr__(self) -> str:
        return f"Trace({len(self)} packets)"

    # -- derived traces --------------------------------------------------------

    def take(self, idx) -> "Trace":
        """The packets at positions ``idx``, in that order.

        One gather per column; payload bytes are not copied (the result
        shares this trace's buffer and gathers only its offset rows).
        """
        return self._select(np.asarray(idx, dtype=np.int64))

    def __getitem__(self, span: slice) -> "Trace":
        """A contiguous run of packets, as views (nothing is copied)."""
        if not isinstance(span, slice):
            raise TypeError("Trace indices are slices; use take() to gather")
        return self._select(span)

    def _select(self, rows) -> "Trace":
        return Trace._wrap(
            self.ts[rows], self.length[rows],
            {name: getattr(self, name)[rows] for name in KEY_COLUMN_NAMES},
            self.payload_data, self.payload_offsets[rows],
            key_words=self.key_words[rows])

    @staticmethod
    def from_flows(flows: list) -> "Trace":
        """Interleave the packets of many flows by timestamp.

        Flows are concatenated in the given order and then stably sorted by
        timestamp, so packets with equal timestamps keep that order.
        """
        trace = Trace([p for f in flows for p in f.packets])
        order = np.argsort(trace.ts, kind="stable")
        return trace.take(order)

    # -- per-packet views (scalar oracle, tests) --------------------------------

    @property
    def packets(self) -> tuple[Packet, ...]:
        """The packets as objects, built on first access (the per-packet
        scalar oracle reads them; serving never does)."""
        if self._packets is None:
            data = self.payload_data
            object.__setattr__(self, "_packets", tuple(
                Packet(ts=ts, length=length, key=FlowKey(*key),
                       payload=data[start:stop])
                for ts, length, key, (start, stop) in zip(
                    self.ts.tolist(), self.length.tolist(),
                    zip(*(getattr(self, name).tolist()
                          for name in KEY_COLUMN_NAMES)),
                    self.payload_offsets.tolist())))
        return self._packets

    def canonical_keys(self) -> list[FlowKey]:
        """Canonical 5-tuple of every packet, in trace order."""
        cols = self.canonical_key_columns()
        return [FlowKey(*k) for k in zip(
            *(cols[name].tolist() for name in KEY_COLUMN_NAMES))]

    # -- columnar views for the batched runtimes ---------------------------------

    def packet_columns(self) -> dict[str, np.ndarray]:
        """Per-packet scalar columns (``ts`` float64, ``length`` int64)."""
        return {"ts": self.ts, "length": self.length}

    def key_columns(self) -> dict[str, np.ndarray]:
        """Raw (directional) per-packet 5-tuple columns, int64, trace order."""
        return {name: getattr(self, name) for name in KEY_COLUMN_NAMES}

    def canonical_key_columns(self) -> dict[str, np.ndarray]:
        """Canonical per-packet 5-tuple columns, unpacked from ``key_words``
        (the form shard payloads ship across process boundaries)."""
        hi, lo = self.key_words[:, 0], self.key_words[:, 1]
        dtype = _wire_schema().wire_dtype("src_ip")
        return {
            "src_ip": (hi >> _U32).astype(dtype),
            "dst_ip": (hi & _MASK32).astype(dtype),
            "src_port": (lo >> _U24).astype(dtype),
            "dst_port": ((lo >> _U8) & _MASK16).astype(dtype),
            "proto": (lo & _MASK8).astype(dtype),
        }

    def to_columns(self, payload_bytes: int | None = None
                   ) -> dict[str, np.ndarray]:
        """The whole trace as a handful of arrays (the columnar wire form).

        ``ts``/``length`` scalars plus the raw 5-tuple columns; with
        ``payload_bytes`` set, also a zero-padded ``payload`` byte matrix.
        :meth:`from_columns` inverts it (up to payload truncation).
        """
        cols = self.packet_columns()
        cols.update(self.key_columns())
        if payload_bytes is not None:
            cols["payload"] = self.payload_matrix(payload_bytes)
        _wire_schema().WIRE_COLUMNS.validate_columns(
            cols, context="Trace.to_columns")
        return cols

    @staticmethod
    def from_columns(cols: dict[str, np.ndarray]) -> "Trace":
        """Wrap :meth:`to_columns` output as a trace (no packet objects).

        A ``payload`` matrix becomes each packet's payload row by row, all
        ``payload.shape[1]`` bytes of it; without one, payloads are empty.
        """
        sch = _wire_schema()
        sch.WIRE_COLUMNS.validate_columns(cols, context="Trace.from_columns")
        n = len(cols["ts"])
        payload = cols.get("payload")
        width = 0 if payload is None else payload.shape[1]
        starts = np.arange(n, dtype=np.int64) * width
        data = (np.zeros(0, dtype=np.uint8) if payload is None
                else np.asarray(payload).astype(np.uint8).ravel())
        return Trace._wrap(
            np.asarray(cols["ts"], dtype=sch.wire_dtype("ts")),
            np.asarray(cols["length"], dtype=sch.wire_dtype("length")),
            {name: np.asarray(cols[name], dtype=sch.wire_dtype(name))
             for name in KEY_COLUMN_NAMES},
            data, np.stack([starts, starts + width], axis=1))

    def payload_matrix(self, n_bytes: int, start: int = 0,
                       stop: int | None = None) -> np.ndarray:
        """First ``n_bytes`` payload bytes of packets [start:stop]: (N, n_bytes) f64.

        Zero-padded, matching the per-packet raw view the two-stage runtime
        extracts fuzzy indexes from; one scatter from the payload buffer.
        The range arguments let batched replay materialize one batch at a
        time instead of the whole trace.
        """
        offsets = self.payload_offsets[start:stop]
        n = len(offsets)
        out = np.zeros((n, n_bytes), dtype=_wire_schema().wire_dtype("payload"))
        take = np.minimum(offsets[:, 1] - offsets[:, 0], n_bytes)
        col = np.arange(int(take.sum()), dtype=np.int64) \
            - np.repeat(np.cumsum(take) - take, take)
        out[np.repeat(np.arange(n, dtype=np.int64), take), col] = \
            self.payload_data[np.repeat(offsets[:, 0], take) + col]
        return out


def trace_to_bytes(trace: Trace) -> bytes:
    """The SPCAP1 serialization of a trace, as one bytes object.

    The canonical byte form: :func:`write_trace` writes exactly this, and
    golden-replay fixtures digest it (equal bytes <=> equal traces, payloads
    included). Built with two scatters into one buffer, not a record loop.
    """
    n = len(trace)
    starts = trace.payload_offsets[:, 0]
    sizes = trace.payload_offsets[:, 1] - starts
    header = np.empty(n, dtype=_REC_DTYPE)
    header["ts"] = trace.ts
    header["length"] = trace.length
    header["payload_len"] = sizes
    for name in KEY_COLUMN_NAMES:
        header[name] = getattr(trace, name)
    size = _REC_DTYPE.itemsize
    record_at = len(_MAGIC) + size * np.arange(n, dtype=np.int64) \
        + np.cumsum(sizes) - sizes
    out = np.empty(len(_MAGIC) + size * n + int(sizes.sum()), dtype=np.uint8)
    out[:len(_MAGIC)] = np.frombuffer(_MAGIC, dtype=np.uint8)
    out[record_at[:, None] + np.arange(size)] = \
        header.view(np.uint8).reshape(n, size)
    out[_ragged_positions(record_at + size, sizes)] = \
        trace.payload_data[_ragged_positions(starts, sizes)]
    return out.tobytes()


def write_trace(trace: Trace, path: str | Path) -> None:
    """Serialize a trace to the SPCAP1 binary format."""
    Path(path).write_bytes(trace_to_bytes(trace))


def read_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`write_trace`."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(_MAGIC):
        raise TraceFormatError(f"{path} is not an SPCAP1 trace")
    offset = len(_MAGIC)
    headers: list[tuple] = []
    payload_at: list[int] = []
    while offset < len(data):
        if offset + _REC_HEADER.size > len(data):
            raise TraceFormatError(f"{path}: truncated record header at byte {offset}")
        header = _REC_HEADER.unpack_from(data, offset)
        offset += _REC_HEADER.size
        if offset + header[2] > len(data):
            raise TraceFormatError(f"{path}: truncated payload at byte {offset}")
        headers.append(header)
        payload_at.append(offset)
        offset += header[2]
    n = len(headers)
    records = np.array(headers, dtype=_REC_DTYPE) if n \
        else np.zeros(0, dtype=_REC_DTYPE)
    sizes = records["payload_len"].astype(np.int64)
    ends = np.cumsum(sizes)
    payload = np.frombuffer(data, dtype=np.uint8)[_ragged_positions(
        np.asarray(payload_at, dtype=np.int64), sizes)]
    sch = _wire_schema()
    return Trace._wrap(
        records["ts"].astype(sch.wire_dtype("ts")),
        records["length"].astype(sch.wire_dtype("length")),
        {name: records[name].astype(sch.wire_dtype(name))
         for name in KEY_COLUMN_NAMES},
        payload, np.stack([ends - sizes, ends], axis=1))
