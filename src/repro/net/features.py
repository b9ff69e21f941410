"""Feature extraction: the three input views the paper's models consume.

1. **Statistical features** (MLP-B, N3IC, Leo): 16 8-bit features = 128-bit
   input scale, built from max/min packet length and inter-packet delay plus
   the first packets' buckets — exactly the "fair" feature set the paper
   restricts itself to (§6.3).
2. **Sequence tokens** (RNN-B, CNN-B/M, BoS): a window of 8 packets encoded
   as 16 interleaved (length-bucket, IPD-bucket) 8-bit tokens = 128 bits.
3. **Raw bytes** (CNN-L): 60 raw payload bytes from each of 8 packets =
   3840-bit input scale.

All buckets are 8-bit so a mapping-table query needs at most 2^8 entries,
the property Pegasus's design ❸ relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.net.flow import Flow
from repro.net.packet import Packet, MAX_PACKET_LENGTH

N_STAT_FEATURES = 16          # 16 x 8b = 128-bit statistical input
SEQ_WINDOW = 8                # packets per classification window
SEQ_TOKENS = 2 * SEQ_WINDOW   # (length, IPD) token pair per packet
RAW_BYTES_PER_PACKET = 60     # CNN-L raw view: 60 B x 8 pkts = 3840 bits

_IPD_LOG_SCALE = 16.0         # buckets per doubling of microseconds


def length_bucket(length: int) -> int:
    """Quantize a packet length to 8 bits (linear over the MTU range)."""
    return min(int(length) * 255 // MAX_PACKET_LENGTH, 255)


def ipd_bucket(delta_seconds: float) -> int:
    """Quantize an inter-packet delay to 8 bits (log scale over us..s)."""
    micros = max(delta_seconds, 0.0) * 1e6
    return min(int(np.log2(micros + 1.0) * _IPD_LOG_SCALE / 2.0), 255)


def length_bucket_array(lengths: np.ndarray) -> np.ndarray:
    """Vectorized :func:`length_bucket`: bit-identical per element."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.minimum(lengths * 255 // MAX_PACKET_LENGTH, 255)


def ipd_bucket_array(delta_seconds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`ipd_bucket`: bit-identical per element.

    Uses the exact same float64 expression as the scalar form, so the
    batched runtimes make the same bucket decisions as per-packet replay.
    """
    micros = np.maximum(np.asarray(delta_seconds, dtype=np.float64), 0.0) * 1e6
    return np.minimum((np.log2(micros + 1.0) * _IPD_LOG_SCALE / 2.0).astype(np.int64),
                      255)


def _packet_buckets(packets: list[Packet]) -> tuple[list[int], list[int]]:
    lens = [length_bucket(p.length) for p in packets]
    times = [p.ts for p in packets]
    ipds = [ipd_bucket(b - a) for a, b in zip(times, times[1:])]
    return lens, ipds


def stats_from_buckets(lens: list[int], ipds: list[int]) -> np.ndarray:
    """16 uint8 statistical features from already-bucketed length/IPD lists.

    Layout: [max_len, min_len, max_ipd, min_ipd,
             len buckets of first 6 packets, ipd buckets of first 6 gaps].
    The offline extractor's vector; the windowed runtime's batched features
    and the scalar oracle build the same one from their bucket windows.
    """
    if not lens:
        raise ShapeError("cannot extract features from an empty window")
    if not ipds:
        ipds = [0]
    feats = [max(lens), min(lens), max(ipds), min(ipds)]
    feats += (list(lens) + [0] * 6)[:6]
    feats += (list(ipds) + [0] * 6)[:6]
    return np.asarray(feats, dtype=np.uint8)


def flow_statistical_features(packets: list[Packet]) -> np.ndarray:
    """16 uint8 statistical features from a packet window."""
    lens, ipds = _packet_buckets(packets)
    return stats_from_buckets(lens, ipds)


def sequence_tokens(packets: list[Packet]) -> np.ndarray:
    """Interleaved (length, IPD) 8-bit tokens for a window: shape (2*W,)."""
    if len(packets) != SEQ_WINDOW:
        raise ShapeError(f"sequence view needs exactly {SEQ_WINDOW} packets, got {len(packets)}")
    lens, ipds = _packet_buckets(packets)
    ipds = [0] + ipds  # first packet of the window has no preceding gap
    tokens = np.empty(SEQ_TOKENS, dtype=np.uint8)
    tokens[0::2] = lens
    tokens[1::2] = ipds
    return tokens


def raw_byte_matrix(packets: list[Packet], n_bytes: int = RAW_BYTES_PER_PACKET) -> np.ndarray:
    """First ``n_bytes`` payload bytes of each packet: shape (W, n_bytes) uint8."""
    if len(packets) != SEQ_WINDOW:
        raise ShapeError(f"raw-byte view needs exactly {SEQ_WINDOW} packets, got {len(packets)}")
    out = np.zeros((len(packets), n_bytes), dtype=np.uint8)
    for i, pkt in enumerate(packets):
        take = min(pkt.payload_len, n_bytes)
        out[i, :take] = pkt.payload[:take]
    return out


def dataset_views(flows: list[Flow], window: int = SEQ_WINDOW,
                  max_windows_per_flow: int = 3,
                  stride: int | None = None) -> dict[str, np.ndarray]:
    """Extract all three feature views plus labels for a list of flows.

    Returns arrays keyed ``stats`` (N, 16), ``seq`` (N, 16), ``raw``
    (N, 8, 60), ``y`` (N,) — one row per classification window. Capping
    windows per flow keeps classes balanced across flow lengths.
    """
    from repro.net.flow import flow_windows  # local import avoids a cycle

    if stride is None:
        stride = max(window // 2, 1)
    stats, seqs, raws, labels = [], [], [], []
    for flow in flows:
        for win in flow_windows(flow, window, stride)[:max_windows_per_flow]:
            stats.append(flow_statistical_features(win))
            seqs.append(sequence_tokens(win))
            raws.append(raw_byte_matrix(win))
            labels.append(flow.label)
    return {
        "stats": np.asarray(stats, dtype=np.uint8),
        "seq": np.asarray(seqs, dtype=np.uint8),
        "raw": np.asarray(raws, dtype=np.uint8),
        "y": np.asarray(labels, dtype=np.int64),
    }
