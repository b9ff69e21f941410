"""Tests for packets, flow assembly, windowing, and trace serialization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TraceFormatError
from repro.net import (
    Packet, FlowKey, Flow, assemble_flows, flow_windows,
    Trace, write_trace, read_trace,
)


def _pkt(ts=0.0, length=100, sport=1000, dport=80, payload=()):
    key = FlowKey(0x0A000001, 0x0A000002, sport, dport, 6)
    return Packet(ts=ts, length=length, key=key, payload=np.array(payload, dtype=np.uint8))


class TestFlowKey:
    def test_reversed(self):
        key = FlowKey(1, 2, 10, 20, 6)
        assert key.reversed() == FlowKey(2, 1, 20, 10, 6)

    def test_canonical_is_direction_independent(self):
        key = FlowKey(5, 2, 10, 20, 6)
        assert key.canonical() == key.reversed().canonical()

    def test_canonical_idempotent(self):
        key = FlowKey(1, 2, 10, 20, 6).canonical()
        assert key.canonical() == key


class TestPacket:
    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            _pkt(length=2000)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _pkt(length=-1)

    def test_payload_len(self):
        assert _pkt(payload=[1, 2, 3]).payload_len == 3


class TestFlowAssembly:
    def test_groups_by_canonical_key(self):
        fwd = _pkt(ts=0.0, sport=1000, dport=80)
        rev = Packet(ts=1.0, length=60, key=fwd.key.reversed())
        flows = assemble_flows([fwd, rev])
        assert len(flows) == 1
        assert len(next(iter(flows.values()))) == 2

    def test_orders_by_timestamp(self):
        pkts = [_pkt(ts=2.0), _pkt(ts=0.5), _pkt(ts=1.0)]
        flow = next(iter(assemble_flows(pkts).values()))
        assert [p.ts for p in flow.packets] == [0.5, 1.0, 2.0]

    def test_distinct_flows_stay_separate(self):
        flows = assemble_flows([_pkt(sport=1000), _pkt(sport=1001)])
        assert len(flows) == 2

    def test_ipds(self):
        flow = Flow(key=_pkt().key, packets=[_pkt(ts=0.0), _pkt(ts=0.3), _pkt(ts=1.0)])
        np.testing.assert_allclose(flow.inter_packet_delays(), [0.3, 0.7])

    def test_duration_single_packet(self):
        assert Flow(key=_pkt().key, packets=[_pkt()]).duration == 0.0


class TestFlowWindows:
    def _flow(self, n):
        return Flow(key=_pkt().key, packets=[_pkt(ts=float(i)) for i in range(n)])

    def test_short_flow_yields_nothing(self):
        assert flow_windows(self._flow(5), window=8) == []

    def test_exact_window(self):
        assert len(flow_windows(self._flow(8), window=8)) == 1

    def test_stride(self):
        wins = flow_windows(self._flow(16), window=8, stride=4)
        assert len(wins) == 3

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            flow_windows(self._flow(8), window=0)


class TestTraceSerialization:
    def test_roundtrip(self, tmp_path):
        pkts = [_pkt(ts=0.1, length=100, payload=[1, 2, 3]),
                _pkt(ts=0.2, length=200, sport=1001, payload=list(range(50)))]
        path = tmp_path / "t.spcap"
        write_trace(Trace(pkts), path)
        back = read_trace(path)
        assert len(back) == 2
        assert back.packets[0].ts == pytest.approx(0.1)
        assert back.packets[1].length == 200
        np.testing.assert_array_equal(back.packets[0].payload, [1, 2, 3])
        assert back.packets[1].key.src_port == 1001

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spcap"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated(self, tmp_path):
        pkts = [_pkt(payload=[1] * 20)]
        path = tmp_path / "t.spcap"
        write_trace(Trace(pkts), path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_from_flows_interleaves(self):
        f1 = Flow(key=_pkt().key, packets=[_pkt(ts=0.0), _pkt(ts=2.0)])
        f2 = Flow(key=_pkt(sport=1001).key, packets=[_pkt(ts=1.0, sport=1001)])
        trace = Trace.from_flows([f1, f2])
        assert [p.ts for p in trace.packets] == [0.0, 1.0, 2.0]

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=1500),
        st.integers(min_value=0, max_value=100)), min_size=0, max_size=20))
    def test_roundtrip_property(self, specs):
        import tempfile
        from pathlib import Path

        pkts = [_pkt(ts=ts, length=ln, payload=[7] * pl) for ts, ln, pl in specs]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.spcap"
            write_trace(Trace(pkts), path)
            back = read_trace(path)
        assert len(back) == len(pkts)
        for orig, rt in zip(pkts, back.packets):
            assert rt.length == orig.length
            assert rt.payload_len == orig.payload_len


def _record_loop_bytes(trace):
    """SPCAP1 bytes written one record at a time, as the format defines."""
    import struct
    record = struct.Struct("<dHHIIHHB")
    chunks = [b"SPCAP1\x00\x00"]
    for p in trace.packets:
        chunks.append(record.pack(p.ts, p.length, p.payload_len, *p.key))
        chunks.append(p.payload.tobytes())
    return b"".join(chunks)


def _fields(packets):
    return [(p.ts, p.length, p.key, p.payload.tobytes()) for p in packets]


class TestColumnarTrace:
    """The columnar Trace: same bytes, same order, no packets on the way."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.net import build_scenario
        return build_scenario("heavy_hitters").generate(
            seed=4, flows_scale=0.2).trace

    def test_bytes_match_record_loop(self, trace):
        from repro.net import trace_to_bytes
        idx = np.random.default_rng(0).permutation(len(trace))[:50]
        for t in (trace, trace[3:40], trace.take(idx), Trace([])):
            assert trace_to_bytes(t) == _record_loop_bytes(t)

    def test_from_flows_keeps_stable_order_on_tied_timestamps(self):
        f1 = Flow(key=_pkt().key, packets=[
            _pkt(ts=0.0, payload=[1]), _pkt(ts=1.0, payload=[2]),
            _pkt(ts=1.0, payload=[3])])
        f2 = Flow(key=_pkt(sport=1001).key, packets=[
            _pkt(ts=1.0, sport=1001, payload=[4]),
            _pkt(ts=0.5, sport=1001, payload=[5])])
        f3 = Flow(key=_pkt(sport=1002).key, packets=[
            _pkt(ts=1.0, sport=1002, payload=[6])])
        flows = [f1, f2, f3]
        want = sorted((p for f in flows for p in f.packets),
                      key=lambda p: p.ts)
        assert _fields(Trace.from_flows(flows).packets) == _fields(want)

    def test_derived_traces_build_no_packets(self, trace, monkeypatch):
        import repro.net.traces as traces

        def no_packets(*args, **kwargs):
            raise AssertionError("a Packet was built")

        monkeypatch.setattr(traces, "Packet", no_packets)
        idx = np.array([5, 0, 9, 9, 2])
        taken, sliced = trace.take(idx), trace[4:11]
        back = Trace.from_columns(trace.to_columns(payload_bytes=8))
        for name in ("ts", "length", "key_words", "src_ip", "proto"):
            np.testing.assert_array_equal(getattr(taken, name),
                                          getattr(trace, name)[idx])
            np.testing.assert_array_equal(getattr(sliced, name),
                                          getattr(trace, name)[4:11])
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(trace, name))
        np.testing.assert_array_equal(taken.payload_matrix(60),
                                      trace.payload_matrix(60)[idx])
        np.testing.assert_array_equal(sliced.payload_matrix(60),
                                      trace.payload_matrix(60, 4, 11))
        np.testing.assert_array_equal(back.payload_matrix(8),
                                      trace.payload_matrix(8))
        monkeypatch.undo()
        assert _fields(taken.packets) == \
            _fields([trace.packets[i] for i in idx])

    def test_packets_view_equals_originals(self):
        pkts = [_pkt(ts=0.5 * i, length=60 + i, sport=1000 + i % 3,
                     payload=list(range(i * 7 % 23))) for i in range(12)]
        pkts.append(Packet(ts=9.0, length=64,
                           key=FlowKey(0xFFFFFFFF, 0, 0xFFFF, 1, 255)))
        view = Trace(pkts).packets
        assert _fields(view) == _fields(pkts)
        assert [p.payload_len for p in view] == [p.payload_len for p in pkts]
        assert all(p.payload.dtype == np.uint8 for p in view)

    def test_columns_are_frozen(self, trace):
        with pytest.raises(ValueError):
            trace.ts[0] = 1.0
        with pytest.raises(AttributeError):
            trace.ts = trace.ts


class TestTraceValidation:
    """Header fields outside their SPCAP1 widths fail when a trace is built,
    never later in ``write_trace`` (or silently, by aliasing two flows)."""

    @pytest.mark.parametrize("key", [
        FlowKey(1 << 32, 2, 10, 20, 6), FlowKey(1, -1, 10, 20, 6),
        FlowKey(1, 2, 1 << 16, 20, 6), FlowKey(1, 2, 10, 70000, 6),
        FlowKey(1, 2, 10, 20, 256), FlowKey(1, 2, 10, 20, 1 << 70)])
    def test_key_out_of_range(self, key):
        pkt = Packet(ts=0.0, length=60, key=key)
        with pytest.raises(TraceFormatError):
            Trace([pkt])
        if max(key) >= 1 << 63:
            return                  # no int64 column can hold it
        cols = Trace([_pkt()]).to_columns()
        for name, value in zip(("src_ip", "dst_ip", "src_port", "dst_port",
                                "proto"), key):
            cols[name] = np.array([value], dtype=np.int64)
        with pytest.raises(TraceFormatError):
            Trace.from_columns(cols)

    def test_length_above_mtu(self):
        pkt = _pkt()
        pkt.length = 1501
        with pytest.raises(TraceFormatError):
            Trace([pkt])
        cols = Trace([_pkt()]).to_columns()
        cols["length"] = np.array([1600], dtype=np.int64)
        with pytest.raises(TraceFormatError, match="1600"):
            Trace.from_columns(cols)

    @pytest.mark.parametrize("ts", [float("nan"), float("inf"),
                                    float("-inf"), 6e14, -6e14])
    def test_timestamp_without_an_int64_unit_count(self, ts):
        """NaN, infinities and |ts| whose 64 us unit count overflows int64
        are rejected: the per-packet and batched runtimes would bucket them
        differently (or the per-packet one would raise)."""
        with pytest.raises(TraceFormatError, match="timestamp"):
            Trace([_pkt(ts=ts)])
        cols = Trace([_pkt()]).to_columns()
        cols["ts"] = np.array([ts])
        with pytest.raises(TraceFormatError, match="timestamp"):
            Trace.from_columns(cols)

    def test_largest_timestamps_decide_alike(self, compiled16):
        """5e14 s (a unit count near 2**63) is a valid timestamp, and both
        runtimes bucket its inter-packet delays alike."""
        from repro.dataplane.runtime import (WindowedClassifierRuntime,
                                             flows_to_trace)
        from repro.eval.differential import scalar_replay
        base = 5e14
        packets = [_pkt(ts=base + 0.1 * 2 ** i, length=60 + 50 * i)
                   for i in range(12)]
        flow = Flow(key=packets[0].key, packets=packets, label=1)
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="seq"), *flows_to_trace([flow]))
        assert len(ref) == 5
        for batch_size in (1, 4, 256):
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode="seq", batch_size=batch_size)
            assert list(runtime.process_flows([flow])) == ref

    def test_widest_fields_round_trip_without_aliasing(self, tmp_path):
        keys = [FlowKey(0xFFFFFFFF, 0xFFFFFFFE, 0xFFFF, 0xFFFE, 255),
                FlowKey(0xFFFFFFFE, 0xFFFFFFFF, 0xFFFE, 0xFFFF, 255),
                FlowKey(1, 2, 0, 0x100, 0), FlowKey(1, 2, 1, 0, 0)]
        trace = Trace([Packet(ts=float(i), length=1500, key=k)
                       for i, k in enumerate(keys)])
        # The first two are one flow in two directions; the last two would
        # collide if port bits spilled into their neighbours.
        words = [tuple(w) for w in trace.key_words.tolist()]
        assert words[0] == words[1] and len(set(words)) == 3
        assert trace.canonical_keys() == [k.canonical() for k in keys]
        path = tmp_path / "wide.spcap"
        write_trace(trace, path)
        assert _fields(read_trace(path).packets) == _fields(trace.packets)
