"""Throughput models for Figure 9d.

A PISA pipeline runs every compiled program at line rate: throughput is set
by the switch fabric and average packet size, independent of model size
(§7.5). Control-plane throughput is *measured* on the local NumPy inference
path ("CPU"); the "GPU" series scales the CPU number by the paper's observed
CPU-to-GPU gap because no GPU exists offline (documented in DESIGN.md).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.dataplane.target import TargetConfig, TOFINO2

# Paper §7.5: Pegasus beats CPU by >3800x and GPU by >600x, so the four-V100
# rig is ~6.3x the Xeon. Used to synthesize the GPU series.
GPU_OVER_CPU = 3800.0 / 600.0


def line_rate_pps(target: TargetConfig = TOFINO2, avg_packet_bytes: int = 800) -> float:
    """Packets (= inference samples) per second at line rate."""
    bits_per_packet = avg_packet_bytes * 8
    return target.line_rate_tbps * 1e12 / bits_per_packet


def measure_model_throughput(predict: Callable[[np.ndarray], np.ndarray],
                             x: np.ndarray, repeats: int = 3,
                             batch: int | None = None) -> float:
    """Measured samples/second of a software inference path."""
    if batch is not None:
        x = x[:batch]
    predict(x)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        # Measurement harness (Fig. 9d), not a decision path: wall-clock is
        # the quantity being measured, never an input to a decision.
        start = time.perf_counter()
        predict(x)
        elapsed = time.perf_counter()
        best = min(best, elapsed - start)
    return len(x) / best if best > 0 else float("inf")
