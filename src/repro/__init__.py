"""Pegasus: a universal framework for scalable DL inference on the dataplane.

This package reproduces the SIGCOMM 2025 Pegasus system end to end:

- :mod:`repro.nn` — a pure-NumPy neural network training substrate.
- :mod:`repro.net` — packets, flows, traces, features, synthetic datasets.
- :mod:`repro.core` — the Pegasus contribution: Partition / Map / SumReduce
  primitives, fuzzy matching, primitive fusion, fixed-point quantization,
  centroid fine-tuning, and the model-to-dataplane compiler.
- :mod:`repro.dataplane` — a PISA match-action pipeline simulator with a
  Tofino-2-like resource model.
- :mod:`repro.backends` — P4_16 and eBPF code emitters.
- :mod:`repro.models` — the paper's six models (MLP-B, RNN-B, CNN-B/M/L,
  AutoEncoder).
- :mod:`repro.baselines` — N3IC, BoS and Leo reimplementations.
- :mod:`repro.eval` — metrics and the experiment harness behind every table
  and figure in the paper's evaluation.
- :mod:`repro.serving` — the production serving layer: batch scheduling,
  sharded/parallel dispatch, flow-decision caching, and the
  :class:`PegasusEngine` facade that builds the whole stack from one
  :class:`EngineConfig`.
"""

from repro.errors import (
    PegasusError,
    ConfigError,
    ShapeError,
    QuantizationError,
    CompilationError,
    ResourceExceededError,
    PipelineError,
    TraceFormatError,
    TrainingError,
)

# The public serving API: one engine, one config, one report — plus the
# dispatcher and runtime classes it assembles, so users never need internal
# module paths.
from repro.serving import (
    BatchScheduler,
    EngineConfig,
    FlowDecisionCache,
    ParallelDispatcher,
    PegasusEngine,
    ServingReport,
    ShardedDispatcher,
)
from repro.dataplane import TwoStageRuntime, WindowedClassifierRuntime

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "PegasusError",
    "ConfigError",
    "ShapeError",
    "QuantizationError",
    "CompilationError",
    "ResourceExceededError",
    "PipelineError",
    "TraceFormatError",
    "TrainingError",
    "BatchScheduler",
    "EngineConfig",
    "FlowDecisionCache",
    "ParallelDispatcher",
    "PegasusEngine",
    "ServingReport",
    "ShardedDispatcher",
    "TwoStageRuntime",
    "WindowedClassifierRuntime",
]
