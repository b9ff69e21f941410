"""PISA dataplane substrate: pipeline, tables, registers, resource model.

Stands in for the paper's Barefoot Tofino 2 testbed. The simulator enforces
the same constraints the paper designs around: a fixed number of match-action
stages, per-stage SRAM / TCAM budgets, a bounded action-data bus, a bounded
PHV, integer-only actions (add/sub/shift/bit-ops — no multiply, divide or
float), and stateful per-flow registers whose size trades off against the
number of concurrent flows.
"""

from repro.dataplane.schema import (ColumnSchema, ColumnSpec,
                                    DECISION_COLUMNS, WIRE_COLUMNS,
                                    decision_dtype, wire_dtype)
from repro.dataplane.target import TargetConfig, TOFINO2, GENERIC_PISA
from repro.dataplane.phv import PHVAllocator, PHVField
from repro.dataplane.tables import TernaryTableEntry, ternary_entries_for_tree, tcam_lookup
from repro.dataplane.tcam import (PackedTernaryTable, TcamSegment,
                                  compile_segment_table, tcam_table_report)
from repro.dataplane.pipeline import Pipeline, place_model, TablePlacement, StageBudget
from repro.dataplane.registers import (FlowStateTable, FlowStateLayout,
                                       RegisterField, VectorFlowState)
from repro.dataplane.resources import ResourceReport, summarize_resources
from repro.dataplane.runtime import (DEFAULT_BATCH_SIZE, PacketDecision,
                                     TwoStageRuntime,
                                     WindowedClassifierRuntime)
from repro.dataplane.throughput import line_rate_pps, measure_model_throughput

__all__ = [
    "ColumnSchema",
    "ColumnSpec",
    "DECISION_COLUMNS",
    "WIRE_COLUMNS",
    "decision_dtype",
    "wire_dtype",
    "TargetConfig",
    "TOFINO2",
    "GENERIC_PISA",
    "PHVAllocator",
    "PHVField",
    "TernaryTableEntry",
    "ternary_entries_for_tree",
    "tcam_lookup",
    "PackedTernaryTable",
    "TcamSegment",
    "compile_segment_table",
    "tcam_table_report",
    "Pipeline",
    "place_model",
    "TablePlacement",
    "StageBudget",
    "FlowStateTable",
    "FlowStateLayout",
    "RegisterField",
    "VectorFlowState",
    "ResourceReport",
    "summarize_resources",
    "WindowedClassifierRuntime",
    "TwoStageRuntime",
    "PacketDecision",
    "DEFAULT_BATCH_SIZE",
    "line_rate_pps",
    "measure_model_throughput",
]
