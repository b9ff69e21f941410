"""Pipeline placement and execution.

``place_model`` lays a :class:`CompiledModel`'s tables onto MAT stages.
Rules, mirroring how PISA compilers allocate:

- Tables of the same lookup round are independent and may share stages.
- A large logical table may *span* several consecutive stages (its match
  memory is split across them); the lookup result is available after its
  last stage.
- A later round reads metadata written by the previous round's actions, so
  all its tables start in a strictly later stage than the previous round
  finishes — the dependency that makes deep unfused models infeasible on a
  20-stage pipeline and fused Pegasus models feasible.
- Each stage has hard SRAM / TCAM budgets; the action-data bus is charged in
  the stage that delivers a table's result.

``Pipeline.process`` checks that every table is placed and then executes
packets through ``CompiledModel.forward_int`` itself: integer-only lookups
and saturating accumulator adds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PipelineError, ResourceExceededError
from repro.core.mapping import CompiledModel, SegmentTable
from repro.dataplane.phv import PHVAllocator
from repro.dataplane.target import TargetConfig, TOFINO2


@dataclass
class StageBudget:
    """Remaining capacity of one physical stage during placement."""

    index: int
    sram_left: int
    tcam_left: int
    bus_left: int


@dataclass
class TablePlacement:
    """Where one logical segment table landed."""

    table: SegmentTable
    layer_index: int
    name: str
    start_stage: int
    end_stage: int
    allocations: list[tuple[int, int, int]] = field(default_factory=list)  # (stage, sram, tcam)


@dataclass
class Pipeline:
    """A compiled model placed onto a PISA pipeline."""

    target: TargetConfig
    model: CompiledModel
    placements: list[TablePlacement] = field(default_factory=list)
    stage_usage: list[StageBudget] = field(default_factory=list)
    phv: PHVAllocator | None = None

    @property
    def n_stages_used(self) -> int:
        if not self.placements:
            return 0
        return max(p.end_stage for p in self.placements) + 1

    def stage_bus_used(self, stage: int) -> int:
        return sum(p.table.bus_bits() for p in self.placements if p.end_stage == stage)

    @property
    def worst_stage_bus(self) -> int:
        return max((self.stage_bus_used(s) for s in range(self.n_stages_used)), default=0)

    def process(self, x_int: np.ndarray) -> np.ndarray:
        """Execute a batch through the placed pipeline: every table of every
        round must have a placement, then the rounds run as
        :meth:`CompiledModel.forward_int` runs them (batch-size invariant, so
        the batched runtimes can hand a whole trace batch to one call).
        """
        placed = Counter(p.layer_index for p in self.placements)
        for layer_idx, layer in enumerate(self.model.layers):
            if placed[layer_idx] != len(layer.tables):
                raise PipelineError(
                    f"layer {layer_idx}: {placed[layer_idx]} of "
                    f"{len(layer.tables)} tables placed")
        return self.model.forward_int(x_int)

    def predict(self, x_int: np.ndarray) -> np.ndarray:
        return np.argmax(self.process(x_int), axis=1)


def place_model(model: CompiledModel, target: TargetConfig = TOFINO2,
                start_stage: int = 0) -> Pipeline:
    """Greedy spanning placement honoring dependencies and stage budgets."""
    budgets = [StageBudget(index=i,
                           sram_left=target.sram_bits_per_stage,
                           tcam_left=target.tcam_bits_per_stage,
                           bus_left=target.action_bus_bits)
               for i in range(target.n_stages)]
    pipeline = Pipeline(target=target, model=model, stage_usage=budgets)

    # PHV must carry the input plus the widest inter-layer activations.
    phv = PHVAllocator(capacity_bits=target.phv_bits)
    phv.allocate("input", model.input_dim * model.input_bits)
    for i, layer in enumerate(model.layers):
        phv.allocate(f"act{i}", layer.out_dim * layer.out_format.total_bits)
    pipeline.phv = phv

    next_free = start_stage
    for layer_idx, layer in enumerate(model.layers):
        layer_end = next_free - 1
        for t_idx, table in enumerate(layer.tables):
            sram_need = table.sram_bits()
            tcam_need = table.tcam_bits()
            bus_need = table.bus_bits()
            stage_i = next_free
            start = None
            allocations = []
            while (sram_need > 0 or tcam_need > 0) and stage_i < target.n_stages:
                b = budgets[stage_i]
                take_sram = min(sram_need, b.sram_left)
                take_tcam = min(tcam_need, b.tcam_left)
                if take_sram > 0 or take_tcam > 0:
                    if start is None:
                        start = stage_i
                    b.sram_left -= take_sram
                    b.tcam_left -= take_tcam
                    sram_need -= take_sram
                    tcam_need -= take_tcam
                    allocations.append((stage_i, take_sram, take_tcam))
                stage_i += 1
            if sram_need > 0 or tcam_need > 0:
                short = "SRAM" if sram_need > 0 else "TCAM"
                raise ResourceExceededError(
                    f"{short} (pipeline total)", sram_need + tcam_need, 0)
            end = allocations[-1][0] if allocations else next_free
            if start is None:
                start = next_free
            # The result is delivered on the bus of the final spanned stage.
            if budgets[end].bus_left < bus_need:
                # Push delivery to the next stage with bus room.
                while end < target.n_stages and budgets[end].bus_left < bus_need:
                    end += 1
                if end >= target.n_stages:
                    raise ResourceExceededError("action bus", bus_need, 0)
            budgets[end].bus_left -= bus_need
            pipeline.placements.append(TablePlacement(
                table=table, layer_index=layer_idx, name=f"l{layer_idx}_t{t_idx}",
                start_stage=start, end_stage=end, allocations=allocations))
            layer_end = max(layer_end, end)
        next_free = layer_end + 1
        if next_free > target.n_stages and layer_idx < len(model.layers) - 1:
            raise ResourceExceededError("stages", next_free, target.n_stages)
    if pipeline.n_stages_used > target.n_stages:
        raise ResourceExceededError("stages", pipeline.n_stages_used, target.n_stages)
    return pipeline
