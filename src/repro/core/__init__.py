"""Pegasus core: primitives, fuzzy matching, fusion, quantization, compiler.

The paper's primary contribution. Layering:

1. :mod:`repro.core.primitives` — the Partition / Map / SumReduce IR.
2. :mod:`repro.core.operators` — lowering trained NN layers to the IR.
3. :mod:`repro.core.fusion` — Basic and Advanced Primitive Fusion.
4. :mod:`repro.core.fuzzy` — the clustering-tree fuzzy matcher.
5. :mod:`repro.core.crc` — range-to-ternary (Consecutive Range Coding).
6. :mod:`repro.core.mapping` — table materialization at fixed point.
7. :mod:`repro.core.finetune` — backprop / least-squares table refinement.
8. :mod:`repro.core.compiler` — the end-to-end driver.
"""

from repro.core.primitives import (
    Affine,
    ElementwiseAffine,
    ElementwiseFunc,
    General,
    FuncSpec,
    MapStep,
    SumReduceStep,
    PrimitiveProgram,
    compose,
    even_partition,
)
from repro.core.fuzzy import FuzzyTree
from repro.core.crc import (
    TernaryMatch,
    PrioritizedEntry,
    range_to_prefixes,
    consecutive_range_coding,
    lookup_prioritized,
)
from repro.core.fusion import fuse_basic, remove_nonlinear, additive_program
from repro.core.operators import lower_sequential
from repro.core.mapping import (
    MaterializeConfig,
    SegmentTable,
    LookupLayer,
    CompiledModel,
    materialize,
)
from repro.core.finetune import refine_values_least_squares, SoftTreeFineTuner
from repro.core.compiler import PegasusCompiler, CompilerConfig, CompilationResult
from repro.core import syntax

__all__ = [
    "Affine",
    "ElementwiseAffine",
    "ElementwiseFunc",
    "General",
    "FuncSpec",
    "MapStep",
    "SumReduceStep",
    "PrimitiveProgram",
    "compose",
    "even_partition",
    "FuzzyTree",
    "TernaryMatch",
    "PrioritizedEntry",
    "range_to_prefixes",
    "consecutive_range_coding",
    "lookup_prioritized",
    "fuse_basic",
    "remove_nonlinear",
    "additive_program",
    "lower_sequential",
    "MaterializeConfig",
    "SegmentTable",
    "LookupLayer",
    "CompiledModel",
    "materialize",
    "refine_values_least_squares",
    "SoftTreeFineTuner",
    "PegasusCompiler",
    "CompilerConfig",
    "CompilationResult",
    "syntax",
]
