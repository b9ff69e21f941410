"""Ternary (TCAM) table entries for fuzzy-match trees.

A fuzzy tree's leaves are axis-aligned boxes; each box expands into the
cross product of its per-dimension prefix covers (multi-field range
expansion, §6.1). ``tcam_lookup`` is the reference TCAM semantics used to
cross-validate that the expansion matches the tree bit-for-bit; the fast
path in the pipeline uses the tree directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.core.fuzzy import FuzzyTree


@dataclass(frozen=True)
class TernaryTableEntry:
    """One TCAM entry: per-dimension (value, mask) patterns -> result index."""

    values: tuple[int, ...]
    masks: tuple[int, ...]
    result: int

    def matches(self, key: tuple[int, ...] | np.ndarray) -> bool:
        return all((int(k) & m) == (v & m)
                   for k, v, m in zip(key, self.values, self.masks))


def ternary_entries_for_tree(tree: FuzzyTree, key_bits: int = 8,
                             signed: bool = False) -> list[TernaryTableEntry]:
    """Expand every leaf box of a fuzzy tree into TCAM entries.

    Signed keys use excess-K encoding: the dataplane matches
    ``key + 2^(bits-1)`` so numeric order maps to unsigned order.
    """
    entries: list[TernaryTableEntry] = []
    for leaf, per_dim in enumerate(tree.leaf_prefix_covers(key_bits, signed)):
        if per_dim is None:
            continue
        for combo in product(*per_dim):
            entries.append(TernaryTableEntry(
                values=tuple(p.value for p in combo),
                masks=tuple(p.mask for p in combo),
                result=leaf))
    return entries


def encode_key(values, key_bits: int, signed: bool) -> tuple[int, ...]:
    """Excess-K encode a key vector for TCAM matching."""
    bias = (1 << (key_bits - 1)) if signed else 0
    return tuple(int(v) + bias for v in values)


def tcam_lookup(entries: list[TernaryTableEntry], key) -> int:
    """Reference TCAM lookup; leaf boxes are disjoint so any match wins."""
    for entry in entries:
        if entry.matches(key):
            return entry.result
    raise LookupError(f"no TCAM entry matches key {key}")
