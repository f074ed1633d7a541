"""Point-block incidence structures developed from difference families.

A difference family over a group G is developed by the left action: the block
set is { g*B : g in G, B a base block }, deduplicated.  In 1-rotational mode
(|G| = 125) the extra fixed point ∞ gets the last point index |G|; in
transitive mode (|G| = 126) the points are exactly the group elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    LabelNotInGroup,
    ModeOrderMismatch,
    NotAPermutation,
    SamePoint,
    SchemaError,
)
from .groups import INF, CayleyGroup, ElementLabel, format_element_label

BLOCK_SIZE = 6
N_POINTS = 126
BLOCK_COUNT = 525  # 126*125 / (6*5)


class Mode(str, Enum):
    TRANSITIVE = "transitive"
    ONE_ROTATIONAL = "one-rotational"


@dataclass
class DifferenceFamily:
    """Base blocks over labeled group elements plus a development mode."""

    mode: Mode
    base_blocks: list  # list of blocks; each block is a list of ElementLabel

    def __post_init__(self):
        self.mode = Mode(self.mode)
        for i, block in enumerate(self.base_blocks):
            if len(block) != BLOCK_SIZE:
                raise SchemaError(f"block {i} has {len(block)} entries, expected 6")
            if len(set(map(_label_key, block))) != BLOCK_SIZE:
                raise SchemaError(f"block {i} has repeated entries")
            n_inf = sum(1 for lab in block if lab is INF)
            if n_inf and self.mode is not Mode.ONE_ROTATIONAL:
                raise SchemaError("∞ label only allowed in one-rotational mode")
            if n_inf > 1:
                raise SchemaError(f"block {i} contains ∞ more than once")


def _label_key(lab):
    return ("inf",) if lab is INF else (type(lab).__name__, lab)


@dataclass
class Design:
    """Developed design: sorted blocks, pair->line index, developing action."""

    n_points: int
    blocks: tuple  # tuple of sorted point-index tuples
    labels: tuple  # point index -> ElementLabel (∞ last in 1-rotational mode)
    line_of: np.ndarray = field(repr=False)  # (n, n) int32, -1 off-diagonal sentinel
    #: (|G|, n) point permutations the blocks were developed by (row g: x -> g*x,
    #: ∞ fixed), so all of them are automorphisms; None when unknown
    action: np.ndarray | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], n_points: int,
                    labels: Sequence[ElementLabel] | None = None) -> "Design":
        blk = tuple(sorted(tuple(sorted(map(int, b))) for b in blocks))
        for b in blk:
            if len(set(b)) != len(b):
                raise SchemaError(f"block {b} has repeated points")
            if b and (b[0] < 0 or b[-1] >= n_points):
                raise SchemaError(f"block {b} outside point range 0..{n_points - 1}")
        if labels is None:
            labels = tuple(range(n_points))
        pairs = _block_pairs(blk)
        block_ids, p, q = pairs
        # the first block through a pair wins when several cover it
        first = np.full((n_points, n_points), len(blk), dtype=np.int32)
        np.minimum.at(first, (p, q), block_ids)
        first = np.minimum(first, first.T)
        line_of = np.where(first < len(blk), first, -1).astype(np.int32)
        return cls(n_points, blk, tuple(labels), line_of, _cache={"block_pairs": pairs})

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_array(self) -> np.ndarray:
        arr = self._cache.get("block_array")
        if arr is None:
            arr = np.asarray(self.blocks, dtype=np.int32)
            self._cache["block_array"] = arr
        return arr

    def point_lines(self) -> np.ndarray:
        """(n, r) int64: the ascending indices of the r blocks through each point."""
        lines = self._cache.get("point_lines")
        if lines is None:
            arr = self.block_array()
            degrees = np.bincount(arr.ravel(), minlength=self.n_points)
            if degrees.min() != degrees.max():
                raise ValueError("points lie on differing numbers of lines")
            lines = np.argsort(arr.ravel(), kind="stable") // arr.shape[1]
            lines = self._cache["point_lines"] = lines.reshape(self.n_points, -1)
        return lines

    def block_pairs(self) -> tuple:
        """(block index, p, q) arrays over every point pair p < q of every block."""
        pairs = self._cache.get("block_pairs")
        if pairs is None:
            pairs = self._cache["block_pairs"] = _block_pairs(self.blocks)
        return pairs

    def format_block(self, index: int, compact: bool = True) -> str:
        return " ".join(
            format_element_label(self.labels[p], compact=compact)
            for p in self.blocks[index]
        )


def _block_pairs(blocks: tuple) -> tuple:
    """See Design.block_pairs; blocks of one size are handled as one array."""
    by_size: dict = {}
    for i, b in enumerate(blocks):
        by_size.setdefault(len(b), []).append(i)
    parts = [(np.zeros(0, dtype=np.int32),) * 3]
    for size, members in by_size.items():
        arr = np.asarray([blocks[i] for i in members], dtype=np.int32)
        arr = arr.reshape(len(members), size)
        j, k = np.triu_indices(size, k=1)
        parts.append((np.repeat(np.asarray(members, dtype=np.int32), len(j)),
                      arr[:, j].ravel(), arr[:, k].ravel()))
    return tuple(np.concatenate(column) for column in zip(*parts))


def resolve_family(group: CayleyGroup, family: DifferenceFamily) -> list:
    """Base blocks as point-index lists (∞ -> |G|), checking mode/order."""
    if family.mode is Mode.TRANSITIVE and group.order != N_POINTS:
        raise ModeOrderMismatch(
            f"transitive development needs group order 126, got {group.order}")
    if family.mode is Mode.ONE_ROTATIONAL and group.order != N_POINTS - 1:
        raise ModeOrderMismatch(
            f"1-rotational development needs group order 125, got {group.order}")
    inf_index = group.order
    resolved = []
    for block in family.base_blocks:
        resolved.append([
            inf_index if lab is INF else group.resolve(lab) for lab in block
        ])
    return resolved


def develop(group: CayleyGroup, family: DifferenceFamily) -> Design:
    """Left development of the base blocks; deduplicates, does not verify."""
    base = resolve_family(group, family)
    return develop_blocks(group, base, one_rotational=family.mode is Mode.ONE_ROTATIONAL)


def develop_blocks(group: CayleyGroup, base_blocks: Sequence[Sequence[int]],
                   one_rotational: bool = False) -> Design:
    """Development of raw index blocks (any block size; used by search too)."""
    n = group.order
    inf_index = n
    n_points = n + 1 if one_rotational else n
    blocks = set()
    table = group.table
    for block in base_blocks:
        finite = [p for p in block if p != inf_index]
        if any(not 0 <= p < n for p in finite):
            raise LabelNotInGroup(f"block {block} has out-of-range entries")
        has_inf = len(finite) < len(block)
        if has_inf and not one_rotational:
            raise LabelNotInGroup("∞ point requires 1-rotational mode")
        translates = np.sort(table[:, finite], axis=1)  # row g = g*B
        if has_inf:
            translates = np.hstack([translates, np.full((n, 1), inf_index)])
        blocks.update(map(tuple, translates.tolist()))
    labels = group.labels + ((INF,) if one_rotational else ())
    design = Design.from_blocks(blocks, n_points, labels)
    fixed = np.full((n, n_points - n), inf_index, dtype=table.dtype)
    design.action = np.hstack([table, fixed])  # ∞ is fixed by every translation
    return design


@dataclass
class VerificationReport:
    is_steiner: bool
    block_count: int
    pair_coverage_defects: list  # ((p, q), count) with count != 1
    duplicate_blocks: int

    def __str__(self):
        if self.is_steiner:
            return f"valid S(2,6,126): {self.block_count} blocks, all pairs covered once"
        head = (f"not a Steiner system: {self.block_count} blocks, "
                f"{len(self.pair_coverage_defects)} defective pairs, "
                f"{self.duplicate_blocks} duplicate blocks")
        lines = [head]
        for (p, q), c in self.pair_coverage_defects[:20]:
            lines.append(f"  pair ({p}, {q}) covered {c} times")
        if len(self.pair_coverage_defects) > 20:
            lines.append(f"  ... {len(self.pair_coverage_defects) - 20} more")
        return "\n".join(lines)


def verify_steiner(design: Design) -> VerificationReport:
    """Exact pair-coverage count over all unordered point pairs.

    The verdict is kept in ``design._cache["steiner_ok"]``, where the
    fingerprint's precondition reads it instead of counting again.
    """
    n = design.n_points
    _, lows, highs = design.block_pairs()
    cov = np.bincount(lows.astype(np.int64) * n + highs, minlength=n * n).reshape(n, n)
    duplicates = len(design.blocks) - len(set(design.blocks))
    iu = np.triu_indices(n, k=1)
    counts = cov[iu]
    bad = counts != 1
    defects = [((p, q), c) for p, q, c in zip(
        iu[0][bad].tolist(), iu[1][bad].tolist(), counts[bad].tolist())]
    block_sizes_ok = all(len(b) == BLOCK_SIZE for b in design.blocks)
    is_steiner = (
        not defects
        and design.block_count == BLOCK_COUNT
        and design.n_points == N_POINTS
        and block_sizes_ok
        and duplicates == 0
    )
    design._cache["steiner_ok"] = is_steiner
    return VerificationReport(is_steiner, design.block_count, defects, duplicates)


def line_through(design: Design, p: int, q: int) -> int:
    """Index of the unique block containing both points (O(1) lookup)."""
    if p == q:
        raise SamePoint(f"line_through needs two distinct points, got {p} twice")
    n = design.n_points
    if not (0 <= p < n and 0 <= q < n):
        raise SamePoint(f"points ({p}, {q}) out of range")
    return int(design.line_of[p, q])


def relabel(design: Design, permutation: Sequence[int]) -> Design:
    """Apply a point bijection; blocks are re-sorted and indices rebuilt."""
    perm = np.asarray(permutation, dtype=np.int64)
    n = design.n_points
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise NotAPermutation(f"not a bijection on 0..{n - 1}")
    new_labels = [None] * n
    for p in range(n):
        new_labels[int(perm[p])] = design.labels[p]
    blocks = [[int(perm[p]) for p in b] for b in design.blocks]
    return Design.from_blocks(blocks, n, tuple(new_labels))


def translation_permutation(group: CayleyGroup, g: int, one_rotational: bool) -> np.ndarray:
    """Left translation by g as a permutation of design points (∞ fixed)."""
    perm = group.table[g].astype(np.int64)
    if one_rotational:
        perm = np.concatenate([perm, [group.order]])
    return perm


def is_block_invariant(design: Design, perm: Sequence[int]) -> bool:
    """Does the permutation map the block set onto itself?"""
    perm = np.asarray(perm, dtype=np.int64)
    arr = design.block_array()
    mapped = np.sort(perm[arr], axis=1)
    order = np.lexsort(mapped.T[::-1])
    return bool(np.array_equal(mapped[order], arr))
