"""Point-block incidence structures developed from difference families.

A difference family over a group G is developed by the left action: the block
set is { g*B : g in G, B a base block }, deduplicated.  In 1-rotational mode
(|G| = 125) the extra fixed point ∞ gets the last point index |G|; in
transitive mode (|G| = 126) the points are exactly the group elements.

A design's blocks are one sorted int array, ``Design.block_rows``, which every
pair index and block-image check reads; ``relabel`` conjugates the action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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
    """Developed design: sorted block array, pair->line index, developing action."""

    n_points: int
    #: (B, k) int64, one block per row: its points ascending, then -1 padding
    #: when the block is shorter than the longest; rows in lexicographic order
    block_rows: np.ndarray = field(repr=False)
    labels: tuple  # point index -> ElementLabel (∞ last in 1-rotational mode)
    #: (|G|, n) point permutations the blocks were developed by (row g: x -> g*x,
    #: ∞ fixed), so all of them are automorphisms; None when unknown
    action: np.ndarray | None = field(default=None, repr=False)
    line_of: np.ndarray = field(init=False, repr=False)  # (n, n) int32, -1 sentinel
    coverage: np.ndarray = field(init=False, repr=False)  # (n, n) int32, [p<q] count
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.line_of, self.coverage = _pair_pass(self.block_rows, self.n_points)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], n_points: int,
                    labels: Sequence[ElementLabel] | None = None) -> "Design":
        lengths = np.array([len(b) for b in blocks], dtype=np.int64)
        real = np.arange(lengths.max(initial=0)) < lengths[:, None]
        rows = np.full(real.shape, np.iinfo(np.int64).max)
        rows[real] = [int(p) for b in blocks for p in b]
        rows.sort(axis=1)  # a block's points fill its row's first lengths[i] places
        _check_points(rows, real, n_points)
        rows[~real] = -1
        labels = range(n_points) if labels is None else labels
        return cls(n_points, rows[np.lexsort(rows.T[::-1])], labels)

    @property
    def block_count(self) -> int:
        return len(self.block_rows)

    @cached_property
    def blocks(self) -> tuple:
        """The blocks as tuples of point indices, in block_rows order."""
        return tuple(tuple(p for p in row if p >= 0) for row in self.block_rows.tolist())

    @cached_property
    def point_lines(self) -> np.ndarray:
        """(n, r) int64: the ascending indices of the r blocks through each point."""
        rows = self.block_rows
        degrees = np.bincount(rows.ravel(), minlength=self.n_points)
        if degrees.min() != degrees.max():
            raise ValueError("points lie on differing numbers of lines")
        lines = np.argsort(rows.ravel(), kind="stable") // rows.shape[1]
        return lines.reshape(self.n_points, -1)

    def orbits(self) -> tuple:
        """(action or the trivial group, least point of each point's orbit)."""
        action = self.action
        if action is None:
            action = np.arange(self.n_points)[None]
        return action, action.min(axis=0)

    def format_block(self, index: int, compact: bool = True) -> str:
        return " ".join(
            format_element_label(self.labels[p], compact=compact)
            for p in self.blocks[index]
        )


def _check_points(rows: np.ndarray, real: np.ndarray, n_points: int) -> None:
    """SchemaError for the first block, in tuple order, with a repeated point or
    one outside 0..n_points-1 (a block: the real entries of a sorted row)."""
    outside = ((rows < 0) | (rows >= n_points)) & real
    bad = outside.any(axis=1) | ((rows[:, 1:] == rows[:, :-1]) & real[:, 1:]).any(axis=1)
    if not bad.any():
        return
    b = min(tuple(row[keep].tolist()) for row, keep in zip(rows[bad], real[bad]))
    if len(set(b)) != len(b):
        raise SchemaError(f"block {b} has repeated points")
    raise SchemaError(f"block {b} outside point range 0..{n_points - 1}")


def _pair_pass(rows: np.ndarray, n: int) -> tuple:
    """(line_of, coverage) over every point pair p < q of every block; the
    first block through a pair is its line when several cover it."""
    j, k = np.triu_indices(rows.shape[1], k=1)
    lows, highs = rows[:, j].ravel(), rows[:, k].ravel()
    real = np.flatnonzero(highs >= 0)  # padding sits right of a block's points
    pairs = lows[real] * n + highs[real]
    coverage = np.bincount(pairs, minlength=n * n).astype(np.int32).reshape(n, n)
    first = np.full((n, n), len(rows), dtype=np.int32)
    np.minimum.at(first.ravel(), pairs, (real // len(j)).astype(np.int32))
    line_of = np.minimum(first, first.T)
    line_of[line_of == len(rows)] = -1
    return line_of, coverage


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
    n = group.order  # also the index of ∞
    n_points = n + 1 if one_rotational else n
    fixed = np.full((n, n_points - n), n, dtype=group.table.dtype)
    action = np.hstack([group.table, fixed])  # ∞ is fixed by every translation
    width = max(map(len, base_blocks), default=0)
    rows = np.full((len(base_blocks), n, width), -1, dtype=np.int64)
    for translates, block in zip(rows, base_blocks):
        if any(not 0 <= p <= n for p in block):
            raise LabelNotInGroup(f"block {block} has out-of-range entries")
        if n in block and not one_rotational:
            raise LabelNotInGroup("∞ point requires 1-rotational mode")
        translates[:, :len(block)] = np.sort(action[:, block], axis=1)  # row g = g*B
    rows = rows.reshape(len(base_blocks) * n, width)
    rows = rows[first_rows(rows)]
    _check_points(rows, rows >= 0, n_points)
    labels = group.labels + ((INF,) if one_rotational else ())
    return Design(n_points, rows, labels, action)


def first_rows(rows: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row, the rows taken in
    lexicographic order: rows[first_rows(rows)] is np.unique(rows, axis=0)."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order[first]


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
    rows = design.block_rows
    duplicates = int((rows[1:] == rows[:-1]).all(axis=1).sum())  # equal rows are adjacent
    iu = np.triu_indices(n, k=1)
    counts = design.coverage[iu]
    bad = counts != 1
    defects = [((p, q), c) for p, q, c in zip(
        iu[0][bad].tolist(), iu[1][bad].tolist(), counts[bad].tolist())]
    is_steiner = (
        not defects
        and design.block_count == BLOCK_COUNT
        and design.n_points == N_POINTS
        and rows.shape[1] == BLOCK_SIZE
        and bool((rows >= 0).all())
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
    """Point x becomes perm[x] in the blocks and labels; an action row a
    becomes perm a perm^-1, so the copy keeps its automorphisms."""
    perm = np.asarray(permutation, dtype=np.int64)
    n = design.n_points
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise NotAPermutation(f"not a bijection on 0..{n - 1}")
    rows = np.sort(np.append(perm, n)[design.block_rows], axis=1)  # padding -> n, last
    rows[rows == n] = -1
    labels = (design.labels[p] for p in np.argsort(perm).tolist())
    action = design.action
    if action is not None:
        action = np.empty_like(action)
        action[:, perm] = perm[design.action]
    return Design(n, rows[np.lexsort(rows.T[::-1])], labels, action)


def translation_permutation(group: CayleyGroup, g: int, one_rotational: bool) -> np.ndarray:
    """Left translation by g as a permutation of design points (∞ fixed)."""
    perm = group.table[g].astype(np.int64)
    if one_rotational:
        perm = np.concatenate([perm, [group.order]])
    return perm


def block_image(design: Design, perm: Sequence[int]) -> tuple:
    """(image, keys): row i of image is block i mapped by perm, points
    ascending, padding last as n; keys[i] reads it as base-(n + 1) digits, so
    keys sort rows lexicographically and equal sorted keys mean equal blocks."""
    n = design.n_points
    image = np.sort(np.append(perm, n)[design.block_rows], axis=1)
    if (n + 1) ** image.shape[1] > np.iinfo(np.int64).max:
        raise ValueError(f"blocks of {image.shape[1]} points have no int64 key")
    weights = (n + 1) ** np.arange(image.shape[1] - 1, -1, -1, dtype=np.int64)
    return image, image @ weights


def maps_blocks(a: Design, b: Design, perm: Sequence[int]) -> bool:
    """Does the point map perm send the blocks of a onto those of b?"""
    own = b._cache.get("block_keys")
    if own is None:
        own = b._cache["block_keys"] = np.sort(block_image(b, np.arange(b.n_points))[1])
    return bool(np.array_equal(np.sort(block_image(a, perm)[1]), own))


def is_block_invariant(design: Design, perm: Sequence[int]) -> bool:
    """Does the permutation map the block set onto itself?"""
    return maps_blocks(design, design, perm)
