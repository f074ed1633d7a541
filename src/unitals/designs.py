"""Point-block incidence structures developed from difference families.

A difference family over a group G is developed by the left action: the block
set is { g*B : g in G, B a base block }, deduplicated.  In 1-rotational mode
(|G| = 125) the extra fixed point ∞ gets the last point index |G|; in
transitive mode (|G| = 126) the points are exactly the group elements.

A design's blocks are one (B, k) int array, ``Design.block_rows``: every block
has k points, and every entry is a point.  Every pair index and block-image
check reads it.  A design always carries the group of point permutations it
was developed by, ``Design.action``; one built from bare blocks carries the
identity alone, and ``relabel`` conjugates the action.
Every lexicographic order of rows, here and in the modules that import this
one, is taken through ``row_keys``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    LabelNotInGroup,
    ModeOrderMismatch,
    NotAPermutation,
    SchemaError,
)
from .groups import INF, CayleyGroup

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
            if any(lab is INF for lab in block) and self.mode is not Mode.ONE_ROTATIONAL:
                raise SchemaError("∞ label only allowed in one-rotational mode")


def _label_key(lab):
    return ("inf",) if lab is INF else (type(lab).__name__, lab)


@dataclass
class Design:
    """Developed design: sorted block array, pair->line index, developing action."""

    n_points: int
    #: (B, k) int64, one block per row, its points ascending; rows in
    #: lexicographic order
    block_rows: np.ndarray = field(repr=False)
    #: (|G|, n) point permutations the blocks were developed by (row g: x -> g*x,
    #: ∞ fixed), so all of them are automorphisms; the identity, (1, n), when
    #: the design was built from bare blocks
    action: np.ndarray = field(repr=False)
    line_of: np.ndarray = field(init=False, repr=False)  # (n, n) int32, -1 sentinel
    coverage: np.ndarray = field(init=False, repr=False)  # (n, n) int32, [p<q] count
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.line_of, self.coverage = _pair_pass(self.block_rows, self.n_points)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], n_points: int) -> "Design":
        """The design of the given blocks, with the identity as its action."""
        width = _width(blocks)
        rows = np.array(blocks, dtype=np.int64).reshape(len(blocks), width)
        rows.sort(axis=1)
        _check_points(rows, n_points)
        return cls(n_points, rows[np.argsort(row_keys(rows), kind="stable")],
                   np.arange(n_points)[None])

    @property
    def block_count(self) -> int:
        return len(self.block_rows)

    @cached_property
    def blocks(self) -> tuple:
        """The blocks as tuples of point indices, in block_rows order."""
        return tuple(map(tuple, self.block_rows.tolist()))

    @cached_property
    def point_lines(self) -> np.ndarray:
        """(n, r) int64: the ascending indices of the r blocks through each point."""
        rows = self.block_rows
        degrees = np.bincount(rows.ravel(), minlength=self.n_points)
        if degrees.min() != degrees.max():
            raise ValueError("points lie on differing numbers of lines")
        # keys in the narrowest dtype that holds every point: a stable sort of
        # 8- or 16-bit integers is a radix sort
        keys = rows.ravel().astype(np.min_scalar_type(self.n_points - 1))
        lines = np.argsort(keys, kind="stable") // rows.shape[1]
        return lines.reshape(self.n_points, -1)


def _width(blocks: Sequence[Sequence[int]]) -> int:
    """The number of points of every block (0 when there are none), or
    SchemaError when the blocks differ in size."""
    widths = sorted({len(b) for b in blocks})
    if len(widths) > 1:
        raise SchemaError(f"blocks of differing sizes {widths}")
    return widths[0] if widths else 0


def _check_points(rows: np.ndarray, n_points: int) -> None:
    """SchemaError for the first block, in tuple order, of the sorted rows that
    repeats a point or has one outside 0..n_points-1."""
    outside = (rows < 0) | (rows >= n_points)
    bad = outside.any(axis=1) | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    if not bad.any():
        return
    b = min(map(tuple, rows[bad].tolist()))
    if len(set(b)) != len(b):
        raise SchemaError(f"block {b} has repeated points")
    raise SchemaError(f"block {b} outside point range 0..{n_points - 1}")


def _pair_pass(rows: np.ndarray, n: int) -> tuple:
    """(line_of, coverage) over every point pair p < q of every block; the
    first block through a pair is its line when several cover it."""
    j, k = np.divmod(_upper_pairs(rows.shape[1]), rows.shape[1])
    pairs = (rows[:, j] * n + rows[:, k]).ravel()
    coverage = np.bincount(pairs, minlength=n * n).astype(np.int32).reshape(n, n)
    first = np.full((n, n), len(rows), dtype=np.int32)
    np.minimum.at(first.ravel(), pairs, np.arange(len(rows), dtype=np.int32).repeat(len(j)))
    line_of = np.minimum(first, first.T)
    line_of[line_of == len(rows)] = -1
    return line_of, coverage


@lru_cache(maxsize=8)
def _upper_pairs(n: int) -> np.ndarray:
    """Read-only flat indices p * n + q of the pairs p < q of 0..n-1, in
    ``np.triu_indices`` order; kept for the last 8 sizes asked."""
    p, q = np.triu_indices(n, k=1)
    flat = p * n + q
    flat.flags.writeable = False
    return flat


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
    """Development of raw index blocks (any one block size; used by search too)."""
    n = group.order  # also the index of ∞
    n_points = n + 1 if one_rotational else n
    fixed = np.full((n, n_points - n), n, dtype=group.table.dtype)
    action = np.hstack([group.table, fixed])  # ∞ is fixed by every translation
    width = _width(base_blocks)
    for block in base_blocks:
        if any(not 0 <= p <= n for p in block):
            raise LabelNotInGroup(f"block {block} has out-of-range entries")
        if len(set(block)) != len(block):  # action rows permute: translates need no check
            raise SchemaError(f"block {block} has repeated points")
        if n in block and not one_rotational:
            raise LabelNotInGroup("∞ point requires 1-rotational mode")
    base = np.array(base_blocks, dtype=np.int64).reshape(len(base_blocks), width)
    rows = np.sort(action[:, base], axis=2).astype(np.int64)  # [g, i] = g*B_i
    rows = rows.reshape(n * len(base_blocks), width)
    return Design(n_points, rows[first_rows(rows)], action)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a 2-D integer array, ordered as the rows are in
    lexicographic order; equal keys mean equal rows.

    The rows are shifted to be non-negative, and b is the bit length of the
    largest entry.  When b times the row width is at most 63, each row is
    packed big-endian into one int64: column j fills its own b-bit field, the
    first column the highest.  No entry reaches 2^b, so no field carries into
    the next; the highest field in which two keys differ is then the first
    column in which the rows differ, and it decides the integer comparison,
    so integer order is lexicographic row order.  Wider rows are stored
    big-endian in the smallest unsigned dtype that holds their entries and
    compared as one void per row, whose bytes compare the same way.  An empty
    array gives zeros: rows of width 0 are all equal.
    """
    if rows.size == 0:
        return np.zeros(len(rows), dtype=np.int64)
    shifted = np.subtract(rows, rows.min(), dtype=np.int64)
    top = int(shifted.max())
    b = top.bit_length()
    if b * shifted.shape[1] <= 63:
        keys = shifted[:, 0].copy()
        for column in shifted.T[1:]:
            keys <<= b
            keys |= column
        return keys
    dtype = np.min_scalar_type(top).newbyteorder(">")
    packed = np.ascontiguousarray(shifted.astype(dtype))
    return packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).ravel()


def first_rows(rows: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row, the rows taken in
    lexicographic order: rows[first_rows(rows)] is np.unique(rows, axis=0)."""
    return np.unique(row_keys(rows), return_index=True)[1]


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
    pairs = _upper_pairs(n)
    counts = np.take(design.coverage, pairs)
    bad = counts != 1
    p, q = np.divmod(pairs[bad], n)
    defects = list(zip(zip(p.tolist(), q.tolist()), counts[bad].tolist()))
    is_steiner = (
        not defects
        and design.block_count == BLOCK_COUNT
        and design.n_points == N_POINTS
        and rows.shape[1] == BLOCK_SIZE
        and duplicates == 0
    )
    design._cache["steiner_ok"] = is_steiner
    return VerificationReport(is_steiner, design.block_count, defects, duplicates)


def relabel(design: Design, permutation: Sequence[int]) -> Design:
    """Point x becomes perm[x] in the blocks; an action row a becomes
    perm a perm^-1, so the copy keeps its automorphisms."""
    perm = np.asarray(permutation, dtype=np.int64)
    n = design.n_points
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise NotAPermutation(f"not a bijection on 0..{n - 1}")
    action = np.empty_like(design.action)
    action[:, perm] = perm[design.action]
    return Design(n, block_image(design, perm), action)


def block_image(design: Design, perm: Sequence[int]) -> np.ndarray:
    """The blocks mapped by perm, in ``Design.block_rows`` form: each row's
    points ascending, rows in lexicographic order."""
    image = np.sort(np.asarray(perm)[design.block_rows], axis=1)
    return image[np.argsort(row_keys(image), kind="stable")]


def maps_blocks(a: Design, b: Design, perm: Sequence[int]) -> bool:
    """Does the point map perm send the blocks of a onto those of b?"""
    return np.array_equal(block_image(a, perm), b.block_rows)


def is_block_invariant(design: Design, perm: Sequence[int]) -> bool:
    """Does the permutation map the block set onto itself?"""
    return maps_blocks(design, design, perm)
