"""Algebraic validation of difference families, without developing them.

A pair {p, q} lies in the left translate g*B iff g = p*a^-1 = q*b^-1 for some
a, b in B, i.e. q^-1 p = b^-1 a.  So the number of distinct translates of B
covering {p, q} equals the number of ordered pairs (a, b) in B with
b^-1 a = q^-1 p, divided by the order of B's left stabilizer.  This module
checks exact coverage directly from those counts; it is the independent
counterpart to develop + verify_steiner.  :func:`block_differences` is the one
place that counts differences; the search reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import BLOCK_SIZE, DifferenceFamily, Mode, first_rows, resolve_family
from .errors import IndexOutOfRange
from .groups import CayleyGroup


def block_differences(group: CayleyGroup, blocks) -> tuple:
    """(counts, stabs) for a (C, k) array of distinct element indices, one
    block per row.

    counts[c, d] is the number of ordered pairs (a, b), a != b, of block c with
    b^-1 a = d; stabs[c] is the order of {h : h*B = B}.  h*B = B exactly when
    h*b lies in B for all k members b, that is when k pairs (a, b) of B have
    a*b^-1 = h, so stabs[c] counts the h with k such pairs.
    """
    n = group.order
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.size and not (0 <= blocks.min() and blocks.max() < n):
        raise IndexOutOfRange(f"block entries outside 0..{n - 1}")
    n_blocks, k = blocks.shape
    table, inverses = group.table, group.inverses
    offsets = np.arange(n_blocks)[:, None, None] * n

    def per_block(diffs):  # [c, x]: how many entries of diffs[c] equal x
        counts = np.bincount((diffs + offsets).ravel(), minlength=n_blocks * n)
        return counts.reshape(n_blocks, n)

    counts = per_block(table[inverses[blocks][:, :, None], blocks[:, None, :]])  # b_i^-1 b_j
    counts[:, group.identity] = 0  # b^-1 a = e iff a = b
    stabs = (per_block(table[blocks[:, :, None], inverses[blocks][:, None, :]]) == k).sum(axis=1)
    return counts, stabs


def quotiented_coverage(group: CayleyGroup, family: DifferenceFamily) -> tuple:
    """(per_block, quotiented).  per_block holds, for each base block,
    (finite part, stabilizer order, counts) with counts as in
    :func:`block_differences`; quotiented[d] is the number of distinct
    translates covering difference d.

    The stabilizer order |S| of a block B divides each of its counts: h in S
    sends a pair (a, b) of B to the pair (ha, hb) of B, which has the same
    difference (hb)^-1 ha = b^-1 a, and only the identity fixes a pair, so S
    splits the pairs with a given difference into orbits of size |S|.

    The blocks of each size (6 points, 5 for an ∞-block) are counted in one
    call of block_differences."""
    finites = [[p for p in block if p != group.order] for block in resolve_family(group, family)]
    per_block = [None] * len(finites)
    quotiented = np.zeros(group.order, dtype=np.int64)
    for size in {len(finite) for finite in finites}:
        at = [i for i, finite in enumerate(finites) if len(finite) == size]
        counts, stabs = block_differences(group, [finites[i] for i in at])
        quotiented += (counts // stabs[:, None]).sum(axis=0)
        for i, block_counts, stab in zip(at, counts, stabs.tolist()):
            per_block[i] = (finites[i], stab, block_counts)
    return per_block, quotiented


@dataclass
class DifferenceCheck:
    ok: bool
    defects: list  # human-readable defect strings

    def __bool__(self):
        return self.ok


def check_difference_family(group: CayleyGroup, family: DifferenceFamily) -> DifferenceCheck:
    """True iff the family develops into an S(2,6,126), decided algebraically.

    Each base block's difference counts are quotiented by its left-stabilizer
    order; every non-identity element must be covered exactly once.  In
    1-rotational mode the distinct translates of the ∞-blocks' finite parts
    must additionally partition the group (pairs {x, ∞}).
    """
    per_block, quotiented = quotiented_coverage(group, family)
    if not per_block:
        return DifferenceCheck(False, ["empty family covers nothing"])

    n = group.order
    defects = []
    expected = np.ones(n, dtype=np.int64)
    expected[group.identity] = 0
    for d in np.nonzero(quotiented != expected)[0]:  # never e: its counts are 0
        word = "over" if quotiented[d] > 1 else "under"
        defects.append(
            f"difference {group.labels[d]!r} {word}-covered ({quotiented[d]:g} times)")

    if family.mode is Mode.ONE_ROTATIONAL:
        inf_blocks = [f for f, _, _ in per_block if len(f) < BLOCK_SIZE]
        translates = group.table[:, np.asarray(inf_blocks, dtype=np.int64)]  # [g, i] = g*B_i
        translates = np.sort(translates.reshape(-1, BLOCK_SIZE - 1), axis=1)
        covered = np.bincount(translates[first_rows(translates)].ravel(), minlength=n)
        bad = np.nonzero(covered != 1)[0]
        for x in bad[:10]:
            defects.append(
                f"pair {{{group.labels[int(x)]!r}, ∞}} covered {int(covered[x])} times")
        if len(bad) > 10:
            defects.append(f"... {len(bad) - 10} more ∞-pair defects")
        if not inf_blocks:
            defects.append("no ∞-block: pairs {x, ∞} uncovered")

    return DifferenceCheck(not defects, defects)
