"""Bounded difference-family search and completion.

Depth-first search over candidate base blocks, driven by a difference-cover
bitset: each accepted block must cover the smallest currently uncovered
difference, which visits every family exactly once.  Candidate blocks contain
the identity (translation normalization), which may sit at any index of the
table.  Three candidate kinds:

  * full blocks with 30 pairwise-distinct differences (trivial stabilizer);
  * in 1-rotational mode, the ∞-block H ∪ {∞} for an order-5 subgroup H,
    chosen at the root (``_Searcher.run``) when no fixed block holds ∞;
  * subgroup-coset unions (stabilized blocks, orbit size |G|/|S|), which are
    the only way to cover involution differences in transitive mode.

Three tables are built once per group and kept in ``CayleyGroup._cache``:
the coset-union candidates indexed by the differences they cover
(``candidates_by_delta``), the n x n difference-pair masks
(``difference_pairs``) and, per least uncovered difference delta, the
first-level masks of the full-block scan (``root_masks``).

search_families canonicalizes by the canonical key alone: a family is dropped
when its developed design has the key of one emitted before.  This works over
every group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import isomorph
from .designs import BLOCK_SIZE, DifferenceFamily, Mode, develop, first_rows, resolve_family
from .difference import block_differences, check_difference_family, quotiented_coverage
from .errors import InconsistentPartial
from .groups import INF, CayleyGroup, subgroups_of_order

#: nodes between two reads of the clock for the time limit
CLOCK_STRIDE = 4096

#: another name for DifferenceFamily; ``perfbench/`` is its only user
PartialFamily = DifferenceFamily


@dataclass
class SearchBudget:
    max_nodes: int = 1_000_000
    max_solutions: int = 1_000_000
    time_limit_s: float = 3600.0

    def __post_init__(self):
        # written as "not above 0" so that NaN is refused too
        if not (self.max_nodes > 0 and self.max_solutions > 0 and self.time_limit_s > 0):
            raise ValueError("budget fields must be positive")


@dataclass
class SearchStats:
    nodes: int = 0
    solutions: int = 0
    budget_hit: bool = False


def _masks(flags: np.ndarray) -> list:
    """Python int bitmasks of the rows of a 2-D bool array: bit d of mask i is
    flags[i, d]."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]


def _coset_unions(group: CayleyGroup, s: int) -> np.ndarray:
    """[i, j]: the elements of the order-s subgroup S_i, ascending, then those
    of its j-th other right coset, ascending, the cosets taken in the order
    of their least elements; shape (subgroups, n/s - 1, 2s)."""
    subs = np.array([sorted(sub) for sub in subgroups_of_order(group, s)],
                    dtype=np.int64).reshape(-1, s)
    cosets = np.sort(group.table[subs].transpose(0, 2, 1), axis=2)  # [i, x] = S_i x
    first = (cosets[:, :, 0] == np.arange(group.order)) & (cosets != group.identity).all(axis=2)
    cosets = cosets[first].reshape(len(subs), group.order // s - 1, s)
    return np.concatenate([np.broadcast_to(subs[:, None], cosets.shape), cosets], axis=2)


def _stabilized_candidates(group: CayleyGroup) -> tuple:
    """(blocks, covered) of the coset-union blocks, one per left-stabilizer
    class and quotient-exact only: blocks[i] holds sorted element indices
    with the identity, in discovery order, and covered[i, d] says that block
    i covers difference d (once, after the quotient).

    The blocks are tried in this order: each order-6 subgroup; each order-3
    subgroup S joined to each other coset Sx; each order-2 subgroup S joined
    to each pair of other cosets Sx, Sy.  The stabilizer of S u Sx u Sy holds
    S and acts freely on the block, so it is S or has order 6, and then the
    block is an order-6 subgroup, listed earlier.  With stabilizer S it
    counts each difference 0 or 2 times.  Each part S u Sx counts each
    difference a multiple of 2 times, S being in its stabilizer too, and the
    block at least as often as S u Sx and S u Sy together, outside the
    involution of S.  So only the cosets for which S u Sx counts no
    difference more than twice are paired, and only when S u Sx and S u Sy
    share no difference but that involution; the blocks kept, their order
    and their masks stay those of every pair."""
    sixes = np.array([sorted(sub) for sub in subgroups_of_order(group, 6)],
                     dtype=np.int64).reshape(-1, 6)
    twos = _coset_unions(group, 2)
    counts = block_differences(group, twos.reshape(-1, 4))[0].reshape(*twos.shape[:2], -1)
    held = (counts > 0).astype(np.float32)
    fits = counts.max(axis=2) <= 2
    pairs = fits[:, :, None] & fits[:, None, :] & (held @ held.transpose(0, 2, 1) == 1)
    i, a, b = np.nonzero(np.triu(pairs, 1))
    rows = np.concatenate([sixes, _coset_unions(group, 3).reshape(-1, 6),
                           np.hstack([twos[i, a], twos[i, b, 2:]])])
    rows = np.sort(rows, axis=1)
    rows = rows[np.sort(first_rows(rows))]  # each block once, in discovery order
    counts, stabs = block_differences(group, rows)
    # each difference covered once after the quotient, or not at all; the
    # stabilizer order divides every count (see quotiented_coverage)
    keep = counts.max(axis=1) <= stabs
    return rows[keep], counts[keep] != 0


def _candidates_by_delta(group: CayleyGroup) -> list:
    """by_delta[d]: (covered mask, block) of the stabilized candidates that
    cover d, in candidate order; built once per group."""
    cached = group._cache.get("candidates_by_delta")
    if cached is not None:
        return cached
    blocks, covered = _stabilized_candidates(group)
    entries = list(zip(_masks(covered), map(tuple, blocks.tolist())))
    by_delta = [[entries[i] for i in np.flatnonzero(col).tolist()] for col in covered.T]
    group._cache["candidates_by_delta"] = by_delta
    return by_delta


def _difference_pairs(group: CayleyGroup) -> list:
    """pairs[a][x] = (1 << a^-1 x) | (1 << x^-1 a), or 0 when the two are
    equal, as an n x n list of lists built once per group.  x^-1 a is the
    inverse of d = a^-1 x, so every row gathers from the same n masks of the
    pairs {d, d^-1}."""
    cached = group._cache.get("difference_pairs")
    if cached is None:
        masks = [(1 << d) | (1 << i) if d != i else 0
                 for d, i in enumerate(group.inverses.tolist())]
        cached = group._cache["difference_pairs"] = [
            list(map(masks.__getitem__, row)) for row in group.table[group.inverses].tolist()]
    return cached


def _root_masks(group: CayleyGroup, delta: int) -> list:
    """root[x] = pairs[e][x] | pairs[delta][x], the differences of x with e
    and delta, when these four are pairwise distinct, else 0; built once per
    group and delta."""
    roots = group._cache.setdefault("root_masks", {})
    cached = roots.get(delta)
    if cached is None:
        pairs = _difference_pairs(group)
        cached = roots[delta] = [pe | pd if pe and pd and not pe & pd else 0
                                 for pe, pd in zip(pairs[group.identity], pairs[delta])]
    return cached


class _Searcher:
    """The completions of one partial family within one budget.  The DFS holds
    every set of differences as a Python int bitmask (bit d: difference d),
    from the uncovered set down to a block's own differences."""

    def __init__(self, group: CayleyGroup, partial: DifferenceFamily,
                 budget: SearchBudget | None = None, stats: SearchStats | None = None):
        # quotiented_coverage also checks the mode against the group order
        per_block, quotiented = quotiented_coverage(group, partial)
        if quotiented.max() > 1:
            over = int(np.nonzero(quotiented > 1)[0][0])
            raise InconsistentPartial(
                f"difference {group.labels[over]!r} covered {int(quotiented[over])} times")
        uncovered = quotiented == 0
        uncovered[group.identity] = False
        self.uncovered = _masks(uncovered[None])[0]
        self.fixed = resolve_family(group, partial)
        self.need_inf = (partial.mode is Mode.ONE_ROTATIONAL
                         and all(len(finite) == BLOCK_SIZE for finite, _, _ in per_block))
        self.group = group
        self.mode = partial.mode
        self.budget = budget or SearchBudget()
        self.stats = stats if stats is not None else SearchStats()
        self.deadline = time.monotonic() + self.budget.time_limit_s
        self.next_clock = self.stats.nodes
        x = np.arange(group.order)
        self.is_involution = ((group.inverses == x) & (x != group.identity)).tolist()
        self.pairs = _difference_pairs(group)
        self.by_delta = (_candidates_by_delta(group) if self.mode is Mode.TRANSITIVE
                         else [()] * group.order)

    def tick(self, count: int = 1) -> bool:
        """Count nodes; True while the search may continue.  A run of count
        nodes is cut at the one that uses up the node budget.  The clock is
        read on the first call and then on the first call that ends at least
        CLOCK_STRIDE nodes after the last read."""
        stats = self.stats
        first = stats.nodes + 1
        stats.nodes += count
        late = False
        if stats.nodes >= self.next_clock:
            self.next_clock = stats.nodes + CLOCK_STRIDE
            late = time.monotonic() > self.deadline
        if stats.nodes >= self.budget.max_nodes or late:
            stats.nodes = max(first, min(stats.nodes, self.budget.max_nodes))
            stats.budget_hit = True
            return False
        return True

    def stopped(self) -> bool:
        """True once the budget is used up or max_solutions families are found."""
        return self.stats.budget_hit or self.stats.solutions >= self.budget.max_solutions

    # ------------------------------------------------------------------
    def run(self):
        """Yield completed families (index blocks, the fixed ones first);
        generator-based DFS.  Without a fixed ∞-block, 1-rotational mode
        chooses H ∪ {∞} here at the root, one node per order-5 subgroup H."""
        if not self.need_inf:
            yield from self._extend(list(self.fixed), self.uncovered)
        elif not self.stopped():
            e = self.group.identity
            for h in subgroups_of_order(self.group, 5):
                if self.stats.budget_hit or not self.tick():
                    return
                h = tuple(sorted(h))
                covered = sum(1 << x for x in h if x != e)
                if not covered & ~self.uncovered:
                    inf_block = h + (self.group.order,)  # ∞'s index, as in designs
                    yield from self._extend([*self.fixed, inf_block], self.uncovered & ~covered)

    def families(self):
        """Yield the completed families, each one checked by
        check_difference_family."""
        n, labels = self.group.order, self.group.labels
        for idx_blocks in self.run():
            fam = DifferenceFamily(self.mode, [[INF if p == n else labels[p] for p in block]
                                               for block in idx_blocks])
            if not check_difference_family(self.group, fam):
                raise AssertionError("search emitted a family failing the algebraic check")
            yield fam

    def _extend(self, chosen, uncovered):
        if self.stopped():
            return
        if not uncovered:
            self.stats.solutions += 1
            yield [list(b) for b in chosen]
            return
        delta = (uncovered & -uncovered).bit_length() - 1  # the least uncovered
        busy = ~uncovered
        # stabilized candidates (transitive mode): precomputed coset unions
        for covered, block in self.by_delta[delta]:
            if covered & busy:
                continue
            if not self.tick():
                return
            chosen.append(block)
            yield from self._extend(chosen, uncovered & ~covered)
            chosen.pop()
            if self.stats.budget_hit:
                return
        if self.is_involution[delta]:
            return  # a full block covers d and d^-1 separately; impossible here
        yield from self._full_blocks(chosen, uncovered, delta)

    def _full_blocks(self, chosen, uncovered, delta):
        """Extend chosen by each full block that _fitting_blocks finds.

        The scan's nodes are ticked in batches: once per block, for the nodes
        since the previous tick, and once per bare gap when no block comes.
        No batch holds CLOCK_STRIDE + n nodes, so the clock and max_nodes are
        still read every few thousand nodes, and a budget ends the search at
        the same node count as a tick per element, before any block past it
        is extended.
        """
        for gap, block, covered in self._fitting_blocks(uncovered, delta):
            if not self.tick(gap):
                return
            if block:
                chosen.append(block)
                yield from self._extend(chosen, uncovered & ~covered)
                chosen.pop()
                if self.stats.budget_hit:
                    return

    def _fitting_blocks(self, uncovered, delta):
        """Yield (gap, block, covered) for each block {e, delta, x3 < x4 < x5
        < x6} with 30 distinct uncovered differences: block sorted, covered
        the mask of its differences, gap the scan nodes since the previous
        yield.

        The scan is one loop nest, a level per free place.  x fits the
        members when its differences s^-1 x and x^-1 s with each member s are
        free (uncovered, and not covered by the members) and pairwise
        distinct; s^-1 x = x^-1 s is an involution difference, which needs a
        stabilized block, and its pair mask is 0.  The first level walks the
        free differences alone, ascending, since e^-1 x = x must be free, and
        reads the differences with e and delta from _root_masks.  An element
        that fits a level fitted the level above, so each later level filters
        the later entries of the list above, against the member added last
        only: ds, the differences of x with the earlier members, lies in the
        free set above, so (pq | ds) & busy tests both pq and ds against this
        level's.

        Nodes count as in an element-by-element scan: one per non-member
        element tried after the last member (only e and delta can come
        later).  With r(p) = p - [e < p] - [delta < p] the non-members below
        p, a level that starts at p counts r(x + 1) - r(p) = x + 1 - p -
        [p <= e < x] - [p <= delta < x] nodes when it takes x, and r(n) - r(p)
        when it ends; m3..m6 hold r(p) of the open levels.  A scan that finds
        no block yields a bare gap (block None) once gap reaches
        CLOCK_STRIDE at a level's end.  Between two level ends the open
        levels scan disjoint runs of elements, so no gap reaches
        CLOCK_STRIDE + n.  stopped() is read at entry and after each block;
        once it holds, the open levels count their rest and descend no
        further, as the element-by-element scan does once max_solutions
        families are found.
        """
        if self.stopped():
            return
        n, e = self.group.order, self.group.identity
        pairs, stopped = self.pairs, self.stopped
        top = n - 2  # r(n)
        seed = pairs[e][delta]  # delta fits: uncovered differences pair with inverses
        f2 = uncovered & ~seed
        busy = ~f2
        root, c3, rest = _root_masks(self.group, delta), [], f2
        while rest:  # the free differences x, ascending: only they can fit
            low = rest & -rest
            x = low.bit_length() - 1
            rest ^= low
            if (ds := root[x]) and not ds & busy:
                c3.append((x, ds))
        gap = m3 = 0
        for i3, (x3, d3) in enumerate(c3):
            m4 = x3 + 1 - (e < x3) - (delta < x3)
            gap += m4 - m3
            m3 = m4
            f3 = f2 & ~d3
            busy, row = ~f3, pairs[x3]
            c4 = []
            for x, dx in islice(c3, i3 + 1, None):
                pq = row[x]
                if pq and not ((ds := pq | dx) & busy or pq & dx):
                    c4.append((x, ds))
            for i4, (x4, d4) in enumerate(c4):
                m5 = x4 + 1 - (e < x4) - (delta < x4)
                gap += m5 - m4
                m4 = m5
                f4 = f3 & ~d4
                busy, row = ~f4, pairs[x4]
                c5 = []
                for x, dx in islice(c4, i4 + 1, None):
                    pq = row[x]
                    if pq and not ((ds := pq | dx) & busy or pq & dx):
                        c5.append((x, ds))
                for i5, (x5, d5) in enumerate(c5):
                    m6 = x5 + 1 - (e < x5) - (delta < x5)
                    gap += m6 - m5
                    m5 = m6
                    busy, row = ~(f4 & ~d5), pairs[x5]
                    for x6, dx in islice(c5, i5 + 1, None):
                        pq = row[x6]
                        if pq and not ((d6 := pq | dx) & busy or pq & dx):
                            r = x6 + 1 - (e < x6) - (delta < x6)
                            gap += r - m6
                            m6 = r
                            yield (gap, tuple(sorted((e, delta, x3, x4, x5, x6))),
                                   seed | d3 | d4 | d5 | d6)
                            gap = 0
                            if stopped():
                                yield 4 * top - m3 - m4 - m5 - m6, None, 0
                                return
                    gap += top - m6
                    if gap >= CLOCK_STRIDE:
                        yield gap, None, 0
                        gap = 0
                gap += top - m5
                if gap >= CLOCK_STRIDE:
                    yield gap, None, 0
                    gap = 0
            gap += top - m4
            if gap >= CLOCK_STRIDE:
                yield gap, None, 0
                gap = 0
        gap += top - m3
        if gap:
            yield gap, None, 0


def complete_family(group: CayleyGroup, partial: DifferenceFamily,
                    budget: SearchBudget | None = None,
                    stats: SearchStats | None = None) -> list:
    """All completions of the partial family within budget.

    Every returned family passes check_difference_family.  Inspect the stats
    object (budget_hit) to learn whether the search was exhaustive.
    """
    return list(_Searcher(group, partial, budget, stats).families())


def search_families(group: CayleyGroup, mode: Mode | str,
                    budget: SearchBudget | None = None,
                    canonicalize: bool = True,
                    stats: SearchStats | None = None):
    """Yield difference families over the group; exhaustive within budget.

    With canonicalize, a family is dropped when its developed design has the
    canonical key of a family yielded before; this works over every group.
    Canonical keys count against time_limit_s: when it runs out during one,
    the search stops with budget_hit set.
    """
    searcher = _Searcher(group, DifferenceFamily(mode, []), budget, stats)
    seen_keys = set()
    for fam in searcher.families():
        if canonicalize:
            try:
                key = isomorph.canonical_key(develop(group, fam),
                                             searcher.deadline - time.monotonic())
            except TimeoutError:
                searcher.stats.budget_hit = True
                return
            if key in seen_keys:
                continue
            seen_keys.add(key)
        yield fam
