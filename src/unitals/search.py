"""Bounded difference-family search and completion.

Depth-first search over candidate base blocks, driven by a difference-cover
bitset: each accepted block must cover the smallest currently uncovered
difference, which visits every family exactly once.  Candidate blocks contain
the identity (translation normalization).  Three candidate kinds:

  * full blocks with 30 pairwise-distinct differences (trivial stabilizer);
  * in 1-rotational mode, the ∞-block H ∪ {∞} for an order-5 subgroup H;
  * subgroup-coset unions (stabilized blocks, orbit size |G|/|S|), which are
    the only way to cover involution differences in transitive mode.

The coset unions, indexed by the differences they cover, and the masks of the
difference pairs are built once per group and kept in ``CayleyGroup._cache``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .designs import BLOCK_SIZE, DifferenceFamily, Mode, first_rows, resolve_family
from .difference import block_differences, check_difference_family, difference_coverage
from .errors import InconsistentPartial, UnsupportedCanonicalization
from .groups import INF, CayleyGroup, subgroups_of_order


@dataclass
class SearchBudget:
    max_nodes: int = 1_000_000
    max_solutions: int = 1_000_000
    time_limit_s: float = 3600.0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_solutions <= 0 or self.time_limit_s <= 0:
            raise ValueError("budget fields must be positive")


@dataclass
class SearchStats:
    nodes: int = 0
    solutions: int = 0
    budget_hit: bool = False

    @property
    def exhausted(self) -> bool:
        return not self.budget_hit


@dataclass
class PartialFamily:
    mode: Mode
    fixed_blocks: list  # label lists (6 labels each, possibly with ∞)

    def __post_init__(self):
        self.mode = Mode(self.mode)


class _Budget:
    #: nodes between two reads of the clock for the time limit
    CLOCK_STRIDE = 4096

    def __init__(self, budget: SearchBudget, stats: SearchStats):
        self.budget = budget
        self.stats = stats
        self.deadline = time.monotonic() + budget.time_limit_s
        self.next_clock = stats.nodes

    def tick(self, count: int = 1) -> bool:
        """Count nodes; True while the search may continue.  A run of count
        nodes is cut at the one that uses up the node budget.  The clock is
        read on the first call and then once per CLOCK_STRIDE nodes."""
        first = self.stats.nodes + 1
        self.stats.nodes += count
        late = False
        if self.stats.nodes >= self.next_clock:
            self.next_clock = self.stats.nodes + self.CLOCK_STRIDE
            late = time.monotonic() > self.deadline
        if self.stats.nodes >= self.budget.max_nodes or late:
            self.stats.nodes = max(first, min(self.stats.nodes, self.budget.max_nodes))
            self.stats.budget_hit = True
            return False
        return True

    def solutions_left(self) -> bool:
        return self.stats.solutions < self.budget.max_solutions


@dataclass
class _StabilizedCandidate:
    block: tuple  # sorted element indices, contains the identity
    covered: np.ndarray  # bool: differences covered exactly once after quotient


def _masks(flags: np.ndarray) -> list:
    """Python int bitmasks of the rows of a 2-D bool array: bit d of mask i is
    flags[i, d]."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]


def _stabilized_candidates(group: CayleyGroup) -> list:
    """Coset-union blocks (one per left-stabilizer class), quotient-exact only;
    built once per group."""
    cached = group._cache.get("stabilized_candidates")
    if cached is not None:
        return cached
    rows = []  # in discovery order: the DFS tries candidates in this order
    for s in (6, 3, 2):
        r = BLOCK_SIZE // s - 1  # cosets joined to the subgroup, out of n/s - 1
        combos = list(itertools.combinations(range(group.order // s - 1), r))
        combos = np.array(combos, dtype=np.int64).reshape(len(combos), r)
        for sub in subgroups_of_order(group, s):
            sub = np.array(sorted(sub))
            cosets = np.unique(np.sort(group.table[sub].T, axis=1), axis=0)  # rows S*x
            extra = cosets[(cosets != group.identity).all(axis=1)][combos]
            rows.append(np.hstack([np.broadcast_to(sub, (len(combos), s)),
                                   extra.reshape(len(combos), r * s)]))
    rows = np.sort(np.concatenate(rows), axis=1)
    rows = rows[np.sort(first_rows(rows))]  # each block once, in discovery order
    counts, stabs = block_differences(group, rows)
    # each difference covered once after the quotient, or not at all
    keep = ((counts == 0) | (counts == stabs[:, None])).all(axis=1)
    cands = [_StabilizedCandidate(b, c)
             for b, c in zip(map(tuple, rows[keep].tolist()), counts[keep] != 0)]
    group._cache["stabilized_candidates"] = cands
    return cands


def _candidates_by_delta(group: CayleyGroup) -> list:
    """by_delta[d]: (covered mask, block) of the stabilized candidates that
    cover d, in candidate order; built once per group."""
    cached = group._cache.get("candidates_by_delta")
    if cached is not None:
        return cached
    cands = _stabilized_candidates(group)
    covered = np.array([c.covered for c in cands], dtype=bool).reshape(len(cands), group.order)
    entries = list(zip(_masks(covered), (c.block for c in cands)))
    by_delta = [[entries[i] for i in np.flatnonzero(col).tolist()] for col in covered.T]
    group._cache["candidates_by_delta"] = by_delta
    return by_delta


class _PairMasks(dict):
    """pairs[a][x] = (1 << a^-1 x) | (1 << x^-1 a), or 0 when the two are
    equal; row a is built when first asked for.  x^-1 a is the inverse of
    d = a^-1 x, so every row gathers from the same n masks of the pairs
    {d, d^-1}."""

    def __init__(self, group: CayleyGroup):
        super().__init__()
        self.table, self.inverses = group.table, group.inverses
        self.masks = [(1 << d) | (1 << i) if d != i else 0
                      for d, i in enumerate(group.inverses.tolist())]

    def __missing__(self, a: int) -> list:
        masks = self.masks
        row = self[a] = [masks[d] for d in self.table[self.inverses[a]].tolist()]
        return row


def _difference_pairs(group: CayleyGroup) -> _PairMasks:
    """The group's pair masks, kept across searches."""
    cached = group._cache.get("difference_pairs")
    if cached is None:
        cached = group._cache["difference_pairs"] = _PairMasks(group)
    return cached


def _inf_block_candidates(group: CayleyGroup) -> list:
    """Order-5 subgroups H: the ∞-block must be H ∪ {∞} up to translation."""
    return [tuple(sorted(h)) for h in subgroups_of_order(group, 5)]


class _Searcher:
    """The DFS holds every set of differences as a Python int bitmask (bit d:
    difference d), from the uncovered set down to a block's own differences."""

    def __init__(self, group: CayleyGroup, mode: Mode, budget: SearchBudget,
                 stats: SearchStats, canonical_transforms=None):
        self.group = group
        self.mode = mode
        self.stats = stats
        self.budget = _Budget(budget, stats)
        self.canonical_transforms = canonical_transforms
        self.table = group.table
        x = np.arange(group.order)
        self.is_involution = ((group.inverses == x) & (x != group.identity)).tolist()
        self.pairs = _difference_pairs(group)
        self.by_delta = (_candidates_by_delta(group) if mode is Mode.TRANSITIVE
                         else [()] * group.order)

    # ------------------------------------------------------------------
    def run(self, fixed_blocks_idx: list, uncovered: np.ndarray, need_inf: bool):
        """Yield completed families (index blocks); generator-based DFS."""
        yield from self._extend(fixed_blocks_idx, [], _masks(uncovered[None])[0], need_inf)

    def _emit(self, fixed, chosen):
        return [list(b) for b in fixed] + [list(b) for b in chosen]

    def _extend(self, fixed, chosen, uncovered, need_inf):
        if self.stats.budget_hit or not self.budget.solutions_left():
            return
        if need_inf:
            # the ∞-block is forced up to the choice of the order-5 subgroup
            e = self.group.identity
            for h in _inf_block_candidates(self.group):
                if not self.budget.tick():
                    return
                covered = sum(1 << x for x in h if x != e)
                if covered & ~uncovered:
                    continue
                chosen.append(h + (-1,))  # -1 marks ∞
                yield from self._extend(fixed, chosen, uncovered & ~covered, False)
                chosen.pop()
                if self.stats.budget_hit:
                    return
            return
        if not uncovered:
            self.stats.solutions += 1
            yield self._emit(fixed, chosen)
            return
        delta = (uncovered & -uncovered).bit_length() - 1  # the least uncovered
        busy = ~uncovered
        # stabilized candidates (transitive mode): precomputed coset unions
        for covered, block in self.by_delta[delta]:
            if covered & busy:
                continue
            if not self.budget.tick():
                return
            chosen.append(block)
            yield from self._extend(fixed, chosen, uncovered & ~covered, False)
            chosen.pop()
            if self.stats.budget_hit:
                return
        if self.is_involution[delta]:
            return  # a full block covers d and d^-1 separately; impossible here
        yield from self._full_blocks(fixed, chosen, uncovered, delta)

    def _full_blocks(self, fixed, chosen, uncovered, delta):
        """Blocks {e, delta, x3..x6} with 30 distinct uncovered differences.

        free holds the differences that are uncovered and not yet covered by
        the block being built; x fits the members when its differences s^-1 x
        and x^-1 s with them are free and pairwise distinct (s^-1 x = x^-1 s
        is an involution difference, which needs a stabilized block).  An
        element that fits a level fitted the level above too, so each level
        tests only the later elements that fitted the level above, and only
        against the member added last.  Nodes count as in an
        element-by-element scan, one per non-member element tried after the
        last member (only e and delta can come later); the run up to the next
        fitting element counts at once.
        """
        n = self.group.order
        e = self.group.identity
        pair_table = self.pairs

        def fitting(cands, last, taken, free):
            """(x, differences of x with the members) for the candidates that
            fit; cands hold each x with its differences with the members
            before last, and taken holds last's own differences."""
            pairs = pair_table[last]
            busy = ~free
            out = []
            for x, ds in cands:
                pq = pairs[x]
                if pq and not (pq & (busy | ds) or ds & taken):
                    out.append((x, ds | pq))
            return out

        def rec(members, start, cands, taken, free):
            if self.stats.budget_hit or not self.budget.solutions_left():
                return
            if len(members) == BLOCK_SIZE:
                block = tuple(sorted(members))
                if (self.canonical_transforms is not None
                        and not fixed and not chosen
                        and not self._first_block_canonical(block, delta)):
                    return
                chosen.append(block)
                yield from self._extend(fixed, chosen, free, False)
                chosen.pop()
                return
            fits = fitting(cands, members[-1], taken, free)
            pos = start
            for i, (x, ds) in enumerate(fits):
                if not self.budget.tick(x + 1 - pos - (pos <= e < x) - (pos <= delta < x)):
                    return
                pos = x + 1
                members.append(x)
                yield from rec(members, x + 1, fits[i + 1:], ds, free & ~ds)
                members.pop()
                if self.stats.budget_hit:
                    return
            rest = n - pos - (e >= pos) - (delta >= pos)
            if rest:
                self.budget.tick(rest)

        free = uncovered & ~(1 << e)
        cands = fitting([(x, 0) for x in range(1, n)], e, 0, free)
        seed = [ds for x, ds in cands if x == delta]
        if not seed:
            return
        yield from rec([e, delta], 1, cands, seed[0], free & ~seed[0])

    def _first_block_canonical(self, block, delta) -> bool:
        """Is the block lexicographically minimal among its images under the
        supplied automorphisms, translated to contain {e, delta}?"""
        target = block
        e = self.group.identity
        for sigma in self.canonical_transforms:
            img = [int(sigma[x]) for x in block]
            for x in img:
                xinv = self.group.inv(x)
                form = tuple(sorted(int(self.table[xinv, y]) for y in img))
                if delta not in form:
                    continue
                if form < target:
                    return False
        return True


def _fixed_state(group: CayleyGroup, partial: PartialFamily):
    """(index blocks, uncovered array, need_inf) from the fixed blocks."""
    family = DifferenceFamily(partial.mode, partial.fixed_blocks)
    per_block = difference_coverage(group, family).per_block  # checks mode vs order
    quotiented = np.zeros(group.order, dtype=np.int64)
    for _, stab, counts in per_block:
        if (counts % stab != 0).any():
            raise InconsistentPartial("difference counts not divisible by stabilizer")
        quotiented += counts // stab
    if quotiented.max() > 1:
        over = int(np.nonzero(quotiented > 1)[0][0])
        raise InconsistentPartial(
            f"difference {group.labels[over]!r} covered {int(quotiented[over])} times")
    uncovered = quotiented == 0
    uncovered[group.identity] = False
    have_inf = any(len(finite) < BLOCK_SIZE for finite, _, _ in per_block)
    need_inf = partial.mode is Mode.ONE_ROTATIONAL and not have_inf
    return resolve_family(group, family), uncovered, need_inf


def _blocks_to_family(group: CayleyGroup, mode: Mode, index_blocks: list) -> DifferenceFamily:
    blocks = []
    for block in index_blocks:
        labels = [INF if p in (-1, group.order) else group.labels[p] for p in block]
        blocks.append(labels)
    return DifferenceFamily(mode, blocks)


def complete_family(group: CayleyGroup, partial: PartialFamily,
                    budget: SearchBudget | None = None,
                    stats: SearchStats | None = None) -> list:
    """All completions of the partial family within budget.

    Every returned family passes check_difference_family.  Inspect the stats
    object (budget_hit) to learn whether the search was exhaustive.
    """
    budget = budget or SearchBudget()
    stats = stats if stats is not None else SearchStats()
    fixed_idx, uncovered, need_inf = _fixed_state(group, partial)
    searcher = _Searcher(group, partial.mode, budget, stats)
    out = []
    for idx_blocks in searcher.run(fixed_idx, uncovered, need_inf):
        fam = _blocks_to_family(group, partial.mode, idx_blocks)
        if not check_difference_family(group, fam):
            raise AssertionError("search emitted a family failing the algebraic check")
        out.append(fam)
    return out


def multiplier_generators(group: CayleyGroup) -> list:
    """Default canonical-pruning automorphisms: multipliers of a cyclic group.

    For cyclic groups (integer labels 0..n-1) the maps x -> u x over a set of
    units generating (Z/n)* give the full automorphism group.  For other
    abelian groups the default is empty (translation-only normalization);
    callers may supply their own generator permutations.
    """
    import math

    n = group.order
    if not group.is_abelian():
        raise UnsupportedCanonicalization("canonical pruning needs an abelian group")
    if not all(isinstance(lab, int) for lab in group.labels):
        return []
    gens = []
    covered = {1}
    for u in range(2, n):
        if math.gcd(u, n) != 1 or u in covered:
            continue
        gens.append(np.array([group.index[(u * lab) % n] for lab in group.labels],
                             dtype=np.int64))
        # close the covered unit set under multiplication
        new = {u}
        while new:
            x = new.pop()
            covered.add(x)
            for v in list(covered):
                w = (x * v) % n
                if w not in covered:
                    new.add(w)
    return gens


def _closure_of_perms(gens: list, n: int) -> list:
    """All permutations generated by gens (small groups only)."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    gens_t = [tuple(int(x) for x in g) for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens_t:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return [np.array(p, dtype=np.int64) for p in sorted(seen)]


def search_families(group: CayleyGroup, mode: Mode | str,
                    budget: SearchBudget | None = None,
                    canonicalize: bool = True,
                    aut_generators: list | None = None,
                    stats: SearchStats | None = None):
    """Yield difference families over the group; exhaustive within budget.

    With canonicalize, the first base block is normalized to be
    lexicographically minimal under translations and the automorphism group
    generated by aut_generators (default: the multiplier group for cyclic
    groups), and families developing to designs with an already-seen
    canonical key are suppressed.  Canonical keys count against
    time_limit_s: when it runs out during one, the search stops with
    budget_hit set.
    """
    mode = Mode(mode)
    budget = budget or SearchBudget()
    stats = stats if stats is not None else SearchStats()
    _, uncovered, need_inf = _fixed_state(group, PartialFamily(mode, []))
    transforms = None
    if canonicalize:
        if aut_generators is None:
            aut_generators = multiplier_generators(group)  # raises if non-abelian
        transforms = _closure_of_perms(aut_generators, group.order)
    searcher = _Searcher(group, mode, budget, stats, canonical_transforms=transforms)
    seen_keys = set()
    for idx_blocks in searcher.run([], uncovered, need_inf):
        fam = _blocks_to_family(group, mode, idx_blocks)
        if not check_difference_family(group, fam):
            raise AssertionError("search emitted a family failing the algebraic check")
        if canonicalize:
            from .designs import develop
            from .isomorph import canonical_key

            try:
                key = canonical_key(develop(group, fam),
                                    searcher.budget.deadline - time.monotonic())
            except TimeoutError:
                stats.budget_hit = True
                return
            if key in seen_keys:
                continue
            seen_keys.add(key)
        yield fam
