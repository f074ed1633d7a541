"""Bounded difference-family search and completion.

Depth-first search over candidate base blocks, driven by a difference-cover
bitset: each accepted block must cover the smallest currently uncovered
difference, which visits every family exactly once.  Candidate blocks contain
the identity (translation normalization).  Three candidate kinds:

  * full blocks with 30 pairwise-distinct differences (trivial stabilizer);
  * in 1-rotational mode, the ∞-block H ∪ {∞} for an order-5 subgroup H;
  * subgroup-coset unions (stabilized blocks, orbit size |G|/|S|), which are
    the only way to cover involution differences in transitive mode.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .designs import BLOCK_SIZE, DifferenceFamily, Mode, resolve_family
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


def _stabilized_candidates(group: CayleyGroup) -> list:
    """Coset-union blocks (one per left-stabilizer class), quotient-exact only."""
    blocks = {}  # insertion-ordered: the DFS tries candidates in discovery order
    for s in (6, 3, 2):
        for sub in subgroups_of_order(group, s):
            sub = tuple(sorted(sub))
            cosets = np.unique(np.sort(group.table[list(sub)].T, axis=1), axis=0)  # rows S*x
            others = [tuple(c) for c in cosets.tolist() if group.identity not in c]
            for extra in itertools.combinations(others, BLOCK_SIZE // s - 1):
                blocks.setdefault(tuple(sorted(sum(extra, sub))), None)
    counts, stabs = block_differences(group, list(blocks))
    quot = counts // stabs[:, None]
    # exact quotient, and no difference covered twice
    keep = (counts % stabs[:, None] == 0).all(axis=1) & (quot.max(axis=1) <= 1)
    return [_StabilizedCandidate(b, q == 1) for b, q, k in zip(blocks, quot, keep) if k]


def _inf_block_candidates(group: CayleyGroup) -> list:
    """Order-5 subgroups H: the ∞-block must be H ∪ {∞} up to translation."""
    return [tuple(sorted(h)) for h in subgroups_of_order(group, 5)]


class _Searcher:
    def __init__(self, group: CayleyGroup, mode: Mode, budget: SearchBudget,
                 stats: SearchStats, canonical_transforms=None):
        self.group = group
        self.mode = mode
        self.stats = stats
        self.budget = _Budget(budget, stats)
        self.canonical_transforms = canonical_transforms
        self.table = group.table
        self.quotients = group.table[group.inverses].tolist()  # [a][b] = a^-1 b
        x = np.arange(group.order)
        self.is_involution = (group.inverses == x) & (x != group.identity)
        self.stabilized = _stabilized_candidates(group) if mode is Mode.TRANSITIVE else []

    # ------------------------------------------------------------------
    def run(self, fixed_blocks_idx: list, uncovered: np.ndarray, need_inf: bool):
        """Yield completed families (index blocks); generator-based DFS."""
        yield from self._extend(fixed_blocks_idx, [], uncovered, need_inf)

    def _emit(self, fixed, chosen):
        return [list(b) for b in fixed] + [list(b) for b in chosen]

    def _extend(self, fixed, chosen, uncovered, need_inf):
        if self.stats.budget_hit or not self.budget.solutions_left():
            return
        if need_inf:
            # the ∞-block is forced up to the choice of the order-5 subgroup
            for h in _inf_block_candidates(self.group):
                if not self.budget.tick():
                    return
                cov = np.zeros(self.group.order, dtype=bool)
                cov[list(h)] = True
                cov[self.group.identity] = False
                if (cov & ~uncovered).any():
                    continue
                chosen.append(tuple(sorted(h)) + (-1,))  # -1 marks ∞
                yield from self._extend(fixed, chosen, uncovered & ~cov, False)
                chosen.pop()
                if self.stats.budget_hit:
                    return
            return
        if not uncovered.any():
            self.stats.solutions += 1
            yield self._emit(fixed, chosen)
            return
        delta = int(np.nonzero(uncovered)[0][0])
        # stabilized candidates (transitive mode): precomputed coset unions
        for cand in self.stabilized:
            if not cand.covered[delta]:
                continue
            if (cand.covered & ~uncovered).any():
                continue
            if not self.budget.tick():
                return
            chosen.append(cand.block)
            yield from self._extend(fixed, chosen, uncovered & ~cand.covered, False)
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
        quo = self.quotients
        free = set(np.flatnonzero(uncovered).tolist()) - {e}

        def fitting(cands, last, taken):
            """(x, differences of x with the members) for the candidates that
            fit; cands hold each x with its differences with the members
            before last, and taken holds last's own differences."""
            out = []
            for x, ds in cands:
                p, q = quo[last][x], quo[x][last]
                if (p != q and p in free and q in free and p not in ds and q not in ds
                        and ds.isdisjoint(taken)):
                    out.append((x, ds | {p, q}))
            return out

        def rec(members, start, cands, taken):
            if self.stats.budget_hit or not self.budget.solutions_left():
                return
            if len(members) == BLOCK_SIZE:
                block = tuple(sorted(members))
                if (self.canonical_transforms is not None
                        and not fixed and not chosen
                        and not self._first_block_canonical(block, delta)):
                    return
                still = np.zeros(n, dtype=bool)
                still[list(free)] = True
                chosen.append(block)
                yield from self._extend(fixed, chosen, still, False)
                chosen.pop()
                return
            fits = fitting(cands, members[-1], taken)
            pos = start
            for i, (x, ds) in enumerate(fits):
                if not self.budget.tick(x + 1 - pos - (pos <= e < x) - (pos <= delta < x)):
                    return
                pos = x + 1
                free.difference_update(ds)
                members.append(x)
                yield from rec(members, x + 1, fits[i + 1:], ds)
                members.pop()
                free.update(ds)
                if self.stats.budget_hit:
                    return
            rest = n - pos - (e >= pos) - (delta >= pos)
            if rest:
                self.budget.tick(rest)

        cands = fitting([(x, set()) for x in range(1, n)], e, set())
        seed = [ds for x, ds in cands if x == delta]
        if not seed:
            return
        free.difference_update(seed[0])
        yield from rec([e, delta], 1, cands, seed[0])

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
