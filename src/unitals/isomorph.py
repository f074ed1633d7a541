"""Design isomorphism, automorphism group order, canonical keys.

All three run on the same machinery: an equitable-partition refinement,
seeded with the per-point fingerprint profiles, whose cells are numbered
0..c-1 canonically (by sorted signature content), so that a partition is
the bare array of its points' cell ids; and an individualization
backtracking search that skips the orbits of done siblings under the
automorphisms known to fix the current path and, on the first path, under the
stabilizer of the path in the group those automorphisms generate, read off a
stabilizer chain that grows as they are found.  Block degree is constant in
a Steiner system, so the profile seed is what breaks the initial symmetry.
One traversal of the search tree gives |Aut|, the canonical key and the
canonical labeling (``_search``); two designs are isomorphic when their keys
are equal, and their two labelings compose to the witness.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import Design, block_image, is_block_invariant, maps_blocks, row_keys
from .fingerprint import fingerprint, pair_histograms, point_histograms, transversal


def _pair_codes(design: Design) -> np.ndarray:
    """(n, n) canonical rank of each point pair's symmetrized pair profile.

    The symmetrized profile of (x, y) is the row pairs[x, y] followed by
    pairs[y, x].  It is ranked in two steps: first every one-way row
    pairs[x, y] by itself, then every pair (half[x, y], half[y, x]) of those
    ranks.  Rows joined end to end compare as their first halves, then their
    second halves, and one ranking of all one-way rows orders the halves as the
    rows do, since it is taken over the set that both halves are drawn from; so
    the two steps give the same ranks as ranking the joined rows at once.

    Both steps rank only the rows at the orbit representatives of the design's
    action, as one flat array of len(reps) * n ranks, and fill the whole (n, n)
    table by one ``np.take`` through the ``transversal``'s flat index at.  The
    pair histograms, and so half and the codes, are invariant under the action,
    so every row is the image of a representative's row: the distinct values
    ranked are the same set, and a rank is a position in that set.
    """
    codes = design._cache.get("pair_codes")
    if codes is None:
        reps, _, at = transversal(design)
        half, _ = _rank_rows(pair_histograms(design)[reps].reshape(-1, 5))
        half = np.take(half, at)
        codes, _ = _rank_rows(np.stack([half[reps], half[:, reps].T], axis=2).reshape(-1, 2))
        codes = design._cache["pair_codes"] = np.take(codes, at)
    return codes


def _rank_rows(rows: np.ndarray) -> tuple:
    """(codes, n_codes): canonical rank of each row under lexicographic order,
    np.unique's ranking of the rows' ``row_keys``, so the codes are exactly
    0..n_codes-1."""
    uniq, codes = np.unique(row_keys(rows), return_inverse=True)
    return codes.astype(np.int64, copy=False), len(uniq)


def _refine(design: Design, cell_ids: np.ndarray) -> tuple:
    """Stable refinement under line cell-signatures; returns (cell_ids, trace).

    A partition is its (n,) int64 array of cell ids, one per point, the cells
    numbered 0..c-1 in canonical order.  A point's signature combines its own
    cell, the multiset of its lines' cell profiles, and the codes of the lines
    joining it to every singleton cell.  Cell numbering is canonical
    (lexicographic in signature content), so isomorphic configurations refine
    to identically numbered partitions.
    """
    n = len(cell_ids)
    line_of = design.line_of
    cell_ids, count = _rank_rows(cell_ids.reshape(-1, 1))
    trace = []
    while True:
        line_rows = np.sort(cell_ids[design.block_rows], axis=1)
        line_codes, _ = _rank_rows(line_rows)
        point_rows = np.sort(line_codes[design.point_lines], axis=1)
        parts = [cell_ids.reshape(-1, 1), point_rows]
        sizes0 = np.bincount(cell_ids)
        single_cells = np.nonzero(sizes0 == 1)[0]
        if len(single_cells):
            order = np.argsort(cell_ids, kind="stable")
            starts = np.concatenate([[0], np.cumsum(sizes0)[:-1]])
            singles = order[starts[single_cells]]
            joined = line_of[:, singles].astype(np.int64)
            mask = joined < 0
            sig2 = line_codes[joined]
            sig2[mask] = -1
            parts.append(sig2)
            parts.append(_pair_codes(design)[:, singles])
        combined = np.concatenate(parts, axis=1)
        before = count
        cell_ids, count = _rank_rows(combined)
        trace.append(tuple(np.bincount(cell_ids).tolist()))
        if count in (before, n):  # stable, or discrete
            break
    return cell_ids, tuple(trace)


def _individualize(cell_ids: np.ndarray, v: int) -> np.ndarray:
    """Cell ids with v alone in a cell just before the rest of its cell
    (not yet ranked: _refine ranks them first)."""
    key = cell_ids * 2
    key[v] -= 1
    return key


def _target_cell(cell_ids: np.ndarray) -> int | None:
    """Smallest non-singleton cell, ties broken by lowest cell index; None if discrete."""
    sizes = np.bincount(cell_ids)  # the cells are 0..c-1, so none is left out
    candidates = np.nonzero(sizes > 1)[0]
    if len(candidates) == 0:
        return None
    best = min(candidates, key=lambda c: (sizes[c], c))
    return int(best)


def initial_partition(design: Design) -> np.ndarray:
    """Cell ids of the points grouped by fingerprint profile, then refined to
    stability."""
    hist = point_histograms(design)  # also enforces the Steiner precondition
    profile_ids, _ = _rank_rows(hist)
    return _refine(design, profile_ids)[0]


def _check_deadline(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise TimeoutError


@dataclass
class IsoResult:
    isomorphic: bool
    witness: list | None  # point bijection a -> b, as a list over A's points
    complete: bool = True  # False when the time budget cut the decision short

    def __bool__(self):
        return self.isomorphic


def are_isomorphic(a: Design, b: Design, time_budget_s: float = 600.0) -> IsoResult:
    """Isomorphism decision by canonical keys; a witness is re-verified before
    return.

    Equal keys mean isomorphic, and the witness sends each point of a to the
    point of b with the same canonical label.  Both keys share the budget; if
    it runs out during either search, the result is undecided: not isomorphic
    as far as known, with complete=False.
    """
    if a.n_points != b.n_points:
        return IsoResult(False, None)
    if fingerprint(a) != fingerprint(b):  # necessary invariant, fast path
        return IsoResult(False, None)
    deadline = time.monotonic() + time_budget_s
    try:
        keys = [canonical_key(d, deadline - time.monotonic()) for d in (a, b)]
    except TimeoutError:
        return IsoResult(False, None, complete=False)
    if keys[0] != keys[1]:
        return IsoResult(False, None)
    mapping = np.argsort(b._cache["canonical_labeling"])[a._cache["canonical_labeling"]]
    if not maps_blocks(a, b, mapping):
        raise AssertionError("canonical labelings gave an invalid witness")
    return IsoResult(True, mapping.tolist())


class AutomorphismCount(NamedTuple):
    order: int
    complete: bool  # False when the time budget cut the count short


def automorphism_generators(design: Design,
                            time_budget_s: float = 600.0) -> tuple:
    """(AutomorphismCount, generators) from the individualization search.

    If the budget runs out, the order counted so far is returned as a lower
    bound with complete=False, and nothing but the search's counts
    (``_search``) is cached.
    """
    cached = design._cache.get("aut_group")
    if cached is not None:
        return cached
    return _search(design, time.monotonic() + time_budget_s)[0]


def _translation_seeds(design: Design) -> list:
    """Rows of the design's developing action that generate one of its orbits.

    Rows are taken greedily while they enlarge the largest orbit, each only if
    it maps the blocks onto themselves; one-point orbits give no seeds.
    """
    reps, rep, _ = transversal(design)
    sizes = np.bincount(rep)  # by orbit, as reps lists them
    largest = int(np.argmax(sizes))
    start = int(reps[largest])
    n = design.n_points
    seeds: list = []
    orbit = _orbit_under_stabilizer(start, (), seeds, n)
    for row in design.action.astype(np.int64):
        if orbit.sum() == sizes[largest]:
            break
        if orbit[row[start]] or not is_block_invariant(design, row):
            continue
        seeds.append(row)
        orbit = _orbit_under_stabilizer(start, (), seeds, n)
    return seeds


def automorphism_order(design: Design, time_budget_s: float = 600.0) -> AutomorphismCount:
    """Exact order of the full automorphism group (see automorphism_generators)."""
    count, _ = automorphism_generators(design, time_budget_s)
    return count


def canonical_key(design: Design, time_budget_s: float = 600.0) -> bytes:
    """Byte string equal for two designs exactly when they are isomorphic.

    When the budget runs out, TimeoutError is raised and nothing but the
    search's counts (``_search``) is cached.
    """
    cached = design._cache.get("canonical_key")
    if cached is None:
        cached = _search(design, time.monotonic() + time_budget_s)[1]
        if cached is None:
            raise TimeoutError
    return cached


def _search(design: Design, deadline: float) -> tuple:
    """((AutomorphismCount, generators), key or None) from one traversal of
    the individualization tree (McKay & Piperno 2014); both results, and the
    best leaf's labeling that gives the key, are cached when it completes.

    A child in the orbit of a done sibling, under the automorphisms found so
    far that fix the path, is skipped.  At a node on the first path, once
    that filter fails and some automorphism fixes the path while another
    does not, a child is also skipped when it lies in the orbit of a done
    sibling under the pointwise stabilizer of the path in the group the
    automorphisms generate, read off a stabilizer chain whose base is the
    first leaf's path (``_Chain``).  A leaf equal to the first or the best
    (smallest) leaf gives an automorphism; after one equal to the first, the
    search returns to the nearest first-path node, since the rest of that
    subtree is an image of one already searched.  At a first-path node,
    each sibling searched in the first child's orbit under the automorphisms
    fixing the path gives an automorphism onto the first child, which the
    group that pruned there then holds, so that group's orbit of the first
    child is the whole orbit.  |Aut| is the product of those orbit sizes
    along the first path; past the deadline it is a lower bound and the key
    is None.  When the chain was consulted, every automorphism is sifted
    into it at the end; each level's orbit is then the whole orbit of its
    base point, so the chain's base and strong generators, cached as
    ``aut_chain``, generate each level's whole stabilizer in Aut.  The
    search's counts are kept in ``design._cache["aut_stats"]`` whether or not
    it completes.
    """
    n = design.n_points
    gens = _translation_seeds(design)
    leaves: dict = {}  # "first" and "best": (trace path, block bytes, labeling)
    order = 1
    chain = None  # built at the first leaf
    stats = design._cache["aut_stats"] = dict.fromkeys(
        ("refines", "leaves", "orbit_skips", "chain_skips"), 0)

    def leaf(cell_ids: np.ndarray, inv_path: tuple, path: tuple) -> bool:
        nonlocal chain
        stats["leaves"] += 1
        # discrete: cell index = new point name
        cand = (inv_path, block_image(design, cell_ids).astype(np.int16).tobytes())
        if not leaves:
            leaves["first"] = leaves["best"] = cand + (cell_ids,)
            chain = _Chain(path, n)
            return False
        for name in ("first", "best"):
            inv, blocks, other = leaves[name]
            if cand == (inv, blocks):
                # two labelings with the same image: an automorphism
                aut = np.empty(n, dtype=np.int64)
                aut[np.argsort(cell_ids)] = np.argsort(other)
                if not is_block_invariant(design, aut):
                    raise AssertionError("invalid automorphism witness")
                gens.append(aut)
                return name == "first"
        if cand < leaves["best"][:2]:
            leaves["best"] = cand + (cell_ids,)
        return False

    def dfs(cell_ids: np.ndarray, inv_path: tuple, path: tuple, on_first: bool) -> bool:
        """True when a leaf below equals the first and the search returns
        to the nearest first-path node."""
        nonlocal order
        _check_deadline(deadline)
        t = _target_cell(cell_ids)
        if t is None:
            return leaf(cell_ids, inv_path, path)
        cell = np.nonzero(cell_ids == t)[0].tolist()
        done: list = []
        by_chain = False  # whether the orbits come from the chain
        known = None  # (by_chain, automorphism count) the orbits in seen were built from

        def orbits(points) -> np.ndarray:
            if by_chain:
                chain.extend(gens)
                return chain.orbits(points, len(path))
            return _orbit_under_stabilizer(points, path, gens, n)

        for v in cell:
            if known != (by_chain, len(gens)):
                known = (by_chain, len(gens))
                seen = orbits(done)
            if not seen[v] and on_first and done and not by_chain:
                # the path filter failed: consult the chain, if it can see more.
                # It can only when some automorphism fixes the path and some
                # does not: those found below a first-path node fix its path,
                # and the translation seeds fix no point they move.
                fixing = (np.reshape(gens, (-1, n))[:, list(path)] == path).all(axis=1)
                by_chain = bool(0 < fixing.sum() < len(gens))
                if by_chain:
                    known, seen = (by_chain, len(gens)), orbits(done)
            if seen[v]:
                stats["chain_skips" if by_chain else "orbit_skips"] += 1
                continue
            done.append(v)
            seen |= orbits(v)
            refined, trace = _refine(design, _individualize(cell_ids, v))
            stats["refines"] += 1
            child_inv = inv_path + (trace,)
            if dfs(refined, child_inv, path + (v,), on_first and v == cell[0]) and not on_first:
                return True
        if on_first:
            order *= int(orbits(cell[0]).sum())
        return False

    try:
        stats["refines"] += 1  # the initial partition
        dfs(initial_partition(design), (), (), True)
    except TimeoutError:
        return (AutomorphismCount(order, False), gens), None
    finally:
        del dfs  # the recursive closure would keep the design in a reference cycle
    aut_group = design._cache["aut_group"] = (AutomorphismCount(order, True), gens)
    key = repr((fingerprint(design).items, leaves["best"][0])).encode()
    key = hashlib.sha256(key + b"|" + leaves["best"][1]).hexdigest().encode()
    design._cache["canonical_key"] = key
    design._cache["canonical_labeling"] = leaves["best"][2]  # point -> canonical label
    if chain.sifted:  # the chain was consulted
        chain.extend(gens)
        design._cache["aut_chain"] = (chain.base, [s for s, _, _ in chain.strong])
    return aut_group, key


#: random elements sifted into a stabilizer chain with each automorphism found
RANDOM_SIFTS = 4


class _Chain:
    """Stabilizer chain of the group generated by the automorphisms found so
    far, on a base of points whose pointwise stabilizer in Aut is trivial
    (the first leaf's path); random Schreier-Sims (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005).

    Level k holds the orbit of base[k] under the strong generators that fix
    base[:k], and for each point p of it the inverse of an element that maps
    base[k] to p.  Each automorphism that arrives is sifted down the levels,
    followed by RANDOM_SIFTS product-replacement elements of the group (from
    a generator seeded per chain, so a search runs the same way every time);
    a residue other than the identity becomes a strong generator of every
    level down to the one where it stopped.  Every automorphism sifted lies
    in the group of each level whose base points it fixes, so the level's
    orbits contain the orbits of those automorphisms.  The chain may span
    less than the whole stabilizer at a level, which leaves pruning by it
    sound.
    """

    def __init__(self, base: tuple, n: int):
        self.base = base
        self.n = n
        self.strong: list = []  # (perm, inverse, level): perm fixes base[:level]
        self.in_orbit = np.zeros((len(base), n), dtype=bool)
        self.in_orbit[np.arange(len(base)), list(base)] = True
        self.inverse = np.tile(np.arange(n), (len(base), n, 1))
        self.rng = random.Random(0)
        self.slots: list = []  # product-replacement state
        self.accumulator = np.arange(n)
        self.sifted = 0  # how many automorphisms were sifted in

    def extend(self, gens: list) -> None:
        """Sift in the automorphisms of gens not yet seen."""
        for g in gens[self.sifted:]:
            self.slots.append(g)
            self._sift(g)
            for _ in range(RANDOM_SIFTS):
                i = self.rng.randrange(len(self.slots))
                j = self.rng.randrange(len(self.slots))
                self.slots[i] = self.slots[i][self.slots[j]]
                self.accumulator = self.accumulator[self.slots[i]]
                self._sift(self.accumulator)
        self.sifted = len(gens)

    def orbits(self, points, level: int) -> np.ndarray:
        """Mask of the union of the orbits of points under the group at level."""
        return _orbit_under_stabilizer(points, (), [s for s, _, lv in self.strong if lv >= level],
                                       self.n)

    def _sift(self, g: np.ndarray) -> None:
        for level, b in enumerate(self.base):
            p = g[b]
            if p == b:
                continue
            if not self.in_orbit[level, p]:
                self._add(g, level)
                return
            g = self.inverse[level, p][g]

    def _add(self, s: np.ndarray, level: int) -> None:
        s_inv = np.argsort(s)
        self.strong.append((s, s_inv, level))
        for k in range(level + 1):
            orbit, inverse = self.in_orbit[k], self.inverse[k]
            frontier = np.nonzero(orbit)[0]
            step = [(s, s_inv)]  # the points found before s are closed under the rest
            while len(frontier):
                found = []
                for t, t_inv in step:
                    images = t[frontier]
                    new = ~orbit[images]
                    q = images[new]
                    if len(q):
                        orbit[q] = True
                        inverse[q] = inverse[frontier[new]][:, t_inv]  # (t u_p)^-1 = u_p^-1 t^-1
                        found.append(q)
                frontier = np.concatenate(found) if found else ()
                step = [(t, t_inv) for t, t_inv, lv in self.strong if lv >= k]


def _orbit_under_stabilizer(points, base: tuple, aut_gens: list, n: int) -> np.ndarray:
    """Mask over the n points of the union of the orbits of points (one point
    or a list) under the automorphisms in aut_gens that fix the base
    pointwise.

    Each step adds the images under the generators and under their powers
    2^t, t = 0, 1, 2, ..., so a long cycle fills in a logarithmic number of
    steps; the mask is the orbit once the generators add nothing.
    """
    gens = np.asarray(aut_gens, dtype=np.int64).reshape(-1, n)
    if base:
        fixed = np.asarray(base)
        gens = gens[(gens[:, fixed] == fixed).all(axis=1)]
    orbit = np.zeros(n, dtype=bool)
    orbit[points] = True
    power = gens
    while len(gens):
        size = orbit.sum()
        orbit[gens[:, orbit]] = True
        orbit[power[:, orbit]] = True
        if orbit.sum() == size:
            break
        power = np.take_along_axis(power, power, axis=1)
    return orbit
