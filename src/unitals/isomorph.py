"""Design isomorphism, automorphism group order, canonical keys.

All three run on the same machinery: an equitable-partition refinement whose
cells are numbered canonically (by sorted signature content), seeded with the
per-point fingerprint profiles, and an individualization backtracking search.
Block degree is constant in a Steiner system, so the profile seed is what
breaks the initial symmetry.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import Design, is_block_invariant
from .fingerprint import fingerprint, pair_histograms, point_histograms


@dataclass
class OrderedPartition:
    """Disjoint point cells covering all points, in canonical cell order."""

    cell_ids: np.ndarray  # (n,) int64, cell index per point
    n_cells: int

    def cells(self) -> list:
        out = [[] for _ in range(self.n_cells)]
        for p, c in enumerate(self.cell_ids):
            out[int(c)].append(p)
        return out

    def is_discrete(self) -> bool:
        return self.n_cells == len(self.cell_ids)


class _Struct(NamedTuple):
    blocks: np.ndarray       # (B, 6)
    point_lines: np.ndarray  # (n, lines-per-point)
    pair_codes: np.ndarray   # (n, n) canonical rank of the symmetrized pair profile
    design: Design


def _struct(design: Design) -> _Struct:
    cached = design._cache.get("iso_struct")
    if cached is not None:
        return cached
    n = design.n_points
    point_lines = design.point_lines()
    pairs = pair_histograms(design)
    sym = np.concatenate([pairs, pairs.transpose(1, 0, 2)], axis=2)
    codes, _ = _rank_rows(sym.reshape(n * n, -1))
    pair_codes = codes.reshape(n, n)
    struct = _Struct(design.block_array(), point_lines, pair_codes, design)
    design._cache["iso_struct"] = struct
    return struct


def _rank_rows(rows: np.ndarray) -> tuple:
    """(codes, n_codes): canonical rank of each row under lexicographic order."""
    order = np.lexsort(rows.T[::-1])
    sorted_rows = rows[order]
    boundaries = np.empty(len(rows), dtype=np.int64)
    boundaries[0] = 0
    if len(rows) > 1:
        boundaries[1:] = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    ranks = np.cumsum(boundaries)
    codes = np.empty(len(rows), dtype=np.int64)
    codes[order] = ranks
    return codes, int(ranks[-1]) + 1


def _refine(struct: _Struct, cell_ids: np.ndarray) -> tuple:
    """Stable refinement under line cell-signatures; returns (partition, trace).

    A point's signature combines its own cell, the multiset of its lines'
    cell profiles, and the codes of the lines joining it to every singleton
    cell.  Cell numbering is canonical (lexicographic in signature content),
    so isomorphic configurations refine to identically numbered partitions.
    """
    n = len(cell_ids)
    line_of = struct.design.line_of
    cell_ids, n_cells = _rank_rows(cell_ids.reshape(-1, 1))
    trace = []
    while True:
        line_rows = np.sort(cell_ids[struct.blocks], axis=1)
        line_codes, _ = _rank_rows(line_rows)
        point_rows = np.sort(line_codes[struct.point_lines], axis=1)
        parts = [cell_ids.reshape(-1, 1), point_rows]
        sizes0 = np.bincount(cell_ids, minlength=n_cells)
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
            parts.append(struct.pair_codes[:, singles])
        combined = np.concatenate(parts, axis=1)
        new_ids, new_count = _rank_rows(combined)
        sizes = tuple(np.bincount(new_ids, minlength=new_count).tolist())
        trace.append(sizes)
        if new_count == n_cells:
            cell_ids = new_ids
            break
        cell_ids, n_cells = new_ids, new_count
        if n_cells == n:
            break
    return OrderedPartition(cell_ids, n_cells), tuple(trace)


def _individualize(partition: OrderedPartition, v: int) -> np.ndarray:
    key = partition.cell_ids * 2
    key = key.copy()
    key[v] -= 1
    ids, _ = _rank_rows(key.reshape(-1, 1))
    return ids


def _target_cell(partition: OrderedPartition) -> int | None:
    """Smallest non-singleton cell, ties broken by lowest cell index."""
    sizes = np.bincount(partition.cell_ids, minlength=partition.n_cells)
    candidates = np.nonzero(sizes > 1)[0]
    if len(candidates) == 0:
        return None
    best = min(candidates, key=lambda c: (sizes[c], c))
    return int(best)


def initial_partition(design: Design) -> OrderedPartition:
    """Points grouped by fingerprint profile, then refined to stability."""
    hist = point_histograms(design)  # also enforces the Steiner precondition
    profile_ids, _ = _rank_rows(hist)
    partition, _ = _refine(_struct(design), profile_ids)
    return partition


def _discrete_mapping(pa: OrderedPartition, pb: OrderedPartition) -> np.ndarray:
    """Point bijection sending cell k of A to cell k of B."""
    n = len(pa.cell_ids)
    mapping = np.empty(n, dtype=np.int64)
    b_points = np.argsort(pb.cell_ids)
    a_points = np.argsort(pa.cell_ids)
    mapping[a_points] = b_points
    return mapping


def _compatible(pa: OrderedPartition, tra, pb: OrderedPartition, trb) -> bool:
    if pa.n_cells != pb.n_cells or tra != trb:
        return False
    return bool(np.array_equal(
        np.bincount(pa.cell_ids, minlength=pa.n_cells),
        np.bincount(pb.cell_ids, minlength=pb.n_cells)))


def _map_search(sa: _Struct, sb: _Struct, pa: OrderedPartition,
                pb: OrderedPartition, deadline: float | None) -> np.ndarray | None:
    """Backtracking search for a block-set isomorphism respecting partitions."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError
    if pa.is_discrete():
        mapping = _discrete_mapping(pa, pb)
        if _maps_blocks(sa, sb, mapping):
            return mapping
        return None
    t = _target_cell(pa)
    a = int(np.nonzero(pa.cell_ids == t)[0][0])
    ra, tra = _refine(sa, _individualize(pa, a))
    for b in np.nonzero(pb.cell_ids == t)[0]:
        rb, trb = _refine(sb, _individualize(pb, int(b)))
        if not _compatible(ra, tra, rb, trb):
            continue
        found = _map_search(sa, sb, ra, rb, deadline)
        if found is not None:
            return found
    return None


def _maps_blocks(sa: _Struct, sb: _Struct, mapping: np.ndarray) -> bool:
    mapped = np.sort(mapping[sa.blocks], axis=1)
    order = np.lexsort(mapped.T[::-1])
    return bool(np.array_equal(mapped[order], sb.blocks))


@dataclass
class IsoResult:
    isomorphic: bool
    witness: list | None  # point bijection a -> b, as a list over A's points
    complete: bool = True  # False when the time budget cut the decision short

    def __bool__(self):
        return self.isomorphic


def are_isomorphic(a: Design, b: Design, time_budget_s: float = 600.0) -> IsoResult:
    """Isomorphism decision; any witness is re-verified before return.

    If the budget runs out during the backtracking search, the result is
    undecided: not isomorphic as far as known, with complete=False.
    """
    if a.n_points != b.n_points:
        return IsoResult(False, None)
    if fingerprint(a) != fingerprint(b):  # necessary invariant, fast path
        return IsoResult(False, None)
    deadline = time.monotonic() + time_budget_s
    pa, pb = initial_partition(a), initial_partition(b)
    if not _compatible(pa, None, pb, None):
        return IsoResult(False, None)
    try:
        mapping = _map_search(_struct(a), _struct(b), pa, pb, deadline)
    except TimeoutError:
        return IsoResult(False, None, complete=False)
    if mapping is None:
        return IsoResult(False, None)
    if not _maps_blocks(_struct(a), _struct(b), mapping):
        raise AssertionError("search returned an invalid witness")
    return IsoResult(True, [int(x) for x in mapping])


class AutomorphismCount(NamedTuple):
    order: int
    complete: bool  # False when the time budget cut the count short

    def __int__(self):
        return self.order


def automorphism_generators(design: Design,
                            time_budget_s: float = 600.0) -> tuple:
    """(AutomorphismCount, generators) via an individualization chain.

    |Aut| is the product of the base-point orbit sizes along the chain
    (orbit-stabilizer); the generators found along the way generate the full
    group.  If the budget runs out, the product collected so far is returned
    as a lower bound with complete=False.
    """
    cached = design._cache.get("aut_group")
    if cached is not None:
        return cached
    struct = _struct(design)
    deadline = time.monotonic() + time_budget_s
    chain = []
    partition = initial_partition(design)
    while not partition.is_discrete():
        t = _target_cell(partition)
        base_point = int(np.nonzero(partition.cell_ids == t)[0][0])
        chain.append((partition, t, base_point))
        partition, _ = _refine(struct, _individualize(partition, base_point))

    order = 1
    all_gens = []
    try:
        for partition, t, base_point in chain:
            rb, trb = _refine(struct, _individualize(partition, base_point))
            orbit = {base_point}
            generators = []
            for c in np.nonzero(partition.cell_ids == t)[0]:
                c = int(c)
                if c in orbit:
                    continue
                rc, trc = _refine(struct, _individualize(partition, c))
                if not _compatible(rb, trb, rc, trc):
                    continue
                mapping = _map_search(struct, struct, rb, rc, deadline)
                if mapping is None:
                    continue
                if not _maps_blocks(struct, struct, mapping):
                    raise AssertionError("invalid automorphism witness")
                generators.append(mapping)
                all_gens.append(mapping)
                orbit = _orbit(base_point, generators)
            order *= len(orbit)
    except TimeoutError:
        return AutomorphismCount(order, False), all_gens
    result = (AutomorphismCount(order, True), all_gens)
    design._cache["aut_group"] = result
    return result


def automorphism_order(design: Design, time_budget_s: float = 600.0) -> AutomorphismCount:
    """Exact order of the full automorphism group (see automorphism_generators)."""
    count, _ = automorphism_generators(design, time_budget_s)
    return count


def _orbit(seed: int, generators: list) -> set:
    orbit = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = int(g[p])
                if q not in orbit:
                    orbit.add(q)
                    nxt.append(q)
        frontier = nxt
    return orbit


def canonical_key(design: Design) -> bytes:
    """Byte string equal for two designs exactly when they are isomorphic."""
    cached = design._cache.get("canonical_key")
    if cached is not None:
        return cached
    struct = _struct(design)
    partition = initial_partition(design)
    fp = fingerprint(design)

    best: dict = {"inv": None, "blocks": None, "labeling": None}
    # seeding with the full automorphism group makes sibling orbit pruning
    # effective from the start (crucial for highly symmetric designs)
    _, aut_gens = automorphism_generators(design)
    aut_gens = list(aut_gens)

    def leaf_blocks(p: OrderedPartition) -> bytes:
        labeling = p.cell_ids  # discrete: cell index = new point name
        mapped = np.sort(labeling[struct.blocks], axis=1)
        order = np.lexsort(mapped.T[::-1])
        return mapped[order].astype(np.int16).tobytes()

    def dfs(partition: OrderedPartition, inv_path: tuple, base: tuple):
        if partition.is_discrete():
            key_blocks = leaf_blocks(partition)
            cand = (inv_path, key_blocks)
            cur = (best["inv"], best["blocks"])
            if best["inv"] is None or cand < cur:
                best["inv"], best["blocks"] = cand
                best["labeling"] = partition.cell_ids.copy()
            elif cand == cur:
                # two labelings with the same canonical image: an automorphism
                other = best["labeling"]
                aut = np.empty(len(other), dtype=np.int64)
                aut[np.argsort(partition.cell_ids)] = np.argsort(other)
                if not np.array_equal(aut, np.arange(len(aut))):
                    aut_gens.append(aut)
            return
        t = _target_cell(partition)
        cell_points = [int(c) for c in np.nonzero(partition.cell_ids == t)[0]]
        done: list = []
        for v in cell_points:
            # orbits under the automorphisms found so far (fixing the base)
            orb = _orbit_under_stabilizer(v, base, aut_gens)
            if any(u in orb for u in done):
                continue
            done.append(v)
            refined, trace = _refine(struct, _individualize(partition, v))
            child_inv = inv_path + (trace,)
            if best["inv"] is not None:
                prefix = best["inv"][:len(child_inv)]
                if child_inv > prefix:
                    continue  # every leaf below is lexicographically worse
            dfs(refined, child_inv, base + (v,))

    dfs(partition, (), ())
    key = repr((fp.items, best["inv"])).encode() + b"|" + best["blocks"]
    digest = hashlib.sha256(key).hexdigest().encode()
    design._cache["canonical_key"] = digest
    return digest


def _orbit_under_stabilizer(v: int, base: tuple, aut_gens: list) -> set:
    """Orbit of v under the discovered automorphisms fixing the base pointwise."""
    fixing = [g for g in aut_gens if all(int(g[p]) == p for p in base)]
    if not fixing:
        return {v}
    return _orbit(v, fixing)


def left_translations_are_automorphisms(design: Design, group, one_rotational: bool) -> bool:
    """Every left translation maps the block set onto itself."""
    from .designs import translation_permutation

    for g in range(group.order):
        perm = translation_permutation(group, g, one_rotational)
        if not is_block_invariant(design, perm):
            return False
    return True
