"""Difference-family search: completion, budgets, canonical-key dedupe."""

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from conftest import emit_ex1_1, entry
from unitals import catalog, isomorph, search
from unitals.designs import (
    BLOCK_SIZE,
    DifferenceFamily,
    Mode,
    develop,
    first_rows,
    resolve_family,
    verify_steiner,
)
from unitals.difference import block_differences, check_difference_family
from unitals.errors import InconsistentPartial, ModeOrderMismatch
from unitals.groups import (
    INF,
    Cyclic,
    Product,
    build_group,
    load_cayley_table,
    save_cayley_table,
    subgroups_of_order,
)
from unitals.isomorph import canonical_key
from unitals.search import (
    CLOCK_STRIDE,
    SearchBudget,
    SearchStats,
    _candidates_by_delta,
    _difference_pairs,
    _stabilized_candidates,
    complete_family,
    search_families,
)


def full_blocks(e):
    return [b for b in e.base_blocks if not any(x is INF for x in b)]


def test_completion_recovers_infinity_block(z125, ex1_1):
    partial = DifferenceFamily(Mode.ONE_ROTATIONAL, full_blocks(ex1_1))
    stats = SearchStats()
    fams = complete_family(z125, partial, SearchBudget(max_nodes=10**6), stats)
    assert stats.nodes < 10**6 and not stats.budget_hit
    assert len(fams) == 1
    last = fams[0].base_blocks[-1]
    assert last[:5] == [0, 25, 50, 75, 100] and last[5] is INF
    assert verify_steiner(develop(z125, fams[0])).is_steiner


def test_completion_of_complete_family_returns_itself(z125, ex1_1):
    stats = SearchStats()
    fams = complete_family(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, ex1_1.base_blocks),
                           SearchBudget(), stats)
    assert len(fams) == 1
    assert fams[0].base_blocks == ex1_1.base_blocks


def test_inconsistent_partial_rejected(z125, ex1_1):
    blocks = full_blocks(ex1_1)
    doubled = blocks + [blocks[0]]
    with pytest.raises(InconsistentPartial):
        complete_family(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, doubled))


@pytest.mark.parametrize("j", range(1, 9))
def test_one_block_removed_recovers(j, z125):
    e = entry(f"ex1-{j}")
    partial_blocks = [b for i, b in enumerate(e.base_blocks) if i != 1]
    stats = SearchStats()
    fams = complete_family(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, partial_blocks),
                           SearchBudget(max_nodes=10**6), stats)
    assert not stats.budget_hit
    assert fams
    for fam in fams:
        assert check_difference_family(z125, fam)
        assert verify_steiner(develop(z125, fam)).is_steiner


def z125_identity_at_7(z125, ex1_1, tmp_path):
    """Z_125 with elements 0 and 7 swapped, loaded from a table file: the
    identity is 7, and element 0 is a difference the full blocks must be able
    to use.  Returns the group and ex1-1 without block 2, relabeled."""
    swap = np.arange(z125.order)
    swap[[0, 7]] = [7, 0]
    table = np.empty_like(z125.table)
    table[np.ix_(swap, swap)] = swap[z125.table]
    path = tmp_path / "z125_identity_7.txt"
    save_cayley_table(dataclasses.replace(z125, table=table), path)
    g = load_cayley_table(path)
    assert g.identity == 7
    kept = [[x if x is INF else int(swap[x]) for x in b]
            for i, b in enumerate(ex1_1.base_blocks) if i != 2]
    return g, kept


def test_full_block_scan_with_identity_not_at_zero(z125, ex1_1, tmp_path):
    g, kept = z125_identity_at_7(z125, ex1_1, tmp_path)
    stats = SearchStats()
    fams = complete_family(g, DifferenceFamily(Mode.ONE_ROTATIONAL, kept), stats=stats)
    assert len(fams) == 2 and not stats.budget_hit
    for fam in fams:
        assert check_difference_family(g, fam)


def enumerated_blocks(g, uncovered, delta):
    """(blocks, covered masks) of the 6-sets holding e and delta with 30
    distinct uncovered differences, by plain enumeration: the other four
    members run over itertools.combinations in lexicographic order.  They are
    drawn from the elements x for which {e, delta, x} passes the same test,
    which every member of such a block does."""
    e = g.identity
    diff = g.table[g.inverses]  # diff[a, b] = a^-1 b
    free = np.array([uncovered >> d & 1 for d in range(g.order)], dtype=bool)

    def differences(blocks):
        i, j = np.nonzero(~np.eye(blocks.shape[1], dtype=bool))
        return diff[blocks[:, i], blocks[:, j]]

    def valid(blocks):
        d = np.sort(differences(blocks), axis=1)
        return free[d].all(axis=1) & (d[:, 1:] != d[:, :-1]).all(axis=1)

    others = np.array([x for x in range(g.order) if x not in (e, delta)])
    triples = np.column_stack([np.full(len(others), e), np.full(len(others), delta), others])
    pool = others[valid(triples)].tolist()
    rest = np.array(list(itertools.combinations(pool, 4)), dtype=np.int64).reshape(-1, 4)
    blocks = np.hstack([np.full((len(rest), 1), e), np.full((len(rest), 1), delta), rest])
    blocks = blocks[valid(blocks)]
    masks = [sum(1 << d for d in row) for row in differences(blocks).tolist()]
    return [tuple(sorted(b)) for b in blocks.tolist()], masks


def element_scan(g, uncovered, delta):
    """Nodes of an element-by-element scan for the blocks {e, delta, ...}:
    each level tries every non-member element after the member added last,
    one node each.  Returns the node count at each block found, and in all."""
    n, e = g.order, g.identity
    diff = g.table[g.inverses].tolist()
    found, nodes = [], 0

    def scan(members, used, start):
        nonlocal nodes
        for x in range(start, n):
            if x in (e, delta):
                continue
            nodes += 1
            new = [diff[m][x] for m in members] + [diff[x][m] for m in members]
            if (len(set(new)) == len(new) and used.isdisjoint(new)
                    and all(uncovered >> d & 1 for d in new)):
                if len(members) == 5:
                    found.append((nodes, tuple(sorted(members + (x,)))))
                else:
                    scan(members + (x,), used.union(new), x + 1)

    scan((e, delta), {diff[e][delta], diff[delta][e]}, 0)
    return found, nodes


def infinity_block(e):
    return [b for b in e.base_blocks if INF in b]


@pytest.mark.parametrize("state", ["ex1-1", "ex2-4", "sg126-12-15", "identity-at-7", "ex4-1"])
def test_full_block_scan_matches_enumeration(state, z125, ex1_1, tmp_path):
    if state == "identity-at-7":
        g, kept = z125_identity_at_7(z125, ex1_1, tmp_path)
        mode = Mode.ONE_ROTATIONAL
    else:
        e = entry(state)
        g, mode = e.group(), e.mode
        # ex1-1's first block fixed, with the ∞-block the root chooses;
        # ex2-4's first two; sg126-12-15's last one, with the coset union that
        # its pinned completion chooses, which leaves two involutions uncovered;
        # all of ex4-1 but its first block, the one block that fits, which holds
        # e, delta and the least free difference: the first the scan's first
        # level walks
        kept = {"ex1-1": e.base_blocks[:1] + infinity_block(e),
                "ex2-4": e.base_blocks[:2] + infinity_block(e),
                "sg126-12-15": e.base_blocks[4:] + [[0, 1, 2, 5, 8, 14]],
                "ex4-1": e.base_blocks[1:]}[state]
    searcher = search._Searcher(g, DifferenceFamily(mode, kept))
    uncovered = searcher.uncovered
    delta = (uncovered & -uncovered).bit_length() - 1
    assert not searcher.is_involution[delta]
    if mode is Mode.TRANSITIVE:  # involution differences are uncovered, and refused
        assert any(searcher.is_involution[d] for d in range(g.order) if uncovered >> d & 1)
    total, scanned, covered = 0, [], []
    for gap, block, mask in searcher._fitting_blocks(uncovered, delta):
        total += gap
        if block:
            scanned.append((total, block))
            covered.append(mask)
    blocks, masks = enumerated_blocks(g, uncovered, delta)
    assert blocks  # every state has blocks to find
    if state == "ex4-1":
        free = uncovered & ~searcher.pairs[g.identity][delta]
        assert blocks == [tuple(sorted(map(g.resolve, e.base_blocks[0])))]
        assert (free & -free).bit_length() - 1 in blocks[0]
    assert [b for _, b in scanned] == blocks
    assert covered == masks
    found, nodes = element_scan(g, uncovered, delta)
    assert scanned == found
    assert total == nodes


def test_scan_ticks_stay_within_a_clock_stride(z125, ex1_1, monkeypatch):
    # the scan counts its nodes in batches; a batch never holds more than
    # CLOCK_STRIDE + n nodes, so it cannot starve the clock or the node budget
    counts = []
    tick = search._Searcher.tick

    def recording(self, count=1):
        counts.append(count)
        return tick(self, count)

    monkeypatch.setattr(search._Searcher, "tick", recording)
    stats = SearchStats()
    complete_family(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, ex1_1.base_blocks[:1]),
                    SearchBudget(max_nodes=4_000_000, max_solutions=2), stats)
    assert stats.nodes == sum(counts) == 1808010
    assert max(counts) <= CLOCK_STRIDE + z125.order
    assert any(c >= CLOCK_STRIDE for c in counts)  # scans that find no block for long


@pytest.mark.parametrize("field", ["max_nodes", "max_solutions", "time_limit_s"])
@pytest.mark.parametrize("value", [0, -1, math.nan])
def test_budget_fields_must_be_positive(field, value):
    with pytest.raises(ValueError, match="positive"):
        SearchBudget(**{field: value})


@pytest.mark.parametrize("make_group", [
    lambda: build_group(Cyclic(125)),
    lambda: build_group(Product(Cyclic(5), Product(Cyclic(5), Cyclic(5)))),
    lambda: entry("sg126-3-1").group(),
], ids=["Z_125", "Z_5^3", "sg126-3"])
def test_difference_pairs_against_plain_loops(make_group):
    g = make_group()
    t, inv = g.table.tolist(), g.inverses.tolist()
    expected = []
    for a in range(g.order):
        row = []
        for x in range(g.order):
            d, d_inv = t[inv[a]][x], t[inv[x]][a]  # a^-1 x and x^-1 a
            row.append(0 if d == d_inv else (1 << d) | (1 << d_inv))
        expected.append(row)
    assert _difference_pairs(g) == expected


def test_trivial_budget_empty_stream(z125):
    stats = SearchStats()
    got = list(search_families(z125, Mode.ONE_ROTATIONAL,
                               SearchBudget(max_nodes=1), stats=stats))
    assert got == []
    assert stats.budget_hit


@pytest.mark.parametrize("seconds", [1e-9, 0.05])
def test_time_limit_stops_search(z125, seconds):
    # from scratch over Z_125 the search runs far past 10^7 nodes
    stats = SearchStats()
    budget = SearchBudget(max_nodes=10**7, time_limit_s=seconds)
    got = list(search_families(z125, Mode.ONE_ROTATIONAL, budget,
                               canonicalize=False, stats=stats))
    assert got == []
    assert stats.budget_hit
    assert 0 < stats.nodes < budget.max_nodes


def test_search_deterministic(z125):
    runs = []
    for _ in range(2):
        stats = SearchStats()
        list(search_families(z125, Mode.ONE_ROTATIONAL,
                             SearchBudget(max_nodes=20000), stats=stats))
        runs.append((stats.nodes, stats.solutions))
    assert runs[0] == runs[1]


def test_canonicalize_searches_non_abelian_groups():
    g = entry("sg126-1-1").group()
    assert not g.is_abelian()
    stats = SearchStats()
    got = list(search_families(g, Mode.TRANSITIVE, SearchBudget(max_nodes=10), stats=stats))
    assert got == []
    assert stats.budget_hit


def test_canonicalize_drops_isomorphic_families(monkeypatch):
    e = entry("ex1-1")
    z125 = e.group()
    blocks = [list(b) for b in resolve_family(z125, e.family())]
    n = z125.order  # the index of ∞
    # x -> 2x (x + x in Z_125) is a group automorphism, so the image develops
    # to an isomorphic design
    doubled = [[p if p == n else int(z125.table[p, p]) for p in b] for b in blocks]
    assert doubled != blocks

    def run(self):
        yield blocks
        yield doubled

    monkeypatch.setattr(search._Searcher, "run", run)
    for canonicalize, count in ((True, 1), (False, 2)):
        fams = list(search_families(z125, Mode.ONE_ROTATIONAL, canonicalize=canonicalize))
        assert len(fams) == count
    assert fams[0].base_blocks == e.base_blocks
    assert fams[1].base_blocks != e.base_blocks


def test_seeded_rediscovery_matches_catalog(z125, ex1_1):
    """Completions from one catalog block land on catalog designs (up to iso).

    A from-scratch run needs > 3e8 nodes before the first solution, so the
    rediscovery check seeds the first base block and searches the rest.
    """
    partial = DifferenceFamily(Mode.ONE_ROTATIONAL, ex1_1.base_blocks[:1])
    stats = SearchStats()
    fams = complete_family(z125, partial,
                           SearchBudget(max_nodes=4_000_000, max_solutions=2), stats)
    assert fams, f"no completion within {stats.nodes} nodes"
    catalog_keys = {canonical_key(develop(entry(f"ex1-{j}").group(),
                                          entry(f"ex1-{j}").family()))
                    for j in range(1, 9)}
    for fam in fams:
        d = develop(z125, fam)
        assert verify_steiner(d).is_steiner
        assert canonical_key(d) in catalog_keys


def test_emitted_families_pass_checks(z125):
    # no duplicate canonical keys among canonicalized emissions
    stats = SearchStats()
    partial_source = entry("ex1-2")
    seen = set()
    fams = complete_family(z125,
                           DifferenceFamily(Mode.ONE_ROTATIONAL,
                                         partial_source.base_blocks[:2]),
                           SearchBudget(max_nodes=2_000_000, max_solutions=4), stats)
    for fam in fams:
        assert check_difference_family(z125, fam)
        key = canonical_key(develop(z125, fam))
        seen.add(key)
    assert len(seen) >= 1


def test_transitive_completion_with_stabilized_blocks():
    e = entry("sg126-1-1")
    g = e.group()
    # drop the final block and let the search recover a completion
    partial = DifferenceFamily(Mode.TRANSITIVE, e.base_blocks[:-1])
    stats = SearchStats()
    fams = complete_family(g, partial,
                           SearchBudget(max_nodes=2_000_000, max_solutions=2), stats)
    assert fams
    for fam in fams:
        assert verify_steiner(develop(g, fam)).is_steiner


# Recorded before the difference counting was batched.  The DFS tries the
# stabilized candidates in list order, so these pin that order: for sg126-10-5
# the two completions swap places if the list is reversed.
PINNED_COMPLETIONS = {
    # entry, removed block: (nodes, solutions, nodes to the first solution, completions)
    ("sg126-2-1", 1): (1955, 1, 427, [
        [[0, 1, 3, 6, 11, 17], [0, 4, 21, 72, 78, 85], [0, 5, 32, 53, 56, 76],
         [0, 9, 77, 83, 117, 124], [0, 2, 7, 23, 42, 71]]]),
    ("sg126-10-5", 3): (487, 2, 2, [
        [[0, 1, 2, 5, 8, 14], [0, 3, 10, 24, 69, 76], [0, 6, 41, 86, 93, 120],
         [0, 12, 23, 27, 50, 83], [0, 16, 28, 58, 72, 104], [0, 20, 22, 53, 99, 101],
         [0, 7, 9, 31, 36, 63]],
        [[0, 1, 2, 5, 8, 14], [0, 3, 10, 24, 69, 76], [0, 6, 41, 86, 93, 120],
         [0, 12, 23, 27, 50, 83], [0, 16, 28, 58, 72, 104], [0, 20, 22, 53, 99, 101],
         [0, 89, 98, 102, 106, 110]]]),
    ("sg126-12-41", 1): (1551, 2, 393, [
        [[0, 1, 4, 7, 13, 19], [0, 5, 38, 58, 84, 96], [0, 6, 25, 73, 90, 125],
         [0, 9, 53, 74, 104, 116], [0, 2, 3, 26, 77, 112]],
        [[0, 1, 4, 7, 13, 19], [0, 5, 38, 58, 84, 96], [0, 6, 25, 73, 90, 125],
         [0, 9, 53, 74, 104, 116], [0, 2, 28, 61, 93, 110]]]),
}


@pytest.mark.parametrize("entry_id, removed", list(PINNED_COMPLETIONS))
def test_transitive_completion_pinned(entry_id, removed):
    nodes, solutions, first_nodes, completions = PINNED_COMPLETIONS[entry_id, removed]
    e = entry(entry_id)
    g = e.group()
    partial = DifferenceFamily(Mode.TRANSITIVE,
                            [b for i, b in enumerate(e.base_blocks) if i != removed])
    stats = SearchStats()
    fams = complete_family(g, partial, SearchBudget(max_nodes=200_000), stats)
    assert (stats.nodes, stats.solutions, stats.budget_hit) == (nodes, solutions, False)
    assert [f.base_blocks for f in fams] == completions
    stats = SearchStats()
    fams = complete_family(g, partial, SearchBudget(max_nodes=200_000, max_solutions=1),
                           stats)
    assert (stats.nodes, stats.solutions) == (first_nodes, 1)
    assert [f.base_blocks for f in fams] == completions[:1]


@pytest.mark.parametrize("entry_id, removed", list(PINNED_COMPLETIONS))
def test_completion_pins_hold_on_searched_and_fresh_groups(entry_id, removed, monkeypatch):
    nodes, solutions, _, completions = PINNED_COMPLETIONS[entry_id, removed]
    e = entry(entry_id)
    searched = e.group()
    complete_family(searched, DifferenceFamily(Mode.TRANSITIVE, e.base_blocks))  # fills the cache
    assert "candidates_by_delta" in searched._cache
    monkeypatch.setattr(catalog, "_group_cache", {})
    fresh = e.group()
    assert fresh is not searched and not fresh._cache
    partial = DifferenceFamily(Mode.TRANSITIVE,
                            [b for i, b in enumerate(e.base_blocks) if i != removed])
    for g in (searched, fresh):
        stats = SearchStats()
        fams = complete_family(g, partial, SearchBudget(max_nodes=200_000), stats)
        assert (stats.nodes, stats.solutions, stats.budget_hit) == (nodes, solutions, False)
        assert [f.base_blocks for f in fams] == completions


def test_stabilized_candidates_built_once_per_group(monkeypatch):
    g = entry("sg126-10-1").group()
    by_delta = _candidates_by_delta(g)

    def no_build(*args):
        raise AssertionError("search tables rebuilt")

    monkeypatch.setattr(search, "subgroups_of_order", no_build)
    monkeypatch.setattr(search, "block_differences", no_build)
    assert _candidates_by_delta(g) is by_delta
    e = entry("sg126-10-5")
    assert complete_family(g, DifferenceFamily(Mode.TRANSITIVE, e.base_blocks))


def test_root_masks_built_once_per_group():
    e = entry("sg126-12-15")
    g = dataclasses.replace(e.group())  # shares the table, not the cache
    partial = DifferenceFamily(Mode.TRANSITIVE, e.base_blocks[2:])
    complete_family(g, partial)
    built = dict(g._cache["root_masks"])
    assert built  # the search scanned full blocks
    e_pairs = _difference_pairs(g)[g.identity]
    for delta, masks in built.items():
        assert masks == [pe | pd if pe and pd and not pe & pd else 0
                         for pe, pd in zip(e_pairs, _difference_pairs(g)[delta])]
    # a second search on the group reads the masks and adds none
    g._cache["root_masks"] = types.MappingProxyType(built)
    stats = SearchStats()
    assert complete_family(g, partial, stats=stats)
    assert stats.nodes == 2305  # as in PINNED_FULL_BLOCK_SEARCHES
    assert all(search._root_masks(g, delta) is masks for delta, masks in built.items())
    fresh = dataclasses.replace(g)
    complete_family(fresh, partial)
    assert fresh._cache["root_masks"].keys() == built.keys()
    assert all(fresh._cache["root_masks"][d] is not built[d] for d in built)


def test_searched_group_still_equals_its_copy():
    e = entry("sg126-12-41")
    g = dataclasses.replace(e.group())  # shares the table, not the cache
    copy = dataclasses.replace(g)
    complete_family(g, DifferenceFamily(Mode.TRANSITIVE, e.base_blocks))
    assert g._cache and not copy._cache
    assert g == copy


# Recorded before the search held difference sets as int bitmasks: the
# ∞-block loop tries one node per order-5 subgroup (1 in Z_125, 6 in
# Z_5 x Z_25, 31 in ex3's group), and sg126-3-1 with 169 nodes is cut inside
# the stabilized-candidate loop, after two completions.
PINNED_MASK_BRANCHES = [
    # entry, removed blocks, max_nodes: nodes, budget_hit, blocks found per family
    ("ex1-1", [4], 10**6, 1, False, [[[0, 25, 50, 75, 100, INF]]]),
    ("ex2-1", [2], 10**6, 6, False, [[[(0, 0), (0, 5), (0, 10), (0, 15), (0, 20), INF]]]),
    ("ex3-1", [2], 10**6, 31, False,
     [[[((0, 0), 0), ((0, 1), 0), ((0, 2), 0), ((0, 3), 0), ((0, 4), 0), INF]]]),
    ("ex2-1", [0, 2], 10**6, 1507, False, [
        [[(0, 0), (0, 5), (0, 10), (0, 15), (0, 20), INF],
         [(0, 0), (0, 1), (0, 3), (1, 0), (2, 13), (3, 6)]],
        [[(0, 0), (0, 5), (0, 10), (0, 15), (0, 20), INF],
         [(0, 0), (0, 1), (0, 23), (2, 20), (3, 13), (4, 1)]]]),
    ("sg126-3-1", [1, 2], 169, 169, True, [
        [[0, 2, 3, 61, 96, 98], [0, 5, 17, 24, 55, 86]],
        [[0, 2, 3, 61, 96, 98], [0, 18, 46, 59, 81, 106]]]),
]


@pytest.mark.parametrize("entry_id, removed, max_nodes, nodes, hit, found",
                         PINNED_MASK_BRANCHES)
def test_mask_branches_pinned(entry_id, removed, max_nodes, nodes, hit, found):
    e = entry(entry_id)
    kept = [b for i, b in enumerate(e.base_blocks) if i not in removed]
    stats = SearchStats()
    fams = complete_family(e.group(), DifferenceFamily(e.mode, kept),
                           SearchBudget(max_nodes=max_nodes), stats)
    assert (stats.nodes, stats.budget_hit) == (nodes, hit)
    assert [f.base_blocks[:len(kept)] for f in fams] == [kept] * len(found)
    assert [f.base_blocks[len(kept):] for f in fams] == found


@pytest.mark.parametrize("entry_id, count, head, last", [
    ("sg126-10-1", 778,
     [(0, 1, 2, 5, 8, 14), (0, 1, 3, 6, 11, 17), (0, 1, 9, 15, 36, 45)],
     (0, 89, 98, 102, 106, 110)),
    ("sg126-12-1", 1012,
     [(0, 1, 2, 5, 8, 14), (0, 1, 4, 7, 13, 19), (0, 2, 7, 8, 16, 29)],
     (0, 19, 112, 115, 118, 120)),
])
def test_stabilized_candidates_order_pinned(entry_id, count, head, last):
    blocks, covered = _stabilized_candidates(entry(entry_id).group())
    assert len(blocks) == len(covered) == count
    assert [tuple(b) for b in blocks[[0, 1, 2, -1]].tolist()] == head + [last]
    assert covered[:3].sum(axis=1).tolist() == [5, 5, 5]


def every_combination_candidates(group):
    """The coset-union candidates from every combination of cosets, with no
    coset dropped before the blocks are checked: the oracle for the
    prefiltered _stabilized_candidates."""
    rows = []
    for s in (6, 3, 2):
        r = BLOCK_SIZE // s - 1
        combos = list(itertools.combinations(range(group.order // s - 1), r))
        combos = np.array(combos, dtype=np.int64).reshape(len(combos), r)
        for sub in subgroups_of_order(group, s):
            sub = np.array(sorted(sub))
            cosets = np.sort(group.table[sub].T, axis=1)  # rows S*x
            cosets = cosets[first_rows(cosets)]
            extra = cosets[(cosets != group.identity).all(axis=1)][combos]
            rows.append(np.hstack([np.broadcast_to(sub, (len(combos), s)),
                                   extra.reshape(len(combos), r * s)]))
    rows = np.sort(np.concatenate(rows), axis=1)
    rows = rows[np.sort(first_rows(rows))]
    counts, stabs = block_differences(group, rows)
    keep = ((counts == 0) | (counts == stabs[:, None])).all(axis=1)
    return rows[keep], counts[keep] != 0


@pytest.mark.parametrize("list_name", ["sg126-1", "sg126-2", "sg126-3", "sg126-7", "sg126-8",
                                       "sg126-10", "sg126-12"])
def test_stabilized_candidates_match_every_combination(list_name):
    g = entry(f"{list_name}-1").group()
    blocks, covered = _stabilized_candidates(g)
    want_blocks, want_covered = every_combination_candidates(g)
    assert len(want_blocks)  # every sg126 group has coset-union candidates
    assert np.array_equal(blocks, want_blocks)  # the same blocks in the same order
    assert np.array_equal(covered, want_covered)


@pytest.mark.parametrize("order, mode", [(125, Mode.TRANSITIVE), (126, Mode.ONE_ROTATIONAL),
                                         (13, Mode.TRANSITIVE), (13, Mode.ONE_ROTATIONAL)])
def test_search_checks_mode_against_order(order, mode):
    g = build_group(Cyclic(order))
    stats = SearchStats()
    with pytest.raises(ModeOrderMismatch):
        next(search_families(g, mode, SearchBudget(max_nodes=10), stats=stats))
    assert stats.nodes == 0
    with pytest.raises(ModeOrderMismatch):
        complete_family(g, DifferenceFamily(mode, []))


# Recorded before the full-block scan was batched, with an element-by-element
# scan; the batched scan must count the same nodes, also where a budget cuts
# the search (ex2-4 with 500 nodes ends at 500: the ∞-block loop at the root,
# in _Searcher.run, stops as soon as a child has used up the budget, and once
# max_solutions are found it still ticks one node per remaining order-5 subgroup).
# In sg126-12-15 a full block with an involution difference s^-1 x = x^-1 s
# would be tried if it were not refused.
PINNED_FULL_BLOCK_SEARCHES = [
    # entry, removed blocks (None: keep only the first), max_nodes, max_solutions,
    # then nodes, solutions, budget_hit
    ("ex1-1", None, 4_000_000, 2, 1808010, 2, False),
    ("ex2-4", None, 4_000_000, 2, 1882448, 2, False),
    ("ex2-4", None, 500, 2, 500, 0, True),
    ("ex1-5", [1, 3], 2_000_000, 100_000, 27681, 4, False),
    ("ex1-4", [1, 2], 2_000_000, 100_000, 17632, 4, False),
    ("ex2-15", [0, 1], 2463, 10**6, 2463, 2, True),
    ("ex1-5", [2, 3], 2_000_000, 1, 5773, 1, False),
    ("sg126-12-15", [0, 1], 2_000_000, 100_000, 2305, 1, False),
]


@pytest.mark.parametrize("entry_id, removed, max_nodes, max_solutions, nodes, solutions, hit",
                         PINNED_FULL_BLOCK_SEARCHES)
def test_full_block_search_counts_pinned(entry_id, removed, max_nodes, max_solutions,
                                         nodes, solutions, hit):
    e = entry(entry_id)
    g = e.group()
    kept = (e.base_blocks[:1] if removed is None
            else [b for i, b in enumerate(e.base_blocks) if i not in removed])
    stats = SearchStats()
    fams = complete_family(g, DifferenceFamily(e.mode, kept),
                           SearchBudget(max_nodes=max_nodes, max_solutions=max_solutions), stats)
    assert (stats.nodes, stats.solutions, stats.budget_hit) == (nodes, solutions, hit)
    assert len(fams) == solutions
    for fam in fams:
        assert check_difference_family(g, fam)


def test_canonical_key_gets_what_is_left_of_the_time_limit(monkeypatch):
    z125 = emit_ex1_1(monkeypatch)
    budgets = []
    key = isomorph.canonical_key

    def recording(design, time_budget_s=600.0):
        budgets.append(time_budget_s)
        return key(design, time_budget_s)

    monkeypatch.setattr(isomorph, "canonical_key", recording)
    stats = SearchStats()
    fams = list(search_families(z125, Mode.ONE_ROTATIONAL,
                                SearchBudget(time_limit_s=1e-9), stats=stats))
    assert fams == [] and stats.budget_hit
    assert len(budgets) == 1 and budgets[0] < 1e-9
    stats = SearchStats()
    fams = list(search_families(z125, Mode.ONE_ROTATIONAL,
                                SearchBudget(time_limit_s=60.0), stats=stats))
    assert len(fams) == 1 and not stats.budget_hit
    assert len(budgets) == 2 and 0 < budgets[1] < 60.0
