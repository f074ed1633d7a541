"""Difference-family search: completion, budgets, canonical pruning."""

import dataclasses

import pytest

from conftest import emit_ex1_1, entry
from unitals import catalog, isomorph, search
from unitals.designs import Mode, develop, verify_steiner
from unitals.difference import check_difference_family
from unitals.errors import InconsistentPartial, ModeOrderMismatch, UnsupportedCanonicalization
from unitals.groups import INF, Cyclic, build_group
from unitals.isomorph import canonical_key
from unitals.search import (
    PartialFamily,
    SearchBudget,
    SearchStats,
    _stabilized_candidates,
    complete_family,
    search_families,
)


def full_blocks(e):
    return [b for b in e.base_blocks if not any(x is INF for x in b)]


def test_completion_recovers_infinity_block(z125, ex1_1):
    partial = PartialFamily(Mode.ONE_ROTATIONAL, full_blocks(ex1_1))
    stats = SearchStats()
    fams = complete_family(z125, partial, SearchBudget(max_nodes=10**6), stats)
    assert stats.nodes < 10**6 and not stats.budget_hit
    assert len(fams) == 1
    last = fams[0].base_blocks[-1]
    assert last[:5] == [0, 25, 50, 75, 100] and last[5] is INF
    assert verify_steiner(develop(z125, fams[0])).is_steiner


def test_completion_of_complete_family_returns_itself(z125, ex1_1):
    stats = SearchStats()
    fams = complete_family(z125, PartialFamily(Mode.ONE_ROTATIONAL, ex1_1.base_blocks),
                           SearchBudget(), stats)
    assert len(fams) == 1
    assert fams[0].base_blocks == ex1_1.base_blocks


def test_inconsistent_partial_rejected(z125, ex1_1):
    blocks = full_blocks(ex1_1)
    doubled = blocks + [blocks[0]]
    with pytest.raises(InconsistentPartial):
        complete_family(z125, PartialFamily(Mode.ONE_ROTATIONAL, doubled))


@pytest.mark.parametrize("j", range(1, 9))
def test_one_block_removed_recovers(j, z125):
    e = entry(f"ex1-{j}")
    partial_blocks = [b for i, b in enumerate(e.base_blocks) if i != 1]
    stats = SearchStats()
    fams = complete_family(z125, PartialFamily(Mode.ONE_ROTATIONAL, partial_blocks),
                           SearchBudget(max_nodes=10**6), stats)
    assert not stats.budget_hit
    assert fams
    for fam in fams:
        assert check_difference_family(z125, fam)
        assert verify_steiner(develop(z125, fam)).is_steiner


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


def test_canonicalize_requires_abelian():
    g = entry("sg126-1-1").group()
    with pytest.raises(UnsupportedCanonicalization):
        list(search_families(g, Mode.TRANSITIVE, SearchBudget(max_nodes=10)))


def test_seeded_rediscovery_matches_catalog(z125, ex1_1):
    """Completions from one catalog block land on catalog designs (up to iso).

    A from-scratch run needs > 3e8 nodes before the first solution, so the
    rediscovery check seeds the first base block and searches the rest.
    """
    partial = PartialFamily(Mode.ONE_ROTATIONAL, ex1_1.base_blocks[:1])
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
                           PartialFamily(Mode.ONE_ROTATIONAL,
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
    partial = PartialFamily(Mode.TRANSITIVE, e.base_blocks[:-1])
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
    partial = PartialFamily(Mode.TRANSITIVE,
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
    complete_family(searched, PartialFamily(Mode.TRANSITIVE, e.base_blocks))  # fills the cache
    assert "candidates_by_delta" in searched._cache
    monkeypatch.setattr(catalog, "_group_cache", {})
    fresh = e.group()
    assert fresh is not searched and not fresh._cache
    partial = PartialFamily(Mode.TRANSITIVE,
                            [b for i, b in enumerate(e.base_blocks) if i != removed])
    for g in (searched, fresh):
        stats = SearchStats()
        fams = complete_family(g, partial, SearchBudget(max_nodes=200_000), stats)
        assert (stats.nodes, stats.solutions, stats.budget_hit) == (nodes, solutions, False)
        assert [f.base_blocks for f in fams] == completions


def test_stabilized_candidates_built_once_per_group(monkeypatch):
    g = entry("sg126-10-1").group()
    cands = _stabilized_candidates(g)

    def no_build(*args):
        raise AssertionError("search tables rebuilt")

    monkeypatch.setattr(search, "subgroups_of_order", no_build)
    monkeypatch.setattr(search, "block_differences", no_build)
    assert _stabilized_candidates(g) is cands
    e = entry("sg126-10-5")
    assert complete_family(g, PartialFamily(Mode.TRANSITIVE, e.base_blocks))


def test_searched_group_still_equals_its_copy():
    e = entry("sg126-12-41")
    g = dataclasses.replace(e.group())  # shares the table, not the cache
    copy = dataclasses.replace(g)
    complete_family(g, PartialFamily(Mode.TRANSITIVE, e.base_blocks))
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
    fams = complete_family(e.group(), PartialFamily(e.mode, kept),
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
    cands = _stabilized_candidates(entry(entry_id).group())
    assert len(cands) == count
    assert [c.block for c in cands[:3]] + [cands[-1].block] == head + [last]
    assert all(c.covered.sum() == 5 for c in cands[:3])


@pytest.mark.parametrize("order, mode", [(125, Mode.TRANSITIVE), (126, Mode.ONE_ROTATIONAL),
                                         (13, Mode.TRANSITIVE), (13, Mode.ONE_ROTATIONAL)])
def test_search_checks_mode_against_order(order, mode):
    g = build_group(Cyclic(order))
    stats = SearchStats()
    with pytest.raises(ModeOrderMismatch):
        next(search_families(g, mode, SearchBudget(max_nodes=10), stats=stats))
    assert stats.nodes == 0
    with pytest.raises(ModeOrderMismatch):
        complete_family(g, PartialFamily(mode, []))


# Recorded before the full-block scan was batched, with an element-by-element
# scan; the batched scan must count the same nodes, also where a budget cuts
# the search (ex2-4 with 500 nodes ends at 500: the ∞-block loop returns as
# soon as its child has used up the budget).  In sg126-12-15 a full block with
# an involution difference s^-1 x = x^-1 s would be tried if it were not refused.
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
    fams = complete_family(g, PartialFamily(e.mode, kept),
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
