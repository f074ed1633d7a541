"""Isomorphism decisions, automorphism orders, canonical keys."""

import numpy as np
import pytest

from conftest import assert_first_rows_match_unique, design_of, entry
from unitals import isomorph
from unitals.catalog import FINGERPRINT_SHARING_PAIRS
from unitals.designs import Design, develop, is_block_invariant, maps_blocks, relabel
from unitals.fingerprint import fingerprint, pair_histograms
from unitals.isomorph import (
    are_isomorphic,
    automorphism_generators,
    automorphism_order,
    canonical_key,
    initial_partition,
)

PAIR_A = ("sg126-8-25", "sg126-10-191")
PAIR_B = ("sg126-8-38", "sg126-10-273")


def test_relabel_is_isomorphic_with_witness(design_ex1_1):
    perm = np.random.default_rng(123).permutation(126)
    other = relabel(design_ex1_1, perm)
    res = are_isomorphic(design_ex1_1, other)
    assert res.isomorphic
    # the witness maps block sets exactly
    mapped = {tuple(sorted(res.witness[p] for p in b)) for b in design_ex1_1.blocks}
    assert mapped == set(other.blocks)


def test_iso_budget_cut_short_is_undecided(design_ex1_1):
    other = relabel(design_ex1_1, np.random.default_rng(5).permutation(126))
    res = are_isomorphic(design_ex1_1, other, time_budget_s=0.0)
    assert (res.isomorphic, res.witness, res.complete) == (False, None, False)
    assert are_isomorphic(design_ex1_1, other).complete
    # the fingerprint decides without the search, whatever the budget
    res = are_isomorphic(design_ex1_1, design_of("ex1-2"), time_budget_s=0.0)
    assert (res.isomorphic, res.complete) == (False, True)


def test_initial_partition_isolates_infinity(design_ex1_1):
    cell_ids = initial_partition(design_ex1_1)
    sizes = np.bincount(cell_ids)
    assert sorted(sizes.tolist()) == [1, 125]
    # the singleton is the fixed point ∞ (index 125)
    assert np.nonzero(cell_ids == np.argmin(sizes))[0].tolist() == [125]


def test_initial_partition_transitive_single_cell():
    d = design_of("sg126-1-1")
    assert initial_partition(d).tolist() == [0] * 126


def test_initial_partition_invariant_under_relabel(design_ex1_1):
    p1 = initial_partition(design_ex1_1)
    d2 = relabel(design_ex1_1, np.random.default_rng(9).permutation(126))
    p2 = initial_partition(d2)
    s1 = sorted(np.bincount(p1).tolist())
    s2 = sorted(np.bincount(p2).tolist())
    assert s1 == s2


def test_different_fingerprints_fast_path():
    a = design_of("ex1-1")
    b = design_of("ex1-2")
    assert fingerprint(a) != fingerprint(b)
    assert not are_isomorphic(a, b).isomorphic


@pytest.mark.parametrize("pair", [PAIR_A, PAIR_B])
def test_fingerprint_sharing_pairs_non_isomorphic(pair):
    a, b = (design_of(x) for x in pair)
    assert fingerprint(a) == fingerprint(b)
    res = are_isomorphic(a, b)
    assert not res.isomorphic
    assert canonical_key(a) != canonical_key(b)


@pytest.mark.parametrize("entry_id", [i for pair in FINGERPRINT_SHARING_PAIRS for i in pair])
def test_fingerprint_sharing_keys_relabel_stable(entry_id):
    """Non-isomorphism of these pairs rests on the key being an invariant."""
    d = fresh_design(entry_id)
    copy = relabel(d, np.random.default_rng(11).permutation(126))
    bare = Design.from_blocks(copy.blocks, 126)
    assert np.array_equal(bare.action, np.arange(126)[None])
    assert canonical_key(copy) == canonical_key(bare) == canonical_key(d)


def test_iso_witness_onto_bare_relabeled_copy():
    d = fresh_design("sg126-3-1")
    copy = relabel(d, np.random.default_rng(17).permutation(126))
    bare = Design.from_blocks(copy.blocks, 126)
    res = are_isomorphic(d, bare)
    assert res.isomorphic and res.complete
    assert maps_blocks(d, bare, res.witness)
    back = are_isomorphic(bare, d)
    assert back.isomorphic and maps_blocks(bare, d, back.witness)


def test_iso_reflexive_and_symmetric(design_ex1_1):
    assert are_isomorphic(design_ex1_1, design_ex1_1).isomorphic
    d2 = design_of("ex1-2")
    assert (are_isomorphic(design_ex1_1, d2).isomorphic
            == are_isomorphic(d2, design_ex1_1).isomorphic)


def test_automorphism_order_one_rotational(design_ex1_1):
    count = automorphism_order(design_ex1_1)
    assert count.complete
    assert count.order % 125 == 0


def test_automorphism_order_transitive():
    count = automorphism_order(design_of("sg126-1-1"))
    assert count.complete
    assert count.order % 126 == 0


def test_classical_unital_automorphisms(design_classical):
    count = automorphism_order(design_classical)
    assert count.complete
    assert count.order > 125
    # the full collineation group of the order-5 hermitian unital
    assert count.order == 756000


def test_canonical_key_relabel_stable(design_ex1_1):
    k = canonical_key(design_ex1_1)
    for seed in (1, 2):
        d2 = relabel(design_ex1_1, np.random.default_rng(seed).permutation(126))
        assert canonical_key(d2) == k


def test_canonical_key_deterministic(ex1_1):
    from unitals.designs import develop

    d1 = develop(ex1_1.group(), ex1_1.family())
    d2 = develop(ex1_1.group(), ex1_1.family())
    assert canonical_key(d1) == canonical_key(d2)


def test_canonical_key_separates_designs():
    keys = {canonical_key(design_of(i)) for i in ("ex1-1", "ex1-2", "ex1-3")}
    assert len(keys) == 3


def fresh_design(entry_id):
    """A newly developed design, with nothing cached on it."""
    e = entry(entry_id)
    return develop(e.group(), e.family())


def lexsort_rank_rows(rows):
    """Lexicographic row ranks by lexsort and boundary marks (slow oracle)."""
    order = np.lexsort(rows.T[::-1])
    sorted_rows = rows[order]
    boundaries = np.zeros(len(rows), dtype=np.int64)
    boundaries[1:] = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    ranks = np.cumsum(boundaries)
    codes = np.empty(len(rows), dtype=np.int64)
    codes[order] = ranks
    return codes, int(ranks[-1]) + 1


@pytest.mark.parametrize("shape, lo, hi, dtype", [
    ((60, 4), -3, 3, np.int64),          # negative values, many duplicates
    ((80, 1), -1000, 1000, np.int64),    # one column
    ((1, 9), 0, 5, np.int64),            # one row
    ((200, 3), 0, 300, np.int64),        # span above 255
    ((150, 5), -70000, 70000, np.int64),  # span above 65535
    ((40, 2), -2**40, 2**40, np.int64),  # span above 2^32
    ((90, 6), -100, 100, np.int8),       # span above the dtype's own range
    ((70, 3), -40000, 40000, np.int32),
    ((120, 7), 0, 2**9, np.int64),       # 7 columns of 9 bits: 63, packed
    ((120, 8), 0, 2**8, np.int64),       # 8 columns of 8 bits: 64, void view
    ((60, 1), -2**61, 2**61, np.int64),  # one column spanning close to 2^62
])
def test_rank_rows_matches_lexsort(shape, lo, hi, dtype):
    rng = np.random.default_rng(shape)
    rows = rng.integers(lo, hi, size=shape).astype(dtype)
    if shape[1] in (7, 8):  # the draw spans every bit: rows 63 and 64 bits wide
        assert int(np.ptp(rows)).bit_length() == {7: 9, 8: 8}[shape[1]]
    for rows in (rows, np.concatenate([rows, rows[::3]])):  # also with repeated rows
        got = isomorph._rank_rows(rows)
        want = lexsort_rank_rows(rows.astype(np.int64))
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert_first_rows_match_unique(rows)


def test_rank_rows_matches_lexsort_on_classical_refinement(monkeypatch):
    """Every fifth row ranking of the automorphism search of ex3-1 relabeled
    without an action, compared with the oracle as it happens.  Without the
    translations to seed it, the search ranks rows about 5,400 times; the
    search on ex3-1 itself ranks them about 500 times."""
    rank = isomorph._rank_rows
    calls = []

    def checked(rows):
        got = rank(rows)
        if len(calls) % 5 == 0:
            want = lexsort_rank_rows(rows)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        calls.append(rows.shape)
        return got

    d = bare_relabeled("ex3-1", 7)
    monkeypatch.setattr(isomorph, "_rank_rows", checked)
    assert automorphism_order(d) == (756000, True)
    assert len(calls) > 1000
    assert {cols for _, cols in calls} >= {1, 6}


def bare_relabeled(entry_id, seed):
    """A relabeled copy of the entry's design, built from its blocks alone, so
    with the identity as its only action."""
    copy = relabel(design_of(entry_id), np.random.default_rng(seed).permutation(126))
    d = Design.from_blocks(copy.blocks, 126)
    assert np.array_equal(d.action, np.arange(126)[None])
    return d


@pytest.mark.parametrize("make", [
    lambda: fresh_design("ex1-1"),
    lambda: fresh_design("sg126-1-1"),
    lambda: relabel(fresh_design("ex1-1"), np.random.default_rng(3).permutation(126)),
    lambda: bare_relabeled("ex3-1", 3),
], ids=["ex1-1", "sg126-1-1", "ex1-1-relabeled", "ex3-1-relabeled-no-action"])
def test_pair_codes_match_one_step_ranking(make):
    """The two-step pair codes equal the ranks of pairs[x, y] joined to
    pairs[y, x], all ten columns ranked at once by the lexsort oracle."""
    d = make()
    pairs = pair_histograms(d)
    sym = np.concatenate([pairs, pairs.transpose(1, 0, 2)], axis=2)
    want = lexsort_rank_rows(sym.reshape(126 * 126, -1))[0].reshape(126, 126)
    codes = isomorph._pair_codes(d)
    assert np.array_equal(codes, want)
    assert len(np.unique(codes)) > 1


# |Aut| and canonical key of one entry per list, recorded before the
# automorphism search pruned by orbits
PINNED = {
    "ex1-1": (125, "fe7a1fd8bda6995d0e5fc59ebd22073b78dcc5fa23c5c003bf2811ccc187f088"),
    "ex2-1": (125, "b7bdc4041773fd78fb5ebd2e4a05e9f5d9148a6252644c2b370598ab95387f3f"),
    "ex3-2": (3000, "fb38bd4c57f192c53ed8b8aa2f7a038d03bda61d7930951e868a2e54770af919"),
    "ex4-1": (125, "edb6ba940318f0da667cd9a1c77f5a1ab45e447186898d6096a470a1ad5ca417"),
    "ex5-1": (2000, "3bd1bf311501a161ce9f371c4ae0f73253b7604408fcf5db91c9b444eaa2f283"),
    "sg126-1-1": (126, "5474ad79376029f4508904f5dacc4be7bf7504ec1334bb8197714a3871f6d7bd"),
    "sg126-2-1": (126, "10233e960ec36b548d6e2ad34a1b8f065b04fe84a471bbef3be2d9c4c363caf0"),
    "sg126-3-1": (126, "4209ce6e8218e4cab3946ddc76a60b7f2d8765e158a86433b17f58a8aa9d46b1"),
    "sg126-7-1": (126, "3402b0ea8a64eca3fc89e4d2ee286d159d16dc07f753eb793d07c9d2ca4c77b2"),
    "sg126-8-1": (126, "e44c771423152d1f3c9c00c632fc13003361a3b0cb325340da79780aa3a13798"),
    "sg126-10-1": (126, "d2f8027834584906dcd525ad5f72744901c1bb0fc34baf760ab8386a790177b2"),
    "sg126-12-1": (126, "fd45f11cc099045720a0373da1607631de774ba8e427bdd50718666850424ced"),
}
CLASSICAL_KEY = b"fc481aff51f1834e17b92865d577ca191ceed2df38e941efafc3b7f60cc4affe"


@pytest.mark.parametrize("entry_id", sorted(PINNED))
def test_aut_order_and_key_pinned(entry_id):
    d = fresh_design(entry_id)
    count, gens = automorphism_generators(d)
    order, key = PINNED[entry_id]
    assert count == (order, True)
    assert canonical_key(d) == key.encode()
    assert gens and all(is_block_invariant(d, g) for g in gens)


def test_classical_unital_relabeled_has_full_group():
    """Relabeled blocks without an action leave no translations to seed with."""
    d = bare_relabeled("ex3-1", 7)
    count, gens = automorphism_generators(d)
    assert count == (756000, True)
    assert all(is_block_invariant(d, g) for g in gens)
    assert canonical_key(d) == CLASSICAL_KEY
    assert d._cache["aut_stats"] == {"refines": 794, "leaves": 750, "orbit_skips": 1672,
                                     "chain_skips": 0}


def group_closure(gens, n):
    """Every product of the generators, by breadth-first search (slow oracle)."""
    gens = np.asarray(gens, dtype=np.int64)
    frontier = np.arange(n)[None]
    elements = {frontier[0].tobytes(): frontier[0]}
    while len(frontier):
        products = frontier[:, gens].reshape(-1, n)  # x∘g for each x and g
        fresh = {}
        for p in products:
            key = p.tobytes()
            if key not in elements:
                elements[key] = fresh[key] = p
        frontier = np.array(list(fresh.values())).reshape(-1, n)
    return np.array(list(elements.values()))


@pytest.mark.parametrize("entry_id", ["ex3-2", "ex5-1"])
def test_chain_orbits_match_the_closed_group(entry_id):
    """The returned generators close to a group of the reported order, and
    the chain's stabilizer of every prefix of the first path has the orbits
    of that group's pointwise stabilizer of the prefix."""
    d = fresh_design(entry_id)
    count, gens = automorphism_generators(d)
    group = group_closure(gens, 126)
    assert count == (len(group), True) == (PINNED[entry_id][0], True)
    base, strong = d._cache["aut_chain"]
    for k in range(len(base) + 1):
        prefix = list(base[:k])
        stabilizer = group[(group[:, prefix] == prefix).all(axis=1)]
        for p in range(126):
            want = np.zeros(126, dtype=bool)
            want[stabilizer[:, p]] = True
            got = isomorph._orbit_under_stabilizer(p, tuple(prefix), strong, 126)
            assert np.array_equal(got, want), (k, p)


def test_chain_not_consulted_where_it_cannot_prune():
    """Below ex3-4's root, when the path filter first fails only the
    translations are known, and they fix no point of the path."""
    d = fresh_design("ex3-4")
    assert automorphism_generators(d)[0] == (250, True)
    assert d._cache["aut_stats"]["chain_skips"] == 0
    assert "aut_chain" not in d._cache


def test_generators_are_the_same_on_every_run():
    runs = [automorphism_generators(fresh_design("ex3-1"))[1] for _ in range(2)]
    assert len(runs[0]) == len(runs[1])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_relabeled_action_seeds_from_its_largest_orbit():
    perm = (np.arange(126) + 1) % 126  # ∞ becomes point 0, a one-point orbit
    d = relabel(fresh_design("ex3-1"), perm)
    assert perm[125] == 0
    assert isomorph._translation_seeds(d)
    count, gens = automorphism_generators(d)
    assert count == (756000, True)
    assert canonical_key(d) == CLASSICAL_KEY


def test_corrupted_action_row_is_not_used():
    d = fresh_design("ex3-2")
    row = int(np.nonzero(d.action[:, 0] != 0)[0][0])  # the first row the seeding takes
    a, b = d.action[row, 1], d.action[row, 2]
    d.action = d.action.copy()
    d.action[row, 1], d.action[row, 2] = b, a
    assert not is_block_invariant(d, d.action[row])
    count, gens = automorphism_generators(d)
    assert count == (3000, True)
    assert all(is_block_invariant(d, g) for g in gens)


def test_aut_zero_budget_is_a_lower_bound():
    d = fresh_design("ex1-1")
    count = automorphism_order(d, time_budget_s=0.0)
    assert not count.complete and count.order >= 1
    assert "aut_group" not in d._cache
    assert automorphism_order(d) == (125, True)


def test_canonical_key_zero_budget_raises_and_caches_nothing():
    d = fresh_design("ex3-1")
    with pytest.raises(TimeoutError):
        canonical_key(d, time_budget_s=0.0)
    assert "canonical_key" not in d._cache
    assert canonical_key(d) == CLASSICAL_KEY
    # one complete search caches both results
    assert d._cache["aut_group"][0] == (756000, True)


def _refine_raises(*args):
    raise AssertionError("searched again")


@pytest.mark.parametrize("first", [canonical_key, automorphism_generators],
                         ids=["key-first", "aut-first"])
def test_one_search_caches_both_results(monkeypatch, first):
    d = fresh_design("ex2-1")
    first(d)
    monkeypatch.setattr(isomorph, "_refine", _refine_raises)
    assert automorphism_generators(d)[0] == (125, True)
    assert canonical_key(d) == PINNED["ex2-1"][1].encode()


def test_search_cut_by_its_deadline_caches_neither(monkeypatch):
    d = fresh_design("ex3-1")
    checks = []

    def deadline_passes_mid_search(deadline):
        checks.append(deadline)
        if len(checks) > 50:
            raise TimeoutError

    monkeypatch.setattr(isomorph, "_check_deadline", deadline_passes_mid_search)
    count = automorphism_order(d)
    assert not count.complete and 1 < count.order < 756000
    assert 756000 % count.order == 0  # the stabilizer of a first-path prefix
    assert "aut_group" not in d._cache and "canonical_key" not in d._cache
    monkeypatch.undo()
    assert automorphism_order(d) == (756000, True)


@pytest.mark.parametrize("ids", [FINGERPRINT_SHARING_PAIRS[0], ("ex2-1", None)],
                         ids=["non-isomorphic", "relabeled"])
def test_iso_leaves_both_searches_cached(monkeypatch, ids):
    a = fresh_design(ids[0])
    b = (fresh_design(ids[1]) if ids[1]
         else relabel(fresh_design(ids[0]), np.random.default_rng(3).permutation(126)))
    assert are_isomorphic(a, b).isomorphic == (ids[1] is None)
    monkeypatch.setattr(isomorph, "_refine", _refine_raises)
    for d in (a, b):
        assert automorphism_generators(d)[0].complete
        canonical_key(d)
    assert are_isomorphic(a, b).isomorphic == (ids[1] is None)
