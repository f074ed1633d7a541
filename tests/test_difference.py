"""Algebraic difference-family checking against the develop+verify oracle."""

import itertools

import numpy as np
import pytest
from conftest import entry
from test_search import PINNED_COMPLETIONS
from unitals.catalog import catalog_dir
from unitals.designs import DifferenceFamily, Mode, develop, resolve_family, verify_steiner
from unitals.difference import (
    block_differences,
    check_difference_family,
    quotiented_coverage,
)
from unitals.errors import IndexOutOfRange
from unitals.groups import INF, Cyclic, build_group, subgroups_of_order


def slow_differences(group, block):
    """Oracle: counts and left-stabilizer order from group.mul / group.inv alone."""
    counts = np.zeros(group.order, dtype=np.int64)
    for a in block:
        for b in block:
            if a != b:
                counts[group.mul(group.inv(b), a)] += 1
    stab = sum(all(group.mul(h, b) in set(block) for b in block)
               for h in range(group.order))
    return counts, stab


def module_counts(group, family):
    """Difference counts summed over the base blocks of the family."""
    return sum(counts for _, _, counts in quotiented_coverage(group, family)[0])


def assert_matches_oracle(group, blocks):
    counts, stabs = block_differences(group, blocks)
    assert counts.shape == (len(blocks), group.order)
    for block, row, stab in zip(blocks, counts, stabs):
        want_counts, want_stab = slow_differences(group, list(block))
        assert np.array_equal(row, want_counts), block
        assert stab == want_stab, block
    return stabs


def test_ex1_1_full_block_coverage(z125, ex1_1):
    # the four full base blocks cover every difference outside the order-5
    # subgroup exactly once; brute-force recount as the oracle
    full = [b for b in ex1_1.base_blocks if all(isinstance(x, int) for x in b)]
    fam = DifferenceFamily(Mode.ONE_ROTATIONAL, ex1_1.base_blocks)
    counts = module_counts(z125, fam)
    brute = np.zeros(125, dtype=int)
    for block in full:
        for a in block:
            for b in block:
                if a != b:
                    brute[(a - b) % 125] += 1
    h = {0, 25, 50, 75, 100}
    for d in range(1, 125):
        if d in h:
            assert brute[d] == 0
        else:
            assert brute[d] == 1
    # module counts include the ∞-block's finite part (the subgroup H)
    for d in (25, 50, 75, 100):
        assert counts[d] == brute[d] + 5


def test_duplicate_block_doubles_differences(z125):
    block = [0, 1, 3, 15, 47, 74]
    one = module_counts(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, [block]))
    two = module_counts(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, [block, list(block)]))
    assert np.array_equal(two, 2 * one)


def test_single_block_differences_in_z126():
    g = build_group(Cyclic(126))
    block = [0, 1, 3, 6, 11, 17]
    counts = module_counts(g, DifferenceFamily(Mode.TRANSITIVE, [block]))
    # oracle: enumerate the 30 ordered differences directly
    expected = np.zeros(126, dtype=int)
    for a in block:
        for b in block:
            if a != b:
                expected[(a - b) % 126] += 1
    assert np.array_equal(counts, expected)
    support = {d for d in range(126) if expected[d]}
    base = {1, 2, 3, 5, 6, 8, 10, 11, 14, 16, 17}
    assert support == base | {126 - d for d in base}
    assert counts.sum() == 30


def test_count_conservation(z125, ex1_1):
    # sum over blocks of n_finite*(n_finite - 1): 4 full blocks + one ∞-block
    assert module_counts(z125, ex1_1.family()).sum() == 4 * 30 + 5 * 4


def test_left_stabilizer(z125):
    assert block_differences(z125, [[0, 25, 50, 75, 100]])[1].tolist() == [5]
    assert block_differences(z125, [[0, 1, 3, 15, 47, 74]])[1].tolist() == [1]


def test_check_passes_catalog_family(z125, ex1_1):
    assert check_difference_family(z125, ex1_1.family()).ok


def test_check_matches_develop_verify_on_corruption(z125, ex1_1):
    blocks = [list(b) for b in ex1_1.base_blocks]
    blocks[0][5] = 73  # replace 74
    fam = DifferenceFamily(Mode.ONE_ROTATIONAL, blocks)
    chk = check_difference_family(z125, fam)
    assert not chk.ok
    assert any("over-covered" in d for d in chk.defects)
    assert any("under-covered" in d for d in chk.defects)
    assert not verify_steiner(develop(z125, fam)).is_steiner


def test_empty_family_fails(z125):
    assert not check_difference_family(
        z125, DifferenceFamily(Mode.ONE_ROTATIONAL, []))


def test_oracle_agreement_random_corruptions(z125, ex1_1):
    rng = np.random.default_rng(2024)
    base = [list(b) for b in ex1_1.base_blocks]
    for _ in range(25):
        blocks = [list(b) for b in base]
        bi = rng.integers(0, 4)
        pos = rng.integers(1, 6)
        while True:
            val = int(rng.integers(1, 125))
            if val not in blocks[bi]:
                break
        if blocks[bi][pos] == "inf" or blocks[bi][pos] is None:
            continue
        blocks[bi][pos] = val
        fam = DifferenceFamily(Mode.ONE_ROTATIONAL, blocks)
        algebraic = bool(check_difference_family(z125, fam))
        developed = verify_steiner(develop(z125, fam)).is_steiner
        assert algebraic == developed


def coverage_one_block_at_a_time(group, family):
    """The oracle for quotiented_coverage: block_differences on each base
    block alone, in family order."""
    per_block, quotiented = [], np.zeros(group.order, dtype=np.int64)
    for block in resolve_family(group, family):
        finite = [p for p in block if p != group.order]
        counts, stabs = block_differences(group, [finite])
        per_block.append((finite, int(stabs[0]), counts[0]))
        quotiented += counts[0] // stabs[0]
    return per_block, quotiented


def coverage_cases():
    """(id, group, family): every partial family of PINNED_COMPLETIONS, the
    first family of each catalog list, and ex1-1 with its ∞-block first."""
    for entry_id, removed in PINNED_COMPLETIONS:
        e = entry(entry_id)
        kept = [b for i, b in enumerate(e.base_blocks) if i != removed]
        yield f"{entry_id}-without-{removed}", e.group(), DifferenceFamily(e.mode, kept)
    for key in sorted(p.name for p in catalog_dir().iterdir()):
        e = entry(f"{key}-1")
        yield e.id, e.group(), e.family()
    e = entry("ex1-1")
    yield "ex1-1-infinity-first", e.group(), DifferenceFamily(e.mode, e.base_blocks[::-1])


def test_quotiented_coverage_matches_one_block_at_a_time():
    seen = set()
    for case, group, family in coverage_cases():
        per_block, quotiented = quotiented_coverage(group, family)
        want_blocks, want_quotiented = coverage_one_block_at_a_time(group, family)
        assert np.array_equal(quotiented, want_quotiented), case
        assert len(per_block) == len(want_blocks), case
        for (finite, stab, counts), (want_finite, want_stab, want_counts) in zip(
                per_block, want_blocks):
            assert (finite, stab) == (want_finite, want_stab), case
            assert type(stab) is int, case
            assert np.array_equal(counts, want_counts), case
        seen.update(len(finite) for finite, _, _ in per_block)
    assert seen == {5, 6}  # both block sizes, ∞-blocks among them


def test_transitive_family_with_short_orbits():
    e = entry("sg126-1-1")
    g = e.group()
    assert check_difference_family(g, e.family()).ok
    # at least one base block of this family has a non-trivial stabilizer
    stabs = [stab for _, stab, _ in quotiented_coverage(g, e.family())[0]]
    assert max(stabs) > 1


@pytest.mark.parametrize("entry_id", ["ex1-1", "ex3-1", "sg126-1-1", "sg126-12-1"])
def test_block_differences_random_blocks(entry_id):
    g = entry(entry_id).group()
    rng = np.random.default_rng(11)
    for k in (1, 2, 5, 6):
        blocks = np.array([rng.choice(g.order, size=k, replace=False) for _ in range(8)])
        assert_matches_oracle(g, blocks)


@pytest.mark.parametrize("s", [2, 3, 6])
def test_block_differences_coset_unions(s):
    # S together with 6/s - 1 further right cosets S*x is fixed by every h in S;
    # take the first such union whose stabilizer is exactly S
    g = entry("sg126-1-1").group()
    sub = sorted(subgroups_of_order(g, s)[0])
    cosets = sorted({tuple(sorted(g.mul(h, x) for h in sub)) for x in range(g.order)})
    others = [c for c in cosets if g.identity not in c]
    for extra in itertools.combinations(others, 6 // s - 1):
        block = sorted(sub + [x for c in extra for x in c])
        if slow_differences(g, block)[1] == s:
            break
    stabs = assert_matches_oracle(g, np.array([block]))
    assert stabs[0] == s


def test_block_differences_infinity_block_finite_part(z125, ex1_1):
    finite = [x for x in ex1_1.base_blocks[-1] if isinstance(x, int)]
    assert finite == [0, 25, 50, 75, 100]
    stabs = assert_matches_oracle(z125, np.array([finite]))
    assert stabs[0] == 5


def test_block_differences_empty_block(z125):
    counts, stabs = block_differences(z125, np.zeros((1, 0), dtype=int))
    assert not counts.any()
    assert stabs.tolist() == [125]


@pytest.mark.parametrize("block", [[0, 1, 125], [-1, 2, 3], [0, 10**9]])
def test_block_differences_range_checked(z125, block):
    with pytest.raises(IndexOutOfRange):
        block_differences(z125, [block])


def coset_unions(group, s):
    """Every union of an order-s subgroup S with 6 // s - 1 further right
    cosets S*x, as one (m, 6 // s * s) array: the search's stabilized
    candidates before they are filtered to the quotient-exact ones, and for
    s = 5 the finite parts of the ∞-blocks."""
    r = 6 // s - 1
    unions = []
    for sub in subgroups_of_order(group, s):
        sub = sorted(sub)
        cosets = np.unique(np.sort(group.table[sub].T, axis=1), axis=0)
        others = cosets[(cosets != group.identity).all(axis=1)]
        for extra in itertools.combinations(others, r):
            unions.append(np.concatenate([sub, *extra]))
    return np.array(unions).reshape(len(unions), r * s + s)


@pytest.mark.parametrize("list_key", sorted(p.name for p in catalog_dir().iterdir()))
def test_stabilizer_order_divides_every_difference_count(list_key):
    """h in the stabilizer S sends a pair (a, b) of B to (ha, hb), which has
    the same difference, and only e fixes a pair; so |S| divides each count
    and quotiented_coverage can divide exactly."""
    g = entry(f"{list_key}-1").group()
    rng = np.random.default_rng(5)
    blocks = [coset_unions(g, s) for s in (2, 3, 5, 6) if g.order % s == 0]
    blocks.append(np.array([rng.choice(g.order, size=6, replace=False) for _ in range(300)]))
    largest = 0
    for rows in blocks:
        counts, stabs = block_differences(g, rows)
        assert not (counts % stabs[:, None]).any()
        largest = max(largest, stabs.max())
    assert largest > 1  # some block has a stabilizer to divide by


def test_one_rotational_family_without_infinity_block(z125, ex1_1):
    full = [b for b in ex1_1.base_blocks if INF not in b]
    chk = check_difference_family(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, full))
    assert not chk.ok
    assert chk.defects[-1] == "no ∞-block: pairs {x, ∞} uncovered"
