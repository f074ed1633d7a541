"""Development, Steiner verification, relabeling."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import design_of, entry
from unitals.designs import (
    Design,
    DifferenceFamily,
    Mode,
    develop,
    develop_blocks,
    first_rows,
    is_block_invariant,
    line_through,
    maps_blocks,
    relabel,
    resolve_family,
    translation_permutation,
    verify_steiner,
)
from unitals.errors import ModeOrderMismatch, NotAPermutation, SamePoint, SchemaError
from unitals.groups import INF, Cyclic, build_group


def test_develop_ex1_1_block_count(design_ex1_1):
    assert design_ex1_1.block_count == 525
    assert design_ex1_1.n_points == 126
    assert design_ex1_1.labels[125] is INF


def test_develop_trivial_group_single_block():
    g = build_group(Cyclic(1))
    d = develop_blocks(g, [[0]])
    assert d.blocks == ((0,),)


def test_develop_full_block_single_orbit():
    g = build_group(Cyclic(6))
    d = develop_blocks(g, [[0, 1, 2, 3, 4, 5]])
    assert d.blocks == ((0, 1, 2, 3, 4, 5),)


def test_infinity_block_alone_develops_to_25_blocks(z125):
    fam_blocks = [[0, 25, 50, 75, 100, INF]]
    d = develop(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, fam_blocks))
    # independent oracle: enumerate the 125 translates and deduplicate
    translates = {
        tuple(sorted((g + b) % 125 for b in (0, 25, 50, 75, 100))) + (125,)
        for g in range(125)
    }
    assert d.block_count == len(translates) == 25
    assert set(d.blocks) == translates


def test_mode_order_mismatch(z125):
    with pytest.raises(ModeOrderMismatch):
        develop(z125, DifferenceFamily(Mode.TRANSITIVE, [[0, 1, 2, 3, 4, 5]]))


def test_family_validation():
    with pytest.raises(SchemaError):
        DifferenceFamily(Mode.TRANSITIVE, [[0, 1, 2, 3, 4]])  # short block
    with pytest.raises(SchemaError):
        DifferenceFamily(Mode.TRANSITIVE, [[0, 1, 2, 3, 4, 4]])  # repeat
    with pytest.raises(SchemaError):
        DifferenceFamily(Mode.TRANSITIVE, [[0, 1, 2, 3, 4, INF]])  # ∞ needs 1-rotational


def test_verify_ex1_1_is_steiner(design_ex1_1):
    report = verify_steiner(design_ex1_1)
    assert report.is_steiner
    assert report.block_count == 525
    assert not report.pair_coverage_defects


def test_verify_one_block_deleted_leaves_15_pairs(design_ex1_1):
    from unitals.designs import Design

    shrunk = Design.from_blocks(design_ex1_1.blocks[1:], 126, design_ex1_1.labels)
    report = verify_steiner(shrunk)
    assert not report.is_steiner
    assert len(report.pair_coverage_defects) == 15
    assert all(count == 0 for _, count in report.pair_coverage_defects)


def test_verify_corrupted_family(z125, ex1_1):
    blocks = [list(b) for b in ex1_1.base_blocks]
    assert blocks[0][5] == 74
    blocks[0][5] = 73
    d = develop(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, blocks))
    assert not verify_steiner(d).is_steiner


def test_line_through(design_ex1_1):
    d = design_ex1_1
    b0 = d.blocks[0]
    idx = line_through(d, b0[0], b0[3])
    assert d.blocks[idx] == b0
    assert line_through(d, 7, 3) == line_through(d, 3, 7)
    with pytest.raises(SamePoint):
        line_through(d, 5, 5)


def test_line_through_exhaustive_cross_check(design_ex1_1):
    d = design_ex1_1
    for p in range(126):
        for q in range(p + 1, 126):
            b = d.blocks[line_through(d, p, q)]
            assert p in b and q in b


def test_relabel_identity(design_ex1_1):
    same = relabel(design_ex1_1, list(range(126)))
    assert same.blocks == design_ex1_1.blocks


def test_relabel_preserves_steiner_and_inverts(design_ex1_1):
    rng = np.random.default_rng(42)
    perm = rng.permutation(126)
    d2 = relabel(design_ex1_1, perm)
    assert verify_steiner(d2).is_steiner
    inv = np.empty(126, dtype=np.int64)
    inv[perm] = np.arange(126)
    assert relabel(d2, inv).blocks == design_ex1_1.blocks
    with pytest.raises(NotAPermutation):
        relabel(design_ex1_1, [0] * 126)


@pytest.mark.parametrize("entry_id", ["ex1-1", "ex2-3", "ex4-2"])
def test_group_invariance_under_left_translations(entry_id):
    e = entry(entry_id)
    g = e.group()
    d = design_of(entry_id)
    for x in range(0, g.order, 7):
        perm = translation_permutation(g, x, one_rotational=True)
        assert is_block_invariant(d, perm)


def test_develop_deterministic(z125, ex1_1):
    d1 = develop(z125, ex1_1.family())
    d2 = develop(z125, ex1_1.family())
    assert d1.blocks == d2.blocks


def test_orbit_sizes_divide_group_order(z125, ex1_1):
    # multiset of orbit sizes divides |G| and sums to 525
    total = 0
    for base in ex1_1.family().base_blocks:
        d = develop(z125, DifferenceFamily(Mode.ONE_ROTATIONAL, [base]))
        assert 125 % d.block_count == 0
        total += d.block_count
    assert total == 525


def _pairwise_reference(design):
    """Pure-Python line_of (first block wins) and pair coverage counts."""
    n = design.n_points
    line_of = np.full((n, n), -1, dtype=np.int32)
    coverage = Counter()
    for i, b in enumerate(design.blocks):
        for p, q in combinations(b, 2):
            coverage[p, q] += 1
            if line_of[p, q] == -1:
                line_of[p, q] = line_of[q, p] = i
    defects = [((p, q), coverage[p, q]) for p, q in combinations(range(n), 2)
               if coverage[p, q] != 1]
    return line_of, defects


def _malformed_designs():
    ex1 = entry("ex1-1")
    d = design_of("ex1-1")
    blocks = [list(b) for b in ex1.base_blocks]
    blocks[0][5] = 73
    return {
        "shrunk": (Design.from_blocks(d.blocks[1:], 126, d.labels), 15, 0),
        "corrupted": (develop(ex1.group(), DifferenceFamily(Mode.ONE_ROTATIONAL, blocks)),
                      1000, 0),
        "duplicates": (Design.from_blocks(list(d.blocks) + [d.blocks[3], d.blocks[7]],
                                          126, d.labels), 30, 2),
        "single": (develop_blocks(build_group(Cyclic(1)), [[0]]), 0, 0),
        "ragged": (develop_blocks(build_group(Cyclic(7)), [[0], [0, 1, 3], [0, 1]]), 7, 0),
    }


@pytest.mark.parametrize("name", ["shrunk", "corrupted", "duplicates", "single", "ragged"])
def test_incidence_layer_on_malformed_designs(name):
    design, n_defects, n_duplicates = _malformed_designs()[name]
    line_of, defects = _pairwise_reference(design)
    assert np.array_equal(design.line_of, line_of)
    report = verify_steiner(design)
    assert not report.is_steiner
    assert report.pair_coverage_defects == defects
    assert len(defects) == n_defects
    assert report.duplicate_blocks == n_duplicates


def test_only_developed_designs_carry_the_action(design_ex1_1, z125):
    action = design_ex1_1.action
    assert action.shape == (125, 126)
    assert np.array_equal(action[:, :125], z125.table)
    assert (action[:, 125] == 125).all()
    assert Design.from_blocks(design_ex1_1.blocks, 126).action is None
    # a relabeled copy carries the conjugated action: perm . a . perm^-1
    perm = np.random.default_rng(3).permutation(126)
    inverse = np.argsort(perm)
    copy = relabel(design_ex1_1, perm)
    assert copy.action.shape == action.shape
    for row, a in zip(copy.action, action):
        assert np.array_equal(row, perm[a][inverse])
        assert is_block_invariant(copy, row)


def _lexsort_maps(a, b, perm):
    """The former block-image check: sort each mapped block, lexsort the
    rows, compare with b's sorted block array."""
    mapped = np.sort(np.asarray(perm)[np.asarray(a.blocks)], axis=1)
    return np.array_equal(mapped[np.lexsort(mapped.T[::-1])], np.asarray(b.blocks))


@pytest.mark.parametrize("name", ["ex1-1", "shrunk", "duplicates"])
def test_block_image_agrees_with_lexsort_oracle(name):
    d = design_of("ex1-1") if name == "ex1-1" else _malformed_designs()[name][0]
    rng = np.random.default_rng(11)
    translations = design_of("ex1-1").action[::25].astype(np.int64)
    perms = [np.arange(126), *translations, *(rng.permutation(126) for _ in range(20))]
    verdicts = []
    for perm in perms:
        verdicts.append(is_block_invariant(d, perm))
        assert verdicts[-1] == _lexsort_maps(d, d, perm)
        copy = relabel(d, perm)
        assert maps_blocks(d, copy, perm) and _lexsort_maps(d, copy, perm)
        assert maps_blocks(copy, d, perm) == _lexsort_maps(copy, d, perm)
    assert verdicts[0] and not all(verdicts)


def test_ragged_design_relabels_and_maps_like_tuples():
    d = _malformed_designs()["ragged"][0]  # blocks of 1, 2 and 3 points on Z_7
    assert d.block_rows.shape == (len(d.blocks), 3)
    perm = np.random.default_rng(2).permutation(7)
    copy = relabel(d, perm)
    assert list(copy.blocks) == sorted(tuple(sorted(int(perm[p]) for p in b)) for b in d.blocks)
    assert np.array_equal(copy.line_of, _pairwise_reference(copy)[0])
    for q in [perm, np.roll(perm, 1), np.arange(7)]:
        image = sorted(tuple(sorted(int(q[p]) for p in b)) for b in d.blocks)
        assert maps_blocks(d, copy, q) == (image == list(copy.blocks))
    assert all(is_block_invariant(d, row) for row in d.action)


LIST_HEADS = [f"{name}-1" for name in ("ex1", "ex2", "ex3", "ex4", "ex5", "sg126-1", "sg126-2",
                                       "sg126-3", "sg126-7", "sg126-8", "sg126-10", "sg126-12")]


def _assert_first_rows_match_unique(rows):
    first = first_rows(rows)
    unique, index = np.unique(rows, axis=0, return_index=True)
    assert np.array_equal(rows[first], unique)
    assert np.array_equal(first, index)  # the first of equal rows


@pytest.mark.parametrize("name", LIST_HEADS + ["shrunk", "duplicates", "ragged"])
def test_first_rows_agrees_with_numpy_unique(name):
    rng = np.random.default_rng(5)
    if name in LIST_HEADS:
        e, d = entry(name), design_of(name)
        base = resolve_family(e.group(), e.family())
        rows = np.concatenate([np.sort(d.action[:, b], axis=1) for b in base])
        assert np.array_equal(d.block_rows, np.unique(rows, axis=0))
    else:
        rows = _malformed_designs()[name][0].block_rows
    _assert_first_rows_match_unique(rows)
    _assert_first_rows_match_unique(rows[rng.permutation(len(rows))])
