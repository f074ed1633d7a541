"""Isomorphism decisions, automorphism orders, canonical keys."""

import numpy as np
import pytest

from conftest import design_of
from unitals.designs import relabel
from unitals.fingerprint import fingerprint
from unitals.isomorph import (
    are_isomorphic,
    automorphism_order,
    canonical_key,
    initial_partition,
    left_translations_are_automorphisms,
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
    p = initial_partition(design_ex1_1)
    sizes = sorted(np.bincount(p.cell_ids, minlength=p.n_cells).tolist())
    assert sizes == [1, 125]
    # the singleton is the fixed point ∞ (index 125)
    singleton_cell = [c for c in range(p.n_cells)
                      if (p.cell_ids == c).sum() == 1][0]
    assert int(np.nonzero(p.cell_ids == singleton_cell)[0][0]) == 125


def test_initial_partition_transitive_single_cell():
    d = design_of("sg126-1-1")
    p = initial_partition(d)
    assert p.n_cells == 1


def test_initial_partition_invariant_under_relabel(design_ex1_1):
    p1 = initial_partition(design_ex1_1)
    d2 = relabel(design_ex1_1, np.random.default_rng(9).permutation(126))
    p2 = initial_partition(d2)
    s1 = sorted(np.bincount(p1.cell_ids).tolist())
    s2 = sorted(np.bincount(p2.cell_ids).tolist())
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


def test_left_translations_are_automorphisms(ex1_1, design_ex1_1):
    assert left_translations_are_automorphisms(
        design_ex1_1, ex1_1.group(), one_rotational=True)


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
