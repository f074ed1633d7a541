"""Fingerprint kernel, output format, point histograms."""

import numpy as np
import pytest

from conftest import design_of, entry
from unitals import fingerprint as fp_module
from unitals import isomorph
from unitals.designs import Design, Mode, develop, relabel
from unitals.errors import NotASteinerSystem
from unitals.fingerprint import (
    TOTAL_QUADRUPLES,
    Fingerprint,
    fingerprint,
    format_fingerprint,
    pair_histograms,
    point_histograms,
)


def test_classical_unital_fingerprint(design_classical):
    assert format_fingerprint(fingerprint(design_classical)) == "{4=7560000}"


def test_ex1_1_fingerprint(design_ex1_1):
    assert format_fingerprint(fingerprint(design_ex1_1)) == \
        "{1=25000, 2=580500, 3=3042000, 4=3912500}"


def test_total_invariant(design_ex1_1, design_classical):
    for d in (design_ex1_1, design_classical):
        assert fingerprint(d).total == TOTAL_QUADRUPLES


def test_key_range(design_ex1_1):
    assert all(0 <= k <= 4 for k, _ in fingerprint(design_ex1_1).items)


def test_relabeling_invariance(design_ex1_1):
    fp = fingerprint(design_ex1_1)
    for seed in (0, 1):
        perm = np.random.default_rng(seed).permutation(126)
        assert fingerprint(relabel(design_ex1_1, perm)) == fp


def test_rejects_non_steiner(z125, ex1_1):
    from unitals.designs import Design

    d = design_of("ex1-1")
    broken = Design.from_blocks(d.blocks[:-1], 126)
    with pytest.raises(NotASteinerSystem):
        fingerprint(broken)


def test_point_profile_classical(design_classical):
    hist = point_histograms(design_classical)
    assert hist.shape == (126, 5)
    assert (hist == [0, 0, 0, 0, 60000]).all()


def test_point_profile_sums_to_global(design_ex1_1):
    totals = point_histograms(design_ex1_1).sum(axis=0)
    assert Fingerprint.from_dict(dict(enumerate(totals.tolist()))) == fingerprint(design_ex1_1)


def test_transitive_profiles_identical():
    hist = point_histograms(design_of("sg126-1-1"))
    assert (hist == hist[0]).all()


FORMATTED = [
    ({4: 7560000}, "{4=7560000}"),
    ({0: 1250, 1: 42000, 2: 635250, 3: 2987500, 4: 3894000},
     "{0=1250, 1=42000, 2=635250, 3=2987500, 4=3894000}"),
    ({}, "{}"),
    ({3: 3042000, 1: 25000, 0: 0, 4: 3912500, 2: 580500},  # unsorted, a zero frequency
     "{1=25000, 2=580500, 3=3042000, 4=3912500}"),
]


@pytest.mark.parametrize("counts, text", FORMATTED, ids=[text for _, text in FORMATTED])
def test_format_fingerprint(counts, text):
    assert format_fingerprint(Fingerprint.from_dict(counts)) == text


#: one fixed entry of each catalog list (both modes, every group family) and
#: both fingerprint-sharing pairs
ORBIT_GATE = ["ex1-3", "ex2-5", "ex3-2", "ex4-3", "ex5-2", "sg126-1-2", "sg126-2-7",
              "sg126-3-1", "sg126-7-2", "sg126-8-4", "sg126-10-10", "sg126-12-3",
              "sg126-8-25", "sg126-10-191", "sg126-8-38", "sg126-10-273"]


@pytest.fixture
def kernel_origins(monkeypatch):
    """Records how many origins each kernel call computes."""
    calls = []
    kernel = fp_module._kernel_rows

    def counting(design, origins):
        calls.append(len(origins))
        return kernel(design, origins)

    monkeypatch.setattr(fp_module, "_kernel_rows", counting)
    return calls


@pytest.mark.parametrize("entry_id", ORBIT_GATE)
def test_orbit_path_equals_full_kernel(entry_id, kernel_origins):
    e = entry(entry_id)
    developed = develop(e.group(), e.family())
    fast = pair_histograms(developed)
    full = pair_histograms(Design.from_blocks(developed.blocks, 126))
    one_rotational = e.mode is Mode.ONE_ROTATIONAL  # orbits: G and {∞}
    assert kernel_origins == [2 if one_rotational else 1, 126]
    assert fast.dtype == full.dtype
    assert np.array_equal(fast, full)


@pytest.mark.parametrize("entry_id", ["ex1-1", "sg126-1-1"])
def test_relabeled_copy_takes_full_kernel(entry_id, kernel_origins):
    """A relabeled copy keeps the conjugated action and takes the orbit path;
    the same blocks without an action take the full kernel, to equal rows."""
    d = design_of(entry_id)
    perm = np.random.default_rng(7).permutation(126)
    copy = relabel(d, perm)
    moved = np.empty_like(pair_histograms(d))
    moved[perm[:, None], perm[None, :]] = pair_histograms(d)
    assert np.array_equal(pair_histograms(copy), moved)
    assert kernel_origins[-1] == (2 if entry(entry_id).mode is Mode.ONE_ROTATIONAL else 1)
    bare = Design.from_blocks(copy.blocks, 126)
    assert np.array_equal(pair_histograms(bare), moved)
    assert kernel_origins[-1] == 126
    assert fingerprint(copy) == fingerprint(d)


def _pair_histogram_row(design, o):
    """Row o of the pair histograms counted from the definition, from the
    blocks and line_of alone: [y, c] is the number of quadruples (o, x, y, p)
    for which c points u of line oy other than o and y have line pu
    disjoint from line ox."""
    lines = [set(b) for b in design.blocks]
    line_of = design.line_of.tolist()
    row = np.zeros((design.n_points, 5), dtype=np.int64)
    for y in range(design.n_points):
        if y == o:
            continue
        us = lines[line_of[o][y]] - {o, y}
        for x in range(design.n_points):
            if x in (o, y) or line_of[o][x] == line_of[o][y]:
                continue
            line_ox = lines[line_of[o][x]]
            for p in lines[line_of[x][y]] - {x, y}:
                row[y, sum(lines[line_of[p][u]].isdisjoint(line_ox) for u in us)] += 1
    return row


@pytest.mark.parametrize("entry_id, origin, bare", [
    ("ex1-1", 0, False), ("ex1-1", 125, False),  # the one-rotational kernel origins 0, ∞
    ("sg126-1-1", 0, False),  # the transitive kernel origin
    ("ex1-1", 40, False), ("sg126-1-1", 77, False),  # rows gathered through the transversal
    ("ex1-1", 40, True),  # a relabeled copy without an action: every origin is a kernel origin
])
def test_pair_histogram_row_matches_definition(entry_id, origin, bare):
    d = design_of(entry_id)
    if bare:
        perm = np.random.default_rng(11).permutation(126)
        d = Design.from_blocks(relabel(d, perm).blocks, 126)
    assert np.array_equal(pair_histograms(d)[origin], _pair_histogram_row(d, origin))


@pytest.mark.parametrize("make", [
    lambda: design_of("sg126-1-1"),
    lambda: relabel(design_of("ex1-1"), np.random.default_rng(5).permutation(126)),
    lambda: Design.from_blocks(design_of("ex1-1").blocks, 126),
], ids=["developed", "relabeled", "bare"])
def test_point_histograms_sum_the_pair_histograms(make):
    d = make()
    assert np.array_equal(point_histograms(d), pair_histograms(d).sum(axis=1))



def _two_d_gather(design, rows):
    """rows[rep[:, None], back]: the table over point pairs whose rows at the
    orbit representatives of the design's action are rows, gathered in two
    dimensions through back, the inverse of an action row g with g*rep = x
    in each row x (the transversal's former form)."""
    action = design.action
    n = design.n_points
    least = action.min(axis=0)
    reps, rep = np.unique(least, return_inverse=True)
    g = np.argmax(action[:, least] == np.arange(n), axis=0)
    back = np.empty((n, n), dtype=np.intp)
    back[np.arange(n)[:, None], action[g]] = np.arange(n)
    return reps, rows[rep[:, None], back]


@pytest.mark.parametrize("make", [
    lambda: develop(entry("ex1-1").group(), entry("ex1-1").family()),
    lambda: develop(entry("sg126-1-1").group(), entry("sg126-1-1").family()),
    lambda: relabel(design_of("ex1-1"), np.random.default_rng(9).permutation(126)),
    lambda: Design.from_blocks(design_of("sg126-1-1").blocks, 126),
], ids=["ex1-1", "sg126-1-1", "relabeled", "bare"])
def test_flat_transversal_index_matches_two_d_gather(make):
    """pair_histograms and the pair codes, filled by one np.take through the
    transversal's flat index, equal the two-dimensional gather of the same
    representative rows."""
    d = make()
    reps, rep, at = fp_module.transversal(d)
    want_reps, want = _two_d_gather(d, fp_module._kernel_rows(d, reps))
    assert np.array_equal(reps, want_reps)
    assert np.array_equal(pair_histograms(d), want)
    n = d.n_points
    half, _ = isomorph._rank_rows(want[reps].reshape(len(reps) * n, -1))
    _, half = _two_d_gather(d, half.reshape(len(reps), n))
    codes, _ = isomorph._rank_rows(np.stack([half[reps], half[:, reps].T], axis=2).reshape(-1, 2))
    _, codes = _two_d_gather(d, codes.reshape(len(reps), n))
    assert np.array_equal(isomorph._pair_codes(d), codes)
