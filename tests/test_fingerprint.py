"""Fingerprint kernel, text format, point profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import design_of, entry
from unitals import fingerprint as fp_module
from unitals.designs import Mode, develop, relabel
from unitals.errors import DuplicateKey, NotASteinerSystem, ParseError
from unitals.fingerprint import (
    TOTAL_QUADRUPLES,
    Fingerprint,
    fingerprint,
    format_fingerprint,
    pair_histograms,
    parse_fingerprint,
    point_profile,
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
    broken = Design.from_blocks(d.blocks[:-1], 126, d.labels)
    with pytest.raises(NotASteinerSystem):
        fingerprint(broken)


def test_point_profile_classical(design_classical):
    profiles = point_profile(design_classical)
    assert len(profiles) == 126
    assert all(p.as_dict() == {4: 60000} for p in profiles)


def test_point_profile_sums_to_global(design_ex1_1):
    profiles = point_profile(design_ex1_1)
    totals = {}
    for p in profiles:
        for k, v in p.items:
            totals[k] = totals.get(k, 0) + v
    assert Fingerprint.from_dict(totals) == fingerprint(design_ex1_1)


def test_transitive_profiles_identical():
    d = design_of("sg126-1-1")
    profiles = point_profile(d)
    assert len({p.items for p in profiles}) == 1


@pytest.mark.parametrize("text", [
    "{4=7560000}",
    "{0=1250, 1=42000, 2=635250, 3=2987500, 4=3894000}",
    "{}",
    "{1=25000, 2=580500, 3=3042000, 4=3912500}",
])
def test_format_parse_round_trip(text):
    assert format_fingerprint(parse_fingerprint(text)) == text


def test_parse_errors():
    with pytest.raises(DuplicateKey):
        parse_fingerprint("{1=2, 1=3}")
    with pytest.raises(ParseError):
        parse_fingerprint("{2=1, 1=2}")  # not ascending
    with pytest.raises(ParseError):
        parse_fingerprint("1=2")
    with pytest.raises(ParseError):
        parse_fingerprint("{1:2}")


@given(st.dictionaries(st.integers(min_value=0, max_value=9),
                       st.integers(min_value=1, max_value=10**9), max_size=8))
@settings(max_examples=200, deadline=None)
def test_round_trip_random_histograms(d):
    fp = Fingerprint.from_dict(d)
    assert parse_fingerprint(format_fingerprint(fp)) == fp


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
    full = pair_histograms(relabel(developed, range(126)))  # carries no action
    one_rotational = e.mode is Mode.ONE_ROTATIONAL  # orbits: G and {∞}
    assert kernel_origins == [2 if one_rotational else 1, 126]
    assert fast.dtype == full.dtype
    assert np.array_equal(fast, full)


@pytest.mark.parametrize("entry_id", ["ex1-1", "sg126-1-1"])
def test_relabeled_copy_takes_full_kernel(entry_id, kernel_origins):
    d = design_of(entry_id)
    perm = np.random.default_rng(7).permutation(126)
    copy = relabel(d, perm)
    assert copy.action is None
    moved = np.empty_like(pair_histograms(d))
    moved[perm[:, None], perm[None, :]] = pair_histograms(d)
    assert np.array_equal(pair_histograms(copy), moved)
    assert kernel_origins[-1] == 126
    assert fingerprint(copy) == fingerprint(d)
