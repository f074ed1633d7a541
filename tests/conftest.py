"""Shared fixtures: catalog entries and developed designs, cached per session."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from unitals import search
from unitals.catalog import CatalogEntry, catalog_dir, iter_entry_paths, load_entry
from unitals.designs import develop, first_rows, resolve_family, verify_steiner
from unitals.difference import check_difference_family
from unitals.fingerprint import Fingerprint, fingerprint
from unitals.isomorph import automorphism_order, canonical_key


def entry(entry_id: str):
    key = entry_id.rpartition("-")[0]
    return load_entry(catalog_dir() / key / f"{entry_id}.json")


_design_cache = {}


def design_of(entry_id: str):
    got = _design_cache.get(entry_id)
    if got is None:
        e = entry(entry_id)
        got = develop(e.group(), e.family())
        _design_cache[entry_id] = got
    return got


def assert_first_rows_match_unique(rows):
    """first_rows against np.unique(axis=0, return_index=True), the oracle."""
    first = first_rows(rows)
    unique, index = np.unique(rows, axis=0, return_index=True)
    assert np.array_equal(rows[first], unique)
    assert np.array_equal(first, index)  # the first of equal rows


def emit_ex1_1(monkeypatch):
    """Make every search emit ex1-1's family at once, without a node."""
    e = entry("ex1-1")
    blocks = resolve_family(e.group(), e.family())

    def run(self):
        yield [list(b) for b in blocks]

    monkeypatch.setattr(search._Searcher, "run", run)
    return e.group()


@pytest.fixture(scope="session")
def ex1_1():
    return entry("ex1-1")


@pytest.fixture(scope="session")
def z125(ex1_1):
    return ex1_1.group()


@pytest.fixture(scope="session")
def design_ex1_1():
    return design_of("ex1-1")


@pytest.fixture(scope="session")
def design_classical():
    return design_of("ex3-1")


@dataclass(frozen=True)
class EntryResult:
    """What the whole-catalog pass keeps of one shipped entry."""

    entry: CatalogEntry
    steiner_ok: bool
    fingerprint: Fingerprint | None  # None when the design does not verify
    algebraic_ok: bool  # check_difference_family's verdict
    aut: int
    aut_complete: bool
    key: str  # the canonical key
    develop_s: float  # group, develop and verify
    fingerprint_s: float


@pytest.fixture(scope="session")
def catalog_pass():
    """id -> EntryResult for every shipped entry, in id order.

    Each entry is loaded, developed, verified, fingerprinted, checked
    algebraically and classified once, and its design is dropped: 1239
    designs with their pair tables would hold about 1 GB.
    """
    results = {}
    for path in iter_entry_paths():
        e = load_entry(path)
        t0 = time.perf_counter()
        group, fam = e.group(), e.family()
        d = develop(group, fam)
        steiner_ok = verify_steiner(d).is_steiner
        t1 = time.perf_counter()
        fp = fingerprint(d) if steiner_ok else None
        t2 = time.perf_counter()
        count = automorphism_order(d)
        results[e.id] = EntryResult(
            e, steiner_ok, fp, bool(check_difference_family(group, fam)),
            count.order, count.complete, canonical_key(d).decode(), t1 - t0, t2 - t1)
    return results
