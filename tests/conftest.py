"""Shared fixtures: catalog entries and developed designs, cached per session."""

from __future__ import annotations

import numpy as np
import pytest

from unitals import search
from unitals.catalog import catalog_dir, load_entry
from unitals.designs import develop, first_rows, resolve_family


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
