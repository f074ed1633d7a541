"""Catalog loading, schema, reproduction, ordering reconstruction."""

import json

import pytest

from conftest import entry
from unitals.catalog import (
    FINGERPRINT_SHARING_PAIRS,
    REQUIRED_LIST_SIZES,
    catalog_check,
    catalog_dir,
    entry_from_json,
    entry_to_json,
    iter_entry_paths,
    load_entry,
    load_required_entries,
    reconstruct_ordering,
    reproduce,
    save_entry,
)
from unitals.errors import (
    GroupUnavailable,
    OrderingNotFound,
    SchemaError,
    SumInvariantError,
)
from unitals.fingerprint import TOTAL_QUADRUPLES
from unitals.groups import Cyclic, Semidirect


def test_required_list_sizes():
    for key, size in REQUIRED_LIST_SIZES.items():
        paths = [p for p in iter_entry_paths(f"{key}-*")]
        assert len(paths) == size, key


def test_catalog_counts_match_summary_table():
    # order-125 groups: 8, 32, 20, 29, 8; SmallGroup(126, 1/3/7): 3, 1, 2
    expected = {"ex1": 8, "ex2": 32, "ex3": 20, "ex4": 29, "ex5": 8,
                "sg126-1": 3, "sg126-3": 1, "sg126-7": 2}
    assert {k: len(iter_entry_paths(f"{k}-*")) for k in expected} == expected


def test_pair_entries_share_fingerprints():
    for a, b in FINGERPRINT_SHARING_PAIRS:
        ea, eb = entry(a), entry(b)
        assert ea.expected_fingerprint == eb.expected_fingerprint


def test_save_load_round_trip(tmp_path):
    for eid in ("ex1-1", "ex3-7", "sg126-1-2"):
        e = entry(eid)
        out = tmp_path / f"{eid}.json"
        save_entry(e, out)
        e2 = load_entry(out)
        assert entry_to_json(e2) == entry_to_json(e)
        # and byte-stable against the shipped file
        shipped = (catalog_dir() / eid.rpartition("-")[0] / f"{eid}.json").read_bytes()
        assert out.read_bytes() == shipped


def test_schema_rejects_short_block(ex1_1):
    obj = entry_to_json(ex1_1)
    obj["base_blocks"][0] = obj["base_blocks"][0][:5]
    with pytest.raises(SchemaError):
        entry_from_json(obj)


def test_schema_rejects_bad_sum(ex1_1):
    obj = entry_to_json(ex1_1)
    obj["expected_fingerprint"] = {"4": 123}
    with pytest.raises(SumInvariantError):
        entry_from_json(obj)


def test_schema_rejects_unknown_key(ex1_1):
    obj = entry_to_json(ex1_1)
    obj["extra"] = 1
    with pytest.raises(SchemaError):
        entry_from_json(obj)


def test_all_shipped_fingerprints_sum():
    # loading enforces the sum invariant; load everything
    for p in iter_entry_paths():
        e = load_entry(p)
        assert sum(e.expected_fingerprint.values()) == TOTAL_QUADRUPLES


def test_reproduce_ex1_1(ex1_1):
    rec = reproduce(ex1_1)
    assert rec.steiner_ok and rec.fingerprint_match
    assert rec.elapsed_s < 5


def test_reproduce_corrupted_clone(ex1_1, tmp_path):
    obj = entry_to_json(ex1_1)
    obj["base_blocks"][0][5] = 73  # was 74
    e = entry_from_json(obj)
    rec = reproduce(e)
    assert not rec.steiner_ok


def test_reproduce_required_sample():
    wanted = {"ex2-1", "ex5-8", "sg126-7-2"}
    for e in load_required_entries():
        if e.id in wanted:
            rec = reproduce(e)
            assert rec.steiner_ok and rec.fingerprint_match, e.id


def test_whole_catalog_reproduces_bit_exactly():
    records = catalog_check(load_entry(p) for p in iter_entry_paths())
    assert len(records) == 1239
    failures = [(r.entry_id, r.steiner_ok, str(r.computed_fingerprint))
                for r in records if not (r.steiner_ok and r.fingerprint_match)]
    assert not failures


def test_reconstruct_ordering_single_cyclic_candidate(ex1_1):
    got = reconstruct_ordering([Cyclic(125)], ex1_1.family())
    assert got.spec == Cyclic(125)
    assert not got.reversed_labels


def test_reconstruct_ordering_two_coordinate_orders():
    e = entry("ex4-1")
    spec = Semidirect(Cyclic(25), Cyclic(5), ((1, 6),))
    got = reconstruct_ordering([spec], e.family())
    # only the as-printed (Z25, Z5) reading validates; tuple ranges force it
    assert got.spec == spec and not got.reversed_labels


def test_reconstruct_ordering_wrong_action_not_found():
    e = entry("ex4-1")
    wrong = Semidirect(Cyclic(25), Cyclic(5), ((1, 7),))
    with pytest.raises(OrderingNotFound):
        reconstruct_ordering([wrong], e.family())


def test_reconstruct_ordering_sg_candidates_fall_back_to_table():
    # the grammar candidates shipped with non-abelian order-126 entries do not
    # reproduce the GAP numbering; the external table is the documented escape
    e = entry("sg126-1-1")
    assert e.candidates
    with pytest.raises(OrderingNotFound):
        reconstruct_ordering(e.candidates, e.family())
    assert reproduce(e).ok  # the shipped table does reproduce


def test_group_unavailable(tmp_path, ex1_1):
    obj = entry_to_json(ex1_1)
    obj["group"] = {"external": "tables/no_such_table.txt"}
    p = tmp_path / "x.json"
    p.write_text(json.dumps(obj))
    e = load_entry(p)
    with pytest.raises(GroupUnavailable):
        e.group()
