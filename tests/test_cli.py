"""Command-line interface: commands, formats, exit codes."""

import hashlib
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import emit_ex1_1, entry
from unitals import search
from unitals.catalog import STAGES, catalog_dir, data_dir, entry_to_json
from unitals.cli import main
from unitals.designs import resolve_family
from unitals.isomorph import are_isomorphic, automorphism_order


def path_of(entry_id: str) -> str:
    key = entry_id.rpartition("-")[0]
    return str(catalog_dir() / key / f"{entry_id}.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fingerprint_output_bit_identical(capsys):
    code, out, _ = run(capsys, "fingerprint", path_of("ex1-1"))
    assert code == 0
    assert out == "{1=25000, 2=580500, 3=3042000, 4=3912500}\n"


def test_fingerprint_json(capsys):
    code, out, _ = run(capsys, "fingerprint", path_of("ex3-1"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["fingerprint"] == "{4=7560000}"


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", path_of("ex1-1"))
    assert code == 0
    assert "valid S(2,6,126)" in out


def test_verify_corrupted_exits_1(capsys, tmp_path):
    obj = entry_to_json(entry("ex1-1"))
    obj["base_blocks"][0][5] = 73
    p = tmp_path / "corrupted.json"
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 1
    assert "not a Steiner system" in out
    assert "covered" in out  # defect listing


def test_verify_json(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", path_of("ex1-1"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["id"], obj["is_steiner"], obj["block_count"]) == ("ex1-1", True, 525)
    assert (obj["duplicate_blocks"], obj["pair_coverage_defects"]) == (0, [])
    code, out, _ = run(capsys, "verify", unverified_ex1_1(tmp_path), "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["is_steiner"] is False
    assert obj["pair_coverage_defects"]
    assert all(count != 1 for _, count in obj["pair_coverage_defects"])


def test_verify_bad_json_exits_3(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "verify", str(p))
    assert code == 3


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fingerprint"])  # missing path
    assert exc.value.code == 2


def test_develop_writes_blocks(capsys, tmp_path):
    out_file = tmp_path / "blocks.txt"
    code, _, err = run(capsys, "develop", path_of("ex1-1"), "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 525
    assert all(len(line.split()) == 6 for line in lines)
    assert any("inf" in line for line in lines)


#: sha256 of the ``unitals develop`` output: ex2-5's labels are tuples, and
#: sg126-8-25's group is an external Cayley table
DEVELOP_SHA256 = {
    "ex1-1": "d1509be63ef9c1111c2db9c5400320f26c8c786419f6778f537b6efc9482f851",
    "ex2-5": "b75d9e8e1615cba31ca5667c1145f3f9c1d99d0ad4882da48654dd3209b35bf3",
    "sg126-8-25": "378e7b4ed52700e6c16a981f40228836c0e4ab5bc518778a343c81d6ecf491b6",
}


@pytest.mark.parametrize("entry_id", list(DEVELOP_SHA256))
def test_develop_output_is_pinned(capsys, tmp_path, entry_id):
    out_file = tmp_path / "blocks.txt"
    code, _, _ = run(capsys, "develop", path_of(entry_id), "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == DEVELOP_SHA256[entry_id]


def test_iso_non_isomorphic(capsys):
    code, out, _ = run(capsys, "iso", path_of("ex1-1"), path_of("ex1-2"))
    assert code == 0
    assert out.strip() == "non-isomorphic"


def test_iso_fingerprint_sharing_pair(capsys):
    code, out, _ = run(capsys, "iso", path_of("sg126-8-25"), path_of("sg126-10-191"))
    assert code == 0
    assert out.strip() == "non-isomorphic"


def test_iso_self(capsys):
    code, out, _ = run(capsys, "iso", path_of("ex1-1"), path_of("ex1-1"))
    assert code == 0
    assert out.strip() == "isomorphic"


def test_aut_prints_order(capsys):
    code, out, _ = run(capsys, "aut", path_of("ex1-1"))
    assert code == 0
    assert int(out.strip()) % 125 == 0


def test_aut_json_reports_the_search(capsys):
    code, out, _ = run(capsys, "aut", path_of("ex3-1"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["id"], obj["order"], obj["complete"]) == ("ex3-1", 756000, True)
    # 401 refines before the chain pruned
    assert obj["search"] == {"refines": 80, "leaves": 67, "orbit_skips": 675,
                             "chain_skips": 230}


def test_aut_and_iso_json_report_time_and_searches(capsys):
    code, out, _ = run(capsys, "aut", path_of("ex1-1"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["elapsed_s"] >= 0 and obj["search"]["refines"] >= 1
    # equal fingerprints: both keys are searched
    code, out, _ = run(capsys, "iso", path_of("ex1-1"), path_of("ex1-1"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["isomorphic"] and obj["elapsed_s"] >= 0
    assert obj["search"]["a"] == obj["search"]["b"]
    assert obj["search"]["a"]["refines"] >= 1
    # differing fingerprints: the fast path decides before any search
    code, out, _ = run(capsys, "iso", path_of("sg126-3-1"), path_of("ex1-1"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert not obj["isomorphic"] and obj["search"] == {"a": None, "b": None}


def unverified_ex1_1(tmp_path):
    """ex1-1 with 74 changed to 75 in its first base block: no S(2,6,126)."""
    obj = entry_to_json(entry("ex1-1"))
    assert obj["base_blocks"][0][5] == 74
    obj["base_blocks"][0][5] = 75
    p = tmp_path / "unverified.json"
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.mark.parametrize("argv", [["aut"], ["aut", "--json"], ["fingerprint"]])
def test_unverified_family_exits_1(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, unverified_ex1_1(tmp_path))
    assert code == 1
    assert out == ""
    assert err == "design does not verify as S(2,6,126)\n"


@pytest.mark.parametrize("bad_side", ["a", "b", "both"])
def test_iso_unverified_family_exits_1(capsys, tmp_path, bad_side):
    bad, good = unverified_ex1_1(tmp_path), path_of("ex1-1")
    a = bad if bad_side in ("a", "both") else good
    b = bad if bad_side in ("b", "both") else good
    code, out, err = run(capsys, "iso", a, b)
    assert code == 1
    assert out == ""
    assert "design does not verify as S(2,6,126)" in err
    assert "error:" not in err


def test_catalog_check_filter(capsys):
    code, out, err = run(capsys, "catalog", "check", "--filter", "ex1-*")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert all("PASS" in l for l in lines)
    assert "8/8 entries pass" in err


def json_records(out: str) -> list:
    """--json stdout records without their timings."""
    return [{k: v for k, v in json.loads(l).items() if k not in ("elapsed_s", "stages_s")}
            for l in out.splitlines()]


def test_catalog_check_parity_globs_split_the_records(capsys):
    whole, halves = [], []
    for glob in ("ex5-*", "ex5-*[02468]", "ex5-*[13579]"):
        code, out, _ = run(capsys, "catalog", "check", "--filter", glob, "--json")
        assert code == 0
        (whole if glob == "ex5-*" else halves).extend(json_records(out))
    assert len(whole) == 8
    assert sorted(halves, key=lambda r: int(r["id"].rpartition("-")[2])) == whole


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_catalog_check_stderr_ends_with_summary(capsys, json_flag):
    code, _, err = run(capsys, "catalog", "check", "--filter", "ex1-*", *json_flag)
    assert code == 0
    lines = err.splitlines()
    assert lines[:2] == ["      list  pass/total", "       ex1  8/8"]
    assert re.fullmatch(r"stages summed over entries: " + ", ".join(
        rf"{name} \d+\.\d\ds" for name in STAGES), lines[2])
    assert lines[3:] == ["8/8 entries pass"]


def test_catalog_check_required_filter(capsys):
    code, out, err = run(capsys, "catalog", "check", "--required",
                         "--filter", "sg126-8-*", "--json")
    assert code == 0
    assert [(r["id"], r["pass"]) for r in json_records(out)] == [
        ("sg126-8-25", True), ("sg126-8-38", True)]
    assert "   sg126-8  2/2" in err.splitlines()
    assert err.endswith("2/2 entries pass\n")


def test_catalog_check_json_reports_stage_timings(capsys):
    code, out, _ = run(capsys, "catalog", "check", "--filter", "ex1-1", "--json")
    assert code == 0
    record = json.loads(out)
    assert tuple(record["stages_s"]) == STAGES
    assert sum(record["stages_s"].values()) <= record["elapsed_s"] + 0.001  # rounding


def test_catalog_check_no_match_exits_3(capsys):
    code, out, err = run(capsys, "catalog", "check", "--filter", "zz-*")
    assert code == 3
    assert (out, err) == ("", "no entries match\n")


def test_group_validate(capsys, tmp_path):
    good = tmp_path / "z3.txt"
    good.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    code, out, _ = run(capsys, "group", "validate", str(good))
    assert code == 0 and "valid group" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 2\n1 2 0\n2 1 0\n")
    code, out, _ = run(capsys, "group", "validate", str(bad))
    assert code == 1


def test_search_budget_exhausted_exit_4(capsys, tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"cyclic": 125}))
    code, out, err = run(capsys, "search", "--group", str(spec),
                         "--mode", "one-rotational", "--max-nodes", "1000")
    assert code == 4
    assert "budget_hit=True" in err


def test_search_summary_line_reports_seconds_and_rate(capsys, tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"cyclic": 125}))
    code, _, err = run(capsys, "search", "--group", str(spec),
                       "--mode", "one-rotational", "--max-nodes", "20000")
    assert code == 4
    line = err.splitlines()[-1]
    m = re.fullmatch(r"(\d+) families, (\d+) nodes, budget_hit=True, "
                     r"(\d+\.\d{3}) s, (\d+) nodes/s, (\d+) solutions", line)
    assert m, line
    nodes, seconds, rate = int(m[2]), float(m[3]), int(m[4])
    assert (int(m[1]), nodes, int(m[5])) == (0, 20000, 0)
    # seconds is rounded to 1 ms and the rate to 1 node/s
    assert nodes / (seconds + 5e-4) - 1 <= rate
    assert seconds < 5e-4 or rate <= nodes / (seconds - 5e-4) + 1


def test_search_summary_counts_printed_families_and_raw_solutions(capsys, monkeypatch,
                                                                  tmp_path):
    e = entry("ex1-1")
    z125 = e.group()
    blocks = [list(b) for b in resolve_family(z125, e.family())]
    n = z125.order  # the index of ∞
    # x -> 2x is an automorphism of Z_125: the image develops to an isomorphic
    # design, so the canonical-key dedupe drops it
    doubled = [[p if p == n else int(z125.table[p, p]) for p in b] for b in blocks]

    def run_twice(self):
        for found in (blocks, doubled):
            self.stats.solutions += 1
            yield found

    monkeypatch.setattr(search._Searcher, "run", run_twice)
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"cyclic": 125}))
    summary = (r"(\d+) families, 0 nodes, budget_hit=False, \d+\.\d{3} s, \d+ nodes/s, "
               r"(\d+) solutions")
    for option, printed in ((), 1), (("--no-canonicalize",), 2):
        code, out, err = run(capsys, "search", "--group", str(p), "--mode", "one-rotational",
                             *option)
        assert code == 0
        assert len(out.splitlines()) == printed
        m = re.fullmatch(summary, err.splitlines()[-1])
        assert m, err
        assert (int(m[1]), int(m[2])) == (printed, 2)


def search_with_group_file(capsys, path):
    return run(capsys, "search", "--group", str(path), "--mode", "one-rotational",
               "--max-nodes", "1")


@pytest.mark.parametrize("content", [b"cyclic 125", b"\xff\xfe\x00"])
def test_search_non_json_group_exits_3(capsys, tmp_path, content):
    p = tmp_path / "group.json"
    p.write_bytes(content)
    code, _, err = search_with_group_file(capsys, p)
    assert code == 3
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    {"cyclic": "x"},
    {"cyclic": None},
    {"product": [{"cyclic": 5}]},
    {"semidirect": {"normal": {"cyclic": 25}, "actor": {"cyclic": 5}}},
    {"semidirect": {"normal": {"cyclic": 25}, "actor": {"cyclic": 5}, "action": 7}},
    {"external": "."},
    [125],
    {"cyclic": 0},
    {"semidirect": {"normal": {"cyclic": 25},
                    "actor": {"product": [{"cyclic": 5}, {"cyclic": 1}]},
                    "action": [[1, 6]]}},
    {"external": 5},
])
def test_search_malformed_spec_exits_3(capsys, tmp_path, spec):
    p = tmp_path / "group.json"
    p.write_text(json.dumps(spec))
    code, _, err = search_with_group_file(capsys, p)
    assert code == 3
    assert "error:" in err


def test_search_finds_external_table_like_family_files(capsys, tmp_path):
    # the spec every transitive catalog entry writes, in a directory without
    # the table: it resolves against the package data directory
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"external": "tables/sg126_3.txt"}))
    code, out, err = run(capsys, "search", "--group", str(p), "--mode", "transitive",
                         "--max-nodes", "1000")
    assert code == 4, err
    assert out == ""
    assert "0 families, 1000 nodes, budget_hit=True" in err


def test_search_finds_nested_external_table_from_any_directory(capsys, tmp_path,
                                                               monkeypatch):
    # a table inside a product resolves by the same rule as one at the top
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"product": [{"external": "tables/sg126_1.txt"}, {"cyclic": 1}]}))
    code, out, err = run(capsys, "search", "--group", str(p), "--mode", "transitive",
                         "--max-nodes", "10")
    assert code == 4, err
    assert out == ""
    assert "0 families, 10 nodes, budget_hit=True" in err


def test_search_missing_nested_table_lists_each_place_once(capsys, tmp_path):
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"product": [{"cyclic": 1}, {"external": "no_table.txt"}]}))
    code, out, err = search_with_group_file(capsys, p)
    assert code == 3
    assert out == ""
    places = [str(tmp_path / "no_table.txt"), str(data_dir() / "no_table.txt"), "no_table.txt"]
    assert err == f"error: no Cayley table at 'no_table.txt' (searched {places})\n"


def test_search_missing_absolute_table_is_listed_once(capsys, tmp_path):
    missing = tmp_path / "no_table.txt"
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"external": str(missing)}))
    code, out, err = search_with_group_file(capsys, p)
    assert code == 3
    assert out == ""
    assert err == f"error: no Cayley table at {str(missing)!r} (searched {[str(missing)]})\n"


@pytest.mark.parametrize("option, value", [
    ("--max-nodes", "0"), ("--max-nodes", "-5"), ("--max-nodes", "many"),
    ("--max-solutions", "0"), ("--time-limit", "0"), ("--time-limit", "-1.5"),
])
def test_search_budget_below_one_is_usage_error(capsys, tmp_path, option, value):
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"cyclic": 125}))
    with pytest.raises(SystemExit) as exc:
        main(["search", "--group", str(p), "--mode", "one-rotational", option, value])
    assert exc.value.code == 2


_junk = st.one_of(st.none(), st.text(alphabet="xyz/.", max_size=4),
                  st.lists(st.none(), max_size=3), st.dictionaries(st.text("ab"), st.none()))
_malformed_spec = st.recursive(
    st.one_of(
        _junk,
        st.builds(lambda v: {"cyclic": v}, _junk),
        st.builds(lambda k, v: {k: v}, st.text(alphabet="abc", min_size=1), _junk),
        st.builds(lambda v: {"cyclic": 5, "product": v}, _junk),
    ),
    lambda inner: st.one_of(
        st.builds(lambda a: {"product": [a, {"cyclic": 5}]}, inner),
        st.builds(lambda a: {"product": [{"cyclic": 5}, a]}, inner),
        st.builds(lambda v: {"product": v}, st.lists(inner, max_size=3)),
        st.builds(lambda a, act: {"semidirect": {"normal": a, "actor": {"cyclic": 5},
                                                 "action": act}},
                  inner, st.one_of(_junk, st.just([[1, 6]]))),
        st.builds(lambda d: {"semidirect": d},
                  st.dictionaries(st.sampled_from(["normal", "actor"]), inner)),
    ),
    max_leaves=6,
)


@given(_malformed_spec)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_search_fuzzed_malformed_spec_exits_3(capsys, tmp_path, spec):
    p = tmp_path / "group.json"
    p.write_text(json.dumps(spec))
    code, _, err = search_with_group_file(capsys, p)
    assert code == 3, spec
    assert "Traceback" not in err


def test_aut_cut_short_exits_4_with_bound(capsys, monkeypatch):
    import unitals.cli as cli

    tiny = lambda design: automorphism_order(design, time_budget_s=0.0)
    monkeypatch.setattr(cli, "automorphism_order", tiny)
    code, out, err = run(capsys, "aut", path_of("ex1-1"))
    assert code == 4
    assert out.startswith(">= ")
    assert int(out.split()[1]) >= 1
    assert "lower bound" in err
    code, out, _ = run(capsys, "aut", path_of("ex1-1"), "--json")
    assert code == 4
    obj = json.loads(out)
    assert obj["complete"] is False
    assert (obj["search"]["refines"], obj["search"]["leaves"]) == (1, 0)  # the initial partition


def test_iso_cut_short_exits_4_undecided(capsys, monkeypatch):
    import unitals.cli as cli

    tiny = lambda a, b: are_isomorphic(a, b, time_budget_s=0.0)
    monkeypatch.setattr(cli, "are_isomorphic", tiny)
    code, out, err = run(capsys, "iso", path_of("ex1-1"), path_of("ex1-1"))
    assert code == 4
    assert out.strip() == "undecided"
    assert "undecided" in err
    code, out, _ = run(capsys, "iso", path_of("ex1-1"), path_of("ex1-1"), "--json")
    assert code == 4
    got = json.loads(out)
    assert (got["complete"], got["isomorphic"], got["witness"]) == (False, False, None)
    # a decided answer carries complete=True
    code, out, _ = run(capsys, "iso", path_of("ex1-1"), path_of("ex1-2"), "--json")
    assert code == 0 and json.loads(out)["complete"] is True


def test_fingerprint_verifies_once(capsys, monkeypatch):
    import unitals.cli as cli
    import unitals.designs as designs
    import unitals.fingerprint as fp

    calls = []

    def counting(design):
        calls.append(design)
        return designs.verify_steiner(design)

    monkeypatch.setattr(cli, "verify_steiner", counting)
    monkeypatch.setattr(fp, "verify_steiner", counting)
    code, _, _ = run(capsys, "fingerprint", path_of("ex1-3"))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("order, mode", [(125, "transitive"), (13, "transitive"),
                                         (13, "one-rotational")])
def test_search_mode_order_mismatch_exits_3(capsys, tmp_path, order, mode):
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"cyclic": order}))
    code, out, err = run(capsys, "search", "--group", str(p), "--mode", mode,
                         "--max-nodes", "20000")
    assert code == 3
    assert "development needs group order" in err
    assert out == ""


# orders that are rejected before any table exists; never use orders between
# about 1e3 and 1e5 here, which an unbounded build would try to allocate
HUGE_SPECS = [{"cyclic": 10**12},
              {"product": [{"cyclic": 10**6}, {"cyclic": 10**6}]}]


@pytest.mark.parametrize("spec", HUGE_SPECS)
def test_search_huge_group_exits_3(capsys, tmp_path, spec):
    p = tmp_path / "group.json"
    p.write_text(json.dumps(spec))
    code, _, err = run(capsys, "search", "--group", str(p), "--mode", "transitive")
    assert code == 3
    assert "exceeds" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", HUGE_SPECS)
def test_verify_huge_group_exits_3(capsys, tmp_path, spec):
    obj = entry_to_json(entry("ex1-1"))
    obj["group"] = spec
    p = tmp_path / "family.json"
    p.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(p))
    assert code == 3
    assert "exceeds" in err


def test_group_validate_huge_header_exits_1(capsys, tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("1000000\n0\n")
    code, out, _ = run(capsys, "group", "validate", str(p))
    assert code == 1
    assert "exceeds" in out


@pytest.mark.parametrize("field, value", [
    ("base_blocks", [5]),
    ("candidates", 5),
    ("expected_fingerprint", {"1": None}),
    ("expected_fingerprint", {"1": 25000.9, "2": 580500, "3": 3042000, "4": 3912500}),
    ("group", {"cyclic": 125.9}),
    # sums to 7,560,000, but has a count outside 0..4 and a negative frequency
    ("expected_fingerprint", {"1": 25000, "2": 580500, "3": 3042000, "4": 3912501, "9": -1}),
    # "04" is not the text of a count: it would silently replace or be replaced by "4"
    ("expected_fingerprint", {"1": 25000, "2": 580500, "3": 3042000, "04": 0, "4": 3912500}),
])
def test_verify_malformed_family_field_exits_3(capsys, tmp_path, field, value):
    obj = entry_to_json(entry("ex1-1"))
    obj[field] = value
    p = tmp_path / "family.json"
    p.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(p))
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("depth", [1000, 400])
def test_verify_deeply_nested_label_exits_3(capsys, tmp_path, depth):
    # 1000 levels overflow json.loads; 400 overflowed the message that names
    # a label not in the group
    obj = entry_to_json(entry("ex1-1"))
    obj["base_blocks"][0][1] = "NESTED"
    p = tmp_path / "family.json"
    p.write_text(json.dumps(obj).replace('"NESTED"', "[" * depth + "0" + "]" * depth))
    code, _, err = run(capsys, "verify", str(p))
    assert code == 3
    assert "error:" in err and "Traceback" not in err


def test_search_deeply_nested_group_exits_3(capsys, tmp_path):
    p = tmp_path / "group.json"
    p.write_text("[" * 1000 + "]" * 1000)
    code, _, err = search_with_group_file(capsys, p)
    assert code == 3
    assert "error:" in err and "Traceback" not in err


def test_verify_undecodable_family_exits_3(capsys, tmp_path):
    p = tmp_path / "family.json"
    p.write_bytes(b'{"id": "\xff\xfe"}')
    code, _, err = run(capsys, "verify", str(p))
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("name", ["missing", "directory"])
def test_group_validate_unreadable_path_exits_1(capsys, tmp_path, name):
    p = tmp_path / "table.txt"
    if name == "directory":
        p.mkdir()
    code, out, err = run(capsys, "group", "validate", str(p))
    assert code == 1
    assert str(p) in out
    assert err == ""


def test_group_validate_undecodable_table_exits_1(capsys, tmp_path):
    p = tmp_path / "table.txt"
    p.write_bytes(b"3\n0 1 2\n1 2 0\n2 0 \xff\n")
    code, out, _ = run(capsys, "group", "validate", str(p))
    assert code == 1
    assert "UTF-8" in out


# junk that no entry field accepts: no strings, so "id" and "source" reject it too
_field_junk = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.one_of(st.none(), st.integers(), st.lists(st.none(), max_size=2)),
             min_size=1, max_size=3),
    st.dictionaries(st.text(alphabet="ab1", max_size=3), st.one_of(st.none(), st.floats()),
                    min_size=1, max_size=2),
)


@given(st.sampled_from(["id", "group", "mode", "base_blocks", "expected_fingerprint",
                        "source", "candidates", "extra"]), _field_junk)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_fuzzed_family_field_exits_3(capsys, tmp_path, field, junk):
    obj = entry_to_json(entry("ex1-1"))
    obj[field] = junk
    p = tmp_path / "family.json"
    p.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(p))
    assert code == 3, (field, junk)
    assert "Traceback" not in err


_Z3_LINES = ["3", "0 1 2", "1 2 0", "2 0 1"]


@st.composite
def _broken_table(draw):
    """The Z_3 table file with one defect that makes it invalid."""
    lines = [line.split() for line in _Z3_LINES]
    kind = draw(st.sampled_from(["junk", "order", "entry", "bytes"]))
    row = draw(st.integers(0 if kind == "junk" else 1, 3))
    col = draw(st.integers(0, len(lines[row]) - 1))
    if kind == "junk":
        lines[row][col] = draw(st.text(alphabet="xyz.,/é", min_size=1, max_size=4))
    elif kind == "order":
        lines[0][0] = str(draw(st.integers().filter(lambda n: n != 3)))
    elif kind == "entry":  # a table entry outside 0..2
        lines[row][col] = str(draw(st.one_of(st.integers(max_value=-1),
                                             st.integers(min_value=3))))
    text = "\n".join(" ".join(line) for line in lines).encode()
    if kind == "bytes":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + draw(st.binary(max_size=4)) + text[at:]
    return text


@given(_broken_table())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_group_validate_fuzzed_table_exits_1(capsys, tmp_path, content):
    p = tmp_path / "table.txt"
    p.write_bytes(content)
    code, _, err = run(capsys, "group", "validate", str(p))
    assert code == 1, content
    assert "Traceback" not in err


def test_search_exits_4_when_canonical_key_runs_out_of_time(capsys, monkeypatch, tmp_path):
    emit_ex1_1(monkeypatch)
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"cyclic": 125}))
    code, out, err = run(capsys, "search", "--group", str(p), "--mode", "one-rotational",
                         "--time-limit", "1e-9")
    assert code == 4
    assert "budget_hit=True" in err
    code, out, err = run(capsys, "search", "--group", str(p), "--mode", "one-rotational")
    assert code == 0
    assert "budget_hit=False" in err
