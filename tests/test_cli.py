"""Command-line interface: commands, formats, exit codes."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import entry
from unitals.catalog import catalog_dir, entry_to_json
from unitals.cli import main
from unitals.isomorph import automorphism_order


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


def test_catalog_check_filter(capsys):
    code, out, err = run(capsys, "catalog", "check", "--filter", "ex1-*")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert all("PASS" in l for l in lines)
    assert "8/8 entries pass" in err


def test_catalog_check_threads_agree(capsys):
    code1, out1, _ = run(capsys, "catalog", "check", "--filter", "ex5-*", "--json")
    code2, out2, _ = run(capsys, "catalog", "check", "--filter", "ex5-*", "--json",
                         "--threads", "4")
    assert code1 == code2 == 0
    strip = lambda s: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed_s"}
        for l in s.splitlines() if l.startswith("{")
    ]
    assert strip(out1) == strip(out2)


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
])
def test_search_malformed_spec_exits_3(capsys, tmp_path, spec):
    p = tmp_path / "group.json"
    p.write_text(json.dumps(spec))
    code, _, err = search_with_group_file(capsys, p)
    assert code == 3
    assert "error:" in err


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
    assert json.loads(out)["complete"] is False
