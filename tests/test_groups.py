"""Group layer: construction, validation, labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitals.errors import (
    IndexOutOfRange,
    InvalidAction,
    OrderMismatch,
    ParseError,
    ValidationError,
)
from conftest import entry
from unitals import groups
from unitals.groups import (
    INF,
    Cyclic,
    External,
    Product,
    Semidirect,
    build_group,
    format_element_label,
    load_cayley_table,
    save_cayley_table,
    spec_from_json,
    spec_to_json,
    subgroup_closure,
    subgroups_of_order,
    validate_table,
)

Z25_X_Z5 = Semidirect(Cyclic(25), Cyclic(5), ((1, 6),))
Z5SQ_X_Z5 = Semidirect(Product(Cyclic(5), Cyclic(5)), Cyclic(5),
                       (((0, 1), (0, 1)), ((1, 0), (1, 1))))

# reduced order-5 Latin square failing only associativity (found by brute
# force over reduced squares; the unique group of order 5 is Z5)
NON_ASSOC_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_cyclic_table():
    g = build_group(Cyclic(5))
    for a in range(5):
        for b in range(5):
            assert g.mul(a, b) == (a + b) % 5
    assert g.identity == 0


def test_separately_built_groups_compare_by_table():
    a, b = build_group(Cyclic(6)), build_group(Cyclic(6))
    assert a.table is not b.table
    a._cache["filled"] = True  # derived tables take no part
    assert a == b
    assert a != build_group(Cyclic(7))
    assert a != build_group(Product(Cyclic(2), Cyclic(3)))  # same table size, other labels


def test_semidirect_z25_z5_product_rule():
    g = build_group(Z25_X_Z5)
    assert g.labels[g.mul(g.resolve((0, 1)), g.resolve((1, 0)))] == (6, 1)


def test_semidirect_z5sq_z5_product_rule():
    g = build_group(Z5SQ_X_Z5)
    lhs = g.resolve(((1, 0), 1))
    rhs = g.resolve(((1, 0), 0))
    assert g.labels[g.mul(lhs, rhs)] == ((2, 1), 1)


def test_multiply_and_inverse(z125):
    assert z125.mul(100, 50) == 25
    assert z125.inv(z125.identity) == z125.identity
    with pytest.raises(IndexOutOfRange):
        z125.mul(0, 125)


def test_semidirect_inverse_by_row_scan():
    g = build_group(Z25_X_Z5)
    x = g.resolve((1, 1))
    # independent oracle: scan the row for the identity
    row = [g.mul(x, h) for h in range(g.order)]
    inv_scan = row.index(g.identity)
    assert g.inv(x) == inv_scan
    assert g.labels[inv_scan] == (4, 4)
    assert g.mul(x, inv_scan) == g.identity


def test_load_tiny_table(tmp_path):
    p = tmp_path / "z2.txt"
    p.write_text("2\n0 1\n1 0\n")
    g = load_cayley_table(p)
    assert g.order == 2 and g.mul(1, 1) == 0


def test_load_rejects_non_latin(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2\n0 0\n1 0\n")
    with pytest.raises(ValidationError, match="row 0"):
        load_cayley_table(p)


def test_z6_mixed_radix_round_trip(tmp_path):
    # generate the Z2 x Z3 table by formula, round-trip through the loader
    table = [[0] * 6 for _ in range(6)]
    for a2 in range(2):
        for a3 in range(3):
            for b2 in range(2):
                for b3 in range(3):
                    i, j = a2 * 3 + a3, b2 * 3 + b3
                    table[i][j] = ((a2 + b2) % 2) * 3 + (a3 + b3) % 3
    p = tmp_path / "z6.txt"
    p.write_text("6\n" + "\n".join(" ".join(map(str, r)) for r in table) + "\n")
    g = load_cayley_table(p)
    assert g.identity == 0
    assert [list(r) for r in g.table] == table
    save_cayley_table(g, tmp_path / "z6b.txt", header="round trip")
    g2 = load_cayley_table(tmp_path / "z6b.txt")
    assert np.array_equal(g.table, g2.table)


def test_validate_valid_group(z125):
    assert validate_table(z125.table).ok


def test_validate_reports_associativity_triple():
    g = build_group(Cyclic(6))
    t = g.table.copy()
    # swap two entries in one row: keeps the row a permutation
    t[1, 2], t[1, 4] = t[1, 4], t[1, 2]
    report = validate_table(t)
    assert not report.ok
    assert "latin-square" in report.kinds() or "associativity" in report.kinds()


def test_validate_non_associative_latin_square():
    report = validate_table(NON_ASSOC_5)
    assert not report.ok
    assert report.kinds() == {"associativity"}
    assert "(1, 1, 2)" in str(report)


def test_invalid_action_rejected():
    with pytest.raises(InvalidAction):
        build_group(Semidirect(Cyclic(25), Cyclic(5), ((1, 5),)))  # 1->5 not bijective
    with pytest.raises(OrderMismatch):
        build_group(Semidirect(Cyclic(7), Cyclic(2), ((1, 2),)))  # order-3 action


@pytest.mark.parametrize("action, message", [
    ((((0, 1), (0, 1)), ((0, 1), (1, 1))), "generator images are inconsistent"),
    ((((0, 1), (0, 1)),), "do not generate the normal subgroup"),
    ((((0, 1), (0, 1)), ((1, 0), (1, 0)), ((9, 9), (0, 1))), r"\(\(9, 9\) -> \(0, 1\)\) does not resolve"),
])
def test_action_defects_named(action, message):
    with pytest.raises(InvalidAction, match=message):
        build_group(Semidirect(Product(Cyclic(5), Cyclic(5)), Cyclic(5), action))


def test_semidirect_order_and_commutativity():
    g = build_group(Z25_X_Z5)
    assert g.order == 125
    assert not g.is_abelian()
    assert build_group(Cyclic(126)).is_abelian()
    assert build_group(Product(Cyclic(5), Cyclic(25))).order == 125


@pytest.mark.parametrize("label,spaced,compact", [
    ((2, 13), "(2, 13)", "(2,13)"),
    (((0, 1), 3), "((0, 1), 3)", "((0,1),3)"),
    (42, "42", "42"),
    (INF, "∞", "inf"),
])
def test_format_element_label(label, spaced, compact):
    assert format_element_label(label) == spaced
    assert format_element_label(label, compact=True) == compact


def test_catalog_group_label_bijections():
    for spec in [Cyclic(125), Product(Cyclic(5), Cyclic(25)), Z25_X_Z5, Z5SQ_X_Z5,
                 Product(Product(Cyclic(5), Cyclic(5)), Cyclic(5))]:
        g = build_group(spec)
        assert len(set(g.labels)) == g.order
        for i, lab in enumerate(g.labels):
            assert g.resolve(lab) == i
        for compact in (False, True):
            assert len({format_element_label(lab, compact) for lab in g.labels}) == g.order


@pytest.mark.parametrize("spec", [
    {"cyclic": 125.9},
    {"cyclic": 125.0},
    {"cyclic": "125"},
    {"cyclic": True},
    {"product": [{"cyclic": 5}, {"cyclic": 25.0}]},
])
def test_spec_from_json_rejects_non_integer_orders(spec):
    with pytest.raises(ParseError):
        spec_from_json(spec)


def test_spec_json_round_trip():
    for spec in [Cyclic(125), Z25_X_Z5, Z5SQ_X_Z5, External("tables/sg126_1.txt")]:
        assert spec_from_json(spec_to_json(spec)) == spec


@given(st.integers(min_value=2, max_value=20), st.data())
@settings(max_examples=120, deadline=None)
def test_random_mutations_caught(n, data):
    g = build_group(Cyclic(n))
    t = g.table.copy()
    kind = data.draw(st.sampled_from(["replace", "swap"]))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    if kind == "replace":
        v = data.draw(st.integers(0, n - 1).filter(lambda x: x != t[i, j]))
        t[i, j] = v
    else:
        k = data.draw(st.integers(0, n - 1).filter(lambda x: x != j))
        if t[i, j] == t[i, k]:
            return
        t[i, j], t[i, k] = t[i, k], t[i, j]
    assert not validate_table(t).ok


# Every spec below is rejected before its table is formed.  The product and
# semidirect orders (144, 250) are small enough that an unbounded build would
# only take milliseconds; orders between about 1e3 and 1e5 must never appear
# here, since an unbounded build would allocate gigabytes for them.
@pytest.mark.parametrize("spec", [
    Cyclic(10**12),
    Product(Cyclic(10**6), Cyclic(10**6)),
    Product(Cyclic(12), Cyclic(12)),
    Semidirect(Cyclic(25), Cyclic(10), ((1, 6),)),
])
def test_build_group_rejects_orders_above_126(spec):
    with pytest.raises(OrderMismatch, match="exceeds"):
        build_group(spec)


def test_build_group_accepts_order_126():
    assert build_group(Product(Cyclic(2), Cyclic(63))).order == 126


def test_load_cayley_table_rejects_huge_order(tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("1000000\n0\n")
    with pytest.raises(ParseError, match="exceeds"):
        load_cayley_table(p)


def _z5_with_bad_row():
    t = build_group(Cyclic(5)).table.copy()
    t[2, 3] = t[2, 4]  # row 2 repeats 1; column 3 then repeats it too
    return t


# one defect each; every failure list was recorded from the element-by-element
# validator this one replaced
SINGLE_DEFECTS = {
    "shape": ([[0, 1]], [("shape", "not a nonempty square array: (1, 2)")]),
    "empty": (np.zeros((0, 0), dtype=int), [("shape", "not a nonempty square array: (0, 0)")]),
    "range": ([[0, 2], [1, 0]], [("range", "entries outside 0..n-1")]),
    "negative": ([[0, -1], [1, 0]], [("range", "entries outside 0..n-1")]),
    "bad row": ([[0, 0], [1, 1]], [("latin-square", "row 0 is not a permutation"),
                                   ("identity", "no two-sided identity element")]),
    "bad row and column": (_z5_with_bad_row(), [
        ("latin-square", "row 2 is not a permutation"),
        ("latin-square", "column 3 is not a permutation"),
        ("associativity", "first offending triple (1, 1, 3)")]),
    "bad column": ([[0, 1, 2], [0, 1, 2], [0, 1, 2]], [
        ("latin-square", "column 0 is not a permutation"),
        ("identity", "no two-sided identity element")]),
    "no identity": ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], [
        ("identity", "no two-sided identity element"),
        ("associativity", "first offending triple (0, 0, 1)")]),
    # 2*3 = 0 but 3*2 = 1
    "one-sided inverse": ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                           [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]], [
        ("associativity", "first offending triple (1, 1, 2)"),
        ("inverses", "element 2 has no two-sided inverse")]),
    "non-associative": (NON_ASSOC_5, [("associativity", "first offending triple (1, 1, 2)")]),
}


@pytest.mark.parametrize("name", list(SINGLE_DEFECTS))
def test_validate_single_defect_messages(name):
    table, failures = SINGLE_DEFECTS[name]
    assert validate_table(table).failures == failures


def test_validate_reports_identity_and_inverses():
    g = build_group(Z25_X_Z5)
    report = validate_table(g.table)
    assert report.ok and report.identity == g.identity
    assert np.array_equal(report.inverses, g.inverses)
    assert (g.table[np.arange(g.order), report.inverses] == g.identity).all()
    assert validate_table([[0]]).identity == 0


def test_load_cayley_table_validates_once(tmp_path, monkeypatch):
    p = tmp_path / "z6.txt"
    save_cayley_table(build_group(Cyclic(6)), p)
    calls = []

    def counting(table):
        calls.append(1)
        return validate_table(table)

    monkeypatch.setattr(groups, "validate_table", counting)
    load_cayley_table(p)
    assert len(calls) == 1
    p.write_text("2\n0 0\n1 0\n")
    with pytest.raises(ValidationError, match=r"z6\.txt: latin-square: row 0"):
        load_cayley_table(p)
    assert len(calls) == 2


CATALOG_LISTS = ["ex1", "ex2", "ex3", "ex4", "ex5", "sg126-1", "sg126-2", "sg126-3",
                 "sg126-7", "sg126-8", "sg126-10", "sg126-12"]


@pytest.mark.parametrize("key", CATALOG_LISTS)
def test_orders_match_power_loop(key):
    g = entry(f"{key}-1").group()
    for x in range(g.order):
        k, power = 1, x
        while power != g.identity:
            power, k = g.mul(power, x), k + 1
        assert g.orders[x] == k


# len(subgroups_of_order(g, s)) for s = 2, 3, 5, 6, recorded from the
# closure-per-generator implementation this one replaced
SUBGROUP_COUNTS = {
    "ex1": (0, 0, 1, 0), "ex2": (0, 0, 6, 0), "ex3": (0, 0, 31, 0),
    "ex4": (0, 0, 6, 0), "ex5": (0, 0, 31, 0),
    "sg126-1": (7, 1, 0, 7), "sg126-2": (1, 1, 0, 1), "sg126-3": (9, 1, 0, 3),
    "sg126-7": (7, 22, 0, 28), "sg126-8": (3, 22, 0, 22), "sg126-10": (1, 22, 0, 22),
    "sg126-12": (3, 4, 0, 4),
}


@pytest.mark.parametrize("key", CATALOG_LISTS)
def test_subgroups_of_order_counts(key):
    g = entry(f"{key}-1").group()
    counts = []
    for s in (2, 3, 5, 6):
        subs = subgroups_of_order(g, s)
        assert subs == sorted(subs, key=sorted)
        for sub in subs:
            assert len(sub) == s and subgroup_closure(g, sub) == sub
        counts.append(len(subs))
    assert tuple(counts) == SUBGROUP_COUNTS[key]


def test_subgroup_closure():
    g = build_group(Z25_X_Z5)
    assert subgroup_closure(g, []) == {g.identity}
    assert len(subgroup_closure(g, [g.resolve((1, 0))])) == 25
    assert len(subgroup_closure(g, [g.resolve((1, 0)), g.resolve((0, 1))])) == 125
    with pytest.raises(IndexOutOfRange):
        subgroup_closure(g, [125])
