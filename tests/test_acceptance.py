"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import design_of
from unitals.catalog import (
    FINGERPRINT_SHARING_PAIRS,
    REQUIRED_LIST_SIZES,
    catalog_dir,
    iter_entry_paths,
    load_entry,
)
from unitals.designs import (
    DifferenceFamily,
    Mode,
    develop,
    relabel,
    verify_steiner,
    is_block_invariant,
)
from unitals.difference import check_difference_family
from unitals.errors import UnitalsError
from unitals.fingerprint import (
    TOTAL_QUADRUPLES,
    fingerprint,
    fingerprint_reference,
    format_fingerprint,
)
from unitals.groups import INF, build_group, subgroup_closure, validate_table
from unitals.isomorph import are_isomorphic
from unitals.search import SearchBudget, SearchStats, complete_family


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def required(catalog_pass):
    """id -> the catalog pass's EntryResult, for the required entries."""
    return {p.stem: catalog_pass[p.stem] for p in iter_entry_paths(required=True)}


def test_criterion_1_reproduction_one_rotational(required):
    ids = [f"{key}-{j}" for key, size in REQUIRED_LIST_SIZES.items()
           if key.startswith("ex") for j in range(1, size + 1)]
    assert len(ids) == 97
    bad = []
    slow = []
    for eid in ids:
        r = required[eid]
        if not r.steiner_ok or r.fingerprint != r.entry.expected():
            bad.append(eid)
        if r.develop_s >= 1.0 or r.fingerprint_s >= 2.0:
            slow.append((eid, r.develop_s, r.fingerprint_s))
    _report(1, not bad and not slow,
            f"97/97 one-rotational entries reproduce bit-exactly "
            f"(worst develop+verify "
            f"{max(r.develop_s for r in required.values()):.2f}s, worst fingerprint "
            f"{max(r.fingerprint_s for r in required.values()):.2f}s)"
            + (f"; failures {bad[:4]} slow {slow[:4]}" if bad or slow else ""))


def test_criterion_2_classical_case(catalog_pass):
    r = catalog_pass["ex3-1"]
    ok = r.steiner_ok and format_fingerprint(r.fingerprint) == "{4=7560000}"
    _report(2, ok, f"classical unital fingerprint = {format_fingerprint(r.fingerprint)}")


def test_criterion_3_sum_invariant(catalog_pass):
    computed_ok = all(r.fingerprint.total == TOTAL_QUADRUPLES
                      for r in catalog_pass.values() if r.fingerprint)
    # the loader enforces the invariant on every entry; double-check anyway
    transcribed_ok = all(sum(r.entry.expected_fingerprint.values()) == TOTAL_QUADRUPLES
                         for r in catalog_pass.values())
    n = len(catalog_pass)
    _report(3, computed_ok and transcribed_ok,
            f"all computed and all {n} transcribed fingerprints sum to 7,560,000")


def test_criterion_4_oracle_equivalence(catalog_pass):
    disagreements = [i for i, r in catalog_pass.items() if r.algebraic_ok != r.steiner_ok]
    checked = len(catalog_pass)

    rng = np.random.default_rng(20250810)
    corrupt_checked = 0
    for mode_key, source in (("one-rotational", "ex1-1"), ("transitive", "sg126-1-1")):
        key = source.rpartition("-")[0]
        e = load_entry(catalog_dir() / key / f"{source}.json")
        group = e.group()
        n = group.order
        while corrupt_checked < 100 * (1 if mode_key == "one-rotational" else 2):
            blocks = [list(b) for b in e.base_blocks]
            bi = int(rng.integers(0, len(blocks)))
            pos = int(rng.integers(0, 6))
            if blocks[bi][pos] is INF:
                continue
            val = int(rng.integers(1, n))
            if val in [x for x in blocks[bi] if x is not INF]:
                continue
            blocks[bi][pos] = val
            try:
                fam = DifferenceFamily(Mode(mode_key), blocks)
            except UnitalsError:
                continue
            algebraic = bool(check_difference_family(group, fam))
            developed = verify_steiner(develop(group, fam)).is_steiner
            if algebraic != developed:
                disagreements.append(f"{source}+corruption")
            corrupt_checked += 1

    _report(4, not disagreements,
            f"algebraic check agrees with develop+verify on {checked} shipped "
            f"entries and {corrupt_checked} random corruptions"
            + (f"; disagreements {disagreements[:5]}" if disagreements else ""))


def test_criterion_5_non_isomorphism_pairs(catalog_pass):
    ok = True
    details = []
    for pair in FINGERPRINT_SHARING_PAIRS:
        t0 = time.perf_counter()
        da = design_of(pair[0])
        db = design_of(pair[1])
        fa, fb = catalog_pass[pair[0]].fingerprint, catalog_pass[pair[1]].fingerprint
        same_fp = fa == fb
        res = are_isomorphic(da, db)
        elapsed = time.perf_counter() - t0
        ok &= same_fp and not res.isomorphic and elapsed < 60
        details.append(f"{pair[0]} vs {pair[1]}: shared fp, "
                       f"non-isomorphic ({elapsed:.1f}s)")
        # self-isomorphism under a random relabeling, witness verified
        perm = np.random.default_rng(hash(pair) % 2**32).permutation(126)
        rel = relabel(da, perm)
        self_res = are_isomorphic(da, rel)
        witness_ok = self_res.isomorphic and {
            tuple(sorted(self_res.witness[p] for p in b)) for b in da.blocks
        } == set(rel.blocks)
        ok &= witness_ok
    _report(5, ok, "; ".join(details))


def test_criterion_6_automorphism_divisibility(required):
    bad = []
    for eid, r in required.items():
        group = r.entry.group()
        one_rot = r.entry.mode is Mode.ONE_ROTATIONAL
        divisor = 125 if one_rot else 126
        if not r.aut_complete or r.aut % divisor != 0:
            bad.append((eid, r.aut))
        # g -> (x -> g*x) is a homomorphism, so the translations by a
        # generating set of G generate all translations, and a group
        # generated by automorphisms consists of automorphisms
        gens, closure = [], {group.identity}
        for g in range(group.order):
            if g not in closure:
                gens.append(g)
                closure = subgroup_closure(group, gens)
        if closure != frozenset(range(group.order)):
            bad.append((eid, f"translations by {gens} do not generate G"))
        # developed here and dropped after the check, not kept in design_of's cache
        design = develop(group, r.entry.family())
        for g in gens:
            perm = group.table[g]
            if one_rot:
                perm = np.append(perm, group.order)  # ∞ fixed
            if not is_block_invariant(design, perm):
                bad.append((eid, f"translation {g} not an automorphism"))
                break
    _report(6, not bad,
            f"automorphism orders of {len(required)} reproduced designs "
            f"divisible by 125/126; all left translations are automorphisms"
            + (f"; failures {bad[:3]}" if bad else ""))


def test_criterion_7_catalog_counts():
    expected = {"ex1": 8, "ex2": 32, "ex3": 20, "ex4": 29, "ex5": 8,
                "sg126-1": 3, "sg126-3": 1, "sg126-7": 2}
    got = {k: len(iter_entry_paths(f"{k}-*")) for k in expected}
    _report(7, got == expected, f"catalog counts {got}")


def test_criterion_8_kernel_vs_reference():
    ok = True
    details = []
    for eid in ("ex1-1", "sg126-1-1"):
        design = design_of(eid)
        fast = fingerprint(design)
        slow = fingerprint_reference(design)
        ok &= fast == slow
        details.append(f"{eid}: kernel == reference ({format_fingerprint(fast)})")
    _report(8, ok, "; ".join(details))


def test_criterion_9_search_completion(ex1_1):
    group = ex1_1.group()
    full = [b for b in ex1_1.base_blocks if not any(x is INF for x in b)]
    stats = SearchStats()
    fams = complete_family(group, DifferenceFamily(Mode.ONE_ROTATIONAL, full),
                           SearchBudget(max_nodes=10**6), stats)
    valid = [f for f in fams
             if verify_steiner(develop(group, f)).is_steiner]
    ok = bool(valid) and stats.nodes < 10**6 and not stats.budget_hit
    _report(9, ok,
            f"fifth block recovered in {stats.nodes} nodes; "
            f"{len(valid)}/{len(fams)} completions verify")


def test_criterion_10_group_property_suite(catalog_pass):
    # exhaustive associativity on all shipped groups
    shipped_ok = True
    seen = set()
    for r in catalog_pass.values():
        key = r.entry.id.rpartition("-")[0]
        if key in seen:
            continue
        seen.add(key)
        shipped_ok &= validate_table(r.entry.group().table).ok

    # 1000 randomized mutation tests, every mutation caught
    rng = np.random.default_rng(55)
    caught = 0
    trials = 0
    from unitals.groups import Cyclic, Product, Semidirect

    specs = [Cyclic(12), Cyclic(126), Product(Cyclic(5), Cyclic(25)),
             Semidirect(Cyclic(25), Cyclic(5), ((1, 6),))]
    tables = [build_group(s).table for s in specs]
    while trials < 1000:
        t = tables[trials % len(tables)].copy()
        n = t.shape[0]
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if rng.integers(0, 2):
            v = int(rng.integers(0, n))
            if v == t[i, j]:
                continue
            t[i, j] = v
        else:
            k = int(rng.integers(0, n))
            if k == j or t[i, j] == t[i, k]:
                continue
            t[i, j], t[i, k] = t[i, k], t[i, j]
        trials += 1
        if not validate_table(t).ok:
            caught += 1
    _report(10, shipped_ok and caught == trials,
            f"exhaustive associativity passes on {len(seen)} shipped groups; "
            f"{caught}/{trials} random table mutations caught")
