"""The benchmark's three workloads: inputs, ops and oracles.

Each workload turns a seed into a plan: a head of ops that every run
executes once, then a round, a list of ops that a run repeats.  Only the
plan's choices are random (which catalog entries, which relabeling
permutation, which blocks are removed); the program sees only the generated
inputs.  A run executes the head and then the round again and again, so
every op of the round runs several times and every run executes the same
mix of op kinds.  Latency percentiles are taken over the head and the first
``rounds`` repeats of the round only, so they rank the same ops however
many repeats a run fits.

An op is one user-level request: one entry reproduced (``reproduce``), one
classification query (``classify``) or one family completion (``search``).
``run`` executes an op and returns its output; ``check`` is the oracle,
called outside the timed interval, and returns ``(ok, reason, counts)``.
``counts`` holds the exact numbers the op produced (fingerprint histogram,
automorphism order, generator count, search nodes and solutions, canonical
key); they must repeat exactly whenever the same op runs again.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from unitals import catalog, designs, difference, fingerprint, isomorph, search

#: the classical unital, classified in every ``classify`` run
CLASSICAL = "ex3-1"
CLASSICAL_AUT_ORDER = 756_000

#: entries whose first base block, kept alone, completes to two families
#: within 3 M nodes at commit c6f7d64 (1.81-1.88 M; screened over every
#: order-125 entry, the other first blocks found nothing in 3 M).  All ex1
#: entries share one first block, so the pool reaches beyond ex1.
REDISCOVERY_POOL = ("ex1-1", "ex1-2", "ex1-3", "ex1-4", "ex1-5", "ex1-6", "ex1-7",
                    "ex1-8", "ex2-4", "ex2-6", "ex2-8", "ex2-26")
REDISCOVERY_BUDGET = search.SearchBudget(max_nodes=4_000_000, max_solutions=2)
#: removed-block completions are exhaustive: every completion is listed
COMPLETION_BUDGET = search.SearchBudget(max_nodes=2_000_000, max_solutions=100_000)

#: transitive lists whose completions the search workload runs, in ascending
#: cost of their per-call candidate set-up (0.3-2 s).  The set-ups of
#: sg126-8 (about 2 s) and sg126-1/3/7 (3-5 s) would leave too few ops in a
#: run for a tail; reproduce covers those groups.
SEARCH_TRANSITIVE = ("sg126-2", "sg126-10", "sg126-12")


@dataclass
class Op:
    kind: str
    key: str  # entry ids the op works on, for reports
    pos: str = ""  # "h.<index>" or "r.<index>": the op's place in the head or the round
    args: dict = field(default_factory=dict)


def catalog_ids() -> dict:
    """list name -> entry ids of that list, in catalog order."""
    ids = {}
    for d in sorted(p for p in catalog.catalog_dir().iterdir() if p.is_dir()):
        ids[d.name] = sorted((p.stem for p in d.glob("*.json")),
                             key=lambda i: int(i.rpartition("-")[2]))
    return ids


def entry_path(entry_id: str):
    return catalog.catalog_dir() / entry_id.rpartition("-")[0] / f"{entry_id}.json"


def planted_fingerprint(expected: dict) -> dict:
    """A wrong fingerprint with the right total: one quadruple moves bucket."""
    wrong = dict(expected)
    low, high = min(wrong), max(wrong)
    if low == high:
        high = low + 1
        wrong[high] = 0
    wrong[low] -= 1
    wrong[high] += 1
    return wrong


class Workload:
    name = ""
    #: repeats of the round every untraced run executes and its latency
    #: percentiles are taken over
    ROUNDS = 1
    #: (module, attribute, span name) of calls the program makes internally;
    #: traced runs replace the attribute with a wrapper that records a span
    TRACED_CALLS = ((catalog, "build_group", "groups.build"),)

    def __init__(self, seed: int, smoke: bool = False, plant: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.plant = plant
        self.rng = random.Random(seed)
        self.ids = catalog_ids()
        self.lists = list(self.ids)
        self.head, self.round = self.make_plan()
        self.rounds = 1 if smoke else self.ROUNDS
        for i, op in enumerate(self.head):
            op.pos = f"h.{i}"
        for i, op in enumerate(self.round):
            op.pos = f"r.{i}"
        self.entries: dict = {}
        self._oracle_cache: dict = {}

    # -- plan ---------------------------------------------------------
    def make_plan(self) -> tuple:
        """(head, round)."""
        raise NotImplementedError

    def ops(self) -> list:
        """The head and the round: every distinct op of a run."""
        return self.head + self.round

    def entry_ids(self) -> list:
        ids = []
        for op in self.ops():
            ids.extend(op.key.split("~"))
        return sorted(set(ids))

    def pick(self, list_name: str, exclude=()) -> str:
        return self.rng.choice([i for i in self.ids[list_name] if i not in exclude])

    # -- set-up -------------------------------------------------------
    def setup(self, tr) -> None:
        """load_entry for every planned entry, then build their groups."""
        entries = {}
        for eid in self.entry_ids():
            with tr.span("catalog.load"):
                entries[eid] = catalog.load_entry(entry_path(eid))
        for entry in entries.values():
            entry.group()
        if self.plant:
            first = self.ops()[0].key.split("~")[0]
            entries[first].expected_fingerprint = planted_fingerprint(
                entries[first].expected_fingerprint)
        self.entries = entries

    # -- ops ----------------------------------------------------------
    def run(self, op: Op, tr):
        raise NotImplementedError

    def check(self, op: Op, out) -> tuple:
        raise NotImplementedError

    def _develop(self, entry_id: str, tr):
        entry = self.entries[entry_id]
        with tr.span("designs.develop"):
            return designs.develop(entry.group(), entry.family())

    def _oracle_design(self, entry_id: str):
        """The entry's developed block set, computed once for the oracles."""
        key = ("design", entry_id)
        if key not in self._oracle_cache:
            entry = self.entries[entry_id]
            self._oracle_cache[key] = designs.develop(entry.group(), entry.family())
        return self._oracle_cache[key]


# ---------------------------------------------------------------------------
class Reproduce(Workload):
    """Seeded catalog entries through ``catalog.catalog_check``.

    The round holds one entry of each of the 12 catalog lists, so each run
    covers both modes and every group.  Traced runs wrap the functions
    ``catalog.reproduce`` calls, so its spans follow the program's own path:
    develop, verify_steiner, then fingerprint with pair_histograms inside.
    """

    name = "reproduce"
    ROUNDS = 4
    TRACED_CALLS = Workload.TRACED_CALLS + (
        (catalog, "develop", "designs.develop"),
        (catalog, "verify_steiner", "designs.verify"),
        (catalog, "fingerprint", "fingerprint.fingerprint"),
        (fingerprint, "pair_histograms", "fingerprint.pair_histograms"),
    )

    def make_plan(self) -> tuple:
        if self.smoke:
            return [], [Op("reproduce", self.pick("ex1")), Op("reproduce", self.pick("sg126-2"))]
        order = list(self.lists)
        self.rng.shuffle(order)
        return [], [Op("reproduce", self.pick(name)) for name in order]

    def run(self, op: Op, tr):
        rec = catalog.catalog_check([self.entries[op.key]], threads=1)[0]
        return rec.steiner_ok, rec.computed_fingerprint, rec.fingerprint_match

    def check(self, op: Op, out) -> tuple:
        steiner_ok, fp, match = out
        entry = self.entries[op.key]
        counts = {"fingerprint": list(map(list, fp.items)) if fp else None}
        if not steiner_ok:
            return False, "not an S(2,6,126)", counts
        key = ("algebraic", op.key)
        if key not in self._oracle_cache:
            self._oracle_cache[key] = bool(
                difference.check_difference_family(entry.group(), entry.family()))
        if not self._oracle_cache[key]:
            return False, "algebraic check rejects the family", counts
        if fp.total != fingerprint.TOTAL_QUADRUPLES:
            return False, f"fingerprint sums to {fp.total}", counts
        if fp.as_dict() != entry.expected_fingerprint or not match:
            return False, f"fingerprint {fp} differs from the transcription", counts
        return True, "", counts


# ---------------------------------------------------------------------------
class Classify(Workload):
    """Automorphism orders, canonical keys and isomorphism decisions.

    The head holds the classical unital ex3-1 and both fingerprint-sharing
    pairs.  The round holds one design against a copy relabeled by a seeded
    permutation, and DESIGNS_PER_ROUND designs from distinct seeded lists.
    """

    name = "classify"
    ROUNDS = 4
    DESIGNS_PER_ROUND = 5

    def make_plan(self) -> tuple:
        if self.smoke:
            return [], [Op("design", self.pick("ex1")), self._relabel_op()]
        head = [Op("design", CLASSICAL)]
        head += [Op("pair", f"{a}~{b}") for a, b in catalog.FINGERPRINT_SHARING_PAIRS]
        ops = [self._relabel_op()]
        names = self.rng.sample(self.lists, self.DESIGNS_PER_ROUND)
        ops += [Op("design", self.pick(name, exclude=(CLASSICAL,))) for name in names]
        return head, ops

    def _relabel_op(self) -> Op:
        entry_id = self.pick(self.rng.choice(self.lists), exclude=(CLASSICAL,))
        perm = list(range(designs.N_POINTS))
        self.rng.shuffle(perm)
        return Op("relabel", entry_id, args={"perm": perm})

    def run(self, op: Op, tr):
        if op.kind == "design":
            d = self._develop(op.key, tr)
            with tr.span("fingerprint.pair_histograms"):
                fingerprint.pair_histograms(d)
            with tr.span("fingerprint.fingerprint"):
                fp = fingerprint.fingerprint(d)
            with tr.span("isomorph.aut"):
                count, gens = isomorph.automorphism_generators(d)
            with tr.span("isomorph.canonical_key"):
                key = isomorph.canonical_key(d)
            return {"fp": fp, "order": count.order, "complete": count.complete,
                    "generators": len(gens), "key": key.decode()}
        if op.kind == "pair":
            a, b = op.key.split("~")
            da, db = self._develop(a, tr), self._develop(b, tr)
            with tr.span("fingerprint.pair_histograms"):
                fingerprint.pair_histograms(da)
            with tr.span("fingerprint.pair_histograms"):
                fingerprint.pair_histograms(db)
            with tr.span("isomorph.iso"):
                res = isomorph.are_isomorphic(da, db)
            return {"iso": res.isomorphic, "witness": res.witness,
                    "fp": (fingerprint.fingerprint(da), fingerprint.fingerprint(db))}
        d = self._develop(op.key, tr)
        with tr.span("designs.relabel"):
            copy = designs.relabel(d, op.args["perm"])
        with tr.span("fingerprint.pair_histograms"):
            fingerprint.pair_histograms(d)
        with tr.span("fingerprint.pair_histograms"):
            fingerprint.pair_histograms(copy)
        with tr.span("isomorph.iso"):
            res = isomorph.are_isomorphic(d, copy)
        with tr.span("isomorph.canonical_key"):
            keys = (isomorph.canonical_key(d).decode(), isomorph.canonical_key(copy).decode())
        return {"iso": res.isomorphic, "witness": res.witness, "keys": keys}

    def check(self, op: Op, out) -> tuple:
        if op.kind == "design":
            entry = self.entries[op.key]
            counts = {"order": out["order"], "complete": out["complete"],
                      "generators": out["generators"],
                      "key": out["key"], "fingerprint": list(map(list, out["fp"].items))}
            if out["fp"].as_dict() != entry.expected_fingerprint:
                return False, f"fingerprint {out['fp']} differs from the transcription", counts
            if not out["complete"]:
                return False, "automorphism count cut short", counts
            if op.key == CLASSICAL and out["order"] != CLASSICAL_AUT_ORDER:
                return False, f"|Aut(ex3-1)| = {out['order']}, not {CLASSICAL_AUT_ORDER}", counts
            if out["order"] % entry.group().order:
                return False, f"|Aut| = {out['order']} not a multiple of |G|", counts
            return True, "", counts
        if op.kind == "pair":
            a, b = op.key.split("~")
            counts = {"iso": out["iso"]}
            fa, fb = out["fp"]
            if fa != fb or fa.as_dict() != self.entries[a].expected_fingerprint:
                return False, "pair no longer shares the transcribed fingerprint", counts
            if out["iso"]:
                ok = self._witness_maps(self._oracle_design(a), self._oracle_design(b),
                                        out["witness"])
                return False, f"pair reported isomorphic (witness valid: {ok})", counts
            return True, "", counts
        counts = {"iso": out["iso"], "keys": list(out["keys"])}
        if not out["iso"]:
            return False, "relabeled copy reported non-isomorphic", counts
        d = self._oracle_design(op.key)
        copy = designs.relabel(d, op.args["perm"])
        if not self._witness_maps(d, copy, out["witness"]):
            return False, "iso witness does not map blocks onto blocks", counts
        if out["keys"][0] != out["keys"][1]:
            return False, "relabeled copy has another canonical key", counts
        return True, "", counts

    @staticmethod
    def _witness_maps(a, b, witness) -> bool:
        if witness is None or sorted(witness) != list(range(a.n_points)):
            return False
        mapped = sorted(tuple(sorted(witness[p] for p in blk)) for blk in a.blocks)
        return mapped == sorted(b.blocks)


# ---------------------------------------------------------------------------
class Search(Workload):
    """Seeded ``complete_family`` runs of three kinds.

    The head holds one first-block rediscovery, capped at two solutions.
    The round holds one exhaustive completion of each list in
    SEARCH_TRANSITIVE and of two seeded order-125 lists, each with 1-2
    seeded blocks removed.  Transitive completions are dominated by the
    per-call candidate set-up, whose cost depends on the group, so the round
    lists them in one fixed order and the mix of groups per run does not
    depend on the seed.  Over the head and ROUNDS = 7 repeats (36 ops), p50
    falls on a sg126 completion and the tail on another, never on the
    rediscovery or an order-125 completion.
    """

    name = "search"
    ROUNDS = 7
    TRACED_CALLS = Workload.TRACED_CALLS + (
        (search, "check_difference_family", "difference.check"),
    )

    def make_plan(self) -> tuple:
        if self.smoke:
            return [], [self._removal_op(self.pick("ex1")),
                        self._removal_op(self.pick("sg126-2"))]
        head = [Op("rediscover", self.rng.choice(REDISCOVERY_POOL), args={"keep": [0]})]
        transitive = [self._removal_op(self.pick(n)) for n in SEARCH_TRANSITIVE]
        order125 = self.rng.sample([n for n in self.lists if not n.startswith("sg126")], 2)
        return head, transitive + [self._removal_op(self.pick(n)) for n in order125]

    def _removal_op(self, entry_id: str) -> Op:
        n_blocks = len(json.loads(entry_path(entry_id).read_text())["base_blocks"])
        removed = sorted(self.rng.sample(range(n_blocks), self.rng.choice((1, 2))))
        keep = [j for j in range(n_blocks) if j not in removed]
        return Op("remove", entry_id, args={"keep": keep})

    def run(self, op: Op, tr):
        entry = self.entries[op.key]
        group = entry.group()
        partial = search.PartialFamily(entry.mode, [entry.base_blocks[j] for j in op.args["keep"]])
        budget = REDISCOVERY_BUDGET if op.kind == "rediscover" else COMPLETION_BUDGET
        stats = search.SearchStats()
        with tr.span("search.complete_family"):
            fams = search.complete_family(group, partial, budget, stats)
        return fams, stats

    def check(self, op: Op, out) -> tuple:
        fams, stats = out
        counts = {"nodes": stats.nodes, "solutions": stats.solutions,
                  "budget_hit": stats.budget_hit}
        if stats.budget_hit:
            return False, f"budget hit after {stats.nodes} nodes", counts
        if not fams:
            return False, "no completion found", counts
        entry = self.entries[op.key]
        group = entry.group()
        developed = []
        for fam in fams:
            d = designs.develop(group, fam)
            if not designs.verify_steiner(d).is_steiner:
                return False, "a completion does not develop to S(2,6,126)", counts
            if not difference.check_difference_family(group, fam):
                return False, "a completion fails the algebraic check", counts
            developed.append(set(d.blocks))
        if op.kind == "remove":
            original = set(self._oracle_design(op.key).blocks)
            if original not in developed:
                return False, "completions miss the original family", counts
        else:
            kept = designs.resolve_family(group, entry.family())[op.args["keep"][0]]
            if any(tuple(sorted(kept)) not in d for d in developed):
                return False, "a completion lost the kept block", counts
        return True, "", counts


WORKLOADS = {cls.name: cls for cls in (Reproduce, Classify, Search)}
