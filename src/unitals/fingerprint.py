"""Hyperbolic frequency fingerprint of a unital.

For every ordered triple (o, x, y) of distinct points with o off the line xy,
and every point p on line xy other than x and y, count the points u on line oy
(other than o and y) whose line pu shares no point with line ox.  The
fingerprint is the histogram of these counts over all 7,560,000 quadruples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .designs import BLOCK_SIZE, Design, verify_steiner
from .errors import NotASteinerSystem

TOTAL_QUADRUPLES = 7_560_000  # 126*125*124 - 525*6*5*4 non-collinear triples, times 4
#: (3, 60): the places of p, y and x for each triple of distinct places of a
#: line with y before x
_PLACES = np.array([t for t in permutations(range(BLOCK_SIZE), 3) if t[1] < t[2]]).T


@dataclass(frozen=True)
class Fingerprint:
    """Histogram count -> frequency, zero frequencies omitted."""

    items: tuple  # sorted ((count, frequency), ...)

    @classmethod
    def from_dict(cls, d: dict) -> "Fingerprint":
        return cls(tuple(sorted((int(k), int(v)) for k, v in d.items() if int(v) != 0)))

    def as_dict(self) -> dict:
        return dict(self.items)

    @property
    def total(self) -> int:
        return sum(v for _, v in self.items)


def format_fingerprint(fp: Fingerprint) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in fp.items) + "}"


def _require_steiner(design: Design) -> None:
    verdict = design._cache.get("steiner_ok")
    if verdict is None:
        verdict = verify_steiner(design).is_steiner
    if not verdict:
        raise NotASteinerSystem("fingerprint requires a verified S(2,6,126)")


def _kernel_rows(design: Design, origins) -> np.ndarray:
    """(len(origins), n, 5): row o of the pair histograms for each origin o.

    Colour each point t != o by line(o, t): r = 25 colours of 5 points each.  A
    line missing o has 6 points of 6 distinct colours, and a quadruple (o, x,
    y, p) is such a line l0 with p, y and x at three distinct places.  The 5
    points u of colour c(y) lie on 5 distinct lines pu, none through o, and
    line pu misses line ox exactly when it carries no point of colour c(x).  So
    the count is 5 - both[p, c(y), c(x)], where both[p, a, b] is the number of
    lines through p that miss o and carry colours a and b.  l0 = py is one of
    those lines, as it carries x, so u = y is not counted.

    both[p, a, b] is symmetric in a and b, so the quadruples (o, x, y, p) and
    (o, y, x, p) have the same count.  Hence one key (p, min, max of c(y) and
    c(x)) per triple of places with y before x, 60 per line, counts each line
    through p once per unordered pair of colours: one bincount of those keys
    over every line missing o gives both, and each count read back at its key
    goes into row y and into row x.
    """
    n = design.n_points
    lines = design.point_lines  # (n, r), ascending
    r = lines.shape[1]
    p, y, x = _PLACES
    rows = np.empty((len(origins), n, 5), dtype=np.int64)
    for row, o in zip(rows, origins):
        colour = np.searchsorted(lines[o], design.line_of[o])  # line(o, t)'s rank
        far = np.delete(design.block_rows, lines[o], axis=0)  # the lines missing o
        far_colours = colour[far]
        a, b = far_colours[:, y], far_colours[:, x]
        key = (far[:, p] * r + np.minimum(a, b)) * r + np.maximum(a, b)
        counts = 5 - np.bincount(key.ravel())[key]
        ends = far[:, _PLACES[1:]] * 5 + counts[:, None]  # (lines, 2, 60): rows y and x
        row[:] = np.bincount(ends.ravel(), minlength=5 * n).reshape(n, 5)
    return rows


def transversal(design: Design) -> tuple:
    """(reps, rep, at) for the orbits of the design's action.

    reps holds the least point of each orbit, ascending, and rep[x] is the
    index in reps of x's orbit.  A table t over point pairs that the action
    leaves invariant has t[x, y] = t[reps[rep[x]], g^-1 y] for an action row g
    with g*reps[rep[x]] = x, so its rows at reps give all of it: with those
    rows flattened to len(reps) * n entries, at[x, y] = rep[x] * n + g^-1 y
    is the flat index of t[x, y], and one ``np.take`` through at fills t.
    Under the identity action every point is its own orbit.  Built once per
    design and kept in ``design._cache``.
    """
    cached = design._cache.get("transversal")
    if cached is None:
        action = design.action
        n = design.n_points
        least = action.min(axis=0)  # each point's orbit, by its least point
        reps, rep = np.unique(least, return_inverse=True)
        points = np.arange(n)
        g = np.argmax(action[:, least] == points, axis=0)  # g*least[x] = x
        at = np.empty(n * n, dtype=np.intp)  # at[x, g*z] = rep[x] * n + z
        at[(action[g] + n * points[:, None]).ravel()] = np.add.outer(rep * n, points).ravel()
        cached = design._cache["transversal"] = (reps, rep, at.reshape(n, n))
    return cached


def pair_histograms(design: Design) -> np.ndarray:
    """(n, n, 5) array: [o, y] = histogram over quadruples with triple (o, x, y).

    The histograms are invariant under automorphisms, so only the orbit
    representatives of the design's action go through the kernel, and one
    ``np.take`` through the ``transversal`` fills the table from their rows.
    """
    cached = design._cache.get("pair_histograms")
    if cached is not None:
        return cached
    _require_steiner(design)
    reps, _, at = transversal(design)
    # the kernel's temporaries are freed before hist is allocated: a
    # reproduction then peaks at 2.4-2.8 MB of heap (tracemalloc), which stays
    # under glibc's trim threshold, so its pages are reused, not faulted in again
    rows = _kernel_rows(design, reps)
    hist = design._cache["pair_histograms"] = np.take(rows.reshape(-1, 5), at, axis=0)
    return hist


def point_histograms(design: Design) -> np.ndarray:
    """(n_points, 5) array: row o = histogram over quadruples starting at o,
    summed over the pair histograms' rows at the orbit representatives."""
    cached = design._cache.get("point_histograms")
    if cached is not None:
        return cached
    reps, rep, _ = transversal(design)
    hist = pair_histograms(design)[reps].sum(axis=1)[rep]
    design._cache["point_histograms"] = hist
    return hist


def fingerprint(design: Design) -> Fingerprint:
    hist = point_histograms(design).sum(axis=0)
    return Fingerprint(tuple((k, int(v)) for k, v in enumerate(hist) if v != 0))


def fingerprint_reference(design: Design) -> Fingerprint:
    """Direct quadruple loop over line disjointness (test oracle).

    Whether two lines share a point is decided by ``frozenset.isdisjoint``,
    once for each pair of lines, into a table that the loop reads.
    Deliberately avoids the colour counting of the optimized kernel.
    """
    _require_steiner(design)
    n = design.n_points
    blocks = design.blocks
    block_sets = [frozenset(b) for b in blocks]
    disjoint = [[a.isdisjoint(b) for b in block_sets] for a in block_sets]
    lof = [[int(v) for v in row] for row in design.line_of]
    hist = [0] * 7
    for o in range(n):
        row_o = lof[o]
        for y in range(n):
            if y == o:
                continue
            line_oy = row_o[y]
            us = [u for u in blocks[line_oy] if u != o and u != y]
            for x in range(n):
                if x == o or x == y or row_o[x] == line_oy:
                    continue
                misses_ox = disjoint[row_o[x]]
                for p in blocks[lof[x][y]]:
                    if p == x or p == y:
                        continue
                    row_p = lof[p]
                    c = 0
                    for u in us:
                        if misses_ox[row_p[u]]:
                            c += 1
                    hist[c] += 1
    return Fingerprint(tuple((k, v) for k, v in enumerate(hist) if v != 0))
