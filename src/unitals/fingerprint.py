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
#: (3, 120): the places of p, y and x for each ordered triple of distinct places of a line
_PLACES = np.array(list(permutations(range(BLOCK_SIZE), 3))).T


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

    def __str__(self):
        return format_fingerprint(self)


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
    lines through p that miss o and carry colours a and b: one bincount of the
    keys (p, c(y), c(x)) over every line missing o.  l0 = py is one of those
    lines, as it carries x, so u = y is not counted.
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
        key = (far[:, p] * r + far_colours[:, y]) * r + far_colours[:, x]
        counts = 5 - np.bincount(key.ravel())[key]
        row[:] = np.bincount((far[:, y] * 5 + counts).ravel(), minlength=5 * n).reshape(n, 5)
    return rows


def pair_histograms(design: Design) -> np.ndarray:
    """(n, n, 5) array: [o, y] = histogram over quadruples with triple (o, x, y).

    The histograms are invariant under automorphisms, so only one origin per
    orbit of the design's action goes through the kernel and [g*o, g*y] =
    [o, y] fills the rest; under the identity action every orbit is one point.
    """
    cached = design._cache.get("pair_histograms")
    if cached is not None:
        return cached
    _require_steiner(design)
    action = design.action
    reps = np.unique(action.min(axis=0))  # one origin per orbit
    # the kernel's temporaries are freed before hist is allocated: a
    # reproduction then peaks at about 2.3 MB of heap (tracemalloc), which stays
    # under glibc's trim threshold, so its pages are reused, not faulted in again
    rows = _kernel_rows(design, reps)
    hist = np.zeros((design.n_points, design.n_points, 5), dtype=np.int64)
    for o, row in zip(reps.tolist(), rows):
        hist[action[:, o][:, None], action] = row
    design._cache["pair_histograms"] = hist
    return hist


def point_histograms(design: Design) -> np.ndarray:
    """(n_points, 5) array: row o = histogram over quadruples starting at o."""
    cached = design._cache.get("point_histograms")
    if cached is not None:
        return cached
    hist = pair_histograms(design).sum(axis=1)
    design._cache["point_histograms"] = hist
    return hist


def fingerprint(design: Design) -> Fingerprint:
    hist = point_histograms(design).sum(axis=0)
    return Fingerprint(tuple((k, int(v)) for k, v in enumerate(hist) if v != 0))


def fingerprint_reference(design: Design) -> Fingerprint:
    """Direct quadruple loop with set-intersection by scanning (test oracle).

    Deliberately avoids the colour counting of the optimized kernel.
    """
    _require_steiner(design)
    n = design.n_points
    blocks = design.blocks
    block_sets = [frozenset(b) for b in blocks]
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
                line_ox_set = block_sets[row_o[x]]
                for p in blocks[lof[x][y]]:
                    if p == x or p == y:
                        continue
                    row_p = lof[p]
                    c = 0
                    for u in us:
                        if block_sets[row_p[u]].isdisjoint(line_ox_set):
                            c += 1
                    hist[c] += 1
    return Fingerprint(tuple((k, v) for k, v in enumerate(hist) if v != 0))
