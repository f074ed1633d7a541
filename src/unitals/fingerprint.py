"""Hyperbolic frequency fingerprint of a unital.

For every ordered triple (o, x, y) of distinct points with o off the line xy,
and every point p on line xy other than x and y, count the points u on line oy
(other than o and y) whose line pu shares no point with line ox.  The
fingerprint is the histogram of these counts over all 7,560,000 quadruples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import BLOCK_SIZE, Design, verify_steiner
from .errors import DuplicateKey, NotASteinerSystem, ParseError

TOTAL_QUADRUPLES = 7_560_000  # 126*125*124 - 525*6*5*4 non-collinear triples, times 4


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


def parse_fingerprint(text: str) -> Fingerprint:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError(f"fingerprint must be brace-delimited: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return Fingerprint(())
    items = []
    for part in body.split(","):
        if "=" not in part:
            raise ParseError(f"bad fingerprint item {part!r}")
        k, v = part.split("=", 1)
        try:
            key, val = int(k.strip()), int(v.strip())
        except ValueError:
            raise ParseError(f"non-integer fingerprint item {part!r}") from None
        items.append((key, val))
    keys = [k for k, _ in items]
    if len(set(keys)) != len(keys):
        raise DuplicateKey(f"repeated count key in {text!r}")
    if keys != sorted(keys):
        raise ParseError(f"count keys must be ascending in {text!r}")
    return Fingerprint(tuple((k, v) for k, v in items if v != 0))


@dataclass(frozen=True)
class PointProfile:
    """Fingerprint restricted to quadruples whose triple starts at one point."""

    point: int
    items: tuple

    def as_dict(self) -> dict:
        return dict(self.items)


def _require_steiner(design: Design) -> None:
    verdict = design._cache.get("steiner_ok")
    if verdict is None:
        verdict = verify_steiner(design).is_steiner
        design._cache["steiner_ok"] = verdict
    if not verdict:
        raise NotASteinerSystem("fingerprint requires a verified S(2,6,126)")


def _incidence_tables(design: Design):
    """(others, disjoint): 4 co-line points per pair, block disjointness matrix."""
    cached = design._cache.get("incidence_tables")
    if cached is not None:
        return cached
    n = design.n_points
    blocks = design.block_array()  # (B, 6), each row ascending
    firsts, seconds = np.nonzero(~np.eye(BLOCK_SIZE, dtype=bool))
    rest = np.array([[r for r in range(BLOCK_SIZE) if r not in (j, k)]
                     for j, k in zip(firsts, seconds)])
    others = np.zeros((n, n, 4), dtype=np.int32)
    others[blocks[:, firsts], blocks[:, seconds]] = blocks[:, rest]
    lines = design.point_lines()
    meets = np.zeros((len(blocks), len(blocks)), dtype=bool)
    meets[lines[:, :, None], lines[:, None, :]] = True  # both lines through one point
    disjoint = ~meets
    design._cache["incidence_tables"] = (others, disjoint)
    return others, disjoint


def _kernel_rows(design: Design, origins) -> np.ndarray:
    """(len(origins), n, 5): row o of the pair histograms for each origin o."""
    n = design.n_points
    line_of = design.line_of.ravel()
    others, disjoint = _incidence_tables(design)
    # [j, y, x] -> n * p_j, the j-th point of line(x,y) \ {x,y}
    p_rows = np.moveaxis(others, 2, 0) * n
    y_bins = np.broadcast_to(np.arange(n)[:, None] * 5, (4, n, n))  # first bin of row y
    rows = np.zeros((len(origins), n, 5), dtype=np.int64)
    for row, o in zip(rows, origins):
        pencil = design.line_of[o]  # line(o, t) for every t
        valid = pencil[:, None] != pencil[None, :]  # [y, x]: o,x,y non-collinear
        valid[o, :] = False
        valid[:, o] = False
        misses_ox = disjoint[:, pencil].ravel()  # [l * n + x]: line l misses line(o, x)
        bins = y_bins.copy()
        for u in others[o].T:  # one point of line(o,y) \ {o,y} per y
            line_pu = line_of.take(p_rows + u[:, None])
            bins += misses_ox.take(line_pu * n + np.arange(n))
        row += np.bincount(bins[:, valid].ravel(), minlength=5 * n).reshape(n, 5)
    return rows


def pair_histograms(design: Design) -> np.ndarray:
    """(n, n, 5) array: [o, y] = histogram over quadruples with triple (o, x, y).

    The histograms are invariant under automorphisms, so for a design that
    carries the group action it was developed by, only one origin per orbit
    goes through the kernel and [g*o, g*y] = [o, y] fills the rest.
    """
    cached = design._cache.get("pair_histograms")
    if cached is not None:
        return cached
    _require_steiner(design)
    action = design.action
    if action is None:
        hist = _kernel_rows(design, range(design.n_points))
    else:
        reps = [0, *range(len(action), design.n_points)]  # the group's orbit; fixed ∞
        hist = np.zeros((design.n_points, design.n_points, 5), dtype=np.int64)
        for o, row in zip(reps, _kernel_rows(design, reps)):
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


def point_profile(design: Design) -> list:
    hist = point_histograms(design)
    return [
        PointProfile(o, tuple((k, int(v)) for k, v in enumerate(row) if v != 0))
        for o, row in enumerate(hist)
    ]


def fingerprint_reference(design: Design) -> Fingerprint:
    """Direct quadruple loop with set-intersection by scanning (test oracle).

    Deliberately avoids the precomputed co-line table and disjointness matrix
    of the optimized kernel.
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
