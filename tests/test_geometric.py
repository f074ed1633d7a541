"""Unitals of PG(2, 25) built from coordinates, checked against the catalog.

GF(25) = GF(5)[t]/(t^2 + t + 2), the element a + b*t stored as a + 5b.  A
unital's blocks are the lines of PG(2, 25) that meet it in 6 points.
"""

import numpy as np
import pytest

from conftest import design_of
from unitals.designs import Design, relabel, verify_steiner
from unitals.isomorph import automorphism_order, canonical_key

_A, _B = np.arange(25) % 5, np.arange(25) // 5  # element = _A + _B*t
ADD = (_A[:, None] + _A) % 5 + 5 * ((_B[:, None] + _B) % 5)
# (a + bt)(c + dt) = ac + (ad + bc)t + bd*t^2, with t^2 = -t - 2 = 4t + 3
_BD = _B[:, None] * _B
MUL = (_A[:, None] * _A + 3 * _BD) % 5 + 5 * ((_A[:, None] * _B + _B[:, None] * _A + 4 * _BD) % 5)
T = 5


def power(x, e):
    out = np.ones_like(x)
    for _ in range(e):
        out = MUL[out, x]
    return out


def projective_points():
    """One representative per point of PG(2, 25): leading coordinate 1."""
    g = np.arange(25)
    pts = [(1, y, z) for y in g for z in g] + [(0, 1, z) for z in g] + [(0, 0, 1)]
    return np.array(pts)


def unital_design(points) -> Design:
    points = np.asarray(points)
    blocks = []
    for line in projective_points():
        dots = ADD[ADD[MUL[line[0], points[:, 0]], MUL[line[1], points[:, 1]]],
                   MUL[line[2], points[:, 2]]]
        on = np.flatnonzero(dots == 0)
        if len(on) == 6:
            blocks.append(on.tolist())
    return Design.from_blocks(blocks, len(points))


def hermitian():
    pts = projective_points()
    norms = ADD[ADD[power(pts[:, 0], 6), power(pts[:, 1], 6)], power(pts[:, 2], 6)]
    return pts[norms == 0]


def buekenhout_metz(alpha, beta):
    """{(x, alpha x^2 + beta x^6 + r, 1) : x in GF(25), r in GF(5)} + (0, 1, 0)."""
    x = np.repeat(np.arange(25), 5)
    r = np.tile(np.arange(5), 25)
    y = ADD[ADD[MUL[alpha, power(x, 2)], MUL[beta, power(x, 6)]], r]
    return np.concatenate([np.stack([x, y, np.ones_like(x)], axis=1), [[0, 1, 0]]])


@pytest.mark.parametrize("points, entry_id, aut", [
    (hermitian(), "ex3-1", 756000),
    (buekenhout_metz(1, T), "ex3-3", 1000),
    (buekenhout_metz(T, 0), "ex5-1", 2000),
], ids=["hermitian", "bm-1-t", "bm-t-0"])
def test_coordinate_unital_matches_catalog(points, entry_id, aut):
    assert len(points) == 126
    design = unital_design(points)
    assert verify_steiner(design).is_steiner
    key = canonical_key(design)
    assert key == canonical_key(design_of(entry_id))
    count = automorphism_order(design)
    assert count.complete and count.order == aut
    perm = np.random.default_rng(7).permutation(126)
    assert canonical_key(relabel(design, perm)) == key
