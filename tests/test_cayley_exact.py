"""The planar embedding's own checks, and its exactness on the lattice.

`embed` keeps lattice points as ints and segment ends as Fractions.  The
reference below lays the tiling out the way it was first written, with
every coordinate a Fraction, and the integer path must agree with it
exactly, SVG bytes included.  The overlap check on unit lattice triangles
must name the pair that the pairwise separating-axis oracle names."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from tropom import (
    arrangement_tom,
    cayley,
    classify_piece,
    embed,
    enumerate_triangulations,
    random_generic_arrangement,
    render_svg,
    tom_to_subdivision,
)
from tropom.cayley import EmbeddedCell, _doubled_area, _first_overlap, _hull
from tropom.subdivision import subgraph_to_type
from tropom.core import elements_of
from oracles import first_overlap_naive, interiors_disjoint as _interiors_disjoint

# The same figures at two sizes: in int coordinates as written, and halved
# into Fractions.  The predicate does not depend on the scale.
SCALES = {"int": lambda v: v, "fraction": lambda v: Fraction(v, 2)}

TRIANGLE = ((0, 0), (2, 0), (0, 2))
RHOMBUS = ((0, 2), (2, 0), (2, 2), (0, 4))

OVERLAP_CASES = {
    "two overlapping unit triangles": (TRIANGLE, ((1, 0), (3, 0), (1, 2))),
    "rhombus over a triangle": (RHOMBUS, ((1, 2), (3, 2), (1, 4))),
    "identical triangles": (TRIANGLE, TRIANGLE),
    "identical rhombi": (RHOMBUS, RHOMBUS),
}

DISJOINT_CASES = {
    "shared edge": (TRIANGLE, RHOMBUS),
    "shared vertex": (TRIANGLE, ((2, 0), (4, 0), (2, 2))),
}


def _scaled(poly, scale):
    return tuple((scale(u), scale(v)) for u, v in poly)


@pytest.mark.parametrize("scale", SCALES.values(), ids=SCALES.keys())
@pytest.mark.parametrize("case", OVERLAP_CASES.values(), ids=OVERLAP_CASES.keys())
def test_interiors_disjoint_sees_overlaps(case, scale):
    p, q = (_scaled(poly, scale) for poly in case)
    assert not _interiors_disjoint(p, q)
    assert not _interiors_disjoint(q, p)


@pytest.mark.parametrize("scale", SCALES.values(), ids=SCALES.keys())
@pytest.mark.parametrize("case", DISJOINT_CASES.values(), ids=DISJOINT_CASES.keys())
def test_interiors_disjoint_allows_touching(case, scale):
    p, q = (_scaled(poly, scale) for poly in case)
    assert _interiors_disjoint(p, q)
    assert _interiors_disjoint(q, p)


@pytest.mark.parametrize("kind", [int, Fraction], ids=["int", "fraction"])
def test_doubled_area(kind):
    triangle = ((kind(0), kind(0)), (kind(1), kind(0)), (kind(0), kind(1)))
    rhombus = ((kind(0), kind(1)), (kind(1), kind(0)), (kind(1), kind(1)), (kind(0), kind(2)))
    assert _doubled_area(triangle) == 1
    assert _doubled_area(rhombus) == 2
    assert _doubled_area(triangle[::-1]) == -1
    assert type(_doubled_area(triangle)) is kind


@pytest.mark.parametrize("kind", [int, Fraction], ids=["int", "fraction"])
def test_hull_drops_duplicates_and_collinear_points(kind):
    def pts(*raw):
        return [(kind(u), kind(v)) for u, v in raw]

    # a side-2 triangle with its edge midpoints and repeated corners: only
    # the three corners survive, ccw from the smallest
    cloud = pts((1, 0), (0, 0), (2, 0), (0, 2), (1, 1), (0, 1), (0, 0), (2, 0))
    assert _hull(cloud) == tuple(pts((0, 0), (2, 0), (0, 2)))
    assert _hull(pts((0, 0), (1, 0), (2, 0))) == tuple(pts((0, 0), (2, 0)))
    assert _hull(pts((1, 1), (1, 1))) == tuple(pts((1, 1)))
    square = pts((0, 0), (1, 0), (1, 1), (0, 1), (1, 0), (0, 0))
    assert _hull(square) == tuple(pts((0, 0), (1, 0), (1, 1), (0, 1)))


# ---------------------------------------------------------------------------
# the Fraction reference


def _ref_hull(points):
    pts = sorted(set(points))

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _ref_axial(bary):
    return (Fraction(bary[1]), Fraction(bary[2]))


def _ref_mid(p, q):
    half = Fraction(1, 2)
    return ((p[0] + q[0]) * half, (p[1] + q[1]) * half)


def _ref_embed(tri):
    """Polygons and segments computed on Fractions throughout."""
    out = []
    for index, cell in enumerate(tri.cells, start=1):
        t = subgraph_to_type(cell)
        piece = classify_piece(t)
        points = []
        for choice in itertools.product(*(elements_of(m) for m in t.coords)):
            bary = [0, 0, 0]
            for j in choice:
                bary[j - 1] += 1
            points.append(_ref_axial(bary))
        poly = _ref_hull(points)
        segments = []
        if piece.kind == "triangle":
            (p0, p1, p2) = poly
            centroid = ((p0[0] + p1[0] + p2[0]) / 3, (p0[1] + p1[1] + p2[1]) / 3)
            for a, b in ((p0, p1), (p1, p2), (p2, p0)):
                segments.append((piece.positions[0], centroid, _ref_mid(a, b)))
        else:
            r1, r2 = piece.positions
            base = [0, 0, 0]
            for i, m in enumerate(t.coords, start=1):
                if i not in (r1, r2):
                    base[elements_of(m)[0] - 1] += 1

            def corner(j1, j2):
                bary = list(base)
                bary[j1 - 1] += 1
                bary[j2 - 1] += 1
                return _ref_axial(bary)

            (a1, b1) = elements_of(t.coords[r1 - 1])
            (a2, b2) = elements_of(t.coords[r2 - 1])
            segments.append((r1, _ref_mid(corner(a1, a2), corner(b1, a2)),
                             _ref_mid(corner(a1, b2), corner(b1, b2))))
            segments.append((r2, _ref_mid(corner(a1, a2), corner(a1, b2)),
                             _ref_mid(corner(b1, a2), corner(b1, b2))))
        out.append(EmbeddedCell(index, t, piece, poly, tuple(segments)))
    return tuple(out)


def _ref_to_xy(pt, n):
    x = float(pt[0] + pt[1] * Fraction(1, 2)) * 100.0
    y = (float(n) - float(pt[1])) * (math.sqrt(3.0) / 2.0) * 100.0
    return x, y


def _all_small_triangulations():
    return [tri for n in (2, 3) for tri in enumerate_triangulations(n, 3)]


def _from_tom_collections():
    """The dual subdivisions of seed-7 generic arrangements of 6, 10 and 20
    hyperplanes: triangulations with 21, 55 and 210 cells."""
    return [
        tom_to_subdivision(arrangement_tom(random_generic_arrangement(n, 3, seed=7)))
        for n in (6, 10, 20)
    ]


def _is_exact(x):
    return type(x) in (int, Fraction)


def test_embedding_is_exact_and_matches_the_fraction_reference():
    tris = _all_small_triangulations()
    assert len(tris) == 6 + 108
    for tri in tris:
        cells = embed(tri)
        ref = _ref_embed(tri)
        assert [c.polygon for c in cells] == [r.polygon for r in ref]
        assert [c.segments for c in cells] == [r.segments for r in ref]
        for cell in cells:
            assert all(type(x) is int for pt in cell.polygon for x in pt)
            for _row, p, q in cell.segments:
                assert all(_is_exact(x) for x in (*p, *q))
            if cell.piece.kind == "triangle":
                centroid = cell.segments[0][1]
                assert all(type(x) is Fraction and x.denominator == 3 for x in centroid)


def test_svg_matches_the_fraction_reference(monkeypatch):
    tris = _all_small_triangulations() + _from_tom_collections()
    svgs = [render_svg(tri) for tri in tris]
    monkeypatch.setattr(cayley, "embed", _ref_embed)
    monkeypatch.setattr(cayley, "_to_xy", _ref_to_xy)
    assert [render_svg(tri) for tri in tris] == svgs


# ---------------------------------------------------------------------------
# the overlap check


def test_overlap_check_agrees_with_the_pairwise_oracle_on_placed_pieces():
    # every pair of distinct pieces placed by some triangulation of a shape,
    # so that pieces of different triangulations overlap too
    shapes = [enumerate_triangulations(n, 3) for n in (2, 3)] + [
        [c] for c in _from_tom_collections()
    ]
    assert sum(map(len, shapes)) == 6 + 108 + 3
    overlapping = 0
    for tris in shapes:
        pieces = sorted({cell.polygon for tri in tris for cell in embed(tri)})
        for p, q in itertools.combinations(pieces, 2):
            want = None if _interiors_disjoint(p, q) else (0, 1)
            assert _first_overlap([p, q]) == want, (p, q)
            overlapping += want is not None
    assert overlapping > 20


def _unit(*corners):
    return _hull(list(corners))


UP = _unit((1, 1), (2, 1), (1, 2))
DOWN = _unit((2, 1), (1, 2), (2, 2))  # shares UP's edge (2,1)-(1,2)
RHOMBUS = _unit((1, 1), (2, 1), (2, 2), (1, 2))  # UP and DOWN
RHOMBUS_LEFT = _unit((1, 1), (2, 1), (1, 2), (0, 2))  # UP and the down triangle left of it
RHOMBUS_BELOW = _unit((2, 0), (2, 1), (1, 2), (1, 1))  # UP and the down triangle below it
AWAY = _unit((3, 0), (4, 0), (3, 1))  # meets UP nowhere
CORNER = _unit((2, 1), (3, 1), (2, 2))  # meets UP at (2, 1) only

PLANTED = {
    "a repeated triangle": ([AWAY, UP, UP], (1, 2)),
    "a repeated rhombus": ([RHOMBUS_LEFT, AWAY, RHOMBUS_LEFT], (0, 2)),
    "a rhombus over its upward triangle": ([RHOMBUS, AWAY, UP], (0, 2)),
    "a rhombus over its downward triangle": ([DOWN, RHOMBUS], (0, 1)),
    "two rhombi sharing one triangle": ([RHOMBUS_BELOW, RHOMBUS_LEFT], (0, 1)),
    "the smallest pair is not the first clash met": ([UP, AWAY, DOWN, RHOMBUS], (0, 3)),
    "triangles touching along an edge": ([UP, DOWN], None),
    "triangles touching at a corner": ([UP, CORNER, AWAY], None),
    "a rhombus beside a triangle": ([RHOMBUS, CORNER, AWAY], None),
    "three rhombi around a point": ([RHOMBUS_LEFT, _unit((2, 1), (3, 1), (2, 2), (1, 2)),
                                     _unit((1, 0), (2, 0), (2, 1), (1, 1))], None),
}


@pytest.mark.parametrize("pieces, want", PLANTED.values(), ids=PLANTED.keys())
def test_overlap_check_names_the_pairwise_loops_first_pair(pieces, want):
    assert first_overlap_naive(pieces) == want
    assert _first_overlap(pieces) == want


def test_overlap_check_on_random_lists_of_unit_pieces():
    n = 4  # every unit triangle and rhombus of the side-4 triangle
    ups = [((u, v), (u + 1, v), (u, v + 1)) for u in range(n) for v in range(n - u)]
    downs = [((u + 1, v), (u, v + 1), (u + 1, v + 1)) for u in range(n) for v in range(n - u - 1)]
    pieces = [_unit(*t) for t in ups + downs]
    pieces += [_unit(*set(a + b)) for a in ups for b in downs if len(set(a) & set(b)) == 2]
    rng = random.Random(24)
    named = 0
    for _ in range(400):
        picked = rng.sample(pieces, rng.randint(2, 7))
        want = first_overlap_naive(picked)
        assert _first_overlap(picked) == want, picked
        named += want is not None
    assert 100 < named < 400
