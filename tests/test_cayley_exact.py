"""The planar embedding's own checks, and its exactness on the lattice.

`embed` keeps lattice points as ints and segment ends as Fractions.  The
reference below lays the tiling out the way it was first written, with
every coordinate a Fraction, and the integer path must agree with it
exactly, SVG bytes included."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from tropom import cayley, classify_piece, embed, enumerate_triangulations, render_svg
from tropom.cayley import EmbeddedCell, _doubled_area, _hull, _interiors_disjoint
from tropom.subdivision import subgraph_to_type
from tropom.core import elements_of

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
    tris = _all_small_triangulations()
    svgs = [render_svg(tri) for tri in tris]
    monkeypatch.setattr(cayley, "embed", _ref_embed)
    monkeypatch.setattr(cayley, "_to_xy", _ref_to_xy)
    assert [render_svg(tri) for tri in tris] == svgs
