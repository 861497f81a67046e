"""Planar picture of three-direction triangulations.

A fine cell over d = 3 is a Minkowski sum of one triangle or two unit
segments plus points, so the cells of a triangulation tile the side-n
triangle with upward unit triangles and unit rhombi (lozenges).  This
module classifies the pieces, enumerates the legal moves between adjacent
cells, lays the tiling out with exact lattice coordinates, and renders it
to SVG with the induced pseudoline overlay (one polyline class per
hyperplane).  A fine cell is a spanning tree of K_{n,3}, and a move is a
flip across a facet: shedding u from coordinate p drops the edge (p, u),
which cuts the tree in two (``_side``, by ``structure._components``), and
adds one edge across the cut, from a coordinate on u's side to a direction
on the other side.

Lattice convention: a point with barycentric coordinates (p1, p2, p3),
summing to n, sits at axial (u, v) = (p2, p3); the plane map is
x = u + v/2, y = v * sqrt(3)/2, with y flipped for SVG.  The area unit is
the upward unit triangle, computed as twice the axial shoelace area.

A fine cell's lattice points are its choices of one direction per
coordinate: ``_cell_points`` maps each choice (a tuple of directions, in
``itertools.product`` order) to its lattice point.  The polygon is the hull
of those points, and a rhombus's midlines join midpoints of its edges,
read off the same map.

Every polygon corner is a lattice point, so polygons, areas and the overlap
check run on plain ints.  The only other points are the pseudoline segment
ends: edge midpoints (halves) and triangle centroids (thirds), kept exact as
Fractions.  Floats appear only in the SVG text, from int true divisions,
rounded as ``Fraction.__float__`` rounds.  The overlap check keys each piece
by the unit lattice triangles it holds (``_first_overlap``)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    EmbeddingInconsistentError,
    NotAFineCellError,
    Type,
    elements_of,
)
from .structure import _components, _spans
from .subdivision import SubgraphCollection, require_triangulation, subgraph_to_type

Axial = tuple[int, int]  # a lattice point (u, v) = (p2, p3)
Point = tuple[Fraction, Fraction]  # a segment end: a midpoint or a centroid


# ---------------------------------------------------------------------------
# mixed cells and pieces


@dataclass(frozen=True)
class MixedCell:
    """A type reread as a Minkowski sum: one summand per coordinate."""

    n: int
    d: int
    summands: tuple[int, ...]

    @property
    def is_fine(self) -> bool:
        return sum(m.bit_count() - 1 for m in self.summands) == self.d - 1

    def __str__(self) -> str:
        body = " + ".join(
            "{" + ",".join(str(j) for j in elements_of(m)) + "}"
            for m in self.summands
        )
        return f"MixedCell[{body}]"


def cayley_cell(a: Type) -> MixedCell:
    """Reread a type as the mixed cell with summands its coordinates."""
    return MixedCell(a.n, a.d, a.coords)


@dataclass(frozen=True)
class PuzzlePiece:
    """Shape of a fine d=3 cell: a triangle, or a rhombus tagged by the
    direction its two segment summands share."""

    kind: str
    positions: tuple[int, ...]


def classify_piece(a: Type) -> PuzzlePiece:
    """Classify a fine, connected d=3 type as a puzzle piece."""
    if a.d != 3:
        raise NotAFineCellError(f"pieces need d=3, got d={a.d}")
    if not cayley_cell(a).is_fine:
        raise NotAFineCellError(f"{a} is not fine")
    if not _spans(a.coords, a.d):
        raise NotAFineCellError(f"{a} is not connected")
    triples = [i for i, m in enumerate(a.coords, start=1) if m.bit_count() == 3]
    doubles = [i for i, m in enumerate(a.coords, start=1) if m.bit_count() == 2]
    if len(triples) == 1 and not doubles:
        return PuzzlePiece("triangle", (triples[0],))
    if len(doubles) == 2 and not triples:
        shared = a.coords[doubles[0] - 1] & a.coords[doubles[1] - 1]
        if shared.bit_count() == 1:
            s = elements_of(shared)[0]
            return PuzzlePiece(f"rhombus-{s}", tuple(doubles))
    raise NotAFineCellError(f"{a} is neither a triangle nor a rhombus")


# ---------------------------------------------------------------------------
# transition moves


@dataclass(frozen=True)
class TransitionMove:
    """Shedding `numeral` from coordinate `position` can only land on one of
    `candidates` (empty means the move exits through the boundary)."""

    position: int
    numeral: int
    candidates: tuple[Type, ...]


def _with_row(coords: tuple[int, ...], row: int, mask: int) -> tuple[int, ...]:
    return coords[: row - 1] + (mask,) + coords[row:]


def _side(rows: tuple[int, ...], d: int, u: int) -> int:
    """The directions on u's side of the cut a spanning tree less one edge
    has, from its left rows; a row is on the side it meets, if any."""
    return next(c for c in _components(rows, d) if c >> (u - 1) & 1)


def transitions(a: Type) -> tuple[TransitionMove, ...]:
    """All single-direction sheds from a fine d=3 cell and their landings,
    the flips across the cut each shed makes, in increasing coordinate order."""
    classify_piece(a)  # a fine d=3 cell, or NotAFineCellError
    moves = []
    for p, mask in enumerate(a.coords, start=1):
        if mask.bit_count() < 2:
            continue
        for u in elements_of(mask):
            after = _with_row(a.coords, p, mask & ~(1 << (u - 1)))
            side = _side(after, a.d, u)
            landings = sorted(
                _with_row(after, q, row | 1 << (x - 1))
                for q, row in enumerate(after, start=1)
                if row & side
                for x in elements_of((1 << a.d) - 1 & ~side)
            )
            moves.append(TransitionMove(p, u, tuple(Type(a.n, a.d, c) for c in landings)))
    return tuple(moves)


@dataclass(frozen=True)
class TransitionReport:
    """Every adjacent cell pair of a triangulation checked against the
    transition moves, both ways."""

    cell_count: int
    adjacent_pairs: int
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "cells": self.cell_count,
            "adjacent_pairs": self.adjacent_pairs,
            "violations": [list(pair) for pair in self.violations],
        }


def verify_transition_rules(c: SubgraphCollection) -> TransitionReport:
    """Check that every adjacent pair of cells is a legal transition move.
    Cell b is adjacent to a when it swaps one edge (p, u) of a for (q, x).
    Both moves, shedding u from p in a and x from q in b, flip across the
    cut a & b makes, and are legal when q is on u's side of it and x is not;
    b is a tree, so (q, x) crosses the cut and x off u's side says both."""
    if c.d != 3:
        raise ValueError(f"transition rules need d=3, got d={c.d}")
    require_triangulation(c)
    # a cell's edges as one int: edge (i, j) is bit 3(i - 1) + j - 1
    packed = [sum(row << 3 * i for i, row in enumerate(cell.rows)) for cell in c.cells]
    pairs = 0
    violations = []
    for (ia, a), (ib, b) in itertools.combinations(enumerate(packed), 2):
        gone, added = a & ~b, b & ~a
        if gone.bit_count() != 1 or added.bit_count() != 1:
            continue
        pairs += 1
        shared = tuple((a & b) >> 3 * i & 7 for i in range(c.n))
        side = _side(shared, 3, (gone.bit_length() - 1) % 3 + 1)
        if side >> (added.bit_length() - 1) % 3 & 1:
            violations.append((ia + 1, ib + 1))
    return TransitionReport(
        cell_count=len(c.cells),
        adjacent_pairs=pairs,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# exact embedding


@dataclass(frozen=True)
class EmbeddedCell:
    """One cell of the tiling: its polygon (ccw axial lattice coordinates)
    and the pseudoline segments crossing it, tagged by hyperplane."""

    index: int
    vertex_type: Type
    piece: PuzzlePiece
    polygon: tuple[Axial, ...]
    segments: tuple[tuple[int, Point, Point], ...]


def _axial(bary: tuple[int, int, int]) -> Axial:
    return (bary[1], bary[2])


def _hull(points: list[Axial]) -> tuple[Axial, ...]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o: Axial, p: Axial, q: Axial) -> int:
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: list[Axial] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Axial] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])  # ccw


def _doubled_area(poly: tuple[Axial, ...]) -> int:
    total = 0
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        total += x1 * y2 - x2 * y1
    return total  # in upward-unit-triangle units (axial shoelace doubled)


def _mid(p: Axial, q: Axial) -> Point:
    return (Fraction(p[0] + q[0], 2), Fraction(p[1] + q[1], 2))


def _cell_points(a: Type) -> dict[tuple[int, ...], Axial]:
    pts = {}
    for choice in itertools.product(*(elements_of(m) for m in a.coords)):
        bary = [0, 0, 0]
        for j in choice:
            bary[j - 1] += 1
        pts[choice] = _axial((bary[0], bary[1], bary[2]))
    return pts


def _first_overlap(polygons: list[tuple[Axial, ...]]) -> tuple[int, int] | None:
    """The smallest pair a < b of placed unit pieces whose interiors overlap,
    or None: they share a unit lattice triangle, keyed by its corner sum (a
    triangle holds one, a rhombus two, split along its diagonal of length 1)."""
    holders: dict[Axial, list[int]] = {}
    for index, poly in enumerate(polygons):
        x, y = poly[2][0] - poly[0][0], poly[2][1] - poly[0][1]
        if len(poly) == 4 and x * x + x * y + y * y != 1:
            poly = poly[1:] + poly[:1]  # the short diagonal joins the other two
        (u0, v0), (u2, v2) = poly[0], poly[2]
        for u, v in poly[1::2]:  # each corner off the diagonal makes a triangle
            holders.setdefault((u0 + u2 + u, v0 + v2 + v), []).append(index)
    return min((tuple(h[:2]) for h in holders.values() if len(h) > 1), default=None)


def embed(c: SubgraphCollection) -> tuple[EmbeddedCell, ...]:
    """Lay a d=3 triangulation out in the triangular lattice, exactly.

    Raises EmbeddingInconsistent when the placed pieces fail any exactness
    check: per-piece area, containment in the side-n triangle, total area
    n^2, or disjoint interiors (``_first_overlap``)."""
    if c.d != 3:
        raise ValueError(f"the planar embedding needs d=3, got d={c.d}")
    require_triangulation(c)
    n = c.n
    out = []
    for index, cell in enumerate(c.cells, start=1):
        t = subgraph_to_type(cell)
        piece = classify_piece(t)
        pts = _cell_points(t)
        poly = _hull(list(pts.values()))
        expected = 1 if piece.kind == "triangle" else 2
        if len(poly) != expected + 2 or _doubled_area(poly) != expected:
            raise EmbeddingInconsistentError(
                f"cell {index} does not place as a unit {piece.kind}"
            )
        for u, v in poly:
            if u < 0 or v < 0 or u + v > n:
                raise EmbeddingInconsistentError(
                    f"cell {index} leaves the side-{n} triangle"
                )
        segments = []
        if piece.kind == "triangle":
            (p0, p1, p2) = poly
            centroid = (
                Fraction(p0[0] + p1[0] + p2[0], 3),
                Fraction(p0[1] + p1[1] + p2[1], 3),
            )
            row = piece.positions[0]
            for a_pt, b_pt in ((p0, p1), (p1, p2), (p2, p0)):
                segments.append((row, centroid, _mid(a_pt, b_pt)))
        else:
            # the midline of segment row r joins the midpoints of the two
            # edges along which only r's choice changes, one per choice of
            # the other segment row s, smaller direction first
            for r in piece.positions:
                s = sum(piece.positions) - r
                ends = [
                    _mid(*(p for choice, p in pts.items() if choice[s - 1] == j))
                    for j in elements_of(t.coords[s - 1])
                ]
                segments.append((r, *ends))
        out.append(
            EmbeddedCell(
                index=index,
                vertex_type=t,
                piece=piece,
                polygon=poly,
                segments=tuple(segments),
            )
        )
    total = sum(_doubled_area(e.polygon) for e in out)
    if total != n * n:
        raise EmbeddingInconsistentError(
            f"tiles cover area {total}, the side-{n} triangle has {n * n}"
        )
    clash = _first_overlap([e.polygon for e in out])
    if clash is not None:
        raise EmbeddingInconsistentError(f"cells {clash[0] + 1} and {clash[1] + 1} overlap")
    return tuple(out)


# ---------------------------------------------------------------------------
# SVG


_SQRT3 = math.sqrt(3.0)
_SCALE = 100.0

_LINE_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#666666",
)
_FILLS = {
    "triangle": "#f7e8b0",
    "rhombus-1": "#cfe3f5",
    "rhombus-2": "#d8efd3",
    "rhombus-3": "#f3d1dc",
}


def _fmt(x: float) -> str:
    s = f"{x:.3f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _to_xy(pt: Axial | Point, n: int) -> tuple[float, float]:
    # int true divisions round correctly, as Fraction.__float__ does, and halving is exact
    un, ud, vn, vd = pt[0].numerator, pt[0].denominator, pt[1].numerator, pt[1].denominator
    x = (2 * un * vd + vn * ud) / (ud * vd) / 2 * _SCALE
    y = (float(n) - vn / vd) * (_SQRT3 / 2.0) * _SCALE
    return x, y


def render_svg(c: SubgraphCollection) -> str:
    """Deterministic standalone SVG of the tiling with pseudoline overlay."""
    cells = embed(c)
    n = c.n
    width = float(n) * _SCALE
    height = float(n) * (_SQRT3 / 2.0) * _SCALE
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">',
    ]
    style = [
        "  <style>",
        "    polygon { stroke: #444444; stroke-width: 1; stroke-linejoin: round; }",
    ]
    for kind, fill in _FILLS.items():
        style.append(f"    .piece-{kind} {{ fill: {fill}; }}")
    style.append("    line { stroke-width: 3; stroke-linecap: round; }")
    for i in range(1, n + 1):
        color = _LINE_PALETTE[(i - 1) % len(_LINE_PALETTE)]
        style.append(f"    .hp-{i} {{ stroke: {color}; }}")
    style.append("  </style>")
    lines.extend(style)
    for cell in cells:
        pts = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (_to_xy(p, n) for p in cell.polygon)
        )
        lines.append(f'  <polygon class="piece-{cell.piece.kind}" points="{pts}"/>')
    overlay = []
    for cell in cells:
        for row, p1, p2 in cell.segments:
            overlay.append((row, cell.index, p1, p2))
    overlay.sort(key=lambda entry: (entry[0], entry[1]))
    for row, _idx, p1, p2 in overlay:
        (x1, y1), (x2, y2) = _to_xy(p1, n), _to_xy(p2, n)
        lines.append(
            f'  <line class="hp-{row}" x1="{_fmt(x1)}" y1="{_fmt(y1)}"'
            f' x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
