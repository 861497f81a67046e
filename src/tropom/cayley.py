"""Planar picture of three-direction triangulations.

A fine cell over d = 3 is a Minkowski sum of one triangle or two unit
segments plus points, so the cells of a triangulation tile the side-n
triangle with upward unit triangles and unit rhombi (lozenges).  This
module classifies the pieces, enumerates the legal moves between adjacent
cells (which coordinate gains a direction when another sheds one), lays the
tiling out with exact lattice coordinates, and renders it to SVG with the
induced pseudoline overlay (one polyline class per hyperplane).

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
tests run on plain ints.  The only other points are the pseudoline segment
ends: edge midpoints (halves) and triangle centroids (thirds), kept exact as
Fractions.  Floats appear only in the SVG text."""

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
from .structure import direction_components
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
    if len(direction_components(a)) != 1:
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


def _with_row(a: Type, row: int, mask: int) -> Type:
    coords = a.coords[: row - 1] + (mask,) + a.coords[row:]
    return Type(a.n, a.d, coords)


def transitions(a: Type) -> tuple[TransitionMove, ...]:
    """All single-direction sheds from a fine d=3 cell and their landings.

    Shedding from a triangle, or the unshared direction of a rhombus
    segment, hands the direction to a coordinate currently pinned to it.
    Shedding the shared direction of a rhombus leaves a segment behind and
    hands that segment's other direction out instead — to a pinned
    coordinate or to the partner segment (making it a triangle)."""
    piece = classify_piece(a)
    shared_mask = 0
    if piece.kind.startswith("rhombus"):
        shared_mask = (
            a.coords[piece.positions[0] - 1] & a.coords[piece.positions[1] - 1]
        )
    moves = []
    for p, mask in enumerate(a.coords, start=1):
        if mask.bit_count() < 2:
            continue
        for u in elements_of(mask):
            ub = 1 << (u - 1)
            after = _with_row(a, p, mask & ~ub)
            cands = []
            if mask.bit_count() == 3 or ub != shared_mask:
                for q, qm in enumerate(a.coords, start=1):
                    if q == p or qm != ub:
                        continue
                    for x in (1, 2, 3):
                        if x != u:
                            cands.append(_with_row(after, q, ub | (1 << (x - 1))))
            else:
                wb = mask & ~ub
                for q, qm in enumerate(a.coords, start=1):
                    if q == p:
                        continue
                    if qm.bit_count() == 2:
                        cands.append(_with_row(after, q, 0b111))
                    elif qm.bit_count() == 1 and qm != wb:
                        cands.append(_with_row(after, q, qm | wb))
            cands.sort(key=lambda t: t.coords)
            moves.append(TransitionMove(p, u, tuple(cands)))
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
    """Check that every adjacent pair of cells is a legal transition move."""
    if c.d != 3:
        raise ValueError(f"transition rules need d=3, got d={c.d}")
    require_triangulation(c)
    types = [subgraph_to_type(cell) for cell in c.cells]
    move_maps = []
    for t in types:
        move_maps.append(
            {(mv.position, mv.numeral): mv.candidates for mv in transitions(t)}
        )
    pairs = 0
    violations = []
    for (ia, ca), (ib, cb) in itertools.combinations(enumerate(c.cells), 2):
        gone = ca.edges - cb.edges
        added = cb.edges - ca.edges
        if len(gone) != 1 or len(added) != 1:
            continue
        pairs += 1
        (p, u) = next(iter(gone))
        (q, x) = next(iter(added))
        fwd = move_maps[ia].get((p, u), ())
        back = move_maps[ib].get((q, x), ())
        if types[ib] not in fwd or types[ia] not in back:
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


def _interiors_disjoint(p: tuple[Axial, ...], q: tuple[Axial, ...]) -> bool:
    # separating-axis test for two ccw convex polygons with exact (int or
    # Fraction) coordinates
    def separated_by_edge_of(poly: tuple[Axial, ...], other: tuple[Axial, ...]) -> bool:
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
            ex, ey = bx - ax, by - ay
            if all((qx - ax) * ey - (qy - ay) * ex >= 0 for qx, qy in other):
                return True  # other fully on the non-interior side
        return False

    return separated_by_edge_of(p, q) or separated_by_edge_of(q, p)


def embed(c: SubgraphCollection) -> tuple[EmbeddedCell, ...]:
    """Lay a d=3 triangulation out in the triangular lattice, exactly.

    Raises EmbeddingInconsistent when the placed pieces fail any exactness
    check: per-piece area, containment in the side-n triangle, pairwise
    interior-disjointness, or total area n^2."""
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
    for ea, eb in itertools.combinations(out, 2):
        if not _interiors_disjoint(ea.polygon, eb.polygon):
            raise EmbeddingInconsistentError(
                f"cells {ea.index} and {eb.index} overlap"
            )
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
    # halving a float is exact, so this equals float(u + v/2) for ints and Fractions
    x = float(2 * pt[0] + pt[1]) / 2 * _SCALE
    y = (float(n) - float(pt[1])) * (_SQRT3 / 2.0) * _SCALE
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
