"""Arrangements of n tropical hyperplanes in (d-1)-dimensional tropical
space, with exact rational arithmetic throughout.

An apex row v_i assigns one rational to each direction; points and apexes
are gauge-fixed so the last coordinate is 0 (only coordinate differences
matter).  The type of a point x records, for each apex, the set of
directions attaining max_j (x_j - v_ij).

Vertices are the maximal cells of the regular subdivision of
Delta_{n-1} x Delta_{d-1} with heights v_ij: ``vertex_points`` walks the
cells of a symbolically perturbed (so triangulated) subdivision by pivots
and types their limit points."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    SearchSpaceTooLargeError, TomTypeSet, Type, _count_text, elements_of, read_shaped
)
from .structure import _components, refinement_closure

# The vertex walk visits C(n+d-2, n-1) cells and prices n*d edges in each:
# (6,6) 252 cells and 9072 slacks, (10,10) 4.9 * 10^6 slacks, (40,40)
# 4.4 * 10^25.
_WALK_CAP = 10**7
# The base of the symbolic perturbation folded into the heights.
_BASE = 8


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) in (int, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not an exact rational: {value!r}")


def _normalize(coords: Sequence[object]) -> tuple[Fraction, ...]:
    row = tuple(_as_fraction(c) for c in coords)
    if not row:
        raise ValueError("a point needs at least one coordinate")
    last = row[-1]
    return tuple(c - last for c in row)


@dataclass(frozen=True)
class Point:
    """A point of tropical (d-1)-space, last coordinate fixed to 0."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _normalize(self.coords))

    @property
    def d(self) -> int:
        return len(self.coords)

    @classmethod
    def from_obj(cls, obj: object) -> "Point":
        if not isinstance(obj, list) or not obj:
            raise ValueError("a point is a nonempty array of rationals")
        return cls(tuple(obj))

    def to_obj(self) -> list[str]:
        return [str(c) for c in self.coords]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class Arrangement:
    """n apex rows over d directions, each row gauge-fixed to end in 0."""

    n: int
    d: int
    apexes: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"need at least one hyperplane, got n={self.n}")
        if type(self.d) is not int or self.d < 1:
            raise ValueError(f"need at least one direction, got d={self.d}")
        rows = tuple(self.apexes)
        if len(rows) != self.n:
            raise ValueError(f"expected {self.n} apex rows, got {len(rows)}")
        fixed = []
        for i, row in enumerate(rows, start=1):
            if len(row) != self.d:
                raise ValueError(f"apex row {i} has {len(row)} entries, expected {self.d}")
            fixed.append(_normalize(row))
        object.__setattr__(self, "apexes", tuple(fixed))

    @classmethod
    def from_coords(cls, rows: Iterable[Sequence[object]]) -> "Arrangement":
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("need at least one apex row")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def from_obj(cls, obj: object) -> "Arrangement":
        n, d, raw = read_shaped(obj, "an arrangement", "apexes")
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise ValueError("apexes must be an array of rows")
        return cls(n, d, tuple(tuple(row) for row in raw))

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "apexes": [[str(c) for c in row] for row in self.apexes],
        }

    @property
    def has_coincident_apexes(self) -> bool:
        """True when two hyperplanes share an apex (a degenerate arrangement)."""
        return len(set(self.apexes)) < self.n


# ---------------------------------------------------------------------------
# point types


def _type_coords(apexes: Sequence[Sequence], x: Sequence) -> tuple[int, ...]:
    """Per apex row v, the mask of the j attaining max_j (x_j - v_j)."""
    coords = []
    for row in apexes:
        diffs = [xj - vj for xj, vj in zip(x, row)]
        top = max(diffs)
        coords.append(sum(1 << j for j, v in enumerate(diffs) if v == top))
    return tuple(coords)


def type_of_point(arr: Arrangement, x: Point | Sequence[object]) -> Type:
    """For every apex, the set of directions attaining max_j (x_j - v_ij)."""
    p = x if isinstance(x, Point) else Point(tuple(x))
    if p.d != arr.d:
        raise ValueError(f"point has {p.d} coordinates, arrangement has {arr.d}")
    return Type(arr.n, arr.d, _type_coords(arr.apexes, p.coords))


# ---------------------------------------------------------------------------
# vertices


def _cell_potentials(w: list[list[int]], n: int, d: int) -> list[list[int]]:
    """The node potentials of every maximal cell of the regular triangulation
    of the product of simplices with heights w, which must never tie.

    Nodes 0..n-1 are the hyperplanes and n..n+d-1 the directions.  The
    potentials p satisfy p[n+j] - p[i] <= w[i][j] for all (i, j), with
    equality (slack 0) exactly on the cell's spanning tree of K_{n,d}; trees
    are bitmasks over the edges i*d + j, and p matters up to a constant.

    Start from x = 0 with every hyperplane at its maximum, a forest of
    stars, and lower the component of hyperplane 0 by its least slack to a
    direction off it until the tight graph spans.  Then pivot: dropping a
    tree edge (i, j) and lowering the side holding direction j until an
    edge from its hyperplanes to the other side's directions becomes tight
    gives the neighbour across that facet; no such edge means a boundary
    facet.  Such an edge closes a cycle through (i, j) with the tree, so
    one pass over the non-tree edges, each walking its tree path, finds the
    entering edge of every facet of the cell.
    """
    nodes = n + d

    def slack(p: list[int], i: int, j: int) -> int:
        return w[i][j] - p[n + j] + p[i]

    p = [max(-h for h in row) for row in w] + [0] * d
    star = [(i, j) for i in range(n) for j in range(d) if slack(p, i, j) == 0]
    tree = sum(1 << (i * d + j) for i, j in star)
    comps = _components((1 << i | 1 << (n + j) for i, j in star), nodes)
    side = next(c for c in comps if c & 1)
    while side != (1 << nodes) - 1:
        least, i, j = min(
            (slack(p, i, j), i, j)
            for i in range(n) if side >> i & 1
            for j in range(d) if not side >> (n + j) & 1
        )
        p = [v - least if side >> k & 1 else v for k, v in enumerate(p)]
        tree |= 1 << (i * d + j)
        side |= next(c for c in comps if c >> (n + j) & 1)

    cells = {tree: p}
    todo = [tree]
    while todo:
        tree = todo.pop()
        p = cells[tree]
        adjacent: list[list[int]] = [[] for _ in range(nodes)]
        for e in elements_of(tree):
            i, j = divmod(e - 1, d)
            adjacent[i].append(n + j)
            adjacent[n + j].append(i)
        # root the tree at the last direction; node c stands for its edge
        # to parent[c]
        parent = [-1] * nodes
        depth = [0] * nodes
        order = [nodes - 1]
        for u in order:
            for v in adjacent[u]:
                if v != parent[u]:
                    parent[v], depth[v] = u, depth[u] + 1
                    order.append(v)
        # best[c]: (slack, edge) of the tightest edge entering when the edge
        # above c drops.  The edge (i, j) enters there when it leaves the
        # side of that edge's direction at a hyperplane: c is a direction on
        # i's half of the path, or a hyperplane on j's half.
        best: dict[int, tuple[int, int]] = {}
        for i in range(n):
            for j in range(d):
                e = i * d + j
                if tree >> e & 1:
                    continue
                key = (slack(p, i, j), e)
                u, v = i, n + j
                while u != v:
                    if depth[u] >= depth[v]:
                        c, u = u, parent[u]
                        if c < n:
                            continue
                    else:
                        c, v = v, parent[v]
                        if c >= n:
                            continue
                    if c not in best or key < best[c]:
                        best[c] = key
        for c, (least, f) in best.items():
            i, j = (c, parent[c] - n) if c < n else (parent[c], c - n)
            nxt = tree ^ 1 << (i * d + j) | 1 << f
            if nxt in cells:
                continue
            # lower the side of direction j: the subtree below c when c is
            # that direction, else everything but that subtree
            below = {c}
            for v in order[order.index(c) + 1:]:
                if parent[v] in below:
                    below.add(v)
            shift = -least if c >= n else least
            cells[nxt] = [v + shift if k in below else v for k, v in enumerate(p)]
            todo.append(nxt)
    return list(cells.values())


def vertex_points(arr: Arrangement) -> dict[Type, Point]:
    """The zero-dimensional cells: their types and witness points, in
    canonical type order.

    The vertices are the maximal cells of the regular subdivision of
    Delta_{n-1} x Delta_{d-1} with heights v_ij (Develin-Sturmfels): a point
    x is a vertex exactly when the edges (i, j) with j attaining
    max_j (x_j - v_ij) connect K_{n,d}.  Ties are broken by a lexicographic
    symbolic perturbation (Edelsbrunner-Muecke), folded into one integer per
    height: w_ij = v_ij * B^N + B^(N-2-(i*d+j)) with B = 8 and N = n*d + 1,
    in units of the apexes' common denominator, so no two slacks tie and
    the arithmetic stays exact.  The perturbed subdivision is a
    triangulation, so it has C(n+d-2, n-1) cells, walked by pivots; each
    cell's point, rounded to its real part, is a vertex, and every vertex is
    one of them.  The distinct points are typed against the unperturbed
    apexes.
    """
    n, d = arr.n, arr.d
    count = math.comb(n + d - 2, n - 1)
    if count * n * d > _WALK_CAP:
        raise SearchSpaceTooLargeError(
            f"({n},{d}) has {_count_text(count)} cells of {n * d} edges each to walk,"
            f" over the cap of {_WALK_CAP} edges"
        )
    # in units of the apexes' common denominator every vertex is integral
    scale = math.lcm(*(c.denominator for v in arr.apexes for c in v))
    apexes = [[int(c * scale) for c in v] for v in arr.apexes]
    top = _BASE ** (n * d + 1)
    w = [
        [h * top + _BASE ** (n * d - 1 - (i * d + j)) for j, h in enumerate(v)]
        for i, v in enumerate(apexes)
    ]
    cells = _cell_potentials(w, n, d)
    if len(cells) != count:
        raise RuntimeError(f"the pivot walk found {len(cells)} cells, expected {count}")
    # the perturbation moves a potential difference by less than top / 2
    points = {tuple((x - p[-1] + top // 2) // top for x in p[n:]) for p in cells}
    out = {Type(n, d, _type_coords(apexes, x)): x for x in points}
    return {
        t: Point(tuple(Fraction(c, scale) for c in out[t]))
        for t in sorted(out, key=lambda t: t.coords)
    }


def enumerate_vertex_types(arr: Arrangement) -> frozenset[Type]:
    return frozenset(vertex_points(arr))


def arrangement_tom(arr: Arrangement) -> TomTypeSet:
    """The type set of the arrangement: the refinement closure of its
    vertex types."""
    verts = enumerate_vertex_types(arr)
    if not verts:
        raise ValueError("arrangement has no vertices")
    return refinement_closure(verts)


# ---------------------------------------------------------------------------
# geometric elimination


def _anchored(arr: Arrangement, p: Point, j: int, direction: int) -> tuple[Fraction, ...]:
    shift = p.coords[direction - 1] - arr.apexes[j - 1][direction - 1]
    return tuple(c - shift for c in p.coords)


def _combinations(
    arr: Arrangement, x: Point | Sequence[object], y: Point | Sequence[object], j: int
) -> Iterator[Point]:
    """The coordinatewise maxima of the two points translated so that their
    j-th maximum is attained at value 0, one per pair of anchoring
    directions of their j-th coordinates, smallest directions first."""
    if not 1 <= j <= arr.n:
        raise ValueError(f"position {j} out of range 1..{arr.n}")
    px = x if isinstance(x, Point) else Point(tuple(x))
    py = y if isinstance(y, Point) else Point(tuple(y))
    ta, tb = type_of_point(arr, px), type_of_point(arr, py)
    for a in elements_of(ta.coords[j - 1]):
        sx = _anchored(arr, px, j, a)
        for b in elements_of(tb.coords[j - 1]):
            sy = _anchored(arr, py, j, b)
            yield Point(tuple(max(u, v) for u, v in zip(sx, sy)))


def eliminate_points(
    arr: Arrangement, x: Point | Sequence[object], y: Point | Sequence[object], j: int
) -> tuple[Point, Type]:
    """Combine two points at position j by anchoring and maxima: the
    combination anchored at the smallest direction of each j-th coordinate,
    with its type."""
    z = next(_combinations(arr, x, y, j))
    return z, type_of_point(arr, z)


def eliminate_points_all(
    arr: Arrangement, x: Point | Sequence[object], y: Point | Sequence[object], j: int
) -> tuple[tuple[Point, Type], ...]:
    """Every anchored combination of the two points at position j, one per
    pair of anchoring directions, deduplicated and canonically ordered."""
    found = {z.coords: z for z in _combinations(arr, x, y, j)}
    return tuple((found[k], type_of_point(arr, found[k])) for k in sorted(found))


# ---------------------------------------------------------------------------
# genericity and random generation


def is_generic(arr: Arrangement) -> bool:
    """Apexes pairwise distinct and every vertex type a spanning tree of the
    incidence graph (n + d - 1 incidences), i.e. the dual subdivision is a
    triangulation."""
    if arr.has_coincident_apexes:
        return False
    target = arr.n + arr.d - 1
    return all(
        sum(m.bit_count() for m in t.coords) == target
        for t in enumerate_vertex_types(arr)
    )


def random_arrangement(
    n: int, d: int, rng: random.Random, bound: int = 1000
) -> Arrangement:
    """One arrangement with integer apex entries drawn uniformly from
    [-bound, bound] (then gauge-fixed)."""
    rows = [[Fraction(rng.randint(-bound, bound)) for _ in range(d)] for _ in range(n)]
    return Arrangement(n, d, tuple(tuple(r) for r in rows))


def random_generic_arrangement(
    n: int,
    d: int,
    seed: int | None = None,
    bound: int = 1000,
    max_tries: int = 1000,
    rng: random.Random | None = None,
) -> Arrangement:
    """Rejection-sample random_arrangement until is_generic holds."""
    if rng is None:
        rng = random.Random(seed)
    for _ in range(max_tries):
        arr = random_arrangement(n, d, rng, bound=bound)
        if is_generic(arr):
            return arr
    raise RuntimeError(f"no generic arrangement found in {max_tries} draws")
