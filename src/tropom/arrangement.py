"""Arrangements of n tropical hyperplanes in (d-1)-dimensional tropical
space, with exact rational arithmetic throughout.

An apex row v_i assigns one rational to each direction; points and apexes
are gauge-fixed so the last coordinate is 0 (only coordinate differences
matter).  The type of a point x records, for each apex, the set of
directions attaining max_j (x_j - v_ij).

Vertices are typed spanning-tree potentials: ``vertex_points`` solves the
walls x_j - x_k = v_ij - v_ik along every tree on the d directions."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import SearchSpaceTooLargeError, TomTypeSet, Type, elements_of, read_shaped
from .structure import is_vertex, refinement_closure

# Labelled trees for vertex enumeration: (5,5) has 78,125, (2,9) 1.2 * 10^9.
_VERTEX_CAP = 10**6


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
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
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"need at least one hyperplane, got n={self.n}")
        if not isinstance(self.d, int) or self.d < 1:
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
        if not isinstance(raw, list):
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


def _rooted_trees(d: int) -> Iterator[list[tuple[int, int]]]:
    """The spanning trees of K_d on the 0-based directions, as the edges
    (j, parent of j) towards the root d - 1, each parent before its children.

    A tree is a parent map under which every direction reaches the root.
    """
    root = d - 1
    for parent in itertools.product(range(d), repeat=root):
        order = [root]
        for k in order:  # breadth first: order grows while it is read
            order += [j for j in range(root) if parent[j] == k]
        if len(order) == d:
            yield [(j, parent[j]) for j in order[1:]]


def vertex_points(arr: Arrangement) -> dict[Type, Point]:
    """The zero-dimensional cells: their types and witness points, in
    canonical type order.

    A set of d-1 walls x_j - x_k = v_ij - v_ik has a unique solution exactly
    when its pairs {j, k} form a spanning tree of K_d, and the solution is
    the tree potential: x_d = 0 and x_j = x_k + v_ij - v_ik along each edge.
    So the candidates are the potentials of the d^(d-2) * n^(d-1) trees with
    one hyperplane on each edge, and a candidate is a vertex exactly when
    its type is zero-dimensional.
    """
    n, d = arr.n, arr.d
    trees = d ** max(d - 2, 0) * n ** (d - 1)
    if trees > _VERTEX_CAP:
        raise SearchSpaceTooLargeError(
            f"({n},{d}) has {trees} hyperplane-labelled spanning trees of K_{d},"
            f" over the cap of {_VERTEX_CAP}"
        )
    # in units of the apexes' common denominator every candidate is integral
    scale = math.lcm(*(c.denominator for v in arr.apexes for c in v))
    apexes = [[int(c * scale) for c in v] for v in arr.apexes]
    # steps[j][k]: the differences v_ij - v_ik over the hyperplanes i
    steps = [[[v[j] - v[k] for v in apexes] for k in range(d)] for j in range(d)]
    candidates: set[tuple[int, ...]] = set()
    for tree in _rooted_trees(d):
        for labels in itertools.product(*(steps[j][k] for j, k in tree)):
            x = [0] * d
            for (j, k), step in zip(tree, labels):
                x[j] = x[k] + step
            candidates.add(tuple(x))
    out: dict[Type, Point] = {}
    for x in candidates:
        t = Type(n, d, _type_coords(apexes, x))
        if is_vertex(t):
            out[t] = Point(tuple(Fraction(c, scale) for c in x))
    return {t: out[t] for t in sorted(out, key=lambda t: t.coords)}


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


def eliminate_points(
    arr: Arrangement, x: Point | Sequence[object], y: Point | Sequence[object], j: int
) -> tuple[Point, Type]:
    """Combine two points at position j by anchoring and maxima.

    Both points are translated so the j-th maximum is attained at value 0
    (anchored at the smallest direction of their j-th coordinate); the
    coordinatewise maximum of the translates is returned with its type.
    """
    if not 1 <= j <= arr.n:
        raise ValueError(f"position {j} out of range 1..{arr.n}")
    px = x if isinstance(x, Point) else Point(tuple(x))
    py = y if isinstance(y, Point) else Point(tuple(y))
    a = elements_of(type_of_point(arr, px).coords[j - 1])[0]
    b = elements_of(type_of_point(arr, py).coords[j - 1])[0]
    sx = _anchored(arr, px, j, a)
    sy = _anchored(arr, py, j, b)
    z = Point(tuple(max(u, v) for u, v in zip(sx, sy)))
    return z, type_of_point(arr, z)


def eliminate_points_all(
    arr: Arrangement, x: Point | Sequence[object], y: Point | Sequence[object], j: int
) -> tuple[tuple[Point, Type], ...]:
    """Every anchored combination of the two points at position j, one per
    pair of anchoring directions, deduplicated and canonically ordered."""
    if not 1 <= j <= arr.n:
        raise ValueError(f"position {j} out of range 1..{arr.n}")
    px = x if isinstance(x, Point) else Point(tuple(x))
    py = y if isinstance(y, Point) else Point(tuple(y))
    ta = type_of_point(arr, px)
    tb = type_of_point(arr, py)
    found: dict[tuple[Fraction, ...], tuple[Point, Type]] = {}
    for a in elements_of(ta.coords[j - 1]):
        sx = _anchored(arr, px, j, a)
        for b in elements_of(tb.coords[j - 1]):
            sy = _anchored(arr, py, j, b)
            z = Point(tuple(max(u, v) for u, v in zip(sx, sy)))
            if z.coords not in found:
                found[z.coords] = (z, type_of_point(arr, z))
    return tuple(found[k] for k in sorted(found))


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
