"""Exact arrangements: point types, vertices, elimination, genericity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tropom import (
    Arrangement,
    Point,
    SearchSpaceTooLargeError,
    arrangement_tom,
    check_axioms,
    eliminate_points,
    eliminate_points_all,
    enumerate_vertex_types,
    is_generic,
    random_arrangement,
    random_generic_arrangement,
    refinement_closure,
    type_of_point,
    vertex_points,
    vertices,
)
from tropom import arrangement
import oracles
from helpers import T, prism_arrangement, prism_tom


def test_point_gauge_fixes_last_coordinate():
    p = Point(["1", "2", "3"])
    assert p.coords == (Fraction(-2), Fraction(-1), Fraction(0))
    assert Point([5, 6, 7]) == p
    assert p.to_obj() == ["-2", "-1", "0"]
    assert Point.from_obj(["1/2", "0", "1/2"]).coords == (
        Fraction(0),
        Fraction(-1, 2),
        Fraction(0),
    )


def test_floats_are_rejected():
    with pytest.raises(ValueError):
        Point([0.5, 0, 0])
    with pytest.raises(ValueError):
        Arrangement.from_coords([[0.1, 0], [0, 0]])


def test_arrangement_counts_reject_booleans():
    with pytest.raises(ValueError, match="n=True"):
        Arrangement.from_obj({"n": True, "d": 2, "apexes": [[0, 0]]})
    with pytest.raises(ValueError, match="d=True"):
        Arrangement(1, True, ((0,),))


def test_arrangement_normalizes_rows():
    arr = prism_arrangement()
    assert arr.apexes[0] == (Fraction(0), Fraction(0), Fraction(0))
    assert arr.apexes[1] == (Fraction(-1), Fraction(1), Fraction(0))
    assert not arr.has_coincident_apexes
    same = Arrangement.from_coords([[0, 0, 0], [1, 1, 1]])
    assert same.has_coincident_apexes


def test_type_of_point_on_the_prism():
    arr = prism_arrangement()
    assert type_of_point(arr, Point([5, 0, 0])) == T(3, "1", "1")
    assert type_of_point(arr, [-2, 0, -1]) == T(3, "2", "123")
    assert type_of_point(arr, [0, 0, 0]) == T(3, "123", "1")


def test_vertex_points_are_exact():
    arr = prism_arrangement()
    vp = vertex_points(arr)
    assert {str(t): p.coords for t, p in vp.items()} == {
        "(123,1)": (Fraction(0), Fraction(0), Fraction(0)),
        "(23,13)": (Fraction(-1), Fraction(0), Fraction(0)),
        "(2,123)": (Fraction(-1), Fraction(1), Fraction(0)),
    }
    for t, p in vp.items():
        assert type_of_point(arr, p) == t


def _vertex_cases():
    rng = random.Random(2024)
    for n in range(1, 5):
        for d in range(1, 5):
            if d >= 3 and n >= 2:
                yield random_generic_arrangement(n, d, rng=rng)
            for _ in range(3):
                yield random_arrangement(n, d, rng, bound=1)
            yield Arrangement.from_coords(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
                 for _ in range(n)]
            )
    # one direction, one hyperplane, and every apex the same
    yield Arrangement.from_coords([[Fraction(3, 2)], [0], [-7]])
    yield Arrangement.from_coords([[Fraction(-1, 3), 5, 0, 2]])
    for n, d in ((2, 3), (3, 4), (4, 2)):
        yield Arrangement.from_coords([[Fraction(j * j, 2) for j in range(d)]] * n)


def test_vertex_points_match_naive_oracle():
    for arr in _vertex_cases():
        vp = vertex_points(arr)
        got = {oracles.as_naive(t): p.coords for t, p in vp.items()}
        assert got == oracles.vertex_points_naive(arr.apexes), arr
        assert list(vp) == sorted(vp, key=lambda t: t.coords)


def test_vertex_enumeration_is_guarded(monkeypatch):
    # (2,9) walks 9 cells; the labelled-tree search it replaced refused it
    wide = Arrangement.from_coords([[0] * 9, [1] + [0] * 8])
    vp = vertex_points(wide)
    assert len(vp) == 2
    for t, p in vp.items():
        assert type_of_point(wide, p) == t
    # (2,3) walks 3 cells of 6 edges
    arr = prism_arrangement()
    monkeypatch.setattr(arrangement, "_WALK_CAP", 18)
    assert len(vertex_points(arr)) == 3
    monkeypatch.setattr(arrangement, "_WALK_CAP", 17)
    with pytest.raises(SearchSpaceTooLargeError):
        vertex_points(arr)
    # (40,40) is refused before the walk starts
    monkeypatch.undo()

    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(arrangement, "_cell_potentials", walk)
    with pytest.raises(SearchSpaceTooLargeError):
        vertex_points(Arrangement.from_coords([[0] * 40] * 40))


def test_vertex_walk_checks_its_cell_count(monkeypatch):
    walk = arrangement._cell_potentials
    monkeypatch.setattr(arrangement, "_cell_potentials", lambda *a: walk(*a)[1:])
    with pytest.raises(RuntimeError, match="found 2 cells, expected 3"):
        vertex_points(prism_arrangement())


def test_arrangement_tom_is_the_prism():
    arr = prism_arrangement()
    m = arrangement_tom(arr)
    assert m == prism_tom()
    assert enumerate_vertex_types(arr) == vertices(m)


def _edges(t):
    """The edges (i, j) of a type's graph, 1-based like the oracles' trees."""
    return frozenset((i, j) for i, s in enumerate(t.coord_sets(), start=1) for j in s)


def test_vertex_types_match_envelope_oracle():
    shapes = [(n, d, seed) for seed in (11, 12, 13) for n, d in ((2, 3), (3, 3), (2, 4))]
    for n, d, seed in shapes + [(3, 5, 7), (4, 4, 7)]:
        arr = random_generic_arrangement(n, d, seed=seed)
        got = {_edges(t): p for t, p in vertex_points(arr).items()}
        assert got == {tree: Point(z) for tree, z in oracles.envelope_cells(arr.apexes)}


def test_envelope_points_match_vertex_points():
    arr = prism_arrangement()
    vp = {p for p in vertex_points(arr).values()}
    oracle_pts = {Point(z) for _, z in oracles.envelope_cells(arr.apexes)}
    assert oracle_pts == vp


def test_eliminate_points_prism_trace():
    arr = prism_arrangement()
    z, c = eliminate_points(arr, [5, 0, 0], [-2, 0, -1], 1)
    assert c == T(3, "12", "1")
    assert z == Point([1, 1, 0])
    assert type_of_point(arr, z) == c


def test_eliminate_points_all_contains_primary():
    arr = prism_arrangement()
    got = eliminate_points_all(arr, [5, 0, 0], [-2, 0, -1], 1)
    assert (Point([1, 1, 0]), T(3, "12", "1")) in got
    a = type_of_point(arr, [5, 0, 0])
    b = type_of_point(arr, [-2, 0, -1])
    for z, c in got:
        assert type_of_point(arr, z) == c
        assert c.coords[0] == a.coords[0] | b.coords[0]
        for k in range(arr.n):
            assert c.coords[k] in (a.coords[k], b.coords[k], a.coords[k] | b.coords[k])


def test_elimination_postconditions_hold_generically():
    rng = random.Random(424242)
    for _ in range(25):
        n, d = rng.choice([(2, 3), (3, 3), (2, 4)])
        arr = random_generic_arrangement(n, d, rng=rng)
        x = Point([rng.randint(-30, 30) for _ in range(d)])
        y = Point([rng.randint(-30, 30) for _ in range(d)])
        j = rng.randint(1, n)
        a, b = type_of_point(arr, x), type_of_point(arr, y)
        z, c = eliminate_points(arr, x, y, j)
        assert c == type_of_point(arr, z)
        assert c.coords[j - 1] == a.coords[j - 1] | b.coords[j - 1]
        for k in range(n):
            assert c.coords[k] in (a.coords[k], b.coords[k], a.coords[k] | b.coords[k])


def test_is_generic():
    assert is_generic(prism_arrangement())
    assert not is_generic(Arrangement.from_coords([[0, 0, 0], [1, 1, 1]]))
    # distinct apexes, but a four-way tie makes a fat vertex
    assert not is_generic(Arrangement.from_coords([[0, 0, 0], [-1, -1, 0]]))


def test_random_generic_arrangement_is_deterministic():
    a1 = random_generic_arrangement(3, 3, seed=7)
    a2 = random_generic_arrangement(3, 3, seed=7)
    assert a1 == a2
    assert is_generic(a1)
    b = random_generic_arrangement(3, 3, seed=8)
    assert a1 != b


def test_random_generic_arrangement_rng_equivalent_to_seed():
    assert random_generic_arrangement(2, 4, seed=5) == random_generic_arrangement(
        2, 4, rng=random.Random(5)
    )


def test_arrangement_tom_passes_axioms_generically():
    for seed in (1, 2):
        arr = random_generic_arrangement(3, 3, seed=seed)
        assert check_axioms(arrangement_tom(arr)).ok


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4)])
def test_degenerate_arrangements_satisfy_the_axioms(n, d):
    # apex entries in {-1, 0, 1}: walls meet in non-generic ways, apexes
    # may coincide
    rng = random.Random(100 * n + d)
    for _ in range(8):
        arr = random_arrangement(n, d, rng, bound=1)
        # an envelope tree is the whole graph of a vertex's type, at its point
        at = {_edges(t): p for t, p in vertex_points(arr).items()}
        for tree, z in oracles.envelope_cells(arr.apexes):
            assert at.get(tree) == Point(z)
        m = arrangement_tom(arr)
        assert check_axioms(m).ok
        assert refinement_closure(vertices(m)) == m
        for _ in range(5):
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(d)]
            assert type_of_point(arr, x) in m
