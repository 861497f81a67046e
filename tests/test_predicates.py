"""The shared predicates against independent references on seeded inputs:
direction components, refinement witnesses, total refinements, the
general-mode facets of a cell, and reconstruction's direction cap."""

from __future__ import annotations

import random

import pytest

from tropom import (
    BipartiteSubgraph,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    arrangement_tom,
    check_subdivision,
    direction_components,
    is_generic,
    is_refinement_of,
    is_tope,
    ordered_partitions,
    random_arrangement,
    reconstruct_from_topes,
    refine,
    tom_to_subdivision,
    total_refinements,
)
import tropom.structure as structure
import tropom.subdivision as subdivision
import oracles


def _random_type(rng: random.Random, n: int, d: int) -> Type:
    return Type(n, d, tuple(rng.randint(1, (1 << d) - 1) for _ in range(n)))


def _components_bfs(coords: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Breadth-first search over the directions 1..d joined by a shared
    coordinate mask (empty ones allowed), started from each unvisited
    direction in increasing order."""
    held = [{j for j in range(1, d + 1) if c >> (j - 1) & 1} for c in coords]
    adjacent = {j: {k for c in held if j in c for k in c} for j in range(1, d + 1)}
    visited: set[int] = set()
    comps = []
    for start in range(1, d + 1):
        if start in visited:
            continue
        queue, comp = [start], {start}
        while queue:
            for k in adjacent[queue.pop(0)]:
                if k not in comp:
                    comp.add(k)
                    queue.append(k)
        visited |= comp
        comps.append(sum(1 << (j - 1) for j in comp))
    return tuple(comps)


def test_direction_components_match_breadth_first_search():
    rng = random.Random(71)
    for _ in range(3000):
        a = _random_type(rng, rng.randint(1, 5), rng.randint(1, 7))
        assert direction_components(a) == _components_bfs(a.coords, a.d)
    # the vertex test on rows that may hold empty coordinates: a row spans
    # when none is empty and the search finds one component
    rng = random.Random(79)
    seen = set()
    for _ in range(3000):
        n = rng.choice([1, rng.randint(2, 5)])
        d = rng.choice([1, rng.randint(2, 7), 64])
        row = tuple(
            rng.choice([0, 1 << rng.randrange(d), rng.randint(1, (1 << d) - 1), (1 << d) - 1])
            for _ in range(n)
        )
        want = all(row) and len(_components_bfs(row, d)) == 1
        assert structure._spans(row, d) == want, (row, d)
        cases = {"n=1": n == 1, "d=1": d == 1, "d=64": d == 64, "empty": 0 in row}
        seen.update((case, want) for case, hit in cases.items() if hit)
    # every case meets rows that span and rows that do not, but an empty
    # coordinate never spans
    assert seen == {(c, w) for c in cases for w in (False, True)} - {("empty", True)}


def test_is_refinement_of_against_every_ordered_partition():
    rng = random.Random(72)
    found = missing = 0
    for _ in range(400):
        n, d = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_type(rng, n, d)
        if rng.random() < 0.5:
            b = _random_type(rng, n, d)
        else:  # a random submask of each coordinate: often, not always, a refinement
            b = Type(n, d, tuple(c & rng.randint(1, (1 << d) - 1) or c for c in a.coords))
        naive_b = oracles.as_naive(b)
        reachable = any(
            oracles.refine_naive(oracles.as_naive(a), parts) == naive_b
            for parts in oracles.ordered_set_partitions(frozenset(range(1, d + 1)))
        )
        w = is_refinement_of(b, a)
        assert (w is not None) == reachable, (a, b)
        if w is not None:
            assert refine(a, w) == b
            found += 1
        else:
            missing += 1
    assert found > 50 and missing > 50


def test_total_refinements_are_the_tope_refinements():
    rng = random.Random(73)
    for _ in range(300):
        d = rng.randint(1, 5)
        a = _random_type(rng, rng.randint(1, 4), d)
        refined = {refine(a, p) for p in ordered_partitions(d)}
        assert total_refinements(a) == {t for t in refined if is_tope(t)}


def test_reconstruction_refuses_more_than_eight_directions():
    topes = TomTypeSet(1, 9, tuple(Type(1, 9, (1 << j,)) for j in range(9)))
    with pytest.raises(SearchSpaceTooLargeError, match="9! singleton orders"):
        reconstruct_from_topes(topes)


# ---------------------------------------------------------------- general mode


def test_general_facets_match_the_stack_search():
    # the stack search's bond complements that isolate no vertex, in its order
    rng = random.Random(74)
    kept = cells = 0
    while cells < 2000:
        n, d = rng.randint(1, 6), rng.randint(1, 6)
        p = rng.choice((0.4, 0.6, 0.8))
        edges = frozenset(
            (i, j) for i in range(1, n + 1) for j in range(1, d + 1) if rng.random() < p
        )
        if not edges:
            continue
        cells += 1
        cell = BipartiteSubgraph(n, d, edges)
        expected = [
            tuple(sum(1 << j - 1 for i, j in rest if i == left) for left in range(1, n + 1))
            for rest in oracles.bond_complements_naive(edges, n, d)
            if len({i for i, _ in rest}) == n and len({j for _, j in rest}) == d
        ]
        got = subdivision._direction_cut_facets(cell)
        assert list(map(tuple, got)) == expected, cell
        kept += len(expected)
    assert kept > 1000


@pytest.mark.parametrize(
    "n,d", [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5), (14, 3), (10, 4)]
)
def test_degenerate_arrangements_give_general_mode_subdivisions(n, d):
    # apex entries in {-1, 0, 1}: most of these arrangements are not generic,
    # and their vertex cells are not all spanning trees
    rng = random.Random(1000 * n + d)
    degenerate = 0
    for _ in range(12):
        arr = random_arrangement(n, d, rng, bound=1)
        degenerate += not is_generic(arr)
        report = check_subdivision(tom_to_subdivision(arrangement_tom(arr)))
        assert report.ok, report.to_obj()
    assert degenerate
