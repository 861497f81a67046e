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
import tropom.subdivision as subdivision
import oracles


def _random_type(rng: random.Random, n: int, d: int) -> Type:
    return Type(n, d, tuple(rng.randint(1, (1 << d) - 1) for _ in range(n)))


def _components_bfs(a: Type) -> tuple[int, ...]:
    """Breadth-first search over directions joined by a shared coordinate,
    started from each unvisited direction in increasing order."""
    adjacent = {
        j: {k for c in a.coord_sets() if j in c for k in c}
        for j in range(1, a.d + 1)
    }
    visited: set[int] = set()
    comps = []
    for start in range(1, a.d + 1):
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
        assert direction_components(a) == _components_bfs(a)


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


def _facet_candidates_stack_search(cell: BipartiteSubgraph) -> list[frozenset]:
    """Bond complements that are one-directional cuts, found by visiting
    every vertex bipartition and testing each side with a stack search."""
    n, d = cell.n, cell.d
    nv = n + d
    adj: list[list[int]] = [[] for _ in range(nv)]
    for i, j in cell.edges:
        adj[i - 1].append(n + j - 1)
        adj[n + j - 1].append(i - 1)

    def connected(side: set[int]) -> bool:
        start = min(side)
        seen, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w in side and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(side)

    out: list[frozenset] = []
    seen_rests: set[frozenset] = set()
    for assign in range(1, 1 << (nv - 1)):
        side1 = {v for v in range(1, nv) if (assign >> (v - 1)) & 1}
        side0 = set(range(nv)) - side1
        crossing = set()
        direction = set()
        for i, j in cell.edges:
            s_l, s_r = i - 1 in side1, n + j - 1 in side1
            if s_l != s_r:
                crossing.add((i, j))
                direction.add(s_l)
        if not crossing or len(direction) == 2:
            continue
        if not (connected(side0) and connected(side1)):
            continue
        rest = cell.edges - crossing
        if rest not in seen_rests:
            seen_rests.add(rest)
            out.append(rest)
    return out


def test_general_facets_match_the_stack_search():
    rng = random.Random(74)
    kept = 0
    for _ in range(400):
        n, d = rng.randint(1, 5), rng.randint(1, 5)
        p = rng.choice((0.4, 0.6, 0.8))
        edges = frozenset(
            (i, j) for i in range(1, n + 1) for j in range(1, d + 1) if rng.random() < p
        )
        if not edges:
            continue
        cell = BipartiteSubgraph(n, d, edges)
        expected = _facet_candidates_stack_search(cell)
        assert subdivision._facet_candidates_general(cell) == expected, cell
        kept += len(expected)
    assert kept > 1000


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)])
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
