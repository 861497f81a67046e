"""Dual subdivisions: cell validity, the census, and the probe."""

from __future__ import annotations

import random

import numpy as np
import pytest

from tropom import (
    BipartiteSubgraph,
    EmptyLeftVertexError,
    NotATriangulationError,
    SearchSpaceTooLargeError,
    SubgraphCollection,
    check_subdivision,
    conjecture_probe,
    enumerate_triangulations,
    refinement_closure,
    subgraph_to_type,
    tom_to_subdivision,
    triangulation_types,
    type_to_subgraph,
)
from tropom import subdivision
from tropom.axioms import _cycle_pairs
import oracles
from helpers import T, cells_of, prism_cells, prism_tom, typeset


def test_subgraph_type_roundtrip():
    a = T(3, "23", "13")
    g = type_to_subgraph(a)
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 1), (2, 3)})
    assert subgraph_to_type(g) == a


def test_subgraph_needs_an_edge_everywhere_on_the_left():
    g = BipartiteSubgraph(2, 3, frozenset({(1, 1)}))
    with pytest.raises(EmptyLeftVertexError) as exc:
        subgraph_to_type(g)
    assert exc.value.vertex == 2


def test_subgraph_validation():
    with pytest.raises(ValueError):
        BipartiteSubgraph(2, 3, frozenset())
    with pytest.raises(ValueError):
        BipartiteSubgraph(2, 3, frozenset({(3, 1)}))
    with pytest.raises(ValueError):
        BipartiteSubgraph(2, 3, frozenset({(1, 4)}))


def test_collection_dedupes_and_roundtrips():
    c = cells_of(2, 2, [(1, 1), (2, 1), (2, 2)], [(1, 1), (2, 1), (2, 2)])
    assert len(c) == 1
    again = SubgraphCollection.from_obj(c.to_obj())
    assert again == c


def test_prism_cells_form_a_triangulation():
    report = check_subdivision(prism_cells(), triangulation=True)
    assert report.ok
    assert report.cell_count == 3
    assert check_subdivision(prism_cells()).ok


def test_both_square_triangulations_pass():
    first = cells_of(2, 2, [(1, 1), (1, 2), (2, 2)], [(1, 1), (2, 1), (2, 2)])
    second = cells_of(2, 2, [(1, 1), (1, 2), (2, 1)], [(1, 2), (2, 1), (2, 2)])
    assert check_subdivision(first, triangulation=True).ok
    assert check_subdivision(second, triangulation=True).ok


def test_overlapping_triangles_fail_the_alternating_condition():
    bad = cells_of(2, 2, [(1, 1), (2, 1), (2, 2)], [(1, 2), (2, 1), (2, 2)])
    report = check_subdivision(bad, triangulation=True)
    assert not report.ok
    assert report.spanning_ok
    assert not report.alternating_ok
    (a, b, cycle) = report.alternating_violations[0]
    assert {a, b} == {1, 2}
    assert set(cycle) == {(1, 1), (2, 1), (2, 2), (1, 2)}


def test_single_full_cell_is_a_coarse_subdivision():
    whole = cells_of(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert check_subdivision(whole).ok
    assert not check_subdivision(whole, triangulation=True).ok

    prism_whole = cells_of(2, 3, [(i, j) for i in (1, 2) for j in (1, 2, 3)])
    assert check_subdivision(prism_whole).ok


def test_prism_coarsening_passes_general_mode_only():
    coarse = cells_of(
        2,
        3,
        [(1, 1), (1, 2), (1, 3), (2, 1)],
        [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)],
    )
    assert check_subdivision(coarse).ok
    report = check_subdivision(coarse, triangulation=True)
    assert not report.ok
    assert not report.spanning_ok


def test_missing_cell_fails_the_facet_condition():
    partial = cells_of(
        2,
        3,
        [(1, 1), (1, 2), (1, 3), (2, 1)],
        [(1, 2), (1, 3), (2, 1), (2, 3)],
    )
    report = check_subdivision(partial, triangulation=True)
    assert not report.ok
    assert not report.facet_ok


def test_tom_to_subdivision_recovers_prism_cells():
    assert tom_to_subdivision(prism_tom()) == prism_cells()


def test_triangulation_types_recovers_the_prism():
    assert triangulation_types(prism_cells()) == prism_tom()


def test_triangulation_types_of_a_square_triangulation():
    c = cells_of(2, 2, [(1, 1), (1, 2), (2, 2)], [(1, 1), (2, 1), (2, 2)])
    assert triangulation_types(c) == typeset(
        2, [("1", "1"), ("1", "2"), ("1", "12"), ("2", "2"), ("12", "2")]
    )


def test_triangulation_types_rejects_non_triangulations():
    bad = cells_of(2, 2, [(1, 1), (2, 1), (2, 2)], [(1, 2), (2, 1), (2, 2)])
    with pytest.raises(NotATriangulationError):
        triangulation_types(bad)
    whole = cells_of(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    with pytest.raises(NotATriangulationError):
        triangulation_types(whole)


def test_census_counts_against_oracles():
    assert len(enumerate_triangulations(2, 2)) == 2
    assert len(enumerate_triangulations(2, 3)) == oracles.transitive_tournament_count(3)
    assert len(enumerate_triangulations(2, 4)) == oracles.transitive_tournament_count(4)


def test_census_matches_exact_geometry():
    _, tri = oracles.tilings_and_triangulations(2, 3)
    got = {
        frozenset(cell.edges for cell in c) for c in enumerate_triangulations(2, 3)
    }
    assert got == tri


def test_census_entries_are_valid_and_distinct():
    tris = enumerate_triangulations(2, 3)
    assert len(set(tris)) == len(tris)
    for c in tris:
        assert check_subdivision(c, triangulation=True).ok


def test_census_asks_each_tree_pair_once(monkeypatch):
    # the alternating-cycle test is symmetric, so the 81 spanning trees of
    # K_{3,3} send their 81 * 80 / 2 unordered pairs to the kernel, not 81^2
    sent = []
    kernel = subdivision._cycle_pairs

    def counted(a, b, d):
        verdict = kernel(a, b, d)
        sent.append(verdict.size)
        return verdict

    monkeypatch.setattr(subdivision, "_cycle_pairs", counted)
    assert len(enumerate_triangulations(3, 3)) == 108
    assert sum(sent) == 3240


@pytest.mark.parametrize("n,d", [(3, 3), (2, 4), (2, 5)])
def test_census_types_are_the_refinements_of_the_cells(n, d):
    # the dictionary: a triangulation's types are its cells' types and all
    # their refinements
    for c in enumerate_triangulations(n, d):
        cells = (subgraph_to_type(x) for x in c.cells)
        assert triangulation_types(c) == refinement_closure(cells)


def test_census_cap():
    with pytest.raises(SearchSpaceTooLargeError):
        enumerate_triangulations(4, 4)


def test_probe_small_shapes():
    for n, d in ((2, 2), (2, 3)):
        report = conjecture_probe(n, d)
        assert report.ok
        assert report.injective
        assert not report.axiom_failures
    assert conjecture_probe(2, 3).triangulation_count == 6
    assert conjecture_probe(2, 2).triangulation_count == 2


def _random_edges(rng, n, d):
    edges = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    density = rng.random()
    return frozenset(e for e in edges if rng.random() < density) or frozenset(
        [rng.choice(edges)]
    )


def _left_rows(cells, n, d):
    return np.array(
        [BipartiteSubgraph(n, d, c).left_masks() for c in cells], dtype=np.uint64
    )


def test_cycle_kernel_decides_alternating_cycles():
    for n, d in ((3, 3), (2, 4)):
        trees = oracles.spanning_trees_naive(n, d)
        rows = _left_rows(trees, n, d)
        flagged = _cycle_pairs(rows[:, None], rows[None], d)
        for a, ta in enumerate(trees):
            for b, tb in enumerate(trees):
                cyc = subdivision._alternating_cycle(ta, tb, n, d)
                assert flagged[a, b] == (cyc is not None), (ta, tb)
        assert flagged.any() and not flagged.all()
    rng = random.Random(77)
    for _ in range(3000):
        n, d = rng.randint(1, 4), rng.randint(1, 5)
        ta, tb = _random_edges(rng, n, d), _random_edges(rng, n, d)
        flagged = _cycle_pairs(_left_rows([ta], n, d), _left_rows([tb], n, d), d)
        assert flagged[0] == (subdivision._alternating_cycle(ta, tb, n, d) is not None)


def _connected_cover(n, d, edges):
    adj = {("L", i): set() for i in range(1, n + 1)}
    adj.update({("R", j): set() for j in range(1, d + 1)})
    for i, j in edges:
        adj[("L", i)].add(("R", j))
        adj[("R", j)].add(("L", i))
    seen = {("L", 1)}
    queue = [("L", 1)]
    while queue:
        for w in adj[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n + d


def test_spanning_test_matches_breadth_first_search():
    rng = random.Random(78)
    spans = 0
    for _ in range(3000):
        n, d = rng.randint(1, 4), rng.randint(1, 5)
        edges = _random_edges(rng, n, d)
        want = _connected_cover(n, d, edges)
        assert subdivision._spans(BipartiteSubgraph(n, d, edges)) == want, edges
        spans += want
    assert 300 < spans < 2700


def test_alternating_search_runs_only_on_flagged_pairs(monkeypatch):
    calls = []
    search = subdivision._alternating_cycle

    def counted(ta, tb, n, d):
        calls.append((ta, tb))
        return search(ta, tb, n, d)

    monkeypatch.setattr(subdivision, "_alternating_cycle", counted)
    assert check_subdivision(prism_cells(), triangulation=True).ok
    assert not calls
    tris = enumerate_triangulations(2, 3)
    mixed = SubgraphCollection(2, 3, tris[0].cells + tris[-1].cells)
    report = check_subdivision(mixed, triangulation=True)
    assert not report.alternating_ok
    assert len(calls) == len(report.alternating_violations)


def test_subdivision_report_is_capped(monkeypatch):
    # every spanning tree of K_{3,3} as one collection: many crossing pairs,
    # and five trees alone leave many interior facets unmatched
    trees = subdivision._all_spanning_trees(3, 3)
    crowd = SubgraphCollection(3, 3, tuple(trees))
    sparse = SubgraphCollection(3, 3, tuple(trees[::20]))
    full_alt = check_subdivision(crowd, triangulation=True)
    full_facet = check_subdivision(sparse)
    assert len(full_alt.alternating_violations) > 5
    assert len(full_facet.facet_violations) > 5
    assert "total" not in full_alt.to_obj()["alternating"]
    assert "total" not in full_facet.to_obj()["facets"]

    calls = []
    search = subdivision._alternating_cycle
    monkeypatch.setattr(
        subdivision, "_alternating_cycle", lambda *a: calls.append(a) or search(*a)
    )
    monkeypatch.setattr(subdivision, "_MAX_REPORTED_FAILURES", 5)
    alt = check_subdivision(crowd, triangulation=True)
    facet = check_subdivision(sparse)
    assert len(calls) == 5 + len(facet.alternating_violations)
    assert alt.alternating_violations == full_alt.alternating_violations[:5]
    assert alt.alternating_total == len(full_alt.alternating_violations)
    assert facet.facet_violations == full_facet.facet_violations[:5]
    assert facet.facet_total == len(full_facet.facet_violations)
    assert not alt.ok and not facet.ok
    obj = alt.to_obj()["alternating"]
    assert obj["total"] == alt.alternating_total and obj["truncated"] is True
    assert len(obj["violations"]) == 5
    obj = facet.to_obj()["facets"]
    assert obj["total"] == facet.facet_total and obj["truncated"] is True
    assert list(obj) == ["ok", "violations", "total", "truncated"]


def test_edge_list_is_sorted_once_and_stays_out_of_identity():
    edges = [(2, 1), (1, 3), (1, 1), (2, 2)]
    a = BipartiteSubgraph(2, 3, frozenset(edges))
    b = BipartiteSubgraph(2, 3, frozenset(reversed(edges)))
    assert a.edge_list() == ((1, 1), (1, 3), (2, 1), (2, 2))
    assert a.edge_list() is a.edge_list()
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"BipartiteSubgraph(n=2, d=3, edges={a.edges!r})"
    assert a.to_obj() == [[1, 1], [1, 3], [2, 1], [2, 2]]
