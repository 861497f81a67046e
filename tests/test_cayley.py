"""Lozenge-tiling view for two-row examples: pieces, moves, drawings."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tropom import (
    BipartiteSubgraph,
    NotAFineCellError,
    NotATriangulationError,
    SubgraphCollection,
    cayley,
    cayley_cell,
    classify_piece,
    embed,
    enumerate_triangulations,
    render_svg,
    subgraph_to_type,
    transitions,
    verify_transition_rules,
)
import oracles
from helpers import T, cells_of, prism_cells

GOLDEN_SVG = Path(__file__).parent / "data" / "golden_prism.svg"


def test_cayley_cell_fineness():
    assert cayley_cell(T(3, "123", "1")).is_fine
    assert cayley_cell(T(3, "23", "13")).is_fine
    assert not cayley_cell(T(3, "23", "123")).is_fine
    assert not cayley_cell(T(3, "2", "2")).is_fine


def test_classify_triangle_and_rhombus():
    p = classify_piece(T(3, "123", "1"))
    assert p.kind == "triangle"
    assert p.positions == (1,)
    q = classify_piece(T(3, "23", "13"))
    assert q.kind == "rhombus-3"
    assert q.positions == (1, 2)
    r = classify_piece(T(3, "12", "13"))
    assert r.kind == "rhombus-1"


def test_classify_rejects_bad_cells():
    with pytest.raises(NotAFineCellError):
        classify_piece(T(3, "23", "123"))
    with pytest.raises(NotAFineCellError):
        classify_piece(T(3, "12", "12"))  # parallel segments, no area
    with pytest.raises(NotAFineCellError):
        classify_piece(T(2, "12", "1"))


def test_transitions_from_a_triangle():
    moves = {(m.position, m.numeral): m.candidates for m in transitions(T(3, "123", "1"))}
    assert set(moves) == {(1, 1), (1, 2), (1, 3)}
    assert set(moves[(1, 1)]) == {T(3, "23", "12"), T(3, "23", "13")}
    assert moves[(1, 2)] == ()
    assert moves[(1, 3)] == ()


def test_transitions_from_a_rhombus():
    moves = {(m.position, m.numeral): m.candidates for m in transitions(T(3, "23", "13"))}
    assert set(moves) == {(1, 2), (1, 3), (2, 1), (2, 3)}
    assert moves[(1, 3)] == (T(3, "2", "123"),)
    assert moves[(2, 3)] == (T(3, "123", "1"),)
    assert moves[(1, 2)] == ()
    assert moves[(2, 1)] == ()


def test_transitions_three_rows():
    # moving the shared numeral of a rhombus can also land on a pinned row,
    # which then absorbs the leftover numeral
    moves = {
        (m.position, m.numeral): m.candidates
        for m in transitions(T(3, "23", "13", "2"))
    }
    assert set(moves[(2, 3)]) == {T(3, "23", "1", "12"), T(3, "123", "1", "2")}
    assert moves[(2, 1)] == ()


def test_transitions_match_the_case_table():
    # the fine d = 3 cells with n <= 5 are the spanning trees of K_{n,3}
    cells = 0
    for n in range(1, 6):
        for tree in oracles.spanning_trees_naive(n, 3):
            a = subgraph_to_type(BipartiteSubgraph(n, 3, tree))
            got = [
                (m.position, m.numeral, [oracles.as_naive(c) for c in m.candidates])
                for m in transitions(a)
            ]
            assert got == oracles.transition_landings_naive(oracles.as_naive(a)), a
            cells += 1
    assert cells == 2551


def test_verify_flags_the_pairs_the_case_table_rejects(monkeypatch):
    # random sets of trees with the triangulation gate lifted, so that
    # illegal adjacent pairs occur
    monkeypatch.setattr(cayley, "require_triangulation", lambda c: None)
    rng = random.Random(19)
    flagged = 0
    for n in (2, 3, 4):
        trees = oracles.spanning_trees_naive(n, 3)
        for _ in range(200):
            picked = rng.sample(trees, rng.randint(2, min(10, len(trees))))
            cells = SubgraphCollection(n, 3, tuple(BipartiteSubgraph(n, 3, t) for t in picked))
            naive = [oracles.as_naive(subgraph_to_type(cell)) for cell in cells]
            moves = [
                {(p, u): landings for p, u, landings in oracles.transition_landings_naive(a)}
                for a in naive
            ]
            pairs, violations = 0, []
            for (ia, ca), (ib, cb) in itertools.combinations(enumerate(cells), 2):
                gone, added = ca.edges - cb.edges, cb.edges - ca.edges
                if len(gone) != 1 or len(added) != 1:
                    continue
                pairs += 1
                fwd = moves[ia].get(next(iter(gone)), [])
                back = moves[ib].get(next(iter(added)), [])
                if naive[ib] not in fwd or naive[ia] not in back:
                    violations.append((ia + 1, ib + 1))
            report = verify_transition_rules(cells)
            assert (report.adjacent_pairs, list(report.violations)) == (pairs, violations)
            flagged += len(violations)
    assert flagged > 100


def test_verify_transition_rules_on_the_prism():
    report = verify_transition_rules(prism_cells())
    assert report.ok
    assert report.cell_count == 3
    assert report.adjacent_pairs == 2
    assert report.violations == ()


def test_verify_transition_rules_needs_three_directions():
    square = cells_of(2, 2, [(1, 1), (1, 2), (2, 2)], [(1, 1), (2, 1), (2, 2)])
    with pytest.raises(ValueError):
        verify_transition_rules(square)


def test_embed_prism_polygons_are_exact():
    cells = embed(prism_cells())
    assert [c.piece.kind for c in cells] == ["triangle", "rhombus-3", "triangle"]
    polys = [tuple((str(u), str(v)) for u, v in c.polygon) for c in cells]
    assert polys[0] == (("0", "0"), ("1", "0"), ("0", "1"))
    assert polys[1] == (("0", "1"), ("1", "0"), ("1", "1"), ("0", "2"))
    assert polys[2] == (("1", "0"), ("2", "0"), ("1", "1"))


def test_embed_covers_the_triangle_exactly():
    cells = embed(prism_cells())

    def doubled_area(poly):
        s = Fraction(0)
        for (u1, v1), (u2, v2) in zip(poly, poly[1:] + poly[:1]):
            s += u1 * v2 - u2 * v1
        return s

    # the axial shoelace counts unit upward triangles directly
    total = sum(doubled_area(c.polygon) for c in cells)
    assert total == 2 * 2
    assert [doubled_area(c.polygon) for c in cells] == [1, 2, 1]


def test_embed_segments_carry_line_classes():
    cells = embed(prism_cells())
    assert [sorted({s[0] for s in c.segments}) for c in cells] == [[1], [1, 2], [2]]
    assert len(cells[0].segments) == 3
    assert len(cells[1].segments) == 2


def test_embed_rejects_invalid_collections():
    bad = cells_of(
        3, 3, [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)],
        [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)],
    )
    with pytest.raises(NotATriangulationError):
        embed(bad)
    square = cells_of(2, 2, [(1, 1), (1, 2), (2, 2)], [(1, 1), (2, 1), (2, 2)])
    with pytest.raises(ValueError):
        embed(square)


def test_svg_matches_the_frozen_file():
    svg = render_svg(prism_cells())
    assert svg == GOLDEN_SVG.read_text()


def test_svg_is_byte_stable_across_shapes():
    for tri in enumerate_triangulations(2, 3):
        assert render_svg(tri) == render_svg(tri)
    tri33 = enumerate_triangulations(3, 3)[0]
    assert render_svg(tri33) == render_svg(tri33)


def test_every_small_triangulation_embeds_with_n_triangles():
    for n in (2, 3):
        for tri in enumerate_triangulations(n, 3):
            cells = embed(tri)
            kinds = [c.piece.kind for c in cells]
            assert kinds.count("triangle") == n
            assert verify_transition_rules(tri).ok
