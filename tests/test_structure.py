"""Faces, topes, vertices, refinement order, reconstruction, and minors."""

from __future__ import annotations

import random

import pytest

from tropom import (
    OrderedPartition,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    arrangement_tom,
    check_axioms,
    contract,
    contraction_relabeling,
    delete,
    dimension,
    direction_components,
    dual,
    is_refinement_of,
    is_tope,
    is_vertex,
    random_arrangement,
    random_generic_arrangement,
    reconstruct_from_topes,
    refine,
    refinement_closure,
    topes,
    vertices,
)
import tropom.axioms as axioms
import oracles
from helpers import T, prism_tom, typeset, PRISM_TOPES, PRISM_VERTICES


def test_direction_components_literals():
    assert direction_components(T(3, "123", "1")) == (0b111,)
    assert direction_components(T(3, "2", "13")) == (0b101, 0b10)
    assert direction_components(T(3, "2", "3")) == (0b1, 0b10, 0b100)
    assert direction_components(T(3, "23", "13")) == (0b111,)


def test_dimension_and_predicates():
    assert dimension(T(3, "123", "1")) == 0
    assert is_vertex(T(3, "123", "1"))
    assert not is_tope(T(3, "123", "1"))
    assert dimension(T(3, "12", "1")) == 1
    assert dimension(T(3, "2", "3")) == 2
    assert is_tope(T(3, "2", "3"))
    assert not is_vertex(T(3, "2", "3"))


def test_prism_topes_and_vertices_are_frozen():
    m = prism_tom()
    assert topes(m) == {T(3, *p) for p in PRISM_TOPES}
    assert vertices(m) == {T(3, *p) for p in PRISM_VERTICES}


def test_refinement_witness_is_a_certificate():
    b, a = T(3, "23", "3"), T(3, "23", "13")
    w = is_refinement_of(b, a)
    assert w == OrderedPartition.from_sets(3, [[1], [2, 3]])
    assert refine(a, w) == b

    w2 = is_refinement_of(T(3, "3", "1"), a)
    assert w2 == OrderedPartition.from_sets(3, [[2], [3], [1]])
    assert refine(a, w2) == T(3, "3", "1")


def test_refinement_is_reflexive_and_detects_failure():
    a = T(3, "23", "13")
    assert is_refinement_of(a, a) == OrderedPartition.from_sets(3, [[1, 2, 3]])
    assert is_refinement_of(T(3, "3", "3"), T(3, "2", "123")) is None
    # subset in every coordinate is necessary but not sufficient: the two
    # restrictions of the square cell pull the partition both ways
    assert is_refinement_of(T(2, "1", "2"), T(2, "12", "12")) is None
    assert is_refinement_of(T(2, "1", "1"), T(2, "12", "12")) is not None


def test_refinement_closure_of_vertices_is_the_prism():
    m = prism_tom()
    assert refinement_closure(vertices(m)) == m
    assert refinement_closure(m) == m


def _naive_closure(seeds, d):
    """Closure under refine_naive over every ordered set partition."""
    partitions = list(oracles.ordered_set_partitions(frozenset(range(1, d + 1))))
    seen = set(seeds)
    work = list(seen)
    while work:
        a = work.pop()
        for parts in partitions:
            r = oracles.refine_naive(a, parts)
            if r not in seen:
                seen.add(r)
                work.append(r)
    return seen


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (4, 2), (5, 2), (6, 1)])
def test_refinement_closure_matches_naive_oracle(d, n):
    rng = random.Random(10 * d + n)
    for _ in range(3):
        seeds = [
            Type(n, d, tuple(rng.randint(1, (1 << d) - 1) for _ in range(n)))
            for _ in range(2)
        ]
        closed = refinement_closure(seeds)
        assert {oracles.as_naive(t) for t in closed} == _naive_closure(
            {oracles.as_naive(t) for t in seeds}, d
        )
        assert refinement_closure(closed) == closed


def _tuple_closure(m):
    """refinement_closure as the worklist over coordinate tuples it replaced."""
    full = (1 << m.d) - 1
    seen = {t.coords for t in m}
    work = list(seen)
    while work:
        coords = work.pop()
        for later in range(1, full):
            r = tuple(c & later or c for c in coords)
            if r not in seen:
                seen.add(r)
                work.append(r)
    return seen


def test_refinement_closure_matches_the_tuple_worklist(monkeypatch):
    rng = random.Random(77)
    cases = []
    for n, d in [(2, 3), (3, 3), (2, 5)]:
        m = arrangement_tom(random_generic_arrangement(n, d, seed=n + d))
        cases += [m, TomTypeSet(n, d, tuple(t for t in m if rng.random() > 0.3))]
    for n, d in [(3, 3), (2, 4), (4, 2)]:
        m = arrangement_tom(random_arrangement(n, d, rng, bound=1))
        cases += [m, TomTypeSet(n, d, tuple(t for t in m if rng.random() > 0.3))]
    for d in range(1, 8):
        n = rng.randint(1, 3)
        seeds = [tuple(rng.randint(1, (1 << d) - 1) for _ in range(n)) for _ in range(3)]
        cases.append(TomTypeSet.from_types(Type(n, d, c) for c in seeds))
    for budget in (axioms._PAIR_BUDGET, 7):
        monkeypatch.setattr(axioms, "_PAIR_BUDGET", budget)
        for m in cases:
            closed = refinement_closure(m)
            assert [t.coords for t in closed] == sorted(_tuple_closure(m)), m


def test_reconstruct_from_topes_recovers_the_prism():
    m = prism_tom()
    assert reconstruct_from_topes(TomTypeSet.from_types(topes(m))) == m


def test_reconstruct_from_topes_is_the_same_in_small_chunks(monkeypatch):
    m = prism_tom()
    cases = [
        TomTypeSet.from_types(topes(m)),
        TomTypeSet.from_types(t for t in topes(m) if t != T(3, "2", "2")),
    ]
    whole = [reconstruct_from_topes(c) for c in cases]
    monkeypatch.setattr(axioms, "_PAIR_BUDGET", 7)
    assert [reconstruct_from_topes(c) for c in cases] == whole


def test_reconstruct_rejects_non_topes():
    with pytest.raises(ValueError):
        reconstruct_from_topes(typeset(3, [("12", "1")]))


def test_reconstruct_caps_the_search_space():
    big = TomTypeSet.from_types(
        [T(6, *(str(j),) * 10) for j in range(1, 7)]
    )
    with pytest.raises(SearchSpaceTooLargeError):
        reconstruct_from_topes(big)


def test_closure_caps_the_two_block_partitions():
    with pytest.raises(SearchSpaceTooLargeError):
        refinement_closure([Type(1, 17, ((1 << 17) - 1,))])


def test_delete_drops_a_hyperplane():
    m = prism_tom()
    for i in (1, 2):
        small = delete(m, i)
        assert (small.n, small.d) == (1, 3)
        assert small == typeset(
            3, [("1",), ("2",), ("3",), ("12",), ("13",), ("23",), ("123",)]
        )
    with pytest.raises(ValueError):
        delete(m, 3)


def test_contract_keeps_types_avoiding_a_direction():
    m = prism_tom()
    assert contract(m, 3) == typeset(
        2, [("1", "1"), ("2", "1"), ("12", "1"), ("2", "2"), ("2", "12")]
    )
    assert contract(m, 1) == typeset(
        2, [("1", "1"), ("1", "2"), ("1", "12"), ("12", "2"), ("2", "2")]
    )
    with pytest.raises(ValueError):
        contract(m, 4)


def test_contraction_relabeling():
    assert contraction_relabeling(3, 3) == {1: 1, 2: 2}
    assert contraction_relabeling(3, 1) == {2: 1, 3: 2}
    assert contraction_relabeling(4, 2) == {1: 1, 3: 2, 4: 3}


def test_minors_of_the_prism_satisfy_axioms():
    m = prism_tom()
    for i in (1, 2):
        assert check_axioms(delete(m, i)).ok
    for j in (1, 2, 3):
        assert check_axioms(contract(m, j)).ok


def test_duality_swaps_deletion_and_contraction():
    m = prism_tom()
    for i in (1, 2):
        assert dual(delete(m, i)) == contract(dual(m), i)
    for j in (1, 2, 3):
        assert dual(contract(m, j)) == delete(dual(m), j)
