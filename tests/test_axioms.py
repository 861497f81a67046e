"""Axiom checks: refinement machinery, comparability graphs, full reports."""

from __future__ import annotations

import random

import numpy as np
import pytest

from tropom import (
    OrderedPartition,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    arrangement_tom,
    check_axioms,
    check_comparability,
    check_surrounding,
    comparability_graph,
    elements_of,
    elimination_witnesses,
    find_directed_cycle,
    has_directed_cycle,
    is_tope,
    ordered_partitions,
    random_arrangement,
    random_generic_arrangement,
    reconstruct_from_topes,
    refine,
    refinement_closure,
    topes,
    total_refinements,
)
import tropom.axioms as axioms
import oracles
from helpers import T, prism_tom, typeset


def P(d, *parts):
    return OrderedPartition.from_sets(d, [[int(ch) for ch in p] for p in parts])


def test_refine_trivial_partition_is_identity():
    a = T(3, "23", "13")
    assert refine(a, P(3, "123")) == a


def test_refine_last_matching_part_wins():
    a = T(9, "12", "69", "12", "67", "23", "18", "345", "135")
    left = P(9, "2345", "16789")
    assert refine(a, left) == T(9, "1", "69", "1", "67", "23", "18", "345", "1")
    right = P(9, "16789", "2345")
    assert refine(a, right) == T(9, "2", "69", "2", "67", "23", "18", "345", "35")


def test_refine_small_example():
    assert refine(T(3, "123", "1"), P(3, "1", "23")) == T(3, "23", "1")
    assert refine(T(3, "123", "1"), P(3, "23", "1")) == T(3, "1", "1")


def test_total_refinements_frozen_set():
    assert total_refinements(T(3, "23", "13")) == {
        T(3, "3", "3"),
        T(3, "2", "3"),
        T(3, "3", "1"),
        T(3, "2", "1"),
    }


def test_total_refinements_of_tope_is_itself():
    a = T(3, "2", "3")
    assert total_refinements(a) == {a}


def test_total_refinements_match_partition_sweep():
    a = T(3, "123", "1")
    by_parts = {refine(a, p) for p in ordered_partitions(3)}
    singles = {t for t in by_parts if all(m.bit_count() == 1 for m in t.coords)}
    assert total_refinements(a) == singles


def test_ordered_partition_counts():
    assert len(ordered_partitions(1)) == 1
    assert len(ordered_partitions(2)) == 3
    assert len(ordered_partitions(3)) == 13
    assert len(ordered_partitions(4)) == 75


def test_comparability_graph_arcs():
    g = comparability_graph(T(3, "123", "1"), T(3, "2", "123"))
    assert g.undirected == frozenset()
    assert g.directed == frozenset({(1, 2), (3, 2), (1, 3)})
    assert not has_directed_cycle(g)
    assert find_directed_cycle(g) is None


def test_directed_two_cycle_is_found():
    g = comparability_graph(T(2, "12", "2"), T(2, "2", "1"))
    walk = find_directed_cycle(g)
    assert walk is not None
    assert walk[0] == walk[-1]
    assert set(walk) == {1, 2}


def test_walk_closes_first_one_way_arc_by_shortest_way_back():
    # arcs 1->2, 2->3, 2->4, 3->1, 4->1: no two-cycle, two ways back from 2
    g = comparability_graph(T(4, "1", "2", "34"), T(4, "2", "34", "1"))
    assert g.directed == frozenset({(1, 2), (2, 3), (2, 4), (3, 1), (4, 1)})
    assert find_directed_cycle(g) == [1, 2, 3, 1]


def test_undirected_edges_alone_are_no_cycle():
    a = T(2, "12", "12")
    g = comparability_graph(a, a)
    assert g.directed == frozenset()
    assert g.undirected == frozenset({(1, 2)})
    assert not has_directed_cycle(g)


def test_one_way_arc_closed_by_undirected_edge():
    g = comparability_graph(T(2, "12", "2"), T(2, "12", "1"))
    assert has_directed_cycle(g)


def test_prism_satisfies_all_axioms():
    report = check_axioms(prism_tom())
    assert report.ok
    assert report.boundary_ok
    assert report.elimination_ok
    assert report.comparability_ok
    assert report.surrounding_ok
    assert report.size == 17
    obj = report.to_obj()
    assert obj["ok"] is True
    assert obj["boundary"]["ok"] is True


def test_missing_constant_type_breaks_boundary():
    m = TomTypeSet.from_types([t for t in prism_tom() if t != T(3, "3", "3")])
    report = check_axioms(m)
    assert not report.boundary_ok
    assert report.boundary_missing == (3,)


def test_missing_tope_breaks_surrounding():
    m = TomTypeSet.from_types([t for t in prism_tom() if t != T(3, "2", "1")])
    report = check_axioms(m)
    assert not report.surrounding_ok
    bad = report.surrounding_failures[0]
    assert refine(bad[0], bad[1]) == T(3, "2", "1")


def test_incomparable_pair_is_reported():
    m = typeset(2, [("12", "2"), ("12", "1")])
    ok, failures, _ = check_comparability(m)
    assert not ok
    pair = {failures[0][0], failures[0][1]}
    assert pair == {T(2, "12", "2"), T(2, "12", "1")}


def test_elimination_witness_on_the_prism():
    w = elimination_witnesses(prism_tom(), T(3, "1", "1"), T(3, "123", "1"), 1)
    assert w == (T(3, "123", "1"),)
    w2 = elimination_witnesses(prism_tom(), T(3, "2", "3"), T(3, "3", "1"), 2)
    for c in w2:
        assert c.coords[1] == 0b101
        assert c in prism_tom()
    assert w2


def test_check_axioms_agrees_with_naive_oracle():
    cases = [
        prism_tom(),
        TomTypeSet.from_types([t for t in prism_tom() if t != T(3, "2", "1")]),
        TomTypeSet.from_types([t for t in prism_tom() if t != T(3, "3", "3")]),
        typeset(2, [("12", "2"), ("12", "1"), ("1", "1"), ("2", "2")]),
    ]
    for m in cases:
        naive = {oracles.as_naive(t) for t in m}
        assert check_axioms(m).ok == oracles.axioms_ok(naive, m.n, m.d)


def test_report_is_per_axiom_on_a_clean_failure():
    m = typeset(2, [("1", "1"), ("2", "2")])
    report = check_axioms(m)
    naive = {oracles.as_naive(t) for t in m}
    assert report.boundary_ok == oracles.boundary_ok(naive, 2, 2)
    assert report.elimination_ok == oracles.elimination_ok(naive, 2, 2)
    assert report.comparability_ok == oracles.comparability_ok(naive)
    assert report.surrounding_ok == oracles.surrounding_ok(naive, 2, 2)
    assert not report.ok


def _random_coords(rng, n, d):
    """Mostly singletons, so that many cycles need more than two arcs."""
    full = (1 << d) - 1
    pick = (
        lambda: 1 << rng.randrange(d),
        lambda: 1 << rng.randrange(d),
        lambda: rng.randint(1, full),
        lambda: full,
    )
    return tuple(rng.choice(pick)() for _ in range(n))


def test_cycle_kernel_matches_naive_oracle():
    rng = random.Random(20070)
    for d in range(2, 8):
        for n in (1, 2, 3, 5):
            pairs = []
            for _ in range(60):
                a = _random_coords(rng, n, d)
                pairs.append((a, a if rng.random() < 0.2 else _random_coords(rng, n, d)))
            full = ((1 << d) - 1,) * n
            pairs += [(full, full), (full, pairs[0][1]), (pairs[0][0], full)]
            A = np.array([a for a, _ in pairs], dtype=np.uint64)
            B = np.array([b for _, b in pairs], dtype=np.uint64)
            got = axioms._cycle_pairs(A, B, d)
            for (a, b), verdict in zip(pairs, got):
                naive = oracles.has_bad_cycle(
                    oracles.as_naive(Type(n, d, a)), oracles.as_naive(Type(n, d, b))
                )
                assert bool(verdict) == naive, (d, a, b)
            # every row against every row agrees with the same pairs listed flat
            grid = axioms._cycle_pairs(A[:12, None, :], B[None, :12, :], d)
            flat = axioms._cycle_pairs(np.repeat(A[:12], 12, axis=0), np.tile(B[:12], (12, 1)), d)
            assert (grid == flat.reshape(12, 12)).all()


def test_comparability_witnesses_are_closed_walks():
    rng = random.Random(4242)
    seen = 0
    for trial in range(40):
        d = rng.randint(2, 5)
        n = rng.randint(1, 4)
        m = TomTypeSet.from_types(
            Type(n, d, _random_coords(rng, n, d)) for _ in range(rng.randint(2, 25))
        )
        ok, failures, _ = check_comparability(m)
        pairs = [(a, b) for a, b, _ in failures]
        assert pairs == sorted(pairs, key=lambda p: (p[0].coords, p[1].coords))
        naive = {
            (a, b)
            for i, a in enumerate(m.types)
            for b in m.types[i:]
            if oracles.has_bad_cycle(oracles.as_naive(a), oracles.as_naive(b))
        }
        assert set(pairs) == naive
        assert ok == (not naive)
        for a, b, walk in failures:
            g = comparability_graph(a, b)
            arcs = g.arcs()
            assert len(walk) >= 3 and walk[0] == walk[-1]
            assert (walk[0], walk[1]) in g.directed
            assert all(w in arcs[v] for v, w in zip(walk, walk[1:]))
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("n,d,seed", [(3, 4, 1), (3, 4, 2), (2, 5, 3), (2, 5, 4)])
def test_reconstruct_from_topes_is_identity(n, d, seed):
    m = arrangement_tom(random_generic_arrangement(n, d, seed=seed))
    assert reconstruct_from_topes(TomTypeSet(n, d, tuple(topes(m)))) == m


def _staircase_tom(d):
    """The type set of a staircase triangulation of two simplices: the
    refinement closure of its vertices ({1..k}, {k..d}), k = 1..d."""
    full = (1 << d) - 1
    return refinement_closure(
        [Type(2, d, ((1 << k) - 1, full & ~((1 << (k - 1)) - 1))) for k in range(1, d + 1)]
    )


def _axiom_cases(rng):
    """Seeded type sets with d from 2 to 6: valid sets, each also with some
    types removed and with five types traded for foreign ones (the full
    one-hyperplane set has no foreign types to add), and random sets."""
    valid = [
        arrangement_tom(random_generic_arrangement(n, d, seed=s))
        for n, d, s in [(3, 2, 1), (2, 3, 2), (5, 3, 5), (2, 4, 4)]
    ]
    valid += [_staircase_tom(5), refinement_closure([Type(1, 6, (0b111111,))])]
    assert len(valid[2]) > 64  # bitsets of several words
    cases = list(valid)
    for m in valid:
        kept = [t for t in m.types if rng.random() > 0.1]
        cases.append(TomTypeSet(m.n, m.d, tuple(kept)))
        foreign = [Type(m.n, m.d, _random_coords(rng, m.n, m.d)) for _ in range(3)]
        cases.append(TomTypeSet(m.n, m.d, m.types[5:] + tuple(foreign)))
    for d in range(2, 7):
        n = rng.randint(1, 3)
        cases.append(
            TomTypeSet.from_types(Type(n, d, _random_coords(rng, n, d)) for _ in range(30))
        )
    return cases


@pytest.mark.parametrize("k,budget", [(0, 7), (1, 7), (2, 7), (12, 7), (12, 30), (40, 1 << 14)])
def test_upper_pairs_cover_each_pair_once_in_whole_rows(monkeypatch, k, budget):
    monkeypatch.setattr(axioms, "_PAIR_BUDGET", budget)
    chunks = list(axioms._upper_pairs(k))
    a = np.concatenate([a for a, _ in chunks]) if chunks else np.empty(0)
    b = np.concatenate([b for _, b in chunks]) if chunks else np.empty(0)
    rows, cols = np.triu_indices(k, 1)
    assert (a == rows).all() and (b == cols).all() and len(a) == len(rows)
    for ca, _ in chunks:
        whole_rows = {int(r) for r in ca}
        assert len(ca) == sum(k - 1 - r for r in whole_rows)
        assert len(ca) <= budget or len(whole_rows) == 1
        if ca[-1] < k - 2:  # a chunk stops only where the next row overflows
            assert len(ca) + k - 2 - ca[-1] > budget


def _naive_elimination_failures(m):
    """Every failing (A, B, j) in both orders, sorted by set order and j:
    plain loops over the pairs A before B, the condition being symmetric."""
    found = []
    for x, a in enumerate(m.types):
        for y in range(x + 1, len(m.types)):
            b = m.types[y]
            allowed = [(ak, bk, ak | bk) for ak, bk in zip(a.coords, b.coords)]
            cands = [
                c.coords
                for c in m.types
                if all(ck in al for ck, al in zip(c.coords, allowed))
            ]
            for j in range(m.n):
                if not any(c[j] == allowed[j][2] for c in cands):
                    found += [(x, y, j + 1), (y, x, j + 1)]
    return [(m.types[x], m.types[y], j) for x, y, j in sorted(found)]


def test_elimination_failures_match_naive_loops(monkeypatch):
    broken = 0
    for m in _axiom_cases(random.Random(31)):
        if len(m) > 100:
            continue  # the loops below take cubic time
        expected = _naive_elimination_failures(m)
        naive = {oracles.as_naive(t) for t in m}
        assert (not expected) == oracles.elimination_ok(naive, m.n, m.d), m
        # a budget of 7 pairs makes every sweep run in many chunks
        for budget in (axioms._PAIR_BUDGET, 7):
            monkeypatch.setattr(axioms, "_PAIR_BUDGET", budget)
            ok, failures, total = axioms.check_elimination(m)
            assert ok == (not expected)
            assert list(failures) == expected
            assert total == len(expected)
        broken += bool(expected)
    assert broken >= 5


def test_elimination_report_is_capped(monkeypatch):
    m = TomTypeSet.from_types(t for t in prism_tom() if t.coords[0] != 0b111)
    full = _naive_elimination_failures(m)
    assert len(full) > 12
    obj = check_axioms(m).to_obj()["elimination"]
    assert sorted(obj) == ["ok", "violations"]
    # a budget of 7 pairs prunes the stored failures between chunks
    monkeypatch.setattr(axioms, "_PAIR_BUDGET", 7)
    monkeypatch.setattr(axioms, "_MAX_REPORTED_FAILURES", 5)
    ok, failures, total = axioms.check_elimination(m)
    assert not ok
    assert list(failures) == full[:5]
    assert total == len(full)
    obj = check_axioms(m).to_obj()["elimination"]
    assert len(obj["violations"]) == 5
    assert obj["total"] == len(full)
    assert obj["truncated"] is True


def test_comparability_and_surrounding_reports_are_capped(monkeypatch):
    rng = random.Random(4343)
    m = TomTypeSet.from_types(Type(3, 4, _random_coords(rng, 3, 4)) for _ in range(30))
    _, comp, comp_total = check_comparability(m)
    _, surr, surr_total = check_surrounding(m)
    assert len(comp) == comp_total > 12
    assert len(surr) == surr_total > 12
    obj = check_axioms(m).to_obj()
    assert sorted(obj["comparability"]) == ["ok", "violations"]
    assert sorted(obj["surrounding"]) == ["ok", "violations"]
    walks = []
    walk = axioms.find_directed_cycle
    monkeypatch.setattr(axioms, "find_directed_cycle", lambda g: walks.append(g) or walk(g))
    # a budget of 7 pairs makes the comparability cap fall between chunks
    monkeypatch.setattr(axioms, "_PAIR_BUDGET", 7)
    monkeypatch.setattr(axioms, "_MAX_REPORTED_FAILURES", 5)
    ok, failures, total = check_comparability(m)
    assert not ok
    assert failures == comp[:5]
    assert total == comp_total
    assert len(walks) == 5
    ok, failures, total = check_surrounding(m)
    assert not ok
    assert failures == surr[:5]
    assert total == surr_total
    obj = check_axioms(m).to_obj()
    for key, everything in (("comparability", comp_total), ("surrounding", surr_total)):
        assert len(obj[key]["violations"]) == 5
        assert obj[key]["total"] == everything
        assert obj[key]["truncated"] is True


def test_surrounding_matches_naive_oracle():
    for m in _axiom_cases(random.Random(32)):
        ok, failures, _ = check_surrounding(m)
        naive = {oracles.as_naive(t) for t in m}
        assert ok == oracles.surrounding_ok(naive, m.n, m.d), m
        if ok or m.d > 4:
            assert ok == (not failures)
            continue
        # the witnesses are every failing ordered partition, type by type
        expected = {
            (t, OrderedPartition.from_sets(m.d, parts))
            for t in m.types
            for parts in oracles.ordered_set_partitions(frozenset(range(1, m.d + 1)))
            if oracles.refine_naive(oracles.as_naive(t), parts) not in naive
        }
        assert set(failures) == expected
        assert len(failures) == len(expected)
        order = [m.types.index(t) for t, _ in failures]
        assert order == sorted(order)


def test_seven_directions_close_and_pass_surrounding():
    m = _staircase_tom(7)
    assert len(m) == 769
    assert check_surrounding(m) == (True, (), 0)
    assert check_axioms(m).ok
    subsets = refinement_closure([Type(1, 7, (0b1111111,))])
    assert len(subsets) == 127
    assert check_axioms(subsets).ok
    # a failing set with d > 6 still has its witnesses refused
    with pytest.raises(SearchSpaceTooLargeError):
        check_surrounding(TomTypeSet.from_types(t for t in m if not is_tope(t)))


def _random_partition(rng, d):
    """An ordered partition of the d directions into at most six parts."""
    dirs = list(range(d))
    rng.shuffle(dirs)
    cuts = sorted(rng.sample(range(1, d), rng.randint(0, min(d, 6) - 1)))
    blocks = [dirs[i:j] for i, j in zip([0] + cuts, cuts + [d])]
    return tuple(sum(1 << j for j in block) for block in blocks)


def test_refine_rows_matches_naive_oracle(monkeypatch):
    monkeypatch.setattr(axioms, "_PAIR_BUDGET", 5)
    rng = random.Random(2011)
    for d in (1, 2, 3, 5, 8, 64):
        for n in (1, 2, 4):
            coords = [_random_coords(rng, n, d) for _ in range(12)]
            partitions = [_random_partition(rng, d) for _ in range(9)]
            expected = [
                [
                    oracles.refine_naive(
                        oracles.as_naive(Type(n, d, c)),
                        [frozenset(elements_of(part)) for part in parts],
                    )
                    for parts in partitions
                ]
                for c in coords
            ]
            rows = np.array(coords, dtype=np.uint64)
            for y, parts in enumerate(partitions):
                got = axioms._refine_rows(rows, parts).tolist()
                assert [oracles.as_naive(Type(n, d, tuple(r))) for r in got] == [
                    e[y] for e in expected
                ]
            # every row along every partition, type-major, in small blocks
            w = max(map(len, partitions))
            padded = np.array([(0,) * (w - len(p)) + p for p in partitions], dtype=np.uint64)
            blocks = list(axioms._refined_blocks(rows, padded))
            assert all(len(r) <= 5 for r, _, _ in blocks)
            r, p, refined = (np.concatenate(b) for b in zip(*blocks))
            assert r.tolist() == [x for x in range(12) for _ in partitions]
            assert p.tolist() == list(range(len(partitions))) * 12
            for x, y, row in zip(r.tolist(), p.tolist(), refined.tolist()):
                assert oracles.as_naive(Type(n, d, tuple(row))) == expected[x][y]


def _tuple_refine(coords, parts):
    """Each coordinate intersected with the last part it meets, on tuples."""
    return tuple(next(c & part for part in reversed(parts) if c & part) for c in coords)


def _tuple_surrounding(m):
    """check_surrounding as plain tuple loops, without the report cap: the
    verdict over the 2^d - 2 two-block refinements, then the failures type
    by type over every ordered partition."""
    have = {t.coords for t in m}
    full = (1 << m.d) - 1
    if all(
        _tuple_refine(t.coords, (full ^ later, later)) in have
        for t in m
        for later in range(1, full)
    ):
        return True, (), 0
    failures = [
        (t, p)
        for t in m
        for p in ordered_partitions(m.d)
        if _tuple_refine(t.coords, p.parts) not in have
    ]
    return False, tuple(failures), len(failures)


def _surrounding_cases(rng):
    """_axiom_cases, degenerate arrangements with and without some of their
    types, and a valid and a broken set of seven directions."""
    cases = _axiom_cases(rng)
    for n, d in [(2, 3), (3, 3), (2, 4), (3, 4)]:
        for _ in range(2):
            m = arrangement_tom(random_arrangement(n, d, rng, bound=1))
            cases += [m, TomTypeSet(n, d, tuple(t for t in m if rng.random() > 0.1))]
    seven = _staircase_tom(7)
    return cases + [seven, TomTypeSet(2, 7, seven.types[1:]), TomTypeSet(2, 7, ())]


def test_surrounding_reports_match_tuple_loops(monkeypatch):
    defaults = (axioms._PAIR_BUDGET, axioms._MAX_REPORTED_FAILURES)
    broken = 0
    for m in _surrounding_cases(random.Random(41)):
        try:
            ok, failures, total = _tuple_surrounding(m)
        except SearchSpaceTooLargeError:  # the witnesses of a broken d = 7 set
            with pytest.raises(SearchSpaceTooLargeError):
                check_surrounding(m)
            continue
        broken += not ok
        for budget, cap in (defaults, (97, 5)):
            monkeypatch.setattr(axioms, "_PAIR_BUDGET", budget)
            monkeypatch.setattr(axioms, "_MAX_REPORTED_FAILURES", cap)
            assert check_surrounding(m) == (ok, failures[:cap], total), m
        if total > 5:  # the cap of 5 is still patched in
            obj = check_axioms(m).to_obj()["surrounding"]
            assert len(obj["violations"]) == 5
            assert (obj["total"], obj["truncated"]) == (total, True)
    assert broken >= 20
    # an empty set passes, even where the two-block partitions are refused
    assert check_surrounding(TomTypeSet(1, 17, ())) == (True, (), 0)
