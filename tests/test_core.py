"""Types, type sets, and duality."""

from __future__ import annotations

import random

import numpy as np
import pytest

from tropom import axioms, core
from tropom import (
    Arrangement,
    EmptyCoordinateError,
    OrderedPartition,
    OutOfRangeError,
    SearchSpaceTooLargeError,
    SubgraphCollection,
    TomTypeSet,
    TropomError,
    Type,
    arrangement_tom,
    constant_type,
    dual,
    elements_of,
    mask_from_elements,
    make_type,
    random_arrangement,
)
import oracles
from helpers import T, prism_tom, typeset


def test_mask_roundtrip():
    assert mask_from_elements([2, 3], 5) == 0b110
    assert elements_of(0b110) == (2, 3)
    assert elements_of(mask_from_elements([5, 1], 5)) == (1, 5)
    assert elements_of(0) == ()


def test_mask_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        mask_from_elements([0], 3)
    with pytest.raises(OutOfRangeError):
        mask_from_elements([4], 3)


def test_type_literal_and_str():
    a = T(3, "23", "13")
    assert a.n == 2 and a.d == 3
    assert a.coords == (0b110, 0b101)
    assert str(a) == "(23,13)"
    assert a.coord_sets() == ((2, 3), (1, 3))


def test_type_rejects_empty_coordinate():
    with pytest.raises(EmptyCoordinateError) as exc:
        Type(2, 3, (0b1, 0))
    assert exc.value.position == 2


def test_type_obj_roundtrip():
    a = make_type(2, 4, [[4, 1], [2]])
    assert a.to_obj() == [[1, 4], [2]]
    assert Type.from_obj(a.to_obj(), 4) == a


def test_type_dimension_guard():
    with pytest.raises(ValueError):
        make_type(1, 65, [list(range(1, 66))])


def test_counts_reject_booleans():
    with pytest.raises(ValueError, match="d=True"):
        TomTypeSet.from_obj({"n": 2, "d": True, "types": [[[1], [1]]]})
    with pytest.raises(ValueError, match="n=True"):
        Type(True, 2, (1,))


def test_constant_type():
    assert constant_type(3, 4, 2) == T(4, "2", "2", "2")
    with pytest.raises(OutOfRangeError):
        constant_type(2, 3, 4)


def test_type_and_semitype_stay_distinct_values():
    assert repr(Type(2, 3, (0b110, 0b1))) == "Type(23,1)"
    with pytest.raises(EmptyCoordinateError):
        Type.from_obj([[2, 3], []], 3)
    with pytest.raises(ValueError, match="^a type is"):
        Type.from_obj([], 3)


def test_ordered_partition_validation():
    p = OrderedPartition.from_sets(3, [[2], [1, 3]])
    assert str(p) == "(2|13)"
    with pytest.raises(ValueError):
        OrderedPartition.from_sets(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        OrderedPartition.from_sets(3, [[1], [2]])
    with pytest.raises(EmptyCoordinateError):
        OrderedPartition.from_sets(3, [[1, 2, 3], []])


def test_typeset_dedupes_and_sorts():
    a, b = T(2, "1", "2"), T(2, "12", "1")
    m = TomTypeSet.from_types([b, a, a])
    assert len(m) == 2
    assert list(m) == sorted([a, b], key=lambda t: t.coords)
    assert a in m
    assert m.has_coords((0b1, 0b10))
    assert T(2, "2", "2") not in m


@pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (5, 13), (2, 40), (65, 2), (3, 64), (65, 64)])
def test_typeset_rows_and_membership_agree_with_python_sets(n, d):
    rng = random.Random(n * 100 + d)
    wide = [(1 << d) - 1, 1 << (d - 1), 1]  # the extreme masks, bit 63 at d = 64

    def coords():
        return tuple(
            rng.choice([rng.randint(1, (1 << d) - 1), rng.choice(wide)]) for _ in range(n)
        )

    for size in (0, 1, 7, 60):
        pool = [coords() for _ in range(size)]
        pool += pool[: size // 3]  # repeats
        m = TomTypeSet(n, d, tuple(Type(n, d, c) for c in pool))
        expected = sorted(set(pool))
        assert [t.coords for t in m] == expected
        assert m.rows.shape == (len(expected), n) and m.rows.dtype == np.uint64
        assert [tuple(r) for r in m.rows.tolist()] == expected
        assert not m.rows.flags.writeable
        misses = [coords() for _ in range(40)]
        misses += [c[:-1] + (c[-1] ^ 1 or 1 << (d - 1),) for c in pool[:10]]  # a bit off
        have = set(pool)
        for c in pool + misses:
            assert m.has_coords(c) == (c in have), c
            assert (Type(n, d, c) in m) == (c in have)
        queries = np.array(pool + misses, dtype=np.uint64).reshape(-1, n)
        assert m.has_rows(queries).tolist() == [c in have for c in pool + misses]
        grid = np.stack([queries, queries[::-1]])
        assert m.has_rows(grid).shape == (2, len(queries))
    assert not m.has_coords((1,) * (n + 1))
    assert not m.has_coords((-1,) * n)
    assert not m.has_coords((1 << 64,) * n)


def test_typeset_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        TomTypeSet.from_types([T(2, "1", "2"), T(3, "1", "2")])
    with pytest.raises(ValueError):
        TomTypeSet.from_types([T(2, "1", "2"), T(2, "1", "2", "1")])


def test_typeset_obj_roundtrip():
    m = prism_tom()
    again = TomTypeSet.from_obj(m.to_obj())
    assert again == m
    assert again.to_obj() == m.to_obj()


def _parsed_type_by_type(obj):
    """TomTypeSet.from_obj the long way, one Type.from_obj per entry: the
    result, or the class and message of the first error."""
    try:
        n, d, raw = obj["n"], obj["d"], obj["types"]
        types = []
        for entry in raw:
            t = Type.from_obj(entry, d)
            if t.n != n:
                raise ValueError(f"type {t} has {t.n} coordinates, expected {n}")
            types.append(t)
        return TomTypeSet(n, d, tuple(types))
    except (ValueError, TypeError, TropomError) as exc:
        return type(exc), str(exc)


def _parsed(obj):
    try:
        return TomTypeSet.from_obj(obj)
    except (ValueError, TypeError, TropomError) as exc:
        return type(exc), str(exc)


def test_typeset_parse_matches_type_by_type_on_valid_and_malformed_input():
    """Among valid coordinates a bad one must still be caught: True and 1.0
    equal 1, so a coordinate memo keyed on contents alone would pass them."""
    rng = random.Random(17)
    junk = [True, False, 1.0, 2.0, 0, -1, 2**70, None, "1", [1], {}]
    checked = errors = 0
    for _ in range(400):
        n, d = rng.randint(1, 4), rng.randint(1, 12)
        raw = [
            [sorted(rng.sample(range(1, d + 1), rng.randint(1, d))) for _ in range(n)]
            for _ in range(rng.randint(0, 12))
        ]
        raw += raw[: len(raw) // 3]  # repeated types
        if raw and rng.random() < 0.7:
            entry = rng.randrange(len(raw))
            spoil = rng.randrange(4)
            if spoil == 0:  # one element: junk, d + 1, or a duplicate
                coord = raw[entry][rng.randrange(n)]
                coord.insert(rng.randint(0, len(coord)), rng.choice(junk + [d + 1, coord[0]]))
            elif spoil == 1:  # one coordinate: empty or not a list
                raw[entry][rng.randrange(n)] = rng.choice([[], 1, "12", None, {}])
            elif spoil == 2:  # one coordinate too many or too few
                raw[entry] = raw[entry] + [[1]] if rng.random() < 0.5 else raw[entry][1:]
            else:  # the whole type
                raw[entry] = rng.choice([[], 1, "x", None, {}, [[]]])
        obj = {"n": n, "d": d, "types": raw}
        expected = _parsed_type_by_type(obj)
        assert _parsed(obj) == expected, obj
        checked += 1
        errors += isinstance(expected, tuple)
    assert checked == 400 and 100 < errors < 300


@pytest.mark.parametrize(
    "types, message",
    [
        ([[[1], [True]]], "element True at position 2 is out of range"),
        ([[[1], [False]]], "element False at position 2 is out of range"),
        ([[[1], [1.0]]], "element 1.0 at position 2 is out of range"),
        ([[[1], [2, 0]]], "element 0 at position 2 is out of range"),
        ([[[1], [4]]], "element 4 at position 2 is out of range"),
        ([[[1], []]], "coordinate 2 is empty"),
        ([[[1], 1]], "coordinate 2 is not an array"),
        ([[]], "a type is a nonempty array of coordinate arrays"),
        ([[[1], [1], [1]]], "type (1,1,1) has 3 coordinates, expected 2"),
        ([[[4], []]], "coordinate 2 is empty"),  # shape before elements
        ([[[4], [1], [1]]], "element 4 at position 1 is out of range"),  # elements before count
    ],
)
def test_typeset_parse_errors_after_valid_types(types, message):
    """The same error whether or not the coordinates were met valid before."""
    for before in ([], [[[1], [1]], [[1, 2], [2]], [[3], [1]]]):
        with pytest.raises((ValueError, TropomError)) as exc:
            TomTypeSet.from_obj({"n": 2, "d": 3, "types": before + types})
        assert str(exc.value) == message


def test_typeset_parse_accepts_repeats():
    once = TomTypeSet.from_obj({"n": 2, "d": 3, "types": [[[1], [2, 3]], [[2], [1]]]})
    again = TomTypeSet.from_obj(
        {"n": 2, "d": 3, "types": [[[2, 2], [1]], [[1, 1], [3, 2, 3]], [[2], [1]]]}
    )
    assert again == once and len(again) == 2
    with pytest.raises(ValueError, match="^types must be an array$"):
        TomTypeSet.from_obj({"n": 2, "d": 3, "types": {"a": [[1], [1]]}})


def test_typeset_equality_and_hash_read_the_rows():
    m = prism_tom()
    parsed = TomTypeSet.from_obj(m.to_obj())
    assert parsed._types is None  # no Type built yet
    assert parsed == m and hash(parsed) == hash(m)
    assert parsed._types is None
    assert parsed != TomTypeSet(m.n, m.d, m.types[1:])
    assert TomTypeSet(2, 3, ()) != TomTypeSet(3, 2, ()) != TomTypeSet(2, 2, ())
    assert parsed.types == m.types and parsed._types is not None
    with pytest.raises(AttributeError):
        parsed.rows = m.rows


def test_refused_counts_print_exactly_up_to_twenty_digits():
    assert core._count_text(10**20 - 1) == "99999999999999999999"
    assert core._count_text(10**20) == "about 10^20"
    assert core._count_text(3 * 10**300) == "about 10^300"
    # 2^15000 has 4516 digits, past what str() of an int takes
    wide = TomTypeSet.from_obj({"n": 15000, "d": 2, "types": [[[1]] * 15000]})
    with pytest.raises(SearchSpaceTooLargeError) as refused:
        dual(wide)
    assert str(refused.value) == "dual builds about 10^4515 cells, over the cap 67108864"


def test_dual_of_rank_one_set():
    m = typeset(3, [("1",), ("2",), ("3",), ("12",), ("13",), ("23",), ("123",)])
    assert dual(m) == typeset(1, [("1", "1", "1")])


def test_dual_is_the_reduced_transpose_of_the_completion():
    rng = random.Random(5)
    cases = [TomTypeSet(n, d, ()) for n, d in [(1, 1), (3, 2), (5, 5)]]
    for _ in range(60):
        n, d = rng.randint(1, 5), rng.randint(1, 5)
        cases.append(TomTypeSet(n, d, tuple(
            Type(n, d, tuple(rng.randint(1, (1 << d) - 1) for _ in range(n)))
            for _ in range(rng.randint(0, 12))
        )))
    for n in range(1, 5):
        for d in range(1, 5):
            cases.append(arrangement_tom(random_arrangement(n, d, rng, bound=1)))
    for m in cases:
        got = dual(m)
        assert (got.n, got.d) == (m.d, m.n)
        expected = oracles.dual_naive({oracles.as_naive(t) for t in m}, m.n, m.d)
        assert {oracles.as_naive(t) for t in got} == expected, m


def test_dual_in_small_blocks_matches_one_block(monkeypatch):
    """Many blocks of position sets, merged as they come, give the rows of
    one block."""
    rng = random.Random(11)
    cases = [prism_tom(), TomTypeSet(4, 3, ())]
    for n, d in [(2, 3), (3, 3), (4, 2), (3, 4)]:
        cases.append(arrangement_tom(random_arrangement(n, d, rng, bound=2)))
    for m in cases:
        whole = dual(m)
        for budget in (1, 7, 3 * m.d * len(m)):
            monkeypatch.setattr(axioms, "_PAIR_BUDGET", budget)
            assert dual(m) == whole
            assert np.array_equal(dual(m).rows, whole.rows)
        monkeypatch.undo()


def test_dual_is_an_involution_on_the_prism():
    m = prism_tom()
    dm = dual(m)
    assert (dm.n, dm.d) == (3, 2)
    assert dual(dm) == m


@pytest.mark.parametrize(
    "cls, what, key",
    [
        (TomTypeSet, "a type set", "types"),
        (Arrangement, "an arrangement", "apexes"),
        (SubgraphCollection, "a collection", "cells"),
    ],
)
def test_shaped_objects_name_what_is_missing(cls, what, key):
    with pytest.raises(ValueError, match=f"^{what} is an object with n, d, {key}$"):
        cls.from_obj([1, 2])
    for missing in ("n", "d", key):
        obj = {"n": 1, "d": 1, key: []}
        del obj[missing]
        with pytest.raises(ValueError, match=f"^missing key '{missing}'$"):
            cls.from_obj(obj)
