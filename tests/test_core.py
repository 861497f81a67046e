"""Types, semitypes, type sets, and the duality operations."""

from __future__ import annotations

import random

import numpy as np
import pytest

from tropom import (
    Arrangement,
    EmptyCoordinateError,
    OrderedPartition,
    OutOfRangeError,
    SemiType,
    SubgraphCollection,
    TomTypeSet,
    Type,
    completion,
    constant_type,
    dual,
    elements_of,
    mask_from_elements,
    make_type,
    reduction,
    transpose,
)
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


def test_semitype_allows_and_reports_empties():
    s = SemiType(2, 3, (0b110, 0))
    assert not s.is_total()
    assert str(s) == "(23,-)"
    with pytest.raises(EmptyCoordinateError):
        s.to_type()
    t = SemiType(2, 3, (0b110, 0b1))
    assert t.is_total()
    assert t.to_type() == T(3, "23", "1")


def test_type_and_semitype_stay_distinct_values():
    t, s = Type(2, 3, (0b110, 0b1)), SemiType(2, 3, (0b110, 0b1))
    assert t != s and s != t
    assert not isinstance(s, Type)
    assert (repr(t), repr(s)) == ("Type(23,1)", "SemiType(23,1)")
    assert SemiType.from_obj([[2, 3], []], 3) == SemiType(2, 3, (0b110, 0))
    with pytest.raises(EmptyCoordinateError):
        Type.from_obj([[2, 3], []], 3)
    with pytest.raises(ValueError, match="^a type is"):
        Type.from_obj([], 3)
    with pytest.raises(ValueError, match="^a semitype is"):
        SemiType.from_obj([], 3)


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


def test_transpose_flips_incidences():
    t = transpose(T(3, "123", "1"))
    assert t == SemiType.from_sets(3, 2, [[1, 2], [1], [1]])
    back = transpose(t)
    assert back == T(3, "123", "1").to_semitype()


def test_completion_adds_every_erasure():
    m = prism_tom()
    comp = completion(m)
    expected = set()
    for t in m:
        for pattern in range(4):
            expected.add(
                SemiType(2, 3, tuple(
                    c if pattern >> i & 1 else 0 for i, c in enumerate(t.coords)
                ))
            )
    assert comp == expected
    assert len(comp) == 32


def test_reduction_inverts_completion():
    m = prism_tom()
    assert reduction(completion(m)) == m


def test_reduction_of_empty_pool_needs_shape():
    assert len(reduction([], n=2, d=2)) == 0
    with pytest.raises(ValueError):
        reduction([])


def test_dual_of_rank_one_set():
    m = typeset(3, [("1",), ("2",), ("3",), ("12",), ("13",), ("23",), ("123",)])
    assert dual(m) == typeset(1, [("1", "1", "1")])


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
