"""Core objects for tropical oriented matroids.

The basic datum throughout this package is an (n, d)-type: an n-tuple of
nonempty subsets of the direction set {1, ..., d}.  Coordinate subsets are
stored as bitmasks, bit j-1 standing for direction j; every index that
crosses the public boundary (JSON, reprs, error payloads, witnesses) is
1-based.

Semitypes relax types by allowing empty coordinates.  They exist mostly as
the raw material of duality, which is the composition

    dual = reduction . transpose . completion

implemented at the bottom of this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TypeVar

import numpy as np

MAX_DIRECTIONS = 64
# completion lists K·2^n semitypes.  The largest dual the tests, demos and
# benchmark take is a (6,5) arrangement's, 2561·2^6 = 163,904 semitypes;
# 2^18 admits it, and refuses at once what would run for hours (two types
# of n = 64 coordinates have 2^65 semitypes)
_COMPLETION_CAP = 1 << 18


# ---------------------------------------------------------------------------
# errors


class TropomError(Exception):
    """Base class for every domain error raised by this package."""


class EmptyCoordinateError(TropomError):
    """A coordinate came out empty where a nonempty subset is required."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"coordinate {position} is empty")


class OutOfRangeError(TropomError):
    """An element lies outside the declared range."""

    def __init__(self, position: int, value: int):
        self.position = position
        self.value = value
        super().__init__(f"element {value} at position {position} is out of range")


class EmptyLeftVertexError(TropomError):
    """A bipartite subgraph leaves some left vertex with no incident edge."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"left vertex {vertex} has no incident edge")


class SearchSpaceTooLargeError(TropomError):
    """An enumeration was refused because its search space exceeds the cap."""


class NotATriangulationError(TropomError):
    """Input collection is not a triangulation of the product of simplices."""


class NotAFineCellError(TropomError):
    """A type does not describe a fine mixed cell in three directions."""


class EmbeddingInconsistentError(TropomError):
    """The planar embedding of a triangulation failed an exactness check."""


# ---------------------------------------------------------------------------
# bitmask helpers


def mask_from_elements(elements: Iterable[int], d: int, position: int = 0) -> int:
    """Pack 1-based elements into a bitmask, validating the range [1, d]."""
    mask = 0
    for j in elements:
        if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= d:
            raise OutOfRangeError(position, j)
        mask |= 1 << (j - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into its sorted 1-based elements."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _nonempty_submasks(mask: int) -> list[int]:
    """The nonempty submasks of a bitmask, in increasing order."""
    subs = []
    sub = 0
    while True:
        sub = (sub - mask) & mask
        if sub == 0:
            return subs
        subs.append(sub)


def _validate_mask(mask: int, d: int, position: int, allow_empty: bool) -> None:
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise TypeError(f"coordinate {position} is not a bitmask")
    if mask == 0 and not allow_empty:
        raise EmptyCoordinateError(position)
    if mask < 0 or mask >> d:
        stray = elements_of(mask >> d)
        bad = stray[0] + d if stray else mask
        raise OutOfRangeError(position, bad)


def _validate_dims(n: int, d: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"need at least one coordinate, got n={n}")
    if type(d) is not int or not 1 <= d <= MAX_DIRECTIONS:
        raise ValueError(f"direction count d={d} outside [1, {MAX_DIRECTIONS}]")


def read_shaped(obj: object, what: str, key: str) -> tuple[object, object, object]:
    """n, d and obj[key] from a JSON object that describes `what` ("a type
    set", "an arrangement", ...) by its shape and one list of items."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is an object with n, d, {key}")
    try:
        return obj["n"], obj["d"], obj[key]
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None


def _coord_str(mask: int, d: int) -> str:
    if mask == 0:
        return "-"
    if d <= 9:
        return "".join(str(j) for j in elements_of(mask))
    return "{" + ",".join(str(j) for j in elements_of(mask)) + "}"


# ---------------------------------------------------------------------------
# types and semitypes


_S = TypeVar("_S", bound="SemiType")


@dataclass(frozen=True)
class SemiType:
    """Like a Type, but coordinates may be empty."""

    n: int
    d: int
    coords: tuple[int, ...]

    # the one difference from Type, read by validation and by from_obj
    _allow_empty = True

    def __post_init__(self) -> None:
        _validate_dims(self.n, self.d)
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(self.coords)}")
        for i, mask in enumerate(self.coords, start=1):
            _validate_mask(mask, self.d, i, allow_empty=self._allow_empty)

    @classmethod
    def from_sets(cls: type[_S], n: int, d: int, sets: Iterable[Iterable[int]]) -> _S:
        coords = tuple(mask_from_elements(s, d, i) for i, s in enumerate(sets, start=1))
        return cls(n, d, coords)

    @classmethod
    def from_obj(cls: type[_S], obj: object, d: int) -> _S:
        if not isinstance(obj, list) or not obj:
            raise ValueError(
                f"a {cls.__name__.lower()} is a nonempty array of coordinate arrays"
            )
        for i, coord in enumerate(obj, start=1):
            if not isinstance(coord, list):
                raise ValueError(f"coordinate {i} is not an array")
            if not coord and not cls._allow_empty:
                raise EmptyCoordinateError(i)
        return cls.from_sets(len(obj), d, obj)

    def to_obj(self) -> list[list[int]]:
        return [list(elements_of(m)) for m in self.coords]

    def coord_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(m) for m in self.coords)

    def is_total(self) -> bool:
        """True when no coordinate is empty, i.e. this is an honest type."""
        return all(self.coords)

    def to_type(self) -> "Type":
        for i, mask in enumerate(self.coords, start=1):
            if mask == 0:
                raise EmptyCoordinateError(i)
        return Type(self.n, self.d, self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(_coord_str(m, self.d) for m in self.coords) + ")"

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self}"


class Type(SemiType):
    """An (n, d)-type: n nonempty subsets of {1, ..., d} as bitmasks.

    A Type equals only Types: a SemiType with the same coordinates is a
    different value, and it is not an instance of Type.
    """

    _allow_empty = False

    def to_semitype(self) -> SemiType:
        return SemiType(self.n, self.d, self.coords)


def make_type(n: int, d: int, coords: Iterable[Iterable[int]]) -> Type:
    """Build a validated (n, d)-type from 1-based coordinate sets."""
    return Type.from_sets(n, d, coords)


def constant_type(n: int, d: int, j: int) -> Type:
    """The type whose every coordinate is the singleton {j}."""
    if not 1 <= j <= d:
        raise OutOfRangeError(0, j)
    return Type(n, d, (1 << (j - 1),) * n)


# ---------------------------------------------------------------------------
# ordered partitions


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered partition of {1, ..., d} into nonempty parts (bitmasks)."""

    d: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or not 1 <= self.d <= MAX_DIRECTIONS:
            raise ValueError(f"direction count d={self.d} outside [1, {MAX_DIRECTIONS}]")
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("an ordered partition needs at least one part")
        seen = 0
        for r, part in enumerate(self.parts, start=1):
            _validate_mask(part, self.d, r, allow_empty=False)
            if part & seen:
                raise ValueError(f"part {r} overlaps an earlier part")
            seen |= part
        if seen != (1 << self.d) - 1:
            missing = elements_of(((1 << self.d) - 1) & ~seen)
            raise ValueError(f"partition misses directions {list(missing)}")

    @classmethod
    def from_sets(cls, d: int, sets: Iterable[Iterable[int]]) -> "OrderedPartition":
        parts = tuple(mask_from_elements(s, d, r) for r, s in enumerate(sets, start=1))
        return cls(d, parts)

    def to_obj(self) -> list[list[int]]:
        return [list(elements_of(p)) for p in self.parts]

    def __str__(self) -> str:
        return "(" + "|".join(_coord_str(p, self.d) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"OrderedPartition{self}"


# ---------------------------------------------------------------------------
# semidigraphs (mixed graphs used by the comparability axiom)


@dataclass(frozen=True)
class Semidigraph:
    """A mixed graph on {1, ..., d}: undirected edges plus one-way arcs."""

    d: int
    undirected: frozenset[tuple[int, int]]
    directed: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not isinstance(self.undirected, frozenset):
            object.__setattr__(self, "undirected", frozenset(self.undirected))
        if not isinstance(self.directed, frozenset):
            object.__setattr__(self, "directed", frozenset(self.directed))
        for j, k in self.undirected:
            if not (1 <= j <= self.d and 1 <= k <= self.d):
                raise OutOfRangeError(0, j if not 1 <= j <= self.d else k)
            if j >= k:
                raise ValueError(f"undirected edge ({j},{k}) not normalized j<k")
        for j, k in self.directed:
            if not (1 <= j <= self.d and 1 <= k <= self.d):
                raise OutOfRangeError(0, j if not 1 <= j <= self.d else k)
            if j == k:
                raise ValueError(f"loop arc at {j}")

    def arcs(self) -> dict[int, set[int]]:
        """Out-neighbour map with undirected edges doubled into both arcs."""
        out: dict[int, set[int]] = {v: set() for v in range(1, self.d + 1)}
        for j, k in self.undirected:
            out[j].add(k)
            out[k].add(j)
        for j, k in self.directed:
            out[j].add(k)
        return out


# ---------------------------------------------------------------------------
# type sets


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a (..., n) array of masks: the row's big-endian
    bytes as one void scalar, so that keys compare as the rows do in
    canonical (lexicographic) order, whatever n is."""
    rows = np.ascontiguousarray(rows, dtype=">u8")
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1])))[..., 0]


def _key_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The (len(keys), n) uint64 rows that _row_keys turned into keys."""
    return keys.view(">u8").reshape(-1, n).astype(np.uint64)


@dataclass(frozen=True)
class TomTypeSet:
    """A finite set of (n, d)-types in canonical order.  Value semantics.

    ``rows`` holds their masks, a read-only (K, n) uint64 array in the same
    order; membership is a search on the rows' sorted keys."""

    n: int
    d: int
    types: tuple[Type, ...]
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate_dims(self.n, self.d)
        pool = tuple(self.types)
        for t in pool:
            if not isinstance(t, Type):
                raise TypeError(f"not a Type: {t!r}")
            if (t.n, t.d) != (self.n, self.d):
                raise ValueError(
                    f"type {t} has shape ({t.n},{t.d}), expected ({self.n},{self.d})"
                )
        rows = np.array([t.coords for t in pool], dtype=np.uint64).reshape(-1, self.n)
        keys, first = np.unique(_row_keys(rows), return_index=True)
        rows = rows[first]
        rows.flags.writeable = False
        object.__setattr__(self, "types", tuple(pool[i] for i in first.tolist()))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_keys", keys)

    @classmethod
    def from_types(cls, types: Iterable[Type]) -> "TomTypeSet":
        pool = tuple(types)
        if not pool:
            raise ValueError("cannot infer the shape of an empty type set")
        return cls(pool[0].n, pool[0].d, pool)

    @classmethod
    def from_obj(cls, obj: object) -> "TomTypeSet":
        n, d, raw = read_shaped(obj, "a type set", "types")
        _validate_dims(n, d)
        if not isinstance(raw, list):
            raise ValueError("types must be an array")
        types = []
        for entry in raw:
            t = Type.from_obj(entry, d)
            if t.n != n:
                raise ValueError(f"type {t} has {t.n} coordinates, expected {n}")
            types.append(t)
        return cls(n, d, tuple(types))

    def to_obj(self) -> dict:
        return {"n": self.n, "d": self.d, "types": [t.to_obj() for t in self.types]}

    def __contains__(self, t: object) -> bool:
        return (
            isinstance(t, Type)
            and t.n == self.n
            and t.d == self.d
            and self.has_coords(t.coords)
        )

    def has_coords(self, coords: tuple[int, ...]) -> bool:
        if len(coords) != self.n or not all(
            isinstance(c, int) and 0 <= c < 1 << 64 for c in coords
        ):
            return False
        return bool(self.has_rows(np.array(coords, dtype=np.uint64)))

    def has_rows(self, rows: np.ndarray) -> np.ndarray:
        """One bool per row of a (..., n) uint64 array: is it a member."""
        keys = _row_keys(rows)
        pos = np.searchsorted(self._keys, keys)
        inside = pos < len(self._keys)
        found = np.zeros(keys.shape, dtype=bool)
        found[inside] = self._keys[pos[inside]] == keys[inside]
        return found

    def __iter__(self) -> Iterator[Type]:
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)

    def __str__(self) -> str:
        body = ", ".join(str(t) for t in self.types)
        return f"TomTypeSet(n={self.n}, d={self.d}, {{{body}}})"


# ---------------------------------------------------------------------------
# duality: completion, transpose, reduction


def transpose(s: SemiType) -> SemiType:
    """Flip incidences: direction j holds position i iff i's coordinate held j."""
    if isinstance(s, Type):
        s = s.to_semitype()
    cols = [0] * s.d
    for i, mask in enumerate(s.coords):
        bit = 1 << i
        for j in elements_of(mask):
            cols[j - 1] |= bit
    return SemiType(s.d, s.n, tuple(cols))


def completion(m: TomTypeSet) -> frozenset[SemiType]:
    """All semitypes obtained from members of m by emptying some coordinates."""
    if len(m) << m.n > _COMPLETION_CAP:
        raise SearchSpaceTooLargeError(
            f"completion lists {len(m) << m.n} semitypes, over the cap {_COMPLETION_CAP}"
        )
    out: set[SemiType] = set()
    for t in m:
        for keep in itertools.product((False, True), repeat=t.n):
            coords = tuple(c if k else 0 for c, k in zip(t.coords, keep))
            out.add(SemiType(t.n, t.d, coords))
    return frozenset(out)


def reduction(
    semitypes: Iterable[SemiType], n: int | None = None, d: int | None = None
) -> TomTypeSet:
    """Keep the semitypes with no empty coordinate, as honest types."""
    pool = list(semitypes)
    if n is None or d is None:
        if not pool:
            raise ValueError("cannot infer the shape of an empty reduction")
        n, d = pool[0].n, pool[0].d
    types = [s.to_type() for s in pool if s.is_total()]
    return TomTypeSet(n, d, tuple(types))


def dual(m: TomTypeSet) -> TomTypeSet:
    """The dual (d, n) type set: reduce the transposes of the completion."""
    return reduction((transpose(s) for s in completion(m)), n=m.d, d=m.n)
