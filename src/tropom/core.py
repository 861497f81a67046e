"""Core objects for tropical oriented matroids.

The basic datum throughout this package is an (n, d)-type: an n-tuple of
nonempty subsets of the direction set {1, ..., d}.  Coordinate subsets are
stored as bitmasks, bit j-1 standing for direction j; every index that
crosses the public boundary (JSON, reprs, error payloads, witnesses) is
1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_DIRECTIONS = 64
# dual builds K·(2^n - 1) rows of d cells, a block of position sets at a
# time, so its memory follows the dual's size, not the cells.  For seed-7
# arrangements, (7,6) builds 1.4·10^7 cells in 0.19 s at a 47 MiB peak RSS,
# and (8,6) 4.9·10^7 cells in 0.7 s at 77 MiB; 2^26 cells admits both and
# refuses at once what would run for hours (two types of n = 64 coordinates)
_DUAL_CAP = 1 << 26


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


def _validate_mask(mask: int, d: int, position: int) -> None:
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise TypeError(f"coordinate {position} is not a bitmask")
    if mask == 0:
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
    if d <= 9:
        return "".join(str(j) for j in elements_of(mask))
    return "{" + ",".join(str(j) for j in elements_of(mask)) + "}"


def _coords_str(coords: Iterable[int], d: int) -> str:
    return "(" + ",".join(_coord_str(m, d) for m in coords) + ")"


def _count_text(count: int) -> str:
    """A count for a refusal: exact up to 20 digits, else about 10^k, k from
    the bit length, as str() of a huge int is slow and refused past 4300 digits."""
    if count < 10**20:
        return str(count)
    shift = count.bit_length() - 64
    return f"about 10^{math.floor(math.log10(count >> shift) + shift * math.log10(2))}"


def _read_coords(obj: object, d: int) -> list[int]:
    """The masks of a JSON type, a nonempty list of nonempty coordinate
    lists of 1-based directions: its shape is checked before any element."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("a type is a nonempty array of coordinate arrays")
    for i, coord in enumerate(obj, start=1):
        if not isinstance(coord, list):
            raise ValueError(f"coordinate {i} is not an array")
        if not coord:
            raise EmptyCoordinateError(i)
    return [mask_from_elements(c, d, i) for i, c in enumerate(obj, start=1)]


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Type:
    """An (n, d)-type: n nonempty subsets of {1, ..., d} as bitmasks."""

    n: int
    d: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_dims(self.n, self.d)
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(self.coords)}")
        for i, mask in enumerate(self.coords, start=1):
            _validate_mask(mask, self.d, i)

    @classmethod
    def from_sets(cls, n: int, d: int, sets: Iterable[Iterable[int]]) -> "Type":
        coords = tuple(mask_from_elements(s, d, i) for i, s in enumerate(sets, start=1))
        return cls(n, d, coords)

    @classmethod
    def from_obj(cls, obj: object, d: int) -> "Type":
        coords = _read_coords(obj, d)
        return cls(len(coords), d, tuple(coords))

    def to_obj(self) -> list[list[int]]:
        return [list(elements_of(m)) for m in self.coords]

    def coord_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(m) for m in self.coords)

    def __str__(self) -> str:
        return _coords_str(self.coords, self.d)

    def __repr__(self) -> str:
        return f"Type{self}"


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
            _validate_mask(part, self.d, r)
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


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys of a 1-D array, sorted: np.unique without its index,
    inverse or count outputs, which numpy serves through numpy.ma, imported
    on first use at 15-20 ms a process."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _key_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The (len(keys), n) uint64 rows that _row_keys turned into keys."""
    return keys.view(">u8").reshape(-1, n).astype(np.uint64)


class TomTypeSet:
    """A finite set of (n, d)-types in canonical order.  Value semantics.

    The set is its mask rows: ``rows``, a read-only (K, n) uint64 array in
    canonical (lexicographic) order, with one sorted key per row.
    Membership is a search on the keys, and ``==`` and ``hash`` read n, d
    and the keys.  ``types``, the members as Type objects in the same
    order, is built from the rows on first access only: parsing
    (``from_obj``), every axiom on a valid set, the closure, tope
    reconstruction, duality and the minors read and write rows alone.
    ``TomTypeSet(n, d, types)`` builds a set from Type objects."""

    __slots__ = ("n", "d", "rows", "_keys", "_types")

    def __init__(self, n: int, d: int, types: Iterable[Type]) -> None:
        _validate_dims(n, d)
        pool = tuple(types)
        for t in pool:
            if not isinstance(t, Type):
                raise TypeError(f"not a Type: {t!r}")
            if (t.n, t.d) != (n, d):
                raise ValueError(f"type {t} has shape ({t.n},{t.d}), expected ({n},{d})")
        self._hold(n, d, np.array([t.coords for t in pool], dtype=np.uint64))

    def _hold(self, n: int, d: int, rows: np.ndarray) -> None:
        """Hold the rows of a (K, n) uint64 array, sorted and deduplicated."""
        keys = _sorted_distinct(_row_keys(rows.reshape(-1, n)))
        rows = _key_rows(keys, n)
        rows.flags.writeable = False
        for name, value in zip(self.__slots__, (n, d, rows, keys, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a TomTypeSet")

    def __reduce__(self) -> tuple:
        return TomTypeSet._from_rows, (self.n, self.d, self.rows)

    @classmethod
    def _from_rows(cls, n: int, d: int, rows: np.ndarray) -> "TomTypeSet":
        """The set of the types whose masks are the rows of a (K, n) uint64
        array, sorted and deduplicated; no Type is built."""
        _validate_dims(n, d)
        out = cls.__new__(cls)
        out._hold(n, d, rows)
        return out

    @classmethod
    def from_types(cls, types: Iterable[Type]) -> "TomTypeSet":
        pool = tuple(types)
        if not pool:
            raise ValueError("cannot infer the shape of an empty type set")
        return cls(pool[0].n, pool[0].d, pool)

    @classmethod
    def from_obj(cls, obj: object) -> "TomTypeSet":
        """Read {"n", "d", "types"} straight into mask rows, checking each
        type as ``Type.from_obj`` does, in order, so the first bad type
        raises the same error."""
        n, d, raw = read_shaped(obj, "a type set", "types")
        _validate_dims(n, d)
        if not isinstance(raw, list):
            raise ValueError("types must be an array")
        rows = []
        for entry in raw:
            row = _read_coords(entry, d)
            if len(row) != n:
                raise ValueError(
                    f"type {_coords_str(row, d)} has {len(row)} coordinates, expected {n}"
                )
            rows.append(row)
        return cls._from_rows(n, d, np.array(rows, dtype=np.uint64).reshape(-1, n))

    @property
    def types(self) -> tuple[Type, ...]:
        """The members as Type objects, in canonical order."""
        if self._types is None:
            object.__setattr__(self, "_types", tuple(
                Type(self.n, self.d, tuple(row)) for row in self.rows.tolist()
            ))
        return self._types

    def to_obj(self) -> dict:
        return {"n": self.n, "d": self.d, "types": [t.to_obj() for t in self.types]}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.d, self._keys.tobytes()) == (
            other.n, other.d, other._keys.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.n, self.d, self._keys.tobytes()))

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
        if not len(self._keys):
            return np.zeros(rows.shape[:-1], dtype=bool)
        pos = np.searchsorted(self._keys, _row_keys(rows))
        return (self.rows[np.minimum(pos, len(self._keys) - 1)] == rows).all(axis=-1)

    def __iter__(self) -> Iterator[Type]:
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"TomTypeSet(n={self.n}, d={self.d}, types={self.types!r})"

    def __str__(self) -> str:
        body = ", ".join(str(t) for t in self.types)
        return f"TomTypeSet(n={self.n}, d={self.d}, {{{body}}})"


# ---------------------------------------------------------------------------
# duality


def _transpose_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """The (K, d) transpose of (K, n) uint64 mask rows over d directions:
    column j of a row holds the positions i whose coordinate holds j + 1."""
    at = np.left_shift(np.uint64(1), np.arange(rows.shape[1], dtype=np.uint64))
    held = rows[:, None, :] >> np.arange(d, dtype=np.uint64)[:, None] & np.uint64(1)
    return np.bitwise_or.reduce(held * at, axis=2)


def dual(m: TomTypeSet) -> TomTypeSet:
    """The dual (d, n) type set.

    The paper defines it through semitypes, whose coordinates may be empty:
    complete the set (every member with some coordinates emptied), transpose
    each semitype, and keep the transposes with no empty coordinate.
    Emptying the coordinates outside a set S of positions and then
    transposing is transposing and then keeping S in every column, so the
    dual's rows are the set's (K, d) transpose masked with each nonempty S,
    less the rows with an empty column.  The position sets go in blocks of
    at most axioms._PAIR_BUDGET cells, or of one set; each block's kept
    keys are deduplicated and merged into those found so far."""
    from .axioms import _row_blocks  # axioms imports this module

    cells = len(m) * ((1 << m.n) - 1) * m.d
    if cells > _DUAL_CAP:  # so n <= 26 unless the set is empty
        raise SearchSpaceTooLargeError(
            f"dual builds {_count_text(cells)} cells, over the cap {_DUAL_CAP}"
        )
    transposed = _transpose_rows(m.rows, m.d)
    found = [_row_keys(transposed[:0])]
    held = 0
    for start, stop in _row_blocks((1 << m.n) - 1 if len(m) else 0, len(m) * m.d):
        subsets = np.arange(start + 1, stop + 1, dtype=np.uint64)
        rows = (transposed & subsets[:, None, None]).reshape(-1, m.d)
        found.append(_sorted_distinct(_row_keys(rows[(rows != 0).all(axis=1)])))
        held += len(found[-1])
        if held > 2 * len(found[0]):
            # merged once the blocks outgrow the keys found so far
            found = [_sorted_distinct(np.concatenate(found))]
            held = len(found[0])
    return TomTypeSet._from_rows(m.d, m.n, _key_rows(np.concatenate(found), m.d))
