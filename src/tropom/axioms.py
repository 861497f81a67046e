"""The four axioms for sets of (n, d)-types, with witnesses.

A type set is a tropical oriented matroid when it satisfies:

* boundary      — every constant type (j, ..., j) is present;
* elimination   — for all A, B in the set and every position j there is a C
                  in the set with C_j = A_j ∪ B_j and every C_k one of
                  A_k, B_k, A_k ∪ B_k;
* comparability — the comparability graph of every pair is free of directed
                  cycles (closed walks using at least one one-way arc);
* surrounding   — every refinement of a member is a member.

``check_axioms`` sweeps all four and returns a report carrying witnesses for
whatever failed.  All sweeps work on ``len(m)`` and the set's mask rows
``m.rows``; ``m.types``, whose Type objects a set builds on first access,
is read only to name the witnesses of a failure.

Elimination and comparability are symmetric in A and B, so both report
only the pairs a < b, walking the rows in blocks of at most
``_PAIR_BUDGET`` cells (``_row_blocks``).

Elimination indexes the set by (position i, mask value) as packed uint64
bitsets over the types, bits_i.  The candidates C for a pair, every C_i
one of A_i, B_i, A_i ∪ B_i, are the AND over positions of T_i[A_i, B_i] =
bits_i[A_i] | bits_i[B_i] | bits_i[A_i ∪ B_i], a term fixed by the value
pair alone.  Position i takes at most 2^d - 1 values, so each row block
builds T_i (``_value_pair_table``) for the distinct A_i of its rows
against every value, a table no larger than the block's candidates, and a
pair costs one row gather a position; the rank of A_i ∪ B_i and whether
A_i and B_i are comparable come from tables of the same shape.  A witness
at position j exists exactly when the candidates meet the bitset of
A_j ∪ B_j.  Positions where A_j and B_j are comparable need no check,
because A or B is a witness there.

Comparability has one verdict and one witness.  The verdict is the kernel
``_cycle_block``: a block of rows against a set sliced once into bit
planes (``_planes``), 64 members a word.  Per ordered pair of directions
it ORs the members with an arc and with a one-way arc, closes the arcs by
Warshall, and flags the members where a one-way arc is closed by a path
back.  The census and tope reconstruction run it over all the planes in
row blocks (``_bad_cycles``); comparability and the subdivision check keep
the pairs a < b (``_cycle_failures``), so each block runs only against the
members from the word of its first row on.  One search names the cycle of
each pair reported, ``_closing_walk``: the first one-way arc closed by a
path back, with the shortest path.  Comparability runs it on the explicit
``comparability_graph`` (``find_directed_cycle``), the subdivision check on
a graph built from two cells' rows.

Refining along (P1|…|Pk) is refining in turn along the two-block partitions
whose later block is Pk, then P(k-1), down to P2; ``_refine_rows`` does just
that, on whole arrays of rows at once.  So a set is closed under refinement,
and satisfies surrounding, exactly when it is closed under the 2^d - 2
two-block refinements (``_two_block_parts``).  The surrounding verdict and
``structure.refinement_closure`` use those alone; the witnesses of a failing
set are still listed over every ordered partition (``_partition_rows``).
``_refined_blocks`` feeds all three, at most ``_PAIR_BUDGET`` (row,
partition) pairs at a time.

Each failure list keeps its first ``_MAX_REPORTED_FAILURES`` entries and
comes with the number of all failures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import (
    OrderedPartition,
    SearchSpaceTooLargeError,
    Semidigraph,
    TomTypeSet,
    Type,
    elements_of,
)

# the two d!-sized tables, linear orders (_latest) and ordered partitions
# (_partition_rows): 40,320 and 545,835 rows at d = 8
_MAX_PERMUTATION_DIRECTIONS = 8
_MAX_TWO_BLOCK_DIRECTIONS = 16
_PAIR_BUDGET = 1 << 14
_MAX_REPORTED_FAILURES = 10**5


def _row_blocks(k: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges [start, stop) covering rows 0..k-1, each of at
    most _PAIR_BUDGET cells at width cells a row, or of one row."""
    step = max(1, _PAIR_BUDGET // max(1, width))
    for start in range(0, k, step):
        yield start, min(start + step, k)


# ---------------------------------------------------------------------------
# refinement


def _refine_rows(rows: np.ndarray, parts) -> np.ndarray:
    """uint64 mask rows refined along an ordered partition: each coordinate
    intersected with the last part it meets.  The parts broadcast against
    the rows; the first is never read, as a coordinate meeting no later part
    lies inside it."""
    for part in parts[:0:-1]:
        hit = rows & part
        rows = np.where(hit != 0, hit, rows)
    return rows


def refine(a: Type, p: OrderedPartition) -> Type:
    """Refine a type along an ordered partition.

    Coordinate i of the result is A_i intersected with the last part of p
    that A_i meets.
    """
    if p.d != a.d:
        raise ValueError(f"partition of {p.d} directions against a d={a.d} type")
    rows = _refine_rows(np.array(a.coords, dtype=np.uint64), p.parts)
    return Type(a.n, a.d, tuple(rows.tolist()))


def _two_block_parts(d: int) -> np.ndarray:
    """The 2^d - 2 two-block partitions (rest | L), one row each, L running
    over the nonempty proper subsets of the directions in increasing order.
    Every refinement along an ordered partition is a sequence of these."""
    if d > _MAX_TWO_BLOCK_DIRECTIONS:
        raise SearchSpaceTooLargeError(
            f"two-block partitions of {d} directions exceed the enumeration cap"
        )
    later = np.arange(1, (1 << d) - 1, dtype=np.uint64)
    return np.stack([later ^ np.uint64((1 << d) - 1), later], axis=1)


def _refined_blocks(
    rows: np.ndarray, parts: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every row refined along every partition, row-major, in blocks of at
    most _PAIR_BUDGET (row, partition) pairs: yields the row indices, the
    partition indices and the refined rows of each block.  parts is a (P, w)
    array, shorter partitions padded with leading zeros (empty parts)."""
    for start, stop in _row_blocks(len(rows) * len(parts), 1):
        r, p = np.divmod(np.arange(start, stop), len(parts))
        yield r, p, _refine_rows(rows[r], parts[p].T[:, :, None])


@lru_cache(maxsize=None)
def _latest(d: int) -> np.ndarray:
    """The uint8 table latest[order, mask]: the 0-based direction of mask
    that comes last in the order-th linear order on the directions, orders
    numbered lexicographically; column 0 is unused.

    Row by row this is the total refinement along that order, so
    total_refinements and structure.reconstruct_from_topes both read it.
    """
    if d > _MAX_PERMUTATION_DIRECTIONS:
        raise SearchSpaceTooLargeError(
            f"{d}! singleton orders exceed the enumeration cap"
        )
    orders = np.array(list(itertools.permutations(range(d))), dtype=np.uint8)
    masks = np.arange(1 << d, dtype=np.uint8)
    latest = np.zeros((len(orders), 1 << d), dtype=np.uint8)
    for j in orders.T[:, :, None]:  # the directions at one place of each order
        latest = np.where(masks >> j & 1 == 1, j, latest)
    latest.flags.writeable = False  # one cached table serves every caller
    return latest


def total_refinements(a: Type) -> frozenset[Type]:
    """All refinements of a with every coordinate a singleton.

    One refinement per linear order on the directions (the partition into
    singletons in that order), deduplicated.
    """
    rows = np.uint64(1) << _latest(a.d)[:, list(a.coords)].astype(np.uint64)
    return frozenset(TomTypeSet._from_rows(a.n, a.d, rows).types)


@lru_cache(maxsize=None)
def _partition_rows(d: int) -> np.ndarray:
    """Every ordered partition of {1, ..., d} as a row of d masks, parts after
    leading zeros (the padding _refine_rows ignores), in canonical order: by
    first part, then the rest alike, spread from the rows of fewer directions."""
    if d > _MAX_PERMUTATION_DIRECTIONS:
        raise SearchSpaceTooLargeError(
            f"ordered partitions of {d} directions exceed the enumeration cap"
        )
    if d == 0:
        return np.zeros((1, 0), dtype=np.uint64)
    blocks = []
    for first in range(1, 1 << d):
        rest = elements_of(((1 << d) - 1) ^ first)
        spread = np.zeros(1 << len(rest), dtype=np.uint64)
        for b, j in enumerate(rest):
            spread[1 << b : 2 << b] = spread[: 1 << b] | np.uint64(1 << (j - 1))
        tail = spread[_partition_rows(len(rest))]
        block = np.zeros((len(tail), d), dtype=np.uint64)
        block[:, d - len(rest) :] = tail
        block[np.arange(len(tail)), d - 1 - np.count_nonzero(tail, axis=1)] = first
        blocks.append(block)
    rows = np.concatenate(blocks)
    rows.flags.writeable = False  # one cached table serves every caller
    return rows


@lru_cache(maxsize=None)
def ordered_partitions(d: int) -> tuple[OrderedPartition, ...]:
    """Every ordered partition of {1, ..., d}, in a fixed canonical order."""
    return tuple(
        OrderedPartition(d, tuple(p for p in row if p))
        for row in _partition_rows(d).tolist()
    )


# ---------------------------------------------------------------------------
# comparability graphs


def comparability_graph(a: Type, b: Type) -> Semidigraph:
    """The mixed graph recording how a and b order the directions.

    For each position i and each pair j in A_i, k in B_i with j != k: an
    undirected edge {j, k} when both lie in A_i ∩ B_i, otherwise the one-way
    arc j -> k.
    """
    if (a.n, a.d) != (b.n, b.d):
        raise ValueError("comparability needs two types of the same shape")
    und: set[tuple[int, int]] = set()
    drc: set[tuple[int, int]] = set()
    for am, bm in zip(a.coords, b.coords):
        inter = am & bm
        for j in elements_of(am):
            jb = 1 << (j - 1)
            for k in elements_of(bm):
                if j == k:
                    continue
                if (inter & jb) and (inter >> (k - 1)) & 1:
                    und.add((j, k) if j < k else (k, j))
                else:
                    drc.add((j, k))
    return Semidigraph(a.d, frozenset(und), frozenset(drc))


def find_directed_cycle(g: Semidigraph) -> list[int] | None:
    """A closed walk through at least one one-way arc, as a vertex list with
    the start repeated at the end, e.g. [2, 3, 1, 2], or None: the walk of
    ``_closing_walk`` over the one-way arcs and neighbours in sorted order."""
    return _closing_walk({v: sorted(ws) for v, ws in g.arcs().items()}, sorted(g.directed))


def _closing_walk(
    adj: dict[int, list[int]], one_way: list[tuple[int, int]]
) -> list[int] | None:
    """The first arc j -> k of one_way that a path from k back to j closes,
    with the shortest such path (breadth first, neighbours in adj's order),
    as a vertex list [j, k, ..., j]; None when no arc closes.  A shortest
    path repeats no vertex, so the walk repeats only its start."""
    for j, k in one_way:
        prev = {k: k}
        queue = [k]
        head = 0
        while head < len(queue) and j not in prev:
            v = queue[head]
            head += 1
            for w in adj[v]:
                if w not in prev:
                    prev[w] = v
                    queue.append(w)
        if j not in prev:
            continue
        path = [j]
        while path[-1] != k:
            path.append(prev[path[-1]])
        return [j] + path[::-1]  # j, k, ..., j
    return None


def has_directed_cycle(g: Semidigraph) -> bool:
    """True when the mixed graph has a closed walk using a one-way arc."""
    return find_directed_cycle(g) is not None


def _planes(rows: np.ndarray, d: int) -> np.ndarray:
    """The bit planes of a set of K mask rows, shape (n, d, ceil(K/64)): bit
    t of planes[i, k] says direction k+1 is in coordinate i of row t."""
    k, n = rows.shape
    bits = np.zeros((n, d, -(-k // 64) * 64), dtype=bool)
    bits[..., :k] = rows.T[:, None] >> np.arange(d, dtype=np.uint64)[:, None] & np.uint64(1)
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def _bad_cycles(rows: np.ndarray, planes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """has_directed_cycle(comparability_graph(row, member)) for every row
    against every member of a set sliced by ``_planes``, in blocks of rows
    x d^2 x words within _PAIR_BUDGET: yields each block's first row and
    its verdicts from ``_cycle_block``."""
    _, d, words = planes.shape
    for start, stop in _row_blocks(len(rows), d * d * words):
        yield start, _cycle_block(rows[start:stop], planes)


def _cycle_block(rows: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The verdicts of one block of rows against the members of the planes,
    packed like the planes.  Only AND, OR and NOT touch the words, so they
    keep the planes' byte order."""
    n, d, words = planes.shape
    bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
    # tests[r, i, j]: all ones when direction j+1 is in coordinate i of row r
    tests = np.where(rows[:, :, None] & bits != 0, ~np.uint64(0), np.uint64(0))
    # reach[r, j, k]: the members with an arc j+1 -> k+1; one[r, j, k]:
    # those where it is one-way, not an edge of both at the same position
    reach = np.zeros((len(rows), d, d, words), dtype=np.uint64)
    one = np.zeros_like(reach)
    for i in range(n):
        arcs = tests[:, i, :, None, None] & planes[i]
        reach |= arcs
        one |= arcs & ~arcs.swapaxes(1, 2)
    # Warshall: reach[r, j, k] ends as the members with a path j+1 -> k+1
    reach[:, range(d), range(d)] = 0
    for v in range(d):
        reach |= reach[:, :, v : v + 1] & reach[:, v : v + 1]
    # bad when some one-way arc j -> k is closed by a path from k back to j
    return np.bitwise_or.reduce(one & reach.swapaxes(1, 2), axis=(1, 2))


def _cycle_failures(rows: np.ndarray, d: int, cap: int) -> tuple[list[tuple[int, int]], int]:
    """The pairs a < b of rows that ``_cycle_block`` flags: the first cap in
    row-major order, and the number of all.  The graph of (b, a) is the
    graph of (a, b) reversed, and the graph of (a, a) has no one-way arc,
    so each row block runs only against the members from the word of its
    first row on."""
    kept: list[tuple[int, int]] = []
    total = 0
    planes = _planes(rows, d)
    for start, stop in _row_blocks(len(rows), d * d * planes.shape[-1]):
        skip = start // 64 * 64
        bad = _cycle_block(rows[start:stop], planes[..., skip // 64 :])
        flagged = np.unpackbits(
            bad.view(np.uint8), axis=1, count=len(rows) - skip, bitorder="little"
        )
        a, b = np.nonzero(np.triu(flagged, start + 1 - skip))
        total += len(a)
        room = cap - len(kept)
        kept += zip((a[:room] + start).tolist(), (b[:room] + skip).tolist())
    return kept, total


# ---------------------------------------------------------------------------
# axiom sweeps


def _section(ok: bool, total: int, violations: list) -> dict:
    """One part of a report: its verdict and the violations it lists, with
    their total and truncated: true when it lists fewer than total."""
    obj = {"ok": ok, "violations": violations}
    if total > len(violations):
        obj.update(total=total, truncated=True)
    return obj


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of check_axioms, with witnesses for every failure."""

    n: int
    d: int
    size: int
    boundary_ok: bool
    boundary_missing: tuple[int, ...]
    elimination_ok: bool
    elimination_failures: tuple[tuple[Type, Type, int], ...]
    elimination_total: int
    comparability_ok: bool
    comparability_failures: tuple[tuple[Type, Type, tuple[int, ...]], ...]
    comparability_total: int
    surrounding_ok: bool
    surrounding_failures: tuple[tuple[Type, OrderedPartition], ...]
    surrounding_total: int

    @property
    def ok(self) -> bool:
        return (
            self.boundary_ok
            and self.elimination_ok
            and self.comparability_ok
            and self.surrounding_ok
        )

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "d": self.d,
            "size": self.size,
            "boundary": {
                "ok": self.boundary_ok,
                "missing_directions": list(self.boundary_missing),
            },
            "elimination": _section(self.elimination_ok, self.elimination_total, [
                {"a": a.to_obj(), "b": b.to_obj(), "position": j}
                for a, b, j in self.elimination_failures
            ]),
            "comparability": _section(self.comparability_ok, self.comparability_total, [
                {"a": a.to_obj(), "b": b.to_obj(), "cycle": list(cyc)}
                for a, b, cyc in self.comparability_failures
            ]),
            "surrounding": _section(self.surrounding_ok, self.surrounding_total, [
                {"type": t.to_obj(), "partition": p.to_obj()}
                for t, p in self.surrounding_failures
            ]),
        }


def elimination_witnesses(
    m: TomTypeSet, a: Type, b: Type, j: int
) -> tuple[Type, ...]:
    """All C in m with C_j = A_j | B_j and every C_k in {A_k, B_k, A_k | B_k},
    in canonical order."""
    if (a.n, a.d) != (m.n, m.d) or (b.n, b.d) != (m.n, m.d):
        raise ValueError("types do not match the set's shape")
    if not 1 <= j <= m.n:
        raise ValueError(f"position {j} out of range 1..{m.n}")
    A = np.array(a.coords, dtype=np.uint64)
    B = np.array(b.coords, dtype=np.uint64)
    M = m.rows
    keep = ((M == A) | (M == B) | (M == A | B)).all(axis=1)
    keep &= M[:, j - 1] == A[j - 1] | B[j - 1]
    return tuple(Type(m.n, m.d, tuple(row)) for row in M[keep].tolist())


def check_boundary(m: TomTypeSet) -> tuple[bool, tuple[int, ...]]:
    constant = np.left_shift(np.uint64(1), np.arange(m.d, dtype=np.uint64))
    found = m.has_rows(np.repeat(constant[:, None], m.n, axis=1))
    missing = tuple((np.flatnonzero(~found) + 1).tolist())
    return not missing, missing


def _value_pair_table(bits: np.ndarray, first: np.ndarray, unions: np.ndarray) -> np.ndarray:
    """The (len(first) x V, words) table whose row u x V + v is bits[first[u]]
    | bits[v] | bits[unions[u x V + v]], for the V values of one position
    and the bitsets ``bits`` of check_elimination (V + 1 rows, the last
    empty for a union outside the set)."""
    table = np.take(bits, unions, axis=0).reshape(len(first), -1, bits.shape[1])
    table |= bits[:-1]
    table |= np.take(bits, first, axis=0)[:, None]
    return table.reshape(-1, bits.shape[1])


def check_elimination(
    m: TomTypeSet,
) -> tuple[bool, tuple[tuple[Type, Type, int], ...], int]:
    """The elimination verdict, its failures and their number.

    A failure (A, B, j) is listed in both orders, sorted by the indices of
    A and B in the set and by j; only the first _MAX_REPORTED_FAILURES
    are kept, and the number returned counts all of them.
    """
    k, n = len(m), m.n
    words = -(-k // 64)
    t = np.arange(k)
    one = np.left_shift(np.uint64(1), (t & 63).astype(np.uint64))
    # per position: its sorted values, each type's value index, and one
    # bitset per value over the types, plus an empty last row
    values = []
    for column in m.rows.T:
        vals, inv = np.unique(column, return_inverse=True)
        bits = np.zeros((len(vals) + 1, words), dtype=np.uint64)
        np.bitwise_or.at(bits, (inv, t >> 6), one)
        values.append((vals, inv, bits))

    total = 0
    kept = np.empty(0, dtype=np.int64)  # keys (a * k + b) * n + position - 1
    for start, stop in _row_blocks(k, k):
        # the pairs a < b of the block, a counted from the block's first row
        a, b = np.nonzero(np.triu(np.ones((stop - start, k), dtype=bool), start + 1))
        # cands[p]: the C with every C_i in {A_i, B_i, A_i | B_i}, the AND
        # over positions i of T_i[A_i, B_i]; tests[i]: the pairs where A_i
        # and B_i are incomparable, and the bitset row of their A_i | B_i
        cands = None
        tests = []
        for vals, inv, bits in values:
            first, local = np.unique(inv[start:stop], return_inverse=True)
            joined = vals[first, None] | vals
            rank = np.minimum(np.searchsorted(vals, joined), len(vals) - 1)
            unions = np.where(vals[rank] == joined, rank, len(vals)).reshape(-1)
            # a pair's row in tables of the block's A values against all values
            code = local[a] * len(vals) + np.take(inv, b)
            table = _value_pair_table(bits, first, unions)
            if cands is None:
                cands = np.take(table, code, axis=0)
            else:
                cands &= np.take(table, code, axis=0)
            # where A_i | B_i is A_i or B_i, A or B is a witness at i
            apart = (joined != vals[first, None]) & (joined != vals)
            p = np.flatnonzero(np.take(apart.reshape(-1), code))
            tests.append((bits, p, np.take(unions, np.take(code, p))))
        fail = np.zeros((len(a), n), dtype=bool)
        for j, (bits, p, union) in enumerate(tests):
            hit = np.take(cands, p, axis=0)
            hit &= np.take(bits, union, axis=0)
            fail[p, j] = np.bitwise_or.reduce(hit, axis=1) == 0
        p, j = np.nonzero(fail)
        total += 2 * len(p)
        a = a[p].astype(np.int64) + start
        b = b[p].astype(np.int64)
        kept = np.concatenate([kept, (a * k + b) * n + j, (b * k + a) * n + j])
        if len(kept) > 2 * _MAX_REPORTED_FAILURES:
            # the failures beyond the cap-th smallest can never be reported
            kept = np.partition(kept, _MAX_REPORTED_FAILURES - 1)
            kept = kept[:_MAX_REPORTED_FAILURES]
    kept = np.sort(kept)[:_MAX_REPORTED_FAILURES]
    ab, j = np.divmod(kept, n)
    a, b = np.divmod(ab, k)
    failures = tuple(
        (m.types[x], m.types[y], z + 1)
        for x, y, z in zip(a.tolist(), b.tolist(), j.tolist())
    )
    return total == 0, failures, total


def check_comparability(
    m: TomTypeSet,
) -> tuple[bool, tuple[tuple[Type, Type, tuple[int, ...]], ...], int]:
    """The comparability verdict, its failures (A, B, walk) for the pairs
    a < b in set order, the first _MAX_REPORTED_FAILURES only, and their
    number."""
    pairs, total = _cycle_failures(m.rows, m.d, _MAX_REPORTED_FAILURES)
    failures = tuple(
        (a, b, tuple(find_directed_cycle(comparability_graph(a, b)) or ()))
        for a, b in ((m.types[x], m.types[y]) for x, y in pairs)
    )
    return total == 0, failures, total


def check_surrounding(
    m: TomTypeSet,
) -> tuple[bool, tuple[tuple[Type, OrderedPartition], ...], int]:
    """The surrounding verdict, its failures and their number.

    The verdict needs the two-block refinements only; the failing (type,
    ordered partition) pairs of a failing set are counted type by type and
    the first _MAX_REPORTED_FAILURES kept.
    """
    if not len(m) or all(
        m.has_rows(refined).all()
        for *_, refined in _refined_blocks(m.rows, _two_block_parts(m.d))
    ):
        return True, (), 0
    parts = _partition_rows(m.d)
    failures = []
    total = 0
    for r, p, refined in _refined_blocks(m.rows, parts):
        miss = np.flatnonzero(~m.has_rows(refined))
        total += len(miss)
        keep = miss[: _MAX_REPORTED_FAILURES - len(failures)]
        failures += [
            (m.types[x], OrderedPartition(m.d, tuple(q for q in parts[y].tolist() if q)))
            for x, y in zip(r[keep].tolist(), p[keep].tolist())
        ]
    return False, tuple(failures), total


def check_axioms(m: TomTypeSet) -> AxiomReport:
    """Run all four axioms over a type set and report witnesses."""
    b_ok, b_missing = check_boundary(m)
    e_ok, e_fail, e_total = check_elimination(m)
    c_ok, c_fail, c_total = check_comparability(m)
    s_ok, s_fail, s_total = check_surrounding(m)
    return AxiomReport(
        n=m.n,
        d=m.d,
        size=len(m),
        boundary_ok=b_ok,
        boundary_missing=b_missing,
        elimination_ok=e_ok,
        elimination_failures=e_fail,
        elimination_total=e_total,
        comparability_ok=c_ok,
        comparability_failures=c_fail,
        comparability_total=c_total,
        surrounding_ok=s_ok,
        surrounding_failures=s_fail,
        surrounding_total=s_total,
    )
