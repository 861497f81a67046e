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
whatever failed.  All sweeps work on the set's mask rows ``m.rows``; ``Type``
objects are only looked up for the witnesses.

Elimination and comparability are symmetric in A and B, so both visit only
the pairs a < b, in row chunks of at most ``_PAIR_BUDGET`` pairs
(``_upper_pairs``).  Elimination indexes the set by (position, mask value)
as packed uint64 bitsets over the types: the candidates C for a pair are the
AND over positions of three bitsets, and a witness at position j exists
exactly when that AND meets the bitset of A_j ∪ B_j.  Positions where A_j
and B_j are comparable need no check, because A or B is a witness there.

Comparability has one verdict and one witness.  The verdict is the private
kernel ``_cycle_pairs``: for many pairs at once it packs, per direction, the
heads of all arcs and of the one-way arcs into bitmasks, closes the arcs by
Warshall over the d bit rows, and flags a pair when some one-way arc is
closed by a path back.  ``check_comparability``,
``structure.reconstruct_from_topes`` and, on the left rows of cells, the
alternating-cycle condition of ``subdivision`` call it.  The witness is
``find_directed_cycle`` on the explicit ``comparability_graph``, run only
for the pairs the kernel flagged.

Refining along (P1|…|Pk) is refining in turn along the two-block partitions
whose later block is Pk, then P(k-1), down to P2; ``_refine_rows`` does just
that, on whole arrays of rows at once.  So a set is closed under refinement,
and satisfies surrounding, exactly when it is closed under the 2^d - 2
two-block refinements (``_two_block_parts``).  The surrounding verdict and
``structure.refinement_closure`` use those alone; the witnesses of a failing
set are still listed over every ordered partition.  ``_refined_blocks``
feeds all three, at most ``_PAIR_BUDGET`` (row, partition) pairs at a time.

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
    _nonempty_submasks,
    elements_of,
)

_MAX_PARTITION_DIRECTIONS = 6
_MAX_PERMUTATION_DIRECTIONS = 8
_MAX_TWO_BLOCK_DIRECTIONS = 16
_PAIR_BUDGET = 1 << 14
_MAX_REPORTED_FAILURES = 10**5


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
    total = len(rows) * len(parts)
    for start in range(0, total, _PAIR_BUDGET):
        r, p = np.divmod(np.arange(start, min(start + _PAIR_BUDGET, total)), len(parts))
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
    rows = np.unique(_latest(a.d)[:, list(a.coords)], axis=0).tolist()
    return frozenset(Type(a.n, a.d, tuple(1 << j for j in row)) for row in rows)


@lru_cache(maxsize=None)
def ordered_partitions(d: int) -> tuple[OrderedPartition, ...]:
    """Every ordered partition of {1, ..., d}, in a fixed canonical order."""
    if d > _MAX_PARTITION_DIRECTIONS:
        raise SearchSpaceTooLargeError(
            f"ordered partitions of {d} directions exceed the enumeration cap"
        )

    def _gen(remaining: int):
        if remaining == 0:
            yield ()
            return
        for sub in _nonempty_submasks(remaining):
            for rest in _gen(remaining & ~sub):
                yield (sub,) + rest

    return tuple(OrderedPartition(d, parts) for parts in _gen((1 << d) - 1))


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
    """A closed walk through at least one one-way arc, or None.

    The walk is returned as a vertex list with the start repeated at the
    end, e.g. [2, 3, 1, 2].  It closes the first one-way arc j -> k, in
    sorted order, with a shortest way back from k to j (breadth first,
    neighbours in ascending order).
    """
    adj = {v: sorted(ws) for v, ws in g.arcs().items()}
    for j, k in sorted(g.directed):
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
        path.reverse()  # now k ... j
        return [j] + path
    return None


def has_directed_cycle(g: Semidigraph) -> bool:
    """True when the mixed graph has a closed walk using a one-way arc."""
    return find_directed_cycle(g) is not None


def _cycle_pairs(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """The comparability verdict for many pairs at once.

    a and b hold uint64 coordinate masks, shape (..., n) with the same number
    of axes, and broadcast against each other to the pairs (A, B).  Returns one bool per pair: True
    when the comparability graph of (A, B) has a closed walk through a
    one-way arc, i.e. has_directed_cycle(comparability_graph(A, B)).

    All pairs are taken in one pass, so callers bound the pairs of a call;
    ``_upper_pairs`` is the chunker.
    """
    bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
    pairs = np.broadcast_shapes(a.shape, b.shape)[:-1]
    # out[..., j]: every head of an arc leaving direction j+1;
    # one[..., j]: the heads of the one-way arcs among them
    out = np.empty(pairs + (d,), dtype=np.uint64)
    one = np.empty_like(out)
    for j, bit in enumerate(bits):
        tail = (a & bit) != 0
        b_at_tail = b * tail
        out[..., j] = np.bitwise_or.reduce(b_at_tail, axis=-1) & ~bit
        one[..., j] = np.bitwise_or.reduce(
            b_at_tail & ~(a * ((b & bit) != 0)), axis=-1
        )
    # Warshall: reach[..., v] ends as everything reachable from v+1
    reach = out
    for k, bit in enumerate(bits):
        reach |= reach[..., k : k + 1] * ((reach & bit) != 0)
    # bad when some one-way arc j -> k is closed by a path from k back to j
    bad = np.zeros(pairs, dtype=bool)
    for k, bit in enumerate(bits):
        back = (reach[..., k : k + 1] & bits) != 0
        bad |= (((one & bit) != 0) & back).any(axis=-1)
    return bad


# ---------------------------------------------------------------------------
# axiom sweeps


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
        obj = {
            "ok": self.ok,
            "n": self.n,
            "d": self.d,
            "size": self.size,
            "boundary": {
                "ok": self.boundary_ok,
                "missing_directions": list(self.boundary_missing),
            },
            "elimination": {
                "ok": self.elimination_ok,
                "violations": [
                    {"a": a.to_obj(), "b": b.to_obj(), "position": j}
                    for a, b, j in self.elimination_failures
                ],
            },
            "comparability": {
                "ok": self.comparability_ok,
                "violations": [
                    {"a": a.to_obj(), "b": b.to_obj(), "cycle": list(cyc)}
                    for a, b, cyc in self.comparability_failures
                ],
            },
            "surrounding": {
                "ok": self.surrounding_ok,
                "violations": [
                    {"type": t.to_obj(), "partition": p.to_obj()}
                    for t, p in self.surrounding_failures
                ],
            },
        }
        for axiom in ("elimination", "comparability", "surrounding"):
            total = getattr(self, f"{axiom}_total")
            if total > len(obj[axiom]["violations"]):
                obj[axiom].update(total=total, truncated=True)
        return obj


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
    return tuple(m.types[i] for i in np.flatnonzero(keep).tolist())


def check_boundary(m: TomTypeSet) -> tuple[bool, tuple[int, ...]]:
    constant = np.left_shift(np.uint64(1), np.arange(m.d, dtype=np.uint64))
    found = m.has_rows(np.repeat(constant[:, None], m.n, axis=1))
    missing = tuple((np.flatnonzero(~found) + 1).tolist())
    return not missing, missing


def _upper_pairs(k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index arrays (a, b) of the pairs a < b < k in row-major order.

    Pairs come in chunks of whole rows, at most _PAIR_BUDGET pairs at a time
    unless one row alone holds more.
    """
    ends = np.cumsum(np.arange(k - 1, 0, -1))  # ends[r]: pairs in rows 0..r
    a0 = done = 0
    while a0 < k - 1:
        a1 = max(a0 + 1, int(np.searchsorted(ends, done + _PAIR_BUDGET, side="right")))
        rows = np.arange(a0, a1)
        lens = k - 1 - rows
        a = np.repeat(rows, lens)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(lens) - lens, lens)
        yield a, b
        a0, done = a1, int(ends[a1 - 1])


def check_elimination(
    m: TomTypeSet,
) -> tuple[bool, tuple[tuple[Type, Type, int], ...], int]:
    """The elimination verdict, its failures and their number.

    A failure (A, B, j) is listed in both orders, sorted by the indices of
    A and B in the set and by j; only the first _MAX_REPORTED_FAILURES
    are kept, and the number returned counts all of them.
    """
    k, n = len(m.types), m.n
    M = m.rows
    # one bitset row per (position i, value at i); rank[c, i] is the row of
    # type c's value, values[i] locates other values, the last row is empty
    rank = np.empty((k, n), dtype=np.intp)
    values = []
    rows = 0
    for i in range(n):
        vals, inv = np.unique(M[:, i], return_inverse=True)
        values.append((vals, rows))
        rank[:, i] = rows + inv.reshape(-1)
        rows += len(vals)
    bitsets = np.zeros((rows + 1, (k + 63) // 64), dtype=np.uint64)
    t = np.arange(k)
    np.bitwise_or.at(
        bitsets,
        (rank, (t >> 6)[:, None]),
        np.left_shift(np.uint64(1), (t & 63).astype(np.uint64))[:, None],
    )

    def rank_of(v: np.ndarray, i: int) -> np.ndarray:
        vals, start = values[i]
        pos = np.minimum(np.searchsorted(vals, v), len(vals) - 1)
        return np.where(vals[pos] == v, start + pos, rows)

    total = 0
    kept = np.empty(0, dtype=np.int64)  # keys (a * k + b) * n + position - 1
    for a, b in _upper_pairs(k):
        A, B = M[a], M[b]
        # where A_j and B_j are comparable, A or B is a witness at j
        incomparable = ((A & ~B) != 0) & ((B & ~A) != 0)
        some = incomparable.any(axis=1)
        a, b, A, B = a[some], b[some], A[some], B[some]
        incomparable = incomparable[some]
        U = A | B
        ru = np.stack([rank_of(U[:, i], i) for i in range(n)], axis=1)
        # cands[p]: the C with every C_i in {A_i, B_i, A_i | B_i}
        cands = bitsets[rank[a, 0]] | bitsets[rank[b, 0]] | bitsets[ru[:, 0]]
        for i in range(1, n):
            cands &= bitsets[rank[a, i]] | bitsets[rank[b, i]] | bitsets[ru[:, i]]
        fail = np.zeros_like(incomparable)
        for j in range(n):
            p = np.flatnonzero(incomparable[:, j])
            fail[p, j] = ~(cands[p] & bitsets[ru[p, j]]).any(axis=1)
        p, j = np.nonzero(fail)
        total += 2 * len(p)
        a, b = a[p].astype(np.int64), b[p].astype(np.int64)
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
    M = m.rows
    # the graph of (b, a) is the graph of (a, b) reversed, and the graph of
    # (a, a) has no one-way arc: check a < b only
    failures = []
    total = 0
    for a, b in _upper_pairs(len(m.types)):
        bad = _cycle_pairs(M[a], M[b], m.d)
        total += int(bad.sum())
        keep = _MAX_REPORTED_FAILURES - len(failures)
        for x, y in zip(a[bad][:keep].tolist(), b[bad][:keep].tolist()):
            ta, tb = m.types[x], m.types[y]
            cycle = find_directed_cycle(comparability_graph(ta, tb))
            failures.append((ta, tb, tuple(cycle or ())))
    return total == 0, tuple(failures), total


def check_surrounding(
    m: TomTypeSet,
) -> tuple[bool, tuple[tuple[Type, OrderedPartition], ...], int]:
    """The surrounding verdict, its failures and their number.

    The verdict needs the two-block refinements only; the failing (type,
    ordered partition) pairs of a failing set are counted type by type and
    the first _MAX_REPORTED_FAILURES kept.
    """
    if not m.types or all(
        m.has_rows(refined).all()
        for *_, refined in _refined_blocks(m.rows, _two_block_parts(m.d))
    ):
        return True, (), 0
    partitions = ordered_partitions(m.d)
    parts = np.zeros((len(partitions), m.d), dtype=np.uint64)
    for row, p in zip(parts, partitions):
        row[m.d - len(p.parts) :] = p.parts
    failures = []
    total = 0
    for r, p, refined in _refined_blocks(m.rows, parts):
        miss = np.flatnonzero(~m.has_rows(refined))
        total += len(miss)
        keep = miss[: _MAX_REPORTED_FAILURES - len(failures)]
        failures += [
            (m.types[x], partitions[y])
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
