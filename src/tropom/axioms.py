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
whatever failed.  The elimination quantifier runs over all pairs of types
with numpy.

Comparability has one verdict and one witness.  The verdict is the private
kernel ``_cycle_pairs``: for many pairs at once it packs, per direction, the
heads of all arcs and of the one-way arcs into bitmasks, closes the arcs by
Warshall over the d bit rows, and flags a pair when some one-way arc is
closed by a path back.  Both ``check_comparability`` and
``structure.reconstruct_from_topes`` call it.  The witness is
``find_directed_cycle`` on the explicit ``comparability_graph``, run only
for the pairs the kernel flagged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    OrderedPartition,
    SearchSpaceTooLargeError,
    Semidigraph,
    TomTypeSet,
    Type,
    constant_type,
    elements_of,
)

_MAX_PARTITION_DIRECTIONS = 6
_MAX_PERMUTATION_DIRECTIONS = 8
_PAIR_BUDGET = 1 << 14


# ---------------------------------------------------------------------------
# refinement


@lru_cache(maxsize=1 << 18)
def refine(a: Type, p: OrderedPartition) -> Type:
    """Refine a type along an ordered partition.

    Coordinate i of the result is A_i intersected with the last part of p
    that A_i meets.
    """
    if p.d != a.d:
        raise ValueError(f"partition of {p.d} directions against a d={a.d} type")
    coords = []
    for mask in a.coords:
        for part in reversed(p.parts):
            hit = mask & part
            if hit:
                coords.append(hit)
                break
    return Type(a.n, a.d, tuple(coords))


def total_refinements(a: Type) -> frozenset[Type]:
    """All refinements of a with every coordinate a singleton.

    One refinement per linear order on the directions (the partition into
    singletons in that order), deduplicated.
    """
    if a.d > _MAX_PERMUTATION_DIRECTIONS:
        raise SearchSpaceTooLargeError(
            f"{a.d}! singleton orders exceed the enumeration cap"
        )
    found: set[tuple[int, ...]] = set()
    for perm in itertools.permutations(range(a.d)):
        rank = [0] * a.d
        for r, j in enumerate(perm):
            rank[j] = r
        coords = []
        for mask in a.coords:
            best = max(elements_of(mask), key=lambda j: rank[j - 1])
            coords.append(1 << (best - 1))
        found.add(tuple(coords))
    return frozenset(Type(a.n, a.d, c) for c in found)


@lru_cache(maxsize=None)
def ordered_partitions(d: int) -> tuple[OrderedPartition, ...]:
    """Every ordered partition of {1, ..., d}, in a fixed canonical order."""
    if d > _MAX_PARTITION_DIRECTIONS:
        raise SearchSpaceTooLargeError(
            f"ordered partitions of {d} directions exceed the enumeration cap"
        )
    full = (1 << d) - 1

    def _gen(remaining: int):
        if remaining == 0:
            yield ()
            return
        sub = 0
        while True:
            sub = (sub - remaining) & remaining
            if sub == 0:
                break
            for rest in _gen(remaining & ~sub):
                yield (sub,) + rest

    return tuple(OrderedPartition(d, parts) for parts in _gen(full))


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

    Pairs are taken in chunks along the leading axis of the broadcast shape,
    at most _PAIR_BUDGET pairs at a time unless one row alone holds more.
    """
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    verdict = np.zeros(shape, dtype=bool)
    if verdict.size == 0:
        return verdict
    rows = max(1, _PAIR_BUDGET * shape[0] // verdict.size)
    bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
    for r0 in range(0, shape[0], rows):
        ac = a[r0 : r0 + rows] if a.shape[0] > 1 else a
        bc = b[r0 : r0 + rows] if b.shape[0] > 1 else b
        verdict[r0 : r0 + rows] = _cycle_chunk(ac, bc, bits)
    return verdict


def _cycle_chunk(a: np.ndarray, b: np.ndarray, bits: np.ndarray) -> np.ndarray:
    d = len(bits)
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
    comparability_ok: bool
    comparability_failures: tuple[tuple[Type, Type, tuple[int, ...]], ...]
    surrounding_ok: bool
    surrounding_failures: tuple[tuple[Type, OrderedPartition], ...]

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


def elimination_witnesses(
    m: TomTypeSet, a: Type, b: Type, j: int
) -> tuple[Type, ...]:
    """All C in m with C_j = A_j | B_j and every C_k in {A_k, B_k, A_k | B_k},
    in canonical order."""
    if (a.n, a.d) != (m.n, m.d) or (b.n, b.d) != (m.n, m.d):
        raise ValueError("types do not match the set's shape")
    if not 1 <= j <= m.n:
        raise ValueError(f"position {j} out of range 1..{m.n}")
    union = tuple(x | y for x, y in zip(a.coords, b.coords))
    found = []
    for c in m.types:
        if c.coords[j - 1] != union[j - 1]:
            continue
        if all(
            ck in (ak, bk, uk)
            for ck, ak, bk, uk in zip(c.coords, a.coords, b.coords, union)
        ):
            found.append(c)
    return tuple(found)


def check_boundary(m: TomTypeSet) -> tuple[bool, tuple[int, ...]]:
    missing = tuple(
        j
        for j in range(1, m.d + 1)
        if not m.has_coords(constant_type(m.n, m.d, j).coords)
    )
    return not missing, missing


def check_elimination(m: TomTypeSet) -> tuple[bool, tuple[tuple[Type, Type, int], ...]]:
    k = len(m.types)
    if k == 0:
        return True, ()
    M = np.array([t.coords for t in m.types], dtype=np.uint64)  # (k, n)
    # eq_bb[b, c, i]: M[c, i] == M[b, i], shared across all rows a
    eq_bb = M[None, :, :] == M[:, None, :]
    failures: list[tuple[Type, Type, int]] = []
    for a in range(k):
        union = M[a][None, :] | M  # (k, n): union[b, i] = A_i | B_i
        eq_a = M == M[a][None, :]  # (k, n): eq_a[c, i]
        eq_u = M[None, :, :] == union[:, None, :]  # (k, k, n): eq_u[b, c, i]
        ok = (eq_a[None, :, :] | eq_bb | eq_u).all(axis=2)  # (k, k): ok[b, c]
        sat = (ok[:, :, None] & eq_u).any(axis=1)  # (k, n): sat[b, j]
        for b, j in zip(*np.nonzero(~sat)):
            failures.append((m.types[a], m.types[int(b)], int(j) + 1))
    return not failures, tuple(failures)


def check_comparability(
    m: TomTypeSet,
) -> tuple[bool, tuple[tuple[Type, Type, tuple[int, ...]], ...]]:
    if not m.types:
        return True, ()
    M = np.array([t.coords for t in m.types], dtype=np.uint64)
    bad = _cycle_pairs(M[:, None, :], M[None, :, :], m.d)
    # the graph of (b, a) is the graph of (a, b) reversed: keep a <= b
    failures = []
    for a, b in zip(*np.nonzero(np.triu(bad))):
        ta, tb = m.types[a], m.types[b]
        cycle = find_directed_cycle(comparability_graph(ta, tb))
        failures.append((ta, tb, tuple(cycle or ())))
    return not failures, tuple(failures)


def check_surrounding(
    m: TomTypeSet,
) -> tuple[bool, tuple[tuple[Type, OrderedPartition], ...]]:
    parts = ordered_partitions(m.d)
    failures: list[tuple[Type, OrderedPartition]] = []
    for t in m.types:
        for p in parts:
            r = refine(t, p)
            if not m.has_coords(r.coords):
                failures.append((t, p))
    return not failures, tuple(failures)


def check_axioms(m: TomTypeSet) -> AxiomReport:
    """Run all four axioms over a type set and report witnesses."""
    b_ok, b_missing = check_boundary(m)
    e_ok, e_fail = check_elimination(m)
    c_ok, c_fail = check_comparability(m)
    s_ok, s_fail = check_surrounding(m)
    return AxiomReport(
        n=m.n,
        d=m.d,
        size=len(m),
        boundary_ok=b_ok,
        boundary_missing=b_missing,
        elimination_ok=e_ok,
        elimination_failures=e_fail,
        comparability_ok=c_ok,
        comparability_failures=c_fail,
        surrounding_ok=s_ok,
        surrounding_failures=s_fail,
    )
