"""Structure of type sets: dimension, topes and vertices, the refinement
partial order with witnesses, refinement closures, reconstruction from
topes, and the two minor operations (deletion and contraction).

``_components`` is the one connectivity routine: it gives the direction
components of a type, the classes of a refinement witness, the one vertex
test ``_spans`` and, in ``subdivision``, the direction cuts that give facets.
``_singletons`` is the one tope test; both read rows, not Types."""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from .core import (
    OrderedPartition,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    _key_rows,
    _row_keys,
    _sorted_distinct,
)
from . import axioms
from .axioms import _bad_cycles, _latest, _planes, _refined_blocks, _two_block_parts

_RECONSTRUCT_CAP = 10**7


# ---------------------------------------------------------------------------
# dimension


def _components(masks: Iterable[int], width: int) -> list[int]:
    """Connected components (as bitmasks) of the graph on bits 0..width-1
    in which each mask, a nonempty set of those bits, joins all of its bits:
    start from singleton components and, for each mask, merge every
    component it meets."""
    comps = [1 << j for j in range(width)]
    for mask in masks:
        merged = 0
        rest = []
        for c in comps:
            if c & mask:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        comps = rest
    return comps


def direction_components(a: Type) -> tuple[int, ...]:
    """Connected components (as bitmasks) of the graph on directions whose
    edges are pairs appearing together in some coordinate of a, ordered by
    smallest direction."""
    return tuple(sorted(_components(a.coords, a.d), key=lambda c: c & -c))


def dimension(a: Type) -> int:
    """Number of direction components minus one."""
    return len(direction_components(a)) - 1


def _spans(row: Sequence[int], d: int) -> bool:
    """True when a coordinate row spans K_{n,d}, as a vertex type does: no
    coordinate is empty and the coordinates join the d directions into one."""
    return all(row) and len(_components(row, d)) == 1


def _singletons(rows: np.ndarray) -> np.ndarray:
    """Per row of a (..., n) uint64 array of types: is it a tope."""
    return (rows & (rows - np.uint64(1)) == 0).all(axis=-1)


def is_tope(a: Type) -> bool:
    """True when every coordinate is a singleton."""
    return bool(_singletons(np.array(a.coords, dtype=np.uint64)))


def is_vertex(a: Type) -> bool:
    """True when the type is zero-dimensional (one direction component)."""
    return _spans(a.coords, a.d)


def topes(m: TomTypeSet) -> frozenset[Type]:
    return frozenset(Type(m.n, m.d, tuple(r)) for r in m.rows[_singletons(m.rows)].tolist())


def _vertex_rows(m: TomTypeSet) -> list[tuple[int, ...]]:
    """m's vertex rows in order (a row of under n + d - 1 elements cannot span)."""
    rows, edges = map(tuple, m.rows.tolist()), m.n + m.d - 1
    return [r for r in rows if sum(map(int.bit_count, r)) >= edges and _spans(r, m.d)]


def vertices(m: TomTypeSet) -> frozenset[Type]:
    return frozenset(Type(m.n, m.d, r) for r in _vertex_rows(m))


# ---------------------------------------------------------------------------
# the refinement order


def is_refinement_of(b: Type, a: Type) -> OrderedPartition | None:
    """An ordered partition p with refine(a, p) == b, or None.

    The witness is canonical: the equivalence classes forced by b's
    coordinates, ordered topologically (stripped material before kept
    material) with ties broken by smallest element; directions absent from
    every coordinate of a are folded into the first part.
    """
    if (b.n, b.d) != (a.n, a.d):
        raise ValueError("refinement comparison needs types of the same shape")
    d = a.d
    for bm, am in zip(b.coords, a.coords):
        if bm & ~am:
            return None

    involved = 0
    for am in a.coords:
        involved |= am
    # the equivalence classes forced by b, in order of smallest element
    classes = [c for c in direction_components(b) if c & involved]

    # precedence: the class of every stripped element comes before the class
    # kept by that coordinate
    succ: list[set[int]] = [set() for _ in classes]
    for bm, am in zip(b.coords, a.coords):
        kept = next(x for x, c in enumerate(classes) if c & bm)
        for x, c in enumerate(classes):
            if c & am & ~bm:
                if x == kept:
                    return None
                succ[x].add(kept)

    indeg = [0] * len(classes)
    for s in succ:
        for y in s:
            indeg[y] += 1
    heap = [x for x in range(len(classes)) if indeg[x] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for y in sorted(succ[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(order) != len(classes):
        return None  # the forced precedences are cyclic

    parts = [classes[x] for x in order]
    parts[0] |= ((1 << d) - 1) & ~involved
    return OrderedPartition(d, tuple(parts))


def refinement_closure(seeds: TomTypeSet | Iterable[Type]) -> TomTypeSet:
    """Close a collection of types under refinement by ordered partitions.

    Every refinement is a sequence of two-block refinements, so each round
    refines the rows found new in the last one along the 2^d - 2 two-block
    partitions, until no row key is new; the types are built at the end.
    """
    if not isinstance(seeds, TomTypeSet):
        pool = tuple(seeds)
        if not pool:
            raise ValueError("cannot close an empty collection")
        seeds = TomTypeSet.from_types(pool)
    n, d = seeds.n, seeds.d
    known = frontier = _row_keys(seeds.rows)
    while len(frontier):
        found = frontier[:0]
        for *_, refined in _refined_blocks(_key_rows(frontier, n), _two_block_parts(d)):
            found = _sorted_distinct(np.concatenate([found, _row_keys(refined)]))
        frontier = np.setdiff1d(found, known, assume_unique=True)
        known = _sorted_distinct(np.concatenate([known, frontier]))
    return TomTypeSet._from_rows(n, d, _key_rows(known, n))


# ---------------------------------------------------------------------------
# reconstruction from topes


def reconstruct_from_topes(tope_set: TomTypeSet) -> TomTypeSet:
    """All types compatible with the given topes.

    A candidate survives when every one of its total refinements is a given
    tope and its comparability graph against every tope is acyclic.  A total
    refinement acts on each coordinate alone and a cycle of a prefix is a
    cycle of the whole, so both must hold for the first k coordinates
    against the topes of the deletion minor on them.  Candidates therefore
    grow one coordinate at a time: each level extends the kept prefixes by
    the 2^d - 1 nonempty masks, is refused above _RECONSTRUCT_CAP
    candidates, and is sieved in blocks of axioms._PAIR_BUDGET candidates,
    first by its refinement along every row of the shared table
    ``axioms._latest`` (one per linear order, so d <= 8), walked through
    the minors' rank tables to its index among the minor's topes, then by
    ``axioms._bad_cycles`` against the minor's topes, sliced once a
    level: a candidate with any bit set is dropped.
    """
    n, d = tope_set.n, tope_set.d
    wide = np.flatnonzero(~_singletons(tope_set.rows))
    if len(wide):
        raise ValueError(f"not a tope: {Type(n, d, tuple(tope_set.rows[wide[0]].tolist()))}")
    tables = _latest(d)
    minors = [tope_set]
    while minors[0].n > 1:
        minors.insert(0, delete(minors[0], minors[0].n))
    masks = np.arange(1, 1 << d, dtype=np.uint64)
    kept = np.zeros((1, 0), dtype=np.uint64)
    ranks = []
    for minor in minors:
        wide = len(kept) * len(masks)
        if wide > _RECONSTRUCT_CAP:
            raise SearchSpaceTooLargeError(f"{wide} candidates exceed {_RECONSTRUCT_CAP}")
        # its rank table: entry r·d + e is the index of the tope whose prefix
        # is the r-th tope of the minor before and whose last direction is e
        # (tables[0] of a singleton), else len(minor), as in the last block,
        # which an absent prefix reads
        rows, new = minor.rows, np.ones(len(minor), dtype=bool)
        new[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
        ranks.append(np.full((np.count_nonzero(new) + 1) * d, len(rows)))
        ranks[-1][(np.cumsum(new) - 1) * d + tables[0, rows[:, -1]]] = np.arange(len(rows))
        planes = _planes(rows, d)
        blocks = [np.zeros((0, minor.n), dtype=np.uint64)]
        for start, stop in axioms._row_blocks(wide, 1):
            prefix, last = np.divmod(np.arange(start, stop), len(masks))
            done = 0
            while len(prefix) and done < len(tables):
                # groups of orders keep candidates x orders within the budget
                orders = tables[done : done + max(1, axioms._PAIR_BUDGET // len(prefix))]
                # each prefix's rank walked once, then each candidate's last step
                low = prefix[0]
                at = np.zeros((len(orders), prefix[-1] + 1 - low), dtype=np.intp)
                for table, column in zip(ranks, kept[low : prefix[-1] + 1].T):
                    at = table[at * d + orders[:, column]]
                at = ranks[-1][at[:, prefix - low] * d + orders[:, masks[last]]]
                hit = (at < len(minor)).all(axis=0)
                prefix, last = prefix[hit], last[hit]
                done += len(orders)
            cand = np.column_stack([kept[prefix], masks[last]])
            blocks += [
                cand[first : first + len(bad)][~bad.any(axis=1)]
                for first, bad in _bad_cycles(cand, planes)
            ]
        kept = np.concatenate(blocks)
    return TomTypeSet._from_rows(n, d, kept)


# ---------------------------------------------------------------------------
# minors


def delete(m: TomTypeSet, i: int) -> TomTypeSet:
    """Drop coordinate i (1-based) from every type."""
    if m.n < 2:
        raise ValueError("deletion needs at least two coordinates")
    if not 1 <= i <= m.n:
        raise ValueError(f"coordinate index {i} out of range 1..{m.n}")
    return TomTypeSet._from_rows(m.n - 1, m.d, np.delete(m.rows, i - 1, axis=1))


def contraction_relabeling(d: int, j: int) -> dict[int, int]:
    """How directions are renamed when direction j is contracted away."""
    if not 1 <= j <= d:
        raise ValueError(f"direction {j} out of range 1..{d}")
    return {k: (k if k < j else k - 1) for k in range(1, d + 1) if k != j}


def contract(m: TomTypeSet, j: int) -> TomTypeSet:
    """Keep the types avoiding direction j, renaming higher directions down."""
    if m.d < 2:
        raise ValueError("contraction needs at least two directions")
    if not 1 <= j <= m.d:
        raise ValueError(f"direction {j} out of range 1..{m.d}")
    bit = np.uint64(1 << (j - 1))
    low = bit - 1
    M = m.rows[((m.rows & bit) == 0).all(axis=1)]
    return TomTypeSet._from_rows(m.n, m.d - 1, (M & low) | ((M >> 1) & ~low))
