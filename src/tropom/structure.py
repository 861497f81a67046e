"""Structure of type sets: dimension, topes and vertices, the refinement
partial order with witnesses, refinement closures, reconstruction from
topes, and the two minor operations (deletion and contraction).

``_components`` is the one connectivity routine: it gives the direction
components of a type, the classes of a refinement witness, and, in
``subdivision``, whether a cell spans and whether a cut is a bond."""

from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

from .core import (
    OrderedPartition,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    _key_rows,
    _row_keys,
)
from . import axioms
from .axioms import _cycle_pairs, _latest, _refined_blocks, _two_block_parts

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


def is_tope(a: Type) -> bool:
    """True when every coordinate is a singleton."""
    return all(m.bit_count() == 1 for m in a.coords)


def is_vertex(a: Type) -> bool:
    """True when the type is zero-dimensional (one direction component)."""
    return dimension(a) == 0


def topes(m: TomTypeSet) -> frozenset[Type]:
    return frozenset(t for t in m if is_tope(t))


def vertices(m: TomTypeSet) -> frozenset[Type]:
    return frozenset(t for t in m if is_vertex(t))


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
            found = np.union1d(found, _row_keys(refined))
        frontier = np.setdiff1d(found, known, assume_unique=True)
        known = np.union1d(known, frontier)
    rows = _key_rows(known, n).tolist()
    return TomTypeSet(n, d, tuple(Type(n, d, tuple(c)) for c in rows))


# ---------------------------------------------------------------------------
# reconstruction from topes


def reconstruct_from_topes(tope_set: TomTypeSet) -> TomTypeSet:
    """All types compatible with the given topes.

    A candidate survives when every one of its total refinements is a given
    tope and its comparability graph against every tope is acyclic.  The
    full candidate space (2^d - 1)^n is scanned in chunks of
    axioms._PAIR_BUDGET candidates, with the refinement test (one row of
    the shared table ``axioms._latest`` per linear order on the directions,
    so d <= 8) applied first and the cycle test then run against one tope
    at a time, so no kernel call sees more pairs than that budget.
    """
    n, d = tope_set.n, tope_set.d
    for t in tope_set:
        if not is_tope(t):
            raise ValueError(f"not a tope: {t}")
    base = (1 << d) - 1
    space = base**n
    if space > _RECONSTRUCT_CAP:
        raise SearchSpaceTooLargeError(
            f"candidate space {space} exceeds {_RECONSTRUCT_CAP}"
        )
    tables = _latest(d)

    # a tope is coded by the 0-based directions of its coordinates in base d
    is_given = np.zeros(d**n, dtype=bool)
    for t in tope_set:
        is_given[sum((c.bit_length() - 1) * d**i for i, c in enumerate(t.coords))] = True
    place = d ** np.arange(n)

    kept = []
    digits = base ** np.arange(n - 1, -1, -1)
    chunk = axioms._PAIR_BUDGET
    for start in range(0, space, chunk):
        q = np.arange(start, min(start + chunk, space))
        cand = q[:, None] // digits % base + 1  # itertools.product order
        for latest in tables:
            cand = cand[is_given[latest[cand] @ place]]
            if not len(cand):
                break
        else:  # some candidates passed every table: test them tope by tope
            cand = cand.astype(np.uint64)
            for tope in tope_set.rows:
                cand = cand[~_cycle_pairs(cand, tope, d)]
            kept += [Type(n, d, tuple(c)) for c in cand.tolist()]
    return TomTypeSet(n, d, tuple(kept))


# ---------------------------------------------------------------------------
# minors


def delete(m: TomTypeSet, i: int) -> TomTypeSet:
    """Drop coordinate i (1-based) from every type."""
    if m.n < 2:
        raise ValueError("deletion needs at least two coordinates")
    if not 1 <= i <= m.n:
        raise ValueError(f"coordinate index {i} out of range 1..{m.n}")
    rows = np.delete(m.rows, i - 1, axis=1).tolist()
    return TomTypeSet(m.n - 1, m.d, tuple(Type(m.n - 1, m.d, tuple(r)) for r in rows))


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
    rows = ((M & low) | ((M >> 1) & ~low)).tolist()
    return TomTypeSet(m.n, m.d - 1, tuple(Type(m.n, m.d - 1, tuple(r)) for r in rows))
