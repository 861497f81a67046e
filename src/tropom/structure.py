"""Structure of type sets: dimension, topes and vertices, the refinement
partial order with witnesses, refinement closures, reconstruction from
topes, and the two minor operations (deletion and contraction)."""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable

import numpy as np

from .core import (
    OrderedPartition,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    elements_of,
)
from .axioms import _cycle_pairs, _masks, _two_block_refinements

_RECONSTRUCT_CAP = 10**7
_CANDIDATE_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# dimension


def direction_components(a: Type) -> tuple[int, ...]:
    """Connected components (as bitmasks) of the graph on directions whose
    edges are pairs appearing together in some coordinate of a."""
    neigh = [0] * (a.d + 1)
    for mask in a.coords:
        for j in elements_of(mask):
            neigh[j] |= mask
    seen = 0
    comps = []
    for j in range(1, a.d + 1):
        jb = 1 << (j - 1)
        if seen & jb:
            continue
        comp = jb
        frontier = jb
        while frontier:
            grow = 0
            for v in elements_of(frontier):
                grow |= neigh[v]
            frontier = grow & ~comp
            comp |= grow
        comps.append(comp)
        seen |= comp
    return tuple(comps)


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

    parent = list(range(d + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bm in b.coords:
        els = elements_of(bm)
        for k in els[1:]:
            ra, rb = find(els[0]), find(k)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    involved = 0
    for am in a.coords:
        involved |= am

    # precedence: the class of every stripped element comes before the class
    # kept by that coordinate
    edges: set[tuple[int, int]] = set()
    for bm, am in zip(b.coords, a.coords):
        kept = find(elements_of(bm)[0])
        for k in elements_of(am & ~bm):
            kr = find(k)
            if kr == kept:
                return None
            edges.add((kr, kept))

    roots = sorted({find(j) for j in elements_of(involved)})
    succ: dict[int, set[int]] = {r: set() for r in roots}
    indeg = {r: 0 for r in roots}
    for x, y in edges:
        if y not in succ[x]:
            succ[x].add(y)
            indeg[y] += 1
    heap = [r for r in roots if indeg[r] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        r = heapq.heappop(heap)
        order.append(r)
        for s in sorted(succ[r]):
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(heap, s)
    if len(order) != len(roots):
        return None  # the forced precedences are cyclic

    class_mask = dict.fromkeys(roots, 0)
    for j in elements_of(involved):
        class_mask[find(j)] |= 1 << (j - 1)
    parts = [class_mask[r] for r in order]
    parts[0] |= ((1 << d) - 1) & ~involved
    return OrderedPartition(d, tuple(parts))


def refinement_closure(seeds: TomTypeSet | Iterable[Type]) -> TomTypeSet:
    """Close a collection of types under refinement by ordered partitions.

    Every refinement is a sequence of two-block refinements, so this is a
    worklist over raw coordinate tuples that adds the 2^d - 2 two-block
    refinements of each new tuple; the types are built once, at the end.
    """
    if not isinstance(seeds, TomTypeSet):
        pool = tuple(seeds)
        if not pool:
            raise ValueError("cannot close an empty collection")
        seeds = TomTypeSet.from_types(pool)
    n, d = seeds.n, seeds.d
    seen = {t.coords for t in seeds}
    work = list(seen)
    while work:
        for r in _two_block_refinements(work.pop(), d):
            if r not in seen:
                seen.add(r)
                work.append(r)
    return TomTypeSet(n, d, tuple(Type(n, d, c) for c in seen))


# ---------------------------------------------------------------------------
# reconstruction from topes


def reconstruct_from_topes(tope_set: TomTypeSet) -> TomTypeSet:
    """All types compatible with the given topes.

    A candidate survives when every one of its total refinements is a given
    tope and its comparability graph against every tope is acyclic.  The
    full candidate space (2^d - 1)^n is scanned in chunks of
    _CANDIDATE_CHUNK candidates, with the refinement test (one lookup table
    per linear order on the directions) applied first.
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

    # a tope is coded by the 0-based directions of its coordinates in base d
    is_given = np.zeros(d**n, dtype=bool)
    for t in tope_set:
        is_given[sum((c.bit_length() - 1) * d**i for i, c in enumerate(t.coords))] = True
    place = d ** np.arange(n)
    # latest[mask] under a linear order = the order-latest direction of mask
    masks = np.arange(1 << d)
    member = (masks[:, None] >> np.arange(d)) & 1 == 1
    tables = [
        np.where(member, rank, -1).argmax(axis=1)
        for rank in map(np.argsort, itertools.permutations(range(d)))
    ]

    survivors = []
    digits = base ** np.arange(n - 1, -1, -1)
    for start in range(0, space, _CANDIDATE_CHUNK):
        q = np.arange(start, min(start + _CANDIDATE_CHUNK, space))
        cand = q[:, None] // digits % base + 1  # itertools.product order
        for latest in tables:
            cand = cand[is_given[latest[cand] @ place]]
            if not len(cand):
                break
        survivors.append(cand)
    C = np.concatenate(survivors).astype(np.uint64)
    kept = []
    if len(C):
        T = _masks(tope_set)
        cyclic = _cycle_pairs(C[:, None, :], T[None, :, :], d).any(axis=1)
        kept = [Type(n, d, tuple(c)) for c in C[~cyclic].tolist()]
    return TomTypeSet(n, d, tuple(kept))


# ---------------------------------------------------------------------------
# minors


def delete(m: TomTypeSet, i: int) -> TomTypeSet:
    """Drop coordinate i (1-based) from every type."""
    if m.n < 2:
        raise ValueError("deletion needs at least two coordinates")
    if not 1 <= i <= m.n:
        raise ValueError(f"coordinate index {i} out of range 1..{m.n}")
    kept = [
        Type(m.n - 1, m.d, t.coords[: i - 1] + t.coords[i:]) for t in m.types
    ]
    return TomTypeSet(m.n - 1, m.d, tuple(kept))


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
    bit = 1 << (j - 1)
    low = bit - 1
    kept = []
    for t in m.types:
        if any(c & bit for c in t.coords):
            continue
        coords = tuple((c & low) | ((c >> 1) & ~low) for c in t.coords)
        kept.append(Type(m.n, m.d - 1, coords))
    return TomTypeSet(m.n, m.d - 1, tuple(kept))
