"""Subdivisions of the product of two simplices, encoded as collections of
subgraphs of the complete bipartite graph K_{n,d}.

A collection of cells is a subdivision exactly when

(1) every cell spans (covers all n + d vertices, connected) — and, for a
    triangulation, is a spanning tree;
(2) every interior facet of a cell is matched: removing the facet-defining
    edges leaves either a boundary face (some vertex isolated) or a subgraph
    contained in another cell;
(3) no two cells admit an alternating cycle using an edge outside their
    intersection (orient one cell left-to-right, the other right-to-left:
    no directed cycle with four or more arcs may leave the shared edges).

Each cell keeps its left rows, ``BipartiteSubgraph.rows`` (row i - 1 is
coordinate i of the cell as a type), and all three tests read them.  A cell
spans when they pass the vertex test ``structure._spans``.  Interior facets
are rows too: a cell's rows with one edge's bit cleared in triangulation mode
(a tree's bonds are its edges), else its direction cuts, decided by
``structure._components`` as the vertex test is.  One matcher,
``_facet_holders``, finds the other cells holding each facet, for the check
and the census.  ``axioms._bad_cycles`` flags the pairs of cells
with an alternating cycle, on their rows sliced once.  The check names the
cycle of each pair it reports with ``_alternating_witness``: the first
one-way arc (an edge of one cell only) that a path back closes, with the
shortest path, found by ``axioms._closing_walk`` as comparability's cycles
are.  Such a cycle exists exactly when the pair is flagged, and it is
simple, with four or more edges, since the arc's reverse is missing."""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .axioms import (
    _MAX_REPORTED_FAILURES,
    AxiomReport,
    _bad_cycles,
    _closing_walk,
    _cycle_failures,
    _planes,
    _row_blocks,
    _section,
    check_axioms,
)
from .core import (
    EmptyLeftVertexError,
    NotATriangulationError,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    _count_text,
    _nonempty_submasks,
    _validate_dims,
    elements_of,
    read_shaped,
)
from .structure import _components, _spans, _vertex_rows

# Spanning-tree budget for the triangulation census.  1000 admits every
# shape that finishes in seconds; the first shapes past it ((4,4), (3,5))
# have millions of triangulations and would run for hours.
_ENUM_CAP = 1000

# Kept-row budget of a general-mode cell, n rows for each of its 2^d - 2 direction
# cuts: all shapes with n + d <= 16 fit, and each further direction doubles it.
_CUT_ROW_CAP = 1 << 15

# Edge budget of a parsed shape: a cell's rows take n words and its tests walk
# d directions, so a one-edge input naming K_{10^13,3} would exhaust memory.
_SHAPE_EDGE_CAP = 1 << 20


def _check_edge_count(n: int, d: int) -> None:
    if n * d > _SHAPE_EDGE_CAP:
        raise SearchSpaceTooLargeError(f"K_({n},{d}) has {_count_text(n * d)} edges,"
                                       f" over the cap of {_SHAPE_EDGE_CAP}")

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# cells


@dataclass(frozen=True)
class BipartiteSubgraph:
    """A nonempty set of edges (i, j) of K_{n,d}, 1-based on both sides, and
    its left rows: ``rows[i - 1]`` masks the right ends of i's edges."""

    n: int
    d: int
    edges: frozenset[Edge]
    rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _sorted: tuple[Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        if not self.edges:
            raise ValueError("a cell needs at least one edge")
        rows = [0] * self.n
        for i, j in self.edges:
            if not 1 <= i <= self.n:
                raise ValueError(f"left vertex {i} out of range 1..{self.n}")
            if not 1 <= j <= self.d:
                raise ValueError(f"right vertex {j} out of range 1..{self.d}")
            rows[i - 1] |= 1 << (j - 1)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_sorted", tuple(sorted(self.edges)))

    @classmethod
    def _from_rows(cls, n: int, d: int, rows: tuple[int, ...]) -> "BipartiteSubgraph":
        """The cell with these rows, masks of d directions not all 0; unchecked."""
        ordered = tuple((i, j) for i, r in enumerate(rows, 1) for j in elements_of(r))
        made = object.__new__(cls)
        made.__dict__.update(n=n, d=d, edges=frozenset(ordered), rows=rows, _sorted=ordered)
        return made

    @classmethod
    def from_obj(cls, obj: object, n: int, d: int) -> "BipartiteSubgraph":
        if not isinstance(obj, list):
            raise ValueError("a cell is an array of [i, j] edges")
        edges = []
        for entry in obj:
            if not (isinstance(entry, list) and list(map(type, entry)) == [int, int]):
                raise ValueError(f"not an edge: {entry!r}")
            edges.append((entry[0], entry[1]))
        return cls(n, d, frozenset(edges))

    def to_obj(self) -> list[list[int]]:
        return [[i, j] for i, j in self.edge_list()]

    def edge_list(self) -> tuple[Edge, ...]:
        return self._sorted

    def __str__(self) -> str:
        return "{" + ", ".join(f"{i}{j}" if self.d <= 9 and self.n <= 9 else f"({i},{j})"
                               for i, j in self.edge_list()) + "}"


def type_to_subgraph(a: Type) -> BipartiteSubgraph:
    """Edges (i, j) for every direction j in coordinate i."""
    return BipartiteSubgraph._from_rows(a.n, a.d, a.coords)


def subgraph_to_type(g: BipartiteSubgraph) -> Type:
    """Coordinate i collects the right ends of i's edges; every left vertex
    must be covered."""
    for i, mask in enumerate(g.rows, start=1):
        if mask == 0:
            raise EmptyLeftVertexError(i)
    return Type(g.n, g.d, g.rows)


@dataclass(frozen=True)
class SubgraphCollection:
    """A set of cells over a common K_{n,d}, canonically ordered."""

    n: int
    d: int
    cells: tuple[BipartiteSubgraph, ...]

    def __post_init__(self) -> None:
        pool: dict[tuple[Edge, ...], BipartiteSubgraph] = {}
        for cell in self.cells:
            if not isinstance(cell, BipartiteSubgraph):
                raise TypeError(f"not a cell: {cell!r}")
            if (cell.n, cell.d) != (self.n, self.d):
                raise ValueError(
                    f"cell on K_({cell.n},{cell.d}) in a K_({self.n},{self.d}) collection"
                )
            pool[cell.edge_list()] = cell
        object.__setattr__(
            self, "cells", tuple(pool[k] for k in sorted(pool))
        )

    @classmethod
    def _canonical(cls, n: int, d: int,
                   cells: tuple[BipartiteSubgraph, ...]) -> "SubgraphCollection":
        """A collection of distinct cells of K_{n,d} given in edge-list order,
        made without ``__post_init__``'s pooling and sort."""
        made = object.__new__(cls)
        made.__dict__.update(n=n, d=d, cells=cells)
        return made

    @classmethod
    def from_obj(cls, obj: object) -> "SubgraphCollection":
        n, d, raw = read_shaped(obj, "a collection", "cells")
        if type(n) is not int or type(d) is not int:
            raise ValueError(f"n and d must be integers, got n={n!r}, d={d!r}")
        _check_edge_count(n, d)
        if not isinstance(raw, list) or not raw:
            raise ValueError("cells must be a nonempty array")
        cells = tuple(BipartiteSubgraph.from_obj(entry, n, d) for entry in raw)
        return cls(n, d, cells)

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "cells": [cell.to_obj() for cell in self.cells],
        }

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


# ---------------------------------------------------------------------------
# the alternating-cycle witness


def _alternating_witness(
    ra: Sequence[int], rb: Sequence[int], d: int
) -> tuple[Edge, ...] | None:
    """A violating alternating cycle between two cells, from their left rows,
    as its edges in walk order, or None.  Node i is left vertex i and node
    n + j direction j; a shared edge runs both ways, an edge only in cell a
    left to right and one only in cell b right to left."""
    n = len(ra)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + d + 1)}
    one_way = []
    for i, (a, b) in enumerate(zip(ra, rb), start=1):
        for j in elements_of(a | b):
            if a >> (j - 1) & 1:
                adj[i].append(n + j)
            if b >> (j - 1) & 1:
                adj[n + j].append(i)
            if (a ^ b) >> (j - 1) & 1:
                one_way.append((i, n + j) if a >> (j - 1) & 1 else (n + j, i))
    walk = _closing_walk(adj, sorted(one_way))
    if walk is None:
        return None
    return tuple((u, v - n) if u <= n else (v, u - n) for u, v in zip(walk, walk[1:]))


# ---------------------------------------------------------------------------
# the subdivision test


@dataclass(frozen=True)
class SubdivisionReport:
    """Outcome of check_subdivision, with witnesses per condition."""

    n: int
    d: int
    cell_count: int
    triangulation_mode: bool
    spanning_ok: bool
    spanning_violations: tuple[tuple[int, str], ...]
    facet_ok: bool
    facet_violations: tuple[tuple[int, tuple[Edge, ...]], ...]
    facet_total: int
    alternating_ok: bool
    alternating_violations: tuple[tuple[int, int, tuple[Edge, ...]], ...]
    alternating_total: int
    note: str

    @property
    def ok(self) -> bool:
        return self.spanning_ok and self.facet_ok and self.alternating_ok

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "d": self.d,
            "cells": self.cell_count,
            "triangulation_mode": self.triangulation_mode,
            "spanning": {
                "ok": self.spanning_ok,
                "violations": [
                    {"cell": idx, "reason": reason}
                    for idx, reason in self.spanning_violations
                ],
            },
            "facets": _section(self.facet_ok, self.facet_total, [
                {"cell": idx, "facet": [list(e) for e in fac]}
                for idx, fac in self.facet_violations
            ]),
            "alternating": _section(self.alternating_ok, self.alternating_total, [
                {"cells": [a, b], "cycle": [list(e) for e in cyc]}
                for a, b, cyc in self.alternating_violations
            ]),
            "note": self.note,
        }


def _direction_cut_facets(cell: BipartiteSubgraph) -> list[list[int]]:
    """A general-mode cell's interior facets as rows.  The edges across a
    facet's cut run from the left vertices of one side to the directions J
    of the other, and no vertex of a facet is isolated, so the left vertices
    that meet J keep their edges into J, the others their whole rows, and J
    gives a facet when an edge crosses and the kept rows, all nonempty, cover
    the d directions in two pieces.  Listed by the side without left vertex
    1: its directions, then its left vertices as bits."""
    n, d, rows = cell.n, cell.d, list(cell.rows)
    everything, left_all = (1 << d) - 1, (1 << n) - 1
    found: dict[tuple[int, int], list[int]] = {}
    for cut in range(1, everything):
        kept = [row & cut or row for row in rows]
        covers = all(kept) and functools.reduce(operator.or_, kept) == everything
        if kept != rows and covers and len(_components(kept, d)) == 2:
            left = sum(1 << i for i, row in enumerate(rows) if row & cut)
            side = (cut, left) if not left & 1 else (everything ^ cut, left_all ^ left)
            found[side] = kept
    return [found[side] for side in sorted(found)]


def _interior_facets(
    cells: Sequence[BipartiteSubgraph], n: int, d: int, triangulation: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells' (k, n) uint64 left rows, and their facets that isolate no
    vertex as rows, with the index of each one's cell: every edge's bit cleared
    in triangulation mode, in (cell, i, j) order, else the direction cuts'."""
    # the kept-row cap refuses first; d > 64 would overflow the uint64 rows
    if not triangulation and (count := ((1 << d) - 2) * n) > _CUT_ROW_CAP:
        raise SearchSpaceTooLargeError(
            f"a K_({n},{d}) cell keeps {_count_text(count)} rows over its direction cuts,"
            f" over the cap of {_CUT_ROW_CAP}"
        )
    cuts = [] if triangulation else [_direction_cut_facets(cell) for cell in cells]
    _validate_dims(n, d)
    rows = np.array([cell.rows for cell in cells], dtype=np.uint64).reshape(-1, n)
    if triangulation:
        bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
        owner, i, j = np.nonzero(rows[:, :, None] & bits != 0)
        facets = rows[owner]
        facets[np.arange(len(owner)), i] &= ~bits[j]
    else:
        owner = np.repeat(np.arange(len(cells)), [len(c) for c in cuts])
        facets = np.array([f for c in cuts for f in c], dtype=np.uint64).reshape(-1, n)
    covers = np.bitwise_or.reduce(facets, axis=1) == np.uint64((1 << d) - 1)
    interior = covers & (facets != 0).all(axis=1)
    return rows, facets[interior], owner[interior]


def _facet_holders(facets: np.ndarray, owner: np.ndarray, rows: np.ndarray) -> Iterator[int]:
    """For each facet, the other cells that hold it (a superset in every left
    row) as a bitmask over the cells, in blocks of facets x cells within
    _PAIR_BUDGET, the superset test ANDed one left row at a time."""
    missing, kept = np.ascontiguousarray(~rows.T)[:, None], np.ascontiguousarray(facets.T)
    for start, stop in _row_blocks(len(facets), len(rows)):
        extra = map(operator.and_, kept[:, start:stop, None], missing)  # (facets, cells) a row
        holds = functools.reduce(operator.ior, extra) == 0
        holds[np.arange(stop - start), owner[start:stop]] = False
        for row in np.packbits(holds, axis=1, bitorder="little"):
            yield int.from_bytes(row.tobytes(), "little")


def check_subdivision(
    c: SubgraphCollection, triangulation: bool = False
) -> SubdivisionReport:
    """Test the three subdivision conditions, collecting witnesses.

    The facet and alternating lists keep their first _MAX_REPORTED_FAILURES
    entries, and cycles are named for those only; the report counts all."""
    n, d = c.n, c.d
    cells = c.cells
    # first, so that a refused shape never reaches the spanning test
    rows, facets, owner = _interior_facets(cells, n, d, triangulation)

    spanning_viol: list[tuple[int, str]] = []
    for idx, cell in enumerate(cells, start=1):
        if not _spans(cell.rows, d):
            spanning_viol.append((idx, "does not span (cover + connect) K_{n,d}"))
        elif triangulation and len(cell.edges) != n + d - 1:
            spanning_viol.append(
                (idx, f"{len(cell.edges)} edges, a spanning tree needs {n + d - 1}")
            )

    holders = _facet_holders(facets, owner, rows)
    unmatched = [f for f, others in enumerate(holders) if not others]
    facet_viol: list[tuple[int, tuple[Edge, ...]]] = []
    for f in unmatched[:_MAX_REPORTED_FAILURES]:  # named by its cell's edge tuples
        idx, row = int(owner[f]), facets[f].tolist()
        kept = (e for e in cells[idx].edge_list() if row[e[0] - 1] >> e[1] - 1 & 1)
        facet_viol.append((idx + 1, tuple(kept)))

    pairs, alt_total = _cycle_failures(rows, d, _MAX_REPORTED_FAILURES)
    alt_viol = [
        (x + 1, y + 1, _alternating_witness(cells[x].rows, cells[y].rows, d))
        for x, y in pairs
    ]

    return SubdivisionReport(
        n=n,
        d=d,
        cell_count=len(cells),
        triangulation_mode=triangulation,
        spanning_ok=not spanning_viol,
        spanning_violations=tuple(spanning_viol),
        facet_ok=not unmatched,
        facet_violations=tuple(facet_viol),
        facet_total=len(unmatched),
        alternating_ok=not alt_total,
        alternating_violations=tuple(alt_viol),
        alternating_total=alt_total,
        note=""
        if triangulation
        else "general-mode facets are one-directional bond complements",
    )


# ---------------------------------------------------------------------------
# conversions


def tom_to_subdivision(m: TomTypeSet) -> SubgraphCollection:
    """The dual subdivision: one cell per zero-dimensional type's row."""
    cells = tuple(BipartiteSubgraph._from_rows(m.n, m.d, r) for r in _vertex_rows(m))
    if not cells:
        raise ValueError("the type set has no zero-dimensional types")
    return SubgraphCollection(m.n, m.d, cells)


def require_triangulation(c: SubgraphCollection) -> None:
    """Raise NotATriangulationError unless ``check_subdivision`` passes the
    collection in triangulation mode."""
    if not check_subdivision(c, triangulation=True).ok:
        raise NotATriangulationError("the collection fails the triangulation conditions")


def _cell_types(cell: BipartiteSubgraph) -> Iterator[tuple[int, ...]]:
    """A cell's types as mask rows: each coordinate independently picks a
    nonempty subset of the cell's row."""
    return itertools.product(*map(_nonempty_submasks, cell.rows))


def triangulation_types(c: SubgraphCollection) -> TomTypeSet:
    """The type set of a triangulation: its cells' types (``_cell_types``),
    pooled."""
    require_triangulation(c)
    rows = set(itertools.chain.from_iterable(map(_cell_types, c.cells)))
    return TomTypeSet._from_rows(c.n, c.d, np.array(list(rows), dtype=np.uint64))


# ---------------------------------------------------------------------------
# enumeration


def _all_spanning_trees(n: int, d: int) -> list[BipartiteSubgraph]:
    """The spanning cells with n + d - 1 edges, in edge-list order."""
    edges_all = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    combos = itertools.combinations(edges_all, n + d - 1)  # in edge-list order
    cells = (BipartiteSubgraph(n, d, frozenset(combo)) for combo in combos)
    return [cell for cell in cells if _spans(cell.rows, d)]


def _census(n: int, d: int) -> tuple[list[BipartiteSubgraph], list[tuple[int, ...]]]:
    """The spanning trees of K_{n,d} in edge-list order, and every
    triangulation as the sorted tuple of its trees' indices, in order.

    Trees whose interiors do not overlap (no two with an alternating cycle)
    hold an interior facet at most twice, a triangulation each one exactly
    twice.  A facet's id stands for the bitmask of the trees holding it
    (distinct facets held by the same trees would make each of those trees
    their union, and an interior facet lies in two trees or more).  A
    partial triangulation keeps ``open``, the XOR of its trees' facet masks:
    the facets it holds once.  Seeded at each tree, it matches its lowest
    open facet with each tree after the seed that holds it and clashes with
    none chosen, and is complete when nothing is open; so each
    triangulation is found once, from its first tree."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if (count := n ** (d - 1) * d ** (n - 1)) > _ENUM_CAP:
        raise SearchSpaceTooLargeError(
            f"K_({n},{d}) has {_count_text(count)} spanning trees,"
            f" over the cap of {_ENUM_CAP}"
        )
    _validate_dims(n, d)  # K_(1,d) and K_(n,1) have one tree: refuse them before the edges
    _check_edge_count(n, d)
    trees = _all_spanning_trees(n, d)

    # bitmasks over the trees: clash[a] holds the trees with an alternating
    # cycle against tree a, holders[f] the trees that hold facet f
    rows, facets, owner = _interior_facets(trees, n, d, triangulation=True)
    clash = [
        int.from_bytes(row.tobytes(), "little")
        for _, bad in _bad_cycles(rows, _planes(rows, d))
        for row in bad
    ]
    ids: dict[int, int] = {}
    facet_masks = [0] * len(trees)
    for t, others in zip(owner.tolist(), _facet_holders(facets, owner, rows)):
        facet_masks[t] |= 1 << ids.setdefault(others | 1 << t, len(ids))
    holders, found = list(ids), []

    def extend(taken: int, open_: int, path: tuple[int, ...]) -> None:
        if not open_:
            found.append(path)
            return
        candidates = holders[(open_ & -open_).bit_length() - 1] & ~taken
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            t = low.bit_length() - 1
            extend(taken | low | clash[t], open_ ^ facet_masks[t], (*path, t))

    # taken: the trees chosen, those up to the seed, and those clashing with one chosen
    for seed in range(len(trees)):
        extend((2 << seed) - 1 | clash[seed], facet_masks[seed], (seed,))
    return trees, sorted(map(tuple, map(sorted, found)))


def enumerate_triangulations(n: int, d: int) -> tuple[SubgraphCollection, ...]:
    """Every triangulation of the product of simplices, canonically ordered:
    the census of ``_census``, its trees in edge-list order, so tree indices
    sort like edge lists."""
    trees, census = _census(n, d)
    return tuple(
        SubgraphCollection._canonical(n, d, tuple(map(trees.__getitem__, combo)))
        for combo in census
    )


# ---------------------------------------------------------------------------
# the conjecture probe


@dataclass(frozen=True)
class ProbeReport:
    """Axiom status of every triangulation's type set for one (n, d)."""

    n: int
    d: int
    triangulation_count: int
    axiom_failures: tuple[tuple[int, AxiomReport], ...]
    injective: bool
    collisions: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.axiom_failures and self.injective

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "d": self.d,
            "triangulations": self.triangulation_count,
            "axiom_failures": [
                {"index": idx, "report": rep.to_obj()}
                for idx, rep in self.axiom_failures
            ],
            "injective": self.injective,
            "collisions": [list(pair) for pair in self.collisions],
        }


def conjecture_probe(n: int, d: int) -> ProbeReport:
    """Check that every triangulation's type set satisfies the axioms and
    that distinct triangulations give distinct type sets.  The census's
    triangulations pass ``require_triangulation`` by construction, so each
    type set is pooled from its trees' types, built once a tree."""
    trees, census = _census(n, d)
    types = [np.array(list(_cell_types(tree)), dtype=np.uint64) for tree in trees]
    failures: list[tuple[int, AxiomReport]] = []
    seen: dict[bytes, int] = {}
    collisions: list[tuple[int, int]] = []
    for idx, combo in enumerate(census, start=1):
        tom = TomTypeSet._from_rows(n, d, np.concatenate([types[t] for t in combo]))
        report = check_axioms(tom)
        if not report.ok:
            failures.append((idx, report))
        first = seen.setdefault(tom.rows.tobytes(), idx)  # rows in canonical order
        if first != idx:
            collisions.append((first, idx))
    return ProbeReport(
        n=n,
        d=d,
        triangulation_count=len(census),
        axiom_failures=tuple(failures),
        injective=not collisions,
        collisions=tuple(collisions),
    )
