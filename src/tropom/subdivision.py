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

Triangulation mode takes cell facets to be single-edge removals (every bond
of a tree is one edge).  General mode enumerates bonds as vertex
bipartitions with connected sides (``structure._components`` finds two
components in the cut's complement), keeping only one-directional cuts
(all crossing edges from one side's left vertices to the other side's
rights) — the cuts that actually support a face of the product polytope.

Both (1) and (3) read the cells' left rows as types: a cell spans when its
rows are nonempty and form a zero-dimensional type, and two cells have an
alternating cycle when ``axioms._cycle_pairs`` flags their rows."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .axioms import (
    _MAX_REPORTED_FAILURES,
    AxiomReport,
    _cycle_pairs,
    _upper_pairs,
    check_axioms,
)
from .core import (
    EmptyLeftVertexError,
    NotATriangulationError,
    SearchSpaceTooLargeError,
    TomTypeSet,
    Type,
    _nonempty_submasks,
    elements_of,
    read_shaped,
)
from .structure import _components, is_vertex, vertices

# Spanning-tree budget for the triangulation census.  1000 admits every
# shape that finishes in seconds; the first shapes past it ((4,4), (3,5))
# have millions of triangulations and would run for hours.
_ENUM_CAP = 1000

# Vertex-bipartition budget for one cell's general-mode facets.  A K_{8,8}
# cell has 2^15 bipartitions and takes under a second; each further vertex
# doubles the time, so K_{12,12} would take minutes and K_{16,16} hours.
_BIPARTITION_CAP = 1 << 15

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# cells


@dataclass(frozen=True)
class BipartiteSubgraph:
    """A nonempty set of edges (i, j) of K_{n,d}, 1-based on both sides."""

    n: int
    d: int
    edges: frozenset[Edge]
    _sorted: tuple[Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        if not self.edges:
            raise ValueError("a cell needs at least one edge")
        for i, j in self.edges:
            if not 1 <= i <= self.n:
                raise ValueError(f"left vertex {i} out of range 1..{self.n}")
            if not 1 <= j <= self.d:
                raise ValueError(f"right vertex {j} out of range 1..{self.d}")
        object.__setattr__(self, "_sorted", tuple(sorted(self.edges)))

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

    def left_masks(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for i, j in self.edges:
            rows[i - 1] |= 1 << (j - 1)
        return tuple(rows)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{i}{j}" if self.d <= 9 and self.n <= 9 else f"({i},{j})"
                               for i, j in self.edge_list()) + "}"


def type_to_subgraph(a: Type) -> BipartiteSubgraph:
    """Edges (i, j) for every direction j in coordinate i."""
    edges = frozenset(
        (i, j) for i, mask in enumerate(a.coords, start=1) for j in elements_of(mask)
    )
    return BipartiteSubgraph(a.n, a.d, edges)


def subgraph_to_type(g: BipartiteSubgraph) -> Type:
    """Coordinate i collects the right ends of i's edges; every left vertex
    must be covered."""
    rows = g.left_masks()
    for i, mask in enumerate(rows, start=1):
        if mask == 0:
            raise EmptyLeftVertexError(i)
    return Type(g.n, g.d, rows)


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
    def from_obj(cls, obj: object) -> "SubgraphCollection":
        n, d, raw = read_shaped(obj, "a collection", "cells")
        if type(n) is not int or type(d) is not int:
            raise ValueError(f"n and d must be integers, got n={n!r}, d={d!r}")
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
# graph helpers (vertices 0..n-1 on the left, n..n+d-1 on the right)


def _spans(cell: BipartiteSubgraph) -> bool:
    """True when the cell covers and connects all of K_{n,d}: every left row
    is nonempty and the type the rows form is zero-dimensional."""
    rows = cell.left_masks()
    return all(rows) and is_vertex(Type(cell.n, cell.d, rows))


def _alternating_cycle(
    ta: frozenset[Edge], tb: frozenset[Edge], n: int, d: int
) -> tuple[Edge, ...] | None:
    """A violating alternating cycle between two cells, or None.

    Arcs go left-to-right along ta and right-to-left along tb; a violation
    is a simple directed cycle of length >= 4 using an edge outside ta & tb.
    One exists exactly when ``axioms._cycle_pairs`` flags the cells' left
    rows; callers search only those pairs, to name the cycle.
    """
    shared = ta & tb
    arcs: list[list[tuple[int, Edge]]] = [[] for _ in range(n + d)]
    for i, j in sorted(ta):
        arcs[i - 1].append((n + j - 1, (i, j)))
    for i, j in sorted(tb):
        arcs[n + j - 1].append((i - 1, (i, j)))

    def dfs(
        start: int, v: int, visited: set[int], trail: list[Edge]
    ) -> tuple[Edge, ...] | None:
        for w, e in arcs[v]:
            if w == start:
                if len(trail) + 1 >= 4:
                    cyc = trail + [e]
                    if any(edge not in shared for edge in cyc):
                        return tuple(cyc)
                continue
            if w > start and w not in visited:
                visited.add(w)
                trail.append(e)
                got = dfs(start, w, visited, trail)
                if got is not None:
                    return got
                trail.pop()
                visited.remove(w)
        return None

    for start in range(n + d):
        got = dfs(start, start, {start}, [])
        if got is not None:
            return got
    return None


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
        obj = {
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
            "facets": {
                "ok": self.facet_ok,
                "violations": [
                    {"cell": idx, "facet": [list(e) for e in fac]}
                    for idx, fac in self.facet_violations
                ],
            },
            "alternating": {
                "ok": self.alternating_ok,
                "violations": [
                    {"cells": [a, b], "cycle": [list(e) for e in cyc]}
                    for a, b, cyc in self.alternating_violations
                ],
            },
            "note": self.note,
        }
        for key, total in (
            ("facets", self.facet_total),
            ("alternating", self.alternating_total),
        ):
            if total > len(obj[key]["violations"]):
                obj[key].update(total=total, truncated=True)
        return obj


def _facet_candidates_general(cell: BipartiteSubgraph) -> list[frozenset[Edge]]:
    """Bond complements that are one-directional cuts, i.e. candidate faces.

    Left vertex 1 stays on side 0; ``right1`` holds the directions and
    ``left1`` the left vertices (bit i - 1 for vertex i) on side 1, with
    right1 varying slowest.  A bipartition is a bond when both sides are
    connected, i.e. its complement has two components, and then the
    complement determines it.
    """
    n, d = cell.n, cell.d
    bipartitions = (1 << (n + d - 1)) - 1
    if bipartitions > _BIPARTITION_CAP:
        raise SearchSpaceTooLargeError(
            f"a K_({n},{d}) cell has {bipartitions} vertex bipartitions,"
            f" over the cap of {_BIPARTITION_CAP}"
        )
    rows = cell.left_masks()
    out: list[frozenset[Edge]] = []
    for right1 in range(1 << d):
        # bit i - 1: left vertex i has an edge into side 1, into side 0
        into1 = sum(1 << i for i, row in enumerate(rows) if row & right1)
        into0 = sum(1 << i for i, row in enumerate(rows) if row & ~right1)
        for left1 in range(0 if right1 else 2, 1 << n, 2):
            # one-directional: edges cross from side 1 or from side 0, not both
            if bool(left1 & into0) == bool(into1 & ~left1):
                continue
            kept = [
                row & (right1 if left1 >> i & 1 else ~right1) for i, row in enumerate(rows)
            ]
            # vertex bits: left vertex i is bit i - 1, direction j is bit n + j - 1
            joins = [1 << i | row << n for i, row in enumerate(kept)]
            if len(_components(joins, n + d)) == 2:
                out.append(frozenset(
                    (i, j) for i, row in enumerate(kept, 1) for j in elements_of(row)
                ))
    return out


def _interior_facets(
    cell: BipartiteSubgraph, triangulation: bool
) -> list[frozenset[Edge]]:
    """The cell's facets that leave no vertex of K_{n,d} isolated: every
    single-edge removal in triangulation mode, the one-directional bond
    complements otherwise.  The others lie on the boundary."""
    if triangulation:
        candidates = [cell.edges - {e} for e in cell.edge_list()]
    else:
        candidates = _facet_candidates_general(cell)
    return [
        rest for rest in candidates
        if len({i for i, _ in rest}) == cell.n and len({j for _, j in rest}) == cell.d
    ]


def check_subdivision(
    c: SubgraphCollection, triangulation: bool = False
) -> SubdivisionReport:
    """Test the three subdivision conditions, collecting witnesses.

    The facet and alternating lists keep their first _MAX_REPORTED_FAILURES
    entries, and cycles are named for those only; the report counts all."""
    n, d = c.n, c.d
    cells = c.cells

    spanning_viol: list[tuple[int, str]] = []
    for idx, cell in enumerate(cells, start=1):
        if not _spans(cell):
            spanning_viol.append((idx, "does not span (cover + connect) K_{n,d}"))
        elif triangulation and len(cell.edges) != n + d - 1:
            spanning_viol.append(
                (idx, f"{len(cell.edges)} edges, a spanning tree needs {n + d - 1}")
            )

    facet_viol: list[tuple[int, tuple[Edge, ...]]] = []
    facet_total = 0
    for idx, cell in enumerate(cells, start=1):
        for rest in _interior_facets(cell, triangulation):
            if any(
                rest <= other.edges
                for k, other in enumerate(cells, start=1)
                if k != idx
            ):
                continue
            facet_total += 1
            if len(facet_viol) < _MAX_REPORTED_FAILURES:
                facet_viol.append((idx, tuple(sorted(rest))))

    alt_viol: list[tuple[int, int, tuple[Edge, ...]]] = []
    alt_total = 0
    rows = np.array([cell.left_masks() for cell in cells], dtype=np.uint64)
    for a, b in _upper_pairs(len(cells)):
        bad = _cycle_pairs(rows[a], rows[b], d)
        alt_total += int(bad.sum())
        keep = _MAX_REPORTED_FAILURES - len(alt_viol)
        for x, y in zip(a[bad][:keep].tolist(), b[bad][:keep].tolist()):
            cyc = _alternating_cycle(cells[x].edges, cells[y].edges, n, d)
            alt_viol.append((x + 1, y + 1, cyc))

    return SubdivisionReport(
        n=n,
        d=d,
        cell_count=len(cells),
        triangulation_mode=triangulation,
        spanning_ok=not spanning_viol,
        spanning_violations=tuple(spanning_viol),
        facet_ok=not facet_total,
        facet_violations=tuple(facet_viol),
        facet_total=facet_total,
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
    """The dual subdivision: one cell per zero-dimensional type."""
    verts = vertices(m)
    if not verts:
        raise ValueError("the type set has no zero-dimensional types")
    return SubgraphCollection(
        m.n, m.d, tuple(type_to_subgraph(v) for v in verts)
    )


def require_triangulation(c: SubgraphCollection) -> None:
    """Raise NotATriangulationError unless ``check_subdivision`` passes the
    collection in triangulation mode."""
    if not check_subdivision(c, triangulation=True).ok:
        raise NotATriangulationError("the collection fails the triangulation conditions")


def triangulation_types(c: SubgraphCollection) -> TomTypeSet:
    """The type set of a triangulation: all row-subset selections of cells.

    For each cell, each coordinate independently picks a nonempty subset of
    the cell's incident directions; the results are pooled over all cells.
    """
    require_triangulation(c)
    combos: set[tuple[int, ...]] = set()
    for cell in c.cells:
        combos.update(itertools.product(*map(_nonempty_submasks, cell.left_masks())))
    return TomTypeSet(c.n, c.d, tuple(Type(c.n, c.d, combo) for combo in combos))


# ---------------------------------------------------------------------------
# enumeration


def _all_spanning_trees(n: int, d: int) -> list[BipartiteSubgraph]:
    """The spanning cells with n + d - 1 edges, in edge-list order."""
    edges_all = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    cells = (
        BipartiteSubgraph(n, d, frozenset(combo))
        for combo in itertools.combinations(edges_all, n + d - 1)
    )
    return sorted(filter(_spans, cells), key=BipartiteSubgraph.edge_list)


def enumerate_triangulations(n: int, d: int) -> tuple[SubgraphCollection, ...]:
    """Every triangulation of the product of simplices, canonically ordered.

    Depth-first facet matching: seed each spanning tree, repeatedly find the
    first unmatched interior facet and branch over the compatible trees after
    the seed that complete it, so each triangulation is produced once, from
    its first tree.  Sets of trees are bitmasks over their indices.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n ** (d - 1) * d ** (n - 1) > _ENUM_CAP:
        raise SearchSpaceTooLargeError(
            f"K_({n},{d}) has {n ** (d - 1) * d ** (n - 1)} spanning trees,"
            f" over the cap of {_ENUM_CAP}"
        )
    trees = _all_spanning_trees(n, d)
    k = len(trees)

    # bitmasks over the trees: compatible[a] holds the trees with no
    # alternating cycle against tree a, owners[s] the trees with facet s;
    # the cycle test is symmetric, so each pair a < b is asked once
    rows = np.array([t.left_masks() for t in trees], dtype=np.uint64)
    ok = np.eye(k, dtype=bool)
    for a, b in _upper_pairs(k):
        ok[a, b] = ok[b, a] = ~_cycle_pairs(rows[a], rows[b], d)
    compatible = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in ok
    ]
    owners: dict[frozenset[Edge], int] = {}
    internal_facets: list[list[frozenset[Edge]]] = []
    for ti, t in enumerate(trees):
        mine = _interior_facets(t, triangulation=True)
        for s in mine:
            owners[s] = owners.get(s, 0) | 1 << ti
        internal_facets.append(mine)

    results: set[int] = set()

    def extend(seed: int, chosen: int) -> None:
        # elements_of lists 1-based bit positions: tree t is bit t - 1
        for ti in elements_of(chosen):
            for s in internal_facets[ti - 1]:
                others = owners[s] & ~(1 << (ti - 1))
                if others & chosen:
                    continue
                # unmatched facet: branch over its other owners after the seed
                for cand in elements_of(others & -(2 << seed)):
                    if compatible[cand - 1] & chosen == chosen:
                        extend(seed, chosen | 1 << (cand - 1))
                return
        results.add(chosen)

    for seed in range(k):
        extend(seed, 1 << seed)

    collections = [
        SubgraphCollection(n, d, tuple(trees[ti - 1] for ti in elements_of(combo)))
        for combo in results
    ]
    collections.sort(key=lambda col: tuple(cell.edge_list() for cell in col.cells))
    return tuple(collections)


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
    that distinct triangulations give distinct type sets."""
    tris = enumerate_triangulations(n, d)
    failures: list[tuple[int, AxiomReport]] = []
    seen: dict[bytes, int] = {}
    collisions: list[tuple[int, int]] = []
    for idx, tri in enumerate(tris, start=1):
        tom = triangulation_types(tri)
        report = check_axioms(tom)
        if not report.ok:
            failures.append((idx, report))
        first = seen.setdefault(tom.rows.tobytes(), idx)  # rows in canonical order
        if first != idx:
            collisions.append((first, idx))
    return ProbeReport(
        n=n,
        d=d,
        triangulation_count=len(tris),
        axiom_failures=tuple(failures),
        injective=not collisions,
        collisions=tuple(collisions),
    )
