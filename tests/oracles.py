"""Independent slow reimplementations used to cross-check library output.

Deliberately naive: plain sets and loops, Fractions and integer
determinants, no bitmasks, no numpy, nothing imported from the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# ------------------------------------------------------------------ axioms
#
# A "type" here is a tuple of frozensets of 1-based direction labels.


def as_naive(t) -> tuple[frozenset, ...]:
    """Convert a library Type to the plain representation."""
    return tuple(frozenset(s) for s in t.coord_sets())


def boundary_ok(types: set, n: int, d: int) -> bool:
    return all(
        tuple(frozenset([j]) for _ in range(n)) in types for j in range(1, d + 1)
    )


def elimination_ok(types: set, n: int, d: int) -> bool:
    for a in types:
        for b in types:
            for p in range(n):
                target = a[p] | b[p]
                found = False
                for c in types:
                    if c[p] != target:
                        continue
                    if all(
                        c[k] in (a[k], b[k], a[k] | b[k]) for k in range(n)
                    ):
                        found = True
                        break
                if not found:
                    return False
    return True


def _semigraph(a, b) -> tuple[set, set]:
    directed: set = set()
    undirected: set = set()
    for ai, bi in zip(a, b):
        both = ai & bi
        for j in ai:
            for k in bi:
                if j == k:
                    continue
                if j in both and k in both:
                    undirected.add(frozenset((j, k)))
                else:
                    directed.add((j, k))
    return directed, undirected


def has_bad_cycle(a, b) -> bool:
    """True when the comparability graph has a cycle through a one-way arc."""
    directed, undirected = _semigraph(a, b)
    adj: dict = {}
    for j, k in directed:
        adj.setdefault(j, set()).add(k)
    for e in undirected:
        j, k = tuple(e)
        adj.setdefault(j, set()).add(k)
        adj.setdefault(k, set()).add(j)
    for j, k in directed:
        seen = {k}
        queue = [k]
        while queue:
            v = queue.pop()
            if v == j:
                return True
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return False


def comparability_ok(types: set) -> bool:
    return not any(
        has_bad_cycle(a, b) for a, b in itertools.combinations(types, 2)
    )


def ordered_set_partitions(elems: frozenset):
    if not elems:
        yield []
        return
    items = sorted(elems)
    for size in range(1, len(items) + 1):
        for first in itertools.combinations(items, size):
            rest = elems - set(first)
            for tail in ordered_set_partitions(rest):
                yield [frozenset(first)] + tail


def refine_naive(a, parts):
    out = []
    for ai in a:
        for block in reversed(parts):
            hit = ai & block
            if hit:
                out.append(frozenset(hit))
                break
    return tuple(out)


def surrounding_ok(types: set, n: int, d: int) -> bool:
    ground = frozenset(range(1, d + 1))
    for a in types:
        for parts in ordered_set_partitions(ground):
            if refine_naive(a, parts) not in types:
                return False
    return True


def axioms_ok(types: set, n: int, d: int) -> bool:
    return (
        boundary_ok(types, n, d)
        and elimination_ok(types, n, d)
        and comparability_ok(types)
        and surrounding_ok(types, n, d)
    )


# ------------------------------------------------------------------ duality


def dual_naive(types: set, n: int, d: int) -> set:
    """The paper's dual of a set of (n, d)-types, as a set of (d, n)-types:
    complete it (every member with some coordinates emptied, giving
    semitypes), transpose each semitype (direction j holds the positions
    whose coordinate holds j), and reduce (keep the transposes with no
    empty coordinate)."""
    completion = set()
    for a in types:
        for keep in itertools.product((False, True), repeat=n):
            completion.add(tuple(c if k else frozenset() for c, k in zip(a, keep)))
    transposes = {
        tuple(
            frozenset(i for i in range(1, n + 1) if j in s[i - 1])
            for j in range(1, d + 1)
        )
        for s in completion
    }
    return {t for t in transposes if all(t)}


# ------------------------------------------------------- subdivision facets
#
# A cell here is a frozenset of 1-based edges (i, j) of K_{n,d}.


def bond_complements_naive(cell: frozenset, n: int, d: int) -> list[frozenset]:
    """Bond complements that are one-directional cuts, found by visiting
    every vertex bipartition and testing each side with a stack search."""
    nv = n + d
    adj: list[list[int]] = [[] for _ in range(nv)]
    for i, j in cell:
        adj[i - 1].append(n + j - 1)
        adj[n + j - 1].append(i - 1)

    def connected(side: set[int]) -> bool:
        start = min(side)
        seen, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w in side and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(side)

    out: list[frozenset] = []
    seen_rests: set[frozenset] = set()
    for assign in range(1, 1 << (nv - 1)):
        side1 = {v for v in range(1, nv) if (assign >> (v - 1)) & 1}
        side0 = set(range(nv)) - side1
        crossing = set()
        direction = set()
        for i, j in cell:
            s_l, s_r = i - 1 in side1, n + j - 1 in side1
            if s_l != s_r:
                crossing.add((i, j))
                direction.add(s_l)
        if not crossing or len(direction) == 2:
            continue
        if not (connected(side0) and connected(side1)):
            continue
        rest = cell - crossing
        if rest not in seen_rests:
            seen_rests.add(rest)
            out.append(rest)
    return out


def unmatched_facets_naive(
    cells: list[frozenset], n: int, d: int, triangulation: bool
) -> list[tuple[int, tuple]]:
    """Each interior facet (one that isolates no vertex) of each cell that
    no other cell contains, as (1-based cell index, sorted edges), in cell
    order: single-edge removals in triangulation mode, one-directional bond
    complements otherwise."""
    out = []
    for idx, cell in enumerate(cells, start=1):
        if triangulation:
            candidates = [cell - {e} for e in sorted(cell)]
        else:
            candidates = bond_complements_naive(cell, n, d)
        for rest in candidates:
            if len({i for i, _ in rest}) < n or len({j for _, j in rest}) < d:
                continue
            if not any(rest <= other for k, other in enumerate(cells, 1) if k != idx):
                out.append((idx, tuple(sorted(rest))))
    return out


def alternating_cycle_ok(cycle, ta: frozenset, tb: frozenset) -> bool:
    """Whether a sequence of edges (i, j) is a violating alternating cycle of
    two cells: a closed walk of even length >= 4 through distinct vertices,
    each step left to right along an edge of ta or right to left along an
    edge of tb, with an edge outside ta & tb."""
    m = len(cycle)
    if m < 4 or m % 2 or all(e in ta and e in tb for e in cycle):
        return False
    for start in (("L", cycle[0][0]), ("R", cycle[0][1])):
        v, seen = start, []
        for i, j in cycle:
            seen.append(v)
            if v == ("L", i) and (i, j) in ta:
                v = ("R", j)
            elif v == ("R", j) and (i, j) in tb:
                v = ("L", i)
            else:
                break
        else:
            if v == start and len(set(seen)) == m:
                return True
    return False


# ---------------------------------------------------- transition moves
#
# A fine three-direction cell is a tuple of frozensets: one triangle (a
# coordinate of three directions) or two segments (coordinates of two)
# sharing one direction, the rest singletons.


def transition_landings_naive(a: tuple[frozenset, ...]) -> list[tuple[int, int, list]]:
    """(position, numeral, landings) for every direction shed from a
    coordinate of two or more, by the case table of the planar pictures.

    Shedding u from a triangle, or the unshared direction u of a rhombus
    segment, hands u to a coordinate pinned to it (the singleton {u}),
    which becomes {u, x} for either other direction x.  Shedding the shared direction of a rhombus
    leaves a segment behind and hands that segment's other direction out
    instead: to a pinned coordinate or to the partner segment (making it a
    triangle).  Landings are sorted as the library sorts coordinate tuples,
    a set ranking by the sum of 2^(j - 1) over its elements."""
    segments = [s for s in a if len(s) == 2]
    shared = segments[0] & segments[1] if len(segments) == 2 else frozenset()

    def put(t, q, s):
        return t[: q - 1] + (frozenset(s),) + t[q:]

    moves = []
    for p, s in enumerate(a, start=1):
        if len(s) < 2:
            continue
        for u in sorted(s):
            after = put(a, p, s - {u})
            cands = []
            if len(s) == 3 or {u} != shared:
                for q, t in enumerate(a, start=1):
                    if q != p and t == {u}:
                        cands += [put(after, q, {u, x}) for x in (1, 2, 3) if x != u]
            else:
                rest = s - {u}
                for q, t in enumerate(a, start=1):
                    if q != p and len(t) == 2:
                        cands.append(put(after, q, {1, 2, 3}))
                    elif q != p and len(t) == 1 and t != rest:
                        cands.append(put(after, q, t | rest))
            cands.sort(key=lambda t: tuple(sum(2 ** (j - 1) for j in s) for s in t))
            moves.append((p, u, cands))
    return moves


# ------------------------------------------------------- planar pieces
#
# A placed piece is a ccw polygon of axial lattice points (u, v).


def interiors_disjoint(p: tuple, q: tuple) -> bool:
    """Separating-axis test for two ccw convex polygons with exact (int or
    Fraction) coordinates: their interiors are disjoint when every point of
    one lies on the outer side of some edge of the other."""

    def separated_by_edge_of(poly: tuple, other: tuple) -> bool:
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
            ex, ey = bx - ax, by - ay
            if all((qx - ax) * ey - (qy - ay) * ex >= 0 for qx, qy in other):
                return True  # other fully on the non-interior side
        return False

    return separated_by_edge_of(p, q) or separated_by_edge_of(q, p)


def first_overlap_naive(polygons: list) -> tuple[int, int] | None:
    """The first pair (a, b), a < b, in itertools.combinations order whose
    interiors overlap, or None."""
    for (a, p), (b, q) in itertools.combinations(enumerate(polygons), 2):
        if not interiors_disjoint(p, q):
            return a, b
    return None


# ------------------------------------------------- triangulation counting


def transitive_tournament_count(d: int) -> int:
    """Tournaments on d labelled nodes with no 3-cycle.

    Counts the triangulations of a product with two apex rows: the
    orientation of each pairwise face must be globally consistent.
    """
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    count = 0
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        arcs = {(j, k) if b == 0 else (k, j) for (j, k), b in zip(pairs, bits)}
        if not any(
            (x, y) in arcs and (y, z) in arcs and (z, x) in arcs
            for x, y, z in itertools.permutations(range(1, d + 1), 3)
        ):
            count += 1
    return count


def spanning_trees_naive(n: int, d: int) -> list[frozenset]:
    """All spanning trees of the complete bipartite graph, by union-find."""
    edges = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    nodes = [("r", i) for i in range(1, n + 1)] + [("c", j) for j in range(1, d + 1)]
    out = []
    for combo in itertools.combinations(edges, n + d - 1):
        parent = {v: v for v in nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        for i, j in combo:
            a, b = find(("r", i)), find(("c", j))
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            out.append(frozenset(combo))
    return out


# Exact geometry over the integers: each tree is a simplex whose vertices
# are 0/1 points, so every hyperplane and determinant below is integral.


def _det(m: list) -> int:
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for c in range(k):
        if m[0][c] == 0:
            continue
        minor = [[row[cc] for cc in range(k) if cc != c] for row in m[1:]]
        total += (-1) ** c * m[0][c] * _det(minor)
    return total


def _product_vertex(i: int, j: int, n: int, d: int) -> tuple:
    v = [0] * (n - 1 + d - 1)
    if i > 1:
        v[i - 2] = 1
    if j > 1:
        v[n - 1 + j - 2] = 1
    return tuple(v)


def _simplex(tree: frozenset, n: int, d: int) -> list:
    return [_product_vertex(i, j, n, d) for i, j in sorted(tree)]


def _facets(simplex: list) -> list:
    """Halfspaces (a, b) with a.x <= b on the simplex, equality on a facet."""
    dim = len(simplex[0])
    out = []
    for omit in range(len(simplex)):
        pts = [p for q, p in enumerate(simplex) if q != omit]
        base = pts[0]
        rows = [[pj - bj for pj, bj in zip(p, base)] for p in pts[1:]]
        normal = []
        for c in range(dim):
            minor = [[row[cc] for cc in range(dim) if cc != c] for row in rows]
            normal.append((-1) ** c * _det(minor))
        rhs = sum(a * x for a, x in zip(normal, base))
        side = sum(a * x for a, x in zip(normal, simplex[omit]))
        if side > rhs:
            normal = [-a for a in normal]
            rhs = -rhs
        elif side == rhs:
            raise ValueError("degenerate simplex")
        out.append((tuple(normal), rhs))
    return out


def _strictly_inside(point, facets, scale: int = 1) -> bool:
    return all(
        sum(a * x for a, x in zip(normal, point)) < rhs * scale
        for normal, rhs in facets
    )


def _affine_rank(points: list) -> int:
    base = points[0]
    rows = [[Fraction(x) - Fraction(b) for x, b in zip(p, base)] for p in points[1:]]
    rank = 0
    cols = len(base)
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _intersection_vertices(f1, f2, dim: int) -> list:
    """Vertices of the closed intersection of two simplices, exactly."""
    halfspaces = f1 + f2
    found = set()
    for subset in itertools.combinations(range(len(halfspaces)), dim):
        mat = [list(halfspaces[i][0]) for i in subset]
        det = _det(mat)
        if det == 0:
            continue
        nums = []
        for c in range(dim):
            col = [[halfspaces[i][1] if cc == c else mat[r][cc] for cc in range(dim)]
                   for r, i in enumerate(subset)]
            nums.append(_det(col))
        ok = True
        for normal, rhs in halfspaces:
            lhs = sum(a * x for a, x in zip(normal, nums))
            if det > 0:
                if lhs > rhs * det:
                    ok = False
                    break
            else:
                if lhs < rhs * det:
                    ok = False
                    break
        if ok:
            found.add(tuple(Fraction(x, det) for x in nums))
    return sorted(found)


def interiors_overlap(s1, f1, s2, f2) -> bool:
    """Exact open-intersection test for two full-dimensional simplices."""
    dim = len(s1[0])
    for v in s1:
        if _strictly_inside(v, f2):
            return True
    for v in s2:
        if _strictly_inside(v, f1):
            return True
    k = len(s1)
    cent1 = tuple(sum(p[c] for p in s1) for c in range(dim))
    cent2 = tuple(sum(p[c] for p in s2) for c in range(dim))
    if _strictly_inside(cent1, f2, scale=k) or _strictly_inside(cent2, f1, scale=k):
        return True
    # facet separation proves disjoint interiors
    for normal, rhs in f1 + f2:
        d1 = [sum(a * x for a, x in zip(normal, v)) for v in s1]
        d2 = [sum(a * x for a, x in zip(normal, v)) for v in s2]
        if all(v <= rhs for v in d1) and all(v >= rhs for v in d2):
            return False
        if all(v >= rhs for v in d1) and all(v <= rhs for v in d2):
            return False
    # ambiguous: fall back to the exact intersection polytope
    pts = _intersection_vertices(f1, f2, dim)
    if len(pts) <= dim:
        return False
    return _affine_rank(pts) == dim


def _meet_is_common_face(f1, f2, dim: int) -> bool:
    """Two disjoint-interior simplices meet in a common face exactly when
    every vertex of their intersection is a lattice vertex of the product
    (any such point is automatically a vertex of both simplices)."""
    return all(
        all(x.denominator == 1 and x in (0, 1) for x in v)
        for v in _intersection_vertices(f1, f2, dim)
    )


def tilings_and_triangulations(n: int, d: int) -> tuple[set, set]:
    """Tile the product with interior-disjoint tree simplices, exactly.

    Returns (tilings, triangulations) as sets of frozensets of trees.  Each
    simplex is checked to have unit normalized volume, so a pairwise
    interior-disjoint family of the right size exhausts the polytope's
    volume and is a tiling; the tilings whose members pairwise meet in
    common faces are the triangulations.
    """
    dim = n - 1 + d - 1
    size = 1
    for k in range(1, n):  # binomial(n + d - 2, n - 1)
        size = size * (dim - k + 1) // k
    trees = spanning_trees_naive(n, d)
    simplices = [_simplex(t, n, d) for t in trees]
    for s in simplices:
        base = s[0]
        rows = [[x - b for x, b in zip(p, base)] for p in s[1:]]
        if abs(_det(rows)) != 1:
            raise ValueError("tree simplex is not unimodular")
    facets = [_facets(s) for s in simplices]
    m = len(trees)
    compat = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if not interiors_overlap(simplices[a], facets[a], simplices[b], facets[b]):
                compat[a] |= 1 << b
                compat[b] |= 1 << a

    tilings: set = set()

    def grow(chosen: list, allowed: int) -> None:
        if len(chosen) == size:
            tilings.add(frozenset(chosen))
            return
        if allowed == 0:
            return
        rest = allowed
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            grow(chosen + [i], allowed & compat[i] & ~(low - 1) & ~low)

    grow([], (1 << m) - 1)

    face_to_face: dict = {}
    triangulations: set = set()
    for fam in tilings:
        ok = True
        for pair in itertools.combinations(sorted(fam), 2):
            if pair not in face_to_face:
                a, b = pair
                face_to_face[pair] = _meet_is_common_face(facets[a], facets[b], dim)
            if not face_to_face[pair]:
                ok = False
                break
        if ok:
            triangulations.add(fam)
    as_trees = lambda fams: {frozenset(trees[i] for i in fam) for fam in fams}
    return as_trees(tilings), as_trees(triangulations)


# ---------------------------------------------- regular subdivision cells


def envelope_cells(apex_rows: list) -> list:
    """Trees where the apex heights are tight, strict everywhere else.

    Returns (tree, column potentials) pairs; the potentials are anchored at
    row 1 and give the dual point of the cell.
    """
    n, d = len(apex_rows), len(apex_rows[0])
    w = [[Fraction(x) for x in row] for row in apex_rows]
    out = []
    for tree in spanning_trees_naive(n, d):
        y: dict = {1: Fraction(0)}
        z: dict = {}
        pending = set(tree)
        while pending:
            moved = False
            for i, j in sorted(pending):
                if i in y:
                    z[j] = w[i - 1][j - 1] - y[i]
                elif j in z:
                    y[i] = w[i - 1][j - 1] - z[j]
                else:
                    continue
                pending.discard((i, j))
                moved = True
                break
            if not moved:
                raise ValueError("tree did not propagate")
        if all(
            y[i] + z[j] < w[i - 1][j - 1]
            for i in range(1, n + 1)
            for j in range(1, d + 1)
            if (i, j) not in tree
        ):
            out.append((tree, tuple(z[j] for j in range(1, d + 1))))
    return out


def _solve_square(rows: list, rhs: list):
    """The unique solution of a square Fraction system by Cramer's rule, or
    None when its determinant vanishes."""
    det = _det(rows) if rows else Fraction(1)
    if det == 0:
        return None
    out = []
    for c in range(len(rows)):
        swapped = [row[:c] + [b] + row[c + 1 :] for row, b in zip(rows, rhs)]
        out.append(Fraction(_det(swapped)) / det)
    return out


def vertex_points_naive(apex_rows: list) -> dict:
    """The vertices of an arrangement from every choice of d - 1 walls.

    A wall of apex v is x_j - x_k = v_j - v_k.  Each (d - 1)-subset of walls
    is solved in the chart x_d = 0; a solution is a vertex when its type
    (per apex, the directions attaining max_j x_j - v_j) links all
    directions.  Returns {type as a tuple of frozensets: point ending in 0}.
    """
    v = [[Fraction(x) for x in row] for row in apex_rows]
    d = len(v[0])
    walls = []
    for row in v:
        for j, k in itertools.combinations(range(d), 2):
            coefs = [Fraction(0)] * d
            coefs[j] += 1
            coefs[k] -= 1
            walls.append((coefs[: d - 1], row[j] - row[k]))
    out = {}
    for subset in itertools.combinations(walls, d - 1):
        x = _solve_square([c for c, _ in subset], [b for _, b in subset])
        if x is None:
            continue
        point = tuple(x) + (Fraction(0),)
        t = []
        for row in v:
            diffs = [point[j] - row[j] for j in range(d)]
            t.append(frozenset(j + 1 for j in range(d) if diffs[j] == max(diffs)))
        linked = {1}
        grew = True
        while grew:
            grew = False
            for s in t:
                if s & linked and not s <= linked:
                    linked |= s
                    grew = True
        if len(linked) == d:
            out[tuple(t)] = point
    return out
