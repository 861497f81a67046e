"""Frozen reference data and tiny constructors shared by the test modules,
and a reader for the comparability kernel's packed verdicts.

The reference data is literal: the prism objects were worked out by hand
and must never be regenerated from library output.
"""

from __future__ import annotations

import numpy as np

from tropom import axioms
from tropom import Arrangement, BipartiteSubgraph, SubgraphCollection, TomTypeSet, Type


def T(d: int, *coords: str) -> Type:
    """Type literal: T(3, "23", "13") is the type ({2,3}, {1,3})."""
    return Type.from_sets(len(coords), d, [[int(ch) for ch in c] for c in coords])


def typeset(d: int, pairs) -> TomTypeSet:
    return TomTypeSet.from_types([T(d, *p) for p in pairs])


def cycle_grid(rows: np.ndarray, members: np.ndarray, d: int) -> np.ndarray:
    """The kernel's verdict for every row against every member as a bool
    (rows, members) grid, checking that its blocks cover the rows in order
    and leave the padding bits past the last member clear."""
    grid = np.zeros((len(rows), len(members)), dtype=bool)
    done = 0
    for start, bad in axioms._bad_cycles(rows, axioms._planes(members, d)):
        assert start == done and bad.shape[1] == -(-len(members) // 64)
        bits = np.unpackbits(bad.view(np.uint8), axis=1, bitorder="little").astype(bool)
        assert not bits[:, len(members) :].any()
        grid[start : start + len(bad)] = bits[:, : len(members)]
        done += len(bad)
    assert done == len(rows)
    return grid


# Reference example: two non-degenerate apexes in three directions (a prism).
PRISM_N = 2
PRISM_D = 3
PRISM_APEXES = [["0", "0", "0"], ["-2", "0", "-1"]]

# All 17 types of the prism example.
PRISM_TYPES = [
    ("1", "1"),
    ("2", "1"),
    ("3", "1"),
    ("12", "1"),
    ("13", "1"),
    ("23", "1"),
    ("123", "1"),
    ("2", "2"),
    ("2", "3"),
    ("2", "12"),
    ("2", "13"),
    ("2", "23"),
    ("2", "123"),
    ("23", "13"),
    ("23", "3"),
    ("3", "13"),
    ("3", "3"),
]

PRISM_TOPES = [
    ("1", "1"),
    ("2", "1"),
    ("3", "1"),
    ("2", "2"),
    ("2", "3"),
    ("3", "3"),
]

PRISM_VERTICES = [("123", "1"), ("23", "13"), ("2", "123")]

# The three tetrahedra of the prism's dual triangulation, as edge lists.
PRISM_TREES = [
    [(1, 1), (1, 2), (1, 3), (2, 1)],
    [(1, 2), (1, 3), (2, 1), (2, 3)],
    [(1, 2), (2, 1), (2, 2), (2, 3)],
]


def prism_tom() -> TomTypeSet:
    return typeset(PRISM_D, PRISM_TYPES)


def prism_arrangement() -> Arrangement:
    return Arrangement.from_obj(
        {"n": PRISM_N, "d": PRISM_D, "apexes": PRISM_APEXES}
    )


def prism_cells() -> SubgraphCollection:
    return SubgraphCollection(
        PRISM_N,
        PRISM_D,
        tuple(
            BipartiteSubgraph(PRISM_N, PRISM_D, frozenset(t)) for t in PRISM_TREES
        ),
    )


def cells_of(n: int, d: int, *edge_lists) -> SubgraphCollection:
    return SubgraphCollection(
        n, d, tuple(BipartiteSubgraph(n, d, frozenset(e)) for e in edge_lists)
    )
