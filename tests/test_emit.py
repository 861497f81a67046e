"""The CLI's indented JSON writer prints what `json.dumps(indent=2)` prints."""

from __future__ import annotations

import io
import json
import random

import pytest

from tropom import TomTypeSet, Type, arrangement_tom, cli, random_generic_arrangement, subdivision
from tropom.cli import run
from helpers import T, prism_cells, prism_tom

STRINGS = [
    "",
    "K_{n,d}",
    'say "hi"',
    "back\\slash",
    "naïve Δ_{n−1}×Δ_{d−1} 🌴",
    "tab\tnew\nline\x00\x1f\x7f",
]
SCALARS = [0, 1, -1, -7, 2**64 + 1, -(2**70), True, False, None, 0.5, *STRINGS]


def _random_value(rng: random.Random, depth: int, shared: list) -> object:
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return rng.choice(SCALARS)
    if roll < 0.45:
        return shared  # the same all-int list at whatever depth this lands
    if roll < 0.6:
        return [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
    if roll < 0.7:
        return [[rng.randint(0, 9) for _ in range(rng.randint(0, 3))]
                for _ in range(rng.randint(0, 3))]
    if roll < 0.85:
        return [_random_value(rng, depth + 1, shared) for _ in range(rng.randint(0, 4))]
    return {rng.choice(STRINGS) + str(i): _random_value(rng, depth + 1, shared)
            for i in range(rng.randint(0, 4))}


def _written(obj: object, capsys) -> str:
    cli._emit(obj)
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_on_random_objects(seed, capsys):
    rng = random.Random(seed)
    shared = [1, 2, 3]
    obj = {"top": _random_value(rng, 0, shared), "again": [[shared], shared]}
    assert _written(obj, capsys) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        [True, False, 1, 0],
        [[1, 0], [True, False]],
        {"a": [1, 0], "b": [[True], [1]]},
        [[], {}, [[]], [[], [1]]],
        {},
        [],
        None,
        {"deep": [[[1, 2], [3]], [[1, 2], [3]]], "shallow": [[1, 2], [3]]},
        {"x": [1, 2], "y": {"x": [1, 2]}, "z": [[1, 2]]},
        [1.5, [2.5, float("inf")], {"k": -0.0}],
        {1: "int key", "s": (1, [2, 3])},
        [2**64, -(2**64), [2**100]],
        STRINGS,
        {s: s for s in STRINGS},
    ],
)
def test_writer_matches_json_on_edge_cases(obj, capsys):
    assert _written(obj, capsys) == json.dumps(obj, indent=2) + "\n"


def _run_recorded(monkeypatch, capsys, argv, stdin_text=""):
    """Run one command; return its stdout and the objects it emitted: those
    handed to `_emit`, the `to_obj()` of each type set handed to the row
    writer `_emit_types`, and the object `_emit_listed` prints with the cell
    writer, a collection or the census, read from its cells' edge lists."""
    seen = []
    emit, emit_types, emit_listed = cli._emit, cli._emit_types, cli._emit_listed

    def recording(obj):
        seen.append(obj)
        emit(obj)

    def recording_types(m):
        seen.append(m.to_obj())
        emit_types(m)

    def recording_listed(obj, key, text):
        def edges(v):  # a cell's edge list, or a triangulation's cells' lists
            if isinstance(v, subdivision.SubgraphCollection):
                return list(map(edges, v.cells))
            return [list(e) for e in v.edge_list()]

        seen.append({**obj, key: list(map(edges, obj[key]))})
        emit_listed(obj, key, text)

    monkeypatch.setattr(cli, "_emit", recording)
    monkeypatch.setattr(cli, "_emit_types", recording_types)
    monkeypatch.setattr(cli, "_emit_listed", recording_listed)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    run(argv)
    monkeypatch.setattr(cli, "_emit", emit)
    monkeypatch.setattr(cli, "_emit_types", emit_types)
    monkeypatch.setattr(cli, "_emit_listed", emit_listed)
    return capsys.readouterr().out, seen


def _prism_commands():
    tom = json.dumps(prism_tom().to_obj())
    cells = json.dumps(prism_cells().to_obj())
    broken = prism_tom().to_obj()
    broken["types"] = broken["types"][1:]
    a = prism_tom().types.index(T(3, "1", "1")) + 1
    b = prism_tom().types.index(T(3, "123", "1")) + 1
    arrangement = json.dumps(
        {"n": 2, "d": 3, "apexes": [["0", "0", "0"], ["-2", "0", "-1"]]}
    )
    commands = [
        (["tom", "from-arrangement"], arrangement),
        (["tom", "check"], tom),
        (["tom", "check"], json.dumps(broken)),
        (["tom", "topes"], tom),
        (["tom", "vertices"], tom),
        (["tom", "closure-vertices"], tom),
        (["tom", "dual"], tom),
        (["tom", "delete", "--i", "1"], tom),
        (["tom", "contract", "--j", "3"], tom),
        (["tom", "eliminate", "--a", str(a), "--b", str(b), "--pos", "1"], tom),
        (["tom", "eliminate", "--a", str(a), "--b", str(b), "--pos", "1", "--all"], tom),
        (["subdiv", "from-tom"], tom),
        (["subdiv", "to-tom"], cells),
        (["subdiv", "check", "--triangulation"], cells),
        (["subdiv", "check"], cells),
        (["subdiv", "enumerate", "--n", "3", "--d", "3"], ""),
        (["subdiv", "enumerate", "--n", "3", "--d", "3", "--count"], ""),
        (["conjecture", "probe", "--n", "2", "--d", "3"], ""),
        (["cayley", "verify-transitions"], cells),
    ]
    return [
        pytest.param(argv, stdin_text, id=f"{' '.join(argv)}#{k}")
        for k, (argv, stdin_text) in enumerate(commands)
    ]


@pytest.mark.parametrize("argv, stdin_text", _prism_commands())
def test_cli_output_matches_json(argv, stdin_text, monkeypatch, capsys):
    out, seen = _run_recorded(monkeypatch, capsys, argv, stdin_text)
    assert len(seen) == 1
    assert out == json.dumps(seen[0], indent=2) + "\n"


def test_topes_reconstruction_output_matches_json(monkeypatch, capsys):
    tom = json.dumps(prism_tom().to_obj())
    topes, _ = _run_recorded(monkeypatch, capsys, ["tom", "topes"], tom)
    out, seen = _run_recorded(monkeypatch, capsys, ["tom", "reconstruct-topes"], topes)
    assert len(seen) == 1
    assert out == json.dumps(seen[0], indent=2) + "\n"


def test_census_converts_each_cell_once(monkeypatch, capsys):
    tris = subdivision.enumerate_triangulations(3, 3)
    want = [t.to_obj()["cells"] for t in tris]
    calls = []
    to_obj = subdivision.BipartiteSubgraph.to_obj

    def counted(cell):
        calls.append(cell)
        return to_obj(cell)

    monkeypatch.setattr(subdivision.BipartiteSubgraph, "to_obj", counted)
    out, seen = _run_recorded(
        monkeypatch, capsys, ["subdiv", "enumerate", "--n", "3", "--d", "3"]
    )
    assert seen[0]["triangulations"] == want
    assert out == json.dumps(seen[0], indent=2) + "\n"
    assert len(calls) == len(set(calls)) == len({c for t in tris for c in t.cells})


def _collections():
    """Collections at the edges of the cell writer: one cell, two-digit left
    vertices, and cells sharing most of their edges."""
    wide = subdivision.tom_to_subdivision(
        arrangement_tom(random_generic_arrangement(12, 3, seed=7))
    )
    trees = subdivision._all_spanning_trees(4, 3)
    one = subdivision.SubgraphCollection(1, 5, (subdivision.BipartiteSubgraph(1, 5, {(1, 3)}),))
    return [prism_cells(), one, wide, subdivision.SubgraphCollection(4, 3, tuple(trees))]


@pytest.mark.parametrize("c", _collections(), ids=lambda c: f"n={c.n},d={c.d},k={len(c)}")
def test_collection_writer_matches_json(c, capsys):
    cli._emit_listed(c.to_obj() | {"cells": c.cells}, "cells", cli._cell_text("\n    "))
    assert capsys.readouterr().out == json.dumps(c.to_obj(), indent=2) + "\n"


def _type_sets():
    """Sets at the edges of the row writer: two-digit directions, d = 64
    (bit 63 set), n = 1, no type at all, and masks repeated across
    positions and types."""
    rng = random.Random(23)
    sets = [TomTypeSet(2, 3, ()), TomTypeSet(1, 1, ()), prism_tom()]
    for n, d, k in [(2, 10, 30), (3, 12, 40), (1, 64, 20), (4, 64, 25), (1, 3, 7), (5, 2, 20)]:
        masks = [(1 << d) - 1, 1 << (d - 1), 1]
        masks += [rng.randint(1, (1 << d) - 1) for _ in range(12)]
        sets.append(TomTypeSet(n, d, tuple(
            Type(n, d, tuple(rng.choice(masks) for _ in range(n))) for _ in range(k)
        )))
    same = [Type(3, 3, (m, m, m)) for m in range(1, 8)] + [Type(3, 3, (5, 3, 5))]
    return sets + [TomTypeSet(3, 3, tuple(same))]


@pytest.mark.parametrize("m", _type_sets(), ids=lambda m: f"n={m.n},d={m.d},k={len(m)}")
def test_row_writer_matches_json(m, capsys):
    cli._emit_types(m)
    assert capsys.readouterr().out == json.dumps(m.to_obj(), indent=2) + "\n"
    parsed = TomTypeSet.from_obj(m.to_obj())
    cli._emit_types(parsed)
    assert capsys.readouterr().out == json.dumps(m.to_obj(), indent=2) + "\n"
    assert parsed._types is None  # printed from the rows alone


def _type_set_commands():
    tom = json.dumps(prism_tom().to_obj())
    wide = TomTypeSet.from_types(  # a (10, 3) set: its dual has ten directions
        Type(10, 3, tuple((k >> i) % 7 + 1 for i in range(10))) for k in range(40)
    )
    tens = json.dumps(wide.to_obj())
    topes = prism_tom().to_obj()
    topes["types"] = [t for t in topes["types"] if all(len(c) == 1 for c in t)]
    topes = json.dumps(topes)
    arrangement = json.dumps(
        {"n": 2, "d": 3, "apexes": [["0", "0", "0"], ["-2", "0", "-1"]]}
    )
    commands = [
        (["tom", "from-arrangement"], arrangement),
        (["tom", "dual"], tom),
        (["tom", "dual"], tens),
        (["tom", "topes"], tom),
        (["tom", "vertices"], tom),
        (["tom", "reconstruct-topes"], topes),
        (["tom", "closure-vertices"], tom),
        (["tom", "delete", "--i", "1"], tom),
        (["tom", "delete", "--i", "4"], tens),
        (["tom", "contract", "--j", "3"], tom),
        (["tom", "contract", "--j", "2"], json.dumps({"n": 1, "d": 2, "types": [[[2]]]})),
        (["subdiv", "to-tom"], json.dumps(prism_cells().to_obj())),
    ]
    return [
        pytest.param(argv, stdin_text, id=f"{' '.join(argv)}#{k}")
        for k, (argv, stdin_text) in enumerate(commands)
    ]


@pytest.mark.parametrize("argv, stdin_text", _type_set_commands())
def test_type_sets_print_through_the_row_writer(argv, stdin_text, monkeypatch, capsys):
    printed = []
    emit_types = cli._emit_types

    def recording(m):
        printed.append(m)
        emit_types(m)

    monkeypatch.setattr(cli, "_emit", None)  # any other writer would fail
    monkeypatch.setattr(cli, "_emit_types", recording)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    assert run(argv) == 0
    (m,) = printed
    assert capsys.readouterr().out == json.dumps(m.to_obj(), indent=2) + "\n"
