"""Exit codes and JSON plumbing for the four command-line programs."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from tropom import (
    arrangement,
    arrangement_tom,
    axioms,
    cli,
    core,
    random_generic_arrangement,
    subdivision,
    type_of_point,
    vertex_points,
    vertices,
)
from tropom.cli import run
import oracles
from helpers import T, prism_arrangement, prism_cells, prism_tom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRISM_JSON = json.dumps(prism_tom().to_obj())
CELLS_JSON = json.dumps(prism_cells().to_obj())


def invoke(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tom_check_ok(monkeypatch, capsys):
    code, out, _ = invoke(monkeypatch, capsys, ["tom", "check"], PRISM_JSON)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_tom_check_reports_failure(monkeypatch, capsys):
    broken = json.loads(PRISM_JSON)
    broken["types"] = broken["types"][1:]
    code, out, _ = invoke(monkeypatch, capsys, ["tom", "check"], json.dumps(broken))
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_tom_from_arrangement(monkeypatch, capsys):
    arr = json.dumps({"n": 2, "d": 3, "apexes": [["0", "0", "0"], ["-2", "0", "-1"]]})
    code, out, err = invoke(monkeypatch, capsys, ["tom", "from-arrangement"], arr)
    assert code == 0
    assert json.loads(out) == prism_tom().to_obj()
    assert err == ""


def test_tom_from_arrangement_warns_when_degenerate(monkeypatch, capsys):
    arr = json.dumps({"n": 2, "d": 2, "apexes": [["0", "0"], ["0", "0"]]})
    code, _, err = invoke(monkeypatch, capsys, ["tom", "from-arrangement"], arr)
    assert code == 0
    assert "degenerate" in err


def test_tom_pipeline_roundtrip(monkeypatch, capsys):
    _, topes_json, _ = invoke(monkeypatch, capsys, ["tom", "topes"], PRISM_JSON)
    assert len(json.loads(topes_json)["types"]) == 6
    code, out, _ = invoke(
        monkeypatch, capsys, ["tom", "reconstruct-topes"], topes_json
    )
    assert code == 0
    assert json.loads(out) == prism_tom().to_obj()

    _, verts_json, _ = invoke(monkeypatch, capsys, ["tom", "vertices"], PRISM_JSON)
    code, out, _ = invoke(
        monkeypatch, capsys, ["tom", "closure-vertices"], verts_json
    )
    assert code == 0
    assert json.loads(out) == prism_tom().to_obj()


def test_tom_minors_and_dual(monkeypatch, capsys):
    code, out, _ = invoke(monkeypatch, capsys, ["tom", "delete", "--i", "1"], PRISM_JSON)
    assert code == 0
    assert len(json.loads(out)["types"]) == 7
    code, out, _ = invoke(monkeypatch, capsys, ["tom", "contract", "--j", "3"], PRISM_JSON)
    assert code == 0
    assert len(json.loads(out)["types"]) == 5
    code, out, _ = invoke(monkeypatch, capsys, ["tom", "dual"], PRISM_JSON)
    assert code == 0
    obj = json.loads(out)
    assert (obj["n"], obj["d"]) == (3, 2)


def test_tom_delete_bad_index(monkeypatch, capsys):
    code, _, err = invoke(monkeypatch, capsys, ["tom", "delete", "--i", "9"], PRISM_JSON)
    assert code == 2
    assert "out of range" in err


def test_tom_eliminate(monkeypatch, capsys):
    m = prism_tom()
    a = m.types.index(T(3, "1", "1")) + 1
    b = m.types.index(T(3, "123", "1")) + 1
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["tom", "eliminate", "--a", str(a), "--b", str(b), "--pos", "1", "--all"],
        PRISM_JSON,
    )
    assert code == 0
    assert json.loads(out)["witnesses"] == [[[1, 2, 3], [1]]]


def test_tom_eliminate_without_witness(monkeypatch, capsys):
    m = json.dumps({"n": 2, "d": 2, "types": [[[1], [1]], [[2], [2]]]})
    code, out, _ = invoke(
        monkeypatch, capsys, ["tom", "eliminate", "--a", "1", "--b", "2", "--pos", "1"], m
    )
    assert code == 1
    assert json.loads(out)["witness"] is None


def test_subdiv_round_trip(monkeypatch, capsys):
    code, cells_out, _ = invoke(monkeypatch, capsys, ["subdiv", "from-tom"], PRISM_JSON)
    assert code == 0
    assert json.loads(cells_out) == prism_cells().to_obj()
    code, out, _ = invoke(monkeypatch, capsys, ["subdiv", "to-tom"], cells_out)
    assert code == 0
    assert json.loads(out) == prism_tom().to_obj()


def test_subdiv_check_modes(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["subdiv", "check", "--triangulation"], CELLS_JSON
    )
    assert code == 0
    assert json.loads(out)["ok"] is True
    bad = json.dumps(
        {"n": 2, "d": 2, "cells": [[[1, 1], [2, 1], [2, 2]], [[1, 2], [2, 1], [2, 2]]]}
    )
    code, out, _ = invoke(monkeypatch, capsys, ["subdiv", "check"], bad)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_alternating_cycle_is_named_without_a_path_search(monkeypatch, capsys):
    # both cells hold K_{8,8}, the edges (9, 1) and (1, 10), and cross in the
    # corner {9, 10} x {9, 10}: a search over simple paths from left vertex 1
    # walks the block for minutes before it reaches the corner
    k = 8
    common = [[i, j] for i in range(1, k + 1) for j in range(1, k + 1)]
    common += [[k + 1, 1], [1, k + 2]]
    x = common + [[k + 1, k + 1], [k + 2, k + 2]]
    y = common + [[k + 1, k + 2], [k + 2, k + 1]]
    cells = json.dumps({"n": k + 2, "d": k + 2, "cells": [x, y]})
    start = time.perf_counter()
    code, out, _ = invoke(monkeypatch, capsys, ["subdiv", "check", "--triangulation"], cells)
    assert time.perf_counter() - start < 2
    assert code == 1
    (violation,) = json.loads(out)["alternating"]["violations"]
    assert violation["cells"] == [1, 2]
    ta, tb = frozenset(map(tuple, x)), frozenset(map(tuple, y))
    assert oracles.alternating_cycle_ok([tuple(e) for e in violation["cycle"]], ta, tb)


def test_subdiv_enumerate_count(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["subdiv", "enumerate", "--n", "2", "--d", "3", "--count"]
    )
    assert code == 0
    assert json.loads(out) == {"n": 2, "d": 3, "count": 6}


def test_subdiv_enumerate_full(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["subdiv", "enumerate", "--n", "2", "--d", "2"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2
    assert len(obj["triangulations"]) == 2


# sha256 of the (3,4) and (2,6) census printouts, taken before the census
# moved to tree indices; perfbench pins the (4,3) one
CENSUS_DIGESTS = {
    (3, 4): "6dec87a51328362b6b3a6cb629649ba86b83bac25aa9aa1da1e2a7abfdc450d8",
    (2, 6): "81dee64348c1fcfa8a7985beebc8435c6d02cd03c7920e56197f5a9585286d16",
}


@pytest.mark.parametrize("n, d", sorted(CENSUS_DIGESTS))
def test_subdiv_enumerate_prints_the_pinned_census(n, d, monkeypatch, capsys):
    argv = ["subdiv", "enumerate", "--n", str(n), "--d", str(d)]
    code, out, _ = invoke(monkeypatch, capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_DIGESTS[n, d]


def test_conjecture_probe(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["conjecture", "probe", "--n", "2", "--d", "3"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["triangulations"] == 6


def test_cayley_render_and_verify(monkeypatch, capsys, tmp_path):
    golden = (tmp_path / "cells.json")
    golden.write_text(CELLS_JSON)
    code, out, _ = invoke(monkeypatch, capsys, ["cayley", "render", str(golden)])
    assert code == 0
    assert out.startswith("<svg") and out.endswith("</svg>\n")
    code, out, _ = invoke(monkeypatch, capsys, ["cayley", "verify-transitions"], CELLS_JSON)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_from_arrangement_refuses_too_many_vertex_candidates(monkeypatch, capsys):
    arr = json.dumps({"n": 40, "d": 40, "apexes": [[0] * 40] * 40})
    code, out, err = invoke(monkeypatch, capsys, ["tom", "from-arrangement"], arr)
    assert code == 2
    assert not out
    assert "over the cap" in err


def test_vertex_walk_refusal_prints_a_huge_count_short(monkeypatch, capsys):
    # C(78, 39) cells, about 2.6 * 10^22; distinct apexes, so no warning
    arr = json.dumps({"n": 40, "d": 40, "apexes": [[i * j for j in range(40)] for i in range(40)]})
    code, out, err = invoke(monkeypatch, capsys, ["tom", "from-arrangement"], arr)
    assert (code, out) == (2, "")
    assert "has about 10^22 cells" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200
    # a count under 20 digits keeps its exact message
    monkeypatch.setattr(arrangement, "_WALK_CAP", 17)
    code, out, err = invoke(
        monkeypatch, capsys, ["tom", "from-arrangement"], json.dumps(prism_arrangement().to_obj())
    )
    assert (code, out) == (2, "")
    assert "(2,3) has 3 cells of 6 edges each to walk, over the cap of 17 edges" in err


@pytest.mark.parametrize("n,d", [(6, 4), (5, 5)])
def test_reconstruct_topes_prints_the_arrangement_type_set(monkeypatch, capsys, n, d):
    arr = json.dumps(random_generic_arrangement(n, d, seed=7).to_obj())
    code, full, _ = invoke(monkeypatch, capsys, ["tom", "from-arrangement"], arr)
    assert code == 0
    _, tope_json, _ = invoke(monkeypatch, capsys, ["tom", "topes"], full)
    code, out, err = invoke(monkeypatch, capsys, ["tom", "reconstruct-topes"], tope_json)
    assert (code, out, err) == (0, full, "")


def test_from_arrangement_takes_six_directions(monkeypatch, capsys):
    arr = random_generic_arrangement(5, 6, seed=7)
    code, out, _ = invoke(
        monkeypatch, capsys, ["tom", "from-arrangement"], json.dumps(arr.to_obj())
    )
    assert code == 0
    found = vertices(core.TomTypeSet.from_obj(json.loads(out)))
    assert len(found) == 126
    vp = vertex_points(arr)
    assert set(vp) == found
    for t, p in vp.items():
        assert type_of_point(arr, p) == t


def test_dual_refuses_a_set_over_the_dual_cap(monkeypatch, capsys):
    wide = json.dumps({"n": 64, "d": 2, "types": [[[1]] * 64, [[2]] * 64]})
    code, out, err = invoke(monkeypatch, capsys, ["tom", "dual"], wide)
    assert (code, out) == (2, "")
    assert "over the cap" in err
    # the prism's dual builds 17 * (2^2 - 1) rows of 3 cells
    monkeypatch.setattr(core, "_DUAL_CAP", 152)
    assert invoke(monkeypatch, capsys, ["tom", "dual"], PRISM_JSON)[:2] == (2, "")
    monkeypatch.setattr(core, "_DUAL_CAP", 153)
    assert invoke(monkeypatch, capsys, ["tom", "dual"], PRISM_JSON)[0] == 0


def test_dual_takes_six_hyperplanes_in_six_directions(monkeypatch, capsys):
    m = arrangement_tom(random_generic_arrangement(6, 6, seed=7))
    code, out, _ = invoke(monkeypatch, capsys, ["tom", "dual"], json.dumps(m.to_obj()))
    assert code == 0
    # the dual of a (6,6) arrangement's set is a (6,6) set whose dual is m
    found = core.TomTypeSet.from_obj(json.loads(out))
    assert (found.n, found.d) == (6, 6)
    assert core.dual(found) == m


def test_cayley_rejects_non_triangulations(monkeypatch, capsys):
    bad = json.dumps(
        {"n": 2, "d": 3, "cells": [[[1, 1], [1, 2], [1, 3], [2, 1]]]}
    )
    code, _, err = invoke(monkeypatch, capsys, ["cayley", "render"], bad)
    assert code == 1
    assert err


def test_usage_errors_exit_two(monkeypatch, capsys):
    assert invoke(monkeypatch, capsys, ["tom", "check"], "{not json")[0] == 2
    assert invoke(monkeypatch, capsys, ["tom", "frobnicate"], "")[0] == 2
    assert invoke(monkeypatch, capsys, ["nonsense"], "")[0] == 2
    assert invoke(monkeypatch, capsys, ["tom", "check", "/no/such/file.json"])[0] == 2


def test_console_entry_points_exist():
    from tropom.cli import main_cayley, main_conjecture, main_subdiv, main_tom

    for fn in (main_tom, main_subdiv, main_conjecture, main_cayley):
        assert callable(fn)


SUBCOMMANDS = {
    "tom": [
        "check",
        "from-arrangement",
        "topes",
        "vertices",
        "reconstruct-topes",
        "closure-vertices",
        "dual",
        "delete",
        "contract",
        "eliminate",
    ],
    "subdiv": ["check", "from-tom", "to-tom", "enumerate"],
    "conjecture": ["probe"],
    "cayley": ["render", "verify-transitions"],
}


@pytest.mark.parametrize(
    "argv",
    [[prog] for prog in SUBCOMMANDS]
    + [[prog, sub] for prog, subs in SUBCOMMANDS.items() for sub in subs],
)
def test_every_program_and_subcommand_answers_help(monkeypatch, capsys, argv):
    code, out, err = invoke(monkeypatch, capsys, [*argv, "--help"])
    assert code == 0
    assert out.startswith(f"usage: {' '.join(argv)} [-h]")
    assert not err


def test_each_parser_is_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    assert invoke(monkeypatch, capsys, ["tom", "check"], PRISM_JSON)[0] == 0
    assert len(built) == 1 + len(SUBCOMMANDS["tom"])
    assert invoke(monkeypatch, capsys, ["tom", "dual"], PRISM_JSON)[0] == 0
    assert len(built) == 1 + len(SUBCOMMANDS["tom"])


def test_general_mode_check_refuses_too_many_bipartitions(monkeypatch, capsys):
    whole = [[i, j] for i in range(1, 17) for j in range(1, 17)]
    cells = json.dumps({"n": 16, "d": 16, "cells": [whole]})
    code, out, err = invoke(monkeypatch, capsys, ["subdiv", "check"], cells)
    assert code == 2
    assert not out
    assert "over the cap" in err


@pytest.mark.parametrize(
    "cells, count",
    [
        ({"n": 3, "d": 14, "cells": [[[i, j] for i in range(1, 4) for j in range(1, 15)]]}, "49146"),
        # general mode counts kept rows before it builds any uint64 row,
        # so d = 65 meets the kept-row cap first, not the direction bound
        ({"n": 2, "d": 65, "cells": [[[1, 65]], [[1, 1]]]}, "73786976294838206460"),
    ],
)
def test_general_mode_check_prints_the_bipartition_refusal(monkeypatch, capsys, cells, count):
    n, d = cells["n"], cells["d"]
    code, out, err = invoke(monkeypatch, capsys, ["subdiv", "check"], json.dumps(cells))
    assert (code, out) == (2, "")
    assert err == (
        f"error: a K_({n},{d}) cell keeps {count} rows over its direction cuts,"
        " over the cap of 32768\n"
    )


@pytest.mark.parametrize("n, d", [(8, 9), (1000, 3)])
def test_general_mode_check_reports_a_whole_cell(monkeypatch, capsys, n, d):
    # every direction cut of a whole K_{n,d} leaves some direction uncovered
    whole = [[i, j] for i in range(1, n + 1) for j in range(1, d + 1)]
    cells = json.dumps({"n": n, "d": d, "cells": [whole]})
    code, out, err = invoke(monkeypatch, capsys, ["subdiv", "check"], cells)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "ok": True,
        "n": n,
        "d": d,
        "cells": 1,
        "triangulation_mode": False,
        "spanning": {"ok": True, "violations": []},
        "facets": {"ok": True, "violations": []},
        "alternating": {"ok": True, "violations": []},
        "note": "general-mode facets are one-directional bond complements",
    }


HUGE_SHAPES = r"""
import contextlib, io, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tropom.cli import run
for n, d in [(10**13, 3), (1, 10**13)]:
    err = io.StringIO()
    sys.stdin = io.StringIO('{"n": %d, "d": %d, "cells": [[[1, 1]]]}' % (n, d))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["subdiv", "check"])
    print(code, err.getvalue(), end="")
"""


def test_huge_shapes_are_refused_before_any_row_is_built():
    # under a 1 GiB address-space limit, so that a row of 10^13 words or
    # 10^13 direction masks fails at once instead of filling the host
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_SHAPES], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout == (
        "2 error: K_(10000000000000,3) has 30000000000000 edges, over the cap of 1048576\n"
        "2 error: K_(1,10000000000000) has 10000000000000 edges, over the cap of 1048576\n"
    ), proc.stderr


@pytest.mark.parametrize(
    "argv,text",
    [
        (["subdiv", "enumerate", "--n", "3000", "--d", "64"], ""),
        (["tom", "dual"], json.dumps({"n": 15000, "d": 2, "types": [[[1]] * 15000, [[2]] * 15000]})),
        (["subdiv", "check"], json.dumps({"n": 2, "d": 70, "cells": [[[1, 70]], [[1, 1]]]})),
    ],
)
def test_refusals_of_huge_counts_stay_one_short_line(monkeypatch, capsys, argv, text):
    code, out, err = invoke(monkeypatch, capsys, argv, text)
    assert (code, out) == (2, "")
    assert "over the cap" in err and err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["tom", "check"],
        ["tom", "from-arrangement"],
        ["subdiv", "check"],
        ["cayley", "render"],
    ],
)
def test_over_nested_json_is_unusable_input(monkeypatch, capsys, argv):
    deep = "[" * 100_000 + "]" * 100_000
    code, out, err = invoke(monkeypatch, capsys, argv, deep)
    assert (code, out) == (2, "")
    assert err == "error: input JSON is nested too deeply\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["tom", "check"], '{"n": 2, "d": true, "types": [[[1], [1]]]}'),
        (["tom", "from-arrangement"], '{"n": true, "d": 2, "apexes": [[0, 0]]}'),
        (["tom", "from-arrangement"], '{"n": 2, "d": 2, "apexes": [[0, 0], 5]}'),
        (["tom", "from-arrangement"], '{"n": 1, "d": 2, "apexes": [["1/0", 0]]}'),
        (["subdiv", "check"], '{"n": 2, "d": 2, "cells": [[["1", 1]]]}'),
        (["subdiv", "check"], '{"n": 2, "d": 2, "cells": [[[1.0, 1]]]}'),
        (["subdiv", "check"], '{"n": 1, "d": 1, "cells": [[[true, 1]]]}'),
        (["subdiv", "check"], '{"n": "2", "d": 2, "cells": [[[1, 1]]]}'),
    ],
)
def test_malformed_shapes_and_entries_are_unusable_input(monkeypatch, capsys, argv, text):
    code, out, err = invoke(monkeypatch, capsys, argv, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reconstruct_topes_refuses_nine_directions(monkeypatch, capsys):
    topes = json.dumps({"n": 1, "d": 9, "types": [[[j]] for j in range(1, 10)]})
    code, out, err = invoke(monkeypatch, capsys, ["tom", "reconstruct-topes"], topes)
    assert (code, out) == (2, "")
    assert err.startswith("error: 9! singleton orders exceed")


@pytest.mark.parametrize("argv", [["subdiv", "check", "--triangulation"], ["subdiv", "to-tom"]])
def test_triangulation_check_refuses_sixty_five_directions(monkeypatch, capsys, argv):
    # left vertex 2 is uncovered, so no cell is ever read as a type, and the
    # mask 1 << 64 of direction 65 would overflow the uint64 left rows
    cells = json.dumps({"n": 2, "d": 65, "cells": [[[1, 65]], [[1, 1]]]})
    code, out, err = invoke(monkeypatch, capsys, argv, cells)
    assert (code, out) == (2, "")
    assert err == "error: direction count d=65 outside [1, 64]\n"


def test_census_refuses_sixty_five_directions(monkeypatch, capsys):
    # K_(1,65) has one spanning tree, under the tree cap, and its row of 65
    # directions would overflow a uint64 mask
    argv = ["subdiv", "enumerate", "--n", "1", "--d", "65"]
    code, out, err = invoke(monkeypatch, capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: direction count d=65 outside [1, 64]\n"


_VALID = [[[1], [1]], [[1, 2], [2]], [[3], [1]]]


@pytest.mark.parametrize(
    "types, error",
    [
        (_VALID + [[[1], [True]]], "element True at position 2 is out of range"),
        (_VALID + [[[False], [1]]], "element False at position 1 is out of range"),
        (_VALID + [[[1], [1.0]]], "element 1.0 at position 2 is out of range"),
        (_VALID + [[[1], [0]]], "element 0 at position 2 is out of range"),
        (_VALID + [[[1], [2, 4]]], "element 4 at position 2 is out of range"),
        (_VALID + [[[1], []]], "coordinate 2 is empty"),
        (_VALID + [[[1], 2]], "coordinate 2 is not an array"),
        (_VALID + [[]], "a type is a nonempty array of coordinate arrays"),
        (_VALID + [[[1]]], "type (1) has 1 coordinates, expected 2"),
        ({"a": 1}, "types must be an array"),
    ],
)
@pytest.mark.parametrize("argv", [["tom", "check"], ["tom", "topes"], ["subdiv", "from-tom"]])
def test_malformed_type_sets_exit_two_with_the_first_error(
    monkeypatch, capsys, argv, types, error
):
    text = json.dumps({"n": 2, "d": 3, "types": types})
    assert invoke(monkeypatch, capsys, argv, text) == (2, "", f"error: {error}\n")


# shapes are checked in entry order, and then the first edge out of range is
# named in the order of the cell's edge set, not of its entries
@pytest.mark.parametrize(
    "cells, error",
    [
        ([[[1, 1], [1, 2], [1, 3], [2, 1]], {"edges": 1}], "a cell is an array of [i, j] edges"),
        ([[[1, 1], [1]]], "not an edge: [1]"),
        ([[[1, 1, 1]]], "not an edge: [1, 1, 1]"),
        ([[[True, 1]]], "not an edge: [True, 1]"),
        ([[[1.0, 2]]], "not an edge: [1.0, 2]"),
        ([[[4, 1], [1]]], "not an edge: [1]"),
        ([[[1, 1], [4, 1]]], "left vertex 4 out of range 1..3"),
        ([[[1, 1], [2, 4]]], "right vertex 4 out of range 1..3"),
        ([[[4, 1], [1, 4]]], "left vertex 4 out of range 1..3"),
        ([[[1, 4], [4, 1]]], "left vertex 4 out of range 1..3"),
        ([[[4, 2], [5, 1]]], "left vertex 5 out of range 1..3"),
        ([[[1, 5], [2, 4], [1, 1]]], "right vertex 4 out of range 1..3"),
        ([[[4, 4]]], "left vertex 4 out of range 1..3"),
        ([[[0, 1], [2, -1], [1, 1]]], "left vertex 0 out of range 1..3"),
        ([[[0, 1], [1, 1]]], "left vertex 0 out of range 1..3"),
        ([[[1, 0], [2, 1]]], "right vertex 0 out of range 1..3"),
        ([[[-1, 2]]], "left vertex -1 out of range 1..3"),
        ([[[1, 1], [1, 2]], [[2, 4]], [[4, 1]]], "right vertex 4 out of range 1..3"),
        ([[]], "a cell needs at least one edge"),
        ([[[1, 1], [2, 1], [3, 1]], []], "a cell needs at least one edge"),
        # d = 0 lets a huge n past the edge-count cap: refused before n rows are made
        ({"n": 10**10, "d": 0, "cells": [[[1]]]}, "not an edge: [1]"),
        ({"n": 10**10, "d": 0, "cells": [[]]}, "a cell needs at least one edge"),
    ],
)
@pytest.mark.parametrize("argv", [["subdiv", "check"], ["cayley", "render"]])
def test_malformed_cells_exit_two_with_the_first_error(monkeypatch, capsys, argv, cells, error):
    doc = cells if isinstance(cells, dict) else {"n": 3, "d": 3, "cells": cells}
    assert invoke(monkeypatch, capsys, argv, json.dumps(doc)) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["subdiv", "check", "--triangulation"],
         "8ca811bc35f2a878dbd74a22e668d1e3d67df814432e11686f4990a732104d2c"),
        (["cayley", "render"], "3711924a8625804ee4b39972fb1f2c9fa0467b20f918ff99180333b9da3cefe3"),
        (["cayley", "verify-transitions"],
         "9fed421f3b4fa3a946842993aa2c8b610f725e90e6e6cc3e761ca282cc49a634"),
        (["subdiv", "to-tom"], "a06f87757028727c9a6eea7e0739abad5f55ae7c3fd27975344b73a532ece95f"),
    ],
)
def test_repeated_edges_and_cells_are_accepted(monkeypatch, capsys, argv, digest):
    # the prism's cells, with edges repeated and out of order and its last
    # cell given twice, print what the prism prints
    repeated = prism_cells().to_obj()
    first, second, third = repeated["cells"]
    repeated["cells"] = [first[::-1] + first[:2], second + second[-1:], third, third[::-1]]
    out = invoke(monkeypatch, capsys, argv, json.dumps(repeated))
    assert out == invoke(monkeypatch, capsys, argv, CELLS_JSON)
    assert (out[0], out[2]) == (0, "")
    assert hashlib.sha256(out[1].encode()).hexdigest() == digest


# sha256 of the dual subdivisions of seed-7 generic arrangements, taken
# before `subdiv from-tom` made its cells from the vertex rows
FROM_TOM_DIGESTS = {
    6: "e2c4df8a3fdf0845ec48f5e6245eebbc6e8e126b49dbc4f9d4f683cfe57ca041",
    10: "ab123ad0e8cbac1b026eef9c43af3282cd1cd1e7534033194b08e475f410c6d5",
    20: "a44acc130f2c3d7a1ef6493086e9630a944d443b0373e6501863c1c413e19831",
}


@pytest.mark.parametrize("n", sorted(FROM_TOM_DIGESTS))
def test_from_tom_prints_the_pinned_collection(n, monkeypatch, capsys):
    tom = json.dumps(arrangement_tom(random_generic_arrangement(n, 3, seed=7)).to_obj())
    code, out, err = invoke(monkeypatch, capsys, ["subdiv", "from-tom"], tom)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FROM_TOM_DIGESTS[n]
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)["cells"]) == (n + 1) * n // 2


def test_repeated_elements_and_types_are_accepted(monkeypatch, capsys):
    twice = prism_tom().to_obj()
    twice["types"] = [[c + c for c in t] for t in twice["types"] * 2]
    code, out, err = invoke(monkeypatch, capsys, ["tom", "check"], json.dumps(twice))
    assert (code, err) == (0, "")
    assert out == invoke(monkeypatch, capsys, ["tom", "check"], PRISM_JSON)[1]


def _count_types(monkeypatch) -> list:
    """Count every Type built from now on."""
    built = []
    post_init = core.Type.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(core.Type, "__post_init__", counted)
    return built


def test_valid_checks_and_conversions_build_no_type(monkeypatch, capsys):
    tris = subdivision.enumerate_triangulations(3, 3)[::40] + (prism_cells(),)
    inputs = [json.dumps(t.to_obj()) for t in tris]
    built = _count_types(monkeypatch)
    for cells in inputs:
        code, tom, _ = invoke(monkeypatch, capsys, ["subdiv", "to-tom"], cells)
        assert code == 0
        code, out, _ = invoke(monkeypatch, capsys, ["tom", "check"], tom)
        assert (code, json.loads(out)["ok"]) == (0, True)
    assert invoke(monkeypatch, capsys, ["tom", "check"], PRISM_JSON)[0] == 0
    assert built == []


def test_steps_build_types_for_their_results_only(monkeypatch, capsys):
    """The Types each step builds, on the first seed-7 sample of the (4,3)
    census and on the seed-7 (3,5) arrangement: none for to-tom and check,
    at most one a cell for the steps that print or read cells, and at most
    one a printed tope for tom topes."""
    tris = subdivision.enumerate_triangulations(4, 3)
    tri = tris[random.Random(7).sample(range(len(tris)), 200)[0]]
    arr = random_generic_arrangement(3, 5, seed=7)
    built = _count_types(monkeypatch)

    def step(argv, text):
        built.clear()
        code, out, _ = invoke(monkeypatch, capsys, argv, text)
        assert code == 0, argv
        return out, len(built)

    tom, count = step(["subdiv", "to-tom"], json.dumps(tri.to_obj()))
    assert count == 0
    assert step(["tom", "check"], tom)[1] == 0
    cells, count = step(["subdiv", "from-tom"], tom)
    assert count <= len(tri) == 10
    assert step(["cayley", "verify-transitions"], cells)[1] <= 10
    assert step(["cayley", "render"], cells)[1] <= 10
    tom = step(["tom", "from-arrangement"], json.dumps(arr.to_obj()))[0]
    topes, count = step(["tom", "topes"], tom)
    assert count <= len(json.loads(topes)["types"]) < len(json.loads(tom)["types"])


def test_broken_set_reports_keep_their_bytes(monkeypatch, capsys):
    """A report names its failures by Type objects, built for the set only
    then; its text is the report of the same set built from Types."""
    rng = random.Random(29)
    cases = [
        core.TomTypeSet.from_types([t for t in prism_tom() if t != T(3, "2", "1")]),
        core.TomTypeSet.from_types([t for t in prism_tom() if t.coords[0] != 0b111]),
    ]
    for n, d in [(2, 3), (3, 4), (2, 5)]:
        cases.append(core.TomTypeSet.from_types(
            core.Type(n, d, tuple(rng.randint(1, (1 << d) - 1) for _ in range(n)))
            for _ in range(30)
        ))
    for m in cases:
        expected = json.dumps(axioms.check_axioms(m).to_obj(), indent=2) + "\n"
        built = _count_types(monkeypatch)
        code, out, _ = invoke(monkeypatch, capsys, ["tom", "check"], json.dumps(m.to_obj()))
        assert (code, out) == (1, expected)
        assert len(built) == len(m)  # the members are built once, to name failures
        monkeypatch.undo()
