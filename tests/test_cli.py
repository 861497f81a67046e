"""Exit codes and JSON plumbing for the four command-line programs."""

from __future__ import annotations

import argparse
import io
import json

import pytest

from tropom import cli, core
from tropom.cli import run
from helpers import T, prism_cells, prism_tom

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
    arr = json.dumps({"n": 2, "d": 9, "apexes": [[0] * 9, [1] + [0] * 8]})
    code, out, err = invoke(monkeypatch, capsys, ["tom", "from-arrangement"], arr)
    assert code == 2
    assert not out
    assert "over the cap" in err


def test_dual_refuses_a_completion_over_the_cap(monkeypatch, capsys):
    wide = json.dumps({"n": 64, "d": 2, "types": [[[1]] * 64, [[2]] * 64]})
    code, out, err = invoke(monkeypatch, capsys, ["tom", "dual"], wide)
    assert (code, out) == (2, "")
    assert "over the cap" in err
    # the prism's completion lists 17 * 2^2 = 68 semitypes
    monkeypatch.setattr(core, "_COMPLETION_CAP", 67)
    assert invoke(monkeypatch, capsys, ["tom", "dual"], PRISM_JSON)[:2] == (2, "")
    monkeypatch.setattr(core, "_COMPLETION_CAP", 68)
    assert invoke(monkeypatch, capsys, ["tom", "dual"], PRISM_JSON)[0] == 0


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
