"""Command-line front ends.

Four programs share one dispatcher: `tom` (type sets), `subdiv`
(subdivisions), `conjecture` (the triangulation probe), `cayley` (planar
rendering).  All read JSON from a file argument or stdin, write JSON (or
SVG) to stdout, and exit with

* 0 — success,
* 1 — a verification failed (axioms, subdivision conditions, transition
      rules, embedding consistency, or no elimination witness),
* 2 — unusable input (malformed JSON, shape errors, out-of-range indices,
      or a search space over the enumeration cap)."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .arrangement import Arrangement, arrangement_tom
from .axioms import check_axioms, elimination_witnesses
from .cayley import render_svg, verify_transition_rules
from .core import (
    EmbeddingInconsistentError,
    NotAFineCellError,
    NotATriangulationError,
    TomTypeSet,
    TropomError,
)
from .structure import (
    contract,
    delete,
    reconstruct_from_topes,
    refinement_closure,
    topes,
    vertices,
)
from .subdivision import (
    SubgraphCollection,
    check_subdivision,
    conjecture_probe,
    enumerate_triangulations,
    tom_to_subdivision,
)
from . import core

_VERIFY_ERRORS = (
    NotATriangulationError,
    EmbeddingInconsistentError,
    NotAFineCellError,
)


def _read_json(path: str | None) -> object:
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _emit(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _typeset(path: str | None) -> TomTypeSet:
    return TomTypeSet.from_obj(_read_json(path))


def _collection(path: str | None) -> SubgraphCollection:
    return SubgraphCollection.from_obj(_read_json(path))


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input", nargs="?", default=None, help="JSON file ('-' or omit for stdin)"
    )


# ---------------------------------------------------------------------------
# tom


def _tom(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "check":
        report = check_axioms(_typeset(args.input))
        _emit(report.to_obj())
        return 0 if report.ok else 1
    if cmd == "from-arrangement":
        arr = Arrangement.from_obj(_read_json(args.input))
        if arr.has_coincident_apexes:
            print(
                "warning: degenerate arrangement (coincident apexes)",
                file=sys.stderr,
            )
        _emit(arrangement_tom(arr).to_obj())
        return 0
    if cmd == "topes":
        m = _typeset(args.input)
        _emit(TomTypeSet(m.n, m.d, tuple(topes(m))).to_obj())
        return 0
    if cmd == "vertices":
        m = _typeset(args.input)
        _emit(TomTypeSet(m.n, m.d, tuple(vertices(m))).to_obj())
        return 0
    if cmd == "reconstruct-topes":
        _emit(reconstruct_from_topes(_typeset(args.input)).to_obj())
        return 0
    if cmd == "closure-vertices":
        _emit(refinement_closure(_typeset(args.input)).to_obj())
        return 0
    if cmd == "delete":
        _emit(delete(_typeset(args.input), args.i).to_obj())
        return 0
    if cmd == "contract":
        _emit(contract(_typeset(args.input), args.j).to_obj())
        return 0
    if cmd == "dual":
        _emit(core.dual(_typeset(args.input)).to_obj())
        return 0
    if cmd == "eliminate":
        m = _typeset(args.input)
        if not 1 <= args.a <= len(m) or not 1 <= args.b <= len(m):
            raise ValueError(
                f"type indices must lie in 1..{len(m)} (canonical order)"
            )
        found = elimination_witnesses(
            m, m.types[args.a - 1], m.types[args.b - 1], args.pos
        )
        if args.all:
            _emit({"witnesses": [t.to_obj() for t in found]})
        else:
            _emit({"witness": found[0].to_obj() if found else None})
        return 0 if found else 1
    raise AssertionError(cmd)


def _build_tom() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tom", description="Type sets: axioms, conversions, minors."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "check",
        "from-arrangement",
        "topes",
        "vertices",
        "reconstruct-topes",
        "closure-vertices",
        "dual",
    ):
        _add_input(sub.add_parser(name))
    p_delete = sub.add_parser("delete")
    p_delete.add_argument("--i", type=int, required=True, help="coordinate to drop")
    _add_input(p_delete)
    p_contract = sub.add_parser("contract")
    p_contract.add_argument("--j", type=int, required=True, help="direction to contract")
    _add_input(p_contract)
    p_elim = sub.add_parser("eliminate")
    p_elim.add_argument("--a", type=int, required=True, help="first type index (1-based)")
    p_elim.add_argument("--b", type=int, required=True, help="second type index (1-based)")
    p_elim.add_argument("--pos", type=int, required=True, help="position to eliminate at")
    p_elim.add_argument("--all", action="store_true", help="list every witness")
    _add_input(p_elim)
    return parser


# ---------------------------------------------------------------------------
# subdiv


def _subdiv(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "check":
        report = check_subdivision(_collection(args.input), args.triangulation)
        _emit(report.to_obj())
        return 0 if report.ok else 1
    if cmd == "from-tom":
        _emit(tom_to_subdivision(_typeset(args.input)).to_obj())
        return 0
    if cmd == "to-tom":
        from .subdivision import triangulation_types

        _emit(triangulation_types(_collection(args.input)).to_obj())
        return 0
    if cmd == "enumerate":
        tris = enumerate_triangulations(args.n, args.d)
        if args.count:
            _emit({"n": args.n, "d": args.d, "count": len(tris)})
        else:
            _emit(
                {
                    "n": args.n,
                    "d": args.d,
                    "count": len(tris),
                    "triangulations": [t.to_obj()["cells"] for t in tris],
                }
            )
        return 0
    raise AssertionError(cmd)


def _build_subdiv() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdiv", description="Subdivisions of a product of simplices."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check")
    p_check.add_argument(
        "--triangulation", action="store_true", help="require spanning trees"
    )
    _add_input(p_check)
    _add_input(sub.add_parser("from-tom"))
    _add_input(sub.add_parser("to-tom"))
    p_enum = sub.add_parser("enumerate")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--d", type=int, required=True)
    p_enum.add_argument("--count", action="store_true", help="print the count only")
    return parser


# ---------------------------------------------------------------------------
# conjecture / cayley


def _conjecture(args: argparse.Namespace) -> int:
    report = conjecture_probe(args.n, args.d)
    _emit(report.to_obj())
    return 0 if report.ok else 1


def _build_conjecture() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjecture",
        description="Probe triangulation type sets against the axioms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_probe = sub.add_parser("probe")
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--d", type=int, required=True)
    return parser


def _cayley(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "render":
        sys.stdout.write(render_svg(_collection(args.input)))
        return 0
    if cmd == "verify-transitions":
        report = verify_transition_rules(_collection(args.input))
        _emit(report.to_obj())
        return 0 if report.ok else 1
    raise AssertionError(cmd)


def _build_cayley() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley", description="Planar picture of d=3 triangulations."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_input(sub.add_parser("render"))
    _add_input(sub.add_parser("verify-transitions"))
    return parser


_PROGRAMS = {
    "tom": (_build_tom, _tom),
    "subdiv": (_build_subdiv, _subdiv),
    "conjecture": (_build_conjecture, _conjecture),
    "cayley": (_build_cayley, _cayley),
}


def run(argv: Sequence[str]) -> int:
    """Dispatch one invocation; argv[0] names the program."""
    if not argv or argv[0] not in _PROGRAMS:
        names = ", ".join(sorted(_PROGRAMS))
        print(f"usage: one of {names}, then a subcommand", file=sys.stderr)
        return 2
    build, handler = _PROGRAMS[argv[0]]
    parser = build()
    try:
        args = parser.parse_args(list(argv[1:]))
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return handler(args)
    except _VERIFY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TropomError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_tom() -> None:
    sys.exit(run(["tom", *sys.argv[1:]]))


def main_subdiv() -> None:
    sys.exit(run(["subdiv", *sys.argv[1:]]))


def main_conjecture() -> None:
    sys.exit(run(["conjecture", *sys.argv[1:]]))


def main_cayley() -> None:
    sys.exit(run(["cayley", *sys.argv[1:]]))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
