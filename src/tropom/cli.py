"""Command-line front ends.

Four programs share one dispatcher: `tom` (type sets), `subdiv`
(subdivisions), `conjecture` (the triangulation probe), `cayley` (planar
rendering).  All read JSON from a file argument or stdin, write JSON (or
SVG) to stdout, and exit with

* 0 — success,
* 1 — a verification failed (axioms, subdivision conditions, transition
      rules, embedding consistency, or no elimination witness),
* 2 — unusable input (malformed JSON, shape errors, out-of-range indices,
      or a search space over the enumeration cap).

Each program and subcommand is declared once, in `_PROGRAMS`: program ->
(description, {subcommand: (handler, options)}), options being (name,
`add_argument` keywords) pairs in order.  Most handlers are `_emit_obj` or
`_emit_report` around one library call, made through its module's name at
call time, so a tracer that swaps those names sees every call.  A program's
parser is built from the table on first use, then reused."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Callable, Sequence

from . import arrangement, axioms, cayley, core, structure, subdivision

_VERIFY_ERRORS = (
    core.NotATriangulationError, core.EmbeddingInconsistentError, core.NotAFineCellError
)

Handler = Callable[[argparse.Namespace], int]


def _read_json(path: str | None) -> object:
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None


def _emit(obj: object) -> None:
    """Print `obj` exactly as `print(json.dumps(obj, indent=2))` would.

    CPython 3.11 uses its C encoder only when `indent` is unset, so the
    indented form runs in pure Python, value by value; `subdiv enumerate
    --n 4 --d 3` prints 44,880 cells, of which only 432 are distinct.  This
    writer walks dicts with str keys and lists itself, encodes each distinct
    list of ints, and each list of such lists, once per indent, and hands
    everything else to `json.dumps`.  Its output must stay byte-identical
    to `json.dumps(obj, indent=2)`."""
    print(_indented(obj, "\n", {}))


def _indented(obj: object, newline: str, memo: dict) -> str:
    """`obj` as `json.dumps(obj, indent=2)` nests it below `newline`, the
    line break plus the current indent."""
    if type(obj) is str:
        return json.dumps(obj)
    if type(obj) is int:
        return str(obj)
    if type(obj) is list and obj:
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:
            key = (newline, tuple(obj))
        elif kinds == {list} and set(map(type, itertools.chain.from_iterable(obj))) <= {int}:
            key = (newline, tuple(map(tuple, obj)))
        else:
            key = None
        text = memo.get(key)
        if text is None:
            if kinds == {int}:
                items = map(str, obj)
            else:
                items = (_indented(v, inner, memo) for v in obj)
            text = "[" + inner + ("," + inner).join(items) + newline + "]"
            if key is not None:
                memo[key] = text
        return text
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        inner = newline + "  "
        body = ("," + inner).join(
            json.dumps(k) + ": " + _indented(v, inner, memo) for k, v in obj.items()
        )
        return "{" + inner + body + newline + "}"
    # None, bools, empty containers and anything else: json's own text,
    # with its line breaks shifted to this depth
    return json.dumps(obj, indent=2).replace("\n", newline)


def _typeset(args: argparse.Namespace) -> core.TomTypeSet:
    return core.TomTypeSet.from_obj(_read_json(args.input))


def _collection(args: argparse.Namespace) -> subdivision.SubgraphCollection:
    return subdivision.SubgraphCollection.from_obj(_read_json(args.input))


def _emit_obj(apply: Callable[[argparse.Namespace], object]) -> Handler:
    def handler(args: argparse.Namespace) -> int:
        _emit(apply(args).to_obj())
        return 0

    return handler


def _emit_report(apply: Callable[[argparse.Namespace], object]) -> Handler:
    def handler(args: argparse.Namespace) -> int:
        report = apply(args)
        _emit(report.to_obj())
        return 0 if report.ok else 1

    return handler


def _subset(select: Callable, args: argparse.Namespace) -> core.TomTypeSet:
    m = _typeset(args)
    return core.TomTypeSet(m.n, m.d, tuple(select(m)))


def _from_arrangement(args: argparse.Namespace) -> core.TomTypeSet:
    arr = arrangement.Arrangement.from_obj(_read_json(args.input))
    if arr.has_coincident_apexes:
        print("warning: degenerate arrangement (coincident apexes)", file=sys.stderr)
    return arrangement.arrangement_tom(arr)


def _eliminate(args: argparse.Namespace) -> int:
    m = _typeset(args)
    if not 1 <= args.a <= len(m) or not 1 <= args.b <= len(m):
        raise ValueError(f"type indices must lie in 1..{len(m)} (canonical order)")
    a, b = m.types[args.a - 1], m.types[args.b - 1]
    found = axioms.elimination_witnesses(m, a, b, args.pos)
    if args.all:
        _emit({"witnesses": [t.to_obj() for t in found]})
    else:
        _emit({"witness": found[0].to_obj() if found else None})
    return 0 if found else 1


def _enumerate(args: argparse.Namespace) -> int:
    tris = subdivision.enumerate_triangulations(args.n, args.d)
    obj: dict = {"n": args.n, "d": args.d, "count": len(tris)}
    if not args.count:
        obj["triangulations"] = [t.to_obj()["cells"] for t in tris]
    _emit(obj)
    return 0


def _render(args: argparse.Namespace) -> int:
    sys.stdout.write(cayley.render_svg(_collection(args)))
    return 0


def _int(help: str | None = None) -> dict:
    return {"type": int, "required": True, "help": help}


def _flag(help: str) -> dict:
    return {"action": "store_true", "help": help}


_INPUT = ("input", {"nargs": "?", "help": "JSON file ('-' or omit for stdin)"})
_N_D = [("--n", _int()), ("--d", _int())]

_PROGRAMS: dict[str, tuple[str, dict[str, tuple[Handler, list]]]] = {
    "tom": ("Type sets: axioms, conversions, minors.", {
        "check": (_emit_report(lambda a: axioms.check_axioms(_typeset(a))), [_INPUT]),
        "from-arrangement": (_emit_obj(_from_arrangement), [_INPUT]),
        "topes": (_emit_obj(lambda a: _subset(structure.topes, a)), [_INPUT]),
        "vertices": (_emit_obj(lambda a: _subset(structure.vertices, a)), [_INPUT]),
        "reconstruct-topes": (
            _emit_obj(lambda a: structure.reconstruct_from_topes(_typeset(a))), [_INPUT]
        ),
        "closure-vertices": (
            _emit_obj(lambda a: structure.refinement_closure(_typeset(a))), [_INPUT]
        ),
        "dual": (_emit_obj(lambda a: core.dual(_typeset(a))), [_INPUT]),
        "delete": (
            _emit_obj(lambda a: structure.delete(_typeset(a), a.i)),
            [("--i", _int("coordinate to drop")), _INPUT],
        ),
        "contract": (
            _emit_obj(lambda a: structure.contract(_typeset(a), a.j)),
            [("--j", _int("direction to contract")), _INPUT],
        ),
        "eliminate": (_eliminate, [
            ("--a", _int("first type index (1-based)")),
            ("--b", _int("second type index (1-based)")),
            ("--pos", _int("position to eliminate at")),
            ("--all", _flag("list every witness")),
            _INPUT,
        ]),
    }),
    "subdiv": ("Subdivisions of a product of simplices.", {
        "check": (
            _emit_report(
                lambda a: subdivision.check_subdivision(_collection(a), a.triangulation)
            ),
            [("--triangulation", _flag("require spanning trees")), _INPUT],
        ),
        "from-tom": (
            _emit_obj(lambda a: subdivision.tom_to_subdivision(_typeset(a))), [_INPUT]
        ),
        "to-tom": (
            _emit_obj(lambda a: subdivision.triangulation_types(_collection(a))),
            [_INPUT],
        ),
        "enumerate": (_enumerate, [*_N_D, ("--count", _flag("print the count only"))]),
    }),
    "conjecture": ("Probe triangulation type sets against the axioms.", {
        "probe": (_emit_report(lambda a: subdivision.conjecture_probe(a.n, a.d)), _N_D),
    }),
    "cayley": ("Planar picture of d=3 triangulations.", {
        "render": (_render, [_INPUT]),
        "verify-transitions": (
            _emit_report(lambda a: cayley.verify_transition_rules(_collection(a))),
            [_INPUT],
        ),
    }),
}


@functools.cache
def _parser(program: str) -> argparse.ArgumentParser:
    """The program's parser, built from `_PROGRAMS` on first use."""
    description, commands = _PROGRAMS[program]
    parser = argparse.ArgumentParser(prog=program, description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, options) in commands.items():
        p = sub.add_parser(name)
        for option, kwargs in options:
            p.add_argument(option, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def run(argv: Sequence[str]) -> int:
    """Dispatch one invocation; argv[0] names the program."""
    if not argv or argv[0] not in _PROGRAMS:
        names = ", ".join(sorted(_PROGRAMS))
        print(f"usage: one of {names}, then a subcommand", file=sys.stderr)
        return 2
    try:
        args = _parser(argv[0]).parse_args(list(argv[1:]))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (core.TropomError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _VERIFY_ERRORS) else 2


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
