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
call time, so a tracer that swaps those names sees every call.  A type set
is printed from its mask rows by `_emit_types`, a collection or the census
from the cell writer `_cell_text` by `_emit_listed`, everything else by
`_emit`; all three write their text as they build it, one item at a time.
A program's parser is built from the table on first use, then reused."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Callable, Iterable, Iterator, Sequence

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
    """Print `obj` exactly as `print(json.dumps(obj, indent=2))` would, and
    write each list item as soon as `_indented` has built it (dicts are walked
    value by value), so the largest string held is one item, not the whole
    text.  One memo serves the call: each distinct list of ints, or of such
    lists, is encoded once per indent, and a list object that recurs is found
    by its identity first."""
    sys.stdout.writelines(itertools.chain(_walked(obj, "\n", {}), ["\n"]))


def _emit_types(m: core.TomTypeSet) -> None:
    """Print a type set exactly as `_emit(m.to_obj())` would, from its mask
    rows, one row block (`axioms._row_blocks`) at a time: each distinct mask's
    text is built once, and each row is one join of its masks' texts."""
    # what the layout puts before the first member, between two, after the last:
    # of the types, of a type's coordinates and of a coordinate's elements
    first, comma, close = _layout([0, 0], "\n  ", {}, lambda *_: ())
    r_first, r_comma, r_close = _layout([0, 0], "\n    ", {}, lambda *_: ())
    e_first, e_comma, e_close = _layout([0, 0], "\n      ", {}, lambda *_: ())
    texts: dict[int, str] = {}

    def types() -> Iterator[str]:
        for start, stop in axioms._row_blocks(len(m), m.n):
            rows = m.rows[start:stop].tolist()
            for k in set(itertools.chain.from_iterable(rows)) - texts.keys():
                texts[k] = e_first + e_comma.join(map(str, core.elements_of(k))) + e_close
            lines = (r_first + r_comma.join(map(texts.get, r)) + r_close for r in rows)
            yield (comma if start else first) + comma.join(lines)
        yield close

    obj = {"n": m.n, "d": m.d, "types": m.rows if len(m) else []}
    pieces = _layout(obj, "\n", {}, lambda v, *at: types() if v is m.rows else _indented(v, *at))
    sys.stdout.writelines(itertools.chain(pieces, ["\n"]))


def _cell_text(newline: str) -> Callable[[subdivision.BipartiteSubgraph], str]:
    """The cell writer: a cell's text as `_emit` nests it below `newline`."""
    first, comma, close = _layout([0, 0], newline, {}, lambda *_: ())
    e_first, e_comma, e_close = _layout([0, 0], newline + "  ", {}, lambda *_: ())
    return lambda c: first + comma.join(
        f"{e_first}{i}{e_comma}{j}{e_close}" for i, j in c.to_obj()) + close


def _emit_listed(obj: dict, key: str, text: Callable[[object], str]) -> None:
    """Print `obj` as `_emit` would, each item of the list `obj[key]` as
    `text(item)` gives it, one item a write."""
    pieces = _layout(obj, "\n", {}, lambda v, *at: _layout(v, *at, lambda u, *_: text(u))
                     if v is obj[key] else _indented(v, *at))
    sys.stdout.writelines(itertools.chain(pieces, ["\n"]))


def _walked(obj: object, newline: str, memo: dict) -> Iterable[str]:
    """The pieces `_emit` writes for `obj`: a dict with str keys walked value
    by value, a list item by item, each item built whole by `_indented`."""
    if type(obj) is list and obj:
        return _layout(obj, newline, memo, _indented)
    if _keyed(obj):
        return _layout(obj, newline, memo, _walked)
    return (_indented(obj, newline, memo),)


def _keyed(obj: object) -> bool:  # a nonempty dict with str keys
    return type(obj) is dict and bool(obj) and all(type(k) is str for k in obj)


def _layout(obj: Iterable, newline: str, memo: dict, value: Callable) -> Iterator[str]:
    """`obj`, a nonempty list or dict with str keys, in pieces of the layout
    `json.dumps(indent=2)` gives it below `newline`, the line break plus the
    current indent; `value(v, inner, memo)` gives each member's text, or its
    pieces, one indent deeper."""
    keyed, inner = type(obj) is dict, newline + "  "
    separator = ("{" if keyed else "[") + inner
    heads = (json.dumps(k) + ": " for k in obj) if keyed else itertools.repeat("")
    for head, v in zip(heads, obj.values() if keyed else obj):
        yield separator + head
        text = value(v, inner, memo)
        yield from (text,) if type(text) is str else text
        separator = "," + inner
    yield newline + ("}" if keyed else "]")


def _indented(obj: object, newline: str, memo: dict) -> str:
    """`obj` as `json.dumps(obj, indent=2)` nests it below `newline`, the
    line break plus the current indent."""
    if type(obj) is str:
        return json.dumps(obj)
    if type(obj) is int:
        return str(obj)
    if type(obj) is list and obj:
        # a list of ints, or of such lists, met again as the same object
        # (they all live until `_emit` returns) is not read twice
        same = (newline, id(obj))
        text = memo.get(same)
        if text is not None:
            return text
        kinds = set(map(type, obj))
        if kinds == {int}:
            key = (newline, tuple(obj))
        elif kinds == {list} and set(map(type, itertools.chain.from_iterable(obj))) <= {int}:
            key = (newline, tuple(map(tuple, obj)))
        else:
            key = None
        text = memo.get(key)
        if text is None:
            text = "".join(_layout(obj, newline, memo, _indented))
            if key is not None:
                memo[key] = memo[same] = text
        return text
    if _keyed(obj):
        return "".join(_layout(obj, newline, memo, _indented))
    if obj is None or type(obj) in (bool, float) or (type(obj) in (list, dict) and not obj):
        # no line break in these, so json's C encoder gives the indented text
        return json.dumps(obj)
    # anything else: json's own text, with its line breaks shifted to this depth
    return json.dumps(obj, indent=2).replace("\n", newline)


def _typeset(args: argparse.Namespace) -> core.TomTypeSet:
    return core.TomTypeSet.from_obj(_read_json(args.input))


def _collection(args: argparse.Namespace) -> subdivision.SubgraphCollection:
    return subdivision.SubgraphCollection.from_obj(_read_json(args.input))


def _emit_obj(apply: Callable[[argparse.Namespace], object]) -> Handler:
    def handler(args: argparse.Namespace) -> int:
        out = apply(args)
        if isinstance(out, core.TomTypeSet):
            _emit_types(out)
        else:
            _emit(out.to_obj())
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
    a, b = (core.Type(m.n, m.d, tuple(m.rows[i - 1].tolist())) for i in (args.a, args.b))
    found = axioms.elimination_witnesses(m, a, b, args.pos)
    if args.all:
        _emit({"witnesses": [t.to_obj() for t in found]})
    else:
        _emit({"witness": found[0].to_obj() if found else None})
    return 0 if found else 1


def _enumerate(args: argparse.Namespace) -> int:
    tris = subdivision.enumerate_triangulations(args.n, args.d)
    if args.count:
        _emit({"n": args.n, "d": args.d, "count": len(tris)})
    else:
        first, comma, close = _layout([0, 0], "\n    ", {}, lambda *_: ())
        cells = {c.edges: c for t in tris for c in t.cells}  # one text per distinct cell
        texts = dict(zip(cells, map(_cell_text("\n      "), cells.values())))
        _emit_listed({"n": args.n, "d": args.d, "count": len(tris), "triangulations": tris},
                     "triangulations",
                     lambda t: first + comma.join([texts[c.edges] for c in t.cells]) + close)
    return 0


def _from_tom(args: argparse.Namespace) -> int:
    c = subdivision.tom_to_subdivision(_typeset(args))
    _emit_listed({"n": c.n, "d": c.d, "cells": c.cells}, "cells", _cell_text("\n    "))
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
        "from-tom": (_from_tom, [_INPUT]),
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
