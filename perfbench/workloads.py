"""Workload definitions: seeded inputs, the CLI steps of one pass, and the
output checks.

A workload is a small object with three jobs:

* ``generate(seed)`` makes the input files (name -> JSON text).  It is the
  only place that calls the library directly, and it runs before timing.
* ``steps(inputs)`` lists the CLI invocations of one pass.  A step reads its
  stdin from an input file or from the stdout of an earlier step, so a pass
  is a pipeline a user could type.
* ``check(inputs, outputs)`` returns one failure reason per step ("" when
  the step is fine).  Checks only parse the JSON/SVG text; they never call
  the library, so a broken library cannot vouch for itself.

Each step carries the end-to-end stage metrics it counts toward (tags).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 7

# Known triangulation counts of the product of simplices Delta_{n-1} x Delta_{d-1}.
TRIANGULATION_COUNTS = {(3, 3): 108, (4, 3): 4488}


@dataclass(frozen=True)
class Step:
    id: str
    argv: tuple[str, ...]
    stdin: str  # an input file name, or the id of an earlier step
    rc: int  # expected exit code
    tags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# helpers shared by the checks (standard library only)


def _types(obj: dict) -> list[tuple[frozenset[int], ...]]:
    return [tuple(frozenset(c) for c in t) for t in obj["types"]]


def _is_vertex(t: tuple[frozenset[int], ...], d: int) -> bool:
    """One direction component: directions sharing a coordinate are joined."""
    parent = list(range(d + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for coord in t:
        first, *rest = coord
        for j in rest:
            parent[find(j)] = find(first)
    return len({find(j) for j in range(1, d + 1)}) == 1


def _cells(obj: dict) -> frozenset[frozenset[tuple[int, int]]]:
    return frozenset(frozenset((i, j) for i, j in cell) for cell in obj["cells"])


def _total_refinement(t: tuple[int, ...], rank: list[int]) -> tuple[int, ...]:
    out = []
    for mask in t:
        best = max((j for j in range(len(rank)) if mask >> j & 1), key=rank.__getitem__)
        out.append(1 << best)
    return tuple(out)


def _masks(t: list[list[int]]) -> tuple[int, ...]:
    return tuple(sum(1 << (j - 1) for j in coord) for coord in t)


def _dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Verdict:
    """Apexes -> type set -> axiom verdict -> dual (-> topes -> reconstruction)."""

    n: int
    d: int
    reconstruct: bool = False

    def generate(self, seed: int) -> dict[str, str]:
        from tropom.arrangement import random_generic_arrangement

        arr = random_generic_arrangement(self.n, self.d, seed=seed)
        return {"arrangement.json": _dump(arr.to_obj())}

    def steps(self, inputs: dict[str, str]) -> list[Step]:
        out = [
            Step("from-arrangement", ("tom", "from-arrangement"), "arrangement.json", 0, ("verdict",)),
            Step("check", ("tom", "check"), "from-arrangement", 0, ("verdict",)),
            Step("dual", ("tom", "dual"), "from-arrangement", 0),
        ]
        if self.reconstruct:
            out += [
                Step("topes", ("tom", "topes"), "from-arrangement", 0),
                Step("reconstruct-topes", ("tom", "reconstruct-topes"), "topes", 0),
            ]
        return out

    def check(self, inputs: dict[str, str], outputs: dict[str, str]) -> dict[str, str]:
        n, d = self.n, self.d
        why = {}
        tom = json.loads(outputs["from-arrangement"])
        types = _types(tom)
        verts = sum(_is_vertex(t, d) for t in types)
        want = math.comb(n + d - 2, n - 1)
        if (tom["n"], tom["d"]) != (n, d) or len(set(types)) != len(types):
            why["from-arrangement"] = "wrong shape or repeated types"
        elif verts != want:
            why["from-arrangement"] = f"{verts} vertices, expected {want}"
        if json.loads(outputs["check"]).get("ok") is not True:
            why["check"] = "verdict is not ok on an arrangement's type set"
        dual = json.loads(outputs["dual"])
        if (dual["n"], dual["d"]) != (d, n) or not dual["types"]:
            why["dual"] = "dual has the wrong shape"
        if self.reconstruct:
            topes = _types(json.loads(outputs["topes"]))
            want_topes = {t for t in types if all(len(c) == 1 for c in t)}
            if set(topes) != want_topes:
                why["topes"] = "topes are not the singleton types of the set"
            if outputs["reconstruct-topes"] != outputs["from-arrangement"]:
                why["reconstruct-topes"] = "reconstruction differs from from-arrangement"
        return why


@dataclass(frozen=True)
class Census:
    """All triangulations, then a seeded sample through probe and render."""

    n: int
    d: int
    samples: int

    def generate(self, seed: int) -> dict[str, str]:
        from tropom.subdivision import enumerate_triangulations

        tris = enumerate_triangulations(self.n, self.d)
        picks = random.Random(seed).sample(range(len(tris)), min(self.samples, len(tris)))
        return {f"tri-{k:03d}.json": _dump(tris[i].to_obj()) for k, i in enumerate(picks)}

    def steps(self, inputs: dict[str, str]) -> list[Step]:
        n, d = str(self.n), str(self.d)
        out = [Step("enumerate", ("subdiv", "enumerate", "--n", n, "--d", d), "", 0, ("census",))]
        for name in sorted(inputs):
            k = name.removesuffix(".json")
            out += [
                Step(f"{k}/to-tom", ("subdiv", "to-tom"), name, 0, ("verdict", "probe")),
                Step(f"{k}/check", ("tom", "check"), f"{k}/to-tom", 0, ("verdict", "probe")),
                Step(f"{k}/from-tom", ("subdiv", "from-tom"), f"{k}/to-tom", 0, ("render",)),
                Step(f"{k}/verify-transitions", ("cayley", "verify-transitions"), f"{k}/from-tom", 0, ("render",)),
                Step(f"{k}/render", ("cayley", "render"), f"{k}/from-tom", 0, ("render",)),
            ]
        return out

    def check(self, inputs: dict[str, str], outputs: dict[str, str]) -> dict[str, str]:
        why = {}
        census = json.loads(outputs["enumerate"])
        listed = {frozenset(frozenset(map(tuple, c)) for c in tri) for tri in census["triangulations"]}
        want = TRIANGULATION_COUNTS.get((self.n, self.d))
        if census["count"] != len(census["triangulations"]) or len(listed) != census["count"]:
            why["enumerate"] = "count disagrees with the listed triangulations"
        elif want is not None and census["count"] != want:
            why["enumerate"] = f"{census['count']} triangulations, expected {want}"
        cells_per_tri = math.comb(self.n + self.d - 2, self.n - 1)
        seen: dict[frozenset, str] = {}
        for name in sorted(inputs):
            k = name.removesuffix(".json")
            tri = _cells(json.loads(inputs[name]))
            if tri not in listed:
                why.setdefault("enumerate", f"{name} is missing from the census")
            types = _types(json.loads(outputs[f"{k}/to-tom"]))
            key = frozenset(types)
            rows = range(1, self.n + 1)
            cells = {tuple(frozenset(j for i, j in cell if i == r) for r in rows) for cell in tri}
            if {t for t in types if _is_vertex(t, self.d)} != cells:
                why[f"{k}/to-tom"] = "the vertices of the type set are not the cells"
            elif key in seen:
                why[f"{k}/to-tom"] = f"same type set as {seen[key]}: not injective"
            seen[key] = k
            if json.loads(outputs[f"{k}/check"]).get("ok") is not True:
                why[f"{k}/check"] = "verdict is not ok on a triangulation's type set"
            back = _cells(json.loads(outputs[f"{k}/from-tom"]))
            if back != tri or len(back) != cells_per_tri:
                why[f"{k}/from-tom"] = "from-tom(to-tom(T)) != T"
            if json.loads(outputs[f"{k}/verify-transitions"]).get("ok") is not True:
                why[f"{k}/verify-transitions"] = "transition rules fail"
            svg = outputs[f"{k}/render"]
            if not svg.startswith("<svg") or not svg.endswith("</svg>\n"):
                why[f"{k}/render"] = "not a standalone SVG document"
        return why


@dataclass(frozen=True)
class Witness:
    """A valid type set with types removed, and with foreign types added.

    Removed types are non-vertices, so a vertex that refines to each one
    stays and a surrounding violation is certain.  Added types are drawn
    until one of their total refinements lies outside the set, for the same
    reason.  Both checks must exit 1."""

    n: int
    d: int
    removed: int
    added: int

    def generate(self, seed: int) -> dict[str, str]:
        from tropom.arrangement import arrangement_tom, random_generic_arrangement

        rng = random.Random(seed)
        arr = random_generic_arrangement(self.n, self.d, rng=rng)
        full = arrangement_tom(arr).to_obj()
        types = full["types"]
        d = self.d
        inner = [t for t in types if not _is_vertex(tuple(frozenset(c) for c in t), d)]
        gone = {_dump(t) for t in rng.sample(inner, self.removed)}
        have = {_masks(t) for t in types}
        orders = [rng.sample(range(d), d) for _ in range(8)]
        extra: list[list[list[int]]] = []
        while len(extra) < self.added:
            masks = tuple(rng.randrange(1, 1 << d) for _ in range(self.n))
            if masks in have or not any(_total_refinement(masks, o) not in have for o in orders):
                continue
            have.add(masks)
            extra.append([[j + 1 for j in range(d) if m >> j & 1] for m in masks])
        removed = dict(full, types=[t for t in types if _dump(t) not in gone])
        added = dict(full, types=types + extra)
        return {"removed.json": _dump(removed), "added.json": _dump(added)}

    def steps(self, inputs: dict[str, str]) -> list[Step]:
        return [
            Step("check-removed", ("tom", "check"), "removed.json", 1, ("verdict", "report")),
            Step("check-added", ("tom", "check"), "added.json", 1, ("verdict", "report")),
        ]

    def check(self, inputs: dict[str, str], outputs: dict[str, str]) -> dict[str, str]:
        why = {}
        for step, name in (("check-removed", "removed.json"), ("check-added", "added.json")):
            report = json.loads(outputs[step])
            size = len({_masks(t) for t in json.loads(inputs[name])["types"]})
            if report["ok"] is not False or report["size"] != size:
                why[step] = "a broken set was not reported as broken"
            elif not report["surrounding"]["violations"]:
                why[step] = "the planted surrounding violation is missing"
        return why


def violation_counts(report_text: str) -> dict[str, int]:
    report = json.loads(report_text)
    return {
        axiom: len(report[axiom]["violations"])
        for axiom in ("elimination", "comparability", "surrounding")
    }


WORKLOADS = {
    "verdict-6x4": Verdict(6, 4),
    "verdict-3x5": Verdict(3, 5, reconstruct=True),
    "census-4x3": Census(4, 3, samples=200),
    "witness": Witness(5, 4, removed=3, added=2),
}
