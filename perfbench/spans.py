"""Spans around calls into the library's public functions.

``install()`` replaces each traced function, in its own module and in every
``tropom`` module that imported it by name, with a wrapper that records a
span (layer, function, start, end, time inside child spans) in memory.  The
library's source is not touched; ``uninstall()`` puts the originals back.
``per_layer()`` turns the spans into self times (a span's duration minus
the spans it directly contains) and counts.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> traced functions of tropom.<layer>
TRACED = {
    "core": ("dual",),
    "arrangement": ("arrangement_tom", "vertex_points"),
    "structure": ("refinement_closure", "reconstruct_from_topes", "topes", "vertices"),
    "axioms": (
        "check_axioms",
        "check_boundary",
        "check_elimination",
        "check_comparability",
        "check_surrounding",
    ),
    "subdivision": (
        "enumerate_triangulations",
        "triangulation_types",
        "check_subdivision",
        "tom_to_subdivision",
    ),
    "cayley": ("verify_transition_rules", "embed", "render_svg"),
}
LAYERS = ("cli", *TRACED)
COUNTS = (
    "arrangement.vertices",
    "structure.closure_types",
    "axioms.pairs",
    "axioms.elimination_violations",
    "axioms.comparability_violations",
    "axioms.surrounding_violations",
    "subdivision.triangulations",
    "cli.steps",
    "cli.out_bytes",
)


def _count(name: str, args: tuple, result: object) -> dict[str, int]:
    """Counters taken at the call boundary from arguments and results."""
    if name == "vertex_points":
        return {"arrangement.vertices": len(result)}
    if name == "refinement_closure":
        return {"structure.closure_types": len(result)}
    if name == "check_axioms":
        return {"axioms.pairs": len(args[0]) ** 2}
    if name in ("check_elimination", "check_comparability", "check_surrounding"):
        axiom = name.removeprefix("check_")
        return {f"axioms.{axiom}_violations": len(result[1])}
    if name == "enumerate_triangulations":
        return {"subdivision.triangulations": len(result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, start, end, child_time, error]
        self.stack: list[list] = []
        self.counts: dict[str, int] = {}
        self.patched: list[tuple[object, str, object]] = []

    def open(self, layer: str, name: str) -> list:
        span = [layer, name, time.perf_counter(), 0.0, 0.0, False]
        self.stack.append(span)
        return span

    def close(self, span: list, error: bool = False) -> None:
        span[3] = time.perf_counter()
        span[5] = error
        self.stack.pop()
        if self.stack:
            self.stack[-1][4] += span[3] - span[2]
        self.spans.append(span)

    def add(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span)
            self.add(_count(name, args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("tropom")]
        for layer, names in TRACED.items():
            home = sys.modules[f"tropom.{layer}"]
            for name in names:
                fn = getattr(home, name)
                wrapped = self.wrap(layer, name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self.patched.append((module, attr, fn))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.patched):
            setattr(module, attr, fn)
        self.patched.clear()

    def per_layer(self) -> dict[str, float]:
        """Self seconds per traced function, calls and errors per layer, and
        the counters.  Every name is present, 0 where the layer never ran."""
        out: dict[str, float] = {f"{layer}.{name}_s": 0.0 for layer, names in TRACED.items() for name in names}
        out["cli.io_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = 0
        for key in COUNTS:
            out[key] = 0
        for layer, name, start, end, child, error in self.spans:
            key = "cli.io_s" if layer == "cli" else f"{layer}.{name}_s"
            out[key] += end - start - child
            out[f"{layer}.calls"] += 1
            out[f"{layer}.errors"] += error
        out.update(self.counts)
        return out

    def covered(self) -> float:
        """Seconds inside root spans (the CLI steps)."""
        return sum(s[3] - s[2] for s in self.spans if s[0] == "cli")
