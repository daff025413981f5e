"""Spans around the calls into klogic's public functions.

The tracer replaces each function listed in LAYERS wherever a klogic module
holds it, both where it is defined and where another module imported it by
name (`klogic.cli` imports `parse`, `is_valid`, `truth_table` and the rest
that way).  A call into a layer whose innermost open span is already that
layer records no new span: `epistemic.is_valid` reaches the patched
`is_satisfiable` through its module global, and that is one query.

Spans stay in memory as [layer, parent index, start, end, attrs] and are
written out once the traced pass ends; self time is computed afterwards as a
span's duration minus the durations of its children.
"""

from __future__ import annotations

import sys
from time import perf_counter

from workloads import atoms_of

LAYERS = {
    "cli.main": [("klogic.cli", "main")],
    "syntax.parse": [("klogic.syntax", "parse")],
    "syntax.render": [("klogic.syntax", "render")],
    "declarations.load": [("klogic.declarations", name)
                          for name in ("load_declarations", "load_theory", "load_constraints")],
    "quantum.generate": [("klogic.quantum", "generate")],
    "classical": [("klogic.classical", "truth_table"), ("klogic.classical", "is_tautology")],
    "epistemic": [("klogic.epistemic", "is_valid"), ("klogic.epistemic", "is_satisfiable")],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "klogic" or name.startswith("klogic.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(layer, attr, original)
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, stack[-1] if stack else None, 0.0, 0.0, {"fn": name}]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4]["raised"] = True
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            _keep(layer, span[4], args, kwargs, result)
            return result

        return wrapper

    def export(self) -> list[list]:
        """The spans as JSON data; formulas become the benchmark's tuples."""
        for _, _, _, _, attrs in self.spans:
            if "witness" in attrs:  # is_tautology: valuations visited
                f, witness = attrs.pop("formula"), attrs.pop("witness")
                n = len(atoms_of(from_klogic(f)))
                attrs["valuations"] = (1 << n) if witness is None else 1 + int(
                    "".join("1" if b else "0" for b in witness.bits) or "0", 2)
            if "query" in attrs:
                f, theory = attrs.pop("query")
                attrs["formula"] = from_klogic(f)
                attrs["axioms"] = [from_klogic(a) for a in (theory.axioms if theory else ())]
        return self.spans


def _keep(layer: str, attrs: dict, args: tuple, kwargs: dict, result) -> None:
    """Work counts, taken after the span closed.  What costs more than a
    length is kept as objects and turned into numbers by `export`."""
    if layer == "syntax.parse":
        attrs["chars"] = len(args[0])
    elif layer == "declarations.load":
        attrs["path"] = args[0]
    elif layer == "quantum.generate":
        kinds = [p.kind.value for p in args[0]]
        attrs["pairs"] = kinds.count("momentum") * kinds.count("position")
        attrs["axioms"] = len(result.provenance)
    elif layer == "classical":
        if attrs["fn"] == "truth_table":
            attrs["valuations"] = len(result.rows)
        else:
            attrs["formula"], attrs["witness"] = args[0], result.witness
    elif layer == "epistemic":
        attrs["query"] = (args[0], kwargs.get("theory", args[1] if len(args) > 1 else None))


def from_klogic(f) -> tuple:
    """A klogic formula as the benchmark's tuple form (see workloads.py)."""
    from klogic import syntax

    if isinstance(f, syntax.Var):
        return ("v", f.name)
    if isinstance(f, syntax.Top):
        return ("T",)
    if isinstance(f, syntax.Bottom):
        return ("F",)
    if isinstance(f, syntax.Not):
        return ("!", from_klogic(f.operand))
    if isinstance(f, syntax.Know):
        return ("K", from_klogic(f.operand))
    tag = {syntax.And: "&", syntax.Or: "|", syntax.Implies: "->", syntax.Iff: "<->"}[type(f)]
    return (tag, from_klogic(f.left), from_klogic(f.right))
