"""Reports of the `quantum` and `demo` commands: interval propositions,
generated axioms, and the built-in worked example.

These need the interval and uncertainty code (`quantum`, `fractions`), so
`check` and `table` never load this module.

Everything a listing prints is written from the incompatible (momentum,
position) pairs of `quantum.generate`, as text, by `_axiom_fields`: no
formula node and no per-axiom dict is built for it.
Text lines are formatted straight from those fields, and JSON entries are
written one at a time, each filling one template (`_axioms_slot`), so
`json` is loaded only there.  The demo's report holds its axioms as dicts,
and its text is rendered from them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .classical import TruthTable, is_tautology, truth_table
from .cli import _check_json, _check_lines
from .epistemic import CheckResult, Theory, is_satisfiable, is_valid
from .quantum import (
    IntervalProposition,
    ObservableKind,
    PhysicsConfig,
    compatible,
    generate,
    merge,
    uncertainty_product,
)
from .syntax import parse, render
from .tables import _table_json, _table_text


def _axiom_fields(
    pairs: tuple[tuple[IntervalProposition, IntervalProposition], ...],
) -> Iterator[tuple[str, str, str, str, str, str]]:
    """Per incompatible pair, in order: its formula, momentum, position,
    widths and product, as text.  The formula is written from the atom
    names, as render prints K(m) -> !K(x); each width is turned into text
    once per proposition, and each product once per distinct pair of width
    texts."""
    props = {id(p): p for pair in pairs for p in pair}
    widths = {key: (p.width, str(p.width)) for key, p in props.items()}
    products: dict[tuple[str, str], str] = {}
    for m, x in pairs:
        (m_width, m_text), (x_width, x_text) = widths[id(m)], widths[id(x)]
        key = m_text, x_text
        if key not in products:
            products[key] = str(m_width * x_width)
        yield f"K({m.atom}) -> !K({x.atom})", m.atom, x.atom, m_text, x_text, products[key]


def _axiom_json(
    formula: str, momentum: str, position: str, m_width: str, x_width: str, product: str, bound: str
) -> dict:
    return {
        "formula": formula,
        "momentum": momentum,
        "position": position,
        "widths": [m_width, x_width],
        "product": product,
        "bound": bound,
    }


def _entry_fields(entry: dict) -> tuple[str, str, str, str, str, str]:
    """The fields of one report entry written by _axiom_json, in
    _axiom_fields' order."""
    return entry["formula"], entry["momentum"], entry["position"], *entry["widths"], entry["product"]


def _axioms_slot(
    pairs: tuple[tuple[IntervalProposition, IntervalProposition], ...], bound: str
) -> tuple[str, Callable[[str], Iterator[str]]]:
    """The `axioms` slot of a `quantum` report for cli._print_json: given
    the line break and indentation of the key's line, the chunks that
    json.dumps(..., indent=2) prints for the list of _axiom_json(*fields,
    bound) over _axiom_fields(pairs), one entry per chunk.  Every entry
    fills one template, json.dumps of a placeholder entry, with its strings
    encoded as json.dumps encodes them."""

    def items(indent: str) -> Iterator[str]:
        import json
        from json.encoder import encode_basestring_ascii as encode

        item = indent + "  "
        placeholder = json.dumps(_axiom_json(*["%s"] * 6, bound), indent=2)
        template = placeholder.replace("%", "%%").replace('"%%s"', "%s").replace("\n", item)
        sep = "[" + item
        for fields in _axiom_fields(pairs):
            yield sep + template % tuple(map(encode, fields))
            sep = "," + item
        yield indent + "]" if pairs else "[]"

    return "axioms", items


def _proposition_json(p: IntervalProposition) -> dict:
    return {
        "atom": p.atom,
        "kind": p.kind.value,
        "interval": [str(p.lo), str(p.hi)],
        "width": str(p.width),
    }


def _axiom_lines(fields: Iterable[tuple[str, ...]], bound: str) -> list[str]:
    """One line per axiom, from _axiom_fields or _entry_fields."""
    lines = [
        f"{formula}   [widths {m_width} * {x_width} = {product} < {bound}]"
        for formula, _, _, m_width, x_width, product in fields
    ]
    return lines or ["no axioms generated"]


def _proposition_line(p: dict) -> str:
    lo, hi = p["interval"]
    return f"{p['atom']}: {p['kind']} in [{lo}, {hi}]  (width {p['width']})"


def _product_line(m: IntervalProposition, x: IntervalProposition, label: str, cfg: PhysicsConfig) -> str:
    rel, verdict = (">=", "compatible") if compatible(m, x, cfg) else ("<", "incompatible")
    product = uncertainty_product(m, x)
    return f"{m.atom} with {label}: {m.width} * {x.width} = {product} {rel} {cfg.bound}: {verdict}"


def _demo_report() -> tuple[dict, TruthTable]:
    """The demo's report, and the truth table that fills its `rows` list."""
    p = IntervalProposition("p", ObservableKind.MOMENTUM, Fraction(0), Fraction(1, 6))
    q = IntervalProposition("q", ObservableKind.POSITION, Fraction(-1), Fraction(1))
    r = IntervalProposition("r", ObservableKind.POSITION, Fraction(1), Fraction(3))
    s = merge(q, r, "s")
    config = PhysicsConfig()
    bound = str(config.bound)
    generated = generate((p, q, r), config)
    distributivity = parse("p & (q | r) <-> (p & q) | (p & r)")
    table = truth_table((parse("p & (q | r)"), parse("(p & q) | (p & r)")), generated.constraints)

    def query(text: str, decide: Callable[..., CheckResult], theory: Theory) -> dict:
        f = parse(text)
        return {"formula": render(f), **_check_json(decide(f, theory))}

    report = {
        "command": "demo",
        "propositions": [_proposition_json(x) for x in (p, q, r)],
        "uncertainty": {
            "bound": bound,
            "products": [
                _product_line(p, s, f"the full position range [{s.lo}, {s.hi}]", config),
                _product_line(p, q, q.atom, config),
                _product_line(p, r, r.atom, config),
            ],
        },
        "classical_distributivity": {
            "formula": render(distributivity),
            "verdict": "TAUTOLOGY" if is_tautology(distributivity).holds else "NOT A TAUTOLOGY",
        },
        "table": _table_json(table),
        "axioms": [_axiom_json(*fields, bound) for fields in _axiom_fields(generated.pairs)],
        "joint_knowledge": query("K(p) & (K(q) | K(r))", is_satisfiable, generated.axioms),
        "k_distribution": {
            "conjunction_law": query("K(a & b) <-> K(a) & K(b)", is_valid, Theory()),
            "disjunction_distribution": query("K(a | b) -> K(a) | K(b)", is_valid, Theory()),
        },
        "merge": {
            "merged": _proposition_json(s),
            **query("K(p & s) <-> K(p) & K(s)", is_satisfiable, Theory()),
        },
    }
    return report, table


def _query_lines(report: dict) -> list[str]:
    """A formula's verdict on one line, then the model that shows it."""
    verdict, *model = _check_lines(report)
    return [f"{report['formula']}: {verdict}", *model]


def _demo_lines(report: dict, table: TruthTable) -> list[str]:
    """The demo's text: the sections of `report` under numbered headings,
    with `table`, whose rows the report leaves out, as section (4)."""
    _, q, r = propositions = report["propositions"]
    k, merged = report["k_distribution"], report["merge"]

    def indent(body: list[str]) -> list[str]:
        return ["  " + line for line in body]

    sections = [
        ("(1) interval propositions", indent([_proposition_line(x) for x in propositions])),
        (
            f"(2) uncertainty products, bound {report['uncertainty']['bound']}",
            indent(report["uncertainty"]["products"]),
        ),
        ("(3) classical distributivity", indent(_query_lines(report["classical_distributivity"]))),
        (
            "(4) truth table under the physical constraints",
            "".join(_table_text(table, "text")).splitlines(),
        ),
        (
            "(5) generated axioms",
            indent(_axiom_lines(map(_entry_fields, report["axioms"]), report["uncertainty"]["bound"])),
        ),
        ("(6) joint knowledge under the axioms", indent(_query_lines(report["joint_knowledge"]))),
        (
            "(7) how K distributes",
            indent(_query_lines(k["conjunction_law"]) + _query_lines(k["disjunction_distribution"])),
        ),
        (
            f"(8) coarse position s = merge({q['atom']}, {r['atom']})",
            indent([_proposition_line(merged["merged"]), *_query_lines(merged)]),
        ),
    ]
    return [line for heading, body in sections for line in ("", heading, *body)][1:]
