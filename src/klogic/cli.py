"""Command-line interface.

Four subcommands: `check` decides epistemic queries, `table` prints
constrained truth tables, `quantum` turns interval declarations into
axioms, and `demo` walks the built-in worked example end to end.

Exit codes: 0 for an affirmative verdict (valid, satisfiable, or plain
output), 1 for a negative verdict (invalid, unsatisfiable), 2 for usage,
parse, or input-file errors and for output that could not be written.
Identical invocations produce byte-identical output; the engine's
canonical enumeration order makes every reported model reproducible.

Each command builds one report, the dict that `--format json` prints.
Its text output is rendered from that dict and shows part of it; only
`table` renders text and CSV straight from its `TruthTable`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from itertools import product, repeat
from typing import Callable, Iterator

from . import classical, epistemic
from .classical import ConstraintSet, TruthTable, is_tautology, truth_table
from .declarations import format_declarations, load_constraints, load_declarations, load_theory
from .epistemic import (
    CheckResult,
    EpistemicModel,
    Theory,
    Verdict,
    is_satisfiable,
    is_valid,
)
from .errors import LogicError, ModalOperatorPresent
from .quantum import (
    GeneratedTheory,
    IntervalProposition,
    ObservableKind,
    PhysicsConfig,
    compatible,
    generate,
    merge,
    uncertainty_product,
)
from .syntax import Formula, modal_depth, parse, render

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

_ATOM_LIMIT_HELP = (
    "override the atom limit; modal search enumerates 2^(2^n) candidate "
    "cells over n atoms, so raise with care"
)


def _atom_limit(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_atom_limit(p: argparse.ArgumentParser, default: int) -> None:
    p.add_argument(
        "--atom-limit", type=_atom_limit, default=default, metavar="N", help=_ATOM_LIMIT_HELP
    )


def _model_json(model: EpistemicModel) -> dict:
    return {
        "atoms": list(model.atoms),
        "worlds": [[1 if b else 0 for b in world.bits] for world in model.cell],
        "designated": model.designated,
    }


def _check_json(result: CheckResult) -> dict:
    out: dict = {"verdict": result.verdict.name}
    if result.verdict is Verdict.INVALID:
        out["countermodel"] = _model_json(result.model)
    elif result.verdict is Verdict.SATISFIABLE:
        out["model"] = _model_json(result.model)
    return out


def _model_lines(model: dict, label: str) -> list[str]:
    lines = [f"{label}:", f"  atoms: {' '.join(model['atoms'])}"]
    for i, bits in enumerate(model["worlds"]):
        tag = "  [designated]" if i == model["designated"] else ""
        lines.append(f"  world {i}: {' '.join(map(str, bits))}{tag}")
    return lines


def _check_lines(report: dict) -> list[str]:
    lines = [report["verdict"]]
    for key in ("countermodel", "model"):
        if key in report:
            lines.extend(_model_lines(report[key], key))
    return lines


def _query_lines(report: dict) -> list[str]:
    """A formula's verdict on one line, then the model that shows it."""
    verdict, *model = _check_lines(report)
    return [f"{report['formula']}: {verdict}", *model]


def _by_row(columns: tuple[str, ...], rows: int) -> Iterator[tuple[str, ...]]:
    """The characters of equally long bit strings, one tuple per row."""
    return zip(*columns) if columns else repeat((), rows)


def _table_lines(table: TruthTable) -> list[str]:
    """`*` marks excluded rows; their formula cells render as `x`."""
    headers = [render(f) for f in table.formulas]
    widths = [len(h) for h in headers]
    lines = [("  " + " ".join(table.atoms) + "  " + "  ".join(headers)).rstrip()]
    valuations = product(*[("0".ljust(len(a)), "1".ljust(len(a))) for a in table.atoms])
    excluded_cells = "  ".join("x".ljust(w) for w in widths)
    rows = _by_row(table.formula_bits, len(table.excluded))
    for bits, excluded, values in zip(valuations, table.excluded, rows):
        if excluded == "1":
            line = "* " + " ".join(bits) + "  " + excluded_cells
        else:
            line = "  " + " ".join(bits) + "  " + "  ".join(map(str.ljust, values, widths))
        lines.append(line.rstrip())
    return lines


def _table_csv(table: TruthTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["excluded"] + list(table.atoms) + [render(f) for f in table.formulas])
    excluded_cells = ["x"] * len(table.formulas)
    writer.writerows(
        ["*", *bits, *excluded_cells] if excluded == "1" else ["", *bits, *values]
        for bits, excluded, values in zip(
            product("01", repeat=len(table.atoms)),
            table.excluded,
            _by_row(table.formula_bits, len(table.excluded)),
        )
    )
    return buf.getvalue()


def _table_json(table: TruthTable) -> dict:
    """A table report; its rows are written into the empty `rows` list by
    _print_json."""
    return {
        "atoms": list(table.atoms),
        "formulas": [render(f) for f in table.formulas],
        "rows": [],
    }


# How json.dumps(..., indent=2) prints the empty `rows` list of a table
# report.  It marks one place only: "rows" is the only key of that name in
# a table or demo report, and the quotes of a string value are escaped.
_ROWS_SLOT = '"rows": []'


def _json_rows(table: TruthTable, level: int) -> Iterator[str]:
    """The rows of `table` as json.dumps(..., indent=2) prints a report's
    `rows` list whose key is indented `level` steps, in pieces.

    A row is its valuation followed by a tail that depends only on the
    row's excluded flag, formula values and constraint values.  Tables have
    few distinct tails; each is printed by json.dumps once and reused.
    """
    nl = ["\n" + "  " * (level + k) for k in range(4)]
    names = [render(c) for c in table.constraints]
    close = nl[2] + "]," if table.atoms else "],"
    tails: dict[tuple, str] = {}

    def tail(excluded: str, values: tuple[str, ...], held: tuple[str, ...]) -> str:
        text = json.dumps(
            {
                "excluded": excluded == "1",
                "violated": [name for name, b in zip(names, held) if b == "0"],
                "values": None if excluded == "1" else [int(v) for v in values],
            },
            indent=2,
        )
        # Without its "{", the dict printed at the top level is the row's
        # remaining keys and closing brace, once indented to the row's depth.
        return close + text[1:].replace("\n", nl[1])

    open_row = nl[1] + "{" + nl[2] + '"valuation": ['
    start = "[" + open_row
    size = len(table.excluded)
    for bits, key in zip(
        product(*[(nl[3] + "0", nl[3] + "1")] * len(table.atoms)),
        zip(
            table.excluded,
            _by_row(table.formula_bits, size),
            _by_row(table.constraint_bits, size),
        ),
    ):
        end = tails.get(key)
        if end is None:
            end = tails[key] = tail(*key)
        yield start + ",".join(bits) + end
        start = "," + open_row
    yield nl[0] + "]"


def _axioms_json(gen: GeneratedTheory) -> list[dict]:
    return [
        {
            "formula": render(ax),
            "momentum": pv.momentum.atom,
            "position": pv.position.atom,
            "widths": [str(pv.momentum.width), str(pv.position.width)],
            "product": str(pv.product),
            "bound": str(pv.bound),
        }
        for ax, pv in zip(gen.axioms.axioms, gen.provenance)
    ]


def _proposition_json(p: IntervalProposition) -> dict:
    return {
        "atom": p.atom,
        "kind": p.kind.value,
        "interval": [str(p.lo), str(p.hi)],
        "width": str(p.width),
    }


def _axiom_lines(axioms: list[dict]) -> list[str]:
    if not axioms:
        return ["no axioms generated"]
    return [
        f"{a['formula']}   [widths {' * '.join(a['widths'])} = {a['product']} < {a['bound']}]"
        for a in axioms
    ]


def _proposition_line(p: dict) -> str:
    lo, hi = p["interval"]
    return f"{p['atom']}: {p['kind']} in [{lo}, {hi}]  (width {p['width']})"


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _print_json(report: dict, table: TruthTable | None = None) -> None:
    """Write json.dumps(report, indent=2) and a newline.

    With a table, whose report holds an empty `rows` list, the table's rows
    are written in that list's place as they are produced, so the document
    is never held whole.
    """
    text = json.dumps(report, indent=2)
    if table is not None:
        head, _, text = text.partition(_ROWS_SLOT)
        sys.stdout.write(head + '"rows": ')
        indent = len(head) - head.rfind("\n") - 1
        sys.stdout.writelines(_json_rows(table, indent // 2))
    sys.stdout.write(text + "\n")


def _run_query(f: Formula, theory: Theory, mode: str, limit: int) -> CheckResult:
    if mode == "valid":
        return is_valid(f, theory, atom_limit=limit)
    return is_satisfiable(f, theory, atom_limit=limit)


def _cmd_check(args: argparse.Namespace) -> int:
    f = parse(args.formula)
    theory = load_theory(args.theory) if args.theory else Theory()
    result = _run_query(f, theory, args.mode, args.atom_limit)
    report = {
        "command": "check",
        "formula": render(f),
        "mode": args.mode,
        "theory": [render(a) for a in theory.axioms],
        **_check_json(result),
    }
    if args.format == "json":
        _print_json(report)
    else:
        _print("\n".join(_check_lines(report)))
    return EXIT_OK if result.holds else EXIT_NEGATIVE


def _cmd_table(args: argparse.Namespace) -> int:
    formulas = [parse(text) for text in args.formulas]
    for f in formulas:
        if modal_depth(f) != 0:
            raise ModalOperatorPresent(
                f"formula contains the knowledge operator: {render(f)} "
                f"(truth tables are classical; use the check command)"
            )
    if args.constraints:
        constraints = load_constraints(args.constraints)
    elif args.quantum:
        decls = load_declarations(args.quantum)
        constraints = generate(decls.propositions, decls.config).constraints
    else:
        constraints = ConstraintSet()
    table = truth_table(formulas, constraints, atom_limit=args.atom_limit)
    if args.format == "csv":
        _print(_table_csv(table))
    elif args.format == "json":
        report = {"command": "table"}
        report.update(_table_json(table))
        report["constraints"] = [render(c) for c in constraints]
        _print_json(report, table)
    else:
        _print("\n".join(_table_lines(table)))
    return EXIT_OK


def _cmd_quantum(args: argparse.Namespace) -> int:
    decls = load_declarations(args.declarations)
    gen = generate(decls.propositions, decls.config)
    check = None
    if args.check is not None:
        f = parse(args.check)
        result = _run_query(f, gen.axioms, args.mode, args.atom_limit)
        check = {"formula": render(f), "mode": args.mode, **_check_json(result)}

    as_json = args.format == "json"
    report: dict = {"command": "quantum", "bound": str(decls.config.bound)}
    # Text prints no propositions or constraints, and axioms only on request;
    # on a large file rendering them costs more than generating them.
    if as_json:
        report["propositions"] = [_proposition_json(p) for p in decls.propositions]
    if as_json or args.list_axioms:
        report["axioms"] = _axioms_json(gen)
    if as_json:
        report["constraints"] = [render(c) for c in gen.constraints]
    if check is not None:
        report["check"] = check

    if as_json:
        _print_json(report)
    else:
        lines = format_declarations(decls).splitlines() if args.echo else []
        if args.list_axioms:
            lines.extend(_axiom_lines(report["axioms"]))
        if check is not None:
            lines.extend(_check_lines(check))
        summary = (
            f"{len(decls.propositions)} propositions, {len(gen.axioms.axioms)} axioms, "
            f"{len(gen.constraints)} constraints, bound {report['bound']}"
        )
        _print("\n".join(lines or [summary]))
    return EXIT_OK if check is None or result.holds else EXIT_NEGATIVE


def _product_line(m: IntervalProposition, x: IntervalProposition, label: str, bound: Fraction) -> str:
    product = uncertainty_product(m, x)
    rel = ">=" if product >= bound else "<"
    verdict = "compatible" if compatible(m, x, PhysicsConfig(bound)) else "incompatible"
    return f"{m.atom} with {label}: {m.width} * {x.width} = {product} {rel} {bound}: {verdict}"


def _demo_report() -> tuple[dict, TruthTable]:
    """The demo's report, and the truth table that fills its `rows` list."""
    p = IntervalProposition("p", ObservableKind.MOMENTUM, Fraction(0), Fraction(1, 6))
    q = IntervalProposition("q", ObservableKind.POSITION, Fraction(-1), Fraction(1))
    r = IntervalProposition("r", ObservableKind.POSITION, Fraction(1), Fraction(3))
    s = merge(q, r, "s")
    config = PhysicsConfig()
    bound = config.bound
    gen = generate((p, q, r), config)
    distributivity = parse("p & (q | r) <-> (p & q) | (p & r)")
    table = truth_table((parse("p & (q | r)"), parse("(p & q) | (p & r)")), gen.constraints)

    def query(text: str, decide: Callable[..., CheckResult], theory: Theory) -> dict:
        f = parse(text)
        return {"formula": render(f), **_check_json(decide(f, theory))}

    report = {
        "command": "demo",
        "propositions": [_proposition_json(x) for x in (p, q, r)],
        "uncertainty": {
            "bound": str(bound),
            "products": [
                _product_line(p, s, f"the full position range [{s.lo}, {s.hi}]", bound),
                _product_line(p, q, q.atom, bound),
                _product_line(p, r, r.atom, bound),
            ],
        },
        "classical_distributivity": {
            "formula": render(distributivity),
            "verdict": "TAUTOLOGY" if is_tautology(distributivity).holds else "NOT A TAUTOLOGY",
        },
        "table": _table_json(table),
        "axioms": _axioms_json(gen),
        "joint_knowledge": query("K(p) & (K(q) | K(r))", is_satisfiable, gen.axioms),
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
        ("(4) truth table under the physical constraints", _table_lines(table)),
        ("(5) generated axioms", indent(_axiom_lines(report["axioms"]))),
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


def _cmd_demo(args: argparse.Namespace) -> int:
    report, table = _demo_report()
    if args.format == "json":
        _print_json(report, table)
    else:
        _print("\n".join(_demo_lines(report, table)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klogic",
        description="Epistemic propositional logic for quantum experimental propositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide validity or satisfiability of a formula")
    p.add_argument("formula", help="formula to check")
    p.add_argument("--theory", metavar="PATH", help="global axioms, one formula per line")
    p.add_argument("--mode", choices=("valid", "sat"), default="valid")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_atom_limit(p, epistemic.DEFAULT_MODAL_ATOM_LIMIT)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("table", help="print a constrained truth table (K-free formulas)")
    p.add_argument("formulas", nargs="+", metavar="FORMULA")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--constraints", metavar="PATH", help="K-free constraints, one per line")
    group.add_argument(
        "--quantum", metavar="PATH", help="declaration file; its generated constraints apply"
    )
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_atom_limit(p, classical.DEFAULT_ATOM_LIMIT)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("quantum", help="generate epistemic axioms from interval declarations")
    p.add_argument("declarations", metavar="DECL", help="declaration file")
    p.add_argument("--list-axioms", action="store_true", help="print each axiom with provenance")
    p.add_argument("--echo", action="store_true", help="print the declarations in canonical form")
    p.add_argument("--check", metavar="FORMULA", help="query under the generated axioms")
    p.add_argument("--mode", choices=("valid", "sat"), default="valid")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_atom_limit(p, epistemic.DEFAULT_MODAL_ATOM_LIMIT)
    p.set_defaults(handler=_cmd_quantum)

    p = sub.add_parser("demo", help="run the built-in worked example end to end")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:  # argparse has printed help or a usage error
            code = EXIT_ERROR if e.code not in (0, None) else EXIT_OK
        else:
            code = args.handler(args)
        sys.stdout.flush()
    except LogicError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:  # input files are read by declarations: this is stdout
        print(f"error: cannot write output: {e.strerror}", file=sys.stderr)
        # What stdout still holds would fail again when Python flushes it at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    return code


def run() -> None:
    sys.exit(main())
