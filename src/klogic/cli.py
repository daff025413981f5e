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
import errno
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain, product, repeat
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

_MODAL_LIMIT_HELP = (
    "override the atom limit; modal search enumerates 2^(2^n) candidate "
    "cells over n atoms, so raise with care"
)
_CLASSICAL_LIMIT_HELP = (
    "override the atom limit; a truth table visits 2^n valuations over "
    "n atoms, so raise with care"
)


def _atom_limit(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_atom_limit(p: argparse.ArgumentParser, default: int, help: str) -> None:
    p.add_argument("--atom-limit", type=_atom_limit, default=default, metavar="N", help=help)


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


class _Tails(dict):
    """tail(*key) + marks[after] for every key (*key, after), each rendered
    on its first lookup."""

    def __init__(self, tail: Callable, marks: dict):
        self.tail, self.marks = tail, marks

    def __missing__(self, key: tuple) -> str:
        text = self[key] = self.tail(*key[:-1]) + self.marks[key[-1]]
        return text


def _rows(
    table: TruthTable, cell: Callable, sep: str, tail: Callable, marks: dict, *columns
) -> Iterator[str]:
    """The rows of `table` as text, one string per row.  A row is cell(bit,
    atom) per atom joined by `sep`, then tail(*key) + marks[next]: key holds
    the row's excluded flag, formula values and characters of `columns`; next
    is the next row's excluded flag, or "$" after the last row.  Valuations
    join one text per half of the atoms, tails are rendered once per distinct
    key, and no step per row runs Python code."""
    items = [tuple(sep * (k > 0) + cell(b, a) for b in "01") for k, a in enumerate(table.atoms)]
    h = len(items) // 2
    firsts, seconds = (["".join(t) for t in product(*p)] for p in (items[:h], items[h:]))
    keys = zip(table.excluded, *table.formula_bits, *columns, table.excluded[1:] + "$")
    tails = map(_Tails(tail, marks).__getitem__, keys)
    return chain.from_iterable(
        map("".join, zip(repeat(f, len(seconds)), seconds, tails)) for f in firsts
    )


def _table_text(table: TruthTable, fmt: str) -> Iterator[str]:
    """The table as text, or as csv.writer would write it, row by row.  A
    first column marks excluded rows with `*`; their formula cells are `x`."""
    headers = [render(f) for f in table.formulas]
    if fmt == "csv":
        # No atom name or rendered formula holds a comma, a quote or a line
        # break, so csv.writer quotes only a row whose only cell is empty.
        header, gap, widths = ",".join(["excluded", *table.atoms, *headers]), ",", repeat(0)
        marks = {"0": "\n" if table.atoms or headers else '\n""', "1": "\n*"}
        cell, sep = (lambda b, a: "," + b), ""
    else:
        header = ("  " + " ".join(table.atoms) + "  " + "  ".join(headers)).rstrip()
        gap, widths, marks = "  ", list(map(len, headers)), {"0": "\n  ", "1": "\n* "}
        cell, sep = (lambda b, a: b.ljust(len(a))), " "
    marks["$"] = "\n"

    def tail(excluded: str, *values: str) -> str:
        cells = "x" * len(values) if excluded == "1" else values
        return "".join(gap + v.ljust(w) for v, w in zip(cells, widths)).rstrip()

    return chain([header + marks[table.excluded[0]]], _rows(table, cell, sep, tail, marks))


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


def _json_rows(table: TruthTable, indent: str) -> Iterator[str]:
    """The rows of `table` as json.dumps(..., indent=2) prints a report's
    `rows` list whose key line starts with `indent`, row by row."""
    nl = [indent + "  " * k for k in range(4)]
    names = [render(c) for c in table.constraints]
    close = nl[2] + "]," if table.atoms else "],"
    open_row = nl[1] + "{" + nl[2] + '"valuation": ['
    count = len(table.formula_bits)

    def tail(excluded: str, *cells: str) -> str:
        row = {
            "excluded": excluded == "1",
            "violated": [name for name, b in zip(names, cells[count:]) if b == "0"],
            "values": None if excluded == "1" else [int(v) for v in cells[:count]],
        }
        # Without its "{", the dict printed at the top level is the row's
        # remaining keys and closing brace, once indented to the row's depth.
        return close + json.dumps(row, indent=2)[1:].replace("\n", nl[1])

    marks = {"0": "," + open_row, "1": "," + open_row, "$": nl[0] + "]"}
    rows = _rows(table, lambda b, a: nl[3] + b, ",", tail, marks, *table.constraint_bits)
    return chain(["[" + open_row], rows)


def _axioms_json(gen: GeneratedTheory, bound: str) -> list[dict]:
    """One entry per axiom, each generated under the bound whose text is
    `bound`.  Axioms share their propositions and, as generate builds them,
    their K(m) and !K(x) nodes: each of those is turned into text once."""
    pairs = list(zip(gen.axioms.axioms, gen.provenance))
    shared = {id(o): o for ax, pv in pairs for o in (ax.left, ax.right, pv.momentum, pv.position)}
    # A node is shown as its formula, a proposition as its width.
    text = {key: render(o) if isinstance(o, Formula) else str(o.width) for key, o in shared.items()}
    return [
        {
            # K(m) -> !K(x): neither side is parenthesized.
            "formula": f"{text[id(ax.left)]} -> {text[id(ax.right)]}",
            "momentum": pv.momentum.atom,
            "position": pv.position.atom,
            "widths": [text[id(pv.momentum)], text[id(pv.position)]],
            "product": str(pv.product),
            "bound": bound,
        }
        for ax, pv in pairs
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
        sys.stdout.writelines(_json_rows(table, head[head.rfind("\n") :]))
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
    if args.format == "json":
        report = {"command": "table", **_table_json(table)}
        report["constraints"] = [render(c) for c in constraints]
        _print_json(report, table)
    else:
        sys.stdout.writelines(_table_text(table, args.format))
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
        report["axioms"] = _axioms_json(gen, report["bound"])
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
        "axioms": _axioms_json(gen, str(bound)),
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
        (
            "(4) truth table under the physical constraints",
            "".join(_table_text(table, "text")).splitlines(),
        ),
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
    _add_atom_limit(p, epistemic.DEFAULT_MODAL_ATOM_LIMIT, _MODAL_LIMIT_HELP)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("table", help="print a constrained truth table (K-free formulas)")
    p.add_argument("formulas", nargs="+", metavar="FORMULA")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--constraints", metavar="PATH", help="K-free constraints, one per line")
    group.add_argument(
        "--quantum", metavar="PATH", help="declaration file; its generated constraints apply"
    )
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_atom_limit(p, classical.DEFAULT_ATOM_LIMIT, _CLASSICAL_LIMIT_HELP)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("quantum", help="generate epistemic axioms from interval declarations")
    p.add_argument("declarations", metavar="DECL", help="declaration file")
    p.add_argument("--list-axioms", action="store_true", help="print each axiom with provenance")
    p.add_argument("--echo", action="store_true", help="print the declarations in canonical form")
    p.add_argument("--check", metavar="FORMULA", help="query under the generated axioms")
    p.add_argument("--mode", choices=("valid", "sat"), default="valid")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_atom_limit(p, epistemic.DEFAULT_MODAL_ATOM_LIMIT, _MODAL_LIMIT_HELP)
    p.set_defaults(handler=_cmd_quantum)

    p = sub.add_parser("demo", help="run the built-in worked example end to end")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call.  parse_args leaves a
    parser unchanged, so one serves every later call in the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        if sys.stdout is None:  # the process started with file descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        try:
            args = _parser().parse_args(argv)
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
        if sys.stdout is not None:
            # What stdout still holds would fail again when Python flushes it at exit.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_ERROR
    return code


def run() -> None:
    sys.exit(main())
