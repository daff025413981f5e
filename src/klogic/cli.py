"""Command-line interface.

Four subcommands: `check` decides epistemic queries, `table` prints
constrained truth tables, `quantum` turns interval declarations into
axioms, and `demo` walks the built-in worked example end to end.

Exit codes: 0 for an affirmative verdict (valid, satisfiable, or plain
output), 1 for a negative verdict (invalid, unsatisfiable), 2 for usage,
parse, or input-file errors and for output that could not be written.
Identical invocations produce byte-identical output; the engine's
canonical enumeration order makes every reported model reproducible.

Each command has one report, the dict that `--format json` prints.  The
text of `check` and `demo` is rendered from it; `table` and `quantum` write
theirs from the data it is built from: a `TruthTable`, and `quantum.generate`'s
pairs.  `classical._within_limits` asks every limit: of a table's atoms
before any constraint is built, and of a check's query atoms before any
axiom is; the check then builds only the axioms of the pairs inside them.

Start-up is most of a run, so each command imports the layers it uses when
it runs: `check` and `table` load none of the interval code, and `json` is
loaded only for JSON output.  Tables are rendered by `tables`, the
`quantum` and `demo` reports built by `quantum_report`.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from typing import TYPE_CHECKING, Iterable

from .classical import (
    DEFAULT_ATOM_LIMIT,
    DEFAULT_MODAL_ATOM_LIMIT,
    ConstraintSet,
    _require_k_free,
    _within_limits,
    truth_table,
)
from .errors import LogicError
from .syntax import Formula, atoms, parse, render

if TYPE_CHECKING:
    from .epistemic import CheckResult, Theory

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

_MODAL_LIMIT_HELP = (
    "override the atom limit; modal search enumerates 2^(2^n) candidate "
    "cells over the n atoms a query reaches through its axioms, so raise with care"
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


def _check_json(result: CheckResult) -> dict:
    """The verdict's name and, when the result carries a model, that model
    under "model" for a witness and "countermodel" for a countermodel."""
    out: dict = {"verdict": result.verdict.name}
    if (model := result.model) is not None:
        out["model" if result.holds else "countermodel"] = {
            "atoms": list(model.atoms),
            "worlds": [[1 if b else 0 for b in world.bits] for world in model.cell],
            "designated": model.designated,
        }
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


def _print_json(report: dict, slot: tuple | None = None) -> None:
    """Write json.dumps(report, indent=2) and a newline.

    With a slot (key, items), whose report holds an empty list under `key`,
    items(indent) is written in that list's place as it is produced, where
    indent is the line break and indentation of the key's line: a table's
    rows (tables._rows_slot) or a listing's axioms (quantum_report
    ._axioms_slot).  The document is never held whole.
    """
    import json

    text = json.dumps(report, indent=2)
    if slot:
        head, _, text = text.partition(f'"{slot[0]}": []')
        sys.stdout.write(f'{head}"{slot[0]}": ')
        sys.stdout.writelines(slot[1](head[head.rfind("\n") :]))
    sys.stdout.write(text + "\n")


def _run_query(
    f: Formula, theory: Theory, mode: str, limit: int, extra_atoms: Iterable[str] = ()
) -> CheckResult:
    from .epistemic import is_satisfiable, is_valid

    check = is_valid if mode == "valid" else is_satisfiable
    return check(f, theory, atom_limit=limit, extra_atoms=extra_atoms)


def _cmd_check(args: argparse.Namespace) -> int:
    from .epistemic import Theory

    f = parse(args.formula)
    if args.theory:
        from .formula_files import load_theory

        theory = load_theory(args.theory)
    else:
        theory = Theory()
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
        sys.stdout.write("\n".join(_check_lines(report)) + "\n")
    return EXIT_OK if result.holds else EXIT_NEGATIVE


def _cmd_table(args: argparse.Namespace) -> int:
    from .tables import _rows_slot, _table_json, _table_text

    formulas = [parse(text) for text in args.formulas]
    _require_k_free(formulas, why="truth tables are classical; use the check command")
    if args.constraints:
        from .formula_files import load_constraints

        constraints = load_constraints(args.constraints)
    elif args.quantum:
        from .declarations import load_declarations
        from .quantum import generate

        decls = load_declarations(args.quantum)
        generated = generate(decls.propositions, decls.config)
        names = generated.atom_names().union(*map(atoms, formulas))
        _within_limits(names, names, args.atom_limit, cells=False)
        constraints = generated.constraints
    else:
        constraints = ConstraintSet()
    table = truth_table(formulas, constraints, atom_limit=args.atom_limit)
    if args.format == "json":
        report = {"command": "table", **_table_json(table)}
        report["constraints"] = [render(c) for c in constraints]
        _print_json(report, _rows_slot(table))
    else:
        sys.stdout.writelines(_table_text(table, args.format))
    return EXIT_OK


def _cmd_quantum(args: argparse.Namespace) -> int:
    from .declarations import format_declarations, load_declarations
    from .quantum import generate
    from .quantum_report import _axiom_fields, _axiom_lines, _axioms_slot, _proposition_json

    decls = load_declarations(args.declarations)
    generated = generate(decls.propositions, decls.config)
    pairs, bound = generated.pairs, str(decls.config.bound)
    check = None
    if args.check is not None:
        f = parse(args.check)
        reached, every = set(atoms(f)), generated.atom_names()
        _within_limits(reached, every | reached, args.atom_limit, cells=True)  # before any axiom
        theory = generated.axioms_within(reached)
        result = _run_query(f, theory, args.mode, args.atom_limit, every)
        check = {"formula": render(f), "mode": args.mode, **_check_json(result)}

    if args.format == "json":
        # The axioms are written into their empty list, one entry at a time.
        report = {
            "command": "quantum",
            "bound": bound,
            "propositions": [_proposition_json(p) for p in decls.propositions],
            "axioms": [],
            "constraints": [f"!({m.atom} & {x.atom})" for m, x in pairs],  # as render prints them
        }
        if check is not None:
            report["check"] = check
        _print_json(report, _axioms_slot(pairs, bound))
    else:
        lines = format_declarations(decls).splitlines() if args.echo else []
        if args.list_axioms:
            lines.extend(_axiom_lines(_axiom_fields(pairs), bound))
        if check is not None:
            lines.extend(_check_lines(check))
        # Atom names are unique, so every pair is one axiom and one constraint.
        summary = (
            f"{len(decls.propositions)} propositions, {len(pairs)} axioms, "
            f"{len(pairs)} constraints, bound {bound}"
        )
        sys.stdout.write("\n".join(lines or [summary]) + "\n")
    return EXIT_OK if check is None or result.holds else EXIT_NEGATIVE


def _cmd_demo(args: argparse.Namespace) -> int:
    from .quantum_report import _demo_lines, _demo_report
    from .tables import _rows_slot

    report, table = _demo_report()
    if args.format == "json":
        _print_json(report, _rows_slot(table))
    else:
        sys.stdout.write("\n".join(_demo_lines(report, table)) + "\n")
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
    _add_atom_limit(p, DEFAULT_MODAL_ATOM_LIMIT, _MODAL_LIMIT_HELP)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("table", help="print a constrained truth table (K-free formulas)")
    p.add_argument("formulas", nargs="+", metavar="FORMULA")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--constraints", metavar="PATH", help="K-free constraints, one per line")
    group.add_argument(
        "--quantum", metavar="PATH", help="declaration file; its generated constraints apply"
    )
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_atom_limit(p, DEFAULT_ATOM_LIMIT, _CLASSICAL_LIMIT_HELP)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("quantum", help="generate epistemic axioms from interval declarations")
    p.add_argument("declarations", metavar="DECL", help="declaration file")
    p.add_argument("--list-axioms", action="store_true", help="print each axiom with provenance")
    p.add_argument("--echo", action="store_true", help="print the declarations in canonical form")
    p.add_argument("--check", metavar="FORMULA", help="query under the generated axioms")
    p.add_argument("--mode", choices=("valid", "sat"), default="valid")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_atom_limit(p, DEFAULT_MODAL_ATOM_LIMIT, _MODAL_LIMIT_HELP)
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
