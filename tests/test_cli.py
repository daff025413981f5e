"""Command-line behavior: exit codes, formats, determinism, golden output."""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from klogic.classical import TruthTable, truth_table
from klogic.epistemic import is_valid
from klogic.cli import (
    EXIT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    _check_lines,
    _print_json,
    _parser,
    build_parser,
    main,
)
from klogic.declarations import MAX_RATIONAL_DIGITS, load_declarations
from klogic import quantum, quantum_report
from klogic.errors import AtomLimitExceeded
from klogic.quantum_report import _axiom_lines, _demo_lines, _demo_report, _entry_fields
from klogic.tables import _rows_slot, _table_json, _table_text
from klogic.syntax import MAX_FORMULA_DEPTH, Var, parse, render

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "demo.golden.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "K(a & b) <-> (K(a) & K(b))", "--mode", "valid")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "VALID"


def test_check_default_mode_is_valid(capsys):
    code, out, _ = run_cli(capsys, "check", "K(a) -> a")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "VALID"


def test_check_invalid_prints_countermodel(capsys):
    code, out, _ = run_cli(capsys, "check", "K(a | b) -> K(a) | K(b)")
    assert code == EXIT_NEGATIVE
    lines = out.splitlines()
    assert lines[0] == "INVALID"
    assert lines[1] == "countermodel:"
    assert lines[2] == "  atoms: a b"
    assert lines[3] == "  world 0: 0 1  [designated]"
    assert lines[4] == "  world 1: 1 0"


def test_check_unsatisfiable_under_theory(capsys, demo_theory):
    code, out, _ = run_cli(
        capsys,
        "check",
        "K(p) & (K(q) | K(r))",
        "--theory",
        demo_theory,
        "--mode",
        "sat",
    )
    assert code == EXIT_NEGATIVE
    assert out.strip() == "UNSATISFIABLE"


def test_check_satisfiable_prints_model(capsys):
    code, out, _ = run_cli(capsys, "check", "K(p & s) <-> K(p) & K(s)", "--mode", "sat")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "SATISFIABLE"
    assert "model:" in out


def test_parse_error_exits_two(capsys):
    code, out, err = run_cli(capsys, "check", "p &")
    assert code == EXIT_ERROR
    assert out == ""
    assert "error: syntax error at offset 4" in err


def test_atom_limit_error_explains_cost(capsys):
    code, _, err = run_cli(capsys, "check", "K(a) & K(b) & K(c) & K(d) & K(e)")
    assert code == EXIT_ERROR
    assert "2^(2^n)" in err


def test_a_refusal_over_thousands_of_atoms_exits_two_without_a_traceback(tmp_path):
    theory = tmp_path / "wide.thy"
    theory.write_text("".join(f"b{i}\n" for i in range(15000)), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "klogic", "check", "a", "--theory", str(theory)],
        capture_output=True, text=True, check=False,
    )
    assert (result.returncode, result.stdout) == (EXIT_ERROR, "")
    assert result.stderr == (
        "error: 15001 atoms gives 2^(2^15001) candidate cells (the search space grows as "
        "2^(2^n)); the modal atom limit is 4 (raise it explicitly to accept the cost)\n"
    )


_NARROW = (("m", "momentum"), ("x", "position"))


def _narrow_decl(tmp_path, n: int) -> str:
    """n momenta and n positions, every momentum incompatible with every position."""
    path = tmp_path / f"narrow{n}.decl"
    lines = [f"atom {a}{i} {kind} [0, 1/100]\n" for i in range(n) for a, kind in _NARROW]
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def _knows_every_atom(n: int) -> str:
    """A query that reaches every atom of `_narrow_decl(tmp_path, n)`."""
    return " | ".join(f"K({a}{i})" for i in range(n) for a, _ in _NARROW)


def _refuse(*args):
    raise AssertionError("the command called a function it must not call")


_CEILING = (
    "26 atoms would need truth columns of 2^26 bits each; "
    "at most 24 atoms can be evaluated, whatever the atom limit"
)


@pytest.mark.parametrize(
    "n, argv, error",
    [
        (
            3,
            ("quantum", "DECL", "--check", "EVERY"),
            "6 atoms gives 2^(2^6) candidate cells (the search space grows as 2^(2^n)); "
            "the modal atom limit is 4 (raise it explicitly to accept the cost)",
        ),
        (
            9,
            ("table", "m0 & x0", "--quantum", "DECL"),
            "18 atoms would enumerate 2^18 valuations; "
            "the limit is 16 (raise it explicitly to proceed)",
        ),
        (13, ("quantum", "DECL", "--check", "EVERY", "--atom-limit", "30"), _CEILING),
        (13, ("table", "m0 & x0", "--quantum", "DECL", "--atom-limit", "30"), _CEILING),
        (
            3,
            ("quantum", "DECL", "--check", "K(m0) | K(m1) | K(m2) | K(x0) | K(x1)"),
            "6 atoms gives 2^(2^6) candidate cells (the search space grows as 2^(2^n)); "
            "the modal atom limit is 4 (raise it explicitly to accept the cost)",
        ),
    ],
    ids=[
        "quantum-check",
        "table-quantum",
        "quantum-check-ceiling",
        "table-quantum-ceiling",
        "quantum-check-query-too-wide",
    ],
)
def test_over_limit_quantum_commands_build_no_axiom_or_constraint(
    capsys, monkeypatch, tmp_path, n, argv, error
):
    """The atom limit, and past a raised limit the column ceiling, are asked
    before any node is built, and the message is the engine's own: of the
    pairs' atom names for a table, of the query's atoms for a check (EVERY
    is a query that reaches every atom of the file).  A check's refusal
    counts every atom of the file and the query, as the engine's does."""
    decl = _narrow_decl(tmp_path, n)
    argv = [{"DECL": decl, "EVERY": _knows_every_atom(n)}.get(a, a) for a in argv]
    decls = load_declarations(decl)
    generated = quantum.generate(decls.propositions, decls.config)
    limit = {"atom_limit": int(argv[-1])} if "--atom-limit" in argv else {}
    with pytest.raises(AtomLimitExceeded) as engine:
        if argv[0] == "quantum":
            is_valid(parse(argv[3]), generated.axioms, **limit)
        else:
            truth_table([parse(argv[1])], generated.constraints, **limit)
    assert str(engine.value) == error
    monkeypatch.setattr(quantum.GeneratedTheory, "axioms", property(_refuse))
    monkeypatch.setattr(quantum.GeneratedTheory, "constraints", property(_refuse))
    monkeypatch.setattr(quantum.GeneratedTheory, "axioms_within", _refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {error}\n")


_QUERY25 = " | ".join(f"a{i}" for i in range(25))


@pytest.mark.parametrize(
    "query, axiom, limit, error",
    [
        (
            "a | b | c | d | e",
            "K(f) -> a",
            4,
            "6 atoms gives 2^(2^6) candidate cells (the search space grows as 2^(2^n)); "
            "the modal atom limit is 4 (raise it explicitly to accept the cost)",
        ),
        (
            _QUERY25,
            " | ".join(f"K(b{i})" for i in range(10)),
            30,
            "35 atoms gives 2^(2^35) candidate cells (the search space grows as 2^(2^n)); "
            "the modal atom limit is 30 (raise it explicitly to accept the cost)",
        ),
        (_QUERY25, "K(b0) -> a0", 30, _CEILING),
    ],
    ids=["limit", "limit-past-the-ceiling", "ceiling"],
)
def test_a_query_too_wide_to_search_is_refused_as_a_search_over_every_atom(
    capsys, tmp_path, query, axiom, limit, error
):
    """The query alone passes the limit or the column ceiling, and the
    refusal is the one a search over the atoms of the query and the whole
    theory gets, as if every atom were searched."""
    theory = tmp_path / "theory.txt"
    theory.write_text(axiom + "\n", encoding="utf-8")
    argv = ("check", query, "--theory", str(theory), "--atom-limit", str(limit))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {error}\n")


def test_a_query_over_fewer_atoms_than_its_file_is_answered_with_a_padded_model(
    capsys, monkeypatch, tmp_path
):
    """K(m0) reaches one atom of a 3x3 file: every axiom over another atom
    folds to true, so only the axioms within m0 are built (none), the
    search covers m0 alone, and the countermodel is padded to the file's
    six atoms."""
    monkeypatch.setattr(quantum.GeneratedTheory, "axioms", property(_refuse))
    code, out, err = run_cli(capsys, "quantum", _narrow_decl(tmp_path, 3), "--check", "K(m0)")
    assert (code, err) == (EXIT_NEGATIVE, "")
    assert out == (
        "INVALID\ncountermodel:\n  atoms: m0 m1 m2 x0 x1 x2\n"
        "  world 0: 0 0 0 0 0 0  [designated]\n"
    )


@pytest.mark.parametrize(
    "argv", [("check", "p"), ("table", "p"), ("quantum", "decl", "--check", "p")]
)
def test_negative_atom_limit_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--atom-limit", "-1")
    assert code == EXIT_ERROR
    assert out == ""
    assert "--atom-limit: expected a non-negative integer, got '-1'" in err


def test_atom_limit_cannot_lift_the_column_ceiling(capsys):
    """Refused before any 2^n-bit column is built, whatever the limit."""
    # 20 groups of 20 atoms: a flat 400-term chain is refused as too deep
    wide = " & ".join(
        "(" + " & ".join(f"a{i}" for i in range(j, j + 20)) + ")" for j in range(0, 400, 20)
    )
    code, out, err = run_cli(capsys, "check", wide, "--atom-limit", "1000")
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: 400 atoms would need truth columns of 2^400 bits")
    wide = " | ".join(f"a{i}" for i in range(25))
    code, _, err = run_cli(capsys, "table", wide, "--atom-limit", "25")
    assert code == EXIT_ERROR
    assert err.startswith("error: 25 atoms would need truth columns of 2^25 bits")


@pytest.mark.parametrize(
    "argv", [("check", "p", "--theory"), ("table", "p", "--constraints"), ("quantum",)]
)
def test_non_utf8_input_file_exits_two_at_its_line(capsys, tmp_path, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(b"# comment\n\xff\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {path}:2: not valid UTF-8 (byte 0xff)\n"


_FILE_KINDS = [
    (("check", "K(p)", "--theory"), "K(p) -> !K(q)\n"),
    (("table", "p & q", "--constraints"), "# joint outcome\n!(p & q)\n"),
    (("quantum",), "bound 1/2\natom p momentum [0, 1/6]\natom q position [-1, 1]\n"),
]
_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("argv, text", _FILE_KINDS)
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, argv, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(_BOM + text.encode())
    expected = run_cli(capsys, *argv, str(plain))
    assert expected[0] != EXIT_ERROR
    assert run_cli(capsys, *argv, str(marked)) == expected


@pytest.mark.parametrize("argv", [argv for argv, _ in _FILE_KINDS])
def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_line(capsys, tmp_path, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(_BOM + b"# comment\n\n\xfe\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {path}:3: not valid UTF-8 (byte 0xfe)\n"


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (
            ("check", "p", "--theory"),
            b"p & " + _BOM + b"q\n",
            "1: syntax error at offset 5: unexpected character '\\ufeff'",
        ),
        (
            ("check", "p", "--theory"),
            _BOM * 2 + b"p\n",
            "1: syntax error at offset 1: unexpected character '\\ufeff'",
        ),
        (
            ("quantum",),
            _BOM + b"bound 1/2\n" + _BOM + b"atom p momentum [0, 1]\n",
            "2: unrecognized directive: '\\ufeffatom'",
        ),
    ],
)
def test_a_byte_order_mark_past_the_first_is_an_error(capsys, tmp_path, argv, data, message):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {path}:{message}\n"


def test_missing_theory_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "nope.thy"
    code, _, err = run_cli(capsys, "check", "p", "--theory", str(missing))
    assert code == EXIT_ERROR
    assert err == f"error: cannot read {missing}: No such file or directory\n"
    code, _, err = run_cli(capsys, "quantum", str(tmp_path))
    assert code == EXIT_ERROR
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == EXIT_ERROR


def test_check_json_carries_the_text_fields(capsys):
    code, out, _ = run_cli(
        capsys, "check", "K(a | b) -> K(a) | K(b)", "--format", "json"
    )
    assert code == EXIT_NEGATIVE
    payload = json.loads(out)
    assert payload["verdict"] == "INVALID"
    assert payload["countermodel"]["atoms"] == ["a", "b"]
    assert payload["countermodel"]["worlds"] == [[0, 1], [1, 0]]
    assert payload["countermodel"]["designated"] == 0


def test_table_default_is_two_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "p")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 3  # header + both valuations
    assert lines[1].startswith("  0")
    assert lines[2].startswith("  1")


def test_table_with_quantum_declarations(capsys, demo_decl):
    code, out, _ = run_cli(
        capsys, "table", "p & (q | r)", "(p & q) | (p & r)", "--quantum", demo_decl
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 9
    starred = [line for line in lines if line.startswith("* ")]
    assert [line[2:7] for line in starred] == ["1 0 1", "1 1 0", "1 1 1"]
    assert all("x" in line for line in starred)
    # marker (2) + "p q r" (5) + gap (2): formula cells start at column 9
    feasible = [line for line in lines[1:] if not line.startswith("* ")]
    assert all("1" not in line[9:] for line in feasible)


def test_table_rejects_modal_formulas(capsys):
    code, _, err = run_cli(capsys, "table", "K(p)")
    assert code == EXIT_ERROR
    assert "check" in err


def test_table_reports_a_modal_formula_before_loading_constraints(capsys, tmp_path):
    missing = tmp_path / "missing.cons"
    code, out, err = run_cli(capsys, "table", "p | K(q)", "--constraints", str(missing))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == (
        "error: formula contains the knowledge operator: p | K(q) "
        "(truth tables are classical; use the check command)\n"
    )


def test_table_constraints_file(capsys, tmp_path):
    cons = tmp_path / "c.cons"
    cons.write_text("!p\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "table", "p | q", "--constraints", str(cons))
    assert code == EXIT_OK
    starred = [line for line in out.splitlines() if line.startswith("* ")]
    assert len(starred) == 2  # both p=1 rows


def test_table_csv_format(capsys, demo_decl):
    code, out, _ = run_cli(
        capsys, "table", "p & (q | r)", "--quantum", demo_decl, "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["excluded", "p", "q", "r", "p & (q | r)"]
    assert rows[1] == ["", "0", "0", "0", "0"]
    assert rows[6] == ["*", "1", "0", "1", "x"]
    assert len(rows) == 9


def test_table_json_format(capsys, demo_decl):
    code, out, _ = run_cli(
        capsys, "table", "p & (q | r)", "--quantum", demo_decl, "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["atoms"] == ["p", "q", "r"]
    assert payload["constraints"] == ["!(p & q)", "!(p & r)"]
    excluded = [row for row in payload["rows"] if row["excluded"]]
    assert [row["valuation"] for row in excluded] == [[1, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert all(row["values"] is None for row in excluded)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_formats_match_golden_files(capsys, demo_decl, fmt):
    code, out, _ = run_cli(
        capsys, "table", "p & (q | r)", "(p & q) | (p & r)", "--quantum", demo_decl,
        "--format", fmt,
    )
    assert code == EXIT_OK
    assert out == (DATA / f"table.golden.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt, golden", [("text", "txt"), ("csv", "csv"), ("json", "json")])
def test_table_quantum_builds_no_axiom_or_provenance(capsys, monkeypatch, demo_decl, fmt, golden):
    """`table --quantum` reads only the constraints of the generated theory."""
    monkeypatch.setattr(quantum.GeneratedTheory, "axioms", property(_refuse))
    monkeypatch.setattr(quantum, "AxiomProvenance", _refuse)
    code, out, _ = run_cli(
        capsys, "table", "p & (q | r)", "(p & q) | (p & r)", "--quantum", demo_decl,
        "--format", fmt,
    )
    assert code == EXIT_OK
    assert out == (DATA / f"table.golden.{golden}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ("quantum", "DECL", "--echo", "--list-axioms"),
        ("quantum", "DECL", "--check", "K(p) & (K(q) | K(r))", "--mode", "sat"),
        ("table", "p & (q | r)", "--quantum", "DECL"),
        ("demo",),
    ],
    ids=["quantum", "quantum-check", "table-quantum", "demo"],
)
def test_each_quantum_command_calls_generate_once(capsys, monkeypatch, demo_decl, argv):
    """`quantum.generate` is the one route from declarations to formulas."""
    calls = []
    original = quantum.generate

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):  # every klogic module that bound the name
        if name.startswith("klogic") and vars(module).get("generate") is original:
            monkeypatch.setattr(module, "generate", spy)
    code, _, err = run_cli(capsys, *[demo_decl if a == "DECL" else a for a in argv])
    assert code != EXIT_ERROR and err == ""
    assert len(calls) == 1


def test_the_cli_and_reports_import_no_private_name_from_quantum():
    for name in ("cli.py", "quantum_report.py"):
        tree = ast.parse((Path(quantum.__file__).parent / name).read_text(encoding="utf-8"))
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "quantum"
            for alias in node.names
        ]
        assert imported and [n for n in imported if n.startswith("_")] == [], name


def test_table_output_never_builds_rows(capsys, monkeypatch, demo_decl):
    def refuse(table):
        raise AssertionError("rendering read TruthTable.rows")

    monkeypatch.setattr(TruthTable, "rows", property(refuse))
    for fmt in ("text", "csv", "json"):
        code, _, _ = run_cli(capsys, "table", "p -> q", "--quantum", demo_decl, "--format", fmt)
        assert code == EXIT_OK
    for fmt in ("text", "json"):
        assert run_cli(capsys, "demo", "--format", fmt)[0] == EXIT_OK


def _reference_rows(table: TruthTable) -> list[dict]:
    """The JSON rows of `table`, read off its bit strings row by row."""
    n = len(table.atoms)
    rows = []
    for i in range(1 << n):
        held = [col[i] for col in table.constraint_bits]
        excluded = "0" in held
        rows.append(
            {
                "valuation": [(i >> (n - 1 - k)) & 1 for k in range(n)],
                "excluded": excluded,
                "violated": [
                    render(c) for c, h in zip(table.constraints, held) if h == "0"
                ],
                "values": None if excluded else [int(col[i]) for col in table.formula_bits],
            }
        )
    return rows


@st.composite
def _tables(draw) -> TruthTable:
    """Tables over 0-8 atoms with 0-3 constraints and any bit strings, so
    rows may violate several constraints at once.  Atom names differ in
    length, and formula headers may be much wider than their cells."""
    atoms = sorted("v" + a for a in draw(st.lists(st.text("ab_01", max_size=7), max_size=8, unique=True)))
    n = len(atoms)
    columns = st.text("01", min_size=1 << n, max_size=1 << n)
    constraint_bits = draw(st.lists(columns, max_size=3))
    formula_bits = draw(st.lists(columns, min_size=1, max_size=3))
    excluded = "".join(
        "1" if "0" in held else "0"
        for held in zip(*constraint_bits, ["1"] * (1 << n))
    )
    return TruthTable(
        tuple(atoms),
        tuple(Var(f"f{j}" + "x" * draw(st.integers(0, 30))) for j in range(len(formula_bits))),
        tuple(Var(f"c{j}") for j in range(len(constraint_bits))),
        tuple(constraint_bits),
        tuple(formula_bits),
        excluded,
    )


_TRUE_TABLE = TruthTable((), (Var("t"),), (), (), ("1",), "0")  # `table true`

# Shrinking bit strings of up to 256 characters one example at a time takes
# minutes; a failing table is reported as drawn.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@settings(max_examples=200, deadline=None, phases=_NO_SHRINK)
@given(_tables(), st.sampled_from(["table", "demo"]))
@example(_TRUE_TABLE, "table")
@example(_TRUE_TABLE, "demo")
def test_json_rows_match_json_dumps(table, command):
    def report(rows: list[dict]) -> dict:
        body = _table_json(table)
        body["rows"] = rows
        if command == "table":  # rows one level deep
            return {"command": "table", **body, "constraints": ["c"]}
        return {"command": "demo", "table": body, "axioms": []}  # two levels

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_json(report([]), _rows_slot(table))
    assert out.getvalue() == json.dumps(report(_reference_rows(table)), indent=2) + "\n"


def _reference_table(table: TruthTable, fmt: str) -> str:
    """The text or CSV table, built row by row from the bit strings."""
    headers = [render(f) for f in table.formulas]
    n = len(table.atoms)
    rows = []
    for i in range(1 << n):
        bits = [str((i >> (n - 1 - k)) & 1) for k in range(n)]
        excluded = any(col[i] == "0" for col in table.constraint_bits)
        rows.append(("*" if excluded else "", bits, ["x" if excluded else col[i] for col in table.formula_bits]))
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["excluded", *table.atoms, *headers])
        writer.writerows([mark, *bits, *cells] for mark, bits, cells in rows)
        return out.getvalue()
    lines = [("  " + " ".join(table.atoms) + "  " + "  ".join(headers)).rstrip()]
    for mark, bits, cells in rows:
        valuation = " ".join(b.ljust(len(a)) for b, a in zip(bits, table.atoms))
        formulas = "  ".join(c.ljust(len(h)) for c, h in zip(cells, headers))
        lines.append((mark.ljust(2) + valuation + "  " + formulas).rstrip())
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, phases=_NO_SHRINK)
@given(_tables(), st.sampled_from(["text", "csv"]))
@example(_TRUE_TABLE, "text")
@example(_TRUE_TABLE, "csv")
# csv.writer writes a row whose only cell is empty as "".
@example(TruthTable((), (), (), (), (), "0"), "csv")
@example(TruthTable(("a",), (), (Var("a"),), ("01",), (), "10"), "csv")
def test_text_and_csv_rows_match_a_row_by_row_reference(table, fmt):
    assert "".join(_table_text(table, fmt)) == _reference_table(table, fmt)


class _RecordedStdout(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(len(text))
        return super().write(text)


_WRITE_BOUND = 64 * 1024  # characters; a 14-atom table is several times larger in every format
_WIDE = [" | ".join(f"a{k:02d}" for k in range(14)), "a00 & !a13"]


@pytest.mark.parametrize(
    "argv",
    [["table", *_WIDE], ["table", *_WIDE, "--format", "csv"], ["table", *_WIDE, "--format", "json"],
     ["demo", "--format", "json"]],
    ids=["text", "csv", "json", "demo-json"],
)
def test_tables_are_streamed_in_bounded_writes(monkeypatch, argv):
    out = _RecordedStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == EXIT_OK
    assert max(out.writes) <= _WRITE_BOUND
    if argv[0] == "table":
        assert sum(out.writes) > 4 * _WRITE_BOUND
        assert out.getvalue().count("\n") > (1 << 14)


def test_json_rows_never_go_through_json_dumps(capsys, monkeypatch, demo_decl):
    dumps = json.dumps

    def no_rows(obj, **kwargs):
        pending = [obj]
        while pending:
            item = pending.pop()
            if isinstance(item, dict):
                assert not item.get("rows"), "json.dumps was passed table rows"
                pending.extend(item.values())
            elif isinstance(item, list):
                pending.extend(item)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", no_rows)
    for argv in (
        ("table", "p -> q", "--quantum", demo_decl, "--format", "json"),
        ("table", "true", "--format", "json"),
        ("demo", "--format", "json"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)


_CHAIN = " & ".join(f"a{i}" for i in range(3000))


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "!" * 3000 + "p"),
        ("check", "(" * 3000 + "p" + ")" * 3000),
        ("check", _CHAIN),
        ("table", _CHAIN),
    ],
    ids=["negations", "parentheses", "check-conjunction", "table-conjunction"],
)
def test_deep_nesting_exits_two_without_a_traceback(argv):
    result = subprocess.run(
        [sys.executable, "-m", "klogic", *argv], capture_output=True, text=True, check=False
    )
    assert (result.returncode, result.stdout) == (EXIT_ERROR, "")
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: syntax error at offset ")
    assert f"nested more than {MAX_FORMULA_DEPTH} levels deep" in result.stderr


def test_formulas_at_the_depth_limit_are_answered(capsys, tmp_path):
    """Every command answers a formula nested as deep as parsing allows."""
    half = MAX_FORMULA_DEPTH // 2
    deep = [
        "!" * MAX_FORMULA_DEPTH + "p",
        "(" * (MAX_FORMULA_DEPTH - 1) + "p & q" + ")" * (MAX_FORMULA_DEPTH - 1),
        " & ".join(["p", "q"] * half + ["p"]),
        " -> ".join(["p", "q"] * half + ["p"]),
        "!(" * half + "p" + ")" * half,
    ]
    lines = tmp_path / "deep.txt"
    lines.write_text("\n".join(deep + deep) + "\n", encoding="utf-8")
    for f in deep:
        for argv in (
            ("check", f, "--theory", str(lines), "--mode", "sat", "--format", "json"),
            ("table", f, f, "--constraints", str(lines), "--format", "json"),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_NEGATIVE) and err == ""
    nested_k = "K(" * (MAX_FORMULA_DEPTH - 1) + "p" + ")" * (MAX_FORMULA_DEPTH - 1) + " -> p"
    assert run_cli(capsys, "check", nested_k)[:2] == (EXIT_OK, "VALID\n")


def test_quantum_list_axioms(capsys, demo_decl):
    code, out, _ = run_cli(capsys, "quantum", demo_decl, "--list-axioms")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "K(p) -> !K(q)   [widths 1/6 * 2 = 1/3 < 1/2]",
        "K(p) -> !K(r)   [widths 1/6 * 2 = 1/3 < 1/2]",
    ]


def test_quantum_no_axioms(capsys, tmp_path):
    decl = tmp_path / "empty.decl"
    decl.write_text("atom a momentum [0, 1]\natom b position [0, 1]\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "quantum", str(decl), "--list-axioms")
    assert code == EXIT_OK
    assert out.strip() == "no axioms generated"


def test_quantum_check_under_generated_theory(capsys, demo_decl):
    code, out, _ = run_cli(
        capsys,
        "quantum",
        demo_decl,
        "--check",
        "K(p) & (K(q) | K(r))",
        "--mode",
        "sat",
    )
    assert code == EXIT_NEGATIVE
    assert out.strip() == "UNSATISFIABLE"


def test_quantum_echo_round_trips(capsys, demo_decl, tmp_path):
    code, out, _ = run_cli(capsys, "quantum", demo_decl, "--echo")
    assert code == EXIT_OK
    echoed = tmp_path / "echoed.decl"
    echoed.write_text(out, encoding="utf-8")
    code2, out2, _ = run_cli(capsys, "quantum", str(echoed), "--echo")
    assert code2 == EXIT_OK
    assert out2 == out


def test_quantum_summary_line(capsys, demo_decl):
    code, out, _ = run_cli(capsys, "quantum", demo_decl)
    assert code == EXIT_OK
    assert out.strip() == "3 propositions, 2 axioms, 2 constraints, bound 1/2"


def test_quantum_declaration_errors_exit_two(capsys, tmp_path):
    decl = tmp_path / "bad.decl"
    decl.write_text("atom a momentum [1, 0]\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "quantum", str(decl), "--list-axioms")
    assert code == EXIT_ERROR
    assert "bad.decl:1" in err


@pytest.mark.parametrize("line, word", [("bounds 1/2", "bounds"), ("atomic p momentum [0, 1]", "atomic")])
def test_a_directive_that_only_starts_like_one_is_unrecognized(capsys, tmp_path, line, word):
    decl = tmp_path / "bad.decl"
    decl.write_text(f"atom p momentum [0, 1]\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "quantum", str(decl))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {decl}:2: unrecognized directive: {word!r}\n"


@pytest.mark.parametrize(
    "lines, message",
    [
        ("bound 0", "2: bound must be positive, got 0"),
        ("bound -1/2", "2: bound must be positive, got -1/2"),
        ("# zero as a decimal\nbound 0.0", "3: bound must be positive, got 0"),
        ("bound 1/2\nbound 1/3", "3: duplicate bound directive"),
        ("atom Bad position [0, 1]", "2: invalid atom name: 'Bad'"),
        ("atom and position [0, 1]", "2: invalid atom name: 'and'"),
    ],
)
def test_a_declaration_line_error_is_exact(capsys, tmp_path, lines, message):
    decl = tmp_path / "bad.decl"
    decl.write_text(f"atom p momentum [0, 1]\n{lines}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "quantum", str(decl))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {decl}:{message}\n"


def test_quantum_json_includes_everything(capsys, demo_decl):
    code, out, _ = run_cli(
        capsys,
        "quantum",
        demo_decl,
        "--check",
        "K(p) & (K(q) | K(r))",
        "--mode",
        "sat",
        "--format",
        "json",
    )
    assert code == EXIT_NEGATIVE
    payload = json.loads(out)
    assert payload["bound"] == "1/2"
    assert [p["atom"] for p in payload["propositions"]] == ["p", "q", "r"]
    assert [a["formula"] for a in payload["axioms"]] == [
        "K(p) -> !K(q)",
        "K(p) -> !K(r)",
    ]
    assert [a["product"] for a in payload["axioms"]] == ["1/3", "1/3"]
    assert payload["constraints"] == ["!(p & q)", "!(p & r)"]
    assert payload["check"]["verdict"] == "UNSATISFIABLE"


def test_demo_matches_golden_file(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == EXIT_OK
    assert out == GOLDEN.read_text(encoding="utf-8")


def test_demo_json_matches_golden_file(capsys):
    code, out, _ = run_cli(capsys, "demo", "--format", "json")
    assert code == EXIT_OK
    assert out == (DATA / "demo.golden.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "flags, golden",
    [(("--echo", "--list-axioms"), "quantum.golden.txt"), (("--format", "json"), "quantum.golden.json")],
)
def test_quantum_matches_golden_files(capsys, flags, golden):
    code, out, _ = run_cli(capsys, "quantum", str(DATA / "quantum.decl"), *flags)
    assert code == EXIT_OK
    assert out == (DATA / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_combined_quantum_flags_match_golden_files(capsys, fmt):
    """Echo, then axioms, then the check, whose negative answer exits 1."""
    flags = ["--echo", "--list-axioms", "--check", "K(p) & (K(q) | K(r))", "--mode", "sat"]
    if fmt == "json":
        flags += ["--format", "json"]
    code, out, err = run_cli(capsys, "quantum", str(DATA / "demo.decl"), *flags)
    assert (code, err) == (EXIT_NEGATIVE, "")
    assert out == (DATA / f"quantum_check.golden.{fmt}").read_text(encoding="utf-8")


_NO_AXIOMS_DECL = "atom p momentum [0, 1]\natom q position [0, 1]\n"
_ONE_AXIOM_DECL = "atom p momentum [0, 1/6]\natom q position [-1, 1]\n"
# Five momenta and four positions in mixed order, two momenta of one width:
# nine incompatible pairs under a bound whose text is not 1/2, and m4 with
# x3 exactly at it.
_MANY_AXIOMS_DECL = """\
bound 7/3
atom m0 momentum [0, 1/2]
atom x0 position [0, 1]
atom m1 momentum [-1, 2]
atom m2 momentum [0.5, 1]
atom x1 position [-3/2, 0]
atom m3 momentum [0, 4]
atom x2 position [2, 6]
atom m4 momentum [10, 31/3]
atom x3 position [0, 7]
"""


@pytest.mark.parametrize(
    "case",
    ["check-valid", "check-countermodel", "check-theory", "table-constraints", "table-quantum",
     "demo", "quantum-0-axioms", "quantum-1-axiom", "quantum-many-axioms", "quantum-check"],
)
def test_json_output_is_laid_out_as_json_dumps_prints_it(capsys, tmp_path, demo_decl, demo_theory, case):
    """Parts of the JSON documents are written without json.dumps (table
    rows, quantum axioms); the layout must still be json.dumps(..., indent=2)
    of the document, byte for byte."""
    constraints = tmp_path / "constraints.txt"
    constraints.write_text("!(p & q)\np | r\n", encoding="utf-8")
    decls = {}
    for name, text in (("0", _NO_AXIOMS_DECL), ("1", _ONE_AXIOM_DECL), ("many", _MANY_AXIOMS_DECL)):
        decls[name] = tmp_path / f"{name}.decl"
        decls[name].write_text(text, encoding="utf-8")
    argv = {
        "check-valid": ["check", "K(a) -> a"],
        "check-countermodel": ["check", "K(a | b) -> K(a) | K(b)"],
        "check-theory": ["check", "K(p) & K(q)", "--mode", "sat", "--theory", demo_theory],
        "table-constraints": ["table", "p & (q | r)", "p -> r", "--constraints", str(constraints)],
        "table-quantum": ["table", "p & (q | r)", "(p & q) | (p & r)", "--quantum", demo_decl],
        "demo": ["demo"],
        "quantum-0-axioms": ["quantum", str(decls["0"])],
        "quantum-1-axiom": ["quantum", str(decls["1"])],
        "quantum-many-axioms": ["quantum", str(decls["many"])],
        "quantum-check": ["quantum", str(decls["1"]), "--check", "K(p) & K(q)", "--mode", "sat"],
    }[case]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code in (EXIT_OK, EXIT_NEGATIVE) and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    axioms = {"quantum-0-axioms": 0, "quantum-1-axiom": 1, "quantum-many-axioms": 9, "quantum-check": 1}
    if case in axioms:
        assert len(json.loads(out)["axioms"]) == axioms[case]


def test_demo_key_lines(capsys):
    _, out, _ = run_cli(capsys, "demo")
    assert "2/3 >= 1/2: compatible" in out
    starred = [line for line in out.splitlines() if line.startswith("* ")]
    assert "* 1 1 1" in {line[:7] for line in starred}
    assert "UNSATISFIABLE" in out


def test_demo_json_reports_the_same_verdicts(capsys):
    code, out, _ = run_cli(capsys, "demo", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["classical_distributivity"]["verdict"] == "TAUTOLOGY"
    assert payload["joint_knowledge"]["verdict"] == "UNSATISFIABLE"
    assert payload["k_distribution"]["conjunction_law"]["verdict"] == "VALID"
    assert payload["k_distribution"]["disjunction_distribution"]["verdict"] == "INVALID"
    assert payload["merge"]["verdict"] == "SATISFIABLE"
    assert payload["uncertainty"]["bound"] == "1/2"
    assert any("2/3 >= 1/2" in line for line in payload["uncertainty"]["products"])


def test_repeated_runs_are_byte_identical(capsys, demo_decl):
    first = run_cli(capsys, "table", "p & (q | r)", "--quantum", demo_decl, "--format", "json")
    second = run_cli(capsys, "table", "p & (q | r)", "--quantum", demo_decl, "--format", "json")
    assert first == second
    demo1 = run_cli(capsys, "demo")
    demo2 = run_cli(capsys, "demo")
    assert demo1 == demo2


def test_module_entry_point_runs_in_a_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "klogic", "check", "K(a) -> a"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines()[0] == "VALID"

    result = subprocess.run(
        [sys.executable, "-m", "klogic", "check", "p &"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == EXIT_ERROR
    assert "syntax error" in result.stderr


def test_atom_limit_help_matches_the_command(capsys):
    helps = {}
    for command in ("check", "table", "quantum"):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (EXIT_OK, "")
        helps[command] = " ".join(out.split())  # undo argparse's line wrapping
    assert "2^(2^n)" in helps["check"]
    assert "2^(2^n)" in helps["quantum"]
    assert "2^(2^n)" not in helps["table"]
    assert "2^n valuations" in helps["table"]


def _argv_cases(decl: str, theory: str) -> list[list[str]]:
    """Every subcommand's exit codes in text and JSON, usage errors and help."""
    return [
        ["check", "K(a) -> a"],
        ["check", "K(a) -> a", "--format", "json"],
        ["check", "K(a | b) -> K(a) | K(b)"],
        ["check", "K(a | b) -> K(a) | K(b)", "--format", "json"],
        ["check", "K(p) & (K(q) | K(r))", "--theory", theory, "--mode", "sat"],
        ["check", "K(p) & (K(q) | K(r))", "--theory", theory, "--mode", "sat", "--format", "json"],
        ["check", "a &"],
        ["check", "a &", "--format", "json"],
        ["check", "a", "--mode", "maybe"],
        ["check", "a", "--atom-limit", "-1"],
        ["check", "--help"],
        ["table", "p -> q"],
        ["table", "p & (q | r)", "--quantum", decl, "--format", "json"],
        ["table", "p", "q", "--format", "csv"],
        ["table", "K(p)"],
        ["table", "K(p)", "--format", "json"],
        ["table", "p", "--constraints", theory, "--quantum", decl],
        ["table", "--help"],
        ["quantum", decl],
        ["quantum", decl, "--echo", "--list-axioms"],
        ["quantum", decl, "--format", "json"],
        ["quantum", decl, "--check", "K(p) & (K(q) | K(r))", "--mode", "sat"],
        ["quantum", decl, "--check", "K(p) & (K(q) | K(r))", "--mode", "sat", "--format", "json"],
        ["quantum", theory],
        ["quantum", theory, "--format", "json"],
        ["quantum", "--help"],
        ["demo"],
        ["demo", "--format", "json"],
        ["demo", "--format", "csv"],
        ["demo", "--help"],
        ["--help"],
        [],
        ["frobnicate"],
    ]


def test_main_builds_its_parser_once(capsys, monkeypatch, demo_decl, demo_theory):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser()
    assert len(built) == 5  # klogic and its four subcommands
    built.clear()
    _parser.cache_clear()
    codes = {main(argv) for argv in _argv_cases(demo_decl, demo_theory)}
    capsys.readouterr()
    assert codes == {EXIT_OK, EXIT_NEGATIVE, EXIT_ERROR}
    assert len(built) == 5


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import klogic.cli\n"
        "print(len(built), klogic.cli._parser.cache_info().currsize)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout == "0 0\n"


def test_repeated_calls_match_a_fresh_process(capsys, monkeypatch, demo_decl, demo_theory):
    # argparse wraps help to the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    cases = _argv_cases(demo_decl, demo_theory)
    fresh = {}
    for argv in cases:
        result = subprocess.run(
            [sys.executable, "-m", "klogic", *argv], capture_output=True, text=True, check=False
        )
        fresh[tuple(argv)] = (result.returncode, result.stdout, result.stderr)
    assert {code for code, _, _ in fresh.values()} == {EXIT_OK, EXIT_NEGATIVE, EXIT_ERROR}
    assert run_cli(capsys, "check", "a &")[0] == EXIT_ERROR
    for order in (cases, cases[::3] + cases[1::3] + cases[2::3]):
        for argv in order:
            assert run_cli(capsys, *argv) == fresh[tuple(argv)], argv


# Verdicts VALID/INVALID and SATISFIABLE/UNSATISFIABLE, with and without a theory.
@pytest.mark.parametrize("formula", ["K(p) -> p", "K(p | q) -> K(p) | K(q)", "K(p) & (K(q) | K(r))"])
@pytest.mark.parametrize("mode", ["valid", "sat"])
@pytest.mark.parametrize("with_theory", [False, True], ids=["no-theory", "theory"])
def test_check_text_is_rendered_from_the_json_report(capsys, demo_theory, formula, mode, with_theory):
    argv = ["check", formula, "--mode", mode] + (["--theory", demo_theory] if with_theory else [])
    code, text, _ = run_cli(capsys, *argv)
    json_code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == json_code
    assert "\n".join(_check_lines(json.loads(out))) + "\n" == text


@pytest.mark.parametrize(
    "flags, section, renderer",
    [
        (["--list-axioms"], "axioms", _axiom_lines),
        (["--check", "K(p) & (K(q) | K(r))", "--mode", "sat"], "check", _check_lines),
        (["--check", "K(p) -> !K(q)"], "check", _check_lines),
        (["--check", "K(q) | K(r)", "--mode", "sat"], "check", _check_lines),
    ],
)
def test_quantum_text_is_rendered_from_the_json_report(capsys, tmp_path, demo_decl, flags, section, renderer):
    no_axioms = tmp_path / "empty.decl"
    no_axioms.write_text("atom p momentum [0, 1]\natom q position [0, 1]\n", encoding="utf-8")
    for decl in (demo_decl, str(no_axioms)):
        code, text, _ = run_cli(capsys, "quantum", decl, *flags)
        json_code, out, _ = run_cli(capsys, "quantum", decl, *flags, "--format", "json")
        assert code == json_code
        report = json.loads(out)
        if section == "axioms":
            lines = renderer(map(_entry_fields, report[section]), report["bound"])
        else:
            lines = renderer(report[section])
        assert "\n".join(lines) + "\n" == text


def test_a_text_listing_builds_no_json_axiom_entry(capsys, monkeypatch):
    def refuse(*fields):
        raise AssertionError("a text listing built a JSON axiom entry")

    monkeypatch.setattr(quantum_report, "_axiom_json", refuse)
    code, out, _ = run_cli(capsys, "quantum", str(DATA / "quantum.decl"), "--echo", "--list-axioms")
    assert code == EXIT_OK
    assert out == (DATA / "quantum.golden.txt").read_text(encoding="utf-8")


def test_demo_text_is_rendered_from_the_json_report(capsys):
    _, out, _ = run_cli(capsys, "demo", "--format", "json")
    _, table = _demo_report()
    assert "\n".join(_demo_lines(json.loads(out), table)) + "\n" == GOLDEN.read_text(encoding="utf-8")


def test_rational_literals_longer_than_the_cap_exit_two_at_their_line(capsys, tmp_path):
    decl = tmp_path / "long.decl"
    wide = "1/1" + "0" * 2200  # the product of two such widths has 8801 digits
    decl.write_text(f"atom p momentum [0, {wide}]\natom q position [0, {wide}]\n", encoding="utf-8")
    for flags in (["--list-axioms"], ["--format", "json"]):
        code, out, err = run_cli(capsys, "quantum", str(decl), *flags)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == (
            f"error: {decl}:1: rational literal has 2202 digits "
            f"(at most {MAX_RATIONAL_DIGITS} are allowed)\n"
        )
    decl.write_text("bound 1/2\natom p momentum [0, 1" + "0" * 5000 + "]\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "quantum", str(decl))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith(f"error: {decl}:2: rational literal has 5001 digits")


def test_the_widest_literals_under_the_cap_are_printed(capsys, tmp_path):
    # Four pairwise coprime 999-digit denominators: each width has a
    # 1997-digit denominator, and their product, reduced by 3, one of 3992.
    n = 10 ** (MAX_RATIONAL_DIGITS - 2)
    decl = tmp_path / "wide.decl"
    decl.write_text(
        f"atom p momentum [-1/{n + 1}, 1/{n + 3}]\natom q position [-1/{n + 5}, 1/{n + 7}]\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "quantum", str(decl), "--list-axioms")
    assert code == EXIT_OK
    assert out.startswith("K(p) -> !K(q)   [widths ")
    code, out, _ = run_cli(capsys, "quantum", str(decl), "--format", "json")
    assert code == EXIT_OK
    (axiom,) = json.loads(out)["axioms"]
    assert len(axiom["product"].partition("/")[2]) == 3992


_SIXTEEN_ATOMS = " | ".join(f"a{i}" for i in range(16))


def _run_with_closed_stdout(argv, unbuffered: bool) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run(
            [sys.executable, "-m", "klogic", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            check=False,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [("check", "K(a)"), ("table", "p", "--format", "json"), ("demo",), ("table", _SIXTEEN_ATOMS)],
    ids=["check-negative", "table-json", "demo", "table-16-atoms"],
)
def test_a_failed_write_exits_two_with_one_error_line(argv, unbuffered):
    result = _run_with_closed_stdout(argv, unbuffered)
    assert result.returncode == EXIT_ERROR
    assert result.stderr == "error: cannot write output: Broken pipe\n"


def test_a_failed_write_of_the_help_text_exits_two():
    # argparse itself ignores the failure when stdout is unbuffered
    result = _run_with_closed_stdout(["--help"], unbuffered=False)
    assert result.returncode == EXIT_ERROR
    assert result.stderr == "error: cannot write output: Broken pipe\n"


@pytest.mark.parametrize("command", ["check", "table", "quantum", "demo"])
def test_a_closed_stdout_exits_two_with_one_error_line(command, demo_decl):
    # Python sets sys.stdout to None when file descriptor 1 is closed at start-up.
    argv = {
        "check": ["check", "K(a)"],
        "table": ["table", "p | q"],
        "quantum": ["quantum", demo_decl],
        "demo": ["demo"],
    }[command]
    result = subprocess.run(
        ["sh", "-c", 'exec "$0" -m klogic "$@" >&-', sys.executable, *argv],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == EXIT_ERROR
    assert result.stderr == "error: cannot write output: Bad file descriptor\n"


# The CLI contract over generated argv and input files.  Formulas use the
# atoms a, b and c, and modal commands run with an atom limit of at most 3:
# a modal search over 4 atoms takes seconds.
_FORMULAS = st.one_of(
    st.recursive(
        st.sampled_from(["a", "b", "c", "true", "false"]),
        lambda sub: st.one_of(
            sub.map("!{}".format),
            sub.map("K({})".format),
            st.builds("({} {} {})".format, sub, st.sampled_from(["&", "|", "->", "<->"]), sub),
        ),
        max_leaves=6,
    ),
    st.text("abcK()!&|-<> ", max_size=12),
)
_LITERALS = st.one_of(
    st.from_regex(r"[+-]?\d{1,3}(/\d{1,3}|\.\d{1,3})?", fullmatch=True),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "-", "0.", "1/"]),
        st.integers(1, 5000).map("1".__mul__),
        st.sampled_from(["", "/7"]),
    ),
)
_DECLARATION_LINES = st.one_of(
    st.builds(
        "atom {} {} [{}, {}]".format,
        st.sampled_from("abc"),
        st.sampled_from(["momentum", "position", "spin"]),
        _LITERALS,
        _LITERALS,
    ),
    _LITERALS.map("bound {}".format),
    st.just("# comment"),
)
_INPUT_FILES = st.one_of(
    st.binary(max_size=40),
    st.lists(_DECLARATION_LINES, max_size=4).map("\n".join).map(str.encode),
    st.lists(_FORMULAS, max_size=3).map("\n".join).map(str.encode),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_run_keeps_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "contract-input"
    path.write_bytes(data.draw(_INPUT_FILES))

    def draw_flag(*words: str) -> list[str]:
        return list(words) if data.draw(st.booleans()) else []

    modal = ["--mode", data.draw(st.sampled_from(["valid", "sat"])),
             "--atom-limit", str(data.draw(st.integers(0, 3)))]
    command = data.draw(st.sampled_from(["check", "table", "quantum", "demo"]))
    fmt = data.draw(st.sampled_from(["text", "csv", "json"] if command == "table" else ["text", "json"]))
    if command == "check":
        argv = [data.draw(_FORMULAS), *modal, *draw_flag("--theory", str(path))]
    elif command == "table":
        argv = data.draw(st.lists(_FORMULAS, min_size=1, max_size=2))
        argv += data.draw(st.sampled_from([[], ["--constraints", str(path)], ["--quantum", str(path)]]))
    elif command == "quantum":
        argv = [str(path), *modal, *draw_flag("--echo"), *draw_flag("--list-axioms")]
        argv += draw_flag("--check", data.draw(_FORMULAS))
    else:
        argv = []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *argv, "--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    if code == EXIT_ERROR:
        assert out == ""
        assert re.fullmatch(r"(klogic[\w ]*: )?error: [^\n]+\n", err.splitlines(True)[-1])
        assert "Traceback" not in err
        return
    assert code in (EXIT_OK, EXIT_NEGATIVE) and err == ""
    if fmt == "json":
        report = json.loads(out)
        verdict = report.get("check", report).get("verdict")
    else:
        verdict = next((v for v in ("INVALID", "UNSATISFIABLE") if v in out.splitlines()), None)
    assert (code == EXIT_NEGATIVE) == (verdict in ("INVALID", "UNSATISFIABLE"))
