"""Command-line behavior: exit codes, formats, determinism, golden output."""

from __future__ import annotations

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
from hypothesis import example, given, settings, strategies as st

from klogic.classical import TruthTable
from klogic.cli import (
    EXIT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    _axiom_lines,
    _check_lines,
    _demo_lines,
    _demo_report,
    _print_json,
    _table_json,
    main,
)
from klogic.declarations import MAX_RATIONAL_DIGITS
from klogic.syntax import MAX_FORMULA_DEPTH, Var, render

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
    rows may violate several constraints at once."""
    n = draw(st.integers(0, 8))
    columns = st.text("01", min_size=1 << n, max_size=1 << n)
    constraint_bits = draw(st.lists(columns, max_size=3))
    formula_bits = draw(st.lists(columns, min_size=1, max_size=3))
    excluded = "".join(
        "1" if "0" in held else "0"
        for held in zip(*constraint_bits, ["1"] * (1 << n))
    )
    return TruthTable(
        tuple(f"a{k}" for k in range(n)),
        tuple(Var(f"f{j}") for j in range(len(formula_bits))),
        tuple(Var(f"c{j}") for j in range(len(constraint_bits))),
        tuple(constraint_bits),
        tuple(formula_bits),
        excluded,
    )


_TRUE_TABLE = TruthTable((), (Var("t"),), (), (), ("1",), "0")  # `table true`


@settings(max_examples=200, deadline=None)
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
        _print_json(report([]), table)
    assert out.getvalue() == json.dumps(report(_reference_rows(table)), indent=2) + "\n"


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
    """Every recursive walk of a formula fits under the default recursion limit."""
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
        assert "\n".join(renderer(json.loads(out)[section])) + "\n" == text


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
