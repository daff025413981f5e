"""Acceptance suite: the twelve claims this package must reproduce.

Each criterion is one test; a PASS or FAIL line per criterion is printed
(visible with `pytest -s`) and repeated in the terminal summary.  All
numeric comparisons are exact rational equality; no tolerances apply
anywhere.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from klogic import (
    ConstraintSet,
    EpistemicModel,
    IntervalProposition,
    ObservableKind,
    Theory,
    Verdict,
    atoms,
    compatible,
    erase_K,
    eval_classical,
    eval_modal,
    generate,
    is_satisfiable,
    is_tautology,
    is_valid,
    merge,
    parse,
    render,
    truth_table,
    uncertainty_product,
    valuation_at,
)
from oracles import canonical_worlds, oracle_eval, random_formula

DATA = Path(__file__).parent / "data"

RESULTS: list[str] = []


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                line = f"FAIL criterion {number:2d}: {title}"
                RESULTS.append(line)
                print(line)
                raise
            line = f"PASS criterion {number:2d}: {title}"
            RESULTS.append(line)
            print(line)

        return wrapper

    return decorate


def _demo_props():
    return (
        IntervalProposition("p", ObservableKind.MOMENTUM, Fraction(0), Fraction(1, 6)),
        IntervalProposition("q", ObservableKind.POSITION, Fraction(-1), Fraction(1)),
        IntervalProposition("r", ObservableKind.POSITION, Fraction(1), Fraction(3)),
    )


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "klogic", *argv],
        capture_output=True,
        text=True,
        check=False,
    )


def _write_temp(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


DEMO_DECL = str(DATA / "demo.decl")


@criterion(1, "uncertainty products 2/3, 1/3, 1/3 with exact verdicts")
def test_criterion_01_uncertainty_arithmetic():
    p, q, r = _demo_props()
    full = IntervalProposition("s", ObservableKind.POSITION, Fraction(-1), Fraction(3))
    assert uncertainty_product(p, full) == Fraction(2, 3)
    assert uncertainty_product(p, q) == Fraction(1, 3)
    assert uncertainty_product(p, r) == Fraction(1, 3)
    assert compatible(p, full) is True
    assert compatible(p, q) is False
    assert compatible(p, r) is False


@criterion(2, "distributivity is a classical tautology over all 8 valuations")
def test_criterion_02_classical_distributivity():
    verdict = is_tautology(parse("p & (q | r) <-> (p & q) | (p & r)"))
    assert verdict.holds
    assert len(atoms(parse("p & (q | r) <-> (p & q) | (p & r)"))) == 3


@criterion(3, "constrained table reproduces the excluded rows and zeros")
def test_criterion_03_constrained_table():
    gen = generate(_demo_props())
    table = truth_table(
        (parse("p & (q | r)"), parse("(p & q) | (p & r)")), gen.constraints
    )
    excluded = [row.valuation.bits for row in table.rows if row.excluded]
    assert excluded == [(True, False, True), (True, True, False), (True, True, True)]
    for row in table.rows:
        if not row.excluded:
            assert row.values == (False, False)
    proc = _run("table", "p & (q | r)", "(p & q) | (p & r)", "--quantum", DEMO_DECL)
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "table.golden.txt").read_text(encoding="utf-8")


@criterion(4, "generation emits exactly the two axioms and two constraints")
def test_criterion_04_theory_generation():
    gen = generate(_demo_props())
    assert [render(a) for a in gen.axioms.axioms] == ["K(p) -> !K(q)", "K(p) -> !K(r)"]
    assert [render(c) for c in gen.constraints] == ["!(p & q)", "!(p & r)"]
    assert [pv.product for pv in gen.provenance] == [Fraction(1, 3), Fraction(1, 3)]


@criterion(5, "K(p) & (K(q) | K(r)) is unsatisfiable under the axioms")
def test_criterion_05_epistemic_unsatisfiability():
    gen = generate(_demo_props())
    result = is_satisfiable(parse("K(p) & (K(q) | K(r))"), gen.axioms)
    assert result.verdict is Verdict.UNSATISFIABLE


@criterion(6, "conjunction law valid; disjunction direction fails as expected")
def test_criterion_06_conjunction_law_and_disjunction_non_law():
    assert is_valid(parse("K(a & b) <-> K(a) & K(b)"), Theory()).verdict is Verdict.VALID
    failed = is_valid(parse("K(a | b) -> K(a) | K(b)"), Theory())
    assert failed.verdict is Verdict.INVALID
    m = failed.model
    assert len(m.cell) == 2
    first, second = (v.bits for v in m.cell)
    assert first == (not second[0], not second[1])
    assert is_valid(parse("K(a) | K(b) -> K(a | b)"), Theory()).verdict is Verdict.VALID


@criterion(7, "the displayed equivalence chain holds and its shortcut fails")
def test_criterion_07_equivalence_chain():
    assert (
        is_valid(parse("K(p & (q | r)) <-> K(p) & K(q | r)"), Theory()).verdict
        is Verdict.VALID
    )
    assert (
        is_valid(parse("K(p & q) | K(p & r) <-> K(p) & (K(q) | K(r))"), Theory()).verdict
        is Verdict.VALID
    )
    broken = is_valid(parse("K(p & (q | r)) <-> K(p & q) | K(p & r)"), Theory())
    assert broken.verdict is Verdict.INVALID
    assert isinstance(broken.model, EpistemicModel)
    assert (
        eval_modal(
            parse("K(p & (q | r)) <-> K(p & q) | K(p & r)"),
            broken.model,
            broken.model.designated,
        )
        is False
    )


@criterion(8, "merge yields position [-1,3] of width 4; the claim may be true")
def test_criterion_08_merge_and_s():
    _, q, r = _demo_props()
    s = merge(q, r, "s")
    assert s.kind is ObservableKind.POSITION
    assert (s.lo, s.hi) == (Fraction(-1), Fraction(3))
    assert s.width == Fraction(4)
    result = is_satisfiable(parse("K(p & s) <-> K(p) & K(s)"), Theory())
    assert result.verdict is Verdict.SATISFIABLE


@criterion(9, "1000 formulas collapse to classical logic on singleton cells")
def test_criterion_09_collapse_property():
    rng = random.Random(90_417)
    pool = ("a", "b", "c")
    for _ in range(1000):
        f = random_formula(rng, pool, depth=4, know_budget=2)
        names = atoms(f)
        erased = erase_K(f)
        for index in range(2 ** len(names)):
            v = valuation_at(names, index)
            m = EpistemicModel.singleton(v)
            assert eval_modal(f, m, 0) == eval_classical(erased, v)


@criterion(10, "1000 K-free formulas: modal validity agrees with tautology")
def test_criterion_10_oracle_equivalence():
    # Both engines ask one valuation search on K-free input, so each verdict
    # is also checked against the reference evaluator over every valuation.
    rng = random.Random(101_417)
    pool = ("a", "b", "c", "d")
    for _ in range(1000):
        f = random_formula(rng, pool, depth=4, know_budget=0)
        valid = is_valid(f, Theory()).verdict is Verdict.VALID
        tautology = is_tautology(f).holds
        reference = all(oracle_eval(f, env) for env in canonical_worlds(atoms(f)))
        assert valid == tautology == reference, render(f)


@criterion(11, "T, 4, 5, and K-distribution schemas are all valid")
def test_criterion_11_s5_schema_suite():
    for schema in (
        "K(a) -> a",
        "K(a) -> K(K(a))",
        "!K(a) -> K(!K(a))",
        "K(a -> b) -> (K(a) -> K(b))",
    ):
        assert is_valid(parse(schema), Theory()).verdict is Verdict.VALID, schema


@criterion(12, "demo matches its golden file; exit codes follow 0/1/2")
def test_criterion_12_cli_contract():
    with tempfile.TemporaryDirectory() as tmp:
        _check_cli_contract(Path(tmp))


def _check_cli_contract(tmp: Path) -> None:
    demo = _run("demo")
    assert demo.returncode == 0
    assert demo.stdout == (DATA / "demo.golden.txt").read_text(encoding="utf-8")

    decl = DEMO_DECL
    theory = _write_temp(tmp / "demo.thy", "K(p) -> !K(q)\nK(p) -> !K(r)\n")
    empty = _write_temp(tmp / "empty.decl", "atom a momentum [0, 1]\natom b position [0, 1]\n")

    # check: affirmative, negative, usage error
    assert _run("check", "K(a & b) <-> (K(a) & K(b))", "--mode", "valid").returncode == 0
    negative = _run(
        "check", "K(p) & (K(q) | K(r))", "--theory", theory, "--mode", "sat"
    )
    assert negative.returncode == 1
    assert negative.stdout.strip() == "UNSATISFIABLE"
    broken = _run("check", "p &")
    assert broken.returncode == 2
    assert "syntax error at offset 4" in broken.stderr

    # table: plain, constrained, and the modal rejection
    eight_rows = _run("table", "p & (q | r)", "(p & q) | (p & r)", "--quantum", decl)
    assert eight_rows.returncode == 0
    assert len([ln for ln in eight_rows.stdout.splitlines() if ln.startswith("* ")]) == 3
    assert _run("table", "p").returncode == 0
    assert _run("table", "K(p)").returncode == 2

    # quantum: provenance listing, negative check, empty declarations
    listing = _run("quantum", decl, "--list-axioms")
    assert listing.returncode == 0
    assert listing.stdout.splitlines() == [
        "K(p) -> !K(q)   [widths 1/6 * 2 = 1/3 < 1/2]",
        "K(p) -> !K(r)   [widths 1/6 * 2 = 1/3 < 1/2]",
    ]
    assert (
        _run(
            "quantum", decl, "--check", "K(p) & (K(q) | K(r))", "--mode", "sat"
        ).returncode
        == 1
    )
    no_axioms = _run("quantum", empty, "--list-axioms")
    assert no_axioms.returncode == 0
    assert no_axioms.stdout.strip() == "no axioms generated"
