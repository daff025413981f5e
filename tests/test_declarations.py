"""Declaration, theory, and constraint file parsing."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klogic import (
    Declarations,
    InputFileError,
    IntervalProposition,
    ObservableKind,
    PhysicsConfig,
    format_declarations,
    load_constraints,
    load_declarations,
    load_theory,
    parse,
    parse_declarations,
    parse_rational,
)
from conftest import DEMO_DECL, DEMO_THEORY


def test_parse_rational_forms():
    assert parse_rational("1/6") == Fraction(1, 6)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("-1") == Fraction(-1)
    assert parse_rational("+3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("-0.5") == Fraction(-1, 2)


def test_decimals_convert_exactly():
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("0.1") != 0.1  # the float would be off


def test_parse_rational_rejections():
    for bad in ("abc", "1e5", ".5", "1.", "1/2/3", "1 / 2", "", "--1"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_demo_declaration_file(demo_decl):
    decls = load_declarations(demo_decl)
    assert decls.config.bound == Fraction(1, 2)
    assert [p.atom for p in decls.propositions] == ["p", "q", "r"]
    p, q, r = decls.propositions
    assert p.kind is ObservableKind.MOMENTUM
    assert (p.lo, p.hi) == (Fraction(0), Fraction(1, 6))
    assert q.kind is r.kind is ObservableKind.POSITION
    assert (q.lo, q.hi) == (Fraction(-1), Fraction(1))
    assert (r.lo, r.hi) == (Fraction(1), Fraction(3))


def test_bound_is_optional_and_unique():
    assert parse_declarations("atom a momentum [0, 1]").config.bound == Fraction(1, 2)
    assert parse_declarations("bound 3/4").config.bound == Fraction(3, 4)
    with pytest.raises(InputFileError) as exc:
        parse_declarations("bound 1/2\nbound 1/2", source="f.decl")
    assert str(exc.value).startswith("f.decl:2:")


def test_comments_and_blank_lines_are_ignored():
    text = "\n# header\n  \natom a position [0, 1]  # trailing note\n"
    decls = parse_declarations(text)
    assert len(decls.propositions) == 1


def test_located_errors():
    cases = [
        ("atom a momentum [1, 1]", 1, "width"),
        ("atom a momentum [0, 1]\natom a position [0, 1]", 2, "more than once"),
        ("atom a wavefn [0, 1]", 1, "kind"),
        ("atom a momentum [0 1]", 1, "malformed"),
        ("atom And momentum [0, 1]", 1, "atom name"),
        ("atom a momentum [0, 1/0]", 1, "denominator"),
        ("bound 0", 1, "positive"),
        ("bound nope", 1, "rational"),
        ("widget a", 1, "unrecognized"),
        # a directive is its line's first word, not a prefix of it
        ("bounds 1/2", 1, "unrecognized directive: 'bounds'"),
        ("atomic p momentum [0, 1]", 1, "unrecognized directive: 'atomic'"),
        ("bound 1/2\nbound", 2, "malformed bound directive (expected: bound <rational>)"),
        ("bound 1/2 3/4", 1, "malformed bound directive (expected: bound <rational>)"),
        ("atom p momentum", 1, "malformed atom entry (expected: atom <name> <kind> [<lo>, <hi>])"),
        # a line with several faults reports the first in the order kind, endpoints, name
        ("atom And spin [1/0, 1]", 1, "unknown observable kind 'spin' (expected position or momentum)"),
        ("atom And momentum [1/0, 1]", 1, "zero denominator in '1/0'"),
        # a file with several faulty lines reports its first
        ("atom a momentum [0, 1]\nbound 0\natom a position [0, 1]\nwidget", 2, "positive"),
        ("# c\n\natom b wavefn [0, 1]\nbound x\nbound y", 3, "kind"),
    ]
    for text, line, needle in cases:
        with pytest.raises(InputFileError) as exc:
            parse_declarations(text, source="x.decl")
        assert exc.value.line == line, text
        assert needle in str(exc.value), text


def test_format_declarations_round_trips(demo_decl):
    decls = load_declarations(demo_decl)
    echoed = format_declarations(decls)
    assert parse_declarations(echoed) == decls
    assert echoed.splitlines()[0] == "bound 1/2"
    assert "atom p momentum [0, 1/6]" in echoed


def test_load_theory(demo_theory):
    theory = load_theory(demo_theory)
    assert [str(a) for a in theory.axioms] == ["K(p) -> !K(q)", "K(p) -> !K(r)"]


def test_theory_parse_errors_carry_file_and_line(tmp_path):
    path = tmp_path / "bad.thy"
    path.write_text("K(p)\np &\n(q\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        load_theory(str(path))
    assert exc.value.line == 2  # the first of the two faulty lines
    assert "offset" in str(exc.value)


def test_load_constraints_requires_k_free(tmp_path):
    good = tmp_path / "ok.cons"
    good.write_text("# forbidden joint outcomes\n!(p & q)\n!(p & r)\n", encoding="utf-8")
    cons = load_constraints(str(good))
    assert [str(c) for c in cons] == ["!(p & q)", "!(p & r)"]

    bad = tmp_path / "bad.cons"
    bad.write_text("!(p & q)\nK(p) -> !K(q)\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        load_constraints(str(bad))
    assert exc.value.line == 2
    assert "K-free" in str(exc.value)

    # the first faulty line is reported, though a later one fails to parse
    first = tmp_path / "first.cons"
    first.write_text("K(a)\na &\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        load_constraints(str(first))
    assert str(exc.value) == (
        f"{first}:1: constraint contains the knowledge operator: K(a) (constraints must be K-free)"
    )


def test_theory_file_matches_generated_axioms(demo_decl, demo_theory):
    """The example theory file matches what the declarations generate."""
    from klogic import generate

    decls = load_declarations(demo_decl)
    generated = generate(decls.propositions, decls.config)
    assert generated.axioms == load_theory(demo_theory)


kinds = st.sampled_from(ObservableKind)
rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50))
names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in {"and", "or", "not", "implies", "iff", "true", "false"}
)


@st.composite
def declaration_sets(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    props = []
    used: set[str] = set()
    for _ in range(count):
        name = draw(names.filter(lambda s: s not in used))
        used.add(name)
        lo = draw(rationals)
        width = draw(st.fractions(min_value=Fraction(1, 20), max_value=Fraction(10)))
        props.append(IntervalProposition(name, draw(kinds), lo, lo + width))
    bound = draw(st.fractions(min_value=Fraction(1, 30), max_value=Fraction(5)))
    return Declarations(tuple(props), PhysicsConfig(bound))


@given(declaration_sets())
@settings(max_examples=100)
def test_echo_round_trip_property(decls):
    assert parse_declarations(format_declarations(decls)) == decls


def test_constraint_files_accept_any_parseable_k_free_line(tmp_path):
    path = tmp_path / "c.cons"
    path.write_text("p -> q | !r\ntrue\n", encoding="utf-8")
    cons = load_constraints(str(path))
    assert parse("p -> q | !r") in tuple(cons)
