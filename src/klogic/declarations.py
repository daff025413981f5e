"""Input file formats: observable declarations, theory files, constraint files.

Declaration files describe interval propositions, one per line:

    # particle on the x-axis
    bound 1/2
    atom p momentum [0, 1/6]
    atom q position [-1, 1]

`#` starts a comment; blank lines are ignored; at most one `bound` directive
(default 1/2).  Rationals are written as a/b, integers, or finite decimals,
and are converted exactly.

Theory and constraint files hold one formula per line in the standard
formula grammar, with the same comment rules.  Constraint files must be
K-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .classical import ConstraintSet
from .epistemic import Theory
from .errors import InputFileError, LogicError
from .quantum import IntervalProposition, ObservableKind, PhysicsConfig
from .syntax import Formula, ParseError, is_atom_name, modal_depth, parse, render

_RATIONAL = r"[+-]?\d+(?:/\d+|\.\d+)?"
_RATIONAL_RE = re.compile(_RATIONAL + r"\Z")
_ATOM_LINE_RE = re.compile(
    r"atom\s+(?P<name>\S+)\s+(?P<kind>\S+)\s*"
    r"\[\s*(?P<lo>" + _RATIONAL + r")\s*,\s*(?P<hi>" + _RATIONAL + r")\s*\]\Z"
)
_BOUND_LINE_RE = re.compile(r"bound\s+(?P<value>\S+)\Z")

# Widths and products of literals this long print at most 4000 digits per
# integer, under Python's default int-to-str limit of 4300.
MAX_RATIONAL_DIGITS = 1000


def parse_rational(text: str) -> Fraction:
    """Exact conversion of a/b, integer, or finite-decimal literals."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(
            f"not a rational literal: {text!r} (use a/b, an integer, or a finite decimal)"
        )
    digits = sum(map(str.isdigit, text))
    if digits > MAX_RATIONAL_DIGITS:
        raise ValueError(
            f"rational literal has {digits} digits (at most {MAX_RATIONAL_DIGITS} are allowed)"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class Declarations:
    """Parsed contents of a declaration file."""

    propositions: tuple[IntervalProposition, ...] = ()
    config: PhysicsConfig = PhysicsConfig()


def parse_declarations(text: str, source: str = "<declarations>") -> Declarations:
    props: list[IntervalProposition] = []
    names: set[str] = set()
    bound: Fraction | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def fail(message: str) -> InputFileError:
            return InputFileError(source, lineno, message)

        if line.startswith("bound"):
            m = _BOUND_LINE_RE.match(line)
            if not m:
                raise fail("malformed bound directive (expected: bound <rational>)")
            if bound is not None:
                raise fail("duplicate bound directive")
            try:
                bound = parse_rational(m.group("value"))
            except ValueError as e:
                raise fail(str(e)) from None
            if bound <= 0:
                raise fail(f"bound must be positive, got {bound}")
        elif line.startswith("atom"):
            m = _ATOM_LINE_RE.match(line)
            if not m:
                raise fail(
                    "malformed atom entry (expected: atom <name> <kind> [<lo>, <hi>])"
                )
            name = m.group("name")
            if not is_atom_name(name):
                raise fail(f"invalid atom name: {name!r}")
            if name in names:
                raise fail(f"atom '{name}' declared more than once")
            try:
                kind = ObservableKind(m.group("kind"))
            except ValueError:
                raise fail(
                    f"unknown observable kind {m.group('kind')!r} "
                    f"(expected position or momentum)"
                ) from None
            try:
                lo = parse_rational(m.group("lo"))
                hi = parse_rational(m.group("hi"))
                prop = IntervalProposition(name, kind, lo, hi)
            except ValueError as e:
                raise fail(str(e)) from None
            names.add(name)
            props.append(prop)
        else:
            raise fail(f"unrecognized directive: {line.split()[0]!r}")
    config = PhysicsConfig() if bound is None else PhysicsConfig(bound)
    return Declarations(tuple(props), config)


def format_declarations(decls: Declarations) -> str:
    """Canonical declaration syntax; parses back to an equal Declarations."""
    lines = [f"bound {decls.config.bound}"]
    for p in decls.propositions:
        lines.append(f"atom {p.atom} {p.kind.value} [{p.lo}, {p.hi}]")
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    """A UTF-8 file's text; a bad byte is reported at its line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise LogicError(f"cannot read {path}: {e.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # lines are counted as splitlines() counts them for the parsers
        lineno = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise InputFileError(
            path, lineno, f"not valid UTF-8 (byte 0x{data[e.start]:02x})"
        ) from None


def load_declarations(path: str) -> Declarations:
    return parse_declarations(_read(path), source=path)


def _parse_formula_lines(text: str, source: str) -> list[tuple[int, Formula]]:
    formulas: list[tuple[int, Formula]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            formulas.append((lineno, parse(line)))
        except ParseError as e:
            raise InputFileError(source, lineno, str(e)) from None
    return formulas


def load_theory(path: str) -> Theory:
    """One axiom per line; K is allowed."""
    parsed = _parse_formula_lines(_read(path), path)
    return Theory(tuple(f for _, f in parsed))


def load_constraints(path: str) -> ConstraintSet:
    """One K-free constraint per line."""
    parsed = _parse_formula_lines(_read(path), path)
    for lineno, f in parsed:
        if modal_depth(f) != 0:
            raise InputFileError(
                path,
                lineno,
                f"constraint contains the knowledge operator: {render(f)} "
                f"(constraints must be K-free)",
            )
    return ConstraintSet(tuple(f for _, f in parsed))
