"""Declaration files: interval propositions over position and momentum.

Declaration files describe interval propositions, one per line:

    # particle on the x-axis
    bound 1/2
    atom p momentum [0, 1/6]
    atom q position [-1, 1]

`#` starts a comment and blank lines are ignored, as in every input file;
at most one `bound` directive (default 1/2).  Rationals are written as a/b,
integers, or finite decimals, and are converted exactly: a/b and integers
as `Fraction(int, int)`, decimals by `Fraction`'s parser.  Atom names follow
`Var`'s rule, kinds `ObservableKind`'s and the bound `PhysicsConfig`'s;
those types check them and word the refusal.  A line's reader raises
`ValueError`, and `formula_files`' line loop adds the file and line.

Theory and constraint files are read by `formula_files`, which reads every
input file.  This module re-exports its `load_theory` and
`load_constraints`: the benchmark's tracer (`perfbench/tracing.py`) looks
them up in `klogic.declarations` for its `declarations.load` layer, so
without them a traced run (`--trace 1`) fails.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._record import Record
from .formula_files import _read, _read_lines, load_constraints, load_theory  # noqa: F401
from .quantum import IntervalProposition, ObservableKind, PhysicsConfig

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
        if "." in text:
            return Fraction(text)
        # a/b or an integer: int() reads the digits the pattern admitted,
        # faster than Fraction's own parser.
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class Declarations(Record):
    """Parsed contents of a declaration file."""

    propositions: tuple[IntervalProposition, ...] = ()
    config: PhysicsConfig = PhysicsConfig()


def parse_declarations(text: str, source: str = "<declarations>") -> Declarations:
    props: list[IntervalProposition] = []
    names: set[str] = set()
    config: PhysicsConfig | None = None

    def read_line(line: str) -> None:
        nonlocal config
        directive = line.split(None, 1)[0]
        if directive == "bound":
            m = _BOUND_LINE_RE.match(line)
            if not m:
                raise ValueError("malformed bound directive (expected: bound <rational>)")
            if config is not None:
                raise ValueError("duplicate bound directive")
            config = PhysicsConfig(parse_rational(m.group("value")))
        elif directive == "atom":
            m = _ATOM_LINE_RE.match(line)
            if not m:
                raise ValueError(
                    "malformed atom entry (expected: atom <name> <kind> [<lo>, <hi>])"
                )
            name = m.group("name")
            if name in names:
                raise ValueError(f"atom '{name}' declared more than once")
            kind = ObservableKind(m.group("kind"))  # refused before the endpoints
            lo, hi = parse_rational(m.group("lo")), parse_rational(m.group("hi"))
            props.append(IntervalProposition(name, kind, lo, hi))
            names.add(name)
        else:
            raise ValueError(f"unrecognized directive: {directive!r}")

    _read_lines(text, source, read_line)
    return Declarations(tuple(props), config or PhysicsConfig())


def format_declarations(decls: Declarations) -> str:
    """Canonical declaration syntax; parses back to an equal Declarations."""
    lines = [f"bound {decls.config.bound}"]
    for p in decls.propositions:
        lines.append(f"atom {p.atom} {p.kind.value} [{p.lo}, {p.hi}]")
    return "\n".join(lines) + "\n"


def load_declarations(path: str) -> Declarations:
    return parse_declarations(_read(path), source=path)
