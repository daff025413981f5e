"""Theory and constraint files: one formula per line in the standard formula
grammar.  Constraint files must be K-free.

This module reads every input file, `declarations`' too: it decodes UTF-8
and owns the line rule they share, under which `#` starts a comment and
blank lines are ignored.  It imports neither `quantum` nor `fractions`, so
a `check --theory` or `table --constraints` run loads none of the interval
code.
"""

from __future__ import annotations

from typing import Iterator

from .classical import ConstraintSet
from .epistemic import Theory
from .errors import InputFileError, LogicError
from .syntax import Formula, ParseError, modal_depth, parse, render


def _read(path: str) -> str:
    """A UTF-8 file's text, without a leading byte-order mark; a bad byte is
    reported at its line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise LogicError(f"cannot read {path}: {e.strerror}") from None
    # not the utf-8-sig codec: its error offsets would count from after the mark
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # lines are counted as splitlines() counts them for the parsers
        lineno = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise InputFileError(
            path, lineno, f"not valid UTF-8 (byte 0x{data[e.start]:02x})"
        ) from None


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line of `text` that is more than a comment and whitespace, with
    its 1-based number, its comment cut and its ends stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_formula_lines(text: str, source: str) -> list[tuple[int, Formula]]:
    formulas: list[tuple[int, Formula]] = []
    for lineno, line in _content_lines(text):
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
