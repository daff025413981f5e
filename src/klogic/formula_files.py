"""Theory and constraint files: one formula per line in the standard formula
grammar.  Constraint files must be K-free.

This module reads every input file, `declarations`' too: it decodes UTF-8
and owns the line rule they share, under which `#` starts a comment and
blank lines are ignored.  `_read_lines` runs a file's reader over those
lines and reports the first line it refuses at `file:line`; no other code
locates a faulty line.  It imports neither `quantum` nor `fractions`, so
a `check --theory` or `table --constraints` run loads none of the interval
code, and only `load_theory` imports `epistemic`.
"""

from __future__ import annotations

from typing import Callable

from .classical import ConstraintSet
from .errors import InputFileError, LogicError, ModalOperatorPresent
from .syntax import Formula, parse, render


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


def _read_lines(text: str, source: str, read_line: Callable[[str], object]) -> list:
    """`read_line` of each line of `text` that is more than a comment and
    whitespace, its comment cut and its ends stripped; the first line it
    refuses with a ValueError or a LogicError is reported at its number."""
    results = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                results.append(read_line(line))
            except (ValueError, LogicError) as e:
                raise InputFileError(source, lineno, str(e)) from None
    return results


def load_theory(path: str) -> Theory:
    """One axiom per line; K is allowed."""
    from .epistemic import Theory

    return Theory(tuple(_read_lines(_read(path), path, parse)))


def _constraint(line: str) -> Formula:
    f = parse(line)
    if f._modal_depth:
        raise ModalOperatorPresent(
            f"constraint contains the knowledge operator: {render(f)} "
            f"(constraints must be K-free)"
        )
    return f


def load_constraints(path: str) -> ConstraintSet:
    """One K-free constraint per line."""
    return ConstraintSet(tuple(_read_lines(_read(path), path, _constraint)))
