"""Truth tables as text, CSV and the rows of a JSON report.

`table` and `demo` print tables through these renderers; a `check`
process never loads them.  JSON rows are produced with `json`, which is
imported only when they are.
"""

from __future__ import annotations

import functools
from itertools import chain, product, repeat
from typing import Callable, Iterator

from .classical import TruthTable
from .syntax import render


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
    """A table report; its rows are written into the empty `rows` list
    through _rows_slot."""
    return {
        "atoms": list(table.atoms),
        "formulas": [render(f) for f in table.formulas],
        "rows": [],
    }


def _rows_slot(table: TruthTable) -> tuple[str, Callable[[str], Iterator[str]]]:
    """The `rows` slot of a table report for cli._print_json.  It marks one
    place only: "rows" is the only key of that name in a table or demo
    report, and the quotes of a string value are escaped."""
    return "rows", functools.partial(_json_rows, table)


def _json_rows(table: TruthTable, indent: str) -> Iterator[str]:
    """The rows of `table` as json.dumps(..., indent=2) prints a report's
    `rows` list whose key line starts with `indent`, row by row."""
    import json

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
