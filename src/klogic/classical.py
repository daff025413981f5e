"""Classical two-valued semantics: valuations, tautology checks, truth tables.

Valuations over n atoms are enumerated in a fixed canonical order: binary
counters 0 .. 2^n - 1 with the lexicographically first atom as the most
significant bit.  Every witness and every table row respects that order, so
results are reproducible bit for bit.

Formulas are evaluated as columns: a column over n atoms is a 2^n-bit
integer whose bit i is the formula's truth value at canonical valuation i.
`_columns` builds the full column and one column per atom, keyed by its
`Var` node, and `_truth` combines them with the connectives, one loop over
`syntax._post_order`, so a formula of any depth is evaluated.  The modal
engine asks `_truth` of a cell, a subset of the full column; every value
`_truth` gives lies within the cell it is given, so a complement is an
exclusive or with the cell.  `_truth` fills one dict, keyed by the node,
which hashes by identity, not by its structure, and tells nodes apart by
exact type, refusing any other type (the node types are closed; see
`syntax.Formula`).
`_within_limits` words every atom limit, the modal engine's included, and
since a column costs 2^n bits it also refuses more than MAX_COLUMN_ATOMS
atoms, whatever the limit.
Equivalence and K-free modal checks ask `_first_valuation` for the index
of the first valuation where a list of K-free formulas holds; a tautology
check is the equivalence of its formula and true.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import AtomLimitExceeded, ModalOperatorPresent, UnknownAtom
from .syntax import (
    And,
    Bottom,
    Formula,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    Top,
    Var,
    _post_order,
    atoms,
    render,
)

DEFAULT_ATOM_LIMIT = 16
# The modal engine's default, defined here so that building the command-line
# parser does not import `epistemic`; `epistemic` re-exports it.
DEFAULT_MODAL_ATOM_LIMIT = 4
MAX_COLUMN_ATOMS = 24  # a column over 24 atoms is 2^24 bits, 2 MiB


class Valuation(Record):
    """A total truth assignment over a sorted, duplicate-free atom tuple."""

    atoms: tuple[str, ...]
    bits: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "bits", tuple(map(bool, self.bits)))
        if list(self.atoms) != sorted(set(self.atoms)):
            raise ValueError("valuation atoms must be sorted and duplicate-free")
        if len(self.bits) != len(self.atoms):
            raise ValueError("one truth value per atom required")

    def value(self, name: str) -> bool:
        try:
            return self.bits[self.atoms.index(name)]
        except ValueError:
            raise UnknownAtom(f"atom '{name}' is not assigned by this valuation") from None

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.atoms, self.bits))


def valuation_at(names: Sequence[str], index: int) -> Valuation:
    """The index-th canonical valuation (first atom = most significant bit)."""
    n = len(names)
    if not 0 <= index < 1 << n:
        raise IndexError(f"valuation index {index} outside the 2^{n} valuations of {n} atoms")
    # The low n binary digits, zero-padded; no digit at all when n is 0.
    digits = format(index, f"0{n}b")
    return Valuation(tuple(names), tuple(map("1".__eq__, digits[len(digits) - n :])))


def all_valuations(names: Sequence[str]) -> Iterator[Valuation]:
    """All 2^n valuations over `names` in canonical order."""
    names = tuple(names)
    for bits in product((False, True), repeat=len(names)):
        yield Valuation(names, bits)


def eval_classical(f: Formula, v: Valuation) -> bool:
    """Standard truth-functional evaluation of a K-free formula."""
    _require_k_free([f])
    _require_assigned(f, v.atoms, "valuation")
    return bool(_truth((f,), 1, {Var(a): int(b) for a, b in zip(v.atoms, v.bits)}))


def _require_assigned(f: Formula, names: Sequence[str], holder: str) -> None:
    missing = set(atoms(f)) - set(names)
    if missing:
        raise UnknownAtom(f"atom '{min(missing)}' is not assigned by this {holder}")


def _columns(names: Sequence[str]) -> tuple[int, dict[Formula, int]]:
    """The full column over `names` and the column of each atom, keyed by
    its `Var` node.

    Built by doubling: prefixing a more significant atom copies every column
    into the upper half, where the new atom is true.
    """
    full, masks = 1, []
    for _ in names:
        width = full.bit_length()
        masks = [m | (m << width) for m in masks]
        masks.append(full << width)
        full |= full << width
    return full, dict(zip(map(Var, names), reversed(masks)))


def _truth(
    roots: Sequence[Formula],
    cell: int,
    known: dict[Formula, int],
    order: Sequence[Formula] | None = None,
) -> int:
    """The worlds of `cell` where every one of `roots` holds, as a bitmask,
    having evaluated into `known` each node of `order`, which by default is
    `_post_order(roots, known)`, the nodes under `roots` that `known` lacks.

    `known` maps each atom's `Var` node, and each node already evaluated, to
    the set of worlds of `cell` where it holds: bit j stands for world j.  A
    caller that evaluates the same roots on many cells, over a `known` with
    the same keys each time, lists the nodes once and passes them as
    `order`.  K(g) holds at every world of the cell when g does, and at none
    otherwise.  Every value lies within `cell` (the caller cuts the atoms'
    columns to it, true is the cell, K is the cell or nothing), so
    `cell ^ x` is the complement of x.  Nodes are told apart by exact type:
    any other type, such as a bare `Formula`, raises TypeError, and an atom
    missing from `known` raises KeyError.
    """
    for g in _post_order(roots, known) if order is None else order:
        t = type(g)
        if t is Know:
            r = cell if known[g.operand] == cell else 0
        elif t is Not:
            r = cell ^ known[g.operand]
        elif t is And:
            r = known[g.left] & known[g.right]
        elif t is Or:
            r = known[g.left] | known[g.right]
        elif t is Implies:
            r = (cell ^ known[g.left]) | known[g.right]
        elif t is Iff:
            r = cell ^ known[g.left] ^ known[g.right]
        elif t is Top:
            r = cell
        elif t is Bottom:
            r = 0
        elif t is Var:
            raise KeyError(g)
        else:
            raise TypeError(f"cannot evaluate a {t.__name__} node: not one of klogic's node types")
        known[g] = r
    for f in roots:
        cell &= known[f]
    return cell


class ConstraintSet(Record):
    """K-free formulas acting as feasibility constraints on table rows."""

    constraints: tuple[Formula, ...] = ()

    def __post_init__(self):
        constraints = tuple(dict.fromkeys(self.constraints))
        _require_k_free(constraints, why="constraints must be K-free")
        object.__setattr__(self, "constraints", constraints)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def atom_names(self) -> set[str]:
        return set().union(*map(atoms, self.constraints))


class TableRow(Record):
    valuation: Valuation
    excluded: bool
    violated: tuple[Formula, ...]
    values: tuple[bool, ...] | None  # None exactly when excluded


class TruthTable(Record):
    """A constrained truth table, held as one bit string per column.

    Character i of each string in `constraint_bits` and `formula_bits` is
    "1" or "0", the value of that constraint or formula at canonical
    valuation i (first atom most significant), so every string has 2^n
    characters.  Row i is excluded iff some constraint string has "0" at i;
    `excluded` holds that column too.  `rows` is built from the strings on
    first access.
    """

    atoms: tuple[str, ...]
    formulas: tuple[Formula, ...]
    constraints: tuple[Formula, ...]
    constraint_bits: tuple[str, ...]
    formula_bits: tuple[str, ...]
    excluded: str  # "1" at i iff row i violates a constraint

    @cached_property
    def rows(self) -> tuple[TableRow, ...]:
        rows = []
        for i, v in enumerate(all_valuations(self.atoms)):
            if self.excluded[i] == "1":
                violated = tuple(
                    c
                    for c, col in zip(self.constraints, self.constraint_bits)
                    if col[i] == "0"
                )
                rows.append(TableRow(v, True, violated, None))
            else:
                values = tuple(col[i] == "1" for col in self.formula_bits)
                rows.append(TableRow(v, False, (), values))
        return tuple(rows)


def _require_formula(f: Formula) -> None:
    """Refuse a value that is not a formula, with a TypeError naming its type."""
    if not isinstance(f, Formula):
        raise TypeError(f"expected a Formula, got {type(f).__name__}")


def _require_k_free(formulas: Iterable[Formula], why: str = "") -> None:
    """Refuse the first value that is not a formula (TypeError) or that
    contains K; `why`, if given, is appended to the latter's message in
    parentheses."""
    for f in formulas:
        _require_formula(f)
        if f._modal_depth:
            reason = f" ({why})" if why else ""
            raise ModalOperatorPresent(
                f"formula contains the knowledge operator: {render(f)}{reason}"
            )


def _within_limits(
    searched: set[str], every: set[str], atom_limit: int, cells: bool
) -> tuple[str, ...]:
    """The `searched` atoms sorted, or, when they pass the atom limit or the
    column ceiling, the refusal a search over `every` (the atoms the answer
    is over, `searched` among them) gets: the limit's, counting 2^(2^n)
    modal cells if `cells` (a power, never in decimal) and 2^n valuations
    otherwise, then the ceiling's.  Asked of atom names before any node exists."""
    n = len(searched)
    if n <= atom_limit and n <= MAX_COLUMN_ATOMS:
        return tuple(sorted(searched))
    n = len(every)
    if n > atom_limit and cells:
        raise AtomLimitExceeded(
            f"{n} atoms gives 2^(2^{n}) candidate cells (the search space grows "
            f"as 2^(2^n)); the modal atom limit is {atom_limit} "
            f"(raise it explicitly to accept the cost)"
        )
    if n > atom_limit:
        raise AtomLimitExceeded(
            f"{n} atoms would enumerate 2^{n} valuations; "
            f"the limit is {atom_limit} (raise it explicitly to proceed)"
        )
    raise AtomLimitExceeded(
        f"{n} atoms would need truth columns of 2^{n} bits each; "
        f"at most {MAX_COLUMN_ATOMS} atoms can be evaluated, whatever the atom limit"
    )


def _prepare(
    formulas: Sequence[Formula], constraints: ConstraintSet, atom_limit: int
) -> tuple[str, ...]:
    """The sorted atoms of a K-free query, which searches them all; see
    `_within_limits`."""
    _require_k_free(formulas)
    names = constraints.atom_names().union(*map(atoms, formulas))
    return _within_limits(names, names, atom_limit, cells=False)


def _first(column: int) -> int:
    """Index of the lowest set bit: the first valuation in canonical order."""
    return (column & -column).bit_length() - 1


def _first_valuation(names: Sequence[str], formulas: Sequence[Formula]) -> int | None:
    """The index of the first valuation over `names`, in canonical order,
    where every one of the K-free `formulas` holds, or None."""
    full, known = _columns(names)
    hits = _truth(formulas, full, known)
    return _first(hits) if hits else None


def truth_table(
    formulas: Sequence[Formula],
    constraints: ConstraintSet = ConstraintSet(),
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> TruthTable:
    """Constrained truth table over the union of atoms, rows in canonical order.

    A row is excluded iff at least one constraint evaluates false under its
    valuation; excluded rows carry no formula values.
    """
    formulas = tuple(formulas)
    order = _prepare(formulas, constraints, atom_limit)
    full, known = _columns(order)
    _truth([*constraints, *formulas], full, known)
    width = f"0{1 << len(order)}b"

    def bits(column: int) -> str:  # character i is bit i
        return format(column, width)[::-1]

    allowed = full
    constraint_bits = []
    for c in constraints:
        column = known[c]
        allowed &= column
        constraint_bits.append(bits(column))
    return TruthTable(
        order,
        formulas,
        constraints.constraints,
        tuple(constraint_bits),
        tuple(bits(known[f]) for f in formulas),
        bits(full & ~allowed),
    )


class ClassicalVerdict(Record):
    """Outcome of a universally quantified classical check.

    holds=True means no counterexample exists; otherwise `witness` is the
    first falsifying/distinguishing valuation in canonical order.
    """

    holds: bool
    witness: Valuation | None = None


def is_tautology(f: Formula, atom_limit: int = DEFAULT_ATOM_LIMIT) -> ClassicalVerdict:
    """True at every valuation, or the first falsifying valuation: the
    equivalence of f and true, as `!(f <-> true)` holds where `!f` does."""
    return are_equivalent_under(ConstraintSet(), f, Top(), atom_limit)


def are_equivalent_under(
    constraints: ConstraintSet,
    f: Formula,
    g: Formula,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> ClassicalVerdict:
    """Do f and g agree on every valuation satisfying all constraints?"""
    order = _prepare([f, g], constraints, atom_limit)
    first = _first_valuation(order, [*constraints, Not(Iff(f, g))])
    return ClassicalVerdict(first is None, None if first is None else valuation_at(order, first))
