"""Single-agent S5 semantics over canonical single-cluster models.

A model is one equivalence class of worlds (every world sees every world,
itself included), represented as a non-empty set of pairwise-distinct
valuations plus a designated world.  K(f) is true at a world iff f is true
at every world of the cell.

A K-free query and theory hold or fail at each world alone, so their first
model is the singleton of the first valuation where all of them hold, which
`klogic.classical` finds.  A query with K is searched exhaustively: with A
the combined sorted atom set and V the 2^|A| valuations in canonical order,
every non-empty subset of V is tried as a cell, in ascending order of the
cell read as a column in the format the `klogic.classical` docstring
defines, and within a cell, designated worlds in ascending valuation order.
The first hit is returned, so repeated queries are reproducible bit for bit.
In single-agent S5 truth at the designated world depends only on its own
cell, and duplicate-valuation worlds are redundant, so this enumeration is
exhaustive up to semantic equivalence.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from .errors import AtomLimitExceeded
from .syntax import Bottom, Formula, Iff, Know, Not, Top, Var, atoms, modal_depth
from .classical import (
    DEFAULT_MODAL_ATOM_LIMIT,
    Valuation,
    _column_atoms,
    _columns,
    _first,
    _first_valuation,
    _require_assigned,
    _truth,
    valuation_at,
)


class EpistemicModel(Record):
    """One S5 equivalence class: distinct valuations plus a designated world."""

    atoms: tuple[str, ...]
    cell: tuple[Valuation, ...]
    designated: int

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "cell", tuple(self.cell))
        if not self.cell:
            raise ValueError("cell must be non-empty")
        for v in self.cell:
            if v.atoms != self.atoms:
                raise ValueError("every world must assign exactly the model's atoms")
        if len({v.bits for v in self.cell}) != len(self.cell):
            raise ValueError("cell worlds must be pairwise distinct")
        if not 0 <= self.designated < len(self.cell):
            raise ValueError("designated must index a member of the cell")

    @classmethod
    def singleton(cls, v: Valuation) -> "EpistemicModel":
        return cls(v.atoms, (v,), 0)

    @property
    def designated_world(self) -> Valuation:
        return self.cell[self.designated]


class Theory(Record):
    """Global axioms: a model satisfies the theory iff every axiom holds at
    every world of the cell."""

    axioms: tuple[Formula, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(dict.fromkeys(self.axioms)))

    def atom_names(self) -> set[str]:
        return set().union(*map(atoms, self.axioms))


class Verdict(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"


class CheckResult(Record):
    """Query outcome; `model` is the countermodel for INVALID and the
    witnessing model for SATISFIABLE, None otherwise."""

    verdict: Verdict
    model: EpistemicModel | None = None

    @property
    def holds(self) -> bool:
        return self.verdict in (Verdict.VALID, Verdict.SATISFIABLE)


def eval_modal(f: Formula, m: EpistemicModel, world_index: int) -> bool:
    """Truth of f at the given world; K quantifies over the whole cell."""
    if not 0 <= world_index < len(m.cell):
        raise IndexError(f"world index {world_index} outside cell of size {len(m.cell)}")
    _require_assigned(f, m.atoms, "model")
    masks = {
        name: sum(v.bits[k] << j for j, v in enumerate(m.cell))
        for k, name in enumerate(m.atoms)
    }
    return bool(_truth(f, (1 << len(m.cell)) - 1, masks, {}) >> world_index & 1)


def erase_K(f: Formula) -> Formula:
    """Structurally replace every K(g) by g, recursively."""
    if isinstance(f, (Top, Bottom, Var)):
        return f
    if isinstance(f, Know):
        return erase_K(f.operand)
    if isinstance(f, Not):
        return Not(erase_K(f.operand))
    return type(f)(erase_K(f.left), erase_K(f.right))


def _model_from_mask(
    names: tuple[str, ...], cell_mask: int, designated_index: int
) -> EpistemicModel:
    # One scan of the binary text, lowest bit first: shifting the whole mask
    # once per bit is quadratic in its width.
    indices = [i for i, bit in enumerate(bin(cell_mask)[:1:-1]) if bit == "1"]
    cell = tuple(valuation_at(names, i) for i in indices)
    return EpistemicModel(names, cell, indices.index(designated_index))


def _first_model(
    f: Formula, theory: Theory, names: tuple[str, ...]
) -> EpistemicModel | None:
    """First canonical model of `theory` (globally) satisfying f at the
    designated world, or None."""
    if modal_depth(f) == 0 and all(modal_depth(a) == 0 for a in theory.axioms):
        first = _first_valuation(names, [f, *theory.axioms])
        return None if first is None else EpistemicModel.singleton(first)

    full, masks = _columns(names)
    for cell_mask in range(1, full + 1):
        cache = {}
        if any(_truth(a, cell_mask, masks, cache) != cell_mask for a in theory.axioms):
            continue
        t = _truth(f, cell_mask, masks, cache)
        if t:
            return _model_from_mask(names, cell_mask, _first(t))
    return None


def _search_atoms(names: set[str], atom_limit: int) -> tuple[str, ...]:
    """The names sorted, or the modal limit's refusal (no cell count in decimal), then
    the ceiling's; callers ask it before they build the formulas the names come from."""
    n = len(names)
    if n > atom_limit:
        raise AtomLimitExceeded(
            f"{n} atoms gives 2^(2^{n}) candidate cells (the search space grows "
            f"as 2^(2^n)); the modal atom limit is {atom_limit} "
            f"(raise it explicitly to accept the cost)"
        )
    return _column_atoms(names)


def is_satisfiable(
    f: Formula,
    theory: Theory = Theory(),
    atom_limit: int = DEFAULT_MODAL_ATOM_LIMIT,
) -> CheckResult:
    """Is there a canonical model of the theory where f holds at the
    designated world?  Returns the first such model in enumeration order."""
    names = _search_atoms(theory.atom_names().union(atoms(f)), atom_limit)
    model = _first_model(f, theory, names)
    if model is None:
        return CheckResult(Verdict.UNSATISFIABLE)
    return CheckResult(Verdict.SATISFIABLE, model)


def is_valid(
    f: Formula,
    theory: Theory = Theory(),
    atom_limit: int = DEFAULT_MODAL_ATOM_LIMIT,
) -> CheckResult:
    """Does f hold at every world of every model of the theory?  Invalid
    results carry the first countermodel (a model of the negation)."""
    negated = is_satisfiable(Not(f), theory, atom_limit)
    if negated.verdict is Verdict.SATISFIABLE:
        return CheckResult(Verdict.INVALID, negated.model)
    return CheckResult(Verdict.VALID)


def are_equivalent_modal(
    f: Formula,
    g: Formula,
    theory: Theory = Theory(),
    atom_limit: int = DEFAULT_MODAL_ATOM_LIMIT,
) -> CheckResult:
    """Theory-relative equivalence: validity of f <-> g."""
    return is_valid(Iff(f, g), theory, atom_limit)
