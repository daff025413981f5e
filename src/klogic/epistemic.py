"""Single-agent S5 semantics over canonical single-cluster models.

A model is one equivalence class of worlds (every world sees every world,
itself included), represented as a non-empty set of pairwise-distinct
valuations plus a designated world.  K(f) is true at a world iff f is true
at every world of the cell.

A query is answered in three steps.

Reduction.  The search covers only the atoms Q that the query reaches
through the theory.  Q starts as the query's atoms.  An axiom with an atom
outside Q is dropped while it folds to true with those atoms false at every
world (`_fold`); any other axiom is kept and its atoms join Q, until Q
stops growing.  This is exact: setting every atom outside Q to false in
every world of a model keeps the kept axioms and the query true (they read
only Q), keeps the dropped ones true (they fold to true), and can only
lower the cell's column.  So the first model has every atom outside Q
false, and is the first model over Q of the kept axioms.

Search.  A K-free formula holds or fails at each world alone, and each
node stores its modal depth, 0 iff K-free (see `syntax.Formula`).  So a
K-free query and kept theory have as first model the singleton of the
first valuation where all of them hold, which `klogic.classical` finds.
Otherwise, with V the 2^|Q| valuations of Q in canonical order, cells are
tried in ascending order of the cell read as a column in the format the
`klogic.classical` docstring defines, and within a cell, designated worlds
in ascending valuation order.  The first hit is returned, so repeated
queries are reproducible bit for bit.  In single-agent S5 truth at the
designated world depends only on its own cell, and duplicate-valuation
worlds are redundant, so this enumeration is exhaustive up to semantic
equivalence.  The K-free axioms are read once, into `allowed`, the
valuations where all of them hold, and the cells tried are the non-empty
subsets of `allowed`: a cell with a world outside it fails such an axiom
there, so skipping it is exact, and the order among the rest is unchanged.
The search is set up once: the K-free axioms, and the maximal K-free
subformulas of the modal axioms and the query, atoms included, are
evaluated over V, and `_post_order` lists once the nodes left under the
query and K of each modal axiom; a modal axiom holds at every world of a
cell iff K of it holds at one.  On each cell that list is evaluated over
those columns cut to the cell.  Either search ends in a cell and the index
of its designated valuation.

Padding.  The model is built from that cell over the sorted atoms of the
query, the whole theory and any extra atoms the caller names, those
outside Q false at every world.  This keeps the order of valuations, so
the model, its designated world and every report are those of a search
over all the atoms.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from ._record import Record
from .syntax import And, Bottom, Formula, Iff, Implies, Know, Not, Top, Var, _post_order, atoms
from .classical import (
    DEFAULT_MODAL_ATOM_LIMIT,
    Valuation,
    _columns,
    _first,
    _first_valuation,
    _require_assigned,
    _truth,
    _within_limits,
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
    known = {
        Var(name): sum(v.bits[k] << j for j, v in enumerate(m.cell))
        for k, name in enumerate(m.atoms)
    }
    return bool(_truth((f,), (1 << len(m.cell)) - 1, known) >> world_index & 1)


def erase_K(f: Formula) -> Formula:
    """Structurally replace every K(g) by g, at every depth.  A K-free
    subtree is returned as it is, and each node is rebuilt once, over
    `_post_order`, so the result shares what f shares."""
    erased: dict[Formula, Formula] = {}
    for g in _post_order((f,)):
        t = type(g)
        if not g._modal_depth:
            erased[g] = g
        elif t is Know:
            erased[g] = erased[g.operand]
        elif t is Not:
            erased[g] = Not(erased[g.operand])
        else:
            erased[g] = t(erased[g.left], erased[g.right])
    return erased[f]


def _fold(f: Formula, unknown: set[str], cache: dict) -> bool | None:
    """Three-valued truth of f at every world of every cell where each atom
    outside `unknown` is false: True or False when that settles it, None
    when it may depend on the atoms in `unknown`.

    K(g) folds as g does, because a cell is non-empty: so K(false) folds to
    False.  `cache` maps each node folded for this `unknown` set to its
    value; the nodes of f not in it are folded over `_post_order`.
    """
    for g in _post_order((f,), cache):
        t = type(g)
        if t is Var:
            r = None if g.name in unknown else False
        elif t is Top or t is Bottom:
            r = t is Top
        elif t is Know:
            r = cache[g.operand]
        elif t is Not:
            r = cache[g.operand]
            r = None if r is None else not r
        else:
            left = cache[g.left]
            if t is Implies and left is not None:  # read as !left | right
                left = not left
            pair = (left, cache[g.right])
            if t is And:
                r = False if False in pair else None if None in pair else True
            elif t is Iff:
                r = None if None in pair else pair[0] == pair[1]
            else:  # Or, and Implies as !left | right
                r = True if True in pair else None if None in pair else False
        cache[g] = r
    return cache[f]


def _reduce(
    f: Formula, axioms: tuple[Formula, ...], extra_atoms: Iterable[str], atom_limit: int
) -> tuple[tuple[str, ...], list[Formula], tuple[str, ...]]:
    """The atoms Q that a search for f reaches through `axioms`, sorted; the
    axioms it keeps, in theory order; and the atoms of f, `axioms` and
    `extra_atoms`, sorted, over which the model is built.

    See the module docstring for the rule: a pass over the axioms not yet
    kept repeats while Q grows.  `classical._within_limits` asks the modal
    limit and the column ceiling of f's atoms before any fold and of Q each
    time it grows, so the reduction stops as soon as Q passes one, with the
    refusal a search over every atom would get.
    """
    q = set(atoms(f))
    axiom_atoms = [set(atoms(a)) for a in axioms]
    every = q.union(extra_atoms, *axiom_atoms)
    _within_limits(q, every, atom_limit, cells=True)  # before any fold
    kept = [False] * len(axioms)
    grew = True
    while grew:
        grew, cache = False, {}
        for i, a in enumerate(axioms):
            if kept[i]:
                continue
            outside = axiom_atoms[i] - q
            if outside and _fold(a, q, cache):
                continue
            kept[i] = True
            if outside:
                q |= outside
                _within_limits(q, every, atom_limit, cells=True)
                grew, cache = True, {}
    return tuple(sorted(q)), [a for a, k in zip(axioms, kept) if k], tuple(sorted(every))


def _k_free_parts(roots: Sequence[Formula]) -> list[Formula]:
    """The maximal K-free subformulas of `roots`, atoms included, each node
    once: the K-free roots and the K-free operands of modal nodes, read from
    `_post_order`."""
    parts = dict.fromkeys(roots)
    for g in _post_order(roots):
        if g._modal_depth:
            if type(g) is Not or type(g) is Know:
                parts[g.operand] = None
            else:
                parts[g.left] = parts[g.right] = None
    return [g for g in parts if not g._modal_depth]


def _first_model(
    f: Formula, axioms: Sequence[Formula], names: tuple[str, ...]
) -> tuple[int, int] | None:
    """The first canonical model over `names` of the axioms (globally)
    satisfying f at the designated world, as its cell and the designated
    valuation's index, or None.  See the module docstring's Search."""
    modal = [a for a in axioms if a._modal_depth]
    if not f._modal_depth and not modal:
        first = _first_valuation(names, [f, *axioms])
        return None if first is None else (1 << first, first)

    full, columns = _columns(names)
    parts = _k_free_parts([f, *modal])
    _truth(parts, full, columns)
    allowed = _truth([a for a in axioms if not a._modal_depth], full, columns)
    parts = [(g, columns[g]) for g in parts]
    roots = [*map(Know, modal), f]
    order = _post_order(roots, columns)
    # The non-empty submasks of `allowed` in ascending order: the step after
    # `allowed` itself is 0.
    cell, outside = 0, ~allowed
    while cell := ((cell | outside) + 1) & allowed:
        if t := _truth(roots, cell, {g: column & cell for g, column in parts}, order):
            return cell, _first(t)
    return None


def _build_model(
    names: tuple[str, ...], padded: tuple[str, ...], cell: int, designated: int
) -> EpistemicModel:
    """The model whose worlds are the valuations over `names` at the set
    bits of `cell`, designated at valuation index `designated`, built over
    `padded`, a sorted superset of `names` whose other atoms are false at
    every world.  See the module docstring's Padding."""
    n = len(names)
    digit = {a: k for k, a in enumerate(names)}
    places = [digit.get(a) for a in padded]
    # Each set bit taken off as the lowest one, so the cost follows the
    # cell's worlds, not its width.
    indices = []
    while cell:
        low = cell & -cell
        indices.append(low.bit_length() - 1)
        cell ^= low
    worlds = []
    for i in indices:
        digits = format(i, f"0{n}b")  # the n binary digits of i, first atom first
        worlds.append(Valuation(padded, [k is not None and digits[k] == "1" for k in places]))
    return EpistemicModel(padded, worlds, indices.index(designated))


def is_satisfiable(
    f: Formula,
    theory: Theory = Theory(),
    atom_limit: int = DEFAULT_MODAL_ATOM_LIMIT,
    extra_atoms: Iterable[str] = (),
) -> CheckResult:
    """Is there a canonical model of the theory where f holds at the
    designated world?  Returns the first such model in enumeration order,
    over the atoms of f, the whole theory and `extra_atoms`.  Nothing reads
    an extra atom, so it is false at every world of that model; a caller
    that leaves out axioms the reduction would drop passes their atoms.
    The atoms searched meet the modal limit in `classical._within_limits`."""
    names, axioms, padded = _reduce(f, theory.axioms, extra_atoms, atom_limit)
    first = _first_model(f, axioms, names)
    if first is None:
        return CheckResult(Verdict.UNSATISFIABLE)
    return CheckResult(Verdict.SATISFIABLE, _build_model(names, padded, *first))


def is_valid(
    f: Formula,
    theory: Theory = Theory(),
    atom_limit: int = DEFAULT_MODAL_ATOM_LIMIT,
    extra_atoms: Iterable[str] = (),
) -> CheckResult:
    """Does f hold at every world of every model of the theory?  Invalid
    results carry the first countermodel (a model of the negation), over
    the atoms `is_satisfiable` names."""
    negated = is_satisfiable(Not(f), theory, atom_limit, extra_atoms)
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
