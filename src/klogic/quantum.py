"""Interval-valued observable propositions and incompatibility generation.

A proposition binds an atom to one observable kind (position or momentum on
a single axis) and an exact rational interval.  A momentum/position pair is
incompatible when the product of the interval widths falls below the
uncertainty bound (1/2 in natural units); each incompatible pair yields one
epistemic axiom K(m) -> !K(x) and one classical constraint !(m & x).

All arithmetic is exact: widths, products, and the bound are
`fractions.Fraction` values, so comparisons at the bound are never subject
to rounding.  The pair search compares cross-multiplied integers instead of
fractions, and scans the positions once per distinct momentum width, so a
listing costs about what its output does.

Every output is built from the pairs `_incompatible_pairs` returns: the
axioms by `_axioms`, the constraints by `_constraints` (`generate` is both,
for the library), the listings' text by `quantum_report`.  A proposition's
`Var` is built once, and every node of its axioms and constraints shares it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from ._record import Record
from .classical import ConstraintSet
from .epistemic import Theory
from .errors import DisjointIntervals, DuplicateAtom, KindMismatch
from .syntax import And, Implies, Know, Not, Var

class ObservableKind(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


class IntervalProposition(Record):
    """An atom asserting that an observable lies in [lo, hi] (natural units).

    `var`, the atom's `Var`, and `width`, hi - lo, are computed once, when
    the proposition is built; they are attributes, not fields, so they take
    no part in equality, hashing, the repr or pickling.
    """

    atom: str
    kind: ObservableKind
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        var = Var(self.atom)  # refuses an invalid name
        lo = self.lo if type(self.lo) is Fraction else Fraction(self.lo)
        hi = self.hi if type(self.hi) is Fraction else Fraction(self.hi)
        width = hi - lo
        if not width.numerator > 0:
            raise ValueError(f"interval must have positive width, got [{lo}, {hi}]")
        for name, value in (("var", var), ("lo", lo), ("hi", hi), ("width", width)):
            object.__setattr__(self, name, value)


class PhysicsConfig(Record):
    """Right-hand side of the uncertainty inequality; 1/2 in natural units."""

    bound: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "bound", Fraction(self.bound))
        if not self.bound > 0:
            raise ValueError(f"bound must be positive, got {self.bound}")


def _require_pair(m: IntervalProposition, x: IntervalProposition) -> None:
    if m.kind is not ObservableKind.MOMENTUM or x.kind is not ObservableKind.POSITION:
        raise KindMismatch(
            f"expected a (momentum, position) pair, got "
            f"({m.kind.value} '{m.atom}', {x.kind.value} '{x.atom}')"
        )


def uncertainty_product(m: IntervalProposition, x: IntervalProposition) -> Fraction:
    """Exact product of the momentum width and the position width."""
    _require_pair(m, x)
    return m.width * x.width


def compatible(
    m: IntervalProposition,
    x: IntervalProposition,
    cfg: PhysicsConfig = PhysicsConfig(),
) -> bool:
    """True iff the width product meets the bound; equality counts as
    compatible (the inequality is >=)."""
    return uncertainty_product(m, x) >= cfg.bound


def merge(
    a: IntervalProposition, b: IntervalProposition, new_name: str
) -> IntervalProposition:
    """Union of two same-kind intervals that overlap or share an endpoint."""
    if a.kind is not b.kind:
        raise KindMismatch(
            f"cannot merge {a.kind.value} '{a.atom}' with {b.kind.value} '{b.atom}'"
        )
    if max(a.lo, b.lo) > min(a.hi, b.hi):
        raise DisjointIntervals(
            f"[{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] leave a gap; "
            f"their union is not an interval"
        )
    return IntervalProposition(new_name, a.kind, min(a.lo, b.lo), max(a.hi, b.hi))


class AxiomProvenance(Record):
    """Why one axiom exists: the pair and its recomputable width product."""

    momentum: IntervalProposition
    position: IntervalProposition
    product: Fraction
    bound: Fraction


class GeneratedTheory(Record):
    axioms: Theory
    constraints: ConstraintSet
    provenance: tuple[AxiomProvenance, ...]


def _incompatible_pairs(
    props: list[IntervalProposition] | tuple[IntervalProposition, ...],
    cfg: PhysicsConfig,
) -> list[tuple[IntervalProposition, IntervalProposition]]:
    """Every (momentum, position) pair whose width product falls below the
    bound: momenta in declaration order, and each momentum's positions in
    declaration order."""
    seen: set[str] = set()
    for p in props:
        if p.atom in seen:
            raise DuplicateAtom(f"atom '{p.atom}' declared more than once")
        seen.add(p.atom)
    bn, bd = cfg.bound.numerator, cfg.bound.denominator
    positions = [
        (x, x.width.numerator, x.width.denominator)
        for x in props
        if x.kind is ObservableKind.POSITION
    ]
    # Momenta of one width have the same positions; they are found once.
    below: dict[tuple[int, int], list[IntervalProposition]] = {}
    pairs = []
    for m in props:
        if m.kind is ObservableKind.MOMENTUM:
            key = m.width.numerator, m.width.denominator
            if key not in below:
                # Widths are positive, so m.width * x.width < bound exactly
                # when x.width < bound / m.width = tn / td, compared here as
                # cross-multiplied integers.
                tn, td = bn * key[1], bd * key[0]
                below[key] = [x for x, n, d in positions if n * td < tn * d]
            pairs += [(m, x) for x in below[key]]
    return pairs


def _axioms(pairs: list[tuple[IntervalProposition, IntervalProposition]]) -> Theory:
    """K(m) -> !K(x) per pair, in order.  Each proposition's side, K(m) or
    !K(x), is built once and shared by every axiom it is in."""
    sides = {
        id(p): Know(p.var) if p.kind is ObservableKind.MOMENTUM else Not(Know(p.var))
        for p in {id(p): p for pair in pairs for p in pair}.values()
    }
    return Theory(tuple([Implies(sides[id(m)], sides[id(x)]) for m, x in pairs]))


def _constraints(pairs: list[tuple[IntervalProposition, IntervalProposition]]) -> ConstraintSet:
    """!(m & x) per pair, in order."""
    return ConstraintSet(tuple([Not(And(m.var, x.var)) for m, x in pairs]))


def generate(
    props: list[IntervalProposition] | tuple[IntervalProposition, ...],
    cfg: PhysicsConfig = PhysicsConfig(),
) -> GeneratedTheory:
    """One axiom K(m) -> !K(x) and one constraint !(m & x) per incompatible
    momentum/position pair, in declaration order; nothing else."""
    pairs = _incompatible_pairs(props, cfg)
    provenance = tuple([AxiomProvenance(m, x, m.width * x.width, cfg.bound) for m, x in pairs])
    return GeneratedTheory(_axioms(pairs), _constraints(pairs), provenance)
