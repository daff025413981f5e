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
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from ._record import Record
from .classical import ConstraintSet
from .epistemic import Theory
from .errors import DisjointIntervals, DuplicateAtom, KindMismatch
from .syntax import And, Formula, Implies, Know, Not, Var

class ObservableKind(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


class IntervalProposition(Record):
    """An atom asserting that an observable lies in [lo, hi] (natural units).

    `width`, hi - lo, is computed once, when the proposition is built; it is
    an attribute, not a field, so it takes no part in equality or the repr.
    """

    atom: str
    kind: ObservableKind
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        Var(self.atom)  # refuses an invalid name
        lo = self.lo if type(self.lo) is Fraction else Fraction(self.lo)
        hi = self.hi if type(self.hi) is Fraction else Fraction(self.hi)
        width = hi - lo
        if not width.numerator > 0:
            raise ValueError(f"interval must have positive width, got [{lo}, {hi}]")
        for name, value in (("lo", lo), ("hi", hi), ("width", width)):
            object.__setattr__(self, name, value)

    @property
    def var(self) -> Var:
        return Var(self.atom)


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


def _sides(
    pairs: list[tuple[IntervalProposition, IntervalProposition]],
) -> dict[int, tuple[Var, Formula, Fraction]]:
    """Per proposition of `pairs`, keyed by `id`: its Var, its side of the
    axiom (K(m) for a momentum, !K(x) for a position) and its width, built
    once and shared by every pair it is in."""
    sides = {}
    for p in {id(p): p for pair in pairs for p in pair}.values():
        v = p.var
        side = Know(v) if p.kind is ObservableKind.MOMENTUM else Not(Know(v))
        sides[id(p)] = v, side, p.width
    return sides


def _generated_theory(
    pairs: list[tuple[IntervalProposition, IntervalProposition]], cfg: PhysicsConfig
) -> GeneratedTheory:
    """The axioms, constraints and provenance of `pairs`, in their order."""
    sides = _sides(pairs)
    axioms: list[Formula] = []
    constraints: list[Formula] = []
    provenance: list[AxiomProvenance] = []
    for m, x in pairs:
        (m_var, knows_m, m_width), (x_var, not_knows_x, x_width) = sides[id(m)], sides[id(x)]
        axioms.append(Implies(knows_m, not_knows_x))
        constraints.append(Not(And(m_var, x_var)))
        provenance.append(AxiomProvenance(m, x, m_width * x_width, cfg.bound))
    return GeneratedTheory(
        Theory(tuple(axioms)), ConstraintSet(tuple(constraints)), tuple(provenance)
    )


def generate(
    props: list[IntervalProposition] | tuple[IntervalProposition, ...],
    cfg: PhysicsConfig = PhysicsConfig(),
) -> GeneratedTheory:
    """One axiom K(m) -> !K(x) and one constraint !(m & x) per incompatible
    momentum/position pair, in declaration order; nothing else.

    Only a theory or constraints need these formula nodes: the `quantum`
    command's listings and JSON are rendered from the pairs alone."""
    return _generated_theory(_incompatible_pairs(props, cfg), cfg)
