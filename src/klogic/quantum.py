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

`generate` is the one route to formulas: its `GeneratedTheory` finds the
pairs when built and its axioms, constraints and provenance on first read,
so `classical._within_limits` asks an atom limit before any node exists:
of the pairs' atoms for a table, of the query's atoms for a check, which
then builds only the axioms `axioms_within` its query's atoms, the only
ones its search keeps (see `epistemic`); `axioms` are those within the
pairs' own atoms, one per pair.  A proposition keeps its `Var`,
and as equal formulas are one node (see `syntax.Formula`), every node of
its formulas, each side K(m) or !K(x) included, is built once and shared
by every axiom and constraint it is in.  `epistemic` is imported
when axioms are first built, so constraints alone load no modal code.

`ObservableKind` words the refusal of an unknown kind, which a declaration
file reports at its line.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable

from ._record import Record
from .classical import ConstraintSet
from .errors import DisjointIntervals, DuplicateAtom, KindMismatch
from .syntax import And, Implies, Know, Not, Var

class ObservableKind(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown observable kind {value!r} (expected position or momentum)")


def _exact(value, name: str) -> Fraction:
    """`value` as a Fraction; a float is refused, as its value is binary."""
    if isinstance(value, float):
        raise TypeError(f"{name} must be exact, got the float {value!r} (use a Fraction)")
    return value if type(value) is Fraction else Fraction(value)


class IntervalProposition(Record):
    """An atom asserting that an observable lies in [lo, hi] (natural units).

    `kind` may be given as its value, such as "momentum"; an unknown kind
    raises ValueError.  `var`, the atom's `Var`, and `width`, hi - lo, are
    computed once, when the proposition is built; they are attributes, not
    fields, so they take no part in equality, hashing, the repr or pickling.
    """

    atom: str
    kind: ObservableKind
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        var = Var(self.atom)  # refuses an invalid name
        kind = ObservableKind(self.kind)
        lo, hi = _exact(self.lo, "lo"), _exact(self.hi, "hi")
        width = hi - lo
        if not width.numerator > 0:
            raise ValueError(f"interval must have positive width, got [{lo}, {hi}]")
        for name, value in (("var", var), ("kind", kind), ("lo", lo), ("hi", hi), ("width", width)):
            object.__setattr__(self, name, value)


class PhysicsConfig(Record):
    """Right-hand side of the uncertainty inequality; 1/2 in natural units."""

    bound: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "bound", _exact(self.bound, "bound"))
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
    """Per incompatible (momentum, position) pair, in declaration order, one axiom
    K(m) -> !K(x), one constraint !(m & x) and one provenance record.  `pairs`, found
    when it is built, is an attribute, not a field; the rest is built on first read."""

    propositions: tuple[IntervalProposition, ...]
    config: PhysicsConfig = PhysicsConfig()

    def __post_init__(self):
        props, seen = tuple(self.propositions), set()
        for p in props:
            if p.atom in seen:
                raise DuplicateAtom(f"atom '{p.atom}' declared more than once")
            seen.add(p.atom)
        bn, bd = self.config.bound.as_integer_ratio()
        positions = [
            (x, *x.width.as_integer_ratio()) for x in props if x.kind is ObservableKind.POSITION
        ]
        below: dict[tuple[int, int], list[IntervalProposition]] = {}
        pairs = []
        for m in props:
            if m.kind is ObservableKind.MOMENTUM:
                key = m.width.as_integer_ratio()
                if key not in below:  # found once per momentum width
                    # Widths are positive: m.width * x.width < bound exactly when
                    # x.width < bound / m.width = tn / td, compared cross-multiplied.
                    tn, td = bn * key[1], bd * key[0]
                    below[key] = [x for x, n, d in positions if n * td < tn * d]
                pairs += [(m, x) for x in below[key]]
        object.__setattr__(self, "propositions", props)
        object.__setattr__(self, "pairs", tuple(pairs))

    def atom_names(self) -> set[str]:
        return {p.atom for pair in self.pairs for p in pair}

    @cached_property
    def axioms(self) -> Theory:
        """Every pair's axiom: the axioms within the pairs' own atoms."""
        return self.axioms_within(self.atom_names())

    def axioms_within(self, names: Collection[str]) -> Theory:
        """The axioms of the pairs whose two atoms are both in `names`: the
        only ones a query over `names` keeps (see `epistemic`), since
        K(m) -> !K(x) holds once m or x is false at every world."""
        from .epistemic import Theory

        pairs = [(m, x) for m, x in self.pairs if m.atom in names and x.atom in names]
        return Theory(tuple([Implies(Know(m.var), Not(Know(x.var))) for m, x in pairs]))

    @cached_property
    def constraints(self) -> ConstraintSet:
        return ConstraintSet(tuple([Not(And(m.var, x.var)) for m, x in self.pairs]))

    @cached_property
    def provenance(self) -> tuple[AxiomProvenance, ...]:
        bound = self.config.bound
        return tuple([AxiomProvenance(m, x, m.width * x.width, bound) for m, x in self.pairs])


def generate(
    props: Iterable[IntervalProposition], cfg: PhysicsConfig = PhysicsConfig()
) -> GeneratedTheory:
    """The theory the propositions generate under `cfg`; see `GeneratedTheory`."""
    return GeneratedTheory(props, cfg)
