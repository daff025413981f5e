"""Interval propositions, the uncertainty bound, and axiom generation."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from klogic import (
    And,
    AxiomProvenance,
    ConstraintSet,
    DisjointIntervals,
    DuplicateAtom,
    GeneratedTheory,
    Iff,
    Implies,
    IntervalProposition,
    KindMismatch,
    Know,
    Not,
    ObservableKind,
    Or,
    PhysicsConfig,
    Theory,
    Var,
    atoms,
    compatible,
    generate,
    is_satisfiable,
    is_valid,
    merge,
    parse,
    render,
    truth_table,
    uncertainty_product,
)
from klogic.cli import EXIT_NEGATIVE, EXIT_OK, main
from oracles import oracle_eval_modal, oracle_graph_sat

MOM = ObservableKind.MOMENTUM
POS = ObservableKind.POSITION


def _p():
    return IntervalProposition("p", MOM, Fraction(0), Fraction(1, 6))


def _q():
    return IntervalProposition("q", POS, Fraction(-1), Fraction(1))


def _r():
    return IntervalProposition("r", POS, Fraction(1), Fraction(3))


def test_widths_are_exact():
    assert _p().width == Fraction(1, 6)
    assert _q().width == Fraction(2)
    assert _r().width == Fraction(2)
    assert IntervalProposition("s", POS, Fraction(-1), Fraction(3)).width == Fraction(4)
    # the q width also falls out of the stated product: (1/3) / (1/6) = 2
    assert _q().width == Fraction(1, 3) / Fraction(1, 6)


def test_interval_validation():
    with pytest.raises(ValueError):
        IntervalProposition("p", MOM, Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        IntervalProposition("p", MOM, Fraction(2), Fraction(1))
    with pytest.raises(ValueError, match=r"^invalid atom name: 'And'$"):
        IntervalProposition("And", MOM, Fraction(0), Fraction(1))


def test_an_invalid_atom_name_is_refused_with_vars_message():
    for name in ("and", "Bad", "_x", "1p", "\u00e9", ""):
        with pytest.raises(ValueError) as e:
            IntervalProposition(name, POS, Fraction(0), Fraction(1))
        assert str(e.value) == f"invalid atom name: {name!r}", name


def test_var_is_an_attribute_not_a_field():
    p, twin = _p(), _p()
    assert p.var is Var("p") and p.var is twin.var
    assert IntervalProposition.__match_args__ == ("atom", "kind", "lo", "hi")
    assert p == twin and hash(p) == hash(twin)
    assert repr(p) == (
        "IntervalProposition(atom='p', kind=<ObservableKind.MOMENTUM: 'momentum'>, "
        "lo=Fraction(0, 1), hi=Fraction(1, 6))"
    )
    assert p.__reduce__() == (IntervalProposition, ("p", MOM, Fraction(0), Fraction(1, 6)))
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and copy is not p and copy.var is p.var
    with pytest.raises(AttributeError):
        p.var = Var("q")  # type: ignore[misc]


def test_generate_shares_each_propositions_var():
    """The Var a proposition keeps is the node in every axiom and constraint
    it is in, and each side K(m) or !K(x) is one node per proposition."""
    p, q, r = _p(), _q(), _r()
    gen = generate((p, q, r))
    (pq, pr), (not_pq, not_pr) = gen.axioms.axioms, gen.constraints
    assert pq.left is pr.left and pq.left.operand is p.var
    assert pq.right.operand.operand is q.var and pr.right.operand.operand is r.var
    assert not_pq.operand.left is p.var and not_pq.operand.right is q.var
    assert not_pr.operand.left is p.var and not_pr.operand.right is r.var


def test_floats_are_refused_and_exact_values_accepted():
    """The float 0.3 lies just below 3/10, so against a position of width
    5/3 it would read incompatible, although 3/10 * 5/3 = 1/2 meets the
    bound."""
    x = IntervalProposition("x", POS, Fraction(0), Fraction(5, 3))
    assert Fraction(0.3) * x.width < Fraction(1, 2)
    with pytest.raises(TypeError) as e:
        IntervalProposition("m", MOM, 0, 0.3)
    assert str(e.value) == "hi must be exact, got the float 0.3 (use a Fraction)"
    with pytest.raises(TypeError, match=r"^lo must be exact, got the float 0\.0 "):
        IntervalProposition("m", MOM, 0.0, Fraction(3, 10))
    for hi in (Fraction(3, 10), "3/10", "0.3", Decimal("0.3")):
        m = IntervalProposition("m", MOM, 0, hi)
        assert m.width == Fraction(3, 10) and compatible(m, x)
        assert generate((m, x)).pairs == ()
    with pytest.raises(TypeError, match=r"^bound must be exact, got the float 0\.5 "):
        PhysicsConfig(0.5)
    assert PhysicsConfig(Decimal("0.5")) == PhysicsConfig("1/2") == PhysicsConfig()


def test_pairs_are_found_once_and_the_nodes_built_on_first_read():
    p, q, r = _p(), _q(), _r()
    gen = generate([p, q, r])
    assert gen == GeneratedTheory((p, q, r), PhysicsConfig())
    assert gen.pairs == ((p, q), (p, r)) and gen.pairs[0][0] is p
    assert gen.atom_names() == {"p", "q", "r"}
    assert {"axioms", "constraints", "provenance"} & vars(gen).keys() == set()
    assert gen.constraints is gen.constraints and "axioms" not in vars(gen)
    assert gen.axioms is gen.axioms and gen.provenance is gen.provenance
    assert pickle.loads(pickle.dumps(gen)).pairs == gen.pairs


def test_the_readme_library_block_runs_as_documented():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, results = block.splitlines(), {}, []
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            results.append(repr(eval(code, namespace)))
            comment = lines[statement.end_lineno - 1].partition("# ")[2]
            assert comment.startswith(results[-1]), comment
        else:
            exec(code, namespace)
    assert results == ["Fraction(1, 3)", "False", "['K(m) -> !K(x)']", "'VALID'"]


def test_physics_config_default_and_validation():
    assert PhysicsConfig().bound == Fraction(1, 2)
    with pytest.raises(ValueError):
        PhysicsConfig(Fraction(0))
    with pytest.raises(ValueError):
        PhysicsConfig(Fraction(-1, 2))


def test_uncertainty_products_match_the_worked_example():
    full_range = IntervalProposition("s", POS, Fraction(-1), Fraction(3))
    assert uncertainty_product(_p(), full_range) == Fraction(2, 3)
    assert uncertainty_product(_p(), _q()) == Fraction(1, 3)
    assert uncertainty_product(_p(), _r()) == Fraction(1, 3)


def test_products_are_fractions_not_floats():
    value = uncertainty_product(_p(), _q())
    assert isinstance(value, Fraction)
    assert value == Fraction(1, 3)
    assert float(value) != value  # 1/3 has no exact float


def test_kind_mismatch_is_rejected():
    with pytest.raises(KindMismatch):
        uncertainty_product(_q(), _p())  # arguments swapped
    with pytest.raises(KindMismatch):
        uncertainty_product(_p(), _p())
    with pytest.raises(KindMismatch):
        compatible(_q(), _r())


def test_kind_may_be_given_as_its_value():
    m = IntervalProposition("m", "momentum", Fraction(0), Fraction(1, 6))
    x = IntervalProposition("x", "position", Fraction(-1), Fraction(1))
    assert m == IntervalProposition("m", MOM, Fraction(0), Fraction(1, 6))
    assert (m.kind, x.kind) == (MOM, POS)
    assert compatible(m, x) is False
    assert generate([m, x]).pairs == ((m, x),)
    with pytest.raises(ValueError) as exc:
        IntervalProposition("s", "spin", Fraction(0), Fraction(1))
    # the declaration reader prints the same text at the line
    assert str(exc.value) == "unknown observable kind 'spin' (expected position or momentum)"


def test_compatibility_verdicts():
    full_range = IntervalProposition("s", POS, Fraction(-1), Fraction(3))
    assert compatible(_p(), full_range) is True
    assert compatible(_p(), _q()) is False
    assert compatible(_p(), _r()) is False


def test_equality_at_the_bound_counts_as_compatible():
    m = IntervalProposition("m", MOM, Fraction(0), Fraction(1, 2))
    x = IntervalProposition("x", POS, Fraction(0), Fraction(1))
    assert uncertainty_product(m, x) == Fraction(1, 2)
    assert compatible(m, x) is True


def test_merge_of_the_position_intervals():
    s = merge(_q(), _r(), "s")
    assert s.atom == "s"
    assert s.kind is POS
    assert (s.lo, s.hi) == (Fraction(-1), Fraction(3))
    assert s.width == Fraction(4)


def test_merge_overlap_and_gap():
    a = IntervalProposition("a", POS, Fraction(0), Fraction(2))
    b = IntervalProposition("b", POS, Fraction(1), Fraction(3))
    assert (merge(a, b, "c").lo, merge(a, b, "c").hi) == (Fraction(0), Fraction(3))
    gap = IntervalProposition("g", POS, Fraction(5), Fraction(6))
    with pytest.raises(DisjointIntervals):
        merge(a, gap, "c")
    with pytest.raises(KindMismatch):
        merge(a, _p(), "c")


def test_merge_is_idempotent_on_identical_intervals():
    a = IntervalProposition("a", POS, Fraction(0), Fraction(2))
    again = merge(a, a, "b")
    assert (again.lo, again.hi) == (a.lo, a.hi)


def test_width_adds_across_an_endpoint_sharing_merge():
    s = merge(_q(), _r(), "s")
    assert _q().hi == _r().lo
    assert s.width == _q().width + _r().width == Fraction(4)


def test_generate_emits_exactly_the_two_axioms():
    gen = generate((_p(), _q(), _r()))
    assert [render(a) for a in gen.axioms.axioms] == [
        "K(p) -> !K(q)",
        "K(p) -> !K(r)",
    ]
    assert [render(c) for c in gen.constraints] == ["!(p & q)", "!(p & r)"]
    assert [pv.product for pv in gen.provenance] == [Fraction(1, 3), Fraction(1, 3)]
    assert all(pv.bound == Fraction(1, 2) for pv in gen.provenance)


def test_generate_provenance_recomputes_from_declarations():
    gen = generate((_p(), _q(), _r()))
    for pv in gen.provenance:
        assert pv.product == pv.momentum.width * pv.position.width
        assert pv.product < pv.bound


def test_generate_compatible_pair_emits_nothing():
    s = IntervalProposition("s", POS, Fraction(-1), Fraction(3))
    gen = generate((_p(), s))
    assert len(gen.axioms.axioms) == 0
    assert len(gen.constraints) == 0
    assert gen.provenance == ()


def test_generate_empty_and_same_kind_inputs():
    assert generate(()).provenance == ()
    only_positions = generate((_q(), _r()))
    assert len(only_positions.axioms.axioms) == 0
    assert len(only_positions.constraints) == 0


def test_generate_rejects_duplicate_atoms():
    with pytest.raises(DuplicateAtom):
        generate((_p(), IntervalProposition("p", POS, Fraction(0), Fraction(1))))


def test_generated_constraints_reproduce_the_table_exclusions():
    """End to end: declarations -> constraints -> the worked example's table."""
    gen = generate((_p(), _q(), _r()))
    table = truth_table(
        (parse("p & (q | r)"), parse("(p & q) | (p & r)")), gen.constraints
    )
    excluded = [row.valuation.bits for row in table.rows if row.excluded]
    assert excluded == [
        (True, False, True),
        (True, True, False),
        (True, True, True),
    ]
    assert all(
        row.values == (False, False) for row in table.rows if not row.excluded
    )
    # two position intervals never exclude each other: (0,1,1) stays feasible
    assert not table.rows[0b011].excluded


rationals = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100))


@given(rationals, rationals, rationals)
@settings(max_examples=150)
def test_scale_coherence_against_direct_recomputation(wm, wx, bound):
    m = IntervalProposition("m", MOM, Fraction(0), wm)
    x = IntervalProposition("x", POS, Fraction(0), wx)
    product = wm * wx
    assert compatible(m, x, PhysicsConfig(bound)) == (product >= bound)
    doubled = compatible(m, x, PhysicsConfig(2 * bound))
    flipped = compatible(m, x, PhysicsConfig(bound)) and not doubled
    assert flipped == (bound <= product < 2 * bound)


@given(rationals, rationals, rationals)
@settings(max_examples=100)
def test_generate_agrees_with_compatible(wm, wx, bound):
    m = IntervalProposition("m", MOM, Fraction(0), wm)
    x = IntervalProposition("x", POS, Fraction(0), wx)
    cfg = PhysicsConfig(bound)
    gen = generate((m, x), cfg)
    if compatible(m, x, cfg):
        assert gen.provenance == ()
    else:
        assert [render(a) for a in gen.axioms.axioms] == ["K(m) -> !K(x)"]
        assert [render(c) for c in gen.constraints] == ["!(m & x)"]


def test_generate_handles_many_pairs_in_declaration_order():
    rng = random.Random(7)
    props = []
    for i in range(3):
        lo = Fraction(rng.randint(-4, 0))
        props.append(IntervalProposition(f"m{i}", MOM, lo, lo + Fraction(1, rng.randint(2, 9))))
    for i in range(3):
        lo = Fraction(rng.randint(-4, 0))
        props.append(IntervalProposition(f"x{i}", POS, lo, lo + Fraction(1, rng.randint(1, 3))))
    gen = generate(tuple(props))
    expected = [
        (m, x)
        for m in props
        if m.kind is MOM
        for x in props
        if x.kind is POS and not compatible(m, x)
    ]
    assert [(pv.momentum, pv.position) for pv in gen.provenance] == expected
    assert len(gen.axioms.axioms) == len(expected)


def _coprime_fraction(rng: random.Random, digits: int) -> Fraction:
    """A fraction whose numerator and denominator both have `digits` digits
    and share no factor, so that it is stored as drawn."""
    while True:
        n, d = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))
        if math.gcd(n, d) == 1:
            return Fraction(n, d)


@pytest.mark.parametrize("wide_bound", [False, True], ids=["bound-1/2", "wide-bound"])
def test_pair_search_matches_pairwise_compatible_at_1000_digits(wide_bound):
    """The pair search against a pairwise compatible() loop, in
    declaration order.  Momentum widths of about 1000 digits, several
    momenta per width and widths sharing a numerator or a denominator, each
    with positions whose product lies just below, exactly at (compatible)
    and just above the bound; the cache of positions per momentum width and
    the cross-multiplied comparison must both be exact."""
    rng = random.Random(13)
    bound = _coprime_fraction(rng, 1000) if wide_bound else Fraction(1, 2)
    base = [_coprime_fraction(rng, 1000) for _ in range(3)]
    # Same numerator or same denominator as base[0], different value.
    m_widths = base + [
        Fraction(base[0].numerator, base[0].denominator + 2),
        Fraction(base[0].numerator + 2, base[0].denominator),
    ]
    x_widths = []
    for w in m_widths:
        at = bound / w  # m.width * x.width == bound exactly
        tiny = Fraction(1, at.denominator * 10**1000)
        x_widths += [at - tiny, at, at + tiny]
    x_widths += [_coprime_fraction(rng, 1000) for _ in range(4)]
    momenta = [
        IntervalProposition(f"m{i}", MOM, Fraction(i), i + m_widths[i % len(m_widths)])
        for i in range(4 * len(m_widths))
    ]
    positions = [
        IntervalProposition(f"x{i}", POS, Fraction(-i), -i + w) for i, w in enumerate(x_widths)
    ]
    props = momenta + positions
    rng.shuffle(props)  # momenta of one width interleaved with others and with positions
    cfg = PhysicsConfig(bound)
    expected = [
        (m.atom, x.atom)
        for m in props
        if m.kind is MOM
        for x in props
        if x.kind is POS and not compatible(m, x, cfg)
    ]
    pairs = generate(props, cfg).pairs
    assert [(m.atom, x.atom) for m, x in pairs] == expected
    # The data reaches the bound: every momentum is incompatible with the
    # position just below it, and compatible with the ones at and above it.
    found = set(expected)
    for i, m in enumerate(momenta):
        j = 3 * (i % len(m_widths))
        assert (m.atom, f"x{j}") in found
        assert (m.atom, f"x{j + 1}") not in found and (m.atom, f"x{j + 2}") not in found


# Widths and bounds from a small set, so that many width products fall
# exactly on the bound.
_widths = st.sampled_from(
    [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
     Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
)
_declared = st.lists(
    st.tuples(st.sampled_from([MOM, POS]), st.integers(-3, 3), _widths), max_size=12
)


@given(_declared, st.sampled_from([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
@example([(MOM, 0, Fraction(1, 2)), (POS, -1, Fraction(1))], Fraction(1, 2))
@example([(POS, 0, Fraction(1, 3)), (MOM, 2, Fraction(3, 2)), (POS, 1, Fraction(1, 4))], Fraction(1, 2))
@settings(max_examples=200)
def test_generate_matches_a_pairwise_loop(declared, bound):
    props = tuple(
        IntervalProposition(f"a{i}", kind, Fraction(lo), lo + width)
        for i, (kind, lo, width) in enumerate(declared)
    )
    cfg = PhysicsConfig(bound)
    axioms, constraints, provenance = [], [], []
    for m in props:
        for x in props:
            if m.kind is MOM and x.kind is POS and not compatible(m, x, cfg):
                axioms.append(Implies(Know(Var(m.atom)), Not(Know(Var(x.atom)))))
                constraints.append(Not(And(Var(m.atom), Var(x.atom))))
                provenance.append(AxiomProvenance(m, x, uncertainty_product(m, x), bound))
    gen = generate(props, cfg)
    assert gen.axioms == Theory(tuple(axioms))
    assert gen.axioms.axioms == tuple(axioms)
    assert gen.constraints.constraints == tuple(constraints)
    assert gen.provenance == tuple(provenance)


def _quantum(path: str, *flags: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["quantum", path, *flags]) == EXIT_OK
    return out.getvalue()


def _listing(path: str, *flags: str) -> str:
    return _quantum(path, "--list-axioms", *flags)


def _write_decl(path, props: tuple[IntervalProposition, ...], bound: Fraction) -> str:
    path.write_text(
        f"bound {bound}\n" + "".join(f"atom {p.atom} {p.kind.value} [{p.lo}, {p.hi}]\n" for p in props),
        encoding="utf-8",
    )
    return str(path)


@given(_declared, st.sampled_from([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
@example([(MOM, 0, Fraction(1, 2)), (POS, -1, Fraction(1))], Fraction(1, 2))
@example([(MOM, 0, Fraction(1, 6)), (MOM, 1, Fraction(1, 4)), (POS, -3, Fraction(1, 3)),
          (POS, 2, Fraction(1, 2))], Fraction(1))
@settings(max_examples=100, deadline=None)
def test_axiom_listings_match_each_provenance(tmp_path_factory, declared, bound):
    props = tuple(
        IntervalProposition(f"a{i}", kind, Fraction(lo), lo + width)
        for i, (kind, lo, width) in enumerate(declared)
    )
    path = _write_decl(tmp_path_factory.getbasetemp() / "listing.decl", props, bound)
    gen = generate(props, PhysicsConfig(bound))
    expected = []
    for axiom, pv in zip(gen.axioms.axioms, gen.provenance):
        m, x = pv.momentum, pv.position
        expected.append(
            {
                "formula": render(axiom),
                "momentum": m.atom,
                "position": x.atom,
                "widths": [str(m.hi - m.lo), str(x.hi - x.lo)],
                "product": str((m.hi - m.lo) * (x.hi - x.lo)),
                "bound": str(pv.bound),
            }
        )
    lines = [
        f"{a['formula']}   [widths {a['widths'][0]} * {a['widths'][1]} = {a['product']} < {a['bound']}]"
        for a in expected
    ]
    assert _listing(path) == "\n".join(lines or ["no axioms generated"]) + "\n"
    assert json.loads(_listing(path, "--format", "json"))["axioms"] == expected


_kind_widths = st.lists(st.tuples(st.integers(-3, 3), _widths), max_size=8)


@given(_kind_widths, _kind_widths, st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       st.randoms(use_true_random=False))
@example([(0, Fraction(1, 4))], [(1, Fraction(2))], Fraction(1, 2), random.Random(0))
@settings(max_examples=100, deadline=None)
def test_pair_built_report_agrees_with_generate(tmp_path_factory, momenta, positions, bound, rnd):
    """The `quantum` report is built from the incompatible pairs, without
    formula nodes; it must read as generate()'s nodes and provenance render."""
    declared = [(MOM, lo, w) for lo, w in momenta] + [(POS, lo, w) for lo, w in positions]
    rnd.shuffle(declared)
    props = tuple(
        IntervalProposition(f"a{i}", kind, Fraction(lo), lo + width)
        for i, (kind, lo, width) in enumerate(declared)
    )
    path = _write_decl(tmp_path_factory.getbasetemp() / "pairs.decl", props, bound)
    gen = generate(props, PhysicsConfig(bound))
    report = json.loads(_quantum(path, "--format", "json"))
    assert [a["formula"] for a in report["axioms"]] == [render(a) for a in gen.axioms.axioms]
    assert [(a["momentum"], a["position"], a["widths"], a["product"], a["bound"])
            for a in report["axioms"]] == [
        (pv.momentum.atom, pv.position.atom, [str(pv.momentum.width), str(pv.position.width)],
         str(pv.product), str(pv.bound))
        for pv in gen.provenance
    ]
    assert report["constraints"] == [render(c) for c in gen.constraints]
    assert _quantum(path) == (
        f"{len(props)} propositions, {len(gen.axioms.axioms)} axioms, "
        f"{len(gen.constraints)} constraints, bound {bound}\n"
    )


def _known(name: str) -> Know:
    return Know(Var(name))


# Products of these widths fall below, at and above the bound 1/2.
_graph_width = st.sampled_from([Fraction(1, 6), Fraction(1, 2), Fraction(1), Fraction(3)])


@st.composite
def _graph_cases(draw):
    """Widths of up to 60 momenta and 60 positions, and a query over at most
    four of their atoms, or of the one undeclared momentum and position past
    them: K(atom), twice as likely as a plain atom, and the connectives."""
    # Sizes are drawn first: hypothesis keeps a list's own length short.
    momenta = [draw(_graph_width) for _ in range(draw(st.integers(1, 60)))]
    positions = [draw(_graph_width) for _ in range(draw(st.integers(1, 60)))]
    pool = [f"m{i}" for i in range(len(momenta) + 1)] + [f"x{i}" for i in range(len(positions) + 1)]
    k = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))

    def leaf(names):
        return st.builds(Var, names) | st.builds(_known, names) | st.builds(_known, names)

    binary = st.sampled_from([And, Or, Implies, Iff])
    f = draw(st.recursive(
        leaf(st.sampled_from(names)),
        lambda sub: st.builds(Not, sub) | st.builds(lambda op, l, r: op(l, r), binary, sub, sub),
        max_leaves=6,
    ))
    for name in names:  # so that the query reaches every drawn atom
        if name not in atoms(f):
            f = draw(binary)(f, draw(leaf(st.just(name))))
    return momenta, positions, f


_narrow = [Fraction(1, 6), Fraction(1, 6)]


@given(_graph_cases(), st.sampled_from(["sat", "valid"]))
@example((_narrow, _narrow, parse("K(m0) & (K(x0) | K(x1))")), "sat")
@example((_narrow, _narrow, parse("K(m0) | K(m1) -> !K(x0) & !K(x1)")), "valid")
@example((_narrow * 30, _narrow * 30, parse("K(m59) & (K(x0) | K(x59))")), "sat")
@example((_narrow * 30, _narrow * 30, parse("K(m0) & K(x59) | K(m59) & !x0")), "sat")
@settings(max_examples=40, deadline=None)  # a 4-atom VALID or UNSAT answer takes about 1 s
def test_quantum_check_matches_the_graph_reference(tmp_path_factory, case, mode):
    """`quantum --check` at the default atom limit, on a file of up to 60x60
    propositions, answers a query over at most 4 atoms as the
    incompatibility graph does, and every model it returns satisfies the
    axioms and the query."""
    momenta, positions, f = case
    props = tuple(IntervalProposition(f"m{i}", MOM, 0, w) for i, w in enumerate(momenta)) + tuple(
        IntervalProposition(f"x{i}", POS, 0, w) for i, w in enumerate(positions)
    )
    path = _write_decl(tmp_path_factory.getbasetemp() / "graph.decl", props, Fraction(1, 2))
    pairs = [
        (m.atom, x.atom)
        for m in props[: len(momenta)]
        for x in props[len(momenta):]
        if (m.hi - m.lo) * (x.hi - x.lo) < Fraction(1, 2)
    ]
    target = f if mode == "sat" else Not(f)  # a countermodel satisfies !f
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["quantum", path, "--check", render(f), "--mode", mode, "--format", "json"])
    check = json.loads(out.getvalue())["check"]
    found = oracle_graph_sat(target, pairs)
    assert check["verdict"] == {
        ("sat", True): "SATISFIABLE", ("sat", False): "UNSATISFIABLE",
        ("valid", True): "INVALID", ("valid", False): "VALID",
    }[mode, found]
    assert code == (EXIT_OK if check["verdict"] in ("SATISFIABLE", "VALID") else EXIT_NEGATIVE)
    model = check.get("model") or check.get("countermodel")
    assert (model is not None) == found
    if model is not None:
        # Padded to every atom of the query and the axioms, searched or not.
        assert model["atoms"] == sorted({a for pair in pairs for a in pair}.union(atoms(f)))
        worlds = [dict(zip(model["atoms"], map(bool, bits))) for bits in model["worlds"]]
        assert oracle_eval_modal(target, worlds, model["designated"])
        for m, x in pairs:
            axiom = Implies(_known(m), Not(_known(x)))
            assert all(oracle_eval_modal(axiom, worlds, i) for i in range(len(worlds)))


def test_a_check_needs_only_the_axioms_within_its_query_atoms():
    """On a 60x60 file, a query over m0, x0 and x1 is answered from the
    axioms of its own pairs, padded with the file's atoms, exactly as from
    all 3600 axioms; `axioms_within` builds those pairs' axioms alone."""
    props = tuple(IntervalProposition(f"m{i}", MOM, 0, Fraction(1, 6)) for i in range(60)) + tuple(
        IntervalProposition(f"x{i}", POS, 0, Fraction(1, 6)) for i in range(60)
    )
    generated = generate(props)
    f = parse("K(m0) & (K(x0) | K(x1))")
    within = generated.axioms_within(set(atoms(f)))
    assert [render(a) for a in within.axioms] == ["K(m0) -> !K(x0)", "K(m0) -> !K(x1)"]
    for g in (f, parse("K(m0) | !x1"), parse("K(x1) -> K(m0)")):
        for check in (is_satisfiable, is_valid):
            expected = check(g, generated.axioms)
            assert check(g, within, extra_atoms=generated.atom_names()) == expected, (g, check)
