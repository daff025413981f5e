"""Classical semantics: valuations, tables, tautology and equivalence checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from klogic import (
    And,
    AtomLimitExceeded,
    Bottom,
    ConstraintSet,
    Formula,
    Iff,
    Implies,
    Know,
    ModalOperatorPresent,
    Not,
    Or,
    Theory,
    Top,
    UnknownAtom,
    Valuation,
    Var,
    all_valuations,
    are_equivalent_under,
    atoms,
    eval_classical,
    is_tautology,
    parse,
    render,
    truth_table,
    valuation_at,
)
from klogic.classical import _columns, _truth
from oracles import canonical_worlds, oracle_eval, oracle_eval_modal

from test_syntax import atom_names, formulas as any_formulas

kfree_formulas = st.recursive(
    st.one_of(
        st.builds(parse, st.just("true")),
        st.builds(parse, st.just("false")),
        st.builds(Var, atom_names),
    ),
    lambda sub: st.one_of(
        st.builds(lambda f: parse(f"!({f})"), sub.map(str)),
        st.builds(lambda a, b: parse(f"({a}) & ({b})"), sub.map(str), sub.map(str)),
        st.builds(lambda a, b: parse(f"({a}) | ({b})"), sub.map(str), sub.map(str)),
        st.builds(lambda a, b: parse(f"({a}) -> ({b})"), sub.map(str), sub.map(str)),
        st.builds(lambda a, b: parse(f"({a}) <-> ({b})"), sub.map(str), sub.map(str)),
    ),
    max_leaves=15,
)

DEMO_CONSTRAINTS = ConstraintSet((parse("!(p & q)"), parse("!(p & r)")))


def test_valuation_requires_sorted_unique_atoms():
    with pytest.raises(ValueError):
        Valuation(("q", "p"), (True, False))
    with pytest.raises(ValueError):
        Valuation(("p", "p"), (True, False))
    with pytest.raises(ValueError):
        Valuation(("p",), (True, False))


def test_valuation_lookup():
    v = Valuation(("p", "q"), (True, False))
    assert v.value("p") is True
    assert v.value("q") is False
    assert v.as_dict() == {"p": True, "q": False}
    with pytest.raises(UnknownAtom):
        v.value("z")


def test_canonical_order_first_atom_is_most_significant():
    names = ("p", "q", "r")
    rows = [v.bits for v in all_valuations(names)]
    assert rows[0] == (False, False, False)
    assert rows[1] == (False, False, True)
    assert rows[4] == (True, False, False)
    assert rows[7] == (True, True, True)
    assert len(rows) == 8
    assert valuation_at(names, 5).bits == (True, False, True)


@pytest.mark.parametrize(
    "names, index",
    [(("a",), 5), (("a",), 2), (("a", "b"), -1), ((), 1)],
)
def test_valuation_at_refuses_an_index_outside_the_valuations(names, index):
    n = len(names)
    with pytest.raises(IndexError) as e:
        valuation_at(names, index)
    assert str(e.value) == f"valuation index {index} outside the 2^{n} valuations of {n} atoms"
    assert valuation_at(names, (1 << n) - 1).bits == (True,) * n


def test_eval_classical_basics():
    v = Valuation(("p", "q"), (True, False))
    assert eval_classical(parse("p & !q"), v) is True
    assert eval_classical(parse("p -> q"), v) is False
    assert eval_classical(parse("q -> p"), v) is True
    assert eval_classical(parse("true"), v) is True
    assert eval_classical(parse("false | p"), v) is True


def test_eval_classical_rejects_unknown_atoms_in_either_operand():
    v = Valuation(("p",), (True,))
    for text in ("true | z", "z | true"):
        with pytest.raises(UnknownAtom):
            eval_classical(parse(text), v)


def test_doubled_columns_match_canonical_valuations():
    for n in range(11):
        names = tuple(f"a{k}" for k in range(n))
        full, masks = _columns(names)
        assert full == (1 << (1 << n)) - 1
        for i in range(1 << n):
            bits = tuple(bool(masks[a] >> i & 1) for a in names)
            assert bits == valuation_at(names, i).bits


@given(any_formulas, st.data())
@settings(max_examples=200)
def test_truth_stays_within_the_cell_and_matches_the_reference_at_every_world(f, data):
    """Atom masks carry bits outside the cell, as a column over every
    valuation does when a cell is a subset of it."""
    width = data.draw(st.integers(1, 8))
    cell = data.draw(st.integers(1, (1 << width) - 1))
    masks = {a: data.draw(st.integers(0, (1 << width) - 1)) for a in atoms(f)}
    result = _truth(f, cell, masks, {})
    assert result & ~cell == 0
    worlds_at = [j for j in range(width) if cell >> j & 1]
    worlds = [{a: bool(m >> j & 1) for a, m in masks.items()} for j in worlds_at]
    for i, j in enumerate(worlds_at):
        assert bool(result >> j & 1) == oracle_eval_modal(f, worlds, i)


@pytest.mark.parametrize("node", [Formula()])
def test_truth_refuses_any_other_node_type_by_name(node):
    with pytest.raises(TypeError, match=f"cannot evaluate a {type(node).__name__} node"):
        _truth(node, 1, {"p": 1, "q": 1}, {})


@pytest.mark.parametrize(
    "base",
    [Formula, Top, Bottom, Var, Not, And, Or, Implies, Iff, Know],
    ids=lambda c: c.__name__,
)
def test_a_subclass_of_any_node_class_is_refused(base):
    """Formula included: the set of node classes is closed once defined."""
    with pytest.raises(TypeError, match=f"^cannot subclass {base.__name__}: "):

        class _Node(base):
            pass

    # A mixin first in the bases does not get round the refusal.
    mixin = type("_Mixin", (), {})
    with pytest.raises(TypeError, match=f"^cannot subclass {base.__name__}: "):
        type("_Mixed", (mixin, base), {})


def _introspection_form():
    """`!K(p) -> K(!K(p))` with p = (a | b) & c, parsed and built around one
    K(p) node: both give one node, whose two K(p) are one node too."""
    parsed = parse("!K((a | b) & c) -> K(!K((a | b) & c))")
    known = Know(And(Or(Var("a"), Var("b")), Var("c")))
    built = Implies(Not(known), Know(Not(known)))
    assert parsed is built
    assert parsed.left.operand is parsed.right.operand.operand is known
    return parsed


def test_truth_memo_by_identity_evaluates_a_repeated_subformula_once():
    f = _introspection_form()
    full, masks = _columns(("a", "b", "c"))
    envs = canonical_worlds(("a", "b", "c"))
    assert full == 255
    for cell in range(1, full + 1):
        memo: dict = {}
        value = _truth(f, cell, masks, memo)
        # One entry per distinct node other than an atom: ->, !K(p), K(p),
        # p, a | b and K(!K(p)), whose !K(p) is the one on the left.
        assert len(memo) == 6, cell
        assert _truth(f, cell, masks, {}) == value
        worlds = [env for j, env in enumerate(envs) if cell >> j & 1]
        assert [bool(value >> j & 1) for j in range(8) if cell >> j & 1] == [
            oracle_eval_modal(f, worlds, i) for i in range(len(worlds))
        ]


def test_a_table_keeps_its_bits_when_its_formulas_repeat_subformulas():
    """`a | b` appears three times, and `(a | b) & c` twice, across the
    formulas and the constraints, parsed apart or built around shared
    nodes; one memo serves them all."""
    formulas = (parse("(a | b) & c"), parse("!((a | b) & c)"), parse("a | b"))
    constraints = ConstraintSet((parse("(a | b) & c -> b"),))
    table = truth_table(formulas, constraints)
    assert table.formula_bits == ("00010101", "11101010", "00111111")
    assert table.constraint_bits == ("11111011",)
    assert table.excluded == "00000100"
    shared = Or(Var("a"), Var("b"))
    conjunction = And(shared, Var("c"))
    same = truth_table(
        (conjunction, Not(conjunction), shared),
        ConstraintSet((Implies(conjunction, Var("b")),)),
    )
    assert (same.formula_bits, same.constraint_bits, same.excluded) == (
        table.formula_bits,
        table.constraint_bits,
        table.excluded,
    )


def test_eval_classical_rejects_modal_formulas_everywhere():
    v = Valuation(("p",), (True,))
    with pytest.raises(ModalOperatorPresent):
        eval_classical(parse("K(p)"), v)
    # rejection must not depend on short-circuit evaluation reaching the K
    with pytest.raises(ModalOperatorPresent):
        eval_classical(parse("true | K(p)"), v)


def test_constraint_set_rejects_modal_members():
    with pytest.raises(ModalOperatorPresent) as exc:
        ConstraintSet((parse("K(p)"),))
    assert str(exc.value) == (
        "formula contains the knowledge operator: K(p) (constraints must be K-free)"
    )


@pytest.mark.parametrize(
    "text", ["!K(p)", "q & !(p | K(p))", "(p -> q) <-> K(K(q))", "true -> !!K(p & q)"]
)
def test_constraint_set_finds_k_under_any_connective_and_names_the_first_formula_with_it(text):
    """The K-free check finds K under every connective, and refuses the
    first formula that holds one."""
    members = (parse("!(p & q)"), parse(text), parse("K(q)"))
    with pytest.raises(ModalOperatorPresent) as exc:
        ConstraintSet(members)
    assert str(exc.value) == (
        f"formula contains the knowledge operator: {render(members[1])} "
        "(constraints must be K-free)"
    )


def test_constraint_set_deduplicates_in_order():
    c = ConstraintSet((parse("!p"), parse("!q"), parse("!p")))
    assert [str(f) for f in c] == ["!p", "!q"]
    assert len(c) == 2
    assert c.atom_names() == {"p", "q"}


def test_theory_and_constraint_set_keep_first_occurrences_in_order():
    texts = ["!q", "p | r", "!q", "!p", "p | r", "!p", "r"]
    first = ["!q", "p | r", "!p", "r"]
    assert [str(f) for f in ConstraintSet(tuple(map(parse, texts)))] == first
    assert [str(f) for f in Theory(tuple(map(parse, texts))).axioms] == first


def test_constrained_distributivity_table():
    """The worked example's table: three excluded rows, zeros elsewhere."""
    table = truth_table(
        (parse("p & (q | r)"), parse("(p & q) | (p & r)")), DEMO_CONSTRAINTS
    )
    assert table.atoms == ("p", "q", "r")
    assert len(table.rows) == 8
    excluded = [row.valuation.bits for row in table.rows if row.excluded]
    assert excluded == [
        (True, False, True),
        (True, True, False),
        (True, True, True),
    ]
    for row in table.rows:
        if row.excluded:
            assert row.values is None
            assert len(row.violated) >= 1
        else:
            assert row.values == (False, False)
            assert row.violated == ()


def test_excluded_rows_name_their_violated_constraints():
    table = truth_table((parse("p"),), DEMO_CONSTRAINTS)
    by_bits = {row.valuation.bits: row for row in table.rows}
    assert [str(c) for c in by_bits[(True, False, True)].violated] == ["!(p & r)"]
    assert [str(c) for c in by_bits[(True, True, False)].violated] == ["!(p & q)"]
    assert [str(c) for c in by_bits[(True, True, True)].violated] == [
        "!(p & q)",
        "!(p & r)",
    ]


def test_unconstrained_single_atom_table():
    table = truth_table((parse("p"),))
    assert len(table.rows) == 2
    assert [row.values for row in table.rows] == [(False,), (True,)]


def test_table_includes_constraint_only_atoms():
    table = truth_table((parse("p"),), ConstraintSet((parse("!z"),)))
    assert table.atoms == ("p", "z")


def test_distributive_law_is_a_tautology():
    verdict = is_tautology(parse("p & (q | r) <-> (p & q) | (p & r)"))
    assert verdict.holds
    assert verdict.witness is None


def test_non_tautology_reports_first_falsifying_valuation():
    verdict = is_tautology(parse("p | q"))
    assert not verdict.holds
    assert verdict.witness.bits == (False, False)


def test_equivalence_under_the_generated_constraints(demo_props):
    """Both distributivity sides vanish on the five feasible rows."""
    verdict = are_equivalent_under(
        DEMO_CONSTRAINTS, parse("p & (q | r)"), parse("(p & q) | (p & r)")
    )
    assert verdict.holds


def test_inequivalence_reports_first_disagreement():
    verdict = are_equivalent_under(ConstraintSet(), parse("p"), parse("q"))
    assert not verdict.holds
    assert verdict.witness.bits == (False, True)


def test_equivalence_respects_constraints():
    # p and q differ only where !p & q or p & !q; forbid both and they agree
    cons = ConstraintSet((parse("p <-> q"),))
    assert are_equivalent_under(cons, parse("p"), parse("q")).holds


def test_atom_limit_is_enforced():
    wide = parse(" | ".join(f"a{i}" for i in range(17)))
    wider = parse(" | ".join(f"a{i}" for i in range(25)))
    limit = (
        "17 atoms would enumerate 2^17 valuations; "
        "the limit is 16 (raise it explicitly to proceed)"
    )
    ceiling = (
        "25 atoms would need truth columns of 2^25 bits each; "
        "at most 24 atoms can be evaluated, whatever the atom limit"
    )
    for f, kwargs, message in ((wide, {}, limit), (wider, {"atom_limit": 25}, ceiling)):
        with pytest.raises(AtomLimitExceeded) as exc:
            truth_table((f,), **kwargs)
        assert str(exc.value) == message
        with pytest.raises(AtomLimitExceeded) as exc:
            is_tautology(f, **kwargs)
        assert str(exc.value) == message
        with pytest.raises(AtomLimitExceeded) as exc:
            are_equivalent_under(ConstraintSet(), f, Var("a0"), **kwargs)
        assert str(exc.value) == message
    assert not is_tautology(wide, atom_limit=17).holds


@given(kfree_formulas)
@settings(max_examples=200)
def test_eval_agrees_with_reference_evaluator(f):
    for v in all_valuations(atoms(f)):
        assert eval_classical(f, v) == oracle_eval(f, v.as_dict())


@given(kfree_formulas, kfree_formulas)
@settings(max_examples=100)
def test_equivalence_is_iff_tautology(f, g):
    if len(set(atoms(f)) | set(atoms(g))) > 8:
        return
    lhs = are_equivalent_under(ConstraintSet(), f, g).holds
    rhs = is_tautology(parse(f"({f}) <-> ({g})")).holds
    assert lhs == rhs


@given(kfree_formulas)
@settings(max_examples=100)
def test_excluded_rows_match_direct_constraint_evaluation(constraint):
    cons = ConstraintSet((constraint,))
    table = truth_table((Or(Var("p"), Var("q")),), cons)
    for row in table.rows:
        env = row.valuation.as_dict()
        assert row.excluded == (not oracle_eval(constraint, env))


@given(kfree_formulas)
@settings(max_examples=100)
def test_adding_constraints_only_grows_the_excluded_set(extra):
    base = truth_table((parse("p | q"),), ConstraintSet((parse("!p"),)))
    more = truth_table(
        (parse("p | q"),), ConstraintSet((parse("!p"), extra))
    )
    if more.atoms != base.atoms:
        return
    for old, new in zip(base.rows, more.rows):
        if old.excluded:
            assert new.excluded


@given(kfree_formulas, kfree_formulas, st.lists(kfree_formulas, max_size=2))
@settings(max_examples=100)
def test_witnesses_are_the_first_canonical_counterexamples(f, g, extra):
    cons = ConstraintSet(tuple(extra))
    names = tuple(sorted(set(atoms(f)) | set(atoms(g)) | cons.atom_names()))
    if len(names) > 8:
        return

    def first(order, counterexample):
        return next((env for env in canonical_worlds(order) if counterexample(env)), None)

    def as_dict(verdict):
        return None if verdict.witness is None else verdict.witness.as_dict()

    assert as_dict(is_tautology(f)) == first(atoms(f), lambda env: not oracle_eval(f, env))
    assert as_dict(are_equivalent_under(cons, f, g)) == first(
        names,
        lambda env: all(oracle_eval(c, env) for c in cons)
        and oracle_eval(f, env) != oracle_eval(g, env),
    )


eight_atom_formulas = st.recursive(
    st.builds(Var, st.sampled_from("abcdefgh")),
    lambda sub: st.one_of(
        st.builds(lambda f: parse(f"!({f})"), sub.map(str)),
        *(
            st.builds(lambda a, b, op=op: parse(f"({a}) {op} ({b})"), sub.map(str), sub.map(str))
            for op in ("&", "|", "->", "<->")
        ),
    ),
    max_leaves=8,
)


@given(
    st.lists(eight_atom_formulas, min_size=1, max_size=3),
    st.lists(eight_atom_formulas, max_size=3),
)
@settings(max_examples=150)
def test_table_rows_match_the_oracle(formulas, constraints):
    cons = ConstraintSet(tuple(constraints))
    table = truth_table(formulas, cons)  # over 1 to 8 of the atoms a..h
    envs = canonical_worlds(table.atoms)
    assert len(table.rows) == len(envs)
    for row, env in zip(table.rows, envs):
        assert row.valuation.as_dict() == env
        violated = tuple(c for c in cons if not oracle_eval(c, env))
        assert row.violated == violated
        assert row.excluded == bool(violated)
        expected = None if violated else tuple(oracle_eval(f, env) for f in formulas)
        assert row.values == expected


def test_table_rows_are_built_on_first_access():
    table = truth_table((parse("p | q"),), DEMO_CONSTRAINTS)
    assert table.formula_bits == ("00111111",)
    assert table.constraint_bits == ("11111100", "11111010")
    assert table.excluded == "00000111"
    assert "rows" not in vars(table)
    assert table.rows is table.rows
