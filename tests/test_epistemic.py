"""Single-cluster S5 semantics: evaluation, satisfiability, validity."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from klogic import (
    And,
    AtomLimitExceeded,
    Bottom,
    EpistemicModel,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    Theory,
    Top,
    UnknownAtom,
    Valuation,
    Var,
    Verdict,
    ConstraintSet,
    are_equivalent_modal,
    are_equivalent_under,
    atoms,
    erase_K,
    eval_classical,
    eval_modal,
    is_satisfiable,
    is_tautology,
    is_valid,
    modal_depth,
    parse,
    render,
    truth_table,
    valuation_at,
)
from klogic import epistemic
from klogic.classical import DEFAULT_MODAL_ATOM_LIMIT
from klogic.epistemic import _build_model, _reduce
from oracles import oracle_eval_modal, oracle_first_model, random_formula

from test_classical import _introspection_form
from test_syntax import formulas as any_formulas

DEMO_AXIOMS = Theory((parse("K(p) -> !K(q)"), parse("K(p) -> !K(r)")))


def _model(atom_order, bit_rows, designated=0):
    cell = tuple(Valuation(atom_order, bits) for bits in bit_rows)
    return EpistemicModel(atom_order, cell, designated)


def test_model_validation():
    with pytest.raises(ValueError):
        _model(("a",), ())
    with pytest.raises(ValueError):
        _model(("a",), ((True,), (True,)))
    with pytest.raises(ValueError):
        _model(("a",), ((True,),), designated=1)
    with pytest.raises(ValueError):
        EpistemicModel(("a",), (Valuation(("b",), (True,)),), 0)


def test_two_world_model_for_disjunction():
    """Frozen reference values: K distributes into neither disjunct here."""
    m = _model(("q", "r"), ((True, False), (False, True)))
    for w in (0, 1):
        assert eval_modal(parse("K(q | r)"), m, w) is True
        assert eval_modal(parse("K(q)"), m, w) is False
        assert eval_modal(parse("K(r)"), m, w) is False
        assert eval_modal(parse("q | r"), m, w) is True


def test_singleton_model_evaluation():
    m = EpistemicModel.singleton(Valuation(("p",), (True,)))
    assert eval_modal(parse("K(p)"), m, 0) is True
    assert eval_modal(parse("p"), m, 0) is True
    assert eval_modal(parse("K(true)"), m, 0) is True


def test_eval_modal_error_cases():
    m = EpistemicModel.singleton(Valuation(("p",), (True,)))
    for text in ("q", "true | q", "q | true"):
        with pytest.raises(UnknownAtom):
            eval_modal(parse(text), m, 0)
    with pytest.raises(IndexError):
        eval_modal(parse("p"), m, 3)


def test_theory_deduplicates():
    t = Theory((parse("K(p)"), parse("K(p)"), parse("q")))
    assert len(t.axioms) == 2
    assert t.atom_names() == {"p", "q"}


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_valid(parse("a"), Theory(["K(a) -> a"])),
        lambda: Theory(["a"]),
        lambda: is_satisfiable("a"),
        lambda: ConstraintSet(["a"]),
        lambda: truth_table(["a"]),
        lambda: is_tautology("a"),
    ],
    ids=["is_valid-theory", "Theory", "is_satisfiable", "ConstraintSet", "truth_table", "is_tautology"],
)
def test_a_non_formula_is_refused_with_its_type(call):
    with pytest.raises(TypeError, match="^expected a Formula, got str$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_valid(parse("a"), [parse("a")]), "expected a Theory, got list"),
        (lambda: is_satisfiable(parse("a"), (parse("a"),)), "expected a Theory, got tuple"),
        (
            lambda: are_equivalent_modal(parse("a"), parse("b"), [parse("a")]),
            "expected a Theory, got list",
        ),
        (lambda: truth_table([parse("a")], [parse("a")]), "expected a ConstraintSet, got list"),
        (
            lambda: are_equivalent_under([parse("a")], parse("a"), parse("b")),
            "expected a ConstraintSet, got list",
        ),
    ],
    ids=["is_valid", "is_satisfiable", "are_equivalent_modal", "truth_table", "are_equivalent_under"],
)
def test_a_container_of_the_wrong_type_is_refused_with_its_type(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_erase_K_examples():
    assert erase_K(parse("K(p) & K(q)")) == parse("p & q")
    assert erase_K(parse("K(K(p))")) == parse("p")
    assert erase_K(parse("p | q")) == parse("p | q")
    assert erase_K(parse("K(p -> K(q)) <-> !K(r)")) == parse("(p -> q) <-> !r")


def test_conjunction_law_is_valid():
    result = is_valid(parse("K(a & b) <-> K(a) & K(b)"), Theory())
    assert result.verdict is Verdict.VALID
    assert result.model is None


def test_conjunction_law_holds_for_small_compound_operands():
    shapes = [
        parse(t)
        for t in ("a", "b", "true", "false", "!a", "!b", "a & b", "a | b", "a -> b", "a <-> b")
    ]
    for g, h in itertools.product(shapes, repeat=2):
        claim = parse(f"K(({g}) & ({h})) <-> K({g}) & K({h})")
        assert is_valid(claim, Theory()).verdict is Verdict.VALID


def test_disjunction_distribution_fails_with_two_world_countermodel():
    result = is_valid(parse("K(a | b) -> K(a) | K(b)"), Theory())
    assert result.verdict is Verdict.INVALID
    m = result.model
    assert m.atoms == ("a", "b")
    assert [v.bits for v in m.cell] == [(False, True), (True, False)]
    assert m.designated == 0
    # the countermodel really falsifies the formula at its designated world
    assert eval_modal(parse("K(a | b) -> K(a) | K(b)"), m, m.designated) is False


def test_half_distribution_over_disjunction_is_valid():
    assert is_valid(parse("K(a) | K(b) -> K(a | b)"), Theory()).verdict is Verdict.VALID


def test_s5_schema_suite():
    for schema in (
        "K(a) -> a",
        "K(a) -> K(K(a))",
        "!K(a) -> K(!K(a))",
        "K(a -> b) -> (K(a) -> K(b))",
    ):
        assert is_valid(parse(schema), Theory()).verdict is Verdict.VALID, schema


def test_joint_knowledge_unsatisfiable_under_incompatibility_axioms():
    result = is_satisfiable(parse("K(p) & (K(q) | K(r))"), DEMO_AXIOMS)
    assert result.verdict is Verdict.UNSATISFIABLE
    assert result.model is None


def test_merged_conjunction_claim_is_satisfiable():
    result = is_satisfiable(parse("K(p & s) <-> K(p) & K(s)"), Theory())
    assert result.verdict is Verdict.SATISFIABLE
    m = result.model
    assert eval_modal(parse("K(p & s) <-> K(p) & K(s)"), m, m.designated) is True


def test_plain_contradiction_is_unsatisfiable():
    assert is_satisfiable(parse("p & !p"), Theory()).verdict is Verdict.UNSATISFIABLE


def test_equivalence_chain():
    assert (
        are_equivalent_modal(parse("K(p & (q | r))"), parse("K(p) & K(q | r)"), Theory()).verdict
        is Verdict.VALID
    )
    assert (
        are_equivalent_modal(
            parse("K(p & q) | K(p & r)"), parse("K(p) & (K(q) | K(r))"), Theory()
        ).verdict
        is Verdict.VALID
    )
    broken = are_equivalent_modal(
        parse("K(p & (q | r))"), parse("K(p & q) | K(p & r)"), Theory()
    )
    assert broken.verdict is Verdict.INVALID
    assert broken.model is not None
    assert (
        eval_modal(
            parse("K(p & (q | r)) <-> K(p & q) | K(p & r)"),
            broken.model,
            broken.model.designated,
        )
        is False
    )


def test_theory_constrains_plain_propositions():
    assert is_satisfiable(parse("q"), Theory((parse("!q"),))).verdict is Verdict.UNSATISFIABLE
    chained = Theory((parse("p -> q"), parse("!q")))
    assert is_satisfiable(parse("p"), chained).verdict is Verdict.UNSATISFIABLE
    assert is_satisfiable(parse("!p"), chained).verdict is Verdict.SATISFIABLE


def test_returned_models_satisfy_the_theory_globally():
    result = is_satisfiable(parse("K(q) | K(r)"), DEMO_AXIOMS)
    assert result.verdict is Verdict.SATISFIABLE
    m = result.model
    for axiom in DEMO_AXIOMS.axioms:
        for w in range(len(m.cell)):
            assert eval_modal(axiom, m, w) is True


def test_atom_limit_counts_formula_and_theory_atoms_together():
    f = parse("K(a) & K(b) & K(c)")
    theory = Theory((parse("d | e"),))
    with pytest.raises(AtomLimitExceeded) as exc:
        is_satisfiable(f, theory)
    assert "2^(2^n)" in str(exc.value)
    with pytest.raises(AtomLimitExceeded):
        is_valid(f, theory)


def test_a_refusal_over_thousands_of_atoms_writes_no_power_in_decimal():
    """2^(2^15001) has far more digits than Python converts an int to."""
    theory = Theory(tuple(Var(f"b{i}") for i in range(15000)))
    with pytest.raises(AtomLimitExceeded) as exc:
        is_satisfiable(Var("a"), theory)
    assert str(exc.value).startswith("15001 atoms gives 2^(2^15001) candidate cells")
    assert "(the search space grows as 2^(2^n))" in str(exc.value)


def test_atom_limit_override_admits_wider_k_free_queries():
    f = parse("a & b & c & d & e")
    with pytest.raises(AtomLimitExceeded):
        is_satisfiable(f, Theory())
    result = is_satisfiable(f, Theory(), atom_limit=5)
    assert result.verdict is Verdict.SATISFIABLE
    assert result.model.designated_world.bits == (True,) * 5


def test_results_are_deterministic():
    a = is_valid(parse("K(a | b) -> K(a) | K(b)"), Theory())
    b = is_valid(parse("K(a | b) -> K(a) | K(b)"), Theory())
    assert a == b


def test_engine_matches_reference_enumeration_on_random_queries():
    """Seeded sweep against the literal first-model search, K and theories
    included; covers both the K-free shortcut and the general loop."""
    rng = random.Random(20260817)
    for _ in range(150):
        pool = ("a", "b", "c")[: rng.randint(1, 3)]
        f = random_formula(rng, pool, depth=3, know_budget=rng.randint(0, 2))
        axioms = tuple(
            random_formula(rng, pool, depth=2, know_budget=1)
            for _ in range(rng.randint(0, 2))
        )
        _assert_first_model_matches_reference(f, axioms)


def test_the_model_builder_matches_a_bit_by_bit_construction():
    rng = random.Random(20261018)
    for _ in range(200):
        padded = tuple(f"a{k:02d}" for k in range(rng.randint(0, 12)))
        names = tuple(a for a in padded if rng.random() < 0.5)
        n = len(names)
        mask = rng.getrandbits(1 << n) or 1 << rng.randrange(1 << n)
        indices = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        designated = rng.choice(indices)

        def world(i):
            # The bits of i shifted out one at a time, first atom highest;
            # an atom outside `names` is false.
            value = {a: bool((i >> (n - 1 - k)) & 1) for k, a in enumerate(names)}
            return Valuation(padded, tuple(value.get(a, False) for a in padded))

        expected = EpistemicModel(padded, tuple(map(world, indices)), indices.index(designated))
        assert _build_model(names, padded, mask, designated) == expected
    # The singleton cell of the last valuation, as a K-free query's search
    # ends: the mask is 2^n bits wide and has one world.
    for n in range(12, 17):
        names = tuple(f"a{k:02d}" for k in range(n))
        padded = names + ("z",)
        last = (1 << n) - 1
        expected = EpistemicModel(padded, (Valuation(padded, (True,) * n + (False,)),), 0)
        assert _build_model(names, padded, 1 << last, last) == expected


def _assert_first_model_matches_reference(f, axioms, check=is_satisfiable):
    """`is_satisfiable`, or `is_valid` (whose countermodel is a model of !f),
    agrees with the literal first-model search on the verdict, every world
    of the cell and the designated index."""
    names = tuple(sorted(set(atoms(f)).union(*map(atoms, axioms))))
    if not names:
        return
    expected = oracle_first_model(f if check is is_satisfiable else Not(f), axioms, names)
    result = check(f, Theory(axioms))
    if expected is None:
        assert result.verdict in (Verdict.UNSATISFIABLE, Verdict.VALID), f
        assert result.holds is (check is is_valid), f
        return
    worlds, designated = expected
    m = result.model
    assert result.verdict in (Verdict.SATISFIABLE, Verdict.INVALID), f
    assert result.holds is (check is is_satisfiable), f
    assert [v.as_dict() for v in m.cell] == list(worlds), f
    assert m.designated == designated, f


def _formulas_up_to(size: int) -> list:
    """Every formula of at most `size` nodes over a, b, true and false."""
    by_size = {1: [Var("a"), Var("b"), Top(), Bottom()]}
    for n in range(2, size + 1):
        by_size[n] = [op(g) for g in by_size[n - 1] for op in (Not, Know)] + [
            op(left, right)
            for k in range(1, n - 1)
            for left in by_size[k]
            for right in by_size[n - 1 - k]
            for op in (And, Or, Implies, Iff)
        ]
    return [f for n in sorted(by_size) for f in by_size[n]]


@pytest.mark.parametrize("theory", ["", "a", "K(a) -> !K(b)", "a | b", "K(a | b)", "K(a) | b"])
def test_engine_matches_reference_on_every_formula_of_five_nodes(theory):
    """Bounded-exhaustive differential: small scopes hold the corner cases
    that random draws miss.  Queries over no atom at all are skipped, as the
    engine needs at least one."""
    formulas = _formulas_up_to(5)
    assert len(formulas) == 4156
    axioms = (parse(theory),) if theory else ()
    for f in formulas:
        _assert_first_model_matches_reference(f, axioms)


def _k_formulas(names: list[str], max_leaves: int) -> st.SearchStrategy:
    leaves = st.sampled_from([*map(Var, names * 2), Top(), Bottom()])
    return st.recursive(
        leaves,
        lambda sub: st.builds(Know, sub) | st.builds(Not, sub) | st.builds(And, sub, sub)
        | st.builds(Or, sub, sub) | st.builds(Implies, sub, sub) | st.builds(Iff, sub, sub),
        max_leaves=max_leaves,
    )


# Queries over a or b or both, nested K included.  Each theory reaches c or
# d or both, often through K of an atom outside the query, which folds to
# false since a cell is non-empty; so a query and its theory span 2-4 atoms.
_reach_queries = _k_formulas(["a", "b"], 4).filter(atoms)
_any_axiom = _k_formulas(["a", "b", "c", "d"], 3)
_outside = st.sampled_from([Var("c"), Var("d")])
_reaching_axiom = (
    st.builds(lambda x, g: Implies(Know(x), g), _outside, _any_axiom)
    | st.builds(lambda x, g: Or(g, Know(x)), _outside, _any_axiom)
    | st.builds(lambda x, g: Know(Or(x, g)), _outside, _any_axiom)
    | st.builds(lambda x, g: Iff(x, g), _outside, _any_axiom)
)
_reach_axioms = st.builds(
    lambda first, rest: (first, *rest), _reaching_axiom, st.lists(_any_axiom, max_size=1)
)


# The reference takes seconds on a 4-atom UNSAT case, so the draw is fixed
# and the test takes the same few seconds on every run.
@given(_reach_queries, _reach_axioms)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_reduced_search_matches_the_reference_over_every_atom(f, axioms):
    """The search covers only the atoms a query reaches, yet `is_satisfiable`
    and `is_valid` return the first model over every atom of the query and
    the theory, as the literal search over all of them finds it."""
    _assert_first_model_matches_reference(f, axioms)
    _assert_first_model_matches_reference(f, axioms, is_valid)


# Theories with at least one K-free and one modal axiom over a-d, and
# queries over a and b; so a query and its theory span 2-4 atoms, and the
# cells searched are cut to the valuations the K-free axioms leave.
_k_free_axiom = _k_formulas(["a", "b", "c", "d"], 3).map(erase_K).filter(atoms)
_modal_axiom = _k_formulas(["a", "b", "c", "d"], 3).filter(modal_depth)
_mixed_axioms = st.builds(
    lambda k_free, modal: (*k_free, *modal),
    st.lists(_k_free_axiom, min_size=1, max_size=2),
    st.lists(_modal_axiom, min_size=1, max_size=2),
)


@given(_reach_queries, _mixed_axioms, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_a_search_within_the_k_free_axioms_matches_the_reference(f, axioms, rng):
    """Cells lie within the valuations where every K-free axiom holds, and
    each K-free part is evaluated once per search; the first model is still
    the literal search's, over 2-4 atoms, with the axioms in any order."""
    axioms = tuple(rng.sample(axioms, len(axioms)))
    assume(len(set(atoms(f)).union(*map(atoms, axioms))) >= 2)
    _assert_first_model_matches_reference(f, axioms)
    _assert_first_model_matches_reference(f, axioms, is_valid)


def test_validity_does_not_depend_on_whether_equal_subformulas_are_one_node():
    f = _introspection_form()  # parsed or built, one node
    assert is_valid(f).verdict is Verdict.VALID
    # The converse, K(!K(p)) -> K(p), fails; built from f's nodes, it is the
    # node that parsing it gives.
    converse = Implies(f.right, f.left.operand)
    assert converse is parse("K(!K((a | b) & c)) -> K((a | b) & c)")
    assert is_valid(converse).verdict is Verdict.INVALID


def test_k_free_axioms_that_leave_no_valuation_leave_no_model():
    f = parse("K(a) -> K(b)")
    axioms = (parse("a | b"), parse("K(a) -> !K(b)"), parse("!a"), parse("a <-> b"))
    assert is_satisfiable(f, Theory(axioms)).verdict is Verdict.UNSATISFIABLE
    assert is_valid(parse("false"), Theory(axioms)).verdict is Verdict.VALID
    _assert_first_model_matches_reference(f, axioms)


def test_a_chain_of_k_free_axioms_cuts_five_atoms_to_63_cells(monkeypatch):
    """`a -> b`, ..., `d -> e` leave 6 of the 32 valuations of a-e, so the
    search tries the 63 non-empty cells within them, where the whole
    enumeration would try 2^32 - 1."""
    theory = Theory(
        (*(parse(f"{x} -> {y}") for x, y in zip("abcd", "bcde")), parse("K(a) -> !K(e)"))
    )
    cells = []
    truth = epistemic._truth
    monkeypatch.setattr(
        epistemic, "_truth", lambda f, cell, *rest: cells.append(cell) or truth(f, cell, *rest)
    )
    result = is_satisfiable(parse("K(a)"), theory, atom_limit=5)
    assert result.verdict is Verdict.UNSATISFIABLE
    allowed = sum(1 << i for i in (0b00000, 0b00001, 0b00011, 0b00111, 0b01111, 0b11111))
    # Two evaluations over every valuation, of the K-free parts and of the
    # K-free axioms; then one per cell.
    assert cells[:2] == [(1 << 32) - 1] * 2
    searched = cells[2:]
    assert len(searched) == len(set(searched)) == 63
    assert all(c & ~allowed == 0 for c in searched)


def test_the_k_free_walk_finds_each_maximal_k_free_part():
    f = parse("K((a | b) & c) -> c | !K((a | b) & c) & (a <-> true)")
    axiom = parse("a -> b")
    parts = epistemic._k_free_parts([f, axiom])
    # The two `(a | b) & c` are one node, so one part, beside the atom `c`,
    # `a <-> true` and the axiom; the right operand of -> holds K.
    assert f.left.operand is f.right.right.left.operand.operand
    assert sorted(map(render, parts)) == ["(a | b) & c", "a -> b", "a <-> true", "c"]
    assert len({id(g) for g in parts}) == 4
    assert all(modal_depth(g) == 0 for g in parts)
    assert modal_depth(f) == 1 and modal_depth(axiom) == 0
    # A K-free node shared by several parents is one part.
    shared = parse("a & b")
    assert epistemic._k_free_parts([Implies(Know(shared), shared), shared]) == [shared]


def test_a_formula_sharing_its_subterms_costs_its_distinct_nodes_not_its_paths():
    """`g = And(g, g)` nested 64 levels has 2^64 paths to its leaves but 67
    distinct nodes; every walk below expands a shared node once, or stops
    at a K-free one."""
    g = parse("a & !b")
    for _ in range(64):
        g = And(g, g)
    assert atoms(g) == ("a", "b")
    assert erase_K(g) is g and erase_K(Know(g)) is g
    result = is_satisfiable(Know(g))
    assert result.verdict is Verdict.SATISFIABLE
    assert [v.as_dict() for v in result.model.cell] == [{"a": True, "b": False}]
    assert len(ConstraintSet((g,))) == 1
    assert is_tautology(Or(g, Not(g))).holds
    assert modal_depth(Know(g)) == 1
    # erase_K rebuilds each shared modal node once, so its result shares too.
    h = parse("K(a) & !b")
    for _ in range(64):
        h = And(h, h)
    erased = erase_K(h)
    assert atoms(erased) == ("a", "b") and modal_depth(erased) == 0
    assert erased.left is erased.right


def test_two_shared_chains_built_apart_are_one_node():
    """Built apart, two 64-level `g = And(g, g)` chains over `a & !b` are one
    node, so `==` answers without comparing their 2^64 paths, and a theory
    holding both keeps one."""
    x = parse("a & !b")
    for _ in range(64):
        x = And(x, x)
    y = And(Var("a"), Not(Var("b")))
    for _ in range(64):
        y = And(y, y)
    assert x is y and x == y
    assert Theory((x, y)).axioms == (x,)


def test_an_axiom_dropped_first_is_kept_once_another_brings_its_atom_into_the_search():
    """With Q = {a}, `K(b) -> c` folds to true (K(b) is false) and is dropped;
    `a | b` is kept and brings b into Q, so the first axiom is folded again,
    is kept, and brings c.  `K(b) & K(d) -> a` is folded again too, but K(d)
    still folds to false, so it stays dropped and d stays out of Q."""
    f = parse("K(!a)")
    axioms = (parse("K(b) -> c"), parse("K(b) & K(d) -> a"), parse("a | b"))
    names, kept, padded = _reduce(f, axioms, (), DEFAULT_MODAL_ATOM_LIMIT)
    assert (names, kept, padded) == (("a", "b", "c"), [axioms[0], axioms[2]], ("a", "b", "c", "d"))
    # K(!a) needs b, so K(b), at every world, and then c: without the second
    # look the model would leave c false.
    result = is_satisfiable(f, Theory(axioms))
    assert result.model.designated_world.as_dict() == {"a": False, "b": True, "c": True, "d": False}
    _assert_first_model_matches_reference(f, axioms)


def test_the_reduction_stops_once_the_search_passes_the_atom_limit(monkeypatch):
    """Each axiom b_i folds to false and brings b_i into Q; the fifth atom is
    refused at once, and the refusal counts every atom of query and theory."""
    folds = []
    fold = epistemic._fold
    monkeypatch.setattr(epistemic, "_fold", lambda *args: folds.append(args[0]) or fold(*args))
    theory = Theory(tuple(Var(f"b{i}") for i in range(1000)))
    with pytest.raises(AtomLimitExceeded) as exc:
        is_satisfiable(Var("a"), theory)
    assert str(exc.value).startswith("1001 atoms gives 2^(2^1001) candidate cells")
    assert folds == [Var("b0"), Var("b1"), Var("b2"), Var("b3")]


def _reference_fold(f, unknown: set[str], cache: dict):
    """The recursive fold `epistemic._fold` replaced, kept as a reference."""
    if f in cache:
        return cache[f]
    if isinstance(f, Top):
        r = True
    elif isinstance(f, Bottom):
        r = False
    elif isinstance(f, Var):
        r = None if f.name in unknown else False
    elif isinstance(f, Know):
        r = _reference_fold(f.operand, unknown, cache)
    elif isinstance(f, Not):
        r = _reference_fold(f.operand, unknown, cache)
        r = None if r is None else not r
    else:
        left = _reference_fold(f.left, unknown, cache)
        if isinstance(f, Implies) and left is not None:  # read as !left | right
            left = not left
        pair = (left, _reference_fold(f.right, unknown, cache))
        if isinstance(f, And):
            r = False if False in pair else None if None in pair else True
        elif isinstance(f, Iff):
            r = None if None in pair else pair[0] == pair[1]
        else:  # Or, and Implies as !left | right
            r = True if True in pair else None if None in pair else False
    cache[f] = r
    return r


@given(any_formulas, any_formulas, st.randoms(use_true_random=False))
def test_the_fold_matches_its_recursive_reference(f, g, rnd):
    """Over one cache, as the reduction folds the axioms of one pass."""
    unknown = {a for a in atoms(f) + atoms(g) if rnd.random() < 0.5}
    cache: dict = {}
    assert epistemic._fold(f, unknown, {}) is _reference_fold(f, unknown, {})
    for h in (f, g, f):
        assert epistemic._fold(h, unknown, cache) is _reference_fold(h, unknown, {})


@given(any_formulas)
@settings(max_examples=150)
def test_collapse_on_singleton_models(f):
    names = atoms(f)
    erased = erase_K(f)
    assert modal_depth(erased) == 0
    for index in range(2 ** len(names)):
        v = valuation_at(names, index)
        m = EpistemicModel.singleton(v)
        assert eval_modal(f, m, 0) == eval_classical(erased, v)


@given(any_formulas, st.data())
@settings(max_examples=150)
def test_eval_modal_matches_reference_on_multi_world_cells(f, data):
    names = atoms(f)
    indices = data.draw(
        st.lists(
            st.integers(0, 2 ** len(names) - 1),
            min_size=min(2, 2 ** len(names)),
            max_size=6,
            unique=True,
        )
    )
    cell = tuple(valuation_at(names, i) for i in indices)
    m = EpistemicModel(names, cell, 0)
    worlds = [v.as_dict() for v in cell]
    for w in range(len(cell)):
        assert eval_modal(f, m, w) == oracle_eval_modal(f, worlds, w)


@given(any_formulas)
@settings(max_examples=60)
def test_validity_duality(f):
    if len(atoms(f)) > 3:
        return
    valid = is_valid(f, Theory()).verdict is Verdict.VALID
    negation_unsat = (
        is_satisfiable(parse(f"!({f})"), Theory()).verdict is Verdict.UNSATISFIABLE
    )
    assert valid == negation_unsat


@given(any_formulas)
@settings(max_examples=60)
def test_erase_K_is_idempotent(f):
    assert erase_K(erase_K(f)) == erase_K(f)
