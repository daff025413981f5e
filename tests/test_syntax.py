"""Grammar, parser, and printer behavior."""

from __future__ import annotations

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
from weakref import KeyedRef

import pytest
from hypothesis import example, given, settings, strategies as st

from klogic import (
    And,
    Bottom,
    ClassicalVerdict,
    EpistemicModel,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    ParseError,
    Theory,
    Top,
    Var,
    Verdict,
    all_valuations,
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
    subformulas,
    truth_table,
    valuation_at,
)
from klogic import syntax
from klogic._record import Record
from klogic.syntax import Formula
from klogic.syntax import MAX_FORMULA_DEPTH, RESERVED_WORDS, is_atom_name

atom_names = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s not in RESERVED_WORDS
)

formulas = st.recursive(
    st.one_of(st.builds(Top), st.builds(Bottom), st.builds(Var, atom_names)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Know, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=25,
)


def test_parse_distributive_lhs():
    assert parse("p & (q | r)") == And(Var("p"), Or(Var("q"), Var("r")))


def test_parse_incompatibility_axiom():
    assert parse("K(p) -> !K(q)") == Implies(Know(Var("p")), Not(Know(Var("q"))))


def test_parse_constants():
    assert parse("true") == Top()
    assert parse("false") == Bottom()


def test_parse_is_whitespace_insensitive():
    assert parse("p&(q|r)") == parse("  p  &  ( q | r )  ")


def test_precedence_chain():
    f = parse("a <-> b -> c | d & !e")
    assert f == Iff(
        Var("a"),
        Implies(Var("b"), Or(Var("c"), And(Var("d"), Not(Var("e"))))),
    )


def test_and_or_associate_left():
    assert parse("a & b & c") == And(And(Var("a"), Var("b")), Var("c"))
    assert parse("a | b | c") == Or(Or(Var("a"), Var("b")), Var("c"))


def test_implies_iff_associate_right():
    assert parse("a -> b -> c") == Implies(Var("a"), Implies(Var("b"), Var("c")))
    assert parse("a <-> b <-> c") == Iff(Var("a"), Iff(Var("b"), Var("c")))


def test_know_requires_parentheses():
    with pytest.raises(ParseError):
        parse("K p")
    assert parse("K(p)") == Know(Var("p"))
    assert parse("K(K(p))") == Know(Know(Var("p")))


def test_dangling_operator_offset():
    with pytest.raises(ParseError) as exc:
        parse("p &")
    assert exc.value.offset == 4
    assert "syntax error at offset 4" in str(exc.value)


def test_error_offsets_are_one_based():
    with pytest.raises(ParseError) as exc:
        parse("& p")
    assert exc.value.offset == 1


def test_unbalanced_parenthesis_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("(p & q")
    with pytest.raises(ParseError):
        parse("p & q)")


def test_reserved_words_are_not_atoms():
    for word in sorted(RESERVED_WORDS - {"true", "false"}):
        with pytest.raises(ParseError):
            parse(word if word != "K" else "K")
    with pytest.raises(ValueError):
        Var("and")
    with pytest.raises(ValueError):
        Var("True")
    assert not is_atom_name("not")
    assert is_atom_name("momentum_1")


def test_stray_characters_report_position():
    with pytest.raises(ParseError) as exc:
        parse("p # q")
    assert exc.value.offset == 3


def test_single_dash_and_single_angle_are_rejected():
    with pytest.raises(ParseError):
        parse("p - q")
    with pytest.raises(ParseError):
        parse("p <- q")


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("p - q", 3, "expected '->'"),
        ("p <- q", 3, "expected '<->'"),
        ("9a", 1, "unexpected character '9'"),
        ("p & ²", 5, "unexpected character '²'"),
        ("½", 1, "unexpected character '½'"),
        ("p $ q", 3, "unexpected character '$'"),
        # the whole input is tokenized first: a lexical error wins
        ("p & & ?", 7, "unexpected character '?'"),
        ("é", 1, "invalid atom name 'é' (atoms match [a-z][a-zA-Z0-9_]*)"),
        ("_x", 1, "invalid atom name '_x' (atoms match [a-z][a-zA-Z0-9_]*)"),
        ("Ab", 1, "invalid atom name 'Ab' (atoms match [a-z][a-zA-Z0-9_]*)"),
        ("p & and", 5, "reserved word 'and' cannot be used as an atom"),
        ("p -> ", 6, "expected a formula, found end of input"),
        ("", 1, "expected a formula, found end of input"),
        ("K p", 3, "expected '(', found 'p'"),
        ("K & p", 3, "expected '(', found '&'"),
        ("(p", 3, "expected ')', found end of input"),
        ("p q", 3, "expected end of input, found 'q'"),
        ("p ! q", 3, "expected end of input, found '!'"),
        ("p & )", 5, "expected a formula, found ')'"),
        ("p <-> -> q", 7, "expected a formula, found '->'"),
        ("p | <-> q", 5, "expected a formula, found '<->'"),
    ],
)
def test_lexical_and_syntax_errors_are_exact(text, offset, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"syntax error at offset {offset}: {message}"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("K (p)", Know(Var("p"))),
        ("p\t&\nq", And(Var("p"), Var("q"))),
        ("p\xa0->\u2003K(q)\r", Implies(Var("p"), Know(Var("q")))),
    ],
)
def test_any_whitespace_separates_tokens(text, expected):
    assert parse(text) == expected


def _nested(shape: str, depth: int) -> str:
    """A formula `depth` levels deep, built by repeating one construct."""
    if shape == "!":
        return "!" * depth + "p"
    if shape in ("(", "K("):
        return shape * depth + "p" + ")" * depth
    return f" {shape} ".join(["p"] * (depth + 1))


@pytest.mark.parametrize("shape", ["!", "(", "K(", "&", "|", "->", "<->"])
def test_nesting_is_limited_at_the_crossing_token(shape):
    at_limit = parse(_nested(shape, MAX_FORMULA_DEPTH))
    assert parse(render(at_limit)) == at_limit
    too_deep = _nested(shape, MAX_FORMULA_DEPTH + 1)
    with pytest.raises(ParseError) as exc:
        parse(too_deep)
    assert f"nested more than {MAX_FORMULA_DEPTH} levels deep" in str(exc.value)
    # refused at the token that opens level MAX_FORMULA_DEPTH + 1
    if shape in ("!", "("):
        assert exc.value.offset == MAX_FORMULA_DEPTH + 1
    elif shape == "K(":
        assert exc.value.offset == 2 * MAX_FORMULA_DEPTH + 1
    else:  # the connective before the last operand
        assert exc.value.offset == too_deep.rindex(shape) + 1


def test_grouping_counts_toward_the_nesting_limit():
    chain = " & ".join(["p"] * MAX_FORMULA_DEPTH)  # one level short
    assert parse(f"({chain})") == parse(chain)
    with pytest.raises(ParseError):
        parse(f"(({chain}))")


def test_render_examples():
    assert render(And(Var("p"), Or(Var("q"), Var("r")))) == "p & (q | r)"
    assert render(Know(And(Var("a"), Var("b")))) == "K(a & b)"
    assert render(Top()) == "true"


def test_render_is_minimal_on_precedence():
    # & binds tighter than |, so the right side needs no parentheses
    assert render(parse("p & (q | r) <-> (p & q) | (p & r)")) == (
        "p & (q | r) <-> p & q | p & r"
    )
    assert render(parse("(a -> b) -> c")) == "(a -> b) -> c"
    assert render(parse("a -> (b -> c)")) == "a -> b -> c"
    assert render(parse("a & (b & c)")) == "a & (b & c)"
    assert render(parse("(a & b) & c")) == "a & b & c"


def test_str_matches_render():
    f = parse("K(p) -> !K(q)")
    assert str(f) == render(f) == "K(p) -> !K(q)"


def test_atoms_sorted_and_deduplicated():
    assert atoms(parse("p & (q | r)")) == ("p", "q", "r")
    assert atoms(parse("true")) == ()
    assert atoms(parse("K(p) -> !K(p)")) == ("p",)
    assert atoms(parse("zz & a & m")) == ("a", "m", "zz")


def test_modal_depth():
    assert modal_depth(parse("p & q")) == 0
    assert modal_depth(parse("K(p) & K(q | r)")) == 1
    assert modal_depth(parse("K(K(p))")) == 2
    assert modal_depth(parse("K(p) -> K(K(q))")) == 2


def test_the_modal_depth_of_a_deep_api_formula_is_read_without_recursing():
    f = Var("a")
    for _ in range(5000):
        f = Know(f)
    assert modal_depth(f) == 5000
    assert modal_depth(_api_chain(5000, "a")) == 834  # one K per six wrappers


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Not("a"), "Not.operand must be a Formula, got str"),
        (lambda: And(Var("a"), 1), "And.right must be a Formula, got int"),
        (lambda: Know(None), "Know.operand must be a Formula, got NoneType"),
        (lambda: Implies(left=Top(), right=Top), "Implies.right must be a Formula, got type"),
        (lambda: Or([], Var("a")), "Or.left must be a Formula, got list"),
    ],
)
def test_a_node_refuses_an_operand_that_is_not_a_formula(build, message):
    with pytest.raises(TypeError) as refused:
        build()
    assert str(refused.value) == message


def test_subformulas_cover_the_tree():
    f = parse("K(p) -> !q")
    seen = set(subformulas(f))
    assert {f, Know(Var("p")), Var("p"), Not(Var("q")), Var("q")} <= seen


def _api_chain(depth: int, leaf: str, know=Know):
    """A formula `depth` levels deep, built through the constructors, with
    `know` in place of `Know`."""
    f = Var(leaf)
    wrap = (
        Not,
        know,
        lambda g: And(g, Var("p")),
        lambda g: Or(Top(), g),
        lambda g: Implies(g, Bottom()),
        lambda g: Iff(Var("q"), g),
    )
    for level in range(depth):
        f = wrap[level % len(wrap)](f)
    return f


def _api_chain_texts(depth: int, leaf: str) -> tuple[str, str]:
    """`render` and `repr` of `_api_chain(depth, leaf)`, built level by
    level beside it: `!` parenthesizes the `<->` below it, and no other
    wrapper needs parentheses."""
    text, record = leaf, f"Var(name={leaf!r})"
    wrap = (
        lambda s: f"!{s}" if s == leaf else f"!({s})",
        "K({})".format,
        "{} & p".format,
        "true | {}".format,
        "{} -> false".format,
        "q <-> {}".format,
    )
    wrap_record = (
        "Not(operand={})".format,
        "Know(operand={})".format,
        "And(left={}, right=Var(name='p'))".format,
        "Or(left=Top(), right={})".format,
        "Implies(left={}, right=Bottom())".format,
        "Iff(left=Var(name='q'), right={})".format,
    )
    for level in range(depth):
        text = wrap[level % len(wrap)](text)
        record = wrap_record[level % len(wrap_record)](record)
    return text, record


def test_hashing_deep_api_formulas_does_not_recurse():
    first, second = _api_chain(5000, "a"), _api_chain(5000, "a")
    assert first is second  # built apart, one node
    assert hash(first) == hash(second)
    assert {first: 1}.get(_api_chain(5000, "b")) is None


def test_deep_formulas_with_differing_hashes_compare_without_recursing():
    assert _api_chain(5000, "a") != _api_chain(5000, "b")


def test_subformulas_and_atoms_of_a_deep_api_formula_do_not_recurse():
    f = _api_chain(5000, "a")
    nodes = list(subformulas(f))
    # 833 rounds of six wrappers add ten nodes each; then `!`, `K` and the leaf.
    assert len(nodes) == 833 * 10 + 3
    assert nodes[0] is f
    assert atoms(f) == ("a", "p", "q")


def test_every_public_walker_reads_a_deep_api_formula_without_recursing():
    """A formula 5000 levels deep, five times the default recursion limit,
    is printed, erased, pickled, copied, folded away by the reduction and
    evaluated, and so is its K-free form."""
    f = _api_chain(5000, "a")
    text, record = _api_chain_texts(5000, "a")
    # Compared outside `assert`, whose diff of two texts this long takes minutes.
    assert [render(f) == text, str(f) == text, repr(f) == record] == [True, True, True]
    assert erase_K(f) is _api_chain(5000, "a", know=lambda g: g)
    assert modal_depth(f) == 834
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    # The deep axiom folds to true, so the search drops it and reaches only z.
    result = is_satisfiable(Var("z"), Theory((Or(Top(), f),)))
    assert result.verdict is Verdict.SATISFIABLE
    assert result.model.atoms == ("a", "p", "q", "z")
    # The last five wrappers read K(!(q <-> (true -> false))) over whatever
    # `true | ...` holds, so f is K(q) and its K-free form is q.
    names = ("a", "p", "q")
    witness = is_satisfiable(f)
    assert witness.model == EpistemicModel(names, (valuation_at(names, 0b001),), 0)
    counter = is_valid(f)
    assert counter.verdict is Verdict.INVALID
    assert counter.model == EpistemicModel(names, (valuation_at(names, 0b000),), 0)
    assert eval_modal(f, witness.model, 0) and not eval_modal(f, counter.model, 0)
    k_free = _api_chain(5000, "a", know=lambda g: g)
    assert is_tautology(k_free) == ClassicalVerdict(False, valuation_at(names, 0))
    assert truth_table([k_free]).formula_bits == ("01010101",)
    assert [eval_classical(k_free, v) for v in all_valuations(names)] == [False, True] * 4


def _reference_post_order(roots, known=()) -> list:
    """Each distinct node under `roots` at its first occurrence, after its
    operands, left before right, by recursion, with the nodes in `known`
    neither listed nor entered."""
    order: dict = {}

    def walk(g) -> None:
        if g in order or g in known:
            return
        if isinstance(g, (Not, Know)):
            walk(g.operand)
        elif isinstance(g, (And, Or, Implies, Iff)):
            walk(g.left)
            walk(g.right)
        order.setdefault(g)

    for root in roots:
        walk(root)
    return list(order)


@given(st.lists(formulas, min_size=1, max_size=3))
def test_the_post_order_lists_each_distinct_node_once_after_its_operands(roots):
    order = syntax._post_order(roots)
    assert order == _reference_post_order(roots)
    assert len(set(map(id, order))) == len(order)


@given(st.lists(formulas, min_size=1, max_size=3), st.data())
def test_the_post_order_skips_the_known_nodes_and_what_only_they_reach(roots, data):
    known = set(data.draw(st.lists(st.sampled_from(syntax._post_order(roots)))))
    assert syntax._post_order(roots, known) == _reference_post_order(roots, known)


def _pre_order(f) -> list:
    """Every node of f, each before its operands, left before right."""
    nodes = [f]
    if isinstance(f, (Not, Know)):
        nodes += _pre_order(f.operand)
    elif isinstance(f, (And, Or, Implies, Iff)):
        nodes += _pre_order(f.left) + _pre_order(f.right)
    return nodes


@given(formulas)
def test_subformulas_walk_in_pre_order(f):
    assert list(map(id, subformulas(f))) == list(map(id, _pre_order(f)))


def test_formulas_unpickled_in_another_process_hash_as_built_there():
    def run(code: str, seed: str, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", "import pickle, sys\nfrom klogic import parse\n" + code],
            input=data, capture_output=True, env=env, check=True,
        )
        return done.stdout

    data = run("sys.stdout.buffer.write(pickle.dumps(parse('K(p & q) -> !r')))", "1")
    found = run(
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        "print({parse('K(p & q) -> !r'): 'found'}.get(f))",
        "2",
        data,
    )
    assert found.decode().strip() == "found"


def test_a_node_no_caller_holds_leaves_the_registry():
    gc.collect()
    before = len(syntax._nodes)
    f = parse("K(fresh_a & !fresh_b) -> fresh_c")
    assert len(syntax._nodes) == before + 7
    del f
    gc.collect()
    assert len(syntax._nodes) == before


def test_an_entry_whose_node_died_gives_way_to_a_new_node():
    """Another thread may find an entry whose node has died before the
    entry is dropped; building the formula then registers a new node."""

    class Gone:
        pass

    gone = Gone()
    key = (Var, "gone_a")
    dead = KeyedRef(gone, None, key)
    del gone
    syntax._nodes[key] = dead
    v = Var("gone_a")
    assert syntax._nodes[key] is not dead and syntax._nodes[key]() is v


def test_pickling_and_copying_a_formula_give_the_same_node():
    f = parse("K(p & q) -> !r")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    # Pickles written as `Record` writes them, each node as its type and its
    # fields, at protocols 0 and 2, still load.
    record_form = (
        b"cklogic.syntax\nImplies\np0\n(cklogic.syntax\nKnow\np1\n(cklogic.syntax\nAnd\n"
        b"p2\n(cklogic.syntax\nVar\np3\n(Vp\np4\ntp5\nRp6\ng3\n(Vq\np7\ntp8\nRp9\ntp10\n"
        b"Rp11\ntp12\nRp13\ncklogic.syntax\nNot\np14\n(g3\n(Vr\np15\ntp16\nRp17\ntp18\n"
        b"Rp19\ntp20\nRp21\n.",
        b"\x80\x02cklogic.syntax\nImplies\nq\x00cklogic.syntax\nKnow\nq\x01cklogic.syntax\n"
        b"And\nq\x02cklogic.syntax\nVar\nq\x03X\x01\x00\x00\x00pq\x04\x85q\x05Rq\x06h\x03"
        b"X\x01\x00\x00\x00qq\x07\x85q\x08Rq\t\x86q\nRq\x0b\x85q\x0cRq\rcklogic.syntax\n"
        b"Not\nq\x0eh\x03X\x01\x00\x00\x00rq\x0f\x85q\x10Rq\x11\x85q\x12Rq\x13\x86q\x14"
        b"Rq\x15.",
    )
    for data in record_form:
        assert pickle.loads(data) is f


def test_threads_building_one_formula_share_one_node():
    """Four threads each build `K(t_a & !t_b) -> t_c` 3000 times, and
    `t<i> & !t` for i below 3000, in the same order, from one start and
    with a short switch interval, so they race to register each new key."""
    built: list[list] = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def build(out: list) -> None:
        start.wait(timeout=60)
        for i in range(3000):
            out.append(Implies(Know(And(Var("t_a"), Not(Var("t_b")))), Var("t_c")))
            out.append(And(Var(f"t{i}"), Not(Var("t"))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len({id(out[k]) for out in built for k in range(0, 6000, 2)}) == 1
    assert all(len({id(out[k]) for out in built}) == 1 for k in range(1, 6000, 2))


def test_var_rejects_bad_names():
    for bad in ("", "P", "1a", "a-b", "K"):
        with pytest.raises(ValueError):
            Var(bad)


@given(formulas)
@settings(max_examples=300)
def test_parse_render_round_trip(f):
    assert parse(render(f)) is f


@given(formulas)
def test_render_is_stable(f):
    assert render(parse(render(f))) == render(f)


def _reference_render(f, context: int = 0) -> str:
    """The recursive printer `render` replaced, kept as a reference."""
    precedence = {Iff: 0, Implies: 1, Or: 2, And: 3}
    symbol = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Know):
        return f"K({_reference_render(f.operand, 0)})"
    if isinstance(f, Not):
        return "!" + _reference_render(f.operand, 4)
    level = precedence[type(f)]
    # Left-associative: & and |; right-associative: -> and <->.
    if isinstance(f, (And, Or)):
        left = _reference_render(f.left, level)
        right = _reference_render(f.right, level + 1)
    else:
        left = _reference_render(f.left, level + 1)
        right = _reference_render(f.right, level)
    text = f"{left} {symbol[type(f)]} {right}"
    return f"({text})" if level < context else text


def _record_repr(f) -> str:
    """`Record.__repr__`'s text at every level, by recursion."""
    fields = ", ".join(
        f"{name}={_record_repr(v) if isinstance(v, Formula) else repr(v)}"
        for name, v in zip(f.__match_args__, f._values())
    )
    return f"{type(f).__qualname__}({fields})"


@given(formulas)
# A node shared under several parents, `!` and `K` over connectives, and each
# connective nested on the side that its associativity parenthesizes.
@example(parse("(a | b) & ((a | b) -> !(a | b)) | K(a | b)"))
@example(parse("!(a & b)"))
@example(parse("!(a | b)"))
@example(parse("!(a -> b)"))
@example(parse("!(a <-> b)"))
@example(parse("K(a -> b)"))
@example(parse("a & (b & c)"))
@example(parse("a | (b | c)"))
@example(parse("(a -> b) -> c"))
@example(parse("(a <-> b) <-> c"))
def test_render_and_repr_match_their_recursive_references(f):
    assert render(f) == _reference_render(f)
    assert repr(f) == Record.__repr__(f) == _record_repr(f)


@given(st.text(max_size=30))
def test_parse_totality(text):
    """Arbitrary input either parses or raises ParseError, nothing else."""
    try:
        parse(text)
    except ParseError as e:
        assert e.offset >= 1
        assert "syntax error at offset" in str(e)


def _reference_depth(f) -> int:
    """Maximum nesting depth of K, by recursion over every occurrence."""
    if isinstance(f, Know):
        return 1 + _reference_depth(f.operand)
    if isinstance(f, Not):
        return _reference_depth(f.operand)
    if isinstance(f, (And, Or, Implies, Iff)):
        return max(_reference_depth(f.left), _reference_depth(f.right))
    return 0


@given(formulas)
def test_modal_depth_zero_means_no_know(f):
    assert (modal_depth(f) == 0) == all(
        not isinstance(g, Know) for g in subformulas(f)
    )
    # The depth each node stores is the recursive one, and is made again on
    # unpickling.
    assert modal_depth(f) == _reference_depth(f)
    assert modal_depth(pickle.loads(pickle.dumps(f))) == _reference_depth(f)
