r"""Abstract syntax, parser, and printer for epistemic propositional formulas.

Concrete syntax (the wire format used by the CLI, theory files, and reports):

    atoms          identifiers matching [a-z][a-zA-Z0-9_]*
    constants      true, false
    negation       !F
    knowledge      K(F)            (parentheses mandatory)
    conjunction    F & G           (left associative)
    disjunction    F | G           (left associative)
    implication    F -> G          (right associative)
    biconditional  F <-> G         (right associative)
    grouping       (F)

Precedence, high to low: {!, K} > & > | > -> > <->.  Whitespace is
insignificant.  `K`, `true`, `false`, `and`, `or`, `not`, `implies`, `iff`
are reserved and cannot be used as atoms.

The whole input is tokenized before parsing starts, so a lexical error is
reported before any syntax error.  A token is a symbol or a word: `\w+` led
by a letter or `_`, in Python's Unicode sense.  A word other than a constant
or `K` must be an atom, `[a-z][a-zA-Z0-9_]*`.

Nesting is limited to MAX_FORMULA_DEPTH levels.  Every `!`, `K(...)`,
parenthesized group and connective is one level above its operands, so
`!(p & q)` is three levels deep and a chain `a & b & c` two, since `&` and
`|` chains nest to the left.  Printing, evaluation and equality recurse
through every level.  Equality compares the hash, the modal depth, then
the fields, and counts three steps of Python's recursion limit per level
on Python 3.10 and 3.11 (331 levels fit under the default 1000), fewer on
later versions; printing and evaluation count one, so 200 levels fit.
`parse` itself does not recurse and refuses deeper input with a ParseError;
hashing, `subformulas` and `atoms` do not recurse, nor does `modal_depth`.
"""

from __future__ import annotations

import re
from typing import Iterator

from ._record import Record
from .errors import LogicError

MAX_FORMULA_DEPTH = 200

RESERVED_WORDS = frozenset({"K", "and", "or", "not", "implies", "iff", "true", "false"})

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def is_atom_name(name: str) -> bool:
    """True iff `name` is a legal atom: lowercase-led identifier, not reserved."""
    return bool(_ATOM_RE.match(name)) and name not in RESERVED_WORDS


_node_types_closed = False  # set once the nine node classes are defined


class Formula(Record):
    """Base class; concrete cases below. Structural equality throughout.

    A node's hash is computed once, at construction, from its type and its
    fields, whose subformulas hold theirs already; so hashing never walks a
    subtree, however deep, and sets and dicts of formulas (a theory's
    deduplication, the reduction's fold cache) stay cheap.  The classical
    evaluator's memo is keyed by node identity instead (see
    `classical._truth`).  The modal depth, 0 iff K-free, is stored as the
    hash is, from the operands' depths, and `modal_depth` reads it; an
    operand without one is refused with TypeError.  Equality compares two
    nodes' attribute dicts, which hold the hash, the depth and then the
    fields, so the comparison runs in C and nodes with differing hashes
    are unequal without a look at their subformulas.  Pickling rebuilds a
    node through `__init__`, as a stored hash is valid only in the process
    that computed it.  The node classes are closed: once the nine below are
    defined, any further subclass, of `Formula` or of one of them, raises
    TypeError, so every walker may dispatch on exact type and none meets a
    node it does not know.
    """

    def __init_subclass__(cls, **kwargs):
        if _node_types_closed:
            base = next(b for b in cls.__bases__ if issubclass(b, Formula))
            raise TypeError(f"cannot subclass {base.__name__}: klogic's node types are closed")
        super().__init_subclass__(**kwargs)

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            values = self._bind(args, kwargs)
            args = tuple([values[name] for name in fields])
        t = type(self)
        try:
            if t is Know:
                depth = args[0]._modal_depth + 1
            elif t is Var or not args:  # an atom's one argument is its name
                depth = 0
            else:  # the first and last operand: a unary node's one, a binary node's two
                depth = max(args[0]._modal_depth, args[-1]._modal_depth)
        except AttributeError:  # an operand that is not a Formula has no depth
            field, value = next(
                (field, a) for field, a in zip(fields, args) if not isinstance(a, Formula)
            )
            raise TypeError(
                f"{t.__name__}.{field} must be a Formula, got {type(value).__name__}"
            ) from None
        state = self.__dict__
        state["_hash"] = hash((t, *args))  # first, so __eq__ compares it first
        state["_modal_depth"] = depth
        state.update(zip(fields, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render(self)


class Top(Formula):
    pass


class Bottom(Formula):
    pass


class Var(Formula):
    name: str

    def __init__(self, name: str):
        if not is_atom_name(name):
            raise ValueError(f"invalid atom name: {name!r}")
        super().__init__(name)


class Not(Formula):
    operand: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Iff(Formula):
    left: Formula
    right: Formula


class Know(Formula):
    operand: Formula


_node_types_closed = True


class ParseError(LogicError):
    """Syntax error with a 1-based character offset into the input string."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"syntax error at offset {offset}: {message}")


# Every character but whitespace starts a match, so `finditer` skips just the
# whitespace.  Symbols, and words led by a letter or `_`, are tokens; any
# other match is a lexical error.
_TOKEN_RE = re.compile(r"<->|->|[()&|!]|\w+|\S")
_SYMBOLS = frozenset(["<->", "->", "(", ")", "&", "|", "!"])
_PARTIAL = {"-": "expected '->'", "<": "expected '<->'"}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # "ident" | "eof" | the symbol itself
        self.text = text
        self.pos = pos  # 0-based character offset

    def describe(self) -> str:
        return f"'{self.text}'" if self.text else "end of input"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        word, pos = match[0], match.start()
        if word in _SYMBOLS:
            tokens.append(_Token(word, word, pos))
        elif word[0].isalpha() or word[0] == "_":
            tokens.append(_Token("ident", word, pos))
        else:
            raise ParseError(pos + 1, _PARTIAL.get(word, f"unexpected character {word[0]!r}"))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# Binding strength of each connective; prefix operators and atoms bind tightest.
_PRECEDENCE = {Iff: 0, Implies: 1, Or: 2, And: 3}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_CONNECTIVE = {symbol: node for node, symbol in _SYMBOL.items()}
_PREFIX_LEVEL = 4


def _leaf(tok: _Token) -> Formula:
    if tok.kind != "ident":
        raise ParseError(tok.pos + 1, f"expected a formula, found {tok.describe()}")
    if tok.text == "true":
        return Top()
    if tok.text == "false":
        return Bottom()
    try:
        return Var(tok.text)
    except ValueError:
        if tok.text in RESERVED_WORDS:
            message = f"reserved word '{tok.text}' cannot be used as an atom"
        else:
            message = f"invalid atom name '{tok.text}' (atoms match [a-z][a-zA-Z0-9_]*)"
        raise ParseError(tok.pos + 1, message) from None


def _too_deep(tok: _Token) -> ParseError:
    return ParseError(
        tok.pos + 1, f"formula nested more than {MAX_FORMULA_DEPTH} levels deep"
    )


def _binds_first(pending: _Token, incoming: type) -> bool:
    """Must the open connective `pending` take its right operand before
    `incoming` takes it as its left one?"""
    level = _PRECEDENCE[_CONNECTIVE[pending.kind]]
    return level > _PRECEDENCE[incoming] or (
        level == _PRECEDENCE[incoming] and incoming in (And, Or)
    )


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError with offset.

    Operator precedence over two explicit stacks, so nesting costs no
    recursion: `opened` holds the constructs around the current position
    (`!`, `(`, `K(` and connectives waiting for their right operand),
    outermost first, and `done` the finished operands with their depths.
    Input nested deeper than MAX_FORMULA_DEPTH is refused at the token that
    crosses the limit.
    """
    tokens = iter(_tokenize(text))
    opened: list[_Token] = []
    done: list[tuple[Formula, int]] = []

    def enter(tok: _Token) -> None:
        if len(opened) >= MAX_FORMULA_DEPTH:
            raise _too_deep(tok)
        opened.append(tok)

    def close() -> None:
        """Finish the innermost open construct over the operands it took."""
        tok = opened.pop()
        formula, depth = done.pop()
        if tok.kind == "!":
            formula = Not(formula)
        elif tok.kind == "ident":
            formula = Know(formula)
        elif tok.kind != "(":
            left, left_depth = done.pop()
            formula = _CONNECTIVE[tok.kind](left, formula)
            depth = max(depth, left_depth)
        depth += 1
        if len(opened) + depth > MAX_FORMULA_DEPTH:
            raise _too_deep(tok)
        done.append((formula, depth))

    while True:
        # An operand: prefix operators and groups, then an atom or constant.
        tok = next(tokens)
        while tok.kind in ("!", "(") or tok.text == "K":
            if tok.text == "K":
                paren = next(tokens)
                if paren.kind != "(":
                    raise ParseError(
                        paren.pos + 1, f"expected '(', found {paren.describe()}"
                    )
            enter(tok)
            tok = next(tokens)
        done.append((_leaf(tok), 0))
        # What the operand completes, up to the next connective.
        while True:
            while opened and opened[-1].kind == "!":
                close()
            tok = next(tokens)
            node = _CONNECTIVE.get(tok.kind)
            if node is not None:
                while opened and opened[-1].kind in _CONNECTIVE and _binds_first(
                    opened[-1], node
                ):
                    close()
                enter(tok)
                break
            while opened and opened[-1].kind in _CONNECTIVE:
                close()
            if tok.kind == ")" and opened:
                close()
            elif opened:
                raise ParseError(tok.pos + 1, f"expected ')', found {tok.describe()}")
            elif tok.kind != "eof":
                raise ParseError(
                    tok.pos + 1, f"expected end of input, found {tok.describe()}"
                )
            else:
                return done.pop()[0]


def _render(f: Formula, context: int) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Know):
        return f"K({_render(f.operand, 0)})"
    if isinstance(f, Not):
        return "!" + _render(f.operand, _PREFIX_LEVEL)
    level = _PRECEDENCE[type(f)]
    # Left-associative: & and |; right-associative: -> and <->.
    if isinstance(f, (And, Or)):
        left = _render(f.left, level)
        right = _render(f.right, level + 1)
    else:
        left = _render(f.left, level + 1)
        right = _render(f.right, level)
    text = f"{left} {_SYMBOL[type(f)]} {right}"
    return f"({text})" if level < context else text


def render(f: Formula) -> str:
    """Minimally parenthesized concrete syntax; parse(render(f)) == f."""
    return _render(f, 0)


_UNARY = (Not, Know)
_BINARY = (And, Or, Implies, Iff)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Depth-first iterator over f and all its subterms, each node before
    its operands and a left operand before a right one.  It keeps its own
    stack, so any depth fits under the recursion limit.  A node shared
    between several parents is yielded once per occurrence."""
    stack = [f]
    pop, push = stack.pop, stack.append
    while stack:
        g = pop()
        yield g
        if isinstance(g, _UNARY):
            push(g.operand)
        elif isinstance(g, _BINARY):
            push(g.right)
            push(g.left)


def atoms(f: Formula) -> tuple[str, ...]:
    """All distinct atom names in f, sorted lexicographically.

    One walk with its own stack, dispatching on exact type, that expands
    each node once, by id: so a formula built with shared subterms costs
    time linear in its distinct nodes, not in its occurrences."""
    names: set[str] = set()
    seen: set[int] = set()
    stack = [f]
    pop, push, see = stack.pop, stack.append, seen.add
    while stack:
        g = pop()
        t = type(g)
        if t is Var:
            names.add(g.name)
        elif id(g) not in seen:
            see(id(g))
            if t is Not or t is Know:
                push(g.operand)
            elif t is not Top and t is not Bottom:
                push(g.left)
                push(g.right)
    return tuple(sorted(names))


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of K, stored on each node; 0 iff f is K-free."""
    return f._modal_depth
