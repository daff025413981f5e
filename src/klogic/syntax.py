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
`|` chains nest to the left.  `parse` does not recurse and refuses deeper
input with a ParseError.  The limit bounds the input, not recursion: no
walker recurses.  Each keeps its own stack: `subformulas`; printing and
`repr`, which write the text front to back from a stack of what is left to
write; and `_post_order`, which lists each distinct node once after its
operands and which pickling, `atoms`, evaluation (`classical._truth`) and
the modal engine's `erase_K`, fold and K-free split read.  Equality and
hashing are by identity (see `Formula`) and `modal_depth` reads a stored
field.  So a formula built through the API may be deeper than the limit or
than Python's recursion limit, and is printed, walked, compared, pickled
and evaluated all the same.
"""

from __future__ import annotations

import re
from typing import Container, Iterator, Sequence
from weakref import KeyedRef, _remove_dead_weakref, ref

from ._record import Record
from .errors import LogicError

MAX_FORMULA_DEPTH = 200  # a bound on parsed input, not on recursion

RESERVED_WORDS = frozenset({"K", "and", "or", "not", "implies", "iff", "true", "false"})

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def is_atom_name(name: str) -> bool:
    """True iff `name` is a legal atom: lowercase-led identifier, not reserved."""
    return isinstance(name, str) and bool(_ATOM_RE.match(name)) and name not in RESERVED_WORDS


_node_types_closed = False  # set once the nine node classes are defined


_nodes: dict[tuple, KeyedRef] = {}  # (type, *fields) -> the live node's entry


def _forget(entry: KeyedRef) -> None:
    """Drop the entry of a node that died, unless a live node has taken its
    key since.  `_remove_dead_weakref`, as `weakref.WeakValueDictionary`
    uses it, tests and deletes in one step, with no thread run between."""
    _remove_dead_weakref(_nodes, entry.key)


class Formula(Record):
    """Base class; concrete cases below.  One node per formula.

    Building a node looks up its type and fields in a registry of the live
    nodes, and returns the node found there, so every formula built again
    while an equal one lives, by `parse`, by the constructors or by
    unpickling, is that one node.  Equality and hashing are therefore by
    identity: they never walk a subtree, two equal formulas built apart
    compare in constant time, and the walkers' memos, keyed by the node
    (see `_post_order` and `classical._truth`), meet each subformula once.
    The registry holds its nodes weakly, so a node lives only as long as a
    caller holds it, and its entry goes when it dies.  Registration uses
    `dict.setdefault`, so threads that build one formula at once get one
    node.  The lookup comes first, so building a live node costs about the
    lookup, and the rest is done only on a miss.  The modal depth, 0 iff
    K-free, is stored on each node, made from its operands' depths, and
    `modal_depth` reads it; an operand without one, hashable or not, is
    refused with TypeError, and an atom's name is checked when its node is
    built.  The node classes are closed: once the nine below are defined,
    any further subclass, of `Formula` or of one of them, raises TypeError,
    and so does building a `Formula` itself, so every walker may dispatch on
    exact type and none meets a node it does not know.  No walker recurses
    (see `_post_order`), so a node may be nested to any depth.
    """

    def __init_subclass__(cls, **kwargs):
        if _node_types_closed:
            base = next(b for b in cls.__bases__ if issubclass(b, Formula))
            raise TypeError(f"cannot subclass {base.__name__}: klogic's node types are closed")
        super().__init_subclass__(**kwargs)

    __init__ = object.__init__  # a node is complete when `__new__` returns it
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *args, **kwargs):
        fields = cls.__match_args__
        if kwargs or len(args) != len(fields):
            values = cls._bind(args, kwargs)
            args = tuple([values[name] for name in fields])
        try:  # on a hit, the node; an unhashable field is refused below
            found = _nodes.get(key := (cls, *args))
        except TypeError:
            found = None
        while found is None or (node := found()) is None:
            # A miss: the depth, and the checks a registered node has passed.
            try:
                if cls is Know:
                    depth = args[0]._modal_depth + 1
                elif cls is Var or not args:  # an atom's one argument is its name
                    depth = 0
                else:  # the first and last operand: a unary node's one, a binary node's two
                    depth = max(args[0]._modal_depth, args[-1]._modal_depth)
            except AttributeError:  # an operand that is not a Formula has no depth
                field, value = next(p for p in zip(fields, args) if not isinstance(p[1], Formula))
                raise TypeError(
                    f"{cls.__name__}.{field} must be a Formula, got {type(value).__name__}"
                ) from None
            if cls is Var and not isinstance(args[0], str):
                raise TypeError(f"Var.name must be a str, got {type(args[0]).__name__}")
            if cls is Var and not is_atom_name(args[0]):
                raise ValueError(f"invalid atom name: {args[0]!r}")
            if cls is Formula:  # never registered, so every attempt comes here
                raise TypeError("cannot build a Formula, the abstract base of klogic's node types")
            _remove_dead_weakref(_nodes, key)  # the entry of a node that died, if one is left
            node = object.__new__(cls)
            node.__dict__.update(zip(fields, args), _modal_depth=depth)
            # Built by `ref`'s constructor, in C: KeyedRef's own runs in Python
            # and would cost each new node about a third more.
            entry = ref.__new__(KeyedRef, node, _forget)
            entry.key = key
            # Of two threads registering one key, the second gets the first's node.
            found = _nodes.setdefault(key, entry)
        return node

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        """`Record`'s repr, `Name(field=value, ...)`, written front to back
        as `render` writes its text, so any depth fits under the recursion
        limit."""
        out, stack = [], [self]
        while stack:
            t = type(g := stack.pop())
            if t is str:
                out.append(g)
            elif t is Var:
                out.append(f"Var(name={g.name!r})")
            elif t is Not or t is Know:
                out.append(f"{t.__qualname__}(operand=")
                stack += ")", g.operand
            elif t in _SYMBOL:
                out.append(f"{t.__qualname__}(left=")
                stack += ")", g.right, ", right=", g.left
            else:
                out.append(f"{t.__qualname__}()")
        return "".join(out)

    def __reduce__(self):
        """Pickle and copy as a flat program, the nodes of `_post_order`, each
        as its type and fields with an operand given by its place in the
        list, which `_rebuild` runs; so any depth fits under the recursion
        limit, and a copy is the node itself.  A pickle in `Record`'s form,
        each node as its type and its fields, still loads, through the
        constructors."""
        order = _post_order((self,))
        place = {g: k for k, g in enumerate(order)}
        program = [
            (type(g), *[v if type(v) is str else place[v] for v in g._values()]) for g in order
        ]
        return _rebuild, (program,)


def _rebuild(program: list[tuple]) -> Formula:
    """The last node of a program `Formula.__reduce__` wrote, each entry built
    through its type's constructor, with an int field standing for the node
    built at that place."""
    built: list[Formula] = []
    for t, *fields in program:
        built.append(t(*[v if type(v) is str else built[v] for v in fields]))
    return built[-1]


class Top(Formula):
    pass


class Bottom(Formula):
    pass


class Var(Formula):
    name: str


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


# Binding strength of each node type; prefix operators and atoms bind tightest.
_PRECEDENCE = {Iff: 0, Implies: 1, Or: 2, And: 3, Not: 4, Know: 4, Var: 4, Top: 4, Bottom: 4}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_CONNECTIVE = {symbol: node for node, symbol in _SYMBOL.items()}
# Each connective's text, and the binding strength its left and its right
# operand need to go without parentheses: one above its own on the left of
# -> and <->, which associate to the right, and on the right of & and |.
_INFIX = {Iff: (" <-> ", 1, 0), Implies: (" -> ", 2, 1), Or: (" | ", 2, 3), And: (" & ", 3, 4)}


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


def render(f: Formula) -> str:
    """Minimally parenthesized concrete syntax; parse(render(f)) is f.

    Written front to back from one stack of what is left to write, strings
    and operand nodes, the next piece on top: a node writes its first piece
    and pushes the rest, so the time and memory follow the length of the
    text at any depth.  An operand is parenthesized when it binds more
    loosely than its place in the parent allows."""
    out, stack = [], [f]
    while stack:
        t = type(g := stack.pop())
        if t is str:
            out.append(g)
        elif t is Var:
            out.append(g.name)
        elif t is Know or t is Not and type(g.operand) in _SYMBOL:  # !(...) over a connective
            out.append("K(" if t is Know else "!(")
            stack += ")", g.operand
        elif t is Not:
            out.append("!")
            stack.append(g.operand)
        elif t is Top or t is Bottom:
            out.append("true" if t is Top else "false")
        else:  # a closing parenthesis after the left operand leads the symbol
            symbol, left_level, right_level = _INFIX[t]
            if _PRECEDENCE[type(g.left)] < left_level:
                out.append("(")
                symbol = ")" + symbol
            if _PRECEDENCE[type(g.right)] < right_level:
                stack += ")", g.right, symbol + "(", g.left
            else:
                stack += g.right, symbol, g.left
    return "".join(out)


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
        t = type(g)
        if t is Not or t is Know:
            push(g.operand)
        elif t in _SYMBOL:
            push(g.right)
            push(g.left)


def atoms(f: Formula) -> tuple[str, ...]:
    """All distinct atom names in f, sorted lexicographically.  Read from
    `_post_order`, so a formula built with shared subterms costs time linear
    in its distinct nodes, not in its occurrences."""
    return tuple(sorted({g.name for g in _post_order((f,)) if type(g) is Var}))


def _post_order(roots: Sequence[Formula], known: Container = ()) -> list[Formula]:
    """Each distinct node under `roots` once, after its operands, a left
    operand's nodes before a right operand's and an earlier root's before a
    later one's, leaving out the nodes in `known` and everything reached
    only through them.  Every walker that reads a node after its operands
    reads this list, filling a dict keyed by the node; passing that dict
    as `known` lists only the nodes it still lacks.

    One explicit stack, so any depth fits under the recursion limit: a node
    not yet listed goes back on the stack under a `None` marker and its
    operands, and is listed when the marker comes off; a node without
    operands is listed at once.  A formula is acyclic, so no node comes off
    the stack again while its operands are being listed, and the listed
    and the known nodes are the only ones to skip."""
    order: dict[Formula, None] = {}
    stack: list[Formula | None] = [*reversed(roots)]
    pop, push = stack.pop, stack.append
    while stack:
        g = pop()
        if g is None:
            order[pop()] = None
        elif g not in order and g not in known:
            t = type(g)
            if t is Not or t is Know:
                push(g)
                push(None)
                push(g.operand)
            elif t in _SYMBOL:
                push(g)
                push(None)
                push(g.right)
                push(g.left)
            else:
                order[g] = None
    return list(order)


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of K, stored on each node; 0 iff f is K-free."""
    return f._modal_depth
