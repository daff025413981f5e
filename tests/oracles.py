"""Reference implementations the engine is tested against.

Everything here is written in the most literal style available: dict-based
assignments, explicit world lists, and exhaustive enumeration of every
candidate model in canonical order.  None of it shares code with the
package; agreement between the two is the point.
"""

from __future__ import annotations

import random
from itertools import combinations

from klogic import And, Bottom, Formula, Iff, Implies, Know, Not, Or, Top, Var


def oracle_eval(f: Formula, env: dict[str, bool]) -> bool:
    """Truth of a K-free formula under a dict assignment."""
    match f:
        case Top():
            return True
        case Bottom():
            return False
        case Var(name=name):
            return env[name]
        case Not(operand=g):
            return not oracle_eval(g, env)
        case And(left=l, right=r):
            return oracle_eval(l, env) and oracle_eval(r, env)
        case Or(left=l, right=r):
            return oracle_eval(l, env) or oracle_eval(r, env)
        case Implies(left=l, right=r):
            return (not oracle_eval(l, env)) or oracle_eval(r, env)
        case Iff(left=l, right=r):
            return oracle_eval(l, env) == oracle_eval(r, env)
    raise AssertionError(f"not K-free: {f!r}")


def oracle_eval_modal(f: Formula, worlds: list[dict[str, bool]], i: int) -> bool:
    """Truth at world i of the cell given by an explicit world list."""
    match f:
        case Know(operand=g):
            return all(oracle_eval_modal(g, worlds, j) for j in range(len(worlds)))
        case Not(operand=g):
            return not oracle_eval_modal(g, worlds, i)
        case And(left=l, right=r):
            return oracle_eval_modal(l, worlds, i) and oracle_eval_modal(r, worlds, i)
        case Or(left=l, right=r):
            return oracle_eval_modal(l, worlds, i) or oracle_eval_modal(r, worlds, i)
        case Implies(left=l, right=r):
            return (not oracle_eval_modal(l, worlds, i)) or oracle_eval_modal(r, worlds, i)
        case Iff(left=l, right=r):
            return oracle_eval_modal(l, worlds, i) == oracle_eval_modal(r, worlds, i)
        case _:
            return oracle_eval(f, worlds[i])


def canonical_worlds(names: tuple[str, ...]) -> list[dict[str, bool]]:
    """All assignments in canonical order: first atom most significant."""
    n = len(names)
    worlds = []
    for index in range(2**n):
        worlds.append(
            {names[k]: bool((index >> (n - 1 - k)) & 1) for k in range(n)}
        )
    return worlds


def oracle_first_model(
    f: Formula,
    axioms: tuple[Formula, ...],
    names: tuple[str, ...],
) -> tuple[tuple[dict[str, bool], ...], int] | None:
    """First satisfying (cell, designated index) in canonical order, or None.

    Cells are enumerated as ascending subset bitmasks of the valuation list
    (bit i selects valuation i); within a cell, designated indices ascend.
    """
    base = canonical_worlds(names)
    for mask in range(1, 2 ** len(base)):
        worlds = [base[i] for i in range(len(base)) if mask & (1 << i)]
        if not all(
            oracle_eval_modal(ax, worlds, j)
            for ax in axioms
            for j in range(len(worlds))
        ):
            continue
        for j in range(len(worlds)):
            if oracle_eval_modal(f, worlds, j):
                return tuple(worlds), j
    return None


def _atom_names(f: Formula) -> set[str]:
    match f:
        case Var(name=name):
            return {name}
        case Know(operand=g) | Not(operand=g):
            return _atom_names(g)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r) | Iff(
            left=l, right=r
        ):
            return _atom_names(l) | _atom_names(r)
    return set()


def _graph_eval(f: Formula, known: set[str], env: dict[str, bool]) -> bool:
    """Truth of `f` where K(a) reads "a is in `known`" and a plain atom its
    value in `env`."""
    match f:
        case Know(operand=Var(name=name)):
            return name in known
        case Know():
            raise AssertionError(f"K of a compound formula: {f!r}")
        case Not(operand=g):
            return not _graph_eval(g, known, env)
        case And(left=l, right=r):
            return _graph_eval(l, known, env) and _graph_eval(r, known, env)
        case Or(left=l, right=r):
            return _graph_eval(l, known, env) or _graph_eval(r, known, env)
        case Implies(left=l, right=r):
            return (not _graph_eval(l, known, env)) or _graph_eval(r, known, env)
        case Iff(left=l, right=r):
            return _graph_eval(l, known, env) == _graph_eval(r, known, env)
        case _:
            return oracle_eval(f, env)


def oracle_graph_sat(f: Formula, pairs) -> bool:
    """Whether `f`, over K(atom), plain atoms and connectives, holds at some
    world of some model of the axioms K(m) -> !K(x), one per incompatible
    (m, x) in `pairs`, whatever the number of declared atoms.

    It does iff some set S of f's atoms with no incompatible pair, and some
    valuation d of f's atoms with S true, make f true when K(a) reads "a is
    in S" and each plain atom reads its value in d.  From such S and d, the
    cell of d plus one world per other atom, with S true and that atom
    false, is a model; from a model, S is the atoms of f it knows and d its
    designated world.  At most 3^n evaluations over f's n atoms.
    """
    names = tuple(sorted(_atom_names(f)))
    incompatible = {frozenset(pair) for pair in pairs}
    for env in canonical_worlds(names):
        true = [a for a in names if env[a]]
        for k in range(len(true) + 1):
            for known in combinations(true, k):
                if any(frozenset(two) in incompatible for two in combinations(known, 2)):
                    continue
                if _graph_eval(f, set(known), env):
                    return True
    return False


def random_formula(
    rng: random.Random,
    atom_pool: tuple[str, ...],
    depth: int,
    know_budget: int = 0,
) -> Formula:
    """A random formula of nesting depth at most `depth`; Know appears only
    while know_budget is positive, so modal depth never exceeds the budget."""
    leaves = ["var", "var", "var", "top", "bottom"]
    if depth <= 0:
        choice = rng.choice(leaves)
    else:
        inner = ["not", "and", "or", "implies", "iff"]
        if know_budget > 0:
            inner.append("know")
        choice = rng.choice(inner + leaves[:2])
    if choice == "var":
        return Var(rng.choice(atom_pool))
    if choice == "top":
        return Top()
    if choice == "bottom":
        return Bottom()
    if choice == "know":
        return Know(random_formula(rng, atom_pool, depth - 1, know_budget - 1))
    if choice == "not":
        return Not(random_formula(rng, atom_pool, depth - 1, know_budget))
    left = random_formula(rng, atom_pool, depth - 1, know_budget)
    right = random_formula(rng, atom_pool, depth - 1, know_budget)
    if choice == "and":
        return And(left, right)
    if choice == "or":
        return Or(left, right)
    if choice == "implies":
        return Implies(left, right)
    return Iff(left, right)
