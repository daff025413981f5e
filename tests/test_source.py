"""The source of `klogic`: no function calls itself, directly or through
other functions of its module, so every walker keeps its own stack and a
formula of any depth fits under the recursion limit."""

from __future__ import annotations

import ast
from pathlib import Path

import klogic

MODULES = sorted(Path(klogic.__file__).parent.glob("*.py"))


def _called(function: ast.AST) -> list[tuple[int, str]]:
    """`(line, name)` for each call inside `function` to a name, bare or as
    `self.name` or `cls.name`.  A nested function's body counts as its
    enclosing function's too."""
    found = []
    for call in ast.walk(function):
        if not isinstance(call, ast.Call):
            continue
        callee = call.func
        if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            name = callee.attr if callee.value.id in ("self", "cls") else None
        else:
            name = callee.id if isinstance(callee, ast.Name) else None
        if name is not None:
            found.append((call.lineno, name))
    return found


def _functions(source: str) -> list[ast.AST]:
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _self_calls(source: str) -> list[str]:
    """`line: name` for each call, inside a function, to that function's own
    name, as `_called` reads calls."""
    return [
        f"{line}: {name}"
        for function in _functions(source)
        for line, name in _called(function)
        if name == function.name
    ]


def _on_call_cycles(source: str) -> list[str]:
    """The sorted names of the functions of `source` that reach themselves
    through calls between its functions, read as `_called` reads them.  A
    function is known by its name, so methods of one name are one node."""
    calls: dict[str, set[str]] = {}
    for function in _functions(source):
        calls.setdefault(function.name, set()).update(name for _, name in _called(function))
    on_cycle = []
    for start in calls:
        reached, stack = set(), [start]
        while stack:
            for name in calls.get(stack.pop(), ()):
                if name not in reached:
                    reached.add(name)
                    stack.append(name)
        if start in reached:
            on_cycle.append(start)
    return sorted(on_cycle)


def test_the_guard_sees_each_form_of_self_call_and_no_other_call():
    source = '''
def walk(f):
    return walk(f.left)

class Node:
    def size(self):
        return self.size() + 1

    @classmethod
    def build(cls):
        def inner():
            return cls.build()
        return inner

    def __new__(cls):
        return object.__new__(cls)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)

    def render(self):
        return render(self.other) + other.render()
'''
    assert _self_calls(source) == ["3: walk", "7: size", "12: build", "22: render"]


def test_no_function_in_klogic_calls_itself():
    assert len(MODULES) > 10
    found = {
        path.name: calls for path in MODULES if (calls := _self_calls(path.read_text()))
    }
    assert found == {}


def test_the_cycle_guard_sees_calls_through_other_functions():
    source = '''
def ping(f):
    return pong(f.operand)

def pong(f):
    return ping(f) if f else None

def walk(f):
    return walk(f.left)

def top(f):
    return ping(f) + leaf(f)

def leaf(f):
    return len(f)

class Node:
    def size(self):
        return self.count()

    def count(self):
        return self.size() + other.count()
'''
    assert _on_call_cycles(source) == ["count", "ping", "pong", "size", "walk"]


def test_no_function_in_klogic_reaches_itself_through_its_module():
    found = {
        path.name: names for path in MODULES if (names := _on_call_cycles(path.read_text()))
    }
    assert found == {}
