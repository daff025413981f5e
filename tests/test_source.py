"""The source of `klogic`: no function calls itself, so every walker keeps
its own stack and a formula of any depth fits under the recursion limit."""

from __future__ import annotations

import ast
from pathlib import Path

import klogic

MODULES = sorted(Path(klogic.__file__).parent.glob("*.py"))


def _self_calls(source: str) -> list[str]:
    """`line: name` for each call, inside a function, to that function's own
    name, bare or as `self.name` or `cls.name`.  A nested function's body
    counts as its enclosing function's too."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(function):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                name = callee.attr if callee.value.id in ("self", "cls") else None
            else:
                name = callee.id if isinstance(callee, ast.Name) else None
            if name == function.name:
                found.append(f"{call.lineno}: {name}")
    return found


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
