"""The package namespace: every public name resolves on first access to the
object its home module defines."""

from __future__ import annotations

import subprocess
import sys
from importlib import import_module

import pytest

import klogic

TABLE = [name for names in klogic._EXPORTS.values() for name in names.split()]


def test_all_is_the_table_without_duplicates():
    assert len(TABLE) == len(set(TABLE)) == 62
    assert klogic.__all__ == sorted(TABLE)


@pytest.mark.parametrize("module, names", klogic._EXPORTS.items())
def test_each_name_is_its_home_modules_object(module, names):
    home = import_module(f"klogic.{module}")
    for name in names.split():
        assert getattr(klogic, name) is getattr(home, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from klogic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == klogic.__all__


def test_dir_lists_every_public_name_before_its_first_use():
    # A fresh interpreter: in this one, earlier tests have resolved the names.
    code = "import klogic; print(sorted(set(klogic.__all__) - set(dir(klogic))))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        klogic.no_such_name
