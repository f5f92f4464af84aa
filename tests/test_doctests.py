"""Run the docstring examples of every parakat module."""

import doctest
import importlib
import pkgutil

import pytest

import parakat

MODULES = ["parakat", *(f"parakat.{m.name}" for m in pkgutil.iter_modules(parakat.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
