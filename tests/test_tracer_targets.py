"""Every function the benchmark tracer wraps still exists under its name.

``perfbench/tracer.py`` lists its targets as ``(module, attribute path)``
pairs and refuses a traced run when one is missing.  This resolves each
path with ``getattr`` alone, without installing the tracer, so a rename in
``postlie`` fails here as well as in the benchmark's smoke check.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
from functools import cached_property

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, path) for module, path, _, _ in _load_tracer().TARGETS]


@pytest.mark.parametrize("module_name,path", TARGETS)
def test_tracer_target_resolves_to_a_function_of_that_name(module_name, path):
    owner = importlib.import_module(f"postlie.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    target = getattr(owner, attr)
    if isinstance(target, cached_property):
        target = target.func
    assert callable(target)
    # a function bound under another name (an alias) would make the tracer
    # wrap one function at two sites under two span names
    assert target.__name__ == attr


def test_rules_table_is_present():
    rules = importlib.import_module("postlie.rules")
    assert rules.RULES and all(callable(rule.applies) for rule in rules.RULES)
    # the tracer swaps each rule's check for a wrapper this way; a rule whose
    # ``applies`` is not an init field would fail only in a traced run
    for rule in rules.RULES:
        assert dataclasses.replace(rule, applies=rule.applies) == rule
