"""Tests of the package's public surface."""

import ast
import importlib
from pathlib import Path

import cdfmatch

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_public_name_resolves():
    missing = [name for name in cdfmatch.__all__ if not hasattr(cdfmatch, name)]
    assert missing == []


def test_benchmark_hooks_resolve():
    """Every (module, attribute) the benchmark's tracer wraps still exists."""
    hooks = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            hooks[node.targets[0].id] = node.value
    lookups = [(module, attr)
               for name in ("HARMONIZE_HOOKS", "SETUP_HOOKS")
               for module, attr, _ in ast.literal_eval(hooks[name])]
    assert lookups
    missing = [(module, attr) for module, attr in lookups
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
