"""Tests of the package's public surface."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import cdfmatch

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(cdfmatch.__file__).resolve().parent


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


def test_command_line_import_loads_no_scipy_optimize():
    """The fit solves with NumPy alone, so starting the command line loads
    none of ``scipy.optimize``, which took a third of its start-up time."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cdfmatch.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    src = str(Path(cdfmatch.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.strip() == "[]"


def test_no_second_percentile_definition():
    """Every percentile the package reads is ``quantile`` of a rank-knot CDF,
    so no module calls NumPy's own percentile, quantile or median."""
    banned = {"quantile", "percentile", "nanquantile", "median"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    calls = [f"{path.name}:{node.lineno} np.{node.func.attr}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in banned and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")]
    assert calls == []


def test_no_second_count_floor():
    """Every count's floor is ``whole_number``'s ``least``, so no raise outside
    it says a value "must be at least" some bound."""
    raises = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rule = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "whole_number"
                and path.name == "cdf.py" for node in ast.walk(fn)}
        raises += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and id(node) not in rule
                   and "must be at least" in ast.unparse(node)]
    assert raises == []


def test_few_records_write_a_file_unlike_their_fields():
    """Every other record's JSON object is its fields by name, as ``Record``
    writes and reads it.  These five differ: a version key (the config and
    the template), unset fields left out (provenance), an option (a report
    entry's timing) or an error of its own (the synthetic spec)."""
    importlib.import_module("cdfmatch.cli")
    records, todo = [], [cdfmatch.cdf.Record]
    while todo:
        kinds = todo.pop().__subclasses__()
        records += kinds
        todo += kinds
    assert len(records) > 5
    own = {kind.__name__ for kind in records
           if "to_dict" in vars(kind) or "from_dict" in vars(kind)}
    assert own == {"AppConfig", "TemplateCdf", "Provenance", "ChannelReport", "SynthSpec"}
