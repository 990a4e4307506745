"""The names the benchmark pins.

A per-layer metric of ``BENCHMARK.json`` that counts or times calls
(``module.name.calls``, ``.self_s``, ``.share``, ``.refused``) reads the
span of ``pmcmc_lab.module.name``, which ``bench/tracer.py`` records for
every public function of a module and for its ``METHODS``.  Deleting or
renaming such a name would leave the metric unmeasured, so each must still
exist.  Both files are read, neither is imported or changed.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALL_METRICS = (".calls", ".self_s", ".share", ".refused")


def _traced_methods() -> dict:
    """``bench/tracer.py``'s METHODS as {(module, method): class name}."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "METHODS" for t in node.targets)
    ]
    return {(module, method): cls for module, cls, method in ast.literal_eval(value)}


def _pinned_names() -> list:
    """The ``module.name`` of every per-layer call metric."""
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return sorted({m["name"].rsplit(".", 1)[0] for m in layers if m["name"].endswith(CALL_METRICS)})


def test_the_benchmark_pins_call_metrics():
    assert len(_pinned_names()) > 10


@pytest.mark.parametrize("pinned", _pinned_names())
def test_every_name_the_benchmark_pins_is_traced_code(pinned):
    module, name = pinned.split(".")
    mod = importlib.import_module(f"pmcmc_lab.{module}")
    cls = _traced_methods().get((module, name))
    if cls is not None:
        assert inspect.isfunction(vars(getattr(mod, cls)).get(name)), f"{module}.{cls}.{name}"
        return
    fn = getattr(mod, name, None)
    assert not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__, pinned
