"""The benchmark's tracer wraps package functions by name, and resolves each
name only when a traced round installs it. A rename in the package would
break every traced round while untraced runs still pass, so every name in
``perfbench/tracing.py``'s ``SPANS`` is resolved here. The file is parsed,
not imported, and nothing under ``perfbench/`` is written."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans() -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {TRACING}")


SPANS = _spans()


def test_spans_are_listed():
    assert SPANS


@pytest.mark.parametrize(
    "layer, module, attr, counter", SPANS, ids=[f"{module}:{attr}" for _, module, attr, _ in SPANS]
)
def test_traced_name_resolves(layer, module, attr, counter):
    # a dotted attribute names a method through its class
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
