"""The bench tracer's span and count targets still name functions of teichlen.

The tracer skips a target it cannot resolve, so a renamed function would
silently drop its per-layer metric from every traced bench run.
"""

import importlib
import operator
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """The tracer module, run from its source so nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, path, name", tracing.SPANNED + tracing.COUNTED,
                         ids=lambda value: str(value))
def test_target_resolves(module, path, name):
    target = operator.attrgetter(path)(importlib.import_module(f"teichlen.{module}"))
    assert callable(target), name
