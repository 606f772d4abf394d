"""The traced benchmark run wraps wavesym functions by name: every name it
lists must exist, or a rename would break the traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, function", tracer.TIMED + tracer.COUNTED,
                         ids=[".".join(t) for t in tracer.TIMED + tracer.COUNTED])
def test_traced_function_resolves(module, function):
    assert module in tracer.MODULES
    mod = importlib.import_module(f"wavesym.{module}")
    assert callable(getattr(mod, function, None))
