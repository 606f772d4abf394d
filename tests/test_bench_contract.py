"""The traced benchmark run wraps wavesym functions by name: every name it
lists must exist, or a rename would break the traced run, and every
function kept in src/ only for it must be one it lists."""

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


def test_unreferenced_entries_kept_for_the_tracer_are_traced():
    # a function that test_packaging keeps because the tracer times it must
    # be one the tracer wraps, so that list cannot outlive a tracer change
    from test_packaging import UNREFERENCED

    traced = {".".join(t) for t in tracer.TIMED + tracer.COUNTED}
    cited = {name for name, reason in UNREFERENCED.items() if "perfbench/tracer.py" in reason}
    assert sorted(cited - traced) == []
