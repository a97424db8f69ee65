"""The benchmark's span tracer (``perfbench/spans.py``) wraps sbpkit functions
by module and name; a traced run fails if one of them is renamed or deleted."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [
        (module, name)
        for module, names in spans.SBPKIT_FUNCTIONS.items()
        for name in names
    ]


@pytest.mark.parametrize("module,name", _traced_functions())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"sbpkit.{module}"), name, None))
