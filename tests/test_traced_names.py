"""The traced benchmark run wraps beamtrain functions and methods by name;
every name it lists must exist, or `perfbench/run.py --trace 1` breaks."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("module_name, attr", SPANS.FUNCTIONS)
def test_traced_function_exists(module_name, attr):
    module = importlib.import_module(f"beamtrain.{module_name}")
    assert callable(getattr(module, attr, None)), f"beamtrain.{module_name}.{attr}"


@pytest.mark.parametrize("module_name, cls_name, attr", SPANS.METHODS)
def test_traced_method_is_defined_on_its_class(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(f"beamtrain.{module_name}"), cls_name)
    # the recorder replaces cls.__dict__[attr]; an inherited method would not do
    assert attr in vars(cls), f"beamtrain.{module_name}.{cls_name}.{attr}"
