"""The traced benchmark run wraps beamtrain functions and methods by name;
every name it lists must exist, and its count hooks must read the calls'
arguments and results, or `perfbench/run.py --trace 1` breaks."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from beamtrain import PolarLocation, aux_pair_train, build_match_filter_bank, los_channel
from beamtrain.beamsplit import gain_kernel

from conftest import observe_plan, polar_grid

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


def test_count_hooks_read_real_calls(desk_plan):
    # the counts the traced run takes from a call's arguments or its result,
    # on real calls at tiny size: a change to a traced function's arguments
    # or returned record fails here, not only in the traced benchmark run
    cfg = desk_plan.cfg
    grid = polar_grid(cfg, 3, 2)
    bank = build_match_filter_bank(desk_plan, grid)
    assert SPANS.COUNT_AFTER["training.build_match_filter_bank"](bank) == len(grid) == 6

    channel = los_channel(cfg, PolarLocation.from_angle_distance(0.2, 5.0))
    est = aux_pair_train(observe_plan(channel, desk_plan, 10.0, 0), desk_plan)
    assert SPANS.COUNT_AFTER["training.aux_pair_train"](est) in range(4)

    x, y = np.linspace(-1.0, 1.0, 5), np.array([[0.0], [0.1]])
    exps = SPANS.COUNT_BEFORE["beamsplit.gain_kernel"]
    for args, kwargs in (((cfg, x, y), {}), ((cfg,), {"x": x, "y": y}),
                         ((), {"cfg": cfg, "x": x, "y": y})):
        assert exps(args, kwargs) == gain_kernel(*args, **kwargs).size * cfg.n_antennas
