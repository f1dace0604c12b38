"""Span recorder for the traced run.

The recorder wraps public functions of the beamtrain modules from outside:
each wrapped call appends a span (name, parent, start, end, pass, count) to
an in-memory list.  Modules bind imported functions by name, so a function
is replaced in every beamtrain module namespace that holds it; methods are
replaced on their class.  `uninstall` restores every original.  Spans are
written out once, when the run ends.

Per-layer metrics are computed per pass from the spans.  A span's self time
is its duration minus the durations of its direct children; calls run on one
thread, so children never overlap.
"""
from __future__ import annotations

import json
import sys
import time

import numpy as np

# (module, attribute) of each traced function; its spans are named module.attribute
FUNCTIONS = (
    ("harness", "run_sweep"),
    ("harness", "rate_metric"),
    ("training", "build_match_filter_bank"),
    ("training", "aux_pair_train"),
    ("training", "observe_params"),
    ("training", "ongrid_train"),
    ("training", "match_filter_train"),
    ("training", "nearfield_rainbow_train"),
    ("training", "farfield_rainbow_train"),
    ("training", "exhaustive_polar_train"),
    ("beamsplit", "gain_kernel"),
    ("design", "design"),
    ("arrays", "los_channel"),
    ("cli", "main"),
)
# (module, class, method) of each traced method
METHODS = (
    ("design", "PilotPlan", "focus"),
    ("design", "PilotPlan", "from_json"),
    ("arrays", "PolarCodebook", "__init__"),
)

PER_LAYER = {
    "harness.run_sweep_s": "s",
    "harness.sweep_self_s": "s",
    "harness.rate_metric_s": "s",
    "training.build_match_filter_bank_s": "s",
    "training.bank_points": "count",
    "training.aux_pair_train_s": "s",
    "training.aux_pair_train_calls": "count",
    "training.aux_fallback_frac": "ratio",
    "training.aux_clamped_frac": "ratio",
    "training.observe_params_s": "s",
    "training.ongrid_train_s": "s",
    "training.match_filter_train_s": "s",
    "training.nearfield_rainbow_train_s": "s",
    "training.farfield_rainbow_train_s": "s",
    "training.exhaustive_polar_train_s": "s",
    "beamsplit.gain_kernel.bank_s": "s",
    "beamsplit.gain_kernel.rate_s": "s",
    "beamsplit.gain_kernel_calls": "count",
    "beamsplit.gain_kernel_exps": "count",
    "design.design_s": "s",
    "design.focus_s": "s",
    "design.focus_calls": "count",
    "design.plan_from_json_s": "s",
    "arrays.polar_codebook_s": "s",
    "arrays.los_channel_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# span fields
NAME, PARENT, START, END, PASS, COUNT = range(6)


def _gain_kernel_exps(args, kwargs):
    """Complex exponentials one gain_kernel call evaluates: x.size * N_t."""
    cfg = args[0] if args else kwargs["cfg"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    y = args[2] if len(args) > 2 else kwargs["y"]
    return np.broadcast(np.asarray(x), np.asarray(y)).size * cfg.n_antennas


def _aux_outcome(estimate):
    """2 bits: 1 = fell back, 2 = clamped."""
    return int(estimate.fallback) + 2 * int(estimate.clamped)


# counts taken before the call (from arguments) or after it (from the result)
COUNT_BEFORE = {"beamsplit.gain_kernel": _gain_kernel_exps}
COUNT_AFTER = {
    "training.build_match_filter_bank": len,
    "training.aux_pair_train": _aux_outcome,
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_index = -1
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        before, after = COUNT_BEFORE.get(name), COUNT_AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.pass_index,
                    before(args, kwargs) if before else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                span[COUNT] = after(result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "beamtrain" or n.startswith("beamtrain.")]
        for mod_name, attr in FUNCTIONS:
            fn = getattr(sys.modules[f"beamtrain.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"beamtrain.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{mod_name}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "parent", "start", "end", "pass", "count"],
                       "spans": self.spans}, fh)


def pass_metrics(spans: list[list], pass_index: int) -> dict:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
    total: dict = {}
    calls: dict = {}
    counts: dict = {}
    child_time: dict = {}
    picked = [(i, s) for i, s in enumerate(spans) if s[PASS] == pass_index]
    for i, s in picked:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]

    def self_time(name):
        return sum((s[END] - s[START] - child_time.get(i, 0.0)
                    for i, s in picked if s[NAME] == name), 0.0)

    kernel = {"bank": 0.0, "rate": 0.0}
    aux_outcomes = []
    for i, s in picked:
        name, dt = s[NAME], s[END] - s[START]
        total[name] = total.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + s[COUNT]
        if name == "beamsplit.gain_kernel" and s[PARENT] >= 0:
            parent = spans[s[PARENT]][NAME]
            if parent == "training.build_match_filter_bank":
                kernel["bank"] += dt
            elif parent in ("harness.run_sweep", "harness.rate_metric"):
                kernel["rate"] += dt
        if name == "training.aux_pair_train":
            aux_outcomes.append(s[COUNT])
    n_aux = len(aux_outcomes)
    return {
        "harness.run_sweep_s": total.get("harness.run_sweep", 0.0),
        "harness.sweep_self_s": self_time("harness.run_sweep"),
        "harness.rate_metric_s": total.get("harness.rate_metric", 0.0),
        "training.build_match_filter_bank_s": total.get("training.build_match_filter_bank", 0.0),
        "training.bank_points": counts.get("training.build_match_filter_bank", 0),
        "training.aux_pair_train_s": total.get("training.aux_pair_train", 0.0),
        "training.aux_pair_train_calls": n_aux,
        "training.aux_fallback_frac": sum(o & 1 for o in aux_outcomes) / n_aux if n_aux else 0.0,
        "training.aux_clamped_frac": sum(o >> 1 for o in aux_outcomes) / n_aux if n_aux else 0.0,
        "training.observe_params_s": total.get("training.observe_params", 0.0),
        "training.ongrid_train_s": total.get("training.ongrid_train", 0.0),
        "training.match_filter_train_s": total.get("training.match_filter_train", 0.0),
        "training.nearfield_rainbow_train_s": total.get("training.nearfield_rainbow_train", 0.0),
        "training.farfield_rainbow_train_s": total.get("training.farfield_rainbow_train", 0.0),
        "training.exhaustive_polar_train_s": total.get("training.exhaustive_polar_train", 0.0),
        "beamsplit.gain_kernel.bank_s": kernel["bank"],
        "beamsplit.gain_kernel.rate_s": kernel["rate"],
        "beamsplit.gain_kernel_calls": calls.get("beamsplit.gain_kernel", 0),
        "beamsplit.gain_kernel_exps": counts.get("beamsplit.gain_kernel", 0),
        "design.design_s": total.get("design.design", 0.0),
        "design.focus_s": total.get("design.PilotPlan.focus", 0.0),
        "design.focus_calls": calls.get("design.PilotPlan.focus", 0),
        "design.plan_from_json_s": total.get("design.PilotPlan.from_json", 0.0),
        "arrays.polar_codebook_s": total.get("arrays.PolarCodebook.__init__", 0.0),
        "arrays.los_channel_s": total.get("arrays.los_channel", 0.0),
        "cli.self_s": self_time("cli.main"),
    }
