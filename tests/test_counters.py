"""Exact work counters of a training step and a forecast, against
``counters.json``.

At each benchmark workload's shape and training batch size (see
``bench/run.py``), a fresh interpreter measures, after one warm-up step:

* the Python calls and the C calls (``sys.setprofile``'s ``call`` and
  ``c_call`` events) of one ``training.backward`` into the run's gradient
  arena plus one ``adamw_step``, as ``train`` runs them on a gathered
  batch;
* the same for one single-window ``evaluation.predict``;
* the ``tracemalloc`` peak of that training step, in bytes;
* for the forecaster, the calls and the peak of one
  ``model.inference_plan`` build, and of one ``evaluate`` batch's forecast
  from the plan (``evaluation.predict`` with ``plan``) of up to
  ``eval_batch_size`` of the probe's windows.

Unlike a timing, these repeat exactly from run to run, so the test
requires equality: a change that adds work or memory to a step fails
here until it re-records the budgets and declares them. The counts depend
on the Python and NumPy versions, which the file records; elsewhere the
test skips, as the golden bit checks do. Re-record with

    PYTHONPATH=src python tests/test_counters.py

and print the counts without writing them with ``--print``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mdmixer.baselines import forecaster
from mdmixer.config import BaselineConfig, ModelConfig, TrainSettings
from mdmixer.data import make_windows
from mdmixer.evaluation import eval_batch_size, predict
from mdmixer.model import inference_plan
from mdmixer.training import adamw_step, backward, init_optimizer

from shapes import WORKLOADS

FIXTURE = Path(__file__).with_name("counters.json")


def versions() -> dict[str, str]:
    return {"python": sys.version.split()[0], "numpy": np.__version__}


def _calls(fn) -> tuple[int, int]:
    """(Python calls, C calls) made while ``fn()`` runs."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(name: str) -> dict[str, int]:
    """The counters of one workload's shape, after a warm-up step and
    forecast."""
    w = WORKLOADS[name]
    lookback, horizon, channels, batch = w.lookback, w.horizon, w.channels, w.batch
    shape = dict(lookback=lookback, horizon=horizon, channels=channels)
    cfg = (ModelConfig(**shape, **w.model) if w.kind == "mdmixer"
           else BaselineConfig(kind=w.kind, **shape, **w.baseline))
    rng = np.random.default_rng(0)
    series = rng.normal(size=(lookback + horizon + 2 * batch, channels))
    windows = make_windows(series.astype(np.float32), lookback, horizon)
    xb, yb = next(windows.batches(batch, rng.permutation(len(windows))))
    window = windows.inputs[:1]
    params = forecaster(cfg)[1](cfg, 0)
    state, grads = init_optimizer(params, TrainSettings()), params.empty_like()

    def step():
        backward(xb, yb, params, cfg, grads)
        adamw_step(params, grads, state)

    def forecast():
        predict(window, params, cfg)

    step(), forecast()
    step_calls, predict_calls = _calls(step), _calls(forecast)
    counts = {"step_python_calls": step_calls[0], "step_c_calls": step_calls[1],
              "step_peak_bytes": _peak_bytes(step),
              "predict_python_calls": predict_calls[0],
              "predict_c_calls": predict_calls[1]}
    if w.kind != "mdmixer":
        return counts
    batch = windows.inputs[:eval_batch_size(channels, horizon)]
    plan = inference_plan(params, cfg)
    probes = {"plan_build": lambda: inference_plan(params, cfg),
              "plan_batch": lambda: predict(batch, params, cfg, plan=plan)}
    for name, probe in probes.items():
        probe()
        calls = _calls(probe)
        counts.update({f"{name}_python_calls": calls[0], f"{name}_c_calls": calls[1],
                       f"{name}_peak_bytes": _peak_bytes(probe)})
    return counts


def measure_all() -> dict[str, dict[str, int]]:
    return {name: measure(name) for name in WORKLOADS}


def measured_fresh() -> dict:
    """``measure_all`` in a new interpreter, so the counts do not depend on
    what earlier tests left in this process's caches and heap."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--print"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_counters_match_the_budgets():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if recorded["versions"] != versions():
        pytest.skip(f"counters recorded under {recorded['versions']}, "
                    f"running under {versions()}")
    got = measured_fresh()
    assert list(got) == list(recorded["shapes"])
    moved = {f"{name}.{counter}": (want, got[name][counter])
             for name, budgets in recorded["shapes"].items()
             for counter, want in budgets.items() if got[name][counter] != want}
    assert not moved, f"(recorded, measured): {moved}"


if __name__ == "__main__":
    counts = measure_all()
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(counts))
    else:
        FIXTURE.write_text(json.dumps({"versions": versions(), "shapes": counts},
                                      indent=2) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE}")
