#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; it checks no timings.

    python3 bench/selftest.py

Checks that BENCHMARK.json matches the metric tables in run.py, that
every workload prints every named metric with its unit in both trace
modes, that the result schema holds, that a wrong forecast makes the
correctness gate fail with a nonzero exit code, that so do skipped
training and zero forecasts, that a stage function a refactor removes is
reported absent rather than failed, and that the benchmark refuses to run
where the program's sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY_MODEL = dict(patch_len=8, stride=4, embed_dim=8, hidden=8, heads=4, kernel=5)
# enough epochs at a high rate that every tiny model beats the zero forecast
TINY = {name: replace(w, lookback=16, horizon=32 if w.horizon > 96 else 16,
                      channels=min(w.channels, 5), rows=400,
                      ratios=(0.6, 0.2, 0.2), epochs=4, lr=1e-2, forecasts=20,
                      batch=8, model=TINY_MODEL, baseline=dict(hidden=8, kernel=5))
        for name, w in run.WORKLOADS.items()}
failures: list[str] = []


def expect(ok: bool, what: str):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_tiny(workload: str, trace: int) -> tuple[int, dict | None, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "0.2", "--trace", str(trace)], workloads=TINY)
    text = out.getvalue()
    try:
        return code, json.loads(text.strip().splitlines()[-1]), text
    except json.JSONDecodeError:
        return code, None, text


def check_manifest():
    path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end names and units match run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer names and units match run.PER_LAYER")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "every bound is in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower", "setup_s is present, in s, lower")


def check_schema(workload: str, trace: int):
    code, result, _ = run_tiny(workload, trace)
    label = f"{workload} trace {trace}"
    expect(code == 0, f"{label}: exit code 0")
    expect(result is not None and set(result) == {"correct", "attempted",
                                                  "failed", "metrics"},
           f"{label}: last line is the result object")
    if result is None:
        return
    expect(result["correct"] is True and result["failed"] == 0,
           f"{label}: correct with no failed operation")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted is a positive integer")
    units = run.PER_LAYER if trace else run.END_TO_END
    metrics = result["metrics"]
    expect(set(metrics) == set(units), f"{label}: every named metric present")
    expect(all(set(m) == {"value", "unit"} and m["unit"] == units[n]
               and isinstance(m["value"], (int, float))
               and math.isfinite(m["value"]) for n, m in metrics.items()),
           f"{label}: every metric is a finite number with its unit")


def check_gate():
    """A forecast one step short must fail the gate and the exit code."""
    mods = run.load_program()
    original = mods.evaluation.predict

    def wrong(x, params, cfg):
        out = original(x, params, cfg)
        return out[:, :-1] if len(x) == 1 else out

    mods.evaluation.predict = wrong
    try:
        code, result, _ = run_tiny("ett_c7", 0)
    finally:
        mods.evaluation.predict = original
    expect(code == 1 and result is not None and result["correct"] is False
           and result["failed"] > 0, "a wrong forecast fails the gate, exit 1")


def check_quality_gate():
    """Training that never updates the parameters, and a model that
    forecasts zeros, must both fail the gate."""
    mods = run.load_program()
    train, predict = mods.training.train, mods.evaluation.predict

    def frozen(cfg, train_w, val_w, settings):
        return train(cfg, train_w, val_w, replace(settings, lr=0.0))

    def zeros(x, params, cfg):
        out = predict(x, params, cfg)
        return out if len(x) == 1 else np.zeros_like(out)

    for what, module, name, fake in (
            ("training that never updates", mods.training, "train", frozen),
            ("zero forecasts", mods.evaluation, "predict", zeros)):
        original = getattr(module, name)
        setattr(module, name, fake)
        try:
            code, result, text = run_tiny("ett_c7", 0)
        finally:
            setattr(module, name, original)
        expect(code == 1 and result is not None and result["correct"] is False
               and "not below the zero forecast" in text,
               f"{what} fails the gate, exit 1")


def check_absent_stage():
    """Stage functions a refactor removes are reported absent, not failed."""
    mods = run.load_program()
    removed = {name: getattr(mods.model, name)
               for name in ("mpp_trend", "amwg_weights")}
    for name in removed:
        delattr(mods.model, name)
    try:
        code, result, text = run_tiny("ett_c7", 1)
    finally:
        for name, fn in removed.items():
            setattr(mods.model, name, fn)
    expect(code == 0 and result is not None and result["correct"] is True
           and "absent: model.trend_heads" in text
           and "absent: model.amwg" in text,
           "removed stage functions are reported absent, not failed")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                               "--workload", "ett_c7", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=180,
                              check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program's sources: nonzero exit, no result")


def main() -> int:
    check_manifest()
    for workload in TINY:
        for trace in (0, 1):
            check_schema(workload, trace)
    check_gate()
    check_quality_gate()
    check_absent_stage()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
