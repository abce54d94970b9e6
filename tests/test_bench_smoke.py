"""Smoke run of the benchmark at tiny sizes: every workload's calls into
the program still work, the correctness gate passes and every end-to-end
metric is finite; traced, every per-layer stage is still found."""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
from selftest import TINY  # noqa: E402


# stages the benchmark's stage replay cannot find in the program as it
# stands; any other absent stage means a rename or a signature change in
# the program that would report its per-layer metric as 0
KNOWN_ABSENT = {"model.amwg", "model.fuse", "model.trend_heads",
                "training._embed_backward", "training._mim_backward"}


def run_tiny(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "0.2", "--trace", str(trace)], workloads=TINY)
    text = out.getvalue()
    result = json.loads(text.strip().splitlines()[-1])
    assert code == 0, text
    assert result["correct"] is True and result["failed"] == 0
    return result, text


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_benchmark_workload_runs(workload):
    result, _ = run_tiny(workload, 0)
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]), (name, metric)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_workload_finds_every_stage(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, text = run_tiny(workload, 1)
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER) and len(metrics) == 30
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]), (name, metric)
    other_family = f"not run by a {TINY[workload].kind} workload"
    absent = {name for name, why in re.findall(r"absent: (\S+) \((.*)\)", text)
              if why != other_family}
    assert absent <= KNOWN_ABSENT, text
    assert [p.name for p in tmp_path.iterdir()] == [f"trace-{workload}-seed3.json"]
