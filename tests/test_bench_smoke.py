"""Smoke run of the benchmark at tiny sizes: every workload's calls into
the program still work, the correctness gate passes and every end-to-end
metric is finite."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
from selftest import TINY  # noqa: E402


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_benchmark_workload_runs(workload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "0.2", "--trace", "0"], workloads=TINY)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0, out.getvalue()
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]), (name, metric)
