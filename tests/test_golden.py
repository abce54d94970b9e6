"""Forecasts, losses and gradients must reproduce the recorded golden
outputs (see ``golden.py`` for the cases and how they were recorded)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from golden import BASELINE_CASES, DTYPES, FIXTURE, MDMIXER_CASES, \
    blas_environment, digest, key, mdmixer_outputs, perturbed, \
    recorded_environment, value_failures, value_stats
from mdmixer.model import ParamSet

DTYPE_IDS = [np.dtype(d).name for d in DTYPES]
TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def fixture():
    with np.load(FIXTURE) as data:
        return dict(data)


def test_records_of_a_label_ignore_the_other_labels():
    """A tensor's perturbation and an output's value row depend on its
    label only, not on which labels come before or after it, so adding or
    dropping a tensor moves no other record."""
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=shape) for shape in ((3, 4), (5,), (2, 2)))
    alone = perturbed(ParamSet({"b": b}), np.float64)
    among = perturbed(ParamSet({"a": a, "b": b, "c": c}), np.float64)
    assert alone["b"].tobytes() == among["b"].tobytes()
    assert not np.array_equal(among["a"], a)
    row = value_stats({"y": b})
    rows = value_stats({"x": a, "y": b, "z": c})
    assert row.tobytes() == rows[1:2].tobytes()
    # same array, another label: other projections, same norm
    other = value_stats({"w": b})
    assert other[0, 0] == row[0, 0] and not np.array_equal(other, row)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("case", list(MDMIXER_CASES))
def test_mdmixer_values(fixture, case, dtype):
    bad = value_failures(fixture, case, dtype)
    assert not bad, bad


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("case", list(BASELINE_CASES))
def test_baseline_matches(fixture, case, dtype):
    bad = value_failures(fixture, case, dtype)
    assert not bad, bad


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("case", list(MDMIXER_CASES))
def test_mdmixer_bit_identical(fixture, case, dtype):
    recorded, env = recorded_environment(fixture), blas_environment()
    if env != recorded:
        pytest.skip(f"digests recorded under {recorded}, running under {env}")
    outputs = mdmixer_outputs(MDMIXER_CASES[case], dtype)
    expected = fixture[key(case, dtype, "digests")]
    assert len(outputs) == len(expected), list(outputs)
    changed = [label for (label, arr), want in zip(outputs.items(), expected)
               if not np.array_equal(digest(arr), want)]
    assert not changed, changed


def test_values_hold_at_one_blas_thread():
    """The value records do not depend on the BLAS thread count. The pin
    takes effect only before NumPy loads, so the check runs in a fresh
    interpreter, which reports the thread count it got."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(TESTS / "golden.py"), "--check"],
                          env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    assert lines and lines[0].startswith("environment "), proc.stdout + proc.stderr
    threads = json.loads(lines[0].split(" ", 1)[1])["threads"]
    if threads is None:
        pytest.skip("BLAS thread count cannot be read, so the pin is unverified")
    assert threads == 1
    assert proc.returncode == 0, proc.stdout + proc.stderr
