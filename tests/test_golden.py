"""Forecasts, losses and gradients must reproduce the recorded golden
outputs (see ``golden.py`` for the cases and how they were recorded)."""

import numpy as np
import pytest

from golden import BASELINE_CASES, DTYPES, FIXTURE, MDMIXER_CASES, TOLERANCE, \
    baseline_outputs, digest, key, mdmixer_outputs

DTYPE_IDS = [np.dtype(d).name for d in DTYPES]


@pytest.fixture(scope="module")
def fixture():
    with np.load(FIXTURE) as data:
        return dict(data)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("case", list(MDMIXER_CASES))
def test_mdmixer_bit_identical(fixture, case, dtype):
    outputs = mdmixer_outputs(MDMIXER_CASES[case], dtype)
    expected = fixture[key(case, dtype, "digests")]
    assert len(outputs) == len(expected), list(outputs)
    changed = [label for (label, arr), want in zip(outputs.items(), expected)
               if not np.array_equal(digest(arr), want)]
    assert not changed, changed


def _rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("case", list(BASELINE_CASES))
def test_baseline_matches(fixture, case, dtype):
    outputs = baseline_outputs(BASELINE_CASES[case], dtype)
    tol = TOLERANCE[dtype]
    forecast = outputs["forecast"].astype(np.float64)
    assert outputs["forecast"].dtype == dtype
    assert _rel_err(forecast, fixture[key(case, dtype, "forecast")]) <= tol
    stats = outputs["grad_stats"]
    want = fixture[key(case, dtype, "grad_stats")]
    assert stats.shape == want.shape
    # each row is (norm, projection, projection): compare relative to the norm
    err = np.abs(stats - want).max(axis=1) / want[:, 0]
    assert err.max() <= tol, err
