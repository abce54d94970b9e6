import os
from pathlib import Path

import numpy as np
import pytest

from mdmixer.config import ModelConfig
from mdmixer.preprocess import BAND_WIDTH

# Small enough that finite differences over every parameter run in seconds.
TINY = dict(lookback=8, horizon=4, channels=2, patch_len=4, stride=2,
            embed_dim=3, heads=2, hidden=4, kernel=3)


@pytest.fixture
def tiny_cfg():
    return ModelConfig(**TINY)


def make_frame(values) -> np.ndarray:
    """A (T x C) float32 series; a 1-D input becomes one channel."""
    values = np.asarray(values, dtype=np.float32)
    return values[:, None] if values.ndim == 1 else values


HORIZONS = (96, 192, 336, 720)


def head_lengths(horizon: int) -> list[int]:
    """Every head length G of every H <= 8 that divides the horizon F,
    plus the G=1 and G=F endpoints: the banded horizon operators' shapes."""
    return sorted({1, horizon} | {horizon // h * i for h in range(1, 9)
                                  if horizon % h == 0 for i in range(1, h + 1)})


def assert_banded_matches_dense(got: np.ndarray, x: np.ndarray, mat: np.ndarray,
                                what: str = ""):
    """``got`` against the dense product ``x @ mat`` (``mat`` cast to x's
    dtype): bit for bit when ``mat`` is one band block, else within 2 ulp
    (float32) or 1e-12 (float64) of ``|x| @ |mat|``, the size of the terms
    summed; not of the result, since the sums of the reverse cancel."""
    want = x @ mat
    assert got.shape == want.shape and got.dtype == want.dtype, what
    if mat.shape[1] <= BAND_WIDTH:
        assert got.tobytes() == want.tobytes(), what
        return
    tol = 2 * np.finfo(np.float32).eps if x.dtype == np.float32 else 1e-12
    scale = np.abs(x.astype(np.float64)) @ np.abs(mat.astype(np.float64))
    assert np.all(np.abs(got.astype(np.float64) - want) <= tol * scale), what


def rand_batch(rng, b, t, c, dtype=np.float32):
    return rng.normal(0.0, 1.0, size=(b, t, c)).astype(dtype)


def dataset_path(name: str) -> Path | None:
    """Locate a benchmark CSV under $MDMIXER_DATA_DIR or ./data."""
    roots = []
    if os.environ.get("MDMIXER_DATA_DIR"):
        roots.append(Path(os.environ["MDMIXER_DATA_DIR"]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        candidate = root / name
        if candidate.exists():
            return candidate
    return None
