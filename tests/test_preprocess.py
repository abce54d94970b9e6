import os
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TINY, assert_banded_matches_dense
from mdmixer.preprocess import BAND_WIDTH, EPS, _moving_average_matrix, \
    band_blocks, channel_major, decompose, instance_denormalize, \
    instance_normalize, patch


def _window(values, dtype=np.float32):
    """(1, T, 1) batch from a flat list."""
    return np.asarray(values, dtype=dtype)[None, :, None]


# ---------------------------------------------------------------------------
# instance normalization


def test_instance_normalize_hand_values():
    x = _window([1.0, 2.0, 3.0])
    normalized, stats = instance_normalize(x)
    np.testing.assert_allclose(normalized[0, :, 0],
                               [-1.2247449, 0.0, 1.2247449], atol=1e-6)
    assert stats.mean[0, 0] == pytest.approx(2.0)
    assert stats.std[0, 0] == pytest.approx(0.8164966, abs=1e-6)


def test_instance_normalize_constant_window():
    normalized, stats = instance_normalize(_window([4.0, 4.0, 4.0]))
    np.testing.assert_array_equal(normalized, np.zeros((1, 3, 1)))
    assert stats.std[0, 0] == np.float32(EPS)


def test_instance_normalize_idempotent_on_normalized():
    rng = np.random.default_rng(0)
    x = channel_major(rng.normal(size=(4, 50, 3)))
    once, _ = instance_normalize(x)
    twice, _ = instance_normalize(once)
    np.testing.assert_allclose(twice, once, atol=1e-6)


def test_instance_normalize_output_stats():
    rng = np.random.default_rng(1)
    x = channel_major(rng.normal(2.0, 3.0, size=(6, 40, 5)))
    normalized, _ = instance_normalize(x)
    means = normalized.mean(axis=1)
    stds = normalized.std(axis=1)
    assert np.abs(means).max() < 1e-6
    assert np.abs(stds - 1.0).max() < 1e-5


def test_instance_denormalize_round_trip():
    rng = np.random.default_rng(2)
    x = channel_major(rng.normal(-1.0, 4.0, size=(3, 30, 2)).astype(np.float32))
    normalized, stats = instance_normalize(x)
    restored = instance_denormalize(normalized, stats)
    np.testing.assert_allclose(restored, x, rtol=1e-5, atol=1e-5)


def test_instance_denormalize_constant_restoration():
    from mdmixer.preprocess import InstanceStats
    stats = InstanceStats(mean=np.array([[3.0]]), std=np.array([[2.0]]))
    out = instance_denormalize(np.zeros((1, 2, 1)), stats)
    np.testing.assert_array_equal(out, [[[3.0], [3.0]]])


def test_instance_normalize_channel_permutation():
    rng = np.random.default_rng(3)
    x = channel_major(rng.normal(size=(2, 20, 4)))
    perm = [2, 0, 3, 1]
    direct, _ = instance_normalize(x[:, :, perm])
    permuted = instance_normalize(x)[0][:, :, perm]
    # reduction order varies with memory layout, so equality is up to rounding
    np.testing.assert_allclose(direct, permuted, atol=1e-12)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_hand_values():
    parts = decompose(_window([1.0, 2.0, 3.0, 4.0], dtype=np.float64), kernel=3)
    np.testing.assert_allclose(parts.trend[0, :, 0], [4 / 3, 2.0, 3.0, 11 / 3],
                               atol=1e-12)
    np.testing.assert_allclose(parts.seasonal[0, :, 0],
                               [-1 / 3, 0.0, 0.0, 1 / 3], atol=1e-12)


def test_decompose_constant_series():
    parts = decompose(channel_major(np.full((2, 9, 3), 7.0)), kernel=5)
    np.testing.assert_allclose(parts.trend, 7.0, atol=1e-6)
    np.testing.assert_allclose(parts.seasonal, 0.0, atol=1e-6)


def test_decompose_identity_kernel():
    rng = np.random.default_rng(4)
    x = channel_major(rng.normal(size=(2, 12, 2)))
    parts = decompose(x, kernel=1)
    np.testing.assert_array_equal(parts.trend, x)
    np.testing.assert_array_equal(parts.seasonal, np.zeros_like(x))


def test_decompose_even_kernel_rejected():
    with pytest.raises(ValueError, match="odd"):
        decompose(np.zeros((1, 8, 1)), kernel=4)


def test_decompose_reconstruction():
    rng = np.random.default_rng(5)
    for kernel in (1, 3, 25):
        x = channel_major(rng.normal(size=(3, 64, 4)))
        parts = decompose(x, kernel)
        np.testing.assert_allclose(parts.trend + parts.seasonal, x, atol=1e-12)


def test_decompose_channel_permutation():
    rng = np.random.default_rng(6)
    x = channel_major(rng.normal(size=(2, 30, 5)))
    perm = [4, 2, 0, 1, 3]
    direct = decompose(x[:, :, perm], kernel=7)
    permuted = decompose(x, kernel=7)
    np.testing.assert_array_equal(direct.trend, permuted.trend[:, :, perm])


# ---------------------------------------------------------------------------
# the moving average as a banded operator

DTYPES = (np.float32, np.float64)
MA_LENGTHS = (1, 4, 8, 96, 97, 336, 720)


def ma_cases():
    return [(t, k) for t in MA_LENGTHS for k in sorted({1, 3, 25, 2 * t + 1})]


@lru_cache(maxsize=None)
def reference_matrix(length, kernel):
    """The moving average one entry at a time: column t counts each row of
    the replicate-padded window t - kernel//2 ... t + kernel//2."""
    half = kernel // 2
    mat = np.zeros((length, length), dtype=np.float64)
    for t in range(length):
        for s in range(t - half, t + half + 1):
            mat[min(max(s, 0), length - 1), t] += 1.0
    return mat / kernel


def reference_trend(x, kernel):
    """Float64 mean over each replicate-padded window of the time axis."""
    half = kernel // 2
    x = x.astype(np.float64)
    padded = np.concatenate([np.repeat(x[:, :1], half, axis=1), x,
                             np.repeat(x[:, -1:], half, axis=1)], axis=1)
    return np.stack([padded[:, t:t + kernel].mean(axis=1)
                     for t in range(x.shape[1])], axis=1)


def assert_trend_close(got, want, x, kernel, what=""):
    """Within (kernel + 1) eps of the summed magnitudes |x| over each window:
    the rounding of up to kernel adds and of the operator's entries."""
    tol = (kernel + 1) * np.finfo(x.dtype).eps
    scale = reference_trend(np.abs(x), kernel)
    assert np.all(np.abs(got.astype(np.float64) - want) <= tol * scale), what


@pytest.mark.parametrize("length, kernel", ma_cases())
def test_moving_average_matrix_matches_reference_loop(length, kernel):
    mat = _moving_average_matrix(length, kernel)
    assert mat.dtype == np.float64
    np.testing.assert_array_equal(mat, reference_matrix(length, kernel))


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("length, kernel", ma_cases())
def test_decompose_trend_is_the_dense_product(length, kernel, dtype):
    """Within the dot-product bound of the float64 reference everywhere.
    Against the dense product ``x @ M``: bit for bit where the operator is
    one block (T <= 96), and within the banded-product bound where it is
    several and banded (kernel <= T). A kernel past both edges makes M full:
    every output then sums all T inputs, and at T=720 in float32 the block
    and dense orders of those 720 terms differ by up to about 7 eps of
    their summed magnitudes, as any two orders may, so such a kernel is
    held to the reference bound alone."""
    x = channel_major(np.random.default_rng(length * 7 + kernel).normal(
        size=(3, length, 5)).astype(dtype))
    trend = decompose(x, kernel).trend
    what = f"T={length} k={kernel}"
    assert trend.shape == x.shape and trend.dtype == x.dtype
    assert_trend_close(trend, reference_trend(x, kernel), x, kernel, what)
    if length <= BAND_WIDTH or kernel <= length:
        assert_banded_matches_dense(
            trend.transpose(0, 2, 1), x.transpose(0, 2, 1),
            reference_matrix(length, kernel).astype(dtype), what)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("length, kernel", ma_cases())
def test_decompose_matches_scipy_uniform_filter(length, kernel, dtype):
    """The split is the one ``scipy.ndimage.uniform_filter1d`` made, where
    SciPy is installed to compare with."""
    ndimage = pytest.importorskip("scipy.ndimage")
    x = channel_major(np.random.default_rng(length + kernel).normal(
        size=(3, length, 5)).astype(dtype))
    trend = decompose(x, kernel).trend
    want = ndimage.uniform_filter1d(x, size=kernel, axis=1, mode="nearest")
    err = np.linalg.norm((trend - want).astype(np.float64))
    tol = 1e-6 if dtype == np.float32 else 1e-12
    assert err <= tol * np.linalg.norm(want.astype(np.float64))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(b=st.integers(1, 4), length=st.integers(1, 800), c=st.integers(1, 5),
       half=st.integers(0, 800), dtype=st.sampled_from(DTYPES),
       seed=st.integers(0, 2**32 - 1))
def test_decompose_properties_over_random_geometries(b, length, c, half, dtype,
                                                     seed):
    kernel = 2 * min(half, length) + 1  # up to 2T + 1, past both edges
    rng = np.random.default_rng(seed)
    x = channel_major(rng.normal(size=(b, length, c)).astype(dtype))
    what = f"B={b} T={length} C={c} k={kernel} {np.dtype(dtype)}"
    parts = decompose(x, kernel)
    assert_trend_close(parts.trend, reference_trend(x, kernel), x, kernel, what)
    eps = np.finfo(dtype).eps
    assert np.all(np.abs(parts.trend + parts.seasonal - x)
                  <= eps * (np.abs(x) + np.abs(parts.trend))), what

    perm = rng.permutation(c)
    permuted = decompose(x[:, :, perm], kernel).trend
    assert_trend_close(permuted, parts.trend[:, :, perm].astype(np.float64),
                       x[:, :, perm], kernel, what)

    level = rng.normal(size=c).astype(dtype)
    flat = channel_major(np.broadcast_to(level, x.shape))
    assert_trend_close(decompose(flat, kernel).trend,
                       np.broadcast_to(level.astype(np.float64), x.shape),
                       flat, kernel, what)
    # the blocks of a (T x T) operator reach megabytes at large T and
    # kernel; keep the cache from holding one operator per example
    band_blocks.cache_clear()


NUMPY_ONLY = textwrap.dedent("""
    import sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.startswith("scipy"):
                raise ImportError(f"import of {name} refused")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    import numpy as np
    import mdmixer
    from mdmixer.config import ModelConfig
    from mdmixer.model import forward, init_params
    from mdmixer.preprocess import decompose
    from mdmixer.training import backward

    cfg = ModelConfig(**TINY)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, cfg.lookback, cfg.channels)).astype(np.float32)
    y = rng.normal(size=(3, cfg.horizon, cfg.channels)).astype(np.float32)
    params = init_params(cfg, 0)
    forward(x, params, cfg)
    backward(x, y, params, cfg)
    decompose(rng.normal(size=(2, 96, 7)), 25)
    print(sorted(m for m in sys.modules if m.startswith("scipy")))
""")


def test_package_runs_without_scipy():
    """A fresh interpreter that refuses every ``scipy*`` import still
    imports the package, runs a forward and backward pass and a
    decomposition, and loads no SciPy module."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", f"TINY = {TINY!r}\n" + NUMPY_ONLY],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


# ---------------------------------------------------------------------------
# patching


def test_patch_default_geometry():
    out = patch(np.ones((1, 96, 1), dtype=np.float32), patch_len=32, stride=16)
    assert out.patches.shape == (1, 1, 6, 32)              # (96-32)//16 + 2 patches
    # padded length 112: the last patch covers [80, 112) -> 16 real + 16 zeros
    np.testing.assert_array_equal(out.patches[0, 0, 5, :16], np.ones(16))
    np.testing.assert_array_equal(out.patches[0, 0, 5, 16:], np.zeros(16))


def test_patch_start_indices():
    x = np.arange(8, dtype=np.float32)[None, :, None]
    out = patch(x, patch_len=4, stride=2)
    assert out.patches.shape[2] == 4
    for j, start in enumerate((0, 2, 4, 6)):
        expected = [start + k if start + k < 8 else 0.0 for k in range(4)]
        np.testing.assert_array_equal(out.patches[0, 0, j], expected)


def test_patch_full_window_boundary():
    x = np.arange(1, 6, dtype=np.float32)[None, :, None]
    out = patch(x, patch_len=5, stride=5)
    assert out.patches.shape[2] == 2
    np.testing.assert_array_equal(out.patches[0, 0, 0], [1, 2, 3, 4, 5])
    np.testing.assert_array_equal(out.patches[0, 0, 1], np.zeros(5))


def test_patch_too_long_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        patch(np.zeros((1, 4, 1)), patch_len=5, stride=1)


def test_patch_coverage():
    # The first S elements of patches 0..N-2 plus the last patch in full
    # reproduce the zero-padded series.
    rng = np.random.default_rng(7)
    for t, p, s in ((96, 32, 16), (20, 7, 3), (11, 4, 4), (8, 8, 1)):
        x = channel_major(rng.normal(size=(2, t, 3)))
        patches = patch(x, p, s).patches
        count = patches.shape[2]
        pieces = [patches[:, :, j, :s] for j in range(count - 1)]
        pieces.append(patches[:, :, count - 1, :])
        rebuilt = np.concatenate(pieces, axis=2)
        padded_len = (count - 1) * s + p
        padded = np.zeros((2, 3, padded_len))
        padded[:, :, :t] = x.transpose(0, 2, 1)
        np.testing.assert_array_equal(rebuilt, padded)


def test_patch_count_formula_randomized():
    rng = np.random.default_rng(8)
    for _ in range(50):
        t = int(rng.integers(4, 200))
        p = int(rng.integers(1, t + 1))
        s = int(rng.integers(1, t + 1))
        out = patch(np.zeros((1, t, 1)), p, s)
        # independent oracle: walk the starts, then one extra padded patch
        count, start = 0, 0
        while start <= t - p:
            count += 1
            start += s
        count += 1
        assert out.patches.shape[2] == count == (t - p) // s + 2


# ---------------------------------------------------------------------------
# the front end on channel-major windows against the channels-last one


def reference_front_end(x, kernel):
    """Normalize and decompose windows (B, T, C) as the front end did on
    contiguous channels-last memory: reductions over axis 1, the moving
    average as a dense product. Returns the normalized window, the trend,
    the seasonal part, and the mean and std (B, C)."""
    x = np.ascontiguousarray(x)
    mean = x.mean(axis=1)
    std = np.sqrt(((x - mean[:, None, :]) ** 2).mean(axis=1))
    std = np.maximum(std, np.asarray(EPS, dtype=x.dtype))
    normalized = (x - mean[:, None, :]) / std[:, None, :]
    mat = reference_matrix(x.shape[1], kernel).astype(x.dtype)
    trend = np.matmul(normalized.transpose(0, 2, 1), mat).transpose(0, 2, 1)
    return normalized, trend, normalized - trend, mean, std


def reference_patch(x, patch_len, stride):
    """Patches (B, C, N, P) of windows (B, T, C), one copy per patch."""
    b, t, c = x.shape
    count = (t - patch_len) // stride + 2
    padded = np.zeros((b, (count - 1) * stride + patch_len, c), dtype=x.dtype)
    padded[:, :t, :] = x
    patches = np.empty((b, c, count, patch_len), dtype=x.dtype)
    for j in range(count):
        patches[:, :, j, :] = padded[:, j * stride:j * stride + patch_len, :] \
            .transpose(0, 2, 1)
    return patches


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(b=st.integers(1, 4), c=st.integers(1, 6), t=st.integers(1, 200),
       p_pick=st.integers(0, 10**6), s_pick=st.integers(0, 10**6),
       half=st.integers(0, 200), dtype=st.sampled_from(DTYPES),
       major=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_front_end_matches_channels_last_reference(b, c, t, p_pick, s_pick, half,
                                                   dtype, major, seed):
    """On either memory order, normalize and decompose match the reference
    within 8 eps (1 + |reference|) per value (they may reduce in another
    order; the worst seen over 3,000 random geometries was 3.8 eps, at most
    2.4e-6 absolute in float32), and patching is a copy that matches the
    reference bit for bit. Channel-major input gives channel-major parts."""
    patch_len, stride = 1 + p_pick % t, 1 + s_pick % t
    kernel = 2 * min(half, t) + 1
    what = (f"B={b} C={c} T={t} P={patch_len} S={stride} k={kernel} "
            f"{np.dtype(dtype)} major={major}")
    x = np.random.default_rng(seed).normal(size=(b, t, c)).astype(dtype)
    want = reference_front_end(x, kernel)
    if major:
        x = channel_major(x)

    normalized, stats = instance_normalize(x)
    parts = decompose(normalized, kernel)
    tol = 8 * np.finfo(dtype).eps
    for got, ref in zip((normalized, parts.trend, parts.seasonal, stats.mean,
                         stats.std), want):
        assert got.shape == ref.shape and got.dtype == ref.dtype, what
        assert np.all(np.abs(got.astype(np.float64) - ref)
                      <= tol * (1 + np.abs(ref))), what
    if major:
        for got in (normalized, parts.trend, parts.seasonal):
            assert got.transpose(0, 2, 1).flags.c_contiguous, what

    for part in (parts.seasonal, parts.trend):
        got = patch(part, patch_len, stride).patches
        ref = reference_patch(part, patch_len, stride)
        assert got.shape == ref.shape and got.flags.c_contiguous, what
        assert got.tobytes() == ref.tobytes(), what
