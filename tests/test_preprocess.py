import numpy as np
import pytest

from mdmixer.preprocess import EPS, decompose, instance_denormalize, \
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
    x = rng.normal(size=(4, 50, 3))
    once, _ = instance_normalize(x)
    twice, _ = instance_normalize(once)
    np.testing.assert_allclose(twice, once, atol=1e-6)


def test_instance_normalize_output_stats():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 3.0, size=(6, 40, 5))
    normalized, _ = instance_normalize(x)
    means = normalized.mean(axis=1)
    stds = normalized.std(axis=1)
    assert np.abs(means).max() < 1e-6
    assert np.abs(stds - 1.0).max() < 1e-5


def test_instance_denormalize_round_trip():
    rng = np.random.default_rng(2)
    x = rng.normal(-1.0, 4.0, size=(3, 30, 2)).astype(np.float32)
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
    x = rng.normal(size=(2, 20, 4))
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
    parts = decompose(np.full((2, 9, 3), 7.0), kernel=5)
    np.testing.assert_allclose(parts.trend, 7.0, atol=1e-6)
    np.testing.assert_allclose(parts.seasonal, 0.0, atol=1e-6)


def test_decompose_identity_kernel():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 12, 2))
    parts = decompose(x, kernel=1)
    np.testing.assert_array_equal(parts.trend, x)
    np.testing.assert_array_equal(parts.seasonal, np.zeros_like(x))


def test_decompose_even_kernel_rejected():
    with pytest.raises(ValueError, match="odd"):
        decompose(np.zeros((1, 8, 1)), kernel=4)


def test_decompose_reconstruction():
    rng = np.random.default_rng(5)
    for kernel in (1, 3, 25):
        x = rng.normal(size=(3, 64, 4))
        parts = decompose(x, kernel)
        np.testing.assert_allclose(parts.trend + parts.seasonal, x, atol=1e-12)


def test_decompose_channel_permutation():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 30, 5))
    perm = [4, 2, 0, 1, 3]
    direct = decompose(x[:, :, perm], kernel=7)
    permuted = decompose(x, kernel=7)
    np.testing.assert_array_equal(direct.trend, permuted.trend[:, :, perm])


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
        x = rng.normal(size=(2, t, 3))
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
