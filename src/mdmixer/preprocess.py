"""Non-learnable per-window transforms: instance normalization,
moving-average trend/seasonal split, and patch extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter1d

EPS = 1e-5  # instance std floor


@dataclass
class InstanceStats:
    """Per-(window, channel) mean and std captured before normalization."""

    mean: np.ndarray  # (B, C)
    std: np.ndarray   # (B, C), every entry >= EPS


@dataclass
class DecomposedWindow:
    trend: np.ndarray     # (B, T, C)
    seasonal: np.ndarray  # (B, T, C)


@dataclass
class PatchSet:
    patches: np.ndarray  # (B, C, N, P)


def instance_normalize(x: np.ndarray) -> tuple[np.ndarray, InstanceStats]:
    """Zero-mean / unit-std each (window, channel) along the time axis.

    Uses the population std, floored at EPS so constant windows map to zeros.
    """
    mean = x.mean(axis=1)                                   # (B, C)
    std = np.sqrt(((x - mean[:, None, :]) ** 2).mean(axis=1))
    std = np.maximum(std, np.asarray(EPS, dtype=x.dtype))
    normalized = (x - mean[:, None, :]) / std[:, None, :]
    return normalized, InstanceStats(mean=mean, std=std)


def instance_denormalize(y: np.ndarray, stats: InstanceStats) -> np.ndarray:
    """Restore the captured scale; works for any sequence length (B x L x C)."""
    return y * stats.std[:, None, :] + stats.mean[:, None, :]


def decompose(x: np.ndarray, kernel: int) -> DecomposedWindow:
    """Trend = centered moving average with replicate-edge padding (odd
    kernel); seasonal = the residual, so trend + seasonal == x exactly."""
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be a positive odd integer, got {kernel}")
    if kernel == 1:
        trend = x.copy()
    else:
        trend = uniform_filter1d(x, size=kernel, axis=1, mode="nearest")
    return DecomposedWindow(trend=trend, seasonal=x - trend)


def patch(x: np.ndarray, patch_len: int, stride: int) -> PatchSet:
    """Cut each channel into overlapping length-P segments at the given stride.

    The series is zero-padded at the end so the final segment fits; with
    count N = (T - P) // S + 2 the padded length is (N - 1) * S + P.
    Output layout is (B, C, N, P).
    """
    b, t, c = x.shape
    if patch_len < 1 or stride < 1:
        raise ValueError("patch_len and stride must be >= 1")
    if patch_len > t:
        raise ValueError(f"patch_len ({patch_len}) exceeds window length ({t})")
    count = (t - patch_len) // stride + 2
    padded_len = (count - 1) * stride + patch_len
    padded = np.zeros((b, padded_len, c), dtype=x.dtype)
    padded[:, :t, :] = x
    patches = np.empty((b, c, count, patch_len), dtype=x.dtype)
    for j in range(count):
        seg = padded[:, j * stride:j * stride + patch_len, :]  # (B, P, C)
        patches[:, :, j, :] = seg.transpose(0, 2, 1)
    return PatchSet(patches=patches)
