"""Non-learnable per-window transforms: instance normalization, the
moving-average trend/seasonal split, patch extraction, and the banded
operators that run fixed linear maps over time (here and in ``model``).
Windows are (B, T, C); ``channel_major`` ones, which the forecaster and the
baselines pass, keep every pass over time on contiguous rows."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def channel_major(x: np.ndarray, dtype=None) -> np.ndarray:
    """One copy of ``x`` (B x T x C) in channel-major memory: a (B, T, C)
    view of contiguous (B, C, T) rows, which elementwise results inherit."""
    return np.ascontiguousarray(x.transpose(0, 2, 1), dtype=dtype).transpose(0, 2, 1)


def instance_normalize(x: np.ndarray) -> tuple[np.ndarray, InstanceStats]:
    """Zero-mean / unit-std each (window, channel) along the time axis.

    Uses the population std, floored at EPS so constant windows map to zeros.
    """
    mean = x.mean(axis=1)                                   # (B, C)
    normalized = x - mean[:, None, :]
    std = np.sqrt(np.square(normalized).mean(axis=1))
    std = np.maximum(std, np.asarray(EPS, dtype=x.dtype))
    normalized /= std[:, None, :]
    return normalized, InstanceStats(mean=mean, std=std)


def instance_denormalize(y: np.ndarray, stats: InstanceStats) -> np.ndarray:
    """Restore the captured scale; works for any sequence length (B x L x C)."""
    return y * stats.std[:, None, :] + stats.mean[:, None, :]


# output columns per block: an operator with at most 96 outputs is one block
BAND_WIDTH = 96


@lru_cache(maxsize=256)
def band_blocks(build, lengths: tuple[int, int], dtype,
                transpose: bool = False) -> tuple[tuple[int, int, np.ndarray], ...]:
    """The float64 matrix ``build(*lengths)`` (or its transpose) as blocks
    of ``BAND_WIDTH`` output columns, each cut to the contiguous input rows
    that hold its nonzeros, cast once to ``dtype``; read-only, since they
    are cached. Each entry is (first input row, first output column, block).

    Moving averages, interpolation and pooling touch a band of inputs per
    output, so the blocks skip the zeros a dense product multiplies; a
    matrix of at most ``BAND_WIDTH`` columns is one block, the whole matrix.
    """
    mat = build(*lengths)
    if transpose:
        mat = mat.T
    blocks = []
    for n0 in range(0, mat.shape[1], BAND_WIDTH):
        cols = mat[:, n0:n0 + BAND_WIDTH]
        rows = np.flatnonzero(cols.any(axis=1))
        # astype keeps the memory order: a transpose stays column-major
        block = cols[rows[0]:rows[-1] + 1].astype(dtype)
        block.flags.writeable = False
        blocks.append((int(rows[0]), n0, block))
    return tuple(blocks)


def band_matmul(x: np.ndarray, blocks) -> np.ndarray:
    """``x @ M`` over the last axis, from M's ``band_blocks``."""
    _, last, block = blocks[-1]
    out = np.empty((*x.shape[:-1], last + block.shape[1]), dtype=x.dtype)
    for k0, n0, block in blocks:
        rows, cols = block.shape
        np.matmul(x[..., k0:k0 + rows], block, out=out[..., n0:n0 + cols])
    return out


def _moving_average_matrix(length: int, kernel: int) -> np.ndarray:
    """(T x T) moving average with replicate-edge padding, in float64: column
    t averages rows clip(t - kernel//2 ... t + kernel//2, 0, T - 1); entry
    (s, t) counts row s's padded positions [lo, hi) inside [t, t + kernel)."""
    pos = np.arange(length)
    lo = np.where(pos == 0, 0, pos + kernel // 2)
    hi = np.where(pos == length - 1, length + kernel - 1, pos + kernel // 2 + 1)
    counts = np.minimum(hi[:, None], pos + kernel) - np.maximum(lo[:, None], pos)
    return np.maximum(counts, 0) / kernel


def decompose(x: np.ndarray, kernel: int) -> DecomposedWindow:
    """Trend = centered moving average with replicate-edge padding (odd
    kernel), a banded operator on the (B, C, T) rows (so channel-major);
    seasonal = the residual x - trend."""
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be a positive odd integer, got {kernel}")
    blocks = band_blocks(_moving_average_matrix, (x.shape[1], kernel), x.dtype)
    trend = band_matmul(x.transpose(0, 2, 1), blocks).transpose(0, 2, 1)
    return DecomposedWindow(trend=trend, seasonal=x - trend)


def patch(x: np.ndarray, patch_len: int, stride: int) -> PatchSet:
    """Cut each channel into overlapping length-P segments at the given stride.

    The series is zero-padded at the end so the final segment fits; with
    count N = (T - P) // S + 2 the padded length is (N - 1) * S + P.
    Output layout is (B, C, N, P), one copy of a strided view of the
    padded (B, C, T) rows.
    """
    b, t, c = x.shape
    if patch_len < 1 or stride < 1:
        raise ValueError("patch_len and stride must be >= 1")
    if patch_len > t:
        raise ValueError(f"patch_len ({patch_len}) exceeds window length ({t})")
    count = (t - patch_len) // stride + 2
    padded = np.zeros((b, c, (count - 1) * stride + patch_len), dtype=x.dtype)
    padded[:, :, :t] = x.transpose(0, 2, 1)
    # segment j reads [j*S, j*S + P), inside the padded length; as_strided,
    # since sliding_window_view's checks cost more than the copy at B=1
    s_b, s_c, s_t = padded.strides
    segments = as_strided(padded, (b, c, count, patch_len), (s_b, s_c, stride * s_t, s_t))
    return PatchSet(patches=np.ascontiguousarray(segments))
