"""Dataset ingestion, standardization, chronological splits and windowing.

A series is a plain (T x C) float32 array from the loader to the windows:
the splits are row views of it and the windows views of each standardized
split.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import ConfigError, SynthChannel


class DataError(ValueError):
    """Raised for malformed input files or impossible split/window requests."""


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split ratios plus the window geometry they must support."""

    ratios: tuple[float, float, float]
    lookback: int
    horizon: int

    def __post_init__(self):
        if not all(r >= 0 for r in self.ratios):  # NaN fails too
            raise ConfigError(f"split ratios must be nonnegative, got {self.ratios}")
        if not abs(sum(self.ratios) - 1.0) <= 1e-6:
            raise ConfigError(f"split ratios must sum to 1, got {self.ratios}")
        if self.lookback < 1 or self.horizon < 1:
            raise ConfigError("lookback and horizon must be positive")


@dataclass
class NormStats:
    """Per-channel mean/std of the training segment."""

    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)


@dataclass
class WindowBatch:
    """Supervised windows: inputs (B x T x C) and the F steps that follow them."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataError("inputs and targets disagree on window count")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def batches(self, batch_size: int,
                order: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (x, y) batches in window order, as views of the windows,
        or in ``order``, as gathered copies in channel-major memory ((B, T,
        C) views of contiguous (B, C, T) rows, the forecaster's layout);
        the last one may be short."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self)
        if order is not None and len(order) != n:
            raise ValueError(f"order holds {len(order)} indices for {n} windows")
        # a channel index beside the window index gathers C-ordered (B, C, T)
        # rows from the (n, C, T) views; a window index alone would keep the
        # views' memory order
        inputs, targets = (a.transpose(0, 2, 1) for a in (self.inputs, self.targets))
        channels = np.arange(inputs.shape[1])
        for start in range(0, n, batch_size):
            idx = slice(start, min(start + batch_size, n))
            if order is not None:
                idx = order[idx, None], channels
            yield inputs[idx].transpose(0, 2, 1), targets[idx].transpose(0, 2, 1)


def load_csv(path: str | Path) -> np.ndarray:
    """Read a benchmark-style CSV: header row, timestamp column, numeric channels.

    Returns the (T x C) float32 values; the timestamp column is required
    but not kept. Rows are numbered from 1 including the header, matching
    what an editor shows. Any missing, non-numeric or non-finite cell is
    rejected.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    if not path.is_file():
        raise DataError(f"{path}: not a regular file")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = _read_rows(path, csv.reader(fh))
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    return np.asarray(rows, dtype=np.float32)


def _read_rows(path: Path, reader) -> list[list[float]]:
    """Parsed value rows of a CSV reader, timestamp cells dropped."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"empty file: {path}") from None
    if len(header) < 2:
        raise DataError(f"{path}: need a timestamp column plus at least "
                        f"one value column, got {len(header)} column(s)")
    channel_names = [h.strip() for h in header[1:]]
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: malformed row, row {lineno} has "
                            f"{len(row)} fields, expected {len(header)}")
        parsed = []
        for name, cell in zip(channel_names, row[1:]):
            cell = cell.strip()
            if not cell:
                raise DataError(f"{path}: missing value, column '{name}', row {lineno}")
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric value, column '{name}', "
                                f"row {lineno}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: non-finite value, column '{name}', "
                                f"row {lineno}")
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise DataError(f"empty file: {path} (header only)")
    return rows


def standardize(values: np.ndarray,
                stats: NormStats | None = None) -> tuple[np.ndarray, NormStats]:
    """Z-score each channel. Without stats, fit them on these values (the
    train segment) using the population std, floored at 1e-8 for constant
    channels."""
    if stats is None:
        values64 = values.astype(np.float64)
        mean = values64.mean(axis=0)
        std = values64.std(axis=0)  # population std
        std = np.maximum(std, 1e-8)
        stats = NormStats(mean=mean, std=std)
    return ((values - stats.mean) / stats.std).astype(values.dtype), stats


def chronological_split(values: np.ndarray,
                        spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split in time order into three row views. Val and test reach back by
    the lookback so their first forecast target starts exactly at the
    segment boundary; target ranges therefore never overlap across segments."""
    total = len(values)
    t, f = spec.lookback, spec.horizon
    b1 = int(math.floor(spec.ratios[0] * total))
    b2 = int(math.floor((spec.ratios[0] + spec.ratios[1]) * total))
    # Window feasibility per segment: train needs b1 >= T+F; val/test extend
    # backwards, so they only need F fresh target steps past their boundary.
    if b1 < t + f:
        raise DataError(f"train segment too short: {b1} rows cannot fit "
                        f"lookback {t} + horizon {f}")
    if b2 - b1 < f:
        raise DataError(f"val segment too short: {b2 - b1} rows past the train "
                        f"boundary cannot fit horizon {f}")
    if total - b2 < f:
        raise DataError(f"test segment too short: {total - b2} rows past the val "
                        f"boundary cannot fit horizon {f}")
    return values[:b1], values[max(b1 - t, 0):b2], values[max(b2 - t, 0):]


def make_windows(values: np.ndarray, lookback: int, horizon: int) -> WindowBatch:
    """All stride-1 supervised windows of a (T x C) series, as zero-copy views.

    Window i pairs input rows [i, i+T) with target rows [i+T, i+T+F).
    """
    if values.ndim != 2:
        raise DataError(f"values must be 2-D, got shape {values.shape}")
    total = len(values)
    if total < lookback + horizon:
        raise DataError(f"frame of length {total} is shorter than "
                        f"lookback + horizon = {lookback + horizon}")
    n = total - lookback - horizon + 1
    # sliding_window_view appends the window axis: (total-T+1, C, T)
    in_view = np.lib.stride_tricks.sliding_window_view(values, lookback, axis=0)
    out_view = np.lib.stride_tricks.sliding_window_view(values, horizon, axis=0)
    inputs = in_view[:n].transpose(0, 2, 1)
    targets = out_view[lookback:lookback + n].transpose(0, 2, 1)
    return WindowBatch(inputs=inputs, targets=targets)


def synth_multiscale(n: int, channels: Sequence[SynthChannel], seed: int) -> np.ndarray:
    """Deterministic synthetic (n x C) float32 series: per channel a sinusoid
    of the given period and amplitude, a linear ramp, and Gaussian noise."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    columns = []
    for spec in channels:
        wave = spec.amplitude * np.sin(2.0 * np.pi * t / spec.period)
        ramp = spec.slope * t
        noise = rng.normal(0.0, spec.noise, size=n) if spec.noise > 0 else 0.0
        columns.append(wave + ramp + noise)
    return np.stack(columns, axis=1).astype(np.float32)
