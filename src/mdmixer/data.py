"""Dataset ingestion, standardization, chronological splits and windowing."""

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


@dataclass
class SeriesFrame:
    """A multivariate series: values (T_total x C), timestamps and channel names.

    Timestamps are opaque strings kept in file order; no parsing or
    reordering ever happens.
    """

    values: np.ndarray
    timestamps: list[str]
    channel_names: list[str]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {self.values.shape}")
        if len(self.timestamps) != self.values.shape[0]:
            raise DataError("timestamps length does not match value rows")
        if len(self.channel_names) != self.values.shape[1]:
            raise DataError("channel_names length does not match value columns")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]

    def slice(self, start: int, stop: int) -> "SeriesFrame":
        return SeriesFrame(self.values[start:stop],
                           self.timestamps[start:stop],
                           self.channel_names)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split ratios plus the window geometry they must support."""

    ratios: tuple[float, float, float]
    lookback: int
    horizon: int

    def __post_init__(self):
        if any(r < 0 for r in self.ratios):
            raise ConfigError(f"split ratios must be nonnegative, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-6:
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
        """Yield contiguous (x, y) batches; the last one may be short."""
        n = len(self)
        for start in range(0, n, batch_size):
            idx = slice(start, min(start + batch_size, n))
            if order is not None:
                sel = order[idx]
                yield self.inputs[sel], self.targets[sel]
            else:
                yield (np.ascontiguousarray(self.inputs[idx]),
                       np.ascontiguousarray(self.targets[idx]))


def load_csv(path: str | Path) -> SeriesFrame:
    """Read a benchmark-style CSV: header row, timestamp column, numeric channels.

    Rows are numbered from 1 including the header, matching what an editor
    shows. Any missing, non-numeric or non-finite cell is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        if len(header) < 2:
            raise DataError(f"{path}: need a timestamp column plus at least "
                            f"one value column, got {len(header)} column(s)")
        channel_names = [h.strip() for h in header[1:]]
        timestamps: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: malformed row, row {lineno} has "
                                f"{len(row)} fields, expected {len(header)}")
            timestamps.append(row[0])
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
    values = np.asarray(rows, dtype=np.float32)
    return SeriesFrame(values, timestamps, channel_names)


def standardize(frame: SeriesFrame,
                stats: NormStats | None = None) -> tuple[SeriesFrame, NormStats]:
    """Z-score each channel. Without stats, fit them on this frame (the train
    segment) using the population std, floored at 1e-8 for constant channels."""
    if stats is None:
        values64 = frame.values.astype(np.float64)
        mean = values64.mean(axis=0)
        std = values64.std(axis=0)  # population std
        std = np.maximum(std, 1e-8)
        stats = NormStats(mean=mean, std=std)
    normalized = ((frame.values - stats.mean) / stats.std).astype(frame.values.dtype)
    return SeriesFrame(normalized, frame.timestamps, frame.channel_names), stats


def chronological_split(frame: SeriesFrame,
                        spec: SplitSpec) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Split in time order. Val and test reach back by the lookback so their
    first forecast target starts exactly at the segment boundary; target
    ranges therefore never overlap across segments."""
    total = len(frame)
    t, f = spec.lookback, spec.horizon
    b1 = int(math.floor(spec.ratios[0] * total))
    b2 = int(math.floor((spec.ratios[0] + spec.ratios[1]) * total))
    bounds = {
        "train": (0, b1),
        "val": (max(b1 - t, 0), b2),
        "test": (max(b2 - t, 0), total),
    }
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
    return tuple(frame.slice(*bounds[name]) for name in ("train", "val", "test"))


def make_windows(frame: SeriesFrame, lookback: int, horizon: int) -> WindowBatch:
    """All stride-1 supervised windows of the frame, as zero-copy views.

    Window i pairs input rows [i, i+T) with target rows [i+T, i+T+F).
    """
    total = len(frame)
    if total < lookback + horizon:
        raise DataError(f"frame of length {total} is shorter than "
                        f"lookback + horizon = {lookback + horizon}")
    n = total - lookback - horizon + 1
    values = frame.values
    # sliding_window_view appends the window axis: (total-T+1, C, T)
    in_view = np.lib.stride_tricks.sliding_window_view(values, lookback, axis=0)
    out_view = np.lib.stride_tricks.sliding_window_view(values, horizon, axis=0)
    inputs = in_view[:n].transpose(0, 2, 1)
    targets = out_view[lookback:lookback + n].transpose(0, 2, 1)
    return WindowBatch(inputs=inputs, targets=targets)


def synth_multiscale(n: int, channels: Sequence[SynthChannel], seed: int) -> SeriesFrame:
    """Deterministic synthetic series: per channel a sinusoid of the given
    period and amplitude, a linear ramp, and Gaussian noise."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    channels = [c if isinstance(c, SynthChannel) else SynthChannel(*c) for c in channels]
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    columns = []
    for spec in channels:
        wave = spec.amplitude * np.sin(2.0 * np.pi * t / spec.period)
        ramp = spec.slope * t
        noise = rng.normal(0.0, spec.noise, size=n) if spec.noise > 0 else 0.0
        columns.append(wave + ramp + noise)
    values = np.stack(columns, axis=1).astype(np.float32)
    timestamps = [f"t{i:07d}" for i in range(n)]
    names = [f"ch{i}" for i in range(len(channels))]
    return SeriesFrame(values, timestamps, names)
