"""Metrics, the benchmark evaluation protocol, seed aggregation, the
writer every run file goes through, and the interpretability exports
(gate-weight heatmap, per-granularity forecasts).

``evaluate`` forecasts every batch of a split from one
``model.inference_plan`` of the parameters when its batches fold."""

from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .baselines import forecaster
from .config import BaselineConfig, ModelConfig
from .data import WindowBatch
from .model import ForecastOutput, InferencePlan, ParamSet, fold_pays, forward, \
    inference_plan, plan_forecast, upsample, write_atomically

# Inference batches hold at most EVAL_BATCH windows, at most EVAL_CELLS
# windows x channels, and at most EVAL_CELLS x 96 forecast values (windows x
# channels x horizon): the forward's working set grows with windows x
# channels, about 18 KB each at T=F=96 and 90 KB at F=720, so this bounds
# it near its F=96 size at any width and any horizon.
EVAL_BATCH = 256
EVAL_CELLS = 2048


@dataclass
class MetricRow:
    dataset: str
    horizon: int
    seed: int
    mse: float
    mae: float


@dataclass
class SeedSummary:
    dataset: str
    horizon: int
    runs: int
    mse_mean: float
    mse_std: float
    mae_mean: float
    mae_std: float


def mse(y: np.ndarray, y_true: np.ndarray) -> float:
    if y.shape != y_true.shape:
        raise ValueError(f"metric shapes differ: {y.shape} vs {y_true.shape}")
    diff = np.asarray(y, dtype=np.float64) - np.asarray(y_true, dtype=np.float64)
    return float(np.square(diff).mean())


def mae(y: np.ndarray, y_true: np.ndarray) -> float:
    if y.shape != y_true.shape:
        raise ValueError(f"metric shapes differ: {y.shape} vs {y_true.shape}")
    diff = np.asarray(y, dtype=np.float64) - np.asarray(y_true, dtype=np.float64)
    return float(np.abs(diff).mean())


def predict(x: np.ndarray, params: ParamSet, cfg: ModelConfig | BaselineConfig,
            plan: InferencePlan | None = None) -> np.ndarray:
    """Forecast (B x F x C) from either the main model or a baseline; with
    ``plan``, an ``inference_plan`` of ``params`` and ``cfg``, from it."""
    if plan is not None:
        return plan_forecast(x, params, cfg, plan)
    _, _, forward_with_context, _ = forecaster(cfg)
    return forward_with_context(x, params, cfg)[0].final


def eval_batch_size(channels: int, horizon: int) -> int:
    """Windows per inference batch at this channel count and horizon: at
    most EVAL_BATCH, at most EVAL_CELLS // channels, at most the
    EVAL_CELLS x 96 forecast values that bound at F=96, and at least one."""
    return max(1, min(EVAL_BATCH, EVAL_CELLS // channels,
                      EVAL_CELLS * 96 // (channels * horizon)))


def evaluate(params: ParamSet, cfg, windows: WindowBatch, dataset: str = "",
             seed: int = 0, batch_size: int | None = None) -> MetricRow:
    """Run the forward pass over all windows of a split and report metrics
    in the dataset-standardized space (the space the windows live in),
    accumulated elementwise over every window, in order. ``batch_size``
    defaults to ``eval_batch_size`` of the windows' channel count and the
    config's horizon. When the first batch folds (``model.fold_pays``),
    every batch forecasts from one ``model.inference_plan``, built for the
    call."""
    if batch_size is None:
        batch_size = eval_batch_size(windows.inputs.shape[2], cfg.horizon)
    batches = list(windows.batches(batch_size))
    if not batches:
        raise ValueError("cannot evaluate an empty split")
    plan = None
    if isinstance(cfg, ModelConfig) and fold_pays(cfg, len(batches[0][0]) * cfg.channels):
        plan = inference_plan(params, cfg)
    sq_sum = 0.0
    abs_sum = 0.0
    count = 0
    for xb, yb in batches:
        pred = predict(xb, params, cfg, plan=plan)
        # C order whatever pred's memory order, so the sums run in one
        # order; one residual buffer, squared after its absolute value,
        # since |d|**2 == d**2 exactly
        diff = np.subtract(pred, yb, dtype=np.float64, order="C")
        count += diff.size
        abs_sum += float(np.abs(diff, out=diff).sum())
        sq_sum += float(np.square(diff, out=diff).sum())
    return MetricRow(dataset=dataset, horizon=cfg.horizon, seed=seed,
                     mse=sq_sum / count, mae=abs_sum / count)


def aggregate_seeds(rows: list[MetricRow]) -> list[SeedSummary]:
    """Mean and population std per (dataset, horizon) group, in first-seen
    group order."""
    if not rows:
        raise ValueError("no metric rows to aggregate")
    groups: dict[tuple[str, int], list[MetricRow]] = {}
    for row in rows:
        groups.setdefault((row.dataset, row.horizon), []).append(row)
    summaries = []
    for (dataset, horizon), members in groups.items():
        mses = np.array([m.mse for m in members], dtype=np.float64)
        maes = np.array([m.mae for m in members], dtype=np.float64)
        summaries.append(SeedSummary(
            dataset=dataset, horizon=horizon, runs=len(members),
            mse_mean=float(mses.mean()), mse_std=float(mses.std()),
            mae_mean=float(maes.mean()), mae_std=float(maes.std())))
    return summaries


# ---------------------------------------------------------------------------
# run files


def csv_line(cells) -> str:
    """Comma-joined cells: floats (numpy ones too) as the shortest text
    that parses back exactly, anything else as ``str``."""
    return ",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                    else str(v) for v in cells)


def write_lines(path: str | Path, lines) -> Path:
    """Write ``lines`` to ``path`` as UTF-8, each ending in a newline,
    creating the parent directory; ``path`` is replaced only once every
    line is written."""
    return write_atomically(path, ((line + "\n").encode("utf-8") for line in lines))


def write_metric_rows(path: str | Path, rows: list[MetricRow]):
    write_lines(path, ["dataset,horizon,seed,mse,mae"]
                + [csv_line(astuple(r)) for r in rows])


def write_seed_summaries(path: str | Path, summaries: list[SeedSummary]):
    write_lines(path, ["dataset,horizon,runs,mse,mse_std,mae,mae_std"]
                + [csv_line(astuple(s)) for s in summaries])


# ---------------------------------------------------------------------------
# interpretability exports


def export_amwg(params: ParamSet, cfg: ModelConfig, batch: np.ndarray) -> np.ndarray:
    """Gate weights averaged over a batch of windows: (H x C), rows running
    coarse to fine, every column a simplex. The windows run in slices of
    ``eval_batch_size``."""
    size = eval_batch_size(batch.shape[2], cfg.horizon)
    weights = [forward(batch[start:start + size], params, cfg).gate_weights
               for start in range(0, len(batch), size)]
    return np.concatenate(weights).mean(axis=0)


def write_amwg_csv(path: str | Path, heatmap: np.ndarray):
    channels = heatmap.shape[1]
    write_lines(path, [",".join(f"channel_{c}" for c in range(channels))]
                + [csv_line(row) for row in heatmap])


def export_granularity_forecasts(output: ForecastOutput,
                                 out_dir: str | Path) -> list[Path]:
    """One CSV per head (raw length-G_i series plus that series upsampled
    to the horizon) and one for the final forecast, for the first window
    of the batch."""
    out_dir = Path(out_dir)
    horizon, channels = output.final.shape[1:]
    header = "kind,step," + ",".join(f"channel_{c}" for c in range(channels))

    def rows(kind, series):
        return [csv_line((kind, step, *row)) for step, row in enumerate(series)]

    paths = [write_lines(out_dir / f"head_{i}.csv", [header] + rows("raw", raw[0])
                         + rows("upsampled", upsample(raw[0].T, horizon).T))
             for i, raw in enumerate(output.per_granularity, start=1)]
    paths.append(write_lines(out_dir / "final.csv",
                             [header] + rows("final", output.final[0])))
    return paths
