"""Losses, AdamW, the training loop and the finite-difference gradient
checker.

``backward`` runs a forward pass, computes the loss and its gradients
once, and hands them to the reverse pass of the model or baseline
(``model.model_backward``, ``baselines.baseline_backward``), where each
stage's hand-derived gradient sits next to its forward.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .baselines import baseline_backward, baseline_forward, \
    baseline_forward_with_context, init_baseline_params
from .config import BaselineConfig, ModelConfig, TrainSettings, config_echo
from .data import WindowBatch
from .evaluation import streaming_metrics
from .model import ParamSet, forward, forward_with_context, init_params, \
    model_backward


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite; carries epoch/batch indices."""

    def __init__(self, message: str, epoch: int, batch: int):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


@dataclass
class LossBreakdown:
    """Main forecast loss, per-head alignment terms, and their combination."""

    main: float
    align_per_head: list[float]
    total: float


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_mse: float
    val_mae: float


@dataclass
class TrainReport:
    epochs: list[EpochRow]
    best_epoch: int
    best_val_mse: float
    best_val_mae: float
    seed: int
    config: dict
    wall_clock_seconds: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


# ---------------------------------------------------------------------------
# losses


def main_loss(y: np.ndarray, y_true: np.ndarray) -> float:
    """Mean absolute error over all elements."""
    if y.shape != y_true.shape:
        raise ValueError(f"loss shapes differ: {y.shape} vs {y_true.shape}")
    return float(np.abs(y - y_true).mean(dtype=np.float64))


@lru_cache(maxsize=128)
def _pool_matrix(source_len: int, target_len: int) -> np.ndarray:
    """(G x F) adaptive average pooling: bin k averages source indices
    [floor(k*F/G), ceil((k+1)*F/G))."""
    mat = np.zeros((target_len, source_len), dtype=np.float64)
    for k in range(target_len):
        start = (k * source_len) // target_len
        end = -((-(k + 1) * source_len) // target_len)  # ceil division
        mat[k, start:end] = 1.0 / (end - start)
    return mat


def alignment_targets(y_true: np.ndarray, schedule: list[int]) -> list[np.ndarray]:
    """Average-pool the target sequence (B x F x C) down to each head's
    length, giving one supervision series per granularity."""
    horizon = y_true.shape[1]
    swapped = y_true.transpose(0, 2, 1)  # (B, C, F)
    targets = []
    for g in schedule:
        if g > horizon:
            raise ValueError(f"granularity {g} exceeds horizon {horizon}")
        mat = _pool_matrix(horizon, g).astype(y_true.dtype)
        targets.append((swapped @ mat.T).transpose(0, 2, 1))
    return targets


def _loss(final: np.ndarray, per_granularity: list[np.ndarray],
          y_true: np.ndarray, cfg: ModelConfig | BaselineConfig):
    """Loss breakdown and its gradients at ``final`` and each per-granularity
    forecast: main L1 plus the alignment weight (0 with ``use_align_loss``
    off) times the mean per-head L1 against pooled targets; baselines have
    no heads. The L1 subgradient at an exactly-zero residual is 0."""
    if final.shape != y_true.shape:
        raise ValueError(f"loss shapes differ: {final.shape} vs {y_true.shape}")
    targets = alignment_targets(y_true, [y.shape[1] for y in per_granularity])
    res = final - y_true
    align_res = [pred - tgt for pred, tgt in zip(per_granularity, targets)]
    main = float(np.abs(res).mean(dtype=np.float64))
    align = [float(np.abs(r).mean(dtype=np.float64)) for r in align_res]
    weight = cfg.align_weight if align and cfg.use_align_loss else 0.0
    total = main + weight * (sum(align) / len(align)) if align else main
    d_final = np.sign(res) / res.size
    d_granularity = [np.sign(r) * (weight / (len(align) * r.size))
                     for r in align_res]
    return LossBreakdown(main=main, align_per_head=align, total=total), \
        d_final, d_granularity


def total_loss(output, y_true: np.ndarray, cfg: ModelConfig) -> LossBreakdown:
    """Main L1 loss plus the align terms of every head (per-head forecasts
    against pooled targets, both in the input window's scale)."""
    return _loss(output.final, output.per_granularity, y_true, cfg)[0]


# ---------------------------------------------------------------------------
# reverse pass


def _check_finite(breakdown: LossBreakdown):
    if not math.isfinite(breakdown.main):
        raise FloatingPointError("non-finite main loss")
    for i, term in enumerate(breakdown.align_per_head, start=1):
        if not math.isfinite(term):
            raise FloatingPointError(f"non-finite alignment loss, head {i}")


def backward(x: np.ndarray, y_true: np.ndarray, params: ParamSet,
             cfg: ModelConfig | BaselineConfig) -> tuple[ParamSet, LossBreakdown]:
    """Exact gradients of the total loss w.r.t. every parameter tensor:
    the forward pass, the loss with its gradients, then the stages'
    reverse passes."""
    y_true = np.ascontiguousarray(y_true, dtype=params.dtype)
    if isinstance(cfg, BaselineConfig):
        forecast, saved = baseline_forward_with_context(x, params, cfg)
        breakdown, d_final, _ = _loss(forecast, [], y_true, cfg)
        _check_finite(breakdown)
        return baseline_backward(d_final, saved, params, cfg), breakdown
    output, saved = forward_with_context(x, params, cfg)
    breakdown, d_final, d_granularity = _loss(
        output.final, output.per_granularity, y_true, cfg)
    _check_finite(breakdown)
    return model_backward(d_final, d_granularity, saved, params, cfg), breakdown


# ---------------------------------------------------------------------------
# AdamW


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam moments plus hyperparameters."""

    m: ParamSet
    v: ParamSet
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


def init_optimizer(params: ParamSet, settings: TrainSettings) -> OptimizerState:
    return OptimizerState(m=params.zeros_like(), v=params.zeros_like(), step=0,
                          lr=settings.lr, beta1=settings.beta1,
                          beta2=settings.beta2, eps=settings.eps,
                          weight_decay=settings.weight_decay)


def adamw_step(params: ParamSet, grads: ParamSet,
               state: OptimizerState) -> tuple[ParamSet, OptimizerState]:
    """One bias-corrected AdamW update; params and state update in place."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, grad in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(grad)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.weight_decay * params[name]
        params[name] -= state.lr * update
    return params, state


# ---------------------------------------------------------------------------
# training loop


def _init_for(cfg, seed: int, dtype=np.float32) -> ParamSet:
    if isinstance(cfg, BaselineConfig):
        return init_baseline_params(cfg, seed, dtype=dtype)
    return init_params(cfg, seed, dtype=dtype)


def train(cfg: ModelConfig | BaselineConfig, train_windows: WindowBatch,
          val_windows: WindowBatch,
          settings: TrainSettings) -> tuple[ParamSet, TrainReport]:
    """Seeded mini-batch training with per-epoch validation and early
    stopping on validation MSE; returns the best-validation parameters.

    Deterministic per seed: batch order comes from the seeded RNG and all
    reductions use numpy's fixed pairwise summation order.
    """
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise ValueError("train and val splits must be non-empty")
    started = time.perf_counter()
    params = _init_for(cfg, settings.seed)
    state = init_optimizer(params, settings)
    rng = np.random.default_rng(settings.seed)

    rows: list[EpochRow] = []
    best_params = params.copy()
    best_epoch = 0
    best_mse = math.inf
    best_mae = math.inf
    stale = 0
    for epoch in range(1, settings.max_epochs + 1):
        order = rng.permutation(len(train_windows))
        loss_sum = 0.0
        seen = 0
        for batch_index, (xb, yb) in enumerate(
                train_windows.batches(settings.batch_size, order)):
            try:
                grads, breakdown = backward(xb, yb, params, cfg)
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"{exc} at epoch {epoch}, batch {batch_index}",
                    epoch=epoch, batch=batch_index) from exc
            if not math.isfinite(breakdown.total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}",
                    epoch=epoch, batch=batch_index)
            adamw_step(params, grads, state)
            loss_sum += breakdown.total * len(xb)
            seen += len(xb)
        val_mse, val_mae = streaming_metrics(params, cfg, val_windows)
        rows.append(EpochRow(epoch=epoch, train_loss=loss_sum / seen,
                             val_mse=val_mse, val_mae=val_mae))
        if val_mse < best_mse:
            best_mse, best_mae, best_epoch = val_mse, val_mae, epoch
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale > settings.patience:
                break

    report = TrainReport(epochs=rows, best_epoch=best_epoch,
                         best_val_mse=best_mse, best_val_mae=best_mae,
                         seed=settings.seed,
                         config=config_echo(cfg, settings),
                         wall_clock_seconds=time.perf_counter() - started)
    return best_params, report


def write_train_report(report: TrainReport, csv_path: str | Path,
                       summary_path: str | Path | None = None):
    """Per-epoch CSV plus a small human-readable summary block."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["epoch,train_loss,val_mse,val_mae"]
    lines += [f"{r.epoch},{r.train_loss!r},{r.val_mse!r},{r.val_mae!r}"
              for r in report.epochs]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if summary_path is not None:
        summary = [
            f"seed: {report.seed}",
            f"epochs run: {len(report.epochs)}",
            f"best epoch: {report.best_epoch}",
            f"best val mse: {report.best_val_mse!r}",
            f"best val mae: {report.best_val_mae!r}",
            f"wall clock seconds: {report.wall_clock_seconds:.3f}",
            "config:",
        ]
        summary += [f"  {k} = {v}" for k, v in sorted(report.config.items())]
        Path(summary_path).write_text("\n".join(summary) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# finite-difference gradient verification


def _loss_value(x, y_true, params, cfg) -> float:
    if isinstance(cfg, BaselineConfig):
        return main_loss(baseline_forward(x, params, cfg), y_true)
    return total_loss(forward(x, params, cfg), y_true, cfg).total


def gradcheck(cfg: ModelConfig | BaselineConfig, seed: int, h: float = 1e-5,
              tol: float = 1e-4, batch: int = 3) -> GradCheckReport:
    """Compare the reverse pass against central finite differences over
    every parameter entry, on one fixed random batch, in float64."""
    params = _init_for(cfg, seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(0.0, 1.0, size=(batch, cfg.lookback, cfg.channels))
    y_true = rng.normal(0.0, 1.0, size=(batch, cfg.horizon, cfg.channels))

    grads, _ = backward(x, y_true, params, cfg)
    max_rel = 0.0
    worst = ""
    for name in params.names():
        flat = params[name].reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + h
            plus = _loss_value(x, y_true, params, cfg)
            flat[idx] = saved - h
            minus = _loss_value(x, y_true, params, cfg)
            flat[idx] = saved
            numeric = (plus - minus) / (2.0 * h)
            analytic = grad_flat[idx]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{idx}]"
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst, tolerance=tol)
