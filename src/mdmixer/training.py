"""Losses, AdamW, the training loop and the finite-difference gradient
checker.

``backward`` runs the forward pass of the config's family
(``baselines.forecaster``), computes the loss gradients once, and hands
them in the normalized scale, with the gradient arena, to that family's
reverse pass, where each stage's hand-derived gradient sits next to its
forward. ``train`` allocates one arena per run and passes it to every step.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .baselines import forecaster
from .config import BaselineConfig, ModelConfig, TrainSettings, config_echo
from .data import WindowBatch
from .evaluation import csv_line, evaluate, write_lines
from .model import ParamSet
from .preprocess import band_blocks, band_matmul, channel_major


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite; carries epoch/batch indices."""

    def __init__(self, message: str, epoch: int, batch: int):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch

    def __reduce__(self):  # so it crosses a process pool with its indices
        return type(self), (self.args[0], self.epoch, self.batch)


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
    """The largest relative error over every entry, the entry it was found
    at, and that entry's analytic gradient and finite-difference noise,
    ``|q(h) - q(h/10)|`` of its central quotients q."""
    max_rel_err: float
    worst_param: str
    tolerance: float
    worst_analytic: float = 0.0
    worst_noise: float = 0.0

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


def _pool_matrix(source_len: int, target_len: int) -> np.ndarray:
    """(G x F) adaptive average pooling, in float64: bin k averages source
    indices [floor(k*F/G), ceil((k+1)*F/G))."""
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
    swapped = np.ascontiguousarray(y_true.transpose(0, 2, 1))  # (B, C, F) rows
    targets = []
    for g in schedule:
        if g > horizon:
            raise ValueError(f"granularity {g} exceeds horizon {horizon}")
        blocks = band_blocks(_pool_matrix, (horizon, g), y_true.dtype,
                             transpose=True)
        targets.append(band_matmul(swapped, blocks).transpose(0, 2, 1))
    return targets


def _loss(final: np.ndarray, per_granularity: list[np.ndarray],
          y_true: np.ndarray, cfg: ModelConfig | BaselineConfig):
    """Loss breakdown and its gradients at ``final`` and each per-granularity
    forecast: main L1 plus ``align_weight`` (0 drops the alignment loss)
    times the mean per-head L1 against pooled targets; baselines have no
    heads. The L1 subgradient at an exactly-zero residual is 0. One
    channel-major copy of ``y_true`` matches the forecasts' memory order, so
    the pooling reads it without a copy and every gradient is channel-major."""
    if final.shape != y_true.shape:
        raise ValueError(f"loss shapes differ: {final.shape} vs {y_true.shape}")
    y_true = channel_major(y_true)
    targets = alignment_targets(y_true, [y.shape[1] for y in per_granularity])
    res = final - y_true
    align_res = [pred - tgt for pred, tgt in zip(per_granularity, targets)]
    main = float(np.abs(res).mean(dtype=np.float64))
    align = [float(np.abs(r).mean(dtype=np.float64)) for r in align_res]
    weight = cfg.align_weight if align else 0.0
    total = main + weight * (sum(align) / len(align)) if align else main
    d_final = np.sign(res) / res.size
    d_granularity = [np.sign(r) * (weight / (len(align) * r.size))
                     for r in align_res]
    return LossBreakdown(main=main, align_per_head=align, total=total), \
        d_final, d_granularity


def total_loss(output, y_true: np.ndarray, cfg) -> LossBreakdown:
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
             cfg: ModelConfig | BaselineConfig,
             grads: ParamSet | None = None) -> tuple[ParamSet, LossBreakdown]:
    """Exact gradients of the total loss w.r.t. every parameter tensor:
    the forward pass, the loss with its gradients, the reverse of the
    instance-scale restore, then the family's reverse pass, which writes
    each tensor's gradient once into the arena ``grads`` (a new one when
    it is None) and returns it."""
    y_true = np.asarray(y_true, dtype=params.dtype)
    _, _, forward_with_context, reverse = forecaster(cfg)
    output, saved = forward_with_context(x, params, cfg)
    breakdown, d_final, d_granularity = _loss(
        output.final, output.per_granularity, y_true, cfg)
    _check_finite(breakdown)
    grads = params.empty_like() if grads is None else grads
    reverse(*output.restore_backward(d_final, d_granularity, params.dtype),
            saved, params, grads, cfg)
    return grads, breakdown


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


# elements per block of the in-place update: a block and its scratch row
# stay in cache, where whole-tensor temporaries at F=720 do not
ADAMW_BLOCK = 65536


def adamw_step(params: ParamSet, grads: ParamSet,
               state: OptimizerState) -> tuple[ParamSet, OptimizerState]:
    """One bias-corrected AdamW update; params and state update in place.

    The update runs over the sets' flat buffers in blocks of
    ``ADAMW_BLOCK`` elements through one scratch row, with the bias
    corrections bc1, bc2 folded into two scalars:

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        p *= 1 - lr * weight_decay
        p -= (m / (sqrt(v) + eps * sqrt(bc2))) * (lr * sqrt(bc2) / bc1)

    That is ``p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * p)``
    up to the rounding of p; m and v are bit for bit the same.
    """
    if list(grads.layout().items()) != list(params.layout().items()):
        raise ValueError("adamw_step: grads and params differ in names, "
                         "order or shapes")
    state.step += 1
    root_bc2 = math.sqrt(1.0 - state.beta2 ** state.step)
    # a Python float operand is cast to the array's dtype on every call;
    # casting once gives the same values
    b1, a1, b2, a2, eps, rate, keep = (params.dtype.type(c) for c in (
        state.beta1, 1.0 - state.beta1, state.beta2, 1.0 - state.beta2,
        state.eps * root_bc2, state.lr * root_bc2 / (1.0 - state.beta1 ** state.step),
        1.0 - state.lr * state.weight_decay))
    row = np.empty(ADAMW_BLOCK, dtype=params.dtype)
    for k0 in range(0, params.flat.size, ADAMW_BLOCK):
        p, g, m, v = (arr[k0:k0 + ADAMW_BLOCK] for arr in (
            params.flat, grads.flat, state.m.flat, state.v.flat))
        t = row[:p.size]
        m *= b1
        np.multiply(g, a1, out=t)
        m += t
        v *= b2
        np.square(g, out=t)
        t *= a2
        v += t
        np.sqrt(v, out=t)
        t += eps
        np.divide(m, t, out=t)
        t *= rate
        if state.weight_decay:
            p *= keep
        p -= t
    return params, state


# ---------------------------------------------------------------------------
# training loop


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
    _, init, _, _ = forecaster(cfg)
    params = init(cfg, settings.seed)
    state = init_optimizer(params, settings)
    rng = np.random.default_rng(settings.seed)
    grads = params.empty_like()  # every step writes all of it

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
                _, breakdown = backward(xb, yb, params, cfg, grads)
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
        val = evaluate(params, cfg, val_windows)
        rows.append(EpochRow(epoch=epoch, train_loss=loss_sum / seen,
                             val_mse=val.mse, val_mae=val.mae))
        if val.mse < best_mse:
            best_mse, best_mae, best_epoch = val.mse, val.mae, epoch
            np.copyto(best_params.flat, params.flat)
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
                       summary_path: str | Path):
    """Per-epoch CSV plus a small human-readable summary block."""
    write_lines(csv_path, ["epoch,train_loss,val_mse,val_mae"]
                + [csv_line(astuple(r)) for r in report.epochs])
    write_lines(summary_path, [
        f"seed: {report.seed}",
        f"epochs run: {len(report.epochs)}",
        f"best epoch: {report.best_epoch}",
        f"best val mse: {report.best_val_mse!r}",
        f"best val mae: {report.best_val_mae!r}",
        f"wall clock seconds: {report.wall_clock_seconds:.3f}",
        "config:",
    ] + [f"  {k} = {v}" for k, v in sorted(report.config.items())])


# ---------------------------------------------------------------------------
# finite-difference gradient verification


def gradcheck(cfg: ModelConfig | BaselineConfig, seed: int, h: float = 1e-5,
              tol: float = 1e-4, batch: int = 3) -> GradCheckReport:
    """Compare the reverse pass against central finite differences over
    every parameter entry, on one fixed random batch, in float64. A
    non-finite error counts as infinite: the first entry to have one is
    the worst, and the check fails."""
    _, init, forward_with_context, _ = forecaster(cfg)
    params = init(cfg, seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(0.0, 1.0, size=(batch, cfg.lookback, cfg.channels))
    y_true = rng.normal(0.0, 1.0, size=(batch, cfg.horizon, cfg.channels))

    def loss_value() -> float:
        return total_loss(forward_with_context(x, params, cfg)[0], y_true, cfg).total

    def quotient(idx: int, step: float) -> float:
        saved = params.flat[idx]
        params.flat[idx] = saved + step
        plus = loss_value()
        params.flat[idx] = saved - step
        minus = loss_value()
        params.flat[idx] = saved
        return (plus - minus) / (2.0 * step)

    grads, _ = backward(x, y_true, params, cfg)
    entries = [f"{name}[{i}]" for name, arr in params.items() for i in range(arr.size)]
    report = GradCheckReport(max_rel_err=0.0, worst_param="", tolerance=tol)
    worst = None
    for idx, (entry, analytic) in enumerate(zip(entries, grads.flat)):
        numeric = quotient(idx, h)
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        if not math.isfinite(rel):  # a NaN compares false: it would pass
            rel = math.inf
        if rel > report.max_rel_err:
            report.max_rel_err, report.worst_param = rel, entry
            report.worst_analytic, worst = float(analytic), (idx, numeric)
    if worst is not None:  # one more loss pair: the roundoff in the worst quotient
        report.worst_noise = abs(worst[1] - quotient(worst[0], h / 10))
    return report
