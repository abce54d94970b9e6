"""Linear forecaster baselines and their dual-branch augmentation.

Three kinds, all instance-normalized and channel-shared:
  linear_direct: one lookback->horizon linear map
  decomp_linear: trend/seasonal split, one linear map per component
  dual_branch:   linear seasonal map + single-hidden-layer ReLU MLP trend

Each branch is one of the model's ``linear``/``mlp`` stages, so forward
and reverse reuse the model's ops.
"""

from __future__ import annotations

import math

import numpy as np

from .config import BaselineConfig
from .model import ParamSet, check_params_match, linear, linear_backward, mlp, \
    mlp_backward
from .preprocess import decompose, instance_denormalize, instance_normalize


def baseline_param_layout(cfg: BaselineConfig) -> dict[str, tuple[int, ...]]:
    t, f, hid = cfg.lookback, cfg.horizon, cfg.hidden
    if cfg.kind == "linear_direct":
        return {"direct.weight": (t, f), "direct.bias": (f,)}
    if cfg.kind == "decomp_linear":
        return {"seasonal.weight": (t, f), "seasonal.bias": (f,),
                "trend.weight": (t, f), "trend.bias": (f,)}
    return {"seasonal.weight": (t, f), "seasonal.bias": (f,),
            "trend.fc1.weight": (t, hid), "trend.fc1.bias": (hid,),
            "trend.fc2.weight": (hid, f), "trend.fc2.bias": (f,)}


def init_baseline_params(cfg: BaselineConfig, seed: int,
                         dtype=np.float32) -> ParamSet:
    """Same init convention as the main model: uniform +-1/sqrt(fan_in)
    weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in baseline_param_layout(cfg).items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return ParamSet(tensors)


def baseline_forward(x: np.ndarray, params: ParamSet,
                     cfg: BaselineConfig) -> np.ndarray:
    """Forecast (B x F x C) for a batch of lookback windows (B x T x C)."""
    return baseline_forward_with_context(x, params, cfg)[0]


def baseline_forward_with_context(x: np.ndarray, params: ParamSet,
                                  cfg: BaselineConfig):
    """``baseline_forward`` plus the intermediates ``baseline_backward``
    reads: the instance stats and, per branch, its name, its (B*C x T)
    input and the trend MLP's hidden activation (None for a linear map)."""
    if x.ndim != 3 or x.shape[1] != cfg.lookback or x.shape[2] != cfg.channels:
        raise ValueError(f"baseline input shape {x.shape} does not match "
                         f"(lookback={cfg.lookback}, channels={cfg.channels})")
    check_params_match(params, cfg, layout=baseline_param_layout(cfg))
    x = np.ascontiguousarray(x, dtype=params.dtype)
    b, t, c = x.shape

    x_norm, stats = instance_normalize(x)
    if cfg.kind == "linear_direct":
        inputs = {"direct": x_norm}
    else:
        parts = decompose(x_norm, cfg.kernel)
        inputs = {"seasonal": parts.seasonal, "trend": parts.trend}
    out = None
    branches = []
    for name, series in inputs.items():
        flat = series.transpose(0, 2, 1).reshape(b * c, t)
        if name == "trend" and cfg.kind == "dual_branch":
            out, act = mlp(flat, params, name, residual=out)
        else:
            out, act = linear(flat, params[f"{name}.weight"],
                              params[f"{name}.bias"], residual=out), None
        branches.append((name, flat, act))

    forecast_norm = out.reshape(b, c, cfg.horizon).transpose(0, 2, 1)
    forecast = instance_denormalize(forecast_norm, stats)
    return forecast, (stats, branches)


def baseline_backward(d_forecast: np.ndarray, saved: tuple, params: ParamSet,
                      cfg: BaselineConfig) -> ParamSet:
    """Gradients of every parameter tensor from the loss gradient at the
    forecast (B x F x C). Branch inputs are constants, so each branch's
    first layer computes parameter gradients only."""
    stats, branches = saved
    grads = params.zeros_like()
    d_norm = (d_forecast * stats.std[:, None, :]).transpose(0, 2, 1)
    d_out = d_norm.reshape(-1, cfg.horizon).astype(params.dtype, copy=False)
    for name, flat, act in branches:
        if act is None:
            linear_backward(d_out, flat, params, grads, name, input_grad=False)
        else:
            mlp_backward(d_out, flat, act, params, grads, name, input_grad=False)
    return grads
