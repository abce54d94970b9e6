"""Linear baselines, their dual-branch augmentation, and ``forecaster``.

Three kinds, all instance-normalized and channel-shared:
  linear_direct: one lookback->horizon linear map
  decomp_linear: trend/seasonal split, one linear map per component
  dual_branch:   linear seasonal map + single-hidden-layer ReLU MLP trend

A baseline has the model's contract (front end, a ``ForecastOutput`` with
no heads, ``model_backward``'s signature) and its ``linear``/``mlp`` ops.
"""

from __future__ import annotations

import numpy as np

from .config import BaselineConfig, ModelConfig
from .model import ForecastOutput, ParamSet, forward_with_context, front_end, \
    init_layout, init_params, linear, linear_backward, mlp, mlp_backward, \
    model_backward, param_layout
from .preprocess import decompose, instance_denormalize


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
    """Same init as the main model (``model.init_layout``)."""
    return init_layout(baseline_param_layout(cfg), seed, dtype)


def baseline_forward(x: np.ndarray, params: ParamSet,
                     cfg: BaselineConfig) -> np.ndarray:
    """Forecast (B x F x C) for a batch of lookback windows (B x T x C)."""
    return baseline_forward_with_context(x, params, cfg)[0].final


def baseline_forward_with_context(x: np.ndarray, params: ParamSet,
                                  cfg: BaselineConfig):
    """The forecast as a ``ForecastOutput`` with no heads, plus what
    ``baseline_backward`` reads: per branch, its name, its (B*C x T) input
    and the trend MLP's hidden activation (None for a linear map)."""
    x_norm, stats = front_end(x, params, cfg, baseline_param_layout(cfg))
    b, t, c = x_norm.shape  # channel-major: each series reshapes to (B*C, T) rows
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

    output = ForecastOutput(
        final=instance_denormalize(out.reshape(b, c, -1).transpose(0, 2, 1), stats),
        gate_weights=np.empty((b, 0, c), dtype=params.dtype), heads=[], stats=stats)
    return output, branches


def baseline_backward(d_fused: np.ndarray, d_heads: list, branches: list,
                      params: ParamSet, grads: ParamSet, cfg: BaselineConfig):
    """Write every parameter tensor's gradient into ``grads`` from the loss
    gradient at the normalized forecast (B x C x F); ``d_heads`` is empty
    (no heads). Branch inputs are constants, so each branch's first layer
    computes parameter gradients only."""
    d_out = d_fused.reshape(-1, cfg.horizon)
    for name, flat, act in branches:
        if act is None:
            linear_backward(d_out, flat, params, grads, name, input_grad=False)
        else:
            mlp_backward(d_out, flat, act, params, grads, name, input_grad=False)


def forecaster(cfg: ModelConfig | BaselineConfig) -> tuple:
    """``(layout, init, forward_with_context, backward)`` of the family
    ``cfg`` names, the functions with the model's signatures
    (``init_params``'s for ``init``). They are read from this module's
    globals at each call, so a wrapper set over a module attribute (as a
    tracer does) sees every call."""
    if isinstance(cfg, BaselineConfig):
        return baseline_param_layout(cfg), init_baseline_params, \
            baseline_forward_with_context, baseline_backward
    return param_layout(cfg), init_params, forward_with_context, model_backward
