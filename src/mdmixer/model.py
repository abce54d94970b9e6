"""Forecaster parameters, its stages with their reverse passes, and the
checkpoint format.

The network runs per lookback window: instance normalization, a
trend/seasonal split, patch embedding per branch, parallel prediction
heads at increasing output lengths, coarse-to-fine iterative mixing, a
channel-adaptive gating network, linear-interpolation upsampling and a
residual weighted fusion, with the instance scale restored at the end.

The fusion runs at the heads' own lengths. The forecast is the mean of
the upsampled heads plus their gate-weighted sum, which by linearity is
sum_i U_i((1/H + w_i) * y_i): each head is scaled at its length G_i, then
upsampled and added into one horizon-length output, and its reverse reads
the same products. The per-head series are restored to the input scale
only when ``per_granularity`` is read.

Above ``fold_pays``'s row count, each head's first product reads the
branch's series through its ``embed_operator``, no embedding formed.
Inside an ``operator_scope`` (one per ``evaluate`` call) those products
are folded once, and each seasonal head with its mixer chain is one
operator of the series (``fold_operators``).

Everything is plain numpy; upsampling and its reverse run as banded
operators (``preprocess.band_matmul``). Each stage's hand-derived reverse
sits next to its forward, built from the ``linear``/``mlp`` ops the
baselines share; ``training`` supplies the loss gradients.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ModelConfig
from .preprocess import InstanceStats, band_blocks, band_matmul, channel_major, \
    decompose, instance_denormalize, instance_normalize, patch

CHECKPOINT_MAGIC = "mdmixer-checkpoint v1"


class CheckpointError(ValueError):
    """Raised for unreadable checkpoints or tensor mismatches against a config."""


class ParamSet:
    """Ordered, named tensors, each a C-contiguous view of one 1-D buffer,
    ``flat``, in layout order, which fixes the blob order in checkpoints.
    The constructor copies the tensors into a new buffer; each whole-set
    operation is one call on ``flat``."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        arena = ParamSet._over(np.concatenate([np.ravel(a) for a in tensors.values()]),
                               {name: np.shape(a) for name, a in tensors.items()})
        self.flat, self._views, self._layout = arena.flat, arena._views, arena._layout

    @staticmethod
    def _over(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> "ParamSet":
        """A set whose tensors are views of ``flat`` itself, no copy."""
        params, offset = ParamSet.__new__(ParamSet), 0
        params.flat, params._views = flat, {}
        for name, shape in shapes.items():
            params._views[name] = flat[offset:offset + math.prod(shape)].reshape(shape)
            offset += math.prod(shape)
        params._layout = MappingProxyType({n: v.shape for n, v in params._views.items()})
        return params

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value: np.ndarray):
        view = self._views[name]
        if value is not view:  # ``params[name] += ...`` wrote in place
            if np.shape(value) != view.shape:
                raise ValueError(f"tensor {name!r} has shape {view.shape}, "
                                 f"not {np.shape(value)}")
            view[...] = value

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        return list(self._views)

    def items(self):
        return self._views.items()

    def layout(self) -> MappingProxyType[str, tuple[int, ...]]:
        return self._layout  # read-only, fixed at construction

    def copy(self) -> "ParamSet":
        return ParamSet._over(self.flat.copy(), self.layout())

    def astype(self, dtype) -> "ParamSet":
        return ParamSet._over(self.flat.astype(dtype), self.layout())

    def zeros_like(self) -> "ParamSet":
        return ParamSet._over(np.zeros_like(self.flat), self.layout())

    def empty_like(self) -> "ParamSet":
        return ParamSet._over(np.empty_like(self.flat), self.layout())

    @property
    def dtype(self):
        return self.flat.dtype


@dataclass
class ForecastOutput:
    """Forecast plus the intermediates that explain it.

    ``final`` (B x F x C) is in the scale of the input window (instance
    stats restored); ``gate_weights`` are the per-channel head weights used
    by the fusion (B x H x C, simplex over the head axis; H = 0 for a
    baseline). ``heads`` holds each head's forecast in the normalized space
    (B x C x G_i) and ``stats`` the instance stats that restore it.
    """

    final: np.ndarray
    gate_weights: np.ndarray
    heads: list[np.ndarray]
    stats: InstanceStats

    @cached_property
    def per_granularity(self) -> list[np.ndarray]:
        """Each head's forecast in the input window's scale (B x G_i x C),
        restored on first read: inference reads only ``final``."""
        return [instance_denormalize(y.transpose(0, 2, 1), self.stats)
                for y in self.heads]

    def restore_backward(self, d_final: np.ndarray, d_granularity: list[np.ndarray],
                         dtype) -> tuple[np.ndarray, list[np.ndarray]]:
        """Reverse of restoring ``final`` and ``per_granularity``: their loss
        gradients (B x L x C) at the normalized forecasts, as C-contiguous
        (B x C x L) rows in ``dtype``; the stats are constants of the input."""
        std = self.stats.std[:, None, :]
        # no copy: the loss gradients are channel-major like ``final``
        rows = [np.ascontiguousarray((d * std).transpose(0, 2, 1), dtype)
                for d in (d_final, *d_granularity)]
        return rows[0], rows[1:]


def granularity_schedule(horizon: int, heads: int) -> list[int]:
    """Output lengths of the parallel heads: multiples of F/H up to F."""
    if heads < 1:
        raise ConfigError(f"heads must be >= 1, got {heads}")
    if horizon % heads != 0:
        raise ConfigError(f"heads ({heads}) must divide horizon ({horizon})")
    base = horizon // heads
    return [base * i for i in range(1, heads + 1)]


@lru_cache(maxsize=64)
def param_layout(cfg: ModelConfig) -> MappingProxyType[str, tuple[int, ...]]:
    """Canonical name -> shape map of the tensors ``cfg`` uses (cached,
    read-only): the mixers only with MIM on, the gate only if amwg_enabled."""
    n, d, p = cfg.num_patches, cfg.embed_dim, cfg.patch_len
    c, hid, heads = cfg.channels, cfg.hidden, cfg.heads
    nd = n * d
    schedule = granularity_schedule(cfg.horizon, heads)
    pos_shape = (n, d) if cfg.pos_encoding == "shared" else (c, n, d)
    layout: dict[str, tuple[int, ...]] = {
        "embed_s.weight": (p, d), "embed_s.bias": (d,),
        "embed_t.weight": (p, d), "embed_t.bias": (d,),
        "pos_s": pos_shape, "pos_t": pos_shape,
    }
    for i, g in enumerate(schedule, start=1):
        layout[f"season_head_{i}.weight"] = (nd, g)
        layout[f"season_head_{i}.bias"] = (g,)
    for i, g in enumerate(schedule, start=1):
        layout[f"trend_head_{i}.fc1.weight"] = (nd, hid)
        layout[f"trend_head_{i}.fc1.bias"] = (hid,)
        layout[f"trend_head_{i}.fc2.weight"] = (hid, g)
        layout[f"trend_head_{i}.fc2.bias"] = (g,)
    for branch in ("s", "t") if cfg.use_mim else ():
        for i in range(2, heads + 1):
            layout[f"mixer_{branch}_{i}.weight"] = (schedule[i - 2], schedule[i - 1])
            layout[f"mixer_{branch}_{i}.bias"] = (schedule[i - 1],)
    if cfg.amwg_enabled:
        layout["gate.fc1.weight"] = (2 * c, hid)
        layout["gate.fc1.bias"] = (hid,)
        layout["gate.fc2.weight"] = (hid, heads * c)
        layout["gate.fc2.bias"] = (heads * c,)
    return MappingProxyType(layout)


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParamSet:
    """Seeded init of the tensors ``cfg`` uses (see ``init_layout``). The
    full model's tensors are drawn and the unused ones dropped, so a tensor
    starts from the same values under every ablation."""
    layout = param_layout(cfg)
    params = init_layout(param_layout(replace(cfg, use_mim=True, use_amwg=True)), seed, dtype)
    return params if params.layout() == layout else ParamSet({n: params[n] for n in layout})


def init_layout(layout: dict[str, tuple[int, ...]], seed: int,
                dtype=np.float32) -> ParamSet:
    """Seeded init in layout order: weights uniform in +-1/sqrt(fan_in),
    biases zero, positional encodings (``pos_*``) N(0, 0.02^2)."""
    rng = np.random.default_rng(seed)
    # drawn straight into the set's buffer; biases keep its zeros
    params = ParamSet._over(np.zeros(sum(map(math.prod, layout.values())), dtype),
                            layout)
    for name, shape in layout.items():
        if name.startswith("pos_"):
            params[name] = rng.normal(0.0, 0.02, size=shape)
        elif not name.endswith(".bias"):
            bound = 1.0 / math.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def check_params_match(params: ParamSet, cfg: ModelConfig | object,
                       layout: dict[str, tuple[int, ...]] | None = None):
    """Verify names and shapes against the config's layout; raises
    CheckpointError naming the first offending tensor."""
    if layout is None:
        layout = param_layout(cfg)  # type: ignore[arg-type]
    have = params.layout()
    if have == layout:  # one comparison; the walk below only names the culprit
        return
    for name, shape in layout.items():
        if name not in have:
            raise CheckpointError(f"missing tensor {name!r}")
        if have[name] != tuple(shape):
            raise CheckpointError(f"tensor {name!r} has shape {have[name]}, "
                                  f"config expects {tuple(shape)}")
    for name in have:
        if name not in layout:
            raise CheckpointError(f"unexpected tensor {name!r}")


# ---------------------------------------------------------------------------
# stages: each forward next to its reverse. A reverse writes the gradients
# of the stage's own tensors into ``grads`` (each tensor is written by one
# stage, once, so the arena starts uninitialised) and returns the gradient
# at its input; stages whose input is a constant return nothing.


def _affine(tensors, name: str) -> tuple[np.ndarray, np.ndarray]:
    return tensors[f"{name}.weight"], tensors[f"{name}.bias"]


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
           residual: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight + bias`` over the last axis as one matmul (weights shared
    across leading axes, ``bias`` broadcast against them); with
    ``residual``: ``(x @ weight + residual) + bias``, added in place."""
    out = (x.reshape(-1, x.shape[-1]) @ weight).reshape(*x.shape[:-1], weight.shape[-1])
    if residual is not None:
        out += residual.reshape(out.shape)
    out += bias
    return out


def linear_backward(dy: np.ndarray, x: np.ndarray, params: ParamSet,
                    grads: ParamSet, name: str, input_grad: bool = True):
    """Reverse of ``linear`` with the tensors ``name.weight``/``name.bias``:
    writes their gradients over ``grads``' views and returns the gradient
    at ``x`` (None when ``input_grad`` is off because ``x`` is a constant)."""
    dy_flat = dy.reshape(-1, dy.shape[-1])
    np.matmul(x.reshape(-1, x.shape[-1]).T, dy_flat, out=grads[f"{name}.weight"])
    np.sum(dy_flat, axis=0, out=grads[f"{name}.bias"])
    if not input_grad:
        return None
    return (dy_flat @ params[f"{name}.weight"].T).reshape(x.shape)


def head_product(x: np.ndarray, params: ParamSet, name: str, op=None) -> np.ndarray:
    """``linear`` of the affine ``name`` on the embeddings ``x``; with the
    branch's ``embed_operator`` ``op`` (E over c), ``x`` is the (B x C x T)
    series and the product runs as ``x @ (E @ W) + (c @ W + b)``."""
    weight, bias = _affine(params, name)
    if op is not None:
        folded = op @ weight
        weight, bias = folded[:x.shape[-1]], folded[x.shape[-1]:] + bias
    return linear(x, weight, bias)


def _operator_grad(dy: np.ndarray, x: np.ndarray, offset_rows: int) -> np.ndarray:
    """The gradient at A stacked over a from ``dy`` at ``x @ A + a`` (a's
    ``offset_rows`` rows repeat down x's): x^T dy over dy summed per row of a."""
    rows = dy.reshape(-1, offset_rows, dy.shape[-1])
    return np.concatenate([x.reshape(-1, x.shape[-1]).T @ rows.reshape(-1, dy.shape[-1]),
                           rows.sum(axis=0)])


def head_product_backward(dy: np.ndarray, x: np.ndarray, params: ParamSet,
                          grads: ParamSet, name: str, input_grad=True, op=None):
    """Reverse of ``head_product``: the gradient at the embeddings, or with
    ``op`` at the operator, so no embedding gradient is formed."""
    if op is None:
        return linear_backward(dy, x, params, grads, name, input_grad)
    d_folded = _operator_grad(dy, x, op.shape[0] - x.shape[-1])
    np.matmul(op.T, d_folded, out=grads[f"{name}.weight"])
    np.sum(d_folded[x.shape[-1]:], axis=0, out=grads[f"{name}.bias"])
    return d_folded @ params[f"{name}.weight"].T


def mlp(x: np.ndarray, params: ParamSet, name: str, residual: np.ndarray | None = None,
        op=None) -> tuple[np.ndarray, np.ndarray]:
    """``name.fc1`` (a ``head_product``) -> ReLU -> ``name.fc2`` over the
    last axis, ``residual`` added as in ``linear``; returns the output and
    the hidden activation the reverse needs."""
    act = np.maximum(head_product(x, params, f"{name}.fc1", op), 0)
    return linear(act, *_affine(params, f"{name}.fc2"), residual), act


def mlp_backward(dy: np.ndarray, x: np.ndarray, act: np.ndarray,
                 params: ParamSet, grads: ParamSet, name: str, input_grad=True, op=None):
    d_act = linear_backward(dy, act, params, grads, f"{name}.fc2")
    # act > 0 exactly where the pre-activation is > 0
    return head_product_backward(d_act * (act > 0), x, params, grads,
                                 f"{name}.fc1", input_grad, op)


def embed(patches: np.ndarray, weight: np.ndarray, bias: np.ndarray,
          pos: np.ndarray) -> np.ndarray:
    """Project each length-P patch to the embedding space and add the
    positional encoding (broadcast over channels in shared mode)."""
    return linear(patches, weight, bias) + pos


def fold_pays(rows: int, lookback: int, width: int, offset_rows: int) -> bool:
    """Whether a head's first product costs fewer multiply-adds per output
    column folded, ``(lookback + offset_rows) x width + rows x lookback``,
    than on the embeddings, ``rows x width``."""
    return rows * (width - lookback) > (lookback + offset_rows) * width


def embed_operator(params: ParamSet, branch: str, cfg: ModelConfig) -> np.ndarray:
    """``embed`` of a branch's patches as an affine map of its series,
    flattened per channel, ``x @ E + c``: E (T x N*D), patch n's columns
    holding ``embed_*.weight`` at the rows it reads, clipped at T, stacked
    over c (one row with shared positional encodings, C rows per channel)."""
    weight, bias = _affine(params, f"embed_{branch}")
    t, n = cfg.lookback, cfg.num_patches
    c = (params[f"pos_{branch}"] + bias).reshape(-1, n * cfg.embed_dim)
    op = np.zeros((t + len(c), c.shape[1]), weight.dtype)
    op[t:] = c
    e = op[:t].reshape(t, n, -1)  # a view
    for i, start in zip(range(n), range(0, t, cfg.stride)):  # patches starting in x
        e[start:start + cfg.patch_len, i] = weight[:t - start]
    return op


def embed_operator_backward(d_op: np.ndarray, params: ParamSet, grads: ParamSet,
                            branch: str, cfg: ModelConfig):
    """Parameter gradients only, from the gradient at the stacked E and c;
    the weight's sums each patch's rows of the gradient at E."""
    t, n, pos_grad = cfg.lookback, cfg.num_patches, grads[f"pos_{branch}"]
    pos_grad[...] = d_op[t:].reshape(pos_grad.shape)
    np.sum(pos_grad, axis=tuple(range(pos_grad.ndim - 1)),
           out=grads[f"embed_{branch}.bias"])
    d_e, d_weight = d_op[:t].reshape(t, n, -1), grads[f"embed_{branch}.weight"]
    d_weight[...] = 0
    for i, start in zip(range(n), range(0, t, cfg.stride)):
        d_weight[:t - start] += d_e[start:start + cfg.patch_len, i]


def mpp_seasonal(u: np.ndarray, params: ParamSet, schedule: list[int],
                 op=None) -> list[np.ndarray]:
    """One direct linear map per head, flattened embeddings -> length G_i
    (a ``head_product``). Weights are shared across channels."""
    return [head_product(u, params, f"season_head_{i}", op)
            for i in range(1, len(schedule) + 1)]


def mim(z_list: list[np.ndarray],
        mixers: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Coarse-to-fine accumulation: each head adds a linear map of the
    previous (coarser) mixed output, ``(mixed @ weight + z) + bias``, run
    by ``linear`` as one GEMM over all B·C rows (a stacked (B, C, G)
    matmul would be B small ones). ``mixers`` holds one (weight, bias)
    pair per head from the second on."""
    if len(mixers) != len(z_list) - 1:
        raise ValueError(f"expected {len(z_list) - 1} mixers, got {len(mixers)}")
    mixed = [z_list[0]]
    for z, (weight, bias) in zip(z_list[1:], mixers):
        mixed.append(linear(mixed[-1], weight, bias, residual=z))
    return mixed


def mim_backward(d_mixed: list[np.ndarray], mixed: list[np.ndarray],
                 params: ParamSet, grads: ParamSet, branch: str) -> list[np.ndarray]:
    """Reverse of ``mim`` through the ``mixer_{branch}_i`` chain; returns
    the gradient at each head's raw output."""
    d_z = [d.copy() for d in d_mixed]
    for i in range(len(d_z), 1, -1):
        d_z[i - 2] += linear_backward(d_z[i - 1], mixed[i - 2], params, grads,
                                      f"mixer_{branch}_{i}")
    return d_z


def amwg(gate_in: np.ndarray, params: ParamSet, heads: int):
    """Channel-adaptive head weights from each branch's embeddings pooled
    to their mean per channel, ``gate_in`` (B x 2C, seasonal then trend):
    the two-layer gate, softmax over heads. Returns the weights (B x H x C)
    and what the reverse needs."""
    b, c = gate_in.shape[0], gate_in.shape[1] // 2
    logits, act = mlp(gate_in, params, "gate")
    logits = logits.reshape(b, heads, c)
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = expd / expd.sum(axis=1, keepdims=True)        # simplex over heads
    return weights, (gate_in, act, weights)


def amwg_backward(d_weights: np.ndarray, saved, params: ParamSet,
                  grads: ParamSet) -> np.ndarray:
    """Reverse of ``amwg``, from the gradient at its weights (B x H x C);
    returns its gradient at ``gate_in``."""
    gate_in, act, weights = saved
    b, heads, c = weights.shape
    # softmax over the head axis
    inner = (d_weights * weights).sum(axis=1, keepdims=True)
    d_logits = (weights * (d_weights - inner)).reshape(b, heads * c)
    return mlp_backward(d_logits, gate_in, act, params, grads, "gate")


def _interp_matrix(source_len: int, target_len: int) -> np.ndarray:
    """(G x F) endpoint-aligned linear-interpolation matrix, in float64:
    G == F gives the exact identity, and both endpoints copy through."""
    if source_len > target_len:
        raise ValueError(f"cannot upsample length {source_len} to shorter "
                         f"length {target_len}")
    cols = np.arange(target_len)
    pos = cols * ((source_len - 1) / max(target_len - 1, 1))
    k = np.minimum(np.floor(pos), source_len - 1).astype(np.intp)
    frac = np.where(k < source_len - 1, pos - k, 0.0)
    mat = np.zeros((source_len + 1, target_len))  # the spare last row takes zeros
    mat[k, cols] = 1.0 - frac
    mat[k + 1, cols] = frac
    return mat[:source_len]


def upsample(y: np.ndarray, target_len: int) -> np.ndarray:
    """Stretch (B x C x G) to (B x C x F) by endpoint-aligned linear
    interpolation; exact identity when G == F."""
    return band_matmul(y, band_blocks(_interp_matrix, (y.shape[-1], target_len),
                                      y.dtype))


def upsample_backward(d_up: np.ndarray, source_len: int) -> np.ndarray:
    return band_matmul(d_up, band_blocks(
        _interp_matrix, (source_len, d_up.shape[-1]), d_up.dtype, transpose=True))


def fuse(heads: list[np.ndarray], weights: np.ndarray, horizon: int) -> np.ndarray:
    """Weighted sum of the upsampled heads plus their plain average as a
    residual, at ``horizon``. ``weights`` is (B x H x C): head i (B x C x
    G_i) is scaled by ``1/H + weights[:, i]`` at its own length, then
    upsampled and added into the one (B x C x F) output."""
    if len(heads) != weights.shape[1]:
        raise ValueError(f"{len(heads)} head outputs but weights cover "
                         f"{weights.shape[1]} heads")
    scale = weights + 1.0 / len(heads)
    out = upsample(scale[:, 0, :, None] * heads[0], horizon)
    for i, y in enumerate(heads[1:], start=1):
        out += upsample(scale[:, i, :, None] * y, horizon)
    return out


def fuse_backward(d_fused: np.ndarray, heads: list[np.ndarray],
                  weights: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse of ``fuse``: the gradient at each head (B x C x G_i) and at
    the weights (B x H x C), both from the head's ``upsample_backward``."""
    scale = weights + 1.0 / len(heads)
    d_heads, d_weights = [], []
    for i, y in enumerate(heads):
        v = upsample_backward(d_fused, y.shape[-1])
        d_weights.append((v * y).sum(axis=2))
        d_heads.append(scale[:, i, :, None] * v)
    return d_heads, np.stack(d_weights, axis=1)


# ---------------------------------------------------------------------------
# the folded operators of fixed parameters: built once per ``evaluate`` call


def season_chain(op: np.ndarray, params: ParamSet, cfg: ModelConfig) -> list[np.ndarray]:
    """Each head's seasonal forecast, mixer chain included, as one affine
    map of the seasonal series stacked like its ``embed_operator`` ``op``:
    ``O_i = op W_i + [0; b_i] + O_{i-1} M_i + [0; m_i]`` (no ``M`` term with
    MIM off), composed in float64 and cast once to the parameters' dtype."""
    t, op64, chain = cfg.lookback, op.astype(np.float64), []
    for i in range(1, cfg.heads + 1):
        weight, bias = _affine(params, f"season_head_{i}")
        o = op64 @ weight
        o[t:] += bias
        if chain and cfg.use_mim:
            weight, bias = _affine(params, f"mixer_s_{i}")
            o += chain[-1] @ weight
            o[t:] += bias
        chain.append(o)
    return [o.astype(op.dtype) for o in chain]


class FoldedOperators(NamedTuple):
    """What a folded forward of fixed parameters reads: each branch's
    ``embed_operator``, and the parameters with every head's first product
    already folded over the series, so ``season_head_i`` is its
    ``season_chain`` operator and ``trend_head_i.fc1`` the trend
    operator's product ``head_product`` forms."""
    ops: list[np.ndarray]
    tensors: dict[str, np.ndarray]


def fold_operators(params: ParamSet, cfg: ModelConfig) -> FoldedOperators:
    ops, t = [embed_operator(params, br, cfg) for br in "st"], cfg.lookback
    tensors = dict(params.items())
    for i, o in enumerate(season_chain(ops[0], params, cfg), start=1):
        tensors[f"season_head_{i}.weight"], tensors[f"season_head_{i}.bias"] = o[:t], o[t:]
        weight, bias = _affine(params, f"trend_head_{i}.fc1")
        folded = ops[1] @ weight
        tensors[f"trend_head_{i}.fc1.weight"] = folded[:t]
        tensors[f"trend_head_{i}.fc1.bias"] = folded[t:] + bias
    return FoldedOperators(ops, tensors)


class _Scope:
    """One ``operator_scope``: its parameters, config and, once a folded
    forward of them has run, their ``fold_operators``."""

    def __init__(self, params: ParamSet, cfg: ModelConfig):
        self.params, self.cfg, self.built = params, cfg, None

    def operators(self, params: ParamSet, cfg) -> FoldedOperators | None:
        if params is not self.params or cfg is not self.cfg:
            return None
        if self.built is None:
            self.built = fold_operators(params, cfg)
        return self.built


_SCOPE: ContextVar[_Scope | None] = ContextVar("mdmixer_operator_scope", default=None)


@contextmanager
def operator_scope(params: ParamSet, cfg):
    """Within the block, the folded forwards of ``params`` under ``cfg``
    read one ``fold_operators``, built at the first of them; nothing
    outlives the block. The parameters must not change inside it."""
    token = _SCOPE.set(_Scope(params, cfg))
    try:
        yield
    finally:
        _SCOPE.reset(token)


# ---------------------------------------------------------------------------
# full forward and reverse pass


def forward(x: np.ndarray, params: ParamSet, cfg: ModelConfig) -> ForecastOutput:
    """Run the full pipeline on a batch of lookback windows (B x T x C)."""
    return forward_with_context(x, params, cfg)[0]


def front_end(x: np.ndarray, params: ParamSet, cfg,
              layout: dict[str, tuple[int, ...]] | None = None):
    """Every forecaster's start: check the window's shape and the params
    against ``layout``, copy the batch once into channel-major memory and
    normalize each instance; returns the normalized windows and stats."""
    if x.ndim != 3 or x.shape[1:] != (cfg.lookback, cfg.channels):
        raise ValueError(f"forward/input: window shape {x.shape} is not (B, "
                         f"lookback={cfg.lookback}, channels={cfg.channels})")
    check_params_match(params, cfg, layout)
    return instance_normalize(channel_major(x, params.dtype))


class ForwardContext(NamedTuple):
    """What ``model_backward`` reads of a forward."""
    series: list[np.ndarray]  # per branch (B x C x T) rows, the embedding's input
    inputs: list[np.ndarray]  # per branch: embeddings (B x C x N*D), folded: the series
    ops: list[np.ndarray | None]  # per branch ``embed_operator`` when folded, else None
    trend_acts: tuple[np.ndarray, ...]
    y_s: list[np.ndarray]
    y_t: list[np.ndarray]
    y_sum: list[np.ndarray]
    weights: np.ndarray
    gate: tuple | None


def forward_with_context(x: np.ndarray, params: ParamSet,
                         cfg: ModelConfig) -> tuple[ForecastOutput, ForwardContext]:
    """``forward`` plus the intermediates ``model_backward`` reads."""
    x_norm, stats = front_end(x, params, cfg)
    dtype = params.dtype
    b, c, heads = x.shape[0], cfg.channels, cfg.heads
    schedule = granularity_schedule(cfg.horizon, heads)

    decomposed = decompose(x_norm, cfg.kernel)
    parts = (decomposed.seasonal, decomposed.trend)
    series = [part.transpose(0, 2, 1) for part in parts]  # (B, C, T) rows
    built = None
    if fold_pays(b * c, cfg.lookback, cfg.num_patches * cfg.embed_dim,
                 c if cfg.pos_encoding == "per_channel" else 1):
        scope = _SCOPE.get()
        built = scope.operators(params, cfg) if scope else None
        ops = built.ops if built else [embed_operator(params, br, cfg) for br in "st"]
        inputs = series
        pooled = (u @ m[:cfg.lookback] + m[cfg.lookback:]
                  for u, m in zip(series, (op.mean(axis=1) for op in ops)))
    else:
        ops = [None, None]
        xd = [embed(patch(part, cfg.patch_len, cfg.stride).patches,
                    *_affine(params, f"embed_{br}"), params[f"pos_{br}"])
              for part, br in zip(parts, "st")]
        inputs = [e.reshape(b, c, -1) for e in xd]
        pooled = (e.mean(axis=(2, 3)) for e in xd)

    # a scope's tensors hold the heads' first products folded already, and
    # its seasonal heads end the mixer chain
    tensors, head_ops = (built.tensors, [None, None]) if built else (params, ops)
    z_s = mpp_seasonal(inputs[0], tensors, schedule, head_ops[0])
    z_t, trend_acts = zip(*(mlp(inputs[1], tensors, f"trend_head_{i}", op=head_ops[1])
                            for i in range(1, heads + 1)))
    y_s, y_t = (mim(z, [_affine(params, f"mixer_{br}_{i}") for i in range(2, heads + 1)])
                if cfg.use_mim and not (built and br == "s") else list(z)
                for z, br in ((z_s, "s"), (z_t, "t")))

    y_sum = [a + bb for a, bb in zip(y_s, y_t)]
    # without the gate the fusion runs with zero weights: the residual
    # mean alone, which is what uniform reported weights describe
    weights = np.zeros((b, heads, c), dtype=dtype)
    gate_saved = None
    if cfg.amwg_enabled:
        weights, gate_saved = amwg(np.concatenate(list(pooled), axis=1), params, heads)
    fused = fuse(y_sum, weights, cfg.horizon)

    output = ForecastOutput(
        final=instance_denormalize(fused.transpose(0, 2, 1), stats),
        gate_weights=weights if gate_saved is not None
        else np.full((b, heads, c), 1.0 / heads, dtype=dtype),
        heads=y_sum, stats=stats)
    return output, ForwardContext(series, inputs, ops, trend_acts, y_s, y_t, y_sum,
                                  weights, gate_saved)


def model_backward(d_fused: np.ndarray, d_heads: list[np.ndarray],
                   saved: ForwardContext, params: ParamSet, grads: ParamSet,
                   cfg: ModelConfig):
    """Write every parameter tensor's gradient into ``grads`` from the loss
    gradients at the normalized forecast (B x C x F) and at each normalized
    head (B x C x G_i), the rows ``ForecastOutput.restore_backward`` gives."""
    d_fused_heads, d_weights = fuse_backward(d_fused, saved.y_sum, saved.weights)
    # (B, 2C, 1): each branch's pooled mean spreads over its N*D columns
    d_gate = (amwg_backward(d_weights, saved.gate, params, grads)[..., None]
              / (cfg.num_patches * cfg.embed_dim) if saved.gate is not None
              else np.zeros((len(d_fused), 2 * cfg.channels, 1), d_fused.dtype))

    # each per-granularity forecast is the sum of both branches; the
    # alignment loss reaches it directly (its rows are this pass's own)
    for d_y, d in zip(d_heads, d_fused_heads):
        d_y += d
    d_z_s, d_z_t = (mim_backward(d_heads, y, params, grads, br) if cfg.use_mim
                    else d_heads for y, br in ((saved.y_s, "s"), (saved.y_t, "t")))

    (u_s, u_t), (op_s, op_t), c = saved.inputs, saved.ops, cfg.channels
    offset_rows = c if cfg.pos_encoding == "per_channel" else 1
    # the gradient at each branch's embeddings, or at its operator when folded
    d_s_in, d_t_in = (np.zeros_like(u if op is None else op)
                      for u, op in zip(saved.inputs, saved.ops))
    for i, (d_s, d_t, act) in enumerate(zip(d_z_s, d_z_t, saved.trend_acts), start=1):
        d_s_in += head_product_backward(d_s, u_s, params, grads, f"season_head_{i}",
                                        op=op_s)
        d_t_in += mlp_backward(d_t, u_t, act, params, grads, f"trend_head_{i}", op=op_t)
    # both associations end at the gradient at the stacked operator
    for br, d, x, op, d_g in zip("st", (d_s_in, d_t_in), saved.series, saved.ops,
                                 (d_gate[:, :c], d_gate[:, c:])):
        embed_operator_backward(_operator_grad(d + d_g, x, offset_rows) if op is None
                                else d + _operator_grad(d_g, x, offset_rows),
                                params, grads, br, cfg)


# ---------------------------------------------------------------------------
# checkpoint format: text manifest (name, shape, byte offset) + the
# parameter buffer as little-endian float32 in layout order after it.


def write_atomically(path: str | Path, chunks) -> Path:
    """Write the bytes-like ``chunks`` to a new file beside ``path`` that replaces
    it once all are written; on an error ``path`` keeps what it held."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def save_checkpoint(path: str | Path, params: ParamSet):
    records, offset = [], 0
    for name, arr in params.items():
        records.append(f"{name} {'x'.join(map(str, arr.shape))} {offset}")
        offset += 4 * arr.size
    manifest = CHECKPOINT_MAGIC + "\n" + "".join(r + "\n" for r in records) + "end\n"
    write_atomically(path, [manifest.encode("utf-8"), params.flat.astype("<f4", copy=False)])


def load_checkpoint(path: str | Path) -> ParamSet:
    entries, flat, size = _parse_manifest(Path(path))
    blob, tensors, end = flat.view(np.uint8)[:size], {}, 0
    for name, shape, offset in entries:
        count = math.prod(shape)  # exact: np.prod wraps to 0 on int64 overflow
        if offset + 4 * count > size:
            raise CheckpointError(f"{path}: blob truncated for tensor {name!r}")
        try:
            arr = np.frombuffer(blob, "<f4", count, offset).reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"{path}: tensor {name!r} has unusable shape: "
                                  f"{exc}") from None
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        tensors[name] = arr
        end = offset + 4 * count if offset == end else -1
    if end == size:  # the tensors tile the blob in order: the set is its buffer
        return ParamSet._over(flat, {name: arr.shape for name, arr in tensors.items()})
    return ParamSet(tensors)  # a copy, into a buffer of its own


def _parse_manifest(path: Path):
    """The manifest's (name, shape, byte offset) records, the blob after it
    read into a float32 buffer of its own, and the blob's length in bytes."""
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    if not path.is_file():
        raise CheckpointError(f"{path}: not a regular file")
    try:
        with path.open("rb") as fh:
            if fh.readline().decode("utf-8", "replace") != CHECKPOINT_MAGIC + "\n":
                raise CheckpointError(f"{path}: not a checkpoint (bad magic line)")
            lines = []
            for line in fh:
                if line == b"end\n":
                    break
                lines.append(line)
            else:
                raise CheckpointError(f"{path}: manifest missing 'end' terminator")
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            flat = np.empty(-(-size // 4), "<f4")
            size = fh.readinto(flat.view(np.uint8)[:size])
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    entries = []
    for raw in b"".join(lines).splitlines():
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: manifest line {raw!r} is not UTF-8") from None
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise CheckpointError(f"{path}: malformed manifest line {line!r}")
        name, shape_text, offset_text = fields
        try:
            shape = tuple(int(d) for d in shape_text.split("x"))
            offset = int(offset_text)
        except ValueError:
            raise CheckpointError(f"{path}: malformed manifest line {line!r}") from None
        if offset < 0:
            raise CheckpointError(f"{path}: tensor {name!r} has negative offset {offset}")
        if min(shape) <= 0:
            raise CheckpointError(f"{path}: tensor {name!r} has a non-positive "
                                  f"dimension in shape {shape}")
        if any(name == listed for listed, _, _ in entries):
            raise CheckpointError(f"{path}: tensor {name!r} is listed twice")
        entries.append((name, shape, offset))
    if not entries:
        raise CheckpointError(f"{path}: checkpoint lists no tensors")
    return entries, flat, size
