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

Everything is plain numpy; upsampling and its reverse run as banded
operators (``preprocess.band_matmul``). Each stage's hand-derived reverse
sits next to its forward, built from the ``linear``/``mlp`` ops the
baselines share; ``training`` supplies the loss gradients.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .config import ConfigError, ModelConfig
from .preprocess import InstanceStats, band_blocks, band_matmul, channel_major, \
    decompose, instance_denormalize, instance_normalize, patch

CHECKPOINT_MAGIC = "mdmixer-checkpoint v1"


class CheckpointError(ValueError):
    """Raised for unreadable checkpoints or tensor mismatches against a config."""


class ParamSet:
    """Ordered, named tensors, each a C-contiguous view of one 1-D buffer,
    ``flat``, in layout order, which fixes the RNG draw order at init and
    the blob order in checkpoints. The constructor copies the tensors into
    a new buffer; each whole-set operation is one call on ``flat``."""

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
    """Canonical name -> shape map for every learnable tensor (cached, read-only)."""
    n, d, p = cfg.num_patches, cfg.embed_dim, cfg.patch_len
    c, hid = cfg.channels, cfg.hidden
    heads = cfg.num_heads
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
    for branch in ("s", "t"):
        for i in range(2, heads + 1):
            layout[f"mixer_{branch}_{i}.weight"] = (schedule[i - 2], schedule[i - 1])
            layout[f"mixer_{branch}_{i}.bias"] = (schedule[i - 1],)
    layout["gate.fc1.weight"] = (2 * c, hid)
    layout["gate.fc1.bias"] = (hid,)
    layout["gate.fc2.weight"] = (hid, heads * c)
    layout["gate.fc2.bias"] = (heads * c,)
    return MappingProxyType(layout)


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParamSet:
    """Seeded init of the model's tensors (see ``init_layout``)."""
    return init_layout(param_layout(cfg), seed, dtype)


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
    across leading axes); with ``residual``: ``(residual + x @ weight) + bias``."""
    out = x.reshape(-1, x.shape[-1]) @ weight
    if residual is not None:
        out = residual.reshape(out.shape) + out
    out += bias
    return out.reshape(*x.shape[:-1], out.shape[-1])


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


def mlp(x: np.ndarray, params: ParamSet, name: str,
        residual: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``name.fc1`` -> ReLU -> ``name.fc2`` over the last axis, ``residual``
    added as in ``linear``; returns the output and the hidden activation
    the reverse needs."""
    act = np.maximum(linear(x, *_affine(params, f"{name}.fc1")), 0)
    return linear(act, *_affine(params, f"{name}.fc2"), residual), act


def mlp_backward(dy: np.ndarray, x: np.ndarray, act: np.ndarray,
                 params: ParamSet, grads: ParamSet, name: str,
                 input_grad: bool = True):
    d_act = linear_backward(dy, act, params, grads, f"{name}.fc2")
    # act > 0 exactly where the pre-activation is > 0
    return linear_backward(d_act * (act > 0), x, params, grads, f"{name}.fc1",
                           input_grad)


def embed(patches: np.ndarray, weight: np.ndarray, bias: np.ndarray,
          pos: np.ndarray) -> np.ndarray:
    """Project each length-P patch to the embedding space and add the
    positional encoding (broadcast over channels in shared mode)."""
    return linear(patches, weight, bias) + pos


def embed_backward(d_xd: np.ndarray, patches: np.ndarray, params: ParamSet,
                   grads: ParamSet, branch: str):
    """Parameter gradients only: the patches are constants."""
    pos_grad = grads[f"pos_{branch}"]
    # sum over the leading axes the positional encoding was broadcast along
    np.sum(d_xd, axis=tuple(range(d_xd.ndim - pos_grad.ndim)), out=pos_grad)
    linear_backward(d_xd, patches, params, grads, f"embed_{branch}",
                    input_grad=False)


def mpp_seasonal(u: np.ndarray, params: ParamSet,
                 schedule: list[int]) -> list[np.ndarray]:
    """One direct linear map per head, flattened embeddings -> length G_i.
    Weights are shared across channels."""
    return [linear(u, *_affine(params, f"season_head_{i}"))
            for i in range(1, len(schedule) + 1)]


def mim(z_list: list[np.ndarray],
        mixers: list[tuple[np.ndarray, np.ndarray]] | None) -> list[np.ndarray]:
    """Coarse-to-fine accumulation: each head adds a linear map of the
    previous (coarser) mixed output, ``(z + mixed @ weight) + bias``, run
    by ``linear`` as one GEMM over all B·C rows (a stacked (B, C, G)
    matmul would be B small ones). ``mixers`` holds one (weight, bias)
    pair per head from the second on; None bypasses mixing entirely."""
    if mixers is None:
        return list(z_list)
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


def amwg(xd_s: np.ndarray, xd_t: np.ndarray, params: ParamSet, heads: int):
    """Channel-adaptive head weights: pool each branch's embeddings to one
    scalar per channel, run the two-layer gate, softmax over heads.
    Returns the weights (B x H x C) and what the reverse needs."""
    b, c = xd_s.shape[0], xd_s.shape[1]
    gate_in = np.concatenate([xd_s.mean(axis=(2, 3)), xd_t.mean(axis=(2, 3))],
                             axis=1)                        # (B, 2C)
    logits, act = mlp(gate_in, params, "gate")
    logits = logits.reshape(b, heads, c)
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = expd / expd.sum(axis=1, keepdims=True)        # simplex over heads
    return weights, (gate_in, act, weights, xd_s.shape[2] * xd_s.shape[3])


def amwg_backward(d_weights: np.ndarray, saved, params: ParamSet,
                  grads: ParamSet) -> tuple[np.ndarray, np.ndarray]:
    """Reverse of ``amwg``, from the gradient at its weights (B x H x C);
    returns its gradient at each branch's embeddings as (B x C x 1 x 1),
    constant over the pooled axes."""
    gate_in, act, weights, pooled = saved
    b, heads, c = weights.shape
    # softmax over the head axis
    inner = (d_weights * weights).sum(axis=1, keepdims=True)
    d_logits = (weights * (d_weights - inner)).reshape(b, heads * c)
    d_in = mlp_backward(d_logits, gate_in, act, params, grads, "gate") / pooled
    return d_in[:, :c, None, None], d_in[:, c:, None, None]


def _interp_matrix(source_len: int, target_len: int) -> np.ndarray:
    """(G x F) endpoint-aligned linear-interpolation matrix, in float64.

    Built so that G == F gives the exact identity and both endpoints are
    copied through unchanged.
    """
    if source_len > target_len:
        raise ValueError(f"cannot upsample length {source_len} to shorter "
                         f"length {target_len}")
    mat = np.zeros((source_len, target_len), dtype=np.float64)
    if source_len == 1:
        mat[0, :] = 1.0
    else:
        scale = (source_len - 1) / (target_len - 1)
        for j in range(target_len):
            s = j * scale
            k = int(math.floor(s))
            if k >= source_len - 1:
                mat[source_len - 1, j] = 1.0
            else:
                frac = s - k
                mat[k, j] = 1.0 - frac
                mat[k + 1, j] = frac
    return mat


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
    d_heads = []
    d_weights = np.empty_like(weights)
    for i, y in enumerate(heads):
        v = upsample_backward(d_fused, y.shape[-1])
        d_weights[:, i] = (v * y).sum(axis=2)
        d_heads.append(scale[:, i, :, None] * v)
    return d_heads, d_weights


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


def forward_with_context(x: np.ndarray, params: ParamSet,
                         cfg: ModelConfig) -> tuple[ForecastOutput, tuple]:
    """``forward`` plus the intermediates ``model_backward`` reads."""
    x_norm, stats = front_end(x, params, cfg)
    dtype = params.dtype
    b, c = x.shape[0], cfg.channels
    heads = cfg.num_heads
    schedule = granularity_schedule(cfg.horizon, heads)

    parts = decompose(x_norm, cfg.kernel)
    patches = [patch(part, cfg.patch_len, cfg.stride).patches
               for part in (parts.seasonal, parts.trend)]
    xd_s, xd_t = (embed(p, *_affine(params, f"embed_{br}"), params[f"pos_{br}"])
                  for p, br in zip(patches, "st"))
    u_s = xd_s.reshape(b, c, -1)
    u_t = xd_t.reshape(b, c, -1)

    z_s = mpp_seasonal(u_s, params, schedule)
    z_t, trend_acts = zip(*(mlp(u_t, params, f"trend_head_{i}")
                            for i in range(1, heads + 1)))
    y_s, y_t = (mim(z, [_affine(params, f"mixer_{br}_{i}")
                        for i in range(2, heads + 1)] if cfg.mim_enabled else None)
                for z, br in ((z_s, "s"), (z_t, "t")))

    y_sum = [a + bb for a, bb in zip(y_s, y_t)]
    # without the gate the fusion runs with zero weights: the residual
    # mean alone, which is what uniform reported weights describe
    weights = np.zeros((b, heads, c), dtype=dtype)
    gate_saved = None
    if cfg.amwg_enabled:
        weights, gate_saved = amwg(xd_s, xd_t, params, heads)
    fused = fuse(y_sum, weights, cfg.horizon)

    output = ForecastOutput(
        final=instance_denormalize(fused.transpose(0, 2, 1), stats),
        gate_weights=weights if cfg.amwg_enabled
        else np.full((b, heads, c), 1.0 / heads, dtype=dtype),
        heads=y_sum, stats=stats)
    saved = (stats, patches, u_s, u_t, trend_acts, y_s, y_t, y_sum,
             weights, gate_saved)
    return output, saved


def model_backward(d_final: np.ndarray, d_granularity: list[np.ndarray],
                   saved: tuple, params: ParamSet, cfg: ModelConfig) -> ParamSet:
    """Gradients of every parameter tensor from the loss gradients at
    ``final`` (B x F x C) and each ``per_granularity`` series (B x G_i x C).
    Instance statistics depend only on the inputs, never on parameters, so
    they enter the reverse pass as constants."""
    (stats, patches, u_s, u_t, trend_acts, y_s, y_t, y_sum, weights,
     gate_saved) = saved
    grads = params.empty_like()  # each tensor is written once, by its stage
    unused = ("mixer_",) * (not cfg.mim_enabled) + ("gate.",) * (gate_saved is None)
    for name, grad in grads.items():  # tensors an ablation leaves unused get zeros
        if name.startswith(unused):
            grad.fill(0)
    std = stats.std[:, None, :]
    # contiguous (B, C, F) rows for the banded products of the reverse
    # (no copy: the loss gradients are channel-major like ``final``)
    d_fused = np.ascontiguousarray((d_final * std).transpose(0, 2, 1), params.dtype)
    d_heads, d_weights = fuse_backward(d_fused, y_sum, weights)
    d_gate = (0.0, 0.0)
    if gate_saved is not None:
        d_gate = amwg_backward(d_weights, gate_saved, params, grads)

    # each per-granularity forecast is the sum of both branches; the
    # alignment loss reaches it directly
    d_y = [d + (d_g * std).transpose(0, 2, 1)
           for d, d_g in zip(d_heads, d_granularity)]
    d_z_s, d_z_t = (mim_backward(d_y, y, params, grads, br) if cfg.mim_enabled
                    else d_y for y, br in ((y_s, "s"), (y_t, "t")))

    d_u_s, d_u_t = np.zeros_like(u_s), np.zeros_like(u_t)
    for i, (d_s, d_t, act) in enumerate(zip(d_z_s, d_z_t, trend_acts), start=1):
        d_u_s += linear_backward(d_s, u_s, params, grads, f"season_head_{i}")
        d_u_t += mlp_backward(d_t, u_t, act, params, grads, f"trend_head_{i}")
    for br, d_u, p, d_g in zip("st", (d_u_s, d_u_t), patches, d_gate):
        embed_backward(d_u.reshape(*p.shape[:3], -1) + d_g, p, params, grads, br)
    return grads


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
