"""Forecaster parameters, its stages with their reverse passes, and the
checkpoint format.

The network runs per lookback window: instance normalization, a
trend/seasonal split, patch embedding per branch, parallel prediction
heads at increasing output lengths, coarse-to-fine iterative mixing, a
channel-adaptive gating network, linear-interpolation upsampling and a
residual weighted fusion, with the instance scale restored at the end.

Everything is plain numpy. Each stage's hand-derived reverse sits next to
its forward and is built from the same ``linear``/``mlp`` ops the
baselines use; ``training`` supplies the loss gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import ConfigError, ModelConfig
from .preprocess import InstanceStats, decompose, instance_denormalize, \
    instance_normalize, patch

CHECKPOINT_MAGIC = "mdmixer-checkpoint v1"


class CheckpointError(ValueError):
    """Raised for unreadable checkpoints or tensor mismatches against a config."""


class ParamSet:
    """Ordered, named collection of learnable tensors.

    Iteration order is the canonical layout order, which fixes the RNG
    draw order at init and the blob order in checkpoints.
    """

    def __init__(self, tensors: dict[str, np.ndarray]):
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __setitem__(self, name: str, value: np.ndarray):
        self._tensors[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.copy() for k, v in self._tensors.items()})

    def astype(self, dtype) -> "ParamSet":
        return ParamSet({k: v.astype(dtype) for k, v in self._tensors.items()})

    def zeros_like(self) -> "ParamSet":
        return ParamSet({k: np.zeros_like(v) for k, v in self._tensors.items()})

    @property
    def dtype(self):
        return next(iter(self._tensors.values())).dtype


@dataclass
class ForecastOutput:
    """Forecast plus the intermediates that explain it.

    All series are in the scale of the input window (instance stats
    restored): ``final`` (B x F x C), ``per_granularity[i]`` (B x G_i x C),
    its upsampled counterpart (B x F x C), and the per-channel head
    weights used by the fusion (B x H x C, simplex over the head axis).
    """

    final: np.ndarray
    per_granularity: list[np.ndarray]
    upsampled: list[np.ndarray]
    gate_weights: np.ndarray
    stats: InstanceStats


def granularity_schedule(horizon: int, heads: int) -> list[int]:
    """Output lengths of the parallel heads: multiples of F/H up to F."""
    if heads < 1:
        raise ConfigError(f"heads must be >= 1, got {heads}")
    if horizon % heads != 0:
        raise ConfigError(f"heads ({heads}) must divide horizon ({horizon})")
    base = horizon // heads
    return [base * i for i in range(1, heads + 1)]


def param_layout(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape map for every learnable tensor."""
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
    return layout


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParamSet:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero,
    positional encodings N(0, 0.02^2)."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_layout(cfg).items():
        if name.startswith("pos_"):
            tensors[name] = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        elif name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return ParamSet(tensors)


def check_params_match(params: ParamSet, cfg: ModelConfig | object,
                       layout: dict[str, tuple[int, ...]] | None = None):
    """Verify names and shapes against the config's layout; raises
    CheckpointError naming the first offending tensor."""
    if layout is None:
        layout = param_layout(cfg)  # type: ignore[arg-type]
    for name, shape in layout.items():
        if name not in params:
            raise CheckpointError(f"missing tensor {name!r}")
        if tuple(params[name].shape) != tuple(shape):
            raise CheckpointError(
                f"tensor {name!r} has shape {tuple(params[name].shape)}, "
                f"config expects {tuple(shape)}")
    for name in params.names():
        if name not in layout:
            raise CheckpointError(f"unexpected tensor {name!r}")


# ---------------------------------------------------------------------------
# stages: each forward next to its reverse. A reverse adds the gradients of
# the stage's own tensors into ``grads`` and returns the gradient at its
# input; stages whose input is a constant return nothing.


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
    adds their gradients and returns the gradient at ``x`` (None when
    ``input_grad`` is off because ``x`` is a constant)."""
    dy_flat = dy.reshape(-1, dy.shape[-1])
    grads[f"{name}.weight"] += x.reshape(-1, x.shape[-1]).T @ dy_flat
    grads[f"{name}.bias"] += dy_flat.sum(axis=0)
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
    pos_grad += d_xd.sum(axis=tuple(range(d_xd.ndim - pos_grad.ndim)))
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
    previous (coarser) mixed output. ``mixers`` holds one (weight, bias)
    pair per head from the second on; None bypasses mixing entirely."""
    if mixers is None:
        return list(z_list)
    if len(mixers) != len(z_list) - 1:
        raise ValueError(f"expected {len(z_list) - 1} mixers, got {len(mixers)}")
    mixed = [z_list[0]]
    for z, (weight, bias) in zip(z_list[1:], mixers):
        mixed.append(z + mixed[-1] @ weight + bias)
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


def amwg_backward(d_fused: np.ndarray, upsampled: list[np.ndarray], saved,
                  params: ParamSet, grads: ParamSet) -> tuple[np.ndarray, np.ndarray]:
    """Reverse of ``amwg``, from the gradient at the fused output; returns
    its gradient at each branch's embeddings as (B x C x 1 x 1), constant
    over the pooled axes."""
    gate_in, act, weights, pooled = saved
    b, heads, c = weights.shape
    # fuse adds weights[:, i] * upsampled[i]
    d_weights = np.stack([(d_fused * y).sum(axis=2) for y in upsampled], axis=1)
    # softmax over the head axis
    inner = (d_weights * weights).sum(axis=1, keepdims=True)
    d_logits = (weights * (d_weights - inner)).reshape(b, heads * c)
    d_in = mlp_backward(d_logits, gate_in, act, params, grads, "gate") / pooled
    return d_in[:, :c, None, None], d_in[:, c:, None, None]


@lru_cache(maxsize=128)
def _interp_matrix(source_len: int, target_len: int) -> np.ndarray:
    """(G x F) endpoint-aligned linear-interpolation matrix, float64.

    Built so that G == F gives the exact identity and both endpoints are
    copied through unchanged.
    """
    if source_len > target_len:
        raise ValueError(f"cannot upsample length {source_len} to shorter "
                         f"length {target_len}")
    mat = np.zeros((source_len, target_len), dtype=np.float64)
    if source_len == 1:
        mat[0, :] = 1.0
        return mat
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
    mat = _interp_matrix(y.shape[-1], target_len).astype(y.dtype)
    return y @ mat


def upsample_backward(d_up: np.ndarray, source_len: int) -> np.ndarray:
    mat = _interp_matrix(source_len, d_up.shape[-1]).astype(d_up.dtype)
    return d_up @ mat.T


def fuse(upsampled: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Weighted sum of the upsampled heads plus their plain average as a
    residual. ``weights`` is (B x H x C), broadcast over the output axis."""
    if len(upsampled) != weights.shape[1]:
        raise ValueError(f"{len(upsampled)} head outputs but weights cover "
                         f"{weights.shape[1]} heads")
    mean = upsampled[0].copy()
    for y in upsampled[1:]:
        mean += y
    mean /= len(upsampled)
    out = mean
    for i, y in enumerate(upsampled):
        out = out + weights[:, i, :][:, :, None] * y
    return out


def fuse_backward(d_fused: np.ndarray, weights: np.ndarray) -> list[np.ndarray]:
    """Reverse of ``fuse`` at each upsampled head (the gradient at the
    weights belongs to the gate's reverse)."""
    heads = weights.shape[1]
    return [(weights[:, i, :][:, :, None] + 1.0 / heads) * d_fused
            for i in range(heads)]


# ---------------------------------------------------------------------------
# full forward and reverse pass


def forward(x: np.ndarray, params: ParamSet, cfg: ModelConfig) -> ForecastOutput:
    """Run the full pipeline on a batch of lookback windows (B x T x C)."""
    return forward_with_context(x, params, cfg)[0]


def forward_with_context(x: np.ndarray, params: ParamSet,
                         cfg: ModelConfig) -> tuple[ForecastOutput, tuple]:
    """``forward`` plus the intermediates ``model_backward`` reads."""
    if x.ndim != 3:
        raise ValueError(f"forward/input: expected 3-D (B, T, C), got shape {x.shape}")
    if x.shape[1] != cfg.lookback or x.shape[2] != cfg.channels:
        raise ValueError(f"forward/input: window shape {x.shape[1:]} does not "
                         f"match (lookback={cfg.lookback}, channels={cfg.channels})")
    check_params_match(params, cfg)
    dtype = params.dtype
    x = np.ascontiguousarray(x, dtype=dtype)
    b, c = x.shape[0], cfg.channels
    heads = cfg.num_heads
    schedule = granularity_schedule(cfg.horizon, heads)

    x_norm, stats = instance_normalize(x)
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
    upsampled = [upsample(y, cfg.horizon) for y in y_sum]
    # without the gate the fusion runs with zero weights: the residual
    # mean alone, which is what uniform reported weights describe
    weights = np.zeros((b, heads, c), dtype=dtype)
    gate_saved = None
    if cfg.amwg_enabled:
        weights, gate_saved = amwg(xd_s, xd_t, params, heads)
    fused = fuse(upsampled, weights)

    def restore(y):
        return instance_denormalize(y.transpose(0, 2, 1), stats)

    output = ForecastOutput(
        final=restore(fused), per_granularity=[restore(y) for y in y_sum],
        upsampled=[restore(y) for y in upsampled],
        gate_weights=weights if cfg.amwg_enabled
        else np.full((b, heads, c), 1.0 / heads, dtype=dtype),
        stats=stats)
    saved = (stats, patches, u_s, u_t, trend_acts, y_s, y_t, upsampled,
             weights, gate_saved)
    return output, saved


def model_backward(d_final: np.ndarray, d_granularity: list[np.ndarray],
                   saved: tuple, params: ParamSet, cfg: ModelConfig) -> ParamSet:
    """Gradients of every parameter tensor from the loss gradients at
    ``final`` (B x F x C) and each ``per_granularity`` series (B x G_i x C).
    Instance statistics depend only on the inputs, never on parameters, so
    they enter the reverse pass as constants."""
    (stats, patches, u_s, u_t, trend_acts, y_s, y_t, upsampled, weights,
     gate_saved) = saved
    grads = params.zeros_like()
    std = stats.std[:, None, :]
    d_fused = (d_final * std).transpose(0, 2, 1).astype(params.dtype, copy=False)
    d_up = fuse_backward(d_fused, weights)
    d_gate = (0.0, 0.0)
    if gate_saved is not None:
        d_gate = amwg_backward(d_fused, upsampled, gate_saved, params, grads)

    # each per-granularity forecast is the sum of both branches; the
    # alignment loss reaches it directly
    d_y = [upsample_backward(d, y.shape[-1]) + (d_g * std).transpose(0, 2, 1)
           for d, y, d_g in zip(d_up, y_s, d_granularity)]
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
# checkpoint format: text manifest (name, shape, byte offset) + one
# little-endian float32 blob per tensor, concatenated after the manifest.


def save_checkpoint(path: str | Path, params: ParamSet):
    records = []
    blobs = []
    offset = 0
    for name, arr in params.items():
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        shape = "x".join(str(dim) for dim in arr.shape)
        records.append(f"{name} {shape} {offset}")
        blobs.append(blob)
        offset += len(blob)
    manifest = CHECKPOINT_MAGIC + "\n" + "".join(r + "\n" for r in records) + "end\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(manifest.encode("utf-8"))
        for blob in blobs:
            fh.write(blob)


def read_checkpoint_manifest(path: str | Path) -> dict[str, tuple[int, ...]]:
    """Tensor name -> shape, without loading the blobs."""
    return {name: shape for name, shape, _ in _parse_manifest(Path(path))[0]}


def load_checkpoint(path: str | Path) -> ParamSet:
    entries, blob = _parse_manifest(Path(path))
    tensors = {}
    for name, shape, offset in entries:
        count = math.prod(shape)  # exact: np.prod wraps to 0 on int64 overflow
        end = offset + 4 * count
        if end > len(blob):
            raise CheckpointError(f"{path}: blob truncated for tensor {name!r}")
        try:
            arr = np.frombuffer(blob[offset:end], dtype="<f4").reshape(shape).copy()
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"{path}: tensor {name!r} has unusable shape: "
                                  f"{exc}") from None
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        tensors[name] = arr
    return ParamSet(tensors)


def _parse_manifest(path: Path):
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    data = path.read_bytes()
    newline = data.find(b"\n")
    if newline < 0 or data[:newline].decode("utf-8", "replace") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic line)")
    marker = b"\nend\n"
    cut = data.find(marker, newline)
    if cut < 0:
        raise CheckpointError(f"{path}: manifest missing 'end' terminator")
    blob = data[cut + len(marker):]
    entries = []
    for raw in data[newline + 1:cut + 1].splitlines():
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
    return entries, blob
