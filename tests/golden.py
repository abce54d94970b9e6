"""Golden outputs that fix the forecaster's and the baselines' numbers.

``test_golden.py`` recomputes every case below and compares it with
``golden.npz``. Refactors must reproduce the recorded values:

* mdmixer cases: SHA-256 digests (dtype, shape and bytes) of ``final``,
  every ``per_granularity`` series, ``gate_weights``, the loss breakdown
  and every gradient tensor, in float32 and float64, so equality is
  bit for bit.
* baseline cases: the forecast itself, plus the norm and two seeded
  projections of every gradient tensor, compared norm-relative (1e-6 in
  float32, 1e-12 in float64).

Inputs are a seeded batch of B=8 windows with per-channel level and
scale, and seeded parameters perturbed off init so that every bias is
nonzero (with zero biases the order of a bias add cannot show).

Record the fixture from the code on the import path with

    PYTHONPATH=src python tests/golden.py

which overwrites ``tests/golden.npz``; do it only at a commit whose
outputs are the reference.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import numpy as np

from mdmixer.baselines import baseline_forward, init_baseline_params
from mdmixer.config import BaselineConfig, ModelConfig
from mdmixer.model import ParamSet, forward, init_params
from mdmixer.training import backward

FIXTURE = Path(__file__).with_name("golden.npz")
DTYPES = (np.float32, np.float64)
BATCH = 8
SEED = 20250513
TOLERANCE = {np.float32: 1e-6, np.float64: 1e-12}


def _mdmixer_cases() -> dict[str, ModelConfig]:
    base = dict(lookback=96, horizon=96, channels=7)
    cases = {}
    for mim, amwg, align, mpp in itertools.product((True, False), repeat=4):
        name = f"mim{mim:d}_amwg{amwg:d}_align{align:d}_mpp{mpp:d}"
        cases[name] = ModelConfig(**base, use_mim=mim, use_amwg=amwg,
                                  use_align_loss=align, use_mpp=mpp)
    cases["per_channel_pos"] = ModelConfig(**base, pos_encoding="per_channel")
    cases["horizon720"] = ModelConfig(**{**base, "horizon": 720})
    cases["c3_stride10_heads4"] = ModelConfig(**{**base, "channels": 3},
                                              stride=10, heads=4)
    return cases


MDMIXER_CASES = _mdmixer_cases()
BASELINE_CASES = {kind: BaselineConfig(kind=kind, lookback=96, horizon=48,
                                       channels=7)
                  for kind in ("linear_direct", "decomp_linear", "dual_branch")}


def batch(cfg, dtype) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(SEED)
    level = rng.normal(0.0, 3.0, size=(1, 1, cfg.channels))
    scale = rng.uniform(0.5, 2.0, size=(1, 1, cfg.channels))
    x = rng.normal(size=(BATCH, cfg.lookback, cfg.channels)) * scale + level
    y = rng.normal(size=(BATCH, cfg.horizon, cfg.channels)) * scale + level
    return x.astype(dtype), y.astype(dtype)


def perturbed(params: ParamSet, dtype) -> ParamSet:
    """Init plus seeded noise, rounded to float32 first so both dtypes run
    the same parameter values."""
    rng = np.random.default_rng(SEED + 1)
    return ParamSet({name: (arr + rng.normal(0.0, 0.02, size=arr.shape))
                     .astype(np.float32).astype(dtype)
                     for name, arr in params.items()})


def digest(arr) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    hasher = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    hasher.update(arr.tobytes())
    return np.frombuffer(hasher.digest(), dtype=np.uint8)


def mdmixer_outputs(cfg: ModelConfig, dtype) -> dict[str, np.ndarray]:
    """Label -> array, in a fixed order, for one mdmixer case."""
    params = perturbed(init_params(cfg, SEED), dtype)
    x, y = batch(cfg, dtype)
    out = forward(x, params, cfg)
    grads, breakdown = backward(x, y, params, cfg)
    arrays = {"final": out.final}
    for i, series in enumerate(out.per_granularity, start=1):
        arrays[f"per_granularity[{i}]"] = series
    arrays["gate_weights"] = out.gate_weights
    arrays["loss"] = np.array([breakdown.main, *breakdown.align_per_head,
                               breakdown.total], dtype=np.float64)
    for name, grad in grads.items():
        arrays[f"grad {name}"] = grad
    return arrays


def baseline_outputs(cfg: BaselineConfig, dtype) -> dict[str, np.ndarray]:
    """The forecast, and per gradient tensor (norm, projection, projection)."""
    params = perturbed(init_baseline_params(cfg, SEED), dtype)
    x, y = batch(cfg, dtype)
    grads, _ = backward(x, y, params, cfg)
    rng = np.random.default_rng(SEED + 2)
    stats = []
    for _, grad in grads.items():
        flat = grad.astype(np.float64).ravel()
        proj = rng.normal(size=(2, flat.size))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        stats.append([np.linalg.norm(flat), *(proj @ flat)])
    return {"forecast": baseline_forward(x, params, cfg),
            "grad_stats": np.array(stats)}


def key(case: str, dtype, what: str) -> str:
    return f"{case}.{np.dtype(dtype).name}.{what}"


def record(path: Path = FIXTURE):
    arrays = {}
    for case, cfg in MDMIXER_CASES.items():
        for dtype in DTYPES:
            outputs = mdmixer_outputs(cfg, dtype)
            arrays[key(case, dtype, "digests")] = np.stack(
                [digest(a) for a in outputs.values()])
    for case, cfg in BASELINE_CASES.items():
        for dtype in DTYPES:
            for what, value in baseline_outputs(cfg, dtype).items():
                arrays[key(case, dtype, what)] = value
    np.savez_compressed(path, **arrays)
    print(f"wrote {path} ({path.stat().st_size} bytes, {len(arrays)} arrays)")


if __name__ == "__main__":
    record()
