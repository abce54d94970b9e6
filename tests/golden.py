"""Golden outputs that fix the forecaster's and the baselines' numbers.

``test_golden.py`` recomputes every case below and compares it with
``golden.npz``. Refactors must reproduce the recorded values:

* value records, for every case: the norm and two projections of every
  output, compared norm-relative (``TOLERANCE``: 1e-6 in float32, 1e-12
  in float64) on every run. For mdmixer cases the outputs are
  ``final``, every ``per_granularity`` series, ``gate_weights``, the loss
  breakdown and every gradient tensor; for baseline cases every gradient
  tensor, plus the forecast itself.
* mdmixer bit records: SHA-256 digests (dtype, shape and bytes) of the
  same outputs, in float32 and float64, so equality is bit for bit. The
  bits of a float product depend on the BLAS library, the core kernel it
  dispatched to and its thread count, so the fixture stores that
  environment record and the bit check runs only where it matches.

Inputs are a seeded batch of B=8 windows with per-channel level and
scale, and seeded parameters perturbed off init so that every bias is
nonzero (with zero biases the order of a bias add cannot show).

Each tensor's perturbation and each output's projections are drawn from
a generator seeded by its own label (``labelled_rng``), so a label's
record does not depend on which other labels its case holds: a change
that adds or drops a tensor adds or drops only that tensor's rows.

Record the fixture from the code on the import path with

    PYTHONPATH=src python tests/golden.py

which overwrites ``tests/golden.npz``; do it only at a commit whose
outputs are the reference. A change that moves the bits of some cases
on purpose, within tolerance, re-records only their digests with

    PYTHONPATH=src python tests/golden.py --digests CASE [CASE ...]

which keeps every value record. ``--check`` runs every value check and
exits 1 on a failure; the tests run it with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import sys
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
    # 256 rows: the heads' first products run through the folded embedding
    cases["channels32"] = ModelConfig(**{**base, "channels": 32})
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


def labelled_rng(stream: int, label: str) -> np.random.Generator:
    """A generator seeded by ``stream`` and ``label`` alone."""
    return np.random.default_rng([SEED, stream, *label.encode("utf-8")])


def perturbed(params: ParamSet, dtype) -> ParamSet:
    """Init plus noise seeded by each tensor's name, rounded to float32
    first so both dtypes run the same parameter values."""
    return ParamSet({
        name: (arr + labelled_rng(1, name).normal(0.0, 0.02, size=arr.shape))
        .astype(np.float32).astype(dtype) for name, arr in params.items()})


def digest(arr) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    hasher = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    hasher.update(arr.tobytes())
    return np.frombuffer(hasher.digest(), dtype=np.uint8)


def value_stats(outputs: dict[str, np.ndarray]) -> np.ndarray:
    """One row (norm, projection, projection) per labelled array, in
    float64; the two projections are onto unit directions seeded by the
    label."""
    stats = []
    for label, arr in outputs.items():
        flat = np.asarray(arr).astype(np.float64).ravel()
        proj = labelled_rng(2, label).normal(size=(2, flat.size))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        stats.append([np.linalg.norm(flat), *(proj @ flat)])
    return np.array(stats)


def stats_errors(stats: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per row, the largest deviation relative to the recorded norm; a row
    recorded as exactly zero must stay exactly zero."""
    diff = np.abs(stats - want).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = diff / want[:, 0]
    err[diff == 0] = 0.0
    return err


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
    return {"forecast": baseline_forward(x, params, cfg),
            "grad_stats": value_stats({f"grad {name}": grad
                                       for name, grad in grads.items()})}


def key(case: str, dtype, what: str) -> str:
    return f"{case}.{np.dtype(dtype).name}.{what}"


def value_errors(fixture: dict, case: str, dtype) -> dict[str, float]:
    """Label -> norm-relative deviation from the value records, for every
    output of one case (mdmixer or baseline)."""
    errors = {}
    if case in MDMIXER_CASES:
        outputs = mdmixer_outputs(MDMIXER_CASES[case], dtype)
        labels, stats = list(outputs), value_stats(outputs)
        want = fixture[key(case, dtype, "values")]
    else:
        outputs = baseline_outputs(BASELINE_CASES[case], dtype)
        forecast = outputs["forecast"]
        recorded = fixture[key(case, dtype, "forecast")]
        errors["forecast"] = (
            float(np.linalg.norm(forecast.astype(np.float64) - recorded)
                  / np.linalg.norm(recorded))
            if forecast.dtype == dtype else np.inf)
        stats, want = outputs["grad_stats"], fixture[key(case, dtype, "grad_stats")]
        labels = [f"grad[{i}]" for i in range(len(stats))]
    if stats.shape != want.shape:
        return {**errors, "number of outputs": np.inf}
    return {**errors, **dict(zip(labels, stats_errors(stats, want).tolist()))}


def value_failures(fixture: dict, case: str, dtype) -> dict[str, float]:
    """The entries of ``value_errors`` beyond ``TOLERANCE``."""
    return {label: err for label, err in value_errors(fixture, case, dtype).items()
            if not err <= TOLERANCE[dtype]}


# ---------------------------------------------------------------------------
# environment record


def _openblas_call(lib, name: str, restype):
    for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                   f"openblas_{name}64_", f"openblas_{name}"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            return fn()
    return None


def blas_environment() -> dict:
    """BLAS name and version, the core kernel set OpenBLAS dispatched to
    at load time, and its effective thread count (None where the library
    is not an OpenBLAS this process can find among its mapped files)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    env = {"blas": name, "core": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return env
    for path in paths:
        lib = ctypes.CDLL(path)
        core = _openblas_call(lib, "get_corename", ctypes.c_char_p)
        threads = _openblas_call(lib, "get_num_threads", ctypes.c_int)
        if core is not None and threads is not None:
            return {**env, "core": core.decode(), "threads": threads}
    return env


def recorded_environment(fixture: dict) -> dict:
    return json.loads(str(fixture["environment"]))


# ---------------------------------------------------------------------------
# recording and checking


def record(path: Path = FIXTURE, digest_cases: list[str] | None = None):
    """Record the whole fixture, or with ``digest_cases`` only those
    mdmixer cases' digests (every value record is kept)."""
    env = blas_environment()
    if digest_cases is None:
        arrays = {}
        cases = list(MDMIXER_CASES)
    else:
        with np.load(path) as data:
            arrays = dict(data)
        if recorded_environment(arrays) != env:
            raise SystemExit(f"fixture digests were recorded under "
                             f"{recorded_environment(arrays)}, this is {env}")
        cases = digest_cases
    for case in cases:
        for dtype in DTYPES:
            outputs = mdmixer_outputs(MDMIXER_CASES[case], dtype)
            arrays[key(case, dtype, "digests")] = np.stack(
                [digest(a) for a in outputs.values()])
            if digest_cases is None:
                arrays[key(case, dtype, "values")] = value_stats(outputs)
    if digest_cases is None:
        for case, cfg in BASELINE_CASES.items():
            for dtype in DTYPES:
                for what, value in baseline_outputs(cfg, dtype).items():
                    arrays[key(case, dtype, what)] = value
    arrays["environment"] = np.array(json.dumps(env, sort_keys=True))
    np.savez_compressed(path, **arrays)
    print(f"wrote {path} ({path.stat().st_size} bytes, {len(arrays)} arrays) "
          f"under {env}")


def check(path: Path = FIXTURE) -> int:
    """Run every value check; print the environment and each failure."""
    with np.load(path) as data:
        fixture = dict(data)
    print("environment " + json.dumps(blas_environment(), sort_keys=True))
    failures = 0
    for case in [*MDMIXER_CASES, *BASELINE_CASES]:
        for dtype in DTYPES:
            bad = value_failures(fixture, case, dtype)
            if bad:
                failures += 1
                print(f"FAILED {case} {np.dtype(dtype).name}: {bad}")
    print(f"{failures} failing cases")
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="record or check golden.npz")
    parser.add_argument("--digests", nargs="+", choices=list(MDMIXER_CASES),
                        metavar="CASE", help="re-record only these digests")
    parser.add_argument("--check", action="store_true",
                        help="run the value checks, record nothing")
    args = parser.parse_args()
    if args.check:
        sys.exit(check())
    record(digest_cases=args.digests)
