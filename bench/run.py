#!/usr/bin/env python3
"""End-to-end benchmark of the mdmixer forecaster.

    python3 bench/run.py --workload ett_c7 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # each workload in its own process

Each workload is a closed loop with one caller. Within the time budget it
repeats a fixed-size user session: generate and window the data, train
for a fixed epoch budget, evaluate the test split, save and reload a
checkpoint, and serve single-window forecasts from the reloaded
parameters. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The BLAS thread count is part of the measurement, so it is fixed here,
# before NumPy loads OpenBLAS, and recorded with every result.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
from tracing import BASELINE_STAGES, Tracer, baseline_stages, model_stages  # noqa: E402

MIN_SESSIONS = 3
SETUP_REPEATS = 3          # set-ups per session at least ...
SETUP_MIN_S = 0.25         # ... and until this long; setup_s is their mean
REPLAY_SHARE = 0.2         # share of a traced run spent on the stage replay
GRAD_BATCH = 8             # windows in the directional gradient check
GRAD_STEP = 1e-5
GRAD_TOL = 1e-4            # the repository's gradcheck tolerance
PERIODS = (24, 48, 96, 168, 12, 192, 336)
# The seed makes the data; the model is initialised the same way on every
# seed, so test_mse and test_mae vary across seeds only with the data. The
# noise is small next to the sinusoids, so a trained model beats the zero
# forecast (MSE about 1 in train-standardized units) by a wide margin and
# a change that skips training or emits zeros moves test_mse well past
# its bound.
TRAIN_SEED = 0
NOISE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                      # "mdmixer" or a baselines kind
    channels: int
    horizon: int
    rows: int                      # length of the generated series
    ratios: tuple[float, float, float]
    epochs: int                    # fixed epoch budget of every train call
    forecasts: int                 # single-window requests per session
    lookback: int = 96
    batch: int = 32
    lr: float = 1e-3
    model: dict = field(default_factory=dict)     # ModelConfig overrides
    baseline: dict = field(default_factory=dict)  # BaselineConfig overrides


# Sizes are chosen per workload so one session fits a few seconds and
# training, evaluation and forecasting each take a similar share of it:
# the machine's speed drifts, and a metric measured over a longer share
# of the run drifts less between runs. Every split holds at least one
# window at the workload's horizon. The training batch and learning rate
# of long_f720 and wide_c321 give them enough optimizer steps within one
# session to beat the zero forecast clearly.
WORKLOADS = {w.name: w for w in (
    Workload("ett_c7",
             "paper ETT shape (C=7, T=F=96, default model): small arithmetic, "
             "so Python dispatch, per-head loops, reverse pass and AdamW dominate",
             "mdmixer", channels=7, horizon=96, rows=8000,
             ratios=(0.2, 0.05, 0.75), epochs=2, forecasts=1000),
    Workload("long_f720",
             "F=720 horizon: mixing, upsampling, alignment pooling, AdamW over "
             "4.4M parameters and 17.6 MB checkpoints grow with the horizon",
             "mdmixer", channels=7, horizon=720, rows=2824,
             ratios=(0.345, 0.26, 0.395), epochs=1, forecasts=200, batch=8),
    Workload("wide_c321",
             "C=321 (Electricity-sized): BLAS- and memory-bound embedding, heads, "
             "decompose, patch and batch gather; EVAL_BATCH sets peak RSS",
             "mdmixer", channels=321, horizon=96, rows=740,
             ratios=(0.35, 0.17, 0.48), epochs=2, forecasts=200, batch=4,
             lr=5e-3),
    Workload("dual_branch_c7",
             "dual_branch baseline at C=7, T=F=96: the baselines path and its "
             "backward; a change made only in model.py should not move it",
             "dual_branch", channels=7, horizon=96, rows=40000,
             ratios=(0.3, 0.05, 0.65), epochs=2, forecasts=6000),
)}

# End-to-end metrics with a bound, name -> unit. The forecast latencies
# and failed_ops_ratio are printed with them but carry no bound. A single
# forecast is mostly interpreter overhead, and on a small shared machine
# its median moves by up to 1.6x between runs of the same code as the
# host's load changes; host preemption stalls a few requests in some runs
# and none in others, which moves the p99 as much. Forecast time still
# counts in run_wall_s. failed_ops_ratio is 0 whenever a run is correct.
END_TO_END = {
    "setup_s": "s",
    "train_windows_per_s": "windows/s",
    "eval_windows_per_s": "windows/s",
    "run_wall_s": "s",
    "peak_rss_mb": "MB",
    "test_mse": "std2",
    "test_mae": "std",
}

# Per-layer metrics timed by spans during the workload's own traced
# sessions, and the ones timed by replaying stage functions on sampled
# training batches (ms per forward pass).
IN_RUN_MS = ("data.setup", "data.gather", "model.save_checkpoint",
             "model.load_checkpoint", "training.backward", "training.reverse",
             "training.adamw", "evaluation.batch")
REPLAY_MS = ("preprocess.instance_normalize", "preprocess.decompose",
             "preprocess.patch", "model.embed", "model.season_heads",
             "model.trend_heads", "model.mim", "model.amwg", "model.upsample",
             "model.fuse", "model.forward", "model.forward_glue",
             "model.check_params", "training.alignment_targets",
             "baselines.forward", "baselines.backward")
COUNTS = ("training.steps", "training.windows", "evaluation.windows")
PER_LAYER = {**{f"{n}_ms": "ms" for n in IN_RUN_MS + REPLAY_MS},
             "evaluation.forecast_p50_ms": "ms", "evaluation.forecast_p99_ms": "ms",
             **{n: "count" for n in COUNTS}, "trace.overhead_pct": "%"}


def load_program() -> SimpleNamespace:
    """Import the mdmixer modules from this checkout's ``src``, never from
    an installed copy."""
    if not (SRC / "mdmixer" / "__init__.py").is_file():
        raise ImportError(f"no mdmixer package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("config", "data", "preprocess", "model", "baselines",
             "training", "evaluation")
    return SimpleNamespace(**{n: importlib.import_module(f"mdmixer.{n}")
                              for n in names})


class Ops:
    """Operations attempted and failed: train and evaluate calls, forecast
    requests and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def raised(self, what: str):
        traceback.print_exc(file=sys.stderr)
        self.check(False, f"{what} raised")


def synth_channels(mods, w: Workload):
    return [mods.config.SynthChannel(period=PERIODS[i % len(PERIODS)],
                                     amplitude=1.0 + 0.25 * (i % 3),
                                     slope=0.0, noise=NOISE)
            for i in range(w.channels)]


def config_for(mods, w: Workload):
    if w.kind == "mdmixer":
        return mods.config.ModelConfig(lookback=w.lookback, horizon=w.horizon,
                                       channels=w.channels, **w.model)
    return mods.config.BaselineConfig(kind=w.kind, lookback=w.lookback,
                                      horizon=w.horizon, channels=w.channels,
                                      **w.baseline)


def init_for(mods, cfg, seed: int):
    if isinstance(cfg, mods.config.BaselineConfig):
        return mods.baselines.init_baseline_params(cfg, seed)
    return mods.model.init_params(cfg, seed)


def forecast_ok(out, w: Workload) -> bool:
    return (isinstance(out, np.ndarray) and out.shape == (1, w.horizon, w.channels)
            and bool(np.isfinite(out).all()))


def run_session(mods, w: Workload, seed: int, tracer: Tracer, ops: Ops,
                workdir: Path) -> tuple[dict, dict] | None:
    """One user session of fixed size: (times, objects), or None when an
    operation raised. ``times`` holds only scalars and the forecast
    latencies; ``objects`` holds the session's parameters and windows for
    the checks after the last session."""
    data, training, evaluation, model = (mods.data, mods.training,
                                         mods.evaluation, mods.model)
    cfg = config_for(mods, w)
    setups, block_started = 0, time.perf_counter()
    # the session itself starts at the last set-up
    while setups < SETUP_REPEATS or time.perf_counter() - block_started < SETUP_MIN_S:
        started = time.perf_counter()
        with tracer.span("data.setup"):
            frame = data.synth_multiscale(w.rows, synth_channels(mods, w), seed)
            spec = data.SplitSpec(ratios=w.ratios, lookback=w.lookback,
                                  horizon=w.horizon)
            train_f, val_f, test_f = data.chronological_split(frame, spec)
            train_f, stats = data.standardize(train_f)
            val_f, _ = data.standardize(val_f, stats)
            test_f, _ = data.standardize(test_f, stats)
            train_w, val_w, test_w = (data.make_windows(f, w.lookback, w.horizon)
                                      for f in (train_f, val_f, test_f))
        with tracer.span("init_params"):
            init_for(mods, cfg, TRAIN_SEED)
        setups += 1
    setup_s = (time.perf_counter() - block_started) / setups

    settings = mods.config.TrainSettings(batch_size=w.batch, max_epochs=w.epochs,
                                         patience=w.epochs, lr=w.lr,
                                         seed=TRAIN_SEED)
    try:
        t0 = time.perf_counter()
        with tracer.span("training.train"):
            params, _ = training.train(cfg, train_w, val_w, settings)
        train_s = time.perf_counter() - t0
    except Exception:
        ops.raised("train")
        return None
    ops.check(True, "train")

    try:
        t0 = time.perf_counter()
        with tracer.span("evaluation.evaluate"):
            row = evaluation.evaluate(params, cfg, test_w)
        eval_s = time.perf_counter() - t0
    except Exception:
        ops.raised("evaluate")
        return None
    if not ops.check(math.isfinite(row.mse) and math.isfinite(row.mae),
                     "evaluate returned a non-finite metric"):
        return None

    path = workdir / "session.ckpt"
    try:
        with tracer.span("model.save_checkpoint"):
            model.save_checkpoint(path, params)
        with tracer.span("model.load_checkpoint"):
            loaded = model.load_checkpoint(path)
    except Exception:
        ops.raised("checkpoint round trip")
        return None

    rng = np.random.default_rng(seed)
    latencies = []
    for i in rng.integers(0, len(test_w), size=w.forecasts):
        window = test_w.inputs[i:i + 1]
        try:
            with tracer.span("bench.forecast"):
                t0 = time.perf_counter()
                out = evaluation.predict(window, loaded, cfg)
                latencies.append((time.perf_counter() - t0) * 1e3)
        except Exception:
            ops.raised("forecast")
            continue
        ops.check(forecast_ok(out, w), "forecast not finite or not (1, F, C)")
    wall_s = time.perf_counter() - started

    same = (params.names() == loaded.names() and all(
        loaded[n].dtype == a.dtype and loaded[n].shape == a.shape
        and loaded[n].tobytes() == a.tobytes() for n, a in params.items()))
    ops.check(same, "checkpoint round trip not bit-exact")
    times = dict(setup_s=setup_s, train_s=train_s, eval_s=eval_s, wall_s=wall_s,
                 train_windows=w.epochs * len(train_w), test_windows=len(test_w),
                 mse=row.mse, mae=row.mae, latencies=latencies)
    objects = dict(row=row, params=params, loaded=loaded, cfg=cfg,
                   train_w=train_w, test_w=test_w)
    return times, objects


def reload_matches(mods, s: dict, ops: Ops):
    """evaluate on the reloaded parameters equals evaluate in memory."""
    try:
        again = mods.evaluation.evaluate(s["loaded"], s["cfg"], s["test_w"])
    except Exception:
        ops.raised("evaluate on reloaded parameters")
        return
    ops.check((again.mse, again.mae) == (s["row"].mse, s["row"].mae),
              "evaluate on reloaded parameters differs from in-memory")


def beats_zero_forecast(s: dict, ops: Ops):
    """The trained model's test MSE is below that of forecasting zero (the
    train mean, after standardizing) on the same test windows."""
    zero_mse = float(np.mean(np.square(s["test_w"].targets, dtype=np.float64)))
    ops.check(s["row"].mse < zero_mse,
              f"test MSE {s['row'].mse:.4g} not below the zero forecast's "
              f"{zero_mse:.4g}")


def loss_value(mods, x, y, params, cfg) -> float:
    if isinstance(cfg, mods.config.BaselineConfig):
        return mods.training.main_loss(
            mods.baselines.baseline_forward(x, params, cfg), y)
    return mods.training.total_loss(mods.model.forward(x, params, cfg), y, cfg).total


def gradient_check(mods, s: dict, seed: int) -> tuple[str, dict]:
    """Directional derivative of training.backward at the workload's model
    shape, in float64: <grad L, v> against central differences at steps h
    and h/10 for one seeded unit direction v.

    The check passes when either quotient agrees with the analytic value.
    When neither does and the two quotients disagree with each other, the
    step crosses an L1 or ReLU kink and the result is reported as a kink;
    when neither does and they agree with each other, the gradient is
    wrong.
    """
    rng = np.random.default_rng(seed)
    train_w = s["train_w"]
    idx = np.sort(rng.choice(len(train_w), size=min(GRAD_BATCH, len(train_w)),
                             replace=False))
    x = train_w.inputs[idx].astype(np.float64)
    y = train_w.targets[idx].astype(np.float64)
    cfg = s["cfg"]
    params = s["params"].astype(np.float64)
    grads, _ = mods.training.backward(x, y, params, cfg)
    direction = {n: rng.standard_normal(a.shape) for n, a in params.items()}
    norm = math.sqrt(sum(float(np.square(v).sum()) for v in direction.values()))
    analytic = sum(float((grads[n] * v).sum()) for n, v in direction.items()) / norm

    def quotient(h):
        def at(step):
            shifted = mods.model.ParamSet({n: a + (step / norm) * direction[n]
                                           for n, a in params.items()})
            return loss_value(mods, x, y, shifted, cfg)
        return (at(h) - at(-h)) / (2.0 * h)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-8)

    coarse, fine = quotient(GRAD_STEP), quotient(GRAD_STEP / 10)
    detail = dict(analytic=analytic, fd_h=coarse, fd_h10=fine,
                  rel_err_h=rel(coarse, analytic), rel_err_h10=rel(fine, analytic),
                  tol=GRAD_TOL)
    if min(rel(coarse, analytic), rel(fine, analytic)) < GRAD_TOL:
        return "pass", detail
    if rel(coarse, fine) >= GRAD_TOL:
        return "kink", detail
    return "fail", detail


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): p99, or the highest percentile with at least
    ten samples beyond it when there are fewer than 1000."""
    ordered = sorted(samples)
    q = min(0.99, 1.0 - 10.0 / len(ordered)) if len(ordered) > 10 else 0.5
    return 100 * q, ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(sessions: list[dict], peak_rss_mb: float) -> dict[str, float]:
    """Timings are means over the run's sessions, not medians: a small
    shared machine switches between speeds about 1.6x apart for seconds at
    a time, and the median of a few sessions flips between the two."""
    def total(key):
        return sum(s[key] for s in sessions)

    return {
        "setup_s": total("setup_s") / len(sessions),
        "train_windows_per_s": total("train_windows") / total("train_s"),
        "eval_windows_per_s": total("test_windows") / total("eval_s"),
        "run_wall_s": total("wall_s") / len(sessions),
        "peak_rss_mb": peak_rss_mb,
        "test_mse": sessions[0]["mse"],
        "test_mae": sessions[0]["mae"],
    }


def per_layer(tracer: Tracer, replays: dict[str, list[float]],
              plain: list[dict], traced: list[dict]) -> dict[str, float]:
    def median(values):
        return statistics.median(values) if values else 0.0

    forecasts = [x for s in traced for x in s["latencies"]]

    out = {
        "data.setup_ms": median(tracer.durations_ms("data.setup")),
        "data.gather_ms": median(tracer.durations_ms("data.gather")),
        "model.save_checkpoint_ms": median(tracer.durations_ms("model.save_checkpoint")),
        "model.load_checkpoint_ms": median(tracer.durations_ms("model.load_checkpoint")),
        "training.backward_ms": median(tracer.durations_ms("training.backward")),
        "training.reverse_ms": median(tracer.reverse_ms()),
        "training.adamw_ms": median(tracer.durations_ms("training.adamw_step")),
        "evaluation.batch_ms": median(tracer.durations_ms(
            "evaluation.predict", parent_not="bench.forecast")),
        "evaluation.forecast_p50_ms": median(forecasts),
        "evaluation.forecast_p99_ms": tail_percentile(forecasts)[1],
    }
    for name in REPLAY_MS:
        out[f"{name}_ms"] = median(replays.get(name, []))
    out["training.steps"] = len(tracer.durations_ms("training.backward"))
    out["training.windows"] = tracer.rows("training.backward")
    out["evaluation.windows"] = tracer.rows("evaluation.predict",
                                            parent_not="bench.forecast")
    plain_wall = statistics.median(s["wall_s"] for s in plain)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    return out


def replay(mods, w: Workload, s: dict, seed: int, deadline: float,
           absent: dict[str, str]) -> dict[str, list[float]]:
    """Time the stage functions of the workload's own kind on sampled
    training batches until the deadline (at least three times). The
    other kind's stage metrics are reported absent."""
    own = model_stages if w.kind == "mdmixer" else baseline_stages
    for name in REPLAY_MS:
        if (name in BASELINE_STAGES) == (w.kind == "mdmixer"):
            absent[name] = f"not run by a {w.kind} workload"
    rng = np.random.default_rng(seed)
    train_w = s["train_w"]
    times: dict[str, list[float]] = {}
    rounds = 0
    while rounds < 3 or time.perf_counter() < deadline:
        idx = rng.choice(len(train_w), size=min(w.batch, len(train_w)), replace=False)
        x, y = train_w.inputs[idx], train_w.targets[idx]
        for name, ms in own(mods, x, y, s["cfg"], s["params"], absent).items():
            times.setdefault(name, []).append(ms)
        rounds += 1
    return times


def measure(mods, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    budget = seconds * (1.0 - REPLAY_SHARE) if trace else seconds
    tracer, ops = Tracer(), Ops()
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Only the scalar times of each session are kept, and the objects of
    # the last one: the peak RSS must not grow with the session count.
    sessions: list[tuple[bool, dict]] = []
    last = None
    grad = ("not run", {})
    replays: dict[str, list[float]] = {}
    try:
        while True:
            # a traced run alternates untraced and traced sessions so the
            # tracing overhead is measured within one process
            traced = trace and len(sessions) % 2 == 1
            if traced:
                tracer.install()
            last = None
            try:
                outcome = run_session(mods, w, seed, tracer, ops, workdir)
            finally:
                tracer.uninstall()
            if outcome is None:
                break
            times, last = outcome
            sessions.append((traced, times))
            typical = statistics.median(x["wall_s"] for _, x in sessions)
            enough = len(sessions) >= (MIN_SESSIONS + 1 if trace else MIN_SESSIONS)
            if enough and time.perf_counter() - started + typical > budget:
                break
        # the user's sessions end here; the checks below are the benchmark's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if last is not None:
            reload_matches(mods, last, ops)
            beats_zero_forecast(last, ops)
            try:
                grad = gradient_check(mods, last, seed)
            except Exception:
                ops.raised("gradient check")
            else:
                ops.check(grad[0] != "fail", "directional gradient check failed")
            if trace:
                replays = replay(mods, w, last, seed, started + seconds,
                                 tracer.absent)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [s for t, s in sessions if not t]
    return dict(ops=ops, sessions=[s for _, s in sessions], plain=plain,
                peak_rss_mb=peak_rss_mb,
                traced=[s for t, s in sessions if t], tracer=tracer,
                replays=replays, grad=grad)


def environment(w: Workload, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return dict(workload=w.name, seed=seed, cpu=cpu, nproc=NPROC,
                blas=blas_name, blas_threads=BLAS_THREADS,
                numpy=np.__version__, python=platform.python_version())


def report(w: Workload, seed: int, trace: bool, m: dict) -> dict:
    """Print the human-readable report; return the result object."""
    ops, sessions = m["ops"], m["sessions"]
    print(f"workload {w.name}  seed {seed}  trace {int(trace)}  "
          f"sessions {len(sessions)}")
    metrics: dict[str, dict] = {}
    if m["plain"]:
        e2e = end_to_end(m["plain"], m["peak_rss_mb"])
        lat = [x for s in m["plain"] for x in s["latencies"]]
        pct, tail = tail_percentile(lat)
        for name, unit in END_TO_END.items():
            print(f"  {name:<22} {e2e[name]:>14.6g} {unit}")
        print(f"  {'forecast_ms_p50':<22} {statistics.median(lat):>14.6g} ms  "
              f"(of {len(lat)} requests; no bound)")
        print(f"  {'forecast_ms_p99':<22} {tail:>14.6g} ms  "
              f"(p{pct:g} of {len(lat)} requests; no bound)")
        print(f"  {'failed_ops_ratio':<22} {ops.failed / max(ops.attempted, 1):>14.6g} "
              f"({ops.failed}/{ops.attempted})")
        if not trace:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    status, detail = m["grad"]
    print(f"  gradient check: {status} "
          + " ".join(f"{k}={v:.6g}" for k, v in detail.items()))
    for note in ops.notes:
        print(f"  FAILED: {note}")
    if trace and m["traced"]:
        tracer = m["tracer"]
        layers = per_layer(tracer, m["replays"], m["plain"], m["traced"])
        print(f"  {'span':<36} {'count':>7} {'med ms':>10} {'self ms':>10} {'self s':>8}")
        for name, count, med, med_self, total_self in tracer.table():
            print(f"  {name:<36} {count:>7} {med:>10.4f} {med_self:>10.4f} "
                  f"{total_self:>8.3f}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<36} {layers[name]:>14.6g} {unit}")
        for name, why in sorted(tracer.absent.items()):
            print(f"  absent: {name} ({why})")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{w.name}-seed{seed}.json").write_text(
            json.dumps(tracer.dump()), encoding="utf-8")
    correct = (ops.failed == 0 and len(metrics) == len(
        PER_LAYER if trace else END_TO_END)
        and all(math.isfinite(v["value"]) for v in metrics.values()))
    print("env " + json.dumps(environment(w, seed)))
    return {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    codes = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        codes.append(proc.returncode)
    return 0 if not any(codes) else 1


def main(argv=None, workloads=None) -> int:
    """``workloads`` replaces the workload table (the self-test passes
    tiny sizes)."""
    workloads = workloads or WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        mods = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    w = workloads[args.workload]
    m = measure(mods, w, args.seed, args.seconds, bool(args.trace))
    result = report(w, args.seed, bool(args.trace), m)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
