"""Command-line entry points: train, eval, forecast, gradcheck, export-weights.

Exit codes: 0 success, 2 invalid config/data/checkpoint, 3 training
divergence; gradcheck exits 1 when the error exceeds the tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import forecaster
from .config import ConfigError, ModelConfig, RunConfig, load_config, render_config
from .data import DataError, SplitSpec, chronological_split, load_csv, \
    make_windows, standardize, synth_multiscale
from .evaluation import MetricRow, aggregate_seeds, evaluate, export_amwg, \
    export_granularity_forecasts, write_amwg_csv, write_lines, \
    write_metric_rows, write_seed_summaries
from .model import CheckpointError, check_params_match, forward, \
    load_checkpoint, save_checkpoint
from .training import TrainingDiverged, gradcheck, train, write_train_report


def _load_series(run_cfg: RunConfig) -> np.ndarray:
    if run_cfg.data_path is not None:
        return load_csv(run_cfg.data_path)
    if run_cfg.synth_length is not None:
        return synth_multiscale(run_cfg.synth_length, run_cfg.synth_channels,
                                run_cfg.synth_seed)
    raise ConfigError("config describes no dataset (data.path or "
                      "data.synth_length required)")


def _prepare(run_cfg: RunConfig):
    """Load, check ``data.channels`` against the data, split chronologically
    and standardize with train statistics; returns the model config and the
    three standardized (T x C) split arrays."""
    series = _load_series(run_cfg)
    channels = series.shape[1]
    if run_cfg.channels is not None and run_cfg.channels != channels:
        raise ConfigError(f"data.channels = {run_cfg.channels} but the data "
                          f"has {channels} channel(s)")
    spec = SplitSpec(ratios=run_cfg.ratios, lookback=run_cfg.lookback,
                     horizon=run_cfg.horizon)
    train_s, val_s, test_s = chronological_split(series, spec)
    train_s, stats = standardize(train_s)
    val_s, _ = standardize(val_s, stats)
    test_s, _ = standardize(test_s, stats)
    return run_cfg.resolve_model(channels), (train_s, val_s, test_s)


def _dataset_label(run_cfg: RunConfig) -> str:
    if run_cfg.dataset_name:
        return run_cfg.dataset_name
    if run_cfg.data_path:
        return Path(run_cfg.data_path).stem
    return "synthetic"


def _load_config(args) -> RunConfig:
    """The config file with ``--seed`` replacing its seed list (for the
    commands that train or initialize per seed)."""
    run_cfg = load_config(args.config)
    if args.seed is not None:
        run_cfg.seeds = tuple(args.seed)
        run_cfg.validate()
    return run_cfg


def _write_config_echo(run_cfg: RunConfig, channels: int, out_dir: Path):
    resolved = dataclasses.replace(run_cfg, channels=channels,
                                   out_dir=str(out_dir))
    write_lines(out_dir / "config_resolved.cfg",
                render_config(resolved).splitlines())


def _train_one_seed(run_cfg: RunConfig, cfg, splits, seed: int, out_dir: str) -> MetricRow:
    """Train one seed from ``_prepare``'s result; a seed's own process is sent
    the three split arrays, which pickle far smaller than their window views."""
    train_w, val_w, test_w = (make_windows(s, run_cfg.lookback, run_cfg.horizon)
                              for s in splits)
    settings = dataclasses.replace(run_cfg.train, seed=seed)
    params, report = train(cfg, train_w, val_w, settings)
    out = Path(out_dir)
    save_checkpoint(out / f"seed{seed}.ckpt", params)
    write_train_report(report, out / f"seed{seed}_report.csv",
                       out / f"seed{seed}_summary.txt")
    return evaluate(params, cfg, test_w, dataset=_dataset_label(run_cfg),
                    seed=seed)


def cmd_train(args) -> int:
    run_cfg = _load_config(args)
    out_dir = Path(args.out or run_cfg.out_dir)
    cfg, splits = _prepare(run_cfg)  # fail fast on data and split problems
    _write_config_echo(run_cfg, cfg.channels, out_dir)

    rows: list[MetricRow] = []
    if args.parallel_seeds and len(run_cfg.seeds) > 1:
        workers = min(len(run_cfg.seeds), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_train_one_seed, run_cfg, cfg, splits, seed,
                                   str(out_dir)) for seed in run_cfg.seeds]
            rows = [f.result() for f in futures]
    else:
        for seed in run_cfg.seeds:
            rows.append(_train_one_seed(run_cfg, cfg, splits, seed, str(out_dir)))
    for row in rows:
        print(f"seed {row.seed}: test mse {row.mse:.6f} mae {row.mae:.6f}")
    write_metric_rows(out_dir / "metrics.csv", rows)
    write_seed_summaries(out_dir / "summary.csv", aggregate_seeds(rows))
    print(f"wrote {len(rows)} checkpoint(s) and reports to {out_dir}")
    return 0


def _open_run(args, mdmixer_only: bool):
    """Start of every command that reads a checkpoint: load and prepare the
    config's data, load the checkpoint and verify it against the model,
    check ``--window`` where the command has it, and only then create the
    output directory with the config echo.

    Returns the run config, the model config, the test windows, the
    parameters and the output directory."""
    run_cfg = load_config(args.config)
    cfg, (_, _, test_s) = _prepare(run_cfg)
    test_w = make_windows(test_s, run_cfg.lookback, run_cfg.horizon)
    if mdmixer_only and run_cfg.model_kind != "mdmixer":
        raise ConfigError(f"{args.command} needs model.kind = mdmixer")
    params = load_checkpoint(args.checkpoint)
    layout = forecaster(cfg)[0]
    check_params_match(params, cfg, layout)
    index = getattr(args, "window", None)
    if index is not None and not 0 <= index < len(test_w):
        raise ConfigError(f"window index {index} out of range "
                          f"[0, {len(test_w) - 1}]")
    out_dir = Path(args.out or run_cfg.out_dir)
    _write_config_echo(run_cfg, cfg.channels, out_dir)
    return run_cfg, cfg, test_w, params, out_dir


def _write_heatmap(params, cfg: ModelConfig, test_w, out_dir: Path):
    """Gate weights averaged over the first 256 test windows."""
    write_amwg_csv(out_dir / "amwg_heatmap.csv",
                   export_amwg(params, cfg, test_w.inputs[:256]))


def cmd_eval(args) -> int:
    run_cfg, cfg, test_w, params, out_dir = _open_run(args,
                                                      mdmixer_only=False)
    row = evaluate(params, cfg, test_w, dataset=_dataset_label(run_cfg),
                   seed=args.seed[0] if args.seed else 0)
    write_metric_rows(out_dir / "metrics.csv", [row])
    print(f"test mse {row.mse:.6f} mae {row.mae:.6f}")
    return 0


def cmd_forecast(args) -> int:
    _, cfg, test_w, params, out_dir = _open_run(args, mdmixer_only=True)
    window = test_w.inputs[args.window:args.window + 1]
    paths = export_granularity_forecasts(forward(window, params, cfg), out_dir)
    _write_heatmap(params, cfg, test_w, out_dir)
    print(f"wrote {len(paths)} forecast file(s) and amwg_heatmap.csv to {out_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    for flag, value in (("--h", args.h), ("--tol", args.tol)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be a positive finite number, got {value}")
    run_cfg = _load_config(args)
    channels = run_cfg.channels
    if channels is None:
        channels = _load_series(run_cfg).shape[1]
    cfg = run_cfg.resolve_model(channels)
    report = gradcheck(cfg, seed=run_cfg.seeds[0], h=args.h, tol=args.tol)
    print(f"max relative error {report.max_rel_err:.3e} "
          f"(worst: {report.worst_param}, tolerance {report.tolerance:g})")
    print(f"worst entry: analytic gradient {report.worst_analytic:.3e}, "
          f"finite-difference noise {report.worst_noise:.1e}")
    return 0 if report.passed else 1


def cmd_export_weights(args) -> int:
    _, cfg, test_w, params, out_dir = _open_run(args, mdmixer_only=True)
    _write_heatmap(params, cfg, test_w, out_dir)
    print(f"wrote amwg_heatmap.csv to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdmixer",
        description="Multi-granularity mixing forecaster: train, evaluate "
                    "and inspect runs driven by a flat key=value config file.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, checkpoint=False, window=False):
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--out", help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, action="append",
                       help="override the config's seed list (repeatable)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        if window:
            p.add_argument("--window", type=int, default=0,
                           help="test window index to forecast")

    p_train = sub.add_parser("train", help="train one checkpoint per seed")
    add_common(p_train)
    p_train.add_argument("--parallel-seeds", action="store_true",
                         help="run seeds in parallel processes, at most one per CPU")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    add_common(p_eval, checkpoint=True)
    p_eval.set_defaults(func=cmd_eval)

    p_forecast = sub.add_parser(
        "forecast", help="export one window's per-granularity forecasts")
    add_common(p_forecast, checkpoint=True, window=True)
    p_forecast.set_defaults(func=cmd_forecast)

    p_grad = sub.add_parser("gradcheck",
                            help="verify gradients against finite differences")
    add_common(p_grad)
    p_grad.add_argument("--h", type=float, default=1e-5,
                        help="finite-difference step")
    p_grad.add_argument("--tol", type=float, default=1e-4,
                        help="max relative error allowed")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_export = sub.add_parser("export-weights",
                              help="export the gate-weight heatmap CSV")
    add_common(p_export, checkpoint=True)
    p_export.set_defaults(func=cmd_export_weights)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
