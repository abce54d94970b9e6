"""Command-line entry points: train, eval, forecast, gradcheck, export-weights.

Exit codes: 0 success, 2 invalid config/data/checkpoint, 3 training
divergence; gradcheck exits 1 when the error exceeds the tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import ConfigError, RunConfig, load_config, render_config
from .data import DataError, SeriesFrame, SplitSpec, chronological_split, \
    load_csv, make_windows, standardize, synth_multiscale
from .evaluation import MetricRow, aggregate_seeds, evaluate, export_amwg, \
    export_granularity_forecasts, write_amwg_csv, write_metric_rows, \
    write_seed_summaries
from .model import CheckpointError, check_params_match, forward, \
    load_checkpoint, param_layout, save_checkpoint
from .baselines import baseline_param_layout
from .config import BaselineConfig, ModelConfig
from .training import TrainingDiverged, gradcheck, train, write_train_report


def _load_frame(run_cfg: RunConfig) -> SeriesFrame:
    if run_cfg.data_path is not None:
        return load_csv(run_cfg.data_path)
    if run_cfg.synth_length is not None:
        return synth_multiscale(run_cfg.synth_length, run_cfg.synth_channels,
                                run_cfg.synth_seed)
    raise ConfigError("config describes no dataset (data.path or "
                      "data.synth_length required)")


def _prepare(run_cfg: RunConfig):
    """Load, split chronologically, standardize with train statistics, and
    window every split."""
    frame = _load_frame(run_cfg)
    spec = SplitSpec(ratios=run_cfg.ratios, lookback=run_cfg.lookback,
                     horizon=run_cfg.horizon)
    train_frame, val_frame, test_frame = chronological_split(frame, spec)
    train_frame, stats = standardize(train_frame)
    val_frame, _ = standardize(val_frame, stats)
    test_frame, _ = standardize(test_frame, stats)
    cfg = run_cfg.resolve_model(frame.num_channels)
    windows = tuple(make_windows(f, run_cfg.lookback, run_cfg.horizon)
                    for f in (train_frame, val_frame, test_frame))
    return cfg, windows


def _dataset_label(run_cfg: RunConfig) -> str:
    if run_cfg.dataset_name:
        return run_cfg.dataset_name
    if run_cfg.data_path:
        return Path(run_cfg.data_path).stem
    return "synthetic"


def _write_config_echo(run_cfg: RunConfig, channels: int, out_dir: Path):
    resolved = dataclasses.replace(run_cfg, channels=channels,
                                   out_dir=str(out_dir))
    (out_dir / "config_resolved.cfg").write_text(render_config(resolved),
                                                 encoding="utf-8")


def _train_one_seed(run_cfg: RunConfig, seed: int, out_dir: str) -> MetricRow:
    """Train a single seed end to end; standalone so seeds can run in
    separate processes."""
    cfg, (train_w, val_w, test_w) = _prepare(run_cfg)
    settings = dataclasses.replace(run_cfg.train, seed=seed)
    params, report = train(cfg, train_w, val_w, settings)
    out = Path(out_dir)
    save_checkpoint(out / f"seed{seed}.ckpt", params)
    write_train_report(report, out / f"seed{seed}_report.csv",
                       out / f"seed{seed}_summary.txt")
    return evaluate(params, cfg, test_w, dataset=_dataset_label(run_cfg),
                    seed=seed)


def cmd_train(args) -> int:
    run_cfg = load_config(args.config)
    if args.seed is not None:
        run_cfg.seeds = tuple(args.seed)
        run_cfg.validate()
    out_dir = Path(args.out or run_cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frame = _load_frame(run_cfg)  # fail fast on data problems
    run_cfg.resolve_model(frame.num_channels)
    _write_config_echo(run_cfg, frame.num_channels, out_dir)

    rows: list[MetricRow] = []
    if args.parallel_seeds and len(run_cfg.seeds) > 1:
        workers = min(len(run_cfg.seeds), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_train_one_seed, run_cfg, seed, str(out_dir))
                       for seed in run_cfg.seeds]
            rows = [f.result() for f in futures]
    else:
        for seed in run_cfg.seeds:
            rows.append(_train_one_seed(run_cfg, seed, str(out_dir)))
    for row in rows:
        print(f"seed {row.seed}: test mse {row.mse:.6f} mae {row.mae:.6f}")
    write_metric_rows(out_dir / "metrics.csv", rows)
    write_seed_summaries(out_dir / "summary.csv", aggregate_seeds(rows))
    print(f"wrote {len(rows)} checkpoint(s) and reports to {out_dir}")
    return 0


def _load_verified_checkpoint(ckpt_path: str, cfg):
    params = load_checkpoint(ckpt_path)
    layout = (baseline_param_layout(cfg) if isinstance(cfg, BaselineConfig)
              else param_layout(cfg))
    check_params_match(params, cfg, layout=layout)
    return params


def cmd_eval(args) -> int:
    run_cfg = load_config(args.config)
    cfg, (_, _, test_w) = _prepare(run_cfg)
    params = _load_verified_checkpoint(args.checkpoint, cfg)
    row = evaluate(params, cfg, test_w, dataset=_dataset_label(run_cfg),
                   seed=args.seed[0] if args.seed else 0)
    out_dir = Path(args.out or run_cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config_echo(run_cfg, cfg.channels, out_dir)
    write_metric_rows(out_dir / "metrics.csv", [row])
    print(f"test mse {row.mse:.6f} mae {row.mae:.6f}")
    return 0


def cmd_forecast(args) -> int:
    run_cfg = load_config(args.config)
    cfg, (_, _, test_w) = _prepare(run_cfg)
    if not isinstance(cfg, ModelConfig):
        raise ConfigError("forecast needs model.kind = mdmixer (baselines "
                          "have no per-granularity outputs)")
    params = _load_verified_checkpoint(args.checkpoint, cfg)
    index = args.window
    if index < 0 or index >= len(test_w):
        raise ConfigError(f"window index {index} out of range "
                          f"[0, {len(test_w) - 1}]")
    out_dir = Path(args.out or run_cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config_echo(run_cfg, cfg.channels, out_dir)
    window = test_w.inputs[index:index + 1]
    output = forward(window, params, cfg)
    paths = export_granularity_forecasts(output, out_dir)
    heat_batch = test_w.inputs[:min(len(test_w), 256)]
    heatmap = export_amwg(params, cfg, heat_batch)
    write_amwg_csv(out_dir / "amwg_heatmap.csv", heatmap)
    print(f"wrote {len(paths)} forecast file(s) and amwg_heatmap.csv to {out_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    run_cfg = load_config(args.config)
    channels = run_cfg.channels
    if channels is None:
        channels = _load_frame(run_cfg).num_channels
    cfg = run_cfg.resolve_model(channels)
    seed = args.seed[0] if args.seed else run_cfg.seeds[0]
    report = gradcheck(cfg, seed=seed, h=args.h, tol=args.tol)
    print(f"max relative error {report.max_rel_err:.3e} "
          f"(worst: {report.worst_param}, tolerance {report.tolerance:g})")
    return 0 if report.passed else 1


def cmd_export_weights(args) -> int:
    run_cfg = load_config(args.config)
    cfg, (_, _, test_w) = _prepare(run_cfg)
    if not isinstance(cfg, ModelConfig):
        raise ConfigError("export-weights needs model.kind = mdmixer")
    params = _load_verified_checkpoint(args.checkpoint, cfg)
    out_dir = Path(args.out or run_cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config_echo(run_cfg, cfg.channels, out_dir)
    heat_batch = test_w.inputs[:min(len(test_w), 256)]
    heatmap = export_amwg(params, cfg, heat_batch)
    write_amwg_csv(out_dir / "amwg_heatmap.csv", heatmap)
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
