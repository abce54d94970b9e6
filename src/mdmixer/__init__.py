"""Multi-granularity mixing forecaster for long-term multivariate series."""

from .config import BaselineConfig, ConfigError, ModelConfig, RunConfig, \
    SynthChannel, TrainSettings
from .data import DataError, SplitSpec, WindowBatch, chronological_split, \
    load_csv, make_windows, standardize, synth_multiscale
from .model import ForecastOutput, ParamSet, forward, granularity_schedule, \
    init_params, load_checkpoint, save_checkpoint
from .baselines import baseline_forward, init_baseline_params
from .training import LossBreakdown, TrainReport, TrainingDiverged, adamw_step, \
    alignment_targets, backward, gradcheck, main_loss, total_loss, train
from .evaluation import MetricRow, aggregate_seeds, evaluate, export_amwg, mae, mse

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig", "ConfigError", "ModelConfig", "RunConfig", "SynthChannel",
    "TrainSettings", "DataError", "SplitSpec", "WindowBatch",
    "chronological_split", "load_csv", "make_windows", "standardize",
    "synth_multiscale", "ForecastOutput", "ParamSet", "forward",
    "granularity_schedule", "init_params", "load_checkpoint", "save_checkpoint",
    "baseline_forward", "init_baseline_params", "LossBreakdown", "TrainReport",
    "TrainingDiverged", "adamw_step", "alignment_targets", "backward",
    "gradcheck", "main_loss", "total_loss", "train", "MetricRow",
    "aggregate_seeds", "evaluate", "export_amwg", "mae", "mse",
]
