"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL/SKIP line (run with -s to see them).

Criteria 3 and 5 evaluate against the public ETT benchmark CSVs. Those
files are not redistributable with this repository; place ETTh1.csv /
ETTm2.csv under ./data or $MDMIXER_DATA_DIR to enable them, otherwise
they skip with an explicit message.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from mdmixer.config import BaselineConfig, ModelConfig, SynthChannel, \
    TrainSettings
from mdmixer.data import SplitSpec, chronological_split, load_csv, \
    make_windows, standardize, synth_multiscale
from mdmixer.evaluation import evaluate, export_amwg, write_amwg_csv
from mdmixer.model import forward, init_params, upsample
from mdmixer.preprocess import decompose, patch
from mdmixer.training import gradcheck, total_loss, train

from conftest import TINY, dataset_path, rand_batch

GRADCHECK_TOL = 1e-4
GRADCHECK_H = 1e-5
SEEDS = (1, 2, 3)

# Table targets for the desk-scale reproduction, with the stated bands.
ETTH1_TARGET = {"mse": (0.379, 0.04), "mae": (0.386, 0.04)}
ETTM2_TARGET = {"mse": (0.171, 0.03), "mae": (0.248, 0.03)}


@contextmanager
def criterion(number, name):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"criterion {number} ({name}): SKIP - {exc}")
        raise
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    else:
        print(f"criterion {number} ({name}): PASS")


def _benchmark_windows(csv_path, lookback=96, horizon=96):
    frame = load_csv(csv_path)
    spec = SplitSpec(ratios=(0.6, 0.2, 0.2), lookback=lookback, horizon=horizon)
    train_f, val_f, test_f = chronological_split(frame, spec)
    train_f, stats = standardize(train_f)
    val_f, _ = standardize(val_f, stats)
    test_f, _ = standardize(test_f, stats)
    return (make_windows(train_f, lookback, horizon),
            make_windows(val_f, lookback, horizon),
            make_windows(test_f, lookback, horizon),
            frame.shape[1])


def _synth_windows(channels, n, lookback=96, horizon=96, data_seed=11):
    frame = synth_multiscale(n, channels, seed=data_seed)
    spec = SplitSpec(ratios=(0.6, 0.2, 0.2), lookback=lookback, horizon=horizon)
    train_f, val_f, test_f = chronological_split(frame, spec)
    train_f, stats = standardize(train_f)
    val_f, _ = standardize(val_f, stats)
    test_f, _ = standardize(test_f, stats)
    return (make_windows(train_f, lookback, horizon),
            make_windows(val_f, lookback, horizon),
            make_windows(test_f, lookback, horizon))


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradients():
    with criterion(1, "gradient correctness"):
        worst = 0.0
        for use_mim, use_amwg, use_align in itertools.product((True, False),
                                                              repeat=3):
            for alpha in (0.0, 0.05):
                cfg = ModelConfig(**{**TINY, "align_weight": alpha,
                                     "use_mim": use_mim, "use_amwg": use_amwg,
                                     "use_align_loss": use_align})
                report = gradcheck(cfg, seed=0, h=GRADCHECK_H, tol=GRADCHECK_TOL)
                assert report.passed, (
                    f"max_rel_err {report.max_rel_err:.3e} at "
                    f"{report.worst_param} (mim={use_mim} amwg={use_amwg} "
                    f"align={use_align} alpha={alpha})")
                worst = max(worst, report.max_rel_err)
        print(f"  worst max_rel_err over 16 configurations: {worst:.3e}")


# ---------------------------------------------------------------------------
# 2. core identity suite


def test_criterion_2_identity_suite():
    with criterion(2, "core identity suite"):
        rng = np.random.default_rng(0)

        # decomposition reconstructs its input exactly
        for kernel in (1, 3, 25):
            # channel-major, the layout the forecaster passes
            x = rng.normal(size=(3, 4, 96)).transpose(0, 2, 1)
            parts = decompose(x, kernel)
            assert np.abs(parts.trend + parts.seasonal - x).max() < 1e-12

        # patch count follows the padded-geometry formula
        for _ in range(50):
            t = int(rng.integers(4, 240))
            p = int(rng.integers(1, t + 1))
            s = int(rng.integers(1, t + 1))
            assert patch(np.zeros((1, t, 1)), p, s).patches.shape[2] == (t - p) // s + 2

        # gate weights form a simplex over the head axis
        cfg = ModelConfig(**TINY)
        out = forward(rand_batch(rng, 8, 8, 2), init_params(cfg, 1), cfg)
        assert out.gate_weights.min() >= 0
        assert np.abs(out.gate_weights.sum(axis=1) - 1.0).max() < 1e-6

        # upsampling is the identity at G = F and exact on endpoints
        y = rng.normal(size=(2, 3, 96))
        assert np.array_equal(upsample(y, 96), y)
        for g in (1, 2, 5, 48):
            short = rng.normal(size=(2, 3, g))
            up = upsample(short, 96)
            assert np.abs(up[..., 0] - short[..., 0]).max() < 1e-12
            assert np.abs(up[..., -1] - short[..., -1]).max() < 1e-12

        # fusing identical heads with any simplex doubles the signal
        from mdmixer.model import fuse
        a = rng.normal(size=(2, 3, 96))
        weights = rng.dirichlet(np.ones(8), size=(2, 3)).transpose(0, 2, 1)
        assert np.abs(fuse([a] * 8, weights, 96) - 2 * a).max() < 1e-12

        # zero alignment weight collapses the total loss onto the main loss
        cfg0 = ModelConfig(**{**TINY, "align_weight": 0.0})
        x = rand_batch(rng, 4, 8, 2)
        y_true = rand_batch(rng, 4, 4, 2)
        breakdown = total_loss(forward(x, init_params(cfg0, 2), cfg0), y_true, cfg0)
        assert breakdown.total == breakdown.main


# ---------------------------------------------------------------------------
# 3. desk-scale benchmark reproduction


def _reproduce(csv_path, target, dataset):
    train_w, val_w, test_w, channels = _benchmark_windows(csv_path)
    cfg = ModelConfig(lookback=96, horizon=96, channels=channels,
                      patch_len=32, stride=16, embed_dim=64, heads=8,
                      hidden=64, align_weight=0.01)
    rows = []
    for seed in SEEDS:
        settings = TrainSettings(lr=1e-3, batch_size=32, max_epochs=30,
                                 patience=5, seed=seed)
        params, report = train(cfg, train_w, val_w, settings)
        row = evaluate(params, cfg, test_w, dataset=dataset, seed=seed)
        rows.append(row)
        print(f"  {dataset} seed {seed}: test mse {row.mse:.4f} "
              f"mae {row.mae:.4f} (best epoch {report.best_epoch})")
    mse_mean = float(np.mean([r.mse for r in rows]))
    mae_mean = float(np.mean([r.mae for r in rows]))
    print(f"  {dataset} seed mean: mse {mse_mean:.4f} mae {mae_mean:.4f} "
          f"(targets {target['mse'][0]}±{target['mse'][1]}, "
          f"{target['mae'][0]}±{target['mae'][1]})")
    assert abs(mse_mean - target["mse"][0]) <= target["mse"][1], \
        f"{dataset} mse {mse_mean:.4f} outside {target['mse']}"
    assert abs(mae_mean - target["mae"][0]) <= target["mae"][1], \
        f"{dataset} mae {mae_mean:.4f} outside {target['mae']}"


@pytest.mark.slow
def test_criterion_3_benchmark_reproduction():
    with criterion(3, "desk-scale benchmark reproduction"):
        etth1 = dataset_path("ETTh1.csv")
        ettm2 = dataset_path("ETTm2.csv")
        if etth1 is None or ettm2 is None:
            pytest.skip("ETTh1.csv / ETTm2.csv not found under ./data or "
                        "$MDMIXER_DATA_DIR; benchmark CSVs are not bundled")
        _reproduce(etth1, ETTH1_TARGET, "ETTh1")
        _reproduce(ettm2, ETTM2_TARGET, "ETTm2")


def test_benchmark_protocol_mechanics(tmp_path):
    # Rehearses criterion 3's exact code path on a generated benchmark-shaped
    # CSV (7 channels, timestamp column) so the protocol machinery stays
    # verified even when the real benchmark files are absent.
    rng = np.random.default_rng(4)
    rows = ["date," + ",".join(f"v{c}" for c in range(7))]
    t = np.arange(700)
    values = np.stack([np.sin(2 * np.pi * t / (24 + 8 * c))
                       + 0.05 * c * t / 700
                       + 0.2 * rng.normal(size=700) for c in range(7)], axis=1)
    for i in range(700):
        rows.append(f"ts{i}," + ",".join(f"{v:.6f}" for v in values[i]))
    csv_path = tmp_path / "bench.csv"
    csv_path.write_text("\n".join(rows) + "\n")

    train_w, val_w, test_w, channels = _benchmark_windows(csv_path,
                                                          lookback=96,
                                                          horizon=96)
    assert channels == 7
    assert len(train_w) == 420 - 96 - 96 + 1          # floor(0.6 * 700) rows
    assert len(val_w) == (560 - 420 + 96) - 96 - 96 + 1
    assert len(test_w) == (700 - 560 + 96) - 96 - 96 + 1

    cfg = ModelConfig(lookback=96, horizon=96, channels=7, embed_dim=8,
                      hidden=8)
    settings = TrainSettings(lr=1e-3, max_epochs=1, patience=0, seed=1)
    params, _ = train(cfg, train_w, val_w, settings)
    row = evaluate(params, cfg, test_w, dataset="bench", seed=1)
    assert row.mse >= 0 and row.mae >= 0


# ---------------------------------------------------------------------------
# 4. ablation direction


@pytest.mark.slow
def test_criterion_4_ablation_direction():
    with criterion(4, "ablation direction"):
        # four channels with conflicting granularity needs: two smooth
        # slow waves and two oscillations the coarse heads cannot track,
        # so a shared (mean) fusion must compromise across channels
        channels = [SynthChannel(192, 1.0, 0.0, 0.3),
                    SynthChannel(256, 1.0, 0.0, 0.3),
                    SynthChannel(6, 1.0, 0.0, 0.3),
                    SynthChannel(12, 1.0, 0.0, 0.3)]
        train_w, val_w, _ = _synth_windows(channels, n=1200)
        variants = {"full": {}, "no_amwg": {"use_amwg": False},
                    "no_align": {"use_align_loss": False}}
        means = {}
        for name, overrides in variants.items():
            mses = []
            for seed in SEEDS:
                cfg = ModelConfig(lookback=96, horizon=96, channels=4,
                                  align_weight=0.05, **overrides)
                settings = TrainSettings(lr=1e-3, max_epochs=12, patience=3,
                                         seed=seed)
                _, report = train(cfg, train_w, val_w, settings)
                mses.append(report.best_val_mse)
            means[name] = float(np.mean(mses))
        print(f"  seed-mean val mse: full={means['full']:.5f} "
              f"no_amwg={means['no_amwg']:.5f} no_align={means['no_align']:.5f} "
              f"(ratios {means['no_amwg'] / means['full']:.4f}, "
              f"{means['no_align'] / means['full']:.4f})")
        # each ablation must be no better than the full model, up to 1%
        assert means["full"] <= means["no_amwg"] * 1.01, \
            "disabling the gate beat the full model by more than 1%"
        assert means["full"] <= means["no_align"] * 1.01, \
            "disabling the alignment loss beat the full model by more than 1%"


# ---------------------------------------------------------------------------
# 5. baseline augmentation direction


@pytest.mark.slow
def test_criterion_5_dual_branch_direction():
    with criterion(5, "dual-branch baseline direction"):
        ettm2 = dataset_path("ETTm2.csv")
        if ettm2 is None:
            pytest.skip("ETTm2.csv not found under ./data or "
                        "$MDMIXER_DATA_DIR; benchmark CSVs are not bundled")
        train_w, val_w, test_w, channels = _benchmark_windows(ettm2)
        means = {}
        for kind in ("decomp_linear", "dual_branch"):
            mses = []
            for seed in SEEDS:
                cfg = BaselineConfig(kind=kind, lookback=96, horizon=96,
                                     channels=channels, hidden=64)
                settings = TrainSettings(lr=1e-3, batch_size=32,
                                         max_epochs=30, patience=5, seed=seed)
                params, _ = train(cfg, train_w, val_w, settings)
                mses.append(evaluate(params, cfg, test_w).mse)
            means[kind] = float(np.mean(mses))
            print(f"  {kind}: seed-mean test mse {means[kind]:.4f}")
        assert means["dual_branch"] <= means["decomp_linear"], \
            "the trend-MLP augmentation did not improve on the linear pair"


# ---------------------------------------------------------------------------
# 6. interpretability export


@pytest.mark.slow
def test_criterion_6_gate_heatmap_direction(tmp_path):
    with criterion(6, "gate heatmap coarse/fine separation"):
        # channel 0: slow wave (half a period per horizon window, coarse
        # heads capture it); channel 1: fast wave the coarse heads cannot
        # represent; noise keeps the fine heads from being free wins
        channels = [SynthChannel(192, 1.0, 0.0, 0.4),
                    SynthChannel(12, 1.0, 0.0, 0.4)]
        train_w, val_w, test_w = _synth_windows(channels, n=3600)
        cfg = ModelConfig(lookback=96, horizon=96, channels=2)
        half = cfg.heads // 2
        diffs = []
        for seed in SEEDS:
            settings = TrainSettings(lr=1e-3, max_epochs=12, patience=3,
                                     seed=seed)
            params, _ = train(cfg, train_w, val_w, settings)
            batch = np.ascontiguousarray(test_w.inputs[:256])
            heatmap = export_amwg(params, cfg, batch)
            write_amwg_csv(tmp_path / f"heatmap_seed{seed}.csv", heatmap)
            assert np.abs(heatmap.sum(axis=0) - 1.0).max() < 1e-5
            coarse = heatmap[:half].sum(axis=0)
            diffs.append(coarse[0] - coarse[1])
            print(f"  seed {seed}: coarse mass slow={coarse[0]:.3f} "
                  f"fast={coarse[1]:.3f}")
        mean_diff = float(np.mean(diffs))
        print(f"  seed-mean coarse-mass difference (slow - fast): {mean_diff:+.3f}")
        assert mean_diff > 0.0, \
            "slow channel did not receive more coarse-head weight than fast"
