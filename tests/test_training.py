import numpy as np
import pytest

from mdmixer.config import BaselineConfig, ModelConfig, SynthChannel, \
    TrainSettings
from mdmixer.data import chronological_split, make_windows, standardize, \
    synth_multiscale, SplitSpec
from mdmixer.model import ForecastOutput, forward, init_params
from mdmixer.preprocess import InstanceStats
from mdmixer.training import TrainingDiverged, adamw_step, alignment_targets, \
    backward, gradcheck, init_optimizer, main_loss, total_loss, train

from conftest import TINY, rand_batch


# ---------------------------------------------------------------------------
# losses


def test_main_loss_zero_at_perfect():
    y = np.random.default_rng(0).normal(size=(2, 3, 2))
    assert main_loss(y, y) == 0.0


def test_main_loss_hand_values():
    y = np.array([[[1.0], [2.0]]])
    target = np.array([[[2.0], [4.0]]])
    assert main_loss(y, target) == pytest.approx(1.5)


def test_main_loss_absolute_homogeneity():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(2, 4, 3))
    target = rng.normal(size=(2, 4, 3))
    base = main_loss(y, target)
    for c in (-2.0, 0.5, 3.0):
        assert main_loss(c * y, c * target) == pytest.approx(abs(c) * base)


def test_main_loss_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        main_loss(np.zeros((1, 2, 1)), np.zeros((1, 3, 1)))


def test_alignment_targets_halves():
    y = np.array([1.0, 2.0, 3.0, 4.0])[None, :, None]
    out = alignment_targets(y, [2])
    np.testing.assert_allclose(out[0][0, :, 0], [1.5, 3.5])


def test_alignment_targets_overlapping_bins():
    y = np.array([1.0, 2.0, 3.0, 4.0])[None, :, None]
    out = alignment_targets(y, [3])
    np.testing.assert_allclose(out[0][0, :, 0], [1.5, 2.5, 3.5])


def test_alignment_targets_identity():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(3, 8, 2))
    out = alignment_targets(y, [8])
    np.testing.assert_allclose(out[0], y, atol=1e-12)


def _fake_output(final, per_gran, heads):
    b, _, c = final.shape
    stats = InstanceStats(mean=np.zeros((b, c)), std=np.ones((b, c)))
    return ForecastOutput(final=final, per_granularity=per_gran,
                          upsampled=[final] * heads,
                          gate_weights=np.full((b, heads, c), 1.0 / heads),
                          stats=stats)


def test_total_loss_alpha_zero_collapse():
    cfg = ModelConfig(**{**TINY, "align_weight": 0.0})
    rng = np.random.default_rng(3)
    params = init_params(cfg, 0)
    x = rand_batch(rng, 3, 8, 2)
    y = rand_batch(rng, 3, 4, 2)
    breakdown = total_loss(forward(x, params, cfg), y, cfg)
    assert breakdown.total == breakdown.main


def test_total_loss_zero_at_perfect():
    rng = np.random.default_rng(4)
    y = rand_batch(rng, 2, 4, 2)
    cfg = ModelConfig(**{**TINY, "align_weight": 1.0})
    per_gran = alignment_targets(y, [2, 4])
    breakdown = total_loss(_fake_output(y, per_gran, 2), y, cfg)
    assert breakdown.total == 0.0
    assert breakdown.align_per_head == [0.0, 0.0]


def test_total_loss_single_head_doubles_main():
    # H=1 makes G_1 = F, pooling the target is the identity, so a head that
    # matches the final output contributes exactly one extra main term.
    cfg = ModelConfig(**{**TINY, "heads": 1, "align_weight": 1.0})
    rng = np.random.default_rng(5)
    final = rand_batch(rng, 2, 4, 2)
    y = rand_batch(rng, 2, 4, 2)
    breakdown = total_loss(_fake_output(final, [final], 1), y, cfg)
    assert breakdown.total == pytest.approx(2 * breakdown.main)


def test_total_loss_monotone_in_alpha():
    rng = np.random.default_rng(6)
    x = rand_batch(rng, 3, 8, 2)
    y = rand_batch(rng, 3, 4, 2)
    previous = -1.0
    for alpha in (0.0, 0.01, 0.1, 1.0):
        cfg = ModelConfig(**{**TINY, "align_weight": alpha})
        breakdown = total_loss(forward(x, init_params(cfg, 0), cfg), y, cfg)
        assert breakdown.total >= previous
        previous = breakdown.total
    # the invariant total = main + alpha * mean(align)
    assert breakdown.total == pytest.approx(
        breakdown.main + 1.0 * np.mean(breakdown.align_per_head), abs=1e-9)


# ---------------------------------------------------------------------------
# AdamW


def _singleton_params(value):
    from mdmixer.model import ParamSet
    return ParamSet({"w": np.array([value], dtype=np.float64)})


def test_adamw_first_step():
    params = _singleton_params(1.0)
    grads = _singleton_params(1.0)
    settings = TrainSettings(lr=0.1, seed=0)
    state = init_optimizer(params, settings)
    adamw_step(params, grads, state)
    # bias correction makes the very first step lr * g / (|g| + eps)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-6)


def test_adamw_zero_grad_no_decay_is_identity():
    params = _singleton_params(1.0)
    state = init_optimizer(params, TrainSettings(lr=0.1, seed=0))
    adamw_step(params, _singleton_params(0.0), state)
    assert params["w"][0] == 1.0


def test_adamw_decoupled_decay():
    params = _singleton_params(1.0)
    settings = TrainSettings(lr=0.1, weight_decay=0.01, seed=0)
    state = init_optimizer(params, settings)
    adamw_step(params, _singleton_params(0.0), state)
    assert params["w"][0] == pytest.approx(0.999)


def test_adamw_lr_zero_is_identity(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    before = params.copy()
    rng = np.random.default_rng(7)
    grads, _ = backward(rand_batch(rng, 4, 8, 2), rand_batch(rng, 4, 4, 2),
                        params, tiny_cfg)
    state = init_optimizer(params, TrainSettings(lr=0.0, seed=0))
    adamw_step(params, grads, state)
    for name in params.names():
        np.testing.assert_array_equal(params[name], before[name])


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_gradient_at_perfect_fit(tiny_cfg):
    # constant windows + zero offsets make the forecast equal the channel
    # mean; targeting that exact value leaves every residual at zero, and
    # the L1 subgradient convention sends zero residuals to zero gradients
    from test_model import zeroed_offsets
    params = zeroed_offsets(init_params(tiny_cfg, 0))
    x = np.full((2, 8, 2), 1.5, dtype=np.float32)
    y = np.full((2, 4, 2), 1.5, dtype=np.float32)
    grads, breakdown = backward(x, y, params, tiny_cfg)
    assert breakdown.total == 0.0
    for name in grads.names():
        assert not grads[name].any(), name


def test_backward_unused_parameters_get_zero_grad():
    rng = np.random.default_rng(8)
    x = rand_batch(rng, 3, 8, 2)
    y = rand_batch(rng, 3, 4, 2)
    cfg = ModelConfig(**{**TINY, "use_mim": False})
    grads, _ = backward(x, y, init_params(cfg, 0), cfg)
    for name in grads.names():
        if name.startswith("mixer_"):
            assert not grads[name].any(), name
    cfg = ModelConfig(**{**TINY, "use_amwg": False})
    grads, _ = backward(x, y, init_params(cfg, 0), cfg)
    for name in grads.names():
        if name.startswith("gate."):
            assert not grads[name].any(), name


def test_backward_matches_finite_differences(tiny_cfg):
    report = gradcheck(tiny_cfg, seed=0, h=1e-5, tol=1e-4)
    assert report.passed, (report.max_rel_err, report.worst_param)


@pytest.mark.parametrize("kind", ["linear_direct", "decomp_linear", "dual_branch"])
def test_baseline_backward_matches_finite_differences(kind):
    cfg = BaselineConfig(kind=kind, lookback=8, horizon=4, channels=2,
                         hidden=4, kernel=3)
    report = gradcheck(cfg, seed=0)
    assert report.passed, (report.max_rel_err, report.worst_param)


def test_gradcheck_alpha_variants(tiny_cfg):
    for alpha in (0.0, 0.05):
        cfg = ModelConfig(**{**TINY, "align_weight": alpha})
        assert gradcheck(cfg, seed=0).passed
    cfg = ModelConfig(**{**TINY, "use_amwg": False})
    assert gradcheck(cfg, seed=0).passed


@pytest.mark.parametrize("kw", [
    # schedule [1..8]: every head one step apart, G_1 = 1 (constant upsample)
    dict(lookback=8, horizon=8, channels=2, patch_len=4, stride=2,
         embed_dim=3, heads=8, hidden=4, kernel=3),
    # single-step horizon
    dict(lookback=4, horizon=1, channels=3, patch_len=4, stride=1,
         embed_dim=2, heads=1, hidden=3, kernel=1),
    # patch covers the whole window, stride larger than the window
    dict(lookback=6, horizon=4, channels=2, patch_len=6, stride=9,
         embed_dim=3, heads=2, hidden=4, kernel=5),
    # per-channel positional encodings with the gate active
    dict(lookback=8, horizon=4, channels=3, patch_len=4, stride=2,
         embed_dim=3, heads=4, hidden=4, kernel=3, pos_encoding="per_channel"),
    # kernel wider than the window (replicate padding dominates)
    dict(lookback=8, horizon=4, channels=2, patch_len=4, stride=2,
         embed_dim=3, heads=2, hidden=4, kernel=25),
    # parallel prediction off: one head, no mixers, gate off
    dict(TINY, use_mpp=False),
])
def test_gradcheck_exotic_geometries(kw):
    assert gradcheck(ModelConfig(**kw), seed=0).passed


# ---------------------------------------------------------------------------
# training loop


def _synth_windows(n=160, t=8, f=4, seed=1):
    frame = synth_multiscale(n, [SynthChannel(8, 1.0, 0.0, 0.1),
                                 SynthChannel(20, 1.0, 0.01, 0.1)], seed=seed)
    return make_windows(frame, t, f)


def test_train_single_epoch(tiny_cfg):
    windows = _synth_windows()
    params, report = train(tiny_cfg, windows, windows,
                           TrainSettings(max_epochs=1, patience=0, seed=0))
    assert len(report.epochs) == 1
    assert report.best_epoch == 1
    assert report.epochs[0].epoch == 1


def test_train_deterministic(tiny_cfg):
    windows = _synth_windows()
    settings = TrainSettings(max_epochs=3, patience=5, seed=7)
    params_a, report_a = train(tiny_cfg, windows, windows, settings)
    params_b, report_b = train(tiny_cfg, windows, windows, settings)
    for name in params_a.names():
        np.testing.assert_array_equal(params_a[name], params_b[name])
    assert [r.train_loss for r in report_a.epochs] == \
           [r.train_loss for r in report_b.epochs]
    assert [r.val_mse for r in report_a.epochs] == \
           [r.val_mse for r in report_b.epochs]


def test_train_one_step_decreases_batch_loss(tiny_cfg):
    rng = np.random.default_rng(9)
    xb = rand_batch(rng, 8, 8, 2)
    yb = rand_batch(rng, 8, 4, 2)
    params = init_params(tiny_cfg, 0)
    state = init_optimizer(params, TrainSettings(lr=1e-4, seed=0))
    grads, before = backward(xb, yb, params, tiny_cfg)
    adamw_step(params, grads, state)
    _, after = backward(xb, yb, params, tiny_cfg)
    assert after.total < before.total


def test_train_fits_noiseless_sinusoid():
    # oracle: the task is realizable by a plain linear map, so fit the
    # direct linear baseline first, then expect the model to match
    frame = synth_multiscale(1200, [SynthChannel(16, 1.0, 0.0, 0.0)], seed=5)
    spec = SplitSpec((0.6, 0.2, 0.2), 96, 96)
    train_f, val_f, _ = chronological_split(frame, spec)
    train_f, stats = standardize(train_f)
    val_f, _ = standardize(val_f, stats)
    train_w = make_windows(train_f, 96, 96)
    val_w = make_windows(val_f, 96, 96)

    settings = TrainSettings(lr=5e-3, max_epochs=20, patience=20, seed=1)
    base_cfg = BaselineConfig(kind="linear_direct", lookback=96, horizon=96,
                              channels=1)
    _, base_report = train(base_cfg, train_w, val_w, settings)
    assert base_report.best_val_mse < 0.05

    cfg = ModelConfig(lookback=96, horizon=96, channels=1)
    _, report = train(cfg, train_w, val_w, settings)
    assert report.best_val_mse < 0.05


def test_train_divergence_raises(tiny_cfg):
    windows = _synth_windows()
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(tiny_cfg, windows, windows,
                  TrainSettings(lr=1e20, max_epochs=3, patience=5, seed=0))
    assert info.value.epoch >= 1
    assert info.value.batch >= 0


def test_train_early_stopping_respects_patience(tiny_cfg):
    windows = _synth_windows()
    _, report = train(tiny_cfg, windows, windows,
                      TrainSettings(lr=0.0, max_epochs=10, patience=2, seed=0))
    # lr=0 never improves after the first epoch: 1 best + patience + 1 stop
    assert len(report.epochs) == 4
    assert report.best_epoch == 1
