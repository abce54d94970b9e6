import numpy as np
import pytest

from mdmixer.baselines import baseline_forward, baseline_forward_with_context, \
    baseline_param_layout, init_baseline_params
from mdmixer.config import BaselineConfig, ConfigError

from conftest import rand_batch


def _cfg(kind, **kw):
    base = dict(lookback=8, horizon=4, channels=2, hidden=5, kernel=3)
    base.update(kw)
    return BaselineConfig(kind=kind, **base)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown baseline kind"):
        _cfg("fancy_transformer")


def test_linear_direct_identity_map():
    cfg = _cfg("linear_direct", lookback=4, horizon=4)
    params = init_baseline_params(cfg, 0)
    params["direct.weight"][:] = np.eye(4)
    params["direct.bias"][:] = 0.0
    rng = np.random.default_rng(0)
    x = rand_batch(rng, 3, 4, 2)
    out = baseline_forward(x, params, cfg)
    # identity map in normalized space, then denormalized back: reproduces x
    np.testing.assert_allclose(out, x, atol=1e-5)


def test_dual_branch_constant_window():
    cfg = _cfg("dual_branch")
    params = init_baseline_params(cfg, 1)
    x = np.full((2, 8, 2), 3.25, dtype=np.float32)
    x[1] = -7.0
    out = baseline_forward(x, params, cfg)
    np.testing.assert_allclose(out, x[:, :4, :], atol=1e-4)


def test_decomp_linear_additivity():
    cfg = _cfg("decomp_linear")
    params = init_baseline_params(cfg, 2)
    rng = np.random.default_rng(2)
    x = rand_batch(rng, 4, 8, 2)
    full = baseline_forward(x, params, cfg)

    seasonal_only = params.copy()
    seasonal_only["trend.weight"][:] = 0.0
    trend_only = params.copy()
    trend_only["seasonal.weight"][:] = 0.0
    a = baseline_forward(x, seasonal_only, cfg)
    b = baseline_forward(x, trend_only, cfg)

    # both parts carry the denormalization offset once, so subtract it back
    from mdmixer.preprocess import instance_normalize
    mean = instance_normalize(x)[1].mean
    np.testing.assert_allclose(full, a + b - mean[:, None, :], rtol=1e-4, atol=1e-5)


def test_dual_branch_degenerates_to_seasonal_linear():
    cfg_dual = _cfg("dual_branch")
    cfg_lin = _cfg("decomp_linear")
    params_dual = init_baseline_params(cfg_dual, 3)
    params_dual["trend.fc2.weight"][:] = 0.0  # kill the trend MLP output
    params_lin = init_baseline_params(cfg_lin, 3)
    params_lin["seasonal.weight"][:] = params_dual["seasonal.weight"]
    params_lin["seasonal.bias"][:] = params_dual["seasonal.bias"]
    params_lin["trend.weight"][:] = 0.0
    params_lin["trend.bias"][:] = 0.0
    rng = np.random.default_rng(3)
    x = rand_batch(rng, 5, 8, 2)
    np.testing.assert_array_equal(baseline_forward(x, params_dual, cfg_dual),
                                  baseline_forward(x, params_lin, cfg_lin))


@pytest.mark.parametrize("kind", ["linear_direct", "decomp_linear", "dual_branch"])
def test_baselines_channel_equivariant(kind):
    cfg = _cfg(kind, channels=3)
    params = init_baseline_params(cfg, 4).astype(np.float64)
    rng = np.random.default_rng(4)
    x = rand_batch(rng, 4, 8, 3, dtype=np.float64)
    perm = [2, 0, 1]
    direct = baseline_forward(x[:, :, perm], params, cfg)
    swapped = baseline_forward(x, params, cfg)[:, :, perm]
    np.testing.assert_allclose(direct, swapped, atol=1e-10)


def test_baseline_layouts():
    assert set(baseline_param_layout(_cfg("linear_direct"))) == {
        "direct.weight", "direct.bias"}
    assert set(baseline_param_layout(_cfg("decomp_linear"))) == {
        "seasonal.weight", "seasonal.bias", "trend.weight", "trend.bias"}
    layout = baseline_param_layout(_cfg("dual_branch"))
    assert layout["trend.fc1.weight"] == (8, 5)
    assert layout["trend.fc2.weight"] == (5, 4)


@pytest.mark.parametrize("kind", ["linear_direct", "decomp_linear", "dual_branch"])
def test_baseline_output_has_the_model_contract(kind):
    """A baseline returns a ForecastOutput with no heads: its final forecast
    is ``baseline_forward``'s, byte for byte."""
    cfg = _cfg(kind)
    params = init_baseline_params(cfg, 2)
    x = rand_batch(np.random.default_rng(2), 3, 8, 2)
    output, _ = baseline_forward_with_context(x, params, cfg)
    assert output.final.tobytes() == baseline_forward(x, params, cfg).tobytes()
    assert output.per_granularity == [] and output.heads == []
    assert output.gate_weights.shape == (3, 0, 2)
