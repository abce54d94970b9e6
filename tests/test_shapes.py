"""The table of distinct configurations (``shapes.py``): no two entries are
the same model, and each ablation left out of it equals its entry."""

import functools

import numpy as np
import pytest

from mdmixer.evaluation import predict
from mdmixer.model import forward, forward_with_context, inference_plan, init_params, \
    param_layout
from mdmixer.training import backward

from conftest import rand_batch
from shapes import SHAPES, TWINS, model_config


def _outputs(cfg, params, x, y) -> dict:
    """Label -> bytes of the forecast, every per-granularity series, the
    gate weights, the loss breakdown and every gradient, the reverse
    writing into a NaN-filled arena so that an entry it skips shows."""
    out = forward(x, params, cfg)
    grads = params.empty_like()
    grads.flat[:] = np.nan
    _, loss = backward(x, y, params, cfg, grads)
    return {"final": out.final.tobytes(), "gate_weights": out.gate_weights.tobytes(),
            **{f"per_granularity[{i}]": a.tobytes()
               for i, a in enumerate(out.per_granularity)},
            "loss": np.array([loss.main, loss.total, *loss.align_per_head]).tobytes(),
            **{f"grad {name}": g.tobytes() for name, g in grads.items()}}


_BY_ID = {param.id: param.values[0] for param in SHAPES}


@functools.cache
def _shape_outputs(shape_id: str) -> tuple:
    """The layout and ``_outputs`` of one table entry on one seeded batch
    (B=4, at its own shape, float64)."""
    cfg = model_config(_BY_ID[shape_id])
    params = init_params(cfg, 0, dtype=np.float64)
    rng = np.random.default_rng(4)
    x = rand_batch(rng, 4, cfg.lookback, cfg.channels, np.float64)
    y = rand_batch(rng, 4, cfg.horizon, cfg.channels, np.float64)
    return param_layout(cfg), _outputs(cfg, params, x, y)


@pytest.mark.parametrize("shape_id", list(_BY_ID))
def test_no_two_shapes_are_the_same_model(shape_id):
    """No other entry is the same model as this one. Two entries are the
    same model when they have the same layout and the same forecast and
    gradients, bit for bit, on one seeded batch (B=4, each at its own
    shape, float64). Ablations are config values, so two sets of values
    can coincide; the next such pair fails here, under both its ids."""
    same = [other for other in _BY_ID
            if other != shape_id and _shape_outputs(other) == _shape_outputs(shape_id)]
    assert not same, same


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("twin, kept", TWINS)
def test_one_head_twins_share_layout_and_init(twin, kept, dtype):
    """A twin (see below) has its kept shape's parameter layout, and
    ``init_params`` draws it the same parameters bit for bit."""
    cfgs = [model_config(twin), model_config(kept)]
    assert param_layout(cfgs[0]) == param_layout(cfgs[1])
    params = [init_params(cfg, 0, dtype=dtype) for cfg in cfgs]
    assert params[0].flat.tobytes() == params[1].flat.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch, folded", [(4, False), (32, True)],
                         ids=["embedding", "folded"])
@pytest.mark.parametrize("twin, kept", TWINS)
def test_one_head_twins_equal_their_kept_shape(twin, kept, batch, folded, dtype):
    """At one head there is no mixer to chain (use_mim) and no gate
    (``amwg_enabled`` needs more than one head), so a one-head config with
    use_mim or use_amwg off is the same model as the one with both on,
    which the table keeps. On the embedding path (B=4) and folded (B=32),
    its forecast, per-granularity series, gate weights, loss breakdown and
    every gradient are those of its kept shape bit for bit, and so is
    ``evaluate``'s forecast from the inference plan. C=7, T=F=96."""
    cfgs = [model_config(twin), model_config(kept)]
    params = [init_params(cfg, 0, dtype=dtype) for cfg in cfgs]
    rng = np.random.default_rng(batch)
    x = rand_batch(rng, batch, 96, 7, dtype)
    y = rand_batch(rng, batch, 96, 7, dtype)
    runs = []
    for cfg, p in zip(cfgs, params):
        assert (forward_with_context(x, p, cfg)[1].ops[0] is not None) == folded
        runs.append(_outputs(cfg, p, x, y))
        runs[-1]["plan"] = predict(x, p, cfg, plan=inference_plan(p, cfg)).tobytes()
    assert list(runs[0]) == list(runs[1])
    differ = [label for label in runs[0] if runs[0][label] != runs[1][label]]
    assert not differ, differ
