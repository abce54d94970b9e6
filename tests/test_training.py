import itertools
import math
import pickle
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mdmixer import model
from mdmixer.baselines import forecaster, init_baseline_params
from mdmixer.config import BaselineConfig, ModelConfig, SynthChannel, \
    TrainSettings
from mdmixer.data import chronological_split, make_windows, standardize, \
    synth_multiscale, SplitSpec
from mdmixer.evaluation import eval_batch_size
from mdmixer.model import ParamSet, forward, init_params, param_layout
from mdmixer.training import ADAMW_BLOCK, TrainingDiverged, \
    adamw_step, alignment_targets, backward, gradcheck, init_optimizer, main_loss, \
    total_loss, train, _pool_matrix

from conftest import HORIZONS, TINY, assert_banded_matches_dense, \
    head_lengths, rand_batch


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f", HORIZONS)
def test_alignment_targets_match_dense(f, dtype):
    rng = np.random.default_rng(f)
    y = rng.normal(size=(2, f, 3)).astype(dtype)
    swapped = np.ascontiguousarray(y.transpose(0, 2, 1))  # the operand pooled
    schedule = head_lengths(f)
    for g, target in zip(schedule, alignment_targets(y, schedule)):
        assert_banded_matches_dense(target.transpose(0, 2, 1), swapped,
                                    _pool_matrix(f, g).astype(dtype).T, f"G={g}")


def _fake_output(final, per_gran):
    """What the loss reads of a forward's output."""
    return SimpleNamespace(final=final, per_granularity=per_gran)


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
    breakdown = total_loss(_fake_output(y, per_gran), y, cfg)
    assert breakdown.total == 0.0
    assert breakdown.align_per_head == [0.0, 0.0]


def test_total_loss_single_head_doubles_main():
    # H=1 makes G_1 = F, pooling the target is the identity, so a head that
    # matches the final output contributes exactly one extra main term.
    cfg = ModelConfig(**{**TINY, "heads": 1, "align_weight": 1.0})
    rng = np.random.default_rng(5)
    final = rand_batch(rng, 2, 4, 2)
    y = rand_batch(rng, 2, 4, 2)
    breakdown = total_loss(_fake_output(final, [final]), y, cfg)
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


def _adamw_reference(params, grads, state):
    # the per-tensor update adamw_step replaced, with whole-tensor temporaries
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, grad in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(grad)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.weight_decay * params[name]
        params[name] -= state.lr * update


def _adamw_folded(params, grads, state):
    # adamw_step's expression on whole tensors: the same moments, the bias
    # corrections folded into two scalars (a Python float operand is cast
    # to the array's dtype, as adamw_step casts its scalars)
    state.step += 1
    root_bc2 = math.sqrt(1.0 - state.beta2 ** state.step)
    rate = state.lr * root_bc2 / (1.0 - state.beta1 ** state.step)
    for name, grad in grads.items():
        m, v, p = state.m[name], state.v[name], params[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(grad)
        if state.weight_decay:
            p *= 1.0 - state.lr * state.weight_decay
        p -= (m / (np.sqrt(v) + state.eps * root_bc2)) * rate


# |p - p_reference| per step, in units of eps * (|p_reference| + lr): folding
# the bias corrections rounds p differently (measured worst in these tests:
# 2.7 in one step; 5.2 when the same updates run 3 steps apart)
ADAMW_P_BOUND = 8


def _check_against_oracles(params, state, grads, start, moments):
    """One ``adamw_step`` already ran from ``start`` (tensors by name) and
    ``moments`` (a copy of the state before it): m and v must equal both
    oracles' bit for bit, p the folded expression's bit for bit and the
    per-tensor update's within ``ADAMW_P_BOUND``."""
    copy = lambda d: {n: np.array(a) for n, a in d.items()}  # noqa: E731
    ref, folded = copy(start), copy(start)
    ref_state, folded_state = (replace(moments, m=copy(moments.m), v=copy(moments.v))
                               for _ in range(2))
    _adamw_reference(ref, grads, ref_state)
    _adamw_folded(folded, grads, folded_state)
    assert state.step == ref_state.step == folded_state.step
    for name, p in params.items():
        for got, want in ((p, folded[name]), (state.m[name], ref_state.m[name]),
                          (state.v[name], ref_state.v[name]),
                          (state.m[name], folded_state.m[name]),
                          (state.v[name], folded_state.v[name])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        bound = ADAMW_P_BOUND * np.finfo(p.dtype).eps * (np.abs(ref[name]) + state.lr)
        assert np.all(np.abs(p.astype(np.float64) - ref[name]) <= bound), name


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_blocks_match_per_tensor_update(dtype, weight_decay):
    # tensors smaller than one block, of exactly one block and of 2.5
    # blocks, so block edges fall inside and at the end of a tensor
    block = ADAMW_BLOCK
    shapes = {"small": (3, 5), "one_block": (block,),
              "two_and_a_half": (5, block // 2)}
    rng = np.random.default_rng(12)
    params = ParamSet({k: rng.normal(size=s).astype(dtype)
                       for k, s in shapes.items()})
    settings = TrainSettings(lr=1e-2, weight_decay=weight_decay, seed=0)
    state = init_optimizer(params, settings)
    for _ in range(3):
        grads = ParamSet({k: rng.normal(size=s).astype(dtype)
                          for k, s in shapes.items()})
        # assigning a strided array writes its values into the set's view
        grads["small"] = rng.normal(size=(5, 3)).astype(dtype).T
        grads_before, start = grads.copy(), params.copy()
        moments = replace(state, m=state.m.copy(), v=state.v.copy())
        adamw_step(params, grads, state)
        for name in shapes:
            assert grads[name].tobytes() == grads_before[name].tobytes(), name
        _check_against_oracles(params, state, grads, dict(start.items()), moments)
    assert state.step == 3


def test_adamw_updates_set_built_from_transposed_tensor():
    # the constructor copies a strided tensor into the set's buffer, so the
    # update of that buffer lands in params["w"]; the oracles run on plain
    # arrays
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 3)).T
    params = ParamSet({"w": w, "b": rng.normal(size=3)})
    state = init_optimizer(params, TrainSettings(lr=0.1, weight_decay=0.01, seed=0))
    for _ in range(2):
        grads = ParamSet({"w": rng.normal(size=(4, 3)).T,
                          "b": rng.normal(size=3)})
        start = {name: arr.copy() for name, arr in params.items()}
        moments = replace(state, m={n: a.copy() for n, a in state.m.items()},
                          v={n: a.copy() for n, a in state.v.items()})
        adamw_step(params, grads, state)
        _check_against_oracles(params, state, grads, start, moments)
    assert not np.array_equal(params["w"], w)
    assert params["w"].base is params.flat


@pytest.mark.parametrize("grads", [
    {"b": np.zeros(3)},
    {"w": np.zeros((3, 4)), "b": np.zeros(3), "c": np.zeros(1)},
    {"b": np.zeros(3), "w": np.zeros((3, 4))},
    {"w": np.zeros((4, 3)), "b": np.zeros(3)},
    {"w": np.zeros(12), "b": np.zeros(3)},
], ids=["missing", "extra", "order", "shape", "flattened"])
def test_adamw_rejects_grads_of_another_layout(grads):
    params = ParamSet({"w": np.ones((3, 4)), "b": np.ones(3)})
    state = init_optimizer(params, TrainSettings(lr=0.1, seed=0))
    with pytest.raises(ValueError, match="differ in names, order or shapes"):
        adamw_step(params, ParamSet(grads), state)
    assert state.step == 0 and (params.flat == 1.0).all()


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


def _family(kind):
    """A tiny config of the family ``kind`` names and its seed-0 parameters."""
    cfg = ModelConfig(**TINY) if kind == "mdmixer" else \
        BaselineConfig(kind=kind, lookback=8, horizon=4, channels=2, hidden=4, kernel=3)
    return cfg, init_params(cfg, 0) if kind == "mdmixer" else init_baseline_params(cfg, 0)


def _rows(a) -> bool:
    """True when ``a`` (B x L x C) is laid out as contiguous (B, C, L) rows."""
    return a.transpose(0, 2, 1).flags.c_contiguous


@pytest.mark.parametrize("kind", ["mdmixer", "linear_direct", "decomp_linear",
                                  "dual_branch"])
def test_arrays_stay_channel_major_from_window_to_loss(kind, monkeypatch):
    """The forecasts, the loss gradients the reverse passes read and the
    baselines' branch inputs are rows of the one channel-major copy made
    of the batch, so no stage copies them to swap axes."""
    import mdmixer.training as training
    seen = {}
    original = training._loss

    def spy(final, per_granularity, y_true, cfg):
        out = original(final, per_granularity, y_true, cfg)
        seen.update(final=final, heads=per_granularity, d_final=out[1], d_heads=out[2])
        return out
    monkeypatch.setattr(training, "_loss", spy)
    rng = np.random.default_rng(17)
    x, y = rand_batch(rng, 3, 8, 2), rand_batch(rng, 3, 4, 2)
    cfg, params = _family(kind)
    backward(x, y, params, cfg)
    for a in (seen["final"], seen["d_final"], *seen["heads"], *seen["d_heads"]):
        assert _rows(a)
    if kind != "mdmixer":
        from mdmixer.baselines import baseline_forward_with_context
        _, branches = baseline_forward_with_context(x, params, cfg)
        assert all(flat.base is not None for _, flat, _ in branches)  # reshapes, no copy


def _leaves(obj):
    """Every object inside nested tuples and lists."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["mdmixer", "linear_direct", "decomp_linear",
                                  "dual_branch"])
def test_reverse_gets_normalized_rows_and_the_arena(kind, dtype, monkeypatch):
    """``backward`` allocates the one gradient arena and hands each family's
    reverse the loss gradients as C-contiguous (B, C, F) and (B, C, G_i)
    rows in the params' dtype, with a context that holds no instance stats;
    the reverse writes every entry of that arena, which ``backward``
    returns, and returns nothing itself."""
    import mdmixer.baselines as baselines
    from mdmixer.preprocess import InstanceStats
    cfg, params = _family(kind)
    params = params.astype(dtype)
    arenas, calls = [], []
    allocate = ParamSet.empty_like

    def poisoned(self):
        arenas.append(allocate(self))
        arenas[-1].flat.fill(np.nan)
        return arenas[-1]
    monkeypatch.setattr(ParamSet, "empty_like", poisoned)
    name = "model_backward" if kind == "mdmixer" else "baseline_backward"
    original = getattr(baselines, name)

    def spy(*args):
        d_fused, d_heads, saved, _, grads, _ = args
        calls.append([(a.shape, a.flags.c_contiguous, a.dtype)
                      for a in (d_fused, *d_heads)])
        assert not any(isinstance(o, InstanceStats) for o in _leaves(saved))
        assert grads is arenas[-1]
        assert original(*args) is None
    monkeypatch.setattr(baselines, name, spy)
    rng = np.random.default_rng(23)
    x, y = rand_batch(rng, 3, 8, 2), rand_batch(rng, 3, 4, 2)
    grads, _ = backward(x, y, params, cfg)
    heads = [2, 4] if kind == "mdmixer" else []
    assert calls == [[((3, 2, length), True, np.dtype(dtype))
                      for length in (cfg.horizon, *heads)]]
    assert len(arenas) == 1 and grads is arenas[0]
    assert grads.layout() == params.layout() and np.isfinite(grads.flat).all()


@pytest.mark.parametrize("kind", ["mdmixer", "linear_direct", "decomp_linear",
                                  "dual_branch"])
def test_entry_points_reach_the_forward_through_its_module(kind, monkeypatch):
    """``forecaster`` reads the forwards as module attributes when it is
    called, so wrappers set over every mdmixer module's copy of them (as a
    tracer does) see each forward that training.backward,
    evaluation.predict and gradcheck run, and nothing else."""
    import mdmixer.baselines as baselines
    import mdmixer.model as model
    from mdmixer.evaluation import predict
    calls = []
    for owner, name in ((model, "forward_with_context"),
                        (baselines, "baseline_forward_with_context")):
        original = getattr(owner, name)

        def wrapper(*args, original=original, name=name):
            calls.append(name)
            return original(*args)
        for module in [m for n, m in sys.modules.items() if n.startswith("mdmixer")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    cfg, params = _family(kind)
    layout, init, _, _ = baselines.forecaster(cfg)
    assert (layout, init) == (
        (param_layout(cfg), model.init_params) if kind == "mdmixer"
        else (baselines.baseline_param_layout(cfg), baselines.init_baseline_params))
    expected = "forward_with_context" if kind == "mdmixer" \
        else "baseline_forward_with_context"
    rng = np.random.default_rng(5)
    x, y = rand_batch(rng, 3, 8, 2), rand_batch(rng, 3, 4, 2)
    for run, count in ((lambda: backward(x, y, params, cfg), 1),
                       (lambda: predict(x, params, cfg), 1),
                       (lambda: gradcheck(cfg, seed=0), 1 + 2 * params.flat.size)):
        calls.clear()
        run()
        assert calls == [expected] * count


@pytest.mark.parametrize("ablation, dropped", [
    pytest.param({"use_mim": False}, ("mixer_",), id="mim_off"),
    pytest.param({"use_amwg": False}, ("gate.",), id="amwg_off"),
    pytest.param({"heads": 1}, ("mixer_", "gate."), id="mpp_off")])
def test_layout_drops_unused_parameters(ablation, dropped):
    """An ablation's layout, and so its parameters and gradients, holds no
    tensor of the component it switches off, and every other one. One
    head, with use_mim and use_amwg at their defaults, has no mixer and
    no gate."""
    full = param_layout(ModelConfig(**TINY))
    assert any(n.startswith("mixer_") for n in full)
    assert any(n.startswith("gate.") for n in full)
    cfg = ModelConfig(**{**TINY, **ablation})
    layout = param_layout(cfg)
    assert not [n for n in layout if n.startswith(dropped)]
    if "heads" not in ablation:  # one head: the head tensors change shape
        assert dict(layout) == {n: s for n, s in full.items()
                                if not n.startswith(dropped)}
    rng = np.random.default_rng(8)
    grads, _ = backward(rand_batch(rng, 3, 8, 2), rand_batch(rng, 3, 4, 2),
                        init_params(cfg, 0), cfg)
    assert grads.layout() == layout


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
    # parallel prediction off: one head, so no mixers and no gate
    dict(TINY, heads=1),
])
def test_gradcheck_exotic_geometries(kw):
    assert gradcheck(ModelConfig(**kw), seed=0).passed


def _ablation(mim: bool, amwg: bool, align_loss: bool, mpp: bool):
    """The paper's ablations as config values, with an id naming the
    components on and off: no alignment loss is align_weight = 0, no
    parallel prediction one head. One head has no mixer and no gate, so
    there use_mim and use_amwg change only which code path runs."""
    flags = dict(mim=mim, amwg=amwg, align_loss=align_loss, mpp=mpp)
    return pytest.param(
        dict(use_mim=mim, use_amwg=amwg, align_weight=0.01 if align_loss else 0.0,
             heads=8 if mpp else 1),
        id="-".join(f"{name}{'' if on else '_off'}" for name, on in flags.items()))


TRAINED_SHAPES = [
    *(_ablation(*flags) for flags in itertools.product((True, False), repeat=4)),
    pytest.param(dict(pos_encoding="per_channel"), id="per_channel"),
    pytest.param(dict(stride=10), id="stride10"),  # does not divide T - patch_len
    pytest.param(dict(horizon=720), id="F720"),
]
TENSOR_GROUPS = {"embed": "embed_", "pos": "pos_", "season heads": "season_head_",
                 "trend heads": "trend_head_", "mixers": "mixer_", "gate": "gate."}


@pytest.mark.parametrize("kw, batch", [
    *(pytest.param(*shape.values, 4, id=shape.id) for shape in TRAINED_SHAPES),
    *(pytest.param(*shape.values, 32, id=f"{shape.id}-B32") for shape in TRAINED_SHAPES)])
def test_directional_gradient_at_trained_shapes(kw, batch):
    """<grad L, v> of a C=7, T=96 model (F=96 unless stated) on B=4 windows,
    and on B=32, where the embedding is folded into the heads as in
    training, in float64, against central differences along one seeded
    unit direction v at steps h and h/10; it passes when either quotient
    agrees within 1e-4. The per-entry gradchecks run toy shapes, too short
    to split the banded upsampling and pooling operators into several
    blocks; F=720 does. The float32 gradients of the same parameters and
    batch must also be within 1e-5 (norm-relative) of the float64 ones in
    every tensor group."""
    cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "channels": 7, **kw})
    rng = np.random.default_rng(720)
    params = init_params(cfg, 0, dtype=np.float32).astype(np.float64)
    x = rng.normal(size=(batch, cfg.lookback, cfg.channels)).astype(np.float32)
    y = rng.normal(size=(batch, cfg.horizon, cfg.channels)).astype(np.float32)
    grads32, _ = backward(x, y, params.astype(np.float32), cfg)
    x, y = x.astype(np.float64), y.astype(np.float64)
    grads, _ = backward(x, y, params, cfg)
    for group, prefix in TENSOR_GROUPS.items():
        names = [n for n in grads.names() if n.startswith(prefix)]
        want = np.concatenate([grads[n].ravel() for n in names] or [np.zeros(0)])
        got = np.concatenate([grads32[n].ravel() for n in names] or [np.zeros(0)])
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want), group

    direction = {n: rng.standard_normal(a.shape) for n, a in params.items()}
    norm = math.sqrt(sum(float(np.square(v).sum()) for v in direction.values()))
    analytic = sum(float((grads[n] * v).sum()) for n, v in direction.items()) / norm

    def loss_at(step):
        shifted = ParamSet({n: a + (step / norm) * direction[n]
                            for n, a in params.items()})
        return total_loss(forward(x, shifted, cfg), y, cfg).total

    errors = []
    for h in (1e-5, 1e-6):
        numeric = (loss_at(h) - loss_at(-h)) / (2.0 * h)
        errors.append(abs(numeric - analytic)
                      / max(abs(numeric), abs(analytic), 1e-8))
    assert min(errors) < 1e-4, (analytic, errors)


def _both_associations(cfg, batch, dtype, monkeypatch) -> list[dict]:
    """Per association (embeddings, then folded), label -> array of the
    forecast, each per-granularity series, the gate weights and every
    gradient, on one seeded batch."""
    rng = np.random.default_rng(321)
    params = init_params(cfg, 0).astype(dtype)
    x = rand_batch(rng, batch, cfg.lookback, cfg.channels, dtype)
    y = rand_batch(rng, batch, cfg.horizon, cfg.channels, dtype)
    runs = []
    for folded in (False, True):
        monkeypatch.setattr(model, "fold_pays", lambda *shape, folded=folded: folded)
        out, saved = model.forward_with_context(x, params, cfg)
        assert (saved.ops[0] is not None) == folded
        grads, _ = backward(x, y, params, cfg)
        runs.append({"final": out.final, "gate_weights": out.gate_weights,
                     **{f"per_granularity[{i}]": a
                        for i, a in enumerate(out.per_granularity)},
                     **{f"grad {name}": g for name, g in grads.items()}})
    return runs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kw, batch", [
    *(pytest.param(*shape.values, 32, id=shape.id) for shape in TRAINED_SHAPES),
    pytest.param(dict(channels=321), 4, id="C321")])
def test_fold_matches_the_embeddings(kw, batch, dtype, monkeypatch):
    """Folding the patch embedding into the heads' first products changes
    only the rounding: the forecast, every per-granularity series, the gate
    weights and every gradient match the path through the embeddings
    within the golden harness's norm-relative bounds (1e-6 in float32,
    1e-12 in float64), at C=7, T=F=96 (unless stated), B=32 and at C=321,
    B=4."""
    from golden import TOLERANCE, stats_errors, value_stats
    cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "channels": 7, **kw})
    plain, folded = _both_associations(cfg, batch, dtype, monkeypatch)
    assert list(plain) == list(folded)
    errors = stats_errors(value_stats(folded), value_stats(plain))
    bad = {label: err for label, err in zip(plain, errors) if not err <= TOLERANCE[dtype]}
    assert not bad, bad


@pytest.mark.parametrize("kw, batch, folded", [
    pytest.param(TINY, 3, False, id="embeddings"),
    pytest.param(TINY, 16, True, id="folded"),
    pytest.param(dict(TINY, pos_encoding="per_channel"), 16, True,
                 id="folded-per_channel")])
def test_gradcheck_on_both_sides_of_the_fold(kw, batch, folded):
    """Per-entry finite differences (1e-4) on a toy model whose batch has
    too few rows for the fold, and on batches with enough."""
    cfg = ModelConfig(**kw)
    offset = cfg.channels if cfg.pos_encoding == "per_channel" else 1
    assert model.fold_pays(batch * cfg.channels, cfg.lookback,
                           cfg.num_patches * cfg.embed_dim, offset) == folded
    report = gradcheck(cfg, seed=0, batch=batch)
    assert report.passed, (report.max_rel_err, report.worst_param)


@pytest.mark.parametrize("channels, horizon, batch, folded", [
    pytest.param(7, 96, 32, True, id="ett_c7-train"),
    pytest.param(7, 96, eval_batch_size(7, 96), True, id="ett_c7-eval"),
    pytest.param(7, 96, 1, False, id="ett_c7-forecast"),
    pytest.param(7, 720, 8, False, id="long_f720-train"),
    pytest.param(7, 720, eval_batch_size(7, 720), True, id="long_f720-eval"),
    pytest.param(7, 720, 1, False, id="long_f720-forecast"),
    pytest.param(321, 96, 4, True, id="wide_c321-train"),
    pytest.param(321, 96, eval_batch_size(321, 96), True, id="wide_c321-eval"),
    pytest.param(321, 96, 1, True, id="wide_c321-forecast")])
def test_each_workload_shape_takes_its_association(channels, horizon, batch, folded):
    """Which association the forward picks for each benchmark workload's
    train step, evaluation batch and single-window forecast (default
    model, T=96): a 56-row F=720 step and every C=7 forecast keep the
    embeddings; every batch of 224 rows or more folds."""
    cfg = ModelConfig(lookback=96, horizon=horizon, channels=channels)
    x = rand_batch(np.random.default_rng(0), batch, 96, channels)
    _, saved = model.forward_with_context(x, init_params(cfg, 0), cfg)
    assert [op is not None for op in saved.ops] == [folded, folded]


@pytest.mark.parametrize("kw", TRAINED_SHAPES + [
    pytest.param(dict(kind=kind), id=kind)
    for kind in ("linear_direct", "decomp_linear", "dual_branch")])
def test_backward_writes_every_gradient(kw, monkeypatch):
    """The reverse pass writes its gradients into an uninitialised arena
    (``ParamSet.empty_like``), so every entry must be written: with the
    arena filled with NaN beforehand, and again with zeros, the gradients
    must be finite and the same bytes. No tensor's gradient is all zero,
    since a layout holds only tensors the forecast uses. C=7, T=96, F=96
    unless stated, on the trained shapes and the three baselines."""
    shape = {"lookback": 96, "horizon": 96, "channels": 7, **kw}
    cfg = BaselineConfig(**shape) if "kind" in kw else ModelConfig(**shape)
    params = (init_baseline_params if "kind" in kw else init_params)(cfg, 0)
    rng = np.random.default_rng(96)
    x = rand_batch(rng, 4, cfg.lookback, cfg.channels)
    y = rand_batch(rng, 4, cfg.horizon, cfg.channels)
    runs = []
    for fill in (np.nan, 0.0):
        arenas = []

        def filled(self, fill=fill):
            arenas.append(ParamSet._over(np.full_like(self.flat, fill), self.layout()))
            return arenas[-1]

        monkeypatch.setattr(ParamSet, "empty_like", filled)
        grads, _ = backward(x, y, params, cfg)
        assert len(arenas) == 1 and grads.flat is arenas[0].flat
        bad = [n for n, g in grads.items() if not np.isfinite(g).all()]
        assert not bad, (fill, bad)
        zero = [n for n, g in grads.items() if not g.any()]
        assert not zero, (fill, zero)
        runs.append(grads.flat.tobytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kw", TRAINED_SHAPES)
def test_init_draws_the_full_models_stream(kw):
    """A tensor starts from the same bytes under every ablation: each
    config's init equals the full model's (every component on, at the
    config's heads) on the tensors it keeps, and the init ``forecaster``
    hands to ``train`` is the same. C=7, T=96, F=96 unless stated."""
    cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "channels": 7, **kw})
    params = init_params(cfg, 3)
    full = init_params(replace(cfg, use_mim=True, use_amwg=True), 3)
    assert set(params.names()) <= set(full.names())
    for name, arr in params.items():
        assert arr.tobytes() == full[name].tobytes(), name
    _, init, _, _ = forecaster(cfg)
    again = init(cfg, 3)
    assert again.layout() == params.layout() == param_layout(cfg)
    assert again.flat.tobytes() == params.flat.tobytes()


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


def test_backward_writes_into_a_given_arena(tiny_cfg):
    """``backward`` fills the arena it is given and returns it; the
    gradients are the bytes of a fresh arena's."""
    rng = np.random.default_rng(12)
    x, y = rand_batch(rng, 3, 8, 2), rand_batch(rng, 3, 4, 2)
    params = init_params(tiny_cfg, 0)
    fresh, _ = backward(x, y, params, tiny_cfg)
    arena = params.empty_like()
    arena.flat.fill(np.nan)
    grads, _ = backward(x, y, params, tiny_cfg, arena)
    assert grads is arena and grads.flat.tobytes() == fresh.flat.tobytes()


def test_train_allocates_one_gradient_arena(tiny_cfg, monkeypatch):
    """``train`` allocates one gradient arena for the run and passes it to
    every step; the trained parameters are the bytes of a run that takes a
    fresh arena per step."""
    import mdmixer.training as training
    windows = _synth_windows()
    settings = TrainSettings(batch_size=16, max_epochs=2, patience=5, seed=3)
    arenas = []
    allocate = ParamSet.empty_like

    def counted(self):
        arenas.append(allocate(self))
        return arenas[-1]
    monkeypatch.setattr(ParamSet, "empty_like", counted)
    params, report = train(tiny_cfg, windows, windows, settings)
    assert len(arenas) == 1 and len(report.epochs) == 2
    given = training.backward

    def fresh_arena(x, y, params, cfg, grads):
        fresh, breakdown = given(x, y, params, cfg)
        np.copyto(grads.flat, fresh.flat)
        return grads, breakdown
    monkeypatch.setattr(training, "backward", fresh_arena)
    again, _ = train(tiny_cfg, windows, windows, settings)
    assert len(arenas) > 2
    assert again.flat.tobytes() == params.flat.tobytes()


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


def test_long_horizon_training_memory_in_arenas():
    # live across a step: params, both moments, the best params and one
    # gradient arena (17.6 MB each at F=720); the activations of an 8-window
    # batch and the cached horizon operators take well under one more. A
    # second gradient arena alive into the next backward puts the peak past
    # 6.25 (near 6.7)
    cfg = ModelConfig(lookback=96, horizon=720, channels=7)
    rng = np.random.default_rng(8)
    train_w, val_w = (make_windows(rng.normal(size=(96 + 720 + n - 1, 7))
                                   .astype(np.float32), 96, 720) for n in (16, 8))
    arena = init_params(cfg, 0).flat.nbytes
    tracemalloc.start()
    try:
        train(cfg, train_w, val_w, TrainSettings(batch_size=8, max_epochs=2, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.25 * arena, peak / arena


def test_train_divergence_raises(tiny_cfg):
    windows = _synth_windows()
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(tiny_cfg, windows, windows,
                  TrainSettings(lr=1e20, max_epochs=3, patience=5, seed=0))
    assert info.value.epoch >= 1
    assert info.value.batch >= 0
    again = pickle.loads(pickle.dumps(info.value))  # as a process pool sends it
    assert (str(again), again.epoch, again.batch) == \
        (str(info.value), info.value.epoch, info.value.batch)


def test_train_early_stopping_respects_patience(tiny_cfg):
    windows = _synth_windows()
    _, report = train(tiny_cfg, windows, windows,
                      TrainSettings(lr=0.0, max_epochs=10, patience=2, seed=0))
    # lr=0 never improves after the first epoch: 1 best + patience + 1 stop
    assert len(report.epochs) == 4
    assert report.best_epoch == 1
