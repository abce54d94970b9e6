import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdmixer.config import ConfigError, ModelConfig, TrainSettings
from mdmixer.model import CheckpointError, ParamSet, amwg, band_blocks, \
    embed, embed_operator, embed_operator_backward, fold_pays, forward, fuse, \
    fuse_backward, granularity_schedule, init_params, load_checkpoint, mim, mlp, \
    mpp_seasonal, param_layout, save_checkpoint, season_chain, upsample, \
    upsample_backward, _interp_matrix, _operator_grad, _parse_manifest
from mdmixer.preprocess import band_matmul, patch
from mdmixer.training import _pool_matrix, adamw_step, init_optimizer

from conftest import HORIZONS, TINY, assert_banded_matches_dense, \
    head_lengths, rand_batch


def zeroed_offsets(params: ParamSet) -> ParamSet:
    """Copy with all biases and positional encodings set to zero, so zero
    inputs stay zero through every stage."""
    out = params.copy()
    for name in out.names():
        if name.endswith(".bias") or name.startswith("pos_"):
            out[name][:] = 0.0
    return out


# ---------------------------------------------------------------------------
# schedule and init


def test_schedule_default():
    assert granularity_schedule(96, 8) == [12, 24, 36, 48, 60, 72, 84, 96]


def test_schedule_single_head():
    assert granularity_schedule(96, 1) == [96]


def test_schedule_indivisible():
    with pytest.raises(ConfigError, match="divide"):
        granularity_schedule(96, 7)
    with pytest.raises(ConfigError, match="divide"):
        ModelConfig(lookback=96, horizon=96, channels=7, heads=7)


def test_init_deterministic(tiny_cfg):
    a = init_params(tiny_cfg, 11)
    b = init_params(tiny_cfg, 11)
    assert a.names() == b.names()
    for name in a.names():
        np.testing.assert_array_equal(a[name], b[name])
    c = init_params(tiny_cfg, 12)
    assert any(not np.array_equal(a[n], c[n]) for n in a.names())


def test_init_head_widths():
    cfg = ModelConfig(lookback=96, horizon=96, channels=7)
    params = init_params(cfg, 0)
    widths = [params[f"season_head_{i}.weight"].shape[1] for i in range(1, 9)]
    assert widths == [12, 24, 36, 48, 60, 72, 84, 96]


def test_init_gate_shape():
    cfg = ModelConfig(lookback=8, horizon=4, channels=2, patch_len=4, stride=2,
                      embed_dim=3, heads=2, hidden=5, kernel=3)
    params = init_params(cfg, 0)
    assert params["gate.fc2.weight"].shape == (5, 4)  # hidden -> H * C


def test_init_bounds_and_biases(tiny_cfg):
    params = init_params(tiny_cfg, 3)
    for name, arr in params.items():
        if name.endswith(".bias"):
            assert not arr.any()
        elif not name.startswith("pos_"):
            bound = 1.0 / np.sqrt(arr.shape[0])
            assert np.abs(arr).max() <= bound


# ---------------------------------------------------------------------------
# parameter arena


def test_tensors_tile_the_flat_buffer_in_layout_order(tiny_cfg):
    params = init_params(tiny_cfg, 4)
    assert params.flat.ndim == 1 and params.flat.flags.owndata
    assert params.layout() == param_layout(tiny_cfg)
    offset = 0
    for name, arr in params.items():
        assert arr.base is params.flat and arr.flags.c_contiguous, name
        np.testing.assert_array_equal(
            arr.reshape(-1), params.flat[offset:offset + arr.size])
        offset += arr.size
    assert offset == params.flat.size


def test_constructor_copies_its_tensors():
    w = np.arange(12.0).reshape(4, 3)
    params = ParamSet({"w": w.T, "b": np.zeros(2)})
    params["w"][0, 0] = 99.0
    assert w[0, 0] == 0.0
    np.testing.assert_array_equal(params["w"][:, 1:], w.T[:, 1:])
    assert params.flat.size == 14 and params.dtype == np.float64


@pytest.mark.parametrize("derive", [
    lambda p: p.copy(), lambda p: p.astype(np.float64), lambda p: p.zeros_like()],
    ids=["copy", "astype", "zeros_like"])
def test_derived_set_has_its_own_buffer(tiny_cfg, derive):
    params = init_params(tiny_cfg, 5)
    before = params.flat.copy()
    derived = derive(params)
    assert derived.layout() == params.layout()
    derived.flat[:] = 7.0
    derived["embed_s.weight"][...] = -7.0
    assert params.flat.tobytes() == before.tobytes()


def test_setitem_writes_into_the_view():
    params = ParamSet({"w": np.zeros((2, 3)), "b": np.zeros(3)})
    view = params["w"]
    params["w"] = np.ones((3, 2)).T
    assert params["w"] is view and view.base is params.flat
    np.testing.assert_array_equal(params.flat, [1.0] * 6 + [0.0] * 3)
    params["b"] += 2.0  # in place, then assigned onto itself
    np.testing.assert_array_equal(params["b"], [2.0, 2.0, 2.0])


def test_setitem_rejects_unknown_name_and_new_shape():
    params = ParamSet({"w": np.zeros((2, 3))})
    with pytest.raises(KeyError, match="extra"):
        params["extra"] = np.zeros(3)
    with pytest.raises(ValueError, match=r"'w' has shape \(2, 3\), not \(3, 2\)"):
        params["w"] = np.zeros((3, 2))
    with pytest.raises(ValueError, match="'w'"):
        params["w"] = np.zeros(6)
    assert params.names() == ["w"] and not params.flat.any()


# ---------------------------------------------------------------------------
# stage ops


def test_embed_zero_patches_gives_pos():
    rng = np.random.default_rng(0)
    weight = rng.normal(size=(4, 3))
    pos = rng.normal(size=(5, 3))
    out = embed(np.zeros((2, 2, 5, 4)), weight, np.zeros(3), pos)
    np.testing.assert_allclose(out, np.broadcast_to(pos, (2, 2, 5, 3)))


def test_embed_identity_weights():
    rng = np.random.default_rng(1)
    patches = rng.normal(size=(2, 3, 4, 4))
    out = embed(patches, np.eye(4), np.zeros(4), np.zeros((4, 4)))
    np.testing.assert_allclose(out, patches)


def test_embed_shape():
    rng = np.random.default_rng(2)
    out = embed(rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(4, 3)),
                rng.normal(size=3), rng.normal(size=(4, 3)))
    assert out.shape == (2, 2, 4, 3)


@pytest.mark.parametrize("kw", [
    pytest.param({}, id="shared"),
    pytest.param(dict(pos_encoding="per_channel"), id="per_channel"),
    pytest.param(dict(stride=10), id="stride10"),  # the last patch reads padding
    pytest.param(dict(patch_len=96, stride=200), id="whole_window")])
def test_embed_operator_is_the_patch_embedding(kw):
    """``x @ E + c`` from ``embed_operator`` equals the patched embedding
    of every series, flattened per channel, including the zero padding
    the last patch reads."""
    cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "channels": 3, **kw})
    params = init_params(cfg, 0, dtype=np.float64)
    params["embed_s.bias"][:] = np.random.default_rng(1).normal(size=cfg.embed_dim)
    x = rand_batch(np.random.default_rng(2), 5, 96, 3, dtype=np.float64)
    op = embed_operator(params, "s", cfg)
    rows = 1 if cfg.pos_encoding == "shared" else 3
    assert op.shape == (96 + rows, cfg.num_patches * cfg.embed_dim)
    want = embed(patch(x, cfg.patch_len, cfg.stride).patches, params["embed_s.weight"],
                 params["embed_s.bias"], params["pos_s"]).reshape(5, 3, -1)
    got = x.transpose(0, 2, 1) @ op[:96] + op[96:]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kw", [
    pytest.param({}, id="shared"),
    pytest.param(dict(pos_encoding="per_channel"), id="per_channel"),
    pytest.param(dict(stride=10, heads=4), id="stride10-heads4"),
    pytest.param(dict(use_mim=False), id="mim_off"),
    pytest.param(dict(heads=1), id="one_head")])
def test_season_chain_is_the_mixed_seasonal_heads(kw):
    """Head i's ``season_chain`` operator applied to the seasonal series,
    ``x @ O_i[:T] + O_i[T:]``, is that head's seasonal forecast after the
    mixer chain (none with MIM off or at one head), from the embeddings;
    in float64 to 1e-12 of the largest value, with every bias nonzero. The
    float32 operators are the float64 ones cast once."""
    cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "channels": 3, **kw})
    params = init_params(cfg, 0, dtype=np.float64)
    rng = np.random.default_rng(3)
    for name in params.names():
        if name.endswith(".bias") and name.startswith(("embed_s", "season_", "mixer_s")):
            params[name][:] = rng.normal(size=params[name].shape)
    x = rand_batch(rng, 5, 96, 3, dtype=np.float64)
    u = embed(patch(x, cfg.patch_len, cfg.stride).patches, params["embed_s.weight"],
              params["embed_s.bias"], params["pos_s"]).reshape(5, 3, -1)
    z = mpp_seasonal(u, params, granularity_schedule(cfg.horizon, cfg.heads))
    mixers = [(params[f"mixer_s_{i}.weight"], params[f"mixer_s_{i}.bias"])
              for i in range(2, cfg.heads + 1)] if cfg.use_mim else None
    wants = mim(z, mixers) if mixers is not None else z
    chain = season_chain(embed_operator(params, "s", cfg), params, cfg)
    assert len(chain) == len(wants) == cfg.heads
    for o, want in zip(chain, wants):
        got = x.transpose(0, 2, 1) @ o[:96] + o[96:]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    params32 = params.astype(np.float32)
    chain32 = season_chain(embed_operator(params32, "s", cfg), params32, cfg)
    for o, o32 in zip(season_chain(embed_operator(params32, "s", cfg),
                                   params32.astype(np.float64), cfg), chain32):
        assert o32.dtype == np.float32 and o32.tobytes() == o.astype(np.float32).tobytes()


def test_fold_pays_from_multiply_adds():
    """The fold pays once the rows' saving, ``rows x (N*D - T)``, exceeds
    the cost of folding the operator's T + C' rows into each weight."""
    assert not fold_pays(129, 96, 384, 1) and fold_pays(130, 96, 384, 1)
    assert not fold_pays(10**6, 96, 96, 1)  # no saving when N*D <= T
    # per-channel encodings fold C more rows: C=321 pays at B=4, not B=1
    assert fold_pays(4 * 321, 96, 384, 321) and not fold_pays(321, 96, 384, 321)


@st.composite
def embed_configs(draw) -> ModelConfig:
    """Patch geometries at any stride, above patch_len too, with patches up
    to the whole window, and either positional encoding."""
    t = draw(st.integers(1, 40))
    return ModelConfig(lookback=t, horizon=1, heads=1, channels=draw(st.integers(1, 4)),
                       patch_len=draw(st.one_of(st.just(t), st.integers(1, t))),
                       stride=draw(st.integers(1, t + 8)),
                       embed_dim=draw(st.integers(1, 5)),
                       pos_encoding=draw(st.sampled_from(["shared", "per_channel"])))


EMBED_EXAMPLES = [  # one of each geometry the strategy must cover
    ModelConfig(lookback=24, horizon=1, heads=1, channels=3, patch_len=4, stride=7),
    ModelConfig(lookback=24, horizon=1, heads=1, channels=3, patch_len=24, stride=5),
    ModelConfig(lookback=24, horizon=1, heads=1, channels=3, patch_len=8, stride=4,
                embed_dim=5, pos_encoding="per_channel")]


def _embed_tensors(cfg: ModelConfig, seed: int) -> ParamSet:
    """A float64 set holding a branch's embedding weight and bias and its
    positional encodings, seeded normal."""
    layout = {n: shape for n, shape in param_layout(cfg).items()
              if n.startswith(("embed_s.", "pos_s"))}
    rng = np.random.default_rng(seed)
    return ParamSet({n: rng.normal(size=shape) for n, shape in layout.items()})


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(cfg=embed_configs(), seed=st.integers(0, 2**32 - 1))
@example(cfg=EMBED_EXAMPLES[0], seed=0)
@example(cfg=EMBED_EXAMPLES[1], seed=1)
@example(cfg=EMBED_EXAMPLES[2], seed=2)
def test_embed_operator_backward_is_the_adjoint(cfg, seed):
    """``embed_operator`` is linear in the embedding weight, its bias and
    the positional encodings together; ``embed_operator_backward`` is its
    adjoint, the one reverse of the patch embedding on both associations."""
    theta = _embed_tensors(cfg, seed)
    layout = theta.layout()

    def forward_op(flat):
        return embed_operator(ParamSet._over(flat, layout), "s", cfg)

    def reverse_op(d_op):
        grads = ParamSet._over(np.full_like(theta.flat, np.nan), layout)
        embed_operator_backward(d_op, theta, grads, "s", cfg)
        return grads.flat

    d_op = np.random.default_rng(seed + 1).normal(size=forward_op(theta.flat).shape)
    _assert_adjoint(forward_op, reverse_op, theta.flat, d_op)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(cfg=embed_configs(), b=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(cfg=EMBED_EXAMPLES[0], b=2, seed=0)
@example(cfg=EMBED_EXAMPLES[1], b=2, seed=1)
@example(cfg=EMBED_EXAMPLES[2], b=2, seed=2)
def test_operator_grad_is_the_adjoint(cfg, b, seed):
    """``_operator_grad`` is the adjoint of ``x @ A + a`` in A stacked over
    a, with a's one shared row or C per-channel rows repeating down the
    (B x C x T) series x."""
    t, c, width = cfg.lookback, cfg.channels, cfg.num_patches * cfg.embed_dim
    offset_rows = c if cfg.pos_encoding == "per_channel" else 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, c, t))
    op = rng.normal(size=(t + offset_rows, width))
    dy = rng.normal(size=(b, c, width))
    _assert_adjoint(lambda m: x @ m[:t] + m[t:],
                    lambda d: _operator_grad(d, x, offset_rows), op, dy,
                    abs_op=lambda m: np.abs(x) @ m[:t] + m[t:])


def trend_heads(u, params, schedule):
    """The trend branch's heads: one MLP per granularity."""
    return [mlp(u, params, f"trend_head_{i}")[0]
            for i in range(1, len(schedule) + 1)]


def test_mpp_shapes_and_zero(tiny_cfg):
    params = zeroed_offsets(init_params(tiny_cfg, 0))
    schedule = granularity_schedule(tiny_cfg.horizon, tiny_cfg.heads)
    u = np.zeros((3, 2, tiny_cfg.num_patches * tiny_cfg.embed_dim), dtype=np.float32)
    for z, g in zip(mpp_seasonal(u, params, schedule), schedule):
        assert z.shape == (3, 2, g)
        assert not z.any()
    for z, g in zip(trend_heads(u, params, schedule), schedule):
        assert z.shape == (3, 2, g)
        assert not z.any()


def test_mpp_channel_equivariance(tiny_cfg):
    rng = np.random.default_rng(3)
    params = init_params(tiny_cfg, 0)
    schedule = granularity_schedule(tiny_cfg.horizon, tiny_cfg.heads)
    u = rng.normal(size=(4, 2, tiny_cfg.num_patches * tiny_cfg.embed_dim))
    perm = [1, 0]
    for op in (mpp_seasonal, trend_heads):
        outs = op(u, params, schedule)
        outs_perm = op(u[:, perm], params, schedule)
        for a, b in zip(outs, outs_perm):
            np.testing.assert_array_equal(a[:, perm], b)


def test_mpp_trend_relu_kill(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    for i in (1, 2):
        params[f"trend_head_{i}.fc1.bias"][:] = -1e6   # hidden units all clamp
        params[f"trend_head_{i}.fc2.bias"][:] = 0.75
    rng = np.random.default_rng(4)
    u = rng.normal(size=(2, 2, tiny_cfg.num_patches * tiny_cfg.embed_dim))
    for z in trend_heads(u, params, granularity_schedule(4, 2)):
        np.testing.assert_allclose(z, 0.75)


def test_mim_single_head():
    z = [np.ones((1, 1, 4))]
    out = mim(z, [])
    assert len(out) == 1
    np.testing.assert_array_equal(out[0], z[0])


def test_mim_zero_mixers_passthrough():
    rng = np.random.default_rng(5)
    z = [rng.normal(size=(2, 3, g)) for g in (2, 4, 6)]
    mixers = [(np.zeros((2, 4)), np.zeros(4)), (np.zeros((4, 6)), np.zeros(6))]
    out = mim(z, mixers)
    for a, b in zip(out, z):
        np.testing.assert_array_equal(a, b)


def test_mim_hand_example():
    z1 = np.array([[[1.0, 1.0]]])          # (B=1, C=1, G=2)
    z2 = np.zeros((1, 1, 4))
    out = mim([z1, z2], [(np.ones((2, 4)), np.zeros(4))])
    np.testing.assert_array_equal(out[1], [[[2.0, 2.0, 2.0, 2.0]]])


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_mim_matches_stacked_matmul(dtype, tol):
    # oracle: the stacked (B, C, G) expression mim used to evaluate, one
    # small matmul per window; mim now runs one GEMM over all B*C rows
    schedule = granularity_schedule(720, 8)
    rng = np.random.default_rng(11)
    z = [rng.normal(size=(32, 7, g)).astype(dtype) for g in schedule]
    mixers = [(rng.normal(size=(g0, g1)).astype(dtype) / np.sqrt(g0),
               rng.normal(size=g1).astype(dtype))
              for g0, g1 in zip(schedule, schedule[1:])]
    want = [z[0]]
    for zi, (weight, bias) in zip(z[1:], mixers):
        want.append(zi + want[-1] @ weight + bias)
    got = mim(z, mixers)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.linalg.norm(g - w) <= tol * np.linalg.norm(w)


def gate_input(xd_s, xd_t):
    """``amwg``'s input: each branch's (B, C, N, D) embeddings pooled to
    their mean per channel, seasonal then trend (B, 2C)."""
    return np.concatenate([xd_s.mean(axis=(2, 3)), xd_t.mean(axis=(2, 3))], axis=1)


def test_amwg_uniform_for_constant_logits(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    params["gate.fc2.weight"][:] = 0.0
    rng = np.random.default_rng(6)
    xd = rng.normal(size=(3, 2, tiny_cfg.num_patches, tiny_cfg.embed_dim))
    weights, _ = amwg(gate_input(xd, xd), params, heads=2)
    np.testing.assert_allclose(weights, 0.5)


def test_amwg_softmax_hand_values(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    params["gate.fc1.weight"][:] = 0.0
    params["gate.fc2.weight"][:] = 0.0
    # bias layout is (H*C,) reshaped row-major to (H, C)
    params["gate.fc2.bias"][:] = [np.log(2.0), np.log(2.0), 0.0, 0.0]
    xd = np.zeros((1, 2, 4, 3), dtype=np.float32)
    weights, _ = amwg(gate_input(xd, xd), params, heads=2)
    np.testing.assert_allclose(weights[0, :, 0], [2 / 3, 1 / 3], atol=1e-6)
    np.testing.assert_allclose(weights[0, :, 1], [2 / 3, 1 / 3], atol=1e-6)


def test_amwg_simplex(tiny_cfg):
    rng = np.random.default_rng(7)
    params = init_params(tiny_cfg, 1)
    xd_s = rng.normal(size=(5, 2, 4, 3))
    xd_t = rng.normal(size=(5, 2, 4, 3))
    weights, _ = amwg(gate_input(xd_s, xd_t), params, heads=2)
    assert weights.shape == (5, 2, 2)
    assert weights.min() >= 0
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)


def test_upsample_hand_values():
    out = upsample(np.array([[[0.0, 1.0]]]), 4)
    np.testing.assert_allclose(out, [[[0.0, 1 / 3, 2 / 3, 1.0]]])


def test_upsample_identity():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(2, 3, 7))
    np.testing.assert_array_equal(upsample(y, 7), y)


def test_upsample_constant_extension():
    out = upsample(np.full((1, 1, 1), 7.0), 5)
    np.testing.assert_array_equal(out, np.full((1, 1, 5), 7.0))


def test_upsample_endpoints():
    rng = np.random.default_rng(9)
    for g, f in ((2, 9), (3, 96), (5, 5), (1, 4)):
        y = rng.normal(size=(2, 2, g))
        out = upsample(y, f)
        np.testing.assert_allclose(out[..., 0], y[..., 0], atol=1e-12)
        np.testing.assert_allclose(out[..., -1], y[..., -1], atol=1e-12)


def _interp_by_columns(source_len: int, target_len: int) -> np.ndarray:
    """Reference: the interpolation matrix built one output column at a time."""
    mat = np.zeros((source_len, target_len), dtype=np.float64)
    if source_len == 1:
        mat[0, :] = 1.0
        return mat
    scale = (source_len - 1) / (target_len - 1)
    for j in range(target_len):
        s = j * scale
        k = int(np.floor(s))
        if k >= source_len - 1:
            mat[source_len - 1, j] = 1.0
        else:
            frac = s - k
            mat[k, j], mat[k + 1, j] = 1.0 - frac, frac
    return mat


@pytest.mark.parametrize("f", [*range(1, 25), *HORIZONS])
def test_interp_matrix_matches_the_column_loop(f):
    """Bit for bit, at every source length up to 24 and at the head
    lengths of the trained horizons."""
    for g in range(1, f + 1) if f <= 24 else head_lengths(f):
        assert _interp_matrix(g, f).tobytes() == _interp_by_columns(g, f).tobytes(), g


OPERATORS = ([(_interp_matrix, g_f) for g_f in ((12, 96), (1, 4), (7, 7), (90, 720))]
             + [(_pool_matrix, f_g) for f_g in ((96, 12), (8, 3), (7, 7), (720, 90))])
TRANSPOSES = (False, True)


@pytest.mark.parametrize("builder, shape", OPERATORS)
def test_cached_operator_is_read_only(builder, shape):
    for transpose in TRANSPOSES:
        for _, _, block in band_blocks(builder, shape, np.dtype(np.float32),
                                       transpose):
            assert not block.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                block.T[0, 0] = 2.0


@pytest.mark.parametrize("builder, shape", OPERATORS)
def test_cached_operator_per_dtype(builder, shape):
    for transpose in TRANSPOSES:
        f32 = band_blocks(builder, shape, np.dtype(np.float32), transpose)
        f64 = band_blocks(builder, shape, np.dtype(np.float64), transpose)
        assert band_blocks(builder, shape, np.dtype(np.float32), transpose) is f32
        assert band_blocks(builder, shape, np.dtype(np.float64), transpose) is f64
        assert {b.dtype for _, _, b in f32} == {np.dtype(np.float32)}
        assert {b.dtype for _, _, b in f64} == {np.dtype(np.float64)}


@pytest.mark.parametrize("builder, shape", OPERATORS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cached_operator_is_float64_cast(builder, shape, dtype):
    """The blocks tile the float64 build cast to ``dtype`` bit for bit,
    and nothing they leave out is nonzero."""
    for transpose in TRANSPOSES:
        dense = builder(*shape)
        want = (dense.T if transpose else dense).astype(dtype)
        assembled = np.zeros_like(want)
        for k0, n0, block in band_blocks(builder, shape, np.dtype(dtype), transpose):
            rows, cols = block.shape
            assert block.tobytes() == want[k0:k0 + rows, n0:n0 + cols].tobytes()
            assembled[k0:k0 + rows, n0:n0 + cols] = block
        assert assembled.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f", HORIZONS)
def test_upsample_matches_dense(f, dtype):
    rng = np.random.default_rng(f)
    for g in head_lengths(f):
        mat = _interp_matrix(g, f).astype(dtype)
        y = rng.normal(size=(2, 3, g)).astype(dtype)
        assert_banded_matches_dense(upsample(y, f), y, mat, f"G={g}")
        d_up = rng.normal(size=(2, 3, f)).astype(dtype)
        assert_banded_matches_dense(upsample_backward(d_up, g), d_up, mat.T,
                                    f"reverse, G={g}")


def _rows(rng, b: int, c: int, length: int, strided: bool) -> np.ndarray:
    """(B, C, length) float64 rows: contiguous, or a transposed view of a
    (B, length, C) array, as the forward's head and target series are."""
    if strided:
        return rng.normal(size=(b, length, c)).transpose(0, 2, 1)
    return rng.normal(size=(b, c, length))


def _assert_adjoint(forward_op, reverse_op, x: np.ndarray, y: np.ndarray,
                    abs_op=None):
    """<A x, y> = <x, A^T y> within 1e-12 of <|A| |x|, |y|>, the size of
    the terms summed; ``abs_op`` applies |A|, which is A itself when the
    operator's entries are nonnegative (the default)."""
    lhs = float((forward_op(x) * y).sum())
    rhs = float((x * reverse_op(y)).sum())
    scale = float(((abs_op or forward_op)(np.abs(x)) * np.abs(y)).sum())
    assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs)


ADJOINT_CASES = dict(f=st.sampled_from([96, 720]), pick=st.integers(0, 99),
                     b=st.integers(1, 3), c=st.integers(1, 4),
                     strided=st.booleans(), seed=st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(**ADJOINT_CASES)
def test_upsample_adjoint_identity(f, pick, b, c, strided, seed):
    g = head_lengths(f)[pick % len(head_lengths(f))]
    rng = np.random.default_rng(seed)
    _assert_adjoint(lambda x: upsample(x, f), lambda y: upsample_backward(y, g),
                    _rows(rng, b, c, g, strided), _rows(rng, b, c, f, strided))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(**ADJOINT_CASES)
def test_pooling_adjoint_identity(f, pick, b, c, strided, seed):
    # alignment_targets pools with _pool_matrix's transposed blocks (F -> G);
    # the untransposed blocks spread G back over F
    g = head_lengths(f)[pick % len(head_lengths(f))]
    pool, spread = (band_blocks(_pool_matrix, (f, g), np.dtype(np.float64), t)
                    for t in (True, False))
    rng = np.random.default_rng(seed)
    _assert_adjoint(lambda x: band_matmul(x, pool), lambda y: band_matmul(y, spread),
                    _rows(rng, b, c, f, strided), _rows(rng, b, c, g, strided))


def test_fuse_equal_heads_double():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(2, 3, 6))
    weights = rng.dirichlet(np.ones(4), size=(2, 3)).transpose(0, 2, 1)
    out = fuse([a, a, a, a], weights, 6)
    np.testing.assert_allclose(out, 2 * a, atol=1e-12)


def test_fuse_single_head():
    y = np.random.default_rng(11).normal(size=(1, 2, 4))
    out = fuse([y], np.ones((1, 1, 2)), 4)
    np.testing.assert_allclose(out, 2 * y)


def test_fuse_hard_selection():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(2, 1, 2, 4))
    weights = np.zeros((1, 2, 2))
    weights[:, 0, :] = 1.0
    out = fuse([a, b], weights, 4)
    np.testing.assert_allclose(out, a + (a + b) / 2)


def fuse_at_horizon(heads, weights, horizon):
    """Reference fusion and its reverse at the horizon: every head
    upsampled first, then their mean plus their weighted sum; the reverse
    upsamples back each head's scaled gradient, and the weights' gradient
    reduces the product with each upsampled head over the horizon."""
    upsampled = [upsample(y, horizon) for y in heads]
    mean = upsampled[0].copy()
    for y in upsampled[1:]:
        mean += y
    mean /= len(upsampled)
    fused = mean
    for i, y in enumerate(upsampled):
        fused = fused + weights[:, i, :][:, :, None] * y

    def reverse(d_fused):
        d_heads = [upsample_backward((weights[:, i, :][:, :, None] + 1.0 / len(heads))
                                     * d_fused, y.shape[-1])
                   for i, y in enumerate(heads)]
        d_weights = np.stack([(d_fused * y).sum(axis=2) for y in upsampled], axis=1)
        return d_heads, d_weights
    return fused, reverse


def norm_rel(got, want) -> float:
    want = np.asarray(want, dtype=np.float64)
    return float(np.linalg.norm(np.asarray(got, dtype=np.float64) - want)
                 / np.linalg.norm(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gated", [False, True], ids=["zero_weights", "dirichlet"])
@pytest.mark.parametrize("heads", [1, 2, 8])
@pytest.mark.parametrize("f", [96, 720])
def test_fuse_matches_fusion_at_horizon(f, heads, gated, dtype):
    rng = np.random.default_rng(f + heads)
    b, c = 4, 3
    ys = [rng.normal(size=(b, c, g)).astype(dtype)
          for g in granularity_schedule(f, heads)]
    weights = np.zeros((b, heads, c), dtype=dtype)
    if gated:
        weights = rng.dirichlet(np.ones(heads), size=(b, c)).transpose(0, 2, 1) \
            .astype(dtype)
    d_fused = rng.normal(size=(b, c, f)).astype(dtype)
    want, reverse = fuse_at_horizon(ys, weights, f)
    want_d_heads, want_d_weights = reverse(d_fused)
    fused = fuse(ys, weights, f)
    d_heads, d_weights = fuse_backward(d_fused, ys, weights)
    tol = 1e-6 if dtype == np.float32 else 1e-12
    assert fused.dtype == dtype and fused.shape == want.shape
    assert norm_rel(fused, want) <= tol
    assert d_weights.dtype == dtype and norm_rel(d_weights, want_d_weights) <= tol
    for got, ref in zip(d_heads, want_d_heads, strict=True):
        assert got.dtype == dtype and got.shape == ref.shape
        assert norm_rel(got, ref) <= tol


FUSE_CASES = dict(f=st.sampled_from([96, 720]), heads=st.sampled_from([1, 2, 3, 4, 6, 8]),
                  b=st.integers(1, 3), c=st.integers(1, 4),
                  seed=st.integers(0, 2**32 - 1))


def _fuse_inputs(rng, f, heads, b, c):
    """Float64 heads (B, C, G_i) of the schedule, weights (B, H, C) of
    either sign, and a gradient at the fused output (B, C, F)."""
    ys = [rng.normal(size=(b, c, g)) for g in granularity_schedule(f, heads)]
    return ys, rng.normal(size=(b, heads, c)), rng.normal(size=(b, c, f))


def _fuse_terms(ys, weights, d_fused) -> float:
    """Sum of |scale_i| |y_i| (U_i^T |d|): the size of the terms every
    inner product below sums (the upsampling entries are nonnegative)."""
    scale = np.abs(weights + 1.0 / len(ys))
    return float(sum((scale[:, i, :, None] * np.abs(y)
                      * upsample_backward(np.abs(d_fused), y.shape[-1])).sum()
                     for i, y in enumerate(ys)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(**FUSE_CASES, a=st.floats(-4, 4), a2=st.floats(-4, 4))
def test_fuse_is_linear_in_the_heads(f, heads, b, c, seed, a, a2):
    rng = np.random.default_rng(seed)
    ys, weights, _ = _fuse_inputs(rng, f, heads, b, c)
    zs = [rng.normal(size=y.shape) for y in ys]
    got = fuse([a * y + a2 * z for y, z in zip(ys, zs)], weights, f)
    want = a * fuse(ys, weights, f) + a2 * fuse(zs, weights, f)
    terms = fuse([np.abs(a * y) + np.abs(a2 * z) for y, z in zip(ys, zs)],
                 np.abs(weights + 1.0 / heads) - 1.0 / heads, f)
    assert np.all(np.abs(got - want) <= 1e-12 * (terms + np.abs(want)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(**FUSE_CASES)
def test_fuse_backward_is_the_adjoint_in_heads_and_weights(f, heads, b, c, seed):
    """``fuse`` is bilinear in the heads y_i and the scales w_i + 1/H, so
    <fuse(y, w), d> is sum_i <y_i, d_heads_i> and <w + 1/H, d_weights>."""
    ys, weights, d_fused = _fuse_inputs(np.random.default_rng(seed), f, heads, b, c)
    d_heads, d_weights = fuse_backward(d_fused, ys, weights)
    lhs = float((fuse(ys, weights, f) * d_fused).sum())
    via_heads = sum(float((y * d).sum()) for y, d in zip(ys, d_heads, strict=True))
    via_weights = float(((weights + 1.0 / heads) * d_weights).sum())
    tol = 1e-12 * _fuse_terms(ys, weights, d_fused)
    assert abs(lhs - via_heads) <= tol, (lhs, via_heads)
    assert abs(lhs - via_weights) <= tol, (lhs, via_weights)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(heads=st.sampled_from([2, 4, 8]), b=st.integers(1, 4), c=st.integers(1, 5),
       magnitude=st.integers(-3, 8), seed=st.integers(0, 2**32 - 1))
def test_amwg_weights_are_a_simplex(heads, b, c, magnitude, seed):
    """Finite, nonnegative and summing to 1 over the heads, also for
    embeddings up to 1e8 in size, where the logits reach far past exp's
    float64 range unless the max is subtracted first. (One head has no
    gate: its weight is the constant 1.)"""
    cfg = ModelConfig(**{**TINY, "horizon": 8, "channels": c, "heads": heads})
    params = init_params(cfg, seed % 1000, dtype=np.float64)
    rng = np.random.default_rng(seed)
    xd_s, xd_t = (10.0 ** magnitude * rng.normal(
        size=(b, c, cfg.num_patches, cfg.embed_dim)) for _ in "st")
    weights, _ = amwg(gate_input(xd_s, xd_t), params, heads)
    assert weights.shape == (b, heads, c) and weights.dtype == np.float64
    assert np.all(np.isfinite(weights)) and weights.min() >= 0
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# full forward


def test_forward_shapes(tiny_cfg):
    rng = np.random.default_rng(13)
    params = init_params(tiny_cfg, 0)
    out = forward(rand_batch(rng, 3, 8, 2), params, tiny_cfg)
    assert out.final.shape == (3, 4, 2)
    assert [y.shape for y in out.per_granularity] == [(3, 2, 2), (3, 4, 2)]
    assert [upsample(y.transpose(0, 2, 1), 4).transpose(0, 2, 1).shape
            for y in out.per_granularity] == [(3, 4, 2), (3, 4, 2)]
    assert out.gate_weights.shape == (3, 2, 2)


def test_forward_constant_window(tiny_cfg):
    params = zeroed_offsets(init_params(tiny_cfg, 0))
    x = np.empty((2, 8, 2), dtype=np.float32)
    x[0, :, 0], x[0, :, 1] = 5.0, -3.0
    x[1, :, 0], x[1, :, 1] = 0.25, 100.0
    out = forward(x, params, tiny_cfg)
    # zeros flow through every linear stage; denormalization restores the mean
    np.testing.assert_allclose(out.final, x[:, :4, :], atol=1e-4)


def test_forward_mean_fusion_of_equal_heads():
    cfg = ModelConfig(**{**TINY, "use_amwg": False})
    rng = np.random.default_rng(14)
    # engineered equal heads: zero everything except a shared bias pattern
    params = zeroed_offsets(init_params(cfg, 0))
    for i in (1, 2):
        for name in (f"season_head_{i}.weight", f"trend_head_{i}.fc1.weight",
                     f"trend_head_{i}.fc2.weight"):
            params[name][:] = 0.0
        params[f"season_head_{i}.bias"][:] = 0.5
    for i in (2,):
        params[f"mixer_s_{i}.weight"][:] = 0.0
        params[f"mixer_t_{i}.weight"][:] = 0.0
    out = forward(rand_batch(rng, 2, 8, 2), params, cfg)
    head_1 = upsample(out.per_granularity[0].transpose(0, 2, 1), 4)
    np.testing.assert_allclose(out.final, head_1.transpose(0, 2, 1), atol=1e-5)
    np.testing.assert_allclose(out.gate_weights, 0.5)


def test_forward_gate_simplex(tiny_cfg):
    rng = np.random.default_rng(15)
    params = init_params(tiny_cfg, 2)
    out = forward(rand_batch(rng, 6, 8, 2), params, tiny_cfg)
    assert out.gate_weights.min() >= 0
    np.testing.assert_allclose(out.gate_weights.sum(axis=1), 1.0, atol=1e-6)


def test_forward_channel_equivariance_without_gate():
    cfg = ModelConfig(**{**TINY, "use_amwg": False})
    params = init_params(cfg, 3)
    rng = np.random.default_rng(16)
    x = rand_batch(rng, 3, 8, 2, dtype=np.float64)
    perm = [1, 0]
    direct = forward(x[:, :, perm], params.astype(np.float64), cfg)
    swapped = forward(x, params.astype(np.float64), cfg)
    np.testing.assert_allclose(direct.final, swapped.final[:, :, perm], atol=1e-10)


def test_forward_deterministic(tiny_cfg):
    rng = np.random.default_rng(17)
    params = init_params(tiny_cfg, 4)
    x = rand_batch(rng, 4, 8, 2)
    a = forward(x, params, tiny_cfg)
    b = forward(x, params, tiny_cfg)
    np.testing.assert_array_equal(a.final, b.final)
    np.testing.assert_array_equal(a.gate_weights, b.gate_weights)


def test_forward_granularity_additivity(tiny_cfg):
    # each per-granularity forecast is the sum of the seasonal and the trend
    # branch: silencing one branch's heads and mixers leaves the other
    # alone. Windows of +-1 in equal numbers have mean 0 and std 1 exactly,
    # so the instance scale restores nothing and the sums are exact.
    rng = np.random.default_rng(18)
    pattern = np.array([1.0] * 4 + [-1.0] * 4, dtype=np.float32)
    x = np.stack([np.stack([rng.permutation(pattern) for _ in range(2)], axis=1)
                  for _ in range(3)])
    params = init_params(tiny_cfg, 5)

    def per_granularity(silenced):
        part = params.copy()
        for name in part.names():
            if name.startswith(silenced):
                part[name][:] = 0.0
        return forward(x, part, tiny_cfg).per_granularity

    full = per_granularity(())
    seasonal = per_granularity(("trend_head_", "mixer_t_"))
    trend = per_granularity(("season_head_", "mixer_s_"))
    for total, s, t in zip(full, seasonal, trend):
        np.testing.assert_array_equal(total, s + t)


def test_forward_zero_mixers_match_mim_off(tiny_cfg):
    rng = np.random.default_rng(19)
    x = rand_batch(rng, 3, 8, 2)
    params = init_params(tiny_cfg, 6)
    for name in ("mixer_s_2.weight", "mixer_s_2.bias",
                 "mixer_t_2.weight", "mixer_t_2.bias"):
        params[name][:] = 0.0
    with_mixers = forward(x, params, tiny_cfg)
    cfg_off = ModelConfig(**{**TINY, "use_mim": False})
    without = forward(x, ParamSet({n: a for n, a in params.items()
                                   if not n.startswith("mixer_")}), cfg_off)
    np.testing.assert_allclose(with_mixers.final, without.final, atol=1e-7)


def test_forward_shape_errors(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    with pytest.raises(ValueError, match="forward/input"):
        forward(np.zeros((2, 9, 2), dtype=np.float32), params, tiny_cfg)
    with pytest.raises(ValueError, match="forward/input"):
        forward(np.zeros((2, 8, 3), dtype=np.float32), params, tiny_cfg)


def test_forward_without_mpp():
    """One head is the paper's "w/o MPP": with use_mim and use_amwg at
    their defaults it has no mixer and no gate, reports gate weights of 1,
    and its forecast is its one head."""
    cfg = ModelConfig(**{**TINY, "heads": 1})
    assert cfg.use_mim and cfg.use_amwg and not cfg.amwg_enabled
    params = init_params(cfg, 0)
    assert not [n for n in params.names() if n.startswith(("mixer_", "gate."))]
    rng = np.random.default_rng(20)
    out = forward(rand_batch(rng, 2, 8, 2), params, cfg)
    assert len(out.per_granularity) == 1
    assert out.per_granularity[0].shape == (2, 4, 2)
    assert out.gate_weights.shape == (2, 1, 2) and (out.gate_weights == 1).all()
    np.testing.assert_allclose(out.final, out.per_granularity[0], atol=1e-6)


def test_per_channel_positional_mode():
    cfg = ModelConfig(**{**TINY, "pos_encoding": "per_channel"})
    params = init_params(cfg, 0)
    assert params["pos_s"].shape == (2, cfg.num_patches, 3)
    rng = np.random.default_rng(21)
    out = forward(rand_batch(rng, 2, 8, 2), params, cfg)
    assert out.final.shape == (2, 4, 2)


def test_forward_dtype_consistency(tiny_cfg):
    # the 64-bit path used by the gradient checker must agree with the
    # 32-bit training path to float32 accuracy
    rng = np.random.default_rng(22)
    params = init_params(tiny_cfg, 7)
    x = rand_batch(rng, 4, 8, 2)
    out32 = forward(x, params, tiny_cfg)
    out64 = forward(x.astype(np.float64), params.astype(np.float64), tiny_cfg)
    np.testing.assert_allclose(out32.final, out64.final, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(out32.gate_weights, out64.gate_weights, atol=1e-5)


# ---------------------------------------------------------------------------
# checkpoints


def read_checkpoint_manifest(path) -> dict[str, tuple[int, ...]]:
    """Tensor name -> shape, without loading the blobs."""
    return {name: shape for name, shape, _ in _parse_manifest(Path(path))[0]}


def test_checkpoint_round_trip(tmp_path, tiny_cfg):
    params = init_params(tiny_cfg, 9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.names() == params.names()
    for name in params.names():
        np.testing.assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float32
    manifest = read_checkpoint_manifest(path)
    assert manifest == {n: tuple(a.shape) for n, a in params.items()}


def test_checkpoint_tensors_own_writeable_data(tmp_path, tiny_cfg):
    # adamw_step updates the loaded set's flat buffer in place, which must
    # be a copy of its own, not a view of the file's bytes
    params = init_params(tiny_cfg, 9)
    save_checkpoint(tmp_path / "model.ckpt", params)
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    assert loaded.flat.flags.owndata and loaded.flat.flags.writeable
    for name, arr in loaded.items():
        assert arr.base is loaded.flat and arr.flags.c_contiguous \
            and arr.flags.writeable, name
    before = loaded.copy()
    adamw_step(loaded, loaded.copy(), init_optimizer(loaded, TrainSettings()))
    assert not np.array_equal(loaded["embed_s.weight"], before["embed_s.weight"])


def test_checkpoint_loads_into_one_buffer(tmp_path):
    # the blob is read straight into the loaded set's own buffer, so the
    # load holds one arena-sized buffer (17.6 MB at F=720), not two
    params = init_params(ModelConfig(lookback=96, horizon=720, channels=7), 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * params.flat.nbytes, (peak, params.flat.nbytes)
    assert loaded.layout() == params.layout()
    assert loaded.flat.tobytes() == params.flat.tobytes()


def test_checkpoint_manifest_out_of_blob_order(tmp_path, tiny_cfg):
    # records listed in another order than their offsets still load each
    # tensor from its own offset, copied into a buffer of the set's own
    params = init_params(tiny_cfg, 9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    head, _, blob = path.read_bytes().partition(b"\nend\n")
    magic, first, second, *rest = head.split(b"\n")
    path.write_bytes(b"\n".join([magic, second, first, *rest]) + b"\nend\n" + blob)
    loaded = load_checkpoint(path)
    assert loaded.names()[:2] == params.names()[1::-1]
    assert loaded.flat.flags.owndata
    for name, arr in params.items():
        assert loaded[name].tobytes() == arr.tobytes(), name


def test_checkpoint_failed_save_keeps_old_file(tmp_path, tiny_cfg):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(tiny_cfg, 0))
    before = path.read_bytes()

    class Unwritable:  # a blob that fails to write after the manifest
        def astype(self, *args, **kwargs):
            return None

    broken = SimpleNamespace(items=init_params(tiny_cfg, 1).items, flat=Unwritable())
    with pytest.raises(TypeError):
        save_checkpoint(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_shape_mismatch(tmp_path, tiny_cfg):
    from mdmixer.model import check_params_match
    params = init_params(tiny_cfg, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    other = ModelConfig(**{**TINY, "embed_dim": 5})
    with pytest.raises(CheckpointError, match="embed_s.weight"):
        check_params_match(load_checkpoint(path), other)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"hello world\n")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_directory(tmp_path):
    with pytest.raises(CheckpointError, match="not a regular file"):
        load_checkpoint(tmp_path)


def test_checkpoint_read_error_is_checkpoint_error(tmp_path, tiny_cfg,
                                                   monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(tiny_cfg, 0))

    def fail(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(type(path), "open", fail)
    with pytest.raises(CheckpointError, match="cannot read checkpoint .*"
                                              "Permission denied"):
        load_checkpoint(path)


@pytest.mark.parametrize("old, new, message", [
    (b"\nembed_s.weight 4x3 0\n", b"\nembed_s.weight 4x3 -4\n", "negative offset"),
    (b"\nembed_s.weight 4x3 0\n", b"\nembed_s.weight 0x3 0\n", "non-positive"),
    (b"\nembed_s.weight 4x3 0\n", b"\nembed_s.weight 4x-3 0\n", "non-positive"),
    (b"\nend\n", b"\nembed_s.weight 4x3 0\nend\n", "listed twice"),
], ids=["negative_offset", "zero_dim", "negative_dim", "duplicate_name"])
def test_checkpoint_rejects_malformed_manifest(tmp_path, tiny_cfg, old, new,
                                               message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(tiny_cfg, 0))
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    with pytest.raises(CheckpointError, match=f"'embed_s.weight'.*{message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("old, new, message", [
    (b"\nembed_s.weight 4x3 0\n", b"\nembed_s.weight 4294967296x4294967296 0\n",
     "blob truncated for tensor 'embed_s.weight'"),
    (b"\nembed_s.weight 4x3 0\n", b"\nembed_s.weight " + b"1x" * 64 + b"12 0\n",
     "tensor 'embed_s.weight' has unusable shape"),
    (b"\nembed_s.weight 4x3 0\n", b"\nembed_s.\xffweight 4x3 0\n",
     r"manifest line b'embed_s.\\xffweight 4x3 0' is not UTF-8"),
], ids=["shape_overflows_int64", "too_many_dims", "non_utf8_name"])
def test_checkpoint_rejects_unloadable_manifest(tmp_path, tiny_cfg, old, new,
                                                message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(tiny_cfg, 0))
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


# A manifest record (the replaced line's name, a new name or a non-UTF-8
# one) whose shape may overflow int64 or exceed numpy's dimension limit;
# the fuzz may also overwrite one line with random bytes.
DIMS = st.lists(st.one_of(st.sampled_from([1, 3, 4, 2**32, 2**63]),
                          st.integers(-1, 2**65)), min_size=1, max_size=4)
RECORD = st.tuples(
    st.sampled_from([None, b"extra", b"x\xfe"]),
    st.builds(lambda dims, ones: "x".join(map(str, dims + [1] * ones)).encode(),
              DIMS, st.sampled_from([0, 64])),
    st.one_of(st.sampled_from([0, 4, 48]), st.integers(-2, 2**70)).map(
        lambda n: str(n).encode()))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(index=st.integers(0, 30), record=RECORD,
       noise=st.one_of(st.none(), st.tuples(st.integers(0, 30), st.binary(max_size=40))),
       blob_cut=st.one_of(st.just(0), st.integers(0, 400)))
def test_checkpoint_fuzz_raises_only_checkpoint_error(tmp_path_factory, index,
                                                      record, noise, blob_cut):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(path, init_params(ModelConfig(**TINY), 0))
    head, _, blob = path.read_bytes().partition(b"\nend\n")
    lines = head.split(b"\n")
    i = 1 + index % (len(lines) - 1)
    name, shape, offset = record
    lines[i] = b" ".join([name or lines[i].split(b" ")[0], shape, offset])
    if noise is not None:
        lines[1 + noise[0] % (len(lines) - 1)] = noise[1]
    path.write_bytes(b"\n".join(lines) + b"\nend\n" + blob[:len(blob) - blob_cut])
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def test_param_layout_matches_init(tiny_cfg):
    layout = param_layout(tiny_cfg)
    params = init_params(tiny_cfg, 0)
    assert list(layout) == params.names()
    for name, shape in layout.items():
        assert params[name].shape == shape
