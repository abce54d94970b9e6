import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdmixer.config import ConfigError, ModelConfig
from mdmixer.model import CheckpointError, ParamSet, amwg, embed, forward, \
    fuse, granularity_schedule, init_params, load_checkpoint, mim, mlp, \
    mpp_seasonal, param_layout, save_checkpoint, upsample

from conftest import TINY, rand_batch


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


def trend_heads(u, params, schedule):
    """The trend branch's heads: one MLP per granularity."""
    return [mlp(u, params, f"trend_head_{i}")[0]
            for i in range(1, len(schedule) + 1)]


def test_mpp_shapes_and_zero(tiny_cfg):
    params = zeroed_offsets(init_params(tiny_cfg, 0))
    schedule = granularity_schedule(tiny_cfg.horizon, tiny_cfg.num_heads)
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
    schedule = granularity_schedule(tiny_cfg.horizon, tiny_cfg.num_heads)
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
    out = mim(z, mixers=None)
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


def test_amwg_uniform_for_constant_logits(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    params["gate.fc2.weight"][:] = 0.0
    rng = np.random.default_rng(6)
    xd = rng.normal(size=(3, 2, tiny_cfg.num_patches, tiny_cfg.embed_dim))
    weights, _ = amwg(xd, xd, params, heads=2)
    np.testing.assert_allclose(weights, 0.5)


def test_amwg_softmax_hand_values(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    params["gate.fc1.weight"][:] = 0.0
    params["gate.fc2.weight"][:] = 0.0
    # bias layout is (H*C,) reshaped row-major to (H, C)
    params["gate.fc2.bias"][:] = [np.log(2.0), np.log(2.0), 0.0, 0.0]
    xd = np.zeros((1, 2, 4, 3), dtype=np.float32)
    weights, _ = amwg(xd, xd, params, heads=2)
    np.testing.assert_allclose(weights[0, :, 0], [2 / 3, 1 / 3], atol=1e-6)
    np.testing.assert_allclose(weights[0, :, 1], [2 / 3, 1 / 3], atol=1e-6)


def test_amwg_simplex(tiny_cfg):
    rng = np.random.default_rng(7)
    params = init_params(tiny_cfg, 1)
    xd_s = rng.normal(size=(5, 2, 4, 3))
    xd_t = rng.normal(size=(5, 2, 4, 3))
    weights, _ = amwg(xd_s, xd_t, params, heads=2)
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


def test_fuse_equal_heads_double():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(2, 3, 6))
    weights = rng.dirichlet(np.ones(4), size=(2, 3)).transpose(0, 2, 1)
    out = fuse([a, a, a, a], weights)
    np.testing.assert_allclose(out, 2 * a, atol=1e-12)


def test_fuse_single_head():
    y = np.random.default_rng(11).normal(size=(1, 2, 4))
    out = fuse([y], np.ones((1, 1, 2)))
    np.testing.assert_allclose(out, 2 * y)


def test_fuse_hard_selection():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(2, 1, 2, 4))
    weights = np.zeros((1, 2, 2))
    weights[:, 0, :] = 1.0
    out = fuse([a, b], weights)
    np.testing.assert_allclose(out, a + (a + b) / 2)


# ---------------------------------------------------------------------------
# full forward


def test_forward_shapes(tiny_cfg):
    rng = np.random.default_rng(13)
    params = init_params(tiny_cfg, 0)
    out = forward(rand_batch(rng, 3, 8, 2), params, tiny_cfg)
    assert out.final.shape == (3, 4, 2)
    assert [y.shape for y in out.per_granularity] == [(3, 2, 2), (3, 4, 2)]
    assert [y.shape for y in out.upsampled] == [(3, 4, 2), (3, 4, 2)]
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
    np.testing.assert_allclose(out.final, out.upsampled[0], atol=1e-5)
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
    without = forward(x, params, cfg_off)
    np.testing.assert_allclose(with_mixers.final, without.final, atol=1e-7)


def test_forward_shape_errors(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    with pytest.raises(ValueError, match="forward/input"):
        forward(np.zeros((2, 9, 2), dtype=np.float32), params, tiny_cfg)
    with pytest.raises(ValueError, match="forward/input"):
        forward(np.zeros((2, 8, 3), dtype=np.float32), params, tiny_cfg)


def test_forward_without_mpp():
    cfg = ModelConfig(**{**TINY, "use_mpp": False})
    params = init_params(cfg, 0)
    assert "mixer_s_2.weight" not in params.names()
    rng = np.random.default_rng(20)
    out = forward(rand_batch(rng, 2, 8, 2), params, cfg)
    assert len(out.per_granularity) == 1
    assert out.per_granularity[0].shape == (2, 4, 2)
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


def test_checkpoint_round_trip(tmp_path, tiny_cfg):
    from mdmixer.model import read_checkpoint_manifest
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
