import csv
import tracemalloc

import numpy as np
import pytest

from mdmixer import evaluation, model
from mdmixer.config import ModelConfig, TrainSettings
from mdmixer.data import make_windows
from mdmixer.evaluation import MetricRow, aggregate_seeds, eval_batch_size, \
    evaluate, export_amwg, export_granularity_forecasts, mae, mse, predict, \
    write_amwg_csv
from mdmixer.model import forward, init_params, load_checkpoint, save_checkpoint
from mdmixer.preprocess import instance_denormalize
from mdmixer.training import adamw_step, backward, init_optimizer

from conftest import TINY, make_frame, rand_batch
from golden import TOLERANCE
from test_training import TRAINED_SHAPES


# ---------------------------------------------------------------------------
# metrics


def test_metrics_zero_at_perfect():
    y = np.random.default_rng(0).normal(size=(2, 4, 3))
    assert mse(y, y) == 0.0
    assert mae(y, y) == 0.0


def test_metrics_hand_values():
    y = np.array([1.0, 2.0])
    target = np.array([2.0, 4.0])
    assert mse(y, target) == pytest.approx(2.5)
    assert mae(y, target) == pytest.approx(1.5)


def test_metrics_translation_invariant():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(3, 5))
    target = rng.normal(size=(3, 5))
    assert mse(y + 10, target + 10) == pytest.approx(mse(y, target))
    assert mae(y + 10, target + 10) == pytest.approx(mae(y, target))


def test_metrics_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        mse(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# evaluate


def _single_window_frame(tiny_cfg, seed=0):
    rng = np.random.default_rng(seed)
    return make_frame(rng.normal(size=(tiny_cfg.lookback + tiny_cfg.horizon, 2)))


def test_evaluate_single_window_matches_direct_metrics(tiny_cfg):
    frame = _single_window_frame(tiny_cfg)
    windows = make_windows(frame, tiny_cfg.lookback, tiny_cfg.horizon)
    assert len(windows) == 1
    params = init_params(tiny_cfg, 0)
    row = evaluate(params, tiny_cfg, windows, dataset="unit", seed=3)
    pred = forward(np.ascontiguousarray(windows.inputs), params, tiny_cfg).final
    assert row.mse == pytest.approx(mse(pred, windows.targets), rel=1e-6)
    assert row.mae == pytest.approx(mae(pred, windows.targets), rel=1e-6)
    assert (row.dataset, row.horizon, row.seed) == ("unit", 4, 3)


def test_evaluate_batch_size_independent(tiny_cfg):
    frame = make_frame(np.random.default_rng(2).normal(size=(60, 2)))
    windows = make_windows(frame, 8, 4)
    params = init_params(tiny_cfg, 1)
    rows = [evaluate(params, tiny_cfg, windows, batch_size=bs)
            for bs in (1, 7, 64)]
    for row in rows[1:]:
        assert row.mse == pytest.approx(rows[0].mse, rel=1e-6)
        assert row.mae == pytest.approx(rows[0].mae, rel=1e-6)


def test_evaluate_metrics_ignore_the_forecast_memory_order(tiny_cfg, monkeypatch):
    """The same forecast, C-ordered or laid out as (B, C, F) rows as the
    forward returns it, gives bit-equal metrics, both the float64 sums of
    the residual taken in (B, F, C) order."""
    rng = np.random.default_rng(17)
    # 100 windows of F=50, C=9: here a sum over the residual in the
    # forecast's (B, C, F) memory order rounds the MSE differently
    windows = make_windows(make_frame(rng.normal(size=(157, 9))), 8, 50)
    forecast = rng.normal(size=windows.targets.shape).astype(np.float32)
    layouts = {"c_order": np.ascontiguousarray(forecast),
               "rows": np.ascontiguousarray(forecast.transpose(0, 2, 1)).transpose(0, 2, 1)}
    assert not layouts["rows"].flags.c_contiguous
    diff = forecast.astype(np.float64) - windows.targets.astype(np.float64)
    want = (float(np.square(diff).sum()) / diff.size, float(np.abs(diff).sum()) / diff.size)
    for name, pred in layouts.items():
        monkeypatch.setattr(evaluation, "predict", lambda x, params, cfg, pred=pred: pred)
        row = evaluate(init_params(tiny_cfg, 0), tiny_cfg, windows,
                       batch_size=len(windows))
        assert (row.mse, row.mae) == want, name


def test_evaluate_deterministic(tiny_cfg):
    frame = make_frame(np.random.default_rng(3).normal(size=(40, 2)))
    windows = make_windows(frame, 8, 4)
    params = init_params(tiny_cfg, 2)
    a = evaluate(params, tiny_cfg, windows)
    b = evaluate(params, tiny_cfg, windows)
    assert (a.mse, a.mae) == (b.mse, b.mae)


def test_evaluate_empty_split_rejected(tiny_cfg):
    from mdmixer.data import WindowBatch
    empty = WindowBatch(inputs=np.zeros((0, 8, 2), dtype=np.float32),
                        targets=np.zeros((0, 4, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="empty"):
        evaluate(init_params(tiny_cfg, 0), tiny_cfg, empty)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_evaluate_rejects_batch_size_below_one(tiny_cfg, batch_size):
    windows = make_windows(make_frame(np.zeros((20, 2))), 8, 4)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        evaluate(init_params(tiny_cfg, 0), tiny_cfg, windows, batch_size=batch_size)


@pytest.mark.parametrize("channels, size", [(1, 256), (7, 256), (8, 256),
                                            (9, 227), (321, 6), (5000, 1)])
def test_eval_batch_size_rule(channels, size):
    # at F <= 96 the forecast-value bound never binds
    for horizon in (1, 24, 96):
        assert eval_batch_size(channels, horizon) == size


@pytest.mark.parametrize("channels, horizon, size", [
    (7, 97, 256), (8, 97, 253), (7, 192, 146), (7, 336, 83), (7, 720, 39),
    (321, 192, 3), (321, 720, 1), (862, 96, 2), (862, 720, 1)])
def test_eval_batch_size_rule_bounds_forecast_values(channels, horizon, size):
    assert eval_batch_size(channels, horizon) == size
    assert size == 1 or size * channels * horizon <= 2048 * 96


def test_long_horizon_evaluation_memory_is_bounded():
    # 256-window batches at this shape peak near 146 MB; batches bounded in
    # forecast values keep the working set under the F=96 one's (about 32 MB)
    cfg = ModelConfig(lookback=96, horizon=720, channels=7)
    params = init_params(cfg, 0)
    series = np.random.default_rng(4).normal(size=(96 + 720 + 299, 7))
    windows = make_windows(make_frame(series), 96, 720)
    assert len(windows) == 300
    tracemalloc.start()
    try:
        evaluate(params, cfg, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6, peak


def test_evaluate_metrics_match_two_temporaries(tiny_cfg):
    # the residual buffer is reused for |d| and then |d|**2, which equals
    # d**2 exactly, so the sums are those of separate temporaries
    params = init_params(tiny_cfg, 5)
    windows = make_windows(make_frame(np.random.default_rng(12).normal(
        size=(40, 2))), 8, 4)
    sq_sum = abs_sum = 0.0
    count = 0
    for xb, yb in windows.batches(7):
        diff = np.subtract(predict(xb, params, tiny_cfg), yb, dtype=np.float64,
                           order="C")
        sq_sum += float(np.square(diff).sum())
        abs_sum += float(np.abs(diff).sum())
        count += diff.size
    row = evaluate(params, tiny_cfg, windows, batch_size=7)
    assert (row.mse, row.mae) == (sq_sum / count, abs_sum / count)


def _recording(monkeypatch, name, shapes):
    original = getattr(evaluation, name)

    def record(x, params, cfg):
        shapes.append(x.shape)
        return original(x, params, cfg)
    monkeypatch.setattr(evaluation, name, record)


def test_inference_restores_only_the_final_forecast(tiny_cfg, monkeypatch):
    params = init_params(tiny_cfg, 1)
    windows = make_windows(make_frame(np.random.default_rng(10).normal(
        size=(40, 2))), 8, 4)
    restored = []
    original = model.instance_denormalize

    def record(y, stats):
        restored.append(y.shape)
        return original(y, stats)
    monkeypatch.setattr(model, "instance_denormalize", record)
    evaluate(params, tiny_cfg, windows, batch_size=7)
    assert restored == [(7, 4, 2)] * 4 + [(1, 4, 2)]
    restored.clear()
    predict(windows.inputs[:3], params, tiny_cfg)
    assert restored == [(3, 4, 2)]


def test_per_granularity_restores_like_an_eager_forward(tiny_cfg):
    x = rand_batch(np.random.default_rng(11), 3, 8, 2)
    out, saved = model.forward_with_context(x, init_params(tiny_cfg, 2), tiny_cfg)
    eager = [instance_denormalize((a + b).transpose(0, 2, 1), out.stats)
             for a, b in zip(saved.y_s, saved.y_t, strict=True)]
    assert len(out.per_granularity) == len(eager)
    for got, want in zip(out.per_granularity, eager):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_wide_inference_batches_are_bounded(monkeypatch):
    cfg = ModelConfig(**{**TINY, "channels": 300})
    params = init_params(cfg, 0)
    rng = np.random.default_rng(9)
    windows = make_windows(make_frame(rng.normal(size=(31, 300))), 8, 4)
    assert len(windows) == 20
    full = evaluate(params, cfg, windows, batch_size=len(windows))
    gates = forward(windows.inputs, params, cfg).gate_weights.mean(axis=0)

    shapes = []
    _recording(monkeypatch, "predict", shapes)
    row = evaluate(params, cfg, windows)
    assert [s[0] for s in shapes] == [6, 6, 6, 2]
    assert row.mse == pytest.approx(full.mse, rel=1e-6)
    assert row.mae == pytest.approx(full.mae, rel=1e-6)

    shapes = []
    _recording(monkeypatch, "forward", shapes)
    heatmap = export_amwg(params, cfg, windows.inputs)
    assert [s[0] for s in shapes] == [6, 6, 6, 2]
    np.testing.assert_allclose(heatmap, gates, rtol=1e-6)


# ---------------------------------------------------------------------------
# evaluate's folded operators


def _windows(cfg, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    series = rng.normal(size=(cfg.lookback + cfg.horizon + count - 1, cfg.channels))
    return make_windows(make_frame(series), cfg.lookback, cfg.horizon)


def _counting_builds(monkeypatch) -> list:
    builds = []
    original = model.fold_operators

    def count(params, cfg):
        builds.append(cfg)
        return original(params, cfg)
    monkeypatch.setattr(model, "fold_operators", count)
    return builds


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kw, count", [
    *(pytest.param(*shape.values, 80 if shape.values[0].get("horizon") == 720 else 300,
                   id=shape.id) for shape in TRAINED_SHAPES),
    pytest.param(dict(channels=321), 14, id="C321")])
def test_evaluate_forecasts_match_the_embedding_path(kw, count, dtype, monkeypatch):
    """Every forecast ``evaluate`` forms, each folded batch's seasonal heads
    through their composed mixer chain, matches the embedding path's
    forecast of the same batch within the golden harness's norm-relative
    bounds (1e-6 in float32, 1e-12 in float64). C=7, T=F=96 unless stated;
    300 windows (batches of 256 and 44), 80 at F=720 (39, 39 and an
    unfolded 2) and 14 at C=321 (6, 6, 2)."""
    cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "channels": 7, **kw})
    params = init_params(cfg, 0).astype(dtype)
    batches = []
    original = evaluation.predict

    def record(x, params, cfg):
        batches.append((x, original(x, params, cfg)))
        return batches[-1][1]
    monkeypatch.setattr(evaluation, "predict", record)
    evaluate(params, cfg, _windows(cfg, count))
    monkeypatch.setattr(model, "fold_pays", lambda *shape: False)
    assert len(batches) == -(-count // eval_batch_size(cfg.channels, cfg.horizon))
    for i, (x, got) in enumerate(batches):
        want = forward(x, params, cfg).final
        assert got.dtype == want.dtype and got.shape == want.shape
        err = np.linalg.norm(got.astype(np.float64) - want) / np.linalg.norm(want)
        assert err <= TOLERANCE[dtype], (i, err)


def test_evaluate_builds_the_folded_operators_once(monkeypatch):
    """At F=720 (T=96, C=7) an evaluation batch of 39 windows folds: the
    11 batches of a 420-window split share one build, and no folded batch
    multiplies by a seasonal head or mixer. A split whose batches do not
    fold builds nothing, nor do ``predict``, ``forward`` and a training
    step on batches that fold."""
    cfg = ModelConfig(lookback=96, horizon=720, channels=7)
    params = init_params(cfg, 0)
    windows = _windows(cfg, 420)
    builds = _counting_builds(monkeypatch)
    shapes, weights = [], []
    _recording(monkeypatch, "predict", shapes)
    original = model.linear

    def record(x, weight, bias, residual=None):
        weights.append(weight)
        return original(x, weight, bias, residual)
    monkeypatch.setattr(model, "linear", record)
    evaluate(params, cfg, windows)
    assert len(shapes) == 11 and len(builds) == 1
    seasonal = [n for n in params.names()
                if n.startswith(("season_head_", "mixer_s_")) and n.endswith(".weight")]
    used = [n for n in seasonal for w in weights if np.shares_memory(w, params[n])]
    assert not used, used

    evaluate(params, cfg, windows, batch_size=8)  # 56 rows a batch
    assert len(builds) == 1
    x = windows.inputs[:39]
    assert model.forward_with_context(x, params, cfg)[1].ops[0] is not None
    predict(x, params, cfg)
    forward(x, params, cfg)
    xb, yb = windows.inputs[:32], windows.targets[:32]  # 224 rows: folded
    grads, _ = backward(xb, yb, params, cfg)
    adamw_step(params, grads, init_optimizer(params, TrainSettings()))
    assert len(builds) == 1


def test_evaluate_carries_nothing_across_calls(monkeypatch):
    """Evaluate, take one AdamW step, evaluate again: the second call sees
    the stepped parameters, bit for bit as a fresh copy of them. A call
    that raises mid-split leaves no operators behind: a later forward of
    the same parameters has the bits it had before."""
    cfg = ModelConfig(lookback=96, horizon=96, channels=7)
    params = init_params(cfg, 0)
    windows = _windows(cfg, 300)
    first = evaluate(params, cfg, windows)
    xb, yb = windows.inputs[:32], windows.targets[:32]
    grads, _ = backward(xb, yb, params, cfg)
    adamw_step(params, grads, init_optimizer(params, TrainSettings()))
    again = evaluate(params, cfg, windows)
    fresh = evaluate(params.copy(), cfg, windows)
    assert (again.mse, again.mae) == (fresh.mse, fresh.mae) != (first.mse, first.mae)

    x = windows.inputs[:256]
    before = forward(x, params, cfg).final.tobytes()
    original = evaluation.predict

    def fail_second(x, params, cfg, calls=[]):
        calls.append(len(x))
        if len(calls) == 2:
            raise RuntimeError("second batch")
        return original(x, params, cfg)
    monkeypatch.setattr(evaluation, "predict", fail_second)
    with pytest.raises(RuntimeError, match="second batch"):
        evaluate(params, cfg, windows)
    assert forward(x, params, cfg).final.tobytes() == before


def test_evaluate_on_reloaded_parameters_is_bit_identical(tmp_path):
    """``evaluate`` on a checkpoint's reloaded parameters (a new parameter
    set, the same bits) gives the metrics it gives in memory, exactly."""
    cfg = ModelConfig(lookback=96, horizon=96, channels=7)
    params = init_params(cfg, 4)
    windows = _windows(cfg, 300, seed=5)
    save_checkpoint(tmp_path / "p.ckpt", params)
    loaded = load_checkpoint(tmp_path / "p.ckpt")
    row, again = evaluate(params, cfg, windows), evaluate(loaded, cfg, windows)
    assert (row.mse, row.mae) == (again.mse, again.mae)


# ---------------------------------------------------------------------------
# aggregation


def _row(dataset, seed, mse_value, mae_value):
    return MetricRow(dataset=dataset, horizon=96, seed=seed,
                     mse=mse_value, mae=mae_value)


def test_aggregate_identical_rows():
    rows = [_row("etth1", s, 0.4, 0.39) for s in (1, 2, 3)]
    summary = aggregate_seeds(rows)[0]
    assert summary.mse_mean == pytest.approx(0.4)
    assert summary.mse_std == pytest.approx(0.0, abs=1e-15)
    assert summary.runs == 3


def test_aggregate_population_std():
    rows = [_row("d", s, v, v) for s, v in ((1, 0.3), (2, 0.4), (3, 0.5))]
    summary = aggregate_seeds(rows)[0]
    assert summary.mse_mean == pytest.approx(0.4)
    assert summary.mse_std == pytest.approx(0.0816497, abs=1e-6)


def test_aggregate_single_row():
    summary = aggregate_seeds([_row("d", 1, 0.123, 0.456)])[0]
    assert summary.mse_mean == 0.123
    assert summary.mse_std == 0.0


def test_aggregate_mean_within_range():
    rng = np.random.default_rng(4)
    values = rng.uniform(0.1, 0.9, size=5)
    rows = [_row("d", i, v, v) for i, v in enumerate(values)]
    summary = aggregate_seeds(rows)[0]
    assert values.min() <= summary.mse_mean <= values.max()


# ---------------------------------------------------------------------------
# exports


def test_export_amwg_uniform_for_zero_gate(tiny_cfg):
    params = init_params(tiny_cfg, 0)
    params["gate.fc2.weight"][:] = 0.0
    params["gate.fc2.bias"][:] = 0.0
    rng = np.random.default_rng(5)
    heatmap = export_amwg(params, tiny_cfg, rand_batch(rng, 10, 8, 2))
    np.testing.assert_allclose(heatmap, 0.5)


def test_export_amwg_columns_are_simplex(tiny_cfg):
    rng = np.random.default_rng(6)
    heatmap = export_amwg(init_params(tiny_cfg, 3), tiny_cfg,
                          rand_batch(rng, 32, 8, 2))
    assert heatmap.shape == (2, 2)
    assert heatmap.min() >= 0
    np.testing.assert_allclose(heatmap.sum(axis=0), 1.0, atol=1e-5)


def read_amwg_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        rows = [[float(cell) for cell in row] for row in reader if row]
    return np.asarray(rows, dtype=np.float64)


def test_amwg_csv_round_trip(tmp_path, tiny_cfg):
    rng = np.random.default_rng(7)
    heatmap = export_amwg(init_params(tiny_cfg, 4), tiny_cfg,
                          rand_batch(rng, 16, 8, 2))
    path = tmp_path / "heat.csv"
    write_amwg_csv(path, heatmap)
    assert path.read_text().splitlines()[0] == "channel_0,channel_1"
    np.testing.assert_allclose(read_amwg_csv(path), heatmap, atol=1e-6)


def test_export_granularity_forecasts(tmp_path, tiny_cfg):
    rng = np.random.default_rng(8)
    params = init_params(tiny_cfg, 5)
    output = forward(rand_batch(rng, 1, 8, 2), params, tiny_cfg)
    paths = export_granularity_forecasts(output, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["final.csv", "head_1.csv", "head_2.csv"]

    head2 = (tmp_path / "head_2.csv").read_text().splitlines()
    raw_rows = [r for r in head2 if r.startswith("raw,")]
    assert len(raw_rows) == 4  # the finest head's raw length equals F

    # values survive the CSV round trip
    for i, path in enumerate([tmp_path / "head_1.csv", tmp_path / "head_2.csv"]):
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        raw = np.array([[float(v) for v in r[2:]] for r in rows if r[0] == "raw"])
        np.testing.assert_allclose(raw, output.per_granularity[i][0],
                                   rtol=1e-6, atol=1e-6)
    final_rows = [r.split(",") for r in
                  (tmp_path / "final.csv").read_text().splitlines()[1:]]
    final = np.array([[float(v) for v in r[2:]] for r in final_rows])
    np.testing.assert_allclose(final, output.final[0], rtol=1e-6, atol=1e-6)


def test_write_lines_replaces_only_a_whole_file(tmp_path):
    path = evaluation.write_lines(tmp_path / "out" / "rows.csv", ["a,b", "1,2"])
    assert path.read_bytes() == b"a,b\n1,2\n"

    def lines():
        yield "3,4"
        raise OSError(28, "No space left on device")  # after one line

    with pytest.raises(OSError, match="No space left"):
        evaluation.write_lines(path, lines())
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in path.parent.iterdir()] == ["rows.csv"]
