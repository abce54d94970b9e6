import numpy as np

from mdmixer.cli import main

SYNTH_CONFIG = """
# tiny synthetic run
data.synth_length = 400
data.synth_channels = 8:1.0:0.0:0.1, 24:1.0:0.005:0.1
data.synth_seed = 3
data.name = synth-tiny
model.lookback = 8
model.horizon = 4
model.patch_len = 4
model.stride = 2
model.embed_dim = 3
model.heads = 2
model.hidden = 4
model.kernel = 3
train.lr = 0.002
train.batch_size = 16
train.max_epochs = 2
train.patience = 1
seeds = 1,2
out_dir = {out}
"""


def write_config(tmp_path, text=SYNTH_CONFIG):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "run"
    path = tmp_path / "run.cfg"
    path.write_text(text.format(out=out))
    return path, out


def test_train_writes_expected_files(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    for seed in (1, 2):
        assert (out / f"seed{seed}.ckpt").exists()
        assert (out / f"seed{seed}_report.csv").exists()
        assert (out / f"seed{seed}_summary.txt").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "config_resolved.cfg").exists()
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "dataset,horizon,seed,mse,mae"
    assert len(metrics) == 3
    echo = (out / "config_resolved.cfg").read_text()
    assert "data.channels = 2" in echo
    assert "train.lr = 0.002" in echo


def test_invalid_head_divisibility_exits_2(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    body = cfg_path.read_text().replace("model.heads = 2", "model.heads = 3")
    cfg_path.write_text(body)
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "divide" in capsys.readouterr().err


def test_missing_dataset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    cfg.write_text("data.path = /nonexistent/etth1.csv\n"
                   "model.lookback = 8\nmodel.horizon = 4\n"
                   "model.patch_len = 4\nmodel.stride = 2\nmodel.heads = 2\n"
                   f"out_dir = {tmp_path / 'o'}\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "/nonexistent/etth1.csv" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.depth = 4\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_eval_reproducible_and_forecast_outputs(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
    ckpt = out / "seed1.ckpt"

    eval_dir_a = tmp_path / "eval_a"
    eval_dir_b = tmp_path / "eval_b"
    for target in (eval_dir_a, eval_dir_b):
        assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(ckpt), "--out", str(target)]) == 0
    assert (eval_dir_a / "metrics.csv").read_bytes() == \
           (eval_dir_b / "metrics.csv").read_bytes()

    fdir = tmp_path / "forecast"
    assert main(["forecast", "--config", str(cfg_path), "--checkpoint",
                 str(ckpt), "--out", str(fdir), "--window", "0"]) == 0
    assert (fdir / "head_1.csv").exists()
    assert (fdir / "head_2.csv").exists()
    assert (fdir / "final.csv").exists()
    assert (fdir / "amwg_heatmap.csv").exists()


def test_forecast_window_out_of_range_exits_2(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
    code = main(["forecast", "--config", str(cfg_path), "--checkpoint",
                 str(out / "seed1.ckpt"), "--out", str(tmp_path / "f"),
                 "--window", "99999"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_checkpoint_config_mismatch_exits_2(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
    other_cfg, _ = write_config(tmp_path / "other")
    body = other_cfg.read_text().replace("model.embed_dim = 3",
                                         "model.embed_dim = 5")
    other_cfg.write_text(body)
    code = main(["eval", "--config", str(other_cfg), "--checkpoint",
                 str(out / "seed1.ckpt"), "--out", str(tmp_path / "e")])
    assert code == 2
    assert "embed_s.weight" in capsys.readouterr().err


def test_malformed_checkpoint_manifest_exits_2(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
    ckpt = out / "seed1.ckpt"
    data = ckpt.read_bytes()
    record = b"\nembed_s.weight 4x3 0\n"
    assert record in data
    ckpt.write_bytes(data.replace(record, b"\nembed_s.weight 4x3 -4\n", 1))
    code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "e")])
    assert code == 2
    assert "'embed_s.weight' has negative offset" in capsys.readouterr().err


def test_gradcheck_command(tmp_path, capsys):
    cfg = tmp_path / "grad.cfg"
    cfg.write_text("data.channels = 2\nmodel.lookback = 8\nmodel.horizon = 4\n"
                   "model.patch_len = 4\nmodel.stride = 2\nmodel.embed_dim = 3\n"
                   "model.heads = 2\nmodel.hidden = 4\nmodel.kernel = 3\n"
                   "seeds = 1\n")
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_divergence_exits_3(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    body = cfg_path.read_text().replace("train.lr = 0.002", "train.lr = 1e20")
    cfg_path.write_text(body)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 3
    assert "diverged" in capsys.readouterr().err


def test_export_weights_command(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "2"]) == 0
    wdir = tmp_path / "weights"
    assert main(["export-weights", "--config", str(cfg_path), "--checkpoint",
                 str(out / "seed2.ckpt"), "--out", str(wdir)]) == 0
    heat = (wdir / "amwg_heatmap.csv").read_text().splitlines()
    assert heat[0] == "channel_0,channel_1"
    assert len(heat) == 3  # header + one row per head


def test_train_from_csv_file(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["date," + ",".join(f"v{c}" for c in range(3))]
    t = np.arange(300)
    values = np.stack([np.sin(2 * np.pi * t / (10 * (c + 1)))
                       + 0.1 * rng.normal(size=300) for c in range(3)], axis=1)
    for i in range(300):
        rows.append(f"2020-01-{i:03d}," + ",".join(f"{v:.6f}" for v in values[i]))
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join(rows) + "\n")

    out = tmp_path / "run"
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(f"data.path = {csv_path}\n"
                   "model.lookback = 8\nmodel.horizon = 4\n"
                   "model.patch_len = 4\nmodel.stride = 2\n"
                   "model.embed_dim = 3\nmodel.heads = 2\nmodel.hidden = 4\n"
                   "model.kernel = 3\ntrain.max_epochs = 2\nseeds = 1\n"
                   f"out_dir = {out}\n")
    assert main(["train", "--config", str(cfg)]) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[1].startswith("series,4,1,")


def test_parallel_seeds_match_sequential(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--parallel-seeds"]) == 0
    parallel = {s: (out / f"seed{s}.ckpt").read_bytes() for s in (1, 2)}
    cfg_path2, out2 = write_config(tmp_path / "seq")
    assert main(["train", "--config", str(cfg_path2)]) == 0
    for seed in (1, 2):
        assert (out2 / f"seed{seed}.ckpt").read_bytes() == parallel[seed]


def test_train_rerun_is_idempotent(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
    first = (out / "seed1.ckpt").read_bytes()
    first_metrics = (out / "metrics.csv").read_bytes()
    assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
    assert (out / "seed1.ckpt").read_bytes() == first
    assert (out / "metrics.csv").read_bytes() == first_metrics
