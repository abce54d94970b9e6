"""The run-config format: rendering, resolved model configs, the
ConfigError message for each kind of bad input, and the parallel-seed cap.

``config_golden.json`` holds, for every shipped config and the configs
the CLI tests write, the text ``render_config`` gives for the parsed
config and for the echo the CLI writes (channels and out_dir bound), and
the resolved model config. Re-record it from the code on the import path
with

    PYTHONPATH=src python tests/test_config.py

only at a commit whose rendering is the reference.
"""

import dataclasses
import json
import math
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mdmixer.cli import main
from mdmixer.config import KEYS, ConfigError, SynthChannel, load_config, \
    parse_config_text, render_config
from mdmixer.evaluation import MetricRow

from test_cli import SYNTH_CONFIG, write_config

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).with_name("config_golden.json")

# name -> (config text, channel count bound at run time)
CASES = {
    **{path.stem: (path.read_text(encoding="utf-8"), 7)
       for path in sorted((ROOT / "configs").glob("*.cfg"))},
    "cli_synth": (SYNTH_CONFIG.format(out="runs/cli"), 2),
    "cli_csv": ("data.path = series.csv\n"
                "model.lookback = 8\nmodel.horizon = 4\n"
                "model.patch_len = 4\nmodel.stride = 2\n"
                "model.embed_dim = 3\nmodel.heads = 2\nmodel.hidden = 4\n"
                "model.kernel = 3\ntrain.max_epochs = 2\nseeds = 1\n"
                "out_dir = runs/csv\n", 3),
    "cli_gradcheck": ("data.channels = 2\nmodel.lookback = 8\nmodel.horizon = 4\n"
                      "model.patch_len = 4\nmodel.stride = 2\nmodel.embed_dim = 3\n"
                      "model.heads = 2\nmodel.hidden = 4\nmodel.kernel = 3\n"
                      "seeds = 1\n", 2),
}


def record(text: str, channels: int) -> dict:
    cfg = parse_config_text(text)
    echo = dataclasses.replace(cfg, channels=channels, out_dir="out")
    model = cfg.resolve_model(channels)
    return {"render": render_config(cfg), "echo": render_config(echo),
            "model": {"class": type(model).__name__,
                      **dataclasses.asdict(model)}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_and_resolve_match_recording(golden, name):
    assert record(*CASES[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_reparses_to_same_config(name):
    cfg = parse_config_text(CASES[name][0])
    assert parse_config_text(render_config(cfg)) == cfg


BASE = "data.channels = 2\n"


@pytest.mark.parametrize("text, message", [
    ("model.depth = 4\n", "<config>:2: unknown key 'model.depth'"),
    ("model.heads = 4\nmodel.heads = 2\n",
     "<config>:3: duplicate key 'model.heads'"),
    ("junk line\n", "<config>:2: expected 'key = value', got 'junk line'"),
    ("model.heads = x\n", "model.heads: expected int, got 'x'"),
    ("train.lr = fast\n", "train.lr: expected float, got 'fast'"),
    ("model.use_mim = maybe\n", "model.use_mim: expected bool, got 'maybe'"),
    ("seeds = 1,x\n", "seeds: expected comma-separated integers, got '1,x'"),
    ("seeds = ,\n", "seeds must list at least one seed"),
    ("data.synth_length = 400\ndata.synth_channels = 8:1:0\n",
     "data.synth_channels entry '8:1:0' must be period:amp:slope:noise"),
    ("data.synth_length = 400\ndata.synth_channels = 8:a:0:0.1\n",
     "data.synth_channels entry '8:a:0:0.1' has a non-numeric field"),
    ("data.synth_length = 400\ndata.synth_channels = ,\n",
     "data.synth_channels is empty"),
    ("data.synth_length = 400\ndata.synth_channels = 1:1:0:0.1\n",
     "synthetic channel period must be >= 2, got 1.0"),
    ("data.synth_length = 400\ndata.synth_channels = 8:1:0:-1\n",
     "synthetic channel noise must be >= 0, got -1.0"),
    ("data.synth_length = 400\n",
     "data.synth_channels required with data.synth_length"),
    ("data.ratio_train = 0.5\n",
     "split ratios must be nonnegative and sum to 1, got (0.5, 0.2, 0.2) (sum 0.9)"),
    ("model.kind = transformer\n",
     "model.kind must be 'mdmixer' or one of ('linear_direct', 'decomp_linear', "
     "'dual_branch'), got 'transformer'"),
    ("model.heads = 5\n",
     "heads (5) must divide horizon (96) so every head has an integer output length"),
    ("model.kernel = 24\n", "kernel must be a positive odd integer, got 24"),
    ("model.kind = dual_branch\nmodel.kernel = 24\n",
     "kernel must be a positive odd integer, got 24"),
    ("model.pos_encoding = rotary\n",
     "pos_encoding must be 'shared' or 'per_channel', got 'rotary'"),
    ("train.lr = -0.1\n", "lr must be >= 0, got -0.1"),
    ("model.align_weight = -1\n", "align_weight must be >= 0, got -1.0"),
    ("train.batch_size = 0\n", "batch_size must be >= 1, got 0"),
    ("model.patch_len = 100\n", "patch_len (100) must not exceed lookback (96)"),
], ids=["unknown_key", "duplicate_key", "junk_line", "bad_int", "bad_float",
        "bad_bool", "bad_seeds", "no_seeds", "synth_arity", "synth_non_numeric",
        "synth_empty", "synth_period", "synth_noise", "synth_length_alone",
        "ratio_sum", "model_kind", "head_divisibility", "even_kernel",
        "baseline_even_kernel", "pos_encoding", "negative_lr",
        "negative_align_weight", "zero_batch_size", "patch_len_over_lookback"])
def test_bad_input_message(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + text)
    assert str(exc.value) == message


def test_config_without_data_source_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("model.heads = 8\n")
    assert str(exc.value) == \
        "config needs data.path, data.synth_length or data.channels"


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "absent.cfg")


def test_accepted_keys_in_render_order():
    assert list(KEYS) == [
        "data.path", "data.name", "data.channels", "data.ratio_train",
        "data.ratio_val", "data.ratio_test", "data.synth_length",
        "data.synth_channels", "data.synth_seed", "model.kind",
        "model.lookback", "model.horizon", "model.patch_len", "model.stride",
        "model.embed_dim", "model.heads", "model.hidden", "model.kernel",
        "model.align_weight", "model.use_mpp", "model.use_mim",
        "model.use_amwg", "model.use_align_loss", "model.pos_encoding",
        "train.lr", "train.batch_size", "train.max_epochs", "train.patience",
        "train.weight_decay", "seeds", "out_dir"]
    cfg = dataclasses.replace(parse_config_text(CASES["cli_synth"][0]),
                              data_path="x.csv", channels=2)
    assert [line.split(" = ")[0] for line in render_config(cfg).splitlines()] \
        == list(KEYS)


@pytest.mark.parametrize("key", ["data.ratio_train", "model.align_weight",
                                 "train.lr", "train.weight_decay"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_float_rejected(key, raw):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"{BASE}{key} = {raw}\n")
    assert str(exc.value) == f"{key} must be finite, got {raw!r}"


@pytest.mark.parametrize("entry", ["nan:1:0:0.1", "8:inf:0:0.1", "8:1:-inf:0.1",
                                   "8:1:0:nan"])
def test_non_finite_synth_channel_rejected(entry):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"data.synth_length = 400\n"
                          f"data.synth_channels = 24:1:0:0.1, {entry}\n")
    assert str(exc.value) == \
        f"data.synth_channels entry {entry!r} has a non-finite field"


def test_duplicate_seeds_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + "seeds = 1,2,1\n")
    assert str(exc.value) == "seeds must be distinct, got (1, 2, 1)"


def test_synth_channels_render_exactly():
    cfg = parse_config_text("data.synth_length = 400\ndata.synth_channels = "
                            "12.3456789:1.0000001:0.0001234567:0.1, 192:1.0:0:0.4\n")
    text = render_config(cfg)
    assert "data.synth_channels = 12.3456789:1.0000001:0.0001234567:0.1, " \
           "192:1:0:0.4\n" in text
    assert parse_config_text(text) == cfg
    assert cfg.synth_channels[0] == SynthChannel(12.3456789, 1.0000001,
                                                 0.0001234567, 0.1)


@pytest.mark.parametrize("edit, needle", [
    (lambda text: text + "data.ratio_train = nan\n", "data.ratio_train"),
    (lambda text: text + "model.align_weight = inf\n", "model.align_weight"),
    (lambda text: text.replace("24:1.0:0.005:0.1", "nan:1.0:0.005:0.1"),
     "data.synth_channels"),
    (lambda text: text.replace("seeds = 1,2", "seeds = 1,1"), "seeds"),
], ids=["nan_ratio", "inf_align_weight", "nan_period", "duplicate_seeds"])
def test_cli_rejects_bad_values_with_exit_2(tmp_path, capsys, edit, needle):
    cfg_path, out = write_config(tmp_path)
    cfg_path.write_text(edit(cfg_path.read_text()))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_repeated_seed_flag(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "1",
                 "--seed", "1"]) == 2
    assert "seeds must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [b"data.name = caf\xe9\n", None],
                         ids=["not_utf8", "directory"])
def test_cli_rejects_unreadable_config_with_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["train", "--config", str(path)]) == 2
    assert f"cannot read config file {path}" in capsys.readouterr().err


def test_parallel_seeds_use_at_most_one_process_per_cpu(tmp_path, monkeypatch):
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    def fake_train(run_cfg, seed, out_dir):
        return MetricRow("synth-tiny", run_cfg.horizon, seed, 1.0, 1.0)

    monkeypatch.setattr("mdmixer.cli.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("mdmixer.cli._train_one_seed", fake_train)
    monkeypatch.setattr("mdmixer.cli.os.cpu_count", lambda: 2)
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--parallel-seeds",
                 *(f"--seed={s}" for s in range(1, 7))]) == 0
    assert pools == [2]
    assert len((out / "metrics.csv").read_text().splitlines()) == 7


# Random configs: a valid tiny base, then random table keys set to values
# of their own kind (finite or not, in range or not), at most one key set
# to arbitrary text, and junk lines.
NUMBER = st.floats(allow_subnormal=False, width=32).map(repr)
KIND_VALUES = {
    "int": st.integers(-1, 10).map(str),
    "float": st.one_of(st.sampled_from(["0.6", "0.2", "0.001", "nan", "-inf"]),
                       NUMBER),
    "bool": st.sampled_from(["true", "no", "1", "OFF"]),
    "str": st.sampled_from(["mdmixer", "dual_branch", "decomp_linear",
                            "per_channel", "shared", "runs/x", "a b=c"]),
    "comma-separated integers": st.lists(st.integers(-3, 3), max_size=3).map(
        lambda seeds: ",".join(map(str, seeds))),
    "synthetic channels": st.lists(
        st.tuples(st.floats(1, 500).map(repr), NUMBER, NUMBER,
                  st.floats(0, 2).map(repr)).map(":".join),
        max_size=2).map(", ".join),
}
OVERRIDES = st.lists(st.sampled_from(sorted(KEYS)), unique=True, max_size=5).flatmap(
    lambda keys: st.fixed_dictionaries(
        {k: KIND_VALUES[KEYS[k][2]] for k in keys}))
GARBAGE = st.one_of(st.none(), st.tuples(st.sampled_from(sorted(KEYS)),
                                         st.text(max_size=8)))
JUNK = st.lists(st.one_of(st.sampled_from(["", "# note", "junk", "=", "x = 1"]),
                          st.text(max_size=12)), max_size=2)
TINY_BASE = {"data.channels": "2", "model.lookback": "8", "model.horizon": "4",
             "model.patch_len": "4", "model.stride": "2", "model.heads": "2",
             "model.kernel": "3"}


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(overrides=OVERRIDES, garbage=GARBAGE, junk=st.one_of(st.just([]), JUNK))
def test_parse_rejects_or_round_trips(overrides, garbage, junk):
    values = {**TINY_BASE, **overrides, **dict([garbage] if garbage else [])}
    text = "\n".join([f"{k} = {v}" for k, v in values.items()] + junk)
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    floats = [*cfg.ratios, cfg.model["align_weight"], cfg.train.lr,
              cfg.train.weight_decay,
              *(v for c in cfg.synth_channels for v in dataclasses.astuple(c))]
    assert all(math.isfinite(v) for v in floats)
    assert parse_config_text(render_config(cfg)) == cfg


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: record(*case) for name, case
                                   in sorted(CASES.items())}, indent=1) + "\n",
                       encoding="utf-8")
