import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdmixer.config import ConfigError, SynthChannel
from mdmixer.data import DataError, SplitSpec, chronological_split, load_csv, \
    make_windows, standardize, synth_multiscale
from mdmixer.preprocess import channel_major

from conftest import make_frame


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_minimal(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text("date,a\n2020-01-01,1.0\n2020-01-02,2.0\n")
    values = load_csv(path)
    assert values.dtype == np.float32
    np.testing.assert_array_equal(values, [[1.0], [2.0]])


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a\n2020-01-01,abc\n")
    with pytest.raises(DataError, match=r"non-numeric value, column 'a', row 2"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty file"):
        load_csv(path)
    path.write_text("date,a\n")
    with pytest.raises(DataError, match="empty file"):
        load_csv(path)


def test_load_csv_malformed_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n")
    with pytest.raises(DataError, match="malformed row, row 3"):
        load_csv(path)


def test_load_csv_missing_cell(tmp_path):
    path = tmp_path / "hole.csv"
    path.write_text("date,a,b\n2020-01-01,1.0,\n")
    with pytest.raises(DataError, match=r"missing value, column 'b', row 2"):
        load_csv(path)


def test_load_csv_missing_path(tmp_path):
    with pytest.raises(DataError, match="file not found"):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_directory(tmp_path):
    with pytest.raises(DataError, match="not a regular file") as info:
        load_csv(tmp_path)
    assert str(tmp_path) in str(info.value)


def test_load_csv_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("date,temp\n2020-01-01,1.0\n2020-01-02\xb0,2.0\n".encode("latin-1"))
    with pytest.raises(DataError, match="not UTF-8 text") as info:
        load_csv(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# standardize


def test_standardize_hand_values():
    frame = make_frame([1.0, 2.0, 3.0])
    normalized, stats = standardize(frame)
    np.testing.assert_allclose(normalized[:, 0],
                               [-1.2247449, 0.0, 1.2247449], atol=1e-6)
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(0.8164966, abs=1e-6)  # population std


def test_standardize_identity_stats():
    frame = make_frame([[0.5, -2.0], [1.5, 4.0]])
    stats_in = standardize(make_frame([[0.0, 0.0], [0.0, 0.0]]))[1]
    stats_in.mean[:] = 0.0
    stats_in.std[:] = 1.0
    normalized, _ = standardize(frame, stats_in)
    np.testing.assert_array_equal(normalized, frame)


def test_standardize_constant_channel_floor():
    frame = make_frame([5.0, 5.0])
    normalized, stats = standardize(frame)
    np.testing.assert_array_equal(normalized, [[0.0], [0.0]])
    assert stats.std[0] == 1e-8


def test_standardize_round_trip():
    rng = np.random.default_rng(7)
    frame = make_frame(rng.normal(3.0, 2.5, size=(200, 4)))
    normalized, stats = standardize(frame)
    restored = normalized * stats.std + stats.mean
    np.testing.assert_allclose(restored, frame, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# chronological_split


def test_split_benchmark_boundaries():
    frame = make_frame(np.arange(17420, dtype=np.float32))
    spec = SplitSpec(ratios=(0.6, 0.2, 0.2), lookback=96, horizon=96)
    train, val, test = chronological_split(frame, spec)
    assert len(train) == 10452                 # floor(0.6 * 17420)
    assert val[0, 0] == 10452 - 96             # reaches back by the lookback
    assert val[-1, 0] == 13936 - 1             # floor(0.8 * 17420) - 1
    assert test[0, 0] == 13936 - 96
    assert test[-1, 0] == 17420 - 1


def test_split_explicit_boundaries():
    frame = make_frame(np.arange(100, dtype=np.float32))
    spec = SplitSpec(ratios=(0.7, 0.1, 0.2), lookback=10, horizon=5)
    train, val, test = chronological_split(frame, spec)
    assert (train[0, 0], train[-1, 0]) == (0, 69)
    assert (val[0, 0], val[-1, 0]) == (60, 79)
    assert (test[0, 0], test[-1, 0]) == (70, 99)


@pytest.mark.parametrize("ratios, message", [
    ((math.nan, 0.5, 0.5), "nonnegative"), ((0.5, 0.5, math.nan), "nonnegative"),
    ((-0.2, 0.6, 0.6), "nonnegative"), ((0.5, 0.5, 0.5), "sum to 1")])
def test_split_spec_rejects_bad_ratios(ratios, message):
    with pytest.raises(ConfigError, match=f"split ratios must .*{message}"):
        SplitSpec(ratios=ratios, lookback=8, horizon=4)


def test_split_degenerate_ratio_errors():
    frame = make_frame(np.arange(10, dtype=np.float32))
    spec = SplitSpec(ratios=(1.0, 0.0, 0.0), lookback=4, horizon=2)
    with pytest.raises(DataError, match="val segment too short"):
        chronological_split(frame, spec)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(total=st.integers(1, 1000),
       parts=st.tuples(*[st.integers(0, 10)] * 3).filter(any),
       t=st.integers(1, 24), f=st.integers(1, 24))
def test_split_target_ranges_disjoint(total, parts, t, f):
    # Either the short segment is named, or the target start rows never
    # overlap across splits and all lie in [T, total - F]: the backward
    # extension trades F-1 boundary windows for zero target leakage. The
    # splits are views of the series and the windows of each standardized
    # split.
    ratios = tuple(p / sum(parts) for p in parts)
    series = make_frame(np.arange(total))
    b1 = math.floor(ratios[0] * total)
    b2 = math.floor((ratios[0] + ratios[1]) * total)
    short = ("train" if b1 < t + f else "val" if b2 - b1 < f
             else "test" if total - b2 < f else None)
    spec = SplitSpec(ratios=ratios, lookback=t, horizon=f)
    if short is not None:
        with pytest.raises(DataError, match=f"{short} segment too short"):
            chronological_split(series, spec)
        return
    splits = chronological_split(series, spec)
    stats = standardize(splits[0])[1]
    all_starts = []
    for split, boundary in zip(splits, (t, b1, b2)):
        assert np.shares_memory(split, series)
        normalized = standardize(split, stats)[0]
        windows = make_windows(normalized, t, f)
        assert np.shares_memory(windows.inputs, normalized)
        assert np.shares_memory(windows.targets, normalized)
        # the raw split's windows carry their own row numbers
        targets = make_windows(split, t, f).targets[:, 0, 0]
        assert targets[0] == boundary
        all_starts.extend(targets.astype(int).tolist())
    assert len(set(all_starts)) == len(all_starts)
    assert t <= min(all_starts) and max(all_starts) <= total - f


# ---------------------------------------------------------------------------
# make_windows


def test_make_windows_enumeration():
    frame = make_frame(np.arange(10, dtype=np.float32))
    windows = make_windows(frame, 4, 2)
    assert len(windows) == 5
    np.testing.assert_array_equal(windows.inputs[0][:, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(windows.targets[0][:, 0], [4, 5])
    np.testing.assert_array_equal(windows.inputs[4][:, 0], [4, 5, 6, 7])
    np.testing.assert_array_equal(windows.targets[4][:, 0], [8, 9])


def test_make_windows_contiguity():
    rng = np.random.default_rng(3)
    frame = make_frame(rng.normal(size=(40, 3)))
    windows = make_windows(frame, 9, 4)
    for i in range(len(windows)):
        np.testing.assert_array_equal(windows.inputs[i][-1], frame[i + 8])
        np.testing.assert_array_equal(windows.targets[i][0], frame[i + 9])


def test_make_windows_exact_length():
    frame = make_frame(np.arange(6, dtype=np.float32))
    windows = make_windows(frame, 4, 2)
    assert len(windows) == 1


def test_make_windows_rejects_1d():
    with pytest.raises(DataError, match=r"values must be 2-D, got shape \(10,\)"):
        make_windows(np.arange(10, dtype=np.float32), 4, 2)


def test_make_windows_too_short():
    frame = make_frame(np.arange(5, dtype=np.float32))
    with pytest.raises(DataError, match="shorter than"):
        make_windows(frame, 4, 2)


def test_window_batches_cover_everything():
    frame = make_frame(np.arange(30, dtype=np.float32))
    windows = make_windows(frame, 5, 3)
    seen = 0
    for xb, yb in windows.batches(8):
        assert xb.shape[1:] == (5, 1) and yb.shape[1:] == (3, 1)
        seen += len(xb)
    assert seen == len(windows)


def test_shuffled_batches_are_gathered_channel_major():
    # channel_major, which the front end applies to the inputs and the loss
    # to the targets, then returns a view of the gathered memory, no copy
    frame = make_frame(np.random.default_rng(6).normal(size=(40, 3)))
    windows = make_windows(frame, 6, 4)
    order = np.random.default_rng(7).permutation(len(windows))
    for i, (xb, yb) in enumerate(windows.batches(8, order)):
        idx = order[8 * i:8 * (i + 1)]
        for got, want in ((xb, windows.inputs[idx]), (yb, windows.targets[idx])):
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got.transpose(0, 2, 1).flags.c_contiguous
            assert np.shares_memory(channel_major(got, np.float32), got)


@pytest.mark.parametrize("cut", [-1, 1])
def test_window_batches_reject_order_of_another_length(cut):
    windows = make_windows(make_frame(np.arange(30, dtype=np.float32)), 5, 3)
    order = np.arange(len(windows) + cut) % len(windows)
    with pytest.raises(ValueError, match=f"order holds {len(order)} indices "
                                         f"for {len(windows)} windows"):
        list(windows.batches(4, order))


@pytest.mark.parametrize("batch_size", [0, -3])
def test_window_batches_reject_size_below_one(batch_size):
    windows = make_windows(make_frame(np.arange(30, dtype=np.float32)), 5, 3)
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        list(windows.batches(batch_size))


# ---------------------------------------------------------------------------
# synth_multiscale


def test_synth_pure_sinusoid():
    frame = synth_multiscale(64, [SynthChannel(16, 1.0, 0.0, 0.0)], seed=0)
    assert frame[4, 0] == pytest.approx(1.0)      # quarter period
    assert frame[0, 0] == pytest.approx(0.0)


def test_synth_linear_ramp():
    frame = synth_multiscale(10, [SynthChannel(16, 0.0, 0.5, 0.0)], seed=0)
    np.testing.assert_allclose(frame[:, 0],
                               0.5 * np.arange(10), atol=1e-6)


def test_synth_deterministic():
    spec = [SynthChannel(12, 1.0, 0.01, 0.3), SynthChannel(40, 2.0, 0.0, 0.1)]
    a = synth_multiscale(128, spec, seed=42)
    b = synth_multiscale(128, spec, seed=42)
    np.testing.assert_array_equal(a, b)
    c = synth_multiscale(128, spec, seed=43)
    assert not np.array_equal(a, c)
