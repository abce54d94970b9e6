"""The distinct model configurations the tests run at, and the benchmark's
workload shapes.

``SHAPES`` is the table: each entry is a ``pytest.param`` of ModelConfig
overrides on ``BASE`` (C=7, T=F=96) with its id. It holds the paper's
ablations as config values (no alignment loss is align_weight = 0, no
parallel prediction one head), per-channel positional encodings, a stride
that does not divide T - patch_len, F=720 and C=321. Tests that loop over
trained shapes select from it; ``C7_SHAPES`` leaves out C=321.

An ablation whose flags give the same model as another entry is not in
the table: ``TWINS`` pairs each such ablation with the entry it equals.
``test_shapes.py`` checks that each twin equals its entry bit for bit, and
that no two entries of the table are the same model.

``WORKLOADS`` is ``bench/run.py``'s workload table, the one place that
spells their shapes.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

from mdmixer.config import ModelConfig

BASE = dict(lookback=96, horizon=96, channels=7)


def _ablation(mim: bool, amwg: bool, align_loss: bool, mpp: bool):
    """An ablation as config values, with an id naming the components on
    and off."""
    flags = dict(mim=mim, amwg=amwg, align_loss=align_loss, mpp=mpp)
    return pytest.param(
        dict(use_mim=mim, use_amwg=amwg, align_weight=0.01 if align_loss else 0.0,
             heads=8 if mpp else 1),
        id="-".join(f"{name}{'' if on else '_off'}" for name, on in flags.items()))


def _kept(param):
    """The ablation that ``param`` is the same model as: itself, except at
    one head, which has no mixer to chain and no gate, so that use_mim and
    use_amwg change nothing there."""
    kw = param.values[0]
    return param if kw["heads"] > 1 else _ablation(True, True, kw["align_weight"] > 0, False)


_ABLATIONS = [_ablation(*flags) for flags in itertools.product((True, False), repeat=4)]
C7_SHAPES = [
    *(param for param in _ABLATIONS if _kept(param).id == param.id),
    pytest.param(dict(pos_encoding="per_channel"), id="per_channel"),
    pytest.param(dict(stride=10), id="stride10"),  # does not divide T - patch_len
    pytest.param(dict(horizon=720), id="F720"),
]
SHAPES = [*C7_SHAPES, pytest.param(dict(channels=321), id="C321")]
# (the twin's overrides, those of the entry it equals), with the twin's id
TWINS = [pytest.param(param.values[0], _kept(param).values[0], id=param.id)
         for param in _ABLATIONS if _kept(param).id != param.id]


def model_config(overrides: dict) -> ModelConfig:
    return ModelConfig(**{**BASE, **overrides})


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from run import WORKLOADS  # noqa: E402
