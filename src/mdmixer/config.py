"""Configuration objects and the flat key=value run-config format.

``KEYS`` is the one table that defines the format's keys; defaults live
only on the dataclasses, and parsing and rendering are loops over it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Raised when a configuration value violates an invariant."""


def _check_min(cfg, minimum, *names, what: str = "", finite: bool = False):
    for name in names:
        value = getattr(cfg, name)
        if not value >= minimum:  # so NaN fails too
            raise ConfigError(f"{what}{name} must be >= {minimum}, got {value}")
        if finite and not math.isfinite(value):
            raise ConfigError(f"{what}{name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the multi-granularity forecaster.

    lookback/horizon are the input/output window lengths, channels the
    number of series variables. patch_len/stride/embed_dim control the
    patch embedding, heads the number of parallel prediction heads,
    hidden the width of the trend MLP and of the gating network, kernel
    the moving-average size of the trend/seasonal split, align_weight
    the coefficient of the per-head alignment loss.
    """

    lookback: int
    horizon: int
    channels: int
    patch_len: int = 32
    stride: int = 16
    embed_dim: int = 64
    heads: int = 8
    hidden: int = 64
    kernel: int = 25
    align_weight: float = 0.01
    use_mpp: bool = True
    use_mim: bool = True
    use_amwg: bool = True
    use_align_loss: bool = True
    pos_encoding: str = "shared"  # "shared" (N x D) or "per_channel" (C x N x D)

    def __post_init__(self):
        _check_min(self, 1, "lookback", "horizon", "channels", "patch_len",
                   "stride", "embed_dim", "heads", "hidden")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be a positive odd integer, got {self.kernel}")
        if self.patch_len > self.lookback:
            raise ConfigError(
                f"patch_len ({self.patch_len}) must not exceed lookback ({self.lookback})")
        _check_min(self, 0, "align_weight", finite=True)
        if self.horizon % self.num_heads != 0:
            raise ConfigError(
                f"heads ({self.num_heads}) must divide horizon ({self.horizon}) "
                f"so every head has an integer output length")
        if self.pos_encoding not in ("shared", "per_channel"):
            raise ConfigError(
                f"pos_encoding must be 'shared' or 'per_channel', got {self.pos_encoding!r}")

    @property
    def num_heads(self) -> int:
        """Effective head count; a single head when parallel prediction is off."""
        return self.heads if self.use_mpp else 1

    @property
    def mim_enabled(self) -> bool:
        return self.use_mim and self.use_mpp

    @property
    def amwg_enabled(self) -> bool:
        return self.use_amwg and self.use_mpp

    @property
    def num_patches(self) -> int:
        return (self.lookback - self.patch_len) // self.stride + 2


BASELINE_KINDS = ("linear_direct", "decomp_linear", "dual_branch")


@dataclass(frozen=True)
class BaselineConfig:
    """Linear / dual-branch baseline forecasters (channel-shared weights)."""

    kind: str
    lookback: int
    horizon: int
    channels: int
    hidden: int = 64   # trend MLP width, dual_branch only
    kernel: int = 25   # moving-average size, decomposing kinds only

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ConfigError(f"unknown baseline kind {self.kind!r}, "
                              f"expected one of {BASELINE_KINDS}")
        _check_min(self, 1, "lookback", "horizon", "channels", "hidden")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be a positive odd integer, got {self.kernel}")


@dataclass(frozen=True)
class TrainSettings:
    """Optimization loop hyperparameters (AdamW + early stopping)."""

    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        _check_min(self, 0, "lr", "weight_decay", finite=True)
        _check_min(self, 1, "batch_size", "max_epochs")
        _check_min(self, 0, "patience")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")


@dataclass(frozen=True)
class SynthChannel:
    """One synthetic channel: sinusoid + linear trend + Gaussian noise."""

    period: float
    amplitude: float
    slope: float
    noise: float

    def __post_init__(self):
        _check_min(self, 2, "period", what="synthetic channel ", finite=True)
        _check_min(self, 0, "noise", what="synthetic channel ", finite=True)
        for name in ("amplitude", "slope"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"synthetic channel {name} must be finite, "
                                  f"got {getattr(self, name)}")


@dataclass
class RunConfig:
    """Fully resolved experiment description (data + model + training).

    ``model`` holds ModelConfig's defaulted keyword arguments; its window
    lengths are fields here, and channels is bound once the data is loaded.
    """

    data_path: str | None = None
    dataset_name: str = ""
    channels: int | None = None
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    synth_length: int | None = None
    synth_channels: tuple[SynthChannel, ...] = ()
    synth_seed: int = 0
    model_kind: str = "mdmixer"
    lookback: int = 96
    horizon: int = 96
    model: dict = field(default_factory=lambda: {
        f.name: f.default for f in dataclasses.fields(ModelConfig)
        if f.default is not dataclasses.MISSING})
    train: TrainSettings = field(default_factory=TrainSettings)
    seeds: tuple[int, ...] = (1, 2, 3)
    out_dir: str = "runs/out"

    def validate(self):
        if self.model_kind not in ("mdmixer",) + BASELINE_KINDS:
            raise ConfigError(f"model.kind must be 'mdmixer' or one of "
                              f"{BASELINE_KINDS}, got {self.model_kind!r}")
        # the data are read from one source; a second one would be ignored
        for key in ("synth_length", "synth_channels"):
            if self.data_path is not None and getattr(self, key) not in (None, ()):
                raise ConfigError(f"data.path and data.{key} both name the data; "
                                  f"set one of them")
        if self.synth_channels and self.synth_length is None:
            raise ConfigError("data.synth_channels requires data.synth_length")
        if self.data_path is None and self.synth_length is None and self.channels is None:
            raise ConfigError("config needs data.path, data.synth_length or data.channels")
        if self.synth_length is not None and not self.synth_channels:
            raise ConfigError("data.synth_channels required with data.synth_length")
        total = sum(self.ratios)
        if not (all(r >= 0 for r in self.ratios) and abs(total - 1.0) <= 1e-6):
            raise ConfigError(f"split ratios must be nonnegative and sum to 1, "
                              f"got {self.ratios} (sum {total:g})")
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            # each seed names its checkpoint and metrics row
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        # numpy's generators take only non-negative seeds
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if self.synth_seed < 0:
            raise ConfigError(f"data.synth_seed must be >= 0, got {self.synth_seed}")
        # Resolving with a placeholder channel count runs the model-side checks
        # (head divisibility, patch geometry) before any data is touched.
        self.resolve_model(self.channels or 1)

    def resolve_model(self, channels: int) -> ModelConfig | BaselineConfig:
        """Bind the channel count (known once data is loaded) into a model config."""
        if self.model_kind == "mdmixer":
            return ModelConfig(self.lookback, self.horizon, channels, **self.model)
        return BaselineConfig(self.model_kind, self.lookback, self.horizon, channels,
                              hidden=self.model["hidden"], kernel=self.model["kernel"])


def _parse_bool(raw: str) -> bool:
    # index() raises ValueError for any other word
    return ("false", "0", "no", "off", "true", "1", "yes", "on").index(raw.lower()) >= 4


def _parse_synth_channels(raw: str) -> tuple[SynthChannel, ...]:
    channels = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 4:
            raise ConfigError(
                f"data.synth_channels entry {part!r} must be period:amp:slope:noise")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ConfigError(f"data.synth_channels entry {part!r} has a "
                              f"non-numeric field") from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"data.synth_channels entry {part!r} has a "
                              f"non-finite field")
        channels.append(SynthChannel(*values))
    if not channels:
        raise ConfigError("data.synth_channels is empty")
    return tuple(channels)


# Value kind -> (parse, render). A parse that raises a plain ValueError
# is reported as "<key>: expected <kind>, got <raw>".
_KINDS = {
    "int": (int, str),
    "float": (float, str),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "str": (str, str),
    "comma-separated integers": (
        lambda raw: tuple(int(s) for s in raw.split(",") if s.strip()),
        lambda seeds: ",".join(map(str, seeds))),
    "synthetic channels": (  # shortest exact float text: 192.0 -> "192"
        _parse_synth_channels,
        lambda channels: ", ".join(":".join(repr(v).removesuffix(".0")
                                            for v in dataclasses.astuple(c))
                                   for c in channels)),
}

# Every key of the run-config format, in rendering order: (RunConfig
# attribute, index or field within it, value kind). model.* and train.*
# rows take names and kinds from the dataclasses (annotations are strings
# under the __future__ import, so a field's type is its kind name).
# ModelConfig's required fields are RunConfig fields; TrainSettings' AdamW
# constants and per-run seed are not configurable.
KEYS: dict[str, tuple[str, int | str | None, str]] = {
    "data.path": ("data_path", None, "str"),
    "data.name": ("dataset_name", None, "str"),
    "data.channels": ("channels", None, "int"),  # dataset-free configs (gradcheck)
    "data.ratio_train": ("ratios", 0, "float"),
    "data.ratio_val": ("ratios", 1, "float"),
    "data.ratio_test": ("ratios", 2, "float"),
    "data.synth_length": ("synth_length", None, "int"),
    "data.synth_channels": ("synth_channels", None, "synthetic channels"),
    "data.synth_seed": ("synth_seed", None, "int"),
    "model.kind": ("model_kind", None, "str"),
    **{f"model.{f.name}": (f.name, None, f.type) if f.default is dataclasses.MISSING
       else ("model", f.name, f.type)
       for f in dataclasses.fields(ModelConfig) if f.name != "channels"},
    **{f"train.{f.name}": ("train", f.name, f.type)
       for f in dataclasses.fields(TrainSettings)
       if f.name not in ("beta1", "beta2", "eps", "seed")},
    "seeds": ("seeds", None, "comma-separated integers"),
    "out_dir": ("out_dir", None, "str"),
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse the flat ``key = value`` run-config format ('#' starts a comment)."""
    cfg = RunConfig()
    parts = {"ratios": list(cfg.ratios), "model": cfg.model, "train": {}}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, name, kind = KEYS[key]
        try:
            value = _KINDS[kind][0](raw)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        if name is None:
            setattr(cfg, attr, value)
        else:
            parts[attr][name] = value
    cfg.ratios = tuple(parts["ratios"])
    cfg.train = TrainSettings(**parts["train"])
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def render_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig back to the flat format with defaults materialized.

    Keys whose default is empty (no data path, name, channel count or
    synthetic series; synthetic seed 0) are written only when set.
    """
    defaults = RunConfig()
    lines = []
    for key, (attr, name, kind) in KEYS.items():
        value = getattr(cfg, attr)
        if name is None:
            default = getattr(defaults, attr)
            if not default and value == default:
                continue
        else:
            value = getattr(value, name) if attr == "train" else value[name]
        lines.append(f"{key} = {_KINDS[kind][1](value)}")
    return "\n".join(lines) + "\n"


def config_echo(cfg: ModelConfig | BaselineConfig, train: TrainSettings | None = None) -> dict:
    """Flat dict snapshot of a resolved config, for reports."""
    echo = dataclasses.asdict(cfg)
    echo["model_class"] = type(cfg).__name__
    if train is not None:
        echo.update({f"train.{k}": v for k, v in dataclasses.asdict(train).items()})
    return echo
