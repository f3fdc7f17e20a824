"""Experiment configuration: INI-style file with one section per module.

Defaults reproduce the standard training setup (k=6, tau=1e-4, Adam at
1e-4, batch 4, 12 epochs, 80/20 split), so a minimal config runs it
verbatim.  Any field can be overridden with dotted-path strings like
``train.lr=1e-3``.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, field, fields, replace

from . import nn
from .errors import ConfigError, InvalidInputError
from .graph import GraphParams
from .losses import LossWeights
from .synth import Intrinsics, _fmt


@dataclass(frozen=True)
class DatasetSection:
    kind: str = "synthetic"            # synthetic | files
    sequence: str = "seq"
    n_frames: int = 40
    fps: float = 10.0
    motion: str = "forward"
    spacings: tuple[float, ...] = (0.1,)
    n_points: int = 80
    depth_min: float = 3.0
    depth_max: float = 10.0
    noise_px: float = 0.0
    outlier_fraction: float = 0.0
    step_m: float = 0.1
    width: int = 640
    height: int = 480
    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    manifest: str = ""
    check_intrinsics: bool = False     # verify file headers against fx/fy/cx/cy

    def __post_init__(self):
        # dataset files split their records on whitespace and cannot hold a surrogate
        if not self.sequence or " " in self.sequence or not self.sequence.isprintable():
            raise InvalidInputError(f"dataset.sequence must be printable, nonempty and "
                                    f"without whitespace, got {self.sequence!r}")
        # the eight-point solve and every E0 draw need at least 8 matches
        if self.n_points < 8:
            raise InvalidInputError(f"dataset.n_points must be >= 8, got {self.n_points!r}")
        # the generator adds noise only when noise_px > 0
        if not (math.isfinite(self.noise_px) and self.noise_px >= 0):
            raise InvalidInputError(
                f"dataset.noise_px must be finite and >= 0, got {self.noise_px!r}")

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy)


@dataclass(frozen=True)
class ModelSection:
    preset: str = "3GCN+GAT"
    hidden: int = 64

    def __post_init__(self):
        if self.hidden < 1:
            raise InvalidInputError(f"model.hidden must be >= 1, got {self.hidden!r}")


@dataclass(frozen=True)
class TrainSection:
    batch_size: int = 4
    lr: float = 1e-4
    epochs: int = 12
    split: float = 0.8

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError(f"train.epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size < 1:
            raise InvalidInputError(f"train.batch_size must be >= 1, got {self.batch_size!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidInputError(f"train.lr must be finite and > 0, got {self.lr!r}")


@dataclass(frozen=True)
class LossSection:
    lambda_pose: float = 1.0
    lambda_frob: float = 1.0
    lambda_yaw: float = 1.0
    normalized_e: bool = False


@dataclass(frozen=True)
class EvalSection:
    baseline: str = "none"             # none | eightpoint
    out_dir: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    out_root: str = "."
    dataset: DatasetSection = field(default_factory=DatasetSection)
    graph: GraphParams = field(default_factory=GraphParams)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    loss: LossSection = field(default_factory=LossSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def weights(self) -> LossWeights:
        return LossWeights(**{name: getattr(self.loss, name)
                              for name in settings(LossWeights)})

    def model_config(self) -> nn.ModelConfig:
        return nn.preset_config(self.model.preset, hidden=self.model.hidden)

    def resolved_out_root(self) -> str:
        return os.environ.get("EPIGRAPH_OUT_ROOT", "") or self.out_root


# The settings codec.  A setting's type tag is its dataclass annotation
# (a string under ``from __future__ import annotations``); one parser and
# one formatter per tag serve both the INI file and the checkpoint meta.
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# type tag -> (parser, formatter)
_CODECS = {
    "int": (int, str),
    "float": (float, _fmt),
    "str": (str, str),
    "bool": (_parse_bool, lambda v: "1" if v else "0"),
    "tuple[float, ...]": (lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()),
                          lambda v: ",".join(_fmt(x) for x in v)),
    "float | None": (lambda raw: None if raw in ("", "auto", "none") else float(raw),
                     lambda v: "none" if v is None else _fmt(v)),
}


def settings(cls) -> dict[str, str]:
    """Field name -> type tag of a record's plain settings; fields that
    hold other records are left out."""
    return {f.name: f.type for f in fields(cls) if f.type in _CODECS}


def parse_setting(tag: str, raw: str, where: str):
    """One setting from its text; a bad value raises ValueError naming
    ``where``."""
    try:
        return _CODECS[tag][0](raw.strip())
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def format_setting(tag: str, value) -> str:
    return _CODECS[tag][1](value)


def encode(record, prefix: str = "") -> dict[str, str]:
    """``prefix + name`` -> text of each of a record's settings."""
    return {prefix + name: format_setting(tag, getattr(record, name))
            for name, tag in settings(type(record)).items()}


def decode(cls, text: dict, prefix: str = ""):
    """The ``cls`` record that ``encode`` wrote into ``text``; a missing
    key raises KeyError and a bad value ValueError."""
    return cls(**{name: parse_setting(tag, text[prefix + name], prefix + name)
                  for name, tag in settings(cls).items()})


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _records(cfg: ExperimentConfig) -> dict:
    """INI section -> the record whose settings it holds: [run] is the
    config's own plain fields (seed, out_root), then one section per
    record field."""
    return {"run": cfg, **{f.name: getattr(cfg, f.name) for f in fields(cfg)
                           if f.type not in _CODECS}}


def serialize_config(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    for section, record in _records(cfg).items():
        cp[section] = encode(record)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.dataset.kind not in ("synthetic", "files"):
        raise ConfigError(f"dataset.kind must be synthetic or files, got {cfg.dataset.kind!r}")
    if cfg.dataset.motion not in ("forward", "arc", "random-walk"):
        raise ConfigError(f"unknown motion model {cfg.dataset.motion!r}")
    if cfg.model.preset not in nn.PRESET_NAMES:
        raise ConfigError(f"unknown preset {cfg.model.preset!r}; "
                          f"known: {', '.join(nn.PRESET_NAMES)}")
    if cfg.eval.baseline not in ("none", "eightpoint"):
        raise ConfigError(f"unknown baseline {cfg.eval.baseline!r}")
    if not (0.0 < cfg.train.split < 1.0):
        raise ConfigError("train.split must lie strictly between 0 and 1")
    cfg.weights()  # surfaces negative and non-finite loss weights


def parse_config(path=None, overrides=(), check_files: bool = True) -> ExperimentConfig:
    """Load a config file (or pure defaults) and apply dotted overrides."""
    schema = {section: settings(type(record))
              for section, record in _records(default_config()).items()}
    changes = {section: {} for section in schema}

    def convert(section, key, raw, where):
        try:
            changes[section][key] = parse_setting(schema[section][key], raw, where)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    if path is not None:
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in cp.sections():
            if section not in schema:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in cp[section].items():
                if key not in schema[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                convert(section, key, raw, f"{section}.{key}")

    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form section.key=value")
        dotted, raw = ov.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {ov!r} needs a dotted path like train.lr")
        section, key = dotted.split(".", 1)
        if section not in schema or key not in schema[section]:
            raise ConfigError(f"unknown config field {dotted!r}")
        convert(section, key, raw, dotted)

    cfg = default_config()
    try:
        cfg = replace(cfg, **changes.pop("run"), **{
            section: replace(getattr(cfg, section), **kv)
            for section, kv in changes.items()})
        _validate(cfg)
    except InvalidInputError as e:  # a record refused a value
        raise ConfigError(str(e)) from None
    if check_files and cfg.dataset.kind == "files":
        if not cfg.dataset.manifest:
            raise ConfigError("dataset.kind=files requires dataset.manifest")
        base = os.path.dirname(path) if path else "."
        mpath = cfg.dataset.manifest
        if not os.path.isabs(mpath):
            mpath = os.path.join(base, mpath)
        if not os.path.exists(mpath):
            raise ConfigError(f"manifest does not exist: {mpath}")
        cfg = replace(cfg, dataset=replace(cfg.dataset, manifest=mpath))
    return cfg
