"""Experiment configuration: INI-style file with one section per module.

Defaults reproduce the standard training setup (k=6, tau=1e-4, Adam at
1e-4, batch 4, 12 epochs, 80/20 split), so a minimal config runs it
verbatim.  Any field can be overridden with dotted-path strings like
``train.lr=1e-3``.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field, replace

from . import nn
from .errors import ConfigError
from .graph import GraphParams, VARIANTS
from .losses import LossWeights
from .synth import Intrinsics


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

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy)


@dataclass(frozen=True)
class ModelSection:
    preset: str = "3GCN+GAT"
    layers: str = ""
    pooling: str = ""
    hidden: int = 64


@dataclass(frozen=True)
class TrainSection:
    batch_size: int = 4
    lr: float = 1e-4
    epochs: int = 12
    split: float = 0.8


@dataclass(frozen=True)
class LossSection:
    lambda_pose: float = 1.0
    lambda_frob: float = 1.0
    lambda_svd: float = 1.0
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
        return LossWeights(self.loss.lambda_pose, self.loss.lambda_frob,
                           self.loss.lambda_svd, self.loss.lambda_yaw)

    def model_config(self) -> nn.ModelConfig:
        if self.model.layers:
            layers = tuple(_parse_layer(s) for s in self.model.layers.split(","))
            pooling = self.model.pooling or "mean"
            return nn.ModelConfig(layers, pooling=pooling, hidden=self.model.hidden)
        cfg = nn.preset_config(self.model.preset, hidden=self.model.hidden)
        if self.model.pooling:
            cfg = nn.ModelConfig(cfg.layers, pooling=self.model.pooling,
                                 hidden=cfg.hidden)
        return cfg

    def resolved_out_root(self) -> str:
        return os.environ.get("EPIGRAPH_OUT_ROOT", "") or self.out_root


def _parse_layer(s: str) -> nn.LayerSpec:
    parts = s.strip().split(":")
    if len(parts) not in (3, 4, 5):
        raise ConfigError(f"bad layer spec {s!r}; want kind:in:out[:heads[:act]]")
    kind = parts[0]
    try:
        in_dim, out_dim = int(parts[1]), int(parts[2])
        heads = int(parts[3]) if len(parts) > 3 else (4 if kind == "gat" else 1)
    except ValueError:
        raise ConfigError(f"bad layer spec {s!r}") from None
    act = parts[4] if len(parts) > 4 else "relu"
    try:
        return nn.LayerSpec(kind, in_dim, out_dim, heads, act)
    except Exception as e:
        raise ConfigError(f"bad layer spec {s!r}: {e}") from None


# section -> key -> (type tag, default-from-dataclass attr)
_SCHEMA = {
    "run": {"seed": "int", "out_root": "str"},
    "dataset": {"kind": "str", "sequence": "str", "n_frames": "int",
                "fps": "float", "motion": "str", "spacings": "floats",
                "n_points": "int", "depth_min": "float", "depth_max": "float",
                "noise_px": "float", "outlier_fraction": "float",
                "step_m": "float", "width": "int", "height": "int",
                "fx": "float", "fy": "float", "cx": "float", "cy": "float",
                "manifest": "str", "check_intrinsics": "bool"},
    "graph": {"k": "int", "tau": "float", "variant": "str",
              "symmetrize": "bool", "knn_source": "int", "radius": "optfloat",
              "e0_seed": "int", "e0_m": "int", "e0_iters": "int",
              "full_denominator": "bool"},
    "model": {"preset": "str", "layers": "str", "pooling": "str", "hidden": "int"},
    "train": {"batch_size": "int", "lr": "float", "epochs": "int",
              "split": "float"},
    "loss": {"lambda_pose": "float", "lambda_frob": "float",
             "lambda_svd": "float", "lambda_yaw": "float",
             "normalized_e": "bool"},
    "eval": {"baseline": "str", "out_dir": "str"},
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _convert(tag: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "optfloat":
            return None if raw in ("", "auto", "none") else float(raw)
        if tag == "bool":
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "floats":
            return tuple(float(v) for v in raw.split(",") if v.strip())
        return raw
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _to_string(tag: str, value) -> str:
    if tag == "optfloat":
        return "auto" if value is None else repr(float(value))
    if tag == "bool":
        return "true" if value else "false"
    if tag == "floats":
        return ",".join(repr(float(v)) for v in value)
    if tag == "float":
        return repr(float(value))
    return str(value)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _section_values(cfg: ExperimentConfig):
    return {
        "run": {"seed": cfg.seed, "out_root": cfg.out_root},
        "dataset": {k: getattr(cfg.dataset, k) for k in _SCHEMA["dataset"]},
        "graph": {k: getattr(cfg.graph, k) for k in _SCHEMA["graph"]},
        "model": {k: getattr(cfg.model, k) for k in _SCHEMA["model"]},
        "train": {k: getattr(cfg.train, k) for k in _SCHEMA["train"]},
        "loss": {k: getattr(cfg.loss, k) for k in _SCHEMA["loss"]},
        "eval": {k: getattr(cfg.eval, k) for k in _SCHEMA["eval"]},
    }


def serialize_config(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    for section, keys in _SCHEMA.items():
        cp[section] = {k: _to_string(tag, _section_values(cfg)[section][k])
                       for k, tag in keys.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _build(values: dict) -> ExperimentConfig:
    ds = DatasetSection(**values["dataset"])
    cfg = ExperimentConfig(
        seed=values["run"]["seed"],
        out_root=values["run"]["out_root"],
        dataset=ds,
        graph=GraphParams(**values["graph"]),
        model=ModelSection(**values["model"]),
        train=TrainSection(**values["train"]),
        loss=LossSection(**values["loss"]),
        eval=EvalSection(**values["eval"]),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.dataset.kind not in ("synthetic", "files"):
        raise ConfigError(f"dataset.kind must be synthetic or files, got {cfg.dataset.kind!r}")
    if cfg.dataset.motion not in ("forward", "arc", "random-walk"):
        raise ConfigError(f"unknown motion model {cfg.dataset.motion!r}")
    if cfg.graph.variant not in VARIANTS:
        raise ConfigError(f"unknown graph variant {cfg.graph.variant!r}")
    if cfg.model.preset and cfg.model.layers:
        raise ConfigError("model.preset and model.layers are mutually exclusive; "
                          "clear one of them")
    if not cfg.model.preset and not cfg.model.layers:
        raise ConfigError("one of model.preset / model.layers is required")
    if cfg.model.preset and cfg.model.preset not in nn.PRESET_NAMES:
        raise ConfigError(f"unknown preset {cfg.model.preset!r}; "
                          f"known: {', '.join(nn.PRESET_NAMES)}")
    if cfg.model.pooling and cfg.model.pooling not in nn.POOLINGS:
        raise ConfigError(f"unknown pooling {cfg.model.pooling!r}")
    if cfg.eval.baseline not in ("none", "eightpoint"):
        raise ConfigError(f"unknown baseline {cfg.eval.baseline!r}")
    if not (0.0 < cfg.train.split < 1.0):
        raise ConfigError("train.split must lie strictly between 0 and 1")
    cfg.model_config()  # surfaces bad layer strings and dim chains


def parse_config(path=None, overrides=(), check_files: bool = True) -> ExperimentConfig:
    """Load a config file (or pure defaults) and apply dotted overrides."""
    values = {s: {k: getattr(default_section, k) for k in keys}
              for (s, keys), default_section in zip(
                  _SCHEMA.items(),
                  (None, DatasetSection(), GraphParams(), ModelSection(),
                   TrainSection(), LossSection(), EvalSection()))
              if s != "run"}
    values["run"] = {"seed": 0, "out_root": "."}

    if path is not None:
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in cp[section].items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                values[section][key] = _convert(_SCHEMA[section][key], raw,
                                                f"{section}.{key}")

    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form section.key=value")
        dotted, raw = ov.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {ov!r} needs a dotted path like train.lr")
        section, key = dotted.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config field {dotted!r}")
        values[section][key] = _convert(_SCHEMA[section][key], raw, dotted)

    cfg = _build(values)
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
