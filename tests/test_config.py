import configparser
import dataclasses
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigraph.config import (
    ExperimentConfig,
    _records,
    decode,
    default_config,
    encode,
    parse_config,
)
from epigraph.errors import ConfigError
from epigraph.graph import VARIANTS, GraphParams
from epigraph.losses import LossWeights


def serialize_config(cfg: ExperimentConfig) -> str:
    """The INI text of every setting of ``cfg``, one section per record."""
    cp = configparser.ConfigParser()
    for section, record in _records(cfg).items():
        cp[section] = encode(record)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def test_defaults_match_training_protocol():
    cfg = default_config()
    assert cfg.graph.k == 6
    assert cfg.graph.tau == 1e-4
    assert cfg.train.batch_size == 4
    assert cfg.train.lr == 1e-4
    assert cfg.train.epochs == 12
    assert cfg.train.split == 0.8
    assert cfg.loss.lambda_pose == 1.0
    assert cfg.model.preset == "3GCN+GAT"


def test_round_trip_identity(tmp_path):
    cfg = parse_config(None, overrides=[
        "train.lr=0.001", "graph.variant=soft", "dataset.spacings=0.1,0.5",
        "loss.lambda_yaw=0.25", "run.seed=17", "graph.radius=0.33",
    ])
    path = tmp_path / "exp.ini"
    path.write_text(serialize_config(cfg))
    back = parse_config(path)
    assert back == cfg
    assert serialize_config(back) == serialize_config(cfg)


def test_serialize_writes_exactly_the_dataclass_fields():
    cp = configparser.ConfigParser()
    cp.read_string(serialize_config(default_config()))
    sections = {"run": ["seed", "out_root"]}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in sections["run"]:
            sections[f.name] = [g.name for g in dataclasses.fields(f.default_factory)]
    assert cp.sections() == list(sections)
    for section, keys in sections.items():
        assert list(cp[section]) == keys, section


DEFAULT_TEXT = """\
[run]
seed = 0
out_root = .

[dataset]
kind = synthetic
sequence = seq
n_frames = 40
fps = 10.0
motion = forward
spacings = 0.1
n_points = 80
depth_min = 3.0
depth_max = 10.0
noise_px = 0.0
outlier_fraction = 0.0
step_m = 0.1
width = 640
height = 480
fx = 500.0
fy = 500.0
cx = 320.0
cy = 240.0
manifest =\x20
check_intrinsics = 0

[graph]
k = 6
tau = 0.0001
variant = hard
radius = none
e0_m = 16
e0_iters = 32

[model]
preset = 3GCN+GAT
hidden = 64

[train]
batch_size = 4
lr = 0.0001
epochs = 12
split = 0.8

[loss]
lambda_pose = 1.0
lambda_frob = 1.0
lambda_yaw = 1.0
normalized_e = 0

[eval]
baseline = none
out_dir = out

"""


def test_default_config_text_is_pinned():
    assert serialize_config(default_config()) == DEFAULT_TEXT


def test_serialize_encoding_and_older_spellings(tmp_path):
    text = serialize_config(parse_config(None, overrides=["dataset.check_intrinsics=true"]))
    assert "check_intrinsics = 1" in text and "radius = none" in text
    assert "normalized_e = 0" in text
    path = tmp_path / "old.ini"
    path.write_text("[dataset]\ncheck_intrinsics = true\n[graph]\nradius = auto\n"
                    "[loss]\nnormalized_e = yes\n")
    cfg = parse_config(path)
    assert cfg.dataset.check_intrinsics is True and cfg.graph.radius is None
    assert cfg.loss.normalized_e is True


def test_minimal_file_gets_defaults(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text("[run]\nseed = 3\n")
    cfg = parse_config(path)
    assert cfg.seed == 3
    assert cfg.train.epochs == 12


def test_unknown_section_and_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path.write_text("[train]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_bad_override_forms():
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["train.lr"])
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["lr=0.1"])
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["train.nope=1"])
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["train.lr=fast"])


def test_unknown_names_rejected():
    for bad in ("model.preset=MegaNet", "model.preset=", "graph.variant=fuzzy",
                "eval.baseline=fivepoint", "dataset.motion=teleport"):
        with pytest.raises(ConfigError):
            parse_config(None, overrides=[bad])


# values of each field that no run can use
UNRUNNABLE = ["graph.k=0", "graph.tau=0", "graph.tau=-1e-4", "graph.tau=nan",
              "graph.e0_m=4", "graph.e0_iters=-1",
              "graph.radius=0", "train.epochs=0",
              "train.lr=0", "train.lr=-1", "train.lr=nan", "train.lr=inf",
              "train.batch_size=0", "model.hidden=0",
              "loss.lambda_pose=nan", "loss.lambda_frob=inf", "loss.lambda_yaw=-1",
              "dataset.n_points=7", "dataset.noise_px=-1", "dataset.noise_px=nan",
              "dataset.noise_px=inf", "dataset.sequence=", "dataset.sequence=a b",
              "dataset.sequence=a\tb", "dataset.sequence=a\udcffb",
              "dataset.spacings=nan", "dataset.spacings=0.1,inf", "dataset.depth_min=nan",
              "dataset.depth_max=nan", "dataset.depth_max=inf", "dataset.fps=inf",
              "dataset.fps=nan", "dataset.step_m=nan", "dataset.step_m=-inf",
              "dataset.width=0", "dataset.height=-5", "dataset.width=4", "dataset.height=4",
              "dataset.cx=inf", "dataset.cy=nan", "dataset.fx=nan", "dataset.fy=-inf",
              "dataset.motion=teleport", "model.preset=foo", "eval.baseline=foo"]


@pytest.mark.parametrize("override", UNRUNNABLE)
def test_unrunnable_value_is_config_error_naming_its_field(override):
    field = override.split("=")[0]
    with pytest.raises(ConfigError, match=re.escape(field)):
        parse_config(None, overrides=[override])


# the exact message each record gives for a refused value
MESSAGES = {
    "train.split=1.5": "train.split must lie strictly between 0 and 1",
    "train.split=0": "train.split must lie strictly between 0 and 1",
    "model.preset=foo": "model.preset must be one of GAT+2GCN, 3GCN+GAT, GIN_SumPool, "
                        "got 'foo'",
    "eval.baseline=foo": "eval.baseline must be one of none, eightpoint, got 'foo'",
    "loss.lambda_pose=-1": "loss.lambda_pose must be finite and nonnegative, got -1.0",
    "dataset.kind=foo": "dataset.kind must be synthetic or files, got 'foo'",
    "dataset.motion=teleport": ("dataset.motion must be one of forward, arc, random-walk, "
                                "got 'teleport'"),
    "train.batch_size=0": "train.batch_size must be >= 1, got 0",
}


@pytest.mark.parametrize("override", MESSAGES)
def test_refused_value_message_is_exact(override):
    with pytest.raises(ConfigError) as info:
        parse_config(None, overrides=[override])
    assert str(info.value) == MESSAGES[override]


def test_edge_values_stay_valid():
    cfg = parse_config(None, overrides=["graph.tau=inf", "graph.k=1",
                                        "graph.e0_m=8", "graph.e0_iters=0",
                                        "graph.radius=none", "train.epochs=1",
                                        "train.lr=1e-300", "loss.lambda_pose=0",
                                        "dataset.n_points=8", "train.batch_size=1",
                                        "dataset.noise_px=0", "dataset.sequence=a-b:c",
                                        "dataset.width=5", "dataset.height=5"])
    assert cfg.graph.tau == float("inf") and cfg.graph.k == 1
    assert cfg.train.epochs == 1 and cfg.train.lr == 1e-300
    assert cfg.loss.lambda_pose == 0.0 and cfg.dataset.n_points == 8
    assert cfg.train.batch_size == 1 and cfg.dataset.noise_px == 0.0
    assert cfg.dataset.sequence == "a-b:c"
    assert (cfg.dataset.width, cfg.dataset.height) == (5, 5)


def test_unrunnable_value_in_config_file(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[graph]\nk = 0\n")
    with pytest.raises(ConfigError, match=r"graph\.k"):
        parse_config(str(path))


# graph settings that became fixed behaviour; setting one, even to its fixed
# value, is the unknown-field (--set) or unknown-key (INI) error
RETIRED = ["graph.symmetrize=1", "graph.knn_source=3", "graph.full_denominator=0",
           "graph.e0_seed=0"]


@pytest.mark.parametrize("override", RETIRED)
def test_retired_graph_setting_is_unknown(tmp_path, override):
    dotted, value = override.split("=")
    with pytest.raises(ConfigError, match=f"unknown config field '{re.escape(dotted)}'"):
        parse_config(None, overrides=[override])
    path = tmp_path / "old.ini"
    path.write_text(f"[graph]\n{dotted.split('.')[1]} = {value}\n")
    with pytest.raises(ConfigError, match=f"unknown key {re.escape(dotted)}"):
        parse_config(str(path))


def test_missing_manifest_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["dataset.kind=files",
                                      "dataset.manifest=/does/not/exist.txt"])


def test_missing_config_file():
    with pytest.raises(ConfigError):
        parse_config("/no/such/config.ini")


finite_weights = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)

graph_params = st.builds(
    GraphParams, k=st.integers(1, 2 ** 40), tau=positive,
    variant=st.sampled_from(VARIANTS), radius=st.none() | positive,
    e0_m=st.integers(8, 2 ** 40), e0_iters=st.integers(0, 2 ** 40))


@settings(max_examples=200, deadline=None)
@given(st.builds(LossWeights, lambda_pose=finite_weights | st.just(-0.0),
                 lambda_frob=finite_weights, lambda_yaw=finite_weights | st.just(5e-324)),
       graph_params)
def test_encode_decode_round_trip(weights, gp):
    for record, prefix in ((weights, ""), (gp, "graph.")):
        text = encode(record, prefix)
        back = decode(type(record), text, prefix)
        assert back == record
        assert encode(back, prefix) == text  # also keeps the sign of -0.0
