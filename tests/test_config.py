import configparser
import dataclasses
import re

import pytest

from epigraph.config import ExperimentConfig, default_config, parse_config, serialize_config
from epigraph.errors import ConfigError


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


def test_serialize_encoding_and_older_spellings(tmp_path):
    text = serialize_config(parse_config(None, overrides=["graph.symmetrize=false"]))
    assert "symmetrize = 0" in text and "radius = none" in text
    assert "check_intrinsics = 0" in text
    path = tmp_path / "old.ini"
    path.write_text("[graph]\nsymmetrize = true\nradius = auto\n"
                    "[loss]\nnormalized_e = yes\n")
    cfg = parse_config(path)
    assert cfg.graph.symmetrize is True and cfg.graph.radius is None
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


def test_preset_layers_conflict():
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["model.layers=gcn:6:32,gcn:32:32"])
    # clearing the preset makes the explicit stack valid
    cfg = parse_config(None, overrides=["model.preset=",
                                        "model.layers=gcn:6:32,gcn:32:32"])
    assert [s.kind for s in cfg.model_config().layers] == ["gcn", "gcn"]


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
    for bad in ("model.preset=MegaNet", "graph.variant=fuzzy",
                "eval.baseline=fivepoint", "dataset.motion=teleport"):
        with pytest.raises(ConfigError):
            parse_config(None, overrides=[bad])


# values of each field that no run can use
UNRUNNABLE = ["graph.k=0", "graph.tau=0", "graph.tau=-1e-4", "graph.tau=nan",
              "graph.knn_source=3", "graph.e0_m=4", "graph.e0_iters=-1",
              "graph.radius=0", "train.epochs=0"]


@pytest.mark.parametrize("override", UNRUNNABLE)
def test_unrunnable_value_is_config_error_naming_its_field(override):
    field = override.split("=")[0]
    with pytest.raises(ConfigError, match=re.escape(field)):
        parse_config(None, overrides=[override])


def test_edge_values_stay_valid():
    cfg = parse_config(None, overrides=["graph.tau=inf", "graph.k=1", "graph.knn_source=2",
                                        "graph.e0_m=8", "graph.e0_iters=0",
                                        "graph.radius=none", "train.epochs=1"])
    assert cfg.graph.tau == float("inf") and cfg.graph.knn_source == 2
    assert cfg.train.epochs == 1


def test_unrunnable_value_in_config_file(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[graph]\nknn_source = 3\n")
    with pytest.raises(ConfigError, match=r"graph\.knn_source"):
        parse_config(str(path))


def test_missing_manifest_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["dataset.kind=files",
                                      "dataset.manifest=/does/not/exist.txt"])


def test_missing_config_file():
    with pytest.raises(ConfigError):
        parse_config("/no/such/config.ini")


def test_bad_layer_spec():
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["model.preset=",
                                      "model.layers=gcn:6"])
    with pytest.raises(ConfigError):
        parse_config(None, overrides=["model.preset=",
                                      "model.layers=warp:6:32"])
