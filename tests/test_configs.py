from dataclasses import dataclass

import pytest

from segdt.config import ConfigError, build_config, parse_flat_file


@dataclass(frozen=True)
class DemoConfig:
    count: int = 3
    rate: float = 0.5
    name: str = "base"
    enabled: bool = True
    bounds: tuple = (0.0, 1.0)


def write(tmp_path, text):
    path = tmp_path / "demo.cfg"
    path.write_text(text)
    return path


# -- file parsing -----------------------------------------------------------


def test_parse_comments_blanks_and_spacing(tmp_path):
    path = write(tmp_path, """
# full-line comment
count = 7
rate=0.25   # trailing comment

name =  spaced value
""")
    assert parse_flat_file(path) == {
        "count": "7", "rate": "0.25", "name": "spaced value"}


def test_parse_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_file(write(tmp_path, "a = 1\na = 2\n"))


def test_parse_missing_equals_rejected(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_flat_file(write(tmp_path, "just words\n"))


def test_parse_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_flat_file("/nonexistent/conf.cfg")


# -- dataclass construction -------------------------------------------------


def test_defaults_when_empty():
    assert build_config(DemoConfig) == DemoConfig()


def test_type_coercion(tmp_path):
    values = parse_flat_file(write(tmp_path, """
count = 9
rate = 1.5
enabled = false
bounds = 2.0, 4.5
name = run-a
"""))
    cfg = build_config(DemoConfig, values)
    assert cfg == DemoConfig(count=9, rate=1.5, enabled=False,
                             bounds=(2.0, 4.5), name="run-a")


@pytest.mark.parametrize("text,expected", [
    ("true", True), ("1", True), ("yes", True),
    ("false", False), ("0", False), ("no", False),
])
def test_bool_spellings(text, expected):
    assert build_config(DemoConfig, {"enabled": text}).enabled is expected


def test_overrides_win_over_file():
    cfg = build_config(DemoConfig, {"count": "1"}, {"count": 2})
    assert cfg.count == 2


def test_none_overrides_ignored():
    cfg = build_config(DemoConfig, {"count": "5"}, {"count": None})
    assert cfg.count == 5


def test_unknown_key_rejected_with_known_list():
    with pytest.raises(ConfigError, match="unknown config key.*bounds"):
        build_config(DemoConfig, {"counts": "1"})


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="count"):
        build_config(DemoConfig, {"count": "three"})
    with pytest.raises(ConfigError, match="enabled"):
        build_config(DemoConfig, {"enabled": "maybe"})


def test_library_config_roundtrip():
    # real stage configs parse from their own to_dict output
    from segdt.return_model import ReturnModelConfig
    cfg = build_config(ReturnModelConfig, {"embed_dim": "16", "epochs": "2"})
    assert cfg.embed_dim == 16 and cfg.epochs == 2
    assert cfg.n_layers == ReturnModelConfig().n_layers


TRAINERS = ["policy", "return"]


def _trainer(name):
    from segdt.policy import PolicyConfig
    from segdt.return_model import ReturnModelConfig
    return {"policy": PolicyConfig, "return": ReturnModelConfig}[name]


@pytest.mark.parametrize("cls", TRAINERS)
@pytest.mark.parametrize("key, value, message", [
    ("dropout", "1.0", r"dropout must be in \[0, 1\), got 1.0"),
    ("dropout", "-0.1", r"dropout must be in \[0, 1\), got -0.1"),
    ("dropout", "nan", r"dropout must be in \[0, 1\), got nan"),
    ("n_heads", "0", "n_heads must be >= 1, got 0"),
    ("learning_rate", "nan", "learning_rate must be finite and > 0, got nan"),
    ("learning_rate", "inf", "learning_rate must be finite and > 0, got inf"),
    ("learning_rate", "0", "learning_rate must be finite and > 0, got 0.0"),
    ("learning_rate", "-1e-3", "learning_rate must be finite and > 0, got -0.001"),
    ("batch_size", "0", "batch_size must be >= 1, got 0"),
    ("batch_size", "-1", "batch_size must be >= 1, got -1"),
])
def test_trainer_configs_check_their_fields_when_built(cls, key, value, message):
    cls = _trainer(cls)
    with pytest.raises(ConfigError, match=f"invalid {cls.__name__}: {message}"):
        build_config(cls, {key: value})


@pytest.mark.parametrize("cls", TRAINERS)
def test_trainer_configs_accept_their_edge_values(cls):
    cfg = build_config(_trainer(cls), {"dropout": "0.0", "n_heads": "1",
                                       "learning_rate": "1e-12", "batch_size": "1"})
    assert (cfg.dropout, cfg.n_heads, cfg.batch_size) == (0.0, 1, 1)
    assert build_config(_trainer(cls), {"dropout": "0.99"}).dropout == 0.99


def _stage(name):
    from segdt.cli import IndexConfig, SegmentConfig
    from segdt.planner import TargetPredictorConfig
    return {"predictor": TargetPredictorConfig, "index": IndexConfig,
            "segment": SegmentConfig}[name]


PREDICTOR_FIELDS = [
    ("ensemble_size", "0", "ensemble_size must be >= 1, got 0"),
    ("hidden_dim", "0", "hidden_dim must be >= 1, got 0"),
    ("n_hidden", "0", "n_hidden must be >= 1, got 0"),
    ("batch_size", "-1", "batch_size must be >= 1, got -1"),
    ("span_max", "0", "span_max must be >= 1, got 0"),
    ("learning_rate", "nan", "learning_rate must be finite and > 0, got nan"),
    ("learning_rate", "-inf", "learning_rate must be finite and > 0, got -inf"),
    ("learning_rate", "0", "learning_rate must be finite and > 0, got 0.0"),
]


@pytest.mark.parametrize("cls", ["predictor", "index"])
@pytest.mark.parametrize("key, value, message", PREDICTOR_FIELDS)
def test_predictor_configs_check_their_fields_when_built(cls, key, value, message):
    cls = _stage(cls)
    with pytest.raises(ConfigError, match=f"invalid {cls.__name__}: {message}"):
        build_config(cls, {key: value})


@pytest.mark.parametrize("cls, key, value, message", [
    ("index", "knn", "0", "knn must be >= 1, got 0"),
    ("index", "knn", "-3", "knn must be >= 1, got -3"),
    ("segment", "c", "0", "c must be >= 1, got 0"),
    ("segment", "epsilon", "nan", "epsilon must be finite, got nan"),
    ("segment", "epsilon", "inf", "epsilon must be finite, got inf"),
])
def test_index_and_segment_configs_check_their_fields_when_built(cls, key, value, message):
    cls = _stage(cls)
    with pytest.raises(ConfigError, match=f"invalid {cls.__name__}: {message}"):
        build_config(cls, {key: value})


def test_predictor_index_and_segment_configs_accept_their_edge_values():
    edges = {"ensemble_size": "1", "hidden_dim": "1", "n_hidden": "1", "batch_size": "1",
             "span_max": "1", "iters": "1", "learning_rate": "1e-12"}
    assert build_config(_stage("predictor"), edges).span_max == 1
    assert build_config(_stage("index"), dict(edges, knn="1")).knn == 1
    cfg = build_config(_stage("segment"), {"c": "1", "epsilon": "-0.5"})
    assert (cfg.c, cfg.epsilon) == (1, -0.5)
