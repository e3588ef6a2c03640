import json
import re

import pytest

from tempkgqa.cli import build_parser, resolve_config
from tempkgqa.config import ConfigError, RunConfig, load_config


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig()
        config.validate()
        assert config.d == 512
        assert config.d_llm == 4096
        assert config.top_k == 1
        assert config.max_facts == 10
        assert config.oracle is False
        for stage in ("base", "tgnn", "head"):
            assert getattr(config, f"{stage}_learning_rate") == 3e-4
            assert getattr(config, f"{stage}_epochs") == 4
        assert config.tgnn_max_steps is None

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"d": 0}, "d must be"),
            ({"jobs": 0}, "jobs"),
            ({"head_epochs": -1}, "epochs"),
            ({"base_learning_rate": -0.5}, "learning_rate"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_validate_rejects(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            RunConfig(**kwargs).validate()

    def test_validate_lists_every_problem(self):
        with pytest.raises(ConfigError, match="d must be.*seed must be"):
            RunConfig(d=0, seed=-1).validate()

    def test_resolved_is_plain_dict(self):
        resolved = RunConfig(seed=4).resolved()
        assert resolved["seed"] == 4
        assert json.dumps(resolved)  # serializable for the config echo


class TestLoadConfig:
    def test_reads_values(self, tmp_path):
        path = write_config(tmp_path, {"seed": 9, "d": 16, "oracle": True})
        config = load_config(path)
        assert config.seed == 9
        assert config.d == 16
        assert config.oracle is True

    def test_relative_paths_anchor_at_config_dir(self, tmp_path):
        nested = tmp_path / "configs"
        nested.mkdir()
        path = write_config(nested, {"tkg_path": "../data/facts.txt",
                                     "dump_dir": "out"})
        config = load_config(path)
        assert config.tkg_path == str(nested / "../data/facts.txt")
        assert config.dump_dir == str(nested / "out")

    def test_absolute_paths_untouched(self, tmp_path):
        path = write_config(tmp_path, {"tkg_path": "/data/facts.txt"})
        assert load_config(path).tkg_path == "/data/facts.txt"

    def test_unknown_keys_rejected_by_name(self, tmp_path):
        # removed settings are unknown keys like any other
        path = write_config(tmp_path, {"seeed": 1, "depth": 2, "pooling": "mean",
                                       "time_mode": "start", "epochs": 4,
                                       "learning_rate": 3e-4})
        names = "['depth', 'epochs', 'learning_rate', 'pooling', 'seeed', 'time_mode']"
        with pytest.raises(ConfigError, match=f"unknown config keys {re.escape(names)}"):
            load_config(path)

    def test_value_types_that_are_accepted(self, tmp_path):
        path = write_config(tmp_path, {"head_learning_rate": 1, "tgnn_max_steps": None,
                                       "endpoint": None, "oracle": False})
        config = load_config(path)
        assert config.head_learning_rate == 1
        assert config.tgnn_max_steps is None and config.endpoint is None

    def test_every_problem_value_named(self, tmp_path):
        path = write_config(tmp_path, {"d": "32", "seed": "0"})
        with pytest.raises(ConfigError, match="'seed' must be int.*'d' must be int"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_invalid_values_rejected_on_load(self, tmp_path):
        path = write_config(tmp_path, {"d": 0})
        with pytest.raises(ConfigError):
            load_config(path)


class TestCliOverrides:
    def parse(self, *argv):
        return build_parser().parse_args(["build-kg", *argv])

    def test_defaults_without_config(self):
        config = resolve_config(self.parse())
        assert config == RunConfig()

    def test_flag_overrides_config_file(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1, "model": "m-old"})
        config = resolve_config(self.parse("--config", str(path),
                                           "--seed", "42", "--model", "m-new"))
        assert config.seed == 42
        assert config.model == "m-new"

    def test_oracle_flag_sets_oracle(self, tmp_path):
        path = write_config(tmp_path, {"oracle": False})
        config = resolve_config(self.parse("--config", str(path), "--oracle"))
        assert config.oracle is True

    def test_absent_flags_keep_config_values(self, tmp_path):
        path = write_config(tmp_path, {"seed": 7, "jobs": 3})
        config = resolve_config(self.parse("--config", str(path)))
        assert config.seed == 7
        assert config.jobs == 3

    def test_dump_dir_override_moves_checkpoints_too(self, tmp_path):
        config = resolve_config(self.parse("--dump-dir", str(tmp_path / "out")))
        assert config.dump_dir == str(tmp_path / "out")
        assert config.checkpoint_dir == str(tmp_path / "out" / "checkpoints")

    def test_override_still_validated(self):
        with pytest.raises(ConfigError):
            resolve_config(self.parse("--jobs", "0"))
