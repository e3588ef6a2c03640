import dataclasses
import json
import re

import numpy as np
import pytest

from tempkgqa import embeddings, tgnn
from tempkgqa.cli import build_parser, resolve_config
from tempkgqa.config import ConfigError, RunConfig, TrainSchedule, load_config


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
        assert config.max_facts == 10
        assert config.oracle is False
        for stage in ("base", "tgnn", "head"):
            assert getattr(config, f"{stage}_learning_rate") == 3e-4
            assert getattr(config, f"{stage}_epochs") == 4
        assert config.tgnn_max_steps is None
        assert len(dataclasses.fields(config)) == 20

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"d": 0}, "d must be"),
            ({"max_facts": 0}, "max_facts"),
            ({"head_epochs": -1}, "epochs"),
            ({"base_learning_rate": -0.5}, "learning_rate"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"tgnn_learning_rate": float("nan")}, "tgnn_learning_rate must be >= 0 and finite"),
            ({"head_learning_rate": float("inf")}, "head_learning_rate must be >= 0 and finite"),
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
                                       "learning_rate": 3e-4, "cap_edges": 64, "layers": 1,
                                       "top_k": 1, "jobs": 1})
        names = ("['cap_edges', 'depth', 'epochs', 'jobs', 'layers', 'learning_rate', "
                 "'pooling', 'seeed', 'time_mode', 'top_k']")
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
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: d must be >= 1$"):
            load_config(path)


def spans(schedule, n, seed=0):
    """``(epoch, start, stop)`` of each batch, numbering epochs by the batches
    whose ``rows.start`` is 0."""
    epoch, out = -1, []
    for _, rows in schedule.batches(n, np.random.default_rng(seed)):
        epoch += rows.start == 0
        out.append((epoch, rows.start, rows.stop))
    return out


class TestTrainSchedule:
    def test_trainers_share_it(self):
        assert embeddings.BasePretrainConfig is tgnn.TgnnPretrainConfig is TrainSchedule

    def test_zero_epochs_yield_no_batches(self):
        rng = np.random.default_rng(0)
        assert list(TrainSchedule(0.1, 0, 3, 0).batches(7, rng)) == []
        # and draw no permutation
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_last_partial_batch_is_yielded(self):
        batches = list(TrainSchedule(0.1, 1, 3, 0).batches(7, np.random.default_rng(0)))
        assert [len(order[rows]) for order, rows in batches] == [3, 3, 1]
        assert np.array_equal(np.concatenate([order[rows] for order, rows in batches]),
                              np.random.default_rng(0).permutation(7))

    def test_one_permutation_per_epoch(self):
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        batches = list(TrainSchedule(0.1, 3, 4, 4).batches(10, rng))
        assert len(batches) == 9
        for epoch in range(3):
            expected = reference.permutation(10)
            epoch_batches = batches[3 * epoch : 3 * epoch + 3]
            assert [rows.start for _, rows in epoch_batches] == [0, 4, 8]
            for order, _ in epoch_batches:
                assert np.array_equal(order, expected)

    @pytest.mark.parametrize("max_steps, expected", [
        (0, []),
        (2, [(0, 0, 3), (0, 3, 6)]),                          # mid-epoch
        (3, [(0, 0, 3), (0, 3, 6), (0, 6, 9)]),               # at the epoch boundary
        (4, [(0, 0, 3), (0, 3, 6), (0, 6, 9), (1, 0, 3)]),
        (None, [(e, lo, lo + 3) for e in range(2) for lo in (0, 3, 6)]),
        (100, [(e, lo, lo + 3) for e in range(2) for lo in (0, 3, 6)]),
    ])
    def test_max_steps_ends_the_schedule(self, max_steps, expected):
        schedule = TrainSchedule(0.1, 2, 3, 0, max_steps)
        assert spans(schedule, 7) == expected
        per_epoch = np.bincount(np.array([e for e, _, _ in expected], dtype=int)).tolist()
        assert schedule.epoch_batches(7) == per_epoch
        assert schedule.epoch_batches(0) == []

    def test_no_permutation_drawn_past_max_steps(self):
        rng, reference = np.random.default_rng(2), np.random.default_rng(2)
        list(TrainSchedule(0.1, 5, 4, 2, max_steps=2).batches(8, rng))
        reference.permutation(8)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("kwargs", [{"epochs": -1}, {"batch_size": 0},
                                        {"max_steps": -1}])
    def test_bad_schedule_rejected(self, kwargs):
        values = {"learning_rate": 0.1, "epochs": 1, "batch_size": 2, "seed": 0, **kwargs}
        with pytest.raises(ConfigError, match="bad training schedule"):
            TrainSchedule(**values)


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
        path = write_config(tmp_path, {"seed": 7, "model": "m-config"})
        config = resolve_config(self.parse("--config", str(path)))
        assert config.seed == 7
        assert config.model == "m-config"

    def test_dump_dir_override_moves_checkpoints_too(self, tmp_path):
        config = resolve_config(self.parse("--dump-dir", str(tmp_path / "out")))
        assert config.dump_dir == str(tmp_path / "out")
        assert config.checkpoint_dir == str(tmp_path / "out" / "checkpoints")

    def test_override_still_validated(self):
        with pytest.raises(ConfigError):
            resolve_config(self.parse("--seed", "-1"))
