"""Run configuration: one flat dataclass, JSON file loading, CLI overrides.

Shared hyperparameter defaults (width 512, one layer, top-1 relation, ten
evidence facts, four epochs, batch eight, learning rate 3e-4) apply to every
stage unless a per-stage override is set.  Paths in a config file are
resolved relative to the file's directory so configs can ship with fixtures.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import TempkgqaError
from .indicators import POOL_MODES
from .tgnn import TIME_MODES

_PATH_FIELDS = ("tkg_path", "questions_train", "questions_test", "dump_dir", "checkpoint_dir")


class ConfigError(TempkgqaError, ValueError):
    pass


@dataclass
class RunConfig:
    # paths
    tkg_path: str = "facts.txt"
    questions_train: str = "questions_train.jsonl"
    questions_test: str = "questions_test.jsonl"
    dump_dir: str = "dumps"
    checkpoint_dir: str = "dumps/checkpoints"
    # shared hyperparameters
    seed: int = 0
    d: int = 512
    d_llm: int = 4096
    layers: int = 1
    top_k: int = 1
    max_facts: int = 10
    learning_rate: float = 3e-4
    epochs: int = 4
    batch_size: int = 8
    pooling: str = "mean"
    time_mode: str = "start"
    cap_edges: int = 64
    # per-stage overrides (None falls back to the shared value)
    base_learning_rate: float | None = None
    base_epochs: int | None = None
    tgnn_learning_rate: float | None = None
    tgnn_epochs: int | None = None
    tgnn_max_steps: int | None = None
    head_learning_rate: float | None = None
    head_epochs: int | None = None
    # llm access
    endpoint: str | None = None
    model: str = "local"
    oracle: bool = False
    jobs: int = 1

    def validate(self) -> None:
        problems = []
        for name in ("d", "d_llm", "layers", "top_k", "max_facts", "batch_size", "jobs",
                     "cap_edges"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1")
        if self.epochs < 0:
            problems.append("epochs must be >= 0")
        if self.learning_rate < 0:
            problems.append("learning_rate must be >= 0")
        for name in ("base_epochs", "tgnn_epochs", "head_epochs", "tgnn_max_steps",
                     "base_learning_rate", "tgnn_learning_rate", "head_learning_rate"):
            value = getattr(self, name)
            if value is not None and value < 0:
                problems.append(f"{name} must be >= 0")
        if self.pooling not in POOL_MODES:
            problems.append(f"pooling must be one of {POOL_MODES}")
        if self.time_mode not in TIME_MODES:
            problems.append(f"time_mode must be one of {TIME_MODES}")
        if problems:
            raise ConfigError("; ".join(problems))

    # -- per-stage accessors --------------------------------------------

    def stage_lr(self, stage: str) -> float:
        value = getattr(self, f"{stage}_learning_rate")
        return self.learning_rate if value is None else value

    def stage_epochs(self, stage: str) -> int:
        value = getattr(self, f"{stage}_epochs")
        return self.epochs if value is None else value

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config; unknown keys are rejected, relative paths are
    anchored at the config file's directory."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror or exc})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc.msg})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be an object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    config = RunConfig(**raw)
    base = path.parent
    for name in _PATH_FIELDS:
        value = getattr(config, name)
        if value and not Path(value).is_absolute():
            setattr(config, name, str(base / value))
    config.validate()
    return config
