"""Run configuration: one flat dataclass, JSON file loading, CLI overrides,
and :class:`TrainSchedule`, the schedule of all three training stages.

Defaults: width 512, ten evidence facts, batch eight, and for each of the
three training stages (base, graph encoder, answer head) four epochs at
learning rate 3e-4.  A config file's values must have their field's JSON
type, and its paths are resolved relative to the file's directory so configs
can ship with fixtures.  Learning rates must be finite.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import TempkgqaError

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
    max_facts: int = 10
    batch_size: int = 8
    # per-stage training schedules (no step cap when tgnn_max_steps is None)
    base_learning_rate: float = 3e-4
    base_epochs: int = 4
    tgnn_learning_rate: float = 3e-4
    tgnn_epochs: int = 4
    tgnn_max_steps: int | None = None
    head_learning_rate: float = 3e-4
    head_epochs: int = 4
    # llm access
    endpoint: str | None = None
    model: str = "local"
    oracle: bool = False

    def validate(self) -> None:
        problems = []
        for name in ("d", "d_llm", "max_facts", "batch_size"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1")
        for name in ("seed", "base_epochs", "tgnn_epochs", "head_epochs", "tgnn_max_steps"):
            value = getattr(self, name)
            if value is not None and value < 0:
                problems.append(f"{name} must be >= 0")
        for f in dataclasses.fields(self):
            # json reads NaN and Infinity, and NaN fails every comparison
            if f.type == "float" and not 0 <= getattr(self, f.name) < math.inf:
                problems.append(f"{f.name} must be >= 0 and finite")
        if problems:
            raise ConfigError("; ".join(problems))

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


# JSON value types each annotation accepts; a bool is never an int or float here
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def _type_problems(raw: dict) -> list[str]:
    """One message per value of ``raw`` whose JSON type its field rejects.
    Float fields take ints, and only ``| None`` fields take null."""
    problems = []
    for f in dataclasses.fields(RunConfig):
        kind, _, optional = f.type.partition(" | ")
        value = raw.get(f.name)
        if f.name not in raw or (value is None and optional):
            continue
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
            expected = f"{kind} or null" if optional else kind
            problems.append(f"config key {f.name!r} must be {expected}, not {json.dumps(value)}")
    return problems


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config; unknown keys and values of the wrong JSON type are
    rejected, relative paths are anchored at the config file's directory."""
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
    problems = _type_problems(raw)
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))
    config = RunConfig(**raw)
    base = path.parent
    for name in _PATH_FIELDS:
        value = getattr(config, name)
        if value and not Path(value).is_absolute():
            setattr(config, name, str(base / value))
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


@dataclass(frozen=True)
class TrainSchedule:
    """Seeded mini-batch SGD schedule of base pre-training, encoder
    pre-training and head training alike: one permutation per epoch, cut
    into ``batch_size`` chunks, at most ``max_steps`` chunks in all."""

    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.batch_size < 1 or (self.max_steps or 0) < 0:
            raise ConfigError(f"bad training schedule {self}")

    def batches(self, n: int, rng: np.random.Generator) -> Iterator[tuple[np.ndarray, slice]]:
        """``(order, rows)`` per mini-batch over ``n`` examples: ``order`` is
        the epoch's ``rng.permutation(n)``, drawn when its first batch is,
        ``rows`` a slice of it, and ``rows.start == 0`` opens an epoch."""
        def every_batch():
            for _ in range(self.epochs):
                order = rng.permutation(n)
                for lo in range(0, n, self.batch_size):
                    yield order, slice(lo, lo + self.batch_size)
        return itertools.islice(every_batch(), self.max_steps)

    def epoch_batches(self, n: int) -> list[int]:
        """The number of batches of each epoch that :meth:`batches` opens
        over ``n`` examples; only the last can be short, when ``max_steps``
        ends training mid-epoch."""
        per_epoch = -(-n // self.batch_size)
        steps = self.epochs * per_epoch
        if self.max_steps is not None:
            steps = min(steps, self.max_steps)
        return [min(per_epoch, steps - lo) for lo in range(0, steps, per_epoch or 1)]
