"""Spans around the public functions of the ``tempkgqa`` layers.

Nothing inside ``src/`` is changed: :class:`Tracer` swaps each target
function for a timing wrapper in every ``tempkgqa`` module that holds it
(callers resolve these names at call time, whether through ``module.func``
or a ``from .module import func`` binding) and restores the originals on
:meth:`Tracer.uninstall`.  Spans ``(id, name, start, end, parent, phase,
ok)`` are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

from tempkgqa import cli

#: Traced functions by module; each span is named ``<module>.<function>``.
LAYER_FUNCTIONS = {
    "store": ("load_tkg", "load_questions", "facts_filtered"),
    "retrieval": ("retrieve_question", "candidate_relations", "lexical_rank",
                  "anchor_facts", "rule_time", "retrieve_subgraph"),
    "embeddings": ("pretrain_base", "base_loss_and_grads"),
    "tgnn": ("pretrain", "build_query_subgraph", "gradients", "encode_entities"),
    "indicators": ("build_indicators",),
    "prompts": ("render_instruction",),
    "head": ("train", "loss_and_grads", "predict_topk"),
    "checkpoint": ("save_table", "load_table", "save_tgnn", "load_tgnn"),
    "evaluation": ("build_report",),
}

#: Called as ``observer(phase, args, result)`` after each successful call.
Observer = Callable[[str, tuple, object], None]


class Tracer:
    """Records one span per call of each wrapped function.

    ``stages_only`` wraps just the CLI stage table: the nine stage clocks an
    untraced desk run needs for its train-head throughput.
    """

    def __init__(self, stages_only: bool = False) -> None:
        self.stages_only = stages_only
        # (id, name, start, end, parent id or -1, phase, ok); tuples of
        # atoms, so the garbage collector stops scanning them.
        self.spans: list[tuple] = []
        self.phase = "workload"
        self.observers: dict[str, Observer] = {}
        self.untraced: float | None = None  # one round's time with nothing installed
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.phase, ok))
                observer = self.observers.get(name)
                if ok and observer is not None:
                    observer(self.phase, args, result)

        return traced

    def install(self) -> None:
        for stage, fn in list(cli.STAGES.items()):
            self._restore.append((cli.STAGES, stage, fn))
            cli.STAGES[stage] = self._wrap(f"cli.{stage}", fn)
        if self.stages_only:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tempkgqa" or n.startswith("tempkgqa.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"tempkgqa.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._restore.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # -- reading spans ---------------------------------------------------

    def by_name(self, phase: str) -> dict[str, tuple[list[float], list[float]]]:
        """Span name -> (durations, self times) of the spans of ``phase``.  A
        self time is the duration minus the time the span's children cover
        (children of one span never overlap: calls are single-threaded)."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
        grouped: dict[str, tuple[list[float], list[float]]] = {}
        for span_id, name, start, end, _, span_phase, _ in self.spans:
            if span_phase == phase:
                durations, self_times = grouped.setdefault(name, ([], []))
                durations.append(end - start)
                self_times.append(end - start - child_time.get(span_id, 0.0))
        return grouped

    def durations(self, name: str, phase: str = "workload") -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name and s[5] == phase]

    def failed(self, name: str, phase: str = "workload") -> int:
        return sum(1 for s in self.spans if s[1] == name and s[5] == phase and not s[6])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, phase, ok in sorted(self.spans):
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "phase": phase,
                                         "ok": ok}) + "\n")


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]
