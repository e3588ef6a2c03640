"""Indicator vectors: compressing a retrieved subgraph into three vectors.

For a subgraph we pool the graph-encoder embeddings of all subject entities,
the base embeddings of all relations (forward rows), and the graph-encoder
embeddings of all object entities, one pooled vector each.  Every pooled
vector is then shifted by the embeddings of the subgraph's earliest and
latest time ids.  These encoder-width vectors are the only indicator data;
the answer head maps them into the language model's width with the
:class:`Projection` it trains (see :mod:`tempkgqa.head`).  Pooling is per
fact occurrence, so a fact appearing twice counts twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .retrieval import RetrievedSubgraph

POOL_MODES = ("mean", "max")


class IndicatorError(ValueError):
    pass


@dataclass
class Projection:
    """Bias-free linear map from encoder width to language model width."""

    weight: np.ndarray  # (d, d_llm)

    @property
    def dim_in(self) -> int:
        return self.weight.shape[0]

    @property
    def dim_out(self) -> int:
        return self.weight.shape[1]

    def copy(self) -> "Projection":
        return Projection(self.weight.copy())


def init_projection(d: int, d_llm: int, seed: int) -> Projection:
    if d < 1 or d_llm < 1:
        raise IndicatorError("projection needs positive dimensions")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    return Projection(rng.uniform(-scale, scale, size=(d, d_llm)))


@dataclass(frozen=True)
class IndicatorSet:
    """Pooled-and-enhanced vectors at encoder width."""

    sub_vec: np.ndarray
    rel_vec: np.ndarray
    obj_vec: np.ndarray
    t_min: int
    t_max: int


def local_pool(vectors: Sequence[np.ndarray], mode: str = "mean") -> np.ndarray:
    """Elementwise mean or max over a non-empty stack of equal-length vectors."""
    if not len(vectors):
        raise IndicatorError("cannot pool zero vectors")
    if mode not in POOL_MODES:
        raise IndicatorError(f"unknown pooling mode {mode!r}")
    stacked = np.stack(vectors)
    return stacked.mean(axis=0) if mode == "mean" else stacked.max(axis=0)


def temporal_enhance(
    pooled: np.ndarray, t_min_vec: np.ndarray, t_max_vec: np.ndarray
) -> np.ndarray:
    """Add the earliest and latest time embeddings onto a pooled vector."""
    return pooled + t_min_vec + t_max_vec


def build_indicators(
    subgraph: RetrievedSubgraph,
    node_embeddings: Mapping[int, np.ndarray],
    table: EmbeddingTable,
    mode: str = "mean",
) -> IndicatorSet:
    """Pool and enhance one retrieved subgraph.

    ``node_embeddings`` maps every entity occurring in the subgraph to its
    graph-encoder vector (see :func:`tempkgqa.tgnn.encode_entities`).
    """
    if subgraph.empty:
        raise IndicatorError(f"question {subgraph.uid!r}: empty subgraph")
    try:
        subject_vecs = [node_embeddings[f.subject] for f in subgraph.facts]
        object_vecs = [node_embeddings[f.object] for f in subgraph.facts]
    except KeyError as exc:
        raise IndicatorError(f"no node embedding for entity {exc.args[0]}") from None
    relation_vecs = [table.relation[f.relation] for f in subgraph.facts]

    endpoints = [t for f in subgraph.facts for t in (f.t_start, f.t_end)]
    t_min, t_max = min(endpoints), max(endpoints)
    t_min_vec, t_max_vec = table.time[t_min], table.time[t_max]

    enhanced = [
        temporal_enhance(local_pool(vecs, mode), t_min_vec, t_max_vec)
        for vecs in (subject_vecs, relation_vecs, object_vecs)
    ]
    return IndicatorSet(
        sub_vec=enhanced[0],
        rel_vec=enhanced[1],
        obj_vec=enhanced[2],
        t_min=t_min,
        t_max=t_max,
    )
