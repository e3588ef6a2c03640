"""Trainable answer head over indicator vectors and question tokens.

An example pairs an :class:`~tempkgqa.indicators.IndicatorSet` with its
question text.  The score of an answer candidate is a softmax over
``feature @ scoring`` where the feature is the weighted mean of four
language-model-width vectors: the three indicators mapped by the indicator
projection, and the mean embedding of the question's tokens.  The mixing
weights are the fixed constant :data:`MIX`, 1/4 each, so the feature is the
plain mean.  The projection is linear, so the three encoder-width
indicators are mixed first and projected once, in :func:`_forward`.  The
answer space is the entity vocabulary followed by the time vocabulary, so
one scoring matrix covers both answer types.

Training minimises cross-entropy against the gold answers (mean over golds
for multi-answer questions) and updates the token embeddings, the scoring
matrix, and the indicator projection jointly.

Training is batched.  :func:`train` compiles the dataset into arrays once:
the mix-weighted encoder-width indicators as one ``(N, d)`` matrix, and the
question tokens and gold answers as padded id arrays whose averaging
weights are zero on the padding.  Each step scatters its rows' ids into a
dense ``(B, n_tokens)`` token bag and a ``(B, n_answers)`` target, so the
forward pass, the loss and all three gradients are a few matrix products
per batch, and the gradients land in one set of arrays that every step
reuses.  Compiled memory grows with tokens per question; only the
per-batch bag and target span the vocabulary and the answer space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .indicators import IndicatorSet, Projection
from .prompts import tokenize

UNKNOWN_TOKEN = "<unk>"

#: Fixed weights of the subject, relation and object indicators and of the
#: question tokens in the feature: the plain mean.
MIX = np.full(4, 0.25)

#: One example: the indicators of its evidence and the question text.
Example = tuple[IndicatorSet, str]


class HeadError(ValueError):
    pass


@dataclass
class HeadParams:
    token_vocab: dict[str, int]      # token -> row, UNKNOWN_TOKEN at row 0
    token_emb: np.ndarray            # (n_tokens, d_llm)
    scoring: np.ndarray              # (d_llm, n_answers)
    answer_labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.token_emb.shape[1]

    def copy(self) -> "HeadParams":
        return HeadParams(
            dict(self.token_vocab),
            self.token_emb.copy(),
            self.scoring.copy(),
            self.answer_labels,
        )


def init_head(
    texts: Iterable[str], answer_labels: Sequence[str], d_llm: int, seed: int
) -> HeadParams:
    """Build the token vocabulary from ``texts`` (first-appearance order,
    unknown token first) and draw the trainable matrices."""
    if d_llm < 1:
        raise HeadError("d_llm must be >= 1")
    if not answer_labels:
        raise HeadError("need at least one answer label")
    vocab: dict[str, int] = {UNKNOWN_TOKEN: 0}
    for text in texts:
        for token in tokenize(text):
            vocab.setdefault(token, len(vocab))
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d_llm)
    return HeadParams(
        token_vocab=vocab,
        token_emb=rng.uniform(-scale, scale, size=(len(vocab), d_llm)),
        scoring=rng.uniform(-scale, scale, size=(d_llm, len(answer_labels))),
        answer_labels=tuple(answer_labels),
    )


# ---------------------------------------------------------------------------
# the batched forward pass
# ---------------------------------------------------------------------------

def _pad(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id lists into an ``(N, width)`` id array and its averaging
    weights: ``1/len`` on each entry of a row, zero on the padding."""
    width = max(map(len, rows))
    ids = np.zeros((len(rows), width), dtype=np.intp)
    weights = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        weights[i, : len(row)] = 1.0 / len(row)
    return ids, weights


def _scatter(ids: np.ndarray, weights: np.ndarray, width: int) -> np.ndarray:
    """Dense ``(B, width)`` rows of summed weights; a repeated id adds up."""
    flat = (np.arange(len(ids))[:, None] * width + ids).ravel()
    dense = np.bincount(flat, weights.ravel(), minlength=len(ids) * width)
    return dense.reshape(len(ids), width)


def _features(
    examples: Sequence[Example], params: HeadParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature rows of ``examples``: the mix-weighted encoder-width
    indicators ``(N, d)``, and the padded question token ids with their
    averaging weights."""
    blocks = [(ind.sub_vec, ind.rel_vec, ind.obj_vec) for ind, _ in examples]
    if len({vector.shape for block in blocks for vector in block}) != 1:
        raise HeadError("indicator vectors differ in width")
    vocab = params.token_vocab
    token_ids, token_weights = _pad([
        [vocab.get(t, 0) for t in tokenize(question) or [UNKNOWN_TOKEN]]
        for _, question in examples
    ])
    return MIX[:3] @ np.array(blocks), token_ids, token_weights


def _forward(
    params: HeadParams, projection: Projection, indicators: np.ndarray,
    token_ids: np.ndarray, token_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token bag, feature and log-probabilities of a block of feature rows
    (see :func:`_features`); the mixed indicators are projected here."""
    if indicators.shape[1] != projection.dim_in or projection.dim_out != params.dim:
        raise HeadError(
            f"projection {projection.weight.shape} does not map encoder width "
            f"{indicators.shape[1]} to head width {params.dim}"
        )
    bag = _scatter(token_ids, token_weights, params.token_emb.shape[0])
    feature = indicators @ projection.weight + MIX[3] * (bag @ params.token_emb)
    logits = feature @ params.scoring
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return bag, feature, log_probs


def score(
    examples: Sequence[Example], params: HeadParams, projection: Projection
) -> np.ndarray:
    """Answer distributions, one row per example; strictly positive, each
    row sums to one."""
    if not examples:
        raise HeadError("no examples to score")
    return np.exp(_forward(params, projection, *_features(examples, params))[2])


def predict_topk(
    examples: Sequence[Example], params: HeadParams, projection: Projection, k: int
) -> list[list[str]]:
    """Top-``k`` answer labels per example by descending probability, ties
    broken by ascending answer id.  Scores ``d_llm`` examples at a time, so
    no probability block outgrows the scoring matrix."""
    if k < 1:
        raise HeadError("k must be >= 1")
    ranked: list[list[str]] = []
    for lo in range(0, len(examples), params.dim):
        probs = score(examples[lo : lo + params.dim], params, projection)
        order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
        ranked.extend([params.answer_labels[i] for i in row] for row in order)
    return ranked


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadTrainConfig:
    learning_rate: float = 3e-4
    epochs: int = 4
    batch_size: int = 8
    seed: int = 0


TrainExample = tuple[Example, Sequence[int]]


@dataclass(frozen=True)
class CompiledBatch:
    """Training examples as arrays, one row each (see the module docstring)."""

    indicators: np.ndarray     # (N, d) mix-weighted encoder-width indicators
    token_ids: np.ndarray      # (N, max tokens), padded with row 0
    token_weights: np.ndarray  # (N, max tokens), zero on the padding
    gold_ids: np.ndarray       # (N, max golds), padded with answer 0
    gold_weights: np.ndarray   # (N, max golds), zero on the padding

    def __len__(self) -> int:
        return len(self.indicators)

    def take(self, rows: np.ndarray | slice) -> "CompiledBatch":
        return CompiledBatch(self.indicators[rows], self.token_ids[rows],
                             self.token_weights[rows], self.gold_ids[rows],
                             self.gold_weights[rows])


def compile_examples(examples: Sequence[TrainExample], params: HeadParams) -> CompiledBatch:
    """Validate training examples and turn them into a :class:`CompiledBatch`."""
    if not examples:
        raise HeadError("no training examples")
    n_answers = params.scoring.shape[1]
    for _, golds in examples:
        if not golds:
            raise HeadError("training example without gold answers")
        if max(golds) >= n_answers or min(golds) < 0:
            raise HeadError("gold answer index outside the answer space")
    gold_ids, gold_weights = _pad([golds for _, golds in examples])
    return CompiledBatch(*_features([example for example, _ in examples], params),
                         gold_ids, gold_weights)


@dataclass
class HeadGradients:
    token_emb: np.ndarray
    scoring: np.ndarray
    projection: np.ndarray

    @classmethod
    def empty(cls, params: HeadParams, projection: Projection) -> "HeadGradients":
        return cls(np.empty_like(params.token_emb), np.empty_like(params.scoring),
                   np.empty_like(projection.weight))


def loss_and_grads(
    batch: Sequence[TrainExample] | CompiledBatch, params: HeadParams, projection: Projection,
    out: HeadGradients | None = None,
) -> tuple[float, HeadGradients]:
    """Summed multi-gold cross-entropy over ``batch`` with gradients for the
    token embeddings, the scoring matrix, and the projection.  A batch of
    examples is compiled first; :func:`train` passes rows it compiled once.
    The gradients are written into ``out`` when it is given: :func:`train`
    reuses one set, so no step allocates arrays the size of the parameters."""
    if not isinstance(batch, CompiledBatch):
        batch = compile_examples(batch, params)
    bag, feature, log_probs = _forward(params, projection, batch.indicators,
                                       batch.token_ids, batch.token_weights)
    rows = np.arange(len(batch))[:, None]
    loss = -float((log_probs[rows, batch.gold_ids] * batch.gold_weights).sum())
    target = _scatter(batch.gold_ids, batch.gold_weights, log_probs.shape[1])
    d_logits = np.exp(log_probs) - target
    d_feature = d_logits @ params.scoring.T
    if out is None:
        out = HeadGradients.empty(params, projection)
    np.matmul(bag.T, MIX[3] * d_feature, out=out.token_emb)
    np.matmul(feature.T, d_logits, out=out.scoring)
    np.matmul(batch.indicators.T, d_feature, out=out.projection)
    return loss, out


def train(
    dataset: Sequence[TrainExample],
    params: HeadParams,
    projection: Projection,
    config: HeadTrainConfig,
) -> tuple[HeadParams, Projection, list[float]]:
    """Seeded mini-batch SGD; returns trained copies and per-epoch summed loss."""
    if config.batch_size < 1 or config.epochs < 0:
        raise HeadError("bad training config")
    params = params.copy()
    projection = projection.copy()
    compiled = compile_examples(dataset, params)
    grads = HeadGradients.empty(params, projection)
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for _ in range(config.epochs):
        shuffled = compiled.take(rng.permutation(len(compiled)))
        total = 0.0
        for lo in range(0, len(shuffled), config.batch_size):
            batch = shuffled.take(slice(lo, lo + config.batch_size))
            loss, _ = loss_and_grads(batch, params, projection, grads)
            total += loss
            step = config.learning_rate / len(batch)
            # scale the gradients in place: no temporaries per step
            for param, grad in ((params.token_emb, grads.token_emb),
                                (params.scoring, grads.scoring),
                                (projection.weight, grads.projection)):
                grad *= step
                param -= grad
        losses.append(total)
    return params, projection, losses
