"""Trainable answer head over indicator vectors and question tokens.

An example pairs one encoder-width indicator vector, the mix of an
:class:`~tempkgqa.indicators.IndicatorSet`, with its question text.  The
score of an answer candidate is a softmax over ``feature @ scoring.T`` where
the feature is the weighted mean of four language-model-width vectors: the
three indicators mapped by the indicator projection, and the mean embedding
of the question's tokens, each weighted 1/4 by :data:`MIX`.  The projection
is linear, so the indicators are mixed first, in :mod:`tempkgqa.indicators`,
and the mix is projected once, in :func:`_forward`.  The answer space is
the entity vocabulary followed by the time vocabulary, so one scoring
matrix covers both answer types; it holds one ``d_llm`` row per answer.
The run's world fixes both spaces (the :func:`token_vocab` of the training
questions, the world's labels), so a saved head holds neither.

Training minimises cross-entropy against the gold answers (mean over golds
for multi-answer questions) and updates the token embeddings, the scoring
matrix, and the indicator projection jointly, in the mini-batches of a
:class:`~tempkgqa.config.TrainSchedule`.

Training is batched.  :func:`train` compiles the dataset into arrays once:
the mixed encoder-width indicators as one ``(N, d)`` matrix, and the
question tokens and gold answers as padded id arrays whose averaging
weights are zero on the padding.  The token weights are scaled by
``MIX[3]`` there, so the token bag is already mix-weighted and neither the
forward pass nor the token gradient multiplies by it.  Each step scatters
its rows' ids into a dense ``(B, n_tokens)`` token bag and a
``(B, n_answers)`` target, so the forward pass, the loss and all three
gradients are a few matrix products per batch, and the gradients land in
one set of arrays that every step reuses.  The SGD step (learning rate
over batch size) is folded into ``d_logits`` through the ``scale`` of
:func:`loss_and_grads`, so the gradients come out scaled and each update is
one subtraction.  Scaling by a power of two is exact, so with such a step
(the desk run's 1/8, and 1/4 for its last batch) training keeps the bits
of scaling the gradients afterwards; any other step may differ in the last
ulp.  Compiled memory grows with tokens per question; only the per-batch
bag and target span the vocabulary and the answer space.

:func:`train` runs in float32 (:data:`~tempkgqa.embeddings.TRAIN_DTYPE`),
the precision checkpoints store, on copies of its parameters, its
projection and the compiled rows; the power-of-two note above holds there
too.  :func:`loss_and_grads`, :func:`score` and :func:`predict_topk` compute
in the dtype of the parameters they are given: ``predict`` ranks in the
float32 a checkpoint loads as, and the gradchecks run in float64.  Every
product of a step reads its operands along their rows: the
logits are ``feature @ scoring.T``, and ``d_logits @ scoring`` and
``d_logits.T @ feature`` give the feature and scoring gradients.  At desk
shapes (8 rows, 96 answers, ``d_llm`` 256; a 2-vCPU Xeon VM, one BLAS
thread) the feature gradient took 16.3 us on the transposed operand of a
``(d_llm, n_answers)`` scoring matrix, 6.2 us on rows in float64 and 4.9 us
on rows in float32.

:func:`predict_topk` scores ``d_llm`` examples at a time, each block's
probabilities in the memory of its log-probabilities (:func:`score`), and
ranks by a partial selection: a partition finds each row's ``k``-th largest
probability, and only the answers at least that likely, ties included, are
sorted, so the ranking equals a stable full sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import TrainSchedule
from .embeddings import TRAIN_DTYPE
from .errors import TempkgqaError
from .indicators import MIX, IndicatorSet, Projection
from .prompts import tokenize

UNKNOWN_TOKEN = "<unk>"
ALIGNMENT = 64  # bytes; where the training matrices start (see _aligned)

#: One example: its indicator vector, or the set it mixes, and the question text.
Example = tuple[np.ndarray | IndicatorSet, str]


class HeadError(TempkgqaError, ValueError):
    pass


@dataclass
class HeadParams:
    token_vocab: dict[str, int]      # token -> row, UNKNOWN_TOKEN at row 0
    token_emb: np.ndarray            # (n_tokens, d_llm)
    scoring: np.ndarray              # (n_answers, d_llm): one row per answer
    answer_labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.token_emb.shape[1]

    def copy(self) -> "HeadParams":
        return self.astype(self.token_emb.dtype)

    def astype(self, dtype) -> "HeadParams":
        """A copy with both matrices in ``dtype``, each :func:`_aligned`."""
        return HeadParams(
            dict(self.token_vocab),
            _aligned(self.token_emb, dtype),
            _aligned(self.scoring, dtype),
            self.answer_labels,
        )


def _aligned(array: np.ndarray, dtype=None) -> np.ndarray:
    """A copy of ``array`` in ``dtype`` (its own by default) and in its memory
    order, as ``astype`` makes, whose data starts on a :data:`ALIGNMENT`-byte
    boundary.  A desk head step takes ~10 % longer when a parameter or
    gradient matrix starts 16, 32 or 48 bytes off one, so without this its
    time would follow what the process allocated before."""
    dtype = np.dtype(array.dtype if dtype is None else dtype)
    nbytes = array.size * dtype.itemsize
    buffer = np.empty(nbytes + ALIGNMENT, np.uint8)
    start = -buffer.ctypes.data % ALIGNMENT
    copy = buffer[start : start + nbytes].view(dtype).reshape(
        array.shape, order="F" if np.isfortran(array) else "C")
    copy[...] = array
    return copy


def token_vocab(texts: Iterable[str]) -> dict[str, int]:
    """Each token of ``texts`` and its row, in first-appearance order, the
    unknown token first."""
    vocab: dict[str, int] = {UNKNOWN_TOKEN: 0}
    for text in texts:
        for token in tokenize(text):
            vocab.setdefault(token, len(vocab))
    return vocab


def init_head(
    texts: Iterable[str], answer_labels: Sequence[str], d_llm: int, seed: int
) -> HeadParams:
    """Build the :func:`token_vocab` of ``texts`` and draw the trainable
    matrices.  ``scoring`` is drawn as ``(d_llm, n_answers)`` and stored as
    its transposed rows, the values the desk reference was trained from."""
    if d_llm < 1:
        raise HeadError("d_llm must be >= 1")
    if not answer_labels:
        raise HeadError("need at least one answer label")
    vocab = token_vocab(texts)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d_llm)
    return HeadParams(
        token_vocab=vocab,
        token_emb=rng.uniform(-scale, scale, size=(len(vocab), d_llm)),
        scoring=rng.uniform(-scale, scale, size=(d_llm, len(answer_labels))).T.copy(),
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
    """Dense ``(B, width)`` rows of summed weights, in the weights' dtype; a
    repeated id adds up."""
    flat = (np.arange(len(ids))[:, None] * width + ids).ravel()
    dense = np.bincount(flat, weights.ravel(), minlength=len(ids) * width)
    # bincount sums in float64; a float64 bag would widen the token product
    return dense.reshape(len(ids), width).astype(weights.dtype, copy=False)


def _features(
    examples: Sequence[Example], params: HeadParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature rows of ``examples``: the encoder-width indicator vectors
    ``(N, d)``, and the padded question token ids with their averaging
    weights times ``MIX[3]``, both in ``params``' dtype."""
    indicators = [np.asarray(indicator) for indicator, _ in examples]
    if len({vector.shape for vector in indicators}) != 1:
        raise HeadError("indicator vectors differ in width")
    vocab = params.token_vocab
    token_ids, token_weights = _pad([
        [vocab.get(t, 0) for t in tokenize(question) or [UNKNOWN_TOKEN]]
        for _, question in examples
    ])
    dtype = params.token_emb.dtype
    return (np.array(indicators, dtype=dtype), token_ids,
            (MIX[3] * token_weights).astype(dtype, copy=False))


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
    feature = indicators @ projection.weight
    feature += bag @ params.token_emb
    # log-softmax in place in the logits
    log_probs = feature @ params.scoring.T
    log_probs -= log_probs.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    return bag, feature, log_probs


def score(
    examples: Sequence[Example], params: HeadParams, projection: Projection
) -> np.ndarray:
    """Answer distributions, one row per example; strictly positive, each
    row sums to one.  They are exponentiated in the memory of the
    log-probabilities, so a block of examples holds one answer-wide array."""
    if not examples:
        raise HeadError("no examples to score")
    log_probs = _forward(params, projection, *_features(examples, params))[2]
    return np.exp(log_probs, out=log_probs)


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
        ranked.extend([params.answer_labels[i] for i in row] for row in _top_ids(probs, k))
    return ranked


def _top_ids(probs: np.ndarray, k: int) -> np.ndarray:
    """Column ids of each row's ``k`` largest entries by descending value,
    ties by ascending id: the first ``k`` of a stable argsort of ``-probs``.
    A partition finds each row's ``k``-th largest value; only the entries at
    least that large, ties included, are sorted."""
    n_rows, width = probs.shape
    if k >= width:
        return np.argsort(-probs, axis=1, kind="stable")
    kth = np.partition(probs, width - k, axis=1)[:, width - k, None]
    rows, cols = np.nonzero(probs >= kth)
    # nonzero lists each row's ids in ascending order, and lexsort is stable
    order = np.lexsort((-probs[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(n_rows))
    return cols[order][starts[:, None] + np.arange(k)]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

TrainExample = tuple[Example, Sequence[int]]


@dataclass(frozen=True)
class CompiledBatch:
    """Training examples as arrays, one row each (see the module docstring)."""

    indicators: np.ndarray     # (N, d) encoder-width indicator vectors
    token_ids: np.ndarray      # (N, max tokens), padded with row 0
    token_weights: np.ndarray  # (N, max tokens), MIX[3] / tokens, zero on the padding
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
    n_answers = len(params.scoring)
    for _, golds in examples:
        if not golds:
            raise HeadError("training example without gold answers")
        if max(golds) >= n_answers or min(golds) < 0:
            raise HeadError("gold answer index outside the answer space")
    gold_ids, gold_weights = _pad([golds for _, golds in examples])
    return CompiledBatch(*_features([example for example, _ in examples], params),
                         gold_ids, gold_weights.astype(params.token_emb.dtype))


@dataclass
class HeadGradients:
    token_emb: np.ndarray
    scoring: np.ndarray
    projection: np.ndarray

    @classmethod
    def empty(cls, params: HeadParams, projection: Projection) -> "HeadGradients":
        """:func:`_aligned` copies of the parameters, for a step to overwrite."""
        return cls(_aligned(params.token_emb), _aligned(params.scoring),
                   _aligned(projection.weight))


def loss_and_grads(
    batch: Sequence[TrainExample] | CompiledBatch, params: HeadParams, projection: Projection,
    out: HeadGradients | None = None, scale: float = 1.0,
) -> tuple[float, HeadGradients]:
    """Summed multi-gold cross-entropy over ``batch`` with gradients for the
    token embeddings, the scoring matrix, and the projection, each times
    ``scale``.  A batch of examples is compiled first; :func:`train` passes
    rows it compiled once, with its SGD step as ``scale``.  The gradients are
    written into ``out`` when it is given: :func:`train` reuses one set, so
    no step allocates arrays the size of the parameters."""
    if not isinstance(batch, CompiledBatch):
        batch = compile_examples(batch, params)
    bag, feature, log_probs = _forward(params, projection, batch.indicators,
                                       batch.token_ids, batch.token_weights)
    n_rows, n_answers = log_probs.shape
    gold = (np.arange(n_rows)[:, None] * n_answers + batch.gold_ids).ravel()
    gold_weights = batch.gold_weights.ravel()
    loss = -float((log_probs.take(gold) * gold_weights).sum())
    target = np.bincount(gold, gold_weights, minlength=log_probs.size)
    # the softmax minus the target, in the log-probabilities' memory and dtype
    d_logits = np.exp(log_probs, out=log_probs)
    d_logits -= target.reshape(n_rows, n_answers).astype(d_logits.dtype, copy=False)
    d_logits *= scale
    d_feature = d_logits @ params.scoring
    if out is None:
        out = HeadGradients.empty(params, projection)
    np.matmul(bag.T, d_feature, out=out.token_emb)
    np.matmul(d_logits.T, feature, out=out.scoring)
    np.matmul(batch.indicators.T, d_feature, out=out.projection)
    return loss, out


def train(
    dataset: Sequence[TrainExample],
    params: HeadParams,
    projection: Projection,
    schedule: TrainSchedule,
) -> tuple[HeadParams, Projection, list[float]]:
    """Mini-batch SGD in the batches of ``schedule``; returns trained
    :data:`~tempkgqa.embeddings.TRAIN_DTYPE` copies and the per-epoch summed
    loss.  Each epoch gathers its shuffled rows once and slices its batches
    from them."""
    params = params.astype(TRAIN_DTYPE)
    projection = Projection(_aligned(projection.weight, TRAIN_DTYPE))
    compiled = compile_examples(dataset, params)
    grads = HeadGradients.empty(params, projection)
    rng = np.random.default_rng(schedule.seed)
    losses: list[float] = []
    for order, rows in schedule.batches(len(compiled), rng):
        if rows.start == 0:
            shuffled = compiled.take(order)
            losses.append(0.0)
        batch = shuffled.take(rows)
        loss, _ = loss_and_grads(batch, params, projection, grads,
                                 schedule.learning_rate / len(batch))
        losses[-1] += loss
        params.token_emb -= grads.token_emb
        params.scoring -= grads.scoring
        projection.weight -= grads.projection
    return params, projection, losses
