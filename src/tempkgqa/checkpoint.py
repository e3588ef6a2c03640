"""Binary checkpoints for embedding tables, encoder parameters, and the head.

Every file has one framing: a 4-byte magic, a little-endian ``u32`` format
version, the kind's header fields (``u32`` widths, ``u64`` row counts), then
the kind's matrices one after another as row-major little-endian ``float32``.
Matrices are widened back to ``float64`` on load; :func:`encode_matrix` and
:func:`decode_matrix` hold that rule for every stored vector, the indicator
dumps' too.  Header fields and matrices, by kind:

- ``TKGE``  d, n_entities, n_relation_rows, n_times; the entity / relation /
  time matrices.
- ``TGNN``  d, n_entities; w_msg, w_query, w_key (all d x d), decoder_w
  (d x n_entities), decoder_b (n_entities).
- ``HEAD``  d_llm, d_in, n_tokens, n_answers; token_emb (n_tokens x d_llm),
  scoring (d_llm x n_answers on disk; held in memory as its transpose, one
  row per answer), projection (d_in x d_llm).  Token and answer labels
  travel in a JSON sidecar next to it, read by ``store.decode_record``.

Version 2 dropped the head's fixed mixing weights and version 3 the
encoder's layer count (the encoder is one layer); files of an earlier version
are rejected.  A load error, a stored NaN or infinity included, names the
file it was reading.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import TempkgqaError
from .head import HeadParams
from .indicators import Projection
from .store import decode_record
from .tgnn import TgnnParams

FORMAT_VERSION = 3
MAGIC_TABLE = b"TKGE"
MAGIC_TGNN = b"TGNN"
MAGIC_HEAD = b"HEAD"
# struct layouts of the headers after the magic: the version, then the fields
_TABLE_LAYOUT = "<IIQQQ"
_TGNN_LAYOUT = "<IIQ"
_HEAD_LAYOUT = "<IIIQQ"


class CheckpointError(TempkgqaError, ValueError):
    pass


def encode_matrix(array: np.ndarray) -> bytes:
    """``array`` as stored: row-major little-endian ``float32`` bytes."""
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


def decode_matrix(raw: bytes) -> np.ndarray:
    """The flat ``float64`` values of stored bytes; a length that is not a
    whole number of ``float32`` values, or a NaN or infinite value, raises
    ``ValueError``."""
    values = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(values).all():
        raise ValueError("non-finite value (NaN or infinity)")
    return values.astype(np.float64)


def _save(path: str | Path, magic: bytes, layout: str, header: Iterable[int],
          arrays: Iterable[np.ndarray]) -> None:
    """Write ``magic``, the version and ``header`` packed by ``layout``, then
    each of ``arrays`` in turn; no buffer of the whole file is built."""
    with open(path, "wb") as handle:
        handle.write(magic + struct.pack(layout, FORMAT_VERSION, *header))
        for array in arrays:
            handle.write(encode_matrix(array))


def _load(path: str | Path, magic: bytes, layout: str,
          shapes: Callable[..., Sequence[tuple[int, ...]]]) -> list[np.ndarray]:
    """The matrices of a file :func:`_save` wrote, shaped by ``shapes`` called
    with the header fields.  Each is read on its own, and one larger than the
    bytes left in the file is rejected before it is read."""
    try:
        with open(path, "rb") as handle:
            observed = handle.read(4)
            if observed != magic:
                raise CheckpointError(f"bad magic {observed!r}, expected {magic!r}")
            size = struct.calcsize(layout)
            raw = handle.read(size)
            if len(raw) != size:
                raise CheckpointError("truncated checkpoint header")
            version, *fields = struct.unpack(layout, raw)
            if version != FORMAT_VERSION:
                raise CheckpointError(f"unsupported format version {version}")
            left = os.fstat(handle.fileno()).st_size - handle.tell()
            arrays = []
            for shape in shapes(*fields):
                size = 4 * math.prod(shape)
                if size > left:
                    raise CheckpointError("truncated checkpoint")
                left -= size
                values = decode_matrix(handle.read(size))
                try:
                    arrays.append(values.reshape(shape))
                except ValueError:  # an empty matrix with a row count numpy cannot index
                    raise CheckpointError(f"matrix shape {shape} out of range") from None
            return arrays
    except ValueError as exc:  # CheckpointError is a ValueError
        raise CheckpointError(f"{path}: {exc}") from None


def save_table(path: str | Path, table: EmbeddingTable) -> None:
    _save(path, MAGIC_TABLE, _TABLE_LAYOUT,
          (table.dim, len(table.entity), len(table.relation), len(table.time)),
          (table.entity, table.relation, table.time))


def load_table(path: str | Path) -> EmbeddingTable:
    return EmbeddingTable(*_load(
        path, MAGIC_TABLE, _TABLE_LAYOUT,
        lambda d, n_entities, n_relation_rows, n_times: (
            (n_entities, d), (n_relation_rows, d), (n_times, d)),
    ))


def save_tgnn(path: str | Path, params: TgnnParams) -> None:
    _save(path, MAGIC_TGNN, _TGNN_LAYOUT, (params.dim, len(params.decoder_b)),
          (params.w_msg, params.w_query, params.w_key, params.decoder_w, params.decoder_b))


def load_tgnn(path: str | Path) -> TgnnParams:
    return TgnnParams(*_load(
        path, MAGIC_TGNN, _TGNN_LAYOUT,
        lambda d, n_entities: ((d, d), (d, d), (d, d), (d, n_entities), (n_entities,)),
    ))


def _sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def save_head(path: str | Path, params: HeadParams, projection: Projection) -> None:
    if projection.dim_out != params.dim:
        raise CheckpointError("projection output width does not match head width")
    _save(path, MAGIC_HEAD, _HEAD_LAYOUT,
          (params.dim, projection.dim_in, len(params.token_emb), len(params.scoring)),
          (params.token_emb, params.scoring.T, projection.weight))
    tokens = [""] * len(params.token_vocab)
    for token, row in params.token_vocab.items():
        tokens[row] = token
    _sidecar_path(path).write_text(
        json.dumps(
            {"tokens": tokens, "answer_labels": list(params.answer_labels)},
            ensure_ascii=False,
        )
        + "\n",
        encoding="utf-8",
    )


def load_head(path: str | Path) -> tuple[HeadParams, Projection]:
    token_emb, scoring, weight = _load(
        path, MAGIC_HEAD, _HEAD_LAYOUT,
        lambda d_llm, d_in, n_tokens, n_answers: (
            (n_tokens, d_llm), (d_llm, n_answers), (d_in, d_llm)),
    )
    sidecar = _sidecar_path(path)
    try:
        record = decode_record(sidecar.read_bytes(), ("tokens", "answer_labels"))
        for key in ("tokens", "answer_labels"):
            if not (isinstance(record[key], list)
                    and all(isinstance(item, str) for item in record[key])):
                raise CheckpointError(f"{key!r} is not a list of strings")
    except ValueError as exc:  # StoreError and CheckpointError are ValueErrors
        raise CheckpointError(f"{sidecar}: {exc}") from None
    tokens, answer_labels = record["tokens"], tuple(record["answer_labels"])
    if len(tokens) != len(token_emb) or len(answer_labels) != scoring.shape[1]:
        raise CheckpointError(f"{sidecar}: sidecar does not match the shapes in {path}")
    params = HeadParams(
        token_vocab={token: row for row, token in enumerate(tokens)},
        token_emb=token_emb,
        scoring=np.ascontiguousarray(scoring.T),
        answer_labels=answer_labels,
    )
    return params, Projection(weight)
