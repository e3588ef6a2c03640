"""Binary checkpoints for embedding tables, encoder parameters, and the head.

All files share the same framing: a 4-byte magic, a little-endian ``u32``
format version, ``u32`` width fields, ``u64`` row counts, then the matrices
as row-major ``float32``.  Layouts:

- ``TKGE``  version, d, n_entities, n_relation_rows, n_times, then the
  entity / relation / time matrices.
- ``TGNN``  version, d, n_entities, then w_msg, w_query, w_key (all
  d x d), decoder_w (d x n_entities), decoder_b (n_entities).
- ``HEAD``  version, d_llm, d_in, n_tokens, n_answers, then token_emb
  (n_tokens x d_llm), scoring (d_llm x n_answers), projection
  (d_in x d_llm).  Token and answer labels travel in a JSON sidecar written
  next to the binary file.

Matrices are stored as ``float32`` and widened back to ``float64`` on load.
Version 2 dropped the head's fixed mixing weights and version 3 the
encoder's layer count (the encoder is one layer); files of an earlier version
are rejected.  A load error names the file it was reading.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable
from .errors import TempkgqaError
from .head import HeadParams
from .indicators import Projection
from .tgnn import TgnnParams

FORMAT_VERSION = 3
MAGIC_TABLE = b"TKGE"
MAGIC_TGNN = b"TGNN"
MAGIC_HEAD = b"HEAD"


class CheckpointError(TempkgqaError, ValueError):
    pass


def _write_array(handle, array: np.ndarray) -> None:
    handle.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def _read_array(handle, shape: tuple[int, ...]) -> np.ndarray:
    """The next ``shape`` matrix; a size beyond the bytes left in the file
    is rejected before anything is read."""
    size = 4 * math.prod(shape)
    if size > os.fstat(handle.fileno()).st_size - handle.tell():
        raise CheckpointError("truncated checkpoint")
    raw = handle.read(size)
    try:
        return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
    except ValueError:  # an empty matrix with a row count numpy cannot index
        raise CheckpointError(f"matrix shape {shape} out of range") from None


def _read_header(handle, magic: bytes, layout: str) -> tuple[int, ...]:
    observed = handle.read(4)
    if observed != magic:
        raise CheckpointError(f"bad magic {observed!r}, expected {magic!r}")
    size = struct.calcsize(layout)
    raw = handle.read(size)
    if len(raw) != size:
        raise CheckpointError("truncated checkpoint header")
    fields = struct.unpack(layout, raw)
    if fields[0] != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {fields[0]}")
    return fields[1:]


@contextmanager
def _reading(path: str | Path):
    """Open a checkpoint for reading; a format error names the file."""
    try:
        with open(path, "rb") as handle:
            yield handle
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def save_table(path: str | Path, table: EmbeddingTable) -> None:
    with open(path, "wb") as handle:
        handle.write(MAGIC_TABLE)
        handle.write(
            struct.pack(
                "<IIQQQ",
                FORMAT_VERSION,
                table.dim,
                table.entity.shape[0],
                table.relation.shape[0],
                table.time.shape[0],
            )
        )
        for array in (table.entity, table.relation, table.time):
            _write_array(handle, array)


def load_table(path: str | Path) -> EmbeddingTable:
    with _reading(path) as handle:
        d, n_entities, n_relation_rows, n_times = _read_header(
            handle, MAGIC_TABLE, "<IIQQQ"
        )
        return EmbeddingTable(
            entity=_read_array(handle, (n_entities, d)),
            relation=_read_array(handle, (n_relation_rows, d)),
            time=_read_array(handle, (n_times, d)),
        )


def save_tgnn(path: str | Path, params: TgnnParams) -> None:
    with open(path, "wb") as handle:
        handle.write(MAGIC_TGNN)
        handle.write(
            struct.pack(
                "<IIQ",
                FORMAT_VERSION,
                params.dim,
                params.decoder_b.shape[0],
            )
        )
        for array in (
            params.w_msg, params.w_query, params.w_key, params.decoder_w, params.decoder_b
        ):
            _write_array(handle, array)


def load_tgnn(path: str | Path) -> TgnnParams:
    with _reading(path) as handle:
        d, n_entities = _read_header(handle, MAGIC_TGNN, "<IIQ")
        return TgnnParams(
            w_msg=_read_array(handle, (d, d)),
            w_query=_read_array(handle, (d, d)),
            w_key=_read_array(handle, (d, d)),
            decoder_w=_read_array(handle, (d, n_entities)),
            decoder_b=_read_array(handle, (n_entities,)),
        )


def _sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def save_head(path: str | Path, params: HeadParams, projection: Projection) -> None:
    if projection.dim_out != params.dim:
        raise CheckpointError("projection output width does not match head width")
    with open(path, "wb") as handle:
        handle.write(MAGIC_HEAD)
        handle.write(
            struct.pack(
                "<IIIQQ",
                FORMAT_VERSION,
                params.dim,
                projection.dim_in,
                params.token_emb.shape[0],
                params.scoring.shape[1],
            )
        )
        for array in (params.token_emb, params.scoring, projection.weight):
            _write_array(handle, array)
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
    with _reading(path) as handle:
        d_llm, d_in, n_tokens, n_answers = _read_header(handle, MAGIC_HEAD, "<IIIQQ")
        token_emb = _read_array(handle, (n_tokens, d_llm))
        scoring = _read_array(handle, (d_llm, n_answers))
        weight = _read_array(handle, (d_in, d_llm))
    sidecar = _sidecar_path(path)
    try:
        record = json.loads(sidecar.read_text(encoding="utf-8"))
        tokens, answer_labels = list(record["tokens"]), tuple(record["answer_labels"])
    except KeyError as exc:
        raise CheckpointError(f"{sidecar}: head sidecar has no key {exc}") from None
    except (ValueError, TypeError) as exc:  # undecodable text or JSON, wrong types
        raise CheckpointError(f"{sidecar}: malformed head sidecar ({exc})") from None
    if len(tokens) != n_tokens or len(answer_labels) != n_answers:
        raise CheckpointError(f"{sidecar}: sidecar does not match the shapes in {path}")
    params = HeadParams(
        token_vocab={token: row for row, token in enumerate(tokens)},
        token_emb=token_emb,
        scoring=scoring,
        answer_labels=answer_labels,
    )
    return params, Projection(weight)
