"""Binary checkpoints for embedding tables, encoder parameters, and the head.

Every checkpoint is one file with one framing: a 4-byte magic, a
little-endian ``u32`` format version, the kind's header fields (``u32``
widths, ``u64`` row counts), then the kind's matrices one after another as
row-major little-endian ``float32``.  Each matrix is stored as it is held
in memory: it is written from its own ``float32`` buffer and read straight
back into its own writable ``float32`` array.  :func:`encode_matrix` and
:func:`decode_matrix` hold the same rule for the indicator dumps' vectors.
Header fields and matrices, by kind:

- ``TKGE``  d, entities, relation rows, times; the entity / relation / time
  matrices.
- ``TGNN``  d, entities; w_msg, w_query, w_key (all d x d), decoder_w
  (d x entities), decoder_b (entities).
- ``HEAD``  d_llm, d, tokens, answers; token_emb (tokens x d_llm), scoring
  (answers x d_llm, one row per answer), projection (d x d_llm).  It holds
  no labels: its loader is given the token vocabulary and the answer labels.

Version 2 dropped the head's fixed mixing weights, version 3 the encoder's
layer count (the encoder is one layer), and version 4 stores the head's
scoring matrix one row per answer, where version 3 stored its transpose;
files of an earlier version are rejected.  A load error names the file it
was reading: a stored NaN or infinity, say, or a header field that differs
from the loader's ``expected``.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import TempkgqaError
from .head import HeadParams
from .indicators import Projection
from .tgnn import TgnnParams

FORMAT_VERSION = 4
# magic -> the struct layout of the header after it (the version, then the
# fields) and the fields' names, as the module docstring lists them
_HEADERS = {
    b"TKGE": ("<IIQQQ", ("d", "entities", "relation rows", "times")),
    b"TGNN": ("<IIQ", ("d", "entities")),
    b"HEAD": ("<IIIQQ", ("d_llm", "d", "tokens", "answers")),
}


class CheckpointError(TempkgqaError, ValueError):
    pass


def encode_matrix(array: np.ndarray) -> bytes:
    """``array`` as stored: row-major little-endian ``float32`` bytes."""
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


def _require_finite(values: np.ndarray) -> np.ndarray:
    # a NaN propagates through min and max, so two reductions check every
    # value without a temporary array the size of ``values``
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError("non-finite value (NaN or infinity)")
    return values


def decode_matrix(raw: bytes) -> np.ndarray:
    """The flat ``float32`` values of stored bytes, in a writable array; a
    length that is not a whole number of ``float32`` values, or a NaN or
    infinite value, raises ``ValueError``."""
    return _require_finite(np.frombuffer(raw, dtype="<f4").copy())


def _save(path: str | Path, magic: bytes, header: Iterable[int],
          arrays: Iterable[np.ndarray]) -> None:
    """Write ``magic``, the version and ``header`` packed by the kind's
    layout, then each of ``arrays`` in turn from its own ``float32`` buffer,
    which is the array itself when it is C-contiguous ``float32`` already; no
    copy of a matrix and no buffer of the whole file is built."""
    with open(path, "wb") as handle:
        handle.write(magic + struct.pack(_HEADERS[magic][0], FORMAT_VERSION, *header))
        for array in arrays:
            handle.write(memoryview(np.ascontiguousarray(array, dtype="<f4")))


def _load(path: str | Path, magic: bytes, shapes: Callable[..., Sequence[tuple[int, ...]]],
          expected: Mapping[str, int]) -> list[np.ndarray]:
    """The matrices of a file :func:`_save` wrote, shaped by ``shapes`` called
    with the header fields.  Each is read straight into its own array, and
    one larger than the bytes left in the file is rejected before it is
    allocated.  Each header field that ``expected`` names must hold the size
    it gives."""
    layout, names = _HEADERS[magic]
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
                try:
                    array = np.empty(shape, "<f4")
                except ValueError:  # an empty matrix with a row count numpy cannot index
                    raise CheckpointError(f"matrix shape {shape} out of range") from None
                if handle.readinto(array) != size:
                    raise CheckpointError("truncated checkpoint")
                arrays.append(_require_finite(array))
            wrong = [f"{name} {size}, expected {expected[name]}"
                     for name, size in zip(names, fields) if expected.get(name, size) != size]
            if wrong:
                raise CheckpointError(
                    f"{', '.join(wrong)} (written for another config or fact file)")
            return arrays
    except ValueError as exc:  # CheckpointError is a ValueError
        raise CheckpointError(f"{path}: {exc}") from None


def save_table(path: str | Path, table: EmbeddingTable) -> None:
    _save(path, b"TKGE", (table.dim, len(table.entity), len(table.relation), len(table.time)),
          (table.entity, table.relation, table.time))


def load_table(path: str | Path, expected: Mapping[str, int] = {}) -> EmbeddingTable:
    return EmbeddingTable(*_load(
        path, b"TKGE",
        lambda d, n_entities, n_relation_rows, n_times: (
            (n_entities, d), (n_relation_rows, d), (n_times, d)),
        expected,
    ))


def save_tgnn(path: str | Path, params: TgnnParams) -> None:
    _save(path, b"TGNN", (params.dim, len(params.decoder_b)),
          (params.w_msg, params.w_query, params.w_key, params.decoder_w, params.decoder_b))


def load_tgnn(path: str | Path, expected: Mapping[str, int] = {}) -> TgnnParams:
    return TgnnParams(*_load(
        path, b"TGNN",
        lambda d, n_entities: ((d, d), (d, d), (d, d), (d, n_entities), (n_entities,)),
        expected,
    ))


def save_head(path: str | Path, params: HeadParams, projection: Projection) -> None:
    if projection.dim_out != params.dim:
        raise CheckpointError("projection output width does not match head width")
    _save(path, b"HEAD",
          (params.dim, projection.dim_in, len(params.token_emb), len(params.scoring)),
          (params.token_emb, params.scoring, projection.weight))


def load_head(path: str | Path, token_vocab: Mapping[str, int], answer_labels: Sequence[str],
              expected: Mapping[str, int] = {}) -> tuple[HeadParams, Projection]:
    """The head at ``path`` over ``token_vocab`` (token -> row) and
    ``answer_labels``, which must count its token and answer rows."""
    token_emb, scoring, weight = _load(
        path, b"HEAD",
        lambda d_llm, d_in, n_tokens, n_answers: (
            (n_tokens, d_llm), (n_answers, d_llm), (d_in, d_llm)),
        {**expected, "tokens": len(token_vocab), "answers": len(answer_labels)},
    )
    params = HeadParams(dict(token_vocab), token_emb, scoring, tuple(answer_labels))
    return params, Projection(weight)
