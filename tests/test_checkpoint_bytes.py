"""The stored bytes of every checkpoint kind and of an indicator vector,
pinned by digest.  The round-trip tests in test_checkpoint.py would
pass for any self-consistent layout; these fail on any change to the one
that is written."""

import hashlib

import numpy as np
import pytest

from tempkgqa import cli
from tempkgqa.checkpoint import save_head, save_table, save_tgnn
from tempkgqa.embeddings import init_random
from tempkgqa.head import init_head
from tempkgqa.indicators import init_projection
from tempkgqa.tgnn import init_params

ANSWERS = ["Ada Byron", "Zoë Ng", "Chiefs", "Mayor", "1990", "1991", "1995", "2001", "2010"]
QUESTIONS = ["Who was Mayor in 1990?", "When did Zoë Ng join the Chiefs?"]

# sha256 and size of each file, recorded from the format version 3 writer
DIGESTS = {
    "table.ckpt": ("2beb3d4961d32215a5d9bf6b4d86298742da0fe8236c6b537ce505253a095b77", 324),
    "tgnn.ckpt": ("da3489f0f4692dbec38fd2abea5075ee8a15d69572aae82d8544e02c0ea4d74f", 352),
    "head.ckpt": ("652018abf03bb6ac9982b1a5f8cc33da4885fc8974055afdace676a6b954e2fc", 656),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    save_table(out / "table.ckpt", init_random(7, 3, 5, 4, 1))
    save_tgnn(out / "tgnn.ckpt", init_params(4, 7, 2))
    save_head(out / "head.ckpt", init_head(QUESTIONS, ANSWERS, 6, 3), init_projection(4, 6, 4))
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_saved_bytes_match_the_recorded_digest(saved, name):
    data = (saved / name).read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == DIGESTS[name]


def test_indicator_vector_bytes():
    vector = np.random.default_rng(5).standard_normal(4)
    assert cli._encode_vector(vector) == "YUtNv5iEqb+CUn6+mUTXPg=="
