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

# sha256 and size of each file, recorded from the format version 4 writer;
# the head's are a version 3 file's bytes with the scoring matrix transposed
DIGESTS = {
    "table.ckpt": ("52a81e58a1fc8f252ca56651758088872d70eca539eafcb044ea986b1b0aa790", 324),
    "tgnn.ckpt": ("d71a0ff0852e2dce5a766e7cbba980ed30c8834e0ee726969fdd287f32632006", 352),
    "head.ckpt": ("ec59b87a7f53e72d140aa819ee2acb3b81af7e123ac9c3bdc92885c72f536818", 656),
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
