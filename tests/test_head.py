import dataclasses

import numpy as np
import pytest

from tempkgqa.checkpoint import load_head, save_head
from tempkgqa.config import TrainSchedule
from tempkgqa.embeddings import init_random
from tempkgqa.head import (
    MIX,
    UNKNOWN_TOKEN,
    CompiledBatch,
    HeadError,
    HeadGradients,
    _features,
    _forward,
    _scatter,
    _top_ids,
    compile_examples,
    init_head,
    loss_and_grads,
    predict_topk,
    score,
    train,
)
from tempkgqa.indicators import IndicatorSet, Projection, build_indicators, init_projection
from tempkgqa.prompts import tokenize
from tempkgqa.retrieval import RetrievedSubgraph, TemporalConstraint
from tempkgqa.store import Quadruple

from gradcheck import fd_gradient, relative_error

D, D_LLM = 5, 7
ANSWERS = ("alice", "bob", "mill", "1990", "1991")
#: Relative agreement of two float32 computations that round differently: a
#: few float32 ulps (eps 1.2e-7), where float64 ones are held to 1e-12.
TOL32 = 1e-6


def make_indicators(seed=0, facts=None):
    table = init_random(4, 2, 5, D, seed)
    rng = np.random.default_rng(seed + 1)
    nodes = {e: rng.normal(size=D) for e in range(4)}
    projection = init_projection(D, D_LLM, seed + 2)
    facts = facts or [Quadruple(0, 0, 1, 1, 2), Quadruple(2, 1, 3, 0, 3)]
    subgraph = RetrievedSubgraph("q0", tuple(facts), (0,), TemporalConstraint.none())
    return build_indicators(subgraph, nodes, table), projection


def make_example(question="who ran the mill in 1990?", seed=0):
    indicators, projection = make_indicators(seed)
    store_texts = [question, "who led after alice?"]
    params = init_head(store_texts, ANSWERS, D_LLM, seed)
    return (indicators, question), params, projection


def looped_loss_and_grads(batch, params, projection):
    """Reference: the per-example loop the batched kernel replaced."""
    grads = HeadGradients(
        np.zeros_like(params.token_emb),
        np.zeros_like(params.scoring),
        np.zeros_like(projection.weight),
    )
    total = 0.0
    for (indicators, question), golds in batch:
        enhanced = np.stack([indicators.sub_vec, indicators.rel_vec, indicators.obj_vec])
        vectors = enhanced @ projection.weight
        tokens = tokenize(question) or [UNKNOWN_TOKEN]
        token_rows = np.array([params.token_vocab.get(t, 0) for t in tokens])
        question_vec = params.token_emb[token_rows].mean(axis=0)
        feature = MIX @ np.vstack([vectors, question_vec])

        logits = feature @ params.scoring
        shifted = logits - logits.max()
        log_norm = np.log(np.exp(shifted).sum())
        probs = np.exp(shifted - log_norm)
        total += float(log_norm - shifted[list(golds)].mean())

        d_logits = probs.copy()
        for gold in golds:
            d_logits[gold] -= 1.0 / len(golds)
        grads.scoring += np.outer(feature, d_logits)
        d_feature = params.scoring @ d_logits
        d_parts = np.outer(MIX, d_feature)
        np.add.at(grads.token_emb, token_rows, d_parts[3] / len(token_rows))
        grads.projection += enhanced.T @ d_parts[:3]
    return total, grads


def reference_step(batch, params, projection, step):
    """Reference: one SGD step as the head took it before the step was folded
    into ``d_logits`` and ``MIX[3]`` into the token weights: a gradient at
    scale one, then scaled in place and subtracted."""
    token_weights = batch.token_weights / MIX[3]  # exact: MIX[3] is 1/4
    bag = _scatter(batch.token_ids, token_weights, params.token_emb.shape[0])
    feature = batch.indicators @ projection.weight + MIX[3] * (bag @ params.token_emb)
    logits = feature @ params.scoring
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(batch))[:, None]
    loss = -float((log_probs[rows, batch.gold_ids] * batch.gold_weights).sum())
    target = _scatter(batch.gold_ids, batch.gold_weights, log_probs.shape[1])
    d_logits = np.exp(log_probs) - target
    d_feature = d_logits @ params.scoring.T
    for param, grad in ((params.token_emb, bag.T @ (MIX[3] * d_feature)),
                        (params.scoring, feature.T @ d_logits),
                        (projection.weight, batch.indicators.T @ d_feature)):
        grad *= step
        param -= grad
    return loss


def reference_train(dataset, params, projection, config):
    """Reference: :func:`train` driving :func:`reference_step`."""
    params, projection = params.copy(), projection.copy()
    compiled = compile_examples(dataset, params)
    rng = np.random.default_rng(config.seed)
    losses = []
    for _ in range(config.epochs):
        shuffled = compiled.take(rng.permutation(len(compiled)))
        total = 0.0
        for lo in range(0, len(shuffled), config.batch_size):
            batch = shuffled.take(slice(lo, lo + config.batch_size))
            total += reference_step(batch, params, projection,
                                    config.learning_rate / len(batch))
        losses.append(total)
    return params, projection, losses


def column_layout(params):
    """``params`` as the references above index them: ``scoring`` as the
    ``(d_llm, n_answers)`` matrix whose columns are the answer rows, a view
    of the same memory."""
    return dataclasses.replace(params, scoring=params.scoring.T)


def float32_copies(params, projection):
    """The float32 copies :func:`train` starts from."""
    return params.astype(np.float32), Projection(projection.weight.astype(np.float32))


def reference_topk(examples, params, projection, k):
    """Reference: the stable full sort of every probability row."""
    probs = score(examples, params, projection)
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return [[params.answer_labels[i] for i in row] for row in order]


WORDS = ("who", "ran", "the", "mill", "in", "1990", "led", "after", "alice")
UNKNOWN_WORDS = ("zorp", "blick")


def random_batch(rng, size):
    """Examples with repeated and unknown tokens and duplicate gold ids."""
    params = init_head([" ".join(WORDS)], ANSWERS, D_LLM, int(rng.integers(100)))
    batch = []
    for _ in range(size):
        indicators, projection = make_indicators(int(rng.integers(100)))
        words = rng.choice(WORDS + UNKNOWN_WORDS, size=int(rng.integers(0, 8)))
        question = " ".join(words) + " the the " + str(rng.choice(UNKNOWN_WORDS))
        golds = rng.choice(len(ANSWERS), size=int(rng.integers(1, 4))).tolist()
        batch.append(((indicators, question), golds + golds[:1]))
    return batch, params, projection


class TestTokenize:
    def test_lowercase_alnum_runs(self):
        assert tokenize("Who led the Lab in 1990?") == \
            ["who", "led", "the", "lab", "in", "1990"]

    def test_punctuation_splits(self):
        assert tokenize("o'brien-jones") == ["o", "brien", "jones"]

    def test_empty(self):
        assert tokenize("?!") == []


class TestInitHead:
    def test_vocab_first_appearance_with_unknown_first(self):
        params = init_head(["b a", "a c"], ANSWERS, D_LLM, 0)
        assert params.token_vocab == {UNKNOWN_TOKEN: 0, "b": 1, "a": 2, "c": 3}
        assert params.token_emb.shape == (4, D_LLM)
        assert params.scoring.shape == (len(ANSWERS), D_LLM)
        assert np.array_equal(MIX, np.full(4, 0.25))

    def test_argument_errors(self):
        with pytest.raises(HeadError):
            init_head(["a"], ANSWERS, 0, 0)
        with pytest.raises(HeadError):
            init_head(["a"], [], D_LLM, 0)

    def test_copy_is_independent(self):
        params = init_head(["a"], ANSWERS, D_LLM, 0)
        clone = params.copy()
        clone.scoring[0, 0] += 1.0
        clone.token_vocab["zzz"] = 99
        assert params.scoring[0, 0] != clone.scoring[0, 0]
        assert "zzz" not in params.token_vocab


class TestScore:
    def test_distribution(self):
        example, params, projection = make_example()
        probs = score([example], params, projection)
        assert probs.shape == (1, len(ANSWERS))
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rows_match_single_examples(self):
        a, params, projection = make_example(seed=0)
        b, _, _ = make_example(question="zorp who led after alice?", seed=5)
        both = score([a, b], params, projection)
        assert np.allclose(both[0], score([a], params, projection)[0], rtol=1e-12, atol=0)
        assert np.allclose(both[1], score([b], params, projection)[0], rtol=1e-12, atol=0)
        assert np.allclose(both.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_unknown_tokens_fall_back_to_row_zero(self):
        (indicators, _), params, projection = make_example()
        oov = (indicators, "zorp blick")
        empty = (indicators, "")
        # both reduce to the unknown row, so the distributions agree
        assert np.allclose(score([oov], params, projection),
                           score([empty], params, projection))

    def test_width_mismatch_rejected(self):
        example, params, projection = make_example()
        wide = np.zeros(D + 1)
        bad = (IndicatorSet(wide, wide, wide, 0, 0), "q")
        with pytest.raises(HeadError, match="width"):
            score([example, bad], params, projection)
        with pytest.raises(HeadError, match="no examples"):
            score([], params, projection)

    def test_projection_width_mismatch_rejected(self):
        example, params, _ = make_example()
        narrow = Projection(np.zeros((D - 1, D_LLM)))
        with pytest.raises(HeadError, match="width"):
            score([example], params, narrow)
        with pytest.raises(HeadError, match="width"):
            loss_and_grads([(example, [0])], params, narrow)
        with pytest.raises(HeadError, match="width"):
            score([example], params, Projection(np.zeros((D, D_LLM + 1))))

    def test_projects_with_the_given_matrix(self):
        # project each indicator, then mix: the order the head no longer uses
        (indicators, question), params, _ = make_example()
        retrained = init_projection(D, D_LLM, 99)
        vectors = np.stack([indicators.sub_vec, indicators.rel_vec,
                            indicators.obj_vec]) @ retrained.weight
        rows = [params.token_vocab.get(t, 0) for t in tokenize(question)]
        feature = MIX @ np.vstack([vectors, params.token_emb[rows].mean(axis=0)])
        logits = feature @ params.scoring.T
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        probs = score([(indicators, question)], params, retrained)[0]
        assert np.allclose(probs, expected, rtol=1e-12, atol=0)

    def test_rows_equal_training_forward(self):
        rng = np.random.default_rng(5)
        batch, params, projection = random_batch(rng, 6)
        compiled = compile_examples(batch, params)
        _, _, log_probs = _forward(params, projection, compiled.indicators,
                                   compiled.token_ids, compiled.token_weights)
        probs = score([example for example, _ in batch], params, projection)
        assert np.array_equal(probs, np.exp(log_probs))
        feature_rows = _features([example for example, _ in batch], params)
        assert np.array_equal(feature_rows[0], compiled.indicators)


class TestPredictTopk:
    def test_orders_by_probability(self):
        example, params, projection = make_example()
        probs = score([example], params, projection)[0]
        top, = predict_topk([example], params, projection, len(ANSWERS))
        resorted = sorted(range(len(ANSWERS)), key=lambda i: (-probs[i], i))
        assert top == [ANSWERS[i] for i in resorted]

    def test_ties_break_by_ascending_answer_id(self):
        example, params, projection = make_example()
        params.scoring[:] = 0.0  # all answers equally likely
        assert predict_topk([example], params, projection, 3) == [list(ANSWERS[:3])]

    def test_blocks_of_head_width_match_single_examples(self):
        examples, params, projection = [], None, None
        for seed in range(D_LLM + 2):  # more examples than one scoring block
            example, params, projection = make_example(seed=seed)
            examples.append(example)
        ranked = predict_topk(examples, params, projection, 3)
        assert ranked == [predict_topk([e], params, projection, 3)[0] for e in examples]

    def test_k_bounds(self):
        example, params, projection = make_example()
        with pytest.raises(HeadError):
            predict_topk([example], params, projection, 0)
        assert len(predict_topk([example], params, projection, 100)[0]) == len(ANSWERS)
        assert predict_topk([], params, projection, 3) == []


    def test_matches_stable_sort_across_blocks(self):
        # more examples than one d_llm block, with ties and every k
        rng = np.random.default_rng(4)
        examples, params, projection = random_batch(rng, 3 * D_LLM + 2)
        examples = [example for example, _ in examples]
        params.scoring[[1, 3]] = params.scoring[[0, 0]]  # answers 0, 1, 3 tie
        for k in range(1, len(ANSWERS) + 2):
            assert (predict_topk(examples, params, projection, k)
                    == reference_topk(examples, params, projection, k)), k

    def test_partial_selection_keeps_ties_at_the_kth_value(self):
        rng = np.random.default_rng(0)
        # few distinct values, so ties straddle the k-th position in most rows
        probs = rng.integers(0, 4, size=(300, 40)) / 4.0
        probs[:5] = 0.5  # rows that are one long tie
        probs[5, :] = np.arange(40)[::-1]  # a row without ties
        for k in (1, 2, 3, 7, 20, 39, 40, 41, 100):
            expected = np.argsort(-probs, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_top_ids(probs, k), expected), k

    def test_partial_selection_on_softmax_rows(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(50, 2000))
        logits[:, 100:110] = logits[:, [99]]  # a tie block in every row
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        for k in (1, 10, 1999, 2000):
            expected = np.argsort(-probs, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_top_ids(probs, k), expected), k


class TestLossAndGrads:
    def test_loss_matches_cross_entropy(self):
        example, params, projection = make_example()
        golds = [0, 2]
        loss, _ = loss_and_grads([(example, golds)], params, projection)
        probs = score([example], params, projection)[0]
        assert loss == pytest.approx(-np.mean(np.log(probs[golds])), rel=1e-9)

    def test_additive_over_examples(self):
        a, params, projection = make_example(seed=0)
        b, _, _ = make_example(seed=5)
        one = loss_and_grads([(a, [0])], params, projection)[0]
        two = loss_and_grads([(b, [1])], params, projection)[0]
        both = loss_and_grads([(a, [0]), (b, [1])], params, projection)[0]
        assert both == pytest.approx(one + two, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_difference_gradients(self, seed):
        example, params, projection = make_example(seed=seed)
        rng = np.random.default_rng(seed)
        golds = sorted(rng.choice(len(ANSWERS), size=2, replace=False).tolist())
        batch = [(example, golds)]
        _, grads = loss_and_grads(batch, params, projection)
        loss_fn = lambda: loss_and_grads(batch, params, projection)[0]
        for array, grad in (
            (params.scoring, grads.scoring),
            (params.token_emb, grads.token_emb),
            (projection.weight, grads.projection),
        ):
            numeric = fd_gradient(loss_fn, array)
            assert relative_error(grad, numeric) < 1e-4

    def test_error_cases(self):
        example, params, projection = make_example()
        with pytest.raises(HeadError, match="gold"):
            loss_and_grads([(example, [])], params, projection)
        with pytest.raises(HeadError, match="answer space"):
            loss_and_grads([(example, [99])], params, projection)


    def test_out_receives_the_gradients(self):
        rng = np.random.default_rng(2)
        batch, params, projection = random_batch(rng, 4)
        fresh_loss, fresh = loss_and_grads(batch, params, projection)
        out = HeadGradients.empty(params, projection)
        loss, written = loss_and_grads(batch, params, projection, out)
        assert written is out and loss == fresh_loss
        for name in ("token_emb", "scoring", "projection"):
            assert np.array_equal(getattr(out, name), getattr(fresh, name)), name

    @pytest.mark.parametrize("scale", (0.125, 0.25, 1.0, 0.3 / 8))
    def test_scale_multiplies_every_gradient(self, scale):
        rng = np.random.default_rng(6)
        batch, params, projection = random_batch(rng, 5)
        loss, unit = loss_and_grads(batch, params, projection)
        scaled_loss, scaled = loss_and_grads(batch, params, projection, scale=scale)
        assert scaled_loss == loss
        for name in ("token_emb", "scoring", "projection"):
            expected = scale * getattr(unit, name)
            if np.log2(scale).is_integer():  # a power of two scales exactly
                assert np.array_equal(getattr(scaled, name), expected), name
            else:
                assert relative_error(getattr(scaled, name), expected) < 1e-12, name

    def test_empty_batch_rejected(self):
        _, params, projection = make_example()
        with pytest.raises(HeadError, match="no training examples"):
            loss_and_grads([], params, projection)

    @pytest.mark.parametrize("size", (1, 3, 8))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_example_loop(self, size, seed):
        rng = np.random.default_rng(seed * 10 + size)
        batch, params, projection = random_batch(rng, size)
        loss, grads = loss_and_grads(batch, params, projection)
        ref_loss, ref_grads = looped_loss_and_grads(batch, column_layout(params), projection)
        ref_grads.scoring = ref_grads.scoring.T
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name in ("token_emb", "scoring", "projection"):
            error = relative_error(getattr(grads, name), getattr(ref_grads, name))
            assert error < 1e-12, f"{name}: {error:.2e}"

    def test_compiled_batch_matches_examples(self):
        rng = np.random.default_rng(7)
        batch, params, projection = random_batch(rng, 5)
        compiled = compile_examples(batch, params)
        assert isinstance(compiled, CompiledBatch) and len(compiled) == 5
        # sized by tokens and golds per question, not by vocabulary or answers
        longest = max(len(tokenize(question)) for (_, question), _ in batch)
        assert compiled.token_ids.shape == (5, longest)
        assert compiled.gold_ids.shape == (5, max(len(g) for _, g in batch))
        # the token weights carry the question tokens' share of the mix
        assert np.allclose(compiled.token_weights.sum(axis=1), MIX[3])
        assert np.allclose(compiled.gold_weights.sum(axis=1), 1.0)
        rows = np.array([3, 0, 4])
        direct = loss_and_grads([batch[i] for i in rows], params, projection)
        taken = loss_and_grads(compiled.take(rows), params, projection)
        assert taken[0] == pytest.approx(direct[0], rel=1e-12)
        for name in ("token_emb", "scoring", "projection"):
            assert relative_error(getattr(taken[1], name), getattr(direct[1], name)) < 1e-12

class TestTrain:
    def dataset(self):
        examples = []
        for seed, gold in ((0, [0]), (5, [1]), (9, [2])):
            example, params, projection = make_example(seed=seed)
            examples.append((example, gold))
        return examples, params, projection

    def test_loss_decreases(self):
        dataset, params, projection = self.dataset()
        config = TrainSchedule(0.5, 20, 2, 0)
        _, _, losses = train(dataset, params, projection, config)
        assert losses[-1] < losses[0]

    def test_projection_actually_moves(self):
        dataset, params, projection = self.dataset()
        config = TrainSchedule(0.5, 2, 8, 0)
        _, trained_projection, _ = train(dataset, params, projection, config)
        assert not np.array_equal(trained_projection.weight, projection.weight)

    def test_inputs_not_mutated(self):
        dataset, params, projection = self.dataset()
        scoring_before = params.scoring.copy()
        weight_before = projection.weight.copy()
        train(dataset, params, projection, TrainSchedule(0.5, 1, 8, 0))
        assert np.array_equal(params.scoring, scoring_before)
        assert np.array_equal(projection.weight, weight_before)

    def test_deterministic(self):
        dataset, params, projection = self.dataset()
        config = TrainSchedule(0.3, 3, 2, 4)
        first = train(dataset, params, projection, config)
        second = train(dataset, params, projection, config)
        assert np.array_equal(first[0].scoring, second[0].scoring)
        assert np.array_equal(first[1].weight, second[1].weight)
        assert first[2] == second[2]

    def test_bad_arguments(self):
        _, params, projection = self.dataset()
        with pytest.raises(HeadError):
            train([], params, projection, TrainSchedule(3e-4, 4, 8, 0))

    @pytest.mark.parametrize("max_steps, epochs_run", [(0, 0), (1, 1), (2, 1), (3, 2),
                                                      (None, 3)])
    def test_one_loss_per_epoch_that_ran(self, max_steps, epochs_run):
        # 3 examples in batches of 2: two steps per epoch, the second a partial batch
        dataset, params, projection = self.dataset()
        trained, trained_projection, losses = train(
            dataset, params, projection, TrainSchedule(0.5, 3, 2, 1, max_steps))
        assert len(losses) == epochs_run
        assert all(loss > 0.0 for loss in losses)
        # the epochs after the cap change nothing
        expected = train(dataset, params, projection,
                         TrainSchedule(0.5, epochs_run, 2, 1, max_steps))
        assert losses == expected[2]
        assert np.array_equal(trained.scoring, expected[0].scoring)
        assert np.array_equal(trained_projection.weight, expected[1].weight)

    def test_one_epoch_equals_stepping_loss_and_grads(self):
        rng = np.random.default_rng(3)
        dataset, params, projection = random_batch(rng, 7)
        config = TrainSchedule(0.4, 1, 3, 11)
        trained, trained_projection, losses = train(dataset, params, projection, config)

        params, projection = float32_copies(params, projection)
        order = np.random.default_rng(config.seed).permutation(len(dataset))
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = loss_and_grads(batch, params, projection)
            total += loss
            step = config.learning_rate / len(batch)
            params.token_emb -= step * grads.token_emb
            params.scoring -= step * grads.scoring
            projection.weight -= step * grads.projection
        # the train step folds 0.4 / 3 into d_logits, so it rounds differently
        assert losses[0] == pytest.approx(total, rel=TOL32)
        assert np.allclose(trained.token_emb, params.token_emb, rtol=TOL32, atol=0)
        assert np.allclose(trained.scoring, params.scoring, rtol=TOL32, atol=0)
        assert np.allclose(trained_projection.weight, projection.weight, rtol=TOL32, atol=0)

    @pytest.mark.parametrize("size", (17, 18, 20, 24))
    @pytest.mark.parametrize("seed", range(2))
    def test_unit_rate_keeps_the_bits_of_the_reference_step(self, seed, size):
        # batch 8: step 1/8, and 1, 1/2 or 1/4 for a short last batch (desk's
        # 76 examples end in a batch of 4); scaling by a power of two is exact
        rng = np.random.default_rng(seed)
        dataset, params, projection = random_batch(rng, size)
        config = TrainSchedule(1.0, 3, 8, seed)
        got = train(dataset, params, projection, config)
        params, projection = float32_copies(params, projection)
        expected = reference_train(dataset, column_layout(params), projection, config)
        assert got[2] == expected[2]
        assert np.array_equal(got[0].token_emb, expected[0].token_emb)
        assert np.array_equal(got[0].scoring, expected[0].scoring.T)
        assert np.array_equal(got[1].weight, expected[1].weight)

    @pytest.mark.parametrize("rate, size", ((0.3, 20), (0.3, 21), (1.0, 21)))
    @pytest.mark.parametrize("seed", range(2))
    def test_other_steps_match_the_reference_step(self, seed, rate, size):
        # a step that is no power of two may round differently in the last ulp
        rng = np.random.default_rng(seed)
        dataset, params, projection = random_batch(rng, size)
        config = TrainSchedule(rate, 3, 8, seed)
        got = train(dataset, params, projection, config)
        params, projection = float32_copies(params, projection)
        expected = reference_train(dataset, column_layout(params), projection, config)
        assert got[2] == pytest.approx(expected[2], rel=TOL32)
        assert relative_error(got[0].token_emb, expected[0].token_emb) < TOL32
        assert relative_error(got[0].scoring, expected[0].scoring.T) < TOL32
        assert relative_error(got[1].weight, expected[1].weight) < TOL32

    def test_invalid_example_rejected_before_training(self):
        dataset, params, projection = self.dataset()
        dataset.append((dataset[0][0], [len(ANSWERS)]))
        with pytest.raises(HeadError, match="answer space"):
            train(dataset, params, projection, TrainSchedule(3e-4, 0, 8, 0))


class TestDtype:
    """The head computes in its parameters' dtype: float32 in :func:`train`,
    float64 for the gradchecks and for a loaded checkpoint."""

    def test_train_returns_float32_from_float64(self):
        dataset, params, projection = random_batch(np.random.default_rng(8), 6)
        trained, trained_projection, losses = train(dataset, params, projection,
                                                    TrainSchedule(0.5, 2, 4, 0))
        for array in (trained.token_emb, trained.scoring, trained_projection.weight):
            assert array.dtype == np.float32 and array.flags.c_contiguous
        for array in (params.token_emb, params.scoring, projection.weight):
            assert array.dtype == np.float64
        assert np.all(np.isfinite(losses))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_grads_and_score_follow_the_parameters(self, dtype):
        batch, params, projection = random_batch(np.random.default_rng(9), 5)
        params, projection = params.astype(dtype), Projection(projection.weight.astype(dtype))
        compiled = compile_examples(batch, params)
        for name in ("indicators", "token_weights", "gold_weights"):
            assert getattr(compiled, name).dtype == dtype, name
        for array in _forward(params, projection, compiled.indicators, compiled.token_ids,
                              compiled.token_weights):  # bag, feature, log-probabilities
            assert array.dtype == dtype
        for given in (batch, compiled):
            _, grads = loss_and_grads(given, params, projection)
            for name in ("token_emb", "scoring", "projection"):
                assert getattr(grads, name).dtype == dtype, name
        assert score([example for example, _ in batch], params, projection).dtype == dtype

    def test_float32_tracks_float64(self):
        # the same float32 values in both precisions
        batch, params, projection = random_batch(np.random.default_rng(10), 8)
        narrow, narrow_projection = float32_copies(params, projection)
        wide = narrow.astype(np.float64)
        wide_projection = Projection(narrow_projection.weight.astype(np.float64))
        compiled = compile_examples(batch, narrow)
        widened = dataclasses.replace(compiled, **{
            name: getattr(compiled, name).astype(np.float64)
            for name in ("indicators", "token_weights", "gold_weights")})
        loss32, grads32 = loss_and_grads(compiled, narrow, narrow_projection)
        loss64, grads64 = loss_and_grads(widened, wide, wide_projection)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for name in ("token_emb", "scoring", "projection"):
            assert relative_error(getattr(grads32, name), getattr(grads64, name)) < 1e-4, name

    def test_init_head_stores_the_transposed_draw(self):
        params = init_head(["b a", "a c"], ANSWERS, D_LLM, 3)
        rng = np.random.default_rng(3)
        scale = 1.0 / np.sqrt(D_LLM)
        token_emb = rng.uniform(-scale, scale, size=(len(params.token_vocab), D_LLM))
        drawn = rng.uniform(-scale, scale, size=(D_LLM, len(ANSWERS)))
        assert np.array_equal(params.token_emb, token_emb)
        assert np.array_equal(params.scoring, drawn.T)
        assert params.scoring.flags.c_contiguous

    def test_trained_head_roundtrip_is_exact(self, tmp_path):
        dataset, params, projection = random_batch(np.random.default_rng(11), 6)
        trained, trained_projection, _ = train(dataset, params, projection,
                                               TrainSchedule(0.5, 2, 4, 0))
        path = tmp_path / "head.ckpt"
        save_head(path, trained, trained_projection)
        loaded, loaded_projection = load_head(path)
        assert loaded.scoring.shape == (len(ANSWERS), D_LLM)
        assert loaded.scoring.flags.c_contiguous
        for got, expected in ((loaded.token_emb, trained.token_emb),
                              (loaded.scoring, trained.scoring),
                              (loaded_projection.weight, trained_projection.weight)):
            assert got.dtype == np.float64  # decode_matrix widens every stored matrix
            assert np.array_equal(got, expected)
