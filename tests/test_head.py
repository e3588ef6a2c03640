import numpy as np
import pytest

from tempkgqa.embeddings import init_random
from tempkgqa.head import (
    UNKNOWN_TOKEN,
    AssembledInput,
    CompiledBatch,
    HeadError,
    HeadGradients,
    HeadTrainConfig,
    assemble,
    compile_examples,
    init_head,
    loss_and_grads,
    predict_topk,
    score,
    tokenize,
    train,
)
from tempkgqa.indicators import build_indicators, init_projection
from tempkgqa.prompts import render_instruction
from tempkgqa.retrieval import RetrievedSubgraph, TemporalConstraint
from tempkgqa.store import Quadruple

from gradcheck import fd_gradient, relative_error

D, D_LLM = 5, 7
ANSWERS = ("alice", "bob", "mill", "1990", "1991")


def make_indicators(seed=0, facts=None):
    table = init_random(4, 2, 5, D, seed)
    rng = np.random.default_rng(seed + 1)
    nodes = {e: rng.normal(size=D) for e in range(4)}
    projection = init_projection(D, D_LLM, seed + 2)
    facts = facts or [Quadruple(0, 0, 1, 1, 2), Quadruple(2, 1, 3, 0, 3)]
    subgraph = RetrievedSubgraph("q0", tuple(facts), (0,), TemporalConstraint.none())
    return build_indicators(subgraph, nodes, table, projection), projection


def make_example(question="who ran the mill in 1990?", answer=None, seed=0):
    indicators, projection = make_indicators(seed)
    store_texts = [question, "who led after alice?"]
    params = init_head(store_texts, ANSWERS, D_LLM, seed)
    example = AssembledInput(
        vectors=np.stack([indicators.sub_proj, indicators.rel_proj,
                          indicators.obj_proj]),
        instruction_text="instruction",
        question_text=question,
        answer_text=answer,
        indicators=indicators,
    )
    return example, params, projection


def looped_loss_and_grads(batch, params, projection):
    """Reference: the per-example loop the batched kernel replaced."""
    grads = HeadGradients(
        np.zeros_like(params.token_emb),
        np.zeros_like(params.scoring),
        np.zeros_like(projection.weight),
    )
    total = 0.0
    for example, golds in batch:
        indicators = example.indicators
        enhanced = np.stack([indicators.sub_vec, indicators.rel_vec, indicators.obj_vec])
        vectors = enhanced @ projection.weight
        tokens = tokenize(example.question_text) or [UNKNOWN_TOKEN]
        token_rows = np.array([params.token_vocab.get(t, 0) for t in tokens])
        question_vec = params.token_emb[token_rows].mean(axis=0)
        feature = params.mix @ np.vstack([vectors, question_vec])

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
        d_parts = np.outer(params.mix, d_feature)
        np.add.at(grads.token_emb, token_rows, d_parts[3] / len(token_rows))
        grads.projection += enhanced.T @ d_parts[:3]
    return total, grads


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
        example = AssembledInput(np.zeros((3, D_LLM)), "i", question,
                                 indicators=indicators)
        golds = rng.choice(len(ANSWERS), size=int(rng.integers(1, 4))).tolist()
        batch.append((example, golds + golds[:1]))
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
        assert params.scoring.shape == (D_LLM, len(ANSWERS))
        assert np.allclose(params.mix, 0.25)

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


class TestAssemble:
    def test_pairs_indicators_with_prompt(self, tiny_store):
        indicators, _ = make_indicators()
        bundle = render_instruction(tiny_store, "who leads?", tiny_store.facts[:1],
                                    "ada")
        example = assemble(indicators, bundle)
        assert example.question_text == "who leads?"
        assert example.answer_text == "ada"
        assert example.instruction_text == bundle.text
        assert np.array_equal(example.vectors[0], indicators.sub_proj)
        assert np.array_equal(example.vectors[2], indicators.obj_proj)
        assert example.indicators is indicators

    def test_open_prompt_has_no_answer(self, tiny_store):
        indicators, _ = make_indicators()
        bundle = render_instruction(tiny_store, "who leads?", tiny_store.facts[:1])
        assert assemble(indicators, bundle).answer_text is None

    def test_bundle_without_question_rejected(self, tiny_store):
        indicators, _ = make_indicators()
        from tempkgqa.prompts import PromptBundle
        bundle = PromptBundle(messages=({"role": "user", "content": "x"},),
                              template_id="relation_ranking",
                              substitutions={"sentence": "x"})
        with pytest.raises(HeadError, match="question"):
            assemble(indicators, bundle)


class TestScore:
    def test_distribution(self):
        example, params, _ = make_example()
        probs = score([example], params)
        assert probs.shape == (1, len(ANSWERS))
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rows_match_single_examples(self):
        a, params, _ = make_example(seed=0)
        b, _, _ = make_example(question="zorp who led after alice?", seed=5)
        both = score([a, b], params)
        assert np.allclose(both[0], score([a], params)[0], rtol=1e-12, atol=0)
        assert np.allclose(both[1], score([b], params)[0], rtol=1e-12, atol=0)
        assert np.allclose(both.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_unknown_tokens_fall_back_to_row_zero(self):
        example, params, _ = make_example()
        oov = AssembledInput(example.vectors, "i", "zorp blick",
                             indicators=example.indicators)
        empty = AssembledInput(example.vectors, "i", "",
                               indicators=example.indicators)
        # both reduce to the unknown row, so the distributions agree
        assert np.allclose(score([oov], params), score([empty], params))

    def test_width_mismatch_rejected(self):
        example, params, _ = make_example()
        bad = AssembledInput(np.zeros((3, D_LLM + 1)), "i", "q")
        with pytest.raises(HeadError, match="width"):
            score([example, bad], params)
        with pytest.raises(HeadError, match="no examples"):
            score([], params)


class TestPredictTopk:
    def test_orders_by_probability(self):
        example, params, _ = make_example()
        probs = score([example], params)[0]
        top, = predict_topk([example], params, len(ANSWERS))
        resorted = sorted(range(len(ANSWERS)), key=lambda i: (-probs[i], i))
        assert top == [ANSWERS[i] for i in resorted]

    def test_ties_break_by_ascending_answer_id(self):
        example, params, _ = make_example()
        params.scoring[:] = 0.0  # all answers equally likely
        assert predict_topk([example], params, 3) == [list(ANSWERS[:3])]

    def test_blocks_of_head_width_match_single_examples(self):
        examples, params = [], None
        for seed in range(D_LLM + 2):  # more examples than one scoring block
            example, params, _ = make_example(seed=seed)
            examples.append(example)
        ranked = predict_topk(examples, params, 3)
        assert ranked == [predict_topk([e], params, 3)[0] for e in examples]

    def test_k_bounds(self):
        example, params, _ = make_example()
        with pytest.raises(HeadError):
            predict_topk([example], params, 0)
        assert len(predict_topk([example], params, 100)[0]) == len(ANSWERS)
        assert predict_topk([], params, 3) == []


class TestLossAndGrads:
    def test_loss_matches_cross_entropy(self):
        example, params, projection = make_example()
        golds = [0, 2]
        loss, _ = loss_and_grads([(example, golds)], params, projection)
        probs = score([example], params)[0]
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
        stripped = AssembledInput(example.vectors, "i", "q")
        with pytest.raises(HeadError, match="indicators"):
            loss_and_grads([(stripped, [0])], params, projection)


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
        ref_loss, ref_grads = looped_loss_and_grads(batch, params, projection)
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
        longest = max(len(tokenize(e.question_text)) for e, _ in batch)
        assert compiled.token_ids.shape == (5, longest)
        assert compiled.gold_ids.shape == (5, max(len(g) for _, g in batch))
        assert np.allclose(compiled.token_weights.sum(axis=1), 1.0)
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
        config = HeadTrainConfig(learning_rate=0.5, epochs=20, batch_size=2)
        _, _, losses = train(dataset, params, projection, config)
        assert losses[-1] < losses[0]

    def test_projection_actually_moves(self):
        dataset, params, projection = self.dataset()
        config = HeadTrainConfig(learning_rate=0.5, epochs=2)
        _, trained_projection, _ = train(dataset, params, projection, config)
        assert not np.array_equal(trained_projection.weight, projection.weight)

    def test_inputs_not_mutated(self):
        dataset, params, projection = self.dataset()
        scoring_before = params.scoring.copy()
        weight_before = projection.weight.copy()
        train(dataset, params, projection, HeadTrainConfig(learning_rate=0.5, epochs=1))
        assert np.array_equal(params.scoring, scoring_before)
        assert np.array_equal(projection.weight, weight_before)

    def test_deterministic(self):
        dataset, params, projection = self.dataset()
        config = HeadTrainConfig(learning_rate=0.3, epochs=3, batch_size=2, seed=4)
        first = train(dataset, params, projection, config)
        second = train(dataset, params, projection, config)
        assert np.array_equal(first[0].scoring, second[0].scoring)
        assert np.array_equal(first[1].weight, second[1].weight)
        assert first[2] == second[2]

    def test_bad_arguments(self):
        dataset, params, projection = self.dataset()
        with pytest.raises(HeadError):
            train([], params, projection, HeadTrainConfig())
        with pytest.raises(HeadError):
            train(dataset, params, projection, HeadTrainConfig(batch_size=0))

    def test_one_epoch_equals_stepping_loss_and_grads(self):
        rng = np.random.default_rng(3)
        dataset, params, projection = random_batch(rng, 7)
        config = HeadTrainConfig(learning_rate=0.4, epochs=1, batch_size=3, seed=11)
        trained, trained_projection, losses = train(dataset, params, projection, config)

        params, projection = params.copy(), projection.copy()
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
        assert losses[0] == pytest.approx(total, rel=1e-12)
        assert np.allclose(trained.token_emb, params.token_emb, rtol=1e-12, atol=0)
        assert np.allclose(trained.scoring, params.scoring, rtol=1e-12, atol=0)
        assert np.allclose(trained_projection.weight, projection.weight, rtol=1e-12, atol=0)

    def test_invalid_example_rejected_before_training(self):
        dataset, params, projection = self.dataset()
        dataset.append((dataset[0][0], [len(ANSWERS)]))
        with pytest.raises(HeadError, match="answer space"):
            train(dataset, params, projection, HeadTrainConfig(epochs=0))
