import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuserec import evaluate as ev
from fuserec import corpus as cp
from fuserec import trainer as tr
from fuserec.collab import CfEmbeddings
from fuserec.corpus import SplitSpec, build_corpus, build_examples
from fuserec.lm import LmConfig
from fuserec.numerics import ContractError, Tensor
from fuserec.prng import SplitMix64
from fuserec.trainer import RecModel

from synthdata import two_genre_data


@pytest.fixture(scope="module")
def setup():
    interactions, catalog = two_genre_data(n_users=12, n_items=20, per_user=8, seed=21)
    corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0, seed=2))
    rng = np.random.default_rng(3)
    cf = CfEmbeddings(
        rng.normal(size=(len(corpus.user_ids), 6)), rng.normal(size=(len(corpus.item_ids), 6))
    )
    lm_cfg = LmConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=len(corpus.vocab), max_len=96, rank=2)
    model = RecModel(lm_cfg, "CKF", corpus.tasks, 6, 4, seed=5)
    return corpus, cf, model


class TestAnswerDistribution:
    def test_uniform_logits_give_uniform_answers(self, setup):
        corpus, cf, model = setup
        # zero token table -> all logits exactly zero through the tied head
        zero_model = RecModel(model.lm_cfg, "CKF", corpus.tasks, 6, 4, seed=5)
        zero_model.params["lm.token_table"].data[:] = 0.0
        ex = build_examples(corpus, "RP", "test", seed=1)[0]
        dist = ev.answer_distribution(zero_model, corpus, cf, ex, ev.RATING_ANSWERS)
        assert np.allclose(dist, 0.2, atol=1e-12)

    def test_distribution_sums_to_one(self, setup):
        corpus, cf, model = setup
        for task, answers in (("RP", ev.RATING_ANSWERS), ("CTR", ev.CLICK_ANSWERS)):
            ex = build_examples(corpus, task, "test", seed=1)[0]
            dist = ev.answer_distribution(model, corpus, cf, ex, answers)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert (dist > 0).all()

    def test_read_rows_equal_a_full_logits_recomputation(self, setup):
        corpus, cf, model = setup
        # two layers, so one runs on every row and the last one on the read rows;
        # non-zero adapter and fusion weights, so they take part
        model = RecModel(dataclasses.replace(model.lm_cfg, n_layers=2), "CKF", corpus.tasks, 6, 4, seed=6)
        rng = np.random.default_rng(7)
        for _name, param in sorted(model.trainable().items()):
            param.data = rng.normal(0.0, 0.1, size=param.data.shape)

        def full_logits(ex, candidate, suffix):
            enc = tr.encode_prompt(ex, corpus, model.uses_collab_prompt())
            rows = tr.cf_rows(ex, corpus, cf, [candidate])
            embs = tr.embed(model, [enc.seq[: enc.n_prompt] + suffix], [enc.positions], rows)
            logits = ev.lmmod.forward(embs, ex.task, model.params, model.bank, model.lm_cfg).data
            return logits[enc.n_prompt - 1 :]

        for task, answers in (("RP", ev.RATING_ANSWERS), ("CTR", ev.CLICK_ANSWERS)):
            for ex in build_examples(corpus, task, "test", seed=1)[:3]:
                sub = full_logits(ex, ex.candidate, [])[0][[corpus.vocab.index[a] for a in answers]]
                want = np.exp(sub - sub.max()) / np.exp(sub - sub.max()).sum()
                assert np.abs(ev.answer_distribution(model, corpus, cf, ex, answers) - want).max() < 1e-12
        ex = build_examples(corpus, "TopK", "test", n_neg=4, seed=1)[0]
        want = []
        for cand in ex.candidate_set:
            title = corpus.vocab.encode(corpus.catalog[cand], bos=False)
            logits = full_logits(ex, cand, title)[: len(title)]
            logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            want.append(logp[np.arange(len(title)), title].mean())
        _cands, got = ev.candidate_scores(model, corpus, cf, ex)
        assert np.abs(got - np.asarray(want)).max() < 1e-12

    def test_boosted_answer_becomes_argmax(self, setup, monkeypatch):
        corpus, cf, model = setup
        ex = build_examples(corpus, "RP", "test", seed=1)[0]
        target = corpus.vocab.index["4"]
        real_forward = ev.lmmod.forward

        def boosted(embs, task, params, bank, cfg, read=None):
            logits = real_forward(embs, task, params, bank, cfg, read=read)
            bumped = logits.data.copy()
            bumped[:, target] += 10.0
            return Tensor(bumped)

        monkeypatch.setattr(ev.lmmod, "forward", boosted)
        dist = ev.answer_distribution(model, corpus, cf, ex, ev.RATING_ANSWERS)
        assert int(dist.argmax()) == 3

    def test_topk_prompt_encoded_and_user_mapped_once(self, setup, monkeypatch):
        corpus, cf, model = setup
        ex = build_examples(corpus, "TopK", "test", n_neg=4, seed=1)[0]
        calls = {"render": 0, "user": 0, "item": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(tr, "render_prompt", counting("render", tr.render_prompt))
        monkeypatch.setattr(model.fusion, "map_user", counting("user", model.fusion.map_user))
        monkeypatch.setattr(model.fusion, "map_item", counting("item", model.fusion.map_item))
        cand_ids, _scores = ev.candidate_scores(model, corpus, cf, ex)
        assert len(cand_ids) == 5
        # the five candidates go in packs of 4 + 1, with one map_item call each
        assert calls == {"render": 1, "user": 1, "item": 2}

    def test_missing_answer_token_rejected(self, setup):
        corpus, cf, model = setup
        ex = build_examples(corpus, "RP", "test", seed=1)[0]
        with pytest.raises(ContractError):
            ev.answer_distribution(model, corpus, cf, ex, ("definitely-not-a-token",))


class TestPackedScoring:
    """candidate_scores runs a TopK example's candidates ev.TOPK_PACK to a
    decoder pass; each score must be the one a pass over that candidate's
    sequence alone gives."""

    N_NEG = 10  # 11 candidates: packs of 4 + 4 + 3

    @pytest.fixture(scope="class")
    def ragged(self):
        interactions, catalog = two_genre_data(n_users=12, n_items=20, per_user=8, seed=21)
        # titles of 3, 4 and 5 tokens, so a pack's sequences differ in length
        catalog = {v: title + " sequel" * (v % 3) for v, title in catalog.items()}
        corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0, seed=2))
        rng = np.random.default_rng(3)
        cf = CfEmbeddings(rng.normal(size=(len(corpus.user_ids), 6)), rng.normal(size=(len(corpus.item_ids), 6)))
        lm_cfg = LmConfig(n_layers=2, n_heads=2, d_model=8, vocab_size=len(corpus.vocab), max_len=160, rank=2)
        examples = build_examples(corpus, "TopK", "test", n_neg=self.N_NEG, seed=1)[:3]
        for ex in examples:
            lengths = [len(corpus.vocab.encode(corpus.catalog[c], bos=False)) for c in ex.candidate_set]
            packs = [lengths[i : i + ev.TOPK_PACK] for i in range(0, len(lengths), ev.TOPK_PACK)]
            assert [len(p) for p in packs] == [4, 4, 3]
            assert any(len(set(p)) > 1 for p in packs)
        return corpus, cf, lm_cfg, examples

    @staticmethod
    def one_pass_per_candidate(model, corpus, cf, ex):
        enc = tr.encode_prompt(ex, corpus, model.uses_collab_prompt())
        want = []
        for cand in ex.candidate_set:
            title = corpus.vocab.encode(corpus.catalog[cand], bos=False)
            embs = tr.embed(model, [enc.seq[: enc.n_prompt] + title], [enc.positions], tr.cf_rows(ex, corpus, cf, [cand]))
            logits = ev.lmmod.forward(embs, ex.task, model.params, model.bank, model.lm_cfg).data[enc.n_prompt - 1 : -1]
            m = logits.max(axis=1, keepdims=True)
            logp = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
            want.append(logp[np.arange(len(title)), title].mean())
        return np.asarray(want)

    @pytest.mark.parametrize("variant", ["CKF", "NPM", "NCK"])
    def test_packed_scores_equal_one_pass_per_candidate(self, ragged, variant):
        corpus, cf, lm_cfg, examples = ragged
        # non-zero adapter and fusion weights, so they take part
        model = RecModel(lm_cfg, variant, corpus.tasks, 6, 4, seed=6)
        rng = np.random.default_rng(7)
        for _name, param in sorted(model.trainable().items()):
            param.data = rng.normal(0.0, 0.1, size=param.data.shape)
        for ex in examples:
            cand_ids, got = ev.candidate_scores(model, corpus, cf, ex)
            assert cand_ids == list(ex.candidate_set)
            assert got.dtype == np.float64
            assert np.abs(got - self.one_pass_per_candidate(model, corpus, cf, ex)).max() < 1e-12

    def test_f32_model_from_train_agrees_with_one_pass_per_candidate(self, ragged):
        corpus, cf, lm_cfg, examples = ragged
        cfg = tr.TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=11, n_neg=3, tasks=("TopK",))
        model = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4).model
        # one epoch barely moves the adapters and meta-networks from their
        # start; larger f32 weights make sure they take part
        rng = np.random.default_rng(8)
        for _name, param in sorted(model.trainable().items()):
            param.data = rng.normal(0.0, 0.1, size=param.data.shape).astype(np.float32)
        for ex in examples:
            _cands, got = ev.candidate_scores(model, corpus, cf, ex)
            assert got.dtype == np.float32
            assert np.abs(got - self.one_pass_per_candidate(model, corpus, cf, ex)).max() < 1e-5


class TestPredictors:
    def test_predict_rating_one_hot(self):
        assert ev.predict_rating(np.array([0.0, 0.0, 0.0, 1.0, 0.0])) == 4.0

    def test_predict_rating_uniform(self):
        assert ev.predict_rating(np.full(5, 0.2)) == pytest.approx(3.0)

    def test_predict_rating_split_mass(self):
        assert ev.predict_rating(np.array([0.0, 0.0, 0.5, 0.5, 0.0])) == pytest.approx(3.5)

    def test_predict_click(self):
        assert ev.predict_click(np.array([1.0, 0.0])) == 1.0
        assert ev.predict_click(np.array([0.5, 0.5])) == 0.5
        assert ev.predict_click(np.array([0.2, 0.8])) == pytest.approx(0.2)


def brute_force_auc(scores, labels):
    wins = ties = 0
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert ev.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_two_pair_hand_count(self):
        assert ev.auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_all_ties(self):
        assert ev.auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ev.MetricError):
            ev.auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ev.MetricError, match="non-finite"):
            ev.auc([0.1, bad, 0.2, 0.3], [1, 0, 0, 1])

    def test_signed_zeros_tie(self):
        assert ev.auc([0.0, -0.0], [1, 0]) == 0.5

    def test_matches_brute_force_exactly(self):
        rng = SplitMix64(99)
        checked = 0
        while checked < 200:
            n = 2 + rng.randbelow(29)
            labels = [rng.randbelow(2) for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            # coarse score grid forces plenty of exact ties
            scores = [rng.randbelow(6) / 5.0 for _ in range(n)]
            assert ev.auc(scores, labels) == brute_force_auc(scores, labels)
            checked += 1


# (score, label) with scores on a coarse grid, so exact ties are common
_PAIR = st.tuples(st.integers(0, 4).map(lambda s: s / 4.0), st.integers(0, 1))


class TestAucProperties:
    @given(st.lists(_PAIR, min_size=2, max_size=30).filter(lambda pairs: len({label for _, label in pairs}) == 2))
    def test_auc_equals_pair_counting(self, pairs):
        scores, labels = [s for s, _ in pairs], [label for _, label in pairs]
        assert ev.auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    @given(st.lists(st.lists(_PAIR, min_size=1, max_size=8), min_size=1, max_size=6))
    def test_u_auc_is_the_mean_over_two_class_users(self, users):
        per_user = {u: ([s for s, _ in pairs], [label for _, label in pairs]) for u, pairs in enumerate(users)}
        both = [brute_force_auc(*per_user[u]) for u in per_user if len(set(per_user[u][1])) == 2]
        if not both:
            with pytest.raises(ev.MetricError):
                ev.u_auc(per_user)
        else:
            assert ev.u_auc(per_user) == pytest.approx(sum(both) / len(both), abs=1e-12)


class TestUAuc:
    def test_every_user_perfect(self):
        per_user = {u: ([0.9, 0.1], [1, 0]) for u in range(4)}
        assert ev.u_auc(per_user) == 1.0

    def test_mean_of_extremes(self):
        per_user = {0: ([0.9, 0.1], [1, 0]), 1: ([0.1, 0.9], [1, 0])}
        assert ev.u_auc(per_user) == 0.5

    def test_single_user_equals_pooled(self):
        scores = [0.3, 0.9, 0.4, 0.2]
        labels = [0, 1, 1, 0]
        assert ev.u_auc({7: (scores, labels)}) == ev.auc(scores, labels)

    def test_single_class_users_skipped(self):
        per_user = {0: ([0.9], [1]), 1: ([0.8, 0.1], [1, 0])}
        assert ev.u_auc(per_user) == 1.0
        with pytest.raises(ev.MetricError):
            ev.u_auc({0: ([0.9], [1])})


class TestHitAt1:
    def test_truth_always_top(self):
        entries = [([1, 2, 3], np.array([0.9, 0.5, 0.1]), 1)] * 5
        assert ev.hit_at_1(entries) == 1.0

    def test_tie_with_smaller_id_counts_as_miss(self):
        entries = [([5, 9], np.array([0.7, 0.7]), 9)]
        assert ev.hit_at_1(entries) == 0.0
        entries = [([5, 9], np.array([0.7, 0.7]), 5)]
        assert ev.hit_at_1(entries) == 1.0

    def test_random_scorer_near_one_over_candidates(self):
        rng = SplitMix64(4242)
        trials = 2000
        hits = 0
        for _ in range(trials):
            cands = list(range(11))
            scores = np.array([rng.random() for _ in cands])
            hits += ev.hit_at_1([(cands, scores, 0)])
        p = 1.0 / 11.0
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) < 3 * sigma

    def test_truth_missing_rejected(self):
        with pytest.raises(ContractError):
            ev.hit_at_1([([1, 2], np.array([0.5, 0.4]), 3)])


class TestRegressionMetrics:
    def test_exact_predictions(self):
        assert ev.regression_metrics([1, 2, 3], [1, 2, 3]) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        mae, mse = ev.regression_metrics([3, 3], [1, 5])
        assert mae == 2.0 and mse == 4.0

    def test_mse_dominates_mae_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            preds = rng.normal(size=9)
            truths = rng.normal(size=9)
            mae, mse = ev.regression_metrics(preds, truths)
            assert mse >= mae**2 - 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ev.regression_metrics([1.0], [1.0, 2.0])


class TestGar:
    def test_mean_prediction(self):
        assert ev.GarBaseline([5, 3, 4]).prediction == 4.0

    def test_constant_corpus_gives_zero_mae(self):
        gar = ev.GarBaseline([3, 3, 3])
        mae, mse = ev.regression_metrics(gar.predict(4), [3, 3, 3, 3])
        assert mae == 0.0 and mse == 0.0

    def test_mse_equals_variance_plus_shift(self):
        rng = SplitMix64(7)
        train = [1 + rng.randbelow(5) for _ in range(50)]
        test = [1 + rng.randbelow(5) for _ in range(40)]
        gar = ev.GarBaseline(train)
        _mae, mse = ev.regression_metrics(gar.predict(len(test)), test)
        test_arr = np.asarray(test, dtype=float)
        expected = test_arr.var() + (test_arr.mean() - gar.prediction) ** 2
        assert mse == pytest.approx(expected, rel=1e-12)


class TestEvaluateModel:
    def test_report_shape_and_ranges(self, setup):
        corpus, cf, model = setup
        report = ev.evaluate_model(model, corpus, cf, n_neg=5, seed=3)
        for task in corpus.tasks:
            assert task in report["tasks"]
        assert report["tasks"]["RP"]["mae"] >= 0.0
        assert 0.0 <= report["tasks"]["CTR"]["auc"] <= 1.0
        assert 0.0 <= report["tasks"]["TopK"]["hit1_easy"] <= 1.0
        assert 0.0 <= report["tasks"]["TopK"]["hit1_hard"] <= 1.0

    def test_evaluation_is_read_only(self, setup):
        corpus, cf, model = setup

        def digest():
            h = hashlib.sha256()
            for name in sorted(model.named_parameters()):
                h.update(model.named_parameters()[name].data.tobytes())
            return h.hexdigest()

        before = digest()
        ev.evaluate_model(model, corpus, cf, n_neg=5, seed=3)
        assert digest() == before

    def test_untrained_model_ctr_auc_near_half(self):
        # 250 users -> 500 CTR test examples; an untrained model must sit
        # within the 3-sigma null band around AUC 0.5
        interactions, catalog = two_genre_data(n_users=250, n_items=40, per_user=6, seed=99, with_comments=False)
        corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0, seed=4))
        rng = np.random.default_rng(11)
        cf = CfEmbeddings(
            rng.normal(size=(len(corpus.user_ids), 6)), rng.normal(size=(len(corpus.item_ids), 6))
        )
        lm_cfg = LmConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=len(corpus.vocab), max_len=96, rank=2)
        model = RecModel(lm_cfg, "CKF", ("CTR",), 6, 4, seed=31)
        report = ev.evaluate_model(model, corpus, cf, tasks=("CTR",), n_neg=3, seed=4)
        n_pos = report["tasks"]["CTR"]["count"] // 2
        assert report["tasks"]["CTR"]["count"] >= 500
        sigma = np.sqrt((2 * n_pos + 1) / (12.0 * n_pos * n_pos))
        assert abs(report["tasks"]["CTR"]["auc"] - 0.5) < 3 * sigma

    def test_metrics_order_invariant(self):
        rng = SplitMix64(17)
        n = 30
        scores = [rng.random() for _ in range(n)]
        labels = [rng.randbelow(2) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        perm = list(range(n))
        rng.shuffle(perm)
        assert ev.auc(scores, labels) == ev.auc([scores[i] for i in perm], [labels[i] for i in perm])
        preds = [rng.random() for _ in range(n)]
        truths = [rng.random() for _ in range(n)]
        base = ev.regression_metrics(preds, truths)
        permuted = ev.regression_metrics([preds[i] for i in perm], [truths[i] for i in perm])
        # summation order may shift the last ulp; anything larger is an order dependence
        assert base == pytest.approx(permuted, abs=1e-12)
