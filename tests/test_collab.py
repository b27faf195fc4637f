import numpy as np
import pytest

from fuserec import numerics as nm
from fuserec.collab import CfEmbeddings, CfTrainConfig, batch_loss, score_batch, train_cf
from fuserec.corpus import Interaction
from fuserec.numerics import Tensor
from fuserec.prng import SplitMix64

from gradcheck import finite_diff_check


def block_fixture():
    """Two disjoint user/item blocks: users 0-9 with items 0-9, users 10-19
    with items 10-19."""
    data = []
    for u in range(10):
        for t, v in enumerate(range(10)):
            data.append(Interaction(u, v, 5, t))
    for u in range(10, 20):
        for t, v in enumerate(range(10, 20)):
            data.append(Interaction(u, v, 5, t))
    return data


def dense_maps(data):
    users = sorted({it.user_id for it in data})
    items = sorted({it.item_id for it in data})
    return {u: i for i, u in enumerate(users)}, {v: i for i, v in enumerate(items)}


def block_dots(embs):
    within, cross = [], []
    for u in range(20):
        for v in range(20):
            dot = float(embs.user_table[u] @ embs.item_table[v])
            same = (u < 10) == (v < 10)
            (within if same else cross).append(dot)
    return np.mean(within), np.mean(cross)


@pytest.fixture(scope="module")
def trained_mf():
    data = block_fixture()
    ui, vi = dense_maps(data)
    cfg = CfTrainConfig(backend="MF", d_cf=16, lr=0.05, epochs=12, batch_size=64, seed=3)
    return train_cf(data, ui, vi, cfg)


class TestTrainCf:
    def test_blocks_separate(self, trained_mf):
        embs, _losses = trained_mf
        within, cross = block_dots(embs)
        assert within > cross

    def test_loss_decreases_over_epochs(self, trained_mf):
        _embs, losses = trained_mf
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_default_output_shapes(self):
        data = block_fixture()
        ui, vi = dense_maps(data)
        cfg = CfTrainConfig(epochs=1, seed=0)  # defaults: d_cf 64
        embs, _ = train_cf(data, ui, vi, cfg)
        assert embs.user_table.shape == (20, 64)
        assert embs.item_table.shape == (20, 64)

    def test_same_seed_bitwise_identical(self):
        data = block_fixture()
        ui, vi = dense_maps(data)
        cfg = CfTrainConfig(d_cf=8, epochs=2, seed=42)
        a, _ = train_cf(data, ui, vi, cfg)
        b, _ = train_cf(data, ui, vi, cfg)
        assert np.array_equal(a.user_table, b.user_table)
        assert np.array_equal(a.item_table, b.item_table)

    def test_rating_mse_objective(self):
        data = block_fixture()
        ui, vi = dense_maps(data)
        cfg = CfTrainConfig(objective="rating-mse", d_cf=8, lr=0.05, epochs=10, seed=1)
        embs, losses = train_cf(data, ui, vi, cfg)
        assert losses[-1] < losses[0]
        # all observed ratings are 5; scores start near 0 and must drift upward
        scores = [float(embs.user_table[u] @ embs.item_table[v]) for u in range(3) for v in range(3)]
        assert np.mean(scores) > 0.8

    def test_seqattn_backend_separates(self):
        data = block_fixture()
        ui, vi = dense_maps(data)
        cfg = CfTrainConfig(backend="SeqAttn", d_cf=8, lr=0.05, epochs=6, batch_size=64, seed=7)
        embs, losses = train_cf(data, ui, vi, cfg)
        within, cross = block_dots(embs)
        assert within > cross
        assert losses[-1] < losses[0]

    def test_seqattn_first_epoch_loss_matches_numpy_replay(self):
        # one batch per epoch, so epoch 1's loss is the loss of the initial
        # tables; each sampled negative pools its positive's history, and a
        # repeated item keeps the history of each of its events
        data = [Interaction(u, (3 * u + t) % 9, 4, t) for u in range(3) for t in range(6)]
        data.append(Interaction(0, 0, 5, 9))
        ui, vi = dense_maps(data)
        cfg = CfTrainConfig(backend="SeqAttn", d_cf=4, epochs=1, batch_size=64, negatives_per_positive=2,
                            history_limit=3, seed=5)
        _embs, losses = train_cf(data, ui, vi, cfg)

        init = np.random.default_rng(cfg.seed)
        users = init.normal(0.0, 0.1, size=(len(ui), cfg.d_cf))
        items = init.normal(0.0, 0.1, size=(len(vi), cfg.d_cf))
        rng = SplitMix64(cfg.seed)
        order = list(range(len(data)))
        rng.shuffle(order)
        owned = {u: {vi[it.item_id] for it in data if it.user_id == u} for u in ui}
        pos_scores, neg_scores = [], []
        for i in order:
            it = data[i]
            u, v = ui[it.user_id], vi[it.item_id]
            prior = sorted((h.timestamp, vi[h.item_id]) for h in data if h.user_id == it.user_id and h.timestamp < it.timestamp)
            hist = items[[h for _t, h in prior][-cfg.history_limit :]]
            pooled = users[u]
            if len(hist):
                logits = hist @ users[u]
                alpha = np.exp(logits - logits.max())
                pooled = (alpha / alpha.sum()) @ hist
            pos_scores.append(users[u] @ items[v] + pooled @ items[v])
            for _ in range(cfg.negatives_per_positive):
                neg = rng.randbelow(len(vi))
                while neg in owned[it.user_id]:
                    neg = rng.randbelow(len(vi))
                neg_scores.append(users[u] @ items[neg] + pooled @ items[neg])
        s = np.asarray(pos_scores + neg_scores)
        y = np.asarray([1.0] * len(pos_scores) + [0.0] * len(neg_scores))
        expected = np.mean(np.logaddexp(0.0, s) - y * s)
        assert abs(losses[0] - expected) <= 1e-12 * abs(expected)

    def test_seqattn_batch_pools_through_one_attention_op(self, monkeypatch):
        data = block_fixture()
        ui, vi = dense_maps(data)
        recorded = []
        real_backward = nm.backward

        def spy(loss, tape=None):
            recorded.append([name for name, *_rest in tape.records])
            return real_backward(loss, tape)

        monkeypatch.setattr(nm, "backward", spy)
        train_cf(data, ui, vi, CfTrainConfig(backend="SeqAttn", d_cf=4, epochs=1, batch_size=64, seed=7))
        assert len(recorded) == 4  # 200 events in batches of 64
        for names in recorded:
            assert names.count("causal_attention") == 1
            assert "softmax" not in names
        # no op per positive: the last batch holds 8 positives, the others 64
        assert len({len(names) for names in recorded}) == 1

    # positives 0-2 with one sampled negative each for positives 0 and 2:
    # positive 1 has no history and positive 2's history repeats item 3
    US, VS, OWNERS = [0, 1, 2, 0, 2], [1, 2, 4, 3, 0], [0, 1, 2, 0, 2]
    HISTS = [[0, 2], [], [3, 1, 3]]

    def test_seqattn_bce_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        users, items = Tensor(rng.normal(0.0, 0.5, size=(3, 4))), Tensor(rng.normal(0.0, 0.5, size=(5, 4)))
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0])

        def loss(users_, items_):
            return batch_loss(score_batch(users_, items_, self.US, self.VS, self.OWNERS, self.HISTS), y, "implicit-bce")

        assert finite_diff_check(lambda t: loss(t, items), users) < 1e-5
        assert finite_diff_check(lambda t: loss(users, t), items) < 1e-5

    def test_positives_without_history_pool_to_their_user_rows(self):
        rng = np.random.default_rng(32)
        users, items = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
        s = score_batch(users, items, self.US, self.VS, self.OWNERS, [[], [], []]).data
        mf = score_batch(users, items, self.US, self.VS, self.OWNERS).data
        assert np.array_equal(mf, (users.data[self.US] * items.data[self.VS]).sum(axis=1))
        assert np.array_equal(s, 2.0 * mf)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            train_cf([], {}, {}, CfTrainConfig())

    def test_tables_frozen_after_training(self, trained_mf):
        embs, _ = trained_mf
        with pytest.raises(ValueError):
            embs.user_table[0, 0] = 99.0


class TestLookup:
    def test_lookup_matches_row(self, trained_mf):
        embs, _ = trained_mf
        assert np.array_equal(embs.lookup_user(0), embs.user_table[0])
        assert np.array_equal(embs.lookup_item(3), embs.item_table[3])

    def test_lookup_stable_across_calls(self, trained_mf):
        embs, _ = trained_mf
        a = embs.lookup_user(5).copy()
        _ = embs.lookup_item(2)
        assert np.array_equal(embs.lookup_user(5), a)

    def test_out_of_range_rejected(self, trained_mf):
        embs, _ = trained_mf
        with pytest.raises(IndexError):
            embs.lookup_user(20)
        with pytest.raises(IndexError):
            embs.lookup_item(-21)

    def test_cold_user_resolves_to_mean_row(self):
        data = [it for it in block_fixture() if it.user_id != 19]
        ui, vi = dense_maps(block_fixture())  # index space still has 20 users
        cfg = CfTrainConfig(d_cf=8, epochs=2, seed=5)
        embs, _ = train_cf(data, ui, vi, cfg)
        seen = [u for u in range(20) if u != 19]
        assert np.allclose(embs.lookup_user(19), embs.user_table[seen].mean(axis=0))


def brute_force_nearest(table, v, k):
    entries = []
    qn = np.linalg.norm(table[v])
    for i in range(table.shape[0]):
        if i == v:
            continue
        ni = np.linalg.norm(table[i])
        cos = float(table[i] @ table[v] / (ni * qn)) if ni > 0 and qn > 0 else -np.inf
        entries.append((-cos, i))
    entries.sort()
    return [i for _c, i in entries[:k]]


class TestNearestItems:
    def test_hand_fixture(self):
        embs = CfEmbeddings(np.zeros((1, 2)), np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]))
        assert embs.nearest_items(0, 1) == [1]

    def test_duplicate_row_ranks_first(self):
        table = np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0], [0.5, 0.5]])
        embs = CfEmbeddings(np.zeros((1, 2)), table)
        order = embs.nearest_items(0, 3)
        assert order[0] == 2  # identical direction, cosine 1.0

    def test_never_contains_query(self):
        rng = np.random.default_rng(0)
        embs = CfEmbeddings(np.zeros((1, 4)), rng.normal(size=(12, 4)))
        for v in range(12):
            assert v not in embs.nearest_items(v, 11)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            table = rng.normal(size=(9, 3))
            table[4] = table[1]  # force an exact tie pair
            if trial % 3 == 0:
                table[6] = 0.0  # zero-norm row
            embs = CfEmbeddings(np.zeros((1, 3)), table.copy())
            for v in range(9):
                assert embs.nearest_items(v, 8) == brute_force_nearest(table, v, 8)

    def test_k_must_be_below_item_count(self):
        embs = CfEmbeddings(np.zeros((1, 2)), np.eye(2))
        with pytest.raises(ValueError):
            embs.nearest_items(0, 2)
