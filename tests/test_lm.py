import numpy as np
import pytest

from fuserec import lm as lmmod
from fuserec import numerics as nm
from fuserec.lm import LmConfig, LoraAdapter, MultiLoraBank, lora_apply, orth_loss
from fuserec.numerics import ContractError, ShapeError, Tensor

from gradcheck import finite_diff_check

TASKS4 = ("RP", "CTR", "TopK", "Explain")


def tiny_cfg(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=8, vocab_size=30, max_len=32, rank=2)
    base.update(kw)
    return LmConfig(**base)


class TestLoraApply:
    def test_zero_b_equals_frozen_projection(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 6)))
        w = Tensor(rng.normal(size=(6, 6)))
        adapter = LoraAdapter(6, 3, rng)
        out_with = lora_apply(x, w, adapter)
        out_without = lora_apply(x, w, None)
        assert np.abs(out_with.data - out_without.data).max() == 0.0

    def test_hand_rank_one_product(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor(np.eye(2))
        adapter = LoraAdapter.__new__(LoraAdapter)
        adapter.A = Tensor([[1.0], [0.0]], requires_grad=True)
        adapter.B = Tensor([[0.0, 3.0]], requires_grad=True)
        # xW = [1,2]; xA = [1]; (xA)B = [0,3]; total [1,5]
        assert np.array_equal(lora_apply(x, w, adapter).data, [[1.0, 5.0]])

    def test_adapter_grads_flow_frozen_weight_does_not(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 4)))
        adapter = LoraAdapter(4, 2, rng)
        adapter.B = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        assert finite_diff_check(lambda _t: nm.tsum(lora_apply(x, w, adapter)), adapter.A) < 1e-5
        assert finite_diff_check(lambda _t: nm.tsum(lora_apply(x, w, adapter)), adapter.B) < 1e-5
        with nm.Tape() as tape:
            loss = nm.tsum(lora_apply(x, w, adapter))
            grads = nm.backward(loss, tape)
        assert w.node_id not in grads

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            lora_apply(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 4))), None)

    def test_merged_projection_equals_the_two_path_sum(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(9, 6)))
        w = Tensor(rng.normal(size=(6, 6)))
        adapter = LoraAdapter(6, 3, rng)
        adapter.B = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        want = x.data @ w.data + (x.data @ adapter.A.data) @ adapter.B.data
        assert np.abs(lora_apply(x, w, adapter).data - want).max() < 1e-12
        probe = Tensor(rng.normal(size=(9, 6)))

        def scalar(_t):
            return nm.tsum(nm.mul(lora_apply(x, w, adapter), probe))

        for t in (x, adapter.A, adapter.B):
            assert finite_diff_check(scalar, t) < 1e-6

    def test_one_row_sized_product(self, monkeypatch):
        """Only x @ (W + A B) has x's rows: the delta costs no row-sized op."""
        shapes = []
        real = nm._op

        def watched(name, inputs, value, backward):
            shapes.append((name, np.shape(value)))
            return real(name, inputs, value, backward)

        monkeypatch.setattr(nm, "_op", watched)
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(11, 6)), requires_grad=True)
        lora_apply(x, Tensor(rng.normal(size=(6, 6))), LoraAdapter(6, 3, rng))
        assert [name for name, shape in shapes if shape[0] == 11] == ["matmul"]
        assert len(shapes) == 3


class TestBankLayout:
    def test_multi_lora_adapter_counts(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(2)
        bank = MultiLoraBank(cfg, TASKS4, "multi-lora", rng)
        assert bank.adapter_count() == cfg.n_layers * (len(TASKS4) + 3)

    def test_per_task_full_adapter_counts(self):
        cfg = tiny_cfg()
        bank = MultiLoraBank(cfg, TASKS4, "per-task-full", np.random.default_rng(3))
        assert bank.adapter_count() == cfg.n_layers * len(TASKS4) * 4

    def test_single_shared_counts(self):
        cfg = tiny_cfg()
        bank = MultiLoraBank(cfg, TASKS4, "single-shared", np.random.default_rng(4))
        assert bank.adapter_count() == cfg.n_layers * 4

    def test_parameter_economy_ratio(self):
        cfg = tiny_cfg()
        multi = MultiLoraBank(cfg, TASKS4, "multi-lora", np.random.default_rng(5))
        full = MultiLoraBank(cfg, TASKS4, "per-task-full", np.random.default_rng(6))
        assert multi.parameter_count() * 16 == full.parameter_count() * 7

    def test_documented_parameter_arithmetic(self):
        cfg = tiny_cfg(n_layers=2, d_model=32, rank=4, n_heads=2)
        bank = MultiLoraBank(cfg, TASKS4, "multi-lora", np.random.default_rng(7))
        assert bank.parameter_count() == 2 * 7 * (2 * 32 * 4) == 3584

    def test_none_mode_has_no_parameters(self):
        bank = MultiLoraBank(tiny_cfg(), TASKS4, "none", np.random.default_rng(8))
        assert bank.parameter_count() == 0
        assert bank.adapter(0, "q", "RP") is None

    def test_query_dispatch_is_task_specific(self):
        bank = MultiLoraBank(tiny_cfg(), TASKS4, "multi-lora", np.random.default_rng(9))
        assert bank.adapter(0, "q", "RP") is not bank.adapter(0, "q", "CTR")
        assert bank.adapter(0, "k", "RP") is bank.adapter(0, "k", "CTR")

    def test_unknown_task_rejected(self):
        bank = MultiLoraBank(tiny_cfg(), ("RP",), "multi-lora", np.random.default_rng(10))
        with pytest.raises(ContractError):
            bank.adapter(0, "q", "CTR")

    @pytest.mark.parametrize("mode", lmmod.BANK_MODES)
    def test_each_adapter_is_named_under_its_owner(self, mode):
        cfg = tiny_cfg()
        tasks = TASKS4[:3]
        bank = MultiLoraBank(cfg, tasks, mode, np.random.default_rng(11))
        named = bank.named_parameters()
        reached = set()
        for layer in range(cfg.n_layers):
            for proj in lmmod.PROJS:
                for i, task in enumerate(tasks):
                    ad = bank.adapter(layer, proj, task)
                    if mode == "none":
                        assert ad is None
                        continue
                    owned = mode == "per-task-full" or (mode == "multi-lora" and proj == "q")
                    prefix = f"lora.{f'task{i}' if owned else 'shared'}.layer{layer}.{proj}"
                    assert ad.A is named[prefix + ".A"] and ad.B is named[prefix + ".B"]
                    reached |= {prefix + ".A", prefix + ".B"}
            assert bool(bank.task_query_adapters(layer)) == (mode in ("multi-lora", "per-task-full"))
        assert reached == set(named)
        with pytest.raises(ContractError):
            bank.adapter(0, "q", "Explain")


class TestOrthLoss:
    def build_bank(self, a_matrices, d=3, rank=2, layers=1):
        cfg = tiny_cfg(n_layers=layers, d_model=d if d % 2 == 0 else d + 1, rank=rank)
        tasks = TASKS4[: len(a_matrices)]
        bank = MultiLoraBank(cfg, tasks, "multi-lora", np.random.default_rng(0))
        for task, mat in zip(tasks, a_matrices):
            bank._adapters[(0, "q", task)].A = Tensor(np.asarray(mat, dtype=float), requires_grad=True)
        return bank

    def test_orthogonal_columns_give_zero(self):
        a1 = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        a2 = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        bank = self.build_bank([a1, a2], d=4)
        assert orth_loss(bank).item() == 0.0

    def test_hand_cross_gram_fixture(self):
        # gram = [[0,1],[1,0]] -> off-diagonal squares 2, both ordered pairs -> 4
        a1 = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        a2 = [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        bank = self.build_bank([a1, a2], d=4)
        assert orth_loss(bank).item() == 4.0

    def test_identical_orthonormal_matrices_give_zero(self):
        a = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        bank = self.build_bank([a, a], d=4)
        assert orth_loss(bank).item() == 0.0

    def test_single_task_returns_exact_zero(self):
        bank = MultiLoraBank(tiny_cfg(), ("CTR",), "multi-lora", np.random.default_rng(1))
        zero = orth_loss(bank)
        assert zero.item() == 0.0
        bank2 = MultiLoraBank(tiny_cfg(), TASKS4, "single-shared", np.random.default_rng(2))
        assert orth_loss(bank2).item() == 0.0

    def test_symmetric_under_task_relabeling(self):
        rng = np.random.default_rng(3)
        a1 = rng.normal(size=(4, 2))
        a2 = rng.normal(size=(4, 2))
        assert orth_loss(self.build_bank([a1, a2], d=4)).item() == pytest.approx(
            orth_loss(self.build_bank([a2, a1], d=4)).item(), abs=1e-12
        )

    def test_invariant_under_shared_column_permutation(self):
        rng = np.random.default_rng(4)
        a1 = rng.normal(size=(4, 3))
        a2 = rng.normal(size=(4, 3))
        perm = [2, 0, 1]
        before = orth_loss(self.build_bank([a1, a2], d=4, rank=3)).item()
        after = orth_loss(self.build_bank([a1[:, perm], a2[:, perm]], d=4, rank=3)).item()
        assert before == pytest.approx(after, rel=1e-12)

    def test_gradients_reach_only_a(self):
        bank = MultiLoraBank(tiny_cfg(n_layers=1), ("RP", "CTR"), "multi-lora", np.random.default_rng(5))
        with nm.Tape() as tape:
            loss = orth_loss(bank)
            grads = nm.backward(loss, tape)
        a_ids = {bank.adapter(0, "q", t).A.node_id for t in ("RP", "CTR")}
        b_ids = {bank.adapter(0, "q", t).B.node_id for t in ("RP", "CTR")}
        assert a_ids <= set(grads)
        assert not (b_ids & set(grads))

    @staticmethod
    def pairwise_loss(bank):
        """The loss as a loop over layers and ordered task pairs, one cross-Gram
        A1^T A2 each, its off-diagonal entries squared and summed."""
        total = 0.0
        for layer in range(bank.n_layers):
            ads = bank.task_query_adapters(layer)
            for t1, a1 in ads:
                for t2, a2 in ads:
                    if t1 != t2:
                        gram = a1.A.data.T @ a2.A.data
                        total += float(((gram * (1.0 - np.eye(gram.shape[0]))) ** 2).sum())
        return total

    @pytest.mark.parametrize("mode", ["multi-lora", "per-task-full"])
    @pytest.mark.parametrize("n_tasks", [2, 3])
    def test_one_gram_equals_the_pairwise_loop(self, mode, n_tasks):
        rng = np.random.default_rng(9)
        bank = MultiLoraBank(tiny_cfg(rank=3), TASKS4[:n_tasks], mode, rng)
        query_as = [ad.A for layer in range(2) for _t, ad in bank.task_query_adapters(layer)]
        assert len(query_as) == 2 * n_tasks
        for a in query_as:
            a.data = rng.normal(size=a.shape)
        assert orth_loss(bank).item() == pytest.approx(self.pairwise_loss(bank), rel=1e-12)
        for a in query_as:
            assert finite_diff_check(lambda _t: orth_loss(bank), a) < 1e-6

    def test_descent_reduces_loss_by_ninety_percent(self):
        rng = np.random.default_rng(6)
        bank = MultiLoraBank(tiny_cfg(n_layers=1, d_model=8, rank=2), ("RP", "CTR", "TopK"), "multi-lora", rng)
        adapters = [bank.adapter(0, "q", t) for t in ("RP", "CTR", "TopK")]
        for ad in adapters:
            ad.A = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        start = orth_loss(bank).item()
        lr = 0.005
        for _ in range(100):
            with nm.Tape() as tape:
                loss = orth_loss(bank)
                grads = nm.backward(loss, tape)
            for ad in adapters:
                ad.A.data -= lr * nm.grad_of(grads, ad.A)
        assert orth_loss(bank).item() <= 0.1 * start


def embed(rng, cfg, t_len):
    return Tensor(rng.normal(size=(t_len, cfg.d_model)))


class TestForward:
    def test_logits_shape(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(7)
        params = lmmod.init_backbone(cfg, rng)
        bank = MultiLoraBank(cfg, TASKS4, "multi-lora", rng)
        logits = lmmod.forward(embed(rng, cfg, 5), "RP", params, bank, cfg)
        assert logits.shape == (5, cfg.vocab_size)

    def test_singleton_attention_mode_none(self):
        cfg = tiny_cfg(n_layers=1, n_heads=1)
        rng = np.random.default_rng(8)
        params = lmmod.init_backbone(cfg, rng)
        bank = MultiLoraBank(cfg, TASKS4, "none", rng)
        x = embed(rng, cfg, 1)
        out = lmmod.mha_forward(x, "RP", 0, params, bank, cfg)
        expected = x.data @ params["lm.layer0.v"].data @ params["lm.layer0.o"].data
        assert np.abs(out.data - expected).max() == 0.0

    def test_attention_scales_the_queries(self):
        # one sequence, no adapters: each head is softmax(q kᵀ / sqrt(d_head)) v
        cfg = tiny_cfg(n_layers=1)
        rng = np.random.default_rng(16)
        params = lmmod.init_backbone(cfg, rng)
        for name in ("q", "k"):
            params[f"lm.layer0.{name}"].data = rng.normal(0.0, 0.5, size=(cfg.d_model, cfg.d_model))
        bank = MultiLoraBank(cfg, TASKS4, "none", rng)
        x = embed(rng, cfg, 5)
        q, k, v = (x.data @ params[f"lm.layer0.{name}"].data for name in "qkv")
        d_head = cfg.d_model // cfg.n_heads
        heads = []
        for h in range(cfg.n_heads):
            cols = slice(h * d_head, (h + 1) * d_head)
            scores = q[:, cols] @ k[:, cols].T / np.sqrt(d_head)
            scores[np.triu_indices(5, 1)] = -np.inf
            att = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append(att / att.sum(axis=1, keepdims=True) @ v[:, cols])
        want = np.concatenate(heads, axis=1) @ params["lm.layer0.o"].data
        out = lmmod.mha_forward(x, "RP", 0, params, bank, cfg).data
        assert np.abs(out - want).max() < 1e-12

    def test_zero_adapters_make_tasks_indistinguishable(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(9)
        params = lmmod.init_backbone(cfg, rng)
        bank = MultiLoraBank(cfg, TASKS4, "multi-lora", rng)  # B matrices start at zero
        x = embed(rng, cfg, 4)
        outs = [lmmod.forward(x, task, params, bank, cfg).data for task in TASKS4]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    def test_zero_adapter_forward_equals_backbone(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(10)
        params = lmmod.init_backbone(cfg, rng)
        multi = MultiLoraBank(cfg, TASKS4, "multi-lora", rng)
        none = MultiLoraBank(cfg, TASKS4, "none", rng)
        x = embed(rng, cfg, 6)
        for task in TASKS4:
            with_adapters = lmmod.forward(x, task, params, multi, cfg).data
            backbone = lmmod.forward(x, task, params, none, cfg).data
            assert np.abs(with_adapters - backbone).max() == 0.0

    def test_causal_masking_by_perturbation_sweep(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(11)
        params = lmmod.init_backbone(cfg, rng)
        bank = MultiLoraBank(cfg, TASKS4, "multi-lora", rng)
        x = rng.normal(size=(6, cfg.d_model))
        base = lmmod.forward(Tensor(x.copy()), "RP", params, bank, cfg).data
        for t in range(6):
            bumped = x.copy()
            bumped[t] += 0.25
            out = lmmod.forward(Tensor(bumped), "RP", params, bank, cfg).data
            delta = np.abs(out - base).max(axis=1)
            assert delta[:t].max(initial=0.0) == 0.0
            assert delta[t] > 0.0

    def test_sequence_longer_than_max_rejected(self):
        cfg = tiny_cfg(max_len=4)
        rng = np.random.default_rng(12)
        params = lmmod.init_backbone(cfg, rng)
        bank = MultiLoraBank(cfg, TASKS4, "none", rng)
        with pytest.raises(ContractError, match="exceeds max length"):
            lmmod.forward(embed(rng, cfg, 5), "RP", params, bank, cfg)


class TestPacking:
    LENGTHS = [5, 1, 7, 3]

    def setup_method(self):
        self.cfg = tiny_cfg(max_len=8)
        rng = np.random.default_rng(15)
        self.params = lmmod.init_backbone(self.cfg, rng)
        self.bank = MultiLoraBank(self.cfg, TASKS4, "multi-lora", rng)
        for ad in self.bank._adapters.values():  # non-zero deltas, so the adapters take part
            ad.B = Tensor(rng.normal(0.0, 0.1, size=ad.B.shape), requires_grad=True)
        self.x = rng.normal(size=(sum(self.LENGTHS), self.cfg.d_model))

    def forward(self, x, lengths=None):
        return lmmod.forward(Tensor(x), "CTR", self.params, self.bank, self.cfg, lengths).data

    def test_packed_rows_equal_per_sequence_passes(self):
        packed = self.forward(self.x, self.LENGTHS)
        start = 0
        for t_len in self.LENGTHS:
            alone = self.forward(self.x[start : start + t_len])
            assert np.abs(packed[start : start + t_len] - alone).max() < 1e-12
            start += t_len

    def test_read_rows_equal_the_selected_rows_of_the_full_pass(self):
        full = self.forward(self.x, self.LENGTHS)
        starts = np.cumsum([0, *self.LENGTHS[:-1]])
        for read in ([[4], [0], [6], [2]], [[0, 2, 4], [0], [1, 5, 6], [0, 1, 2]]):
            got = lmmod.forward(Tensor(self.x), "CTR", self.params, self.bank, self.cfg, self.LENGTHS, read).data
            rows = [s + t for s, positions in zip(starts, read) for t in positions]
            assert got.shape == (len(rows), self.cfg.vocab_size)
            assert np.abs(got - full[rows]).max() < 1e-12
        alone = self.x[:5]
        got = lmmod.forward(Tensor(alone), "CTR", self.params, self.bank, self.cfg, read=[[3, 4]]).data
        assert np.abs(got - self.forward(alone)[3:5]).max() < 1e-12

    def test_bumping_sequence_zero_leaves_the_others_bit_identical(self):
        base = self.forward(self.x, self.LENGTHS)
        first = self.LENGTHS[0]
        for row in range(first):
            bumped = self.x.copy()
            bumped[row] += 0.25
            out = self.forward(bumped, self.LENGTHS)
            assert np.array_equal(out[first:], base[first:])
            assert np.abs(out[row] - base[row]).max() > 0.0

    def test_max_len_applies_to_each_sequence_not_the_pack(self):
        assert sum(self.LENGTHS) > self.cfg.max_len
        assert self.forward(self.x, self.LENGTHS).shape == (sum(self.LENGTHS), self.cfg.vocab_size)
        with pytest.raises(ContractError, match="sequence of 9 exceeds max length 8"):
            self.forward(self.x, [5, 9, 2])

    def test_lengths_must_cover_the_rows(self):
        with pytest.raises(ContractError):
            self.forward(self.x, [5, 1, 7])


class TestLmConfig:
    def test_config_validation(self):
        with pytest.raises(ShapeError):
            tiny_cfg(d_model=9, n_heads=2)
        with pytest.raises(ShapeError):
            tiny_cfg(rank=0)
