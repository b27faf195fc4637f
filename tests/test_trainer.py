import dataclasses
import gc
import itertools
import math
import os

import numpy as np
import pytest

from fuserec import checkpoint as ckpt
from fuserec import corpus as cp
from fuserec import evaluate as ev
from fuserec import fusion as fz
from fuserec import lm as lmmod
from fuserec import numerics as nm
from fuserec import trainer as tr
from fuserec.collab import CfTrainConfig, train_cf
from fuserec.corpus import SplitSpec, build_corpus, build_examples
from fuserec.lm import LmConfig
from fuserec.numerics import ContractError, Tensor
from fuserec.optim import AdamW
from fuserec.trainer import BetaSchedule, RecModel, TrainConfig, batch_loss, beta, prepare_example

from gradcheck import finite_diff_check
from synthdata import two_genre_data


@pytest.fixture(scope="module")
def world():
    interactions, catalog = two_genre_data(n_users=10, n_items=20, per_user=8, seed=31)
    corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0, seed=4))
    cf_cfg = CfTrainConfig(d_cf=6, epochs=3, lr=0.05, batch_size=64, seed=9)
    cf, _ = train_cf(corpus.split.train, corpus.user_index, corpus.item_index, cf_cfg)
    lm_cfg = LmConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=len(corpus.vocab), max_len=96, rank=2)
    return corpus, cf, lm_cfg


def small_train_cfg(**kw):
    base = dict(lr=1e-3, weight_decay=1e-3, epochs=1, batch_size=4, seed=11, n_neg=3)
    base.update(kw)
    return TrainConfig(**base)


class TestBetaSchedule:
    def test_endpoint_is_exactly_half(self):
        sched = BetaSchedule(total_steps=1000, tau=0.125)
        assert beta(1000, sched) == 0.5

    def test_start_value_at_default_temperature(self):
        sched = BetaSchedule(total_steps=1000, tau=0.125)
        assert abs(beta(0, sched) - 1.0 / (1.0 + math.exp(-8.0))) < 1e-15
        assert abs(beta(0, sched) - 0.999665) < 1e-6

    def test_midpoint_at_half_temperature(self):
        sched = BetaSchedule(total_steps=1000, tau=0.5)
        assert abs(beta(500, sched) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12
        assert abs(beta(500, sched) - 0.7311) < 1e-4

    def test_strictly_decreasing_over_sampled_steps(self):
        sched = BetaSchedule(total_steps=1000, tau=0.125)
        values = [beta(i, sched) for i in range(0, 1001)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_bounds_checked(self):
        sched = BetaSchedule(total_steps=10)
        with pytest.raises(ContractError):
            beta(11, sched)
        with pytest.raises(ContractError):
            BetaSchedule(total_steps=10, tau=0.0)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_fixed_point(self):
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        before = p.data.copy()
        opt.step({"p": np.zeros((1, 2))})
        assert np.array_equal(p.data, before)

    def test_first_step_moves_by_learning_rate(self):
        p = Tensor(np.array([[0.0]]), requires_grad=True)
        lr = 1e-2
        opt = AdamW({"p": p}, lr=lr, weight_decay=0.0)
        opt.step({"p": np.ones((1, 1))})
        # bias-corrected m/sqrt(v) is exactly 1, so the move is lr/(1+eps)
        assert abs(-p.data[0, 0] - lr) < 1e-8 * lr * 10

    def test_decoupled_decay_shrinks_parameters(self):
        p = Tensor(np.array([[2.0]]), requires_grad=True)
        lr, wd = 0.1, 0.5
        opt = AdamW({"p": p}, lr=lr, weight_decay=wd)
        opt.step({"p": np.zeros((1, 1))})
        assert p.data[0, 0] == pytest.approx(2.0 * (1 - lr * wd))
        opt.step({"p": np.zeros((1, 1))})
        assert p.data[0, 0] == pytest.approx(2.0 * (1 - lr * wd) ** 2)

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        opt = AdamW({"fusion.w": p}, lr=0.1)
        with pytest.raises(nm.NumericError, match="fusion.w"):
            opt.step({"fusion.w": np.array([[np.nan]])})


def make_batch(world, task, variant="CKF", n=4):
    corpus, cf, lm_cfg = world
    model = RecModel(lm_cfg, variant, corpus.tasks if variant != "S" else (task,), cf.d_cf, 4, seed=7)
    examples = build_examples(corpus, task, "train", n_neg=3, seed=13)[:n]
    batch = [prepare_example(ex, corpus, cf, model.uses_collab_prompt()) for ex in examples]
    return model, batch


class TestBatchLoss:
    def test_beta_one_reduces_to_text_loss(self, world):
        model, batch = make_batch(world, "RP")
        sched = BetaSchedule(total_steps=10)
        total, parts = batch_loss(batch, model, 0, sched, lambda_orth=1.0, beta_value=1.0)
        assert abs(total.item() - (parts["loss_t1"] + parts["loss_orth"])) < 1e-12

    def test_beta_zero_reduces_to_collab_loss(self, world):
        model, batch = make_batch(world, "RP")
        sched = BetaSchedule(total_steps=10)
        total, parts = batch_loss(batch, model, 0, sched, lambda_orth=1.0, beta_value=0.0)
        assert abs(total.item() - (parts["loss_t2"] + parts["loss_orth"])) < 1e-12

    def test_loss_finite_positive_at_random_init(self, world):
        for task in ("RP", "CTR", "TopK", "Explain"):
            model, batch = make_batch(world, task)
            sched = BetaSchedule(total_steps=10)
            total, parts = batch_loss(batch, model, 3, sched, lambda_orth=1.0)
            assert np.isfinite(total.item()) and total.item() > 0.0
            assert 0.0 < parts["beta"] <= 1.0

    def test_mixed_task_batch_rejected(self, world):
        model, rp = make_batch(world, "RP")
        _, ctr = make_batch(world, "CTR")
        with pytest.raises(ContractError):
            batch_loss([rp[0], ctr[0]], model, 0, BetaSchedule(total_steps=5), 1.0)

    def test_masked_targets_do_not_matter(self, world):
        model, batch = make_batch(world, "RP", n=1)
        sched = BetaSchedule(total_steps=10)
        base, _ = batch_loss(batch, model, 0, sched, 1.0)
        prep = batch[0]
        for enc in (prep.plain, prep.collab):
            for t in range(len(enc.targets)):
                if t not in enc.answer_pos:
                    enc.targets[t] = (enc.targets[t] + 5) % model.lm_cfg.vocab_size
        scrambled, _ = batch_loss(batch, model, 0, sched, 1.0)
        assert scrambled.item() == base.item()

    def test_prompt_tokens_do_matter(self, world):
        model, batch = make_batch(world, "RP", n=1)
        sched = BetaSchedule(total_steps=10)
        base, _ = batch_loss(batch, model, 0, sched, 1.0)
        batch[0].plain.seq[1] = (batch[0].plain.seq[1] + 3) % model.lm_cfg.vocab_size
        changed, _ = batch_loss(batch, model, 0, sched, 1.0)
        assert changed.item() != base.item()

    def test_gradients_match_finite_differences(self, world):
        corpus, _cf, _ = world
        # bounded CF entries keep gradient coordinates off the oracle's
        # round-off floor; the 5-point stencil tolerates the larger step
        rng = np.random.default_rng(1002)
        from fuserec.collab import CfEmbeddings

        def bounded(n, d):
            mag = rng.uniform(0.3, 1.0, size=(n, d))
            return mag * np.where(rng.random((n, d)) < 0.5, -1.0, 1.0)

        cf = CfEmbeddings(bounded(len(corpus.user_ids), 8), bounded(len(corpus.item_ids), 8))
        lm_cfg = LmConfig(n_layers=1, n_heads=2, d_model=16, vocab_size=len(corpus.vocab), max_len=96, rank=2)
        model = RecModel(lm_cfg, "CKF", ("RP", "CTR"), 8, 4, seed=2)
        # check at a generic point: the zero-B init zeroes out half the paths
        for _name, param in sorted(model.trainable().items()):
            param.data = rng.normal(0.0, 0.2, size=param.data.shape)
        examples = build_examples(corpus, "CTR", "train", n_neg=3, seed=13)[:1]
        batch = [prepare_example(ex, corpus, cf, True) for ex in examples]
        sched = BetaSchedule(total_steps=10)

        def loss_fn(_t):
            total, _ = batch_loss(batch, model, 2, sched, lambda_orth=1.0)
            return total

        worst = 0.0
        for name, param in sorted(model.trainable().items()):
            err = finite_diff_check(loss_fn, param, eps=6e-3, order=4)
            worst = max(worst, err)
            assert err < 1e-4, f"{name}: {err}"
        assert worst < 1e-4


def _pooled_by_rows(rows: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Each row attention-pooled over hist on its own: one numpy pass per row."""
    out = []
    for row in rows:
        scores = hist @ row
        weights = np.exp(scores - scores.max())
        out.append((weights / weights.sum()) @ hist)
    return np.array(out)


class TestCfRows:
    def test_topk_rows_match_per_row_pooling(self, world):
        corpus, cf, _ = world
        ex = next(e for e in build_examples(corpus, "TopK", "train", n_neg=3, seed=13) if len(e.history) > 1)
        rows = tr.cf_rows(ex, corpus, cf, ex.candidate_set)
        hist = cf.item_table[[corpus.item_index[h] for h in ex.history]]
        assert len(rows) == len(ex.candidate_set) == 4
        e_u = cf.user_table[corpus.user_index[ex.user_id]]
        items = cf.item_table[[corpus.item_index[v] for v in ex.candidate_set]]
        ref = _pooled_by_rows(np.vstack([e_u, items]), hist)
        for r, e_v, want_v in zip(rows, items, ref[1:]):
            assert np.array_equal(r.e_u, e_u) and np.array_equal(r.e_v, e_v)
            assert np.abs(r.pooled_u - ref[0]).max() < 1e-15
            assert np.abs(r.pooled_v - want_v).max() < 1e-15

    def test_example_without_history_pools_to_its_own_rows(self, world):
        corpus, cf, lm_cfg = world
        ex = dataclasses.replace(build_examples(corpus, "RP", "train", n_neg=3, seed=13)[0], history=())
        (rows,) = tr.cf_rows(ex, corpus, cf, [ex.candidate])
        assert np.array_equal(rows.pooled_u, rows.e_u)
        assert np.array_equal(rows.pooled_v, rows.e_v)
        model = RecModel(lm_cfg, "CKF", corpus.tasks, cf.d_cf, 4, seed=7)
        e_u = rows.e_u.reshape(1, -1)
        direct = fz.project(e_u, fz.generate_mapping(e_u, model.fusion.user_net))
        assert np.array_equal(tr.map_users(model, [rows]).data, direct.data)

    def test_batch_loss_pools_nothing(self, world, monkeypatch):
        model, batch = make_batch(world, "TopK")

        def refuse(*_args):
            raise AssertionError("attention_pool called after preparation")

        monkeypatch.setattr(fz, "attention_pool", refuse)
        total, _ = batch_loss(batch, model, 0, BetaSchedule(total_steps=10), lambda_orth=1.0, beta_value=0.5)
        assert np.isfinite(total.item())

    @pytest.mark.parametrize("variant", ["NPM", "NCK"])
    def test_fusion_without_meta_networks_pools_nothing(self, world, monkeypatch, variant):
        corpus, cf, lm_cfg = world

        def refuse(*_args):
            raise AssertionError(f"{variant} pooled CF rows it never reads")

        monkeypatch.setattr(fz, "attention_pool", refuse)
        result = tr.train(corpus, cf, lm_cfg, small_train_cfg(variant=variant, tasks=("RP", "TopK")), fusion_hidden=4)
        report = ev.evaluate_model(result.model, corpus, cf, n_neg=3, seed=5)
        assert result.steps > 0 and set(report["tasks"]) == {"RP", "TopK"}
        ex = build_examples(corpus, "RP", "train", n_neg=3, seed=13)[0]
        rows = prepare_example(ex, corpus, cf, True, result.model.reads_pooled_rows()).rows
        assert rows.pooled_u is rows.e_u and rows.pooled_v is rows.e_v


class TestPackedBatch:
    """One packed pass per prompt form gives what one pass per example gives."""

    @pytest.mark.parametrize("variant", ["CKF", "NCK", "NEN"])
    def test_batch_loss_is_the_mean_of_example_losses(self, world, variant):
        model, batch = make_batch(world, "TopK", variant=variant, n=5)
        rng = np.random.default_rng(40)
        for _name, param in sorted(model.trainable().items()):
            param.data = rng.normal(0.0, 0.1, size=param.data.shape)
        sched = BetaSchedule(total_steps=10)
        _total, packed = batch_loss(batch, model, 3, sched, 1.0, beta_value=0.3)
        singles = [batch_loss([p], model, 3, sched, 1.0, beta_value=0.3)[1] for p in batch]
        for key in ("loss_t1", "loss_t2", "total"):
            if packed[key] is None:
                assert all(one[key] is None for one in singles)
                continue
            assert abs(packed[key] - np.mean([one[key] for one in singles])) < 1e-12

    def test_batch_gradients_are_the_mean_of_example_gradients(self, world):
        model, batch = make_batch(world, "CTR", n=4)
        rng = np.random.default_rng(41)
        trainable = model.trainable()
        for _name, param in sorted(trainable.items()):
            param.data = rng.normal(0.0, 0.1, size=param.data.shape)
        sched = BetaSchedule(total_steps=10)

        def grads_of(examples):
            with nm.Tape() as tape:
                total, _ = batch_loss(examples, model, 3, sched, 1.0)
                grads = nm.backward(total, tape)
            return {n: nm.grad_of(grads, t) for n, t in trainable.items()}

        packed = grads_of(batch)
        singles = [grads_of([p]) for p in batch]
        for name in trainable:
            mean = np.mean([one[name] for one in singles], axis=0)
            assert np.abs(packed[name] - mean).max() < 1e-12, name

    @pytest.mark.parametrize("variant", ["CKF", "NCK", "NEN"])
    def test_read_rows_loss_and_gradients_equal_the_full_logits_loss(self, world, monkeypatch, variant):
        corpus, cf, lm_cfg = world
        # two layers, so one runs on every row and the last one on the read rows
        world2 = (corpus, cf, dataclasses.replace(lm_cfg, n_layers=2))
        model, batch = make_batch(world2, "TopK", variant=variant, n=5)
        rng = np.random.default_rng(42)
        trainable = model.trainable()
        for _name, param in sorted(trainable.items()):
            param.data = rng.normal(0.0, 0.1, size=param.data.shape)
        sched = BetaSchedule(total_steps=10)

        def loss_and_grads():
            with nm.Tape() as tape:
                total, _ = batch_loss(batch, model, 3, sched, 1.0, beta_value=0.3)
                grads = nm.backward(total, tape)
            return total.item(), {n: nm.grad_of(grads, t) for n, t in trainable.items()}

        def full_logits_pack_loss(model, task, encs, rows):
            embs = tr.embed(model, [e.seq for e in encs], [e.positions for e in encs], rows)
            lengths = [len(e.seq) for e in encs]
            logits = lmmod.forward(embs, task, model.params, model.bank, model.lm_cfg, lengths)
            assert logits.shape[0] == sum(lengths)
            starts = itertools.accumulate(lengths[:-1], initial=0)
            answers = nm.gather_rows(logits, [s + t for s, e in zip(starts, encs) for t in e.answer_pos])
            targets = [e.targets[t] for e in encs for t in e.answer_pos]
            return nm.cross_entropy(answers, targets, [len(e.answer_pos) for e in encs])

        read_loss, read_grads = loss_and_grads()
        monkeypatch.setattr(tr, "pack_loss", full_logits_pack_loss)
        full_loss, full_grads = loss_and_grads()
        assert abs(read_loss - full_loss) < 1e-12
        for name in trainable:
            assert np.abs(read_grads[name] - full_grads[name]).max() < 1e-12, name


class TestVariantDispatch:
    MATRIX = {
        "CKF": ("personalized", "multi-lora", "curriculum"),
        "NCK": ("none", "multi-lora", "text-only"),
        "NPM": ("generic-shared", "multi-lora", "curriculum"),
        "TLM": ("generic-two", "multi-lora", "curriculum"),
        "NML": ("personalized", "single-shared", "curriculum"),
        "NEN": ("personalized", "multi-lora", "collab-only"),
        "S": ("personalized", "multi-lora", "curriculum"),
    }

    @pytest.mark.parametrize("variant", sorted(MATRIX))
    def test_dispatch_matrix(self, world, variant):
        corpus, cf, lm_cfg = world
        fusion_kind, bank_mode, loss_form = self.MATRIX[variant]
        tasks = ("CTR",) if variant == "S" else corpus.tasks
        model = RecModel(lm_cfg, variant, tasks, cf.d_cf, 4, seed=3)
        assert model.fusion.kind == fusion_kind
        assert model.bank.mode == bank_mode
        assert tr.VARIANTS[variant] == (fusion_kind, bank_mode, loss_form)

    def test_every_variant_covered(self):
        assert sorted(self.MATRIX) == sorted(tr.VARIANTS)

    def test_s_variant_requires_single_task(self):
        with pytest.raises(ContractError):
            TrainConfig(variant="S", tasks=("RP", "CTR"))
        TrainConfig(variant="S", tasks=("CTR",))

    def test_nck_loss_ignores_collab_terms(self, world):
        model, batch = make_batch(world, "RP", variant="NCK")
        total, parts = batch_loss(batch, model, 0, BetaSchedule(total_steps=5), 1.0)
        assert parts["loss_t2"] is None
        assert abs(total.item() - (parts["loss_t1"] + parts["loss_orth"])) < 1e-12

    def test_nen_loss_ignores_text_term(self, world):
        model, batch = make_batch(world, "RP", variant="NEN")
        total, parts = batch_loss(batch, model, 0, BetaSchedule(total_steps=5), 1.0)
        assert parts["loss_t1"] is None
        assert abs(total.item() - (parts["loss_t2"] + parts["loss_orth"])) < 1e-12


class TestTrainLoop:
    def test_single_task_step_isolates_query_adapters(self, world):
        corpus, cf, lm_cfg = world
        model = RecModel(lm_cfg, "CKF", corpus.tasks, cf.d_cf, 4, seed=23)
        examples = build_examples(corpus, "RP", "train", n_neg=3, seed=13)[:4]
        batch = [prepare_example(ex, corpus, cf, True) for ex in examples]
        trainable = model.trainable()
        before = {n: t.data.copy() for n, t in trainable.items()}
        opt = AdamW(trainable, lr=1e-3, weight_decay=0.0)
        # two steps: the first moves B off zero, the second reaches A as well
        for step in range(2):
            with nm.Tape() as tape:
                # lambda_orth=0 so only the RP path produces gradients
                total, _ = batch_loss(batch, model, step, BetaSchedule(total_steps=5), lambda_orth=0.0)
                grads = nm.backward(total, tape)
            opt.step({n: nm.grad_of(grads, t) for n, t in trainable.items()})
        rp_idx = model.tasks.index("RP")
        for name, t in trainable.items():
            changed = not np.array_equal(before[name], t.data)
            if name.startswith("lora.task"):
                assert changed == name.startswith(f"lora.task{rp_idx}."), name
            elif name.startswith(("lora.shared.", "fusion.")):
                assert changed, name

    def test_nck_never_calls_inject(self, world, monkeypatch):
        corpus, cf, lm_cfg = world
        calls = {"n": 0}
        real = fz.inject

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(fz, "inject", counting)
        cfg = small_train_cfg(variant="NCK", tasks=("RP", "CTR"))
        tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        assert calls["n"] == 0
        monkeypatch.setattr(fz, "inject", real)

    def test_s_variant_trains_one_adapter_set(self, world):
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(variant="S", tasks=("CTR",))
        result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        names = result.model.bank.named_parameters()
        assert all(".q." not in n or n.startswith("lora.task0.") for n in names if n.startswith("lora.task"))
        assert {rec["task"] for rec in result.log} == {"CTR"}
        assert result.model.bank.adapter_count() == lm_cfg.n_layers * 4

    def test_two_runs_bitwise_identical(self, world, tmp_path):
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP", "CTR"))
        frozen_before = cf.user_table.tobytes() + cf.item_table.tobytes()
        paths = []
        for run in ("a", "b"):
            result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
            path = tmp_path / f"model_{run}.ckpt"
            tr.to_checkpoint(result, cfg, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "model_a.ckpt.json").read_bytes() == (tmp_path / "model_b.ckpt.json").read_bytes()
        # the frozen CF tables are untouched by any downstream training
        assert cf.user_table.tobytes() + cf.item_table.tobytes() == frozen_before

    def test_log_schema_and_beta_decay(self, world):
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP", "CTR"), epochs=2)
        result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        assert result.steps == len(result.log)
        for rec in result.log:
            assert set(rec) == {"step", "task", "beta", "loss_t1", "loss_t2", "loss_orth", "total"}
        betas = [rec["beta"] for rec in result.log]
        assert betas[0] > betas[-1]
        assert len(result.valid_losses) == cfg.epochs

    def test_checkpoint_round_trip_preserves_model(self, world, tmp_path):
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP", "CTR"))
        result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        path = str(tmp_path / "model.ckpt")
        tr.to_checkpoint(result, cfg, path)
        loaded = tr.from_checkpoint(path)
        original = result.model.named_parameters()
        for name, t in loaded.named_parameters().items():
            assert np.array_equal(t.data, original[name].data), name
        assert loaded.variant == result.model.variant
        assert loaded.tasks == result.model.tasks

    def test_pretraining_freezes_backbone_after(self, world):
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP",), pretrain_steps=3, epochs=1)
        result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        for name, t in result.model.params.items():
            assert not t.requires_grad, name

    def test_fine_tuning_never_moves_the_backbone(self, world, monkeypatch):
        # weight decay reaches every tensor the fine-tune optimizer holds, so
        # the backbone must not be among them once pretraining has ended
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP", "CTR"), pretrain_steps=3, epochs=2, weight_decay=0.5)
        pretrain = tr._pretrain_backbone
        snapshots = []

        def pretrain_then_snapshot(model, pool, pcfg):
            before = {n: t.data.copy() for n, t in model.params.items()}
            pretrain(model, pool, pcfg)
            snapshots.append((before, {n: t.data.copy() for n, t in model.named_parameters().items()}))

        monkeypatch.setattr(tr, "_pretrain_backbone", pretrain_then_snapshot)
        result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        (initial, pretrained), = snapshots
        assert any(not np.array_equal(initial[n], pretrained[n]) for n in initial)
        final = result.model.named_parameters()
        assert result.steps > 0
        for name, t in final.items():
            if name.startswith("lm."):
                assert np.array_equal(t.data, pretrained[name]), name
        for prefix in ("lora.", "fusion."):
            assert any(not np.array_equal(t.data, pretrained[n]) for n, t in final.items() if n.startswith(prefix)), prefix

    def test_collector_paused_without_leaving_cyclic_garbage(self, world):
        # train pauses the cyclic collector, so reference counting alone must
        # free what its steps allocate, and the collector's state comes back
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP", "CTR"), pretrain_steps=2, epochs=2)
        assert gc.isenabled()
        tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        assert gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
            assert not gc.isenabled()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_explain_without_comments_rejected(self):
        interactions, catalog = two_genre_data(n_users=8, n_items=20, per_user=6, seed=3, with_comments=False)
        corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0))
        rng = np.random.default_rng(0)
        from fuserec.collab import CfEmbeddings

        cf = CfEmbeddings(rng.normal(size=(len(corpus.user_ids), 4)), rng.normal(size=(len(corpus.item_ids), 4)))
        lm_cfg = LmConfig(n_layers=1, n_heads=1, d_model=4, vocab_size=len(corpus.vocab), max_len=96, rank=1)
        with pytest.raises(cp.CorpusError, match="Explain task requires comment data"):
            tr.train(corpus, cf, lm_cfg, small_train_cfg(tasks=("Explain",)), fusion_hidden=2)


class TestPrecision:
    """train makes its model f32, checkpoints store it as it is, and a model
    built by hand (as the checks build theirs) stays f64."""

    @pytest.fixture
    def f64_ops(self, monkeypatch):
        """Names of the ops whose result or input gradient comes out f64."""
        found = []
        real = nm._op

        def watched(name, inputs, value, backward):
            if np.asarray(value).dtype == np.float64:
                found.append(f"{name} forward")

            def watched_backward(g):
                grads = backward(g)
                found.extend(f"{name} backward" for gin in grads if gin is not None and gin.dtype == np.float64)
                return grads

            return real(name, inputs, value, watched_backward)

        monkeypatch.setattr(nm, "_op", watched)
        return found

    @pytest.mark.parametrize("variant", sorted(tr.VARIANTS))
    def test_train_and_evaluate_compute_in_f32(self, world, f64_ops, variant):
        corpus, cf, lm_cfg = world
        tasks = ("CTR",) if variant == "S" else corpus.tasks
        cfg = small_train_cfg(variant=variant, tasks=tasks, pretrain_steps=2)
        result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        ev.evaluate_model(result.model, corpus, cf, n_neg=3, seed=5)
        assert result.steps > 0
        assert sorted(set(f64_ops)) == []

    def test_checkpoint_stores_and_serves_f32(self, world, tmp_path):
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP", "CTR"))
        result = tr.train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        path = str(tmp_path / "model.ckpt")
        tr.to_checkpoint(result, cfg, path)
        # load_tensors reads dtype code 1 as f32 and code 0 as f64
        assert {a.dtype for a in ckpt.load_tensors(path).values()} == {np.dtype(np.float32)}
        loaded = tr.from_checkpoint(path)
        assert {t.data.dtype for t in loaded.named_parameters().values()} == {np.dtype(np.float32)}
        want = ev.evaluate_model(result.model, corpus, cf, n_neg=3, seed=5)
        assert ev.evaluate_model(loaded, corpus, cf, n_neg=3, seed=5) == want

    def test_f64_checkpoint_still_loads_and_evaluates(self, world, tmp_path):
        corpus, cf, lm_cfg = world
        cfg = small_train_cfg(tasks=("RP", "CTR"))
        model = RecModel(lm_cfg, cfg.variant, cfg.tasks, cf.d_cf, 4, seed=5)
        rng = np.random.default_rng(6)
        for _name, param in sorted(model.trainable().items()):
            param.data = rng.normal(0.0, 0.1, size=param.data.shape)
        path = str(tmp_path / "model.ckpt")
        tr.to_checkpoint(tr.TrainResult(model=model), cfg, path)
        assert {a.dtype for a in ckpt.load_tensors(path).values()} == {np.dtype(np.float64)}
        loaded = tr.from_checkpoint(path)
        assert {t.data.dtype for t in loaded.named_parameters().values()} == {np.dtype(np.float64)}
        want = ev.evaluate_model(model, corpus, cf, n_neg=3, seed=5)
        assert ev.evaluate_model(loaded, corpus, cf, n_neg=3, seed=5) == want
