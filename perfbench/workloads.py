"""The benchmark's three workloads.

Each workload builds its inputs from the seed (`setup`), runs one round of the
measured work (`run_round`) as often as the run lasts, and checks the
program's outputs afterwards (`check`). A round is always the same work for a
given seed, so every run attempts whole rounds of the same operations.

- finetune: `trainer.train`, variant CKF, tasks RP/CTR/TopK, no pretraining.
  Counted operation: fine-tune steps.
- score: `evaluate.evaluate_model` on the test split for RP, CTR and TopK
  (easy and hard candidates). Counted operation: scored prompts, one per
  forward pass, so one per TopK candidate.
- pipeline: the five CLI commands through `cli.main`, in process. Counted
  operation: CLI commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from fuserec import checkpoint as ckpt
from fuserec import cli
from fuserec import corpus as cp
from fuserec import evaluate as ev
from fuserec import lm as lmmod
from fuserec import trainer as tr
from fuserec.collab import CfTrainConfig, train_cf
from fuserec.lm import LmConfig
from synthdata import two_genre_data, write_jsonl

import oracles

LM_SHAPE = dict(n_layers=2, n_heads=2, d_model=32, d_ff=64, max_len=128, rank=4)
FUSION_HIDDEN = 8
N_NEG = 10
CF_DIM = 16


@dataclass
class Round:
    """Outcome of one round: operations attempted and failed, wall and CPU time,
    and whatever the checks need."""

    attempted: int
    failed: int
    wall_s: float
    cpu_s: float
    output: object = None
    extra: dict = field(default_factory=dict)


def _world(seed: int, n_users: int, per_user: int, n_items: int, comments: bool = False):
    interactions, catalog = two_genre_data(
        n_users=n_users, n_items=n_items, per_user=per_user, seed=seed, with_comments=comments
    )
    corpus = cp.build_corpus(cp.ParseResult(interactions, catalog, 0), cp.SplitSpec(k_core=0, seed=seed))
    cf, _losses = train_cf(
        corpus.split.train,
        corpus.user_index,
        corpus.item_index,
        CfTrainConfig(d_cf=CF_DIM, epochs=8, lr=0.05, batch_size=256, seed=seed),
    )
    return corpus, cf


def _timed(fn):
    """Run fn() and return (result, wall seconds, process CPU seconds)."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - w0, time.process_time() - c0


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


class Finetune:
    name = "finetune"
    n_users, per_user, n_items = 6, 20, 40
    tasks = ("RP", "CTR", "TopK")

    def setup(self, seed: int, workdir: str) -> dict:
        corpus, cf = _world(seed, self.n_users, self.per_user, self.n_items)
        lm_cfg = LmConfig(vocab_size=len(corpus.vocab), **LM_SHAPE)
        cfg = tr.TrainConfig(
            lr=1e-3, weight_decay=1e-3, epochs=1, batch_size=8, seed=seed, tasks=self.tasks, n_neg=N_NEG
        )
        return {"seed": seed, "corpus": corpus, "cf": cf, "lm_cfg": lm_cfg, "cfg": cfg}

    def run_round(self, s: dict, span) -> Round:
        result, wall, cpu = _timed(lambda: tr.train(s["corpus"], s["cf"], s["lm_cfg"], s["cfg"], fusion_hidden=FUSION_HIDDEN))
        return Round(result.steps, 0, wall, cpu, output=result)

    def check(self, s: dict, rounds: list[Round]) -> list[str]:
        corpus, cf, lm_cfg, cfg = s["corpus"], s["cf"], s["lm_cfg"], s["cfg"]
        first = rounds[0].output
        problems = []
        if any(r.output.log != first.log for r in rounds[1:]):
            problems.append("finetune: identical rounds logged different losses")
        pools = {t: cp.build_examples(corpus, t, "train", n_neg=cfg.n_neg, seed=cfg.seed) for t in self.tasks}
        want_steps = cfg.epochs * sum(math.ceil(len(p) / cfg.batch_size) for p in pools.values())
        if first.steps != want_steps or len(first.log) != want_steps:
            problems.append(f"finetune: {first.steps} steps, expected {want_steps}")
        z = max(want_steps, 1)
        for rec in first.log:
            want = 1.0 / (1.0 + math.exp(((rec["step"] / z) - 1.0) / cfg.tau))
            if abs(rec["beta"] - want) > 1e-12:
                problems.append(f"finetune: beta {rec['beta']} at step {rec['step']}, expected {want}")
                break
            if not all(np.isfinite(rec[k]) for k in ("loss_t1", "loss_t2", "loss_orth", "total")):
                problems.append(f"finetune: non-finite loss at step {rec['step']}")
                break

        # probe batches: the first examples of each task's training pool
        probe = {t: [tr.prepare_example(ex, corpus, cf, True) for ex in pools[t][: cfg.batch_size]] for t in self.tasks}
        sched = tr.BetaSchedule(total_steps=z, tau=cfg.tau)

        def probe_loss(model) -> float:
            return sum(tr.batch_loss(b, model, 0, sched, cfg.lambda_orth, beta_value=0.5)[0].item() for b in probe.values())

        init = tr.RecModel(lm_cfg, cfg.variant, self.tasks, cf.d_cf, FUSION_HIDDEN, cfg.seed)
        lmmod.freeze_backbone(init.params)
        before, after = probe_loss(init), probe_loss(first.model)
        s["probe_loss"] = (before, after)
        if not after < before:
            problems.append(f"finetune: probe loss {after:.4f} after training, {before:.4f} at initialisation")

        problems += self.gradient_problems(s, probe, sched)
        return problems

    def gradient_problems(self, s: dict, probe: dict, sched) -> list[str]:
        """Finite differences on a model whose trainable tensors are all non-zero,
        over the first two examples of each task's probe batch. Each task's batch
        covers its own query adapters, the shared k/v/o adapters and both
        meta-networks."""
        corpus, cf, lm_cfg, cfg = s["corpus"], s["cf"], s["lm_cfg"], s["cfg"]
        model = tr.RecModel(lm_cfg, cfg.variant, self.tasks, cf.d_cf, FUSION_HIDDEN, cfg.seed)
        lmmod.freeze_backbone(model.params)
        rng = np.random.default_rng(cfg.seed)
        for _name, t in sorted(model.trainable().items()):
            t.data = rng.normal(0.0, 0.1, size=t.data.shape)
        problems, worst = [], 0.0
        for task, batch in probe.items():
            own = f"lora.task{self.tasks.index(task)}."
            names = [n for n in sorted(model.trainable()) if n.startswith((own, "lora.shared.", "fusion."))]
            found, gap = oracles.gradient_check(batch[:2], model, names, sched.total_steps // 2, sched, cfg.lambda_orth)
            problems += [f"finetune gradient ({task}): {p}" for p in found]
            worst = max(worst, gap)
        s["gradient_worst_rel"] = worst
        return problems


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

TASK_ANSWERS = {"RP": ev.RATING_ANSWERS, "CTR": ev.CLICK_ANSWERS}


class Score:
    name = "score"
    n_users, per_user, n_items = 20, 20, 40
    tasks = ("RP", "CTR", "TopK")

    def setup(self, seed: int, workdir: str) -> dict:
        corpus, cf = _world(seed, self.n_users, self.per_user, self.n_items)
        lm_cfg = LmConfig(vocab_size=len(corpus.vocab), **LM_SHAPE)
        model = tr.RecModel(lm_cfg, "CKF", self.tasks, cf.d_cf, FUSION_HIDDEN, seed)
        lmmod.freeze_backbone(model.params)
        rng = np.random.default_rng(seed + 1)
        for _name, t in sorted(model.trainable().items()):
            t.data = rng.normal(0.0, 0.1, size=t.data.shape)
        return {"seed": seed, "corpus": corpus, "cf": cf, "model": model}

    def evaluate(self, s: dict) -> dict:
        return ev.evaluate_model(s["model"], s["corpus"], s["cf"], tasks=self.tasks, n_neg=N_NEG, seed=s["seed"])

    def run_round(self, s: dict, span) -> Round:
        report, wall, cpu = _timed(lambda: self.evaluate(s))
        t = report["tasks"]
        prompts = t["RP"]["count"] + t["CTR"]["count"] + 2 * (N_NEG + 1) * t["TopK"]["count"]
        return Round(prompts, 0, wall, cpu, output=report)

    def capture(self, s: dict) -> tuple[dict, dict[str, list[tuple]]]:
        """One more evaluation with the per-example outputs recorded."""
        captured: dict[str, list[tuple]] = {}
        real_dist, real_scores = ev.answer_distribution, ev.candidate_scores

        def dist(model, corpus, cf, example, answers):
            out = real_dist(model, corpus, cf, example, answers)
            captured.setdefault(example.task, []).append((example, out))
            return out

        def scores(model, corpus, cf, example):
            out = real_scores(model, corpus, cf, example)
            captured.setdefault(example.task, []).append((example, out))
            return out

        ev.answer_distribution, ev.candidate_scores = dist, scores
        try:
            report = self.evaluate(s)
        finally:
            ev.answer_distribution, ev.candidate_scores = real_dist, real_scores
        return report, captured

    def check(self, s: dict, rounds: list[Round]) -> list[str]:
        report = rounds[0].output
        problems = []
        if any(r.output != report for r in rounds[1:]):
            problems.append("score: identical rounds gave different reports")
        again, captured = self.capture(s)
        if again != report:
            problems.append("score: the capture pass gave a different report")
        for task in ("RP", "CTR"):
            for ex, dist in captured.get(task, []):
                if not (abs(dist.sum() - 1.0) <= 1e-12 and (dist >= 0).all()):
                    problems.append(f"score: {task} distribution for user {ex.user_id} sums to {dist.sum()!r}")
                    break
        for ex, (cand_ids, sc) in captured.get("TopK", []):
            if len(cand_ids) != N_NEG + 1 or not np.isfinite(sc).all():
                problems.append(f"score: TopK scores for user {ex.user_id} malformed")
                break
        train_ratings = [it.rating for it in s["corpus"].split.train]
        problems += oracles.check_metrics(report, oracles.recompute_metrics(captured, train_ratings))
        decoder = oracles.ReferenceDecoder(s["model"], s["corpus"], s["cf"])
        problems += oracles.check_reference(decoder, self.reference_sample(captured, s["seed"]), TASK_ANSWERS)
        return problems

    @staticmethod
    def reference_sample(captured: dict[str, list[tuple]], seed: int) -> list[tuple]:
        """Seeded sample: four RP, four CTR, two easy and two hard TopK examples."""
        rng = np.random.default_rng(seed)
        sample = []
        for task, n in (("RP", 4), ("CTR", 4)):
            rows = captured[task]
            sample += [rows[i] for i in sorted(rng.choice(len(rows), size=min(n, len(rows)), replace=False))]
        rows = captured["TopK"]
        half = len(rows) // 2
        for part in (rows[:half], rows[half:]):
            sample += [part[i] for i in sorted(rng.choice(len(part), size=min(2, len(part)), replace=False))]
        return sample


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Pipeline:
    name = "pipeline"
    n_users, per_user, n_items = 6, 16, 40
    # no interaction is filtered, so a round is the same work for every seed
    k_core = 0
    tasks = ("RP", "CTR", "TopK", "Explain")
    d_cf = 8

    def setup(self, seed: int, workdir: str) -> dict:
        os.makedirs(workdir, exist_ok=True)
        interactions, catalog = two_genre_data(
            n_users=self.n_users, n_items=self.n_items, per_user=self.per_user, seed=seed, with_comments=True
        )
        data = os.path.join(workdir, "reviews.jsonl")
        write_jsonl(interactions, catalog, data)
        config = {
            "corpus": {"format": "review-jsonl", "k_core": self.k_core, "n_neg": N_NEG, "seed": seed},
            "cf": {"backend": "SeqAttn", "d_cf": self.d_cf, "epochs": 10, "batch_size": 64, "lr": 0.05, "seed": seed},
            "lm": {"L": LM_SHAPE["n_layers"], "n_heads": LM_SHAPE["n_heads"], "d_llm": LM_SHAPE["d_model"],
                   "d_ff": LM_SHAPE["d_ff"], "max_len": LM_SHAPE["max_len"], "r": LM_SHAPE["rank"]},
            "fusion": {"h": FUSION_HIDDEN},
            "train": {"variant": "NPM", "epochs": 1, "batch": 8, "seed": seed, "tasks": list(self.tasks),
                      "lr": 1e-3, "pretrain_steps": 30, "pretrain_lr": 1e-3},
        }
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return {"seed": seed, "workdir": workdir, "data": data, "config": config_path,
                "interactions": interactions, "run_dir": os.path.join(workdir, "run")}

    def commands(self, s: dict) -> list[list[str]]:
        c, r = s["config"], s["run_dir"]
        corpus, cf, model = os.path.join(r, "corpus"), os.path.join(r, "cf.ckpt"), os.path.join(r, "model.ckpt")
        return [
            ["build-corpus", "--config", c, "--input", s["data"], "--out", corpus],
            ["train-cf", "--config", c, "--corpus", corpus, "--out", cf],
            ["train", "--config", c, "--corpus", corpus, "--cf", cf, "--out", model],
            ["evaluate", "--config", c, "--corpus", corpus, "--cf", cf, "--model", model, "--out", os.path.join(r, "report.json")],
            ["export-embeddings", "--config", c, "--corpus", corpus, "--cf", cf, "--model", model, "--out", os.path.join(r, "embeddings.csv")],
        ]

    def run_round(self, s: dict, span) -> Round:
        shutil.rmtree(s["run_dir"], ignore_errors=True)
        os.makedirs(s["run_dir"])
        codes, outputs, wall, cpu = [], [], 0.0, 0.0
        for argv in self.commands(s):
            out, err = io.StringIO(), io.StringIO()
            with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc, w, c = _timed(lambda: cli.main(argv))
            codes.append(rc)
            outputs.append(out.getvalue() + err.getvalue())
            wall += w
            cpu += c
        r = s["run_dir"]
        digests = {}
        for name in ("cf.ckpt", "model.ckpt", "report.json"):
            path = os.path.join(r, name)
            digests[name] = sha256(path) if os.path.exists(path) else None
        failed = sum(rc != 0 for rc in codes)
        return Round(len(codes), failed, wall, cpu, output=digests, extra={"codes": codes, "outputs": outputs})

    def check(self, s: dict, rounds: list[Round]) -> list[str]:
        problems = []
        last = rounds[-1]
        for argv, rc, text in zip(self.commands(s), last.extra["codes"], last.extra["outputs"]):
            if rc != 0:
                problems.append(f"pipeline: `{argv[0]}` exited {rc}: {text.strip()[-200:]}")
        if problems:
            return problems
        if any(r.output != last.output for r in rounds):
            problems.append("pipeline: identical rounds wrote different cf/model/report bytes")
        want = oracles.expected_corpus_counts(s["interactions"], self.k_core, self.tasks)
        r = s["run_dir"]

        stats_line = last.extra["outputs"][0].strip().splitlines()[-1].split()
        printed = dict(zip(("interactions", "train", "valid", "test", "users", "items"), map(int, stats_line[:6])))
        corpus = cp.load_corpus(os.path.join(r, "corpus"))
        loaded = {
            "train_interactions": len(corpus.split.train),
            "valid_interactions": len(corpus.split.valid),
            "test_interactions": len(corpus.split.test),
        }
        for key, value in {**printed, **loaded}.items():
            if value != want[key]:
                problems.append(f"pipeline: corpus {key} is {value}, expected {want[key]}")

        tables = ckpt.load_tensors(os.path.join(r, "cf.ckpt"))
        for key, rows in (("cf.user_table", want["users"]), ("cf.item_table", want["items"])):
            if tables[key].shape != (rows, self.d_cf):
                problems.append(f"pipeline: {key} has shape {tables[key].shape}, expected {(rows, self.d_cf)}")

        model = tr.from_checkpoint(os.path.join(r, "model.ckpt"))
        if model.variant != "NPM" or model.tasks != self.tasks:
            problems.append(f"pipeline: reloaded model is {model.variant} over {model.tasks}")

        with open(os.path.join(r, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        tasks = report["tasks"]
        if sorted(tasks) != sorted(self.tasks):
            problems.append(f"pipeline: report covers {sorted(tasks)}")
        else:
            n = want["users"]
            counts = {"RP": n, "Explain": n, "CTR": 2 * n, "TopK": n}
            for task, count in counts.items():
                if tasks[task]["count"] != count:
                    problems.append(f"pipeline: report counts {tasks[task]['count']} {task} examples, expected {count}")
            ranges = {"mae": (0.0, 4.0), "mse": (0.0, 16.0), "auc": (0.0, 1.0), "u_auc": (0.0, 1.0),
                      "hit1_easy": (0.0, 1.0), "hit1_hard": (0.0, 1.0)}
            for task, entry in tasks.items():
                for key, (lo, hi) in ranges.items():
                    if key in entry and not lo <= entry[key] <= hi:
                        problems.append(f"pipeline: {task}.{key} = {entry[key]} outside [{lo}, {hi}]")
            s["quality"] = {"RP.mae": tasks["RP"]["mae"], "CTR.auc": tasks["CTR"]["auc"],
                            "TopK.hit1_easy": tasks["TopK"]["hit1_easy"]}

        with open(os.path.join(r, "embeddings.csv"), encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        width = LM_SHAPE["d_model"]
        if len(rows) != want["users"] + want["items"] or any(len(row) != 2 + width for row in rows):
            problems.append(f"pipeline: export has {len(rows)} rows, expected {want['users'] + want['items']} of {width} values")
        elif not all(np.isfinite([float(x) for x in row[2:]]).all() for row in rows):
            problems.append("pipeline: export holds non-finite values")
        return problems


WORKLOADS = {w.name: w for w in (Finetune(), Score(), Pipeline())}
