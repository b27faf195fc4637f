"""Checks of the program's outputs against computations made apart from it.

- `ReferenceDecoder` / `check_reference`: a plain-numpy decoder that
  reimplements attention pooling, the meta-networks, injection, multi-head
  attention with the Multi-LoRA adapters, the FFN and the tied output
  projection, reading only the model's weights by name. Prompt text and token
  ids come from the program's corpus layer, which this does not test.
- `recompute_metrics` / `check_metrics`: MAE/MSE, AUC by brute-force pair
  counting, per-user AUC and Hit@1 from per-example outputs.
- `gradient_check`: tape gradients of `trainer.batch_loss` against central
  finite differences.
- `expected_corpus_counts`: k-core filter, leave-one-out split and per-task
  example counts computed from the generated interactions.

Each returns the list of problems it found; an empty list means the check passed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from fuserec import numerics as nm
from fuserec import trainer as tr
from fuserec.corpus import locate_placeholders, render_prompt

GELU_C = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# reference decoder
# ---------------------------------------------------------------------------


def _layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class ReferenceDecoder:
    """Forward pass of a CKF model (personalized fusion, Multi-LoRA bank) in plain numpy."""

    def __init__(self, model: tr.RecModel, corpus, cf):
        if model.fusion.kind != "personalized" or model.bank.mode != "multi-lora":
            raise ValueError("the reference decoder covers personalized fusion with a multi-lora bank")
        self.w = {name: t.data for name, t in model.named_parameters().items()}
        self.cfg = model.lm_cfg
        self.tasks = model.tasks
        self.corpus = corpus
        self.cf = cf

    def _map(self, net: str, e: np.ndarray, hist: np.ndarray) -> np.ndarray:
        if hist.shape[0]:
            a = hist @ e
            a = np.exp(a - a.max())
            pooled = (a / a.sum()) @ hist
        else:
            pooled = e
        w = self.w
        h = np.maximum(pooled @ w[f"fusion.{net}.w1"] + w[f"fusion.{net}.b1"], 0.0)
        mapping = (h @ w[f"fusion.{net}.w2"] + w[f"fusion.{net}.b2"]).reshape(len(e), -1)
        return e @ mapping

    def _proj(self, x, layer: int, proj: str, task: str):
        w = self.w
        scope = f"task{self.tasks.index(task)}" if proj == "q" else "shared"
        a = w[f"lora.{scope}.layer{layer}.{proj}.A"]
        b = w[f"lora.{scope}.layer{layer}.{proj}.B"]
        return x @ w[f"lm.layer{layer}.{proj}"] + (x @ a) @ b

    def logits(self, example, extra_ids: list[int]) -> tuple[np.ndarray, int]:
        """T x V logits for the collaborative prompt plus teacher-forced ids."""
        corpus, cf, w, cfg = self.corpus, self.cf, self.w, self.cfg
        rendered = render_prompt(example, corpus.catalog, inject_collab=True)
        prompt_ids = corpus.vocab.encode(rendered.text)
        pos = locate_placeholders(prompt_ids, corpus.vocab, expected=True)
        ids = prompt_ids + list(extra_ids)
        hist = cf.item_table[[corpus.item_index[h] for h in example.history]].reshape(-1, cf.d_cf)
        x = w["lm.token_table"][ids].copy()
        x[pos.user_pos] = self._map("user_meta", cf.user_table[corpus.user_index[example.user_id]], hist)
        x[pos.item_pos] = self._map("item_meta", cf.item_table[corpus.item_index[example.candidate]], hist)
        t_len = len(ids)
        x = x + w["lm.pos_table"][:t_len]
        d_head = cfg.d_model // cfg.n_heads
        future = np.triu(np.ones((t_len, t_len), dtype=bool), k=1)
        for i in range(cfg.n_layers):
            p = f"lm.layer{i}"
            h = _layer_norm(x, w[f"{p}.norm.attn.gain"], w[f"{p}.norm.attn.bias"])
            q, k, v = (self._proj(h, i, proj, example.task) for proj in ("q", "k", "v"))
            heads = []
            for hd in range(cfg.n_heads):
                sl = slice(hd * d_head, (hd + 1) * d_head)
                s = q[:, sl] @ k[:, sl].T / math.sqrt(d_head)
                s[future] = -np.inf
                heads.append(_softmax_rows(s) @ v[:, sl])
            x = x + self._proj(np.concatenate(heads, axis=1), i, "o", example.task)
            h2 = _layer_norm(x, w[f"{p}.norm.ffn.gain"], w[f"{p}.norm.ffn.bias"])
            z = h2 @ w[f"{p}.ffn.w1"] + w[f"{p}.ffn.b1"]
            g = 0.5 * z * (1.0 + np.tanh(GELU_C * (z + 0.044715 * z**3)))
            x = x + g @ w[f"{p}.ffn.w2"] + w[f"{p}.ffn.b2"]
        x = _layer_norm(x, w["lm.final_norm.gain"], w["lm.final_norm.bias"])
        return x @ w["lm.token_table"].T, len(prompt_ids)

    def answer_distribution(self, example, answers: tuple[str, ...]) -> np.ndarray:
        logits, n_prompt = self.logits(example, [])
        sub = logits[n_prompt - 1, [self.corpus.vocab.index[a] for a in answers]]
        e = np.exp(sub - sub.max())
        return e / e.sum()

    def candidate_scores(self, example) -> np.ndarray:
        scores = []
        for cand in example.candidate_set:
            title = self.corpus.vocab.encode(self.corpus.catalog[cand], bos=False)
            logits, n_prompt = self.logits(dataclasses.replace(example, candidate=cand), title)
            rows = logits[n_prompt - 1 : n_prompt - 1 + len(title)]
            m = rows.max(axis=1)
            logp = rows[np.arange(len(title)), title] - (m + np.log(np.exp(rows - m[:, None]).sum(axis=1)))
            scores.append(logp.mean())
        return np.asarray(scores)


def check_reference(decoder: ReferenceDecoder, sample: list[tuple], answers: dict[str, tuple[str, ...]], tol: float = 1e-9) -> list[str]:
    """sample holds (example, program output) pairs; outputs are distributions
    for single-token tasks and (candidate ids, scores) for TopK."""
    problems = []
    for example, output in sample:
        if example.task == "TopK":
            cand_ids, got = output
            want = decoder.candidate_scores(example)
            if list(cand_ids) != list(example.candidate_set):
                problems.append(f"TopK user {example.user_id}: candidate order differs")
        else:
            got = output
            want = decoder.answer_distribution(example, answers[example.task])
        gap = float(np.max(np.abs(np.asarray(got) - want)))
        if not gap <= tol:
            problems.append(f"{example.task} user {example.user_id} candidate {example.candidate}: reference gap {gap:.3e}")
    return problems


# ---------------------------------------------------------------------------
# metric recomputation
# ---------------------------------------------------------------------------


def brute_auc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def recompute_metrics(captured: dict[str, list[tuple]], train_ratings: list[int]) -> dict[str, dict[str, float]]:
    """Report entries rebuilt from (example, output) pairs per task.

    TopK pairs come easy candidates first, then hard, as evaluate_model scores them.
    """
    out: dict[str, dict[str, float]] = {}
    for task in ("RP", "Explain"):
        if task in captured:
            rows = captured[task]
            preds = np.asarray([float(np.dot(dist, [1, 2, 3, 4, 5])) for _ex, dist in rows])
            truths = np.asarray([ex.label for ex, _dist in rows], dtype=float)
            gar = float(np.mean(train_ratings))
            out[task] = {
                "mae": float(np.mean(np.abs(preds - truths))),
                "mse": float(np.mean((preds - truths) ** 2)),
                "gar_mae": float(np.mean(np.abs(gar - truths))),
                "gar_mse": float(np.mean((gar - truths) ** 2)),
                "count": len(rows),
            }
    if "CTR" in captured:
        rows = captured["CTR"]
        scores = [float(dist[0]) for _ex, dist in rows]  # P("yes")
        labels = [ex.label for ex, _dist in rows]
        users: dict[int, tuple[list, list]] = {}
        for (ex, _dist), s in zip(rows, scores):
            users.setdefault(ex.user_id, ([], []))
            users[ex.user_id][0].append(s)
            users[ex.user_id][1].append(ex.label)
        per_user = [brute_auc(s, y) for s, y in users.values() if 0 in y and 1 in y]
        out["CTR"] = {"auc": brute_auc(scores, labels), "u_auc": float(np.mean(per_user)), "count": len(rows)}
    if "TopK" in captured:
        rows = captured["TopK"]
        half = len(rows) // 2
        entry: dict[str, float] = {"count": half}
        for flavor, part in (("easy", rows[:half]), ("hard", rows[half:])):
            hits = 0
            for ex, (cand_ids, scores) in part:
                best = max(range(len(cand_ids)), key=lambda j: (scores[j], -cand_ids[j]))
                hits += cand_ids[best] == ex.label
            entry[f"hit1_{flavor}"] = hits / len(part)
        out["TopK"] = entry
    return out


def check_metrics(report: dict, recomputed: dict[str, dict[str, float]], tol: float = 1e-12) -> list[str]:
    problems = []
    for task, want in recomputed.items():
        got = report["tasks"].get(task)
        if got is None:
            problems.append(f"report lacks task {task}")
            continue
        for key, value in want.items():
            if key not in got or not abs(got[key] - value) <= tol:
                problems.append(f"{task}.{key}: report {got.get(key)} vs recomputed {value}")
    return problems


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def gradient_check(batch, model: tr.RecModel, names: list[str], step: int, sched, lambda_orth: float, eps: float = 1e-5) -> tuple[list[str], float]:
    """Compare the tape gradient with a central difference at the largest-gradient
    coordinate of each named parameter. Returns (problems, worst relative gap)."""

    def loss() -> float:
        return tr.batch_loss(batch, model, step, sched, lambda_orth)[0].item()

    params = model.named_parameters()
    with nm.Tape() as tape:
        total, _parts = tr.batch_loss(batch, model, step, sched, lambda_orth)
        grads = nm.backward(total, tape)
    problems, worst = [], 0.0
    for name in names:
        t = params[name]
        g = nm.grad_of(grads, t).reshape(-1)
        i = int(np.argmax(np.abs(g)))
        flat = t.data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + eps
        up = loss()
        flat[i] = orig - eps
        down = loss()
        flat[i] = orig
        numeric = (up - down) / (2.0 * eps)
        gap = abs(g[i] - numeric)
        worst = max(worst, gap / max(abs(numeric), 1e-12))
        if not gap <= 1e-8 + 1e-6 * abs(numeric):
            problems.append(f"{name}[{i}]: tape {g[i]:.9e} vs finite difference {numeric:.9e}")
    return problems, worst


# ---------------------------------------------------------------------------
# corpus protocol
# ---------------------------------------------------------------------------


def expected_corpus_counts(interactions, k_core: int, tasks: tuple[str, ...]) -> dict[str, int]:
    """Counts the corpus and its per-task example pools must have, from raw interactions.

    Single-pass k-core (users, then items), then leave-one-out per user with
    users under three interactions dropped. Example counts per split: RP,
    Explain and TopK one per point, CTR two (the positive and one negative).
    """
    seen, data = set(), []
    for it in interactions:
        if (it.user_id, it.item_id, it.timestamp) not in seen:
            seen.add((it.user_id, it.item_id, it.timestamp))
            data.append(it)
    per_user: dict[int, int] = {}
    for it in data:
        per_user[it.user_id] = per_user.get(it.user_id, 0) + 1
    data = [it for it in data if per_user[it.user_id] >= k_core]
    per_item: dict[int, int] = {}
    for it in data:
        per_item[it.item_id] = per_item.get(it.item_id, 0) + 1
    data = [it for it in data if per_item[it.item_id] >= k_core]
    lengths: dict[int, int] = {}
    for it in data:
        lengths[it.user_id] = lengths.get(it.user_id, 0) + 1
    kept = {u for u, n in lengths.items() if n >= 3}
    data = [it for it in data if it.user_id in kept]
    weight = {t: (2 if t == "CTR" else 1) for t in tasks}
    n_users = len(kept)
    train_points = sum(lengths[u] - 3 for u in kept)  # every train event after each user's first
    return {
        "interactions": len(data),
        "users": n_users,
        "items": len({it.item_id for it in data}),
        "train_interactions": sum(lengths[u] - 2 for u in kept),
        "valid_interactions": n_users,
        "test_interactions": n_users,
        "train": sum(weight.values()) * train_points,
        "valid": sum(weight.values()) * n_users,
        "test": sum(weight.values()) * n_users,
    }
