"""Constrained-answer scoring and the recommendation metrics.

Single-token tasks read the next-token distribution at the final prompt
position, restricted to the task's answer tokens; ranking scores each
candidate by its length-normalized title log-likelihood under teacher
forcing, with a TopK example's candidates packed TOPK_PACK to a decoder
pass. Metrics stay simple enough to verify against brute-force pair
counting.
"""

from __future__ import annotations

import numpy as np

from . import lm as lmmod
from . import numerics as nm
from . import trainer as tr
from .collab import CfEmbeddings
from .corpus import Corpus, TaskExample, build_examples
from .numerics import ContractError
from .trainer import RecModel

RATING_ANSWERS = ("1", "2", "3", "4", "5")
CLICK_ANSWERS = ("yes", "no")

# Candidates of a TopK example scored in one decoder pass. On the `score`
# workload (2 cores, numpy 2.4, two seeds), round_s and peak RSS by pack size:
# 1: 0.42 s, 39.5 MB; 2: 0.34 s, 40.1 MB; 4: 0.28 s, 41.0 MB; 6: 0.31 s,
# 42.1 MB; 11: 0.31 s, 44.1 MB. Past 4 nothing is gained and memory grows with
# the pack's (B, H, T, T) attention scores: about 0.5 MB at 4 and 1.4 MB at 11
# for ~90-token prompts in f64.
TOPK_PACK = 4


class MetricError(ValueError):
    """Metric undefined for the given inputs."""


# ---------------------------------------------------------------------------
# model scoring
# ---------------------------------------------------------------------------


def answer_distribution(
    model: RecModel, corpus: Corpus, cf: CfEmbeddings, example: TaskExample, answers: tuple[str, ...]
) -> np.ndarray:
    """Probabilities over single-token answers at the first answer position."""
    ids = []
    for a in answers:
        tok = corpus.vocab.index.get(a)
        if tok is None:
            raise ContractError(f"answer token {a!r} missing from the vocab")
        ids.append(tok)
    enc = tr.encode_prompt(example, corpus, model.uses_collab_prompt())
    rows = tr.cf_rows(example, corpus, cf, [example.candidate], model.reads_pooled_rows())
    embs = tr.embed(model, [enc.seq[: enc.n_prompt]], [enc.positions], rows)
    logits = lmmod.forward(embs, example.task, model.params, model.bank, model.lm_cfg, read=[[enc.n_prompt - 1]])
    sub = logits.data[0][ids]
    e = np.exp(sub - sub.max())
    return e / e.sum()


def candidate_scores(model: RecModel, corpus: Corpus, cf: CfEmbeddings, example: TaskExample) -> tuple[list[int], np.ndarray]:
    """Mean per-token title log-likelihood for every candidate in the set.

    The prompt lists the whole candidate set, so it is encoded and its user
    vector mapped once. Each candidate brings its own item vector and title,
    and the prompt-plus-title sequences go through the decoder TOPK_PACK at a
    time, one pack per pass; a candidate's score reads only its own title rows.
    """
    if example.candidate_set is None:
        raise ContractError("candidate scoring requires a candidate set")
    enc = tr.encode_prompt(example, corpus, model.uses_collab_prompt())
    prompt = enc.seq[: enc.n_prompt]
    titles = [corpus.vocab.encode(corpus.catalog[c], bos=False) for c in example.candidate_set]
    rows = tr.cf_rows(example, corpus, cf, example.candidate_set, model.reads_pooled_rows())
    ep_u = tr.map_users(model, rows[:1]) if enc.positions.user_pos is not None else None
    scores = []
    for start in range(0, len(titles), TOPK_PACK):
        pack = titles[start : start + TOPK_PACK]
        seqs = [prompt + title_ids for title_ids in pack]
        pack_u = None if ep_u is None else nm.gather_rows(ep_u, [0] * len(pack))
        embs = tr.embed(model, seqs, [enc.positions] * len(pack), rows[start : start + TOPK_PACK], pack_u)
        read = [list(range(enc.n_prompt - 1, len(seq) - 1)) for seq in seqs]
        z = lmmod.forward(embs, example.task, model.params, model.bank, model.lm_cfg, [len(seq) for seq in seqs], read).data
        # log-softmax over each read row, taken at the title token that row predicts
        tokens = [tok for title_ids in pack for tok in title_ids]
        m = z.max(axis=1)
        logp = z[np.arange(len(tokens)), tokens] - (m + np.log(np.exp(z - m[:, None]).sum(axis=1)))
        scores.extend(part.mean() for part in np.split(logp, np.cumsum([len(t) for t in pack])[:-1]))
    return list(example.candidate_set), np.asarray(scores)


def predict_rating(dist: np.ndarray) -> float:
    """Probability-weighted expectation over the five rating answers."""
    if dist.shape != (5,):
        raise ContractError(f"rating distribution must have 5 entries, got {dist.shape}")
    return float((dist * np.arange(1, 6)).sum())


def predict_click(dist: np.ndarray) -> float:
    if dist.shape != (2,):
        raise ContractError(f"click distribution must have 2 entries, got {dist.shape}")
    return float(dist[0])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def auc(scores, labels) -> float:
    """Mann-Whitney AUC via tie-averaged ranks: (wins + half-ties) / (P * N)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError("scores and labels must be equal-length vectors")
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos == 0 or neg == 0:
        raise MetricError("AUC undefined without both classes")
    if not np.isfinite(scores).all():
        raise MetricError("AUC undefined for non-finite scores")
    # a group of tied scores spans ranks end - size + 1 .. end; each gets their mean
    _, group, sizes = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(sizes) - (sizes - 1) / 2.0)[group]
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def u_auc(per_user: dict) -> float:
    """Unweighted mean of per-user AUC over users with both classes."""
    values = []
    for u in sorted(per_user):
        scores, labels = per_user[u]
        labels_arr = np.asarray(labels)
        if (labels_arr == 1).any() and (labels_arr == 0).any():
            values.append(auc(scores, labels))
    if not values:
        raise MetricError("no user has both classes")
    return float(np.mean(values))


def hit_at_1(entries) -> float:
    """Fraction of examples whose top candidate (score desc, id asc on ties)
    is the truth."""
    if not entries:
        raise MetricError("hit_at_1 over no examples")
    hits = 0
    for cand_ids, scores, truth in entries:
        if truth not in cand_ids:
            raise ContractError(f"truth {truth} missing from candidates")
        ranked = sorted(zip(cand_ids, scores), key=lambda cs: (-cs[1], cs[0]))
        hits += ranked[0][0] == truth
    return hits / len(entries)


def regression_metrics(preds, truths) -> tuple[float, float]:
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape or preds.ndim != 1 or preds.size == 0:
        raise ContractError("preds and truths must be equal-length nonempty vectors")
    err = preds - truths
    return float(np.abs(err).mean()), float((err * err).mean())


class GarBaseline:
    """Constant predictor: the training-set mean rating."""

    def __init__(self, train_ratings):
        ratings = list(train_ratings)
        if not ratings:
            raise ContractError("GAR needs a nonempty training set")
        self.prediction = float(np.mean(ratings))

    def predict(self, n: int) -> np.ndarray:
        return np.full(n, self.prediction)


# ---------------------------------------------------------------------------
# full evaluation pass
# ---------------------------------------------------------------------------


def evaluate_model(
    model: RecModel,
    corpus: Corpus,
    cf: CfEmbeddings,
    tasks: tuple[str, ...] | None = None,
    n_neg: int = 10,
    seed: int = 0,
) -> dict:
    """Metrics for every requested task on the test split, plus the GAR baseline."""
    tasks = tuple(tasks) if tasks else model.tasks
    report: dict = {"split": "test", "seed": seed, "n_neg": n_neg, "tasks": {}}
    gar = GarBaseline([it.rating for it in corpus.split.train]) if corpus.split.train else None
    for task in tasks:
        if task in ("RP", "Explain"):
            examples = build_examples(corpus, task, "test", n_neg=n_neg, seed=seed)
            preds = [
                predict_rating(answer_distribution(model, corpus, cf, ex, RATING_ANSWERS)) for ex in examples
            ]
            truths = [ex.label for ex in examples]
            mae, mse = regression_metrics(preds, truths)
            entry = {"mae": mae, "mse": mse, "count": len(examples)}
            if gar is not None:
                gmae, gmse = regression_metrics(gar.predict(len(truths)), truths)
                entry["gar_mae"], entry["gar_mse"] = gmae, gmse
            report["tasks"][task] = entry
        elif task == "CTR":
            examples = build_examples(corpus, task, "test", n_neg=n_neg, seed=seed)
            scores, labels = [], []
            per_user: dict[int, tuple[list, list]] = {}
            for ex in examples:
                p = predict_click(answer_distribution(model, corpus, cf, ex, CLICK_ANSWERS))
                scores.append(p)
                labels.append(ex.label)
                per_user.setdefault(ex.user_id, ([], []))
                per_user[ex.user_id][0].append(p)
                per_user[ex.user_id][1].append(ex.label)
            report["tasks"][task] = {
                "auc": auc(scores, labels),
                "u_auc": u_auc(per_user),
                "count": len(examples),
            }
        elif task == "TopK":
            entry = {}
            for flavor, sampler in (("easy", None), ("hard", cf_sampler(corpus, cf))):
                examples = build_examples(corpus, task, "test", n_neg=n_neg, hard_sampler=sampler, seed=seed)
                entries = []
                for ex in examples:
                    cand_ids, s = candidate_scores(model, corpus, cf, ex)
                    entries.append((cand_ids, s, ex.label))
                entry[f"hit1_{flavor}"] = hit_at_1(entries)
                entry["count"] = len(examples)
            report["tasks"][task] = entry
        else:
            raise ContractError(f"unknown task {task!r}")
    if gar is not None:
        report["gar_prediction"] = gar.prediction
    return report


def cf_sampler(corpus: Corpus, cf: CfEmbeddings):
    """Hard negative sampler: nearest items to the anchor in CF space,
    reported in raw item ids."""

    def sampler(anchor_item: int, k: int) -> list[int]:
        dense = corpus.item_index[anchor_item]
        k = min(k, cf.item_table.shape[0] - 1)
        return [corpus.item_ids[i] for i in cf.nearest_items(dense, k)]

    return sampler
