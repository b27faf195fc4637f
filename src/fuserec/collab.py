"""Collaborative-filtering backends producing the frozen user/item tables.

Two backends: plain matrix factorization (dot-product scorer) and a small
sequential-attention variant that adds an attention-pooled history term to
the score. Both train through the gradient tape against either an implicit
click objective with sampled negatives or a rating regression. The resulting
tables are frozen and also drive nearest-neighbor hard negative lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import Interaction
from .numerics import Tensor
from .optim import AdamW
from .prng import SplitMix64


@dataclass
class CfTrainConfig:
    backend: str = "MF"  # or "SeqAttn"
    objective: str = "implicit-bce"  # or "rating-mse"
    d_cf: int = 64
    lr: float = 0.01
    epochs: int = 10
    negatives_per_positive: int = 1
    batch_size: int = 256
    history_limit: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.backend not in ("MF", "SeqAttn"):
            raise ValueError(f"backend: unknown CF backend {self.backend!r}")
        if self.objective not in ("implicit-bce", "rating-mse"):
            raise ValueError(f"objective: unknown CF objective {self.objective!r}")
        if self.objective == "implicit-bce" and self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive: implicit-bce needs >= 1")
        for name in ("d_cf", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")


class CfEmbeddings:
    """Frozen user/item tables; rows never seen in training hold the
    column-wise mean of the seen rows, which serves cold lookups."""

    def __init__(self, user_table: np.ndarray, item_table: np.ndarray):
        if not (np.isfinite(user_table).all() and np.isfinite(item_table).all()):
            raise nm.NumericError("CF tables contain non-finite values")
        self.user_table = user_table
        self.item_table = item_table
        self.user_table.setflags(write=False)
        self.item_table.setflags(write=False)

    @property
    def d_cf(self) -> int:
        return self.user_table.shape[1]

    def lookup_user(self, u: int) -> np.ndarray:
        if not 0 <= u < self.user_table.shape[0]:
            raise IndexError(f"user id {u} outside table of {self.user_table.shape[0]}")
        return self.user_table[u]

    def lookup_item(self, v: int) -> np.ndarray:
        if not 0 <= v < self.item_table.shape[0]:
            raise IndexError(f"item id {v} outside table of {self.item_table.shape[0]}")
        return self.item_table[v]

    def nearest_items(self, v: int, k: int) -> list[int]:
        """k nearest items to v by cosine, descending, ties by ascending id,
        v itself excluded; zero-norm rows rank last."""
        n = self.item_table.shape[0]
        if not 0 <= v < n:
            raise IndexError(f"item id {v} outside table of {n}")
        if k >= n:
            raise ValueError(f"k={k} must be below the item count {n}")
        norms = np.sqrt((self.item_table**2).sum(axis=1))
        query = self.item_table[v]
        qn = norms[v]
        sims = np.full(n, -np.inf)
        ok = norms > 0
        if qn > 0:
            sims[ok] = (self.item_table[ok] @ query) / (norms[ok] * qn)
        sims[v] = -np.inf
        order = np.lexsort((np.arange(n), -sims))
        return [int(i) for i in order if i != v][:k]


def _freeze_tables(user_t: Tensor, item_t: Tensor, seen_users: set[int], seen_items: set[int]) -> CfEmbeddings:
    user = user_t.data.copy()
    item = item_t.data.copy()
    for table, seen in ((user, seen_users), (item, seen_items)):
        idx = sorted(seen)
        if idx and len(idx) < table.shape[0]:
            mean = table[idx].mean(axis=0)
            unseen = np.setdiff1d(np.arange(table.shape[0]), np.asarray(idx, dtype=np.intp))
            table[unseen] = mean
    return CfEmbeddings(user, item)


def _histories(train: list[Interaction]) -> dict[int, list[tuple[int, int]]]:
    """Per user: timestamp-ordered (timestamp, item) pairs for history slices."""
    seqs: dict[int, list[tuple[int, int]]] = {}
    for it in train:
        seqs.setdefault(it.user_id, []).append((it.timestamp, it.item_id))
    for u in seqs:
        seqs[u].sort()
    return seqs


def score_batch(
    user_t: Tensor, item_t: Tensor, us: list[int], vs: list[int], owners: list[int], hists: list[list[int]] | None = None
) -> Tensor:
    """Scores of the (us[i], vs[i]) pairs: the user-item dot product (MF).

    With hists (SeqAttn), the first len(hists) pairs are the positives, with
    history items hists[j], and pair i adds the dot product of its item with
    the row pooled for positive owners[i], so a sampled negative reads the
    history of the positive it was drawn for. The histories go through one
    one-head attention op, each asked by its user row at its last position;
    a positive without a history pools to its user row.
    """
    eu = nm.gather_rows(user_t, us)
    ev = nm.gather_rows(item_t, vs)
    base = nm.tsum(nm.mul(eu, ev), axis=1)
    if hists is None:
        return base
    asking = [j for j, hist in enumerate(hists) if hist]
    pooled = eu  # its first len(hists) rows are the positives' user rows
    if asking:
        lengths = [len(hists[j]) for j in asking]
        hrows = nm.gather_rows(item_t, [v for j in asking for v in hists[j]])
        q = nm.gather_rows(user_t, [us[j] for j in asking])
        attended = nm.causal_attention(q, hrows, hrows, lengths, 1, [[n - 1] for n in lengths])
        pooled = nm.row_set(eu, asking, attended)
    return nm.add(base, nm.tsum(nm.mul(nm.gather_rows(pooled, owners), ev), axis=1))


def batch_loss(s: Tensor, y: np.ndarray, objective: str) -> Tensor:
    """Mean loss of the scores s against the targets y: binary cross-entropy
    on the logits s (implicit-bce, y in {0, 1}) or squared error (rating-mse)."""
    if objective == "implicit-bce":
        # bce(sigmoid(s), y) == softplus(s) - y * s
        return nm.tmean(nm.sub(nm.softplus(s), nm.mul(Tensor(y), s)))
    diff = nm.sub(s, Tensor(y))
    return nm.tmean(nm.mul(diff, diff))


def train_cf(
    train: list[Interaction],
    user_index: dict[int, int],
    item_index: dict[int, int],
    cfg: CfTrainConfig,
) -> tuple[CfEmbeddings, list[float]]:
    """Train the configured backend on the train split.

    Ids are mapped through the dense indexes; returns frozen tables plus the
    per-epoch mean training loss. Deterministic for a fixed seed.
    """
    if not train:
        raise ValueError("empty training set")
    n_users, n_items = len(user_index), len(item_index)
    rng_np = np.random.default_rng(cfg.seed)
    user_t = Tensor(rng_np.normal(0.0, 0.1, size=(n_users, cfg.d_cf)), requires_grad=True)
    item_t = Tensor(rng_np.normal(0.0, 0.1, size=(n_items, cfg.d_cf)), requires_grad=True)
    opt = AdamW({"user": user_t, "item": item_t}, lr=cfg.lr, weight_decay=0.0)
    rng = SplitMix64(cfg.seed)

    events = [(user_index[it.user_id], item_index[it.item_id], it.rating) for it in train]
    user_items: dict[int, set[int]] = {}
    for u, v, _r in events:
        user_items.setdefault(u, set()).add(v)
    seqs = _histories(train)
    # per event: the user's items strictly before it, most recent last
    hist_of: list[list[int]] = []
    if cfg.backend == "SeqAttn":
        for it in train:
            prior = [item_index[v] for (t, v) in seqs[it.user_id] if t < it.timestamp]
            hist_of.append(prior[-cfg.history_limit :])

    epoch_losses: list[float] = []
    for _epoch in range(cfg.epochs):
        order = list(range(len(events)))
        rng.shuffle(order)
        total, batches = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            picked = order[start : start + cfg.batch_size]
            chunk = [events[i] for i in picked]
            us = [u for u, _v, _r in chunk]
            vs = [v for _u, v, _r in chunk]
            owners = list(range(len(chunk)))
            if cfg.objective == "implicit-bce":
                labels = [1.0] * len(chunk)
                for j, (u, v, _r) in enumerate(chunk):
                    owned = user_items[u]
                    # a user who owns every item has no negative to draw
                    for _ in range(cfg.negatives_per_positive if len(owned) < n_items else 0):
                        neg = rng.randbelow(n_items)
                        while neg in owned:
                            neg = rng.randbelow(n_items)
                        us.append(u)
                        vs.append(neg)
                        owners.append(j)
                        labels.append(0.0)
                y = np.asarray(labels)
            else:
                y = np.asarray([float(r) for _u, _v, r in chunk])
            hists = [hist_of[i] for i in picked] if cfg.backend == "SeqAttn" else None
            with nm.Tape() as tape:
                loss = batch_loss(score_batch(user_t, item_t, us, vs, owners, hists), y, cfg.objective)
                grads = nm.backward(loss, tape)
            value = loss.item()
            if not np.isfinite(value):
                raise nm.NumericError(f"CF training loss became non-finite at epoch {_epoch}")
            total += value
            batches += 1
            opt.step({"user": nm.grad_of(grads, user_t), "item": nm.grad_of(grads, item_t)})
        epoch_losses.append(total / max(batches, 1))

    seen_users = {u for u, _v, _r in events}
    seen_items = {v for _u, v, _r in events}
    return _freeze_tables(user_t, item_t, seen_users, seen_items), epoch_losses
