"""Micro decoder-only transformer with shared/task-specific low-rank adapters.

The frozen backbone is a standard pre-norm decoder (causal multi-head
attention, GELU feed-forward, tied output projection). One pass runs a pack
of sequences laid end to end as rows, kept apart by their lengths, and returns
logits for the positions the caller reads: the last layer computes keys and
values for every row and the rest only for the read rows. Adapters
add a trainable rank-limited delta A @ B to the frozen projections, applied as
x @ (W + A @ B), so the delta costs no row-sized work: query projections get
one adapter per task, key/value/output share one adapter across tasks. An
orthogonality penalty, one Gram matrix per layer, pushes different tasks'
query A matrices toward disjoint column spaces.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import TASKS
from .numerics import ContractError, ShapeError, Tensor

PROJS = ("q", "k", "v", "o")
BANK_MODES = ("multi-lora", "per-task-full", "single-shared", "none")


@dataclass
class LmConfig:
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 32
    d_ff: int = 0  # 0 means 4 * d_model
    vocab_size: int = 0
    max_len: int = 128
    rank: int = 16

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "max_len", "rank"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.d_ff < 0:
            raise ShapeError(f"d_ff: must be >= 0 (0 means 4 * d_model), got {self.d_ff}")
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        if self.d_model % self.n_heads != 0:
            raise ShapeError(f"d_model: {self.d_model} not divisible by n_heads {self.n_heads}")


class LoraAdapter:
    """Trainable low-rank delta for one frozen projection W: x (W + A B),
    which equals x W + (x A) B.

    B starts at zero so the delta starts at zero; A is a small Gaussian.
    """

    def __init__(self, d: int, rank: int, rng: np.random.Generator):
        self.A = Tensor(rng.normal(0.0, 0.02, size=(d, rank)), requires_grad=True)
        self.B = Tensor(np.zeros((rank, d)), requires_grad=True)


def lora_apply(x: Tensor, w: Tensor, adapter: LoraAdapter | None) -> Tensor:
    """x through a frozen projection plus the adapter delta when present, as
    x @ (W + A @ B): one product with x's rows, the rest weight-sized. With
    B = 0 this is exactly x @ W."""
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"lora_apply dimension mismatch: {x.shape} x {w.shape}")
    if adapter is None:
        return nm.matmul(x, w)
    return nm.matmul(x, nm.add(w, nm.matmul(adapter.A, adapter.B)))


def adapter_owner(mode: str, proj: str, task: str) -> str | None:
    """The task that owns the adapter of one (projection, task) pair under a
    bank mode, or None when the adapter is shared by every task."""
    if mode == "per-task-full" or (mode == "multi-lora" and proj == "q"):
        return task
    return None


class MultiLoraBank:
    """Adapter storage: per layer, one adapter per distinct adapter_owner.

    multi-lora: one query adapter per task plus one shared adapter each for
    key/value/output. per-task-full: one adapter per task for every
    projection. single-shared: one adapter per projection used by all tasks.
    none: no adapters.
    """

    def __init__(self, cfg: LmConfig, tasks: tuple[str, ...], mode: str, rng: np.random.Generator):
        if mode not in BANK_MODES:
            raise ContractError(f"unknown bank mode {mode!r}")
        for t in tasks:
            if t not in TASKS:
                raise ContractError(f"unknown task {t!r}")
        self.mode = mode
        self.tasks = tuple(tasks)
        self.n_layers = cfg.n_layers
        self._adapters: dict[tuple[int, str, str | None], LoraAdapter] = {}
        if mode == "none":
            return
        for layer in range(cfg.n_layers):
            for proj in PROJS:
                for task in self.tasks:
                    key = (layer, proj, adapter_owner(mode, proj, task))
                    if key not in self._adapters:
                        self._adapters[key] = LoraAdapter(cfg.d_model, cfg.rank, rng)

    def adapter(self, layer: int, proj: str, task: str) -> LoraAdapter | None:
        """The adapter a task's projection runs through; None in a bank
        without adapters (mode none)."""
        if task not in self.tasks:
            raise ContractError(f"task {task!r} not served by this bank")
        return self._adapters[(layer, proj, adapter_owner(self.mode, proj, task))] if self._adapters else None

    def task_query_adapters(self, layer: int) -> list[tuple[str, LoraAdapter]]:
        """Task-owned query adapters of one layer, in task order; empty when
        every query adapter is shared or there are none."""
        return [(t, self._adapters[(layer, "q", t)]) for t in self.tasks if (layer, "q", t) in self._adapters]

    def adapter_count(self) -> int:
        return len(self._adapters)

    def parameter_count(self) -> int:
        return sum(a.A.data.size + a.B.data.size for a in self._adapters.values())

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for (layer, proj, task), ad in sorted(
            self._adapters.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or "")
        ):
            scope = "shared" if task is None else f"task{self.tasks.index(task)}"
            out[f"lora.{scope}.layer{layer}.{proj}.A"] = ad.A
            out[f"lora.{scope}.layer{layer}.{proj}.B"] = ad.B
        return out


@functools.lru_cache(maxsize=None)
def _cross_task_mask(n_tasks: int, rank: int, dtype: np.dtype) -> Tensor:
    """Read-only 0/1 mask over the Gram of n_tasks side-by-side blocks of rank
    columns: 1 where row and column belong to different tasks and to
    different columns within their blocks."""
    task = np.repeat(np.arange(n_tasks), rank)
    col = np.tile(np.arange(rank), n_tasks)
    mask = ((task[:, None] != task) & (col[:, None] != col)).astype(dtype)
    mask.flags.writeable = False
    return Tensor(mask)


def orth_loss(bank: MultiLoraBank) -> Tensor:
    """Sum over layers and ordered task pairs of the squared off-diagonal
    entries of the cross-Gram between the pairs' query A matrices.

    Per layer that is one Gram S^T S of the task query A's side by side,
    masked to its cross-task off-diagonal entries. Differentiates into the A
    matrices only; returns an exact scalar zero when fewer than two
    task-specific query adapters exist.
    """
    terms: list[Tensor] = []
    for layer in range(bank.n_layers):
        ads = bank.task_query_adapters(layer)
        if len(ads) < 2:
            continue
        s = nm.concat_cols([ad.A for _t, ad in ads])
        mask = _cross_task_mask(len(ads), ads[0][1].A.shape[1], s.data.dtype)
        off = nm.mul(nm.matmul(nm.transpose(s), s), mask)
        terms.append(nm.tsum(nm.mul(off, off)))
    if not terms:
        # the zero takes the adapters' dtype, so adding it to a loss promotes nothing
        dtype = next((ad.A.data.dtype for ad in bank._adapters.values()), nm.DEFAULT_DTYPE)
        return Tensor(np.zeros((), dtype=dtype))
    return nm.add_n(terms)


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------


def init_backbone(cfg: LmConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Backbone parameters under their persistent names, frozen: only a
    pretraining pass thaws them, and it freezes them again when it ends."""
    if cfg.vocab_size < 1:
        raise ShapeError("vocab_size must be set before building the backbone")
    d, dff = cfg.d_model, cfg.d_ff
    resid_std = 0.02 / np.sqrt(2.0 * cfg.n_layers)
    params: dict[str, Tensor] = {
        "lm.token_table": Tensor(rng.normal(0.0, 0.02, size=(cfg.vocab_size, d))),
        "lm.pos_table": Tensor(rng.normal(0.0, 0.02, size=(cfg.max_len, d))),
        "lm.final_norm.gain": Tensor(np.ones(d)),
        "lm.final_norm.bias": Tensor(np.zeros(d)),
    }
    for i in range(cfg.n_layers):
        p = f"lm.layer{i}"
        params[f"{p}.norm.attn.gain"] = Tensor(np.ones(d))
        params[f"{p}.norm.attn.bias"] = Tensor(np.zeros(d))
        params[f"{p}.norm.ffn.gain"] = Tensor(np.ones(d))
        params[f"{p}.norm.ffn.bias"] = Tensor(np.zeros(d))
        params[f"{p}.q"] = Tensor(rng.normal(0.0, 0.02, size=(d, d)))
        params[f"{p}.k"] = Tensor(rng.normal(0.0, 0.02, size=(d, d)))
        params[f"{p}.v"] = Tensor(rng.normal(0.0, 0.02, size=(d, d)))
        params[f"{p}.o"] = Tensor(rng.normal(0.0, resid_std, size=(d, d)))
        params[f"{p}.ffn.w1"] = Tensor(rng.normal(0.0, 0.02, size=(d, dff)))
        params[f"{p}.ffn.b1"] = Tensor(np.zeros(dff))
        params[f"{p}.ffn.w2"] = Tensor(rng.normal(0.0, resid_std, size=(dff, d)))
        params[f"{p}.ffn.b2"] = Tensor(np.zeros(d))
    return params


def freeze_backbone(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.requires_grad = False


def mha_forward(
    x: Tensor,
    task: str,
    layer: int,
    params: dict[str, Tensor],
    bank: MultiLoraBank,
    cfg: LmConfig,
    lengths: Sequence[int] | None = None,
    read: Sequence[Sequence[int]] | None = None,
) -> Tensor:
    """Causal multi-head attention for one layer over a pack of sequences of
    the given lengths (default: x is one sequence). Keys and values come from
    every row; queries from the positions read[b] of each sequence b, one
    output row each (default: every row). Query projections use the task's
    adapter, key/value/output the shared ones (mode permitting). The query
    rows are scaled by 1/sqrt(d_head) before the unscaled attention op."""
    p = f"lm.layer{layer}"
    lengths = [x.shape[0]] if lengths is None else lengths
    xq = x if read is None else nm.gather_rows(x, _packed_rows(lengths, read))
    q = lora_apply(xq, params[f"{p}.q"], bank.adapter(layer, "q", task))
    # a Python float keeps f32 in f32
    q = nm.scale(q, 1.0 / math.sqrt(cfg.d_model // cfg.n_heads))
    k = lora_apply(x, params[f"{p}.k"], bank.adapter(layer, "k", task))
    v = lora_apply(x, params[f"{p}.v"], bank.adapter(layer, "v", task))
    merged = nm.causal_attention(q, k, v, lengths, cfg.n_heads, read)
    return lora_apply(merged, params[f"{p}.o"], bank.adapter(layer, "o", task))


def _packed_rows(lengths: Sequence[int], read: Sequence[Sequence[int]]) -> list[int]:
    """The pack's row numbers of the positions read[b] of each sequence b."""
    starts = itertools.accumulate(lengths[:-1], initial=0)
    return [start + t for start, positions in zip(starts, read) for t in positions]


def forward(
    embs: Tensor,
    task: str,
    params: dict[str, Tensor],
    bank: MultiLoraBank,
    cfg: LmConfig,
    lengths: Sequence[int] | None = None,
    read: Sequence[Sequence[int]] | None = None,
) -> Tensor:
    """Pre-norm decoder stack over a pack of embedding sequences, given by
    their lengths (default: embs is one sequence); returns logits through the
    tied token-table projection, one row per position read[b] of each
    sequence b, sequence after sequence (default: one per embedding row).

    Positions restart at 0 in every sequence and no row attends outside its
    own sequence, so each sequence's logits are those of a pass over it alone.
    No row reads a later row, so the last layer needs every row only for its
    keys and values: the rest of it runs on the read rows alone.
    """
    lengths = [embs.shape[0]] if lengths is None else list(lengths)
    if sum(lengths) != embs.shape[0]:
        raise ContractError(f"sequence lengths {lengths} do not add up to {embs.shape[0]} rows")
    for t_len in lengths:
        if t_len > cfg.max_len:
            raise ContractError(f"sequence of {t_len} exceeds max length {cfg.max_len}")
    pos = nm.gather_rows(params["lm.pos_table"], [i for t_len in lengths for i in range(t_len)])
    x = nm.add(embs, pos)
    for i in range(cfg.n_layers):
        p = f"lm.layer{i}"
        last_read = read if i == cfg.n_layers - 1 else None
        h = nm.layer_norm(x, params[f"{p}.norm.attn.gain"], params[f"{p}.norm.attn.bias"])
        attn = mha_forward(h, task, i, params, bank, cfg, lengths, last_read)
        if last_read is not None:
            x = nm.gather_rows(x, _packed_rows(lengths, last_read))
        x = nm.add(x, attn)
        h2 = nm.layer_norm(x, params[f"{p}.norm.ffn.gain"], params[f"{p}.norm.ffn.bias"])
        f = nm.matmul(nm.gelu(nm.add(nm.matmul(h2, params[f"{p}.ffn.w1"]), params[f"{p}.ffn.b1"])), params[f"{p}.ffn.w2"])
        x = nm.add(x, nm.add(f, params[f"{p}.ffn.b2"]))
    x = nm.layer_norm(x, params["lm.final_norm.gain"], params["lm.final_norm.bias"])
    return nm.matmul(x, nm.transpose(params["lm.token_table"]))

