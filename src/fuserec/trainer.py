"""Training loop: curriculum dual-prompt loss, variant dispatch, optimizer.

Every batch holds examples of a single task. Each example is rendered twice:
a text-only prompt and a collaborative prompt whose placeholder rows carry
the projected user/item vectors. The batch's prompts of one form are packed
end to end and go through the decoder in one pass. The two answer-token
cross-entropies are blended by a decaying weight so text competence is
established before the collaborative path dominates, and the query-adapter
orthogonality penalty is added on top. Each variant's row in VARIANTS names its fusion mode, adapter
bank layout and loss form.
"""

from __future__ import annotations

import gc
import itertools
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import checkpoint as ckpt
from . import fusion as fz
from . import lm as lmmod
from . import numerics as nm
from .collab import CfEmbeddings
from .corpus import (
    TASKS,
    Corpus,
    PlaceholderPositions,
    TaskExample,
    build_examples,
    locate_placeholders,
    render_prompt,
)
from .lm import LmConfig, MultiLoraBank
from .numerics import ContractError, NumericError, Tensor
from .optim import AdamW
from .prng import SplitMix64


class Variant(NamedTuple):
    """How one variant wires the model: fusion kind, adapter bank mode, loss form."""

    fusion: str
    bank: str
    loss: str


VARIANTS = {
    "CKF": Variant("personalized", "multi-lora", "curriculum"),
    "NCK": Variant("none", "multi-lora", "text-only"),
    "NPM": Variant("generic-shared", "multi-lora", "curriculum"),
    "TLM": Variant("generic-two", "multi-lora", "curriculum"),
    "NML": Variant("personalized", "single-shared", "curriculum"),
    "NEN": Variant("personalized", "multi-lora", "collab-only"),
    "S": Variant("personalized", "multi-lora", "curriculum"),
}


@dataclass
class BetaSchedule:
    """Smoothly decaying weight for the text-only loss term.

    beta(i) = 1 / (1 + exp(((i/z) - 1) / tau)): starts near 1, ends at 0.5
    exactly.
    """

    total_steps: int
    tau: float = 0.125

    def __post_init__(self):
        if self.tau <= 0:
            raise ContractError("tau must be positive")
        if self.total_steps < 1:
            raise ContractError("total_steps must be >= 1")


def beta(i: int, sched: BetaSchedule) -> float:
    if not 0 <= i <= sched.total_steps:
        raise ContractError(f"step {i} outside [0, {sched.total_steps}]")
    return 1.0 / (1.0 + math.exp((i / sched.total_steps - 1.0) / sched.tau))


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-3
    epochs: int = 3
    batch_size: int = 8
    variant: str = "CKF"
    lambda_orth: float = 1.0
    tau: float = 0.125
    seed: int = 0
    tasks: tuple[str, ...] | None = None  # None or empty: every task the corpus supports
    n_neg: int = 10
    pretrain_steps: int = 0
    pretrain_lr: float = 1e-3

    def __post_init__(self):
        self.tasks = tuple(self.tasks or ())
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name}: must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "pretrain_steps"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name}: must be >= 0, got {getattr(self, name)}")
        for name in ("lr", "pretrain_lr", "tau"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ContractError(f"{name}: must be > 0, got {getattr(self, name)}")
        if self.variant not in VARIANTS:
            raise ContractError(f"variant: unknown variant {self.variant!r}")
        for t in self.tasks:
            if t not in TASKS:
                raise ContractError(f"tasks: unknown task {t!r}")
        if len(set(self.tasks)) != len(self.tasks):
            raise ContractError("tasks: duplicate task")
        if self.variant == "S" and len(self.tasks) != 1:
            raise ContractError("tasks: variant S trains exactly one task per run")


class RecModel:
    """Backbone parameters, adapter bank and fusion module for one run.

    The backbone is built frozen; _pretrain_backbone is the one place it trains.
    """

    def __init__(self, lm_cfg: LmConfig, variant: str, tasks: tuple[str, ...], d_cf: int, fusion_hidden: int, seed: int):
        self.lm_cfg = lm_cfg
        self.variant = variant
        self.tasks = tuple(tasks)
        self.d_cf = d_cf
        self.fusion_hidden = fusion_hidden
        wiring = VARIANTS[variant]
        rng = np.random.default_rng(seed)
        self.params = lmmod.init_backbone(lm_cfg, rng)
        self.bank = MultiLoraBank(lm_cfg, self.tasks, wiring.bank, rng)
        if wiring.fusion == "personalized":
            self.fusion = fz.PersonalizedFusion(d_cf, lm_cfg.d_model, fusion_hidden, rng)
        elif wiring.fusion == "none":
            self.fusion = fz.NoFusion()
        else:
            self.fusion = fz.GenericFusion(d_cf, lm_cfg.d_model, rng, shared=(wiring.fusion == "generic-shared"))

    def named_parameters(self) -> dict[str, Tensor]:
        out = dict(self.params)
        out.update(self.bank.named_parameters())
        out.update(self.fusion.named_parameters())
        return out

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.named_parameters().items() if t.requires_grad}

    def uses_collab_prompt(self) -> bool:
        return VARIANTS[self.variant].fusion != "none"

    def reads_pooled_rows(self) -> bool:
        """Whether the fusion maps read pooled CF rows: only the meta-networks do."""
        return self.fusion.kind == "personalized"


# ---------------------------------------------------------------------------
# example preparation
# ---------------------------------------------------------------------------


@dataclass
class Encoded:
    seq: list[int]
    targets: list[int]
    answer_pos: list[int]
    positions: PlaceholderPositions
    n_prompt: int


def encode_prompt(example: TaskExample, corpus: Corpus, inject_collab: bool) -> Encoded:
    """Render, tokenize and locate the placeholders of one prompt.

    The answer tokens follow the prompt in seq, and answer_pos lists the
    positions that predict them, the ones the loss reads; scoring reads only
    seq[:n_prompt].
    """
    rendered = render_prompt(example, corpus.catalog, inject_collab)
    vocab = corpus.vocab
    prompt_ids = vocab.encode(rendered.text)
    answer_ids = vocab.encode(rendered.answer_text, bos=False)
    positions = locate_placeholders(prompt_ids, vocab, expected=inject_collab)
    seq = prompt_ids + answer_ids
    n_p = len(prompt_ids)
    return Encoded(seq, seq[1:] + [vocab.eos], list(range(n_p - 1, len(seq) - 1)), positions, n_p)


class CfRows(NamedTuple):
    """Frozen CF inputs of one sequence: the user row, the item row it is read
    with, and each of the two attention-pooled over the user's history (or
    the row itself, for a fusion that reads no pooled rows)."""

    e_u: np.ndarray
    pooled_u: np.ndarray
    e_v: np.ndarray
    pooled_v: np.ndarray


def cf_rows(example: TaskExample, corpus: Corpus, cf: CfEmbeddings, items: Sequence[int], pool: bool = True) -> list[CfRows]:
    """One CfRows per item, all with the example's user: the user row and
    every item row are pooled over the example's history in one call. With
    pool False (a fusion that reads no pooled rows) each row stands for its
    own pooled row and nothing is pooled."""
    e_u = cf.lookup_user(corpus.user_index[example.user_id])
    e_vs = [cf.lookup_item(corpus.item_index[v]) for v in items]
    if not pool:
        return [CfRows(e_u, e_u, e_v, e_v) for e_v in e_vs]
    hist = cf.item_table[[corpus.item_index[h] for h in example.history]]
    pooled = fz.attention_pool(np.stack([e_u, *e_vs]), hist)
    return [CfRows(e_u, pooled[0], e_v, p) for e_v, p in zip(e_vs, pooled[1:])]


def map_users(model: RecModel, rows: Sequence[CfRows]) -> Tensor:
    """The mapped user vectors of rows, one row each, from one map_user call."""
    return model.fusion.map_user(np.stack([r.e_u for r in rows]), np.stack([r.pooled_u for r in rows]))


def embed(
    model: RecModel,
    seqs: Sequence[list[int]],
    positions: Sequence[PlaceholderPositions],
    rows: Sequence[CfRows],
    ep_u: Tensor | None = None,
) -> Tensor:
    """Decoder inputs for a pack: the embedding rows of seqs, one after another.

    A plain pack is one token-row gather. In a collaborative pack each
    sequence's placeholder rows, at positions[b], carry the mapped CF vectors
    of rows[b]: one map_user call maps every user (unless ep_u holds them
    mapped already, one row per sequence), one map_item call every item, and
    one inject writes them in.
    """
    table = model.params["lm.token_table"]
    ids = [t for s in seqs for t in s]
    if positions[0].user_pos is None:
        return nm.gather_rows(table, ids)
    starts = list(itertools.accumulate((len(s) for s in seqs[:-1]), initial=0))
    ep_u = map_users(model, rows) if ep_u is None else ep_u
    ep_v = model.fusion.map_item(np.stack([r.e_v for r in rows]), np.stack([r.pooled_v for r in rows]))
    user_rows = [o + p.user_pos for o, p in zip(starts, positions)]
    item_rows = [o + p.item_pos for o, p in zip(starts, positions)]
    return fz.inject(ids, user_rows, item_rows, table, ep_u, ep_v)


@dataclass
class Prepared:
    example: TaskExample
    plain: Encoded
    collab: Encoded | None
    rows: CfRows


def prepare_example(example: TaskExample, corpus: Corpus, cf: CfEmbeddings, with_collab: bool, pool: bool = True) -> Prepared:
    plain = encode_prompt(example, corpus, inject_collab=False)
    collab = encode_prompt(example, corpus, inject_collab=True) if with_collab else None
    (rows,) = cf_rows(example, corpus, cf, [example.candidate], pool)
    return Prepared(example, plain, collab, rows)


def pack_loss(model: RecModel, task: str, encs: Sequence[Encoded], rows: Sequence[CfRows]) -> Tensor:
    """Mean over the sequences of each one's answer-token loss, from one
    decoder pass over their pack that reads the answer positions alone."""
    embs = embed(model, [e.seq for e in encs], [e.positions for e in encs], rows)
    read = [e.answer_pos for e in encs]
    logits = lmmod.forward(embs, task, model.params, model.bank, model.lm_cfg, [len(e.seq) for e in encs], read)
    targets = [e.targets[t] for e, positions in zip(encs, read) for t in positions]
    return nm.cross_entropy(logits, targets, [len(r) for r in read])


def batch_loss(
    batch: list[Prepared],
    model: RecModel,
    step: int,
    sched: BetaSchedule,
    lambda_orth: float,
    beta_value: float | None = None,
) -> tuple[Tensor, dict]:
    """Weighted dual-prompt loss for one task-homogeneous batch, with one
    packed decoder pass per prompt form.

    Returns the scalar loss tensor plus a component log with the beta weight
    and the per-term values.
    """
    if not batch:
        raise ContractError("empty batch")
    task = batch[0].example.task
    if any(p.example.task != task for p in batch):
        raise ContractError("batch mixes tasks")
    form = VARIANTS[model.variant].loss
    rows = [p.rows for p in batch]
    loss_t1 = loss_t2 = None
    if form != "collab-only":
        loss_t1 = pack_loss(model, task, [p.plain for p in batch], rows)
    if form != "text-only":
        loss_t2 = pack_loss(model, task, [p.collab for p in batch], rows)
    orth = lmmod.orth_loss(model.bank)
    if form == "text-only":
        total = loss_t1
        b = 1.0
    elif form == "collab-only":
        total = loss_t2
        b = 0.0
    else:
        b = beta(step, sched) if beta_value is None else beta_value
        total = nm.add(nm.scale(loss_t1, b), nm.scale(loss_t2, 1.0 - b))
    if lambda_orth != 0.0:
        total = nm.add(total, nm.scale(orth, lambda_orth))
    parts = {
        "task": task,
        "beta": b,
        "loss_t1": loss_t1.item() if loss_t1 is not None else None,
        "loss_t2": loss_t2.item() if loss_t2 is not None else None,
        "loss_orth": orth.item(),
        "total": total.item(),
    }
    if not np.isfinite(parts["total"]):
        raise NumericError(f"non-finite training loss at step {step}")
    return total, parts


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: RecModel
    log: list[dict] = field(default_factory=list)
    valid_losses: list[float] = field(default_factory=list)
    steps: int = 0
    prng_state: int = 0


def _pretrain_backbone(model: RecModel, pool: list[Prepared], cfg: TrainConfig) -> None:
    """Brief next-token pass standing in for large-scale pretraining.

    Sequences cover both prompt renderings: the text-only form and the
    collaborative form with its placeholder markers embedded as ordinary
    vocab tokens (no injection), so neither wording is foreign to the frozen
    backbone later. Each step is one packed pass over batch_size sequences.
    All positions are supervised. The backbone trains only here: it is thawed
    at the start and frozen again when the pass ends.
    """
    sequences: list[tuple[str, list[int], list[int]]] = []
    for p in pool:
        sequences.append((p.example.task, p.plain.seq, p.plain.targets))
        if p.collab is not None:
            sequences.append((p.example.task, p.collab.seq, p.collab.targets))
    opt = AdamW(model.params, lr=cfg.pretrain_lr, weight_decay=0.0)
    rng = SplitMix64(cfg.seed).fork(11)
    silent_bank = MultiLoraBank(model.lm_cfg, model.tasks, "none", np.random.default_rng(0))
    for t in model.params.values():
        t.requires_grad = True
    for _ in range(cfg.pretrain_steps):
        tasks, seqs, targets = zip(*(sequences[rng.randbelow(len(sequences))] for _ in range(cfg.batch_size)))
        lengths = [len(seq) for seq in seqs]
        flat_targets = [t for seq_targets in targets for t in seq_targets]
        with nm.Tape() as tape:
            embs = nm.gather_rows(model.params["lm.token_table"], [t for seq in seqs for t in seq])
            # a bank without adapters reads the same weights for every task
            logits = lmmod.forward(embs, tasks[0], model.params, silent_bank, model.lm_cfg, lengths)
            loss = nm.cross_entropy(logits, flat_targets, lengths)
            grads = nm.backward(loss, tape)
        opt.step({n: nm.grad_of(grads, t) for n, t in model.params.items()})
    lmmod.freeze_backbone(model.params)


@contextmanager
def _cyclic_gc_paused():
    """Python's cyclic garbage collector off inside the block, as before after it.

    A training step puts thousands of short-lived, cycle-free objects on the
    tape, which reference counting frees. Left on, the collector keeps
    promoting them and so keeps running full passes, each walking every object
    the training pools hold: about a fifth of a step at the desk scale of
    acceptance criterion 8.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_cyclic_gc_paused()
def train(
    corpus: Corpus,
    cf: CfEmbeddings,
    lm_cfg: LmConfig,
    cfg: TrainConfig,
    fusion_hidden: int = 8,
) -> TrainResult:
    """Run the full fine-tuning loop and return the trained model plus logs.

    The model is built f64, as RecModel always is, and cast to f32 at once:
    pretraining, fine-tuning and validation run in f32, and to_checkpoint
    stores the f32 tensors, so a loaded model evaluates in f32 too. The checks
    build their own f64 models. Deterministic for a fixed config and seed: the
    same bytes come out of to_checkpoint for two identical runs.
    """
    tasks = cfg.tasks or corpus.tasks
    model = RecModel(lm_cfg, cfg.variant, tasks, cf.d_cf, fusion_hidden, cfg.seed)
    for t in model.named_parameters().values():
        t.data = t.data.astype(np.float32)

    with_collab, pooled = model.uses_collab_prompt(), model.reads_pooled_rows()
    pools: dict[str, list[Prepared]] = {}
    for task in tasks:
        examples = build_examples(corpus, task, "train", n_neg=cfg.n_neg, seed=cfg.seed)
        pools[task] = [prepare_example(ex, corpus, cf, with_collab, pooled) for ex in examples]
    valid_pools: dict[str, list[Prepared]] = {}
    for task in tasks:
        examples = build_examples(corpus, task, "valid", n_neg=cfg.n_neg, seed=cfg.seed)
        valid_pools[task] = [prepare_example(ex, corpus, cf, with_collab, pooled) for ex in examples]
    longest = max(
        (len(e.seq) for pool in (*pools.values(), *valid_pools.values()) for p in pool for e in (p.plain, p.collab) if e is not None),
        default=0,
    )
    if longest > lm_cfg.max_len:
        from .config import ConfigError  # config imports this module, so not at the top

        raise ConfigError(f"lm.max_len: {lm_cfg.max_len} is shorter than the longest training sequence, {longest} tokens")

    if cfg.pretrain_steps > 0:
        _pretrain_backbone(model, [p for task in tasks for p in pools[task]], cfg)

    def batches_of(n: int) -> int:
        return (n + cfg.batch_size - 1) // cfg.batch_size

    steps_per_epoch = sum(batches_of(len(pools[t])) for t in tasks)
    total_steps = max(cfg.epochs * steps_per_epoch, 1)
    sched = BetaSchedule(total_steps=total_steps, tau=cfg.tau)

    trainable = model.trainable()
    opt = AdamW(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)

    stream = SplitMix64(cfg.seed).fork(13)
    result = TrainResult(model=model)
    step = 0
    for _epoch in range(cfg.epochs):
        queues: dict[str, list[list[int]]] = {}
        for task in tasks:
            idx = list(range(len(pools[task])))
            stream.shuffle(idx)
            queues[task] = [idx[i : i + cfg.batch_size] for i in range(0, len(idx), cfg.batch_size)]
        depth = max((len(q) for q in queues.values()), default=0)
        for b in range(depth):
            for task in tasks:
                if b >= len(queues[task]):
                    continue
                batch = [pools[task][j] for j in queues[task][b]]
                with nm.Tape() as tape:
                    loss, parts = batch_loss(batch, model, step, sched, cfg.lambda_orth)
                    grads = nm.backward(loss, tape)
                opt.step({n: nm.grad_of(grads, t) for n, t in trainable.items()})
                parts["step"] = step
                result.log.append(parts)
                step += 1
        result.valid_losses.append(_validation_loss(model, valid_pools, cfg.batch_size))
    result.steps = step
    result.prng_state = stream.state
    return result


def _validation_loss(model: RecModel, valid_pools: dict[str, list[Prepared]], batch_size: int) -> float:
    """Mean main-prompt loss over the validation pool (text prompt for the
    no-collaboration variant, collaborative prompt otherwise), one packed pass
    per batch_size examples of a task."""
    collab = model.uses_collab_prompt()
    total, count = 0.0, 0
    for task in model.tasks:
        pool = valid_pools.get(task, [])
        for i in range(0, len(pool), batch_size):
            chunk = pool[i : i + batch_size]
            encs = [p.collab if collab else p.plain for p in chunk]
            total += pack_loss(model, task, encs, [p.rows for p in chunk]).item() * len(chunk)
            count += len(chunk)
    return total / count if count else float("nan")


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def to_checkpoint(result: TrainResult, cfg: TrainConfig, path: str) -> None:
    model = result.model
    tensors = {name: t.data for name, t in model.named_parameters().items()}
    ckpt.save_tensors(path, tensors)
    meta = {
        "lm": asdict(model.lm_cfg),
        "variant": model.variant,
        "tasks": list(model.tasks),
        "d_cf": model.d_cf,
        "fusion_hidden": model.fusion_hidden,
        "seed": cfg.seed,
        "steps": result.steps,
        "prng_state": str(result.prng_state),
        "valid_losses": result.valid_losses,
    }
    ckpt.save_meta(path + ".json", meta)


def from_checkpoint(path: str) -> RecModel:
    meta_path = path + ".json"
    meta = ckpt.load_meta(meta_path)
    try:
        lm_cfg = LmConfig(**meta["lm"])
        variant, tasks = meta["variant"], tuple(meta["tasks"])
        d_cf, fusion_hidden = meta["d_cf"], meta["fusion_hidden"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ckpt.CheckpointError(f"{meta_path}: unreadable model metadata ({exc!r})") from None
    if variant not in VARIANTS:
        raise ckpt.CheckpointError(f"{meta_path}: unknown variant {variant!r}")
    if not all(isinstance(n, int) and n >= 1 for n in (d_cf, fusion_hidden)):
        raise ckpt.CheckpointError(f"{meta_path}: d_cf {d_cf!r} and fusion_hidden {fusion_hidden!r} must be >= 1")
    model = RecModel(lm_cfg, variant, tasks, d_cf, fusion_hidden, seed=0)
    tensors = ckpt.load_tensors(path)
    named = model.named_parameters()
    missing = sorted(set(named) - set(tensors))
    extra = sorted(set(tensors) - set(named))
    if missing or extra:
        raise ckpt.CheckpointError(f"checkpoint mismatch: missing {missing[:3]}, extra {extra[:3]}")
    for name, t in named.items():
        if tensors[name].shape != t.data.shape:
            raise ckpt.CheckpointError(f"tensor {name!r} has shape {tensors[name].shape}, expected {t.data.shape}")
        t.data = tensors[name]
    return model
