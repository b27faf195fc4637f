"""Per-layer tracing installed from outside the program.

The tracer wraps the public functions of fuserec's modules (and the tape's
`record`, so that each op's backward closure is timed too), counts calls and
accumulates busy time per layer metric, and keeps a span (name, start, end,
parent) for every call at a layer boundary. Nothing in `src/` is edited: the
wrappers replace module attributes and class methods for the duration of a
`with Tracer():` block and are removed on exit.

Numerics ops are counted and timed but get no span each, because a fine-tune
step makes well over a thousand of them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from fuserec import checkpoint as ckpt
from fuserec import collab as cfmod
from fuserec import corpus as cp
from fuserec import evaluate as ev
from fuserec import fusion as fz
from fuserec import lm as lmmod
from fuserec import numerics as nm
from fuserec import optim
from fuserec import trainer as tr

# numerics op function -> the op name it records on the tape
NUMERICS_OPS = {
    "matmul": "matmul",
    "add": "add",
    "add_n": "add_n",
    "sub": "sub",
    "mul": "mul",
    "scale": "scale",
    "relu": "relu",
    "gelu": "gelu",
    "softplus": "softplus",
    "softmax": "softmax",
    "layer_norm": "layer_norm",
    "cross_entropy": "cross_entropy",
    "tsum": "sum",
    "tmean": "mean",
    "reshape": "reshape",
    "transpose": "transpose",
    "gather_rows": "gather_rows",
    "row_set": "row_set",
    "slice_cols": "slice_cols",
    "concat_cols": "concat_cols",
}

N_LAYERS = 2  # every workload's decoder has two layers

# (module, attribute, metric stem): a span, a call count and busy time each
SPANNED_FUNCTIONS = (
    (lmmod, "forward", "lm.forward"),
    (lmmod, "orth_loss", "lm.orth_loss"),
    (fz, "inject", "fusion.inject"),
    (fz, "generate_mapping", "fusion.meta_net"),
    (tr, "prepare_example", "trainer.prepare_example"),
    (tr, "batch_loss", "trainer.batch_loss"),
    (tr, "_validation_loss", "trainer.validation"),
    (tr, "_pretrain_backbone", "trainer.pretrain"),
    (ev, "answer_distribution", "evaluate.answer_distribution"),
    (ev, "candidate_scores", "evaluate.candidate_scores"),
    (cp, "parse_interactions", "corpus.parse"),
    (cp, "build_corpus", "corpus.build_corpus"),
    (cp, "build_examples", "corpus.build_examples"),
    (cfmod, "train_cf", "collab.train_cf"),
    (ckpt, "save_tensors", "checkpoint.save_tensors"),
    (ckpt, "load_tensors", "checkpoint.load_tensors"),
    (nm, "backward", "numerics.backward"),
)
SPANNED_METHODS = (
    (fz.PersonalizedFusion, "map_user", "fusion.map_user"),
    (fz.PersonalizedFusion, "map_item", "fusion.map_item"),
    (fz.GenericFusion, "map_user", "fusion.map_user"),
    (fz.GenericFusion, "map_item", "fusion.map_item"),
    (optim.AdamW, "step", "optim.step"),
    (cfmod.CfEmbeddings, "nearest_items", "collab.nearest_items"),
)
# hot calls: counted and timed, no span
COUNTED_METHODS = (
    (cp.Vocab, "encode", "corpus.encode"),
)
COUNTED_FUNCTIONS = (
    (cp, "render_prompt", "corpus.render_prompt"),
)

CLI_COMMANDS = ("build-corpus", "train-cf", "train", "evaluate", "export-embeddings")


def _count_tokens(counts, args) -> None:
    counts["lm.forward.tokens"] += args[0].shape[0]


def _count_checkpoint_bytes(counts, args) -> None:
    counts["checkpoint.bytes_written"] += os.path.getsize(args[0])


# extra counts taken from a spanned call's positional arguments once it returns
_AFTER_CALL = {"lm.forward": _count_tokens, "checkpoint.save_tensors": _count_checkpoint_bytes}


def _fuserec_modules():
    return [m for name, m in sys.modules.items() if name == "fuserec" or name.startswith("fuserec.")]


class Tracer:
    """Counts, busy times and spans for one traced region.

    Use as a context manager; `reset()` starts a fresh round and
    `snapshot()` turns the accumulators into the per-layer metrics.
    """

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.times: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = [0]
        self._next_span = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span under the current parent."""
        return _Span(self, name)

    def _open(self) -> tuple[int, int]:
        sid = self._next_span
        self._next_span += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))
        self.times[name + "_s"] += end - start
        self.counts[name + ".calls"] += 1

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, wrapper_factory) -> None:
        """Replace a function in its module and wherever it was imported by name."""
        orig = getattr(module, attr)
        wrapper = functools.wraps(orig)(wrapper_factory(orig))
        for mod in _fuserec_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, name, wrapper)

    def _spanned(self, stem: str, orig):
        tracer = self
        after = _AFTER_CALL.get(stem)

        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(sid, parent, stem, start, time.perf_counter())
            if after is not None:
                after(tracer.counts, args)
            return result

        return wrapper

    def _counted(self, stem: str, orig):
        counts, times = self.counts, self.times
        calls, busy = stem + ".calls", stem + "_s"

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                times[busy] += time.perf_counter() - start
                counts[calls] += 1

        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, stem in SPANNED_FUNCTIONS:
            self._patch_function(module, attr, functools.partial(self._spanned, stem))
        for module, attr, stem in COUNTED_FUNCTIONS:
            self._patch_function(module, attr, functools.partial(self._counted, stem))
        for cls, attr, stem in SPANNED_METHODS:
            self._replace(cls, attr, functools.wraps(cls.__dict__[attr])(self._spanned(stem, cls.__dict__[attr])))
        for cls, attr, stem in COUNTED_METHODS:
            self._replace(cls, attr, functools.wraps(cls.__dict__[attr])(self._counted(stem, cls.__dict__[attr])))
        for fn, op in NUMERICS_OPS.items():
            self._patch_function(nm, fn, functools.partial(self._counted, f"numerics.op.{op}.fwd"))
        self._patch_function(lmmod, "mha_forward", self._attention)
        self._patch_tape()
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def _attention(self, orig):
        tracer = self

        def wrapper(x, task, layer, *args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return orig(x, task, layer, *args, **kwargs)
            finally:
                tracer._close(sid, parent, f"lm.layer{layer}.attn", start, time.perf_counter())

        return wrapper

    def _patch_tape(self) -> None:
        counts, times = self.counts, self.times
        record = nm.Tape.__dict__["record"]
        enter = nm.Tape.__dict__["__enter__"]
        init = nm.Tensor.__dict__["__init__"]

        def timed_record(tape, name, inputs, out, backward):
            counts[f"numerics.op.{name}.records"] += 1
            key = f"numerics.op.{name}.bwd_s"

            def timed_backward(g):
                start = time.perf_counter()
                try:
                    return backward(g)
                finally:
                    times[key] += time.perf_counter() - start

            record(tape, name, inputs, out, timed_backward)

        def counted_enter(tape):
            counts["numerics.tapes"] += 1
            return enter(tape)

        def counted_init(tensor, *args, **kwargs):
            counts["numerics.tensors"] += 1
            init(tensor, *args, **kwargs)

        self._replace(nm.Tape, "record", timed_record)
        self._replace(nm.Tape, "__enter__", counted_enter)
        self._replace(nm.Tensor, "__init__", counted_init)

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        self.counts.clear()
        self.times.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset."""
        c, t = self.counts, self.times
        out: dict[str, float] = {}
        records = sum(v for k, v in c.items() if k.startswith("numerics.op.") and k.endswith(".records"))
        out["numerics.tape.records"] = records
        out["numerics.tape.records_per_step"] = records / c["numerics.tapes"] if c["numerics.tapes"] else 0.0
        for op in NUMERICS_OPS.values():
            out[f"numerics.op.{op}.records"] = c[f"numerics.op.{op}.records"]
            out[f"numerics.op.{op}.fwd_s"] = t[f"numerics.op.{op}.fwd_s"]
            out[f"numerics.op.{op}.bwd_s"] = t[f"numerics.op.{op}.bwd_s"]
        out["numerics.backward.calls"] = c["numerics.backward.calls"]
        out["numerics.backward_s"] = t["numerics.backward_s"]
        out["numerics.tensors"] = c["numerics.tensors"]

        attn = 0.0
        for i in range(N_LAYERS):
            out[f"lm.layer{i}.attn_s"] = t[f"lm.layer{i}.attn_s"]
            attn += t[f"lm.layer{i}.attn_s"]
        out["lm.forward.calls"] = c["lm.forward.calls"]
        out["lm.forward.tokens"] = c["lm.forward.tokens"]
        out["lm.forward_s"] = t["lm.forward_s"]
        out["lm.forward.non_attn_s"] = max(t["lm.forward_s"] - attn, 0.0)
        out["lm.orth_loss_s"] = t["lm.orth_loss_s"]

        for stem in ("fusion.map_user", "fusion.map_item", "fusion.inject", "fusion.meta_net"):
            out[stem + ".calls"] = c[stem + ".calls"]
            out[stem + "_s"] = t[stem + "_s"]
        out["optim.step.calls"] = c["optim.step.calls"]
        out["optim.step_s"] = t["optim.step_s"]

        out["trainer.steps"] = c["trainer.batch_loss.calls"]
        for stem in ("prepare_example", "batch_loss", "validation", "pretrain"):
            out[f"trainer.{stem}_s"] = t[f"trainer.{stem}_s"]
        for stem in ("answer_distribution", "candidate_scores"):
            out[f"evaluate.{stem}.calls"] = c[f"evaluate.{stem}.calls"]
            out[f"evaluate.{stem}_s"] = t[f"evaluate.{stem}_s"]

        for stem in ("parse", "build_corpus", "build_examples", "encode"):
            out[f"corpus.{stem}_s"] = t[f"corpus.{stem}_s"]
        out["corpus.encode.calls"] = c["corpus.encode.calls"]
        out["corpus.render_prompt.calls"] = c["corpus.render_prompt.calls"]

        out["collab.train_cf_s"] = t["collab.train_cf_s"]
        out["collab.nearest_items.calls"] = c["collab.nearest_items.calls"]
        out["collab.nearest_items_s"] = t["collab.nearest_items_s"]

        out["checkpoint.save_tensors_s"] = t["checkpoint.save_tensors_s"]
        out["checkpoint.load_tensors_s"] = t["checkpoint.load_tensors_s"]
        out["checkpoint.bytes_written"] = c["checkpoint.bytes_written"]
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_s"] = t[f"cli.{cmd}_s"]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, parent (0 = none), name, start, end in seconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.sid, self.parent, self.name, self.start, time.perf_counter())
        return False
