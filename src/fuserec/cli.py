"""Command-line pipelines: build-corpus, train-cf, train, evaluate, export.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checkpoint as ckpt
from . import corpus as cp
from . import trainer as tr
from .collab import CfEmbeddings, CfTrainConfig, train_cf
from .config import ConfigError, build, load_config
from .evaluate import evaluate_model
from .fusion import export_projected
from .lm import LmConfig
from .numerics import ContractError, NumericError


def cmd_build_corpus(cfg: dict, args) -> int:
    spec = build(cp.SplitSpec, cfg, "corpus")
    parsed = cp.parse_interactions(args.input, cfg["corpus"]["format"])
    corpus = cp.build_corpus(parsed, spec, history_limit=cfg["corpus"]["history_limit"])
    stats = cp.corpus_stats(corpus, n_neg=cfg["corpus"]["n_neg"], seed=corpus.spec.seed)
    cp.save_corpus(corpus, args.out)
    print(f"duplicates dropped: {parsed.duplicates_dropped}; users below 3 interactions dropped: {corpus.split.dropped_users}")
    print("#Interactions  #Train  #Valid  #Test  #User  #Item  Avg-U  Avg-I")
    print(
        f"{stats['interactions']:>13}  {stats['train']:>6}  {stats['valid']:>6}  {stats['test']:>5}"
        f"  {stats['users']:>5}  {stats['items']:>5}  {stats['avg_u']:>5.2f}  {stats['avg_i']:>5.2f}"
    )
    return 0


def _require(path: str, produced_by: str) -> None:
    if not os.path.exists(path):
        raise cp.CorpusError(f"missing artifact {path!r}; run `{produced_by}` first")


def _check_size(path: str, what: str, got: int, corpus_dir: str, want: int) -> None:
    if got != want:
        raise cp.CorpusError(f"{path} was made for {got} {what}, but the corpus at {corpus_dir!r} has {want}")


def _load_corpus(args) -> cp.Corpus:
    _require(os.path.join(args.corpus, "corpus.json"), "fuserec build-corpus")
    return cp.load_corpus(args.corpus)


def _load_cf(args, corpus: cp.Corpus) -> CfEmbeddings:
    _require(args.cf, "fuserec train-cf")
    tensors = ckpt.load_tensors(args.cf)
    if set(tensors) != {"cf.user_table", "cf.item_table"}:
        raise ckpt.CheckpointError(f"{args.cf}: not a CF checkpoint, holds {sorted(tensors)[:3]}")
    cf = CfEmbeddings(tensors["cf.user_table"], tensors["cf.item_table"])
    _check_size(args.cf, "users", cf.user_table.shape[0], args.corpus, len(corpus.user_index))
    _check_size(args.cf, "items", cf.item_table.shape[0], args.corpus, len(corpus.item_index))
    return cf


def _load_model(args, corpus: cp.Corpus, cf: CfEmbeddings) -> tr.RecModel:
    _require(args.model, "fuserec train")
    model = tr.from_checkpoint(args.model)
    _check_size(args.model, "vocab tokens", model.lm_cfg.vocab_size, args.corpus, len(corpus.vocab))
    if model.d_cf != cf.d_cf:
        raise cp.CorpusError(f"{args.model} was made for CF vectors of width {model.d_cf}, but {args.cf} holds width {cf.d_cf}")
    return model


def cmd_train_cf(cfg: dict, args) -> int:
    cf_cfg = build(CfTrainConfig, cfg, "cf", history_limit=cfg["corpus"]["history_limit"])
    corpus = _load_corpus(args)
    embs, losses = train_cf(corpus.split.train, corpus.user_index, corpus.item_index, cf_cfg)
    ckpt.save_tensors(args.out, {"cf.user_table": embs.user_table, "cf.item_table": embs.item_table})
    print(f"cf epochs: {len(losses)}; final loss {losses[-1]:.6f}; tables {embs.user_table.shape} / {embs.item_table.shape}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    train_cfg = build(tr.TrainConfig, cfg, "train", n_neg=cfg["corpus"]["n_neg"])
    corpus = _load_corpus(args)
    cf = _load_cf(args, corpus)
    lm_cfg = build(LmConfig, cfg, "lm", vocab_size=len(corpus.vocab))
    result = tr.train(corpus, cf, lm_cfg, train_cfg, fusion_hidden=cfg["fusion"]["h"])
    tr.to_checkpoint(result, train_cfg, args.out)
    with ckpt.atomic_open(args.log or args.out + ".log.jsonl") as fh:
        for rec in result.log:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"steps: {result.steps}; validation loss per epoch: {[round(v, 4) for v in result.valid_losses]}")
    return 0


def cmd_evaluate(cfg: dict, args) -> int:
    corpus = _load_corpus(args)
    cf = _load_cf(args, corpus)
    model = _load_model(args, corpus, cf)
    report = evaluate_model(model, corpus, cf, n_neg=cfg["corpus"]["n_neg"], seed=cfg["train"]["seed"])
    report["variant"] = model.variant
    ckpt.save_meta(args.out, report)
    for task, metrics in report["tasks"].items():
        line = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in metrics.items())
        print(f"{task}: {line}")
    return 0


def cmd_export_embeddings(cfg: dict, args) -> int:
    corpus = _load_corpus(args)
    cf = _load_cf(args, corpus)
    model = _load_model(args, corpus, cf)
    if not model.uses_collab_prompt():
        raise cp.CorpusError(f"variant {model.variant} has no fusion mapping to export")
    export_projected(model.fusion, cf, args.out)
    print(f"wrote projected vectors for {cf.user_table.shape[0]} users and {cf.item_table.shape[0]} items")
    return 0


# command -> (help, function, the path arguments it requires)
COMMANDS = {
    "build-corpus": ("ingest, filter, split, tokenize", cmd_build_corpus, ("input", "out")),
    "train-cf": ("train the collaborative backend", cmd_train_cf, ("corpus", "out")),
    "train": ("fine-tune the model", cmd_train, ("corpus", "cf", "out")),
    "evaluate": ("score the test split", cmd_evaluate, ("corpus", "cf", "model", "out")),
    "export-embeddings": ("CSV of projected user/item vectors", cmd_export_embeddings, ("corpus", "cf", "model", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuserec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, paths) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--set", dest="assignments", action="append", default=[], metavar="SECTION.KEY=VALUE")
        for path in paths:
            p.add_argument(f"--{path}", required=True)
        if name == "train":
            p.add_argument("--log", default=None, help="training log path (default: <out>.log.jsonl)")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(load_config(args.config, args.assignments), args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (cp.CorpusError, ckpt.CheckpointError, ContractError, FileNotFoundError, IndexError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
