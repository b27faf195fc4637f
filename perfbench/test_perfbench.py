"""Tests of the benchmark itself: every check must fail on a wrong input, and a
short run of each workload must finish with the metrics BENCHMARK.json names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import oracles  # noqa: E402
from fuserec import numerics as nm  # noqa: E402
from workloads import TASK_ANSWERS, WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A score-workload state plus one evaluation with per-example outputs."""
    workload = WORKLOADS["score"]
    state = workload.setup(3, str(tmp_path_factory.mktemp("score")))
    report, captured = workload.capture(state)
    return workload, state, report, captured


def test_reference_decoder_rejects_perturbed_adapter(scored):
    workload, state, _report, captured = scored
    sample = workload.reference_sample(captured, 3)
    decoder = oracles.ReferenceDecoder(state["model"], state["corpus"], state["cf"])
    assert oracles.check_reference(decoder, sample, TASK_ANSWERS) == []

    decoder.w = dict(decoder.w)
    decoder.w["lora.shared.layer1.v.B"] = decoder.w["lora.shared.layer1.v.B"] * 1.001
    problems = oracles.check_reference(decoder, sample, TASK_ANSWERS)
    assert len(problems) == len(sample)


def test_metric_recomputation_rejects_flipped_label(scored):
    _workload, state, report, captured = scored
    train_ratings = [it.rating for it in state["corpus"].split.train]
    assert oracles.check_metrics(report, oracles.recompute_metrics(captured, train_ratings)) == []

    flipped = dict(captured)
    ex, dist = flipped["CTR"][0]
    flipped["CTR"] = [(dataclasses.replace(ex, label=1 - ex.label), dist)] + flipped["CTR"][1:]
    problems = oracles.check_metrics(report, oracles.recompute_metrics(flipped, train_ratings))
    assert any(p.startswith("CTR.auc") for p in problems)


def test_hit_and_regression_recomputation_reject_wrong_truth(scored):
    _workload, state, report, captured = scored
    train_ratings = [it.rating for it in state["corpus"].split.train]
    wrong = dict(captured)
    ex, dist = wrong["RP"][0]
    wrong["RP"] = [(dataclasses.replace(ex, label=6 - ex.label if ex.label != 3 else 1), dist)] + wrong["RP"][1:]
    rows = wrong["TopK"]
    ex, (cands, scores) = rows[0]
    top = max(zip(cands, scores), key=lambda cs: (cs[1], -cs[0]))[0]
    other = top if top != ex.label else next(c for c in cands if c != top)  # flips this example's hit
    wrong["TopK"] = [(dataclasses.replace(ex, label=other), (cands, scores))] + rows[1:]
    problems = oracles.check_metrics(report, oracles.recompute_metrics(wrong, train_ratings))
    assert any(p.startswith("RP.mae") for p in problems)
    assert any(p.startswith("TopK.hit1_easy") for p in problems)


def test_gradient_check_rejects_scaled_gradient(tmp_path, monkeypatch):
    from fuserec import corpus as cp
    from fuserec import trainer as tr

    workload = WORKLOADS["finetune"]
    state = workload.setup(4, str(tmp_path))
    cfg = state["cfg"]
    examples = cp.build_examples(state["corpus"], "CTR", "train", n_neg=cfg.n_neg, seed=cfg.seed)[:2]
    probe = {"CTR": [tr.prepare_example(ex, state["corpus"], state["cf"], True) for ex in examples]}
    sched = tr.BetaSchedule(total_steps=10, tau=cfg.tau)
    assert workload.gradient_problems(state, probe, sched) == []

    real_backward = nm.backward

    def scaled(loss, tape=None):
        return {nid: nm.Tensor(g.data * 1.001) for nid, g in real_backward(loss, tape).items()}

    monkeypatch.setattr(nm, "backward", scaled)
    problems = workload.gradient_problems(state, probe, sched)
    assert problems and all(p.startswith("finetune gradient (CTR)") for p in problems)


def test_expected_counts_reject_wrong_filter(tmp_path):
    workload = WORKLOADS["pipeline"]
    state = workload.setup(5, str(tmp_path))
    right = oracles.expected_corpus_counts(state["interactions"], workload.k_core, workload.tasks)
    wrong = oracles.expected_corpus_counts(state["interactions"], workload.k_core + 2, workload.tasks)
    assert right != wrong


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_end_to_end_metrics(name, capsys):
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics(capsys):
    assert run.main(["--workload", "score", "--seed", "7", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == _names("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["numerics.tape.records"] == 0 and m["optim.step.calls"] == 0
    assert m["fusion.map_user.calls"] == result["attempted"] // 2  # one per scored prompt


def test_run_without_the_program_fails_cleanly(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
