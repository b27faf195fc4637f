import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuserec import checkpoint as ckpt
from fuserec.cli import main
from fuserec.collab import CfTrainConfig
from fuserec.config import RENAMES, SCHEMA, ConfigError, apply_set_overrides, build, default_config, load_config
from fuserec.corpus import SplitSpec
from fuserec.lm import LmConfig
from fuserec.trainer import TrainConfig

from synthdata import two_genre_data, write_jsonl


class TestBlasThreads:
    @pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
    def test_import_pins_one_thread_unless_set(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")])
        code = "import os, fuserec; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected


class TestCheckpointContainer:
    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "cf.user_table": rng.normal(size=(5, 3)),
            "lm.layer0.q": rng.normal(size=(4, 4)),
            "scalar.step": np.array(7.0),
            "half.precision": rng.normal(size=(2, 2)).astype(np.float32),
        }
        path = str(tmp_path / "test.ckpt")
        ckpt.save_tensors(path, tensors)
        loaded = ckpt.load_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == tensors[name].dtype

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"b.two": rng.normal(size=(3, 3)), "a.one": rng.normal(size=(2,))}
        p1, p2 = str(tmp_path / "one.ckpt"), str(tmp_path / "two.ckpt")
        ckpt.save_tensors(p1, tensors)
        ckpt.save_tensors(p2, ckpt.load_tensors(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTCKPT1 garbage")
        with pytest.raises(ckpt.CheckpointError, match="magic"):
            ckpt.load_tensors(str(path))

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "h.ckpt")
        ckpt.save_tensors(path, {"x": np.zeros((2, 3))})
        blob = open(path, "rb").read()
        assert blob[:5] == b"CKPT1"
        assert int.from_bytes(blob[5:9], "little") == 1  # tensor count
        assert int.from_bytes(blob[9:11], "little") == 1  # name length
        assert blob[11:12] == b"x"
        assert blob[12] == 0 and blob[13] == 2  # f64, rank 2
        dims = (int.from_bytes(blob[14:18], "little"), int.from_bytes(blob[18:22], "little"))
        assert dims == (2, 3)
        assert len(blob) == 22 + 6 * 8

    def test_every_bit_flip_loads_or_is_rejected(self, tmp_path):
        # zero-valued data: a flipped rank reads dims from it whose product is 0
        path = tmp_path / "full.ckpt"
        ckpt.save_tensors(str(path), {"a.vec": np.arange(3.0), "b.scalar": np.array(2.0, dtype=np.float32), "c.mat": np.ones((2, 2))})
        blob = path.read_bytes()
        flipped = tmp_path / "flipped.ckpt"
        for bit in range(8 * len(blob)):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            flipped.write_bytes(bytes(damaged))
            try:
                ckpt.load_tensors(str(flipped))
            except ckpt.CheckpointError:
                pass

    def test_every_prefix_is_rejected(self, tmp_path):
        path = tmp_path / "full.ckpt"
        ckpt.save_tensors(str(path), {"a.vec": np.arange(3.0), "b.scalar": np.array(2.0, dtype=np.float32)})
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ckpt.CheckpointError):
                ckpt.load_tensors(str(cut))


class TestAtomicWrites:
    def test_write_that_raises_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old contents\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with ckpt.atomic_open(str(path)) as fh:
                fh.write("half of the new")
                raise RuntimeError("died mid-write")
        assert path.read_text(encoding="utf-8") == "old contents\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_failed_checkpoint_save_keeps_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        ckpt.save_tensors(path, {"a.vec": np.arange(3.0)})
        before = open(path, "rb").read()
        # the second tensor's dtype is rejected after the first is written
        with pytest.raises(ckpt.CheckpointError, match="dtype"):
            ckpt.save_tensors(path, {"a.vec": np.arange(4.0), "b.ids": np.arange(2)})
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_completed_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("stale\n", encoding="utf-8")
        with ckpt.atomic_open(str(path)) as fh:
            fh.write("fresh\n")
        assert path.read_text(encoding="utf-8") == "fresh\n"
        assert os.listdir(tmp_path) == ["vocab.txt"]


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config(None)
        assert cfg["corpus"]["k_core"] == 20
        assert cfg["corpus"]["n_neg"] == 10
        assert cfg["lm"]["r"] == 16
        assert cfg["fusion"]["h"] == 8
        assert cfg["train"]["tau"] == 0.125
        assert cfg["train"]["lr"] == 1e-4
        assert cfg["train"]["weight_decay"] == 1e-3
        assert cfg["train"]["epochs"] == 3
        assert cfg["train"]["batch"] == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"learning_rate": 1}}))
        with pytest.raises(ConfigError, match="train.learning_rate"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {}}))
        with pytest.raises(ConfigError, match="model"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "assignment,field",
        [
            ("train.tau=0", "train.tau"),
            ("lm.r=0", "lm.r"),
            ("lm.n_heads=7", "lm.d_llm"),
            ("train.variant=BOGUS", "train.variant"),
            ("corpus.k_core=-1", "corpus.k_core"),
        ],
    )
    def test_validation_names_field(self, assignment, field):
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            load_config(None, [assignment])

    def test_set_overrides(self):
        cfg = load_config(None, ["train.lr=0.01", "lm.L=1", "corpus.k_core_iterative=true", "train.tasks=RP,CTR"])
        assert cfg["train"]["lr"] == 0.01
        assert cfg["lm"]["L"] == 1
        assert cfg["corpus"]["k_core_iterative"] is True
        assert cfg["train"]["tasks"] == ["RP", "CTR"]

    def test_bad_set_syntax(self):
        with pytest.raises(ConfigError):
            load_config(None, ["garbage"])

    @pytest.mark.parametrize("assignment", ["lm.r=null", "corpus.k_core=null", "train.lr=null", "train.variant=null"])
    def test_null_rejected_where_the_default_is_not_none(self, assignment):
        field = assignment.split("=")[0]
        with pytest.raises(ConfigError, match="^" + field.replace(".", r"\.") + ": must not be null"):
            load_config(None, [assignment])

    def test_null_in_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lm": {"r": None}}))
        with pytest.raises(ConfigError, match=r"^lm\.r: "):
            load_config(str(path))

    def test_null_accepted_where_the_default_is_none(self):
        cfg = load_config(
            None,
            ["corpus.split=few-shot", "corpus.few_shot_n=4", "corpus.few_shot_n=null", "corpus.split=leave-one-out",
             "corpus.cold_user_fraction=null", "train.tasks=RP", "train.tasks=null"],
        )
        assert cfg["corpus"]["few_shot_n"] is None
        assert cfg["corpus"]["cold_user_fraction"] is None
        assert cfg["train"]["tasks"] is None

    @pytest.mark.parametrize("assignment", ["lm.r=--5", "lm.r=\u00b2", "lm.r=1.5", "train.lr=abc", "corpus.k_core_iterative=yes"])
    def test_malformed_value_rejected(self, assignment):
        with pytest.raises(ConfigError, match="^" + assignment.split("=")[0].replace(".", r"\.") + ": expected"):
            load_config(None, [assignment])


_SET_TEXT = {
    int: st.integers(),
    float: st.floats(allow_nan=False),
    bool: st.booleans(),
    str: st.text(min_size=1).filter(lambda v: v != "null"),
    list: st.lists(st.text(st.characters(blacklist_characters=","), min_size=1)).filter(lambda v: v != ["null"]),
}


def _as_set_text(value) -> str:
    return ",".join(value) if isinstance(value, list) else str(value)


class TestSetCoercion:
    @pytest.mark.parametrize("section,key", [(s, k) for s in SCHEMA for k in SCHEMA[s]])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_set_text_round_trips(self, section, key, data):
        kind = SCHEMA[section][key][1]
        value = data.draw(_SET_TEXT[kind])
        got = apply_set_overrides(default_config(), [f"{section}.{key}={_as_set_text(value)}"])[section][key]
        assert type(got) is kind
        assert got == value


# keys the CLI passes to a dataclass by hand rather than through build
BY_HAND = {"corpus.format", "corpus.n_neg", "corpus.history_limit", "fusion.h"}
BUILDS = {
    "corpus": lambda cfg: build(SplitSpec, cfg, "corpus"),
    "cf": lambda cfg: build(CfTrainConfig, cfg, "cf", history_limit=10),
    "lm": lambda cfg: build(LmConfig, cfg, "lm", vocab_size=50),
    "train": lambda cfg: build(TrainConfig, cfg, "train", n_neg=10),
}
# valid non-default settings where a generic bump would be rejected
NON_DEFAULT = {
    "corpus.split": ["corpus.split=few-shot", "corpus.few_shot_n=4"],
    "corpus.few_shot_n": ["corpus.split=few-shot", "corpus.few_shot_n=4"],
    "corpus.cold_user_fraction": ["corpus.split=warm-cold", "corpus.cold_user_fraction=0.5"],
    "cf.backend": ["cf.backend=SeqAttn"],
    "cf.objective": ["cf.objective=rating-mse"],
    "lm.n_heads": ["lm.n_heads=4"],
    "lm.d_llm": ["lm.d_llm=64"],
    "train.variant": ["train.variant=NCK"],
    "train.tasks": ["train.tasks=RP"],
}


def _non_default(section: str, key: str) -> list[str]:
    dotted = f"{section}.{key}"
    if dotted in NON_DEFAULT:
        return NON_DEFAULT[dotted]
    default, kind = SCHEMA[section][key]
    value = {bool: lambda: not default, int: lambda: (default or 0) + 1, float: lambda: (default or 0.25) * 2}[kind]()
    return [f"{dotted}={value}"]


class TestBuild:
    @pytest.mark.parametrize(
        "section,key", [(s, k) for s in SCHEMA for k in SCHEMA[s] if f"{s}.{k}" not in BY_HAND]
    )
    def test_every_schema_key_reaches_its_dataclass(self, section, key):
        base = BUILDS[section](load_config(None))
        cfg = load_config(None, _non_default(section, key))
        field = RENAMES.get(section, {}).get(key, key)
        want = cfg[section][key]
        want = tuple(want) if isinstance(want, list) else want
        assert getattr(BUILDS[section](cfg), field) == want != getattr(base, field)

    def test_rejected_value_names_the_section(self):
        with pytest.raises(ConfigError, match=r"^cf\.batch_size: "):
            build(CfTrainConfig, load_config(None, ["cf.batch_size=0"]), "cf")


def _run_pipeline(root, n_users: int, n_items: int, seed: int):
    """build-corpus, train-cf, train and evaluate on generated reviews under root."""
    interactions, catalog = two_genre_data(n_users=n_users, n_items=n_items, per_user=8, seed=seed)
    data_path = str(root / "reviews.jsonl")
    write_jsonl(interactions, catalog, data_path)
    cfg_path = str(root / "config.json")
    config = {
        "corpus": {"format": "review-jsonl", "k_core": 0, "n_neg": 3, "seed": 5},
        "cf": {"d_cf": 6, "epochs": 2, "lr": 0.05, "seed": 5},
        "lm": {"L": 1, "n_heads": 2, "d_llm": 8, "max_len": 96, "r": 2},
        "fusion": {"h": 4},
        "train": {"epochs": 1, "batch": 4, "seed": 5, "tasks": ["RP", "CTR"], "lr": 0.001},
    }
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    corpus_dir = str(root / "corpus")
    cf_path = str(root / "cf.ckpt")
    model_path = str(root / "model.ckpt")
    report_path = str(root / "report.json")
    assert main(["build-corpus", "--config", cfg_path, "--input", data_path, "--out", corpus_dir]) == 0
    assert main(["train-cf", "--config", cfg_path, "--corpus", corpus_dir, "--out", cf_path]) == 0
    assert main(["train", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--out", model_path]) == 0
    assert main(
        ["evaluate", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--model", model_path, "--out", report_path]
    ) == 0
    return root, cfg_path, data_path, corpus_dir, cf_path, model_path, report_path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI run on a small corpus; reused by several tests."""
    return _run_pipeline(tmp_path_factory.mktemp("pipeline"), n_users=12, n_items=20, seed=77)


@pytest.fixture(scope="module")
def other_pipeline(tmp_path_factory):
    """A CLI run on a second corpus with other user, item and vocab counts."""
    return _run_pipeline(tmp_path_factory.mktemp("other"), n_users=8, n_items=27, seed=78)


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, _cfg, _data, corpus_dir, cf_path, model_path, report_path = pipeline
        assert sorted(os.listdir(corpus_dir)) == ["catalog.jsonl", "corpus.json", "interactions.jsonl", "vocab.txt"]
        assert os.path.exists(cf_path)
        assert os.path.exists(model_path) and os.path.exists(model_path + ".json")
        assert os.path.exists(model_path + ".log.jsonl")
        assert os.path.exists(report_path)

    def test_report_structure(self, pipeline):
        *_rest, report_path = pipeline
        report = json.loads(open(report_path).read())
        assert set(report["tasks"]) == {"RP", "CTR"}
        assert "gar_mae" in report["tasks"]["RP"]
        assert 0.0 <= report["tasks"]["CTR"]["auc"] <= 1.0

    def test_log_is_jsonl(self, pipeline):
        *_rest, model_path, _report = pipeline
        lines = open(model_path + ".log.jsonl").read().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert {"step", "task", "beta", "total"} <= set(rec)

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        root, cfg_path, data_path, corpus_dir, cf_path, model_path, report_path = pipeline
        corpus2 = str(tmp_path / "corpus2")
        cf2 = str(tmp_path / "cf2.ckpt")
        model2 = str(tmp_path / "model2.ckpt")
        report2 = str(tmp_path / "report2.json")
        assert main(["build-corpus", "--config", cfg_path, "--input", data_path, "--out", corpus2]) == 0
        assert main(["train-cf", "--config", cfg_path, "--corpus", corpus2, "--out", cf2]) == 0
        assert main(["train", "--config", cfg_path, "--corpus", corpus2, "--cf", cf2, "--out", model2]) == 0
        assert main(["evaluate", "--config", cfg_path, "--corpus", corpus2, "--cf", cf2, "--model", model2, "--out", report2]) == 0
        assert open(cf_path, "rb").read() == open(cf2, "rb").read()
        assert open(model_path, "rb").read() == open(model2, "rb").read()
        assert open(report_path, "rb").read() == open(report2, "rb").read()

    def test_export_embeddings(self, pipeline, tmp_path):
        _root, cfg_path, _data, corpus_dir, cf_path, model_path, _report = pipeline
        out = str(tmp_path / "embs.csv")
        assert main(["export-embeddings", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--model", model_path, "--out", out]) == 0
        lines = open(out).read().splitlines()
        n_items = len(open(os.path.join(corpus_dir, "catalog.jsonl")).read().splitlines())
        assert len(lines) == 12 + n_items
        kind, ident, *floats = lines[0].split(",")
        assert kind == "user" and ident == "0"
        assert len(floats) == 8  # d_llm

    def test_evaluate_loaded_checkpoint_matches(self, pipeline, tmp_path):
        _root, cfg_path, _data, corpus_dir, cf_path, model_path, report_path = pipeline
        again = str(tmp_path / "again.json")
        assert main(["evaluate", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--model", model_path, "--out", again]) == 0
        assert open(report_path, "rb").read() == open(again, "rb").read()


class TestSplitModes:
    def test_warm_cold_and_few_shot_builds(self, pipeline, tmp_path):
        _root, cfg_path, data_path, *_rest = pipeline
        out = str(tmp_path / "wc")
        assert main([
            "build-corpus", "--config", cfg_path, "--input", data_path, "--out", out,
            "--set", "corpus.split=warm-cold", "--set", "corpus.cold_user_fraction=0.25",
        ]) == 0
        meta = json.loads(open(os.path.join(out, "corpus.json")).read())
        assert meta["mode"] == "warm-cold" and len(meta["cold_user_ids"]) == 3
        out2 = str(tmp_path / "fs")
        assert main([
            "build-corpus", "--config", cfg_path, "--input", data_path, "--out", out2,
            "--set", "corpus.split=few-shot", "--set", "corpus.few_shot_n=16",
        ]) == 0
        meta2 = json.loads(open(os.path.join(out2, "corpus.json")).read())
        assert meta2["mode"] == "few-shot" and meta2["few_shot_n"] == 16

    def test_warm_cold_pipeline_end_to_end(self, pipeline, tmp_path):
        _root, cfg_path, data_path, *_rest = pipeline
        corpus_dir = str(tmp_path / "wc_corpus")
        cf_path = str(tmp_path / "wc_cf.ckpt")
        model_path = str(tmp_path / "wc_model.ckpt")
        report_path = str(tmp_path / "wc_report.json")
        overrides = ["--set", "corpus.split=warm-cold", "--set", "corpus.cold_user_fraction=0.25"]
        assert main(["build-corpus", "--config", cfg_path, "--input", data_path, "--out", corpus_dir] + overrides) == 0
        assert main(["train-cf", "--config", cfg_path, "--corpus", corpus_dir, "--out", cf_path]) == 0
        assert main(["train", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--out", model_path]) == 0
        assert main(["evaluate", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--model", model_path, "--out", report_path]) == 0
        report = json.loads(open(report_path).read())
        assert report["tasks"]["CTR"]["count"] > 0


class TestExitCodes:
    def test_usage_error_for_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"tau": 0}}))
        assert main(["build-corpus", "--config", str(bad), "--input", "x", "--out", "y"]) == 1

    @pytest.mark.parametrize(
        "section,key,value",
        [("corpus", "k_core", -1), ("cf", "batch_size", 0), ("lm", "L", -1), ("train", "batch", 0), ("train", "tau", 0)],
    )
    def test_usage_error_for_bad_value_in_any_section(self, tmp_path, capsys, section, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {key: value}}))
        assert main(["build-corpus", "--config", str(bad), "--input", "x", "--out", "y"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {section}.{key}: ")
        assert "Traceback" not in err

    def test_seed_flag_is_not_an_option(self, pipeline, tmp_path, capsys):
        _root, cfg_path, _data, corpus_dir, *_rest = pipeline
        argv = ["train-cf", "--config", cfg_path, "--corpus", corpus_dir, "--out", str(tmp_path / "cf.ckpt"), "--seed", "1"]
        assert main(argv) == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        assert not (tmp_path / "cf.ckpt").exists()

    def test_failed_stats_leave_no_corpus(self, tmp_path, capsys):
        data = tmp_path / "full.tsv"
        data.write_text("".join(f"{u}\t{v}\t4\t{10 * u + v}\n" for u in range(3) for v in range(4)))
        out = tmp_path / "corpus"
        assert main(["build-corpus", "--input", str(data), "--out", str(out), "--set", "corpus.k_core=0"]) == 2
        assert "eligible negatives" in capsys.readouterr().err
        assert not (out / "corpus.json").exists()

    def test_max_len_below_longest_prompt_is_a_usage_error(self, pipeline, tmp_path, capsys):
        _root, cfg_path, _data, corpus_dir, cf_path, *_rest = pipeline
        model = tmp_path / "model.ckpt"
        argv = ["train", "--config", cfg_path, "--corpus", corpus_dir, "--cf", cf_path, "--out", str(model)]
        assert main(argv + ["--set", "lm.max_len=20", "--set", "train.pretrain_steps=1"]) == 1
        assert capsys.readouterr().err.startswith("usage error: lm.max_len: ")
        assert not model.exists()

    def test_data_error_for_missing_input(self, tmp_path):
        assert main(["build-corpus", "--input", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "out")]) == 2

    def test_data_error_for_missing_artifact(self, tmp_path):
        assert main(["train-cf", "--corpus", str(tmp_path / "nocorpus"), "--out", str(tmp_path / "cf.ckpt")]) == 2

    def test_data_error_names_prior_command(self, tmp_path, capsys):
        main(["train-cf", "--corpus", str(tmp_path / "nocorpus"), "--out", str(tmp_path / "cf.ckpt")])
        err = capsys.readouterr().err
        assert "build-corpus" in err

    @pytest.mark.parametrize(
        "command,missing",
        [
            ("train", "corpus"), ("evaluate", "corpus"), ("export-embeddings", "corpus"),
            ("train", "cf"), ("evaluate", "cf"), ("export-embeddings", "cf"),
            ("evaluate", "model"), ("export-embeddings", "model"),
        ],
    )
    def test_every_missing_artifact_names_its_command(self, pipeline, tmp_path, capsys, command, missing):
        _root, cfg_path, _data, corpus_dir, cf_path, model_path, _report = pipeline
        paths = {"corpus": corpus_dir, "cf": cf_path, "model": model_path}
        paths[missing] = str(tmp_path / "nope")
        reads = {"train": ("corpus", "cf"), "evaluate": ("corpus", "cf", "model"), "export-embeddings": ("corpus", "cf", "model")}
        argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
        for name in reads[command]:
            argv += [f"--{name}", paths[name]]
        assert main(argv) == 2
        producer = {"corpus": "build-corpus", "cf": "train-cf", "model": "train"}[missing]
        assert f"run `fuserec {producer}` first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,foreign",
        [("train", "cf"), ("evaluate", "cf"), ("evaluate", "model"), ("export-embeddings", "cf"), ("export-embeddings", "model")],
    )
    def test_artifacts_from_another_corpus_are_a_data_error(self, pipeline, other_pipeline, tmp_path, capsys, command, foreign):
        _root, cfg_path, _data, corpus_dir, cf_path, model_path, _report = pipeline
        *_other, other_cf, other_model, _other_report = other_pipeline
        paths = {"cf": other_cf if foreign == "cf" else cf_path, "model": other_model if foreign == "model" else model_path}
        argv = [command, "--config", cfg_path, "--corpus", corpus_dir, "--cf", paths["cf"], "--out", str(tmp_path / "out")]
        if command != "train":
            argv += ["--model", paths["model"]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        # 12 users and 68 vocab tokens here; 8 users and 70 tokens in the other corpus
        assert ("was made for 8 users" if foreign == "cf" else "was made for 70 vocab tokens") in err
        assert not (tmp_path / "out").exists()

    def test_usage_error_for_unknown_command(self):
        assert main(["not-a-command"]) == 1

    def test_malformed_data_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("not a valid line\n")
        assert main(["build-corpus", "--input", str(path), "--out", str(tmp_path / "out"), "--set", "corpus.k_core=0"]) == 2

    @pytest.mark.parametrize(
        "command,assignment",
        [
            ("build-corpus", "corpus.split=few-shot"),
            ("build-corpus", "corpus.split=warm-cold"),
            ("train-cf", "cf.negatives_per_positive=0"),
            ("train-cf", "cf.batch_size=0"),
            ("train", "train.batch=0"),
            ("train-cf", "cf.epochs=0"),
            ("train-cf", "cf.d_cf=-2"),
            ("train", "lm.d_ff=-1"),
            ("train", "lm.L=-1"),
            ("train", "fusion.h=-1"),
            ("train", "train.epochs=0"),
            ("train", "train.lr=-1"),
            ("train-cf", "cf.seed=-1"),
            ("train", "train.seed=-1"),
        ],
    )
    def test_dataclass_rejection_is_a_usage_error(self, pipeline, tmp_path, capsys, command, assignment):
        _root, cfg_path, data_path, corpus_dir, cf_path, *_rest = pipeline
        io = {
            "build-corpus": ["--input", data_path, "--out", str(tmp_path / "corpus")],
            "train-cf": ["--corpus", corpus_dir, "--out", str(tmp_path / "cf.ckpt")],
            "train": ["--corpus", corpus_dir, "--cf", cf_path, "--out", str(tmp_path / "model.ckpt")],
        }[command]
        assert main([command, "--config", cfg_path, "--set", assignment] + io) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "artifact",
        [
            "model", "model-meta", "cf", "cf-is-model", "corpus", "interactions", "splits", "catalog",
            "meta-no-lm", "meta-lm-not-object", "meta-bad-variant", "meta-bad-size", "cf-width",
        ],
    )
    def test_damaged_artifact_is_a_data_error(self, pipeline, tmp_path, capsys, artifact):
        _root, cfg_path, _data, corpus_dir, cf_path, model_path, _report = pipeline
        corpus_copy, cf_copy, model_copy = str(tmp_path / "corpus"), str(tmp_path / "cf.ckpt"), str(tmp_path / "model.ckpt")
        shutil.copytree(corpus_dir, corpus_copy)
        for src, dst in ((cf_path, cf_copy), (model_path, model_copy), (model_path + ".json", model_copy + ".json")):
            shutil.copyfile(src, dst)
        if artifact == "model":
            with open(model_copy, "r+b") as fh:
                fh.truncate(100)
        elif artifact == "model-meta":
            with open(model_copy + ".json", "r+b") as fh:
                fh.truncate(20)
        elif artifact == "cf":
            with open(cf_copy, "r+b") as fh:
                fh.truncate(7)
        elif artifact == "cf-is-model":
            shutil.copyfile(model_path, cf_copy)
        elif artifact == "cf-width":
            # the right user and item counts, but 8 columns for a model made on 6
            tables = ckpt.load_tensors(cf_path)
            ckpt.save_tensors(cf_copy, {name: np.zeros((t.shape[0], 8)) for name, t in tables.items()})
        elif artifact == "corpus":
            with open(os.path.join(corpus_copy, "corpus.json"), "w") as fh:
                fh.write('{"mode": "leave-one-out", ')
        elif artifact.startswith("meta-"):
            with open(model_copy + ".json") as fh:
                meta = json.load(fh)
            if artifact == "meta-no-lm":
                del meta["lm"]
            elif artifact == "meta-lm-not-object":
                meta["lm"] = 5
            elif artifact == "meta-bad-size":
                meta["fusion_hidden"] = -1
            else:
                meta["variant"] = "XYZ"
            with open(model_copy + ".json", "w") as fh:
                json.dump(meta, fh)
        else:
            # "splits": an interaction line whose split role is unknown
            name, bad_line = {
                "interactions": ("interactions.jsonl", "garbage line"),
                "splits": ("interactions.jsonl", '[0, 1, 4, 5, "x", null]'),
                "catalog": ("catalog.jsonl", '["notanint", "title"]'),
            }[artifact]
            with open(os.path.join(corpus_copy, name), "a") as fh:
                fh.write(bad_line + "\n")
        out = str(tmp_path / "report.json")
        argv = ["evaluate", "--config", cfg_path, "--corpus", corpus_copy, "--cf", cf_copy, "--model", model_copy, "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        if artifact in ("interactions", "splits", "catalog"):
            name = "catalog.jsonl" if artifact == "catalog" else "interactions.jsonl"
            with open(os.path.join(corpus_copy, name)) as fh:
                n_lines = len(fh.readlines())
            assert f"{name}:{n_lines}: malformed line" in err
        if artifact == "cf-width":
            assert f"{model_copy} was made for CF vectors of width 6, but {cf_copy} holds width 8" in err

    @pytest.mark.parametrize("name", ["interactions.jsonl", "catalog.jsonl", "vocab.txt", "corpus.json"])
    @pytest.mark.parametrize("cut", ["line-boundary", "inside-line"])
    def test_cut_corpus_file_is_a_data_error(self, pipeline, tmp_path, capsys, name, cut):
        _root, cfg_path, _data, corpus_dir, cf_path, model_path, _report = pipeline
        corpus_copy = str(tmp_path / "corpus")
        shutil.copytree(corpus_dir, corpus_copy)
        path = os.path.join(corpus_copy, name)
        with open(path, "rb") as fh:
            blob = fh.read()
        # the file loses its last line, or ends two bytes into the line before
        last = blob[:-1].rfind(b"\n") + 1
        before = blob[: last - 1].rfind(b"\n") + 1
        with open(path, "wb") as fh:
            fh.write(blob[: last if cut == "line-boundary" else before + 2])
        base = ["--config", cfg_path, "--corpus", corpus_copy, "--cf", cf_path]
        commands = [["evaluate", *base, "--model", model_path, "--out", str(tmp_path / "report.json")]]
        if name == "vocab.txt":
            commands.append(["train", *base, "--out", str(tmp_path / "model.ckpt")])
        for argv in commands:
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {path}"), err
        assert not (tmp_path / "report.json").exists() and not (tmp_path / "model.ckpt").exists()
