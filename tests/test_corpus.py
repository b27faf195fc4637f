import dataclasses
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuserec import corpus as cp
from fuserec.corpus import (
    CorpusError,
    Interaction,
    SplitSpec,
    Vocab,
    build_corpus,
    build_examples,
    k_core_filter,
    leave_one_out_split,
    locate_placeholders,
    parse_interactions,
    render_prompt,
)

from synthdata import two_genre_data, write_jsonl


def brute_force_k_core(data, k):
    """Independent fixpoint oracle: alternately drop sparse users and items
    until nothing changes."""
    current = list(data)
    while True:
        users = {}
        for it in current:
            users[it.user_id] = users.get(it.user_id, 0) + 1
        kept = [it for it in current if users[it.user_id] >= k]
        items = {}
        for it in kept:
            items[it.item_id] = items.get(it.item_id, 0) + 1
        kept = [it for it in kept if items[it.item_id] >= k]
        if len(kept) == len(current):
            return current
        current = kept


class TestParsing:
    def test_ml_dat_line(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::978300760\n")
        result = parse_interactions(str(path), "ml-dat")
        assert result.interactions == [Interaction(1, 1193, 5, 978300760, None)]
        assert result.catalog[1193] == "item 1193"

    def test_tsv_line(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("7\t42\t3\t100\n")
        result = parse_interactions(str(path), "tsv")
        assert result.interactions == [Interaction(7, 42, 3, 100, None)]

    def test_jsonl_review_text_becomes_comment(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        rec = {"user": "a", "item": "b", "rating": 5, "timestamp": 9, "title": "some book", "review_text": "great book"}
        path.write_text(json.dumps(rec) + "\n")
        result = parse_interactions(str(path), "review-jsonl")
        assert result.interactions[0].comment == "great book"
        assert result.catalog[0] == "some book"

    def test_duplicate_triple_dropped_and_counted(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t2\t5\t10\n1\t2\t4\t10\n1\t2\t5\t11\n")
        result = parse_interactions(str(path), "tsv")
        assert result.duplicates_dropped == 1
        assert len(result.interactions) == 2

    def test_sorted_by_user_then_time(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("2\t1\t5\t10\n1\t2\t5\t30\n1\t3\t5\t20\n")
        result = parse_interactions(str(path), "tsv")
        assert [(it.user_id, it.timestamp) for it in result.interactions] == [(1, 20), (1, 30), (2, 10)]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t2\t5\t10\nbroken line\n")
        with pytest.raises(CorpusError, match=":2"):
            parse_interactions(str(path), "tsv")

    def test_rating_out_of_range(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t2\t6\t10\n")
        with pytest.raises(CorpusError, match="outside"):
            parse_interactions(str(path), "tsv")


def mk(u, v, t=0, r=5, c=None):
    return Interaction(u, v, r, t, c)


CASCADE_FIXTURE = [
    mk(0, 10, 1), mk(0, 11, 2),
    mk(1, 10, 1), mk(1, 11, 2),
    mk(2, 11, 1), mk(2, 12, 2),
    mk(3, 12, 1), mk(3, 13, 2),
    mk(4, 13, 1), mk(4, 14, 2),
]


class TestKCore:
    def test_user_below_threshold_removed(self):
        data = [mk(0, v, t=v) for v in range(19)] + [mk(1, v, t=v) for v in range(25)]
        for iterative in (False, True):
            out = k_core_filter(data, 20, iterative)
            assert all(it.user_id != 0 for it in out)

    def test_k_zero_is_identity(self):
        assert k_core_filter(CASCADE_FIXTURE, 0) == CASCADE_FIXTURE
        assert k_core_filter(CASCADE_FIXTURE, 0, iterative=True) == CASCADE_FIXTURE

    def test_single_pass_and_iterative_differ_on_cascade(self):
        single = k_core_filter(CASCADE_FIXTURE, 2, iterative=False)
        iterative = k_core_filter(CASCADE_FIXTURE, 2, iterative=True)
        assert single != iterative
        # single pass guarantees items >= k but can leave a user starved
        users = {}
        for it in single:
            users[it.user_id] = users.get(it.user_id, 0) + 1
        assert min(users.values()) < 2

    def test_iterative_matches_brute_force_fixpoint(self):
        assert k_core_filter(CASCADE_FIXTURE, 2, iterative=True) == brute_force_k_core(CASCADE_FIXTURE, 2)

    def test_iterative_guarantees_k_core(self):
        out = k_core_filter(CASCADE_FIXTURE, 2, iterative=True)
        users, items = {}, {}
        for it in out:
            users[it.user_id] = users.get(it.user_id, 0) + 1
            items[it.item_id] = items.get(it.item_id, 0) + 1
        assert min(users.values()) >= 2 and min(items.values()) >= 2


class TestKCoreProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=60, unique=True),
        st.integers(1, 4),
    )
    def test_iterative_leaves_a_fixpoint_k_core(self, pairs, k):
        out = k_core_filter([mk(u, v, t=n) for n, (u, v) in enumerate(pairs)], k, iterative=True)
        users, items = {}, {}
        for it in out:
            users[it.user_id] = users.get(it.user_id, 0) + 1
            items[it.item_id] = items.get(it.item_id, 0) + 1
        assert all(n >= k for n in users.values()) and all(n >= k for n in items.values())
        assert k_core_filter(out, k, iterative=True) == out


class TestSplits:
    def test_leave_one_out_by_time(self):
        data = [Interaction(1, i, 5, t) for i, t in zip(range(5), range(5))]
        split = leave_one_out_split(data, SplitSpec(k_core=0))
        assert [it.item_id for it in split.train] == [0, 1, 2]
        assert [it.item_id for it in split.valid] == [3]
        assert [it.item_id for it in split.test] == [4]

    def test_user_below_three_interactions_dropped(self):
        data = [mk(1, 0, 0), mk(1, 1, 1), mk(2, 0, 0), mk(2, 1, 1), mk(2, 2, 2)]
        split = leave_one_out_split(data, SplitSpec(k_core=0))
        assert split.dropped_users == 1
        assert all(it.user_id == 2 for it in split.train + split.valid + split.test)

    def test_warm_cold_counts(self):
        data = []
        for u in range(4):
            data += [mk(u, v, t=v) for v in range(5)]
        spec = SplitSpec(mode="warm-cold", k_core=0, cold_user_fraction=0.5, seed=7)
        split = leave_one_out_split(data, spec)
        assert len(split.cold_user_ids) == 2
        train_users = {it.user_id for it in split.train}
        valid_users = {it.user_id for it in split.valid}
        assert not (split.cold_user_ids & train_users)
        assert not (split.cold_user_ids & valid_users)
        test_users = {it.user_id for it in split.test}
        assert split.cold_user_ids <= test_users

    def test_spec_invariants(self):
        with pytest.raises(CorpusError):
            SplitSpec(mode="few-shot")  # missing few_shot_n
        with pytest.raises(CorpusError):
            SplitSpec(mode="warm-cold", cold_user_fraction=1.5)
        with pytest.raises(CorpusError):
            SplitSpec(mode="leave-one-out", cold_user_fraction=0.5)
        with pytest.raises(CorpusError):
            SplitSpec(mode="few-shot", few_shot_n=-3)


@pytest.fixture(scope="module")
def small_corpus():
    interactions, catalog = two_genre_data(n_users=20, n_items=30, per_user=10, seed=5)
    parsed = cp.ParseResult(interactions, catalog, 0)
    return build_corpus(parsed, SplitSpec(k_core=0, seed=3))


class TestExamples:
    def test_ctr_pairs_positive_and_negative(self, small_corpus):
        examples = build_examples(small_corpus, "CTR", "test", seed=1)
        # one test interaction per user -> exactly two examples each
        assert len(examples) == 2 * len(small_corpus.user_ids)
        by_user = {}
        for ex in examples:
            by_user.setdefault(ex.user_id, []).append(ex.label)
        assert all(sorted(labels) == [0, 1] for labels in by_user.values())

    def test_topk_candidate_set_size(self, small_corpus):
        examples = build_examples(small_corpus, "TopK", "test", n_neg=10, seed=1)
        assert all(len(ex.candidate_set) == 11 for ex in examples)
        assert all(ex.candidate_set.count(ex.label) == 1 for ex in examples)

    def test_negatives_never_in_full_history(self, small_corpus):
        # exhaustive membership check over every generated example
        for task in ("CTR", "TopK"):
            for split in ("train", "valid", "test"):
                for ex in build_examples(small_corpus, task, split, seed=9):
                    full = small_corpus.full_history(ex.user_id)
                    if task == "CTR" and ex.label == 0:
                        assert ex.candidate not in full
                    if task == "TopK":
                        for v in ex.candidate_set:
                            if v != ex.label:
                                assert v not in full

    def test_candidate_never_in_history(self, small_corpus):
        for task in ("RP", "CTR", "TopK"):
            for ex in build_examples(small_corpus, task, "test", seed=2):
                assert ex.candidate not in ex.history

    def test_same_seed_same_examples(self, small_corpus):
        a = build_examples(small_corpus, "TopK", "test", seed=11)
        b = build_examples(small_corpus, "TopK", "test", seed=11)
        assert a == b
        c = build_examples(small_corpus, "TopK", "test", seed=12)
        assert a != c

    def test_explain_requires_comments(self):
        interactions, catalog = two_genre_data(n_users=8, n_items=20, per_user=6, seed=2, with_comments=False)
        corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0))
        assert corpus.tasks == ("RP", "CTR", "TopK")
        with pytest.raises(CorpusError):
            build_examples(corpus, "Explain", "test")

    def test_few_shot_subsamples_train_pool(self):
        interactions, catalog = two_genre_data(n_users=10, n_items=20, per_user=10, seed=4)
        spec = SplitSpec(mode="few-shot", k_core=0, few_shot_n=64, seed=8)
        corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), spec)
        examples = build_examples(corpus, "RP", "train", seed=8)
        assert len(examples) == 64

    def test_test_item_is_timestamp_maximal(self, small_corpus):
        for it in small_corpus.split.test:
            seq = small_corpus.by_user[it.user_id]
            assert it.timestamp == max(x.timestamp for x in seq)


class TestPrompts:
    def test_no_placeholders_without_injection(self, small_corpus):
        ex = build_examples(small_corpus, "RP", "test", seed=1)[0]
        rendered = render_prompt(ex, small_corpus.catalog, inject_collab=False)
        assert cp.USER_MARK not in rendered.text and cp.ITEM_MARK not in rendered.text

    def test_exactly_one_placeholder_each_with_injection(self, small_corpus):
        ex = build_examples(small_corpus, "CTR", "test", seed=1)[0]
        rendered = render_prompt(ex, small_corpus.catalog, inject_collab=True)
        ids = small_corpus.vocab.encode(rendered.text)
        pos = locate_placeholders(ids, small_corpus.vocab, expected=True)
        assert pos.user_pos is not None and pos.item_pos is not None
        assert ids.count(small_corpus.vocab.user_unk) == 1
        assert ids.count(small_corpus.vocab.item_unk) == 1

    def test_rendering_is_deterministic(self, small_corpus):
        ex = build_examples(small_corpus, "TopK", "test", seed=3)[0]
        r1 = render_prompt(ex, small_corpus.catalog, inject_collab=True)
        r2 = render_prompt(ex, small_corpus.catalog, inject_collab=True)
        assert r1 == r2

    def test_missing_title_names_item(self, small_corpus):
        ex = build_examples(small_corpus, "RP", "test", seed=1)[0]
        with pytest.raises(CorpusError, match="has no title") as exc:
            render_prompt(ex, {}, inject_collab=False)
        named = int(str(exc.value).split()[1])
        assert named == ex.candidate or named in ex.history

    def test_answer_text_per_task(self, small_corpus):
        rp = build_examples(small_corpus, "RP", "test", seed=1)[0]
        assert render_prompt(rp, small_corpus.catalog, False).answer_text == str(rp.label)
        ctr = build_examples(small_corpus, "CTR", "test", seed=1)[0]
        assert render_prompt(ctr, small_corpus.catalog, False).answer_text in ("yes", "no")
        topk = build_examples(small_corpus, "TopK", "test", seed=1)[0]
        assert render_prompt(topk, small_corpus.catalog, False).answer_text == small_corpus.catalog[topk.label]


class TestVocab:
    def test_yes_token(self):
        vocab = Vocab.build(["nothing here"])
        ids = vocab.encode("Yes")
        assert ids[0] == vocab.bos
        assert ids[1:] == [vocab.index["yes"]]

    def test_vocab_size_is_words_plus_specials(self):
        sentences = ["the cat sat", "the dog ran fast", "a cat ran"]
        vocab = Vocab.build(sentences)
        distinct = {w for s in sentences for w in s.split()}
        assert len(vocab) == len(distinct) + len(cp.SPECIAL_TOKENS)

    def test_oov_maps_to_unk(self):
        vocab = Vocab.build(["known words only"])
        assert vocab.encode("mystery", bos=False) == [vocab.unk]

    def test_save_load_stable_ids(self, tmp_path):
        interactions = [Interaction(0, v, 4, v) for v in range(3)]
        corpus = build_corpus(cp.ParseResult(interactions, {0: "alpha", 1: "beta", 2: "gamma"}, 0), SplitSpec(k_core=0))
        vocab = corpus.vocab
        cp.save_corpus(corpus, str(tmp_path))
        loaded = cp.load_corpus(str(tmp_path)).vocab
        assert loaded.tokens == vocab.tokens
        assert loaded.user_unk == vocab.user_unk and loaded.item_unk == vocab.item_unk

    def test_markers_are_distinct_tokens(self):
        vocab = Vocab.build(["plain text"])
        ids = vocab.encode(f"before {cp.USER_MARK} mid {cp.ITEM_MARK} after", bos=False)
        assert vocab.user_unk in ids and vocab.item_unk in ids
        assert vocab.user_unk != vocab.item_unk


def _reference_tokens(text):
    """The tokenizer as `words`: cut out the markers, lowercase the rest,
    turn every run of non-[a-z0-9] into one space, then split."""
    out = []
    for part in re.split(r"(<user>|<item>)", text):
        if part in (cp.USER_MARK, cp.ITEM_MARK):
            out.append(part)
        else:
            out.extend(re.sub(r"[^a-z0-9]+", " ", part.lower()).split())
    return " ".join(out).split()


# arbitrary Unicode with markers, near-markers, uppercase, the Kelvin sign
# (lowercases to ASCII k) and dotted capital I (lowercases to i + U+0307)
_PROMPT_TEXT = st.lists(
    st.one_of(st.text(), st.sampled_from(["<user>", "<item>", "<User>", "<item", "K", "İ", "ABC", " x9 ", "."])),
    max_size=12,
).map("".join)


class TestTokenizerProperties:
    @settings(max_examples=60, deadline=None)
    @given(text=_PROMPT_TEXT, known=_PROMPT_TEXT, bos=st.booleans())
    def test_encode_and_build_match_the_reference_tokenizer(self, text, known, bos):
        vocab = Vocab.build([known])
        assert vocab.tokens == list(cp.SPECIAL_TOKENS) + sorted(set(_reference_tokens(known)) - set(cp.SPECIAL_TOKENS))
        want = [vocab.bos] * bos + [vocab.index.get(tok, vocab.unk) for tok in _reference_tokens(text)]
        assert vocab.encode(text, bos=bos) == want
        assert " ".join(cp.words(text)) == " ".join(_reference_tokens(text))


def awkward_corpus(spec):
    """A small corpus whose titles and comments hold JSON's and the line
    reader's awkward characters and non-ASCII text."""
    texts = ["tab\there", "line\nbreak", "cr\r", "back\\slash", 'quote"d', "nel\x85", "ls\u2028ps\u2029", "café ünï 東京 🎬", "c:\\new"]
    interactions = [
        Interaction(u, (u + t) % 12, 1 + (u * t) % 5, t, None if t == 2 else texts[(u + t) % len(texts)])
        for u in range(8)
        for t in range(6)
    ]
    catalog = {v: f"{texts[v % len(texts)]} title {v}" for v in range(12)}
    return build_corpus(cp.ParseResult(interactions, catalog, 0), spec, history_limit=3)


SPLIT_SPECS = [
    SplitSpec(k_core=0, seed=2),
    SplitSpec(mode="warm-cold", k_core=0, cold_user_fraction=0.25, seed=2),
    SplitSpec(mode="few-shot", k_core=0, few_shot_n=5, seed=2),
]
CORPUS_FILES = ("interactions.jsonl", "catalog.jsonl", "vocab.txt", "corpus.json")


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, small_corpus):
        out = tmp_path / "corpus"
        cp.save_corpus(small_corpus, str(out))
        loaded = cp.load_corpus(str(out))
        assert loaded.interactions == small_corpus.interactions
        assert loaded.catalog == small_corpus.catalog
        assert loaded.vocab.tokens == small_corpus.vocab.tokens
        assert [it.item_id for it in loaded.split.test] == [it.item_id for it in small_corpus.split.test]
        # example generation survives the round trip bit-for-bit
        assert build_examples(loaded, "TopK", "test", seed=5) == build_examples(small_corpus, "TopK", "test", seed=5)

    def test_rewrite_is_byte_identical(self, tmp_path, small_corpus):
        a, b = tmp_path / "a", tmp_path / "b"
        cp.save_corpus(small_corpus, str(a))
        cp.save_corpus(cp.load_corpus(str(a)), str(b))
        assert sorted(os.listdir(a)) == sorted(CORPUS_FILES)
        for name in CORPUS_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_comment_escaping(self, tmp_path):
        interactions = [
            Interaction(0, 0, 5, t, "has\ttab and\nnewline" if t == 0 else "plain") for t in range(3)
        ]
        catalog = {0: "only item"}
        corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0))
        out = tmp_path / "c"
        cp.save_corpus(corpus, str(out))
        loaded = cp.load_corpus(str(out))
        assert loaded.interactions[0].comment == "has\ttab and\nnewline"

    @pytest.mark.parametrize("others", [None, "good read"], ids=["only-empty", "with-a-comment"])
    def test_empty_comment_counts_as_none_across_round_trip(self, tmp_path, others):
        # save_corpus writes "" and None alike, so the corpus must read them alike before it too
        interactions = [Interaction(0, v, 4, v, "" if v == 0 else others) for v in range(4)]
        corpus = build_corpus(cp.ParseResult(interactions, {v: f"item {v}" for v in range(4)}, 0), SplitSpec(k_core=0))
        cp.save_corpus(corpus, str(tmp_path / "c"))
        loaded = cp.load_corpus(str(tmp_path / "c"))
        assert corpus.has_comments == (others is not None)
        assert (loaded.has_comments, loaded.tasks) == (corpus.has_comments, corpus.tasks)
        assert loaded.interactions[0].comment is None
        assert loaded.vocab.tokens == corpus.vocab.tokens

    def test_backslash_sequences_survive_round_trip(self, tmp_path):
        texts = ["c:\\new", "tab\\t and \\\\n", "ends in \\", "cr\r and \\r", "\\\tmixed\n"]
        interactions = [Interaction(0, v, 5, v, text) for v, text in enumerate(texts)]
        catalog = {v: f"title {text}" for v, text in enumerate(texts)}
        corpus = build_corpus(cp.ParseResult(interactions, catalog, 0), SplitSpec(k_core=0))
        out = tmp_path / "c"
        cp.save_corpus(corpus, str(out))
        loaded = cp.load_corpus(str(out))
        assert [it.comment for it in loaded.interactions] == texts
        assert loaded.catalog == catalog
        assert " ".join(cp.words(loaded.interactions[0].comment)) == "c new"

    @pytest.mark.parametrize("spec", SPLIT_SPECS, ids=[spec.mode for spec in SPLIT_SPECS])
    def test_awkward_text_round_trips_in_every_split_mode(self, tmp_path, spec):
        corpus = awkward_corpus(spec)
        cp.save_corpus(corpus, str(tmp_path / "a"))
        loaded = cp.load_corpus(str(tmp_path / "a"))
        assert loaded.interactions == corpus.interactions
        assert loaded.catalog == corpus.catalog
        assert loaded.vocab.tokens == corpus.vocab.tokens
        assert (loaded.spec, loaded.history_limit) == (corpus.spec, corpus.history_limit)
        assert (loaded.split.dropped_users, loaded.split.cold_user_ids) == (corpus.split.dropped_users, corpus.split.cold_user_ids)
        objects = {id(it) for it in loaded.interactions}
        for name in cp.ROLES:
            assert getattr(loaded.split, name) == getattr(corpus.split, name), name
            # the same objects as the interaction list: the cold-user test compares with `is`
            assert all(id(it) in objects for it in getattr(loaded.split, name)), name
        for task in cp.TASKS:
            for split_name in cp.ROLES:
                assert examples_or_error(loaded, task, split_name) == examples_or_error(corpus, task, split_name)
        for name in ("interactions.jsonl", "catalog.jsonl"):
            assert "東京".encode() in (tmp_path / "a" / name).read_bytes(), name  # written as UTF-8, not \u escapes
        cp.save_corpus(loaded, str(tmp_path / "b"))
        for name in CORPUS_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def _damaged(tmp_path, small_corpus, name, edit):
    """small_corpus saved under tmp_path, with `edit` applied to the lines of
    file `name` (each with its newline); returns the corpus directory."""
    out = tmp_path / "c"
    cp.save_corpus(small_corpus, str(out))
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8", newline="")
    return out


# a bad line 2 of a file, each naming the check it fails
BAD_LINES = {
    "interactions.jsonl": [
        "[0, 1, 4, 5, train, null]",  # not JSON
        '{"user": 0}',  # not an array
        '[0, 1, 4, 5, "train"]',  # too few fields
        '[0, 1, 4, 5, "train", null, 1]',  # too many fields
        '["0", 1, 4, 5, "train", null]',  # user is a string
        '[0, 1.5, 4, 5, "train", null]',  # item is a float
        '[0, 1, true, 5, "train", null]',  # rating is a bool
        '[0, 1, 4, null, "train", null]',  # timestamp is null
        '[0, 1, 4, 5, "holdout", null]',  # unknown role
        '[0, 1, 4, 5, 0, null]',  # role is no string
        '[0, 1, 4, 5, "train", 3]',  # comment is neither a string nor null
        '[0, 1, 4, 5, "train", ["x"]]',
    ],
    "catalog.jsonl": ['[1, "a", "b"]', '["1", "title"]', "[1, null]", "[false, \"title\"]", "1\ttitle"],
}


class TestDamagedCorpusFiles:
    @pytest.mark.parametrize("name, bad", [(name, bad) for name, lines in BAD_LINES.items() for bad in lines])
    def test_malformed_line_names_file_and_line(self, tmp_path, small_corpus, name, bad):
        out = _damaged(tmp_path, small_corpus, name, lambda lines: [lines[0], bad + "\n", *lines[2:]])
        with pytest.raises(CorpusError, match=f"{re.escape(name)}:2: malformed line"):
            cp.load_corpus(str(out))

    def test_line_that_is_not_utf8_names_file_and_line(self, tmp_path, small_corpus):
        out = tmp_path / "c"
        cp.save_corpus(small_corpus, str(out))
        path = out / "catalog.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[2] = b'[4, "caf\xe9"]'
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorpusError, match="catalog.jsonl:3: malformed line"):
            cp.load_corpus(str(out))

    @pytest.mark.parametrize("name", ["interactions.jsonl", "catalog.jsonl", "vocab.txt"])
    def test_every_cut_of_a_line_file_is_caught(self, tmp_path, small_corpus, name):
        out = tmp_path / "c"
        cp.save_corpus(small_corpus, str(out))
        path = out / name
        blob = path.read_bytes()
        ends = [i + 1 for i, byte in enumerate(blob) if byte == ord("\n")]
        # each line boundary, and the middle and last byte of each line
        inside = {(a + b) // 2 for a, b in zip([0] + ends, ends)} | {b - 1 for b in ends}
        for cut in sorted(set(ends[:-1]) | {0} | inside):
            path.write_bytes(blob[:cut])
            whole = blob[:cut].count(b"\n")
            cut_line = f"{re.escape(name)}:{whole + 1}: cut short"
            counted = f"{re.escape(name)}: {whole} lines, but corpus.json records"
            with pytest.raises(CorpusError, match=cut_line if cut in inside else counted):
                cp.load_corpus(str(out))

    def test_line_count_is_checked(self, tmp_path, small_corpus):
        # a well-formed extra line, and one line too few, in each line file
        for name in ("interactions.jsonl", "catalog.jsonl", "vocab.txt"):
            for edit in (lambda lines: lines + lines[-1:], lambda lines: lines[:-1]):
                out = _damaged(tmp_path, small_corpus, name, edit)
                with pytest.raises(CorpusError, match=f"{re.escape(name)}: .* lines, but corpus.json records"):
                    cp.load_corpus(str(out))

    def test_cut_corpus_json_is_caught(self, tmp_path, small_corpus):
        out = tmp_path / "c"
        cp.save_corpus(small_corpus, str(out))
        blob = (out / "corpus.json").read_bytes()
        for cut in range(0, len(blob) - 1, 7):
            (out / "corpus.json").write_bytes(blob[:cut])
            with pytest.raises(CorpusError, match="corpus.json"):
                cp.load_corpus(str(out))


# interactions as a parser returns them: (user, item, timestamp) unique, and a
# comment either absent or not blank
_ROWS = st.lists(
    st.builds(
        Interaction,
        st.integers(0, 5),
        st.integers(0, 9),
        st.integers(1, 5),
        st.integers(0, 30),
        st.none() | st.text(max_size=10).filter(str.strip),
    ),
    max_size=30,
    unique_by=lambda it: (it.user_id, it.item_id, it.timestamp),
)
_TITLES = st.lists(st.text(max_size=10).filter(str.strip), min_size=10, max_size=10)


def by_user_then_time(rows):
    return sorted(rows, key=lambda it: (it.user_id, it.timestamp))


def examples_or_error(corpus, task, split_name):
    try:
        return build_examples(corpus, task, split_name, n_neg=2, seed=1)
    except CorpusError as exc:
        return str(exc)


class TestParserProperties:
    @pytest.mark.parametrize("fmt, sep", [("ml-dat", "::"), ("tsv", "\t")])
    @settings(max_examples=25, deadline=None)
    @given(rows=_ROWS)
    def test_id_formats_parse_back_equal(self, tmp_path_factory, fmt, sep, rows):
        rows = [dataclasses.replace(it, comment=None) for it in rows]
        path = tmp_path_factory.mktemp("parse") / "data"
        path.write_text("".join(f"{it.user_id}{sep}{it.item_id}{sep}{it.rating}{sep}{it.timestamp}\n" for it in rows), encoding="utf-8")
        parsed = parse_interactions(str(path), fmt)
        assert parsed.interactions == by_user_then_time(rows)
        assert parsed.catalog == {it.item_id: f"item {it.item_id}" for it in rows}
        assert parsed.duplicates_dropped == 0

    @settings(max_examples=25, deadline=None)
    @given(rows=_ROWS, titles=_TITLES)
    def test_review_jsonl_parses_back_equal(self, tmp_path_factory, rows, titles):
        path = tmp_path_factory.mktemp("parse") / "data.jsonl"
        write_jsonl(rows, dict(enumerate(titles)), str(path))
        parsed = parse_interactions(str(path), "review-jsonl")
        # users and items are numbered in order of first appearance in the file
        users = {u: i for i, u in enumerate(dict.fromkeys(it.user_id for it in rows))}
        items = {v: i for i, v in enumerate(dict.fromkeys(it.item_id for it in rows))}
        want = [dataclasses.replace(it, user_id=users[it.user_id], item_id=items[it.item_id]) for it in rows]
        assert parsed.interactions == by_user_then_time(want)
        assert parsed.catalog == {items[v]: titles[v].strip() for v in items}
        assert parsed.duplicates_dropped == 0

    @settings(max_examples=15, deadline=None)
    @given(rows=_ROWS.filter(bool), titles=_TITLES, history_limit=st.integers(1, 4), seed=st.integers(0, 3))
    def test_save_load_round_trip_keeps_corpus_and_examples(self, tmp_path_factory, rows, titles, history_limit, seed):
        rows = by_user_then_time(rows)
        catalog = {it.item_id: titles[it.item_id] for it in rows}
        corpus = build_corpus(cp.ParseResult(rows, catalog, 0), SplitSpec(k_core=0, seed=seed), history_limit=history_limit)
        out = tmp_path_factory.mktemp("corpus")
        cp.save_corpus(corpus, str(out))
        loaded = cp.load_corpus(str(out))
        assert loaded.interactions == corpus.interactions
        assert loaded.catalog == corpus.catalog
        assert loaded.split == corpus.split
        assert (loaded.spec, loaded.history_limit) == (corpus.spec, corpus.history_limit)
        assert loaded.vocab.tokens == corpus.vocab.tokens
        for task in corpus.tasks:
            for split_name in ("train", "valid", "test"):
                assert examples_or_error(loaded, task, split_name) == examples_or_error(corpus, task, split_name)


class TestStats:
    def test_stats_shape(self, small_corpus):
        stats = cp.corpus_stats(small_corpus, seed=1)
        assert stats["users"] == len(small_corpus.user_ids)
        assert stats["items"] == len(small_corpus.item_ids)
        assert stats["interactions"] == len(small_corpus.interactions)
        assert stats["avg_u"] == pytest.approx(stats["interactions"] / stats["users"])
        assert stats["test"] > 0 and stats["train"] > 0
