"""Interaction ingestion, filtering/splitting protocol, task examples, prompts, vocab.

Everything downstream consumes the Corpus object built here: deduplicated
interactions sorted by (user, timestamp), k-core filtered, split per user by
recency, turned into per-task supervised examples with seeded negative
sampling, and rendered into prompt text with optional collaborative
placeholder markers.

save_corpus writes a corpus as two JSON-lines files, interactions.jsonl
(each interaction with its split role) and catalog.jsonl, plus vocab.txt
(one token per line) and corpus.json, whose line counts let load_corpus
reject a cut file.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

from .checkpoint import atomic_open, save_meta
from .prng import SplitMix64

TASKS = ("RP", "CTR", "TopK", "Explain")
FORMATS = ("ml-dat", "tsv", "review-jsonl")
ROLES = ("train", "valid", "test")  # the lists of a Split, in field order

USER_MARK = "<user>"
ITEM_MARK = "<item>"

SPECIAL_TOKENS = (
    "<pad>",
    "<bos>",
    "<eos>",
    "<sep>",
    "<unk>",
    USER_MARK,
    ITEM_MARK,
    "1",
    "2",
    "3",
    "4",
    "5",
    "yes",
    "no",
)


class CorpusError(ValueError):
    """Malformed input data or a violated data-protocol precondition."""


@dataclass(frozen=True)
class Interaction:
    user_id: int
    item_id: int
    rating: int
    timestamp: int
    comment: str | None = None


@dataclass
class SplitSpec:
    mode: str = "leave-one-out"
    k_core: int = 20
    k_core_iterative: bool = False
    few_shot_n: int | None = None
    cold_user_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("leave-one-out", "warm-cold", "few-shot"):
            raise CorpusError(f"mode: unknown split mode {self.mode!r}")
        if self.k_core < 0:
            raise CorpusError(f"k_core: must be >= 0, got {self.k_core}")
        if (self.mode == "few-shot") != (self.few_shot_n is not None):
            raise CorpusError("few_shot_n: required iff mode is few-shot")
        if self.few_shot_n is not None and self.few_shot_n < 1:
            raise CorpusError(f"few_shot_n: must be >= 1, got {self.few_shot_n}")
        if self.mode == "warm-cold":
            if self.cold_user_fraction is None or not 0.0 < self.cold_user_fraction < 1.0:
                raise CorpusError("cold_user_fraction: must be in (0, 1) for warm-cold mode")
        elif self.cold_user_fraction is not None:
            raise CorpusError("cold_user_fraction: only applies to warm-cold mode")


@dataclass(frozen=True)
class TaskExample:
    task: str
    user_id: int
    history: tuple[int, ...]
    history_comments: tuple[str, ...] | None
    candidate: int
    label: int
    candidate_set: tuple[int, ...] | None = None  # TopK only; contains the truth exactly once


@dataclass
class ParseResult:
    interactions: list[Interaction]
    catalog: dict[int, str]
    duplicates_dropped: int


@dataclass
class Split:
    train: list[Interaction]
    valid: list[Interaction]
    test: list[Interaction]
    dropped_users: int
    cold_user_ids: frozenset[int] = frozenset()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _check_rating(value, path: str, lineno: int) -> int:
    try:
        r = int(value)
        if r != float(value):
            raise ValueError
    except (TypeError, ValueError):
        raise CorpusError(f"{path}:{lineno}: rating {value!r} is not an integer") from None
    if not 1 <= r <= 5:
        raise CorpusError(f"{path}:{lineno}: rating {r} outside [1, 5]")
    return r


def parse_interactions(path: str, fmt: str) -> ParseResult:
    """Read one of the supported interaction formats.

    ml-dat lines are `u::v::r::t`, tsv lines are tab-separated `u v r t`,
    review-jsonl objects carry user/item/rating/timestamp/title and an
    optional review_text that becomes the comment. Duplicate
    (user, item, timestamp) triples keep the first occurrence. Output is
    sorted by (user_id, timestamp), ties resolved by file order. ml-dat and
    tsv carry no titles, so the catalog is synthesized as "item <id>".
    """
    if fmt not in FORMATS:
        raise CorpusError(f"unknown format {fmt!r}")
    raw: list[Interaction] = []
    catalog: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "review-jsonl":
            user_keys, item_keys = {}, {}
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
                missing = [k for k in ("user", "item", "rating", "timestamp", "title") if k not in obj]
                if missing:
                    raise CorpusError(f"{path}:{lineno}: missing fields {missing}")
                u = user_keys.setdefault(obj["user"], len(user_keys))
                v = item_keys.setdefault(obj["item"], len(item_keys))
                r = _check_rating(obj["rating"], path, lineno)
                try:
                    t = int(obj["timestamp"])
                except (TypeError, ValueError):
                    raise CorpusError(f"{path}:{lineno}: bad timestamp {obj['timestamp']!r}") from None
                title = str(obj["title"]).strip()
                if not title:
                    raise CorpusError(f"{path}:{lineno}: empty title for item {obj['item']!r}")
                catalog.setdefault(v, title)
                comment = obj.get("review_text")
                comment = str(comment) if comment is not None and str(comment).strip() else None
                raw.append(Interaction(u, v, r, t, comment))
        else:
            sep = "::" if fmt == "ml-dat" else "\t"
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(sep)
                if len(parts) != 4:
                    raise CorpusError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
                try:
                    u, v, t = int(parts[0]), int(parts[1]), int(parts[3])
                except ValueError:
                    raise CorpusError(f"{path}:{lineno}: non-integer id or timestamp") from None
                r = _check_rating(parts[2], path, lineno)
                raw.append(Interaction(u, v, r, t))
                catalog.setdefault(v, f"item {v}")
    seen: set[tuple[int, int, int]] = set()
    deduped: list[Interaction] = []
    for it in raw:
        key = (it.user_id, it.item_id, it.timestamp)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(it)
    deduped.sort(key=lambda it: (it.user_id, it.timestamp))
    return ParseResult(deduped, catalog, len(raw) - len(deduped))


# ---------------------------------------------------------------------------
# filtering and splitting
# ---------------------------------------------------------------------------


def _counts(data: list[Interaction]) -> tuple[dict[int, int], dict[int, int]]:
    users: dict[int, int] = {}
    items: dict[int, int] = {}
    for it in data:
        users[it.user_id] = users.get(it.user_id, 0) + 1
        items[it.item_id] = items.get(it.item_id, 0) + 1
    return users, items


def k_core_filter(data: list[Interaction], k: int, iterative: bool = False) -> list[Interaction]:
    """Drop sparse users then sparse items; iterative mode repeats to fixpoint."""
    if k < 0:
        raise CorpusError("k must be >= 0")
    if k == 0:
        return list(data)
    current = list(data)
    while True:
        users, items = _counts(current)
        kept = [it for it in current if users[it.user_id] >= k]
        _, items = _counts(kept)
        kept = [it for it in kept if items.get(it.item_id, 0) >= k]
        changed = len(kept) != len(current)
        current = kept
        if not iterative or not changed:
            return current


def _by_user(data: list[Interaction]) -> dict[int, list[Interaction]]:
    out: dict[int, list[Interaction]] = {}
    for it in data:
        out.setdefault(it.user_id, []).append(it)
    return out


def leave_one_out_split(data: list[Interaction], spec: SplitSpec) -> Split:
    """Per user ordered by time: last interaction to test, second-last to valid.

    warm-cold mode first moves a seeded fraction of users entirely to test;
    users with fewer than 3 interactions are dropped and counted. Input must
    already be sorted by (user, timestamp).
    """
    grouped = _by_user(data)
    users = sorted(grouped)
    cold: set[int] = set()
    if spec.mode == "warm-cold":
        order = list(users)
        SplitMix64(spec.seed).shuffle(order)
        cold = set(order[: int(round(len(order) * spec.cold_user_fraction))])
    train: list[Interaction] = []
    valid: list[Interaction] = []
    test: list[Interaction] = []
    dropped = 0
    for u in users:
        seq = grouped[u]
        if u in cold:
            test.extend(seq)
            continue
        if len(seq) < 3:
            dropped += 1
            continue
        train.extend(seq[:-2])
        valid.append(seq[-2])
        test.append(seq[-1])
    return Split(train, valid, test, dropped, frozenset(cold))


# ---------------------------------------------------------------------------
# corpus container
# ---------------------------------------------------------------------------


class Corpus:
    """Filtered interactions, split, catalog, id indexes and vocab in one place."""

    def __init__(
        self,
        interactions: list[Interaction],
        catalog: dict[int, str],
        split: Split,
        spec: SplitSpec,
        vocab: "Vocab",
        history_limit: int = 10,
    ):
        for it in interactions:
            if it.item_id not in catalog:
                raise CorpusError(f"item {it.item_id} has no title in the catalog")
        self.interactions = interactions
        self.catalog = catalog
        self.split = split
        self.spec = spec
        self.vocab = vocab
        self.history_limit = history_limit
        self.user_ids = sorted({it.user_id for it in interactions})
        self.item_ids = sorted({it.item_id for it in interactions})
        self.user_index = {u: i for i, u in enumerate(self.user_ids)}
        self.item_index = {v: i for i, v in enumerate(self.item_ids)}
        self.by_user = _by_user(interactions)
        # an empty comment is no comment: save_corpus writes both as null
        self.has_comments = any(it.comment for it in interactions)

    @property
    def tasks(self) -> tuple[str, ...]:
        return TASKS if self.has_comments else ("RP", "CTR", "TopK")

    def full_history(self, user_id: int) -> set[int]:
        return {it.item_id for it in self.by_user.get(user_id, ())}


def build_corpus(parsed: ParseResult, spec: SplitSpec, history_limit: int = 10) -> Corpus:
    filtered = k_core_filter(parsed.interactions, spec.k_core, spec.k_core_iterative)
    if not filtered:
        raise CorpusError("no interactions survive filtering")
    split = leave_one_out_split(filtered, spec)
    kept_ids = {it.user_id for it in split.train + split.valid + split.test}
    kept = [it for it in filtered if it.user_id in kept_ids]
    kept_items = {it.item_id for it in kept}
    catalog = {v: t for v, t in parsed.catalog.items() if v in kept_items}
    texts = [t for t in catalog.values()]
    texts.extend(it.comment for it in kept if it.comment)
    texts.extend(TEMPLATE_TEXTS)
    vocab = Vocab.build(texts)
    return Corpus(kept, catalog, split, spec, vocab, history_limit)


# ---------------------------------------------------------------------------
# task examples
# ---------------------------------------------------------------------------


def _eval_points(corpus: Corpus, split_name: str) -> list[tuple[Interaction, list[Interaction]]]:
    """(candidate interaction, prior history interactions) pairs for a split."""
    points = []
    if split_name == "train":
        train_by_user = _by_user(corpus.split.train)
        for u in sorted(train_by_user):
            seq = train_by_user[u]
            for i in range(1, len(seq)):
                points.append((seq[i], seq[:i]))
    elif split_name in ("valid", "test"):
        train_by_user = _by_user(corpus.split.train)
        valid_by_user = _by_user(corpus.split.valid)
        source = corpus.split.valid if split_name == "valid" else corpus.split.test
        for it in source:
            if it.user_id in corpus.split.cold_user_ids:
                # Cold user: every event sits in test; score only the last one
                # against the rest so the shape matches leave-one-out.
                seq = corpus.by_user[it.user_id]
                if it is seq[-1] and len(seq) > 1:
                    points.append((it, seq[:-1]))
            else:
                hist = list(train_by_user.get(it.user_id, []))
                if split_name == "test":
                    hist += valid_by_user.get(it.user_id, [])
                points.append((it, hist))
        points.sort(key=lambda p: (p[0].user_id, p[0].timestamp))
    else:
        raise CorpusError(f"unknown split name {split_name!r}")
    return points


def _sample_negatives(
    rng: SplitMix64, corpus: Corpus, user_id: int, n: int, exclude: set[int], hard_anchor: int | None, hard_sampler
) -> list[int]:
    eligible = [v for v in corpus.item_ids if v not in exclude]
    if len(eligible) < n:
        raise CorpusError(f"user {user_id}: only {len(eligible)} eligible negatives, need {n}")
    if hard_sampler is not None and hard_anchor is not None:
        ranked = hard_sampler(hard_anchor, n + len(exclude) + 1)
        picked = [v for v in ranked if v not in exclude][:n]
        if len(picked) < n:
            pool = [v for v in eligible if v not in picked]
            picked += rng.sample_without_replacement(pool, n - len(picked))
        return picked
    return rng.sample_without_replacement(eligible, n)


def build_examples(
    corpus: Corpus,
    task: str,
    split_name: str,
    n_neg: int = 10,
    hard_sampler=None,
    seed: int = 0,
) -> list[TaskExample]:
    """Supervised examples for one task over one split.

    CTR pairs each candidate with one never-interacted negative; TopK builds a
    shuffled candidate set of the truth plus n_neg negatives (uniform, or
    ranked by hard_sampler when given). Explain requires comment data. For the
    few-shot split spec, the train pool is subsampled to few_shot_n examples.
    """
    if task not in TASKS:
        raise CorpusError(f"unknown task {task!r}")
    if task == "Explain" and not corpus.has_comments:
        raise CorpusError("Explain task requires comment data")
    rng = SplitMix64(seed).fork(TASKS.index(task) + 1)
    examples: list[TaskExample] = []
    for cand, hist in _eval_points(corpus, split_name):
        hist = hist[-corpus.history_limit :]
        items = tuple(h.item_id for h in hist)
        comments = tuple(h.comment or "" for h in hist) if task == "Explain" else None
        u = cand.user_id
        base = dict(user_id=u, history=items, history_comments=comments)
        if task in ("RP", "Explain"):
            examples.append(TaskExample(task=task, candidate=cand.item_id, label=cand.rating, **base))
        elif task == "CTR":
            exclude = corpus.full_history(u)
            neg = _sample_negatives(rng, corpus, u, 1, exclude, None, None)[0]
            examples.append(TaskExample(task=task, candidate=cand.item_id, label=1, **base))
            examples.append(TaskExample(task=task, candidate=neg, label=0, **base))
        else:  # TopK
            exclude = corpus.full_history(u)
            negs = _sample_negatives(rng, corpus, u, n_neg, exclude, cand.item_id, hard_sampler)
            cands = [cand.item_id] + negs
            rng.shuffle(cands)
            examples.append(
                TaskExample(task=task, candidate=cand.item_id, label=cand.item_id, candidate_set=tuple(cands), **base)
            )
    if corpus.spec.mode == "few-shot" and split_name == "train":
        want = corpus.spec.few_shot_n
        if len(examples) < want:
            raise CorpusError(f"few-shot pool has {len(examples)} examples, need {want}")
        rng.shuffle(examples)
        examples = examples[:want]
    return examples


# ---------------------------------------------------------------------------
# prompt templates
# ---------------------------------------------------------------------------

_INSTR = {
    "RP": "task rating . predict the rating the user gives the candidate item .",
    "CTR": "task click . decide whether the user clicks the candidate item .",
    "TopK": "task ranking . pick the item the user will interact with .",
    "Explain": "task review rating . from the user comments predict the rating for the candidate item .",
}
_QUESTION = {
    "RP": "rate from 1 to 5 . answer :",
    "CTR": "answer yes or no . answer :",
    "TopK": "answer with the chosen item . answer :",
    "Explain": "rate from 1 to 5 . answer :",
}
_COLLAB_CLAUSE = f"user profile {USER_MARK} . item profile {ITEM_MARK} ."

TEMPLATE_TEXTS = tuple(_INSTR.values()) + tuple(_QUESTION.values()) + (
    "history :",
    "comments :",
    "candidate :",
    "candidates :",
    _COLLAB_CLAUSE,
)


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    answer_text: str


def render_prompt(example: TaskExample, catalog: dict[int, str], inject_collab: bool) -> RenderedPrompt:
    """Prompt text for one example; the collaborative clause holds the two
    placeholder markers and is dropped wholesale when injection is off."""

    def title(v: int) -> str:
        if v not in catalog:
            raise CorpusError(f"item {v} has no title")
        return catalog[v]

    parts = [_INSTR[example.task]]
    if inject_collab:
        parts.append(_COLLAB_CLAUSE)
    if example.task == "Explain":
        comments = example.history_comments or ()
        parts.append("comments : " + " . ".join(c for c in comments if c) + " .")
    else:
        parts.append("history : " + " , ".join(title(v) for v in example.history) + " .")
    if example.task == "TopK":
        parts.append("candidates : " + " , ".join(title(v) for v in example.candidate_set) + " .")
        answer = title(example.label)
    else:
        parts.append("candidate : " + title(example.candidate) + " .")
        answer = str(example.label) if example.task != "CTR" else ("yes" if example.label == 1 else "no")
    parts.append(_QUESTION[example.task])
    return RenderedPrompt(" ".join(parts), answer)


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

_MARK_RE = re.compile(r"(<user>|<item>)")
_WORD_RE = re.compile(r"[a-z0-9]+")


def words(text: str) -> list[str]:
    """The tokens of a text: each marker whole, and between markers the runs
    of ASCII letters and digits of the lowercased text."""
    out: list[str] = []
    for part in _MARK_RE.split(text):
        if part in (USER_MARK, ITEM_MARK):
            out.append(part)
        else:
            out.extend(_WORD_RE.findall(part.lower()))
    return out


class Vocab:
    """Token/text mapping with fixed special tokens; id = position in the list."""

    def __init__(self, tokens: list[str]):
        if list(tokens[: len(SPECIAL_TOKENS)]) != list(SPECIAL_TOKENS):
            raise CorpusError("vocab must start with the special tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise CorpusError("duplicate token in vocab")
        self.bos = self.index["<bos>"]
        self.eos = self.index["<eos>"]
        self.unk = self.index["<unk>"]
        self.user_unk = self.index[USER_MARK]
        self.item_unk = self.index[ITEM_MARK]

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, texts) -> "Vocab":
        seen: set[str] = set()
        for text in texts:
            seen.update(words(text))
        seen -= set(SPECIAL_TOKENS)
        return cls(list(SPECIAL_TOKENS) + sorted(seen))

    def encode(self, text: str, bos: bool = True) -> list[int]:
        index, unk = self.index, self.unk
        ids = [index.get(tok, unk) for tok in words(text)]
        return [self.bos, *ids] if bos else ids


@dataclass(frozen=True)
class PlaceholderPositions:
    user_pos: int | None
    item_pos: int | None


def locate_placeholders(ids: list[int], vocab: Vocab, expected: bool) -> PlaceholderPositions:
    users = [i for i, t in enumerate(ids) if t == vocab.user_unk]
    items = [i for i, t in enumerate(ids) if t == vocab.item_unk]
    if expected:
        if len(users) != 1 or len(items) != 1:
            raise CorpusError(f"expected one user and one item placeholder, found {len(users)}/{len(items)}")
        return PlaceholderPositions(users[0], items[0])
    if users or items:
        raise CorpusError("placeholder markers present in a plain-text prompt")
    return PlaceholderPositions(None, None)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _read_lines(path: str, want: int, parse: Callable[[str], object]) -> list:
    """`parse` applied to each line of a file save_corpus wrote. A line that is
    not UTF-8 or that parse rejects, a last line without its newline and a
    line count other than `want` are CorpusErrors naming the file."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines.pop():
        raise CorpusError(f"{path}:{len(lines) + 1}: cut short, no newline at its end")
    rows = []
    for n, line in enumerate(lines, 1):
        try:
            rows.append(parse(line.decode("utf-8")))
        except ValueError as exc:
            raise CorpusError(f"{path}:{n}: malformed line ({exc})") from None
    if len(rows) != want:
        raise CorpusError(f"{path}: {len(rows)} lines, but corpus.json records {want}")
    return rows


def _fields(line: str, kinds: tuple) -> list:
    """The fields of a line holding one JSON array, the i-th of type kinds[i]."""
    row = json.loads(line)
    if not isinstance(row, list) or len(row) != len(kinds):
        raise ValueError(f"not a JSON array of {len(kinds)} fields")
    for i, (value, kind) in enumerate(zip(row, kinds)):
        if not isinstance(value, kind) or isinstance(value, bool):  # a bool is an int, but no id
            raise ValueError(f"field {i} is {value!r}")
    return row


def _parse_interaction(line: str) -> tuple[Interaction, str]:
    u, v, r, t, role, comment = _fields(line, (int, int, int, int, str, str | None))
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    return Interaction(u, v, r, t, comment), role


def save_corpus(corpus: Corpus, out_dir: str) -> None:
    """One JSON array per line: [user, item, rating, timestamp, role, comment]
    in interactions.jsonl, in corpus order, and [item, title] in catalog.jsonl,
    by id; one token per line in vocab.txt. corpus.json, written last, holds
    the spec, the dropped and cold users, and each of those files' line count."""
    os.makedirs(out_dir, exist_ok=True)
    role = {id(it): name for name in ROLES for it in getattr(corpus.split, name)}
    text = {
        "interactions.jsonl": [
            json.dumps([it.user_id, it.item_id, it.rating, it.timestamp, role[id(it)], it.comment or None], ensure_ascii=False)
            for it in corpus.interactions
        ],
        "catalog.jsonl": [json.dumps([v, corpus.catalog[v]], ensure_ascii=False) for v in sorted(corpus.catalog)],
        "vocab.txt": corpus.vocab.tokens,
    }
    for name, lines in text.items():
        with atomic_open(os.path.join(out_dir, name)) as fh:
            fh.writelines(line + "\n" for line in lines)
    meta = asdict(corpus.spec)
    meta.update(
        history_limit=corpus.history_limit,
        dropped_users=corpus.split.dropped_users,
        cold_user_ids=sorted(corpus.split.cold_user_ids),
        line_counts={name: len(lines) for name, lines in text.items()},
    )
    save_meta(os.path.join(out_dir, "corpus.json"), meta)


def load_corpus(corpus_dir: str) -> Corpus:
    meta_path = os.path.join(corpus_dir, "corpus.json")
    with open(meta_path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
            spec = SplitSpec(**{f.name: meta[f.name] for f in fields(SplitSpec)})
            history_limit, dropped, cold = meta["history_limit"], meta["dropped_users"], frozenset(meta["cold_user_ids"])
            counts = dict(meta["line_counts"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CorpusError(f"{meta_path}: unreadable corpus metadata ({exc!r})") from None

    def read(name: str, parse: Callable[[str], object]) -> list:
        return _read_lines(os.path.join(corpus_dir, name), counts.get(name), parse)

    rows = read("interactions.jsonl", _parse_interaction)
    catalog = dict(read("catalog.jsonl", lambda line: _fields(line, (int, str))))
    # each interaction lies in one split, so the split lists hold the very
    # objects of the interaction list, in its order
    split = Split(*([it for it, role in rows if role == name] for name in ROLES), dropped, cold)
    return Corpus([it for it, _role in rows], catalog, split, spec, Vocab(read("vocab.txt", str)), history_limit)


def corpus_stats(corpus: Corpus, tasks: tuple[str, ...] | None = None, n_neg: int = 10, seed: int = 0) -> dict:
    """Dataset statistics: interaction/user/item counts, per-split example
    counts summed over tasks, and average interactions per user/item."""
    tasks = tasks if tasks is not None else corpus.tasks
    n = len(corpus.interactions)
    return {
        "interactions": n,
        **{name: sum(len(build_examples(corpus, task, name, n_neg=n_neg, seed=seed)) for task in tasks) for name in ROLES},
        "users": len(corpus.user_ids),
        "items": len(corpus.item_ids),
        "avg_u": n / len(corpus.user_ids),
        "avg_i": n / len(corpus.item_ids),
    }
