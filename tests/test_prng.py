"""SplitMix64 serves its draws from precomputed blocks; every draw, the
counter and every sampler built on them must equal a plain per-call splitmix64."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fuserec import collab
from fuserec.collab import CfTrainConfig, train_cf
from fuserec.corpus import Interaction
from fuserec.prng import BLOCK, SplitMix64

MASK64 = (1 << 64) - 1


class PerCallSplitMix64:
    """Reference: one splitmix64 step per draw, in Python integers."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self):
        return (self.next_u64() >> 11) * (2.0**-53)

    def randbelow(self, n):
        return self.next_u64() % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def fork(self, salt):
        return PerCallSplitMix64(self.next_u64() ^ (salt * 0x9E3779B97F4A7C15))


SEEDS = st.sampled_from([0, 1, MASK64]) | st.integers(0, MASK64)
# skip up to 600 draws first, so later reads start anywhere in a block
SKIPS = st.integers(0, 600)


def _skip(streams, n):
    for _ in range(n):
        values = {s.next_u64() for s in streams}
        assert len(values) == 1


class TestBlockedStream:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 600))
    def test_draws_and_state_equal_the_per_call_reference(self, seed, n):
        got, want = SplitMix64(seed), PerCallSplitMix64(seed)
        assert got.state == want.state
        assert [got.next_u64() for _ in range(n)] == [want.next_u64() for _ in range(n)]
        assert got.state == want.state

    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        skip=SKIPS,
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("random"), st.just(0)),
                st.tuples(st.just("randbelow"), st.integers(1, 2**70)),
                st.tuples(st.just("shuffle"), st.integers(0, 300)),
                st.tuples(st.just("fork"), st.integers(0, 2**20)),
            ),
            max_size=8,
        ),
    )
    def test_samplers_equal_the_per_call_reference(self, seed, skip, ops):
        got, want = SplitMix64(seed), PerCallSplitMix64(seed)
        _skip([got, want], skip)
        for op, arg in ops:
            if op == "random":
                assert got.random() == want.random()
            elif op == "randbelow":
                assert got.randbelow(arg) == want.randbelow(arg)
            elif op == "shuffle":
                a, b = list(range(arg)), list(range(arg))
                got.shuffle(a)
                want.shuffle(b)
                assert a == b
            else:
                child, ref = got.fork(arg), want.fork(arg)
                assert child.state == ref.state
                assert [child.next_u64() for _ in range(BLOCK + 3)] == [ref.next_u64() for _ in range(BLOCK + 3)]
            assert got.state == want.state

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, skip=SKIPS, n=st.integers(1, 300))
    def test_assigned_state_resumes_the_stream(self, seed, skip, n):
        stream = SplitMix64(seed)
        _skip([stream], skip)
        resumed = SplitMix64(12345)
        _skip([resumed], skip % 7)
        resumed.state = stream.state
        rebuilt = SplitMix64(stream.state)
        want = PerCallSplitMix64(stream.state)
        rest = [stream.next_u64() for _ in range(n)]
        assert rest == [want.next_u64() for _ in range(n)]
        assert [resumed.next_u64() for _ in range(n)] == rest
        assert [rebuilt.next_u64() for _ in range(n)] == rest
        assert resumed.state == stream.state == rebuilt.state


class TestNegativeSampling:
    def test_guarded_draws_equal_a_per_draw_replay(self, monkeypatch):
        # user 0 owns every item, so it gets no negatives; user 1 owns four of
        # the five, so most of its draws are redrawn, across block boundaries
        n_items = 5
        data = [Interaction(0, v, 4, v) for v in range(n_items)]
        data += [Interaction(1, v, 2, v) for v in range(1, n_items)]
        data += [Interaction(u, (2 * u + t) % n_items, 3, t) for u in range(2, 4) for t in range(2)]
        ui = {u: i for i, u in enumerate(sorted({it.user_id for it in data}))}
        vi = {v: i for i, v in enumerate(sorted({it.item_id for it in data}))}
        cfg = CfTrainConfig(d_cf=3, epochs=10, batch_size=4, negatives_per_positive=3, seed=21)
        seen = []
        real = collab.score_batch

        def record(user_t, item_t, us, vs, owners, hists=None):
            seen.append((list(us), list(vs)))
            return real(user_t, item_t, us, vs, owners, hists)

        monkeypatch.setattr(collab, "score_batch", record)
        train_cf(data, ui, vi, cfg)

        rng = PerCallSplitMix64(cfg.seed)
        owned = {ui[u]: {vi[it.item_id] for it in data if it.user_id == u} for u in ui}
        events = [(ui[it.user_id], vi[it.item_id]) for it in data]
        want, draws = [], 0
        for _epoch in range(cfg.epochs):
            order = list(range(len(events)))
            rng.shuffle(order)
            draws += len(order) - 1
            for start in range(0, len(order), cfg.batch_size):
                chunk = [events[i] for i in order[start : start + cfg.batch_size]]
                us, vs = [u for u, _v in chunk], [v for _u, v in chunk]
                for u, _v in chunk:
                    if len(owned[u]) == n_items:
                        continue
                    for _ in range(cfg.negatives_per_positive):
                        neg = rng.randbelow(n_items)
                        draws += 1
                        while neg in owned[u]:
                            neg = rng.randbelow(n_items)
                            draws += 1
                        us.append(u)
                        vs.append(neg)
                want.append((us, vs))
        assert seen == want
        assert draws > 3 * BLOCK
        assert all(u != ui[0] for us, _vs in seen for u in us[cfg.batch_size :])

    @settings(max_examples=40, deadline=None)
    @given(
        owned=st.lists(st.sets(st.integers(0, 5), min_size=1), min_size=1, max_size=5),
        saturated=st.integers(0, 2),
        negatives=st.integers(1, 3),
        backend=st.sampled_from(["MF", "SeqAttn"]),
        seed=st.integers(0, 2**16),
    )
    def test_no_sampled_negative_is_owned(self, owned, saturated, negatives, backend, seed):
        owned = owned + [set(range(6))] * saturated
        data = [Interaction(u, v, 3, t) for u, items in enumerate(owned) for t, v in enumerate(sorted(items))]
        ui = {u: i for i, u in enumerate(sorted({it.user_id for it in data}))}
        vi = {v: i for i, v in enumerate(sorted({it.item_id for it in data}))}
        dense = {ui[u]: {vi[v] for v in items} for u, items in enumerate(owned)}
        batches = []
        real = collab.score_batch

        def record(user_t, item_t, us, vs, owners, hists=None):
            batches.append((list(us), list(vs), list(owners)))
            return real(user_t, item_t, us, vs, owners, hists)

        cfg = CfTrainConfig(backend=backend, d_cf=2, epochs=2, batch_size=4, negatives_per_positive=negatives, seed=seed)
        with mock.patch.object(collab, "score_batch", record):
            train_cf(data, ui, vi, cfg)
        for us, vs, owners in batches:
            # the positives come first, each its own owner; a negative's owner
            # is the positive it was drawn for
            n_pos = sum(1 for i, j in enumerate(owners) if i == j)
            assert all(vs[i] not in dense[us[i]] for i in range(n_pos, len(us)))
            for j in range(n_pos):
                unseen = len(dense[us[j]]) < len(vi)
                assert owners[n_pos:].count(j) == (negatives if unseen else 0)

