import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuserec import numerics as nm
from fuserec.numerics import ContractError, NumericError, ShapeError, Tensor

from gradcheck import finite_diff_check


def fd(f, x, eps=1e-5):
    return finite_diff_check(f, x, eps=eps)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nm.matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = nm.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        # hand multiplication: [1*5+2*6, 3*5+4*6]
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        assert fd(lambda t: nm.tsum(nm.matmul(t, b)), a) < 1e-6
        assert fd(lambda t: nm.tsum(nm.matmul(a, t)), b) < 1e-6

    def test_associative_on_random_chains(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
            left = nm.matmul(nm.matmul(a, b), c).data
            right = nm.matmul(a, nm.matmul(b, c)).data
            assert np.abs(left - right).max() < 1e-9


class TestSoftmax:
    def test_uniform_logits(self):
        out = nm.softmax(Tensor([[0.0, 0.0, 0.0]]), axis=1)
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 5))
        for c in (1.7, -42.0, 1000.0):
            base = nm.softmax(Tensor(x), axis=1).data
            shifted = nm.softmax(Tensor(x + c), axis=1).data
            assert np.abs(base - shifted).max() < 1e-12

    def test_closed_form_two_logits(self):
        # direct evaluation: e^10 / (e^10 + 1) and its complement
        expected = np.array([math.exp(10.0), 1.0]) / (math.exp(10.0) + 1.0)
        out = nm.softmax(Tensor([[10.0, 0.0]]), axis=1)
        assert np.allclose(out.data[0], expected, atol=1e-7)
        assert round(out.data[0, 0], 7) == 0.9999546
        assert round(out.data[0, 1], 7) == 0.0000454

    def test_rows_sum_to_one_entries_in_unit_interval(self):
        rng = np.random.default_rng(3)
        x = nm.softmax(Tensor(rng.normal(scale=5.0, size=(10, 7))), axis=1)
        assert np.abs(x.data.sum(axis=1) - 1.0).max() < 1e-12
        assert (x.data > 0).all() and (x.data < 1).all()

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            nm.softmax(Tensor([[np.inf, 0.0]]), axis=1)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            nm.softmax(Tensor([[1.0]]), axis=2)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 6)))
        w = Tensor(rng.normal(size=(6, 1)))
        assert fd(lambda t: nm.tsum(nm.matmul(nm.softmax(t, axis=1), w)), x) < 1e-4


class TestLayerNorm:
    def test_constant_row_gives_zero(self):
        x = Tensor([[3.0, 3.0, 3.0, 3.0]])
        out = nm.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.abs(out.data).max() < 1e-12

    def test_output_mean_equals_bias_mean_with_unit_gain(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(6, 8)))
        bias = Tensor(rng.normal(size=8))
        out = nm.layer_norm(x, Tensor(np.ones(8)), bias)
        assert np.abs(out.data.mean(axis=1) - bias.data.mean()).max() < 1e-9

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 5)))
        gain = Tensor(rng.normal(size=5))
        bias = Tensor(rng.normal(size=5))
        probe = Tensor(rng.normal(size=(5, 1)))

        def scalar(y):
            return nm.tsum(nm.matmul(nm.layer_norm(y, gain, bias), probe))

        assert fd(scalar, x) < 1e-5
        assert fd(lambda g: nm.tsum(nm.matmul(nm.layer_norm(x, g, bias), probe)), gain) < 1e-5
        assert fd(lambda b: nm.tsum(nm.matmul(nm.layer_norm(x, gain, b), probe)), bias) < 1e-5


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((1, 8)))
        loss = nm.cross_entropy(logits, [3])
        assert abs(loss.item() - math.log(8.0)) < 1e-12

    def test_certain_prediction_gives_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e6
        loss = nm.cross_entropy(Tensor(logits), [2])
        assert loss.item() < 1e-9

    def test_no_rows_rejected(self):
        with pytest.raises(ContractError):
            nm.cross_entropy(Tensor(np.zeros((0, 4))), [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            nm.cross_entropy(Tensor(np.zeros((2, 4))), [0])

    def test_target_outside_vocab_rejected(self):
        with pytest.raises(ContractError, match="target id 4 at position 1"):
            nm.cross_entropy(Tensor(np.zeros((3, 4))), [0, 4, -1])

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.normal(size=(3, 5)))
        assert fd(lambda t: nm.cross_entropy(t, [1, 0, 4]), logits) < 1e-5

    def test_lengths_give_mean_of_segment_calls(self):
        rng = np.random.default_rng(26)
        lengths = [2, 4, 1, 3]
        logits = rng.normal(size=(10, 6))
        targets = list(rng.integers(0, 6, size=10))
        packed = nm.cross_entropy(Tensor(logits), targets, lengths).item()
        singles, start = [], 0
        for t_len in lengths:
            rows = slice(start, start + t_len)
            singles.append(nm.cross_entropy(Tensor(logits[rows]), targets[rows]).item())
            start += t_len
        assert abs(packed - np.mean(singles)) < 1e-12
        assert fd(lambda t: nm.cross_entropy(t, targets, lengths), Tensor(logits)) < 1e-5

    def test_lengths_checked(self):
        logits = Tensor(np.zeros((3, 4)))
        with pytest.raises(ContractError):
            nm.cross_entropy(logits, [0, 1, 2], [1, 1])
        with pytest.raises(ContractError):
            nm.cross_entropy(logits, [0, 1, 2], [1, 0, 2])


def _attention_by_loops(q, k, v, lengths, n_heads):
    """Reference: every sequence and head on its own, in plain numpy."""
    d_head = q.shape[1] // n_heads
    out = np.zeros_like(q)
    start = 0
    for t_len in lengths:
        rows = slice(start, start + t_len)
        for h in range(n_heads):
            cols = slice(h * d_head, (h + 1) * d_head)
            scores = q[rows, cols] @ k[rows, cols].T
            scores[np.triu(np.ones((t_len, t_len), dtype=bool), k=1)] = -np.inf
            att = np.exp(scores - scores.max(axis=1, keepdims=True))
            out[rows, cols] = (att / att.sum(axis=1, keepdims=True)) @ v[rows, cols]
        start += t_len
    return out


class TestCausalAttention:
    LENGTHS = [1, 4, 3]

    def inputs(self, seed, d=4):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(sum(self.LENGTHS), d))) for _ in range(3)]

    def test_matches_per_sequence_per_head_loops(self):
        q, k, v = self.inputs(20, d=6)
        # ragged lengths are padded; equal lengths and a single sequence are reshaped
        for lengths in (self.LENGTHS, [4, 4], [8]):
            for n_heads in (1, 2, 3):
                got = nm.causal_attention(q, k, v, lengths, n_heads).data
                want = _attention_by_loops(q.data, k.data, v.data, lengths, n_heads)
                assert np.abs(got - want).max() < 1e-12

    def test_grads_match_finite_differences_over_ragged_lengths(self):
        q, k, v = self.inputs(21)
        probe = Tensor(np.random.default_rng(22).normal(size=(4, 1)))

        def scalar(q_, k_, v_):
            out = nm.causal_attention(q_, k_, v_, self.LENGTHS, 2)
            return nm.tsum(nm.mul(nm.matmul(out, probe), nm.matmul(out, probe)))

        assert fd(lambda t: scalar(t, k, v), q) < 1e-5
        assert fd(lambda t: scalar(q, t, v), k) < 1e-5
        assert fd(lambda t: scalar(q, k, t), v) < 1e-5

    def test_grads_match_finite_differences_over_equal_lengths(self):
        q, k, v = self.inputs(27)
        probe = Tensor(np.random.default_rng(28).normal(size=(4, 1)))

        def scalar(q_, k_, v_):
            out = nm.causal_attention(q_, k_, v_, [4, 4], 2)
            return nm.tsum(nm.mul(nm.matmul(out, probe), nm.matmul(out, probe)))

        assert fd(lambda t: scalar(t, k, v), q) < 1e-5
        assert fd(lambda t: scalar(q, t, v), k) < 1e-5
        assert fd(lambda t: scalar(q, k, t), v) < 1e-5

    def test_sequences_do_not_see_each_other(self):
        q, k, v = self.inputs(23)
        base = nm.causal_attention(q, k, v, self.LENGTHS, 2).data
        bumped = [t.data.copy() for t in (q, k, v)]
        for arr in bumped:
            arr[1] += 0.5  # the first row of the second sequence
        out = nm.causal_attention(*(Tensor(a) for a in bumped), self.LENGTHS, 2).data
        assert np.array_equal(out[[0, 5, 6, 7]], base[[0, 5, 6, 7]])
        assert np.abs(out[1:5] - base[1:5]).max(axis=1).min() > 0.0

    def test_non_finite_input_raises(self):
        for which in range(3):
            for bad in (np.nan, np.inf, -np.inf):
                q, k, v = self.inputs(24)
                (q, k, v)[which].data[2, 1] = bad
                with pytest.raises(NumericError):
                    nm.causal_attention(q, k, v, self.LENGTHS, 2)

    def test_lengths_and_heads_checked(self):
        q, k, v = self.inputs(25)
        with pytest.raises(ContractError):
            nm.causal_attention(q, k, v, [4, 3], 2)
        with pytest.raises(ContractError):
            nm.causal_attention(q, k, v, [0, 5, 3], 2)
        with pytest.raises(ShapeError):
            nm.causal_attention(q, k, v, self.LENGTHS, 3)

    # (lengths, per-sequence query positions): ragged and equal packs, each
    # with ragged and equal query counts
    QUERY_CASES = [
        ([1, 4, 3], [[0], [1, 3], [0, 1, 2]]),
        ([1, 4, 3], [[0], [3], [2]]),
        ([4, 4], [[3], [0, 2]]),
        ([4, 4], [[0, 1, 2, 3], [1, 2, 3, 0]]),
    ]

    @staticmethod
    def query_rows(lengths, queries):
        starts = np.cumsum([0, *lengths[:-1]])
        return [int(s) + p for s, positions in zip(starts, queries) for p in positions]

    @pytest.mark.parametrize("lengths,queries", QUERY_CASES)
    def test_query_positions_give_the_matching_rows_of_the_full_op(self, lengths, queries):
        q, k, v = self.inputs(29, d=6)
        rows = self.query_rows(lengths, queries)
        for n_heads in (1, 2, 3):
            full = nm.causal_attention(q, k, v, lengths, n_heads).data
            got = nm.causal_attention(Tensor(q.data[rows]), k, v, lengths, n_heads, queries).data
            assert got.shape == (len(rows), 6)
            assert np.abs(got - full[rows]).max() < 1e-12

    @pytest.mark.parametrize("lengths,queries", QUERY_CASES[::2])
    def test_query_position_grads_match_finite_differences(self, lengths, queries):
        _q, k, v = self.inputs(30)
        rows = self.query_rows(lengths, queries)
        rng = np.random.default_rng(31)
        q = Tensor(rng.normal(size=(len(rows), 4)))
        probe = Tensor(rng.normal(size=(4, 1)))

        def scalar(q_, k_, v_):
            out = nm.causal_attention(q_, k_, v_, lengths, 2, queries)
            return nm.tsum(nm.mul(nm.matmul(out, probe), nm.matmul(out, probe)))

        assert fd(lambda t: scalar(t, k, v), q) < 1e-5
        assert fd(lambda t: scalar(q, t, v), k) < 1e-5
        assert fd(lambda t: scalar(q, k, t), v) < 1e-5

    def test_query_positions_checked(self):
        _q, k, v = self.inputs(32)
        q3 = Tensor(np.ones((3, 4)))
        # a sequence without a query, a position at or past its sequence's end,
        # a negative one, and positions for too few sequences
        for queries in ([[0], [], [0, 1, 2]], [[0], [4], [0]], [[1], [0], [0]], [[0], [-1], [0]], [[0], [0, 1, 2]]):
            with pytest.raises(ContractError):
                nm.causal_attention(q3, k, v, self.LENGTHS, 2, queries)
        with pytest.raises(ShapeError):
            nm.causal_attention(q3, k, v, self.LENGTHS, 2, [[0], [1], [2, 0, 1]])


@st.composite
def _attention_packs(draw):
    """A pack of 1-4 sequences of 1-12 rows (all one length or each its own),
    a head count that divides the width, one non-empty list of distinct query
    positions per sequence, in any order, and a seed for the values."""
    n_seq = draw(st.integers(1, 4))
    if draw(st.booleans()):
        lengths = [draw(st.integers(1, 12))] * n_seq
    else:
        lengths = draw(st.lists(st.integers(1, 12), min_size=n_seq, max_size=n_seq))
    n_heads = draw(st.integers(1, 3))
    d = n_heads * draw(st.integers(1, 3))
    queries = [draw(st.lists(st.integers(0, t_len - 1), min_size=1, max_size=t_len, unique=True)) for t_len in lengths]
    return lengths, n_heads, d, queries, draw(st.integers(0, 2**32 - 1))


class TestCausalAttentionProperties:
    """Random packs against the per-sequence, per-head loop reference."""

    @staticmethod
    def tensors(lengths, d, seed):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(sum(lengths), d))) for _ in range(3)]

    @settings(max_examples=40, deadline=None)
    @given(pack=_attention_packs())
    def test_every_row_and_query_subsets_match_the_loops(self, pack):
        lengths, n_heads, d, queries, seed = pack
        q, k, v = self.tensors(lengths, d, seed)
        want = _attention_by_loops(q.data, k.data, v.data, lengths, n_heads)
        assert np.abs(nm.causal_attention(q, k, v, lengths, n_heads).data - want).max() < 1e-12
        rows = TestCausalAttention.query_rows(lengths, queries)
        got = nm.causal_attention(Tensor(q.data[rows]), k, v, lengths, n_heads, queries).data
        assert got.shape == (len(rows), d)
        assert np.abs(got - want[rows]).max() < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(pack=_attention_packs(), every_row=st.booleans())
    def test_grads_match_finite_differences(self, pack, every_row):
        lengths, n_heads, d, queries, seed = pack
        _q, k, v = self.tensors(lengths, d, seed)
        if every_row:
            queries = None
        n_q = sum(lengths) if every_row else sum(len(r) for r in queries)
        rng = np.random.default_rng(seed + 1)
        q, probe = Tensor(rng.normal(size=(n_q, d))), Tensor(rng.normal(size=(d, 1)))

        def scalar(q_, k_, v_):
            out = nm.matmul(nm.causal_attention(q_, k_, v_, lengths, n_heads, queries), probe)
            return nm.tsum(nm.mul(out, out))

        # a random pack has gradient coordinates near 1e-8 next to ones near 1;
        # measured against the largest, the gaps stayed within 1.3e-9 of it
        # over 300 random packs
        for f, x in ((lambda t: scalar(t, k, v), q), (lambda t: scalar(q, t, v), k), (lambda t: scalar(q, k, t), v)):
            assert finite_diff_check(f, x) < 1e-7

    @settings(max_examples=20, deadline=None)
    @given(pack=_attention_packs(), data=st.data())
    def test_a_sequence_without_queries_is_rejected(self, pack, data):
        lengths, n_heads, d, queries, seed = pack
        _q, k, v = self.tensors(lengths, d, seed)
        queries[data.draw(st.integers(0, len(lengths) - 1))] = []
        rows = TestCausalAttention.query_rows(lengths, queries)
        with pytest.raises(ContractError):
            nm.causal_attention(Tensor(np.ones((len(rows), d))), k, v, lengths, n_heads, queries)


def _layer_norm_reference(x, gain, bias, g):
    """The layer norm as plain numpy with row means by np.mean: the value, then
    the gradients into x, gain and bias for an upstream gradient g."""
    xc = x - x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + nm.LAYER_NORM_EPS)
    xh = xc * inv
    gh = g * gain
    gx = inv * (gh - gh.mean(axis=1, keepdims=True) - xh * (gh * xh).mean(axis=1, keepdims=True))
    return xh * gain + bias, gx, (g * xh).sum(axis=0), g.sum(axis=0)


def _gelu_reference(x, g):
    """tanh-approximation GELU and its gradient for an upstream gradient g."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x * x)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * dt)


@st.composite
def _rows(draw):
    """1-20 rows of width 1-16 of Gaussian values scaled by 1e-3 to 1e3, and
    the seed of everything else."""
    shape = (draw(st.integers(1, 20)), draw(st.integers(1, 16)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=shape) * scale, scale, seed


def _close(got, want, scale=None):
    """Within 1e-12 of scale, by default the largest reference entry."""
    scale = np.abs(want).max() if scale is None else scale
    return np.abs(got - want).max() <= 1e-12 * max(scale, 1e-300)


def _value_and_grads(op, inputs, g):
    """op's value and the gradients of sum(op(inputs) * g) into each input."""
    with nm.Tape() as tape:
        out = op(*inputs)
        grads = nm.backward(nm.tsum(nm.mul(out, Tensor(g))), tape)
    return out.data, [nm.grad_of(grads, t) for t in inputs]


class TestKernelProperties:
    """layer_norm and gelu on random rows against plain-numpy references."""

    @settings(max_examples=30, deadline=None)
    @given(rows=_rows())
    def test_layer_norm_matches_the_reference(self, rows):
        x, _scale, seed = rows
        rng = np.random.default_rng(seed + 1)
        gain, bias, g = rng.normal(size=x.shape[1]), rng.normal(size=x.shape[1]), rng.normal(size=x.shape)
        inputs = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        value, grads = _value_and_grads(nm.layer_norm, inputs, g)
        want = _layer_norm_reference(x, gain, bias, g)
        assert _close(value, want[0])
        for got, ref in zip(grads, want[1:]):
            assert _close(got, ref)

    @settings(max_examples=30, deadline=None)
    @given(rows=_rows())
    def test_gelu_matches_the_reference(self, rows):
        x, _scale, seed = rows
        g = np.random.default_rng(seed + 1).normal(size=x.shape)
        value, (gx,) = _value_and_grads(nm.gelu, [Tensor(x, requires_grad=True)], g)
        want_value, want_gx = _gelu_reference(x, g)
        # relative to x and g: where tanh is near -1, 1 + t keeps only a few
        # digits, so a tiny result is not known to 1e-12 of itself
        assert _close(value, want_value, np.abs(x).max())
        assert _close(gx, want_gx, np.abs(g).max())

    @settings(max_examples=10, deadline=None)
    @given(rows=_rows())
    def test_layer_norm_grads_match_finite_differences(self, rows):
        x, scale, seed = rows
        rng = np.random.default_rng(seed + 1)
        x, gain, bias = Tensor(x), Tensor(rng.normal(size=x.shape[1])), Tensor(rng.normal(size=x.shape[1]))
        probe = Tensor(rng.normal(size=x.shape))

        def scalar(x_, gain_, bias_):
            return nm.tsum(nm.mul(nm.layer_norm(x_, gain_, bias_), probe))

        def with_x(x_):
            return nm.add(scalar(x_, gain, bias), nm.tsum(nm.scale(x_, 1.0 / scale)))

        # A row of two normalizes to about (1, -1) whatever its values. So a
        # step must not cross between its two values: it is in proportion to
        # the rows' smallest spread. And where they lie far apart its gradient
        # is round-off: sum(x) / scale gives every coordinate a gradient of the
        # size layer_norm's has at other widths, against which that is measured.
        step = 1e-3 * np.sqrt(x.data.var(axis=1) + nm.LAYER_NORM_EPS).min()
        assert finite_diff_check(with_x, x, eps=step, order=4) < 1e-5
        assert finite_diff_check(lambda t: scalar(x, t, bias), gain, order=4) < 1e-5
        assert finite_diff_check(lambda t: scalar(x, gain, t), bias, order=4) < 1e-5

    @settings(max_examples=10, deadline=None)
    @given(rows=_rows())
    def test_gelu_grad_matches_finite_differences(self, rows):
        x, scale, _seed = rows
        # sum(gelu(x) + x): gelu's slope lies in (-0.13, 1.13), so every
        # coordinate's gradient is near 1 and the check is an absolute one;
        # gelu bends on a unit scale, so the step never exceeds 1e-3
        eps = 1e-3 * min(scale, 1.0)
        assert finite_diff_check(lambda t: nm.tsum(nm.add(nm.gelu(t), t)), Tensor(x), eps=eps, order=4) < 1e-6

    @pytest.mark.parametrize("op, widths", [(nm.layer_norm, (5, 5, 5)), (nm.gelu, (5,))], ids=["layer_norm", "gelu"])
    def test_f32_in_gives_f32_values_and_grads(self, op, widths):
        rng = np.random.default_rng(40)
        arrays = [rng.normal(size=(3, w) if i == 0 else w).astype(np.float32) for i, w in enumerate(widths)]
        with np.errstate(invalid="raise"):
            got = _value_and_grads(op, [Tensor(a, requires_grad=True) for a in arrays], np.ones((3, 5), np.float32))
            want = _value_and_grads(op, [Tensor(a.astype(np.float64), requires_grad=True) for a in arrays], np.ones((3, 5)))
        value, grads = got
        assert value.dtype == np.float32
        assert [gr.dtype for gr in grads] == [np.float32] * len(arrays)
        # f32 keeps about 7 digits: each array within 1e-5 of its largest f64 entry
        for f32, f64 in zip([value, *grads], [want[0], *want[1]]):
            assert np.isfinite(f32).all()
            assert np.abs(f32 - f64).max() <= 1e-5 * np.abs(f64).max()


@st.composite
def _table_and_ids(draw):
    """A table of 1-6 rows of width 1-4, 1-12 row ids into it (repeats are
    likely), and the seed of the values."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    return n, d, ids, draw(st.integers(0, 2**32 - 1))


@st.composite
def _segments(draw):
    """1-5 segments of 1-6 rows each over a vocab of 2-8, and the seed of the
    logits and targets."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    return lengths, draw(st.integers(2, 8)), draw(st.integers(0, 2**32 - 1))


class TestIndexAndSegmentProperties:
    """gather_rows, row_set and segmented cross_entropy on random shapes
    against plain-numpy loops."""

    @settings(max_examples=30, deadline=None)
    @given(case=_table_and_ids())
    def test_gather_rows_sums_the_gradients_of_repeated_ids(self, case):
        n, d, ids, seed = case
        rng = np.random.default_rng(seed)
        table, g = rng.normal(size=(n, d)), rng.normal(size=(len(ids), d))
        value, (gt,) = _value_and_grads(lambda t: nm.gather_rows(t, ids), [Tensor(table, requires_grad=True)], g)
        want = np.zeros_like(table)
        for i, row in enumerate(ids):
            want[row] += g[i]
        assert np.array_equal(value, table[ids])
        assert _close(gt, want)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        d=st.integers(1, 5),
        ids=st.lists(st.integers(0, 5), max_size=20),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_rows_backward_equals_a_per_row_loop_bit_for_bit(self, n, d, ids, dtype, seed):
        ids = [i % n for i in ids]  # repeated, unsorted, possibly empty
        rng = np.random.default_rng(seed)
        table = Tensor(rng.normal(size=(n, d)).astype(dtype), requires_grad=True)
        g = (rng.normal(size=(len(ids), d)) * 10.0 ** rng.integers(-3, 4, size=(len(ids), 1))).astype(dtype)
        _value, (gt,) = _value_and_grads(lambda t: nm.gather_rows(t, ids), [table], g)
        want = np.zeros((n, d), dtype)
        for i, row in enumerate(ids):
            want[row] += g[i]
        assert gt.dtype == dtype and gt.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=_table_and_ids(), data=st.data())
    def test_row_set_matches_a_loop_and_rejects_a_repeated_index(self, case, data):
        n, d, ids, seed = case
        idx = list(dict.fromkeys(ids))  # distinct, in the order drawn
        rng = np.random.default_rng(seed)
        a, v, g = rng.normal(size=(n, d)), rng.normal(size=(len(idx), d)), rng.normal(size=(n, d))
        inputs = [Tensor(a, requires_grad=True), Tensor(v, requires_grad=True)]
        value, (ga, gv) = _value_and_grads(lambda a_, v_: nm.row_set(a_, idx, v_), inputs, g)
        want, want_ga = a.copy(), g.copy()
        for j, row in enumerate(idx):
            want[row] = v[j]
            want_ga[row] = 0.0
        assert np.array_equal(value, want)
        assert np.array_equal(ga, want_ga)
        assert np.array_equal(gv, g[idx])
        repeated = idx + [data.draw(st.sampled_from(idx))]
        with pytest.raises(ContractError):
            nm.row_set(Tensor(a), repeated, Tensor(np.zeros((len(repeated), d))))

    @settings(max_examples=30, deadline=None)
    @given(case=_segments())
    def test_cross_entropy_over_segments_matches_a_loop(self, case):
        lengths, vocab, seed = case
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(sum(lengths), vocab))
        targets = [int(t) for t in rng.integers(0, vocab, size=sum(lengths))]
        x = Tensor(logits, requires_grad=True)
        with nm.Tape() as tape:
            loss = nm.cross_entropy(x, targets, lengths)
            grads = nm.backward(loss, tape)
        # each segment's mean negative log-probability and its gradient, the
        # mean over segments dividing every row by segments x its length
        seg_means, want_grad, start = [], np.zeros_like(logits), 0
        for t_len in lengths:
            rows, cols = np.arange(start, start + t_len), targets[start : start + t_len]
            p = np.exp(logits[rows] - logits[rows].max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            seg_means.append(-np.log(p[np.arange(t_len), cols]).mean())
            p[np.arange(t_len), cols] -= 1.0
            want_grad[rows] = p / (len(lengths) * t_len)
            start += t_len
        assert abs(loss.item() - np.mean(seg_means)) <= 1e-12 * max(1.0, abs(loss.item()))
        assert _close(nm.grad_of(grads, x), want_grad)


class TestBackward:
    def test_square_gradient(self):
        x = Tensor([[3.0]], requires_grad=True)
        with nm.Tape() as tape:
            y = nm.tsum(nm.mul(x, x))
            grads = nm.backward(y, tape)
        assert nm.grad_of(grads, x)[0, 0] == 6.0

    def test_no_entry_for_frozen_leaf(self):
        x = Tensor([[2.0]], requires_grad=True)
        w = Tensor([[5.0]], requires_grad=False)
        with nm.Tape() as tape:
            y = nm.tsum(nm.matmul(x, w))
            grads = nm.backward(y, tape)
        # gradients are keyed by the tensors themselves
        assert x in grads
        assert w not in grads

    def test_untouched_leaf_gets_zeros(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        unused = Tensor([[1.0], [1.0]], requires_grad=True)
        with nm.Tape() as tape:
            nm.matmul(x, unused)  # recorded but disconnected from the loss
            loss = nm.tsum(nm.mul(x, x))
            grads = nm.backward(loss, tape)
        assert np.array_equal(nm.grad_of(grads, unused), np.zeros((2, 1)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with nm.Tape() as tape:
            y = nm.mul(x, x)
            with pytest.raises(ContractError):
                nm.backward(y, tape)

    def test_backward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with nm.Tape() as tape:
            loss = nm.tsum(nm.mul(nm.matmul(a, b), nm.matmul(a, b)))
            g1 = nm.backward(loss, tape)
            g2 = nm.backward(loss, tape)
        assert np.array_equal(nm.grad_of(g1, a), nm.grad_of(g2, a))
        assert np.array_equal(nm.grad_of(g1, b), nm.grad_of(g2, b))


class TestFiniteDiffCheck:
    def test_sum_of_squares_is_nearly_exact(self):
        x = Tensor([[1.0, -2.0, 3.0, 0.5]])
        assert fd(lambda t: nm.tsum(nm.mul(t, t)), x) < 1e-7

    @staticmethod
    def square_with_gradient(grad):
        """sum(x ** 2) as one op whose backward returns grad(2 x), not 2 x."""
        return lambda t: nm._op("square", [t], np.sum(t.data**2), lambda g: [g * grad(2.0 * t.data)])

    # gradient coordinates from 2e-7 to 6: measured against the largest, a
    # gap of 1e-5 of it still shows
    X = [[1e-7, -2.0, 3.0, 0.5, 1e-3]]

    def test_gradient_scaled_by_1_001_rejected(self):
        assert fd(self.square_with_gradient(lambda g: g), Tensor(self.X)) < 1e-7
        assert fd(self.square_with_gradient(lambda g: 1.001 * g), Tensor(self.X)) > 1e-5

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_one_wrong_coordinate_rejected(self, i):
        def one_off(g):
            g = g.copy()
            g[0, i] *= 1.01
            return g

        assert fd(self.square_with_gradient(one_off), Tensor(self.X)) > 1e-5

    def test_constant_softmax_function(self):
        # sum of a softmax row is constant; both gradients vanish on this fixture
        x = Tensor(np.zeros((1, 5)))
        err = fd(lambda t: nm.tsum(nm.softmax(t, axis=1)), x)
        assert err < 1e-6

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            finite_diff_check(lambda t: nm.tsum(t), Tensor([[1.0]]), eps=0.0)

    def test_f32_input_refused(self):
        # a central difference of f32 losses measures round-off, not the gradient
        x = Tensor(np.array([[1.0, -2.0]], dtype=np.float32))
        with pytest.raises(ContractError, match="f64"):
            finite_diff_check(lambda t: nm.tsum(nm.mul(t, t)), x)


class TestElementwiseOps:
    @pytest.mark.parametrize(
        "op",
        [nm.relu, nm.gelu, nm.softplus],
        ids=["relu", "gelu", "softplus"],
    )
    def test_grad_matches_finite_differences(self, op):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4)) + 0.1)  # keep relu off its kink
        assert fd(lambda t: nm.tsum(op(t)), x) < 1e-4

    def test_gather_and_row_set_grads(self):
        rng = np.random.default_rng(11)
        table = Tensor(rng.normal(size=(6, 3)))
        vec = Tensor(rng.normal(size=(1, 3)))

        def through_rows(t):
            picked = nm.gather_rows(t, [0, 2, 2, 5])
            return nm.tsum(nm.mul(picked, picked))

        assert fd(through_rows, table) < 1e-5

        def through_vec(v):
            emb = nm.gather_rows(table, [1, 3, 4])
            return nm.tsum(nm.mul(nm.row_set(emb, [1], v), nm.row_set(emb, [1], v)))

        assert fd(through_vec, vec) < 1e-5

    def test_row_set_index_list(self):
        rng = np.random.default_rng(15)
        base = Tensor(rng.normal(size=(5, 3)))
        rows = Tensor(rng.normal(size=(2, 3)))
        out = nm.row_set(base, [3, 0], rows).data
        assert np.array_equal(out[[3, 0]], rows.data)
        assert np.array_equal(out[[1, 2, 4]], base.data[[1, 2, 4]])
        probe = Tensor(rng.normal(size=(3, 1)))

        def scalar(a, v):
            out = nm.matmul(nm.row_set(a, [3, 0], v), probe)
            return nm.tsum(nm.mul(out, out))

        assert fd(lambda v: scalar(base, v), rows) < 1e-5
        assert fd(lambda a: scalar(a, rows), base) < 1e-5
        with pytest.raises(ContractError):
            nm.row_set(base, [1, 1], rows)
        with pytest.raises(ContractError):
            nm.row_set(base, [1, 5], rows)
        with pytest.raises(ShapeError):
            nm.row_set(base, [1], rows)

    def test_slice_concat_round_trip(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 6)))
        parts = [nm.slice_cols(x, 0, 2), nm.slice_cols(x, 2, 6)]
        assert np.array_equal(nm.concat_cols(parts).data, x.data)

    def test_add_bias_broadcast_grad(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=3))
        assert fd(lambda t: nm.tsum(nm.mul(nm.add(x, t), nm.add(x, t))), b) < 1e-5

    def test_f32_mode_supported(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        y = nm.matmul(x, x)
        assert y.data.dtype == np.float32
        assert np.allclose(y.data, 2.0, atol=1e-3)


# (op function, the name it records on the tape, input shapes, call)
RECORDED_OPS = [
    ("matmul", "matmul", [(2, 3), (3, 2)], None),
    ("add", "add", [(2, 3), (3,)], None),
    ("add_n", "add_n", [(2, 3), (2, 3)], lambda op, *ts: op(ts)),
    ("sub", "sub", [(2, 3), (2, 3)], None),
    ("mul", "mul", [(2, 3), (2, 3)], None),
    ("scale", "scale", [(2, 3)], lambda op, a: op(a, 0.5)),
    ("relu", "relu", [(2, 3)], None),
    ("gelu", "gelu", [(2, 3)], None),
    ("softplus", "softplus", [(2, 3)], None),
    ("softmax", "softmax", [(2, 3)], lambda op, a: op(a, axis=1)),
    ("layer_norm", "layer_norm", [(2, 3), (3,), (3,)], None),
    ("cross_entropy", "cross_entropy", [(2, 3)], lambda op, a: op(a, [0, 2])),
    ("tsum", "sum", [(2, 3)], None),
    ("tmean", "mean", [(2, 3)], None),
    ("reshape", "reshape", [(2, 3)], lambda op, a: op(a, (3, 2))),
    ("transpose", "transpose", [(2, 3)], None),
    ("gather_rows", "gather_rows", [(2, 3)], lambda op, a: op(a, [1, 0, 1])),
    ("row_set", "row_set", [(2, 3), (1, 3)], lambda op, a, v: op(a, [1], v)),
    ("slice_cols", "slice_cols", [(2, 3)], lambda op, a: op(a, 1, 3)),
    ("concat_cols", "concat_cols", [(2, 3), (2, 1)], lambda op, *ts: op(ts)),
    ("causal_attention", "causal_attention", [(4, 4), (4, 4), (4, 4)], lambda op, q, k, v: op(q, k, v, [1, 3], 2)),
]


class TestRecording:
    @pytest.mark.parametrize("fn,tape_name,shapes,call", RECORDED_OPS, ids=[c[0] for c in RECORDED_OPS])
    @pytest.mark.parametrize("requires_grad", [True, False], ids=["grad", "frozen"])
    def test_op_records_once_under_its_name(self, fn, tape_name, shapes, call, requires_grad):
        rng = np.random.default_rng(14)
        # only the last input can require grad: the result needs a gradient if any input does
        last = len(shapes) - 1
        inputs = [
            Tensor(rng.normal(size=shape), requires_grad=requires_grad and i == last)
            for i, shape in enumerate(shapes)
        ]
        op = getattr(nm, fn)
        with nm.Tape() as tape:
            out = call(op, *inputs) if call else op(*inputs)
        assert out.requires_grad == requires_grad
        if not requires_grad:
            assert tape.records == []
            return
        assert len(tape.records) == 1
        name, recorded_inputs, recorded_out, _bwd = tape.records[0]
        assert name == tape_name
        assert len(recorded_inputs) == len(inputs)
        assert all(r is t for r, t in zip(recorded_inputs, inputs))
        assert recorded_out is out


class TestTapeInvariants:
    def test_tensor_invariant_shape_matches_data(self):
        t = Tensor(np.zeros((3, 4)))
        assert int(np.prod(t.shape)) == t.data.size

    def test_nested_tapes_rejected(self):
        with nm.Tape():
            with pytest.raises(ContractError):
                with nm.Tape():
                    pass

    def test_backward_without_tape_rejected(self):
        with pytest.raises(ContractError):
            nm.backward(Tensor(1.0))
