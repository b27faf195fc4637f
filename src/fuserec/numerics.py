"""Dense tensors with a reverse-mode gradient tape.

Values are numpy arrays, f64 or f32. An op's result and gradients take its
operands' dtype, and so does every constant it meets, so a model cast to f32
computes in f32 throughout: `trainer.train` casts the model it builds, while
models built anywhere else, the checks' among them, stay f64. Every operation
returns through `_op`, which records its backward rule on the active Tape when
the result needs a gradient. `backward` replays the tape in reverse, in a fixed
order so repeated passes are bitwise identical, and returns gradients for the
requires_grad leaves the loss reached; `grad_of` gives zeros for the rest.
Shapes are limited to 2-D matrices, row/column vectors and scalars plus
last-axis bias broadcast. One op is fused: `causal_attention` takes packed 2-D
key/value rows of several sequences, and query rows either for every position
or for given positions of each sequence, and returns one packed 2-D row per
query row, padding to a 4-D batch only inside its forward and backward.
Nothing else fuses, parallelizes, or broadcasts beyond that.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not match the operation's contract."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


_ACTIVE_TAPE: "Tape | None" = None

DEFAULT_DTYPE = np.float64


class Tensor:
    """Immutable dense value participating in the gradient tape.

    `data` must not be mutated after creation except by the optimizer, which
    owns parameter updates as a serial transaction between tapes.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of differentiable operations.

    Each record holds (op name, input tensors, output tensor, backward fn).
    Records are appended in execution order, so inputs always precede their
    consumers and one reverse sweep visits each record exactly once.
    """

    def __init__(self):
        self.records: list[tuple[str, tuple[Tensor, ...], Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, name: str, inputs: Sequence[Tensor], out: Tensor, backward: Callable) -> None:
        self.records.append((name, tuple(inputs), out, backward))


def _op(name: str, inputs: Sequence[Tensor], value, backward: Callable) -> Tensor:
    """The result Tensor of one op. It requires grad when an input does, and then
    the op is recorded on the active tape, if any; `backward` maps the result's
    gradient to one gradient (or None) per input."""
    # a plain loop: any() over a comprehension adds a frame to every op
    requires_grad = False
    for t in inputs:
        requires_grad = requires_grad or t.requires_grad
    out = Tensor(value, requires_grad=requires_grad)
    if requires_grad and _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(name, inputs, out, backward)
    return out


def backward(loss: Tensor, tape: Tape | None = None) -> dict[Tensor, Tensor]:
    """Reverse sweep from a scalar loss.

    Returns tensor -> gradient Tensor, keyed by identity, for each
    requires_grad leaf the loss reached, a leaf being a tensor no record on the
    tape produced. Other leaves get no entry; `grad_of` gives zeros for them.
    """
    tape = tape if tape is not None else _ACTIVE_TAPE
    if tape is None:
        raise ContractError("backward requires a tape")
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for _name, inputs, out, bwd in reversed(tape.records):
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gin in zip(inputs, bwd(g)):
            if gin is None:
                continue
            acc = grads.get(t)
            grads[t] = gin if acc is None else acc + gin
    return {t: Tensor(g) for t, g in grads.items()}


def grad_of(grads: dict[Tensor, Tensor], t: Tensor) -> np.ndarray:
    g = grads.get(t)
    return np.zeros_like(t.data) if g is None else g.data


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")

    def bwd(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return _op("matmul", (a, b), a.data @ b.data, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a 1-D bias broadcast over the rows of a."""
    bias = a.data.ndim == 2 and b.data.ndim == 1
    if not bias and a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    if bias and a.shape[1] != b.shape[0]:
        raise ShapeError(f"bias length {b.shape[0]} does not match row width {a.shape[1]}")

    def bwd(g):
        gb = None
        if b.requires_grad:
            gb = g.sum(axis=0) if bias else g
        return (g if a.requires_grad else None, gb)

    return _op("add", (a, b), a.data + b.data, bwd)


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of equally shaped tensors; gradient passes through to each."""
    if not tensors:
        raise ContractError("add_n of an empty sequence")
    shape = tensors[0].shape
    for t in tensors:
        if t.shape != shape:
            raise ShapeError(f"add_n shape mismatch: {t.shape} vs {shape}")
    acc = tensors[0].data.copy()
    for t in tensors[1:]:
        acc += t.data
    return _op("add_n", tensors, acc, lambda g: tuple(g if t.requires_grad else None for t in tensors))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    def bwd(g):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _op("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        return (
            g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None,
        )

    return _op("mul", (a, b), a.data * b.data, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    return _op("scale", (a,), a.data * c, lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    return _op("relu", (a,), np.maximum(a.data, 0.0), lambda g: (g * (a.data > 0),))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5 x (1 + tanh(C (x + 0.044715 x^3)))."""
    x = a.data
    x2 = x * x
    # the tanh argument as x (C + 0.044715 C x^2), then t in the same buffer
    t = x2 * (0.044715 * _GELU_C)
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    value = t + 1.0
    value *= x
    value *= 0.5

    def bwd(g):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 * 0.044715 x^2), factored as
        # 0.5 (1 + t) (1 + x (1 - t) C (1 + 0.134145 x^2))
        gx = x2 * (0.134145 * _GELU_C)
        gx += _GELU_C
        gx *= x
        gx *= 1.0 - t
        gx += 1.0
        gx *= 1.0 + t
        gx *= g
        gx *= 0.5
        return (gx,)

    return _op("gelu", (a,), value, bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    x = a.data
    value = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _op("softplus", (a,), value, lambda g: (g / (1.0 + np.exp(-x)),))


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax over non-finite input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return _op("softmax", (x,), s, lambda g: (s * (g - (g * s).sum(axis=axis, keepdims=True)),))


def _segment_sizes(lengths: Sequence[int], total: int) -> list[int]:
    """The lengths of consecutive segments of total rows: positive, summing to total."""
    sizes = list(lengths)
    if not sizes or min(sizes) < 1 or sum(sizes) != total:
        raise ContractError(f"segment lengths {sizes} do not split {total} rows")
    return sizes


@functools.lru_cache(maxsize=None)
def _future_mask(size: int, dtype: np.dtype) -> np.ndarray:
    """Additive size x size mask of the given dtype, 0 on and below the
    diagonal and -1e30 above it; its top-left t x t block is the mask for t
    rows. Read-only."""
    mask = np.triu(np.full((size, size), -1e30, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


class _Padding:
    """How the packed rows of consecutive segments of the given sizes sit in
    a (B, T) grid, T being the longest size. Equal sizes need only a reshape."""

    def __init__(self, sizes: Sequence[int]):
        self.b, self.t = len(sizes), max(sizes)
        self.ragged = self.b * self.t != sum(sizes)
        if self.ragged:
            self.seg = np.repeat(np.arange(self.b), sizes)
            self.slot = np.arange(sum(sizes)) - np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)

    def heads(self, x: np.ndarray, n_heads: int) -> np.ndarray:
        """Packed rows -> (B, n_heads, T, d_head), zero past each segment's end."""
        d = x.shape[1]
        if self.ragged:
            padded = np.zeros((self.b, self.t, d), dtype=x.dtype)
            padded[self.seg, self.slot] = x
            x = padded
        return x.reshape(self.b, self.t, n_heads, d // n_heads).transpose(0, 2, 1, 3)

    def packed(self, x: np.ndarray) -> np.ndarray:
        """(B, n_heads, T, d_head) -> packed rows, the heads side by side."""
        rows = x.transpose(0, 2, 1, 3).reshape(self.b, self.t, -1)
        return rows[self.seg, self.slot] if self.ragged else rows.reshape(self.b * self.t, -1)


def causal_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    lengths: Sequence[int],
    n_heads: int,
    queries: Sequence[Sequence[int]] | None = None,
) -> Tensor:
    """Causal multi-head attention over a pack of sequences, as one op.

    k and v are N x d: the rows of consecutive sequences of the given lengths
    (summing to N). Without queries, q is N x d as well and every row asks;
    with queries, queries[b] lists the positions in sequence b that ask (at
    least one each, every one inside the sequence), and q holds their rows,
    sequence after sequence. Head h reads columns h*d/n_heads up to
    (h+1)*d/n_heads, its scores are the plain dot products q kᵀ (a caller that
    wants them scaled scales q), and a query at position p attends to the rows
    of its own sequence up to and including p. Returns the heads' outputs side
    by side, one row per query row.

    Inside, each sequence's rows are padded with zero rows to the longest
    sequence (equal lengths need only a reshape), its query rows likewise to
    the most queries, and the scores of all sequences and heads form one
    (B, n_heads, Q, T) batch under an additive causal mask: the cached
    triangle when every row asks, its rows at the positions otherwise. The
    mask alone keeps a real query off the padding, since padding only follows
    a sequence's rows; padded rows are dropped on the way out and get zero
    gradient. Non-finite scores or values raise NumericError.
    """
    if k.data.ndim != 2 or q.data.ndim != 2 or v.shape != k.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"causal_attention expects N x d keys and values and d-wide queries, got {q.shape}/{k.shape}/{v.shape}")
    n, d = k.shape
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"causal_attention: width {d} not divisible into {n_heads} heads")
    sizes = _segment_sizes(lengths, n)
    kv = _Padding(sizes)
    # masks come in power-of-two sizes, so few are ever built; row p is the
    # mask of a query at position p
    tri = _future_mask(1 << (kv.t - 1).bit_length(), q.data.dtype)[: kv.t, : kv.t]
    if queries is None:
        if q.shape != k.shape:
            raise ShapeError(f"causal_attention: {q.shape[0]} query rows for {n} key rows")
        qp, mask = kv, tri
    else:
        counts = [len(r) for r in queries]
        if len(counts) != len(sizes) or min(counts) < 1:
            raise ContractError(f"causal_attention needs query positions in each of {len(sizes)} sequences, got {counts}")
        if q.shape[0] != sum(counts):
            raise ShapeError(f"causal_attention: {q.shape[0]} query rows for {sum(counts)} query positions")
        qp = _Padding(counts)
        at = np.zeros((qp.b, qp.t), dtype=np.intp)
        for row, size, r in zip(at, sizes, queries):
            row[: len(r)] = r
            if row.min() < 0 or row.max() >= size:
                raise ContractError(f"query positions {list(r)} outside a sequence of {size} rows")
        mask = tri[at][:, None]  # padded query slots read row 0
    qh, kh, vh = qp.heads(q.data, n_heads), kv.heads(k.data, n_heads), kv.heads(v.data, n_heads)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    if not (np.isfinite(scores).all() and np.isfinite(v.data).all()):
        raise NumericError("causal attention over non-finite scores or values")
    # softmax over the last axis, in place: these arrays are the op's largest;
    # it is normalized after the value product, on the (Q, d_head) rows
    scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores, out=scores)
    inv = 1.0 / e.sum(axis=-1, keepdims=True)
    out = np.matmul(e, vh)
    out *= inv

    def bwd(g):
        # att = inv * e row by row, so inv goes on the (Q, d_head) rows of g,
        # and the score gradient att * (gs - sum(gs * att)) needs no att array
        gh = qp.heads(g, n_heads) * inv
        gs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        gs -= (gs * e).sum(axis=-1, keepdims=True) * inv
        gs *= e
        return (
            qp.packed(np.matmul(gs, kh)) if q.requires_grad else None,
            kv.packed(np.matmul(gs.transpose(0, 1, 3, 2), qh)) if k.requires_grad else None,
            kv.packed(np.matmul(e.transpose(0, 1, 3, 2), gh)) if v.requires_grad else None,
        )

    return _op("causal_attention", (q, k, v), qp.packed(out), bwd)


LAYER_NORM_EPS = 1e-5


@functools.lru_cache(maxsize=None)
def _mean_column(d: int, dtype: np.dtype) -> np.ndarray:
    """Read-only d x 1 column of 1/d in the given dtype: a row-mean as a product."""
    col = np.full((d, 1), 1.0 / d, dtype=dtype)
    col.flags.writeable = False
    return col


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a 2-D input, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have length {d}, got {gain.shape}/{bias.shape}")
    col = _mean_column(d, x.data.dtype)
    # xh is centred and normalized in one buffer, which the backward reads
    xh = x.data - x.data @ col
    var = np.square(xh) @ col
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    xh *= inv
    value = xh * gain.data
    value += bias.data

    def bwd(g):
        gx = None
        if x.requires_grad:
            gh = g * gain.data
            gx = gh - gh @ col
            gh *= xh
            gx -= xh * (gh @ col)
            gx *= inv
        return (
            gx,
            (g * xh).sum(axis=0) if gain.requires_grad else None,
            g.sum(axis=0) if bias.requires_grad else None,
        )

    return _op("layer_norm", (x, gain, bias), value, bwd)


def cross_entropy(logits: Tensor, targets: Sequence[int], lengths: Sequence[int] | None = None) -> Tensor:
    """Mean negative log-softmax probability of each row's target.

    With lengths, the rows are a pack of consecutive segments of those lengths,
    and the result is the mean over segments of each segment's mean.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects T x V logits, got {logits.shape}")
    t_len, vocab = logits.shape
    if len(targets) != t_len:
        raise ContractError(f"cross_entropy lengths disagree: logits {t_len}, targets {len(targets)}")
    sizes = _segment_sizes([t_len] if lengths is None else lengths, t_len)
    cols = np.asarray(targets, dtype=np.intp)
    outside = np.flatnonzero((cols < 0) | (cols >= vocab))
    if outside.size:
        i = int(outside[0])
        raise ContractError(f"target id {targets[i]} at position {i} outside vocab of {vocab}")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    nll = lse - x[np.arange(t_len), cols]
    # the divisor of each row in the mean over segments of segment means, in
    # the logits' dtype: an integer divisor would make the gradient f64
    denom = np.repeat(len(sizes) * np.asarray(sizes), sizes)[:, None].astype(x.dtype)

    def bwd(g):
        soft = np.exp(x - m)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(t_len), cols] -= 1.0
        return (soft * (float(g) / denom),)

    return _op("cross_entropy", (logits,), (nll / denom[:, 0]).sum(), bwd)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    def bwd(g):
        if axis is None:
            return (np.full_like(a.data, float(g)),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return _op("sum", (a,), a.data.sum(axis=axis), bwd)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    return _op("mean", (a,), a.data.mean(), lambda g: (np.full_like(a.data, float(g) / n),))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    return _op("reshape", (a,), a.data.reshape(shape), lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.shape}")
    return _op("transpose", (a,), a.data.T.copy(), lambda g: (g.T.copy(),))


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.shape}")
    rows = np.asarray(ids, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= table.shape[0]):
        raise ContractError(f"row id outside table of {table.shape[0]} rows")

    def bwd(g):
        # one 1-D scatter over flat element indices, which numpy runs far faster
        # than a row scatter; each element gets the same additions in the same order
        d = table.shape[1]
        full = np.zeros(table.shape, table.data.dtype)  # C order, so reshape(-1) is a view
        np.add.at(full.reshape(-1), (rows[:, None] * d + np.arange(d)).reshape(-1), g.reshape(-1))
        return (full,)

    return _op("gather_rows", (table,), table.data[rows], bwd)


def row_set(a: Tensor, idx: Sequence[int], v: Tensor) -> Tensor:
    """Copy of a with the distinct rows of the index list idx replaced by the
    rows of the 2-D v, in order."""
    rows = np.asarray(idx, dtype=np.intp)
    if a.data.ndim != 2 or rows.ndim != 1 or v.shape != (rows.size, a.shape[1]):
        raise ShapeError(f"row_set shapes disagree: {a.shape} row(s) {list(rows.reshape(-1))} <- {v.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]):
        raise ContractError(f"row index {list(rows)} outside {a.shape[0]} rows")
    if len(set(rows.tolist())) != rows.size:
        raise ContractError(f"row_set indices repeat: {list(rows)}")
    data = a.data.copy()
    data[rows] = v.data

    def bwd(g):
        ga = None
        if a.requires_grad:
            ga = g.copy()
            ga[rows] = 0.0
        return (ga, g[rows].copy() if v.requires_grad else None)

    return _op("row_set", (a, v), data, bwd)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return _op("slice_cols", (a,), a.data[:, start:stop].copy(), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols of an empty sequence")
    widths = [p.shape[1] for p in parts]

    def bwd(g):
        grads = []
        off = 0
        for p, w in zip(parts, widths):
            grads.append(g[:, off : off + w].copy() if p.requires_grad else None)
            off += w
        return tuple(grads)

    return _op("concat_cols", parts, np.concatenate([p.data for p in parts], axis=1), bwd)
