"""Bridging collaborative embeddings into the language model's token space.

A per-user (and per-item) mapping matrix is generated by a small two-layer
network from an attention-pooled view of the user's history, then applied as
a plain matrix product. The pooled rows come from frozen CF tables, so they
are pooled once, in plain numpy, when an example is prepared
(`trainer.cf_rows`), and the maps take them ready-made. Every step takes B
rows at once, so a packed batch maps all its users (or items) with one pass
through each network. Ablation modes replace this with one or two generic
affine maps, or skip injection entirely. Everything from the generator
weights onward runs on the gradient tape.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from . import numerics as nm
from .checkpoint import atomic_open
from .numerics import ContractError, Tensor


def attention_pool(rows: np.ndarray, history: np.ndarray) -> np.ndarray:
    """Dot-product attention of each of Q rows (Q x d) over the same n history
    rows (n x d), in one batched pass: the Q x d pooled rows. Over an empty
    history every row pools to itself."""
    if rows.ndim != 2 or history.ndim != 2 or rows.shape[1] != history.shape[1]:
        raise ContractError(f"rows of shape {rows.shape} vs history of shape {history.shape}")
    if history.shape[0] == 0:
        return rows
    scores = rows @ history.T
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ history


class MetaNetwork:
    """Two-layer generator of a d_cf x d_llm mapping matrix from a pooled vector.

    The second-layer weights start near zero and its bias at zero so early
    mappings are close to the zero matrix, keeping initial training close to
    text-only behavior.
    """

    def __init__(self, d_cf: int, d_llm: int, hidden: int, rng: np.random.Generator, name: str):
        self.d_cf = d_cf
        self.d_llm = d_llm
        self.name = name
        self.w1 = Tensor(rng.normal(0.0, 0.02, size=(d_cf, hidden)), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, 0.02, size=(hidden, d_cf * d_llm)), requires_grad=True)
        self.b2 = Tensor(np.zeros(d_cf * d_llm), requires_grad=True)

    def named_parameters(self) -> dict[str, Tensor]:
        return {
            f"fusion.{self.name}.w1": self.w1,
            f"fusion.{self.name}.b1": self.b1,
            f"fusion.{self.name}.w2": self.w2,
            f"fusion.{self.name}.b2": self.b2,
        }


def generate_mapping(pooled: np.ndarray, net: MetaNetwork) -> Tensor:
    """Mapping matrices for B pooled rows (B x d_cf), one per row, each
    flattened row-major into a row of the B x (d_cf * d_llm) result;
    differentiable into the generator."""
    if pooled.ndim != 2 or pooled.shape[1] != net.d_cf:
        raise ContractError(f"pooled rows of shape {pooled.shape}, expected (B, {net.d_cf})")
    h = nm.relu(nm.add(nm.matmul(Tensor(pooled.astype(net.w1.data.dtype, copy=False)), net.w1), net.b1))
    return nm.add(nm.matmul(h, net.w2), net.b2)


def project(e: np.ndarray, mappings: Tensor) -> Tensor:
    """Each of B rows (B x d_cf) through its own flattened mapping: a B x d_llm
    tensor whose row b is e[b] @ M_b.

    The B vector-matrix products are one elementwise product of the mappings
    with each e[b] repeated d_llm times, then one matmul with a fixed 0/1 matrix
    that sums the d_cf products of each output column.
    """
    if e.ndim != 2 or mappings.data.ndim != 2 or e.shape[0] != mappings.shape[0] or mappings.shape[1] % e.shape[1]:
        raise ContractError(f"embeddings of shape {e.shape} vs flattened mappings {mappings.shape}")
    d_cf, d_llm = e.shape[1], mappings.shape[1] // e.shape[1]
    dtype = mappings.data.dtype
    products = nm.mul(Tensor(np.repeat(e.astype(dtype, copy=False), d_llm, axis=1)), mappings)
    return nm.matmul(products, _column_sums(d_cf, d_llm, dtype))


@functools.lru_cache(maxsize=None)
def _column_sums(d_cf: int, d_llm: int, dtype: np.dtype) -> Tensor:
    """(d_cf * d_llm) x d_llm 0/1 matrix of the given dtype: entry
    (i * d_llm + j, j) is 1. Read-only."""
    sums = Tensor(np.tile(np.eye(d_llm, dtype=dtype), (d_cf, 1)))
    sums.data.flags.writeable = False
    return sums


class GenericMapper:
    """Single trainable affine map used by the unified/two-linear ablations."""

    def __init__(self, d_cf: int, d_llm: int, rng: np.random.Generator, name: str):
        self.d_cf = d_cf
        self.d_llm = d_llm
        self.name = name
        self.w = Tensor(rng.normal(0.0, 0.02, size=(d_cf, d_llm)), requires_grad=True)
        self.b = Tensor(np.zeros(d_llm), requires_grad=True)

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"fusion.{self.name}.w": self.w, f"fusion.{self.name}.b": self.b}


def generic_map(e: np.ndarray, mapper: GenericMapper) -> Tensor:
    """B rows (B x d_cf) through the affine map: a B x d_llm tensor."""
    if e.ndim != 2 or e.shape[1] != mapper.d_cf:
        raise ContractError(f"embeddings of shape {e.shape}, expected (B, {mapper.d_cf})")
    return nm.add(nm.matmul(Tensor(e.astype(mapper.w.data.dtype, copy=False)), mapper.w), mapper.b)


def inject(
    ids: list[int],
    user_rows: Sequence[int],
    item_rows: Sequence[int],
    token_table: Tensor,
    ep_user: Tensor | None,
    ep_item: Tensor | None,
) -> Tensor:
    """Token embedding rows of ids with the placeholder rows replaced by
    projected vectors: row user_rows[b] by ep_user's row b, and likewise for items."""
    emb = nm.gather_rows(token_table, ids)
    for rows, vectors in ((user_rows, ep_user), (item_rows, ep_item)):
        if len(rows) != (0 if vectors is None else vectors.shape[0]):
            raise ContractError("placeholder vectors and recorded positions disagree")
        if vectors is not None:
            emb = nm.row_set(emb, list(rows), vectors)
    return emb


# ---------------------------------------------------------------------------
# variant dispatch
# ---------------------------------------------------------------------------
#
# map_user/map_item take B rows (B x d_cf) and their B pooled rows (B x d_cf)
# and return the B x d_llm projected vectors.


class PersonalizedFusion:
    """Full pipeline: separate user-side and item-side generators."""

    kind = "personalized"

    def __init__(self, d_cf: int, d_llm: int, hidden: int, rng: np.random.Generator):
        self.user_net = MetaNetwork(d_cf, d_llm, hidden, rng, "user_meta")
        self.item_net = MetaNetwork(d_cf, d_llm, hidden, rng, "item_meta")

    def map_user(self, e_u: np.ndarray, pooled: np.ndarray) -> Tensor:
        return project(e_u, generate_mapping(pooled, self.user_net))

    def map_item(self, e_v: np.ndarray, pooled: np.ndarray) -> Tensor:
        return project(e_v, generate_mapping(pooled, self.item_net))

    def named_parameters(self) -> dict[str, Tensor]:
        return {**self.user_net.named_parameters(), **self.item_net.named_parameters()}


class GenericFusion:
    """Ablation mapping: one shared affine map, or two separate ones."""

    def __init__(self, d_cf: int, d_llm: int, rng: np.random.Generator, shared: bool):
        self.kind = "generic-shared" if shared else "generic-two"
        if shared:
            self.user_map = self.item_map = GenericMapper(d_cf, d_llm, rng, "shared_map")
        else:
            self.user_map = GenericMapper(d_cf, d_llm, rng, "user_map")
            self.item_map = GenericMapper(d_cf, d_llm, rng, "item_map")

    def map_user(self, e_u: np.ndarray, pooled: np.ndarray) -> Tensor:
        return generic_map(e_u, self.user_map)

    def map_item(self, e_v: np.ndarray, pooled: np.ndarray) -> Tensor:
        return generic_map(e_v, self.item_map)

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.user_map.named_parameters()
        out.update(self.item_map.named_parameters())
        return out


class NoFusion:
    """Collaborative injection disabled; prompts stay text-only."""

    kind = "none"

    def map_user(self, e_u, pooled):
        raise ContractError("fusion disabled for this variant")

    map_item = map_user

    def named_parameters(self) -> dict[str, Tensor]:
        return {}


def export_projected(fusion, cf, out_path: str) -> None:
    """CSV of projected user and item vectors for external visualization.

    Each table is passed as its own pooled rows, so every user and item is
    pooled over no history: this is an id-conditioned snapshot of the
    mapping, not a training-time quantity.
    """
    with atomic_open(out_path) as fh:
        for row_kind, table, mapper in (
            ("user", cf.user_table, fusion.map_user),
            ("item", cf.item_table, fusion.map_item),
        ):
            for i, vec in enumerate(mapper(table, table).data):
                flat = ",".join(f"{x:.8g}" for x in vec)
                fh.write(f"{row_kind},{i},{flat}\n")
