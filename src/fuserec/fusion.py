"""Bridging collaborative embeddings into the language model's token space.

A per-user (and per-item) mapping matrix is generated by a small two-layer
network from an attention-pooled view of the user's history, then applied as
a plain matrix product. Ablation modes replace this with one or two generic
affine maps, or skip injection entirely. The pooled inputs come from frozen
CF tables, so pooling is plain numpy; everything from the generator weights
onward runs on the gradient tape.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .corpus import PlaceholderPositions
from .numerics import ContractError, Tensor


def attention_pool(e_query: np.ndarray, history: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dot-product attention of a query vector over history rows.

    Returns (pooled vector, attention weights). History must be nonempty;
    callers substitute the query itself for empty-history (cold) cases.
    """
    if history.ndim != 2 or history.shape[0] == 0:
        raise ContractError("attention_pool requires a nonempty history matrix")
    if e_query.shape != (history.shape[1],):
        raise ContractError(f"query of shape {e_query.shape} vs history rows of {history.shape[1]}")
    scores = history @ e_query
    scores = scores - scores.max()
    weights = np.exp(scores)
    weights /= weights.sum()
    return weights @ history, weights


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
    """Mapping matrix for one pooled input; differentiable into the generator."""
    if pooled.shape != (net.d_cf,):
        raise ContractError(f"pooled vector of shape {pooled.shape}, expected ({net.d_cf},)")
    p = Tensor(pooled.reshape(1, net.d_cf))
    h = nm.relu(nm.add(nm.matmul(p, net.w1), net.b1))
    flat = nm.add(nm.matmul(h, net.w2), net.b2)
    return nm.reshape(flat, (net.d_cf, net.d_llm))


def project(e: np.ndarray, mapping: Tensor) -> Tensor:
    """Row vector through the personalized mapping: a 1 x d_llm tensor."""
    if e.shape != (mapping.shape[0],):
        raise ContractError(f"embedding of shape {e.shape} vs mapping {mapping.shape}")
    return nm.matmul(Tensor(e.reshape(1, -1)), mapping)


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
    if e.shape != (mapper.d_cf,):
        raise ContractError(f"embedding of shape {e.shape}, expected ({mapper.d_cf},)")
    return nm.add(nm.matmul(Tensor(e.reshape(1, -1)), mapper.w), mapper.b)


def inject(
    prompt_ids: list[int],
    positions: PlaceholderPositions,
    token_table: Tensor,
    ep_user: Tensor | None,
    ep_item: Tensor | None,
) -> Tensor:
    """Token embedding sequence with placeholder rows replaced by projected vectors."""
    emb = nm.gather_rows(token_table, prompt_ids)
    if (ep_user is None) != (positions.user_pos is None) or (ep_item is None) != (positions.item_pos is None):
        raise ContractError("placeholder vectors and recorded positions disagree")
    if ep_user is not None:
        emb = nm.row_set(emb, positions.user_pos, nm.reshape(ep_user, (token_table.shape[1],)))
    if ep_item is not None:
        emb = nm.row_set(emb, positions.item_pos, nm.reshape(ep_item, (token_table.shape[1],)))
    return emb


# ---------------------------------------------------------------------------
# variant dispatch
# ---------------------------------------------------------------------------


class PersonalizedFusion:
    """Full pipeline: separate user-side and item-side generators."""

    kind = "personalized"

    def __init__(self, d_cf: int, d_llm: int, hidden: int, rng: np.random.Generator):
        self.user_net = MetaNetwork(d_cf, d_llm, hidden, rng, "user_meta")
        self.item_net = MetaNetwork(d_cf, d_llm, hidden, rng, "item_meta")

    def map_user(self, e_u: np.ndarray, history: np.ndarray | None) -> Tensor:
        pooled = e_u if history is None or history.shape[0] == 0 else attention_pool(e_u, history)[0]
        return project(e_u, generate_mapping(pooled, self.user_net))

    def map_item(self, e_v: np.ndarray, history: np.ndarray | None) -> Tensor:
        pooled = e_v if history is None or history.shape[0] == 0 else attention_pool(e_v, history)[0]
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

    def map_user(self, e_u: np.ndarray, history: np.ndarray | None) -> Tensor:
        return generic_map(e_u, self.user_map)

    def map_item(self, e_v: np.ndarray, history: np.ndarray | None) -> Tensor:
        return generic_map(e_v, self.item_map)

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.user_map.named_parameters()
        out.update(self.item_map.named_parameters())
        return out


class NoFusion:
    """Collaborative injection disabled; prompts stay text-only."""

    kind = "none"

    def map_user(self, e_u, history):
        raise ContractError("fusion disabled for this variant")

    map_item = map_user

    def named_parameters(self) -> dict[str, Tensor]:
        return {}


def export_projected(fusion, cf, out_path: str) -> None:
    """CSV of projected user and item vectors for external visualization.

    Users are pooled over nothing here (self-pooled); items likewise: this is
    an id-conditioned snapshot of the mapping, not a training-time quantity.
    """
    with open(out_path, "w", encoding="utf-8") as fh:
        for row_kind, table, mapper in (
            ("user", cf.user_table, fusion.map_user),
            ("item", cf.item_table, fusion.map_item),
        ):
            for i in range(table.shape[0]):
                vec = mapper(table[i], None)
                flat = ",".join(f"{x:.8g}" for x in vec.data.reshape(-1))
                fh.write(f"{row_kind},{i},{flat}\n")
