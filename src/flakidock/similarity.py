"""Embeddings, cosine similarity, incremental clustering, and top-k retrieval.

Clustering is incremental and per project: each new failing build output
joins the existing cluster with the highest mean member similarity when
that mean clears the threshold, otherwise it starts a new cluster.
Retrieval is exact: a float32 pass over the whole index bounds each
record's score, and only the few records that can place are scored in
float64. At the store sizes this tool works with (<= 10k records)
approximate indexes buy nothing. numpy is imported by the functions that
compute with vectors, so importing this module is cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, ZeroVector
from .providers import EmbeddingProvider, estimate_tokens

if TYPE_CHECKING:
    import numpy as np

STATIC_DELIMITER = "=== DOCKERFILE ==="
DYNAMIC_DELIMITER = "=== BUILD OUTPUT ==="


def embed(text: str, provider: EmbeddingProvider) -> np.ndarray:
    """Embed text through a provider, cutting it to its head at the token limit.

    Returns the read-only float32 vector of shape (provider.dim,). Raises
    DimensionMismatch for a vector of another size, and ZeroVector for all
    zeros or for a value that is not finite as a float32.
    """
    import numpy as np

    if not text:
        raise ValueError("cannot embed empty text")
    if provider.token_limit is not None and estimate_tokens(text) > provider.token_limit:
        text = text[: provider.token_limit * 4]  # the build definition leads a combined text
    values = provider.embed_values(text)
    if type(values) is not np.ndarray or values.dtype != np.float32:
        with np.errstate(over="ignore"):  # a value past the float32 range becomes inf, rejected below
            values = np.asarray(values, dtype=np.float32)
    if values.shape != (provider.dim,):
        raise DimensionMismatch(
            f"provider {provider.provider_id} returned {values.size} values, declared dim {provider.dim}"
        )
    if not values.any() or not np.isfinite(values).all():
        raise ZeroVector(f"provider {provider.provider_id} returned a vector that is zero or not finite")
    if values.flags.writeable:  # a read-only array is shared; a writable one is copied
        values = values.copy()
        values.flags.writeable = False
    return values


def _unit(vec: np.ndarray) -> np.ndarray:
    import numpy as np

    values = vec.astype(np.float64)
    norm = math.sqrt(values @ values)  # np.linalg.norm's own computation for a 1-D float vector
    if norm == 0.0:
        raise ZeroVector("cosine similarity is undefined for the zero vector")
    return values / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise DimensionMismatch(f"dims differ: {a.size} vs {b.size}")
    return float(_unit(a) @ _unit(b))


def combine_static_dynamic(static_text: str, dynamic_text: str) -> str:
    """Join a build definition and its build-output excerpt with labels."""
    return f"{STATIC_DELIMITER}\n{static_text}\n{DYNAMIC_DELIMITER}\n{dynamic_text}"


@dataclass(frozen=True)
class RepairQuery:
    static_part: str
    dynamic_part: str
    combined_text: str

    @classmethod
    def build(cls, static_part: str, dynamic_part: str) -> "RepairQuery":
        return cls(
            static_part=static_part,
            dynamic_part=dynamic_part,
            combined_text=combine_static_dynamic(static_part, dynamic_part),
        )


@dataclass
class Cluster:
    """Build outputs and the float64 sum of their unit vectors, a row view in a ClusterState:
    for a unit vector u, the mean cosine similarity to the members is u . member_sum / len(member_ids)."""

    id: int
    member_ids: list[str]
    member_sum: np.ndarray = field(repr=False)


class ClusterState(list):
    """The clusters in creation order, plus what scores them in one product:
    their member sums as rows of one float64 buffer that doubles when full,
    their member counts and the next cluster id. Copies in a list's sums."""

    def __init__(self, clusters=()):
        super().__init__()
        self._sums, self._counts, self.next_id = (), (), 0  # no rows yet
        for cluster in clusters:
            self._append(cluster)

    def _append(self, cluster: Cluster) -> None:
        import numpy as np

        if not cluster.member_ids:
            raise ValueError(f"cluster {cluster.id} has no members")
        n = len(self)
        if n == len(self._counts):  # full: rows past n are spare
            self._sums = np.resize(self._sums, (2 * n or 1, cluster.member_sum.size))
            self._counts = np.resize(self._counts, 2 * n or 1)
            for c, row in zip(self, self._sums):
                c.member_sum = row
        self._sums[n], self._counts[n] = cluster.member_sum, len(cluster.member_ids)
        cluster.member_sum = self._sums[n]
        self.append(cluster)
        self.next_id = max(self.next_id, cluster.id + 1)


def cluster_add(
    state: list[Cluster],
    output_id: str,
    vec: np.ndarray,
    threshold: float,
) -> tuple[ClusterState, int]:
    """Assign one build output to the cluster state; returns (state, cluster id).

    The candidate joins the cluster whose members are on average most similar
    to it, the first created of equal means, provided that mean reaches the
    threshold; otherwise a new singleton cluster is created. One product scores
    every cluster. Pass back the returned state; a plain list is converted once.
    """
    import numpy as np

    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    u = _unit(vec)
    if state and state[0].member_sum.size != u.size:
        raise DimensionMismatch(f"dims differ: {u.size} vs {state[0].member_sum.size}")
    state = state if isinstance(state, ClusterState) else ClusterState(state)
    if n := len(state):
        # einsum scores identical rows alike wherever they sit: argmax picks the oldest tie.
        means = np.einsum("ij,j->i", state._sums[:n], u) / state._counts[:n]
        best = int(means.argmax())
        if means[best] >= threshold:
            state[best].member_ids.append(output_id)
            state._sums[best] += u
            state._counts[best] += 1
            return state, state[best].id
    state._append(Cluster(state.next_id, [output_id], u))
    return state, state[-1].id


def retrieve_top_k(
    query: RepairQuery, store, k: int, provider: EmbeddingProvider
) -> list[tuple[object, float]]:
    """Exact top-k of the demonstration index for a repair query.

    A float32 pass bounds every row's score; only the rows whose upper bound
    reaches the k-th best lower bound are scored exactly, so the results are
    those of scoring every row. They come back in strictly non-increasing
    similarity order with ties broken by ascending record id. An empty store
    yields an empty list.
    """
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(store) == 0:
        return []
    q = embed(query.combined_text, provider).astype(np.float64)
    matrix, norms = store.scan()
    if matrix.shape[1] != q.shape[0]:
        raise DimensionMismatch(f"store dim {matrix.shape[1]} vs query dim {q.shape[0]}")
    scale = norms * np.linalg.norm(q)
    records = store.records
    cand = _candidates(matrix, q, scale, k)
    if cand is not None:
        matrix, scale, records = matrix[cand], scale[cand], [records[i] for i in cand]
    # einsum gives identical rows identical scores wherever they sit; a BLAS
    # matrix-vector product may not, which would break the id tie rule.
    sims = np.einsum("ij,j->i", matrix, q) / scale
    kth = max(len(sims) - k, 0)
    rows = np.flatnonzero(sims >= np.partition(sims, kth)[kth])  # the k best, ties included
    ranked = sorted(rows, key=lambda i: (-sims[i], records[i].id))[:k]
    return [(records[i], float(sims[i])) for i in ranked]


_F32_UNIT = 2.0**-24  # float32 unit roundoff
_F32_TINY = 2.0**-149  # smallest float32 subnormal


def _candidates(matrix: np.ndarray, q: np.ndarray, scale: np.ndarray, k: int) -> np.ndarray | None:
    """Indices of the rows that may rank in the top k, or None for every row.

    A float32 product c approximates each row's cosine. Its error is at most
    gamma_n * |row| * |q| plus n underflows of a product, for any summation
    order (threaded, FMA); doubled, that also covers the float64 rounding of
    the exact score. Every row scoring at least the k-th best has an upper
    bound c + slack no lower than the k-th best lower bound c - slack, rows
    tied across k-th place included. A product past the float32 range has
    no bound: then every row is a candidate.
    """
    import numpy as np

    n, dim = matrix.shape
    if k >= n:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        approx = matrix @ q.astype(np.float32)
    if not np.isfinite(approx).all():
        return None
    cos = approx / scale
    slack = 2 * (dim + 2) * _F32_UNIT + (2 * dim * _F32_TINY) / scale
    lower = cos - slack
    tau = np.partition(lower, n - k)[n - k]
    return np.flatnonzero(cos + slack >= tau)
