from __future__ import annotations

import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flakidock.demo_store import (
    DemonstrationIndex,
    DemonstrationRecord,
    FlakinessCategory,
    MajorCategory,
)
from flakidock.errors import DimensionMismatch, ZeroVector
from flakidock import providers
from flakidock.demo_store import builtin_store_path, load_store, save_store
from flakidock.providers import HashingEmbeddingProvider
from flakidock.similarity import (
    RepairQuery,
    _candidates,
    cluster_add,
    cosine,
    embed,
    retrieve_top_k,
)

from support import (
    reference_clustering,
    reference_hash_embedding,
    reference_retrieve_top_k,
    template_outputs,
)


def _vec(*values):
    """A vector in the form `embed` returns: read-only float32."""
    vec = np.array(values, dtype=np.float32)
    vec.flags.writeable = False
    return vec


class _FixedProvider(providers.EmbeddingProvider):
    """Returns the same values for every text, whatever its declared dim."""

    def __init__(self, dim, values):
        self.dim, self.token_limit, self.provider_id = dim, None, "fixed"
        self.values = values

    def embed_values(self, text):
        return self.values


class TestEmbed:
    def test_deterministic(self, offline_provider):
        assert embed("abc", offline_provider).tobytes() == embed("abc", offline_provider).tobytes()

    def test_declared_dim_respected(self):
        provider = HashingEmbeddingProvider(dim=64)
        assert embed("abc", provider).shape == (64,)

    def test_returns_read_only_float32_of_declared_shape(self):
        provider = _FixedProvider(4, np.array([1.0, 2.0, 0.0, 3.0]))  # writable float64
        vec = embed("abc", provider)
        assert vec.dtype == np.float32 and vec.shape == (4,)
        assert not vec.flags.writeable
        assert provider.values.flags.writeable  # the provider's own array is untouched
        with pytest.raises(ValueError):
            vec[0] = 5.0

    def test_wrong_value_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            embed("abc", _FixedProvider(4, np.ones(3, np.float32)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            embed("abc", _FixedProvider(4, np.zeros(4, np.float32)))

    @pytest.mark.parametrize("bad", [1e39, math.nan], ids=["inf-after-cast", "nan"])
    def test_non_finite_vector_rejected_and_not_added(self, offline_provider, bad):
        provider = _FixedProvider(offline_provider.dim, [bad] + [1.0] * (offline_provider.dim - 1))
        with pytest.raises(ZeroVector, match="provider fixed returned a vector that is zero or not finite"):
            embed("abc", provider)
        index = _store_of(["boom alpha"], offline_provider)
        record = DemonstrationRecord(
            id="non-finite", static_part="FROM busybox\n", dynamic_part="boom",
            category=FlakinessCategory(MajorCategory.MISC), repairs=("FROM alpine\n",),
            iterations=(2,),
        )
        with pytest.raises(ZeroVector):
            index.add(record, provider)
        assert len(index) == 1 and "non-finite" not in index.by_id and index.matrix.shape[0] == 1
        assert np.isfinite(index.matrix).all()

    def test_unit_norm(self, offline_provider):
        vec = embed("some build failure text", offline_provider)
        assert math.sqrt(sum(float(v) ** 2 for v in vec)) == pytest.approx(1.0, abs=1e-6)

    def test_empty_text_rejected(self, offline_provider):
        with pytest.raises(ValueError):
            embed("", offline_provider)

    def test_truncation_is_tail_truncation(self):
        provider = HashingEmbeddingProvider(dim=32)
        provider.token_limit = 8
        long_text = "head marker " + "x" * 500
        truncated = embed(long_text, provider)
        head_only = embed(long_text[: 8 * 4], provider)
        assert truncated.tobytes() == head_only.tobytes()


class TestCosine:
    def test_identity(self):
        assert cosine(_vec(1, 0), _vec(1, 0)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(_vec(1, 0), _vec(0, 1)) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        # 1/sqrt(2), worked by hand
        assert cosine(_vec(1, 1), _vec(1, 0)) == pytest.approx(0.7071, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(_vec(1, 0), _vec(1, 0, 0))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine(_vec(0, 0), _vec(1, 0))

    def test_self_similarity_within_1e9(self, offline_provider):
        vec = embed("any text at all", offline_provider)
        assert abs(cosine(vec, vec) - 1.0) < 1e-9

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=4),
        st.lists(st.floats(-100, 100), min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_symmetry_and_bound(self, a, b):
        # Values too small for float32 round to zero, and cosine() legitimately
        # rejects the zero vector, so skip them here.
        va, vb = _vec(*a), _vec(*b)
        if not va.any() or not vb.any():
            return
        assert cosine(va, vb) == pytest.approx(cosine(vb, va))
        assert abs(cosine(va, vb)) <= 1.0 + 1e-12


class TestClusterAdd:
    def test_first_element_new_cluster(self, offline_provider):
        vec = embed("first output", offline_provider)
        state, cid = cluster_add([], "out-0", vec, 0.8)
        assert cid == 0
        assert len(state) == 1
        assert state[0].member_ids == ["out-0"]

    def test_identical_vector_joins(self, offline_provider):
        vec = embed("identical output", offline_provider)
        state, _ = cluster_add([], "out-0", vec, 0.8)
        state, cid = cluster_add(state, "out-1", vec, 0.8)
        assert cid == 0
        assert state[0].member_ids == ["out-0", "out-1"]

    def test_template_fixture_cluster_count(self, offline_provider):
        state = []
        for i, text in enumerate(template_outputs(100)):
            state, _ = cluster_add(state, f"out-{i}", embed(text, offline_provider), 0.8)
        assert 10 <= len(state) <= 13
        # 100 outputs collapsing to <= 13 clusters is an >= 87% reduction
        assert 1 - len(state) / 100 >= 0.87

    def test_every_output_in_exactly_one_cluster(self, offline_provider):
        state = []
        ids = []
        for i, text in enumerate(template_outputs(60, seed=7)):
            out_id = f"out-{i}"
            ids.append(out_id)
            state, _ = cluster_add(state, out_id, embed(text, offline_provider), 0.8)
        all_members = [m for c in state for m in c.member_ids]
        assert sorted(all_members) == sorted(ids)
        assert len(all_members) == len(set(all_members))

    def test_threshold_validated(self, offline_provider):
        vec = embed("x", offline_provider)
        with pytest.raises(ValueError):
            cluster_add([], "a", vec, 1.5)


def _store_of(texts: list[str], provider) -> DemonstrationIndex:
    index = DemonstrationIndex([])
    for i, text in enumerate(texts):
        record = DemonstrationRecord(
            id=f"rec-{i:04d}",
            static_part=f"FROM busybox\nRUN step-{i}\n",
            dynamic_part=text,
            category=FlakinessCategory(MajorCategory.MISC),
            repairs=(f"FROM busybox\nRUN fixed-step-{i}\n",),
            iterations=(2,),
        )
        index.add(record, provider)
    return index


class TestRetrieveTopK:
    def test_self_retrieval_rank_one(self, offline_provider):
        index = _store_of(["boom alpha", "boom beta", "boom gamma"], offline_provider)
        record = index.records[1]
        query = RepairQuery.build(record.static_part, record.dynamic_part)
        results = retrieve_top_k(query, index, 3, offline_provider)
        assert results[0][0].id == record.id
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_empty_store_returns_empty(self, offline_provider):
        assert retrieve_top_k(
            RepairQuery.build("FROM x", "boom"), DemonstrationIndex([]), 3, offline_provider
        ) == []

    def test_similarities_non_increasing_with_id_ties(self, offline_provider):
        index = _store_of(["same text"] * 4, offline_provider)
        # identical dynamic parts but distinct static parts -> distinct sims;
        # craft exact ties by duplicating full content under different ids
        records = retrieve_top_k(
            RepairQuery.build("FROM busybox\nRUN step-0\n", "same text"),
            index,
            4,
            offline_provider,
        )
        sims = [sim for _, sim in records]
        assert all(a >= b for a, b in zip(sims, sims[1:]))

    def test_top3_matches_brute_force_on_ten_records(self, offline_provider):
        texts = [f"failure flavor {i} with distinct words {chr(97 + i) * 5}" for i in range(10)]
        index = _store_of(texts, offline_provider)
        query = RepairQuery.build("FROM busybox\nRUN step-3\n", "failure flavor 3 almost")
        results = retrieve_top_k(query, index, 3, offline_provider)
        expected = _brute_force_ranking(index, query, offline_provider)[:3]
        assert [(r.id, pytest.approx(s)) for r, s in results] == [
            (r.id, pytest.approx(s)) for r, s in expected
        ]

    def test_k_bounds_result_size(self, offline_provider):
        index = _store_of(["a", "b"], offline_provider)
        assert len(retrieve_top_k(RepairQuery.build("FROM x", "a"), index, 5, offline_provider)) == 2

    def test_oracle_equivalence_thousand_records(self, offline_provider):
        texts = [
            f"record number {i} error {['alpha', 'beta', 'gamma', 'delta'][i % 4]} "
            f"code {i * 7 % 113} while running step {i % 17}"
            for i in range(1000)
        ]
        index = _store_of(texts, offline_provider)
        query = RepairQuery.build(
            "FROM busybox\nRUN step-500\n", "record number 500 error alpha mostly"
        )
        start = time.perf_counter()
        results = retrieve_top_k(query, index, 3, offline_provider)
        elapsed = time.perf_counter() - start
        expected = _brute_force_ranking(index, query, offline_provider)[:3]
        assert [r.id for r, _ in results] == [r.id for r, _ in expected]
        assert elapsed < 2.0


def _brute_force_ranking(index, query, provider):
    """Oracle: plain python cosine over every record, same tie rule."""
    qv = embed(query.combined_text, provider)
    scored = []
    for record, row in zip(index.records, index.matrix):
        scored.append((record, cosine(row, qv)))
    return sorted(scored, key=lambda pair: (-pair[1], pair[0].id))


class TestIndexPersistenceFormat:
    def test_vectors_bin_layout(self, tmp_path, offline_provider):
        import struct

        import numpy as np

        from flakidock.demo_store import save_store

        index = _store_of(["alpha failure", "beta failure"], offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        blob = (tmp_path / "vectors.bin").read_bytes()
        (dim,) = struct.unpack("<I", blob[:4])
        assert dim == offline_provider.dim
        rows = np.frombuffer(blob[4:], dtype="<f4").reshape(-1, dim)
        assert rows.shape == (2, dim)
        assert rows.tobytes() == index.matrix.tobytes()
        assert rows[0].tobytes() == embed(index.records[0].combined_text(), offline_provider).tobytes()


class TestOrderDependence:
    def test_permuted_insertion_stays_in_band(self, offline_provider):
        # Clustering is order-dependent by design; on the template corpus a
        # permuted insertion order must still land in the documented band.
        import random as _random

        texts = template_outputs(100)
        vecs = [embed(t, offline_provider) for t in texts]
        baseline = []
        for i, v in enumerate(vecs):
            baseline, _ = cluster_add(baseline, f"b{i}", v, 0.8)

        order = list(range(100))
        _random.Random(5).shuffle(order)
        permuted = []
        for i in order:
            permuted, _ = cluster_add(permuted, f"p{i}", vecs[i], 0.8)

        assert 10 <= len(baseline) <= 13
        assert 10 <= len(permuted) <= 13


class TestDifferential:
    """The vector layer against the reference implementations in support.py."""

    # 0.8 is the default threshold. 0.97 lies inside the within-template
    # similarity range (0.947-1.0), where some clusters have equal means.
    @pytest.mark.parametrize("threshold", [0.8, 0.97])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_running_sums_assign_like_member_means(self, offline_provider, seed, threshold):
        vecs = [embed(t, offline_provider) for t in template_outputs(200)]
        order = list(range(len(vecs)))
        if seed is not None:
            random.Random(seed).shuffle(order)
        state, got = [], []
        for i in order:
            state, cid = cluster_add(state, f"out-{i}", vecs[i], threshold)
            got.append(cid)
        steps = reference_clustering([[float(x) for x in vecs[i]] for i in order], threshold)
        if threshold == 0.8:
            assert got == [cid for cid, _ in steps]
            return
        assert len(state) > 20
        for got_id, (ref_id, means) in zip(got, steps):
            if got_id != ref_id:
                # Only clusters whose means tie up to rounding may be told apart
                # differently; starting a new cluster scores the threshold.
                assert means.get(got_id, threshold) == pytest.approx(
                    means.get(ref_id, threshold), abs=1e-12
                )
                break

    # The shipped 3-gram table is memoised per process; a token limit makes
    # embed() cut each text to its head before the provider sees it.
    @pytest.mark.parametrize("token_limit", [None, 50])
    def test_memoised_embedder_is_bit_identical(self, token_limit):
        provider = HashingEmbeddingProvider()
        provider.token_limit = token_limit
        texts = template_outputs(200)
        if token_limit is not None:
            assert any(len(text) > token_limit * 4 for text in texts)
        for text in texts + texts:  # the second round reads the memoised table
            head = text if token_limit is None else text[: token_limit * 4]
            assert embed(text, provider).tobytes() == reference_hash_embedding(head).tobytes()
            expected = reference_hash_embedding(text).tobytes()
            assert np.asarray(provider.embed_values(text), dtype=np.float32).tobytes() == expected


class TestRetrievalTies:
    @pytest.mark.parametrize("reload", [False, True])
    def test_tie_across_kth_place_returns_ascending_ids(self, offline_provider, tmp_path, reload):
        index = _store_of(["unrelated failure one", "unrelated failure two"], offline_provider)
        for i in reversed(range(5)):  # k + 2 identical records, inserted in descending id
            index.add(
                DemonstrationRecord(
                    id=f"tie-{i}",
                    static_part="FROM busybox\nRUN tied\n",
                    dynamic_part="tied failure",
                    category=FlakinessCategory(MajorCategory.MISC),
                    repairs=("FROM busybox\nRUN fixed\n",),
                    iterations=(2,),
                ),
                offline_provider,
            )
        if reload:
            save_store(index, tmp_path / "records.jsonl")
            index = load_store(tmp_path / "records.jsonl")
        query = RepairQuery.build("FROM busybox\nRUN tied\n", "tied failure")
        results = retrieve_top_k(query, index, 3, offline_provider)
        assert [r.id for r, _ in results] == ["tie-0", "tie-1", "tie-2"]
        assert len({sim for _, sim in results}) == 1


def test_retrieval_stays_consistent_during_concurrent_adds(offline_provider):
    index = _store_of([f"seed failure {i}" for i in range(20)], offline_provider)
    query = RepairQuery.build("FROM busybox\nRUN step-1\n", "seed failure 1")
    stop = threading.Event()
    errors = []

    def reader():
        while not stop.is_set():
            try:
                assert len(retrieve_top_k(query, index, 3, offline_provider)) == 3
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for i in range(800):
            index.add(
                DemonstrationRecord(
                    id=f"late-{i:04d}",
                    static_part="FROM busybox\nRUN late\n",
                    dynamic_part=f"late failure {i}",
                    category=FlakinessCategory(MajorCategory.MISC),
                    repairs=("FROM busybox\nRUN fixed\n",),
                    iterations=(2,),
                ),
                offline_provider,
            )
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert errors == []


# Row scales the bound pass must survive: far above and below 1, subnormal
# (the slack's absolute term), and near the float32 limit, where a product
# overflows and every row is scored exactly.
_ROW_SCALES = (1e30, 1e-30, 1e-42, 1e37)


def _index_of(rows: np.ndarray, ids: list[int]) -> DemonstrationIndex:
    records = [
        DemonstrationRecord(
            id=f"r{i:02d}",
            static_part="FROM busybox\n",
            dynamic_part="boom",
            category=FlakinessCategory(MajorCategory.MISC),
            repairs=("FROM busybox\n",),
            iterations=(1,),
        )
        for i in ids
    ]
    return DemonstrationIndex(records, rows)


def _nonzero(rows: np.ndarray) -> np.ndarray:
    rows[~rows.any(axis=1), 0] = 1e-42  # a subnormal row may round to all zeros
    return rows


@st.composite
def _retrieval_cases(draw):
    """(float32 rows, record ids in row order, query vector, k)."""
    dim = draw(st.sampled_from([3, 16, 64, 256]))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, dim))
    row = st.integers(0, n - 1)
    scales = np.ones(n)
    for i, scale in draw(st.lists(st.tuples(row, st.sampled_from(_ROW_SCALES)), max_size=4)):
        scales[i] = scale
    rows *= scales[:, None]
    for i, j in draw(st.lists(st.tuples(row, row), max_size=4)):  # duplicate rows
        rows[i] = rows[j]
    near = st.tuples(row, row, st.floats(-1e-7, 1e-7))
    for i, j, d in draw(st.lists(near, max_size=4)):  # scores within about 1e-7
        rows[i] = rows[j] * (1 + d * rng.standard_normal(dim))
    rows = _nonzero(rows.astype(np.float32))
    like = draw(st.one_of(st.none(), row))
    if like is None:
        query = rng.standard_normal(dim) * draw(st.sampled_from([1.0, 1e3, 1e-30]))
    else:  # a stored row: its duplicates tie at the top
        query = rows[like]
    ids = draw(st.permutations(range(n)))  # id order is not row order
    return rows, ids, query.astype(np.float32), draw(st.integers(1, n + 3))


def _fixed_case(scale: float, query_scale: float = 1.0, k: int = 3):
    """20 rows, every other one scaled, two of them equal, ids in reverse row order."""
    n, rng = 20, np.random.default_rng(0)
    rows = rng.standard_normal((n, 64))
    rows[::2] *= scale
    rows[5] = rows[3]
    rows = _nonzero(rows.astype(np.float32))
    query = (rng.standard_normal(64) * query_scale).astype(np.float32)
    return rows, list(range(n))[::-1], query, k


class TestRetrievalDifferential:
    """Two-stage retrieval against the full scan it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_retrieval_cases())
    @example(_fixed_case(1e37, 1e3))  # float32 overflows: every row is rescored
    @example(_fixed_case(1e-42))
    @example(_fixed_case(1e30, k=25))
    def test_matches_full_scan(self, case):
        rows, ids, query, k = case
        index = _index_of(rows, ids)
        provider = _FixedProvider(rows.shape[1], query)
        repair_query = RepairQuery.build("FROM busybox\n", "boom")
        got = retrieve_top_k(repair_query, index, k, provider)
        want = reference_retrieve_top_k(repair_query, index, k, provider)
        assert [(r.id, s.hex()) for r, s in got] == [(r.id, s.hex()) for r, s in want]

    def test_builtin_store_matches_full_scan(self, offline_provider):
        # The shipped store holds no vectors.bin: loading recomputes its matrix.
        index = load_store(builtin_store_path(), offline_provider)
        assert index.matrix.dtype == np.float32 and index.matrix.shape == (len(index), offline_provider.dim)
        query = RepairQuery.build("FROM alpine:3.19\nRUN pip install flask\n", "error: externally-managed-environment")
        got = retrieve_top_k(query, index, 3, offline_provider)
        want = reference_retrieve_top_k(query, index, 3, offline_provider)
        assert [(r.id, s.hex()) for r, s in got] == [(r.id, s.hex()) for r, s in want]

    @pytest.mark.parametrize("dim", [2, 6])
    def test_a_row_whose_upper_bound_equals_tau_is_a_candidate(self, dim):
        # Every value here is exact: float32 products of dyadic values, a scale of
        # 1, and a slack of 2 * (dim + 2) * 2**-24, 2**-21 at dim 2 and 2**-20 at
        # dim 6 (the underflow term is below half an ulp of it). The zero columns
        # that pad a row to dim change no product, only the slack, so a slack
        # that does not grow with dim fails one of the two.
        slack = 2 * (dim + 2) * 2.0**-24
        matrix = np.zeros((3, dim), dtype=np.float32)
        matrix[:, :2] = [[0.5, 0.0], [0.5 - 2 * slack, 0.0], [0.0, 1.0]]
        q, scale = np.eye(dim)[0], np.ones(3)
        tau = 0.5 - slack  # row 0's lower bound, the best of them: k = 1
        assert float(matrix[1, 0]) + slack == tau  # row 1's upper bound
        assert _candidates(matrix, q, scale, 1).tolist() == [0, 1]

    @pytest.mark.parametrize("dim", [3, 64, 256, 300, 1536])
    def test_einsum_of_gathered_rows_matches_full_matrix(self, dim):
        rng = np.random.default_rng(dim)
        matrix = rng.standard_normal((1000, dim)).astype(np.float32)
        q = rng.standard_normal(dim).astype(np.float32).astype(np.float64)
        full = np.einsum("ij,j->i", matrix, q)
        picks = [[0], [999], [3, 500, 998], sorted(rng.choice(1000, 7, replace=False)), list(range(0, 1000, 37))]
        for rows in picks:
            assert np.einsum("ij,j->i", matrix[rows], q).tobytes() == full[rows].tobytes()
