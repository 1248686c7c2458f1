import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from supraflow import (
    StateMatrix,
    ValidationError,
    knn_similarity,
    read_states_csv,
    write_states_csv,
)
from supraflow import states
from supraflow.states import DEFAULT_MAX_WEIGHT
from conftest import random_network


def loop_knn_similarity(doc_states, k):
    """Row-by-row reference: each point's k nearest by (distance, index)."""
    points = np.asarray(doc_states, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    n = dist.shape[0]
    out = np.zeros((n, n))
    indices = np.arange(n)
    for i in range(n):
        order = np.lexsort((indices, dist[i]))
        neighbors = [j for j in order if j != i][:k]
        for j in neighbors:
            w = min(1.0 / dist[i, j], DEFAULT_MAX_WEIGHT) if dist[i, j] else DEFAULT_MAX_WEIGHT
            out[i, j] = max(out[i, j], w)
    return np.maximum(out, out.T)


@st.composite
def integer_topic_vectors(draw):
    """Small integer-valued points: many tied distances and coincident points."""
    n = draw(st.integers(2, 12))
    t = draw(st.integers(1, 3))
    points = draw(hnp.arrays(float, (n, t), elements=st.integers(-2, 2).map(float)))
    return points, draw(st.integers(1, n - 1))


class TestKnnSimilarity:
    def test_collinear_points(self):
        # Middle point links to its nearer endpoint; symmetrization links the
        # far endpoint back through its own nearest neighbor.
        w = knn_similarity([[0.0], [1.0], [3.0]], k=1)
        assert w[0, 1] == pytest.approx(1.0)
        assert w[1, 2] == pytest.approx(0.5)
        assert w[0, 2] == 0.0

    def test_complete_graph_when_k_is_all(self):
        rng = np.random.default_rng(8)
        docs = rng.random((6, 2))
        w = knn_similarity(docs, k=5)
        off_diagonal = w[~np.eye(6, dtype=bool)]
        assert np.all(off_diagonal > 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        docs = rng.random((15, 3))
        k = 3
        w = knn_similarity(docs, k)
        dist = np.sqrt(((docs[:, None, :] - docs[None, :, :]) ** 2).sum(-1))
        expected = np.zeros((15, 15))
        for i in range(15):
            order = sorted((j for j in range(15) if j != i), key=lambda j: (dist[i, j], j))
            for j in order[:k]:
                expected[i, j] = 1.0 / dist[i, j]
        expected = np.maximum(expected, expected.T)
        assert np.abs(w - expected).max() < 1e-12

    def test_coincident_points_get_the_capped_weight(self):
        w = knn_similarity([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]], k=1)
        assert w[0, 1] == w[1, 0] == 1e6

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            knn_similarity([[np.inf], [0.0], [1.0]], k=1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValidationError):
            knn_similarity([[0.0], [1.0]], k=2)

    # The default budget takes each case in one block; a 1-byte budget takes
    # one row per block.
    @pytest.mark.parametrize("block_bytes", [states.KNN_BLOCK_BYTES, 1])
    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(case=integer_topic_vectors())
    def test_matches_the_row_loop_bit_for_bit(self, block_bytes, case):
        points, k = case
        with mock.patch.object(states, "KNN_BLOCK_BYTES", block_bytes):
            w = knn_similarity(points, k)
        assert w.toarray().tobytes() == loop_knn_similarity(points, k).tobytes()

    @pytest.mark.parametrize("rows_per_block", [1, 7, 300])
    def test_row_blocks_keep_every_bit(self, rows_per_block):
        # A coarse grid: coincident points and many tied distances, in blocks
        # of 1 row, 7 rows (a short last block) and all rows.
        points = np.random.default_rng(15).integers(0, 6, size=(300, 2)).astype(float)
        budget = rows_per_block * points[0].nbytes * len(points)
        with mock.patch.object(states, "KNN_BLOCK_BYTES", budget):
            w = knn_similarity(points, 4)
        assert w.toarray().tobytes() == loop_knn_similarity(points, 4).tobytes()

    def test_returns_canonical_read_only_csr(self):
        w = knn_similarity(np.random.default_rng(16).random((40, 2)), 3)
        assert isinstance(w, scipy.sparse.csr_array) and w.dtype == float
        assert w.has_canonical_format and w.data.all()
        assert not any(part.flags.writeable for part in (w.data, w.indices, w.indptr))

    def test_memory_grows_with_the_edge_count(self):
        # 4000 points: an n x n x T difference array alone would be 256 MB.
        points = np.random.default_rng(17).random((4000, 2))
        tracemalloc.start()
        try:
            w = knn_similarity(points, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4000 * 6 <= w.nnz <= 2 * 4000 * 6
        assert peak < 32_000_000

    def test_tie_break_prefers_lower_index(self):
        # Node 0 is equidistant from nodes 1 and 2; the lower index wins, and
        # node 2 prefers its closer neighbor 3, so no (0, 2) edge appears.
        w = knn_similarity([[0.0], [1.0], [-1.0], [-1.5]], k=1)
        assert w[0, 1] > 0
        assert w[0, 2] == 0.0
        assert w[2, 3] > 0


class TestStateMatrix:
    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValidationError):
            StateMatrix([[np.nan]], {(1, "a"): 0}, 0.0)


class TestStateCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        network, _ = random_network(rng, n_layers=2)
        snaps = [
            StateMatrix(rng.random((network.n_nodes, 3)), dict(network.node_index), float(t))
            for t in range(3)
        ]
        path = tmp_path / "states.csv"
        write_states_csv(path, snaps, network.node_order)
        loaded = read_states_csv(path, network)
        assert len(loaded) == 3
        for original, back in zip(snaps, loaded):
            assert back.timestamp == original.timestamp
            assert np.array_equal(back.matrix, original.matrix)

    def test_missing_node_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        network, _ = random_network(rng, n_layers=2)
        path = tmp_path / "states.csv"
        snaps = [StateMatrix(rng.random((network.n_nodes, 2)), dict(network.node_index), 0.0)]
        write_states_csv(path, snaps, network.node_order)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValidationError, match="missing nodes"):
            read_states_csv(path, network)

    def test_unknown_node_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        network, _ = random_network(rng, n_layers=2)
        path = tmp_path / "states.csv"
        n_topics = 2
        header = "node_id,t," + ",".join(f"x_{j + 1}" for j in range(n_topics))
        path.write_text(header + "\nnope:missing,0.0,1.0,1.0\n")
        with pytest.raises(ValidationError, match="unknown node"):
            read_states_csv(path, network)

