import numpy as np
import pytest

from supraflow import (
    DocumentAssignment,
    StateMatrix,
    ValidationError,
    init_agent_states,
    inverse_distance_similarity,
    jaccard_similarity,
    knn_similarity,
    read_assignment_csv,
    read_states_csv,
    write_assignment_csv,
    write_states_csv,
)
from conftest import random_network


class TestInitAgentStates:
    def test_two_point_mean(self):
        assignment = DocumentAssignment({"a": ("d0", "d1")})
        out, empty = init_agent_states(assignment, [[1.0, 0.0], [0.0, 1.0]], ["d0", "d1"], ["a"])
        assert np.array_equal(out, [[0.5, 0.5]])
        assert empty == ()

    def test_single_document_identity(self):
        assignment = DocumentAssignment({"a": ("d0",)})
        out, _ = init_agent_states(assignment, [[0.2, 0.8, 0.1]], ["d0"], ["a"])
        assert np.array_equal(out, [[0.2, 0.8, 0.1]])

    def test_agent_with_no_documents_gets_zero(self):
        assignment = DocumentAssignment({"a": ()})
        out, empty = init_agent_states(assignment, [[1.0, 1.0]], ["d0"], ["a", "b"])
        assert np.array_equal(out, np.zeros((2, 2)))
        assert empty == ("a", "b")

    def test_matches_brute_force_average(self):
        rng = np.random.default_rng(3)
        docs = rng.random((20, 4))
        doc_ids = [f"d{i}" for i in range(20)]
        agents = [f"a{i}" for i in range(5)]
        owned = {a: tuple(doc_ids[j] for j in rng.choice(20, size=rng.integers(1, 8), replace=False)) for a in agents}
        assignment = DocumentAssignment(owned)
        out, _ = init_agent_states(assignment, docs, doc_ids, agents)
        for i, agent in enumerate(agents):
            rows = [doc_ids.index(d) for d in owned[agent]]
            acc = np.zeros(4)
            for r in rows:
                acc += docs[r]
            assert np.abs(out[i] - acc / len(rows)).max() < 1e-12

    def test_unknown_document_rejected(self):
        assignment = DocumentAssignment({"a": ("ghost",)})
        with pytest.raises(ValidationError, match="unknown document"):
            init_agent_states(assignment, [[1.0]], ["d0"], ["a"])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        docs = rng.random((8, 3))
        doc_ids = [f"d{i}" for i in range(8)]
        agents = ["a0", "a1", "a2"]
        owned = {a: tuple(doc_ids[j] for j in rng.choice(8, size=3, replace=False)) for a in agents}
        out, _ = init_agent_states(DocumentAssignment(owned), docs, doc_ids, agents)
        perm = rng.permutation(8)
        out_permuted, _ = init_agent_states(
            DocumentAssignment(owned), docs[perm], [doc_ids[j] for j in perm], agents
        )
        assert np.abs(out - out_permuted).max() < 1e-12


class TestInverseDistanceSimilarity:
    def test_weight_above_threshold(self):
        docs = [[0.0], [2.0]]
        w = inverse_distance_similarity(docs, 0.1)
        assert w[0, 1] == w[1, 0] == 0.5

    def test_weight_below_threshold_dropped(self):
        w = inverse_distance_similarity([[0.0], [2.0]], 0.6)
        assert w[0, 1] == 0.0

    def test_duplicates_capped(self):
        w = inverse_distance_similarity([[1.0, 2.0], [1.0, 2.0]], 0.1)
        assert w[0, 1] == 1e6

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        docs = rng.random((10, 3))
        threshold = 1.2
        w = inverse_distance_similarity(docs, threshold)
        for i in range(10):
            for j in range(10):
                if i == j:
                    assert w[i, j] == 0.0
                    continue
                value = 1.0 / np.linalg.norm(docs[i] - docs[j])
                assert w[i, j] == pytest.approx(value if value > threshold else 0.0, abs=1e-12)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(6)
        docs = rng.random((12, 2))
        low = inverse_distance_similarity(docs, 0.5)
        high = inverse_distance_similarity(docs, 2.0)
        assert np.all((high > 0) <= (low > 0))

    def test_symmetric_zero_diagonal_nonnegative(self):
        rng = np.random.default_rng(7)
        docs = rng.random((9, 4))
        w = inverse_distance_similarity(docs, 0.3)
        assert np.array_equal(w, w.T)
        assert np.diagonal(w).max() == 0.0
        assert w.min() >= 0.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            inverse_distance_similarity([[np.inf], [0.0]], 0.1)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValidationError):
            inverse_distance_similarity([[0.0], [1.0]], 0.0)


class TestJaccardSimilarity:
    def test_identical_sets(self):
        w = jaccard_similarity([{1, 2}, {1, 2}])
        assert w[0, 1] == 1.0

    def test_disjoint_sets(self):
        w = jaccard_similarity([{1}, {2}])
        assert w[0, 1] == 0.0

    def test_one_third(self):
        w = jaccard_similarity([{1, 2}, {2, 3}])
        assert w[0, 1] == pytest.approx(1 / 3)

    def test_empty_union_is_zero(self):
        w = jaccard_similarity([set(), set()])
        assert w[0, 1] == 0.0

    def test_threshold(self):
        w = jaccard_similarity([{1, 2}, {2, 3}], threshold=0.5)
        assert w[0, 1] == 0.0

    def test_zero_diagonal_symmetric(self):
        w = jaccard_similarity([{1}, {1, 2}, {2}])
        assert np.array_equal(w, w.T)
        assert np.diagonal(w).max() == 0.0


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

    def test_k_too_large_rejected(self):
        with pytest.raises(ValidationError):
            knn_similarity([[0.0], [1.0]], k=2)

    def test_tie_break_prefers_lower_index(self):
        # Node 0 is equidistant from nodes 1 and 2; the lower index wins, and
        # node 2 prefers its closer neighbor 3, so no (0, 2) edge appears.
        w = knn_similarity([[0.0], [1.0], [-1.0], [-1.5]], k=1)
        assert w[0, 1] > 0
        assert w[0, 2] == 0.0
        assert w[2, 3] > 0


class TestStateMatrix:
    def test_topic_vector_lookup(self):
        index = {(1, "a"): 0, (1, "b"): 1}
        snap = StateMatrix([[0.1, 0.9], [0.4, 0.6]], index, 0.0)
        assert np.array_equal(snap.topic_vector((1, "b")), [0.4, 0.6])

    def test_topic_vector_unknown_node(self):
        snap = StateMatrix([[0.1, 0.9]], {(1, "a"): 0}, 0.0)
        with pytest.raises(ValidationError, match="unknown node"):
            snap.topic_vector((1, "ghost"))

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


class TestAssignmentCsv:
    def test_round_trip(self, tmp_path):
        assignment = DocumentAssignment({"a0": ("d1", "d2"), "a1": ("d0",)})
        path = tmp_path / "assignment.csv"
        write_assignment_csv(path, assignment)
        loaded = read_assignment_csv(path)
        assert loaded.docs_by_agent == assignment.docs_by_agent

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "assignment.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(ValidationError):
            read_assignment_csv(path)
