import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

from supraflow import (
    LayerKind,
    LayerSpec,
    SyntheticSpec,
    ValidationError,
    assemble_supra_laplacian,
    generate_synthetic,
    load_network,
    propagate_closed,
    save_network,
)
from supraflow.network import MAX_NODES
from supraflow.synthetic import synthetic_spec_from_dict

from conftest import dense_coupling
from test_states import loop_knn_similarity


def small_spec(**overrides):
    base = dict(
        layers=(
            LayerSpec("agent", 6, "erdos_renyi", edge_prob=0.5),
            LayerSpec("agent", 6, "erdos_renyi", edge_prob=0.5),
            LayerSpec("information", 10, "knn", k_neighbors=2),
        ),
        n_topics=3,
        n_snapshots=5,
        spacing=0.5,
        train_count=3,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateSynthetic:
    def test_same_seed_same_dataset(self):
        a_net, a_series, a_truth = generate_synthetic(small_spec(), seed=11)
        b_net, b_series, b_truth = generate_synthetic(small_spec(), seed=11)
        assert a_net.node_order == b_net.node_order
        for la, lb in zip(a_net.layers, b_net.layers):
            assert np.array_equal(la.adjacency.toarray(), lb.adjacency.toarray())
        for sa, sb in zip(a_series.snapshots, b_series.snapshots):
            assert np.array_equal(sa.matrix, sb.matrix)
        assert np.array_equal(a_truth.sigma, b_truth.sigma)

    def test_noisy_history_memory_is_bounded_by_the_snapshot_count(self):
        # dt = 1e-4 takes 10^4 Euler-Maruyama steps per spacing; keeping them
        # all would take 20001 x 22 x 3 doubles, about 10.6 MB.
        spec = small_spec(sigma_ratio=0.01, dt=1e-4, n_snapshots=3, spacing=1.0)
        tracemalloc.start()
        try:
            _, series, _ = generate_synthetic(spec, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series.snapshots) == 3
        assert peak < 1_000_000

    def test_different_seed_different_dataset(self):
        a_net, _, _ = generate_synthetic(small_spec(), seed=11)
        b_net, _, _ = generate_synthetic(small_spec(), seed=12)
        assert any(
            not np.array_equal(la.adjacency.toarray(), lb.adjacency.toarray())
            for la, lb in zip(a_net.layers, b_net.layers)
        )

    def test_noise_free_snapshots_satisfy_semigroup(self):
        network, series, truth = generate_synthetic(small_spec(), seed=13)
        supra = assemble_supra_laplacian(network, truth.constants)
        x0 = series.snapshots[0]
        two_steps = propagate_closed(x0.matrix, supra, 2 * 0.5)
        assert np.abs(series.snapshots[2].matrix - two_steps).max() < 1e-10

    def test_agent_layers_are_replicas(self):
        network, series, truth = generate_synthetic(small_spec(), seed=14)
        x0 = series.snapshots[0].matrix
        block1 = network.layer_slices[1]
        block2 = network.layer_slices[2]
        assert np.array_equal(x0[block1], x0[block2])
        assert network.layer(1).node_ids == network.layer(2).node_ids

    def test_agent_states_average_their_documents(self):
        network, series, truth = generate_synthetic(small_spec(), seed=15)
        x0 = series.snapshots[0].matrix
        doc_rows = x0[network.layer_slices[3]]
        agent_block = x0[network.layer_slices[1]]
        ownership = dense_coupling(network, 1, 3)
        assert np.array_equal(ownership.sum(axis=0), np.ones(doc_rows.shape[0]))
        for i in range(agent_block.shape[0]):
            owned = np.flatnonzero(ownership[i])
            if owned.size:
                expected = np.mean([doc_rows[j] for j in owned], axis=0)
                assert np.abs(agent_block[i] - expected).max() < 1e-12
            else:
                assert np.abs(agent_block[i]).max() == 0.0

    def test_agents_average_documents_across_information_layers(self):
        # Five documents over eight agents: some agents own nothing.
        spec = small_spec(
            layers=(
                LayerSpec("agent", 8, "erdos_renyi", edge_prob=0.5),
                LayerSpec("information", 3, "complete"),
                LayerSpec("information", 2, "complete"),
            )
        )
        network, series, truth = generate_synthetic(spec, seed=22)
        x0 = series.snapshots[0].matrix
        docs = np.vstack([x0[network.layer_slices[2]], x0[network.layer_slices[3]]])
        ownership = np.hstack(
            [dense_coupling(network, 1, 2), dense_coupling(network, 1, 3)]
        )
        agent_block = x0[network.layer_slices[1]]
        owns_none = ownership.sum(axis=1) == 0
        assert owns_none.any()
        assert np.abs(agent_block[owns_none]).max() == 0.0
        for i in np.flatnonzero(~owns_none):
            expected = docs[ownership[i] == 1].mean(axis=0)
            assert np.abs(agent_block[i] - expected).max() < 1e-12

    def test_sigma_ratio_planted_exactly(self):
        network, series, truth = generate_synthetic(
            small_spec(sigma_ratio=0.3, n_snapshots=3), seed=16
        )
        x0 = series.snapshots[0].matrix
        assert np.linalg.norm(truth.sigma) / np.linalg.norm(x0) == pytest.approx(0.3)

    def test_sigma_nodes_restrict_noise_rows(self):
        network, series, truth = generate_synthetic(
            small_spec(sigma_nodes=4, sigma_scale=0.1, n_snapshots=3), seed=17
        )
        assert np.all(truth.sigma[:4] == 0.1)
        assert np.abs(truth.sigma[4:]).max() == 0.0

    def test_disconnected_spec_fails_after_retries(self):
        spec = small_spec(
            layers=(
                LayerSpec("agent", 4, "empty"),
                LayerSpec("information", 6, "knn", k_neighbors=2),
            )
        )
        with pytest.raises(ValidationError, match="connected"):
            generate_synthetic(spec, seed=18)

    def test_disconnected_allowed_when_not_required(self):
        spec = small_spec(
            layers=(
                LayerSpec("agent", 4, "empty"),
                LayerSpec("information", 6, "knn", k_neighbors=2),
            ),
            require_connected=False,
        )
        network, series, truth = generate_synthetic(spec, seed=18)
        assert np.abs(network.layer(1).adjacency).max() == 0.0

    def test_knn_layer_with_tied_distances_is_the_row_loop_graph(self, monkeypatch):
        # Every uniform draw rounded down to eighths puts the documents on a
        # grid, so distances tie and some documents coincide.
        default_rng = np.random.default_rng

        class GridGenerator:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def random(self, size=None):
                return np.floor(self._rng.random(size) * 8) / 8

            def __getattr__(self, name):
                return getattr(self._rng, name)

        monkeypatch.setattr(np.random, "default_rng", GridGenerator)
        spec = small_spec(
            layers=(
                LayerSpec("agent", 6, "erdos_renyi", edge_prob=0.5),
                LayerSpec("information", 60, "knn", k_neighbors=3),
            ),
            n_topics=2,
        )
        network, series, _ = generate_synthetic(spec, seed=22)
        docs = series.snapshots[0].matrix[network.layer_slices[2]]
        assert len(np.unique(docs, axis=0)) < len(docs)
        expected = scipy.sparse.csr_array(loop_knn_similarity(docs, 3))
        adjacency = network.layer(2).adjacency
        for part in ("indptr", "indices", "data"):
            assert getattr(adjacency, part).tobytes() == getattr(expected, part).tobytes()

    def test_network_file_reloads_to_equal_layers(self, tmp_path):
        network, _, truth = generate_synthetic(small_spec(), seed=23)
        save_network(tmp_path / "network.json", network, truth.constants)
        assert len((tmp_path / "network.json").read_text().splitlines()) == 1
        loaded, constants = load_network(tmp_path / "network.json")
        assert constants == truth.constants
        for layer, back in zip(network.layers, loaded.layers):
            assert (back.layer_id, back.kind, back.node_ids) == (
                layer.layer_id, layer.kind, layer.node_ids
            )
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(back.adjacency, part), getattr(layer.adjacency, part))

    def test_document_corpus_shapes(self):
        # Author/publication-corpus shape: two replica agent layers, one
        # large document layer, ten topics.
        spec = SyntheticSpec(
            layers=(
                LayerSpec("agent", 79, "erdos_renyi", edge_prob=0.08),
                LayerSpec("agent", 79, "erdos_renyi", edge_prob=0.08),
                LayerSpec("information", 1000, "knn", k_neighbors=4),
            ),
            n_topics=10,
            intra_constants={1: 0.05, 2: 0.05, 3: 0.001},
            inter_constants={(1, 2): 0.05, (1, 3): 0.05, (2, 3): 0.05},
            n_snapshots=3,
            train_count=2,
        )
        network, series, truth = generate_synthetic(spec, seed=19)
        assert network.n_nodes == 79 + 79 + 1000
        agent, information = LayerKind.AGENT, LayerKind.INFORMATION
        assert [layer.kind for layer in network.layers] == [agent, agent, information]
        assert series.snapshots[0].matrix.shape == (1158, 10)

    def test_noisy_generation_uses_requested_substeps(self):
        gentle = {1: 0.02, 2: 0.02, 3: 0.005}
        spec = small_spec(
            sigma_ratio=0.1, n_snapshots=4, spacing=0.5, dt=0.1,
            intra_constants=gentle,
            inter_constants={(1, 2): 0.02, (1, 3): 0.02, (2, 3): 0.02},
        )
        network, series, truth = generate_synthetic(spec, seed=20)
        times = [s.timestamp for s in series.snapshots]
        assert times == [0.0, 0.5, 1.0, 1.5]
        assert truth.sigma_ratio > 0

    def test_noisy_generation_takes_enough_substeps_for_a_stiff_operator(self):
        # One requested step per spacing is far too long for this operator
        # (norm about 60); the generator takes more instead of warning.
        spec = small_spec(sigma_ratio=0.1, n_snapshots=3, dt=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            network, series, truth = generate_synthetic(spec, seed=21)
        supra = assemble_supra_laplacian(network, truth.constants)
        assert np.abs(supra.csr.toarray()).sum(axis=1).max() * spec.dt >= 1
        assert [s.timestamp for s in series.snapshots] == [0.0, 0.5, 1.0]


class TestSpecParsing:
    def test_from_dict(self):
        spec = synthetic_spec_from_dict(
            {
                "layers": [
                    {"kind": "agent", "n": 5, "model": "erdos_renyi", "p": 0.4},
                    {"kind": "information", "n": 7, "model": "knn", "k": 2},
                ],
                "n_topics": 4,
                "intra_constants": {"1": 0.5},
                "inter_constants": {"1,2": 0.25},
                "sigma_ratio": 0.1,
                "n_snapshots": 6,
                "train_count": 3,
            }
        )
        assert spec.layers[0].n_nodes == 5
        assert spec.layers[1].k_neighbors == 2
        assert spec.intra_constants == {1: 0.5}
        assert spec.inter_constants == {(1, 2): 0.25}
        assert spec.train_count == 3

    def test_absent_fields_take_the_dataclass_defaults(self):
        spec = synthetic_spec_from_dict({"layers": [{"kind": "agent", "n": 3}]})
        assert spec == SyntheticSpec(layers=(LayerSpec("agent", 3),))

    @pytest.mark.parametrize("value", ["false", 1])
    def test_require_connected_must_be_a_json_boolean(self, value):
        data = {"layers": [{"kind": "agent", "n": 3}], "require_connected": value}
        with pytest.raises(ValidationError, match="'require_connected'.*true or false"):
            synthetic_spec_from_dict(data)

    @pytest.mark.parametrize(
        "layer, fields",
        [
            ({"n": 4.6}, {}),
            ({"n": True}, {}),
            ({"n": "4"}, {}),
            ({"n": 4, "k": 2.5}, {}),
            ({"n": 4}, {"n_topics": 2.5}),
            ({"n": 4}, {"n_snapshots": "8"}),
            ({"n": 4}, {"sigma_nodes": False}),
            ({"n": 4}, {"train_count": 3.5}),
        ],
    )
    def test_integer_fields_must_be_integers(self, layer, fields):
        data = {"layers": [{"kind": "agent", **layer}], **fields}
        rejected = list(fields or layer)[-1]
        with pytest.raises(ValidationError, match=f"field '{rejected}' .*integer"):
            synthetic_spec_from_dict(data)

    def test_require_connected_reads_false(self):
        data = {"layers": [{"kind": "agent", "n": 3}], "require_connected": False}
        assert synthetic_spec_from_dict(data).require_connected is False

    def test_missing_layer_fields_rejected(self):
        with pytest.raises(ValidationError):
            synthetic_spec_from_dict({"layers": [{"kind": "agent"}]})

    def test_invalid_spec_values_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(layers=(LayerSpec("agent", 3),), n_snapshots=1)
        with pytest.raises(ValidationError):
            SyntheticSpec(
                layers=(LayerSpec("agent", 3), LayerSpec("agent", 4)),
            )
        with pytest.raises(ValidationError):
            LayerSpec("agent", 3, model="mystery")

    @pytest.mark.parametrize(
        "layers",
        [
            (LayerSpec("agent", MAX_NODES + 1),),
            (LayerSpec("agent", MAX_NODES // 2), LayerSpec("information", MAX_NODES // 2 + 1)),
        ],
    )
    def test_node_count_above_the_cap_rejected_by_the_spec(self, layers):
        # Only the spec is built: no layer is drawn.
        with pytest.raises(ValidationError, match=f"{MAX_NODES + 1} exceeds the cap"):
            SyntheticSpec(layers=layers)
