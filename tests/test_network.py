import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from supraflow import (
    DiffusionConstants,
    InterconnectedNetwork,
    InterLayerCoupling,
    LayerGraph,
    NoiseModel,
    SimulationConfig,
    SupraLaplacian,
    ValidationError,
    assemble_supra_laplacian,
    load_network,
    propagate_closed,
    save_network,
    scale_inter_layer,
    simulate_ensemble,
)
from supraflow.network import _json_int, components, network_from_dict, network_to_dict

from conftest import (
    brute_force_supra,
    connected_adjacency,
    dense_coupling,
    random_network,
    single_layer_supra,
)

DENSE_NETWORK = pathlib.Path(__file__).parent / "data" / "network_dense.json"


def two_layer_document(adjacency=None, coupling=None, **fields):
    """A 2 + 1 node network document; ``fields`` add or replace top-level keys."""
    return {
        "layers": [
            {"id": 1, "kind": "agent", "nodes": ["a", "b"],
             "adjacency": adjacency or {"triplets": [[0, 1, 1.0], [1, 0, 1.0]]}},
            {"id": 2, "kind": "information", "nodes": ["d"], "adjacency": {"triplets": []}},
        ],
        "couplings": [{"from": 1, "to": 2, "matrix": coupling or {"triplets": [[0, 0, 2.0]]}}],
        "constants": {"intra": {"1": 1.0, "2": 1.0}, "inter": {"1,2": 1.0}},
        **fields,
    }


def matrices(network):
    return [layer.adjacency.toarray() for layer in network.layers] + [
        c.coupling.toarray() for c in network.couplings
    ]


def layer_laplacian(adjacency):
    """K - W of one layer, read from the intra part of its assembly with constant 1."""
    return single_layer_supra(adjacency)[1].intra_part


class TestBuildLaplacian:
    def test_two_node_symmetric(self):
        out = layer_laplacian([[0, 1], [1, 0]])
        assert np.array_equal(out.toarray(), [[1, -1], [-1, 1]])

    def test_empty_graph(self):
        assert np.array_equal(layer_laplacian(np.zeros((3, 3))).toarray(), np.zeros((3, 3)))

    def test_random_rows_sum_to_zero_and_psd(self):
        rng = np.random.default_rng(0)
        w = rng.random((6, 6))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        lap = layer_laplacian(w)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12
        assert np.linalg.eigvalsh(lap.toarray()).min() >= -1e-12

    def test_directed_rows_still_sum_to_zero(self):
        rng = np.random.default_rng(1)
        w = rng.random((5, 5))
        np.fill_diagonal(w, 0.0)
        lap = layer_laplacian(w)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            layer_laplacian(np.zeros((2, 3)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            layer_laplacian([[0, -1], [1, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            layer_laplacian([[1, 1], [1, 0]])


class TestAssemble:
    def test_three_layer_hand_expansion(self, hand_expanded_fixture):
        network, constants, expected = hand_expanded_fixture
        supra = assemble_supra_laplacian(network, constants)
        assert np.abs(supra.csr.toarray() - expected).max() < 1e-12

    def test_zero_inter_constants_is_block_diagonal(self, hand_expanded_fixture):
        network, _, _ = hand_expanded_fixture
        constants = DiffusionConstants(
            intra={1: 1.5, 2: 0.5, 3: 2.0},
            inter={(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0},
        )
        supra = assemble_supra_laplacian(network, constants)
        expected = np.zeros((6, 6))
        expected[0:2, 0:2] = 1.5 * layer_laplacian([[0, 1], [1, 0]]).toarray()
        expected[4:6, 4:6] = 2.0 * layer_laplacian([[0, 1], [1, 0]]).toarray()
        assert np.abs(supra.csr.toarray() - expected).max() < 1e-12
        assert np.abs(supra.inter_part).max() == 0.0

    def test_matches_brute_force_on_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            network, constants = random_network(rng)
            supra = assemble_supra_laplacian(network, constants)
            assert np.abs(supra.csr.toarray() - brute_force_supra(network, constants)).max() < 1e-12

    def test_missing_intra_constant(self, hand_expanded_fixture):
        network, _, _ = hand_expanded_fixture
        with pytest.raises(ValidationError, match="intra"):
            assemble_supra_laplacian(network, DiffusionConstants(intra={1: 1.0}))

    def test_missing_inter_constant(self, hand_expanded_fixture):
        network, _, _ = hand_expanded_fixture
        constants = DiffusionConstants(intra={1: 1.0, 2: 1.0, 3: 1.0}, inter={(1, 2): 1.0})
        with pytest.raises(ValidationError, match="inter"):
            assemble_supra_laplacian(network, constants)

    def test_undeclared_pair_acts_as_zero_coupling(self):
        l1 = LayerGraph(1, "agent", ("a", "b"), [[0, 1], [1, 0]])
        l2 = LayerGraph(2, "agent", ("a", "b"), [[0, 1], [1, 0]])
        network = InterconnectedNetwork(layers=(l1, l2), couplings=())
        supra = assemble_supra_laplacian(
            network, DiffusionConstants(intra={1: 1.0, 2: 1.0}, inter={(1, 2): 3.0})
        )
        assert np.abs(supra.inter_part).max() == 0.0

    def test_directed_mode_uses_only_declared_directions(self):
        l1 = LayerGraph(1, "agent", ("a", "b"), np.zeros((2, 2)))
        l2 = LayerGraph(2, "information", ("d",), np.zeros((1, 1)))
        coupling = InterLayerCoupling(1, 2, [[1.0], [0.0]])
        network = InterconnectedNetwork(layers=(l1, l2), couplings=(coupling,), symmetric=False)
        constants = DiffusionConstants(
            intra={1: 1.0, 2: 1.0}, inter={(1, 2): 1.0}, symmetric=False
        )
        supra = assemble_supra_laplacian(network, constants)
        # Row block of layer 1 feels the coupling; layer 2's row block does not.
        assert supra.csr.toarray()[0, 2] == -1.0
        assert supra.csr.toarray()[2, 0] == 0.0
        assert np.abs(supra.csr.toarray().sum(axis=1)).max() < 1e-12

    def test_coupling_dimension_mismatch(self):
        l1 = LayerGraph(1, "agent", ("a", "b"), np.zeros((2, 2)))
        l2 = LayerGraph(2, "information", ("d",), np.zeros((1, 1)))
        with pytest.raises(ValidationError, match="shape"):
            InterconnectedNetwork(
                layers=(l1, l2),
                couplings=(InterLayerCoupling(1, 2, np.ones((2, 2))),),
            )

    def test_duplicate_coupling_pair(self):
        l1 = LayerGraph(1, "agent", ("a", "b"), np.zeros((2, 2)))
        l2 = LayerGraph(2, "information", ("d",), np.zeros((1, 1)))
        c = InterLayerCoupling(1, 2, np.ones((2, 1)))
        with pytest.raises(ValidationError, match="duplicate"):
            InterconnectedNetwork(layers=(l1, l2), couplings=(c, c))


class TestOperatorProperties:
    def test_property_suite_on_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            network, constants = random_network(rng)
            supra = assemble_supra_laplacian(network, constants)
            scale = 1.0 + np.abs(supra.csr.toarray()).max()
            for part in (supra.csr.toarray(), supra.intra_part, supra.inter_part):
                assert np.abs(part.sum(axis=1)).max() / scale < 1e-10
            assert np.abs(supra.csr.toarray() - supra.intra_part - supra.inter_part).max() < 1e-12
            assert np.abs(supra.csr.toarray() - supra.csr.toarray().T).max() < 1e-12
            assert np.linalg.eigvalsh(supra.csr.toarray()).min() > -1e-10
            # With the inter part removed, one zero eigenvalue per connected layer.
            intra_only = scale_inter_layer(supra, 0.0)
            eigenvalues = np.linalg.eigvalsh(intra_only.csr.toarray())
            kernel = (eigenvalues < 1e-9 * max(np.abs(eigenvalues).max(), 1e-12)).sum()
            assert kernel == len(network.layers)


def p160_network():
    """Two 40-node agent layers and an 80-node information layer, all coupled."""
    rng = np.random.default_rng(160)
    sizes = {1: 40, 2: 40, 3: 80}
    layers = tuple(
        LayerGraph(lid, "agent" if lid < 3 else "information",
                   tuple(f"n{i}" for i in range(n)), connected_adjacency(rng, n, 0.05))
        for lid, n in sizes.items()
    )
    couplings = (
        InterLayerCoupling(1, 2, np.eye(40)),
        InterLayerCoupling(1, 3, (rng.random((40, 80)) < 0.05).astype(float)),
        InterLayerCoupling(2, 3, (rng.random((40, 80)) < 0.05).astype(float)),
    )
    constants = DiffusionConstants(
        intra={1: 0.05, 2: 0.05, 3: 0.02}, inter={(1, 2): 0.05, (1, 3): 0.08, (2, 3): 0.06}
    )
    return InterconnectedNetwork(layers=layers, couplings=couplings), constants


class TestSupraLaplacianStorage:
    def test_only_the_parts_and_the_node_labels_are_stored(self):
        fields = {f.name for f in dataclasses.fields(SupraLaplacian)}
        assert fields == {"intra_part", "inter_part", "node_index", "layer_ids"}

    def test_parts_and_sum_are_read_only_and_the_sum_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            supra = assemble_supra_laplacian(*random_network(rng))
            arrays = []
            for part in (supra.intra_part, supra.inter_part):
                assert isinstance(part, scipy.sparse.csr_array) and part.has_canonical_format
                arrays += [part.data, part.indices, part.indptr]
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[:1] = 1
            dense_sum = supra.intra_part.toarray() + supra.inter_part.toarray()
            assert supra.csr.toarray().tobytes() == dense_sum.tobytes()
            with pytest.raises(dataclasses.FrozenInstanceError):
                supra.csr = supra.intra_part

    def test_csr_is_the_sparse_form_of_the_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            supra = assemble_supra_laplacian(*random_network(rng))
            expected = scipy.sparse.csr_array(supra.intra_part.toarray() + supra.inter_part.toarray())
            for got, want in (
                (supra.csr.data, expected.data),
                (supra.csr.indices, expected.indices),
                (supra.csr.indptr, expected.indptr),
            ):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_scale_inter_layer_shares_the_intra_part(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        supra = assemble_supra_laplacian(network, constants)
        assert scale_inter_layer(supra, 0.3).intra_part is supra.intra_part

    def test_a_callers_writeable_arrays_are_copied(self):
        intra = np.array([[1.0, -1.0], [-1.0, 1.0]])
        inter = np.zeros((2, 2))
        supra = SupraLaplacian(
            intra_part=intra, inter_part=inter, node_index={(1, "a"): 0, (1, "b"): 1},
            layer_ids=(1,),
        )
        intra[0, 0] = inter[0, 0] = 5.0
        assert supra.intra_part[0, 0] == 1.0 and supra.inter_part[0, 0] == 0.0
        assert supra.csr.toarray()[0, 0] == 1.0
        sparse = scipy.sparse.csr_array(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        supra = dataclasses.replace(supra, intra_part=sparse)
        sparse.data[:] = 5.0
        assert supra.intra_part[0, 0] == 1.0 and supra.intra_part is not sparse

    def test_parts_must_match_the_node_index(self):
        with pytest.raises(ValidationError, match="node index"):
            SupraLaplacian(
                intra_part=np.zeros((2, 2)), inter_part=np.zeros((3, 3)),
                node_index={(1, "a"): 0, (1, "b"): 1}, layer_ids=(1,),
            )

    def test_applying_the_operator_forms_no_dense_sum(self):
        network, constants = random_network(np.random.default_rng(5))
        supra = assemble_supra_laplacian(network, constants)
        x0 = np.ones((supra.n_nodes, 2))
        propagate_closed(x0, supra, 0.5)
        simulate_ensemble(
            x0, supra, NoiseModel(sigma=0.01 * x0, seed=1), SimulationConfig(dt=0.01, horizon=0.05)
        )
        assert "matrix" not in vars(supra)

    def test_loading_assembling_and_applying_form_no_dense_p_by_p_array(self, tmp_path):
        n = 500  # two ring layers joined node to node: P = 1000
        ring = np.arange(n)
        adjacency = scipy.sparse.csr_array(
            (np.ones(2 * n), (np.r_[ring, ring], np.r_[(ring + 1) % n, (ring - 1) % n])),
            shape=(n, n),
        )
        layers = tuple(
            LayerGraph(k, "agent", tuple(f"a{i}" for i in range(n)), adjacency) for k in (1, 2)
        )
        coupling = InterLayerCoupling(1, 2, scipy.sparse.eye_array(n, format="csr"))
        path = tmp_path / "network.json"
        save_network(
            path,
            InterconnectedNetwork(layers, (coupling,)),
            DiffusionConstants(intra={1: 1.0, 2: 1.0}, inter={(1, 2): 0.5}),
        )
        p = 2 * n
        x0 = np.random.default_rng(0).random((p, 2))
        noise = NoiseModel(sigma=0.01 * x0, seed=1)
        config = SimulationConfig(dt=0.01, horizon=0.05, ensemble_size=2)
        tracemalloc.start()
        try:
            supra = assemble_supra_laplacian(*load_network(path))
            propagate_closed(x0, supra, 0.5)
            simulate_ensemble(x0, supra, noise, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert supra.n_nodes == p and "matrix" not in vars(supra)
        assert peak < p * p * 8 / 4

    def test_assembly_peak_memory_is_below_three_and_a_half_operators(self):
        network, constants = p160_network()
        p = network.n_nodes
        tracemalloc.start()
        try:
            supra = assemble_supra_laplacian(network, constants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == supra.n_nodes == 160
        assert peak < 3.5 * p * p * 8


class TestComponents:
    def test_labels_run_in_order_of_lowest_node(self):
        adjacency = np.zeros((6, 6))
        adjacency[0, 3] = adjacency[3, 0] = 1.0
        adjacency[1, 4] = 2.0  # one direction is enough
        adjacency[4, 5] = 0.5
        assert components(adjacency).tolist() == [0, 1, 2, 0, 1, 1]

    def test_laplacian_has_the_components_of_its_adjacency(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            upper = np.triu(rng.random((7, 7)) < 0.3, k=1).astype(float)
            adjacency = upper + upper.T
            assert (components(layer_laplacian(adjacency)) == components(adjacency)).all()

    def test_any_nonzero_weight_is_a_link(self):
        assert components(layer_laplacian([[0, 1e-300], [1e-300, 0]])).tolist() == [0, 0]
        assert components(np.zeros((3, 3))).tolist() == [0, 1, 2]


class TestScaleInterLayer:
    def test_epsilon_one_is_identity(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        supra = assemble_supra_laplacian(network, constants)
        scaled = scale_inter_layer(supra, 1.0)
        assert np.array_equal(scaled.csr.toarray(), supra.csr.toarray())

    def test_epsilon_zero_is_intra_part(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        supra = assemble_supra_laplacian(network, constants)
        scaled = scale_inter_layer(supra, 0.0)
        assert np.array_equal(scaled.csr.toarray(), supra.intra_part.toarray())

    def test_half_scaling_matches_independent_reassembly(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        supra = assemble_supra_laplacian(network, constants)
        scaled = scale_inter_layer(supra, 0.5)
        halved = DiffusionConstants(
            intra=constants.intra,
            inter={key: 0.5 * value for key, value in constants.inter.items()},
        )
        assert np.abs(scaled.csr.toarray() - brute_force_supra(network, halved)).max() < 1e-12
        assert np.abs(scaled.csr.toarray() - scaled.intra_part - scaled.inter_part).max() < 1e-12

    def test_negative_epsilon_rejected(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        supra = assemble_supra_laplacian(network, constants)
        with pytest.raises(ValidationError):
            scale_inter_layer(supra, -0.1)


class TestLayerValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            LayerGraph(1, "agent", ("a", "b"), [[0, -1], [1, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            LayerGraph(1, "agent", ("a", "b"), [[1, 0], [0, 0]])

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValidationError):
            LayerGraph(1, "agent", ("a", "a"), np.zeros((2, 2)))

    def test_symmetric_constants_must_agree(self):
        with pytest.raises(ValidationError):
            DiffusionConstants(intra={1: 1.0}, inter={(1, 2): 1.0, (2, 1): 2.0})

    def test_directed_constants_may_differ(self):
        constants = DiffusionConstants(
            intra={1: 1.0}, inter={(1, 2): 1.0, (2, 1): 2.0}, symmetric=False
        )
        assert constants.inter_for(2, 1) == 2.0


class TestNetworkJson:
    def test_round_trip(self, tmp_path, hand_expanded_fixture):
        network, constants, expected = hand_expanded_fixture
        path = tmp_path / "network.json"
        save_network(path, network, constants)
        loaded, loaded_constants = load_network(path)
        supra = assemble_supra_laplacian(loaded, loaded_constants)
        assert np.abs(supra.csr.toarray() - expected).max() < 1e-12
        assert loaded.node_order == network.node_order

    def test_triplet_matrices(self):
        network, constants = network_from_dict(two_layer_document())
        assert np.array_equal(network.layer(1).adjacency.toarray(), [[0, 1], [1, 0]])
        assert dense_coupling(network, 1, 2)[0, 0] == 2.0
        assert constants.inter_for(2, 1) == 1.0

    def test_writes_only_triplets_of_the_nonzero_entries(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        data = network_to_dict(network, constants)
        assert data["layers"][0]["adjacency"] == {"triplets": [[0, 1, 1.0], [1, 0, 1.0]]}
        assert data["layers"][1]["adjacency"] == {"triplets": []}
        assert data["couplings"][1]["matrix"] == {"triplets": [[0, 0, 1.0], [0, 1, 1.0], [1, 1, 1.0]]}

    @pytest.mark.parametrize(
        "triplets, message",
        [
            ([[0, 1]], "row, col, weight"),
            ([[0, 1, 1.0], [1, 0]], "row, col, weight"),
            ([[0, 2, 1.0]], "out of bounds"),
            ([[-1, 0, 1.0]], "out of bounds"),
            ([[0.5, 1, 1.0]], "must be integers"),
            ([[0, 1, 1.0], [0, 1, 2.0]], "appears in two triplets"),
            ([[0, 1, "x"]], "row, col, weight"),
            ([[0, 1, 10**400]], "row, col, weight"),
            ([[[0, 1, 1.0]]], "row, col, weight"),
        ],
    )
    def test_rejects_malformed_triplets(self, triplets, message):
        with pytest.raises(ValidationError, match=message):
            network_from_dict(two_layer_document(adjacency={"triplets": triplets}))

    def test_rejects_a_sparse_object_without_triplets(self):
        with pytest.raises(ValidationError, match="'triplets' field"):
            network_from_dict(two_layer_document(coupling={"entries": []}))

    @pytest.mark.parametrize("value", ["false", 1])
    def test_symmetric_flags_must_be_json_booleans(self, value):
        with pytest.raises(ValidationError, match="document field 'symmetric'.*true or false"):
            network_from_dict(two_layer_document(symmetric=value))
        data = two_layer_document()
        data["constants"]["symmetric"] = value
        with pytest.raises(ValidationError, match="constants field 'symmetric'.*true or false"):
            network_from_dict(data)

    @pytest.mark.parametrize("value", [True, 5.9, "5", float("inf"), None])
    def test_integer_fields_reject_bools_strings_and_fractions(self, value):
        with pytest.raises(ValidationError, match="integer"):
            _json_int(value)

    @pytest.mark.parametrize("value, expected", [(5, 5), (-3, -3), (5.0, 5), (0.0, 0)])
    def test_integer_fields_read_integral_numbers(self, value, expected):
        read = _json_int(value)
        assert read == expected and type(read) is int

    @pytest.mark.parametrize("value", [1.7, True, "1"])
    @pytest.mark.parametrize(
        "part, field", [("layers", "id"), ("couplings", "from"), ("couplings", "to")]
    )
    def test_layer_ids_and_coupling_endpoints_must_be_json_integers(self, part, field, value):
        data = two_layer_document()
        data[part][0][field] = value
        what = "layer" if part == "layers" else "coupling"
        with pytest.raises(ValidationError, match=f"{what} field '{field}'.*JSON integer"):
            network_from_dict(data)

    def test_symmetric_flags_read_false(self):
        data = two_layer_document(symmetric=False)
        data["constants"]["symmetric"] = False
        network, constants = network_from_dict(data)
        assert network.symmetric is False and constants.symmetric is False


    def test_rejects_unknown_layer_in_coupling(self):
        data = {
            "layers": [{"id": 1, "kind": "agent", "nodes": ["a"], "adjacency": [[0.0]]}],
            "couplings": [{"from": 1, "to": 9, "matrix": [[1.0]]}],
        }
        with pytest.raises(ValidationError):
            network_from_dict(data)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_network(path)

    def test_rejects_negative_weights(self):
        data = {
            "layers": [
                {"id": 1, "kind": "agent", "nodes": ["a", "b"],
                 "adjacency": [[0.0, -1.0], [0.0, 0.0]]}
            ]
        }
        with pytest.raises(ValidationError):
            network_from_dict(data)

    def test_to_dict_is_sorted_and_plain(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        data = network_to_dict(network, constants)
        assert data["constants"]["inter"] == {"1,2": 1.0, "1,3": 1.0, "2,3": 1.0}


class TestDenseNetworkFile:
    """``network_dense.json`` was written by the dense-row writer that preceded
    triplets, from the hand-expanded fixture and its constants."""

    def test_loads_to_the_fixture(self, hand_expanded_fixture):
        network, constants, _ = hand_expanded_fixture
        loaded, loaded_constants = load_network(DENSE_NETWORK)
        assert loaded_constants == constants
        assert loaded.symmetric == network.symmetric
        assert loaded.node_order == network.node_order
        assert [(c.from_layer, c.to_layer) for c in loaded.couplings] == [
            (c.from_layer, c.to_layer) for c in network.couplings
        ]
        for got, want in zip(matrices(loaded), matrices(network), strict=True):
            assert np.array_equal(got, want)

    def test_resaves_as_triplets_with_identical_matrices(self, tmp_path):
        loaded, constants = load_network(DENSE_NETWORK)
        path = tmp_path / "network.json"
        save_network(path, loaded, constants)
        data = json.loads(path.read_text())
        written = [layer["adjacency"] for layer in data["layers"]]
        written += [c["matrix"] for c in data["couplings"]]
        assert all(set(m) == {"triplets"} for m in written)
        reloaded, _ = load_network(path)
        for got, want in zip(matrices(reloaded), matrices(loaded), strict=True):
            assert got.tobytes() == want.tobytes()
