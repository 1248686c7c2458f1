import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas

from supraflow import (
    DiffusionConstants,
    InterconnectedNetwork,
    InterLayerCoupling,
    LayerGraph,
    ValidationError,
    assemble_supra_laplacian,
    connectivity_sweep,
    lambda2_perturbation_estimate,
    scale_inter_layer,
    spectrum,
)
from supraflow.network import components
from supraflow.spectral import _lambda2, _layer_kernel_basis, write_sweep_csv
from conftest import connected_adjacency, single_layer_supra


from conftest import heterogeneous_network


def two_layer_multiplex(n, rng=None, adjacency=None, coupling_weight=1.0):
    if adjacency is None:
        adjacency = connected_adjacency(rng, n)
    l1 = LayerGraph(1, "agent", tuple(f"a{i}" for i in range(n)), adjacency)
    l2 = LayerGraph(2, "agent", tuple(f"a{i}" for i in range(n)), adjacency)
    network = InterconnectedNetwork(
        layers=(l1, l2),
        couplings=(InterLayerCoupling(1, 2, coupling_weight * np.eye(n)),),
    )
    constants = DiffusionConstants(intra={1: 1.0, 2: 1.0}, inter={(1, 2): 1.0})
    return network, constants


class TestSpectrum:
    def test_path_graph_eigenvalues(self):
        _, supra = single_layer_supra([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert components(supra.csr.toarray()).tolist() == [0, 0, 0]
        assert spectrum(supra).lambda2 == pytest.approx(1.0, rel=1e-12)

    def test_complete_graph_lambda2(self):
        for n in (3, 5, 8):
            _, supra = single_layer_supra(np.ones((n, n)) - np.eye(n))
            assert spectrum(supra).lambda2 == pytest.approx(n, abs=1e-9)

    def test_disconnected_layers_have_kernel_dim_two(self):
        network, constants = two_layer_multiplex(3, rng=np.random.default_rng(0))
        supra = assemble_supra_laplacian(network, constants)
        decoupled = scale_inter_layer(supra, 0.0)
        assert components(decoupled.csr.toarray()).max() + 1 == 2
        assert spectrum(decoupled).lambda2 == 0.0

    def test_null_basis_spans_intra_kernel(self):
        rng = np.random.default_rng(1)
        network, constants = two_layer_multiplex(4, rng=rng)
        supra = assemble_supra_laplacian(network, constants)
        basis = _layer_kernel_basis(supra)
        assert basis.shape == (8, 2)
        assert np.abs(supra.intra_part @ basis).max() < 1e-9

    def test_rejects_non_symmetric(self):
        rng = np.random.default_rng(2)
        w = rng.random((4, 4))
        np.fill_diagonal(w, 0.0)
        _, supra = single_layer_supra(w)
        with pytest.raises(ValidationError, match="symmetric"):
            spectrum(supra)


class TestPerturbationEstimate:
    def test_zero_epsilon(self):
        network, constants = two_layer_multiplex(2, adjacency=[[0, 1], [1, 0]])
        supra = assemble_supra_laplacian(network, constants)
        assert lambda2_perturbation_estimate(supra, 0.0) == 0.0

    def test_two_layer_toy_matches_direct_eigendecomposition(self):
        network, constants = two_layer_multiplex(2, adjacency=[[0, 1], [1, 0]])
        supra = assemble_supra_laplacian(network, constants)
        for epsilon in (0.01, 0.005, 0.001):
            estimate = lambda2_perturbation_estimate(supra, epsilon)
            actual = np.linalg.eigvalsh(scale_inter_layer(supra, epsilon).csr.toarray())[1]
            assert abs(estimate - actual) / actual < 0.05

    def test_linear_in_epsilon(self):
        rng = np.random.default_rng(3)
        network, constants = two_layer_multiplex(4, rng=rng)
        supra = assemble_supra_laplacian(network, constants)
        one = lambda2_perturbation_estimate(supra, 1e-3)
        two = lambda2_perturbation_estimate(supra, 2e-3)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_first_order_error_shrinks_with_epsilon(self):
        rng = np.random.default_rng(4)
        network, constants = heterogeneous_network(rng)
        supra = assemble_supra_laplacian(network, constants)
        ratios = []
        for epsilon in (1e-2, 1e-3, 1e-4):
            actual = np.linalg.eigvalsh(scale_inter_layer(supra, epsilon).csr.toarray())[1]
            estimate = lambda2_perturbation_estimate(supra, epsilon)
            ratios.append(abs(actual - estimate) / epsilon)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_disconnected_intra_layer_rejected(self):
        l1 = LayerGraph(1, "agent", ("a", "b"), np.zeros((2, 2)))
        l2 = LayerGraph(2, "agent", ("a", "b"), [[0, 1], [1, 0]])
        network = InterconnectedNetwork(
            layers=(l1, l2), couplings=(InterLayerCoupling(1, 2, np.eye(2)),)
        )
        constants = DiffusionConstants(intra={1: 1.0, 2: 1.0}, inter={(1, 2): 1.0})
        supra = assemble_supra_laplacian(network, constants)
        with pytest.raises(ValidationError, match="connected"):
            lambda2_perturbation_estimate(supra, 0.01)

    def test_single_layer_rejected(self):
        _, supra = single_layer_supra([[0, 1], [1, 0]])
        with pytest.raises(ValidationError, match="2 layers"):
            lambda2_perturbation_estimate(supra, 0.01)


def assert_matches_dense_lambda2(point, supra):
    """The sweep's lambda_2 agrees with dense eigvalsh at the sweep's zero-floor scale."""
    scaled = scale_inter_layer(supra, point.epsilon).csr.toarray()
    reference = np.linalg.eigvalsh(scaled)[1]
    assert abs(point.lambda2_actual - reference) <= 1e-12 * (1.0 + np.abs(scaled).max())


def path_adjacency(n):
    return np.eye(n, k=1) + np.eye(n, k=-1)


class TestConnectivitySweep:
    def test_zero_grid(self):
        network, constants = two_layer_multiplex(2, adjacency=[[0, 1], [1, 0]])
        points = connectivity_sweep(network, constants, [0.0])
        assert points[0].lambda2_actual == 0.0
        assert points[0].lambda2_estimate == 0.0
        assert points[0].rel_error == 0.0

    def test_small_epsilon_grid_accuracy(self):
        rng = np.random.default_rng(6)
        network, constants = two_layer_multiplex(4, rng=rng)
        grid = np.linspace(0.001, 0.01, 10)
        points = connectivity_sweep(network, constants, grid)
        assert max(p.rel_error for p in points) < 0.05

    def test_actual_lambda2_monotone_in_epsilon(self):
        rng = np.random.default_rng(7)
        network, constants = two_layer_multiplex(4, rng=rng)
        grid = np.linspace(0.0, 0.5, 8)
        points = connectivity_sweep(network, constants, grid)
        actual = [p.lambda2_actual for p in points]
        assert all(a <= b + 1e-12 for a, b in zip(actual, actual[1:]))

    def test_one_cholesky_factorization_per_positive_epsilon(self, monkeypatch):
        network, constants = two_layer_multiplex(4, rng=np.random.default_rng(8))
        supra = assemble_supra_laplacian(network, constants)
        cho_factor, eigvalsh = scipy.linalg.cho_factor, np.linalg.eigvalsh
        factored, solved = [], []

        def recording_factor(matrix, *args, **kwargs):
            factored.append(np.shape(matrix))
            return cho_factor(matrix, *args, **kwargs)

        def recording_eigvalsh(matrix, *args, **kwargs):
            solved.append(np.shape(matrix))
            return eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", recording_factor)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        connectivity_sweep(network, constants, [0.0, 0.01, 0.1])
        spectrum(supra)
        assert factored == [(8, 8)] * 3
        assert (8, 8) not in solved

    @pytest.mark.parametrize("epsilon", [1.0, 10.0])
    def test_identical_path_layers_find_the_within_layer_fiedler_vector(self, epsilon):
        # lambda_2 = 2 - 2 cos(pi / 6) belongs to (f, f) with f the path's
        # Fiedler vector, orthogonal to every layer indicator.
        network, constants = two_layer_multiplex(6, adjacency=path_adjacency(6))
        supra = assemble_supra_laplacian(network, constants)
        point = connectivity_sweep(network, constants, [epsilon])[0]
        assert point.lambda2_actual == pytest.approx(2 - 2 * np.cos(np.pi / 6), rel=1e-12)
        assert_matches_dense_lambda2(point, supra)

    def test_lanczos_solves_match_eigvalsh_on_the_fortran_factor(self, monkeypatch):
        dtrsv = scipy.linalg.blas.dtrsv
        factors = []

        def recording_dtrsv(a, x, *args, **kwargs):
            factors.append(a)
            return dtrsv(a, x, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.blas, "dtrsv", recording_dtrsv)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            network, constants = two_layer_multiplex(5 + seed, rng=rng)
            supra = assemble_supra_laplacian(network, constants)
            for epsilon in (0.01, 0.5, 3.0):
                work = np.empty(supra.csr.shape)
                got = _lambda2(supra, epsilon, work)
                expected = np.linalg.eigvalsh(scale_inter_layer(supra, epsilon).csr.toarray())[1]
                assert got == pytest.approx(expected, rel=1e-12)
                # The solves read the factor in place: the work array's
                # Fortran-ordered transpose, with no copy.
                assert factors and all(
                    f.flags.f_contiguous and np.shares_memory(f, work) for f in factors
                )
                factors.clear()

    def test_failed_factorization_falls_back_to_dense_eigenvalues(self, monkeypatch):
        network, constants = two_layer_multiplex(4, rng=np.random.default_rng(9))
        supra = assemble_supra_laplacian(network, constants)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", failing)
        for epsilon in (0.01, 0.5):
            point = connectivity_sweep(network, constants, [epsilon])[0]
            expected = np.linalg.eigvalsh((supra.intra_part + epsilon * supra.inter_part).toarray())[1]
            assert point.lambda2_actual == expected

    def test_disconnected_coupled_operator_gives_zero_everywhere(self):
        network, constants = two_layer_multiplex(4, rng=np.random.default_rng(10))
        uncoupled = InterconnectedNetwork(layers=network.layers, couplings=())
        points = connectivity_sweep(uncoupled, constants, [0.0, 0.1, 1.0])
        assert [p.lambda2_actual for p in points] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("grid", [[], [0.01, -0.1], [float("nan")], [float("inf")]])
    def test_empty_grid_and_bad_epsilons_rejected(self, grid):
        network, constants = two_layer_multiplex(2, adjacency=[[0, 1], [1, 0]])
        with pytest.raises(ValidationError, match="empty|epsilon"):
            connectivity_sweep(network, constants, grid)

    def test_csv_output(self, tmp_path):
        network, constants = two_layer_multiplex(2, adjacency=[[0, 1], [1, 0]])
        points = connectivity_sweep(network, constants, [0.0, 0.001, 0.01])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, points)
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,lambda2_actual,lambda2_estimate,rel_error"
        assert len(lines) == 4
