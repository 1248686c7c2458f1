"""Property tests: the linearity of the supra-Laplacian in its constants, its
symmetry, zero row sums and semidefiniteness, kernels read from components
against eigenvalue counts, the exponential action, closed propagation, the
Euler-Maruyama ensemble, the connectivity sweep, the observed-block Kalman
update and the learner against dense reference formulas and invariants, and
byte-for-byte round trips of the state, network and matrix files, the
network matrices read alike from triplets and from dense rows, and the
column-major vectorization undone exactly."""

import contextlib
import json
import os
import tempfile

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from supraflow import (
    DiffusionConstants,
    InterconnectedNetwork,
    InterLayerCoupling,
    LayerGraph,
    NoiseModel,
    ObservationModel,
    SimulationConfig,
    SnapshotSeries,
    StateMatrix,
    assemble_supra_laplacian,
    connectivity_sweep,
    devectorize,
    kalman_update,
    lambda2_perturbation_estimate,
    learn_supra_operator,
    load_network,
    matrix_exponential,
    propagate_closed,
    read_states_csv,
    save_network,
    scale_inter_layer,
    simulate_ensemble,
    spectrum,
    vectorize,
    write_states_csv,
)
from supraflow.calibration import kronecker_lift, read_operator_matrix, write_matrix_csv
from supraflow.diffusion import exponential_action
from supraflow.network import _matrix_from_json
from supraflow.kalman import PHASE_PREDICTED, KalmanState
from conftest import connected_adjacency, directed_network, random_network, single_layer_supra

# Derandomized so the suite stays deterministic; no example database is kept.
PROPERTY = settings(deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def relative_error(result, reference):
    return np.linalg.norm(result - reference) / np.linalg.norm(reference)


def unit_constants(constants, key):
    """``constants`` with the entry ``key`` set to 1 and every other one to 0."""
    return DiffusionConstants(
        intra={k: float(("intra", k) == key) for k in constants.intra},
        inter={pair: float(("inter", pair) == key) for pair in constants.inter},
        symmetric=constants.symmetric,
    )


class TestSupraLaplacianLinearity:
    @PROPERTY
    @given(seed=seeds, directed=st.booleans())
    def test_assembly_is_the_weighted_sum_of_unit_assemblies(self, seed, directed):
        rng = np.random.default_rng(seed)
        network, constants = (directed_network if directed else random_network)(rng)
        entries = [(("intra", k), v) for k, v in constants.intra.items()]
        entries += [(("inter", pair), v) for pair, v in constants.inter.items()]
        weighted = sum(
            value * assemble_supra_laplacian(network, unit_constants(constants, key)).matrix
            for key, value in entries
        )
        reference = assemble_supra_laplacian(network, constants).matrix
        assert relative_error(weighted, reference) <= 1e-12


class TestExponentialAction:
    @PROPERTY
    @given(seed=seeds, dt=st.floats(0.01, 3.0), columns=st.integers(1, 5))
    def test_matches_dense_exponential_on_diffusion_generators(self, seed, dt, columns):
        rng = np.random.default_rng(seed)
        network, constants = random_network(rng)
        generator = -assemble_supra_laplacian(network, constants).matrix * dt
        x = rng.random((network.n_nodes, columns))
        reference = matrix_exponential(generator) @ x
        assert relative_error(exponential_action(generator, x), reference) <= 1e-12

    @PROPERTY
    @given(
        seed=seeds,
        n=st.integers(1, 30),
        scale=st.floats(0.0, 2.0),
        columns=st.integers(1, 5),
    )
    def test_matches_dense_exponential_on_general_matrices(self, seed, n, scale, columns):
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((n, n)) / np.sqrt(n)
        x = rng.standard_normal((n, columns))
        reference = matrix_exponential(a) @ x
        assert relative_error(exponential_action(a, x), reference) <= 1e-12


    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 60), dt=st.floats(0.01, 3.0), columns=st.integers(1, 5))
    def test_sparse_input_matches_dense_exponential(self, seed, n, dt, columns):
        rng = np.random.default_rng(seed)
        _, supra = single_layer_supra(connected_adjacency(rng, n, extra_prob=0.1))
        generator = -dt * supra.csr
        x = rng.random((n, columns))
        reference = matrix_exponential(generator.toarray()) @ x
        assert relative_error(exponential_action(generator, x), reference) <= 1e-12


def random_operator(seed):
    rng = np.random.default_rng(seed)
    network, constants = random_network(rng)
    return rng, assemble_supra_laplacian(network, constants)


class TestClosedPropagation:
    @PROPERTY
    @given(seed=seeds, s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0))
    def test_semigroup_law(self, seed, s, t):
        rng, supra = random_operator(seed)
        x = rng.random((supra.n_nodes, 2))
        two_steps = propagate_closed(propagate_closed(x, supra, s), supra, t)
        assert relative_error(two_steps, propagate_closed(x, supra, s + t)) <= 1e-12

    @PROPERTY
    @given(seed=seeds, dt=st.floats(0.0, 5.0))
    def test_symmetric_operator_conserves_column_sums(self, seed, dt):
        rng, supra = random_operator(seed)
        x = rng.standard_normal((supra.n_nodes, 3))
        moved = propagate_closed(x, supra, dt)
        scale = np.abs(x).sum(axis=0).max()
        assert np.abs(moved.sum(axis=0) - x.sum(axis=0)).max() <= 1e-12 * scale


def dense_ensemble_reference(x0, lap, sigma, seed, config):
    """Euler-Maruyama paths stepped with dense products, seeded as the
    ensemble seeds them."""
    times = np.minimum(np.arange(config.n_steps + 1) * config.dt, config.horizon)
    paths = []
    for child in np.random.SeedSequence(seed).spawn(config.ensemble_size):
        rng = np.random.default_rng(child)
        states = [x0]
        for k in range(config.n_steps):
            h = times[k + 1] - times[k]
            noise = rng.standard_normal(x0.shape)
            states.append(states[-1] - (lap @ states[-1]) * h + sigma * noise * np.sqrt(h))
        paths.append(np.array(states))
    return paths


class TestEnsemble:
    @settings(PROPERTY, max_examples=30)
    @given(
        seed=seeds,
        dt=st.floats(0.005, 0.05),
        steps=st.integers(1, 20),
        paths=st.integers(1, 4),
    )
    def test_sparse_steps_match_dense_reference(self, seed, dt, steps, paths):
        rng, supra = random_operator(seed)
        x0 = rng.random((supra.n_nodes, 2))
        sigma = 0.1 * rng.random(x0.shape)
        config = SimulationConfig(dt=dt, horizon=steps * dt, ensemble_size=paths)
        # Steps past the explicit scheme's stability bound must be announced.
        unstable = abs(supra.csr).sum(axis=1).max() * dt >= 1
        with pytest.warns(UserWarning, match="dt") if unstable else contextlib.nullcontext():
            result = simulate_ensemble(x0, supra, NoiseModel(sigma, seed=seed), config)
        reference = dense_ensemble_reference(x0, supra.matrix, sigma, seed, config)
        assert len(result) == len(reference)
        for path, expected in zip(result, reference):
            assert path.states.shape == expected.shape
            assert np.abs(path.states - expected).max() <= 1e-12 * np.abs(expected).max()


class TestConnectivitySweep:
    @settings(PROPERTY, max_examples=40)
    @given(seed=seeds, epsilons=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    def test_points_equal_the_per_epsilon_spectrum_and_estimate(self, seed, epsilons):
        rng = np.random.default_rng(seed)
        network, constants = random_network(rng)
        base = assemble_supra_laplacian(network, constants)
        points = connectivity_sweep(network, constants, epsilons)
        assert [p.epsilon for p in points] == epsilons
        for epsilon, point in zip(epsilons, points):
            assert point.lambda2_actual == spectrum(scale_inter_layer(base, epsilon)).lambda2
            assert point.lambda2_estimate == lambda2_perturbation_estimate(base, epsilon)


def eigenvalue_kernel_dim(matrix):
    """Reference kernel dimension: eigenvalues within 1e-9 of the largest magnitude."""
    eigenvalues = np.linalg.eigvalsh(matrix)
    return int((np.abs(eigenvalues) <= 1e-9 * np.abs(eigenvalues).max()).sum())


class TestOperatorInvariants:
    @PROPERTY
    @given(seed=seeds, connected=st.booleans())
    def test_parts_are_symmetric_with_zero_row_sums(self, seed, connected):
        network, constants = random_network(np.random.default_rng(seed), connected=connected)
        supra = assemble_supra_laplacian(network, constants)
        scale = np.abs(supra.matrix).max()
        for part in (supra.matrix, supra.intra_part, supra.inter_part):
            assert np.array_equal(part, part.T)
            assert np.abs(part.sum(axis=1)).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(supra.matrix).min() >= -1e-12 * scale


class TestKernelFromComponents:
    @PROPERTY
    @given(seed=seeds, n_layers=st.integers(1, 3), connected=st.booleans())
    def test_kernel_dim_counts_the_zero_eigenvalues(self, seed, n_layers, connected):
        network, constants = random_network(np.random.default_rng(seed), n_layers, connected)
        supra = assemble_supra_laplacian(network, constants)
        assert spectrum(supra).kernel_dim == eigenvalue_kernel_dim(supra.matrix)

    @PROPERTY
    @given(seed=seeds, n_layers=st.integers(1, 3), connected=st.booleans())
    def test_null_basis_is_an_orthonormal_intra_kernel_basis(self, seed, n_layers, connected):
        network, constants = random_network(np.random.default_rng(seed), n_layers, connected)
        supra = assemble_supra_laplacian(network, constants)
        basis = spectrum(supra).null_basis
        assert basis.shape == (supra.n_nodes, eigenvalue_kernel_dim(supra.intra_part))
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-12
        assert np.abs(supra.intra_part @ basis).max() <= 1e-12 * np.abs(supra.intra_part).max()

    @PROPERTY
    @given(seed=seeds, n_layers=st.integers(1, 3))
    def test_decoupled_operator_has_one_kernel_direction_per_layer(self, seed, n_layers):
        network, constants = random_network(np.random.default_rng(seed), n_layers)
        decoupled = scale_inter_layer(assemble_supra_laplacian(network, constants), 0.0)
        assert spectrum(decoupled).kernel_dim == n_layers
        assert eigenvalue_kernel_dim(decoupled.matrix) == n_layers


def full_pinv_update(state, y, model):
    """The Kalman update as a pseudo-inverse of the full PT x PT innovation
    covariance; the reference for the observed-block solve."""
    h = model.h_diag()
    pi = state.pi
    r_e = np.diag(model.r_diag) + h[:, None] * pi * h[None, :]
    gain_core = (pi * h[None, :]) @ np.linalg.pinv(r_e, hermitian=True)
    x_post = state.x_hat + gain_core @ (y - h * state.x_hat)
    pi_post = pi - gain_core @ (h[:, None] * pi)
    return x_post, 0.5 * (pi_post + pi_post.T)


@st.composite
def update_cases(draw):
    n_nodes = draw(st.integers(1, 6))
    n_topics = draw(st.integers(1, 3))
    observed = draw(st.sets(st.integers(0, n_nodes - 1)))
    rng = np.random.default_rng(draw(seeds))
    dim = n_nodes * n_topics
    model = ObservationModel(
        n_nodes, n_topics, tuple(observed),
        r_diag=rng.random(dim) * 0.5, q_diag=np.zeros(dim),
    )
    root = rng.standard_normal((dim, dim))
    pi = root @ root.T + 0.1 * np.eye(dim)
    state = KalmanState(
        x_hat=rng.random(dim), pi=0.5 * (pi + pi.T), phase=PHASE_PREDICTED, f_hat=np.eye(dim)
    )
    return state, rng.random(dim), model


def assert_matches_full_pinv(state, y, model):
    updated = kalman_update(state, y, model)
    x_ref, pi_ref = full_pinv_update(state, y, model)
    scale = max(1.0, np.abs(pi_ref).max())
    assert np.abs(updated.x_hat - x_ref).max() <= 1e-12 * max(1.0, np.abs(x_ref).max())
    assert np.abs(updated.pi - pi_ref).max() <= 1e-12 * scale


class TestObservedBlockUpdate:
    @PROPERTY
    @given(case=update_cases())
    def test_matches_full_pinv_on_random_masks(self, case):
        assert_matches_full_pinv(*case)

    @PROPERTY
    @given(case=update_cases())
    def test_matches_full_pinv_with_everything_observed(self, case):
        state, y, model = case
        everything = ObservationModel(
            model.n_nodes, model.n_topics, tuple(range(model.n_nodes)),
            r_diag=model.r_diag, q_diag=model.q_diag,
        )
        assert_matches_full_pinv(state, y, everything)

    @PROPERTY
    @given(case=update_cases())
    def test_empty_mask_returns_state_unchanged(self, case):
        state, y, model = case
        nothing = ObservationModel(
            model.n_nodes, model.n_topics, (), r_diag=model.r_diag, q_diag=model.q_diag
        )
        assert_matches_full_pinv(state, y, nothing)
        updated = kalman_update(state, y, nothing)
        assert np.array_equal(updated.x_hat, state.x_hat)
        assert np.array_equal(updated.pi, state.pi)

    @PROPERTY
    @given(case=update_cases())
    def test_zero_noise_on_zero_covariance(self, case):
        state, y, model = case
        silent = ObservationModel(
            model.n_nodes, model.n_topics, model.observed_nodes,
            r_diag=np.zeros(model.dim), q_diag=model.q_diag,
        )
        certain = KalmanState(
            x_hat=state.x_hat, pi=np.zeros_like(state.pi), phase=PHASE_PREDICTED,
            f_hat=state.f_hat,
        )
        assert_matches_full_pinv(certain, y, silent)
        assert np.array_equal(kalman_update(certain, y, silent).x_hat, state.x_hat)


def dense_learning_reference(series, lam, gain, updates):
    """Rank-1 updates with the dense exponential formed for every prediction."""
    pairs = [(vectorize(a), vectorize(b)) for a, b, _ in series.train_pairs()]
    log = []
    while len(log) < updates:
        for x, t in pairs:
            residual = t - scipy.linalg.expm(lam) @ x
            log.append(np.linalg.norm(residual))
            lam = lam + gain * np.outer(residual, x)
            if len(log) >= updates:
                break
    return lam, np.array(log)


class TestLearnerMatchesDenseReference:
    @settings(PROPERTY, max_examples=15)
    @given(
        seed=seeds,
        n_snapshots=st.integers(2, 6),
        gain=st.floats(1e-4, 2e-2),
    )
    def test_twenty_updates(self, seed, n_snapshots, gain):
        rng = np.random.default_rng(seed)
        network, supra = single_layer_supra(connected_adjacency(rng, 10), constant=0.3)
        lifted = kronecker_lift(supra, 2)
        truth = scipy.linalg.expm(lifted + 0.02 * rng.standard_normal(lifted.shape))
        x = vectorize(rng.random((10, 2)))
        snaps = []
        for t in range(n_snapshots):
            snaps.append(StateMatrix(devectorize(x, 10, 2), dict(network.node_index), float(t)))
            x = truth @ x
        series = SnapshotSeries(tuple(snaps))
        op = learn_supra_operator(series, supra, gain=gain, threshold=0.0, max_iters=20)
        lam_ref, log_ref = dense_learning_reference(series, lifted, gain, 20)
        assert op.iterations == 20
        assert np.abs(op.lambda_hat - lam_ref).max() <= 1e-10
        assert np.abs(np.array(op.iteration_log) - log_ref).max() <= 1e-10


finite = st.floats(allow_nan=False, allow_infinity=False)
weights = st.floats(min_value=0.0, max_value=1e300)


def float_arrays(shape, elements=finite):
    return hnp.arrays(np.float64, shape, elements=elements)


@st.composite
def weighted_networks(draw):
    """A random network whose layer, coupling and constant weights are
    arbitrary nonnegative doubles."""
    rng = np.random.default_rng(draw(seeds))
    network, constants = random_network(rng, n_layers=draw(st.integers(1, 3)))
    layers = tuple(
        LayerGraph(
            layer.layer_id,
            layer.kind,
            layer.node_ids,
            layer.adjacency * draw(float_arrays(layer.adjacency.shape, weights)),
        )
        for layer in network.layers
    )
    couplings = tuple(
        InterLayerCoupling(
            c.from_layer, c.to_layer, c.coupling * draw(float_arrays(c.coupling.shape, weights))
        )
        for c in network.couplings
    )
    network = InterconnectedNetwork(layers, couplings, symmetric=draw(st.booleans()))
    constants = DiffusionConstants(
        intra={k: draw(weights) for k in constants.intra},
        inter={pair: draw(weights) for pair in constants.inter},
        symmetric=draw(st.booleans()),
    )
    return network, constants


def assert_rewrite_is_identical(write, read):
    """write(first); write(second, read(first)); both files equal byte for byte."""
    with tempfile.TemporaryDirectory() as directory:
        first = os.path.join(directory, "first")
        second = os.path.join(directory, "second")
        write(first)
        write(second, read(first))
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


class TestByteRoundTrips:
    @settings(PROPERTY, max_examples=50)
    @given(
        seed=seeds,
        n_topics=st.integers(1, 3),
        timestamps=st.lists(finite, min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def test_states_csv(self, seed, n_topics, timestamps, data):
        network, _ = random_network(np.random.default_rng(seed))
        snapshots = [
            StateMatrix(
                data.draw(float_arrays((network.n_nodes, n_topics))), dict(network.node_index), t
            )
            for t in timestamps
        ]

        def write(path, states=snapshots):
            write_states_csv(path, states, network.node_order)

        assert_rewrite_is_identical(write, lambda path: read_states_csv(path, network))

    @settings(PROPERTY, max_examples=50)
    @given(network_and_constants=weighted_networks())
    def test_network_json(self, network_and_constants):
        def write(path, loaded=network_and_constants):
            save_network(path, *loaded)

        assert_rewrite_is_identical(write, load_network)
        network, _ = network_and_constants
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "network.json")
            write(path)
            with open(path) as handle:
                data = json.load(handle)
        written = [layer["adjacency"] for layer in data["layers"]]
        written += [c["matrix"] for c in data["couplings"]]
        expected = [layer.adjacency for layer in network.layers]
        expected += [c.coupling for c in network.couplings]
        for obj, matrix in zip(written, expected, strict=True):
            assert list(obj) == ["triplets"]
            assert len(obj["triplets"]) == np.count_nonzero(matrix)
            assert all(weight != 0 for _, _, weight in obj["triplets"])

    @settings(PROPERTY, max_examples=100)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
    def test_triplet_and_dense_rows_read_alike(self, shape, data):
        matrix = data.draw(float_arrays(shape, st.one_of(st.just(0.0), weights)))
        rows, cols = np.nonzero(matrix)
        triplets = [[int(i), int(j), float(matrix[i, j])] for i, j in zip(rows, cols)]
        triplets = data.draw(st.permutations(triplets))
        sparse = json.loads(json.dumps({"triplets": triplets}))
        dense = json.loads(json.dumps(matrix.tolist()))
        from_triplets = _matrix_from_json(sparse, shape, "matrix")
        from_rows = _matrix_from_json(dense, shape, "matrix")
        assert from_triplets.tobytes() == from_rows.tobytes() == matrix.tobytes()

    @settings(PROPERTY, max_examples=50)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
    def test_matrix_csv(self, shape, data):
        matrix = data.draw(float_arrays(shape))

        def write(path, values=matrix):
            write_matrix_csv(path, values)

        assert_rewrite_is_identical(write, read_operator_matrix)


class TestVectorize:
    @settings(PROPERTY, max_examples=100)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), data=st.data())
    def test_devectorize_inverts_column_major_vectorize(self, shape, data):
        matrix = data.draw(float_arrays(shape))
        vector = vectorize(matrix)
        columns = np.concatenate([matrix[:, j] for j in range(shape[1])])
        assert vector.tobytes() == columns.tobytes()
        assert devectorize(vector, *shape).tobytes() == matrix.tobytes()
