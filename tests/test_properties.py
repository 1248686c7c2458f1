"""Property tests: the linearity of the supra-Laplacian in its constants, its
symmetry, zero row sums and semidefiniteness, kernels read from components
against eigenvalue counts, the exponential action, closed propagation, the
Euler-Maruyama ensemble and its statistics, the connectivity sweep, both
routes of the observed-block Kalman update and the learner against dense
reference formulas and invariants, the fit's exact Jacobian against central
differences, the per-topic filter and prediction of a Kronecker generator
against the whole-state route, ``build``'s streamed dump and summary against
the dense operator, and byte-for-byte round trips of the state, network and
matrix files, the network matrices read alike from triplets and from dense
rows, and the column-major vectorization undone exactly."""

import contextlib
import json
import os
import tempfile
from unittest import mock
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st
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
    ValidationError,
    assemble_supra_laplacian,
    connectivity_sweep,
    devectorize,
    ensemble_statistics,
    kalman_update,
    lambda2_perturbation_estimate,
    learn_supra_operator,
    load_network,
    matrix_exponential,
    one_step_predict_learned,
    propagate_closed,
    read_states_csv,
    run_filter,
    save_network,
    scale_inter_layer,
    simulate_ensemble,
    spectrum,
    vectorize,
    write_states_csv,
)
from supraflow import cli
from supraflow.calibration import (
    D_MAX,
    D_START,
    START_NORM,
    _free_parameters,
    _Residuals,
    read_operator_matrix,
    write_matrix_csv,
)
from supraflow.diffusion import exponential_action
from supraflow.files import write_csv
from supraflow.network import (
    _is_symmetric,
    _matrix_from_json,
    _matrix_to_json,
    components,
)
from supraflow.spectral import _layer_kernel_basis
from supraflow import diffusion, kalman
from supraflow.kalman import PHASE_PREDICTED, KalmanState
from conftest import (
    brute_force_supra,
    closed_action_reference,
    connected_adjacency,
    directed_network,
    joined_final_state,
    kronecker_lift,
    learned_operator,
    random_network,
    single_layer_supra,
    topic_operator,
)
from test_kalman import make_series, pinv_update

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
            value * assemble_supra_laplacian(network, unit_constants(constants, key)).csr.toarray()
            for key, value in entries
        )
        reference = assemble_supra_laplacian(network, constants).csr.toarray()
        assert relative_error(weighted, reference) <= 1e-12


class TestExponentialAction:
    @PROPERTY
    @given(seed=seeds, dt=st.floats(0.01, 3.0), columns=st.integers(1, 5))
    def test_matches_dense_exponential_on_diffusion_generators(self, seed, dt, columns):
        rng = np.random.default_rng(seed)
        network, constants = random_network(rng)
        generator = -assemble_supra_laplacian(network, constants).csr.toarray() * dt
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
    @given(
        seed=seeds,
        directed=st.booleans(),
        dt=st.floats(0.01, 5.0),
        stiff=st.booleans(),
        columns=st.integers(1, 4),
    )
    def test_keeps_the_bits_of_its_own_front_end(self, seed, directed, dt, stiff, columns):
        # Closed propagation, the one action with one topic and no correction,
        # has the bits of ``closed_action_reference``; a stiff step goes dense.
        rng = np.random.default_rng(seed)
        network, constants = (directed_network if directed else random_network)(rng)
        supra = assemble_supra_laplacian(network, constants)
        dt *= 1e4 if stiff else 1.0
        x = rng.random((supra.n_nodes, columns))
        real = diffusion.matrix_exponential
        with mock.patch.object(diffusion, "matrix_exponential", wraps=real) as dense:
            moved = propagate_closed(x, supra, dt)
        assert dense.call_count == 1 or not stiff
        assert np.array_equal(moved, closed_action_reference(-dt * supra.csr, x))

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
        reference = dense_ensemble_reference(x0, supra.csr.toarray(), sigma, seed, config)
        assert len(result) == len(reference)
        for path, expected in zip(result, reference):
            assert path.states.shape == expected.shape
            assert np.abs(path.states - expected).max() <= 1e-12 * np.abs(expected).max()


class TestEnsembleStatistics:
    @PROPERTY
    @given(
        seed=seeds,
        paths=st.integers(2, 12),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 3)).filter(
            lambda shape: np.prod(shape) >= 2
        ),
    )
    def test_equals_the_stacked_mean_and_variance_bitwise(self, seed, paths, shape):
        # A stack of one-entry paths is reduced along its contiguous axis, which
        # numpy sums pairwise; any larger path is summed path after path.
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4) for _ in range(paths)]
        mean, var = ensemble_statistics(arrays)
        stack = np.stack(arrays)
        assert mean.tobytes() == stack.mean(axis=0).tobytes()
        assert var.tobytes() == stack.var(axis=0, ddof=1).tobytes()


class TestConnectivitySweep:
    @settings(PROPERTY, max_examples=40)
    @given(seed=seeds, epsilons=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    def test_points_match_dense_eigenvalues_and_the_estimate(self, seed, epsilons):
        rng = np.random.default_rng(seed)
        network, constants = random_network(rng)
        base = assemble_supra_laplacian(network, constants)
        points = connectivity_sweep(network, constants, epsilons)
        assert [p.epsilon for p in points] == epsilons
        for epsilon, point in zip(epsilons, points):
            scaled = scale_inter_layer(base, epsilon).csr.toarray()
            reference = np.linalg.eigvalsh(scaled)[1]
            tolerance = 1e-12 * (1.0 + np.abs(scaled).max())
            assert abs(point.lambda2_actual - reference) <= tolerance
            assert abs(spectrum(scale_inter_layer(base, epsilon)).lambda2 - reference) <= tolerance
            if epsilon == 0.0:
                assert point.lambda2_actual == 0.0
            assert point.lambda2_estimate == lambda2_perturbation_estimate(base, epsilon)


def random_series(rng, network, topics, count):
    """Random states at times spaced by two different steps, so that the
    residuals span more than one distinct dt."""
    times = np.cumsum(rng.choice([0.1, 0.35], size=count))
    return SnapshotSeries(
        tuple(
            StateMatrix(rng.random((network.n_nodes, topics)), dict(network.node_index), t)
            for t in times
        )
    )


def central_difference_jacobian(problem, values, step=1e-5):
    columns = []
    for k, value in enumerate(values):
        h = step * max(1.0, value)
        up, down = values.copy(), values.copy()
        up[k] += h
        down[k] -= h
        columns.append((problem.evaluate(up)[0] - problem.evaluate(down)[0]).ravel() / (2 * h))
    return np.column_stack(columns)


def replica_network(rng):
    """Two layers with one adjacency A, joined node to node by the identity.
    With equal intra constants D and inter constant c the operator's
    eigenvalues are D lam(A) and D lam(A) + 2c, so a small c leaves pairs of
    close eigenvalues whose eigenvectors (u, u) and (u, -u) each basis
    operator mixes, and c = 0 repeats every eigenvalue."""
    n = int(rng.integers(2, 7))
    adjacency = connected_adjacency(rng, n)
    layers = tuple(
        LayerGraph(k, "agent", tuple(f"a{i}" for i in range(n)), adjacency) for k in (1, 2)
    )
    return InterconnectedNetwork(layers, (InterLayerCoupling(1, 2, np.eye(n)),))


def dense_reference(problem, values):
    """The residuals and Jacobian by dense scipy ``expm`` and ``expm_frechet``:
    one exponential per distinct dt, and one Frechet derivative per constant
    and distinct dt."""
    generator = sum(value * b.toarray() for value, b in zip(values, problem.basis))
    moved = [scipy.linalg.expm(-dt * generator) @ block for dt, _, block in problem.groups]
    columns = [
        problem._unstack(
            [
                scipy.linalg.expm_frechet(-dt * generator, -dt * b.toarray(), compute_expm=False)
                @ block
                for dt, _, block in problem.groups
            ]
        )
        for b in problem.basis
    ]
    return problem.ends - problem._unstack(moved), -np.stack(columns).reshape(len(values), -1).T


class TestExactJacobian:
    """Each exact Jacobian column of the fit's residuals matches a central
    difference of the residuals, and on a directed network the residuals and
    the Jacobian match dense scipy exponentials and Frechet derivatives."""

    def assert_matches_central_difference(self, network, series, values):
        problem = _Residuals(series.train_pairs(), network)
        residuals, _, point = problem.evaluate(values)
        exact = problem.jacobian(point)
        reference = central_difference_jacobian(problem, values)
        assert exact.shape == reference.shape == (problem.ends.size, len(values))
        for column, expected in zip(exact.T, reference.T):
            assert np.linalg.norm(column - expected) <= 1e-6 * np.linalg.norm(expected)
        if not problem.symmetric:
            dense_residuals, dense_jacobian = dense_reference(problem, values)
            assert relative_error(residuals, dense_residuals) <= 1e-10
            assert relative_error(exact, dense_jacobian) <= 1e-10
        return problem

    @PROPERTY
    @given(
        seed=seeds, directed=st.booleans(), topics=st.integers(1, 3), at_bounds=st.booleans()
    )
    def test_matches_central_differences(self, seed, directed, topics, at_bounds):
        rng = np.random.default_rng(seed)
        network, _ = (directed_network if directed else random_network)(rng)
        series = random_series(rng, network, topics, count=4)
        count = len(_free_parameters(network))
        if at_bounds:
            # The trial points a fit reaches: every constant clipped to a bound.
            values = rng.choice([0.0, D_MAX], count)
        else:
            values = rng.uniform(0.2, 2.0, count)
        problem = self.assert_matches_central_difference(network, series, values)
        assert problem.symmetric is not directed

    @PROPERTY
    @given(seed=seeds, constant=st.floats(0.2, 2.0), coupling=st.sampled_from([0.0, 1e-12, 1e-8]))
    def test_matches_central_differences_at_repeated_eigenvalues(self, seed, constant, coupling):
        rng = np.random.default_rng(seed)
        network = replica_network(rng)
        values = np.array([constant, constant, coupling])
        constants = DiffusionConstants(intra={1: constant, 2: constant}, inter={(1, 2): coupling})
        eigenvalues = np.linalg.eigvalsh(assemble_supra_laplacian(network, constants).csr.toarray())
        assert np.abs(eigenvalues[::2] - eigenvalues[1::2]).max() <= 1e-7
        series = random_series(rng, network, topics=2, count=3)
        self.assert_matches_central_difference(network, series, values)


class TestFitStart:
    """The fit starts constant k at min(D_START, START_NORM / ||B_k||_1), so
    the start operator's 1-norm is at most K START_NORM for K constants; a
    zero B_k starts at D_START and has an exactly zero Jacobian column."""

    @PROPERTY
    @given(
        seed=seeds, directed=st.booleans(), zero=st.booleans(), heavy=st.floats(1.0, 1e4)
    )
    def test_start_is_norm_scaled(self, seed, directed, zero, heavy):
        rng = np.random.default_rng(seed)
        network, _ = (directed_network if directed else random_network)(rng)
        # One layer's weights scaled up, as the kNN layer's inverse distances
        # outweigh the others.
        first, *others = network.layers
        layers = (replace(first, adjacency=first.adjacency * heavy), *others)
        couplings = network.couplings
        if zero:
            assume(couplings)
            blank = np.zeros(couplings[0].coupling.shape)
            couplings = (replace(couplings[0], coupling=blank), *couplings[1:])
        network = InterconnectedNetwork(layers, couplings, network.symmetric)
        problem = _Residuals(random_series(rng, network, 2, count=3).train_pairs(), network)
        start = problem.start
        assert ((start > 0) & (start <= D_START)).all()
        operator = sum(value * b for value, b in zip(start, problem.basis))
        norm = abs(operator).sum(axis=0).max(initial=0.0)
        assert norm <= len(start) * START_NORM * (1 + 1e-12)
        zeros = np.array(problem.norms) == 0
        assert zeros.any() or not zero
        jacobian = problem.jacobian(problem.evaluate(start)[2])
        assert np.isfinite(jacobian).all()
        assert (start[zeros] == D_START).all()
        assert (jacobian[:, zeros] == 0).all()


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
        scale = np.abs(supra.csr.toarray()).max()
        for part in (supra.csr.toarray(), supra.intra_part.toarray(), supra.inter_part.toarray()):
            assert np.array_equal(part, part.T)
            assert np.abs(part.sum(axis=1)).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(supra.csr.toarray()).min() >= -1e-12 * scale


class TestKernelFromComponents:
    @PROPERTY
    @given(seed=seeds, n_layers=st.integers(1, 3), connected=st.booleans())
    def test_kernel_dim_counts_the_zero_eigenvalues(self, seed, n_layers, connected):
        network, constants = random_network(np.random.default_rng(seed), n_layers, connected)
        supra = assemble_supra_laplacian(network, constants)
        kernel_dim = eigenvalue_kernel_dim(supra.csr.toarray())
        assert components(supra.csr.toarray()).max() + 1 == kernel_dim
        assert (spectrum(supra).lambda2 == 0.0) == (kernel_dim > 1)

    @PROPERTY
    @given(seed=seeds, n_layers=st.integers(1, 3), connected=st.booleans())
    def test_null_basis_is_an_orthonormal_intra_kernel_basis(self, seed, n_layers, connected):
        network, constants = random_network(np.random.default_rng(seed), n_layers, connected)
        supra = assemble_supra_laplacian(network, constants)
        if eigenvalue_kernel_dim(supra.intra_part.toarray()) != n_layers:
            with pytest.raises(ValidationError, match="internally connected"):
                _layer_kernel_basis(supra)
            return
        basis = _layer_kernel_basis(supra)
        assert basis.shape == (supra.n_nodes, n_layers)
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-12
        assert np.abs(supra.intra_part @ basis).max() <= 1e-12 * np.abs(supra.intra_part).max()

    @PROPERTY
    @given(seed=seeds, n_layers=st.integers(1, 3))
    def test_decoupled_operator_has_one_kernel_direction_per_layer(self, seed, n_layers):
        network, constants = random_network(np.random.default_rng(seed), n_layers)
        decoupled = scale_inter_layer(assemble_supra_laplacian(network, constants), 0.0)
        assert components(decoupled.csr.toarray()).max() + 1 == n_layers
        assert eigenvalue_kernel_dim(decoupled.csr.toarray()) == n_layers
        assert (spectrum(decoupled).lambda2 == 0.0) == (n_layers > 1)


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
    def test_positive_noise_gives_an_exactly_symmetric_covariance(self, case):
        state, y, model = case
        noisy = ObservationModel(
            model.n_nodes, model.n_topics, model.observed_nodes,
            r_diag=model.r_diag + 1e-3, q_diag=model.q_diag,
        )
        assert_matches_full_pinv(state, y, noisy)
        updated = kalman_update(state, y, noisy)
        assert np.array_equal(updated.pi, updated.pi.T)

    @PROPERTY
    @given(case=update_cases(), data=st.data())
    def test_zero_noise_entry_on_rank_deficient_block_takes_the_pinv_route(self, case, data):
        state, y, model = case
        observed = model.observed_nodes or (0,)
        obs = np.flatnonzero(ObservationModel.build(model.n_nodes, model.n_topics, observed).h_diag())
        # Pi = root root^T has rank below the observed count m, so Pi_oo is singular.
        rank = data.draw(st.integers(0, obs.size - 1))
        root = np.random.default_rng(data.draw(seeds)).standard_normal((model.dim, rank))
        deficient = KalmanState(
            x_hat=state.x_hat, pi=root @ root.T, phase=PHASE_PREDICTED, f_hat=state.f_hat
        )
        r_diag = model.r_diag.copy()
        r_diag[data.draw(st.sampled_from(obs.tolist()))] = 0.0
        zero_entry = ObservationModel(
            model.n_nodes, model.n_topics, observed, r_diag=r_diag, q_diag=model.q_diag
        )

        def refuse(r_e):
            raise AssertionError("factored a block with a zero noise variance")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kalman, "_cholesky", refuse)
            updated = kalman_update(deficient, y, zero_entry)
        reference = pinv_update(deficient, y, zero_entry)
        assert np.array_equal(updated.x_hat, reference.x_hat)
        assert np.array_equal(updated.pi, reference.pi)

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


def assert_close(got, want, scale=None):
    """|got - want| <= 1e-12 * scale entry by entry, NaN where both are;
    ``scale`` defaults to max |want|."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    got, want = np.nan_to_num(got), np.nan_to_num(want)
    if scale is None:
        scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


class TestTopicSplit:
    """With a generator that is exactly kron(I_T, B) the filter runs per topic
    through e^{B}: the same results as the PT-dimensional filter through
    e^{kron(I_T, B)}, whose action the one-step predictions also match."""

    @settings(PROPERTY, max_examples=60)
    @given(
        seed=seeds,
        n_nodes=st.integers(1, 6),
        n_topics=st.integers(1, 3),
        noisy=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_whole_state_route(self, seed, n_nodes, n_topics, noisy, data):
        rng = np.random.default_rng(seed)
        half = rng.standard_normal((n_nodes, n_nodes))
        block = 0.5 * (half + half.T)
        lam = np.kron(np.eye(n_topics), block)
        dim = n_nodes * n_topics
        q = rng.uniform(1e-3, 0.1, dim) if noisy else np.zeros(dim)
        op = replace(topic_operator(block, n_topics), residual_variance=q)
        assert op.per_topic
        observed = tuple(sorted(data.draw(st.sets(st.integers(0, n_nodes - 1)))))
        node_index = {(1, f"n{i}"): i for i in range(n_nodes)}
        states = rng.random((5, n_nodes, n_topics))
        series = make_series(node_index, list(states), train_count=2)

        result = kalman.filter_fractions(series, op, {0.5: observed})[0.5]
        model = ObservationModel.build(n_nodes, n_topics, observed, kalman.R_OBSERVED, q)
        reference = run_filter(series, op, model, pi0=0.0, transition=matrix_exponential(lam))
        for got, want in zip(result.predictions, reference.predictions, strict=True):
            assert_close(got, want)
        for name in ("errors_all", "errors_observed", "errors_hidden", "trace_pi"):
            assert_close(getattr(result, name), getattr(reference, name))
        # The last update leaves about R of a predicted covariance of order
        # Q: both routes round that cancellation relative to the predicted trace.
        joined, expected = joined_final_state(result), joined_final_state(reference)
        assert_close(joined.pi, expected.pi, reference.trace_pi.max())

        moved = exponential_action(lam, np.column_stack([vectorize(s) for s in states]))
        predicted = one_step_predict_learned(op, states)
        assert_close(np.column_stack([vectorize(s) for s in predicted]), moved)


@st.composite
def structured_operators(draw, route="taylor"):
    """(op, V): a LearnedOperator from drawn parts B (sparse, P x P), X and
    G (PT x m), and states V on which its action takes ``route``.  The Taylor
    route gets one column and small entries; the dense route gets PT columns
    and an entry 3 PT of B, so that the norm bound reaches 2 PT and the cost
    rule's 4 (PT)^3."""
    rng = np.random.default_rng(draw(seeds))
    n_nodes = draw(st.integers(3, 6) if route == "taylor" else st.integers(2, 5))
    n_topics, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dim = n_nodes * n_topics
    block = 0.3 * rng.uniform(-1, 1, (n_nodes, n_nodes))
    block *= rng.random(block.shape) < draw(st.floats(0.2, 1.0))
    inputs = rng.uniform(-1, 1, (dim, rank))
    corrections = draw(st.floats(1e-3, 1.0)) / dim * rng.uniform(-1, 1, (dim, rank))
    if route == "taylor":
        states = rng.random((dim, 1))
    else:
        block[0, 1] = 3.0 * dim
        states = rng.random((dim, dim))
    return learned_operator(block, inputs, corrections, n_nodes, n_topics), states


class TestStructuredOperator:
    """lambda_hat = kron(I_T, B) + G X^T acts through its parts as the dense
    array does, with a 1-norm bound above the exact norm, and is written one
    block of rows at a time as the dense dump.  With G = 0 it is the fitted
    operator applied to every topic."""

    @settings(PROPERTY, max_examples=60)
    @given(
        seed=seeds,
        directed=st.booleans(),
        n_topics=st.integers(1, 3),
        rank=st.integers(0, 3),
        count=st.integers(1, 3),
    )
    def test_zero_corrections_predict_as_closed_propagation(
        self, seed, directed, n_topics, rank, count
    ):
        rng = np.random.default_rng(seed)
        network, constants = (directed_network if directed else random_network)(rng)
        supra = assemble_supra_laplacian(network, constants)
        n_nodes = supra.n_nodes
        dim = n_nodes * n_topics
        inputs, corrections = rng.random((dim, rank)), np.zeros((dim, rank))
        op = learned_operator(-supra.csr, inputs, corrections, n_nodes, n_topics)
        states = rng.random((count, n_nodes, n_topics))
        for got, x in zip(one_step_predict_learned(op, states), states, strict=True):
            assert relative_error(got, propagate_closed(x, supra, 1.0)) <= 1e-12

    @pytest.mark.parametrize("route", ["taylor", "dense"])
    @settings(PROPERTY, max_examples=40)
    @given(data=st.data())
    def test_action_matches_the_dense_operator(self, route, data):
        op, states = data.draw(structured_operators(route))
        with mock.patch.object(diffusion, "_dense", wraps=diffusion._dense) as dense:
            moved = diffusion._exp_action(op.block, op.inputs, op.corrections, states)
        assert dense.call_count == (route == "dense")
        reference = exponential_action(op.lambda_hat, states)
        assert relative_error(moved, reference) <= 1e-12

    @settings(PROPERTY, max_examples=60)
    @given(data=st.data(), route=st.sampled_from(["taylor", "dense"]))
    def test_norm_bound_is_above_the_exact_norm(self, data, route):
        # The norm steers only the Taylor route, so each operator acts on one
        # state, and a stiff draw that still goes dense is skipped.
        op, states = data.draw(structured_operators(route))
        dim = op.n_nodes * op.n_topics
        empty = np.zeros((dim, 0))
        real = diffusion._taylor_action
        for inputs, corrections in ((op.inputs, op.corrections), (empty, empty)):
            with mock.patch.object(diffusion, "_taylor_action", wraps=real) as action:
                diffusion._exp_action(op.block, inputs, corrections, states[:, :1])
            assume(action.called)
            _, mu, norm, _ = action.call_args.args
            lam = diffusion._dense(op.block, inputs, corrections)
            assert mu == pytest.approx(np.trace(lam) / dim, rel=1e-12, abs=1e-12)
            exact = np.abs(lam - mu * np.eye(dim)).sum(axis=0).max()
            assert norm * (1 + 1e-14) >= exact
        # With no correction the bound is the exact norm.
        assert norm == pytest.approx(exact, rel=1e-14)

    @settings(PROPERTY, max_examples=40)
    @given(data=st.data(), block_bytes=st.integers(1, 1200))
    def test_operator_csv_by_row_blocks_is_the_dense_dump(self, data, block_bytes):
        op, _ = data.draw(structured_operators(data.draw(st.sampled_from(["taylor", "dense"]))))
        with tempfile.TemporaryDirectory() as directory:
            blocks = os.path.join(directory, "blocks.csv")
            dense = os.path.join(directory, "dense.csv")
            shape = op.lambda_hat.shape
            with mock.patch.object(diffusion, "_ROW_BLOCK_BYTES", block_bytes):
                rows = diffusion._row_blocks(op.block, op.inputs, op.corrections)
                write_matrix_csv(blocks, shape, (block for _, block in rows))
                write_matrix_csv(dense, shape, [op.lambda_hat])
            with open(blocks, "rb") as a, open(dense, "rb") as b:
                assert a.read() == b.read()


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
            assert len(obj["triplets"]) == matrix.count_nonzero()
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
        assert from_triplets.toarray().tobytes() == from_rows.toarray().tobytes() == matrix.tobytes()

    @settings(PROPERTY, max_examples=50)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
    def test_matrix_csv(self, shape, data):
        matrix = data.draw(float_arrays(shape))

        def write(path, values=matrix):
            write_matrix_csv(path, values.shape, [values])

        assert_rewrite_is_identical(write, read_operator_matrix)


@st.composite
def build_networks(draw):
    """A network of one to three layers of one to five nodes, directed or
    not, each pair of layers coupled or not."""
    rng = np.random.default_rng(draw(seeds))
    directed = draw(st.booleans())
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    layers = []
    for k, n in enumerate(sizes):
        adjacency = rng.uniform(0.1, 3.0, (n, n)) * (rng.random((n, n)) < 0.6)
        if not directed:
            adjacency = np.triu(adjacency, 1) + np.triu(adjacency, 1).T
        np.fill_diagonal(adjacency, 0.0)
        nodes = tuple(f"L{k + 1}n{i}" for i in range(n))
        layers.append(LayerGraph(k + 1, "agent", nodes, adjacency))
    couplings = [
        InterLayerCoupling(a, b, rng.uniform(0.1, 3.0, (sizes[a - 1], sizes[b - 1])))
        for a in range(1, len(sizes) + 1)
        for b in range(1, len(sizes) + 1)
        if (a < b or directed) and a != b and draw(st.booleans())
    ]
    constants = DiffusionConstants(
        intra={k + 1: float(rng.uniform(0.1, 2.0)) for k in range(len(sizes))},
        inter={(c.from_layer, c.to_layer): float(rng.uniform(0.1, 2.0)) for c in couplings},
        symmetric=not directed,
    )
    return InterconnectedNetwork(tuple(layers), tuple(couplings), symmetric=not directed), constants


class TestBuildDump:
    @settings(PROPERTY, max_examples=60)
    @given(network_and_constants=build_networks(), block_bytes=st.integers(1, 200))
    def test_streamed_dump_and_summary_are_the_dense_operators(
        self, network_and_constants, block_bytes
    ):
        with tempfile.TemporaryDirectory() as directory:
            network_path = os.path.join(directory, "network.json")
            save_network(network_path, *network_and_constants)
            config = os.path.join(directory, "build.json")
            with open(config, "w") as handle:
                json.dump({"network": network_path}, handle)
            out = os.path.join(directory, "build")
            with mock.patch.object(diffusion, "_ROW_BLOCK_BYTES", block_bytes):
                assert cli.main(["build", "--config", config, "--out", out]) == 0
            dense = assemble_supra_laplacian(*load_network(network_path)).csr.toarray()
            reference = os.path.join(directory, "reference.csv")
            write_csv(reference, [f"# rows={len(dense)} cols={len(dense)}"], dense.tolist())
            with open(os.path.join(out, "supra_laplacian.csv"), "rb") as a:
                with open(reference, "rb") as b:
                    assert a.read() == b.read()
            with open(os.path.join(out, "build_summary.json")) as handle:
                summary = json.load(handle)
        assert summary["max_abs_row_sum"] == float(np.abs(dense.sum(axis=1)).max())
        assert summary["symmetric"] is _is_symmetric(dense)


class TestVectorize:
    @settings(PROPERTY, max_examples=100)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), data=st.data())
    def test_devectorize_inverts_column_major_vectorize(self, shape, data):
        matrix = data.draw(float_arrays(shape))
        vector = vectorize(matrix)
        columns = np.concatenate([matrix[:, j] for j in range(shape[1])])
        assert vector.tobytes() == columns.tobytes()
        assert devectorize(vector, *shape).tobytes() == matrix.tobytes()


def reference_components(matrix):
    """Component labels by a node-at-a-time search of the dense pattern of
    A + A^T, the reference for the CSR search."""
    linked = (matrix != 0) | (matrix != 0).T
    labels = np.full(len(matrix), -1)
    count = 0
    for root in range(len(matrix)):
        if labels[root] >= 0:
            continue
        labels[root] = count
        stack = [root]
        while stack:
            for other in np.flatnonzero(linked[stack.pop()]):
                if labels[other] < 0:
                    labels[other] = count
                    stack.append(other)
        count += 1
    return labels


def with_explicit_zeros(matrix):
    """``matrix`` as CSR storing every entry, zeros included."""
    rows, cols = np.indices(matrix.shape).reshape(2, -1)
    return scipy.sparse.csr_array((matrix.ravel(), (rows, cols)), shape=matrix.shape)


square_patterns = st.integers(1, 12).flatmap(
    lambda n: float_arrays((n, n), st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 1e-300]))
)


class TestSparseStorage:
    @PROPERTY
    @given(seed=seeds, directed=st.booleans(), n_layers=st.integers(1, 3), connected=st.booleans())
    def test_assembly_matches_the_dense_reference_with_zero_row_sums(
        self, seed, directed, n_layers, connected
    ):
        rng = np.random.default_rng(seed)
        if directed:
            network, constants = directed_network(rng, n_layers)
        else:
            network, constants = random_network(rng, n_layers, connected)
        supra = assemble_supra_laplacian(network, constants)
        assert np.abs(supra.csr.toarray() - brute_force_supra(network, constants)).max() <= 1e-12
        for part in (supra.csr, supra.intra_part, supra.inter_part):
            assert np.abs(part.sum(axis=1)).max() <= 1e-12

    @PROPERTY
    @given(matrix=square_patterns)
    def test_components_of_csr_match_a_dense_reference_search(self, matrix):
        expected = reference_components(matrix).tolist()
        assert components(matrix).tolist() == expected
        assert components(scipy.sparse.csr_array(matrix)).tolist() == expected
        assert components(with_explicit_zeros(matrix)).tolist() == expected

    @PROPERTY
    @given(
        matrix=square_patterns,
        skew=st.sampled_from([0.0, 1e-300, 1e-14, 1e-12, 2.5e-12, 1e-6, 1.0]),
        seed=seeds,
    )
    def test_is_symmetric_agrees_on_csr_and_dense(self, matrix, skew, seed):
        perturbation = np.random.default_rng(seed).random(matrix.shape) < 0.2
        matrix = matrix + matrix.T + skew * perturbation
        expected = _is_symmetric(matrix)
        assert _is_symmetric(scipy.sparse.csr_array(matrix)) == expected
        assert _is_symmetric(with_explicit_zeros(matrix)) == expected

    @settings(PROPERTY, max_examples=100)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
    def test_triplets_round_trip_byte_for_byte(self, shape, data):
        matrix = data.draw(float_arrays(shape, st.one_of(st.just(0.0), weights)))
        rows, cols = np.nonzero(matrix)
        triplets = [[int(i), int(j), float(matrix[i, j])] for i, j in zip(rows, cols)]
        text = json.dumps({"triplets": triplets})
        shuffled = json.dumps({"triplets": data.draw(st.permutations(triplets))})
        for written in (text, shuffled):
            loaded = _matrix_from_json(json.loads(written), shape, "matrix")
            assert json.dumps(_matrix_to_json(loaded)) == text

    @PROPERTY
    @given(seed=seeds, directed=st.booleans(), n_layers=st.integers(1, 3))
    def test_load_and_assembly_leave_every_matrix_sparse(self, seed, directed, n_layers):
        rng = np.random.default_rng(seed)
        generated = (directed_network if directed else random_network)(rng, n_layers)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "network.json")
            save_network(path, *generated)
            network, constants = load_network(path)
        supra = assemble_supra_laplacian(network, constants)
        matrices = [layer.adjacency for layer in network.layers]
        matrices += [c.coupling for c in network.couplings]
        for matrix in matrices + [supra.intra_part, supra.inter_part, supra.csr]:
            assert isinstance(matrix, scipy.sparse.csr_array) and matrix.has_canonical_format
            assert matrix.data.all()
            assert not any(a.flags.writeable for a in (matrix.data, matrix.indices, matrix.indptr))
        assert "matrix" not in vars(supra)
