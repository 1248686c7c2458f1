"""Property tests: the exponential action, the observed-block Kalman update and
the learner against dense reference formulas."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from supraflow import (
    ObservationModel,
    SnapshotSeries,
    StateMatrix,
    assemble_supra_laplacian,
    devectorize,
    kalman_update,
    learn_supra_operator,
    matrix_exponential,
    vectorize,
)
from supraflow.calibration import kronecker_lift
from supraflow.diffusion import exponential_action
from supraflow.kalman import PHASE_PREDICTED, KalmanState
from conftest import connected_adjacency, random_network, single_layer_supra

# Derandomized so the suite stays deterministic; no example database is kept.
PROPERTY = settings(deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def relative_error(result, reference):
    return np.linalg.norm(result - reference) / np.linalg.norm(reference)


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
