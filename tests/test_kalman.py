import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from supraflow import (
    NumericalError,
    ObservationModel,
    SnapshotSeries,
    StateMatrix,
    ValidationError,
    assemble_supra_laplacian,
    kalman_predict,
    kalman_update,
    learn_supra_operator,
    matrix_exponential,
    nested_masks,
    one_step_predict_learned,
    run_filter,
)
from supraflow import diffusion, kalman
from supraflow.kalman import (
    MAX_LEARN_DIM,
    PHASE_PREDICTED,
    PHASE_UPDATED,
    KalmanState,
    filter_fractions,
    initial_state,
    transition_matrix,
    write_filter_trace_csv,
    write_mask_csv,
)
from conftest import (
    joined_final_state,
    learned_operator,
    make_operator,
    random_network,
    ring_supra,
    topic_operator,
)


def scalar_recursion(x0, pi0, f, q, r, h, observations):
    """Textbook scalar predict/update loop; the independent oracle."""
    x, pi = x0, pi0
    trajectory = []
    for y in observations:
        x, pi = f * x, f * pi * f + q
        trajectory.append((x, pi))
        if h:
            re = r + pi
            gain = pi / re
            x = x + gain * (y - x)
            pi = pi - gain * pi
    return trajectory, (x, pi)


def pinv_update(state, y, model):
    """The observed-block update with a pseudo-inverse of R_oo + Pi_oo on every
    route, re-symmetrized; the reference for both routes of ``kalman_update``."""
    obs = np.flatnonzero(model.h_diag())
    if obs.size == 0:
        return replace(state, phase=PHASE_UPDATED)
    pi = state.pi
    pi_rows = pi[obs, :]
    r_e = np.diag(model.r_diag[obs]) + pi_rows[:, obs]
    gain = pi[:, obs] @ np.linalg.pinv(r_e, hermitian=True)
    x_post = state.x_hat + gain @ (y[obs] - state.x_hat[obs])
    pi_post = pi - gain @ pi_rows
    return replace(state, x_hat=x_post, pi=0.5 * (pi_post + pi_post.T), phase=PHASE_UPDATED)


def full_observation_model(n_nodes, n_topics, r=0.0, q=0.0):
    dim = n_nodes * n_topics
    return ObservationModel(
        n_nodes=n_nodes,
        n_topics=n_topics,
        observed_nodes=tuple(range(n_nodes)),
        r_diag=np.full(dim, float(r)),
        q_diag=np.full(dim, float(q)),
    )


class TestKalmanUpdate:
    def test_full_observation_zero_noise_pins_to_observation(self):
        rng = np.random.default_rng(0)
        dim = 6
        op = make_operator(rng.standard_normal((dim, dim)) * 0.1, 3, 2)
        model = full_observation_model(3, 2, r=0.0)
        state = kalman_predict(initial_state(rng.random(dim), 1.0, op), op, model)
        y = rng.random(dim)
        updated = kalman_update(state, y, model)
        assert np.abs(updated.x_hat - y).max() < 1e-9
        assert np.abs(updated.pi).max() < 1e-9

    def test_zero_observation_is_identity(self):
        rng = np.random.default_rng(1)
        dim = 4
        op = make_operator(np.zeros((dim, dim)), 2, 2)
        model = ObservationModel(2, 2, (), np.zeros(dim), np.zeros(dim))
        state = kalman_predict(initial_state(rng.random(dim), 2.0, op), op, model)
        updated = kalman_update(state, np.zeros(dim), model)
        assert np.array_equal(updated.x_hat, state.x_hat)
        assert np.array_equal(updated.pi, state.pi)

    def test_scalar_gain_half(self):
        op = make_operator(np.zeros((1, 1)), 1, 1)
        model = ObservationModel(1, 1, (0,), r_diag=np.array([1.0]), q_diag=np.array([0.0]))
        state = KalmanState(
            x_hat=np.array([0.0]), pi=np.array([[1.0]]), phase=PHASE_PREDICTED,
            f_hat=np.eye(1),
        )
        updated = kalman_update(state, np.array([2.0]), model)
        assert updated.x_hat[0] == pytest.approx(1.0)  # gain 0.5 applied to innovation 2
        assert updated.pi[0, 0] == pytest.approx(0.5)

    def test_requires_predicted_phase(self):
        op = make_operator(np.zeros((1, 1)), 1, 1)
        model = full_observation_model(1, 1)
        state = initial_state(np.zeros(1), 1.0, op)
        with pytest.raises(ValidationError, match="phase"):
            kalman_update(state, np.zeros(1), model)

    def test_rejects_non_finite_observation(self):
        op = make_operator(np.zeros((1, 1)), 1, 1)
        model = full_observation_model(1, 1)
        state = kalman_predict(initial_state(np.zeros(1), 1.0, op), op, model)
        with pytest.raises(ValidationError):
            kalman_update(state, np.array([np.nan]), model)


def predicted_state(rng, dim, rank=None):
    """A predicted-phase state whose covariance is an exactly symmetric
    product of a dim x rank root with itself."""
    root = rng.standard_normal((dim, dim if rank is None else rank))
    pi = root @ root.T
    return KalmanState(
        x_hat=rng.random(dim), pi=0.5 * (pi + pi.T), phase=PHASE_PREDICTED, f_hat=np.eye(dim)
    )


class TestUpdateRoutes:
    def test_positive_noise_factors_the_block_and_gives_a_symmetric_covariance(self, monkeypatch):
        rng = np.random.default_rng(20)
        factored = []
        real = kalman._cholesky
        monkeypatch.setattr(kalman, "_cholesky", lambda r_e: factored.append(r_e) or real(r_e))
        state = predicted_state(rng, 12)
        model = ObservationModel(4, 3, (0, 2, 3), rng.random(12) + 1e-3, np.zeros(12))
        y = rng.random(12)
        updated = kalman_update(state, y, model)
        reference = pinv_update(state, y, model)
        assert len(factored) == 1
        assert np.array_equal(updated.pi, updated.pi.T)
        assert np.abs(updated.x_hat - reference.x_hat).max() <= 1e-12
        assert np.abs(updated.pi - reference.pi).max() <= 1e-12 * np.abs(reference.pi).max()

    def test_zero_noise_entry_on_rank_deficient_block_takes_the_pinv_route(self, monkeypatch):
        def refuse(r_e):
            raise AssertionError("factored a block with a zero noise variance")

        monkeypatch.setattr(kalman, "_cholesky", refuse)
        rng = np.random.default_rng(21)
        state = predicted_state(rng, 12, rank=2)
        r_diag = np.full(12, 1e-6)
        r_diag[[0, 4, 8]] = 0.0
        model = ObservationModel(4, 3, (0, 1, 2), r_diag, np.zeros(12))
        y = rng.random(12)
        updated = kalman_update(state, y, model)
        reference = pinv_update(state, y, model)
        assert np.array_equal(updated.x_hat, reference.x_hat)
        assert np.array_equal(updated.pi, reference.pi)

    def test_failed_factorization_falls_back_to_the_pinv_route(self):
        rng = np.random.default_rng(22)
        state = replace(predicted_state(rng, 4), pi=np.diag([1.0, -2.0, 3.0, 0.5]))
        model = ObservationModel(2, 2, (0, 1), np.full(4, 0.1), np.zeros(4))
        assert kalman._cholesky(np.diag([1.1, -1.9, 3.1, 0.6])) is None
        y = rng.random(4)
        updated = kalman_update(state, y, model)
        reference = pinv_update(state, y, model)
        assert np.array_equal(updated.x_hat, reference.x_hat)
        assert np.array_equal(updated.pi, reference.pi)


def factored_update(state, y, model):
    """The Cholesky-route update as plain expressions, each a new array; the
    bit-for-bit reference for ``kalman_update`` when every observed R > 0."""
    obs = np.flatnonzero(model.h_diag())
    pi_rows = state.pi[obs, :]
    factor = scipy.linalg.cholesky(np.diag(model.r_diag[obs]) + pi_rows[:, obs], lower=True)
    w = scipy.linalg.solve_triangular(factor, pi_rows, lower=True)
    whitened = scipy.linalg.solve_triangular(factor, y[obs] - state.x_hat[obs], lower=True)
    x_post = state.x_hat + w.T @ whitened
    return replace(state, x_hat=x_post, pi=state.pi - w.T @ w, phase=PHASE_UPDATED)


def state_bytes(state):
    return [a.tobytes() for a in (state.x_hat, state.pi, state.f_hat)]


class TestStepBuffers:
    """Each step forms its covariance in its own buffers: the input state's
    arrays stay byte-unchanged, and the result is the plain expressions' one
    bit for bit."""

    @pytest.mark.parametrize("r, reference", [(0.0, pinv_update), (1e-3, factored_update)])
    def test_update(self, r, reference):
        rng = np.random.default_rng(24)
        state = predicted_state(rng, 12)
        model = ObservationModel.build(4, 3, (0, 2, 3), r)
        y = rng.random(12)
        before = state_bytes(state)
        updated = kalman_update(state, y, model)
        assert state_bytes(state) == before
        expected = reference(state, y, model)
        assert updated.x_hat.tobytes() == expected.x_hat.tobytes()
        assert updated.pi.tobytes() == expected.pi.tobytes()

    @pytest.mark.parametrize("zero_pi", [False, True])
    def test_predict(self, zero_pi):
        rng = np.random.default_rng(25)
        dim = 9
        f = np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
        state = replace(predicted_state(rng, dim), phase=PHASE_UPDATED, f_hat=f)
        if zero_pi:
            state = replace(state, pi=np.zeros((dim, dim)))
        q = rng.random(dim)
        model = ObservationModel(3, 3, (0,), np.zeros(dim), q)
        before = state_bytes(state)
        predicted = kalman_predict(state, make_operator(f - np.eye(dim), 3, 3), model)
        assert state_bytes(state) == before
        expected = np.zeros((dim, dim)) if zero_pi else f @ state.pi @ f.T
        expected.flat[:: dim + 1] += q
        assert predicted.x_hat.tobytes() == (f @ state.x_hat).tobytes()
        assert predicted.pi.tobytes() == (0.5 * (expected + expected.T)).tobytes()


class TestKalmanPredict:
    def test_process_noise_on_the_diagonal_is_the_diagonal_matrix_sum(self):
        rng = np.random.default_rng(23)
        dim = 9
        f = np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
        q = rng.random(dim)
        state = replace(predicted_state(rng, dim), phase=PHASE_UPDATED, f_hat=f)
        model = ObservationModel(3, 3, (0,), np.zeros(dim), q)
        predicted = kalman_predict(state, make_operator(f - np.eye(dim), 3, 3), model)
        expected = f @ state.pi @ f.T + np.diag(q)
        assert predicted.pi.tobytes() == (0.5 * (expected + expected.T)).tobytes()

    def test_identity_dynamics_zero_process_noise(self):
        rng = np.random.default_rng(2)
        dim = 4
        op = make_operator(np.zeros((dim, dim)), 2, 2)
        model = full_observation_model(2, 2, q=0.0)
        state = initial_state(rng.random(dim), 3.0, op)
        predicted = kalman_predict(state, op, model)
        assert np.array_equal(predicted.x_hat, state.x_hat)
        assert np.abs(predicted.pi - state.pi).max() < 1e-12

    def test_process_noise_grows_covariance_by_q(self):
        dim = 4
        op = make_operator(np.zeros((dim, dim)), 2, 2)
        model = full_observation_model(2, 2, q=0.3)
        state = initial_state(np.zeros(dim), 2.0, op)
        predicted = kalman_predict(state, op, model)
        assert np.abs(predicted.pi - (2.0 * np.eye(dim) + 0.3 * np.eye(dim))).max() < 1e-12

    def test_requires_updated_phase(self):
        op = make_operator(np.zeros((1, 1)), 1, 1)
        model = full_observation_model(1, 1)
        state = kalman_predict(initial_state(np.zeros(1), 1.0, op), op, model)
        with pytest.raises(ValidationError, match="phase"):
            kalman_predict(state, op, model)

    def test_uses_transition_built_by_initial_state(self):
        op = make_operator(np.array([[-0.3]]), 1, 1)
        model = full_observation_model(1, 1)
        state = initial_state(np.array([2.0]), 1.0, op)
        assert np.array_equal(state.f_hat, transition_matrix(op))
        carried = KalmanState(
            x_hat=state.x_hat, pi=state.pi, phase=state.phase, f_hat=np.array([[0.5]])
        )
        assert kalman_predict(carried, op, model).x_hat[0] == pytest.approx(1.0)

    def test_state_rejects_transition_of_wrong_size(self):
        with pytest.raises(ValidationError, match="transition"):
            KalmanState(x_hat=np.zeros(2), pi=np.eye(2), phase=PHASE_UPDATED, f_hat=np.eye(3))

    def test_transition_is_identity_plus_generator(self):
        lam = np.array([[-0.3]])
        op = make_operator(lam, 1, 1)
        assert np.array_equal(transition_matrix(op), np.array([[0.7]]))


class TestScalarEquivalence:
    def test_three_step_chain_matches_oracle(self):
        lam = np.array([[-0.4]])
        op = make_operator(lam, 1, 1)
        f = 0.6
        q, r = 0.05, 0.2
        model = ObservationModel(1, 1, (0,), r_diag=np.array([r]), q_diag=np.array([q]))
        observations = [0.9, 0.4, 0.7]
        oracle, _ = scalar_recursion(1.0, 0.8, f, q, r, 1, observations)
        state = initial_state(np.array([1.0]), 0.8, op)
        for step, y in enumerate(observations):
            state = kalman_predict(state, op, model)
            ox, opi = oracle[step]
            assert state.x_hat[0] == pytest.approx(ox, abs=1e-12)
            assert state.pi[0, 0] == pytest.approx(opi, abs=1e-12)
            state = kalman_update(state, np.array([y]), model)

    def test_full_pipeline_matches_oracle_on_scalar_system(self):
        lam = np.array([[-0.3]])
        op = make_operator(lam, 1, 1)
        q, r, pi0 = 0.04, 0.15, 0.6
        model = ObservationModel(1, 1, (0,), r_diag=np.array([r]), q_diag=np.array([q]))
        truths = [1.0, 0.8, 0.9, 0.5, 0.7]
        index = {(1, "n0"): 0}
        series = make_series(index, [np.array([[v]]) for v in truths], train_count=1)
        result = run_filter(series, op, model, pi0=pi0)
        oracle, _ = scalar_recursion(truths[0], pi0, 0.7, q, r, 1, truths[1:])
        for step, (ox, opi) in enumerate(oracle):
            assert float(result.predictions[step][0, 0]) == pytest.approx(ox, abs=1e-12)


class TestCovarianceInvariants:
    def test_update_never_increases_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_nodes, n_topics = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            dim = n_nodes * n_topics
            lam = 0.2 * rng.standard_normal((dim, dim))
            op = make_operator(lam, n_nodes, n_topics)
            observed = tuple(
                int(i) for i in rng.choice(n_nodes, size=rng.integers(0, n_nodes + 1), replace=False)
            )
            model = ObservationModel(
                n_nodes,
                n_topics,
                observed,
                r_diag=rng.random(dim) * 0.5,
                q_diag=rng.random(dim) * 0.5,
            )
            root = rng.standard_normal((dim, dim))
            pi0 = root @ root.T + 0.1 * np.eye(dim)
            state = KalmanState(
                x_hat=rng.random(dim), pi=pi0, phase=PHASE_PREDICTED,
                f_hat=transition_matrix(op),
            )
            updated = kalman_update(state, rng.random(dim), model)
            assert np.abs(updated.pi - updated.pi.T).max() < 1e-9
            difference = state.pi - updated.pi
            assert np.linalg.eigvalsh(difference).min() > -1e-9
            assert np.linalg.eigvalsh(updated.pi).min() > -1e-9

    def test_observed_coordinates_pinned_when_r_zero(self):
        rng = np.random.default_rng(4)
        op = make_operator(0.1 * rng.standard_normal((6, 6)), 3, 2)
        model = ObservationModel(3, 2, (0, 2), r_diag=np.zeros(6), q_diag=np.full(6, 0.1))
        state = kalman_predict(initial_state(rng.random(6), 1.0, op), op, model)
        truth = rng.random(6)
        h = model.h_diag()
        updated = kalman_update(state, h * truth, model)
        assert np.abs((updated.x_hat - truth) * h).max() < 1e-9


def make_series(node_index, states, train_count):
    snaps = tuple(
        StateMatrix(matrix=m, node_index=dict(node_index), timestamp=float(i))
        for i, m in enumerate(states)
    )
    return SnapshotSeries(snapshots=snaps, train_count=train_count)


class TestRunFilter:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.n_nodes, self.n_topics = 4, 2
        dim = self.n_nodes * self.n_topics
        self.node_index = {(1, f"n{i}"): i for i in range(self.n_nodes)}
        self.lam = -0.2 * np.eye(dim) + 0.05 * rng.standard_normal((dim, dim))
        self.op = make_operator(self.lam, self.n_nodes, self.n_topics)
        self.f = np.eye(dim) + self.lam
        # States generated exactly by the filter's own dynamics.
        from supraflow import devectorize, vectorize

        x = rng.random(dim)
        states = []
        for _ in range(6):
            states.append(devectorize(x, self.n_nodes, self.n_topics))
            x = self.f @ x
        self.states = states
        self.rng = rng

    def test_full_observation_zero_noise_gives_one_step_dynamics_error(self):
        from supraflow import vectorize

        series = make_series(self.node_index, self.states, train_count=2)
        model = full_observation_model(self.n_nodes, self.n_topics, r=0.0, q=0.0)
        result = run_filter(series, self.op, model, pi0=1.0)
        # Dynamics match the data generator exactly, so errors vanish.
        assert result.errors_all.max() < 1e-9

    def test_zero_observation_equals_open_loop(self):
        from supraflow import vectorize

        series = make_series(self.node_index, self.states, train_count=2)
        dim = self.n_nodes * self.n_topics
        model = ObservationModel(
            self.n_nodes, self.n_topics, (), np.zeros(dim), np.full(dim, 0.1)
        )
        result = run_filter(series, self.op, model, pi0=1.0)
        x = vectorize(self.states[1])
        for prediction in result.predictions:
            x = self.f @ x
            assert np.abs(vectorize(prediction) - x).max() < 1e-12

    def test_exponential_transition_predicts_like_the_learned_operator(self):
        series = make_series(self.node_index, self.states, train_count=2)
        dim = self.n_nodes * self.n_topics
        model = ObservationModel(
            self.n_nodes, self.n_topics, (), np.zeros(dim), np.full(dim, 0.1)
        )
        result = run_filter(
            series, self.op, model, pi0=1.0, transition=matrix_exponential(self.lam)
        )
        expected = one_step_predict_learned(self.op, self.states[1])
        assert np.abs(result.predictions[0] - expected).max() < 1e-12

    def test_given_transition_is_used_without_forming_identity_plus_generator(
        self, monkeypatch
    ):
        def refuse(op):
            raise AssertionError("I + A formed although a transition was given")

        monkeypatch.setattr(kalman, "transition_matrix", refuse)
        series = make_series(self.node_index, self.states, train_count=2)
        model = full_observation_model(self.n_nodes, self.n_topics, r=0.1, q=0.1)
        result = run_filter(series, self.op, model, pi0=1.0, transition=self.f)
        assert np.array_equal(joined_final_state(result).f_hat, self.f)

    def test_filter_fractions_is_run_filter_on_nested_masks(self):
        series = make_series(self.node_index, self.states, train_count=2)
        op = replace(self.op, residual_variance=np.full(self.n_nodes * self.n_topics, 0.01))
        masks = nested_masks(self.n_nodes, [0.25, 0.75], seed=3)
        results = filter_fractions(series, op, masks, r_observed=0.2)
        assert list(results) == [0.25, 0.75]
        for fraction, result in results.items():
            model = ObservationModel.build(
                self.n_nodes, self.n_topics, masks[fraction], 0.2, op.residual_variance
            )
            expected = run_filter(
                series, op, model, pi0=0.0, transition=matrix_exponential(self.lam)
            )
            assert result.observed_nodes == masks[fraction]
            assert np.array_equal(result.errors_all, expected.errors_all)
            assert np.array_equal(result.trace_pi, expected.trace_pi)

    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.1])
    def test_every_covariance_is_exactly_symmetric(self, monkeypatch, r):
        covariances = []
        for name in ("kalman_predict", "kalman_update"):
            real = getattr(kalman, name)

            def recorded(*args, real=real):
                state = real(*args)
                covariances.append(state.pi)
                return state

            monkeypatch.setattr(kalman, name, recorded)
        series = make_series(self.node_index, self.states, train_count=2)
        model = ObservationModel.build(self.n_nodes, self.n_topics, (1, 3), r, np.full(8, 0.01))
        run_filter(series, self.op, model, pi0=0.5)
        assert len(covariances) == 2 * (len(self.states) - 2)
        assert all(np.array_equal(pi, pi.T) for pi in covariances)

    def test_filter_fractions_matches_the_pinv_reference(self, monkeypatch):
        series = make_series(self.node_index, self.states, train_count=2)
        op = replace(self.op, residual_variance=np.full(self.n_nodes * self.n_topics, 0.01))
        masks = nested_masks(self.n_nodes, [0.25, 0.5, 1.0], seed=3)
        results = filter_fractions(series, op, masks)
        monkeypatch.setattr(kalman, "kalman_update", pinv_update)
        reference = filter_fractions(series, op, masks)
        for fraction, result in results.items():
            expected = reference[fraction].errors_all.mean()
            assert abs(result.errors_all.mean() - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("q", [0.0, 0.01])
    def test_zero_covariance_predict_is_bit_equal_to_the_full_product(self, monkeypatch, q):
        series = make_series(self.node_index, self.states, train_count=2)
        op = replace(self.op, residual_variance=np.full(self.n_nodes * self.n_topics, q))
        masks = nested_masks(self.n_nodes, [0.25, 1.0], seed=3)
        skipped = []
        real = kalman_predict

        def counted(state, op, model):
            skipped.append(not state.pi.any())
            return real(state, op, model)

        monkeypatch.setattr(kalman, "kalman_predict", counted)
        results = filter_fractions(series, op, masks)
        assert skipped[0] and sum(skipped) >= len(masks)

        def full_product_predict(state, op, model):
            f = state.f_hat
            pi_next = f @ state.pi @ f.T
            pi_next.flat[:: pi_next.shape[0] + 1] += model.q_diag
            return KalmanState(f @ state.x_hat, 0.5 * (pi_next + pi_next.T), PHASE_PREDICTED, f)

        monkeypatch.setattr(kalman, "kalman_predict", full_product_predict)
        reference = filter_fractions(series, op, masks)
        for fraction, result in results.items():
            expected = reference[fraction]
            assert result.trace_pi.tobytes() == expected.trace_pi.tobytes()
            pi, expected_pi = joined_final_state(result).pi, joined_final_state(expected).pi
            assert pi.tobytes() == expected_pi.tobytes()
            for got, want in zip(result.predictions, expected.predictions, strict=True):
                assert got.tobytes() == want.tobytes()

    def test_needs_two_test_snapshots(self):
        series = make_series(self.node_index, self.states, train_count=len(self.states))
        model = full_observation_model(self.n_nodes, self.n_topics)
        with pytest.raises(ValidationError):
            run_filter(series, self.op, model, pi0=1.0)

    def test_trace_csv(self, tmp_path):
        series = make_series(self.node_index, self.states, train_count=2)
        model = ObservationModel(
            self.n_nodes, self.n_topics, (0, 1),
            r_diag=np.zeros(8), q_diag=np.full(8, 0.05),
        )
        result = run_filter(series, self.op, model, pi0=0.0)
        path = tmp_path / "trace.csv"
        write_filter_trace_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,error_all,error_observed,error_hidden,trace_Pi"
        assert len(lines) == 1 + len(result.steps)


class TestTopicRoute:
    """``filter_fractions`` runs per topic exactly when the corrections G are
    all zero, and then forms no PT x PT exponential or covariance; any nonzero
    correction takes the PT route.  ``one_step_predict_learned`` takes the
    structured whole-state action either way."""

    n_nodes, n_topics = 4, 3

    def setup_method(self):
        rng = np.random.default_rng(21)
        half = 0.3 * rng.standard_normal((self.n_nodes, self.n_nodes))
        self.block = half + half.T
        self.states = list(rng.random((6, self.n_nodes, self.n_topics)))
        self.q = rng.uniform(0.01, 0.1, self.n_nodes * self.n_topics)

    def shapes_seen(self, monkeypatch, op):
        """Shapes of every matrix exponential and filter covariance that
        ``filter_fractions`` forms, and of the lifted PT x PT operator of
        each Taylor action that ``one_step_predict_learned`` takes."""
        seen = {"filter_expm": [], "pi": [], "predict_action": []}
        for module in (kalman, diffusion):
            real = module.matrix_exponential

            def recorded(a, real=real):
                seen["filter_expm"].append(np.shape(a))
                return real(a)

            monkeypatch.setattr(module, "matrix_exponential", recorded)
        for name in ("kalman_predict", "kalman_update"):
            real_step = getattr(kalman, name)

            def recorded_step(state, *args, real_step=real_step):
                seen["pi"].append(state.pi.shape)
                return real_step(state, *args)

            monkeypatch.setattr(kalman, name, recorded_step)
        op = replace(op, residual_variance=self.q)
        node_index = {(1, f"n{i}"): i for i in range(self.n_nodes)}
        series = make_series(node_index, self.states, train_count=2)
        filter_fractions(series, op, nested_masks(self.n_nodes, [0.5, 1.0], seed=2))
        monkeypatch.undo()

        real_taylor = diffusion._taylor_action

        def recorded_whole(operator, *rest):
            seen["predict_action"].append(operator.lifted.shape)
            return real_taylor(operator, *rest)

        monkeypatch.setattr(diffusion, "_taylor_action", recorded_whole)
        one_step_predict_learned(op, np.stack(self.states))
        return seen

    def test_kronecker_generator_runs_per_topic(self, monkeypatch):
        op = topic_operator(self.block, self.n_topics)
        assert op.per_topic
        assert np.array_equal(op.lambda_hat, np.kron(np.eye(self.n_topics), self.block))
        seen = self.shapes_seen(monkeypatch, op)
        small = (self.n_nodes, self.n_nodes)
        whole = (self.n_nodes * self.n_topics,) * 2
        # One e^{B} for both fractions; per fraction, 4 test steps of one
        # predict and one update in each of the T topic filters.
        assert seen["filter_expm"] == [small]
        assert seen["pi"] == [small] * (2 * 2 * 4 * self.n_topics)
        assert seen["predict_action"] == [whole]

    @pytest.mark.parametrize("correction", [1e-3, 5e-324])
    def test_any_nonzero_correction_takes_the_whole_state_route(self, monkeypatch, correction):
        dim = self.n_nodes * self.n_topics
        inputs = np.random.default_rng(23).random((dim, 2))
        corrections = np.zeros((dim, 2))
        corrections[self.n_nodes + 1, 1] = correction
        op = learned_operator(self.block, inputs, corrections, self.n_nodes, self.n_topics)
        assert not op.per_topic
        seen = self.shapes_seen(monkeypatch, op)
        whole = (dim, dim)
        assert seen["filter_expm"] == [whole]
        assert seen["pi"] == [whole] * (2 * 2 * 4)
        assert seen["predict_action"] == [whole]


class TestDenseCap:
    """Above ``MAX_LEARN_DIM`` the consumers of the dense PT x PT generator
    fail with ValidationError before allocating it; the per-topic filter,
    which forms no such array, runs, and the one-step prediction with G = 0
    forms not even a P x P one."""

    n_topics = 2

    def operator(self, corrected):
        n_nodes = MAX_LEARN_DIM // 2 + 1
        network, supra = ring_supra(n_nodes)
        dim = n_nodes * self.n_topics
        rng = np.random.default_rng(24)
        inputs = rng.random((dim, 1))
        corrections = 1e-3 * inputs if corrected else np.zeros((dim, 1))
        op = learned_operator(-0.1 * supra.csr, inputs, corrections, n_nodes, self.n_topics)
        states = list(rng.random((3, n_nodes, self.n_topics)))
        return make_series(network.node_index, states, train_count=2), op

    @pytest.mark.parametrize(
        "consumer, name",
        [
            (
                lambda series, op: filter_fractions(series, op, {1.0: (0, 1)}),
                "the whole-state Kalman filter",
            ),
            (lambda series, op: transition_matrix(op), "transition_matrix"),
        ],
    )
    def test_whole_state_consumers_fail_before_allocating(self, consumer, name):
        series, op = self.operator(corrected=True)
        dim = op.n_nodes * op.n_topics
        assert dim == MAX_LEARN_DIM + 2
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"{name} needs the dense {dim} x {dim}"):
                consumer(series, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim * dim * 8

    def test_per_topic_filter_runs_past_the_cap(self):
        series, op = self.operator(corrected=False)
        results = filter_fractions(series, op, {1.0: (0, 1)})
        assert len(results[1.0].final_states) == self.n_topics

    def test_uncorrected_prediction_holds_no_node_by_node_array(self):
        series, op = self.operator(corrected=False)
        states = np.stack([snap.matrix for snap in series.snapshots])
        tracemalloc.start()
        try:
            predicted = one_step_predict_learned(op, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert predicted.shape == states.shape and np.isfinite(predicted).all()
        # One 2001 x 2001 array is 32 MB.
        assert peak < 8_000_000


class TestPerTopicFinalState:
    """On the per-topic route ``filter_fractions`` keeps each topic filter's
    final state and never joins them into a whole-state one."""

    n_nodes, n_topics = 50, 8

    def inputs(self):
        """The series, a kron(I_T, B) operator and the masks of two fractions."""
        rng = np.random.default_rng(22)
        half = 0.1 * rng.standard_normal((self.n_nodes, self.n_nodes))
        dim = self.n_nodes * self.n_topics
        op = replace(
            topic_operator(half + half.T, self.n_topics),
            residual_variance=np.full(dim, 0.01),
        )
        node_index = {(1, f"n{i}"): i for i in range(self.n_nodes)}
        states = list(rng.random((5, self.n_nodes, self.n_topics)))
        series = make_series(node_index, states, train_count=2)
        masks = nested_masks(self.n_nodes, [0.5, 1.0], seed=2)
        return series, op, masks

    def test_filtering_forms_no_whole_state_matrix(self):
        inputs = self.inputs()
        dim = self.n_nodes * self.n_topics
        tracemalloc.start()
        try:
            results = filter_fractions(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two fractions of eight 50 x 50 topic filters each stay below one
        # 400 x 400 covariance; joining the states would form two per fraction.
        assert peak < dim * dim * 8
        assert all(len(result.final_states) == self.n_topics for result in results.values())

    def test_topic_states_join_to_the_whole_state_filters_final_state(self):
        series, op, masks = self.inputs()
        topic = matrix_exponential(op.block.toarray())
        whole = scipy.linalg.block_diag(*[topic] * self.n_topics)
        for fraction, result in filter_fractions(series, op, masks).items():
            states = result.final_states
            assert all(s.phase == PHASE_UPDATED and s.f_hat is states[0].f_hat for s in states)
            observed = masks[fraction]
            model = ObservationModel.build(
                self.n_nodes, self.n_topics, observed, kalman.R_OBSERVED, op.residual_variance
            )
            (expected,) = run_filter(series, op, model, pi0=0.0, transition=whole).final_states
            joined = joined_final_state(result)
            assert np.array_equal(joined.f_hat, whole)
            scale = np.abs(expected.x_hat).max()
            assert np.abs(joined.x_hat - expected.x_hat).max() <= 1e-12 * scale
            # As in the property test: the last update's cancellation rounds
            # relative to the predicted trace.
            assert np.abs(joined.pi - expected.pi).max() <= 1e-12 * result.trace_pi.max()


def assert_same_bytes(result, expected):
    for name in ("steps", "errors_all", "errors_observed", "errors_hidden", "trace_pi"):
        assert getattr(result, name).tobytes() == getattr(expected, name).tobytes()
    assert joined_final_state(result).pi.tobytes() == joined_final_state(expected).pi.tobytes()
    for got, want in zip(result.predictions, expected.predictions, strict=True):
        assert got.tobytes() == want.tobytes()


class TestConcurrentFractions:
    """``filter_fractions`` runs groups of fractions on helper threads, with
    results that do not depend on how many CPUs the process may use."""

    n_topics = 2

    def learned(self, max_iters):
        """A series on a random network and the operator learned from it:
        no rank-1 update keeps kron(I_T, -L), forced updates break that form."""
        rng = np.random.default_rng(31)
        network, constants = random_network(rng)
        supra = assemble_supra_laplacian(network, constants)
        step = matrix_exponential(-0.3 * supra.csr.toarray())
        x = rng.random((network.n_nodes, self.n_topics))
        snaps = []
        for t in range(7):
            noisy = x + 0.01 * rng.standard_normal(x.shape)
            snaps.append(StateMatrix(noisy, dict(network.node_index), float(t)))
            x = step @ x
        series = SnapshotSeries(tuple(snaps), train_count=3)
        op = learn_supra_operator(series, supra, threshold=0.0, max_iters=max_iters)
        return series, op

    @pytest.mark.parametrize("updates", [0, 3])
    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch, updates):
        series, op = self.learned(updates)
        assert op.per_topic == (updates == 0)
        masks = nested_masks(series.n_nodes, [0.25, 1.0, 0.5, 0.75], seed=4)
        unrestricted = filter_fractions(series, op, masks)
        for cpus in (1, 2, len(masks)):
            monkeypatch.setattr(kalman, "_usable_cpus", lambda: cpus)
            results = filter_fractions(series, op, masks)
            assert list(results) == list(masks)
            for fraction, result in results.items():
                assert result.observed_nodes == masks[fraction]
                assert_same_bytes(result, unrestricted[fraction])

    def test_a_helper_failure_is_raised_and_no_helper_outlives_the_call(self, monkeypatch):
        series, op = self.learned(0)
        masks = nested_masks(series.n_nodes, [0.25, 0.5, 1.0], seed=4)
        # Two groups, by observed count: (1.0) on the caller, (0.5, 0.25) on a helper.
        monkeypatch.setattr(kalman, "_usable_cpus", lambda: 2)
        failed_on = []
        real = kalman._run_lockstep

        def failing(test, op, model, filters):
            if model.observed_nodes == masks[0.25]:
                failed_on.append(threading.current_thread())
                raise NumericalError("covariance is non-finite")
            return real(test, op, model, filters)

        monkeypatch.setattr(kalman, "_run_lockstep", failing)
        threads = threading.active_count()
        with pytest.raises(NumericalError, match="non-finite"):
            filter_fractions(series, op, masks)
        assert threading.active_count() == threads
        assert len(failed_on) == 1 and failed_on[0] is not threading.current_thread()


class TestObservationModelBuild:
    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            ObservationModel.build(3, 2, [5])

    def test_r_diag_is_the_observed_indicator_times_r(self):
        model = ObservationModel.build(5, 3, [4, 1], r_observed=2.5e-3)
        mask = np.zeros(5)
        mask[[4, 1]] = 1.0
        assert model.r_diag.tobytes() == (np.tile(mask, 3) * 2.5e-3).tobytes()
        assert model.q_diag.tobytes() == np.zeros(15).tobytes()

    def test_negative_node_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            ObservationModel.build(3, 2, [-1])

    def test_observed_coordinates_are_formed_once_and_read_only(self):
        model = ObservationModel.build(5, 3, [4, 1])
        assert model.observed is model.observed
        assert np.array_equal(model.observed, np.flatnonzero(model.h_diag()))
        assert model.observed.dtype == np.intp
        with pytest.raises(ValueError):
            model.observed[0] = 0
        assert ObservationModel.build(5, 3, []).observed.size == 0


class TestMasks:
    def test_sample_fraction_size(self):
        mask = nested_masks(40, [0.25], seed=0)[0.25]
        assert len(mask) == 10
        assert len(set(mask)) == 10

    def test_nested_masks_are_nested(self):
        masks = nested_masks(40, (0.1, 0.15, 0.2, 0.25), seed=1)
        previous = set()
        for fraction in (0.1, 0.15, 0.2, 0.25):
            current = set(masks[fraction])
            assert previous <= current
            previous = current

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError):
            nested_masks(10, [1.5], seed=0)

    def test_positive_fraction_observing_no_node_rejected(self):
        assert nested_masks(13, [0.0], seed=0) == {0.0: ()}
        with pytest.raises(ValidationError, match="observes no node"):
            nested_masks(13, [0.5, 0.01], seed=0)

    def test_mask_csv(self, tmp_path):
        path = tmp_path / "mask.csv"
        write_mask_csv(path, (1, 3), labels=["1:a", "1:b", "1:c", "1:d"])
        assert path.read_text().splitlines() == ["node_id", "1:b", "1:d"]
