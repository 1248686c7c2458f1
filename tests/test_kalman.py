from dataclasses import replace

import numpy as np
import pytest

from supraflow import (
    ObservationModel,
    SnapshotSeries,
    StateMatrix,
    ValidationError,
    kalman_predict,
    kalman_update,
    matrix_exponential,
    nested_masks,
    one_step_predict_learned,
    run_filter,
)
from supraflow import kalman
from supraflow.kalman import (
    PHASE_PREDICTED,
    PHASE_UPDATED,
    KalmanState,
    filter_fractions,
    initial_state,
    transition_matrix,
    write_filter_trace_csv,
    write_mask_csv,
)
from conftest import make_operator


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


class TestKalmanPredict:
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
        assert np.array_equal(result.final_state.f_hat, self.f)

    def test_filter_fractions_is_run_filter_on_nested_masks(self):
        series = make_series(self.node_index, self.states, train_count=2)
        op = replace(self.op, residual_variance=np.full(self.n_nodes * self.n_topics, 0.01))
        results = filter_fractions(series, op, [0.25, 0.75], seed=3, r_observed=0.2)
        masks = nested_masks(self.n_nodes, [0.25, 0.75], seed=3)
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

    def test_default_pi0_is_empirical_variance(self):
        series = make_series(self.node_index, self.states, train_count=2)
        model = full_observation_model(self.n_nodes, self.n_topics, r=0.1, q=0.1)
        result = run_filter(series, self.op, model)
        assert result.final_state is not None

    def test_needs_two_test_snapshots(self):
        series = make_series(self.node_index, self.states, train_count=len(self.states))
        model = full_observation_model(self.n_nodes, self.n_topics)
        with pytest.raises(ValidationError):
            run_filter(series, self.op, model)

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

    def test_mask_csv(self, tmp_path):
        path = tmp_path / "mask.csv"
        write_mask_csv(path, (1, 3), labels=["1:a", "1:b", "1:c", "1:d"])
        assert path.read_text().splitlines() == ["node_id", "1:b", "1:d"]
