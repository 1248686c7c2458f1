import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from supraflow import (
    LayerSpec,
    NumericalError,
    SnapshotSeries,
    StateMatrix,
    SyntheticSpec,
    ValidationError,
    assemble_supra_laplacian,
    devectorize,
    fit_diffusion_constants,
    generate_synthetic,
    learn_supra_operator,
    one_step_predict_learned,
    propagate_closed,
    vectorize,
)
from supraflow import calibration, diffusion
from supraflow.calibration import (
    read_operator_matrix,
    write_fit_report,
    write_matrix_csv,
)
from supraflow.kalman import MAX_LEARN_DIM
from conftest import (
    connected_adjacency,
    directed_network,
    kronecker_lift,
    ring_supra,
    single_layer_supra,
)


def toy_spec(**overrides):
    base = dict(
        layers=(
            LayerSpec("agent", 4, "erdos_renyi", edge_prob=0.7),
            LayerSpec("agent", 4, "erdos_renyi", edge_prob=0.6),
            LayerSpec("information", 6, "knn", k_neighbors=2),
        ),
        n_topics=2,
        intra_constants={1: 1.3, 2: 0.7, 3: 1.9},
        inter_constants={(1, 2): 0.9, (1, 3): 0.5, (2, 3): 1.4},
        n_snapshots=8,
        spacing=0.5,
        train_count=8,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def series_from_operator(lam, x0_vec, n_nodes, n_topics, node_index, count, train=None):
    """Snapshots produced by exact exponentials of a vectorized generator."""
    propagator = scipy.linalg.expm(lam)
    snaps = []
    x = x0_vec.copy()
    for i in range(count):
        snaps.append(
            StateMatrix(devectorize(x, n_nodes, n_topics), dict(node_index), float(i))
        )
        x = propagator @ x
    return SnapshotSeries(tuple(snaps), train_count=train or count)


class TestVectorize:
    def test_column_stacking(self):
        assert np.array_equal(vectorize(np.array([[1.0, 2.0], [3.0, 4.0]])), [1, 3, 2, 4])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.random((5, 3))
        assert np.array_equal(devectorize(vectorize(x), 5, 3), x)

    def test_length(self):
        assert vectorize(np.zeros((5, 3))).shape == (15,)

    def test_bad_length_rejected(self):
        with pytest.raises(ValidationError):
            devectorize(np.zeros(7), 2, 3)

    def test_kronecker_consistency(self):
        rng = np.random.default_rng(1)
        _, supra = single_layer_supra(connected_adjacency(rng, 5))
        x = rng.random((5, 3))
        lifted = kronecker_lift(supra, 3)
        direct = -supra.csr.toarray() @ x
        via_kron = devectorize(lifted @ vectorize(x), 5, 3)
        assert np.abs(via_kron - direct).max() < 1e-12


class TestFitDiffusionConstants:
    def test_recovers_planted_constants(self):
        network, series, truth = generate_synthetic(toy_spec(), seed=3)
        fit = fit_diffusion_constants(series, network)
        assert fit.objective < 1e-8
        assert fit.identifiable
        for layer_id, planted in truth.constants.intra.items():
            assert abs(fit.constants.intra[layer_id] - planted) / planted < 0.01
        for key, planted in truth.constants.inter.items():
            assert abs(fit.constants.inter[key] - planted) / planted < 0.01

    def test_objective_trace_non_increasing(self):
        network, series, _ = generate_synthetic(toy_spec(n_snapshots=5, train_count=5), seed=4)
        fit = fit_diffusion_constants(series, network)
        trace = np.array(fit.objective_trace)
        assert np.all(np.diff(trace) <= 1e-15)

    def test_recovers_planted_constants_after_an_overshooting_step(self):
        from test_harness import interconnected_spec

        # On this series the second step from the start overshoots, so the
        # fit has to raise its damping and retry.
        network, series, truth = generate_synthetic(interconnected_spec(), seed=5)
        fit = fit_diffusion_constants(series, network)
        assert fit.objective < 1e-8
        for layer_id, planted in truth.constants.intra.items():
            assert abs(fit.constants.intra[layer_id] - planted) / planted < 0.01
        for key, planted in truth.constants.inter.items():
            assert abs(fit.constants.inter[key] - planted) / planted < 0.01

    def test_recovers_planted_constants_on_a_directed_network(self):
        rng = np.random.default_rng(0)
        network, planted = directed_network(rng)
        planted_supra = assemble_supra_laplacian(network, planted)
        propagator = scipy.linalg.expm(-planted_supra.csr.toarray() * 0.1)
        x = rng.random((network.n_nodes, 2))
        snaps = []
        for i in range(6):
            snaps.append(StateMatrix(x, dict(network.node_index), 0.1 * i))
            x = propagator @ x
        fit = fit_diffusion_constants(SnapshotSeries(tuple(snaps)), network)
        assert len(planted.inter) == 6  # every layer pair, both directions
        assert fit.converged and fit.identifiable
        for layer_id, value in planted.intra.items():
            assert abs(fit.constants.intra[layer_id] - value) / value < 0.01
        for pair, value in planted.inter.items():
            assert abs(fit.constants.inter[pair] - value) / value < 0.01

    def test_converges_with_a_constant_held_at_zero(self):
        # The noise puts the unconstrained optimum of the zero constant below
        # zero, so the bound is active at the solution.
        network, series, _ = generate_synthetic(
            toy_spec(sigma_ratio=0.05, intra_constants={1: 1.3, 2: 0.0, 3: 1.9}), seed=4
        )
        fit = fit_diffusion_constants(series, network)
        assert fit.constants.intra[2] == 0.0
        assert fit.converged and fit.sweeps <= 20

    def test_consensus_series_flagged_non_identifiable(self):
        rng = np.random.default_rng(5)
        network, _ = single_layer_supra(connected_adjacency(rng, 4))
        consensus = np.ones((4, 2)) * np.array([0.4, 0.6])
        snaps = tuple(
            StateMatrix(consensus, dict(network.node_index), float(t)) for t in range(4)
        )
        fit = fit_diffusion_constants(SnapshotSeries(snaps), network)
        assert not fit.identifiable
        assert fit.constants.intra[1] == 1.0  # the initialization
        assert fit.objective < 1e-25

    def test_sigma_estimate_within_30_percent(self):
        rng = np.random.default_rng(6)
        network, supra = single_layer_supra(connected_adjacency(rng, 6), constant=0.8)
        sigma = 0.01
        dt = 0.2
        propagator = scipy.linalg.expm(-supra.csr.toarray() * dt)
        x = rng.random((6, 2))
        snaps = []
        for i in range(51):
            snaps.append(StateMatrix(x, dict(network.node_index), i * dt))
            x = propagator @ x + sigma * np.sqrt(dt) * rng.standard_normal((6, 2))
        fit = fit_diffusion_constants(SnapshotSeries(tuple(snaps)), network)
        mean_sigma = float(fit.sigma.mean())
        assert abs(mean_sigma - sigma) / sigma < 0.30

    def test_too_few_snapshots_rejected(self):
        rng = np.random.default_rng(7)
        network, _ = single_layer_supra(connected_adjacency(rng, 3))
        snaps = (StateMatrix(np.ones((3, 1)), dict(network.node_index), 0.0),)
        with pytest.raises(ValidationError):
            fit_diffusion_constants(SnapshotSeries(snaps), network)


class TestFitWork:
    """What a fit decomposes: one eigendecomposition per objective evaluation
    for a symmetric operator, reused by the Jacobian there, and no
    exponential action; exponential actions for a directed one, one per
    distinct dt for an evaluation and one per constant and distinct dt for a
    Jacobian, never an eigendecomposition or a dense Frechet derivative."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"eigh": [], "exponential_action": [], "expm_frechet": 0}
        eigh, action = np.linalg.eigh, calibration.exponential_action
        frechet = scipy.linalg.expm_frechet

        def counted_eigh(a, *args, **kwargs):
            calls["eigh"].append(np.array(a))
            return eigh(a, *args, **kwargs)

        def counted_action(a, x):
            calls["exponential_action"].append(a.shape)
            return action(a, x)

        def counted_frechet(*args, **kwargs):
            calls["expm_frechet"] += 1
            return frechet(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(calibration, "exponential_action", counted_action)
        monkeypatch.setattr(scipy.linalg, "expm_frechet", counted_frechet)
        return calls

    def test_symmetric_fit_decomposes_once_per_evaluation(self, monkeypatch):
        network, series, _ = generate_synthetic(toy_spec(), seed=3)
        calls = self.count_calls(monkeypatch)
        fit = fit_diffusion_constants(series, network)
        assert fit.sweeps >= 2 and fit.evaluations > fit.sweeps
        assert len(calls["eigh"]) == fit.evaluations
        # Each decomposition is of a different operator: none is repeated for
        # a Jacobian column.
        distinct = {a.tobytes() for a in calls["eigh"]}
        assert len(distinct) == fit.evaluations
        assert calls["exponential_action"] == []

    def test_directed_fit_takes_actions(self, monkeypatch):
        rng = np.random.default_rng(0)
        network, planted = directed_network(rng)
        generator = assemble_supra_laplacian(network, planted).csr.toarray()
        x = rng.random((network.n_nodes, 2))
        # Two distinct steps, 0.1 and 0.25.
        times = (0.0, 0.1, 0.2, 0.45)
        snaps = [StateMatrix(x, dict(network.node_index), 0.0)]
        for t0, t1 in zip(times, times[1:]):
            x = scipy.linalg.expm(-generator * (t1 - t0)) @ x
            snaps.append(StateMatrix(x, dict(network.node_index), t1))
        series = SnapshotSeries(tuple(snaps))
        jacobians = []
        jacobian = calibration._Residuals.jacobian

        def counted_jacobian(problem, point):
            jacobians.append(len(problem.keys))
            assert min(problem.norms) > 0  # no zero basis operator skips its action
            return jacobian(problem, point)

        monkeypatch.setattr(calibration._Residuals, "jacobian", counted_jacobian)
        calls = self.count_calls(monkeypatch)
        fit = fit_diffusion_constants(series, network)
        assert fit.converged and fit.sweeps >= 1 and jacobians
        assert calls["eigh"] == [] and calls["expm_frechet"] == 0
        # Per distinct dt: one action of the n x n operator -L dt in each
        # evaluation, and one of a 2n x 2n block operator per constant in each
        # Jacobian.
        n = network.n_nodes
        shapes = calls["exponential_action"]
        assert shapes.count((n, n)) == 2 * fit.evaluations
        assert shapes.count((2 * n, 2 * n)) == 2 * sum(jacobians)
        assert len(shapes) == 2 * (fit.evaluations + sum(jacobians))


class TestLearnSupraOperator:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.network, self.supra = single_layer_supra(
            connected_adjacency(rng, 5), constant=0.4
        )
        self.rng = rng
        self.x0 = vectorize(rng.random((5, 2)))
        self.lam0 = kronecker_lift(self.supra, 2)

    def test_zero_gain_leaves_operator_unchanged(self):
        series = series_from_operator(
            self.lam0 + 0.05, self.x0, 5, 2, self.network.node_index, 5
        )
        op = learn_supra_operator(series, self.supra, gain=0.0, max_iters=12)
        assert np.array_equal(op.lambda_hat, self.lam0)

    def test_generating_operator_converges_immediately(self):
        series = series_from_operator(self.lam0, self.x0, 5, 2, self.network.node_index, 5)
        op = learn_supra_operator(series, self.supra)
        assert op.converged
        assert op.iterations == 0
        assert len(op.iteration_log) >= 1

    def test_perturbed_operator_training_error_improves(self):
        perturbation = 0.02 * self.rng.standard_normal(self.lam0.shape)
        series = series_from_operator(
            self.lam0 + perturbation, self.x0, 5, 2, self.network.node_index, 8
        )
        gain = 1e-3 / float(np.mean([vectorize(s) @ vectorize(s) for s in [m.matrix for m in series.snapshots[:-1]]]))
        op = learn_supra_operator(series, self.supra, gain=gain, max_iters=300)
        assert op.final_error <= op.initial_error

    def test_rank_one_update_rule_is_verbatim(self):
        series = series_from_operator(
            self.lam0 + 0.03, self.x0, 5, 2, self.network.node_index, 2
        )
        gain = 1e-3
        op = learn_supra_operator(series, self.supra, gain=gain, threshold=0.0, max_iters=1)
        x_in = vectorize(series.snapshots[0])
        x_target = vectorize(series.snapshots[1])
        residual = x_target - scipy.linalg.expm(self.lam0) @ x_in
        expected = self.lam0 + gain * np.outer(residual, x_in)
        assert np.abs(op.lambda_hat - expected).max() < 1e-12

    def test_corrections_sum_each_inputs_scaled_residuals(self):
        series = series_from_operator(
            self.lam0 + 0.03, self.x0, 5, 2, self.network.node_index, 4
        )
        gain = 1e-3
        op = learn_supra_operator(series, self.supra, gain=gain, threshold=0.0, max_iters=5)
        inputs = [vectorize(a) for a, _, _ in series.train_pairs()]
        targets = [vectorize(b) for _, b, _ in series.train_pairs()]
        # The dense reference: five rank-1 updates over the three pairs in turn.
        lam, sums = self.lam0, np.zeros((10, 3))
        for j in (0, 1, 2, 0, 1):
            step = gain * (targets[j] - scipy.linalg.expm(lam) @ inputs[j])
            lam, sums[:, j] = lam + np.outer(step, inputs[j]), sums[:, j] + step
        assert op.iterations == 5
        assert op.inputs.tobytes() == np.column_stack(inputs).tobytes()
        assert np.abs(op.corrections - sums).max() <= 1e-12 * np.abs(sums).max()
        assert np.abs(op.lambda_hat - lam).max() <= 1e-12 * np.abs(lam).max()
        assert op.block.shape == (5, 5) and not op.per_topic
        assert np.array_equal(op.block.toarray(), -self.supra.csr.toarray())

    def test_whole_state_actions_form_no_dense_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("formed the dense PT x PT operator")

        monkeypatch.setattr(diffusion, "_dense", refuse)
        series = series_from_operator(
            self.lam0 + 0.03, self.x0, 5, 2, self.network.node_index, 4
        )
        op = learn_supra_operator(series, self.supra, threshold=0.0, max_iters=5)
        assert op.iterations == 5 and len(series.train_pairs()) == 3
        assert op.corrections.shape == op.inputs.shape == (10, 3)

    def test_huge_gain_aborts_with_numerical_error(self):
        series = series_from_operator(
            self.lam0 + 0.05, self.x0, 5, 2, self.network.node_index, 4
        )
        with pytest.raises(NumericalError, match="iteration"):
            learn_supra_operator(series, self.supra, gain=1e260, threshold=0.0, max_iters=50)

    @pytest.mark.parametrize(
        "arguments, reason",
        [
            ({"gain": np.inf}, "gain must be finite and >= 0, got inf"),
            ({"gain": np.nan}, "gain must be finite and >= 0, got nan"),
            ({"gain": -1e-3}, "gain must be finite and >= 0, got -0.001"),
            ({"threshold": np.inf}, "threshold must be finite and >= 0, got inf"),
            ({"threshold": -1.0}, "threshold must be finite and >= 0, got -1.0"),
            ({"max_iters": -3}, "max_iters must be >= 0, got -3"),
        ],
    )
    def test_bad_arguments_rejected_before_any_evaluation(self, monkeypatch, arguments, reason):
        def refuse(*args):
            raise AssertionError("evaluated before the arguments were checked")

        monkeypatch.setattr(calibration, "_exp_action", refuse)
        series = series_from_operator(self.lam0, self.x0, 5, 2, self.network.node_index, 4)
        with pytest.raises(ValidationError, match=re.escape(reason)):
            learn_supra_operator(series, self.supra, **arguments)

    def test_runs_past_the_dense_cap_holding_no_dense_operator(self):
        # MAX_LEARN_DIM bounds only the consumers of a dense PT x PT array.
        n_nodes = MAX_LEARN_DIM // 2 + 1
        dim = 2 * n_nodes
        assert dim == MAX_LEARN_DIM + 2
        network, supra = ring_supra(n_nodes)
        rng = np.random.default_rng(9)
        snaps = tuple(
            StateMatrix(rng.random((n_nodes, 2)), dict(network.node_index), float(t))
            for t in range(2)
        )
        supra.csr
        tracemalloc.start()
        try:
            op = learn_supra_operator(SnapshotSeries(snaps), supra, threshold=0.0, max_iters=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.iterations == 1 and not op.per_topic
        assert op.corrections.shape == (dim, 1)
        # Every evaluation acts through the parts, with no P x P array.
        assert peak < n_nodes * n_nodes * 8


class TestOneStepPredict:
    def test_zero_operator_is_identity(self):
        rng = np.random.default_rng(10)
        network, supra = single_layer_supra(connected_adjacency(rng, 4))
        from conftest import make_operator

        op = make_operator(np.zeros((8, 8)), 4, 2)
        x = rng.random((4, 2))
        assert np.abs(one_step_predict_learned(op, x) - x).max() < 1e-12

    def test_kronecker_lift_matches_closed_propagation(self):
        rng = np.random.default_rng(11)
        network, supra = single_layer_supra(connected_adjacency(rng, 5), constant=0.6)
        from conftest import make_operator

        op = make_operator(kronecker_lift(supra, 3), 5, 3)
        x = rng.random((5, 3))
        assert np.abs(one_step_predict_learned(op, x) - propagate_closed(x, supra, 1.0)).max() < 1e-9

    def test_learned_beats_fixed_on_perturbed_data(self):
        rng = np.random.default_rng(12)
        network, supra = single_layer_supra(connected_adjacency(rng, 6), constant=0.3)
        lam0 = kronecker_lift(supra, 2)
        lam_true = lam0 + 0.03 * rng.standard_normal(lam0.shape)
        x0 = vectorize(rng.random((6, 2)))
        series = series_from_operator(
            lam_true, x0, 6, 2, network.node_index, 16, train=8
        )
        op = learn_supra_operator(series, supra, max_iters=400)
        from conftest import make_operator

        fixed = make_operator(lam0, 6, 2)
        learned_err, fixed_err = 0.0, 0.0
        for a, b, _ in series.test_pairs():
            truth_norm = np.linalg.norm(b.matrix)
            learned_err += np.linalg.norm(one_step_predict_learned(op, a.matrix) - b.matrix) / truth_norm
            fixed_err += np.linalg.norm(one_step_predict_learned(fixed, a.matrix) - b.matrix) / truth_norm
        assert learned_err <= fixed_err

    def test_stack_matches_one_state_at_a_time(self):
        rng = np.random.default_rng(13)
        from conftest import make_operator

        op = make_operator(0.2 * rng.standard_normal((8, 8)), 4, 2)
        states = rng.random((5, 4, 2))
        stacked = one_step_predict_learned(op, states)
        assert stacked.shape == (5, 4, 2)
        for state, predicted in zip(states, stacked):
            assert np.abs(predicted - one_step_predict_learned(op, state)).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        from conftest import make_operator

        op = make_operator(np.zeros((8, 8)), 4, 2)
        with pytest.raises(ValidationError):
            one_step_predict_learned(op, np.zeros((3, 2)))

    def test_state_matrix_is_predicted_as_its_array(self):
        rng = np.random.default_rng(14)
        from conftest import make_operator

        op = make_operator(0.2 * rng.standard_normal((8, 8)), 4, 2)
        index = {(1, f"n{i}"): i for i in range(4)}
        state = StateMatrix(rng.random((4, 2)), index, 3.0)
        predicted = one_step_predict_learned(op, state)
        assert type(predicted) is np.ndarray
        assert np.array_equal(predicted, one_step_predict_learned(op, state.matrix))


class TestReports:
    def test_fit_report_round_trip(self, tmp_path):
        network, series, _ = generate_synthetic(
            toy_spec(n_snapshots=4, train_count=4), seed=13
        )
        fit = fit_diffusion_constants(series, network)
        path = tmp_path / "fit_report.json"
        write_fit_report(path, fit)
        import json

        report = json.loads(path.read_text())
        assert report["converged"] == fit.converged
        assert report["objective_trace"][0] >= report["objective_trace"][-1]
        assert set(report["constants"]["intra"]) == {"1", "2", "3"}

    def test_operator_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        lam = rng.standard_normal((6, 6))
        path = tmp_path / "operator.csv"
        write_matrix_csv(path, lam.shape, np.array_split(lam, 3))
        assert np.array_equal(read_operator_matrix(path), lam)

    def test_truncated_matrix_csv_rejected(self, tmp_path):
        path = tmp_path / "operator.csv"
        write_matrix_csv(path, (3, 4), [np.arange(12.0).reshape(3, 4)])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(ValidationError):
            read_operator_matrix(path)

    def test_non_numeric_matrix_csv_field_names_its_line(self, tmp_path):
        path = tmp_path / "operator.csv"
        path.write_text("# rows=2 cols=2\n1.0,2.0\n3.0,abc\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:3: non-numeric field")):
            read_operator_matrix(path)

    def test_empty_matrix_csv_keeps_its_shape(self, tmp_path):
        path = tmp_path / "operator.csv"
        write_matrix_csv(path, (0, 3), [])
        assert read_operator_matrix(path).shape == (0, 3)
