"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line (visible with `pytest -s` or in captured
output) and enforces its runtime budget.  Run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import scipy.linalg

from supraflow import (
    DiffusionConstants,
    ExperimentConfig,
    LayerSpec,
    NoiseModel,
    ObservationModel,
    SimulationConfig,
    SnapshotSeries,
    StateMatrix,
    SyntheticSpec,
    assemble_supra_laplacian,
    coupling_strength_sweep,
    devectorize,
    ensemble_statistics,
    fit_diffusion_constants,
    generate_synthetic,
    kalman_predict,
    kalman_update,
    lambda2_perturbation_estimate,
    learn_supra_operator,
    one_step_predict_learned,
    propagate_closed,
    run_experiment,
    scale_inter_layer,
    simulate_ensemble,
    spectrum,
    vectorize,
)
from supraflow.cli import main as cli_main
from supraflow.kalman import KalmanState, PHASE_PREDICTED, initial_state, transition_matrix

from conftest import (
    connected_adjacency,
    hand_expanded_fixture,  # noqa: F401  (pytest fixture)
    heterogeneous_network,
    kronecker_lift,
    make_operator,
    random_network,
    single_layer_supra,
)
from test_calibration import series_from_operator, toy_spec
from test_diffusion import rk4_flow
from test_harness import interconnected_spec, single_layer_noisy_spec
from test_kalman import full_observation_model, scalar_recursion


def _report(number: int, elapsed: float, budget: float, message: str):
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"
    print(f"PASS criterion {number}: {message} [{elapsed:.1f}s < {budget:.0f}s]")


def test_criterion_1_supra_laplacian_correctness(hand_expanded_fixture):
    start = time.time()
    network, constants, expected = hand_expanded_fixture
    supra = assemble_supra_laplacian(network, constants)
    assert np.abs(supra.csr.toarray() - expected).max() < 1e-12

    rng = np.random.default_rng(101)
    for _ in range(100):
        net, consts = random_network(rng)
        operator = assemble_supra_laplacian(net, consts)
        scale = 1.0 + np.abs(operator.csr.toarray()).max()
        for part in (operator.csr.toarray(), operator.intra_part, operator.inter_part):
            assert np.abs(part.sum(axis=1)).max() / scale < 1e-10
        assert (
            np.abs(operator.csr.toarray() - operator.intra_part - operator.inter_part).max() < 1e-12
        )
        assert np.abs(operator.csr.toarray() - operator.csr.toarray().T).max() < 1e-12
        assert np.linalg.eigvalsh(operator.csr.toarray()).min() > -1e-10
        decoupled = scale_inter_layer(operator, 0.0)
        eigenvalues = np.linalg.eigvalsh(decoupled.csr.toarray())
        kernel = (eigenvalues < 1e-9 * max(np.abs(eigenvalues).max(), 1e-12)).sum()
        assert kernel == len(net.layers)
    _report(
        1,
        time.time() - start,
        10.0,
        "3-layer fixture matches the hand expansion; operator properties hold on 100 random networks",
    )


def test_criterion_2_diffusion_engine():
    start = time.time()
    rng = np.random.default_rng(202)
    for _ in range(20):
        _, supra = single_layer_supra(
            connected_adjacency(rng, 12), constant=float(rng.uniform(0.3, 1.2))
        )
        x0 = rng.random((12, 3))
        got = propagate_closed(x0, supra, 0.3)
        oracle = rk4_flow(supra.csr.toarray(), x0, 0.3, 1e-4)
        assert np.abs(got - oracle).max() < 1e-8
        chained = propagate_closed(propagate_closed(x0, supra, 0.2), supra, 0.1)
        assert np.abs(chained - got).max() < 1e-9
        assert np.abs(got.sum(axis=0) - x0.sum(axis=0)).max() < 1e-9
        settled = propagate_closed(x0, supra, 1e3)
        assert np.abs(settled - x0.mean(axis=0)).max() < 1e-6
    _report(
        2,
        time.time() - start,
        60.0,
        "closed flow matches RK4 at 1e-8; semigroup/conservation at 1e-9; consensus at 1e-6",
    )


def test_criterion_3_open_system_statistics():
    start = time.time()
    _, supra = single_layer_supra(np.zeros((3, 3)))
    sigma = np.array([[0.5, 1.0], [0.3, 0.8], [1.2, 0.2]])
    config = SimulationConfig(dt=0.05, horizon=1.0, ensemble_size=10_000)
    paths = simulate_ensemble(np.zeros((3, 2)), supra, NoiseModel(sigma, seed=42), config)
    _, variance = ensemble_statistics(paths)
    assert np.abs(variance[-1] / (sigma**2 * 1.0) - 1).max() < 0.05

    _, complete = single_layer_supra(np.ones((5, 5)) - np.eye(5), constant=0.3)
    rng = np.random.default_rng(9)
    x0 = rng.random((5, 1))
    direction = rng.random((5, 1))
    spreads = []
    for ratio in (0.0, 0.24, 0.42, 0.67):
        scaled = direction * (ratio * np.linalg.norm(x0) / np.linalg.norm(direction))
        ensemble = simulate_ensemble(
            x0, complete, NoiseModel(scaled, seed=7),
            SimulationConfig(dt=0.01, horizon=2.0, ensemble_size=200),
        )
        _, var = ensemble_statistics(ensemble)
        spreads.append(float(var[-1].mean()))
    assert all(a < b for a, b in zip(spreads, spreads[1:]))
    _report(
        3,
        time.time() - start,
        120.0,
        "Brownian variance within 5% over 10000 paths; terminal spread strictly increasing in the noise ratio",
    )


def test_criterion_4_calibration_recovery():
    start = time.time()
    network, series, truth = generate_synthetic(toy_spec(), seed=3)
    fit = fit_diffusion_constants(series, network)
    assert fit.objective < 1e-8
    for layer_id, planted in truth.constants.intra.items():
        assert abs(fit.constants.intra[layer_id] - planted) / planted < 0.01
    for key, planted in truth.constants.inter.items():
        assert abs(fit.constants.inter[key] - planted) / planted < 0.01

    rng = np.random.default_rng(606)
    net, supra = single_layer_supra(connected_adjacency(rng, 6), constant=0.8)
    sigma, dt = 0.01, 0.2
    propagator = scipy.linalg.expm(-supra.csr.toarray() * dt)
    x = rng.random((6, 2))
    snaps = []
    for i in range(51):
        snaps.append(StateMatrix(x, dict(net.node_index), i * dt))
        x = propagator @ x + sigma * np.sqrt(dt) * rng.standard_normal((6, 2))
    noisy_fit = fit_diffusion_constants(SnapshotSeries(tuple(snaps)), net)
    assert abs(float(noisy_fit.sigma.mean()) - sigma) / sigma < 0.30
    _report(
        4,
        time.time() - start,
        120.0,
        "noise-free objective < 1e-8 with constants within 1%; sigma estimate within 30% over 50 pairs",
    )


def test_criterion_5_operator_learning():
    start = time.time()
    rng = np.random.default_rng(707)
    # Verbatim rank-1 update on one pair.
    network, small = single_layer_supra(connected_adjacency(rng, 5), constant=0.4)
    lam0 = kronecker_lift(small, 2)
    series = series_from_operator(
        lam0 + 0.03, vectorize(rng.random((5, 2))), 5, 2, network.node_index, 2
    )
    gain = 1e-3
    op = learn_supra_operator(series, small, gain=gain, threshold=0.0, max_iters=1)
    x_in = vectorize(series.snapshots[0])
    residual = vectorize(series.snapshots[1]) - scipy.linalg.expm(lam0) @ x_in
    assert np.abs(op.lambda_hat - (lam0 + gain * np.outer(residual, x_in))).max() < 1e-12

    # Perturbed-operator data at P=60, T=2: training error improves and the
    # learned operator's test error is at most the fixed operator's.
    net, supra = single_layer_supra(connected_adjacency(rng, 60, extra_prob=0.08), constant=0.15)
    lifted = kronecker_lift(supra, 2)
    lam_true = lifted + 0.01 * rng.standard_normal(lifted.shape)
    data = series_from_operator(
        lam_true, vectorize(rng.random((60, 2))), 60, 2, net.node_index, 20, train=10
    )
    learned = learn_supra_operator(data, supra, max_iters=300)
    assert learned.final_error <= learned.initial_error
    fixed = make_operator(lifted, 60, 2)
    learned_error = fixed_error = 0.0
    for a, b, _ in data.test_pairs():
        norm = np.linalg.norm(b.matrix)
        learned_error += np.linalg.norm(one_step_predict_learned(learned, a.matrix) - b.matrix) / norm
        fixed_error += np.linalg.norm(one_step_predict_learned(fixed, a.matrix) - b.matrix) / norm
    assert learned_error <= fixed_error
    _report(
        5,
        time.time() - start,
        300.0,
        "rank-1 update verified algebraically; learned operator improves training and test error",
    )


def test_criterion_6_kalman_filter():
    start = time.time()
    # Scalar-oracle equivalence to 1e-12.
    op = make_operator(np.array([[-0.4]]), 1, 1)
    model = ObservationModel(1, 1, (0,), r_diag=np.array([0.2]), q_diag=np.array([0.05]))
    observations = [0.9, 0.4, 0.7, 0.1]
    oracle, _ = scalar_recursion(1.0, 0.8, 0.6, 0.05, 0.2, 1, observations)
    state = initial_state(np.array([1.0]), 0.8, op)
    for step, y in enumerate(observations):
        state = kalman_predict(state, op, model)
        assert abs(state.x_hat[0] - oracle[step][0]) < 1e-12
        assert abs(state.pi[0, 0] - oracle[step][1]) < 1e-12
        state = kalman_update(state, np.array([y]), model)

    # Full pipeline on the same scalar system, fed through the filter runner.
    from supraflow import run_filter
    from test_kalman import make_series

    truths = [1.0, 0.8, 0.9, 0.5, 0.7]
    series = make_series({(1, "n0"): 0}, [np.array([[v]]) for v in truths], train_count=1)
    pipeline = run_filter(series, op, model, pi0=0.8)
    pipeline_oracle, _ = scalar_recursion(truths[0], 0.8, 0.6, 0.05, 0.2, 1, truths[1:])
    for step, (ox, _) in enumerate(pipeline_oracle):
        assert abs(float(pipeline.predictions[step][0, 0]) - ox) < 1e-12

    # R=0 full-observation pinning.
    rng = np.random.default_rng(808)
    pin_op = make_operator(0.1 * rng.standard_normal((6, 6)), 3, 2)
    pin_model = full_observation_model(3, 2, r=0.0, q=0.1)
    pinned = kalman_predict(initial_state(rng.random(6), 1.0, pin_op), pin_op, pin_model)
    y = rng.random(6)
    assert np.abs(kalman_update(pinned, y, pin_model).x_hat - y).max() < 1e-9

    # Covariance never increases across 1000 random update steps.
    for _ in range(1000):
        n_nodes, n_topics = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        dim = n_nodes * n_topics
        random_op = make_operator(0.2 * rng.standard_normal((dim, dim)), n_nodes, n_topics)
        observed = tuple(
            int(i) for i in rng.choice(n_nodes, size=rng.integers(0, n_nodes + 1), replace=False)
        )
        random_model = ObservationModel(
            n_nodes, n_topics, observed,
            r_diag=rng.random(dim) * 0.5, q_diag=rng.random(dim) * 0.5,
        )
        root = rng.standard_normal((dim, dim))
        before = KalmanState(
            x_hat=rng.random(dim),
            pi=root @ root.T + 0.1 * np.eye(dim),
            phase=PHASE_PREDICTED,
            f_hat=transition_matrix(random_op),
        )
        after = kalman_update(before, rng.random(dim), random_model)
        assert np.abs(after.pi - after.pi.T).max() < 1e-9
        assert np.linalg.eigvalsh(before.pi - after.pi).min() > -1e-9

    # Fig. 8 analog: time-averaged error non-increasing in the observed fraction.
    config = ExperimentConfig(
        methods=("kalman:0.1", "kalman:0.15", "kalman:0.2", "kalman:0.25"),
        synthetic=single_layer_noisy_spec(),
        seed=3,
    )
    result = run_experiment(config)
    errors = [result.mean_errors[m] for m in config.methods]
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    _report(
        6,
        time.time() - start,
        180.0,
        "scalar oracle at 1e-12; pinning and covariance invariants; error non-increasing in observation fraction",
    )


def test_criterion_7_spectral_perturbation():
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        network, constants = heterogeneous_network(rng)
        supra = assemble_supra_laplacian(network, constants)
        for epsilon in (0.001, 0.005, 0.01):
            actual = spectrum(scale_inter_layer(supra, epsilon)).lambda2
            estimate = lambda2_perturbation_estimate(supra, epsilon)
            assert abs(estimate - actual) / actual < 0.05
        ratios = []
        for epsilon in (1e-2, 1e-3, 1e-4):
            actual = spectrum(scale_inter_layer(supra, epsilon)).lambda2
            estimate = lambda2_perturbation_estimate(supra, epsilon)
            ratios.append(abs(actual - estimate) / epsilon)
        assert ratios[0] > ratios[1] > ratios[2]

    rows = coupling_strength_sweep(
        interconnected_spec(), epsilons=(0.0, 0.25, 0.5, 0.75, 1.0), seed=5
    )
    multilayer_errors = [r[1] for r in rows]
    assert abs(multilayer_errors[0] - rows[0][2]) < 1e-12  # matches single-layer at 0
    assert all(a >= b - 1e-15 for a, b in zip(multilayer_errors, multilayer_errors[1:]))
    assert multilayer_errors[-1] < multilayer_errors[0]
    _report(
        7,
        time.time() - start,
        60.0,
        "connectivity estimate within 5% with shrinking first-order error on 20 networks; "
        "error degrades toward single-layer as coupling vanishes",
    )


def test_criterion_8_multilayer_benefit():
    start = time.time()
    for seed in (1, 5, 17):
        config = ExperimentConfig(
            methods=("single_layer", "multilayer"),
            synthetic=interconnected_spec(),
            seed=seed,
        )
        result = run_experiment(config)
        upper = float(result.upper_bound.mean())
        multi = result.mean_errors["multilayer"]
        single = result.mean_errors["single_layer"]
        assert multi < single < upper
        assert single - multi > 0
        assert upper - single > 0
    _report(
        8,
        time.time() - start,
        300.0,
        "time-averaged multilayer < single-layer < upper bound with positive gaps on the fixed seed set",
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    import json

    spec = {
        "layers": [
            {"kind": "agent", "n": 5, "model": "erdos_renyi", "p": 0.6},
            {"kind": "information", "n": 8, "model": "knn", "k": 2},
        ],
        "n_topics": 2,
        "intra_constants": {"1": 0.05, "2": 0.01},
        "inter_constants": {"1,2": 0.05},
        "n_snapshots": 8,
        "train_count": 4,
        "seed": 7,
    }
    generate_config = tmp_path / "generate.json"
    generate_config.write_text(json.dumps(spec))
    for run in ("a", "b"):
        assert cli_main(["generate", "--config", str(generate_config), "--out", str(tmp_path / f"gen_{run}")]) == 0
    for name in ("network.json", "snapshots.csv", "truth.json"):
        assert (tmp_path / "gen_a" / name).read_bytes() == (tmp_path / "gen_b" / name).read_bytes()

    experiment_config = tmp_path / "experiment.json"
    experiment_config.write_text(
        json.dumps(
            {
                "methods": ["single_layer", "multilayer", "kalman:0.25"],
                "synthetic": spec,
                "seed": 7,
                "fit_max_sweeps": 4,
            }
        )
    )
    for run in ("a", "b"):
        assert cli_main(["experiment", "--config", str(experiment_config), "--out", str(tmp_path / f"exp_{run}")]) == 0
    for name in ("errors.csv", "summary.csv", "errors.svg"):
        assert (tmp_path / "exp_a" / name).read_bytes() == (tmp_path / "exp_b" / name).read_bytes()

    spectral_config = tmp_path / "spectral.json"
    spectral_config.write_text(
        json.dumps(
            {"network": str(tmp_path / "gen_a" / "network.json"), "epsilons": [0.0, 0.001, 0.01]}
        )
    )
    for run in ("a", "b"):
        assert cli_main(["spectral", "--config", str(spectral_config), "--out", str(tmp_path / f"spec_{run}")]) == 0
    assert (
        (tmp_path / "spec_a" / "lambda2_sweep.csv").read_bytes()
        == (tmp_path / "spec_b" / "lambda2_sweep.csv").read_bytes()
    )
    _report(
        9,
        time.time() - start,
        120.0,
        "generate, experiment, and spectral CLI runs are byte-identical for a fixed config and seed",
    )
