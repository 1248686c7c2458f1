import json

import numpy as np
import pytest

from supraflow import (
    DiffusionConstants,
    ExperimentConfig,
    InterconnectedNetwork,
    LayerGraph,
    LayerSpec,
    StateMatrix,
    SyntheticSpec,
    ValidationError,
    assemble_supra_laplacian,
    coupling_strength_sweep,
    error_measure,
    run_experiment,
    save_network,
    upper_bound_series,
    write_states_csv,
)
from supraflow import cli, harness
from supraflow.errors import read_document
from supraflow.harness import parse_method
from conftest import global_random_state


def experiment_config(document: dict) -> ExperimentConfig:
    """The config that ``supraflow experiment`` builds from a config document."""
    fields = read_document(document, cli._CONFIGS["experiment"], "experiment config")
    return ExperimentConfig(**fields)


def interconnected_spec(**overrides):
    base = dict(
        layers=(
            LayerSpec("agent", 10, "erdos_renyi", edge_prob=0.25),
            LayerSpec("agent", 10, "erdos_renyi", edge_prob=0.3),
            LayerSpec("information", 20, "knn", k_neighbors=3),
        ),
        n_topics=2,
        intra_constants={1: 0.05, 2: 0.05, 3: 0.02},
        inter_constants={(1, 2): 0.05, (1, 3): 0.08, (2, 3): 0.06},
        n_snapshots=14,
        spacing=1.0,
        train_count=6,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


@pytest.fixture
def propagations(monkeypatch):
    """Shapes of the start states each closed propagation of the harness received."""
    real = harness.propagate_closed
    shapes = []

    def recording(x0, supra, delta_t):
        shapes.append(np.shape(x0))
        return real(x0, supra, delta_t)

    monkeypatch.setattr(harness, "propagate_closed", recording)
    return shapes


def single_layer_noisy_spec(**overrides):
    base = dict(
        layers=(LayerSpec("agent", 40, "erdos_renyi", edge_prob=0.15),),
        n_topics=2,
        intra_constants={1: 0.005},
        sigma_ratio=0.05,
        n_snapshots=26,
        spacing=1.0,
        train_count=10,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestErrorMeasure:
    def test_perfect_prediction(self):
        x = np.ones((3, 2))
        assert error_measure(x, x) == 0.0

    def test_zero_prediction(self):
        x = np.ones((3, 2))
        assert error_measure(np.zeros_like(x), x) == 1.0

    def test_double_prediction(self):
        x = np.ones((3, 2))
        assert error_measure(2 * x, x) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValidationError):
            error_measure(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            error_measure(np.ones((2, 2)), np.ones((3, 2)))


class TestUpperBound:
    def test_constant_series_is_zero(self):
        index = {(1, "a"): 0}
        snaps = [StateMatrix([[1.0]], index, float(t)) for t in range(4)]
        assert np.abs(upper_bound_series(snaps)).max() == 0.0

    def test_doubling_series(self):
        index = {(1, "a"): 0}
        snaps = [StateMatrix([[2.0**t]], index, float(t)) for t in range(3)]
        assert np.abs(upper_bound_series(snaps) - 0.5).max() < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        index = {(1, f"n{i}"): i for i in range(4)}
        snaps = [StateMatrix(rng.random((4, 2)), index, float(t)) for t in range(5)]
        bound = upper_bound_series(snaps)
        for i in range(4):
            a, b = snaps[i].matrix, snaps[i + 1].matrix
            assert bound[i] == pytest.approx(np.linalg.norm(a - b) / np.linalg.norm(b))

    def test_arrays_read_like_state_matrices(self):
        rng = np.random.default_rng(1)
        index = {(1, f"n{i}"): i for i in range(3)}
        snaps = [StateMatrix(rng.random((3, 2)), index, float(t)) for t in range(4)]
        expected = upper_bound_series(snaps)
        assert np.array_equal(upper_bound_series([s.matrix for s in snaps]), expected)


class TestMethodParsing:
    def test_known_methods(self):
        assert parse_method("single_layer") == ("single_layer", None)
        assert parse_method("kalman:0.25") == ("kalman", 0.25)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            parse_method("oracle")

    def test_kalman_needs_fraction(self):
        with pytest.raises(ValidationError):
            parse_method("kalman")
        with pytest.raises(ValidationError):
            parse_method("kalman:1.5")

    def test_config_needs_inputs(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(methods=("multilayer",))

    @pytest.mark.parametrize(
        "files",
        [
            {"network": "n.json"},
            {"snapshots": "s.csv"},
            {"network": "n.json", "snapshots": "s.csv"},
        ],
    )
    def test_config_with_a_spec_and_files_rejected(self, files):
        with pytest.raises(ValidationError, match="both 'synthetic' and 'network'/'snapshots'"):
            ExperimentConfig(methods=("multilayer",), synthetic=interconnected_spec(), **files)

    @pytest.mark.parametrize("repeat", ["kalman:0.5", "kalman:0.50"])
    def test_repeated_method_rejected(self, repeat):
        methods = ("kalman:0.5", "multilayer", repeat)
        with pytest.raises(ValidationError, match=f"method '{repeat}' is given twice"):
            ExperimentConfig(methods=methods, synthetic=interconnected_spec())

    def test_config_from_dict(self):
        config = experiment_config(
            {
                "methods": ["single_layer", "kalman:0.2"],
                "synthetic": {"layers": [{"kind": "agent", "n": 4}], "n_snapshots": 4},
                "seed": 3,
            }
        )
        assert config.methods == ("single_layer", "kalman:0.2")
        assert config.seed == 3

    @pytest.mark.parametrize(
        "field, value",
        [("train_count", 5.9), ("seed", True), ("max_iters", "3"), ("train_count", float("nan"))],
    )
    def test_config_integer_fields_must_be_integers(self, field, value):
        data = {"methods": ["multilayer"], "network": "n.json", "snapshots": "s.csv", field: value}
        with pytest.raises(ValidationError, match=f"field '{field}' .*integer"):
            experiment_config(data)


class TestRunExperiment:
    def test_single_layer_on_static_layer_equals_upper_bound(self, tmp_path):
        # A single empty agent layer drives no change, so the prediction is
        # the previous state and the error curve is exactly the upper bound.
        rng = np.random.default_rng(1)
        layer = LayerGraph(1, "agent", tuple(f"a{i}" for i in range(5)), np.zeros((5, 5)))
        network = InterconnectedNetwork(layers=(layer,), couplings=())
        snaps = [
            StateMatrix(rng.random((5, 2)), dict(network.node_index), float(t))
            for t in range(6)
        ]
        net_path = tmp_path / "network.json"
        save_network(net_path, network, DiffusionConstants(intra={1: 1.0}))
        states_path = tmp_path / "states.csv"
        write_states_csv(states_path, snaps, network.node_order)
        config = ExperimentConfig(
            methods=("single_layer",),
            network=str(net_path),
            snapshots=str(states_path),
            train_count=3,
        )
        result = run_experiment(config)
        assert np.abs(result.curves["single_layer"] - result.upper_bound).max() < 1e-12

    def test_multilayer_beats_single_layer_on_planted_data(self):
        config = ExperimentConfig(
            methods=("single_layer", "multilayer", "learned_operator"),
            synthetic=interconnected_spec(),
            seed=5,
        )
        result = run_experiment(config)
        upper = float(result.upper_bound.mean())
        multi = result.mean_errors["multilayer"]
        single = result.mean_errors["single_layer"]
        assert multi < single < upper
        assert result.improvements["multilayer"] > 0
        assert result.mean_errors["learned_operator"] <= single

    def test_one_exponential_action_per_method_for_pairs_sharing_a_dt(self, propagations):
        config = ExperimentConfig(
            methods=("single_layer", "multilayer"), synthetic=interconnected_spec(), seed=5
        )
        result = run_experiment(config)
        pairs = len(result.times)
        assert propagations == [(10, 2 * pairs), (40, 2 * pairs)]
        # The side-by-side action gives each pair its own propagation.
        network, series = harness._load_inputs(config)
        supra = assemble_supra_laplacian(network, result.diagnostics["multilayer_fit"].constants)
        block = network.layer_slices[1]
        for (a, b, dt), error in zip(series.test_pairs(), result.curves["multilayer"]):
            alone = harness.propagate_closed(a.matrix, supra, dt)[block]
            assert error == pytest.approx(error_measure(alone, b.matrix[block]), rel=1e-12)

    def test_learned_operator_without_updates_is_the_multilayer_predictor(self):
        # On noisy data the learner stops at the noise floor with no rank-1
        # update, so lambda_hat is kron(I_T, -L(D_hat)), and one step of it is
        # the multilayer prediction e^{-L(D_hat)} X at spacing 1.
        config = ExperimentConfig(
            methods=("multilayer", "learned_operator"),
            synthetic=interconnected_spec(sigma_ratio=0.05),
            seed=5,
        )
        result = run_experiment(config)
        assert result.diagnostics["learned_operator"].iterations == 0
        multi = result.mean_errors["multilayer"]
        assert abs(result.mean_errors["learned_operator"] - multi) <= 1e-12 * multi

    def test_one_step_method_curves_stay_below_upper_bound(self):
        config = ExperimentConfig(
            methods=("single_layer", "multilayer", "learned_operator"),
            synthetic=interconnected_spec(),
            seed=7,
        )
        result = run_experiment(config)
        upper = float(result.upper_bound.mean())
        for name in config.methods:
            assert result.mean_errors[name] <= upper

    def test_kalman_error_non_increasing_in_fraction(self):
        config = ExperimentConfig(
            methods=("kalman:0.1", "kalman:0.15", "kalman:0.2", "kalman:0.25"),
            synthetic=single_layer_noisy_spec(),
            seed=3,
        )
        result = run_experiment(config)
        errors = [result.mean_errors[m] for m in config.methods]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_outputs_are_deterministic(self, tmp_path):
        config = ExperimentConfig(
            methods=("single_layer", "multilayer"),
            synthetic=interconnected_spec(n_snapshots=8, train_count=4),
            seed=9,
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            out.mkdir()
            result = run_experiment(config)
            harness.write_errors_csv(out / "errors.csv", config.methods, result)
            harness.write_summary_csv(out / "summary.csv", config.methods, result)
            harness.replot_errors_csv(out / "errors.svg", out / "errors.csv")
        for name in ("errors.csv", "summary.csv", "errors.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_errors_csv_replot_round_trip(self, tmp_path):
        spec = {
            "layers": [
                {"kind": "agent", "n": 6, "model": "erdos_renyi", "p": 0.5},
                {"kind": "information", "n": 8, "model": "knn", "k": 2},
            ],
            "n_snapshots": 8,
            "train_count": 4,
        }
        config = tmp_path / "experiment.json"
        config.write_text(
            json.dumps({"methods": ["single_layer", "multilayer"], "synthetic": spec, "seed": 9})
        )
        out = tmp_path / "run"
        assert cli.main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        harness.replot_errors_csv(tmp_path / "replot.svg", out / "errors.csv")
        assert (tmp_path / "replot.svg").read_bytes() == (out / "errors.svg").read_bytes()

    def test_results_do_not_depend_on_the_global_random_state(self):
        # The learner's operator (PT = 44) has a shifted 1-norm of about 19 and
        # acts on four stacked states, past the point where a randomized norm
        # estimate would choose the exponential action's step count.
        spec = interconnected_spec(
            layers=(
                LayerSpec("agent", 6, "erdos_renyi", edge_prob=0.5),
                LayerSpec("agent", 6, "erdos_renyi", edge_prob=0.5),
                LayerSpec("information", 10, "knn", k_neighbors=3),
            ),
            intra_constants={1: 0.5, 2: 0.5, 3: 0.2},
            inter_constants={(1, 2): 0.5, (1, 3): 0.8, (2, 3): 0.6},
            sigma_ratio=0.05,
            n_snapshots=10,
            train_count=5,
        )
        config = ExperimentConfig(
            methods=("learned_operator", "kalman:0.5"), synthetic=spec, seed=3,
            learn_threshold=1e-9, max_iters=10,
        )
        np.random.seed(1)
        before = global_random_state()
        first = run_experiment(config).mean_errors
        assert global_random_state() == before
        np.random.seed(2)
        assert run_experiment(config).mean_errors == first

    def test_experiment_train_count_overrides_the_spec_s(self):
        # The planted data do not depend on the split: overriding the spec's
        # train_count gives the run of a spec that holds the override.
        def run(spec_count, count):
            spec = interconnected_spec(n_snapshots=8, train_count=spec_count)
            config = ExperimentConfig(
                methods=("multilayer",), synthetic=spec, train_count=count, seed=9
            )
            return run_experiment(config)

        overridden = run(6, 4)
        assert overridden.times.tolist() == [4.0, 5.0, 6.0, 7.0]
        assert overridden.curves["multilayer"].tolist() == run(4, None).curves["multilayer"].tolist()

    @pytest.mark.parametrize("n_snapshots, train_count", [(5, 2), (9, 3)])
    def test_a_spec_without_train_count_trains_on_a_third(self, n_snapshots, train_count):
        # max(2, n_snapshots // 3) snapshots, so at least one training pair.
        spec = interconnected_spec(n_snapshots=n_snapshots, train_count=None)
        result = run_experiment(ExperimentConfig(methods=("multilayer",), synthetic=spec, seed=9))
        assert result.times.tolist() == [float(t) for t in range(train_count, n_snapshots)]

    def test_requires_test_transitions(self):
        config = ExperimentConfig(
            methods=("multilayer",),
            synthetic=interconnected_spec(n_snapshots=4, train_count=4),
            seed=1,
        )
        with pytest.raises(ValidationError):
            run_experiment(config)


class TestSweeps:
    def test_coupling_strength_sweep_degrades_toward_single_layer(self):
        rows = coupling_strength_sweep(
            interconnected_spec(), epsilons=(0.0, 0.25, 0.5, 0.75, 1.0), seed=5
        )
        multi = [r[1] for r in rows]
        single = rows[0][2]
        assert abs(multi[0] - single) < 1e-12
        assert all(a >= b - 1e-15 for a, b in zip(multi, multi[1:]))
        assert multi[-1] < multi[0]

    def test_coupling_strength_sweep_takes_one_action_per_epsilon(self, propagations):
        coupling_strength_sweep(interconnected_spec(), epsilons=(0.0, 1.0), seed=5)
        pairs = propagations[0][1] // 2
        assert propagations == [(10, 2 * pairs), (40, 2 * pairs), (40, 2 * pairs)]
