import csv
import dataclasses
import json
import os
import threading

import numpy as np
import pytest

from supraflow import (
    NumericalError,
    cli,
    diffusion,
    harness,
    kalman,
    load_network,
    read_states_csv,
    write_states_csv,
)
from supraflow.cli import main
from supraflow.harness import experiment_config_from_dict, run_experiment


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


@pytest.fixture
def tiny_dataset(tmp_path):
    """Generated network + snapshots for exercising downstream commands."""
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
    config = write_json(tmp_path / "generate.json", spec)
    out = tmp_path / "data"
    assert main(["generate", "--config", config, "--out", str(out)]) == 0
    return {
        "dir": out,
        "network": str(out / "network.json"),
        "snapshots": str(out / "snapshots.csv"),
        "spec": spec,
        "tmp": tmp_path,
    }


class TestGenerate:
    def test_outputs_exist(self, tiny_dataset):
        out = tiny_dataset["dir"]
        for name in ("network.json", "snapshots.csv", "truth.json"):
            assert (out / name).exists()
        truth = json.loads((out / "truth.json").read_text())
        assert truth["seed"] == 7
        assert "constants" in truth

    def test_byte_identical_across_runs(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(tmp / "generate2.json", tiny_dataset["spec"])
        out_b = tmp / "data_b"
        assert main(["generate", "--config", config, "--out", str(out_b)]) == 0
        for name in ("network.json", "snapshots.csv", "truth.json"):
            assert (tiny_dataset["dir"] / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_flag_overrides_config(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(tmp / "generate3.json", tiny_dataset["spec"])
        out_c = tmp / "data_c"
        assert main(["generate", "--config", config, "--seed", "8", "--out", str(out_c)]) == 0
        assert (
            (tiny_dataset["dir"] / "snapshots.csv").read_bytes()
            != (out_c / "snapshots.csv").read_bytes()
        )


class TestBuild:
    def test_build_summary(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(tmp / "build.json", {"network": tiny_dataset["network"]})
        out = tmp / "build"
        assert main(["build", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "build_summary.json").read_text())
        assert summary["n_nodes"] == 13
        assert summary["symmetric"] is True
        assert abs(summary["max_abs_row_sum"]) < 1e-10
        matrix_lines = (out / "supra_laplacian.csv").read_text().splitlines()
        assert matrix_lines[0] == "# rows=13 cols=13"
        assert len(matrix_lines) == 14


class TestSimulatePredict:
    def test_simulate_single_path(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "simulate.json",
            {
                "network": tiny_dataset["network"],
                "states": tiny_dataset["snapshots"],
                "dt": 0.05,
                "horizon": 0.5,
                "sigma": 0.01,
                "seed": 1,
            },
        )
        out = tmp / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        lines = (out / "simulation.csv").read_text().splitlines()
        assert lines[0] == "path_id,step,t,node_id,x_1,x_2"
        assert len(lines) == 1 + 11 * 13  # 10 steps + initial state, 13 nodes

    def test_simulate_ensemble_summary(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "simulate2.json",
            {
                "network": tiny_dataset["network"],
                "states": tiny_dataset["snapshots"],
                "dt": 0.1,
                "horizon": 0.3,
                "sigma": 0.02,
                "paths": 3,
                "seed": 2,
            },
        )
        out = tmp / "sim2"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert (out / "ensemble_summary.csv").exists()

    def simulate(self, tiny_dataset, name, **fields):
        """Exit code and output directory of ``simulate`` with the given fields."""
        tmp = tiny_dataset["tmp"]
        cfg = {"network": tiny_dataset["network"], "states": tiny_dataset["snapshots"],
               "dt": 0.1, "horizon": 0.3, "seed": 2, **fields}
        config = write_json(tmp / f"{name}.json", cfg)
        return main(["simulate", "--config", config, "--out", str(tmp / name)]), tmp / name

    def test_sigma_file_sets_the_noise_and_null_means_absent(self, tiny_dataset):
        network, _ = load_network(tiny_dataset["network"])
        x0 = read_states_csv(tiny_dataset["snapshots"], network)[0]
        sigma_path = str(tiny_dataset["tmp"] / "sigma.csv")
        write_states_csv(
            sigma_path, [dataclasses.replace(x0, matrix=np.full(x0.matrix.shape, 0.02))],
            network.node_order,
        )
        runs = {
            "scalar": {"sigma": 0.02},
            "file": {"sigma_file": sigma_path},
            "file_null_sigma": {"sigma_file": sigma_path, "sigma": None},
            "null_file": {"sigma_file": None, "sigma": 0.02},
        }
        outputs = {}
        for name, fields in runs.items():
            code, out = self.simulate(tiny_dataset, name, **fields)
            assert code == 0
            outputs[name] = (out / "simulation.csv").read_bytes()
        assert len(set(outputs.values())) == 1

    def test_sigma_and_sigma_file_together_are_rejected(self, tiny_dataset, capsys):
        code, out = self.simulate(
            tiny_dataset, "both", sigma=0.02, sigma_file=tiny_dataset["snapshots"]
        )
        assert code == 2
        assert "both 'sigma' and 'sigma_file'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("paths", [True, 2.5, "2"])
    def test_paths_must_be_an_integer(self, tiny_dataset, capsys, paths):
        code, _ = self.simulate(tiny_dataset, "paths", paths=paths)
        assert code == 2
        assert "integer" in capsys.readouterr().err

    def test_predict(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "predict.json",
            {
                "network": tiny_dataset["network"],
                "states": tiny_dataset["snapshots"],
                "delta_t": 1.0,
            },
        )
        out = tmp / "pred"
        assert main(["predict", "--config", config, "--out", str(out)]) == 0
        lines = (out / "prediction.csv").read_text().splitlines()
        assert len(lines) == 1 + 13


class TestFitLearnKalman:
    def test_fit_report(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "fit.json",
            {
                "network": tiny_dataset["network"],
                "snapshots": tiny_dataset["snapshots"],
                "train_count": 4,
                "max_sweeps": 4,
            },
        )
        out = tmp / "fit"
        assert main(["fit", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert set(report["constants"]["intra"]) == {"1", "2"}
        assert report["objective"] <= report["objective_trace"][0]

    def test_learn_and_kalman(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        learn_config = write_json(
            tmp / "learn.json",
            {
                "network": tiny_dataset["network"],
                "snapshots": tiny_dataset["snapshots"],
                "train_count": 4,
                "max_iters": 20,
                "fit_max_sweeps": 3,
            },
        )
        out = tmp / "learn"
        assert main(["learn", "--config", learn_config, "--out", str(out)]) == 0
        report = json.loads((out / "learn_report.json").read_text())
        assert report["final_error"] <= report["initial_error"] + 1e-12
        operator_lines = (out / "operator.csv").read_text().splitlines()
        assert operator_lines[0] == "# rows=26 cols=26"

        kalman_config = write_json(
            tmp / "kalman.json",
            {
                "network": tiny_dataset["network"],
                "snapshots": tiny_dataset["snapshots"],
                "train_count": 4,
                "fraction": 0.4,
                "max_iters": 20,
                "fit_max_sweeps": 3,
                "seed": 5,
            },
        )
        out_k = tmp / "kalman"
        assert main(["kalman", "--config", kalman_config, "--out", str(out_k)]) == 0
        trace = (out_k / "filter_trace.csv").read_text().splitlines()
        assert trace[0] == "step,error_all,error_observed,error_hidden,trace_Pi"
        assert len(trace) == 1 + 4  # 4 test transitions
        mask = (out_k / "mask.csv").read_text().splitlines()
        assert mask[0] == "node_id"
        assert len(mask) == 1 + round(0.4 * 13)

    def test_kalman_command_filters_like_the_experiment(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        settings = {
            "network": tiny_dataset["network"],
            "snapshots": tiny_dataset["snapshots"],
            "train_count": 4,
            "max_iters": 20,
            "seed": 5,
        }
        config = write_json(tmp / "kalman_same.json", {**settings, "fraction": 0.4})
        out = tmp / "kalman_same"
        assert main(["kalman", "--config", config, "--out", str(out)]) == 0
        with open(out / "filter_trace.csv", newline="") as handle:
            cli_errors = [float(row["error_all"]) for row in csv.DictReader(handle)]
        result = run_experiment(experiment_config_from_dict({**settings, "methods": ["kalman:0.4"]}))
        assert cli_errors == result.diagnostics["kalman:0.4"].errors_all.tolist()

    @pytest.mark.parametrize(
        "command, fields",
        [("kalman", {"fraction": 0.01}), ("experiment", {"methods": ["kalman:0.01"]})],
    )
    def test_fraction_observing_no_node_is_validation_failure(
        self, tiny_dataset, capsys, monkeypatch, command, fields
    ):
        def refuse(series, network):
            raise AssertionError("fitted before the masks were checked")

        monkeypatch.setattr(cli, "fit_diffusion_constants", refuse)
        monkeypatch.setattr(harness, "fit_diffusion_constants", refuse)
        tmp = tiny_dataset["tmp"]
        settings = {
            "network": tiny_dataset["network"],
            "snapshots": tiny_dataset["snapshots"],
            "train_count": 4,
            "max_iters": 5,
            **fields,
        }
        config = write_json(tmp / f"{command}_tiny_fraction.json", settings)
        out = tmp / f"{command}_tiny_fraction"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert "observes no node" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_learn_without_eta_stops_at_the_noise_floor(self, tmp_path):
        spec = {
            "layers": [{"kind": "agent", "n": 12, "model": "erdos_renyi", "p": 0.4}],
            "n_topics": 2,
            "intra_constants": {"1": 0.05},
            "sigma_ratio": 0.05,
            "n_snapshots": 10,
            "train_count": 6,
            "seed": 3,
        }
        data = tmp_path / "noisy"
        config = write_json(tmp_path / "noisy.json", spec)
        assert main(["generate", "--config", config, "--out", str(data)]) == 0
        settings = {
            "network": str(data / "network.json"),
            "snapshots": str(data / "snapshots.csv"),
            "train_count": 6,
        }
        config = write_json(tmp_path / "noisy_fit.json", settings)
        assert main(["fit", "--config", config, "--out", str(tmp_path / "fit")]) == 0
        assert main(["learn", "--config", config, "--out", str(tmp_path / "learn")]) == 0
        sigma = json.loads((tmp_path / "fit" / "fit_report.json").read_text())["sigma_summary"]
        report = json.loads((tmp_path / "learn" / "learn_report.json").read_text())
        # The snapshots are one time unit apart.
        assert report["threshold"] == pytest.approx(1.5 * sigma["frobenius_norm"], rel=1e-12)


class TestSpectralCommand:
    def test_sweep_outputs(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "spectral.json",
            {
                "network": tiny_dataset["network"],
                "epsilons": [0.0, 0.001, 0.01],
            },
        )
        out = tmp / "spec"
        assert main(["spectral", "--config", config, "--out", str(out)]) == 0
        lines = (out / "lambda2_sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,lambda2_actual,lambda2_estimate,rel_error"
        assert len(lines) == 4
        assert (out / "lambda2_sweep.svg").exists()

    def test_repeat_runs_are_byte_identical(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "spectral_repeat.json",
            {"network": tiny_dataset["network"], "epsilons": [0.0, 0.01, 0.5, 5.0]},
        )
        for run in ("a", "b"):
            assert main(["spectral", "--config", config, "--out", str(tmp / f"spec_{run}")]) == 0
        for name in ("lambda2_sweep.csv", "lambda2_sweep.svg"):
            assert (tmp / "spec_a" / name).read_bytes() == (tmp / "spec_b" / name).read_bytes()

    def test_empty_epsilon_list_is_validation_failure(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "spectral_empty.json", {"network": tiny_dataset["network"], "epsilons": []}
        )
        out = tmp / "spec_empty"
        assert main(["spectral", "--config", config, "--out", str(out)]) == 2
        assert not (out / "lambda2_sweep.csv").exists()


class TestExperimentCommand:
    def test_experiment_outputs_and_determinism(self, tmp_path):
        config_payload = {
            "methods": ["single_layer", "multilayer"],
            "synthetic": {
                "layers": [
                    {"kind": "agent", "n": 6, "model": "erdos_renyi", "p": 0.5},
                    {"kind": "information", "n": 8, "model": "knn", "k": 2},
                ],
                "n_topics": 2,
                "intra_constants": {"1": 0.05, "2": 0.01},
                "inter_constants": {"1,2": 0.06},
                "n_snapshots": 8,
                "train_count": 4,
            },
            "seed": 11,
            "fit_max_sweeps": 4,
        }
        config = write_json(tmp_path / "experiment.json", config_payload)
        out_a, out_b = tmp_path / "exp_a", tmp_path / "exp_b"
        assert main(["experiment", "--config", config, "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", config, "--out", str(out_b)]) == 0
        for name in ("errors.csv", "summary.csv", "errors.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        header = (out_a / "errors.csv").read_text().splitlines()[0]
        assert header == "step,t,upper_bound,single_layer,multilayer"


def own_keys(command, dataset, network=None):
    """A config of ``command`` that gives its input files and nothing else."""
    network = network or dataset["network"]
    snapshots = dataset["snapshots"]
    series = {"network": network, "snapshots": snapshots}
    return {
        "generate": {},
        "build": {"network": network},
        "simulate": {"network": network, "states": snapshots, "horizon": 0.5},
        "predict": {"network": network, "states": snapshots, "delta_t": 0.5},
        "fit": series,
        "learn": series,
        "kalman": {**series, "fraction": 0.5},
        "experiment": {**series, "methods": ["multilayer"]},
    }[command]


class TestExitCodes:
    def test_missing_config_field_is_validation_failure(self, tmp_path):
        config = write_json(tmp_path / "bad.json", {"states": "nope.csv"})
        assert main(["predict", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_is_validation_failure(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["build", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_is_validation_failure(self, tmp_path):
        config = write_json(
            tmp_path / "missing.json", {"network": str(tmp_path / "ghost.json")}
        )
        assert main(["build", "--config", config, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command, fields, network_doc, reason",
        [
            ("build", {}, {"layers": [{"id": 1, "kind": "agent"}]}, "required 'nodes' field"),
            (
                "build",
                {},
                {"layers": [{"id": 1, "kind": "robot", "nodes": ["a"]}]},
                "layer field 'kind' is malformed",
            ),
            ("generate", {"layers": [{"kind": "robot", "n": 3}]}, None, "field 'kind'"),
            ("predict", {"delta_t": "soon"}, None, "field 'delta_t' is malformed"),
            ("predict", {"delta_t": None}, None, "required 'delta_t' field"),
            ("experiment", {"methods": ["kalman:most"]}, None, "method 'kalman:most'"),
        ],
    )
    def test_malformed_input_is_validation_failure(
        self, tiny_dataset, capsys, command, fields, network_doc, reason
    ):
        tmp = tiny_dataset["tmp"]
        network = tiny_dataset["network"]
        if network_doc is not None:
            network = write_json(tmp / "bad_network.json", network_doc)
        config = write_json(
            tmp / "malformed.json", {**own_keys(command, tiny_dataset, network), **fields}
        )
        assert main([command, "--config", config, "--out", str(tmp / "o")]) == 2
        err = capsys.readouterr().err
        assert "validation failure" in err and reason in err

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("fit", {"train_count": 5.9}),
            ("learn", {"max_iters": 1.5}),
            ("kalman", {"fraction": 0.5, "seed": "1"}),
            ("experiment", {"train_count": True}),
            ("generate", {"layers": [{"kind": "agent", "n": 4.6}]}),
            ("experiment", {"train_count": 5.9}),
        ],
    )
    def test_non_integer_count_or_seed_is_validation_failure(
        self, tiny_dataset, capsys, command, fields
    ):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "not_integer.json", {**own_keys(command, tiny_dataset), **fields}
        )
        assert main([command, "--config", config, "--out", str(tmp / "o")]) == 2
        # The message names the rejected field: the last one given, or the layer's n.
        field = "n" if command == "generate" else list(fields)[-1]
        err = capsys.readouterr().err
        assert "expected a JSON integer" in err and f"field {field!r}" in err

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("experiment", "network", 0),
            ("experiment", "snapshots", 3),
            ("fit", "network", 0),
            ("predict", "states", 3),
            ("simulate", "sigma_file", 0),
        ],
    )
    def test_non_string_path_is_validation_failure_and_opens_nothing(
        self, tiny_dataset, capsys, monkeypatch, command, field, value
    ):
        # An integer path would be a file descriptor to open(): 0 is stdin.
        opened = []
        real_open = open

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        tmp = tiny_dataset["tmp"]
        config = write_json(tmp / "path.json", {**own_keys(command, tiny_dataset), field: value})
        monkeypatch.setattr("builtins.open", recording_open)
        assert main([command, "--config", config, "--out", str(tmp / "o")]) == 2
        err = capsys.readouterr().err
        assert f"field {field!r}" in err and "expected a JSON string" in err
        assert opened == [config]

    def test_string_methods_is_validation_failure(self, tiny_dataset, capsys):
        # A string is not split into one-letter methods.
        tmp = tiny_dataset["tmp"]
        fields = {**own_keys("experiment", tiny_dataset), "methods": "multilayer"}
        config = write_json(tmp / "methods.json", fields)
        assert main(["experiment", "--config", config, "--out", str(tmp / "o")]) == 2
        err = capsys.readouterr().err
        assert "field 'methods'" in err and "expected a JSON list" in err

    @pytest.mark.parametrize(
        "command, fields, network_edit, key",
        [
            ("learn", {"max_iter": 0}, None, "max_iter"),
            ("build", {"seed": 1}, None, "seed"),
            ("generate", {"layers": [{"kind": "agent", "n": 3, "edge_p": 0.5}]}, None, "edge_p"),
            (
                "experiment",
                {"synthetic": {"layers": [], "n_topic": 2}},
                None,
                "n_topic",
            ),
            ("fit", {}, lambda doc: doc["layers"][0].update(name="agents"), "name"),
            ("fit", {}, lambda doc: doc["couplings"][0].update(weight=1.0), "weight"),
            ("fit", {}, lambda doc: doc["constants"].update(noise=0.1), "noise"),
            ("fit", {}, lambda doc: doc["layers"][0]["adjacency"].update(rows=2), "rows"),
            ("fit", {}, lambda doc: doc.update(directed=True), "directed"),
        ],
    )
    def test_unknown_key_is_validation_failure_naming_it(
        self, tiny_dataset, capsys, command, fields, network_edit, key
    ):
        tmp = tiny_dataset["tmp"]
        network = tiny_dataset["network"]
        if network_edit is not None:
            doc = json.loads((tiny_dataset["dir"] / "network.json").read_text())
            network_edit(doc)
            network = write_json(tmp / "unknown_network.json", doc)
        config = write_json(
            tmp / "unknown.json", {**own_keys(command, tiny_dataset, network), **fields}
        )
        assert main([command, "--config", config, "--out", str(tmp / "o")]) == 2
        err = capsys.readouterr().err
        assert f"unknown field(s) {key!r}" in err
        assert not (tmp / "o").exists()

    def test_non_numeric_state_value_is_validation_failure(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        lines = (tiny_dataset["dir"] / "snapshots.csv").read_text().splitlines()
        fields = lines[1].split(",")
        lines[1] = ",".join(fields[:2] + ["many"] + fields[3:])
        (tmp / "bad_states.csv").write_text("\n".join(lines) + "\n")
        config = write_json(
            tmp / "bad_states.json",
            {"network": tiny_dataset["network"], "states": str(tmp / "bad_states.csv"), "delta_t": 1},
        )
        assert main(["predict", "--config", config, "--out", str(tmp / "o")]) == 2

    def test_programming_errors_propagate(self, tiny_dataset, monkeypatch):
        def broken_fit(series, network):
            raise KeyError("a bug, not bad input")

        monkeypatch.setattr(cli, "fit_diffusion_constants", broken_fit)
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "fit_bug.json",
            {"network": tiny_dataset["network"], "snapshots": tiny_dataset["snapshots"]},
        )
        with pytest.raises(KeyError, match="a bug"):
            main(["fit", "--config", config, "--out", str(tmp / "o")])

    def test_numerical_failure_exit_code(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "hot.json",
            {
                "network": tiny_dataset["network"],
                "snapshots": tiny_dataset["snapshots"],
                "train_count": 4,
                "gain": 1e260,
                "eta": 0.0,
                "max_iters": 50,
                "fit_max_sweeps": 2,
            },
        )
        assert main(["learn", "--config", config, "--out", str(tmp / "o")]) == 3

    def test_numerical_failure_in_a_helper_filter_exit_code(self, tiny_dataset, monkeypatch):
        caller = threading.current_thread()
        real = kalman._run_lockstep

        def failing(test, op, model, filters):
            if threading.current_thread() is not caller:
                raise NumericalError("covariance is non-finite")
            return real(test, op, model, filters)

        monkeypatch.setattr(diffusion, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(kalman, "_run_lockstep", failing)
        tmp = tiny_dataset["tmp"]
        config = write_json(
            tmp / "fractions.json",
            {
                "network": tiny_dataset["network"],
                "snapshots": tiny_dataset["snapshots"],
                "train_count": 4,
                "methods": ["kalman:0.25", "kalman:0.5", "kalman:1.0"],
            },
        )
        threads = threading.active_count()
        assert main(["experiment", "--config", config, "--out", str(tmp / "o")]) == 3
        assert threading.active_count() == threads
