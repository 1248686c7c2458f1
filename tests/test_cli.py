import csv
import json
import os

import numpy as np
import pytest

from supraflow import cli
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
        "command, fields, network_doc",
        [
            ("build", {}, {"layers": [{"id": 1, "kind": "agent"}]}),
            ("build", {}, {"layers": [{"id": 1, "kind": "robot", "nodes": ["a"]}]}),
            ("generate", {"layers": [{"kind": "robot", "n": 3}]}, None),
            ("predict", {"delta_t": "soon"}, None),
            ("predict", {"delta_t": None}, None),
            ("experiment", {"methods": ["kalman:most"]}, None),
        ],
    )
    def test_malformed_input_is_validation_failure(
        self, tiny_dataset, capsys, command, fields, network_doc
    ):
        tmp = tiny_dataset["tmp"]
        network = tiny_dataset["network"]
        if network_doc is not None:
            network = write_json(tmp / "bad_network.json", network_doc)
        snapshots = tiny_dataset["snapshots"]
        config = write_json(
            tmp / "malformed.json",
            {"network": network, "states": snapshots, "snapshots": snapshots, **fields},
        )
        assert main([command, "--config", config, "--out", str(tmp / "o")]) == 2
        assert "validation failure" in capsys.readouterr().err

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
