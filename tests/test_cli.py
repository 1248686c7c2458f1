import csv
import dataclasses
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from supraflow import (
    ExperimentConfig,
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
from supraflow.harness import run_experiment


def write_json(path, payload):
    # json.dumps writes inf as the Infinity literal, which the reader rejects;
    # 1e400 is a JSON number that json reads as inf.
    path.write_text(json.dumps(payload, indent=2).replace("Infinity", "1e400") + "\n")
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

    def test_build_holds_no_p_by_p_array(self, tmp_path):
        # A 2001-node ring: the dump streams the operator by blocks of rows,
        # so the peak stays below one P x P float64 array (32 MB).
        n = 2001
        ring = [[i, (i + step) % n, 1.0] for i in range(n) for step in (1, n - 1)]
        layer = {"id": 1, "nodes": [f"v{i}" for i in range(n)], "adjacency": {"triplets": ring}}
        network = write_json(
            tmp_path / "ring.json", {"layers": [layer], "constants": {"intra": {"1": 0.5}}}
        )
        config = write_json(tmp_path / "build.json", {"network": network})
        tracemalloc.start()
        try:
            code = main(["build", "--config", config, "--out", str(tmp_path / "build")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * n * n
        summary = json.loads((tmp_path / "build" / "build_summary.json").read_text())
        assert summary == {"max_abs_row_sum": 0.0, "n_layers": 1, "n_nodes": n, "symmetric": True}


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
        assert_finite_table(out / "simulation.csv")
        assert not (out / "ensemble_summary.csv").exists()

    def test_simulate_ensemble_summary(self, tiny_dataset, monkeypatch):
        # Three kept rows of 13 x 2 doubles per block: blocks of 3 and 1 rows.
        monkeypatch.setattr(diffusion, "STATISTICS_BLOCK_BYTES", 3 * 13 * 2 * 8)
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
        # The summary read back is numpy's stacked mean and variance of the
        # paths read back, bit for bit.
        _, rows = assert_finite_table(out / "simulation.csv")
        paths = np.array([float(v) for row in rows for v in row[4:]]).reshape(3, 4 * 13, 2)
        header, rows = assert_finite_table(out / "ensemble_summary.csv")
        summary = np.array([[float(v) for v in row[3:]] for row in rows])
        assert header[3:] == ["mean_x_1", "mean_x_2", "var_x_1", "var_x_2"]
        assert summary[:, :2].tobytes() == paths.mean(axis=0).tobytes()
        assert summary[:, 2:].tobytes() == paths.var(axis=0, ddof=1).tobytes()

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
        _, rows = assert_finite_table(out / "prediction.csv")
        assert len(rows) == 13


class TestFitLearnKalman:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_fit_report(self, tiny_dataset, symmetric):
        # A symmetric network's fit takes one eigendecomposition per objective
        # evaluation, a directed one exponential actions: run both.
        tmp = tiny_dataset["tmp"]
        doc = json.loads((tiny_dataset["dir"] / "network.json").read_text())
        network = write_json(tmp / "fit_network.json", {**doc, "symmetric": symmetric})
        config = write_json(
            tmp / "fit.json",
            {
                "network": network,
                "snapshots": tiny_dataset["snapshots"],
                "train_count": 4,
                "max_sweeps": 4,
            },
        )
        out = tmp / "fit"
        assert main(["fit", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        constants = report["constants"]
        assert set(constants["intra"]) == {"1", "2"}
        assert constants["symmetric"] is symmetric
        assert report["converged"] and report["identifiable"]
        values = [*constants["intra"].values(), *constants["inter"].values()]
        assert np.isfinite(values).all()
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
        numbers = [report[k] for k in ("gain", "threshold", "initial_error", "final_error")]
        assert np.isfinite(numbers).all()
        header, _ = assert_finite_table(out / "operator.csv")
        assert header == ["# rows=26 cols=26"]

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
        header, trace = assert_finite_table(out_k / "filter_trace.csv")
        assert header == ["step", "error_all", "error_observed", "error_hidden", "trace_Pi"]
        assert len(trace) == 4  # 4 test transitions
        mask = (out_k / "mask.csv").read_text().splitlines()
        assert mask[0] == "node_id"
        assert len(mask) == 1 + round(0.4 * 13)

    # The update factors the observed block when R > 0 and takes a
    # pseudo-inverse when R = 0: run both routes.
    @pytest.mark.parametrize("r", [kalman.R_OBSERVED, 0.0])
    def test_kalman_command_filters_like_the_experiment(self, tiny_dataset, r):
        tmp = tiny_dataset["tmp"]
        settings = {
            "network": tiny_dataset["network"],
            "snapshots": tiny_dataset["snapshots"],
            "train_count": 4,
            "max_iters": 20,
            "seed": 5,
        }
        config = write_json(tmp / "kalman_same.json", {**settings, "fraction": 0.4, "r": r})
        out = tmp / "kalman_same"
        assert main(["kalman", "--config", config, "--out", str(out)]) == 0
        header, rows = assert_finite_table(out / "filter_trace.csv")
        cli_errors = [float(row[header.index("error_all")]) for row in rows]
        experiment = ExperimentConfig(
            methods=("kalman:0.4",),
            network_file=settings["network"],
            snapshots_file=settings["snapshots"],
            train_count=4,
            max_iters=20,
            seed=5,
            kalman_r=r,
        )
        result = run_experiment(experiment)
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

    @pytest.mark.parametrize(
        "command, fields, reason",
        [
            ("learn", {"eta": -1}, "threshold must be finite and >= 0, got -1.0"),
            ("learn", {"gain": -1}, "gain must be finite and >= 0, got -1.0"),
            ("kalman", {"eta": -1}, "threshold must be finite and >= 0, got -1.0"),
            ("kalman", {"gain": -1}, "gain must be finite and >= 0, got -1.0"),
            ("kalman", {"max_iters": -1}, "max_iters must be >= 0, got -1"),
            ("experiment", {"learn_threshold": -1}, "threshold must be finite and >= 0, got -1.0"),
            ("experiment", {"gain": -1}, "gain must be finite and >= 0, got -1.0"),
            ("kalman", {"r": -1}, "noise variance r must be finite and >= 0, got -1.0"),
            ("experiment", {"kalman_r": -1}, "noise variance r must be finite and >= 0, got -1.0"),
        ],
    )
    def test_bad_learner_setting_fails_before_the_fit(
        self, tiny_dataset, capsys, monkeypatch, command, fields, reason
    ):
        fits = []

        def counted(series, network):
            fits.append(network)
            raise AssertionError("fitted before the learner settings were checked")

        monkeypatch.setattr(cli, "fit_diffusion_constants", counted)
        monkeypatch.setattr(harness, "fit_diffusion_constants", counted)
        tmp = tiny_dataset["tmp"]
        settings = {**own_keys(command, tiny_dataset), **fields}
        if command == "experiment":
            settings["methods"] = ["learned_operator"]
        config = write_json(tmp / f"{command}_bad_learner.json", settings)
        out = tmp / f"{command}_bad_learner"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
        assert fits == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, reason",
        [
            ("kalman", "the test range needs at least 2 snapshots"),
            ("experiment", "experiments need at least 1 test transition"),
        ],
    )
    def test_no_test_range_fails_before_the_fit(
        self, tiny_dataset, capsys, monkeypatch, command, reason
    ):
        fits = []

        def counted(series, network):
            fits.append(network)
            raise AssertionError("fitted before the test range was checked")

        monkeypatch.setattr(cli, "fit_diffusion_constants", counted)
        monkeypatch.setattr(harness, "fit_diffusion_constants", counted)
        tmp = tiny_dataset["tmp"]
        # Every snapshot is a training one, so the test range holds only the last.
        settings = {**own_keys(command, tiny_dataset), "train_count": 8}
        config = write_json(tmp / f"{command}_no_test_range.json", settings)
        out = tmp / f"{command}_no_test_range"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
        assert fits == []
        assert not out.exists()

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
        header, _ = assert_finite_table(out_a / "errors.csv")
        assert header == ["step", "t", "upper_bound", "single_layer", "multilayer"]
        text = ("method", "improvement_vs_single_layer")
        header, rows = assert_finite_table(out_a / "summary.csv", text_columns=text)
        assert [row[0] for row in rows] == ["upper_bound", "single_layer", "multilayer"]

    def test_per_topic_and_whole_state_routes(self, tmp_path, monkeypatch):
        # The default learner makes no rank-1 update on this noisy data, so
        # the filter runs per topic; forced updates take the whole-state
        # filter.  Run both.
        routes = []
        real_learn = harness.learn_from_fit

        def recorded(*args):
            op = real_learn(*args)
            routes.append(op.per_topic)
            return op

        monkeypatch.setattr(harness, "learn_from_fit", recorded)
        spec = {
            "layers": [
                {"kind": "agent", "n": 4, "model": "complete"},
                {"kind": "information", "n": 5, "model": "knn", "k": 2},
            ],
            "n_snapshots": 8,
            "train_count": 5,
            "sigma_ratio": 0.05,
            "seed": 1,
        }
        data = tmp_path / "data"
        config = write_json(tmp_path / "spec.json", spec)
        assert main(["generate", "--config", config, "--out", str(data)]) == 0
        settings = {
            "network": str(data / "network.json"),
            "snapshots": str(data / "snapshots.csv"),
            "train_count": 5,
            "methods": ["multilayer", "learned_operator", "kalman:0.5"],
            "seed": 1,
        }
        forced = {"learn_threshold": 1e-9, "max_iters": 3}
        errors = {}
        for out, extra in (("topics", {}), ("whole", forced)):
            config = write_json(tmp_path / f"{out}.json", {**settings, **extra})
            assert main(["experiment", "--config", config, "--out", str(tmp_path / out)]) == 0
            with open(tmp_path / out / "summary.csv", newline="") as handle:
                errors[out] = {r["method"]: float(r["mean_error"]) for r in csv.DictReader(handle)}
            assert all(np.isfinite(list(errors[out].values()))), errors[out]
        assert routes == [True, False]
        multi, learned = errors["topics"]["multilayer"], errors["topics"]["learned_operator"]
        assert abs(learned - multi) <= 1e-10 * multi

    def test_seed_flag_overrides_the_config_seed(self, tmp_path, capsys):
        # The seed draws the synthetic dataset.
        fields = {
            "methods": ["single_layer", "multilayer"],
            "synthetic": {"layers": [{"kind": "agent", "n": 6, "model": "erdos_renyi", "p": 0.5}]},
        }
        runs = {
            "seed1": ({**fields, "seed": 1}, []),
            "seed2": ({**fields, "seed": 2}, []),
            "seed2_flag1": ({**fields, "seed": 2}, ["--seed", "1"]),
        }
        for name, (payload, flag) in runs.items():
            config = write_json(tmp_path / f"{name}.json", payload)
            capsys.readouterr()
            assert main(["experiment", "--config", config, "--out", str(tmp_path / name), *flag]) == 0
        names = ("errors.csv", "summary.csv", "errors.svg")
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
        assert wrote == [f"wrote {tmp_path / 'seed2_flag1' / name}" for name in names]
        for name in names:
            flagged = (tmp_path / "seed2_flag1" / name).read_bytes()
            assert flagged == (tmp_path / "seed1" / name).read_bytes()
            assert flagged != (tmp_path / "seed2" / name).read_bytes()


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
        "spectral": {"network": network, "epsilons": [0.0, 0.5]},
    }[command]


def read_table(path):
    """The header and rows of a CSV file the package wrote, checking its dialect:
    every line ends in CRLF, and every row has the header's length.  A matrix
    dump's one-field header ``# rows=<n> cols=<n>`` gives its row count and length."""
    raw = path.read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), path
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    shape = header[0].removeprefix("# rows=").split(" cols=")
    if len(header) == 1 and len(shape) == 2:
        assert len(rows) == int(shape[0]), path
        width = int(shape[1])
    else:
        width = len(header)
    assert all(len(row) == width for row in rows), path
    return header, rows


def assert_finite_table(path, text_columns=("node_id",)):
    """The header and rows of ``read_table(path)``, checking that there are
    rows and that every field outside ``text_columns`` is a finite number."""
    header, rows = read_table(path)
    text = {header.index(name) for name in text_columns if name in header}
    values = [float(v) for row in rows for i, v in enumerate(row) if i not in text]
    assert values and np.isfinite(values).all(), path
    return header, rows


class TestCsvOutputs:
    def run(self, dataset, command, name, **fields):
        """Run ``command`` on the dataset's files with ``fields``; its output directory."""
        tmp = dataset["tmp"]
        network = fields.pop("network", dataset["network"])
        config = {**own_keys(command, dataset, network), **fields}
        path = write_json(tmp / f"{name}.json", config)
        assert main([command, "--config", path, "--out", str(tmp / name)]) == 0
        return tmp / name

    def test_every_csv_the_cli_writes_is_one_dialect(self, tiny_dataset):
        outputs = [
            self.run(tiny_dataset, "build", "build"),
            self.run(tiny_dataset, "simulate", "simulate", paths=2, dt=0.1),
            self.run(tiny_dataset, "predict", "predict"),
            self.run(tiny_dataset, "learn", "learn", train_count=4, max_iters=5),
            self.run(tiny_dataset, "kalman", "kalman", train_count=4, max_iters=5),
            self.run(tiny_dataset, "spectral", "spectral"),
            self.run(
                tiny_dataset,
                "experiment",
                "experiment",
                train_count=4,
                methods=["single_layer", "multilayer", "kalman:0.5"],
            ),
        ]
        written = sorted(tiny_dataset["dir"].glob("*.csv"))
        written += [path for out in outputs for path in sorted(out.glob("*.csv"))]
        assert [f"{path.parent.name}/{path.name}" for path in written] == [
            "data/snapshots.csv",
            "build/supra_laplacian.csv",
            "simulate/ensemble_summary.csv",
            "simulate/simulation.csv",
            "predict/prediction.csv",
            "learn/operator.csv",
            "kalman/filter_trace.csv",
            "kalman/mask.csv",
            "spectral/lambda2_sweep.csv",
            "experiment/errors.csv",
            "experiment/summary.csv",
        ]
        for path in written:
            read_table(path)

    def test_node_ids_with_a_comma_and_a_quote_read_back(self, tiny_dataset):
        tmp = tiny_dataset["tmp"]
        data = json.loads((tiny_dataset["dir"] / "network.json").read_text())
        layer = data["layers"][0]
        renamed = {
            f"{layer['id']}:{old}": f"{layer['id']}:{new}"
            for old, new in zip(layer["nodes"], ["a,b", 'c"d'])
        }
        layer["nodes"][:2] = ["a,b", 'c"d']
        network = write_json(tmp / "odd_network.json", data)
        with open(tiny_dataset["snapshots"], newline="") as handle:
            rows = [[renamed.get(row[0], row[0]), *row[1:]] for row in csv.reader(handle)]
        snapshots = tmp / "odd_snapshots.csv"
        with open(snapshots, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        odd = {**tiny_dataset, "snapshots": str(snapshots)}
        labels = [cli.node_label(key) for key in load_network(network)[0].node_order]
        assert {"1:a,b", '1:c"d'} <= set(labels)

        self.run(odd, "build", "odd_build", network=network)
        read_table(tmp / "odd_build" / "supra_laplacian.csv")
        simulate = self.run(odd, "simulate", "odd_simulate", network=network, paths=2, dt=0.1)
        predict = self.run(odd, "predict", "odd_predict", network=network)
        for path in (
            simulate / "simulation.csv",
            simulate / "ensemble_summary.csv",
            predict / "prediction.csv",
        ):
            header, rows = read_table(path)
            column = [row[header.index("node_id")] for row in rows]
            assert column == labels * (len(rows) // len(labels)), path


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
            ("simulate", {"horizon": "nan"}, None, "field 'horizon' is malformed"),
            ("experiment", {"methods": ["kalman:most"]}, None, "method 'kalman:most'"),
            (
                "experiment",
                {"methods": ["multilayer", "multilayer"]},
                None,
                "method 'multilayer' is given twice",
            ),
            (
                "experiment",
                {"synthetic": {"layers": [{"kind": "agent", "n": 4}]}},
                None,
                "config gives both 'synthetic' and 'network'/'snapshots'",
            ),
            ("learn", {"eta": -1, "max_iters": 7}, None, "threshold must be finite and >= 0"),
            ("learn", {"max_iters": -3}, None, "max_iters must be >= 0, got -3"),
            ("learn", {"gain": -1}, None, "gain must be finite and >= 0, got -1.0"),
            ("kalman", {"gain": -0.5}, None, "gain must be finite and >= 0, got -0.5"),
            ("learn", {"gain": float("inf")}, None, "field 'gain' is malformed"),
            ("learn", {"eta": float("-inf")}, None, "field 'eta' is malformed"),
            ("experiment", {"learn_threshold": float("inf")}, None, "'learn_threshold' is malformed"),
            ("experiment", {"gain": float("-inf")}, None, "field 'gain' is malformed"),
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

    @pytest.mark.parametrize(
        "command, fields",
        [("simulate", {"horizon": 1e12}), ("generate", {"sigma_ratio": 0.05, "dt": 1e-300})],
    )
    def test_impossible_step_count_fails_before_allocating(
        self, tiny_dataset, capsys, command, fields
    ):
        tmp = tiny_dataset["tmp"]
        own = tiny_dataset["spec"] if command == "generate" else own_keys(command, tiny_dataset)
        config = write_json(tmp / "steps.json", {**own, **fields})
        tracemalloc.start()
        try:
            code = main([command, "--config", config, "--out", str(tmp / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "simulation's times would take" in err and "above the 3200000000 bytes" in err
        assert peak < 1 << 20
        assert not (tmp / "o").exists()

    def test_too_many_paths_fail_before_any_generator(self, tiny_dataset, capsys):
        # 10^5 paths of 202 kept 13 x 2 states take 4.2 GB; their generators
        # alone would hold about 100 MB.
        tmp = tiny_dataset["tmp"]
        fields = {"paths": 10**5, "horizon": 2.0, "dt": 0.01}
        config = write_json(tmp / "paths.json", {**own_keys("simulate", tiny_dataset), **fields})
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", config, "--out", str(tmp / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert "simulation's kept states would take 4.3" in err and "lower paths" in err
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

        monkeypatch.setattr(kalman, "_usable_cpus", lambda: 2)
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
