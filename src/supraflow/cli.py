"""Command-line entry points.

Every subcommand has one shape: ``_config`` reads the JSON config document
passed with --config by the command's table in ``_CONFIGS``, with --seed over
the config's seed where the table has one; library calls do the work; and
``_write`` writes each output under --out and prints a ``wrote <path>`` line.
A setting's key is its ``ExperimentConfig`` field's name in every command.
Outputs are CSV tables, JSON reports and SVG charts, written atomically and
byte-identical across runs with the same config and seed at a fixed BLAS
thread count.

Exit codes: 0 success, 2 validation failure (malformed or missing input, a
config key the command does not know, or a file that cannot be read or
written), 3 numerical failure.  Any other exception
is a bug and propagates.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import REQUIRED, NumericalError, ValidationError, _json_float, _json_int, _json_list
from .errors import _json_str, read_document
from .calibration import (
    check_learner_settings,
    fit_diffusion_constants,
    learn_from_fit,
    write_fit_report,
    write_matrix_csv,
)
from .diffusion import (
    NoiseModel,
    SimulationConfig,
    _row_blocks,
    default_step,
    ensemble_statistics,
    propagate_closed,
    simulate_ensemble,
    write_ensemble_summary_csv,
    write_simulation_csv,
)
from .files import read_json, write_json
from .harness import ExperimentConfig, _load_series, replot_errors_csv, run_experiment
from .harness import write_errors_csv, write_summary_csv
from .kalman import (
    _test_range,
    check_observation_noise,
    filter_fractions,
    nested_masks,
    write_filter_trace_csv,
    write_mask_csv,
)
from .network import (
    _is_symmetric,
    assemble_supra_laplacian,
    constants_to_dict,
    load_network,
    save_network,
)
from .spectral import connectivity_sweep, write_sweep_csv
from .states import node_label, read_states_csv, write_states_csv
from .svgplot import line_chart
from .synthetic import _SPEC_FIELDS, SyntheticSpec, generate_synthetic, synthetic_spec_from_dict


_NETWORK = {"network": (_json_str, REQUIRED)}
_STATES = {**_NETWORK, "states": (_json_str, REQUIRED)}
_SERIES = {**_NETWORK, "snapshots": (_json_str, REQUIRED), "train_count": (_json_int, None)}
#: The learner's and the filter's settings, each keyed and defaulted as its
#: ``ExperimentConfig`` field, one entry for every command that reads it.
_LEARNER = {
    "gain": (_json_float, ExperimentConfig.gain),
    "learn_threshold": (_json_float, ExperimentConfig.learn_threshold),
    "max_iters": (_json_int, ExperimentConfig.max_iters),
}
_KALMAN_R = {"kalman_r": (_json_float, ExperimentConfig.kalman_r)}
#: Each command's config table (see ``errors.read_document``).
_CONFIGS = {
    "generate": {**_SPEC_FIELDS, "seed": (_json_int, 0)},
    "build": _NETWORK,
    "simulate": {
        **_STATES,
        "horizon": (_json_float, REQUIRED),
        "dt": (_json_float, None),
        "sigma": (_json_float, None),
        "sigma_file": (_json_str, None),
        "paths": (_json_int, 1),
        "seed": (_json_int, 0),
    },
    "predict": {**_STATES, "delta_t": (_json_float, REQUIRED)},
    "fit": _SERIES,
    "learn": {**_SERIES, **_LEARNER},
    "kalman": {
        **_SERIES,
        **_LEARNER,
        **_KALMAN_R,
        "fraction": (_json_float, REQUIRED),
        "seed": (_json_int, 0),
    },
    "spectral": {**_NETWORK, "epsilons": (_json_list(_json_float), REQUIRED)},
    "experiment": {
        "methods": (_json_list(_json_str), ()),
        "synthetic": (synthetic_spec_from_dict, None),
        "network": (_json_str, None),
        "snapshots": (_json_str, None),
        "train_count": (_json_int, None),
        "seed": (_json_int, 0),
        **_LEARNER,
        **_KALMAN_R,
        # Retired and not read: the benchmark's experiment workloads and
        # acceptance criterion 9's config still send it.
        "fit_max_sweeps": (None, None),
    },
}


def _config(args) -> dict:
    """The fields of the command's config, with --seed over its seed."""
    document = read_json(args.config, "config file") if args.config else {}
    fields = read_document(document, _CONFIGS[args.command], f"{args.command} config")
    if "seed" in fields and args.seed is not None:
        fields["seed"] = int(args.seed)
    return fields


def _write(args, name: str, write, *payload) -> None:
    """Write the output ``name`` under --out by ``write(path, *payload)``."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    write(path, *payload)
    print(f"wrote {path}")


def _learner(cfg: dict):
    """Check the config's learner settings, before any file is read, and return
    the step that fits the constants to a network's series and learns from the fit."""
    settings = dict(gain=cfg["gain"], threshold=cfg["learn_threshold"], max_iters=cfg["max_iters"])
    check_learner_settings(**settings)
    return lambda network, series: learn_from_fit(
        series, network, fit_diffusion_constants(series, network), **settings
    )


def _load_network_with_constants(cfg: dict):
    network, constants = load_network(cfg["network"])
    if constants is None:
        raise ValidationError("the network file declares no diffusion constants")
    return network, constants


def cmd_generate(args) -> int:
    cfg = _config(args)
    seed = cfg.pop("seed")
    network, series, truth = generate_synthetic(SyntheticSpec(**cfg), seed)
    _write(args, "network.json", save_network, network, truth.constants)
    _write(args, "snapshots.csv", write_states_csv, series.snapshots, network.node_order)
    report = {
        "seed": truth.seed,
        "attempts": truth.attempts,
        "sigma_ratio": truth.sigma_ratio,
        "sigma_frobenius": float(np.linalg.norm(truth.sigma)),
        "train_count": series.train_count,
        "constants": constants_to_dict(truth.constants),
    }
    _write(args, "truth.json", write_json, report)
    return 0


def cmd_build(args) -> int:
    cfg = _config(args)
    network, constants = _load_network_with_constants(cfg)
    supra = assemble_supra_laplacian(network, constants)
    n = supra.n_nodes
    row_sums = []

    def blocks():
        # L is the learned operator with one topic and no correction.
        for _, rows in _row_blocks(supra.csr, np.empty((n, 0)), np.empty((n, 0))):
            row_sums.append(rows.sum(axis=1))
            yield rows

    _write(args, "supra_laplacian.csv", write_matrix_csv, (n, n), blocks())
    summary = {
        "n_nodes": n,
        "n_layers": len(supra.layer_ids),
        "max_abs_row_sum": float(np.abs(np.concatenate(row_sums)).max()),
        "symmetric": _is_symmetric(supra.csr),
    }
    _write(args, "build_summary.json", write_json, summary)
    return 0


def cmd_simulate(args) -> int:
    cfg = _config(args)
    network, constants = _load_network_with_constants(cfg)
    supra = assemble_supra_laplacian(network, constants)
    x0 = read_states_csv(cfg["states"], network)[0]
    if cfg["sigma_file"] is not None:
        if cfg["sigma"] is not None:
            raise ValidationError("config gives both 'sigma' and 'sigma_file'; give one of them")
        sigma = read_states_csv(cfg["sigma_file"], network)[0].matrix
    else:
        sigma = (cfg["sigma"] or 0.0) * np.ones(x0.matrix.shape)
    noise = NoiseModel(sigma=sigma, seed=cfg["seed"])
    config = SimulationConfig(
        dt=default_step(supra) if cfg["dt"] is None else cfg["dt"],
        horizon=cfg["horizon"],
        ensemble_size=cfg["paths"],
    )
    paths = simulate_ensemble(x0, supra, noise, config)
    _write(args, "simulation.csv", write_simulation_csv, paths, network.node_order)
    if len(paths) >= 2:
        mean, var = ensemble_statistics(paths)
        table = (paths[0].times, mean, var, network.node_order)
        _write(args, "ensemble_summary.csv", write_ensemble_summary_csv, *table)
    return 0


def cmd_predict(args) -> int:
    cfg = _config(args)
    network, constants = _load_network_with_constants(cfg)
    supra = assemble_supra_laplacian(network, constants)
    snapshots = read_states_csv(cfg["states"], network)
    predicted = propagate_closed(snapshots[-1], supra, cfg["delta_t"])
    _write(args, "prediction.csv", write_states_csv, [predicted], network.node_order)
    return 0


def cmd_fit(args) -> int:
    cfg = _config(args)
    network, series = _load_series(cfg["network"], cfg["snapshots"], cfg["train_count"])
    _write(args, "fit_report.json", write_fit_report, fit_diffusion_constants(series, network))
    return 0


def cmd_learn(args) -> int:
    cfg = _config(args)
    learn = _learner(cfg)
    op = learn(*_load_series(cfg["network"], cfg["snapshots"], cfg["train_count"]))
    dim = op.n_nodes * op.n_topics
    blocks = (rows for _, rows in _row_blocks(op.block, op.inputs, op.corrections))
    _write(args, "operator.csv", write_matrix_csv, (dim, dim), blocks)
    report = {
        "iterations": op.iterations,
        "converged": op.converged,
        "gain": op.gain,
        "threshold": op.threshold,
        "initial_error": op.initial_error,
        "final_error": op.final_error,
    }
    _write(args, "learn_report.json", write_json, report)
    return 0


def cmd_kalman(args) -> int:
    cfg = _config(args)
    learn = _learner(cfg)
    fraction = cfg["fraction"]
    if not 0 < fraction <= 1:
        raise ValidationError("fraction must lie in (0, 1]")
    check_observation_noise(cfg["kalman_r"])
    network, series = _load_series(cfg["network"], cfg["snapshots"], cfg["train_count"])
    _test_range(series)
    masks = nested_masks(network.n_nodes, [fraction], cfg["seed"])
    result = filter_fractions(series, learn(network, series), masks, cfg["kalman_r"])[fraction]
    _write(args, "filter_trace.csv", write_filter_trace_csv, result)
    labels = [node_label(key) for key in network.node_order]
    _write(args, "mask.csv", write_mask_csv, result.observed_nodes, labels)
    return 0


def cmd_spectral(args) -> int:
    cfg = _config(args)
    network, constants = _load_network_with_constants(cfg)
    points = connectivity_sweep(network, constants, cfg["epsilons"])
    _write(args, "lambda2_sweep.csv", write_sweep_csv, points)
    series = [
        ("actual", [p.epsilon for p in points], [p.lambda2_actual for p in points]),
        ("estimate", [p.epsilon for p in points], [p.lambda2_estimate for p in points]),
    ]
    title = "Algebraic connectivity vs. inter-layer strength"
    _write(args, "lambda2_sweep.svg", line_chart, series, title, "epsilon", "lambda_2")
    return 0


def cmd_experiment(args) -> int:
    config = ExperimentConfig(**_config(args))
    result = run_experiment(config)
    for name in config.methods:
        print(f"{name}: mean error {result.mean_errors[name]:.6g}")
    _write(args, "errors.csv", write_errors_csv, config.methods, result)
    _write(args, "summary.csv", write_summary_csv, config.methods, result)
    # The chart is plotted from the table just written, the interface of record.
    _write(args, "errors.svg", replot_errors_csv, os.path.join(args.out, "errors.csv"))
    return 0


_COMMANDS = (
    ("generate", cmd_generate, "generate a synthetic dataset from a spec"),
    ("build", cmd_build, "assemble and dump the supra-Laplacian of a network file"),
    ("simulate", cmd_simulate, "simulate open-system paths from an initial state"),
    ("predict", cmd_predict, "closed-system prediction from the latest snapshot"),
    ("fit", cmd_fit, "fit diffusion constants and the noise scale to snapshots"),
    ("learn", cmd_learn, "learn the one-step operator from snapshots"),
    ("kalman", cmd_kalman, "run the partial-observation Kalman filter"),
    ("spectral", cmd_spectral, "sweep algebraic connectivity against its estimate"),
    ("experiment", cmd_experiment, "run a multi-method prediction experiment"),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON config document")
    common.add_argument("--out", default="out", help="output directory")
    parser = argparse.ArgumentParser(
        prog="supraflow",
        description="Topic-state diffusion over interconnected multilayer networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in _COMMANDS:
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
        if "seed" in _CONFIGS[name]:
            sub.add_argument("--seed", type=int, help="master seed (overrides config)")
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
