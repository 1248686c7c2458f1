"""Command-line entry points.

Every subcommand reads its parameters from a JSON config document passed with
--config; --seed overrides the config's seed and --out chooses the output
directory.  Outputs are CSV tables plus SVG charts, written atomically and
byte-identical across runs with the same config and seed at a fixed BLAS thread
count.

Exit codes: 0 success, 2 validation failure (malformed or missing input, a
config key the command does not know, or a file that cannot be read or
written), 3 numerical failure.  Any other exception
is a bug and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import REQUIRED, NumericalError, ValidationError, _json_int, _json_list, _json_str
from .errors import read_document
from .calibration import (
    LEARN_MAX_ITERS,
    SnapshotSeries,
    fit_diffusion_constants,
    learn_from_fit,
    write_fit_report,
    write_matrix_csv,
)
from .diffusion import (
    NoiseModel,
    SimulationConfig,
    default_step,
    ensemble_statistics,
    propagate_closed,
    simulate_ensemble,
    write_ensemble_summary_csv,
    write_simulation_csv,
)
from .files import write_json
from .harness import experiment_config_from_dict, run_experiment
from .kalman import (
    R_OBSERVED,
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
from .synthetic import _SPEC_FIELDS, SyntheticSpec, generate_synthetic


_NETWORK = {"network": (_json_str, REQUIRED)}
_STATES = {**_NETWORK, "states": (_json_str, REQUIRED)}
_SERIES = {**_NETWORK, "snapshots": (_json_str, REQUIRED), "train_count": (_json_int, None)}
_LEARNER = {
    "gain": (float, None),
    "eta": (float, None),
    "max_iters": (_json_int, LEARN_MAX_ITERS),
    "fit_max_sweeps": (None, None),
}
#: Each command's config table (see ``errors.read_document``); ``experiment``
#: reads its config by ``harness._EXPERIMENT_FIELDS``.
_CONFIGS = {
    "generate": {**_SPEC_FIELDS, "seed": (_json_int, 0)},
    "build": _NETWORK,
    "simulate": {
        **_STATES,
        "horizon": (float, REQUIRED),
        "dt": (float, None),
        "sigma": (float, None),
        "sigma_file": (_json_str, None),
        "paths": (_json_int, 1),
        "seed": (_json_int, 0),
    },
    "predict": {**_STATES, "delta_t": (float, REQUIRED)},
    "fit": {**_SERIES, "max_sweeps": (None, None)},
    "learn": {**_SERIES, **_LEARNER},
    "kalman": {
        **_SERIES,
        **_LEARNER,
        "fraction": (float, REQUIRED),
        "r": (float, R_OBSERVED),
        "seed": (_json_int, 0),
    },
    "spectral": {**_NETWORK, "epsilons": (_json_list(float), REQUIRED)},
}


def _read_json(args):
    if not args.config:
        return {}
    with open(args.config) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {args.config} is not valid JSON: {exc}") from None
    return data


def _config(args) -> dict:
    """The fields of the command's config, with --seed over its seed."""
    fields = read_document(_read_json(args), _CONFIGS[args.command], f"{args.command} config")
    if args.seed is not None and "seed" in fields:
        fields["seed"] = int(args.seed)
    return fields


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_series(cfg: dict, network) -> SnapshotSeries:
    snapshots = read_states_csv(cfg["snapshots"], network)
    return SnapshotSeries(snapshots=tuple(snapshots), train_count=cfg["train_count"])


def _load_network_with_constants(cfg: dict):
    network, constants = load_network(cfg["network"])
    if constants is None:
        raise ValidationError("the network file declares no diffusion constants")
    return network, constants


def _done(path) -> None:
    print(f"wrote {path}")


def cmd_generate(args) -> int:
    cfg = _config(args)
    seed = cfg.pop("seed")
    network, series, truth = generate_synthetic(SyntheticSpec(**cfg), seed)
    net_path = _outpath(args, "network.json")
    save_network(net_path, network, truth.constants)
    _done(net_path)
    states_path = _outpath(args, "snapshots.csv")
    write_states_csv(states_path, series.snapshots, network.node_order)
    _done(states_path)
    truth_path = _outpath(args, "truth.json")
    write_json(
        truth_path,
        {
            "seed": truth.seed,
            "attempts": truth.attempts,
            "sigma_ratio": truth.sigma_ratio,
            "sigma_frobenius": float(np.linalg.norm(truth.sigma)),
            "train_count": series.train_count,
            "constants": constants_to_dict(truth.constants),
        },
    )
    _done(truth_path)
    return 0


def cmd_build(args) -> int:
    cfg = _config(args)
    network, constants = _load_network_with_constants(cfg)
    supra = assemble_supra_laplacian(network, constants)
    matrix_path = _outpath(args, "supra_laplacian.csv")
    write_matrix_csv(matrix_path, supra.matrix)
    _done(matrix_path)
    summary_path = _outpath(args, "build_summary.json")
    write_json(
        summary_path,
        {
            "n_nodes": supra.n_nodes,
            "n_layers": len(supra.layer_ids),
            "max_abs_row_sum": float(np.abs(supra.matrix.sum(axis=1)).max()),
            "symmetric": _is_symmetric(supra.matrix),
        },
    )
    _done(summary_path)
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
    sim_path = _outpath(args, "simulation.csv")
    write_simulation_csv(sim_path, paths, network.node_order)
    _done(sim_path)
    if len(paths) >= 2:
        mean, var = ensemble_statistics(paths)
        summary_path = _outpath(args, "ensemble_summary.csv")
        write_ensemble_summary_csv(summary_path, paths[0].times, mean, var, network.node_order)
        _done(summary_path)
    return 0


def cmd_predict(args) -> int:
    cfg = _config(args)
    network, constants = _load_network_with_constants(cfg)
    supra = assemble_supra_laplacian(network, constants)
    snapshots = read_states_csv(cfg["states"], network)
    predicted = propagate_closed(snapshots[-1], supra, cfg["delta_t"])
    out_path = _outpath(args, "prediction.csv")
    write_states_csv(out_path, [predicted], network.node_order)
    _done(out_path)
    return 0


def cmd_fit(args) -> int:
    cfg = _config(args)
    network, _ = load_network(cfg["network"])
    series = _load_series(cfg, network)
    fit = fit_diffusion_constants(series, network)
    report_path = _outpath(args, "fit_report.json")
    write_fit_report(report_path, fit)
    _done(report_path)
    return 0


def cmd_learn(args) -> int:
    cfg = _config(args)
    network, _ = load_network(cfg["network"])
    series = _load_series(cfg, network)
    fit = fit_diffusion_constants(series, network)
    op = learn_from_fit(
        series, network, fit, gain=cfg["gain"], threshold=cfg["eta"], max_iters=cfg["max_iters"]
    )
    op_path = _outpath(args, "operator.csv")
    write_matrix_csv(op_path, op.lambda_hat)
    _done(op_path)
    report_path = _outpath(args, "learn_report.json")
    write_json(
        report_path,
        {
            "iterations": op.iterations,
            "converged": op.converged,
            "gain": op.gain,
            "threshold": op.threshold,
            "initial_error": op.initial_error,
            "final_error": op.final_error,
        },
    )
    _done(report_path)
    return 0


def cmd_kalman(args) -> int:
    cfg = _config(args)
    network, _ = load_network(cfg["network"])
    series = _load_series(cfg, network)
    fraction = cfg["fraction"]
    if not 0 < fraction <= 1:
        raise ValidationError("fraction must lie in (0, 1]")
    masks = nested_masks(network.n_nodes, [fraction], cfg["seed"])
    fit = fit_diffusion_constants(series, network)
    op = learn_from_fit(
        series, network, fit, gain=cfg["gain"], threshold=cfg["eta"], max_iters=cfg["max_iters"]
    )
    result = filter_fractions(series, op, masks, cfg["r"])[fraction]
    trace_path = _outpath(args, "filter_trace.csv")
    write_filter_trace_csv(trace_path, result)
    _done(trace_path)
    mask_path = _outpath(args, "mask.csv")
    labels = [node_label(key) for key in network.node_order]
    write_mask_csv(mask_path, result.observed_nodes, labels)
    _done(mask_path)
    return 0


def cmd_spectral(args) -> int:
    cfg = _config(args)
    network, constants = _load_network_with_constants(cfg)
    points = connectivity_sweep(network, constants, cfg["epsilons"])
    sweep_path = _outpath(args, "lambda2_sweep.csv")
    write_sweep_csv(sweep_path, points)
    _done(sweep_path)
    line_chart(
        _outpath(args, "lambda2_sweep.svg"),
        [
            ("actual", [p.epsilon for p in points], [p.lambda2_actual for p in points]),
            ("estimate", [p.epsilon for p in points], [p.lambda2_estimate for p in points]),
        ],
        title="Algebraic connectivity vs. inter-layer strength",
        x_label="epsilon",
        y_label="lambda_2",
    )
    _done(_outpath(args, "lambda2_sweep.svg"))
    return 0


def cmd_experiment(args) -> int:
    config = experiment_config_from_dict(_read_json(args))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=int(args.seed))
    os.makedirs(args.out, exist_ok=True)
    result = run_experiment(config, out_dir=args.out)
    for name in config.methods:
        print(f"{name}: mean error {result.mean_errors[name]:.6g}")
    _done(os.path.join(args.out, "errors.csv"))
    _done(os.path.join(args.out, "summary.csv"))
    return 0


_COMMANDS = (
    ("generate", cmd_generate, "generate a synthetic dataset from a spec"),
    ("build", cmd_build, "assemble and dump the supra-Laplacian of a network file"),
    ("simulate", cmd_simulate, "simulate open-system paths from an initial state"),
    ("predict", cmd_predict, "closed-system prediction from the latest snapshot"),
    ("fit", cmd_fit, "fit diffusion constants and the noise scale to snapshots"),
    ("learn", cmd_learn, "learn the dense one-step operator from snapshots"),
    ("kalman", cmd_kalman, "run the partial-observation Kalman filter"),
    ("spectral", cmd_spectral, "sweep algebraic connectivity against its estimate"),
    ("experiment", cmd_experiment, "run a multi-method prediction experiment"),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON config document")
    common.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    common.add_argument("--out", default="out", help="output directory")
    parser = argparse.ArgumentParser(
        prog="supraflow",
        description="Topic-state diffusion over interconnected multilayer networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in _COMMANDS:
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
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
