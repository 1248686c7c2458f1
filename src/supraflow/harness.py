"""Experiment orchestration: metrics, method comparison, and parameter sweeps.

Experiments score one-step-ahead prediction over the test range of a snapshot
series, on the first agent layer's block of the state (the prediction target).
Four methods are compared:

* ``single_layer``    -- diffusion on the first agent layer alone, with its
  constant fitted on the training range;
* ``multilayer``      -- diffusion on the full interconnected operator with
  all constants fitted on the training range;
* ``learned_operator``-- the dense operator learned from the training pairs,
  initialized from the fitted multilayer operator;
* ``kalman:<f>``      -- sequential Kalman refinement of the learned operator
  observing the fraction f of nodes.

The relative-change series of the true states upper-bounds any reasonable
predictor (it is the error of predicting "no change").  Every run is a pure
function of (config, seed); CSV tables are the interface of record and SVG
charts are conveniences.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, _json_int, _json_list, _json_str, read_document
from .files import write_csv
from .calibration import (
    LEARN_MAX_ITERS,
    SnapshotSeries,
    fit_diffusion_constants,
    learn_from_fit,
    one_step_predict_learned,
)
from .diffusion import propagate_closed
from .kalman import R_OBSERVED, filter_fractions, nested_masks
from .network import (
    DiffusionConstants,
    InterconnectedNetwork,
    LayerKind,
    assemble_supra_laplacian,
    load_network,
    scale_inter_layer,
)
from .states import StateMatrix, read_states_csv
from .svgplot import line_chart
from .synthetic import SyntheticSpec, generate_synthetic, synthetic_spec_from_dict

METHOD_KINDS = ("single_layer", "multilayer", "learned_operator", "kalman")


def error_measure(x_hat, x_true) -> float:
    """Relative Frobenius prediction error against the ground truth."""
    a = x_hat.matrix if isinstance(x_hat, StateMatrix) else np.asarray(x_hat, float)
    b = x_true.matrix if isinstance(x_true, StateMatrix) else np.asarray(x_true, float)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch {a.shape} vs {b.shape}")
    den = float(np.linalg.norm(b))
    if den == 0:
        raise ValidationError("ground truth has zero norm")
    return float(np.linalg.norm(a - b) / den)


def upper_bound_series(snapshots: Sequence) -> np.ndarray:
    """Relative change between consecutive true states (``StateMatrix`` or
    arrays): the no-change error."""
    snaps = list(snapshots)
    if len(snaps) < 2:
        raise ValidationError("the upper bound needs at least 2 snapshots")
    return np.array([error_measure(a, b) for a, b in zip(snaps, snaps[1:])])


def parse_method(name: str) -> tuple[str, float | None]:
    if name.startswith("kalman:"):
        try:
            fraction = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"method {name!r} is malformed: {exc}") from None
        if not 0 < fraction <= 1:
            raise ValidationError(f"kalman fraction must lie in (0, 1], got {fraction}")
        return "kalman", fraction
    if name == "kalman":
        raise ValidationError("kalman method needs a fraction, e.g. 'kalman:0.25'")
    if name not in METHOD_KINDS:
        raise ValidationError(f"unknown method {name!r}")
    return name, None


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...]
    synthetic: SyntheticSpec | None = None
    network_file: str | None = None
    snapshots_file: str | None = None
    train_count: int | None = None
    seed: int = 0
    gain: float | None = None
    learn_threshold: float | None = None
    max_iters: int = LEARN_MAX_ITERS
    kalman_r: float = R_OBSERVED

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ValidationError("an experiment needs at least one method")
        for name in self.methods:
            parse_method(name)
        if self.synthetic is None and (self.network_file is None or self.snapshots_file is None):
            raise ValidationError("config needs either a synthetic spec or network+snapshot files")


#: The experiment config's table (see ``errors.read_document``).
_EXPERIMENT_FIELDS = {
    "methods": (_json_list(_json_str), ()),
    "synthetic": (synthetic_spec_from_dict, ExperimentConfig.synthetic),
    "network": (_json_str, ExperimentConfig.network_file),
    "snapshots": (_json_str, ExperimentConfig.snapshots_file),
    "train_count": (_json_int, ExperimentConfig.train_count),
    "seed": (_json_int, ExperimentConfig.seed),
    "gain": (float, ExperimentConfig.gain),
    "learn_threshold": (float, ExperimentConfig.learn_threshold),
    "max_iters": (_json_int, ExperimentConfig.max_iters),
    "kalman_r": (float, ExperimentConfig.kalman_r),
    "fit_max_sweeps": (None, None),
}


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    """Parse the JSON form of an experiment (see README for the schema)."""
    fields = read_document(data, _EXPERIMENT_FIELDS, "experiment config")
    return ExperimentConfig(
        network_file=fields.pop("network"), snapshots_file=fields.pop("snapshots"), **fields
    )


@dataclass
class ExperimentResult:
    times: np.ndarray
    upper_bound: np.ndarray
    curves: dict[str, np.ndarray]
    mean_errors: dict[str, float]
    improvements: dict[str, float]
    diagnostics: dict[str, object]


def _evaluation_layer(network: InterconnectedNetwork) -> int:
    for layer in network.layers:
        if layer.kind is LayerKind.AGENT:
            return layer.layer_id
    return network.layers[0].layer_id


def _single_layer_network(network: InterconnectedNetwork, layer_id: int) -> InterconnectedNetwork:
    return InterconnectedNetwork(
        layers=(network.layer(layer_id),), couplings=(), symmetric=network.symmetric
    )


def _block_series(
    series: SnapshotSeries, network: InterconnectedNetwork, layer_id: int
) -> tuple[InterconnectedNetwork, SnapshotSeries]:
    sub = _single_layer_network(network, layer_id)
    sl = network.layer_slices[layer_id]
    snaps = tuple(
        StateMatrix(matrix=s.matrix[sl], node_index=dict(sub.node_index), timestamp=s.timestamp)
        for s in series.snapshots
    )
    return sub, SnapshotSeries(snapshots=snaps, train_count=series.train_count)


def _pair_errors(predictions: Sequence[np.ndarray], targets: Sequence[np.ndarray]) -> np.ndarray:
    return np.array([error_measure(p, t) for p, t in zip(predictions, targets)])


def _propagate_pairs(starts: Sequence[np.ndarray], supra, dts: Sequence[float]) -> list:
    """e^{-L dt} X for each start state X and its dt: one exponential action
    per distinct dt, on the start states that share it side by side, so the
    action's fixed cost per sparse product is paid once per dt."""
    out: list = [None] * len(starts)
    for dt in dict.fromkeys(dts):
        same = [i for i, d in enumerate(dts) if d == dt]
        moved = propagate_closed(np.hstack([starts[i] for i in same]), supra, dt)
        for i, part in zip(same, np.split(moved, len(same), axis=1)):
            out[i] = part
    return out


def _load_inputs(config: ExperimentConfig):
    if config.synthetic is not None:
        network, series, truth = generate_synthetic(config.synthetic, config.seed)
    else:
        network, _ = load_network(config.network_file)
        snaps = read_states_csv(config.snapshots_file, network)
        series = SnapshotSeries(snapshots=tuple(snaps), train_count=config.train_count)
        truth = None
    if config.train_count is not None and series.train_count != config.train_count:
        series = SnapshotSeries(snapshots=series.snapshots, train_count=config.train_count)
    return network, series, truth


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run every configured method and collect per-step and time-averaged errors."""
    network, series, _ = _load_inputs(config)
    if len(series.train_snapshots()) < 2:
        raise ValidationError("experiments need at least 2 training snapshots")
    test_pairs = series.test_pairs()
    if not test_pairs:
        raise ValidationError("experiments need at least 1 test transition")

    layer_id = _evaluation_layer(network)
    block = network.layer_slices[layer_id]
    times = np.array([b.timestamp for _, b, _ in test_pairs])
    starts = [a.matrix for a, _, _ in test_pairs]
    dts = [dt for _, _, dt in test_pairs]
    block_targets = [b.matrix[block] for _, b, _ in test_pairs]
    bound = upper_bound_series([s.matrix[block] for s in series.test_snapshots()])

    parsed = [parse_method(name) for name in config.methods]
    kinds = {kind for kind, _ in parsed}
    fractions = [fraction for kind, fraction in parsed if kind == "kalman"]
    masks = nested_masks(network.n_nodes, fractions, config.seed)
    diagnostics: dict[str, object] = {}
    if kinds & {"multilayer", "learned_operator", "kalman"}:
        fit = diagnostics["multilayer_fit"] = fit_diffusion_constants(series, network)
    if kinds & {"learned_operator", "kalman"}:
        op = diagnostics["learned_operator"] = learn_from_fit(
            series, network, fit, config.gain, config.learn_threshold, config.max_iters
        )
    if masks:
        filtered = filter_fractions(series, op, masks, config.kalman_r)

    curves: dict[str, np.ndarray] = {}
    for name, (kind, fraction) in zip(config.methods, parsed):
        if kind == "single_layer":
            sub, sub_series = _block_series(series, network, layer_id)
            sub_fit = diagnostics["single_layer_fit"] = fit_diffusion_constants(sub_series, sub)
            supra = assemble_supra_laplacian(sub, sub_fit.constants)
            predictions = _propagate_pairs([x[block] for x in starts], supra, dts)
        elif kind == "multilayer":
            supra = assemble_supra_laplacian(network, fit.constants)
            predictions = [p[block] for p in _propagate_pairs(starts, supra, dts)]
        elif kind == "learned_operator":
            predictions = [p[block] for p in one_step_predict_learned(op, np.stack(starts))]
        else:
            diagnostics[name] = filtered[fraction]
            predictions = [p[block] for p in filtered[fraction].predictions]
        curves[name] = _pair_errors(predictions, block_targets)

    mean_errors = {name: float(c.mean()) for name, c in curves.items()}
    improvements: dict[str, float] = {}
    if "single_layer" in mean_errors and mean_errors["single_layer"] > 0:
        base = mean_errors["single_layer"]
        improvements = {
            name: float((base - err) / base)
            for name, err in mean_errors.items()
            if name != "single_layer"
        }

    result = ExperimentResult(
        times=times,
        upper_bound=bound,
        curves=curves,
        mean_errors=mean_errors,
        improvements=improvements,
        diagnostics=diagnostics,
    )
    if out_dir is not None:
        write_experiment_outputs(out_dir, config, result)
    return result


def write_experiment_outputs(out_dir, config: ExperimentConfig, result: ExperimentResult):
    os.makedirs(out_dir, exist_ok=True)
    errors_path = os.path.join(out_dir, "errors.csv")
    write_csv(
        errors_path,
        ["step", "t", "upper_bound"] + list(config.methods),
        (
            [i + 1, repr(float(t)), repr(float(result.upper_bound[i]))]
            + [repr(float(result.curves[m][i])) for m in config.methods]
            for i, t in enumerate(result.times)
        ),
    )
    rows = [["upper_bound", repr(float(result.upper_bound.mean())), ""]]
    for name in config.methods:
        improvement = result.improvements.get(name)
        rows.append(
            [name, repr(result.mean_errors[name]), "" if improvement is None else repr(improvement)]
        )
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["method", "mean_error", "improvement_vs_single_layer"],
        rows,
    )

    replot_errors_csv(errors_path, os.path.join(out_dir, "errors.svg"))


def replot_errors_csv(csv_path, svg_path):
    """Rebuild the error chart from an errors.csv table.

    Plotting from the re-read table (rather than in-memory arrays) keeps the
    CSV the interface of record: re-reading and re-plotting reproduces the
    SVG byte for byte.
    """
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [row for row in reader if row]
    if header[:3] != ["step", "t", "upper_bound"]:
        raise ValidationError(f"{csv_path} is not an experiment errors table")
    times = [float(row[1]) for row in rows]
    series = [
        (name, times, [float(row[col]) for row in rows])
        for col, name in enumerate(header[2:], start=2)
    ]
    line_chart(
        svg_path,
        series,
        title="Prediction error by method",
        x_label="time",
        y_label="relative error",
    )


# --- Parameter sweeps -------------------------------------------------------------


def coupling_strength_sweep(
    spec: SyntheticSpec, epsilons: Sequence[float], seed: int
) -> list[tuple[float, float, float]]:
    """Multilayer prediction error as the inter-layer coupling is rescaled.

    Data are planted at full coupling; the predictor scales the inter-layer
    part by each epsilon.  At epsilon 0 the multilayer predictor degenerates
    to independent layers and matches the single-layer error exactly.
    """
    network, series, truth = generate_synthetic(spec, seed)
    supra = assemble_supra_laplacian(network, truth.constants)
    layer_id = _evaluation_layer(network)
    block = network.layer_slices[layer_id]
    test_pairs = series.test_pairs()
    if not test_pairs:
        raise ValidationError("the coupling sweep needs at least 1 test transition")
    block_targets = [b.matrix[block] for _, b, _ in test_pairs]
    starts = [a.matrix for a, _, _ in test_pairs]
    dts = [dt for _, _, dt in test_pairs]

    sub = _single_layer_network(network, layer_id)
    sub_constants = DiffusionConstants(
        intra={layer_id: truth.constants.intra_for(layer_id)}, inter={}, symmetric=True
    )
    sub_supra = assemble_supra_laplacian(sub, sub_constants)
    single_error = float(
        _pair_errors(
            _propagate_pairs([x[block] for x in starts], sub_supra, dts),
            block_targets,
        ).mean()
    )

    rows = []
    for epsilon in epsilons:
        scaled = scale_inter_layer(supra, epsilon)
        predictions = [p[block] for p in _propagate_pairs(starts, scaled, dts)]
        rows.append(
            (float(epsilon), float(_pair_errors(predictions, block_targets).mean()), single_error)
        )
    return rows
