"""Experiment orchestration: metrics, method comparison, and parameter sweeps.

Experiments score one-step-ahead prediction over the test range of a snapshot
series, on the first agent layer's block of the state (the prediction target).
Four methods are compared:

* ``single_layer``    -- diffusion on the first agent layer alone, with its
  constant fitted on the training range;
* ``multilayer``      -- diffusion on the full interconnected operator with
  all constants fitted on the training range;
* ``learned_operator``-- the operator learned from the training pairs,
  initialized from the fitted multilayer operator;
* ``kalman:<f>``      -- sequential Kalman refinement of the learned operator
  observing the fraction f of nodes.

The relative-change series of the true states upper-bounds any reasonable
predictor (it is the error of predicting "no change").  Every run is a pure
function of (config, seed); CSV tables are the interface of record and SVG
charts are conveniences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .files import csv_floats, read_csv, write_csv
from .calibration import (
    LEARN_MAX_ITERS,
    SnapshotSeries,
    check_learner_settings,
    fit_diffusion_constants,
    learn_from_fit,
    one_step_predict_learned,
)
from .diffusion import propagate_closed
from .kalman import R_OBSERVED, check_observation_noise, filter_fractions, nested_masks
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
from .synthetic import SyntheticSpec, generate_synthetic

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
    network: str | None = None
    snapshots: str | None = None
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
        parsed = [parse_method(name) for name in self.methods]
        for i, name in enumerate(self.methods):
            if parsed[i] in parsed[:i]:
                raise ValidationError(f"method {name!r} is given twice")
        files = (self.network, self.snapshots)
        if self.synthetic is not None and files != (None, None):
            raise ValidationError(
                "config gives both 'synthetic' and 'network'/'snapshots'; give one of them"
            )
        if self.synthetic is None and None in files:
            raise ValidationError("config needs either a synthetic spec or network+snapshot files")
        check_learner_settings(self.gain, self.learn_threshold, self.max_iters)
        check_observation_noise(self.kalman_r)


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
    """The network and snapshot series: generated, split at the experiment's
    train_count if it gives one, or read from the files."""
    if config.synthetic is None:
        network, _ = load_network(config.network)
        snaps = read_states_csv(config.snapshots, network)
        return network, SnapshotSeries(snapshots=tuple(snaps), train_count=config.train_count)
    spec = config.synthetic
    if config.train_count is not None:
        spec = replace(spec, train_count=config.train_count)
    network, series, _ = generate_synthetic(spec, config.seed)
    return network, series


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured method and collect per-step and time-averaged errors."""
    network, series = _load_inputs(config)
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

    return ExperimentResult(
        times=times,
        upper_bound=bound,
        curves=curves,
        mean_errors=mean_errors,
        improvements=improvements,
        diagnostics=diagnostics,
    )


def write_errors_csv(path, methods: Sequence[str], result: ExperimentResult):
    """Each test step's time, no-change bound and error of each method."""
    columns = [result.times, result.upper_bound] + [result.curves[m] for m in methods]
    write_csv(
        path,
        ["step", "t", "upper_bound"] + list(methods),
        ([step, *values] for step, values in enumerate(np.column_stack(columns).tolist(), start=1)),
    )


def write_summary_csv(path, methods: Sequence[str], result: ExperimentResult):
    """Each method's mean error and its improvement over ``single_layer``."""
    rows = [["upper_bound", float(result.upper_bound.mean()), ""]]
    for name in methods:
        improvement = result.improvements.get(name)
        improvement = "" if improvement is None else float(improvement)
        rows.append([name, float(result.mean_errors[name]), improvement])
    write_csv(path, ["method", "mean_error", "improvement_vs_single_layer"], rows)


def replot_errors_csv(svg_path, csv_path):
    """Plot the error chart at ``svg_path`` from an errors.csv table.

    Plotting from the re-read table (rather than in-memory arrays) keeps the
    CSV the interface of record: re-reading and re-plotting reproduces the
    SVG byte for byte.
    """
    header, rows = read_csv(csv_path, "errors table")
    if header[:3] != ["step", "t", "upper_bound"]:
        raise ValidationError(f"{csv_path} is not an experiment errors table")
    _, _, numbers = csv_floats(csv_path, rows, len(header))
    times = numbers[:, 1].tolist()
    series = [
        (name, times, numbers[:, col].tolist()) for col, name in enumerate(header[2:], start=2)
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
