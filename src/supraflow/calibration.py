"""Fitting diffusion constants and learning the full diffusion operator.

Two calibration routes work from snapshot histories:

* ``fit_diffusion_constants`` minimizes the summed squared Frobenius mismatch
  between each snapshot and the closed-system propagation of its predecessor,
  over the (few) nonnegative intra/inter constants, by projected
  Levenberg-Marquardt.  The Brownian scale is then estimated from the per-pair
  residuals.
* ``learn_supra_operator`` learns a dense PT x PT operator for the vectorized
  one-step map x(t+1) ~ e^{A} x(t), starting from the Kronecker lift of the
  assembled supra-Laplacian and applying the rank-1 correction
  A <- A + gain * (x(t+1) - x_hat(t+1)) x(t)^T per training pair.  The learned
  operator is kept fully general, not projected back to Kronecker structure.
  The learner and its predictions need only e^{A} x, so e^{A} is applied to
  states (``exponential_action``) and formed only where that is cheaper: for a
  stiff operator or many states at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .diffusion import exponential_action, matrix_exponential, _state_array
from .files import atomic_write, write_json
from .network import (
    DiffusionConstants,
    InterconnectedNetwork,
    SupraLaplacian,
    assemble_supra_laplacian,
    constants_to_dict,
)
from .states import StateMatrix

#: Largest vectorized dimension (node count x topic count) for which the dense
#: learned operator and its exponential action stay tractable at desk scale.
MAX_LEARN_DIM = 4000
#: The learner's default cap on rank-1 updates.
LEARN_MAX_ITERS = 200

#: Every fitted constant lies in [0, D_MAX] and starts from D_START.
D_MAX = 10.0
D_START = 1.0
_MAX_STEPS = 100
_MAX_DAMPING = 1e10
_DIFF_STEP = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class SnapshotSeries:
    """Time-ordered state snapshots with a training/test split marker.

    The first ``train_count`` snapshots form the learning range; the test
    range starts at the last training snapshot, which serves as the known
    initial state for test-time prediction.
    """

    snapshots: tuple[StateMatrix, ...]
    train_count: int | None = None

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        object.__setattr__(self, "snapshots", snaps)
        if not snaps:
            raise ValidationError("a snapshot series needs at least one snapshot")
        shape = snaps[0].matrix.shape
        for a, b in zip(snaps, snaps[1:]):
            if b.timestamp <= a.timestamp:
                raise ValidationError("snapshot timestamps must be strictly increasing")
            if b.matrix.shape != shape:
                raise ValidationError("snapshots must share one P x T shape")
        count = len(snaps) if self.train_count is None else int(self.train_count)
        if not 1 <= count <= len(snaps):
            raise ValidationError(f"train_count {count} out of range for {len(snaps)} snapshots")
        object.__setattr__(self, "train_count", count)

    @property
    def n_nodes(self) -> int:
        return self.snapshots[0].n_nodes

    @property
    def n_topics(self) -> int:
        return self.snapshots[0].n_topics

    def train_snapshots(self) -> tuple[StateMatrix, ...]:
        return self.snapshots[: self.train_count]

    def test_snapshots(self) -> tuple[StateMatrix, ...]:
        return self.snapshots[self.train_count - 1 :]

    def train_pairs(self) -> list[tuple[StateMatrix, StateMatrix, float]]:
        return _pairs(self.train_snapshots())

    def test_pairs(self) -> list[tuple[StateMatrix, StateMatrix, float]]:
        return _pairs(self.test_snapshots())


def _pairs(snaps: Sequence[StateMatrix]):
    return [
        (a, b, b.timestamp - a.timestamp) for a, b in zip(snaps, snaps[1:])
    ]


def vectorize(x) -> np.ndarray:
    """Column-stack a P x T state matrix into a length-PT vector."""
    return _state_array(x).flatten(order="F")


def devectorize(v, n_nodes: int, n_topics: int) -> np.ndarray:
    """Inverse of ``vectorize``: restore the P x T matrix."""
    vec = np.asarray(v, dtype=float)
    if vec.size != n_nodes * n_topics:
        raise ValidationError(
            f"vector of length {vec.size} cannot form a {n_nodes} x {n_topics} matrix"
        )
    return vec.reshape((n_nodes, n_topics), order="F")


# --- Diffusion-constant fitting -------------------------------------------------


@dataclass
class DiffusionFit:
    """Result of a diffusion-constant fit."""

    constants: DiffusionConstants
    sigma: np.ndarray
    objective: float
    objective_trace: tuple[float, ...]
    sweeps: int
    converged: bool
    identifiable: bool


def _free_parameters(network: InterconnectedNetwork) -> list[tuple]:
    keys: list[tuple] = [("intra", layer.layer_id) for layer in network.layers]
    for coupling in network.couplings:
        pair = (coupling.from_layer, coupling.to_layer)
        if network.symmetric:
            pair = tuple(sorted(pair))
        key = ("inter", pair)
        if key not in keys:
            keys.append(key)
    return keys


def _constants_from_vector(keys: Sequence[tuple], values, symmetric: bool) -> DiffusionConstants:
    intra: dict[int, float] = {}
    inter: dict[tuple[int, int], float] = {}
    for key, value in zip(keys, values):
        if key[0] == "intra":
            intra[key[1]] = float(value)
        else:
            inter[key[1]] = float(value)
    return DiffusionConstants(intra=intra, inter=inter, symmetric=symmetric)


def fit_diffusion_constants(series: SnapshotSeries, network: InterconnectedNetwork) -> DiffusionFit:
    """Fit nonnegative diffusion constants to a training snapshot series.

    The residuals are x(t+1) - e^{-L dt} x(t) over the training pairs.  L(D) =
    sum_k D_k B_k is linear in the constants, so each basis operator B_k is
    assembled once.  Projected Levenberg-Marquardt (More 1978) starts every
    constant at D_START and takes forward-difference Jacobians.  Each step
    solves (J^T J + mu diag J^T J) delta = -J^T r over the constants that the
    gradient does not hold at a bound, clips to [0, D_MAX] and is accepted only
    when it lowers the objective, so ``objective_trace`` (the start, then one
    entry per accepted step) is non-increasing; ``sweeps`` counts accepted
    steps.  The fit converges on an exact fit, when a step lowers the objective
    by at most 1e-12 of itself, or when no step lowers it.  On a flat (zero)
    objective the start is returned and the fit is flagged non-identifiable.
    The Brownian scale entry (p, j) is estimated as the standard deviation over
    pairs of residual(p, j) / sqrt(dt).
    """
    pairs = series.train_pairs()
    if len(pairs) < 1:
        raise ValidationError("fitting needs at least 2 training snapshots")
    if series.n_nodes != network.n_nodes:
        raise ValidationError("series and network disagree on the node count")

    keys = _free_parameters(network)
    basis = [
        assemble_supra_laplacian(network, _constants_from_vector(keys, unit, network.symmetric)).matrix
        for unit in np.eye(len(keys))
    ]
    starts = np.stack([a.matrix for a, _, _ in pairs])
    ends = np.stack([b.matrix for _, b, _ in pairs])
    groups: dict[float, list[int]] = {}
    for i, (_, _, dt) in enumerate(pairs):
        groups.setdefault(round(dt, 12), []).append(i)

    def evaluate(values: np.ndarray) -> tuple[np.ndarray, float]:
        generator = sum(v * b for v, b in zip(values, basis))
        residuals = np.empty_like(ends)
        for dt, members in groups.items():
            residuals[members] = ends[members] - matrix_exponential(-generator * dt) @ starts[members]
        total = float(np.vdot(residuals, residuals))
        if not np.isfinite(total):
            raise NumericalError(
                f"diffusion-constant objective is non-finite at {dict(zip(keys, values))}"
            )
        return residuals, total

    values = np.full(len(keys), D_START)
    residuals, current = evaluate(values)
    scale = max(float(np.vdot(ends, ends)), 1.0)
    trace = [current]
    # A flat objective: the data are already reproduced at the start, so every
    # constant choice is equally good.
    identifiable = current > 1e-15 * scale
    converged = not identifiable
    mu = 1e-3
    while not converged and len(trace) <= _MAX_STEPS:
        columns = []
        for k in range(len(values)):
            shifted = values.copy()
            shifted[k] += _DIFF_STEP * max(values[k], 1.0)
            columns.append((evaluate(shifted)[0] - residuals).ravel() / (shifted[k] - values[k]))
        jac = np.column_stack(columns)
        grad = jac.T @ residuals.ravel()
        free = ~(((values <= 0.0) & (grad > 0)) | ((values >= D_MAX) & (grad < 0)))
        if not grad[free].any():
            converged = True
            break
        hess = (jac.T @ jac)[np.ix_(free, free)]
        # The floor keeps the system regular when a constant has no effect.
        damping = np.diag(np.maximum(np.diag(hess), 1e-12 * np.diag(hess).max()))
        while True:
            delta = np.zeros_like(values)
            delta[free] = np.linalg.solve(hess + mu * damping, -grad[free])
            trial = np.clip(values + delta, 0.0, D_MAX)
            trial_residuals, objective = evaluate(trial)
            # A trial within 1e-12 of the objective is rounding, not overshoot.
            if objective < current * (1 + 1e-12) or mu > _MAX_DAMPING:
                break
            mu *= 10.0
        # Converged also when no step lowers the objective: stationary to
        # working precision.
        converged = current - objective <= 1e-12 * current or objective <= 1e-18 * scale
        if objective < current:
            values, residuals, current = trial, trial_residuals, objective
            trace.append(current)
            mu /= 10.0

    scaled = residuals / np.sqrt([dt for _, _, dt in pairs])[:, None, None]
    if len(pairs) > 1:
        sigma = scaled.std(axis=0, ddof=1)
    else:
        # A single zero-mean observation: its magnitude is the scale estimate.
        sigma = np.abs(scaled[0])
    return DiffusionFit(
        constants=_constants_from_vector(keys, values, network.symmetric),
        sigma=sigma,
        objective=current,
        objective_trace=tuple(trace),
        sweeps=len(trace) - 1,
        converged=converged,
        identifiable=identifiable,
    )


# --- Operator learning -----------------------------------------------------------


@dataclass
class LearnedOperator:
    """Dense one-step operator learned on the vectorized state.

    ``lambda_hat`` is PT x PT; the one-step prediction is
    e^{lambda_hat} @ vectorize(X), computed as the exponential's action on the
    state; e^{lambda_hat} is not kept.  ``iteration_log`` records the pair
    error measured just before each rank-1 update (or the initial evaluation
    when the fit converges immediately); ``residual_variance`` holds
    per-coordinate variances of the final training residuals, used downstream
    as the default process-noise diagonal.
    """

    lambda_hat: np.ndarray
    gain: float
    threshold: float
    iteration_log: tuple[float, ...]
    n_nodes: int
    n_topics: int
    iterations: int
    converged: bool
    initial_error: float
    final_error: float
    residual_variance: np.ndarray


def kronecker_lift(supra: SupraLaplacian, n_topics: int) -> np.ndarray:
    """PT x PT generator acting like -L on every topic column of the state."""
    return np.kron(np.eye(int(n_topics)), -supra.matrix)


def learn_supra_operator(
    series: SnapshotSeries,
    init: SupraLaplacian,
    gain: float | None = None,
    threshold: float | None = None,
    max_iters: int = LEARN_MAX_ITERS,
) -> LearnedOperator:
    """Learn the dense one-step operator from training pairs by rank-1 updates.

    Starts from the Kronecker lift of ``init``.  Each iteration predicts one
    pair with the action of the current operator exponential and adds
    gain * outer(target - prediction, input).  The loop stops once every
    training pair's error norm falls below the threshold, or at ``max_iters``
    updates.  Defaults: gain = 1e-3 / mean squared input norm, threshold =
    1e-3 * mean input norm.
    """
    pairs = series.train_pairs()
    if not pairs:
        raise ValidationError("operator learning needs at least 2 training snapshots")
    n_nodes, n_topics = series.n_nodes, series.n_topics
    if init.n_nodes != n_nodes:
        raise ValidationError("initial operator and series disagree on the node count")
    dim = n_nodes * n_topics
    if dim > MAX_LEARN_DIM:
        raise ValidationError(
            f"vectorized dimension {dim} exceeds the dense learning cap {MAX_LEARN_DIM}"
        )

    inputs = [vectorize(a) for a, _, _ in pairs]
    targets = [vectorize(b) for _, b, _ in pairs]
    mean_sq = float(np.mean([v @ v for v in inputs]))
    if gain is None:
        gain = 1e-3 / max(mean_sq, 1e-12)
    gain = float(gain)
    if not gain >= 0:
        raise ValidationError("gain must be >= 0")
    if threshold is None:
        threshold = 1e-3 * float(np.mean([np.linalg.norm(v) for v in inputs]))
    threshold = float(threshold)

    lam = kronecker_lift(init, n_topics)
    stacked_inputs = np.column_stack(inputs)
    stacked_targets = np.column_stack(targets)

    log: list[float] = []
    iterations = 0
    converged = False
    initial_error = None
    try:
        while True:
            # Every exit below follows this evaluation, so its residuals are
            # also the final ones.
            residuals = stacked_targets - exponential_action(lam, stacked_inputs)
            errors = np.linalg.norm(residuals, axis=0)
            if initial_error is None:
                initial_error = float(errors.max())
            if errors.max() < threshold:
                converged = True
                if not log:
                    log.append(float(errors.max()))
                break
            if iterations >= max_iters:
                break
            for j, (x, t) in enumerate(zip(inputs, targets)):
                if j == 0:
                    # Lambda has not changed since the sweep's evaluation.
                    residual = residuals[:, 0]
                else:
                    residual = t - exponential_action(lam, x)
                log.append(float(np.linalg.norm(residual)))
                lam = lam + gain * np.outer(residual, x)
                iterations += 1
                if not np.isfinite(lam).all():
                    raise NumericalError("the operator has non-finite entries")
                if iterations >= max_iters:
                    break
    except NumericalError as exc:
        raise NumericalError(
            f"operator update diverged at iteration {iterations}; reduce the gain ({exc})"
        ) from None

    final_error = float(errors.max())
    ddof = 1 if len(pairs) > 1 else 0
    residual_variance = residuals.var(axis=1, ddof=ddof)
    return LearnedOperator(
        lambda_hat=lam,
        gain=gain,
        threshold=threshold,
        iteration_log=tuple(log),
        n_nodes=n_nodes,
        n_topics=n_topics,
        iterations=iterations,
        converged=converged,
        initial_error=initial_error,
        final_error=final_error,
        residual_variance=residual_variance,
    )


def learn_from_fit(
    series: SnapshotSeries,
    network: InterconnectedNetwork,
    fit: DiffusionFit,
    gain: float | None = None,
    threshold: float | None = None,
    max_iters: int = LEARN_MAX_ITERS,
) -> LearnedOperator:
    """Learn the operator starting from the fitted supra-Laplacian L(D_hat).

    Without a threshold the rank-1 updates stop at the noise floor,
    max(1e-3 * mean input norm, 1.5 |sigma_hat|_F sqrt(mean dt)), instead of
    chasing the Brownian innovations in the training pairs.
    """
    if threshold is None:
        pairs = series.train_pairs()
        mean_dt = float(np.mean([dt for _, _, dt in pairs]))
        noise_floor = 1.5 * float(np.linalg.norm(fit.sigma)) * np.sqrt(mean_dt)
        inputs_norm = float(np.mean([np.linalg.norm(a.matrix) for a, _, _ in pairs]))
        threshold = max(1e-3 * inputs_norm, noise_floor)
    supra = assemble_supra_laplacian(network, fit.constants)
    return learn_supra_operator(series, supra, gain, threshold, max_iters)


def one_step_predict_learned(op: LearnedOperator, x):
    """Predict the next snapshot: e^{lambda_hat} applied to the state.

    ``x`` may also be a k x P x T array of states, predicted in one call so
    that they share the cost of the exponential.
    """
    arr = _state_array(x)
    shape = (op.n_nodes, op.n_topics)
    if arr.ndim not in (2, 3) or arr.shape[-2:] != shape:
        raise ValidationError(
            f"state shape {arr.shape} does not match the learned operator "
            f"({op.n_nodes} x {op.n_topics})"
        )
    states = arr.reshape((-1,) + shape)
    moved = exponential_action(op.lambda_hat, np.column_stack([vectorize(s) for s in states]))
    predicted = np.stack([devectorize(v, *shape) for v in moved.T]).reshape(arr.shape)
    if isinstance(x, StateMatrix):
        return StateMatrix(matrix=predicted, node_index=dict(x.node_index), timestamp=x.timestamp + 1.0)
    return predicted


# --- Reports ---------------------------------------------------------------------


def write_fit_report(path, fit: DiffusionFit):
    report = {
        "constants": constants_to_dict(fit.constants),
        "sigma_summary": {
            "frobenius_norm": float(np.linalg.norm(fit.sigma)),
            "max": float(fit.sigma.max(initial=0.0)),
            "mean": float(fit.sigma.mean()) if fit.sigma.size else 0.0,
        },
        "objective": fit.objective,
        "objective_trace": list(fit.objective_trace),
        "iterations": fit.sweeps,
        "converged": fit.converged,
        "identifiable": fit.identifiable,
    }
    write_json(path, report)


def write_matrix_csv(path, matrix: np.ndarray):
    """Dense dump with a shape header line: `# rows=<n> cols=<n>`."""
    with atomic_write(path) as handle:
        rows, cols = matrix.shape
        handle.write(f"# rows={rows} cols={cols}\n")
        for row in matrix:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def read_operator_matrix(path) -> np.ndarray:
    """Read a ``write_matrix_csv`` dump, checking it against its shape header."""
    with open(path) as handle:
        header = re.fullmatch(r"# rows=(\d+) cols=(\d+)", handle.readline().strip())
        if header is None:
            raise ValidationError(f"operator file {path} is missing its shape header")
        rows, cols = int(header[1]), int(header[2])
        data = [
            [float(v) for v in line.split(",")] for line in handle if line.strip()
        ]
    if len(data) != rows or any(len(row) != cols for row in data):
        raise ValidationError(
            f"operator file {path} does not hold the {rows} x {cols} matrix its header declares"
        )
    return np.asarray(data, dtype=float).reshape(rows, cols)
