"""Fitting diffusion constants and learning the full diffusion operator.

Two calibration routes work from snapshot histories:

* ``fit_diffusion_constants`` minimizes the summed squared Frobenius mismatch
  between each snapshot and the closed-system propagation of its predecessor,
  over the (few) nonnegative intra/inter constants, by projected
  Levenberg-Marquardt.  The Brownian scale is then estimated from the per-pair
  residuals.
* ``learn_supra_operator`` learns a PT x PT operator lambda_hat for the
  vectorized one-step map x(t+1) ~ e^{lambda_hat} x(t), starting from
  kron(I_T, B) with B = -L for the assembled supra-Laplacian L and applying
  the rank-1 correction lambda_hat <- lambda_hat + gain * (x(t+1) -
  x_hat(t+1)) x(t)^T per training pair.  Every input x(t) is one of the m
  training inputs, the columns of X, so lambda_hat = kron(I_T, B) + G X^T
  exactly, where column j of G sums the scaled residuals of input j's
  updates: a correction of rank at most m, kept in that form and not
  projected back to Kronecker structure.  The learner and its predictions
  need only e^{lambda_hat} x, which ``diffusion._exp_action``, the package's
  one exponential action, applies through the parts, G zero or not; its cost
  rule alone decides where lambda_hat is formed densely.  With G = 0, as
  before the first update, lambda_hat is kron(I_T, -L) and its action is the
  closed propagator e^{-L} of ``propagate_closed`` on every topic.  Only the
  Kalman filter splits the work by topic while G is all zero (see ``kalman``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .errors import NumericalError, ValidationError
from .diffusion import _dense, _exp_action, _state_array, exponential_action
from .files import csv_floats, read_csv, write_csv, write_json
from .network import (
    DiffusionConstants,
    InterconnectedNetwork,
    SupraLaplacian,
    _is_symmetric,
    assemble_supra_laplacian,
    constants_to_dict,
)
from .states import StateMatrix

#: The learner's default cap on rank-1 updates.
LEARN_MAX_ITERS = 200

#: Every fitted constant lies in [0, D_MAX] and starts from at most D_START.
D_MAX = 10.0
D_START = 1.0
START_NORM = 50.0
_MAX_STEPS = 100
_MAX_DAMPING = 1e10


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
    evaluations: int
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


class _Residuals:
    """Residuals x(t+1) - e^{-L(D) dt} x(t) over training pairs, and their
    exact Jacobian in the constants D.

    L(D) = sum_k D_k B_k is linear in the constants, so each basis operator
    B_k is assembled once, and the Jacobian column of D_k is minus the Frechet
    derivative of the exponential at -L dt in direction -B_k dt (Higham 2008,
    Functions of Matrices, section 3.2) applied to x(t).  When every B_k is
    symmetric, an evaluation takes one eigendecomposition L = V diag(lam) V^T,
    and the Jacobian at that point reuses it through the Daleckii-Krein
    formula V (Gamma o V^T B_k V) V^T x(t).  Otherwise an evaluation takes one
    ``exponential_action`` of -L dt per distinct dt, and the Jacobian one per
    nonzero B_k and dt: the top block of e^M [0; x(t)] / s for M = [[-L dt,
    -s B_k dt], [0, -L dt]], s = ||L||_1 / ||B_k||_1 (or 1 for a zero L).
    """

    def __init__(self, pairs, network: InterconnectedNetwork):
        self.keys = keys = _free_parameters(network)
        self.basis = []  # B_k in CSR
        # B_k touches only the nodes of its own layers, so V^T B_k V needs
        # only those rows of V: (support rows, those rows of B_k).
        self.supports = []
        self.symmetric = True
        for unit in np.eye(len(keys)):
            b = assemble_supra_laplacian(
                network, _constants_from_vector(keys, unit, network.symmetric)
            ).csr
            self.symmetric &= _is_symmetric(b)
            rows = np.flatnonzero(np.diff(b.indptr))
            self.basis.append(b)
            self.supports.append((rows, b[rows]))
        self.norms = [float(abs(b).sum(axis=0).max(initial=0.0)) for b in self.basis]  # ||B_k||_1
        self.start = np.array([min(D_START, START_NORM / n) if n else D_START for n in self.norms])
        self.ends = np.stack([b.matrix for _, b, _ in pairs])
        members_of: dict[float, list[int]] = {}
        for i, (_, _, dt) in enumerate(pairs):
            members_of.setdefault(round(dt, 12), []).append(i)
        # Per distinct dt: its pairs and their start states side by side, one
        # n x (pairs T) block, so that each product with it is one matrix product.
        self.groups = [
            (dt, members, np.hstack([pairs[i][0].matrix for i in members]))
            for dt, members in members_of.items()
        ]

    def _unstack(self, blocks: list[np.ndarray]) -> np.ndarray:
        """One n x (pairs T) block per group back to a pairs x n x T array."""
        out = np.empty_like(self.ends)
        for (_, members, _), block in zip(self.groups, blocks):
            out[members] = block.reshape(block.shape[0], len(members), -1).transpose(1, 0, 2)
        return out

    def evaluate(self, values: np.ndarray) -> tuple[np.ndarray, float, tuple]:
        """Residuals and objective at ``values``, and what the Jacobian there reuses."""
        generator = sum(value * b for value, b in zip(values, self.basis))  # L(D) in CSR
        if self.symmetric:
            eigvals, eigvecs = np.linalg.eigh(generator.toarray())
            projected = [eigvecs.T @ block for _, _, block in self.groups]
            moved = [
                eigvecs @ (np.exp(-eigvals * dt)[:, None] * y)
                for (dt, _, _), y in zip(self.groups, projected)
            ]
            point = (eigvals, eigvecs, projected)
        else:
            moved = [exponential_action(-dt * generator, block) for dt, _, block in self.groups]
            point = (generator,)
        residuals = self.ends - self._unstack(moved)
        total = float(np.vdot(residuals, residuals))
        if not np.isfinite(total):
            raise NumericalError(
                f"diffusion-constant objective is non-finite at {dict(zip(self.keys, values))}"
            )
        return residuals, total, point

    def jacobian(self, point: tuple) -> np.ndarray:
        """d residuals / d D_k at an evaluated point, one column per constant."""
        if self.symmetric:
            eigvals, eigvecs, projected = point
            gammas = []
            for dt, _, _ in self.groups:
                # Divided differences of e^{-lam dt}, written so that close
                # eigenvalues neither cancel nor overflow:
                # -dt e^{-min(lam_i, lam_j) dt} phi(|lam_i - lam_j| dt), with
                # phi(w) = (1 - e^{-w}) / w and phi(0) = 1.
                decay = np.exp(-eigvals * dt)
                gap = np.abs(eigvals[:, None] - eigvals[None, :]) * dt
                phi = np.divide(-np.expm1(-gap), gap, out=np.ones_like(gap), where=gap > 0)
                gammas.append(-dt * np.maximum.outer(decay, decay) * phi)
            columns = []
            for rows, b_rows in self.supports:
                rotated = eigvecs[rows].T @ (b_rows @ eigvecs)
                moved = [eigvecs @ ((g * rotated) @ y) for g, y in zip(gammas, projected)]
                columns.append(self._unstack(moved))
        else:
            (generator,) = point
            scale = float(abs(generator).sum(axis=0).max(initial=0.0))
            steps = [(-dt * generator, dt, np.vstack([0 * x, x])) for dt, _, x in self.groups]
            # A zero B_k keeps its zero column.
            columns = np.zeros((len(self.basis),) + self.ends.shape)
            for k in np.flatnonzero(self.norms):
                b, s = self.basis[k], (scale or self.norms[k]) / self.norms[k]
                moved = []
                for a, dt, lifted in steps:
                    m = scipy.sparse.block_array([[a, (-dt * s) * b], [None, a]], format="csr")
                    moved.append(exponential_action(m, lifted)[: len(lifted) // 2] / s)
                columns[k] = self._unstack(moved)
        return -np.stack(columns).reshape(len(columns), -1).T


def fit_diffusion_constants(series: SnapshotSeries, network: InterconnectedNetwork) -> DiffusionFit:
    """Fit nonnegative diffusion constants to a training snapshot series.

    The residuals are x(t+1) - e^{-L dt} x(t) over the training pairs, with
    exact Jacobians: for a symmetric L, one eigendecomposition per objective
    evaluation serves both the residuals and the Jacobian there; otherwise
    exponential actions do (see ``_Residuals``).  Projected
    Levenberg-Marquardt (More 1978) starts constant k at min(D_START,
    START_NORM / ||B_k||_1), or D_START for a zero B_k, so that no term of the
    start operator has 1-norm above START_NORM = 50, about a fitted
    operator's; at D_START heavy weights (the kNN layer's) make it up to a
    hundred times stiffer.  Each step solves (J^T J + mu diag J^T J) delta =
    -J^T r over the constants that the gradient does not hold at a bound,
    clips to [0, D_MAX] and is accepted only when it lowers the objective, so
    ``objective_trace`` (the start, then one entry per accepted step) is
    non-increasing; ``sweeps`` counts accepted steps and ``evaluations`` every
    objective evaluation.  The fit converges on an exact fit, when a step
    lowers the objective by at most 1e-12 of itself, or when no step lowers
    it.  On a flat (zero) objective the start is returned and the fit is
    flagged non-identifiable.  The Brownian scale entry (p, j) is estimated as
    the standard deviation over pairs of residual(p, j) / sqrt(dt).
    """
    pairs = series.train_pairs()
    if len(pairs) < 1:
        raise ValidationError("fitting needs at least 2 training snapshots")
    if series.n_nodes != network.n_nodes:
        raise ValidationError("series and network disagree on the node count")

    problem = _Residuals(pairs, network)
    values = problem.start
    residuals, current, point = problem.evaluate(values)
    evaluations = 1
    scale = max(float(np.vdot(problem.ends, problem.ends)), 1.0)
    trace = [current]
    # A flat objective: the data are already reproduced at the start, so every
    # constant choice is equally good.
    identifiable = current > 1e-15 * scale
    converged = not identifiable
    mu = 1e-3
    while not converged and len(trace) <= _MAX_STEPS:
        jac = problem.jacobian(point)
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
            trial_residuals, objective, trial_point = problem.evaluate(trial)
            evaluations += 1
            # A trial within 1e-12 of the objective is rounding, not overshoot.
            if objective < current * (1 + 1e-12) or mu > _MAX_DAMPING:
                break
            mu *= 10.0
        # Converged also when no step lowers the objective: stationary to
        # working precision.
        converged = current - objective <= 1e-12 * current or objective <= 1e-18 * scale
        if objective < current:
            values, residuals, current, point = trial, trial_residuals, objective, trial_point
            trace.append(current)
            mu /= 10.0

    scaled = residuals / np.sqrt([dt for _, _, dt in pairs])[:, None, None]
    if len(pairs) > 1:
        sigma = scaled.std(axis=0, ddof=1)
    else:
        # A single zero-mean observation: its magnitude is the scale estimate.
        sigma = np.abs(scaled[0])
    return DiffusionFit(
        constants=_constants_from_vector(problem.keys, values, network.symmetric),
        sigma=sigma,
        objective=current,
        objective_trace=tuple(trace),
        sweeps=len(trace) - 1,
        evaluations=evaluations,
        converged=converged,
        identifiable=identifiable,
    )


# --- Operator learning -----------------------------------------------------------


@dataclass
class LearnedOperator:
    """One-step operator learned on the vectorized state, held in parts.

    lambda_hat = kron(I_T, B) + G X^T, with ``block`` B = -L_hat the P x P
    CSR generator of the fitted supra-Laplacian, ``inputs`` X the PT x m
    training inputs side by side and ``corrections`` G the PT x m sums, per
    input, of gain times the residual of each update made on it.  The
    one-step prediction is e^{lambda_hat} @ vectorize(X), applied through the
    parts by ``diffusion._exp_action`` whatever G; while G is all zero
    (``per_topic``) that is the closed propagator e^{B} on every topic, and
    the Kalman filter runs per topic through e^{B}.  ``lambda_hat`` forms the
    dense PT x PT array on each access and is never kept.  ``iteration_log``
    records the pair error measured just before each rank-1 update (or the
    initial evaluation when the fit converges immediately);
    ``residual_variance`` holds per-coordinate variances of the final
    training residuals, used downstream as the default process-noise
    diagonal.
    """

    block: scipy.sparse.csr_array
    inputs: np.ndarray
    corrections: np.ndarray
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

    @property
    def per_topic(self) -> bool:
        """Whether lambda_hat is kron(I_T, B): G is all zero."""
        return not self.corrections.any()

    @property
    def lambda_hat(self) -> np.ndarray:
        """The dense PT x PT operator, formed anew on each access."""
        return _dense(self.block, self.inputs, self.corrections)


def check_learner_settings(gain: float | None, threshold: float | None, max_iters: int) -> None:
    """Reject a negative or non-finite gain or threshold, or a negative
    ``max_iters``, as a ValidationError; zero is valid for each, and None
    stands for the default that the learner derives from the data."""
    for name, value in (("gain", gain), ("threshold", threshold)):
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise ValidationError(
                f"the learner's {name} must be finite and >= 0, got {float(value)}"
            )
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters}")


def learn_supra_operator(
    series: SnapshotSeries,
    init: SupraLaplacian,
    gain: float | None = None,
    threshold: float | None = None,
    max_iters: int = LEARN_MAX_ITERS,
) -> LearnedOperator:
    """Learn the one-step operator from training pairs by rank-1 updates.

    Starts from kron(I_T, -L) for ``init``'s L.  Each iteration predicts one
    pair with the action of the current operator exponential and adds
    gain * outer(target - prediction, input), held as gain * residual added
    to the input's column of G.  The loop stops once every training pair's
    error norm falls below the threshold, or at ``max_iters`` updates.
    Defaults: gain = 1e-3 / mean squared input norm, threshold = 1e-3 * mean
    input norm.  The settings are checked by ``check_learner_settings``.  No
    PT x PT array is formed unless an action's cost rule takes the dense
    exponential.
    """
    pairs = series.train_pairs()
    if not pairs:
        raise ValidationError("operator learning needs at least 2 training snapshots")
    n_nodes, n_topics = series.n_nodes, series.n_topics
    if init.n_nodes != n_nodes:
        raise ValidationError("initial operator and series disagree on the node count")

    columns = [vectorize(a) for a, _, _ in pairs]
    if gain is None:
        gain = 1e-3 / max(float(np.mean([v @ v for v in columns])), 1e-12)
    if threshold is None:
        threshold = 1e-3 * float(np.mean([np.linalg.norm(v) for v in columns]))
    gain, threshold = float(gain), float(threshold)
    check_learner_settings(gain, threshold, max_iters)

    block = -init.csr
    inputs = np.column_stack(columns)
    targets = np.column_stack([vectorize(b) for _, b, _ in pairs])
    corrections = np.zeros_like(inputs)

    log: list[float] = []
    iterations = 0
    converged = False
    initial_error = None
    try:
        while True:
            # Every exit below follows this evaluation, so its residuals are
            # also the final ones.
            residuals = targets - _exp_action(block, inputs, corrections, inputs)
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
            for j in range(len(pairs)):
                if j == 0:
                    # Lambda has not changed since the sweep's evaluation.
                    residual = residuals[:, 0]
                else:
                    moved = _exp_action(block, inputs, corrections, inputs[:, j : j + 1])
                    residual = targets[:, j] - moved[:, 0]
                log.append(float(np.linalg.norm(residual)))
                corrections[:, j] += gain * residual
                iterations += 1
                if not np.isfinite(corrections[:, j]).all():
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
        block=block,
        inputs=inputs,
        corrections=corrections,
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
    that they share the cost of the action (see ``LearnedOperator``).  The
    result is an array of ``x``'s shape; a ``StateMatrix`` is predicted from
    its matrix, as a P x T array.
    """
    arr = _state_array(x)
    shape = (op.n_nodes, op.n_topics)
    if arr.ndim not in (2, 3) or arr.shape[-2:] != shape:
        raise ValidationError(
            f"state shape {arr.shape} does not match the learned operator "
            f"({op.n_nodes} x {op.n_topics})"
        )
    states = arr.reshape((-1,) + shape)
    vectors = np.column_stack([vectorize(s) for s in states])
    moved = _exp_action(op.block, op.inputs, op.corrections, vectors)
    return np.stack([devectorize(v, *shape) for v in moved.T]).reshape(arr.shape)


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


def write_matrix_csv(path, shape: tuple[int, int], blocks):
    """Dense dump of a ``shape`` matrix under a one-field shape header row,
    `# rows=<n> cols=<n>`, from ``blocks``, its rows as consecutive 2-D
    arrays, so that the whole matrix need never be formed."""
    write_csv(
        path,
        [f"# rows={shape[0]} cols={shape[1]}"],
        (row.tolist() for rows in blocks for row in rows),
    )


def read_operator_matrix(path) -> np.ndarray:
    """Read a ``write_matrix_csv`` dump, checking it against its shape header."""
    first, data = read_csv(path, "operator file")
    header = len(first) == 1 and re.fullmatch(r"# rows=(\d+) cols=(\d+)", first[0].strip())
    if not header:
        raise ValidationError(f"operator file {path} is missing its shape header")
    rows, cols = int(header[1]), int(header[2])
    lines, _, matrix = csv_floats(path, data, cols)
    if len(lines) != rows:
        raise ValidationError(
            f"operator file {path} does not hold the {rows} x {cols} matrix its header declares"
        )
    return matrix
