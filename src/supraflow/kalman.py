"""Discrete Kalman refinement of state predictions under partial observation.

The vectorized state x (length PT) evolves as x(t+1) = F x(t) + w, with
F = I + A for the learned generator A unless the caller passes another
transition such as e^{A}, and is observed through y = H x + v where H is a
diagonal 0/1 indicator replicated across topic blocks.  The filter alternates:

    update:   R_e = R + H Pi H^T
              x <- x + Pi H^T R_e^+ (y - H x)
              Pi <- Pi - Pi H^T R_e^+ H Pi
    predict:  x <- F x
              Pi <- F Pi F^T + Q

Pi H^T is zero outside the observed coordinates o, so the update only needs
the m x m observed block of R_e: with K = Pi[:, o] (R_oo + Pi_oo)^+ it reads
x <- x + K (y_o - x_o) and Pi <- Pi - K Pi[o, :].  A pseudo-inverse of that
block replaces the plain inverse because it can be singular (zero observation
noise on a zero covariance); covariances are re-symmetrized every step.  F is
built once per filter, in ``initial_state`` or by the caller of ``run_filter``,
and carried in the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .calibration import LearnedOperator, SnapshotSeries, devectorize, vectorize
from .diffusion import matrix_exponential
from .files import write_csv

PHASE_PREDICTED = "predicted"
PHASE_UPDATED = "updated"
#: The default observation noise variance of an observed coordinate.
R_OBSERVED = 1e-6


@dataclass(frozen=True)
class ObservationModel:
    """Observed node set plus diagonal observation/process noise covariances."""

    n_nodes: int
    n_topics: int
    observed_nodes: tuple[int, ...]
    r_diag: np.ndarray
    q_diag: np.ndarray

    def __post_init__(self):
        observed = tuple(sorted(int(i) for i in self.observed_nodes))
        object.__setattr__(self, "observed_nodes", observed)
        if len(set(observed)) != len(observed):
            raise ValidationError("observed node indices must be unique")
        if observed and not (0 <= observed[0] and observed[-1] < self.n_nodes):
            raise ValidationError("observed node index out of range")
        dim = self.n_nodes * self.n_topics
        for name in ("r_diag", "q_diag"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.shape != (dim,):
                raise ValidationError(f"{name} must have length {dim}")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValidationError(f"{name} entries must be finite and >= 0")

    @property
    def dim(self) -> int:
        return self.n_nodes * self.n_topics

    def node_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes)
        mask[list(self.observed_nodes)] = 1.0
        return mask

    def h_diag(self) -> np.ndarray:
        """Diagonal of the PT x PT indicator (column-stacked coordinate order)."""
        return np.tile(self.node_mask(), self.n_topics)

    @classmethod
    def build(
        cls,
        n_nodes: int,
        n_topics: int,
        observed_nodes: Sequence[int],
        r_observed: float = R_OBSERVED,
        q_diag=None,
    ) -> "ObservationModel":
        dim = n_nodes * n_topics
        mask = np.zeros(n_nodes)
        mask[list(observed_nodes)] = 1.0
        r = np.tile(mask, n_topics) * float(r_observed)
        q = np.zeros(dim) if q_diag is None else np.asarray(q_diag, dtype=float)
        return cls(
            n_nodes=n_nodes,
            n_topics=n_topics,
            observed_nodes=tuple(int(i) for i in observed_nodes),
            r_diag=r,
            q_diag=q,
        )


@dataclass(frozen=True)
class KalmanState:
    """Filter state: estimate, covariance, phase, and the transition matrix."""

    x_hat: np.ndarray
    pi: np.ndarray
    phase: str
    f_hat: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_hat, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        f = np.asarray(self.f_hat, dtype=float)
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "f_hat", f)
        if self.phase not in (PHASE_PREDICTED, PHASE_UPDATED):
            raise ValidationError(f"unknown filter phase {self.phase!r}")
        if pi.shape != (x.size, x.size):
            raise ValidationError("covariance shape does not match the state length")
        if f.shape != pi.shape:
            raise ValidationError("transition shape does not match the state length")


def transition_matrix(op: LearnedOperator) -> np.ndarray:
    """First-order discretization of the learned generator: F = I + A."""
    f = np.eye(op.lambda_hat.shape[0]) + op.lambda_hat
    if not np.isfinite(f).all():
        raise NumericalError("transition matrix is non-finite")
    return f


def initial_state(x0: np.ndarray, pi0, op: LearnedOperator, transition=None) -> KalmanState:
    """The filter's start; F is ``transition`` if given, else I + A."""
    x0 = np.asarray(x0, dtype=float)
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.ndim == 0:
        pi0 = float(pi0) * np.eye(x0.size)
    f_hat = transition_matrix(op) if transition is None else transition
    return KalmanState(x_hat=x0, pi=pi0, phase=PHASE_UPDATED, f_hat=f_hat)


def _symmetrized(pi: np.ndarray) -> np.ndarray:
    return 0.5 * (pi + pi.T)


def kalman_update(state: KalmanState, y: np.ndarray, model: ObservationModel) -> KalmanState:
    """Blend the prediction with an observation of the masked coordinates."""
    if state.phase != PHASE_PREDICTED:
        raise ValidationError("kalman_update expects a state in the 'predicted' phase")
    y = np.asarray(y, dtype=float)
    if y.shape != state.x_hat.shape:
        raise ValidationError("observation length does not match the state")
    if not np.isfinite(y).all():
        raise ValidationError("observation contains non-finite entries")
    h = model.h_diag()
    if h.size != state.x_hat.size:
        raise ValidationError("observation model size does not match the state")
    obs = np.flatnonzero(h)
    if obs.size == 0:
        return KalmanState(x_hat=state.x_hat, pi=state.pi, phase=PHASE_UPDATED, f_hat=state.f_hat)
    pi = state.pi
    # R_e is block-diagonal over (observed, unobserved) and Pi H^T has zero
    # unobserved columns, so only the observed block of R_e^+ contributes.
    pi_rows = pi[obs, :]
    r_e = np.diag(model.r_diag[obs]) + pi_rows[:, obs]
    gain = pi[:, obs] @ np.linalg.pinv(r_e, hermitian=True)
    x_post = state.x_hat + gain @ (y[obs] - state.x_hat[obs])
    pi_post = _symmetrized(pi - gain @ pi_rows)
    return KalmanState(x_hat=x_post, pi=pi_post, phase=PHASE_UPDATED, f_hat=state.f_hat)


def kalman_predict(state: KalmanState, op: LearnedOperator, model: ObservationModel) -> KalmanState:
    """Advance the updated estimate one step through F = I + A.

    F is the state's ``f_hat``, built from ``op`` once by ``initial_state``.
    """
    if state.phase != PHASE_UPDATED:
        raise ValidationError("kalman_predict expects a state in the 'updated' phase")
    f = state.f_hat
    x_next = f @ state.x_hat
    pi_next = _symmetrized(f @ state.pi @ f.T + np.diag(model.q_diag))
    return KalmanState(x_hat=x_next, pi=pi_next, phase=PHASE_PREDICTED, f_hat=f)


@dataclass
class FilterResult:
    """Per-step filter output over a test range.

    ``errors_all`` is the relative Frobenius error of each pre-observation
    prediction against the full true state; the observed/hidden columns
    restrict the same measure to the corresponding coordinates.
    """

    steps: np.ndarray
    times: np.ndarray
    errors_all: np.ndarray
    errors_observed: np.ndarray
    errors_hidden: np.ndarray
    trace_pi: np.ndarray
    predictions: tuple[np.ndarray, ...]
    final_state: KalmanState
    observed_nodes: tuple[int, ...]


def _masked_relative_error(x_hat: np.ndarray, x_true: np.ndarray, mask: np.ndarray) -> float:
    if not mask.any():
        return float("nan")
    num = np.linalg.norm((x_hat - x_true) * mask)
    den = np.linalg.norm(x_true * mask)
    if den == 0:
        return 0.0 if num == 0 else float("inf")
    return float(num / den)


def run_filter(
    series: SnapshotSeries,
    op: LearnedOperator,
    model: ObservationModel,
    pi0=None,
    transition=None,
) -> FilterResult:
    """Filter the test range, feeding observed coordinates of the true states.

    The last training snapshot initializes the estimate.  Each test step is
    scored on its prediction, before that step's observation is folded in; by
    default the initial covariance is the identity scaled by the empirical
    state variance.  ``transition`` replaces F = I + A, e.g. by e^{A}, the
    learned operator's own one-step map.
    """
    test = series.test_snapshots()
    if len(test) < 2:
        raise ValidationError("the test range needs at least 2 snapshots")
    if model.n_nodes != series.n_nodes or model.n_topics != series.n_topics:
        raise ValidationError("observation model does not match the series shape")
    if pi0 is None:
        pi0 = float(np.var(np.stack([s.matrix for s in test])))
    state = initial_state(vectorize(test[0]), pi0, op, transition)
    h = model.h_diag()
    steps, times = [], []
    err_all, err_obs, err_hid, traces = [], [], [], []
    predictions = []
    for step, snap in enumerate(test[1:], start=1):
        state = kalman_predict(state, op, model)
        truth = vectorize(snap)
        den = np.linalg.norm(truth)
        if den == 0:
            raise ValidationError(f"zero-norm ground truth at t={snap.timestamp}")
        steps.append(step)
        times.append(snap.timestamp)
        err_all.append(float(np.linalg.norm(state.x_hat - truth) / den))
        err_obs.append(_masked_relative_error(state.x_hat, truth, h))
        err_hid.append(_masked_relative_error(state.x_hat, truth, 1.0 - h))
        traces.append(float(np.trace(state.pi)))
        predictions.append(devectorize(state.x_hat, series.n_nodes, series.n_topics))
        state = kalman_update(state, h * truth, model)
    return FilterResult(
        steps=np.asarray(steps),
        times=np.asarray(times, dtype=float),
        errors_all=np.asarray(err_all),
        errors_observed=np.asarray(err_obs),
        errors_hidden=np.asarray(err_hid),
        trace_pi=np.asarray(traces),
        predictions=tuple(predictions),
        final_state=state,
        observed_nodes=model.observed_nodes,
    )


def filter_fractions(
    series: SnapshotSeries,
    op: LearnedOperator,
    fractions: Sequence[float],
    seed: int,
    r_observed: float = R_OBSERVED,
) -> dict[float, FilterResult]:
    """Filter the test range once per observed fraction of the nodes.

    The observed nodes are ``nested_masks(n_nodes, fractions, seed)``, and Q is
    the learner's residual variance.  Each filter starts from Pi_0 = 0, since
    the boundary snapshot is known exactly, and predicts through e^{A}, the
    learned operator's own one-step map, formed once for all fractions: the
    default I + A is unstable once the fitted constants make A stiff.
    """
    shape = (series.n_nodes, series.n_topics)
    transition = matrix_exponential(op.lambda_hat)
    results = {}
    for fraction, observed in nested_masks(series.n_nodes, fractions, seed).items():
        model = ObservationModel.build(*shape, observed, r_observed, op.residual_variance)
        results[fraction] = run_filter(series, op, model, pi0=0.0, transition=transition)
    return results


def nested_masks(n_nodes: int, fractions: Sequence[float], seed: int) -> dict[float, tuple[int, ...]]:
    """Masks for several fractions as prefixes of one seeded permutation.

    Nesting makes error-versus-fraction sweeps well-posed: a larger fraction
    observes a superset of the nodes of a smaller one.
    """
    order = np.random.default_rng(seed).permutation(n_nodes)
    out = {}
    for fraction in fractions:
        if not 0 <= fraction <= 1:
            raise ValidationError("observation fraction must lie in [0, 1]")
        count = int(round(fraction * n_nodes))
        out[float(fraction)] = tuple(sorted(order[:count].tolist()))
    return out


def write_filter_trace_csv(path, result: FilterResult):
    columns = (result.errors_all, result.errors_observed, result.errors_hidden, result.trace_pi)
    write_csv(
        path,
        ["step", "error_all", "error_observed", "error_hidden", "trace_Pi"],
        ([int(step)] + [repr(float(c[i])) for c in columns] for i, step in enumerate(result.steps)),
    )


def write_mask_csv(path, observed_nodes: Sequence[int], labels: Sequence[str] | None = None):
    write_csv(path, ["node_id"], ([labels[i] if labels is not None else i] for i in observed_nodes))
