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
the m x m observed block R_oo + Pi_oo of R_e.  When every observed noise
variance is positive that block is positive definite: the update factors it
once, L L^T = R_oo + Pi_oo, solves W = L^{-1} Pi[o, :] by forward
substitution, and sets x <- x + W^T L^{-1} (y_o - x_o) and Pi <- Pi - W^T W,
a rank-m correction computed as an exactly symmetric product, so a symmetric
Pi stays exactly symmetric.  Zero observation noise can make the block
singular (a zero covariance), so then, or when the factorization fails, the
gain K = Pi[:, o] (R_oo + Pi_oo)^+ takes a pseudo-inverse and
Pi <- Pi - K Pi[o, :] is re-symmetrized.  The predicted covariance is
re-symmetrized every step.  F is built once per filter, in ``initial_state``
or by the caller of ``run_filter``, and carried in the state.  Neither step
writes to its input state's arrays; each forms its new covariance in the
buffers of its own products.

When the learned generator is exactly A = kron(I_T, B), its corrections G
all zero, e^{A} = kron(I_T, e^{B}).  Q and R are diagonal, H observes the
same nodes in every topic and ``filter_fractions`` starts from Pi_0 = 0, so
Pi stays block diagonal and the PT-dimensional filter is T independent
P-dimensional ones, each through the P x P transition e^{B}: T P^3 work per
step instead of (PT)^3.  ``filter_fractions`` runs them in lockstep and
reports the same full-state result; any other generator takes the
PT-dimensional filter.  That filter and ``transition_matrix`` are the
package's only consumers of the dense PT x PT generator, so they alone are
bound by ``MAX_LEARN_DIM``, checked before the array is formed.

The filters of different fractions share only the read-only F, so
``filter_fractions`` is the one place in the package that starts threads:
it deals the fractions into min(fractions, usable CPUs) groups, the calling
thread runs the first group and one helper thread each of the others, a
helper's exception is raised from the call, and no helper outlives it.
numpy's products release the interpreter lock, so the groups overlap; scipy's
LAPACK wrappers (``cholesky``, ``solve_triangular``) hold it.  Every filter
does the same arithmetic on any thread, so the results do not depend on the
CPU count.  Python threads multiply with BLAS threads: each group's products
use the BLAS library's own threads too.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .calibration import LearnedOperator, SnapshotSeries, _dense_block, devectorize, vectorize
from .diffusion import matrix_exponential
from .files import write_csv

PHASE_PREDICTED = "predicted"
PHASE_UPDATED = "updated"
#: The default observation noise variance of an observed coordinate.
R_OBSERVED = 1e-6
#: Largest vectorized dimension (node count x topic count) for which the
#: dense PT x PT learned generator is formed, with its exponential or I + A.
MAX_LEARN_DIM = 4000


def check_observation_noise(r: float) -> None:
    """Reject a negative or non-finite observation noise variance as a
    ValidationError; zero is valid and takes the update's pseudo-inverse route."""
    if not (np.isfinite(r) and r >= 0):
        raise ValidationError(
            f"the observation noise variance r must be finite and >= 0, got {float(r)}"
        )


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

    @cached_property
    def observed(self) -> np.ndarray:
        """Indices of the observed coordinates in column-stacked order, sorted
        and read-only; formed once per model."""
        nodes = np.array(self.observed_nodes, dtype=np.intp)
        index = (self.n_nodes * np.arange(self.n_topics)[:, None] + nodes).ravel()
        index.setflags(write=False)
        return index

    def h_diag(self) -> np.ndarray:
        """Diagonal of the PT x PT indicator (column-stacked coordinate order)."""
        h = np.zeros(self.dim)
        h[self.observed] = 1.0
        return h

    @classmethod
    def build(
        cls,
        n_nodes: int,
        n_topics: int,
        observed_nodes: Sequence[int],
        r_observed: float = R_OBSERVED,
        q_diag=None,
    ) -> "ObservationModel":
        observed = tuple(int(i) for i in observed_nodes)
        # A node out of range marks no coordinate here; the model rejects it.
        chosen = set(observed)
        mask = np.array([float(i in chosen) for i in range(n_nodes)])
        return cls(
            n_nodes=n_nodes,
            n_topics=n_topics,
            observed_nodes=observed,
            r_diag=np.tile(mask, n_topics) * float(r_observed),
            q_diag=np.zeros(n_nodes * n_topics) if q_diag is None else q_diag,
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


def _dense_generator(op: LearnedOperator, consumer: str) -> np.ndarray:
    """The learned generator as a dense PT x PT array, for ``consumer``,
    which needs it; a ValidationError before any allocation above the cap."""
    dim = op.n_nodes * op.n_topics
    if dim > MAX_LEARN_DIM:
        raise ValidationError(
            f"{consumer} needs the dense {dim} x {dim} learned generator, and the "
            f"vectorized dimension {dim} exceeds the cap MAX_LEARN_DIM = {MAX_LEARN_DIM}"
        )
    return op.lambda_hat


def transition_matrix(op: LearnedOperator) -> np.ndarray:
    """First-order discretization of the learned generator: F = I + A."""
    f = _dense_generator(op, "transition_matrix")
    f.flat[:: f.shape[0] + 1] += 1.0
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


def _cholesky(r_e: np.ndarray):
    """The lower Cholesky factor of ``r_e``, or None if it is not positive definite."""
    try:
        return scipy.linalg.cholesky(r_e, lower=True)
    except np.linalg.LinAlgError:
        return None


def kalman_update(state: KalmanState, y: np.ndarray, model: ObservationModel) -> KalmanState:
    """Blend the prediction with an observation of the masked coordinates."""
    if state.phase != PHASE_PREDICTED:
        raise ValidationError("kalman_update expects a state in the 'predicted' phase")
    y = np.asarray(y, dtype=float)
    if y.shape != state.x_hat.shape:
        raise ValidationError("observation length does not match the state")
    if not np.isfinite(y).all():
        raise ValidationError("observation contains non-finite entries")
    if model.dim != state.x_hat.size:
        raise ValidationError("observation model size does not match the state")
    obs = model.observed
    if obs.size == 0:
        return KalmanState(x_hat=state.x_hat, pi=state.pi, phase=PHASE_UPDATED, f_hat=state.f_hat)
    pi = state.pi
    r = model.r_diag[obs]
    # R_e is block-diagonal over (observed, unobserved) and Pi H^T has zero
    # unobserved columns, so only the observed block of R_e contributes.
    rows = pi[obs]
    r_e = rows[:, obs]
    r_e.flat[:: obs.size + 1] += r
    factor = _cholesky(r_e) if r.all() else None
    if factor is None:
        gain = pi[:, obs] @ np.linalg.pinv(r_e, hermitian=True)
        x_post = state.x_hat + gain @ (y[obs] - state.x_hat[obs])
        pi_post = _symmetrized(pi - gain @ rows)
    else:
        # Filters of several fractions run at once and their peaks add up,
        # so no m x m or m x PT temporary outlives its use.
        del r_e
        w = scipy.linalg.solve_triangular(factor, rows, lower=True)
        del rows
        whitened = scipy.linalg.solve_triangular(factor, y[obs] - state.x_hat[obs], lower=True)
        del factor
        x_post = state.x_hat + w.T @ whitened
        pi_post = w.T @ w
        np.subtract(pi, pi_post, out=pi_post)
    return KalmanState(x_hat=x_post, pi=pi_post, phase=PHASE_UPDATED, f_hat=state.f_hat)


def kalman_predict(state: KalmanState, op: LearnedOperator, model: ObservationModel) -> KalmanState:
    """Advance the updated estimate one step through F, the state's ``f_hat``.

    F is formed once per filter and carried in the state: e^{A} in every
    filter that ``filter_fractions`` runs, I + A when ``initial_state`` is
    given no other transition.
    An exactly zero Pi, as every filter from Pi_0 = 0 starts, skips the two
    products of F Pi F^T.  The symmetrized result is written into the buffer
    of F Pi, so one step holds two covariance-sized arrays besides its input.
    """
    if state.phase != PHASE_UPDATED:
        raise ValidationError("kalman_predict expects a state in the 'updated' phase")
    f = state.f_hat
    x_next = f @ state.x_hat
    if state.pi.any():
        scratch = f @ state.pi
        pi_next = scratch @ f.T
    else:
        scratch, pi_next = np.empty(state.pi.shape), np.zeros(state.pi.shape)
    pi_next.flat[:: pi_next.shape[0] + 1] += model.q_diag
    np.add(pi_next, pi_next.T, out=scratch)
    scratch *= 0.5
    return KalmanState(x_hat=x_next, pi=scratch, phase=PHASE_PREDICTED, f_hat=f)


@dataclass
class FilterResult:
    """Per-step filter output over a test range.

    ``errors_all`` is the relative Frobenius error of each pre-observation
    prediction against the full true state; the observed/hidden columns
    restrict the same measure to the corresponding coordinates.
    ``final_states`` holds each filter's last updated state: one for the
    whole-state filter, T on the per-topic route.
    """

    steps: np.ndarray
    times: np.ndarray
    errors_all: np.ndarray
    errors_observed: np.ndarray
    errors_hidden: np.ndarray
    trace_pi: np.ndarray
    predictions: tuple[np.ndarray, ...]
    final_states: tuple[KalmanState, ...]
    observed_nodes: tuple[int, ...]

    @cached_property
    def final_state(self) -> KalmanState:
        """The last updated state of the whole vectorized state.  Per-topic
        states are joined on first access: their block-diagonal covariance
        and transition are two PT x PT arrays, formed only for a reader."""
        states = self.final_states
        if len(states) == 1:
            return states[0]
        return KalmanState(
            x_hat=np.concatenate([state.x_hat for state in states]),
            pi=scipy.linalg.block_diag(*(state.pi for state in states)),
            phase=PHASE_UPDATED,
            f_hat=scipy.linalg.block_diag(*(state.f_hat for state in states)),
        )


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
    pi0,
    transition=None,
) -> FilterResult:
    """Filter the test range, feeding observed coordinates of the true states.

    The last training snapshot initializes the estimate, with initial
    covariance ``pi0`` (a scalar times the identity, or a matrix).  Each test
    step is scored on its prediction, before that step's observation is folded
    in.  ``transition`` replaces F = I + A, e.g. by e^{A}, the learned
    operator's own one-step map.
    """
    test = _test_range(series, model)
    return _run_lockstep(
        test, op, model, [(initial_state(vectorize(test[0]), pi0, op, transition), model)]
    )


def _test_range(series: SnapshotSeries, model: ObservationModel) -> tuple:
    test = series.test_snapshots()
    if len(test) < 2:
        raise ValidationError("the test range needs at least 2 snapshots")
    if model.n_nodes != series.n_nodes or model.n_topics != series.n_topics:
        raise ValidationError("observation model does not match the series shape")
    return test


def _run_lockstep(test, op: LearnedOperator, model: ObservationModel, filters: list) -> FilterResult:
    """Step (state, model) filters over consecutive equal slices of the
    vectorized state in lockstep, scoring their joined estimate as one.

    One filter over the whole state is the PT-dimensional filter; T filters
    are its topic blocks, whose traces add to the whole covariance's trace.
    ``filters`` is updated in place, so no covariance outlives its step.
    """
    n_nodes, n_topics = model.n_nodes, model.n_topics
    h = model.h_diag()
    steps, times = [], []
    err_all, err_obs, err_hid, traces = [], [], [], []
    predictions = []
    for step, snap in enumerate(test[1:], start=1):
        filters[:] = [(kalman_predict(state, op, part), part) for state, part in filters]
        x_hat = np.concatenate([state.x_hat for state, _ in filters])
        truth = vectorize(snap)
        den = np.linalg.norm(truth)
        if den == 0:
            raise ValidationError(f"zero-norm ground truth at t={snap.timestamp}")
        steps.append(step)
        times.append(snap.timestamp)
        err_all.append(float(np.linalg.norm(x_hat - truth) / den))
        err_obs.append(_masked_relative_error(x_hat, truth, h))
        err_hid.append(_masked_relative_error(x_hat, truth, 1.0 - h))
        traces.append(float(np.sum([np.trace(state.pi) for state, _ in filters])))
        predictions.append(devectorize(x_hat, n_nodes, n_topics))
        observed = np.split(h * truth, len(filters))
        filters[:] = [
            (kalman_update(state, y, part), part) for (state, part), y in zip(filters, observed)
        ]
    return FilterResult(
        steps=np.asarray(steps),
        times=np.asarray(times, dtype=float),
        errors_all=np.asarray(err_all),
        errors_observed=np.asarray(err_obs),
        errors_hidden=np.asarray(err_hid),
        trace_pi=np.asarray(traces),
        predictions=tuple(predictions),
        final_states=tuple(state for state, _ in filters),
        observed_nodes=model.observed_nodes,
    )


def filter_fractions(
    series: SnapshotSeries,
    op: LearnedOperator,
    masks: dict[float, tuple[int, ...]],
    r_observed: float = R_OBSERVED,
) -> dict[float, FilterResult]:
    """Filter the test range once per observed fraction of the nodes.

    ``masks`` maps each fraction to its observed nodes, as ``nested_masks``
    builds them; callers build them before any fit, so a fraction that
    observes no node fails at once.  Q is the learner's residual variance.
    Each filter starts from Pi_0 = 0, since the boundary snapshot is known
    exactly, and predicts through e^{A}, the learned operator's own one-step
    map, formed once for all fractions: the default I + A is unstable once the
    fitted constants make A stiff.  When A is exactly kron(I_T, B) (its
    corrections G all zero), only the P x P e^{B} is formed and each fraction
    runs T topic filters in lockstep, each with its topic's block of Q and R;
    their joined estimate gives the same full-state predictions, errors and
    trace, and ``final_state`` holds the block-diagonal covariance.  The
    whole-state filter forms the PT x PT e^{A}: above ``MAX_LEARN_DIM`` it is
    a ValidationError, raised before that allocation.

    The fractions run in min(len(masks), usable CPUs) groups, one thread
    each, as the module docstring states.  Sorted by observed count, largest
    first, they are dealt to the groups in snake order (0, 1, ..., n-1, n-1,
    ..., 0, 0, 1, ...).  Each filter's arithmetic is the same on any thread,
    so the results do not depend on the CPU count; the returned dict keeps
    the order of ``masks``.
    """
    shape = n_nodes, n_topics = series.n_nodes, series.n_topics
    # One filter per topic through e^{B}, or one of the whole state through e^{A}.
    if op.per_topic:
        parts, transition = n_topics, matrix_exponential(_dense_block(op.block))
    else:
        parts = 1
        transition = matrix_exponential(_dense_generator(op, "the whole-state Kalman filter"))

    def run(group):
        results = {}
        for fraction in group:
            observed = masks[fraction]
            model = ObservationModel.build(*shape, observed, r_observed, op.residual_variance)
            test = _test_range(series, model)
            pieces = (np.split(v, parts) for v in (vectorize(test[0]), model.r_diag, model.q_diag))
            results[fraction] = _run_lockstep(
                test,
                op,
                model,
                [
                    (
                        initial_state(x0, 0.0, op, transition),
                        ObservationModel(n_nodes, n_topics // parts, observed, r_diag, q_diag),
                    )
                    for x0, r_diag, q_diag in zip(*pieces)
                ],
            )
        return results

    n_groups = max(1, min(len(masks), _usable_cpus()))
    groups = [[] for _ in range(n_groups)]
    for i, fraction in enumerate(sorted(masks, key=lambda f: len(masks[f]), reverse=True)):
        lap = i % (2 * n_groups)
        groups[min(lap, 2 * n_groups - 1 - lap)].append(fraction)
    # The executor starts a thread per submitted group only, so with one
    # group it starts none; leaving the block joins every helper.
    with ThreadPoolExecutor(max_workers=max(1, n_groups - 1)) as helpers:
        futures = [helpers.submit(run, group) for group in groups[1:]]
        results = run(groups[0])
        for future in futures:
            results.update(future.result())
    return {fraction: results[fraction] for fraction in masks}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def nested_masks(n_nodes: int, fractions: Sequence[float], seed: int) -> dict[float, tuple[int, ...]]:
    """Masks for several fractions as prefixes of one seeded permutation.

    Nesting makes error-versus-fraction sweeps well-posed: a larger fraction
    observes a superset of the nodes of a smaller one.  A fraction observes
    round(fraction * n_nodes) nodes; a positive one that observes none is rejected.
    """
    order = np.random.default_rng(seed).permutation(n_nodes)
    out = {}
    for fraction in fractions:
        if not 0 <= fraction <= 1:
            raise ValidationError("observation fraction must lie in [0, 1]")
        count = int(round(fraction * n_nodes))
        if fraction > 0 and count == 0:
            raise ValidationError(f"fraction {fraction} of {n_nodes} nodes observes no node")
        out[float(fraction)] = tuple(sorted(order[:count].tolist()))
    return out


def write_filter_trace_csv(path, result: FilterResult):
    columns = (result.errors_all, result.errors_observed, result.errors_hidden, result.trace_pi)
    write_csv(
        path,
        ["step", "error_all", "error_observed", "error_hidden", "trace_Pi"],
        (
            [int(step), *values]
            for step, values in zip(result.steps, np.column_stack(columns).tolist())
        ),
    )


def write_mask_csv(path, observed_nodes: Sequence[int], labels: Sequence[str]):
    write_csv(path, ["node_id"], ([labels[i]] for i in observed_nodes))
