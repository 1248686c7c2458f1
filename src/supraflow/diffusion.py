"""Closed and open (stochastic) diffusion of state matrices.

Closed dynamics follow dX/dt = -L X where L is the assembled supra-Laplacian;
the exact propagator is the matrix exponential e^{-L dt}, applied to states
through the sparse operator by a truncated-Taylor action whose step count
comes from an exact norm, so results are deterministic.  Open dynamics add a
Brownian innovation dX = -L X dt + S dB with a per-node, per-topic scale matrix
S, simulated with the Euler-Maruyama scheme (strong order 0.5) with sparse
operator products.  The point predictor is the propagated mean; the stochastic
term has zero expectation and enters only simulation and residual modeling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import NumericalError, ValidationError
from .files import write_csv
from .network import MAX_NODES, SupraLaplacian, _is_symmetric
from .states import StateMatrix, node_label

#: theta_m of Al-Mohy & Higham (2011) in double precision: the largest 1-norm
#: for which m Taylor terms per step meet unit roundoff.  m = 1-30 are from
#: table A.3 of Higham, Functions of Matrices (2008); 35-55 from table 3.1 of
#: the 2011 paper.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53
#: Bytes of leading-axis rows that ``ensemble_statistics`` takes per block:
#: the size of its one deviation buffer.
STATISTICS_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class NoiseModel:
    """Brownian scale matrix (one row per node, one column per topic) and seed."""

    sigma: np.ndarray
    seed: int = 0

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "seed", int(self.seed))
        if sigma.ndim != 2:
            raise ValidationError("noise scale must be a 2-D matrix")
        if not np.isfinite(sigma).all() or (sigma < 0).any():
            raise ValidationError("noise scale entries must be finite and >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    dt: float
    horizon: float
    ensemble_size: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "ensemble_size", int(self.ensemble_size))
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValidationError("dt must be a finite positive step size")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValidationError("horizon must be a finite positive time span")
        if self.ensemble_size < 1:
            raise ValidationError("ensemble_size must be >= 1")

    @property
    def n_steps(self) -> int:
        # Round the step count up; the final step is shortened to land on the horizon.
        return max(1, math.ceil(self.horizon / self.dt - 1e-12))


@dataclass(frozen=True)
class SimulationPath:
    """One realized trajectory: states[k] is the P x T state at times[k]."""

    times: np.ndarray
    states: np.ndarray
    node_index: dict[tuple[int, str], int]


def step_norm(supra: SupraLaplacian) -> float:
    """The operator's largest absolute row sum: an Euler-Maruyama step dt is
    small enough for the explicit scheme when this norm times dt is below 1."""
    return float(abs(supra.csr).sum(axis=1).max(initial=0.0))


def default_step(supra: SupraLaplacian) -> float:
    """Step size keeping the explicit scheme well inside its stability region."""
    norm = step_norm(supra)
    return min(0.01, 0.1 / norm) if norm > 0 else 0.01


def matrix_exponential(a) -> np.ndarray:
    """e^A via spectral decomposition for symmetric A, scaling-and-squaring otherwise."""
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"matrix exponential needs a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("matrix exponential input has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        if _is_symmetric(mat):
            eigvals, eigvecs = np.linalg.eigh(mat)
            result = (eigvecs * np.exp(eigvals)) @ eigvecs.T
        else:
            result = scipy.linalg.expm(mat)
    if not np.isfinite(result).all():
        raise NumericalError("matrix exponential overflowed; input norm is pathological")
    return result


def _inf_norm(x: np.ndarray) -> float:
    magnitudes = np.abs(x)
    if magnitudes.ndim == 2:
        # Row sums as a product with ones: several times quicker than a sum
        # across a few columns.
        magnitudes = magnitudes @ np.ones(magnitudes.shape[1])
    return float(magnitudes.max(initial=0.0))


def _taylor_action(shifted, mu: float, norm: float, x: np.ndarray) -> np.ndarray:
    """e^{mu} e^{shifted} X by algorithm 3.2 of Al-Mohy & Higham (2011).

    ``shifted`` needs only ``@``; ``norm`` is its 1-norm, or a bound above
    it, which may take more steps but never loses accuracy.  The degree m and
    step count s = max(1, ceil(norm / theta_m)) minimize m * s over the theta
    table; each step sums at most m Taylor terms of e^{shifted / s} and stops
    once two successive terms fall below unit roundoff of the partial sum.
    """
    m, s = 0, 1
    if norm > 0:
        for degree, theta in _TAYLOR_THETA.items():
            steps = max(1, math.ceil(norm / theta))
            if m == 0 or degree * steps < m * s:
                m, s = degree, steps
    eta = np.exp(mu / s)
    result = term = x
    for _ in range(s):
        previous = _inf_norm(term)
        for j in range(m):
            term = (1.0 / (s * (j + 1))) * (shifted @ term)
            current = _inf_norm(term)
            result = result + term
            if previous + current <= _UNIT_ROUNDOFF * _inf_norm(result):
                break
            previous = current
        result = eta * result
        term = result
    return result


def exponential_action(a, x) -> np.ndarray:
    """e^A X, by the truncated-Taylor action of Al-Mohy & Higham (2011) when
    that is cheaper than forming e^A.

    A may be an array or a scipy sparse matrix; X one vector or a matrix of
    column vectors.  The action shifts A by mu = trace(A) / n and takes its
    Taylor degree and step count from the exact 1-norm of A - mu I, with no
    randomized norm estimate and no global random state, so the result is a
    deterministic function of A and X.  It costs at most m * s products of A
    with X, about 5.6 per unit of that norm once the norm is large, each about
    nnz(A) multiply-adds per column for sparse A and n^2 for an array; the
    dense exponential costs a fixed few n x n products and several n x n
    temporaries.  So the dense route is taken when the norm times the column
    count times the work per product reaches 4 n^3, which for an array means
    stiff operators or many columns.
    """
    sparse = scipy.sparse.issparse(a)
    mat = scipy.sparse.csr_array(a, dtype=float) if sparse else np.asarray(a, dtype=float)
    vecs = np.asarray(x, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"exponential action needs a square matrix, got shape {mat.shape}")
    if vecs.ndim not in (1, 2) or vecs.shape[0] != mat.shape[0]:
        raise ValidationError(
            f"exponential action of a {mat.shape} matrix cannot act on shape {vecs.shape}"
        )
    if not np.isfinite(mat.data if sparse else mat).all():
        raise ValidationError("exponential action input has non-finite entries")
    n = mat.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(mat.trace()) / n
        if sparse:
            shifted = mat - mu * scipy.sparse.eye_array(n, format="csr")
        else:
            shifted = mat.copy()
            shifted.flat[:: n + 1] -= mu
        norm = float(abs(shifted).sum(axis=0).max(initial=0.0))
    dense = mat.toarray if sparse else lambda: mat
    return _exponential_action(shifted, mu, norm, mat.nnz if sparse else n * n, dense, vecs)


def _exponential_action(shifted, mu: float, norm: float, cost: int, dense, vecs: np.ndarray):
    """e^A X for A = ``shifted`` + mu I, where ``shifted`` is any operator
    with ``@``, ``norm`` bounds its 1-norm and one product with one column
    costs ``cost`` multiply-adds.  The Taylor action takes at most about 5.6
    such products per unit of norm and column; forming e^A costs a fixed few
    n x n products, so A = ``dense()`` is formed and exponentiated once the
    norm times the column count times ``cost`` reaches 4 n^3.
    """
    n = vecs.shape[0]
    columns = 1 if vecs.ndim == 1 else vecs.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflowed norm reads as stiff: the dense route reports it.
        if not norm * columns * cost < 4 * n**3:
            return matrix_exponential(dense()) @ vecs
        result = _taylor_action(shifted, mu, norm, vecs)
    if not np.isfinite(result).all():
        raise NumericalError("exponential action overflowed; operator norm is pathological")
    return result


def _state_array(x) -> np.ndarray:
    return x.matrix if isinstance(x, StateMatrix) else np.asarray(x, dtype=float)


def _like(x, matrix: np.ndarray, dt: float):
    if isinstance(x, StateMatrix):
        return StateMatrix(
            matrix=matrix, node_index=dict(x.node_index), timestamp=x.timestamp + dt
        )
    return matrix


def propagate_closed(x0, supra: SupraLaplacian, delta_t: float):
    """Evolve a state matrix by the closed-system flow: e^{-L delta_t} X0."""
    delta_t = float(delta_t)
    if delta_t < 0:
        raise ValidationError("delta_t must be >= 0")
    x = _state_array(x0)
    if x.shape[0] != supra.n_nodes:
        raise ValidationError(
            f"state has {x.shape[0]} rows but the operator acts on {supra.n_nodes} nodes"
        )
    if delta_t == 0:
        return _like(x0, x.copy(), 0.0)
    return _like(x0, exponential_action(-delta_t * supra.csr, x), delta_t)


def _simulate(x0: np.ndarray, lap, sigma: np.ndarray, rngs, config: SimulationConfig, stride=1):
    """Euler-Maruyama steps of one path per generator in ``rngs``, all from
    x0, keeping the states of steps 0, stride, 2 stride, ... and their times.

    The k paths step side by side as one n x (T k) block, path p in columns
    p T to (p + 1) T, so each step is one sparse product.  scipy sums each
    column of a CSR product in the same order whatever the column count, and
    path p draws its noise from ``rngs[p]`` alone, so every path has the bits
    it would have stepped alone.  Every step draws its noise, kept or not.
    Returns the times and a (k, kept steps, n, T) array.  Each step adds to
    the state, so a non-finite entry stays non-finite, and the last kept
    state shows any divergence up to it.

    Before any allocation, the times and the kept states are each checked
    against the one-array budget of ``network.MAX_NODES``^2 doubles, so an
    impossible step count is a ValidationError naming the array and its bytes.
    """
    # A float bound at or above n_steps, inf when the ratio overflows.
    max_steps = config.horizon / config.dt + 1
    budget = 8 * MAX_NODES**2
    for consumer, count in (
        ("times", max_steps + 1),
        ("kept states", len(rngs) * (max_steps / stride + 1) * x0.size),
    ):
        if not 8 * count <= budget:
            raise ValidationError(
                f"the simulation's {consumer} would take {8 * count:.4g} bytes, above the "
                f"{budget} bytes of one array that the node cap allows; raise dt or lower "
                "the horizon"
            )
    n_steps = config.n_steps
    times = np.minimum(np.arange(n_steps + 1) * config.dt, config.horizon)
    n, k = x0.shape[0], len(rngs)
    states = np.empty((k, n_steps // stride + 1) + x0.shape)
    states[:, 0] = x0
    x = np.repeat(x0[:, None], k, axis=1)
    block = x.reshape(n, -1)
    noise = np.empty((k,) + x0.shape)
    # Path p's noise is noise[p]; seen per node, the paths sit as in x.
    by_node = np.moveaxis(noise, 0, 1)
    # Divergence is reported once, below, not as floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            h = times[step] - times[step - 1]
            for rng, out in zip(rngs, noise):
                rng.standard_normal(out=out)
            # x - (L x) h + (S * noise) sqrt(h), in place, in that order.
            drift = lap @ block
            drift *= h
            block -= drift
            np.multiply(sigma, noise, out=noise)
            noise *= math.sqrt(h)
            x += by_node
            if step % stride == 0:
                states[:, step // stride] = np.moveaxis(x, 1, 0)
    if not np.isfinite(states[:, -1]).all():
        raise NumericalError("simulation diverged to non-finite states; reduce dt")
    return times[::stride], states


def simulate_ensemble(
    x0, supra: SupraLaplacian, noise: NoiseModel, config: SimulationConfig
) -> list[SimulationPath]:
    """Independent Euler-Maruyama paths of dX = -L X dt + S dB, from sub-seeds
    derived deterministically from the master seed; ``ensemble_size=1`` gives
    one path.  Warns when the step is large for the operator.  The paths step
    as one block (see ``_simulate``), each with the bits it would have alone.
    """
    x = _state_array(x0)
    if x.shape != noise.sigma.shape:
        raise ValidationError(
            f"noise scale shape {noise.sigma.shape} does not match state shape {x.shape}"
        )
    if x.shape[0] != supra.n_nodes:
        raise ValidationError("state and operator sizes disagree")
    norm = step_norm(supra)
    if norm * config.dt >= 1:
        warnings.warn(
            f"dt={config.dt} is large for an operator of norm {norm:.3g}; "
            "the explicit scheme may be inaccurate",
            stacklevel=2,
        )
    node_index = x0.node_index if isinstance(x0, StateMatrix) else supra.node_index
    children = np.random.SeedSequence(noise.seed).spawn(config.ensemble_size)
    rngs = [np.random.default_rng(child) for child in children]
    times, block = _simulate(x, supra.csr, noise.sigma, rngs, config)
    return [
        SimulationPath(times=times, states=states, node_index=dict(node_index))
        for states in block
    ]


def ensemble_statistics(paths: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sample mean and unbiased sample variance across >= 2 paths.

    The paths are taken a block of leading-axis rows at a time, as many rows
    as fit in ``STATISTICS_BLOCK_BYTES`` (at least one).  For each block, two
    passes over the paths in order: the sum of the paths over n, then the sum
    of squared deviations from that mean over n - 1, the deviations formed in
    one block-sized buffer.  So besides the results only that buffer is held,
    not a stack of all paths.  Every entry adds its paths in the order in
    which ``mean(axis=0)`` and ``var(axis=0, ddof=1)`` of the stack add them
    for paths of two or more entries, so the results are the same bits.
    """
    arrays = [p.states if isinstance(p, SimulationPath) else np.asarray(p, float) for p in paths]
    if len(arrays) < 2:
        raise ValidationError("ensemble statistics need at least 2 paths")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValidationError("ensemble paths have mismatched shapes")
    arrays = [np.atleast_1d(a) for a in arrays]
    mean = np.empty(arrays[0].shape)
    var = np.empty(arrays[0].shape)
    rows = max(1, STATISTICS_BLOCK_BYTES // max(1, mean[:1].nbytes))
    deviation = np.empty((min(rows, len(mean)),) + mean.shape[1:])
    for start in range(0, len(mean), rows):
        block = slice(start, start + rows)
        m, v = mean[block], var[block]
        d = deviation[: len(m)]
        np.copyto(m, arrays[0][block])
        for a in arrays[1:]:
            m += a[block]
        m /= len(arrays)
        v.fill(0.0)
        for a in arrays:
            np.subtract(a[block], m, out=d)
            d *= d
            v += d
        v /= len(arrays) - 1
    return mean.reshape(shape), var.reshape(shape)


# --- CSV output ----------------------------------------------------------------


def write_simulation_csv(path, paths: Iterable[SimulationPath], node_order):
    """Long-format dump: path_id,step,t,node_id,x_1..x_T."""
    paths = list(paths)
    n_topics = paths[0].states.shape[2] if paths else 0
    labels = [node_label(key) for key in node_order]

    def rows():
        for pid, sim in enumerate(paths):
            order = [sim.node_index[key] for key in node_order]
            for k, t in enumerate(sim.times.tolist()):
                for label, values in zip(labels, sim.states[k][order].tolist()):
                    yield [pid, k, t, label, *values]

    header = ["path_id", "step", "t", "node_id"] + [f"x_{j + 1}" for j in range(n_topics)]
    write_csv(path, header, rows())


def write_ensemble_summary_csv(path, times, mean: np.ndarray, var: np.ndarray, node_order):
    """Per-step, per-node ensemble mean and variance: step,t,node_id,mean_x_*,var_x_*."""
    n_topics = mean.shape[2]
    labels = [node_label(key) for key in node_order]
    header = ["step", "t", "node_id"]
    header += [f"mean_x_{j + 1}" for j in range(n_topics)]
    header += [f"var_x_{j + 1}" for j in range(n_topics)]
    write_csv(
        path,
        header,
        (
            [k, t, label, *values]
            for k, t in enumerate(np.asarray(times, dtype=float).tolist())
            for label, values in zip(labels, np.hstack([mean[k], var[k]]).tolist())
        ),
    )
