"""Closed and open (stochastic) diffusion of state matrices.

Closed dynamics follow dX/dt = -L X where L is the assembled supra-Laplacian;
the exact propagator is the matrix exponential e^{-L dt}.  Open dynamics add a
Brownian innovation dX = -L X dt + S dB with a per-node, per-topic scale matrix
S, simulated with the Euler-Maruyama scheme (strong order 0.5).  The point
predictor is the propagated mean; the stochastic term has zero expectation and
enters only simulation and residual modeling.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .network import SupraLaplacian
from .states import StateMatrix, node_label, _fmt

#: Absolute entrywise tolerance of the symmetry test selecting the spectral
#: route of the matrix exponential.
SYMMETRY_TOL = 1e-12


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

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def state_matrices(self) -> list[StateMatrix]:
        return [
            StateMatrix(matrix=self.states[k], node_index=dict(self.node_index), timestamp=t)
            for k, t in enumerate(self.times)
        ]


def default_step(supra: SupraLaplacian) -> float:
    """Step size keeping the explicit scheme well inside its stability region."""
    norm = float(np.abs(supra.matrix).sum(axis=1).max())
    return min(0.01, 0.1 / norm) if norm > 0 else 0.01


def matrix_exponential(a) -> np.ndarray:
    """e^A via spectral decomposition for symmetric A, scaling-and-squaring otherwise."""
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"matrix exponential needs a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("matrix exponential input has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        if np.abs(mat - mat.T).max(initial=0.0) < SYMMETRY_TOL:
            eigvals, eigvecs = np.linalg.eigh(mat)
            result = (eigvecs * np.exp(eigvals)) @ eigvecs.T
        else:
            result = scipy.linalg.expm(mat)
    if not np.isfinite(result).all():
        raise NumericalError("matrix exponential overflowed; input norm is pathological")
    return result


def exponential_action(a, x) -> np.ndarray:
    """e^A X, by the truncated-Taylor action of Al-Mohy & Higham (2011) when
    that is cheaper than forming e^A.

    X may be one vector or a matrix of column vectors.  The action costs about
    ||A - mu I||_1 matrix-vector products per column (mu = trace(A) / n), the
    dense exponential a fixed few n x n products and several n x n
    temporaries, so only a stiff operator or many columns take the dense
    route.  On one BLAS thread (x86-64, n = 400-800) the action took at most
    about 1.5 times as long while that norm times the column count stayed
    below 4n, and up to 10 times as long beyond.
    """
    mat = np.asarray(a, dtype=float)
    vecs = np.asarray(x, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"exponential action needs a square matrix, got shape {mat.shape}")
    if vecs.ndim not in (1, 2) or vecs.shape[0] != mat.shape[0]:
        raise ValidationError(
            f"exponential action of a {mat.shape} matrix cannot act on shape {vecs.shape}"
        )
    if not np.isfinite(mat).all():
        raise ValidationError("exponential action input has non-finite entries")
    n = mat.shape[0]
    columns = 1 if vecs.ndim == 1 else vecs.shape[1]
    diag = mat.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        # Shifting by mu moves only the diagonal; an overflow reads as stiff.
        col_sums = np.abs(mat).sum(axis=0) - np.abs(diag) + np.abs(diag - diag.mean())
        stiffness = col_sums.max(initial=0.0)
    if not stiffness * columns < 4 * n:
        return matrix_exponential(mat) @ vecs
    # Deferred import: scipy.sparse.linalg is slow to load and only the
    # learned-operator path needs it.
    import scipy.sparse.linalg

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = scipy.sparse.linalg.expm_multiply(mat, vecs)
        except (OverflowError, ValueError) as exc:
            # The step-count selection turns an infinite or NaN norm
            # estimate into an integer and fails there.
            raise NumericalError(
                f"exponential action failed; operator norm is pathological ({exc})"
            ) from None
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
    return _like(x0, matrix_exponential(-supra.matrix * delta_t) @ x, delta_t)


def predict_mean(x0, supra: SupraLaplacian, delta_t: float, noise: NoiseModel | None = None):
    """Point prediction of the open system: the noise term has zero mean, so
    this is the closed-system propagation regardless of the noise model."""
    return propagate_closed(x0, supra, delta_t)


def _simulate(x0: np.ndarray, lap: np.ndarray, sigma: np.ndarray, rng, config: SimulationConfig):
    n_steps = config.n_steps
    times = np.minimum(np.arange(n_steps + 1) * config.dt, config.horizon)
    states = np.empty((n_steps + 1,) + x0.shape)
    states[0] = x0
    x = x0.copy()
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        noise = rng.standard_normal(x.shape)
        x = x - (lap @ x) * h + sigma * noise * math.sqrt(h)
        states[k + 1] = x
    if not np.isfinite(states).all():
        raise NumericalError("simulation diverged to non-finite states; reduce dt")
    return times, states


def simulate_open(
    x0, supra: SupraLaplacian, noise: NoiseModel, config: SimulationConfig
) -> SimulationPath:
    """One Euler-Maruyama path of dX = -L X dt + S dB, deterministic given the seed."""
    x = _state_array(x0)
    if x.shape != noise.sigma.shape:
        raise ValidationError(
            f"noise scale shape {noise.sigma.shape} does not match state shape {x.shape}"
        )
    if x.shape[0] != supra.n_nodes:
        raise ValidationError("state and operator sizes disagree")
    norm = float(np.abs(supra.matrix).sum(axis=1).max())
    if norm * config.dt >= 1:
        warnings.warn(
            f"dt={config.dt} is large for an operator of norm {norm:.3g}; "
            "the explicit scheme may be inaccurate",
            stacklevel=2,
        )
    rng = np.random.default_rng(noise.seed)
    times, states = _simulate(x, supra.matrix, noise.sigma, rng, config)
    node_index = x0.node_index if isinstance(x0, StateMatrix) else dict(supra.node_index)
    return SimulationPath(times=times, states=states, node_index=dict(node_index))


def simulate_ensemble(
    x0, supra: SupraLaplacian, noise: NoiseModel, config: SimulationConfig
) -> list[SimulationPath]:
    """Independent paths from sub-seeds derived deterministically from the master seed."""
    x = _state_array(x0)
    if x.shape != noise.sigma.shape:
        raise ValidationError("noise scale and state shapes disagree")
    if x.shape[0] != supra.n_nodes:
        raise ValidationError("state and operator sizes disagree")
    node_index = x0.node_index if isinstance(x0, StateMatrix) else dict(supra.node_index)
    children = np.random.SeedSequence(noise.seed).spawn(config.ensemble_size)
    paths = []
    for child in children:
        rng = np.random.default_rng(child)
        times, states = _simulate(x, supra.matrix, noise.sigma, rng, config)
        paths.append(SimulationPath(times=times, states=states, node_index=dict(node_index)))
    return paths


def ensemble_statistics(paths: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sample mean and unbiased sample variance across >= 2 paths."""
    arrays = [p.states if isinstance(p, SimulationPath) else np.asarray(p, float) for p in paths]
    if len(arrays) < 2:
        raise ValidationError("ensemble statistics need at least 2 paths")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValidationError("ensemble paths have mismatched shapes")
    stack = np.stack(arrays)
    return stack.mean(axis=0), stack.var(axis=0, ddof=1)


# --- CSV output ----------------------------------------------------------------


def write_simulation_csv(path, paths: Iterable[SimulationPath], node_order):
    """Long-format dump: path_id,step,t,node_id,x_1..x_T."""
    paths = list(paths)
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as handle:
        n_topics = paths[0].states.shape[2] if paths else 0
        handle.write(
            ",".join(["path_id", "step", "t", "node_id"] + [f"x_{j + 1}" for j in range(n_topics)])
            + "\n"
        )
        for pid, sim in enumerate(paths):
            for k, t in enumerate(sim.times):
                for key in node_order:
                    row = sim.states[k, sim.node_index[key]]
                    fields = [str(pid), str(k), _fmt(t), node_label(key)]
                    fields += [_fmt(v) for v in row]
                    handle.write(",".join(fields) + "\n")
    os.replace(tmp, path)


def write_ensemble_summary_csv(path, times, mean: np.ndarray, var: np.ndarray, node_order):
    """Per-step, per-node ensemble mean and variance: step,t,node_id,mean_x_*,var_x_*."""
    tmp = f"{path}.tmp"
    n_topics = mean.shape[2]
    with open(tmp, "w", newline="") as handle:
        header = ["step", "t", "node_id"]
        header += [f"mean_x_{j + 1}" for j in range(n_topics)]
        header += [f"var_x_{j + 1}" for j in range(n_topics)]
        handle.write(",".join(header) + "\n")
        for k, t in enumerate(times):
            for i, key in enumerate(node_order):
                fields = [str(k), _fmt(t), node_label(key)]
                fields += [_fmt(v) for v in mean[k, i]]
                fields += [_fmt(v) for v in var[k, i]]
                handle.write(",".join(fields) + "\n")
    os.replace(tmp, path)
