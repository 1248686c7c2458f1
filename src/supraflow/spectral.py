"""Eigenstructure of supra-Laplacians and the weak-coupling connectivity estimate.

With every layer internally connected, the intra-layer operator has an
M-dimensional kernel spanned by the per-layer normalized indicator vectors.
For a weak inter-layer part scaled by a small epsilon, the second-smallest
eigenvalue (algebraic connectivity) of intra + epsilon * inter is, to first
order, epsilon times the second-smallest eigenvalue of the inter part
projected onto that kernel.  Degenerate-subspace projection is required
because the zero eigenvalue has multiplicity M; for a single kernel vector it
reduces to the plain Rayleigh quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .files import write_csv
from .network import (
    DiffusionConstants,
    InterconnectedNetwork,
    SupraLaplacian,
    _is_symmetric,
    assemble_supra_laplacian,
    scale_inter_layer,
)

#: Relative kernel tolerance: eigenvalues below tol * spectral norm count as zero.
KERNEL_RTOL = 1e-9


def _require_symmetric(matrix: np.ndarray, what: str):
    if not _is_symmetric(matrix):
        raise ValidationError(f"{what} must be symmetric for spectral analysis")


def _kernel_tolerance(eigenvalues: np.ndarray) -> float:
    spectral_norm = float(np.abs(eigenvalues).max(initial=0.0))
    return max(KERNEL_RTOL * spectral_norm, 1e-14)


@dataclass(frozen=True)
class SpectralSummary:
    """Ascending eigenvalues, algebraic connectivity, and the intra-layer kernel."""

    eigenvalues: np.ndarray
    lambda2: float
    kernel_dim: int
    null_basis: np.ndarray


def spectrum(supra: SupraLaplacian) -> SpectralSummary:
    """Full symmetric eigendecomposition of the operator.

    ``kernel_dim`` counts eigenvalues below the relative kernel tolerance;
    ``null_basis`` spans the kernel of the intra-layer part.
    """
    _require_symmetric(supra.matrix, "the supra-Laplacian")
    if supra.n_nodes < 2:
        raise ValidationError("spectral analysis needs at least 2 nodes")
    eigenvalues = np.linalg.eigvalsh(supra.matrix)
    kernel_dim = int((eigenvalues < _kernel_tolerance(eigenvalues)).sum())

    _require_symmetric(supra.intra_part, "the intra-layer part")
    intra_vals, intra_vecs = np.linalg.eigh(supra.intra_part)
    in_kernel = intra_vals < _kernel_tolerance(intra_vals)
    return SpectralSummary(
        eigenvalues=eigenvalues,
        lambda2=float(eigenvalues[1]),
        kernel_dim=kernel_dim,
        null_basis=intra_vecs[:, in_kernel],
    )


def _layer_indicator_basis(supra: SupraLaplacian) -> np.ndarray:
    n = supra.n_nodes
    basis = np.zeros((n, len(supra.layer_ids)))
    for col, layer_id in enumerate(supra.layer_ids):
        sl = supra.layer_slices[layer_id]
        count = sl.stop - sl.start
        basis[sl, col] = 1.0 / np.sqrt(count)
    return basis


def _check_intra_connected(supra: SupraLaplacian):
    _require_symmetric(supra.intra_part, "the intra-layer part")
    intra_vals = np.linalg.eigvalsh(supra.intra_part)
    kernel_dim = int((intra_vals < _kernel_tolerance(intra_vals)).sum())
    n_layers = len(supra.layer_ids)
    if kernel_dim != n_layers:
        raise ValidationError(
            f"intra-layer kernel dimension {kernel_dim} != layer count {n_layers}; "
            "every layer must be internally connected with a positive constant"
        )


def lambda2_perturbation_estimate(supra: SupraLaplacian, epsilon: float) -> float:
    """First-order algebraic-connectivity estimate for weak inter-layer coupling.

    Returns epsilon times the second-smallest eigenvalue of the inter-layer
    part projected onto the kernel of the intra-layer part (the per-layer
    normalized indicators).  Exactly linear in epsilon.
    """
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValidationError("epsilon must be finite and >= 0")
    if len(supra.layer_ids) < 2:
        raise ValidationError("the perturbation estimate needs at least 2 layers")
    _check_intra_connected(supra)
    basis = _layer_indicator_basis(supra)
    projected = basis.T @ supra.inter_part @ basis
    eigenvalues = np.linalg.eigvalsh(projected)
    return epsilon * float(eigenvalues[1])


def kernel_rayleigh_quotients(supra: SupraLaplacian, epsilon: float) -> np.ndarray:
    """Per-layer-indicator Rayleigh quotients epsilon * u^T (inter part) u."""
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValidationError("epsilon must be finite and >= 0")
    _check_intra_connected(supra)
    basis = _layer_indicator_basis(supra)
    return epsilon * np.einsum("ij,ij->j", basis, supra.inter_part @ basis)


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    lambda2_actual: float
    lambda2_estimate: float
    rel_error: float


def connectivity_sweep(
    network: InterconnectedNetwork,
    constants: DiffusionConstants,
    epsilon_grid: Sequence[float],
) -> list[SweepPoint]:
    """Actual versus first-order-estimated algebraic connectivity over a grid.

    Each epsilon costs one eigenvalue solve of intra + epsilon * inter.  The
    estimate is linear in epsilon, so the intra-layer kernel is checked and
    the projected inter-layer eigenvalue taken once, on the first point.
    """
    base = assemble_supra_laplacian(network, constants)
    zero_floor = 1e-12 * (1.0 + float(np.abs(base.matrix).max(initial=0.0)))
    slope = None
    points = []
    for epsilon in epsilon_grid:
        scaled = scale_inter_layer(base, epsilon).matrix
        _require_symmetric(scaled, "the supra-Laplacian")
        if slope is None:
            slope = lambda2_perturbation_estimate(base, 1.0)
        actual = float(np.linalg.eigvalsh(scaled)[1])
        estimate = float(epsilon) * slope
        if abs(actual) > zero_floor:
            rel = abs(actual - estimate) / abs(actual)
        else:
            rel = 0.0 if abs(estimate) <= zero_floor else float("inf")
        points.append(
            SweepPoint(
                epsilon=float(epsilon),
                lambda2_actual=float(actual),
                lambda2_estimate=float(estimate),
                rel_error=float(rel),
            )
        )
    return points


def write_sweep_csv(path, points: Sequence[SweepPoint]):
    write_csv(
        path,
        ["epsilon", "lambda2_actual", "lambda2_estimate", "rel_error"],
        (
            [repr(float(v)) for v in (p.epsilon, p.lambda2_actual, p.lambda2_estimate, p.rel_error)]
            for p in points
        ),
    )
