"""Eigenstructure of supra-Laplacians and the weak-coupling connectivity estimate.

Kernels are read from the graph: with nonnegative weights, the kernel of a
Laplacian is spanned by its normalized component indicators (Fiedler 1973).
With every layer internally connected, the intra-layer kernel thus holds one
indicator per layer.  For a weak inter-layer part scaled by epsilon, the
algebraic connectivity lambda_2 of intra + epsilon * inter is, to first order,
epsilon times the second-smallest eigenvalue of the inter part projected onto
that M-dimensional kernel (Gomez et al. 2013); the projection is needed
because the zero eigenvalue has multiplicity M.
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
    _epsilon,
    _is_symmetric,
    assemble_supra_laplacian,
    components,
)


def _require_symmetric(matrix: np.ndarray, what: str):
    if not _is_symmetric(matrix):
        raise ValidationError(f"{what} must be symmetric for spectral analysis")


def _intra_kernel_basis(supra: SupraLaplacian) -> np.ndarray:
    """Normalized component indicators of the intra-layer part: a kernel basis."""
    labels = components(supra.intra_part)
    indicators = (labels[:, None] == np.arange(labels.max() + 1)).astype(float)
    return indicators / np.sqrt(indicators.sum(axis=0))


@dataclass(frozen=True)
class SpectralSummary:
    """Ascending eigenvalues, algebraic connectivity, and the intra-layer kernel."""

    eigenvalues: np.ndarray
    lambda2: float
    kernel_dim: int
    null_basis: np.ndarray


def spectrum(supra: SupraLaplacian) -> SpectralSummary:
    """Full symmetric eigendecomposition of the operator.

    ``kernel_dim`` is the number of connected components of the operator;
    ``null_basis`` holds the normalized component indicators of the
    intra-layer part, which span its kernel.
    """
    _require_symmetric(supra.matrix, "the supra-Laplacian")
    if supra.n_nodes < 2:
        raise ValidationError("spectral analysis needs at least 2 nodes")
    eigenvalues = np.linalg.eigvalsh(supra.matrix)
    return SpectralSummary(
        eigenvalues=eigenvalues,
        lambda2=float(eigenvalues[1]),
        kernel_dim=int(components(supra.matrix).max()) + 1,
        null_basis=_intra_kernel_basis(supra),
    )


def _layer_kernel_basis(supra: SupraLaplacian) -> np.ndarray:
    """The intra-layer kernel basis, checked to hold one indicator per layer."""
    _require_symmetric(supra.intra_part, "the intra-layer part")
    basis = _intra_kernel_basis(supra)
    n_layers = len(supra.layer_ids)
    if basis.shape[1] != n_layers:
        raise ValidationError(
            f"intra-layer kernel dimension {basis.shape[1]} != layer count {n_layers}; "
            "every layer must be internally connected with a positive constant"
        )
    return basis


def lambda2_perturbation_estimate(supra: SupraLaplacian, epsilon: float) -> float:
    """First-order algebraic-connectivity estimate for weak inter-layer coupling.

    Returns epsilon times the second-smallest eigenvalue of the inter-layer
    part projected onto the kernel of the intra-layer part (the per-layer
    normalized indicators).  Exactly linear in epsilon.
    """
    epsilon = _epsilon(epsilon)
    if len(supra.layer_ids) < 2:
        raise ValidationError("the perturbation estimate needs at least 2 layers")
    basis = _layer_kernel_basis(supra)
    projected = basis.T @ supra.inter_part @ basis
    eigenvalues = np.linalg.eigvalsh(projected)
    return epsilon * float(eigenvalues[1])


def kernel_rayleigh_quotients(supra: SupraLaplacian, epsilon: float) -> np.ndarray:
    """Per-layer-indicator Rayleigh quotients epsilon * u^T (inter part) u."""
    epsilon = _epsilon(epsilon)
    basis = _layer_kernel_basis(supra)
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

    The grid must be nonempty, with every epsilon finite and >= 0.  Symmetry,
    intra-layer connectivity and the slope of the estimate are checked and
    taken once; each epsilon then costs one eigenvalue solve of
    intra + epsilon * inter.
    """
    if len(epsilon_grid) == 0:
        raise ValidationError("the epsilon grid is empty")
    base = assemble_supra_laplacian(network, constants)
    _require_symmetric(base.matrix, "the supra-Laplacian")
    slope = lambda2_perturbation_estimate(base, 1.0)
    zero_floor = 1e-12 * (1.0 + float(np.abs(base.matrix).max(initial=0.0)))
    points = []
    for epsilon in map(_epsilon, epsilon_grid):
        scaled = base.intra_part + epsilon * base.inter_part
        actual = float(np.linalg.eigvalsh(scaled)[1])
        estimate = epsilon * slope
        if abs(actual) > zero_floor:
            rel = abs(actual - estimate) / abs(actual)
        else:
            rel = 0.0 if abs(estimate) <= zero_floor else float("inf")
        points.append(SweepPoint(epsilon, actual, estimate, rel))
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
