"""Algebraic connectivity of supra-Laplacians and its weak-coupling estimate.

Kernels are read from the graph: with nonnegative weights, the kernel of a
Laplacian is spanned by its normalized component indicators (Fiedler 1973).
With every layer internally connected, the intra-layer kernel thus holds one
indicator per layer.  For a weak inter-layer part scaled by epsilon, the
algebraic connectivity lambda_2 of intra + epsilon * inter is, to first order,
epsilon times the second-smallest eigenvalue of the inter part projected onto
that M-dimensional kernel (Gomez et al. 2013); the projection is needed
because the zero eigenvalue has multiplicity M.

``spectrum`` and the sweep take the actual lambda_2 with one solver.  It is
exactly 0 when the operator is disconnected, which is read from the graph;
with M >= 2 internally connected layers that includes epsilon = 0.  Otherwise
lambda_2 costs one Cholesky factorization of the operator, shifted so that
lambda_2 is its smallest eigenvalue, and a few Lanczos solves with that factor
(Parlett 1998, ch. 13; Golub & Van Loan 2013, section 10.1), instead of a
full dense eigenvalue solve.  The sweep compares it with the estimate over a
grid of epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from .errors import ValidationError
from .files import write_csv
from .network import (
    DiffusionConstants,
    InterconnectedNetwork,
    SupraLaplacian,
    _epsilon,
    _is_symmetric,
    _scatter_sum,
    assemble_supra_laplacian,
    components,
)


def _require_symmetric(matrix, what: str):
    if not _is_symmetric(matrix):
        raise ValidationError(f"{what} must be symmetric for spectral analysis")


def _layer_kernel_basis(supra: SupraLaplacian) -> np.ndarray:
    """The normalized layer indicators, a basis of the intra-layer part's kernel.

    The kernel is spanned by the part's component indicators, so every layer
    must be one component.  Symmetry of the intra-layer part is left to the
    caller to check.
    """
    labels = components(supra.intra_part)
    n_layers = len(supra.layer_ids)
    if labels.max() + 1 != n_layers:
        raise ValidationError(
            f"intra-layer kernel dimension {labels.max() + 1} != layer count {n_layers}; "
            "every layer must be internally connected with a positive constant"
        )
    indicators = (labels[:, None] == np.arange(n_layers)).astype(float)
    return indicators / np.sqrt(indicators.sum(axis=0))


def lambda2_perturbation_estimate(supra: SupraLaplacian, epsilon: float) -> float:
    """First-order algebraic-connectivity estimate for weak inter-layer coupling.

    Returns epsilon times the second-smallest eigenvalue of the inter-layer
    part projected onto the kernel of the intra-layer part (the per-layer
    normalized indicators).  Exactly linear in epsilon.
    """
    epsilon = _epsilon(epsilon)
    _require_symmetric(supra.intra_part, "the intra-layer part")
    return epsilon * _perturbation_slope(supra)


def _perturbation_slope(supra: SupraLaplacian) -> float:
    """The estimate at epsilon = 1; the caller checks the intra part's symmetry."""
    if len(supra.layer_ids) < 2:
        raise ValidationError("the perturbation estimate needs at least 2 layers")
    basis = _layer_kernel_basis(supra)
    projected = basis.T @ supra.inter_part @ basis
    return float(np.linalg.eigvalsh(projected)[1])


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    lambda2_actual: float
    lambda2_estimate: float
    rel_error: float


# Lanczos stops once the top Ritz pair's residual bound is this fraction of
# its Ritz value.
_LANCZOS_RTOL = 1e-8


def _lambda2(supra: SupraLaplacian, epsilon: float, work: np.ndarray) -> float:
    """lambda_2 of intra + epsilon * inter, for a connected operator.

    The operator is built in ``work``, which is overwritten, and shifted there
    by (s/n) 1 1^T with s = 2 max(diag), a Gershgorin bound on the largest
    eigenvalue of a Laplacian: the constant vector's zero eigenvalue moves up
    to s and lambda_2 becomes the smallest eigenvalue.  The shifted matrix is
    factored once, in place, and Lanczos with full reorthogonalization runs on
    its inverse, one triangular solve pair per step, until the top Ritz pair
    (theta, y) has beta_k |y_k| <= _LANCZOS_RTOL * theta; lambda_2 is
    1 / theta.  The start vector is drawn from a fixed seed: vectors built
    from the layers share the graph's symmetries and can be orthogonal to
    the Fiedler vector.  A failed factorization means lambda_2 is at rounding
    level, and the dense eigenvalues decide.
    """
    n = work.shape[0]
    terms = ((supra.inter_part, epsilon), (supra.intra_part, 1.0))
    _scatter_sum(terms, work)
    work += 2.0 * float(np.diagonal(work).max()) / n
    try:
        # The transpose is Fortran-ordered, so neither the factorization nor
        # the solves copy it.
        factor, _ = scipy.linalg.cho_factor(
            work.T, lower=False, overwrite_a=True, check_finite=False
        )
    except np.linalg.LinAlgError:
        return float(np.linalg.eigvalsh(_scatter_sum(terms, work))[1])
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((0, n))
    alpha: list[float] = []
    beta: list[float] = []
    for k in range(n):
        basis = np.vstack([basis, q])
        # U^T U w = q as two one-vector triangular solves: potrs's one-column
        # trsm costs about twice as much.
        w = scipy.linalg.blas.dtrsv(factor, q, trans=1)
        w = scipy.linalg.blas.dtrsv(factor, w, trans=0, overwrite_x=1)
        alpha.append(float(q @ w))
        for _ in range(2):  # full reorthogonalization: twice is enough
            w -= (basis @ w) @ basis
        norm = float(np.linalg.norm(w))
        theta, ritz = scipy.linalg.eigh_tridiagonal(
            alpha, beta, select="i", select_range=(k, k)
        )
        if norm * abs(ritz[-1, 0]) <= _LANCZOS_RTOL * theta[0]:
            break
        beta.append(norm)
        q = w / norm
    return float(1.0 / theta[0])


def _checked_connected(supra: SupraLaplacian) -> bool:
    """Whether the operator's graph is connected, its CSR sum checked to be
    symmetric first.

    The parts have disjoint off-diagonal supports, so the sum is symmetric
    exactly when both parts are.
    """
    _require_symmetric(supra.csr, "the supra-Laplacian")
    return bool(components(supra.csr).max() == 0)


@dataclass(frozen=True)
class SpectralSummary:
    """The algebraic connectivity of an operator."""

    lambda2: float


def spectrum(supra: SupraLaplacian) -> SpectralSummary:
    """lambda_2 of the operator, by the sweep's solver at epsilon = 1.

    It is exactly 0 when the operator's graph is disconnected; otherwise it
    costs one Cholesky factorization and a few Lanczos solves.
    """
    connected = _checked_connected(supra)
    if supra.n_nodes < 2:
        raise ValidationError("spectral analysis needs at least 2 nodes")
    lambda2 = _lambda2(supra, 1.0, np.empty(supra.csr.shape)) if connected else 0.0
    return SpectralSummary(lambda2=lambda2)


def connectivity_sweep(
    network: InterconnectedNetwork,
    constants: DiffusionConstants,
    epsilon_grid: Sequence[float],
) -> list[SweepPoint]:
    """Actual versus first-order-estimated algebraic connectivity over a grid.

    The grid must be nonempty, with every epsilon finite and >= 0.  Symmetry
    (of intra + inter, which covers both parts), intra-layer connectivity, the
    slope of the estimate and the components of the coupled operator are
    checked and taken once.  The actual lambda_2 is exactly 0 at epsilon = 0
    (one component per layer, at least two layers) and at every epsilon when
    the coupled operator is disconnected; any other epsilon costs one Cholesky
    factorization and a few Lanczos solves of intra + epsilon * inter, in one
    n x n work array kept for the whole grid.
    """
    if len(epsilon_grid) == 0:
        raise ValidationError("the epsilon grid is empty")
    epsilons = [_epsilon(e) for e in epsilon_grid]
    base = assemble_supra_laplacian(network, constants)
    # The sum's symmetry covers the estimate's check of the intra part.
    connected = _checked_connected(base)
    slope = _perturbation_slope(base)
    zero_floor = 1e-12 * (1.0 + float(np.abs(base.csr.data).max(initial=0.0)))
    work = np.empty(base.csr.shape) if connected and max(epsilons) > 0 else None
    points = []
    for epsilon in epsilons:
        actual = _lambda2(base, epsilon, work) if epsilon > 0 and connected else 0.0
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
            list(map(float, (p.epsilon, p.lambda2_actual, p.lambda2_estimate, p.rel_error)))
            for p in points
        ),
    )
