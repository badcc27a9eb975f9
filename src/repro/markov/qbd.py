"""Quasi-birth-death (QBD) process utilities.

A QBD is a CTMC whose states are grouped into *levels* such that transitions
only go one level up (block ``A0``), stay within the level (``A1``), or one
level down (``A2``), with the blocks independent of the level in the
repeating portion.  The stationary tail is matrix-geometric:
``pi_{k+1} = pi_k R`` where R is the minimal non-negative solution of

    A0 + R A1 + R^2 A2 = 0.

The SBUS Markov chain of the paper is exactly of this shape once states are
grouped by the number of tasks in the system (Section III / Fig. 3); the
matrix-geometric solver provides a truncation-free answer that the paper's
own truncated procedure can be validated against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


def solve_rate_matrix(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                      tolerance: float = 1e-14, max_iterations: int = 200000) -> np.ndarray:
    """Minimal non-negative solution R of ``A0 + R A1 + R^2 A2 = 0``.

    Uses the classic fixed-point iteration ``R <- -(A0 + R^2 A2) A1^{-1}``,
    which converges monotonically from R = 0 for irreducible positive-
    recurrent QBDs.  ``A1`` is LU-factored once and each step solves
    against the factors (``X A1^{-1}`` as a transposed solve) instead of
    forming the explicit inverse.
    """
    from scipy.linalg import lu_factor, lu_solve

    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    size = a0.shape[0]
    for matrix, name in ((a0, "A0"), (a1, "A1"), (a2, "A2")):
        if matrix.shape != (size, size):
            raise AnalysisError(f"{name} has shape {matrix.shape}, expected {(size, size)}")
    a1_factors = lu_factor(a1.T)
    rate_matrix = np.zeros_like(a0)
    for _ in range(max_iterations):
        # X A1^{-1} = (A1^T \ X^T)^T on the cached factors.
        updated = -lu_solve(a1_factors,
                            (a0 + rate_matrix @ rate_matrix @ a2).T).T
        if np.max(np.abs(updated - rate_matrix)) < tolerance:
            rate_matrix = updated
            break
        rate_matrix = updated
    else:
        raise AnalysisError("rate-matrix iteration did not converge")
    spectral_radius = max(abs(np.linalg.eigvals(rate_matrix)))
    if spectral_radius >= 1.0 - 1e-10:
        raise AnalysisError(
            f"QBD is not positive recurrent (sp(R) = {spectral_radius:.6f}); "
            "the offered load is too high"
        )
    return rate_matrix


def drift_condition(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> float:
    """Mean drift ``theta A0 1 - theta A2 1`` of the repeating portion.

    Negative drift is the stability condition; ``theta`` is the stationary
    vector of the phase generator ``A = A0 + A1 + A2``.
    """
    phase_generator = np.asarray(a0) + np.asarray(a1) + np.asarray(a2)
    size = phase_generator.shape[0]
    system = phase_generator.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    theta = np.linalg.solve(system, rhs)
    up_rate = float(theta @ np.asarray(a0).sum(axis=1))
    down_rate = float(theta @ np.asarray(a2).sum(axis=1))
    return up_rate - down_rate


def geometric_tail_sums(boundary_vector: np.ndarray,
                        rate_matrix: np.ndarray) -> tuple:
    """Common sums over the geometric tail ``pi_K R^j``.

    Returns ``(total_mass, first_moment_weight)`` where ``total_mass`` is
    ``pi_K (I - R)^{-1} 1`` and ``first_moment_weight`` is
    ``pi_K R (I - R)^{-2} 1`` (the sum of ``j * pi_K R^j 1``).

    Solves against the two needed right-hand sides instead of forming the
    explicit inverse of ``I - R`` (better conditioned and cheaper).
    """
    size = rate_matrix.shape[0]
    identity = np.eye(size)
    ones = np.ones(size)
    # weights = (I - R)^{-1} 1 and second_weights = (I - R)^{-2} 1.
    weights = np.linalg.solve(identity - rate_matrix, ones)
    second_weights = np.linalg.solve(identity - rate_matrix, weights)
    total_mass = float(boundary_vector @ weights)
    first_moment = float(boundary_vector @ rate_matrix @ second_weights)
    return total_mass, first_moment
