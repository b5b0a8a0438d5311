"""Dense generalized-inverse primitives: numerical rank, Moore-Penrose
pseudoinverse, and orthoprojectors onto kernel and cokernel.

All functions are pure and operate on plain float ndarrays. Rank decisions
are made once per matrix and reused so that the pseudoinverse and both
projectors are mutually consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DecompositionError",
    "RankDecision",
    "as_matrix",
    "numerical_rank",
    "pseudoinverse",
    "kernel_projector",
    "cokernel_projector",
    "kernel_basis",
    "cokernel_basis",
]


class DecompositionError(RuntimeError):
    """Raised when the singular value decomposition fails to converge."""


def as_matrix(M) -> np.ndarray:
    """Validate and coerce input to a 2-d float array with finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={A.ndim}")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise ValueError(f"matrix must be nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return A


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank of a matrix under an explicit singular-value cutoff.

    Carries the SVD factors so that downstream pseudoinverse/projector
    constructions are consistent with the rank decision that produced them.
    """

    rank: int
    tolerance: float
    singular_values: np.ndarray
    u: np.ndarray = field(repr=False)
    vt: np.ndarray = field(repr=False)


def numerical_rank(M, tol: float | None = None) -> RankDecision:
    """Singular values and rank of M under one cutoff policy.

    With ``tol=None`` the cutoff is the standard ``max(rows, cols) * eps *
    sigma_max``. A given ``tol`` sets the cutoff ``tol * (1 + sigma_max)``:
    relative to sigma_max for large matrices, with an absolute floor for
    matrices that may be numerically zero (the Q of a fully resonant
    problem, where every entry is roundoff, or a vanishing B0).
    """
    A = as_matrix(M)
    try:
        u, s, vt = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge for shape {A.shape}") from exc
    smax = float(s[0])
    if tol is None:
        cutoff = max(A.shape) * np.finfo(float).eps * smax
    else:
        cutoff = float(tol) * (1.0 + smax)
    rank = int(np.count_nonzero(s > cutoff))
    return RankDecision(rank=rank, tolerance=cutoff, singular_values=s, u=u, vt=vt)


def _decision(M: np.ndarray, rd: RankDecision | None) -> RankDecision:
    return numerical_rank(M) if rd is None else rd


def pseudoinverse(M, rd: RankDecision | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse, inverting only above-cutoff singular values."""
    A = as_matrix(M)
    rd = _decision(A, rd)
    r = rd.rank
    if r == 0:
        return np.zeros((A.shape[1], A.shape[0]))
    return rd.vt[:r].T @ (rd.u[:, :r] / rd.singular_values[:r]).T


def kernel_projector(M, rd: RankDecision | None = None) -> np.ndarray:
    """Orthoprojector I - M^+ M onto the kernel of M (cols x cols)."""
    A = as_matrix(M)
    rd = _decision(A, rd)
    return np.eye(A.shape[1]) - pseudoinverse(A, rd) @ A


def cokernel_projector(M, rd: RankDecision | None = None) -> np.ndarray:
    """Orthoprojector I - M M^+ onto the kernel of M* (rows x rows)."""
    A = as_matrix(M)
    rd = _decision(A, rd)
    return np.eye(A.shape[0]) - A @ pseudoinverse(A, rd)


def kernel_basis(M, rd: RankDecision | None = None) -> np.ndarray:
    """Orthonormal basis of N(M), shape (cols, cols - rank)."""
    A = as_matrix(M)
    rd = _decision(A, rd)
    return rd.vt[rd.rank:].T.copy()


def cokernel_basis(M, rd: RankDecision | None = None) -> np.ndarray:
    """Orthonormal basis of N(M*), shape (rows, rows - rank)."""
    A = as_matrix(M)
    rd = _decision(A, rd)
    return rd.u[:, rd.rank:].copy()
