"""Dense generalized inverses from one rank decision per matrix.

numerical_rank(M, tol) validates M, takes its SVD once and returns a
RankDecision. The decision gives the Moore-Penrose pseudoinverse and
orthonormal bases of the kernel and cokernel from those same factors, so
all three agree with the rank that was decided and no second SVD of M is
ever taken. The orthoprojectors are I - M^+ M and I - M M^+.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["DecompositionError", "RankDecision", "numerical_rank"]


class DecompositionError(RuntimeError):
    """Raised when the singular value decomposition fails to converge."""


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank of a matrix under an explicit singular-value cutoff,
    with the full SVD factors it was decided from. The factors are
    read-only, so the bases are views of them that cannot go stale."""

    rank: int
    tolerance: float
    singular_values: np.ndarray
    u: np.ndarray = field(repr=False)
    vt: np.ndarray = field(repr=False)

    @cached_property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse, inverting only the singular values
        above the cutoff; shape (cols, rows), all zeros at rank 0. Formed on
        first use, then kept, read-only like the factors."""
        r = self.rank
        P = self.vt[:r].T @ (self.u[:, :r] / self.singular_values[:r]).T
        P.flags.writeable = False
        return P

    @property
    def kernel(self) -> np.ndarray:
        """Orthonormal basis of N(M), shape (cols, cols - rank)."""
        return self.vt[self.rank:].T

    @property
    def cokernel(self) -> np.ndarray:
        """Orthonormal basis of N(M*), shape (rows, rows - rank)."""
        return self.u[:, self.rank:]


def numerical_rank(M, tol: float | None = None) -> RankDecision:
    """Rank decision of a finite 2-d matrix M under one cutoff policy; an
    empty M has rank 0, identity bases and a zero pseudoinverse.

    With ``tol=None`` the cutoff is the standard ``max(rows, cols) * eps *
    sigma_max``. A given ``tol``, which must be >= 0 (NaN is refused too),
    sets the cutoff ``tol * (1 + sigma_max)``:
    relative to sigma_max for large matrices, with an absolute floor for
    matrices that may be numerically zero (the Q of a fully resonant
    problem, where every entry is roundoff, or a vanishing B0).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if tol is not None and not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    try:
        u, s, vt = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge for shape {A.shape}") from exc
    smax = float(s[0]) if s.size else 0.0
    if tol is None:
        cutoff = max(A.shape) * np.finfo(float).eps * smax
    else:
        cutoff = float(tol) * (1.0 + smax)
    rank = int(np.count_nonzero(s > cutoff))
    for factor in (u, s, vt):
        factor.flags.writeable = False
    return RankDecision(rank=rank, tolerance=cutoff, singular_values=s, u=u, vt=vt)
