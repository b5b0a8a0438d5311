"""Boundary operators: finite weighted sums of trajectory samples.

A boundary operator acts on a trajectory ``z`` (array of shape (m+1, N), or
a stack of them) as ``l z = sum_k L_k z(n_k)`` and carries its own target
vector alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BoundaryOperator", "generic", "periodic", "multipoint", "initial_mass"]


@dataclass(frozen=True)
class BoundaryOperator:
    """Linear form l z = sum_k L_k z(n_k) with target alpha.

    samples: tuple of (time point n_k, weight matrix L_k of shape (q, N))
    target:  alpha in R^q
    """

    samples: tuple = field()
    target: np.ndarray = field()

    def __post_init__(self):
        samples = tuple((int(n), np.asarray(L, dtype=float)) for n, L in self.samples)
        target = np.asarray(self.target, dtype=float).reshape(-1)
        q = target.shape[0]
        if q == 0:
            raise ValueError("boundary operator needs at least one condition (q >= 1)")
        for n, L in samples:
            if n < 0:
                raise ValueError(f"sample point {n} is negative")
            if L.ndim != 2 or L.shape[0] != q:
                raise ValueError(f"weight matrix at point {n} has shape {L.shape}, expected ({q}, N)")
            if not np.all(np.isfinite(L)):
                raise ValueError(f"weight matrix at point {n} has non-finite entries")
        dims = {L.shape[1] for _, L in samples}
        if len(dims) > 1:
            raise ValueError(f"inconsistent state dimensions across weights: {sorted(dims)}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "target", target)

    @property
    def codim(self) -> int:
        return self.target.shape[0]

    @property
    def dim(self) -> int | None:
        return self.samples[0][1].shape[1] if self.samples else None

    @property
    def max_point(self) -> int:
        return max((n for n, _ in self.samples), default=0)

    def apply(self, trajectory: np.ndarray) -> np.ndarray:
        """Evaluate l on a trajectory of shape (m+1, N), or on a stack of
        them, shape (..., m+1, N), giving shape (..., q).

        Each sample is one (q, N) @ (N, 1) product per trajectory, so every
        row of a stacked result equals l of that trajectory alone bit for bit.
        """
        z = np.asarray(trajectory, dtype=float)
        out = np.zeros(z.shape[:-2] + (self.codim,))
        for n, L in self.samples:
            if n >= z.shape[-2]:
                raise ValueError(
                    f"sample point {n} outside trajectory window of length {z.shape[-2]}")
            out += (L @ z[..., n, :, None])[..., 0]
        return out


def generic(samples, target) -> BoundaryOperator:
    """Boundary operator from explicit (point, weight matrix) pairs."""
    return BoundaryOperator(samples=tuple(samples), target=target)


def periodic(dim: int, m: int) -> BoundaryOperator:
    """Periodicity condition z(m) - z(0) = 0."""
    if m < 1:
        raise ValueError("periodic boundary requires horizon m >= 1")
    eye = np.eye(dim)
    return BoundaryOperator(samples=((m, eye), (0, -eye)), target=np.zeros(dim))


def multipoint(dim: int, groups, targets) -> BoundaryOperator:
    """Row-summing multi-point conditions.

    Each group is a pair (components, points); its scalar condition is
    ``sum over points of sum over components of z_component(point)``.
    One row per group; targets gives the right-hand side per group.
    """
    groups = list(groups)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if not groups:
        raise ValueError("multipoint boundary requires at least one group")
    if targets.shape[0] != len(groups):
        raise ValueError(f"{len(groups)} groups but {targets.shape[0]} targets")
    q = len(groups)
    weights: dict[int, np.ndarray] = {}
    for row, (components, points) in enumerate(groups):
        components = list(components)
        points = list(points)
        if not components or not points:
            raise ValueError(f"group {row} must have nonempty components and points")
        for comp in components:
            if not 0 <= comp < dim:
                raise ValueError(f"component index {comp} outside state dimension {dim}")
        for n in points:
            if n < 0:
                raise ValueError(f"sample point {n} is negative")
            L = weights.setdefault(int(n), np.zeros((q, dim)))
            for comp in components:
                L[row, comp] += 1.0
    samples = tuple((n, weights[n]) for n in sorted(weights))
    return BoundaryOperator(samples=samples, target=targets)


def initial_mass(pairs: int) -> BoundaryOperator:
    """Initial population-distribution condition: the x-components sum to 1
    and the y-components sum to 1 at time 0 (state stacked x-block then
    y-block, dimension 2*pairs)."""
    dim = 2 * pairs
    groups = [(range(pairs), [0]), (range(pairs, dim), [0])]
    return multipoint(dim, groups, [1.0, 1.0])
