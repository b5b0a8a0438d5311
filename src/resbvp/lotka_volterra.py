"""Discrete Lotka-Volterra nonlinearities.

The state stacks p prey components x_1..x_p followed by p predator
components y_1..y_p. The nonlinearity per pair is

    Zx_i = g1_i(n) x_i (1 - sum_j a_ij(n) y_j),
    Zy_i = g2_i(n) y_i (1 - sum_j b_ij(n) x_j),

with the interaction sums running over the first t components. A stack's
time-invariant sums are one 2-D product: with t >= 2 a row may differ in its
last bits from its state alone; with t = 1 or time-varying tables it cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LotkaVolterraSpec", "lv_callables"]


@dataclass(frozen=True)
class LotkaVolterraSpec:
    """Gains and interaction tables for p species pairs.

    g1, g2: shape (p,) or (m, p) for time-varying gains.
    a, b:   shape (p, t) or (m, p, t), t <= p interaction columns.
    """

    pairs: int
    g1: np.ndarray
    g2: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        p = self.pairs
        for name in ("g1", "g2", "a", "b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("g1", "g2"):
            arr = getattr(self, name)
            if arr.shape[-1] != p or arr.ndim not in (1, 2):
                raise ValueError(f"{name} must have shape (p,) or (m, p) with p={p}")
        t = self.a.shape[-1]
        if t > p:
            raise ValueError(f"interaction count t={t} exceeds pairs p={p}")
        for name in ("a", "b"):
            arr = getattr(self, name)
            if arr.ndim not in (2, 3) or arr.shape[-2] != p or arr.shape[-1] != t:
                raise ValueError(f"{name} must have shape (p, t) or (m, p, t) with p={p}")

    @property
    def interactions(self) -> int:
        return self.a.shape[-1]

    @classmethod
    def uniform(cls, pairs: int, g1=1.0, g2=1.0, a=1.0, b=1.0) -> "LotkaVolterraSpec":
        p = pairs
        return cls(pairs=p, g1=np.full(p, g1), g2=np.full(p, g2),
                   a=np.full((p, p), a), b=np.full((p, p), b))


def _at(table: np.ndarray, n, time_varying_ndim: int) -> np.ndarray:
    return table[n] if table.ndim == time_varying_ndim else table


def _split(spec: LotkaVolterraSpec, z, n):
    """States, tables at times n and the sums (a y, b x) in one array of z's shape."""
    z = np.asarray(z, dtype=float)
    p, t = spec.pairs, spec.interactions
    if z.shape[-1:] != (2 * p,):
        raise ValueError(f"state must have shape (..., {2 * p}), got {z.shape}")
    x, y = z[..., :p], z[..., p:]
    g1, g2 = _at(spec.g1, n, 2), _at(spec.g2, n, 2)
    a, b = _at(spec.a, n, 3), _at(spec.b, n, 3)
    sums = np.empty(z.shape)
    for full, table, state, out in ((spec.a, a, y, sums[..., :p]), (spec.b, b, x, sums[..., p:])):
        if full.ndim == 2:  # time-invariant: the whole stack in one 2-D product
            np.matmul(state[..., :t], table.T, out=out)
        else:
            out[...] = (table @ state[..., :t, None])[..., 0]
    return x, y, g1, g2, a, b, sums


def lv_callables(spec: LotkaVolterraSpec):
    """(Z, Z_du) pair for NonlinearProblem, with no explicit eps dependence. On
    a stack a time-invariant table's sums are one 2-D product (module docstring)."""
    def Z(z, n, eps):
        """Stacked (Zx, Zy) in the sums' array: (1 - a y)(g1 x) rounds as g1 x (1 - a y)."""
        x, y, g1, g2, _, _, out = _split(spec, z, n)
        p = spec.pairs
        np.subtract(1.0, out, out=out)
        out[..., :p] *= g1 * x
        out[..., p:] *= g2 * y
        return out

    def Z_du(z, n, eps):
        """Exact Jacobian of Z in z, shape (..., 2p, 2p)."""
        x, y, g1, g2, a, b, sums = _split(spec, z, n)
        p, t = spec.pairs, spec.interactions
        J = np.zeros(x.shape[:-1] + (2 * p, 2 * p))
        i = np.arange(p)
        J[..., i, i] = g1 * (1.0 - sums[..., :p])
        J[..., :p, p:p + t] = -(g1 * x)[..., None] * a
        J[..., p:, :t] = -(g2 * y)[..., None] * b
        J[..., p + i, p + i] = g2 * (1.0 - sums[..., p:])
        return J

    return Z, Z_du
