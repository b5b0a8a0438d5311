"""Discrete Lotka-Volterra nonlinearities and the exact Fibonacci oracle.

The state stacks p prey components x_1..x_p followed by p predator
components y_1..y_p. The nonlinearity per pair is

    Zx_i = g1_i(n) x_i (1 - sum_j a_ij(n) y_j),
    Zy_i = g2_i(n) y_i (1 - sum_j b_ij(n) x_j),

with the interaction sums running over the first t components.

The Fibonacci oracle works in exact integer/rational arithmetic for the
constant system matrix A = [[1, 1], [1, 0]] with periodic boundary
conditions, providing an independent ground truth for the general solver
and pinning the exponent convention of the closed-form coefficient tables
by computation (determinant cross-check) rather than typography.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "LotkaVolterraSpec",
    "lv_nonlinearity",
    "lv_derivative",
    "lv_callables",
    "FIB_MATRIX",
    "fib",
    "fib_matrix_power",
    "fib_delta",
    "fib_delta_exponent_offset",
    "fib_green_coeffs",
    "fib_green_matrix_oracle",
    "fib_periodic_particular",
]


# ---------------------------------------------------------------------------
# Lotka-Volterra nonlinearity
# ---------------------------------------------------------------------------

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
        for name in ("a", "b"):
            arr = getattr(self, name)
            if arr.ndim not in (2, 3) or arr.shape[-2] != p or arr.shape[-1] != t:
                raise ValueError(f"{name} must have shape (p, t) or (m, p, t) with p={p}")
        if t > p:
            raise ValueError(f"interaction count t={t} exceeds pairs p={p}")

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
    """States, tables at times n and interaction sums (a y, b x), batched."""
    z = np.asarray(z, dtype=float)
    p, t = spec.pairs, spec.interactions
    if z.shape[-1:] != (2 * p,):
        raise ValueError(f"state must have shape (..., {2 * p}), got {z.shape}")
    x, y = z[..., :p], z[..., p:]
    g1, g2 = _at(spec.g1, n, 2), _at(spec.g2, n, 2)
    a, b = _at(spec.a, n, 3), _at(spec.b, n, 3)
    ay = (a @ y[..., :t, None])[..., 0]
    bx = (b @ x[..., :t, None])[..., 0]
    return x, y, g1, g2, a, b, ay, bx


def lv_nonlinearity(spec: LotkaVolterraSpec, z, n) -> np.ndarray:
    """Stacked (Zx, Zy) at states z = (x_1..x_p, y_1..y_p), shape (..., 2p),
    and integer times n broadcasting to z.shape[:-1]."""
    x, y, g1, g2, _, _, ay, bx = _split(spec, z, n)
    return np.concatenate([g1 * x * (1.0 - ay), g2 * y * (1.0 - bx)], axis=-1)


def lv_derivative(spec: LotkaVolterraSpec, z, n) -> np.ndarray:
    """Exact Jacobian of lv_nonlinearity in z, shape (..., 2p, 2p)."""
    x, y, g1, g2, a, b, ay, bx = _split(spec, z, n)
    p, t = spec.pairs, spec.interactions
    J = np.zeros(x.shape[:-1] + (2 * p, 2 * p))
    i = np.arange(p)
    J[..., i, i] = g1 * (1.0 - ay)
    J[..., :p, p:p + t] = -(g1 * x)[..., None] * a
    J[..., p:, :t] = -(g2 * y)[..., None] * b
    J[..., p + i, p + i] = g2 * (1.0 - bx)
    return J


def lv_callables(spec: LotkaVolterraSpec):
    """(Z, Z_du) pair for NonlinearProblem; the nonlinearity carries no
    explicit eps dependence."""
    def Z(z, n, eps):
        return lv_nonlinearity(spec, z, n)

    def Z_du(z, n, eps):
        return lv_derivative(spec, z, n)

    return Z, Z_du


# ---------------------------------------------------------------------------
# Exact Fibonacci oracle (integer arithmetic throughout)
# ---------------------------------------------------------------------------

FIB_MATRIX = ((1, 1), (1, 0))


def fib(k: int) -> int:
    """Fibonacci numbers with the convention F_0 = F_1 = 1 (F_{-1} = 0)."""
    if k < -1:
        raise ValueError("index below -1 not supported")
    if k == -1:
        return 0
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _mat_mul(X, Y):
    return (
        (X[0][0] * Y[0][0] + X[0][1] * Y[1][0], X[0][0] * Y[0][1] + X[0][1] * Y[1][1]),
        (X[1][0] * Y[0][0] + X[1][1] * Y[1][0], X[1][0] * Y[0][1] + X[1][1] * Y[1][1]),
    )


def fib_matrix_power(k: int):
    """Exact integer A^k for A = [[1, 1], [1, 0]], k >= 0."""
    if k < 0:
        raise ValueError("negative power not supported")
    R = ((1, 0), (0, 1))
    for _ in range(k):
        R = _mat_mul(R, FIB_MATRIX)
    return R


def _mat_sub_identity(X):
    return ((X[0][0] - 1, X[0][1]), (X[1][0], X[1][1] - 1))


def _det(X):
    return X[0][0] * X[1][1] - X[0][1] * X[1][0]


def _adjugate(X):
    return ((X[1][1], -X[0][1]), (-X[1][0], X[0][0]))


def fib_delta(m: int) -> int:
    """Closed-form determinant Delta(m) = (F_{m+2} - 1)(F_m - 1) - F_{m+1}^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (fib(m + 2) - 1) * (fib(m) - 1) - fib(m + 1) ** 2


def fib_delta_exponent_offset(m_max: int) -> int | None:
    """The offset s in 0..6 with Delta(m) == det(A^{m+s} - I) for every
    m <= m_max.

    Pins, by exact computation, which A-power the closed-form tables
    actually refer to. Returns None when no single offset works.
    """
    found = None
    for s in range(7):
        if all(_det(_mat_sub_identity(fib_matrix_power(m + s))) == fib_delta(m)
               for m in range(1, m_max + 1)):
            if found is not None:
                return None  # ambiguous
            found = s
    return found


def fib_green_coeffs(n: int, m: int, k: int):
    """The four closed-form coefficients (a11, a12, a21, a22) at (n, m, k),
    evaluated verbatim in integer arithmetic."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    F = fib
    a11 = (F(n + 2) * (F(m) * F(m - k + 2) - F(m + 1) * F(m - k + 1))
           - (F(n + 2) * F(m - k + 2) + F(n + 1) * F(m - k + 1))
           + F(n + 1) * (F(m + 2) * F(m - k + 1) - F(m + 1) * F(m - k + 2)))
    a12 = (F(n + 2) * (F(m) * F(m - k + 1) - F(m + 1) * F(m - k))
           - (F(n + 2) * F(m - k + 1) + F(n + 1) * F(m - k))
           + F(n + 1) * (F(m + 2) * F(m - k) - F(m + 1) * F(m - k + 1)))
    a21 = (F(n + 1) * (F(m) * F(m - k + 2) - F(m + 1) * F(m - k + 1))
           - (F(n + 1) * F(m - k + 2) + F(n + 1) * F(m - k + 1))
           + F(n) * (F(m + 2) * F(m - k + 1) - F(m + 1) * F(m - k + 2)))
    a22 = (F(n + 1) * (F(m) * F(m - k + 1) - F(m + 1) * F(m - k))
           - (F(n + 2) * F(m - k + 1) + F(n + 1) * F(m - k))
           + F(n + 1) * (F(m + 2) * F(m - k) - F(m + 1) * F(m - k + 1)))
    return a11, a12, a21, a22


def fib_green_matrix_oracle(n: int, m: int, k: int, offset: int = 2):
    """Exact coefficient matrix A^{n+offset} adj(Q) A^{m-k+offset} with
    Q = A^{m+offset} - I, flattened to (a11, a12, a21, a22).

    With the determinant-pinned offset this is Delta(m) times the Green
    kernel, i.e. the quantity the closed-form tables are meant to equal.
    """
    Q = _mat_sub_identity(fib_matrix_power(m + offset))
    M = _mat_mul(_mat_mul(fib_matrix_power(n + offset), _adjugate(Q)),
                 fib_matrix_power(m - k + offset))
    return M[0][0], M[0][1], M[1][0], M[1][1]


def _as_fraction_vec(v):
    return tuple(Fraction(x).limit_denominator(10 ** 15) if isinstance(x, float)
                 else Fraction(x) for x in v)


def fib_periodic_particular(f, m: int):
    """Exact particular periodic solution of z(n+1) = A z(n) + f(n),
    z(m) = z(0), as a list of m+1 Fraction pairs.

    Uses the self-consistent convention Phi(n, i) = A^{n-i}: with
    Q = A^m - I and g(n) = sum_{i<n} A^{n-1-i} f(i), the minimum-defect
    initial state is z0 = -Q^{-1} g(m) and z(n) = A^n z0 + g(n). Q is
    invertible for every m >= 1 (its determinant is never zero), so this
    is the unique periodic solution.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    fr = [_as_fraction_vec(f[k]) for k in range(m)]
    g = [(Fraction(0), Fraction(0))]
    for n in range(m):
        gn = g[-1]
        g.append((gn[0] + gn[1] + fr[n][0], gn[0] + fr[n][1]))  # A @ g + f
    Q = _mat_sub_identity(fib_matrix_power(m))
    det = _det(Q)
    adj = _adjugate(Q)
    h = (-g[m][0], -g[m][1])
    z0 = (Fraction(adj[0][0] * h[0] + adj[0][1] * h[1], det),
          Fraction(adj[1][0] * h[0] + adj[1][1] * h[1], det))
    traj = [z0]
    for n in range(m):
        zn = traj[-1]
        traj.append((zn[0] + zn[1] + fr[n][0], zn[0] + fr[n][1]))
    return traj
