"""The exact Fibonacci oracle.

The oracle works in exact integer/rational arithmetic for the constant
system matrix A = [[1, 1], [1, 0]] with periodic boundary conditions,
providing an independent ground truth for the general solver and pinning
the exponent convention of the closed-form coefficient tables by
computation (determinant cross-check) rather than typography.

Matrices and vectors are numpy object arrays of Python ints and Fractions,
so ``@`` and ``np.linalg.matrix_power`` are exact.
"""

import numpy as np

__all__ = [
    "FIB_MATRIX",
    "fib",
    "fib_delta",
    "fib_delta_exponent_offset",
    "fib_green_coeffs",
    "fib_green_matrix_oracle",
    "fib_periodic_particular",
]

FIB_MATRIX = np.array([[1, 1], [1, 0]], dtype=object)
FIB_MATRIX.flags.writeable = False


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


def _periodic_Q(k: int) -> np.ndarray:
    """Exact Q = A^k - I of the periodic boundary over k steps."""
    return np.linalg.matrix_power(FIB_MATRIX, k) - np.eye(2, dtype=int)


def _det(X):
    return X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0]


def _adjugate(X):
    return np.array([[X[1, 1], -X[0, 1]], [-X[1, 0], X[0, 0]]], dtype=object)


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
        if all(_det(_periodic_Q(m + s)) == fib_delta(m) for m in range(1, m_max + 1)):
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
    power = np.linalg.matrix_power
    M = (power(FIB_MATRIX, n + offset) @ _adjugate(_periodic_Q(m + offset))
         @ power(FIB_MATRIX, m - k + offset))
    return tuple(M.flat)


def fib_periodic_particular(f, m: int):
    """Exact particular periodic solution of z(n+1) = A z(n) + f(n),
    z(m) = z(0), as a list of m+1 Fraction pairs.

    Uses the self-consistent convention Phi(n, i) = A^{n-i}: with
    Q = A^m - I and g(n) = sum_{i<n} A^{n-1-i} f(i), the minimum-defect
    initial state is z0 = -Q^{-1} g(m) and z(n) = A^n z0 + g(n). Q is
    invertible for every m >= 1 (its determinant is never zero), so this
    is the unique periodic solution.
    """
    from fractions import Fraction  # its only user: importing resbvp does not load fractions
    if m < 1:
        raise ValueError("m must be >= 1")
    g = [np.zeros(2, dtype=object)]
    for row in f[:m]:
        g.append(FIB_MATRIX @ g[-1] + [Fraction(x) for x in row])  # exact for a float too
    Q = _periodic_Q(m)
    z0 = _adjugate(Q) @ -g[m] / _det(Q)
    return [tuple(np.linalg.matrix_power(FIB_MATRIX, n) @ z0 + gn) for n, gn in enumerate(g)]
