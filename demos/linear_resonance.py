"""Linear resonance walk-through.

Solves two periodic boundary-value problems side by side:

  * A_n = I  (fully resonant: Q = 0, every initial vector yields a periodic
    homogeneous solution, so solvability depends entirely on the forcing)
  * A_n = Fibonacci companion matrix (Q = A^m - I invertible: a single
    classical solution exists for any forcing)

Run:  python3 demos/linear_resonance.py
"""

import numpy as np

from resbvp import (
    LinearBVP,
    OperatorSequence,
    periodic,
    residuals,
)


def show(title, system, f, l):
    print(f"\n=== {title} ===")
    family = LinearBVP(system, l).solve(f)
    report = family.report
    print(f"classification : {report.classification}")
    print(f"kernel dim r   : {report.kernel_dim}")
    print(f"cokernel dim d : {report.cokernel_dim}")
    print(f"Fredholm index : {report.fredholm_index}")
    print(f"defect norm    : {report.defect_norm:.3e}")

    z = family.member(np.ones(family.kernel_dim))
    print(f"sample member  : z(0) = {z[0]},  z(m) = {z[-1]}")
    rec, bc = residuals(system, l, f, z)
    print(f"recurrence residual = {rec:.2e},  boundary residual = {bc:.2e}")


def main():
    m, N = 6, 2
    rng = np.random.default_rng(1)

    # Fully resonant: the identity system admits periodic solutions only for
    # forcing whose window sum vanishes; we construct such a forcing.
    f = rng.standard_normal((m, N))
    f[-1] -= f.sum(axis=0)
    show("identity system, compatible forcing (solution family)",
         OperatorSequence.identity(N, m), f, periodic(N, m))

    # The same system with generic forcing has no periodic solution at all;
    # the solver reports the best least-squares quasisolution instead.
    show("identity system, generic forcing (quasisolution)",
         OperatorSequence.identity(N, m), rng.standard_normal((m, N)),
         periodic(N, m))

    # Non-resonant contrast: Fibonacci growth makes Q invertible.
    fib = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
    show("Fibonacci system (unique classical solution)",
         fib, rng.standard_normal((m, N)), periodic(N, m))


if __name__ == "__main__":
    main()
