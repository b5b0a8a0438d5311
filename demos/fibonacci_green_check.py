"""Exact integer cross-checks of the Fibonacci closed forms.

For the companion system z(n+1) = [[1,1],[1,0]] z(n) + f(n) with periodic
boundary conditions, the Green operator has closed-form entries expressed
through Fibonacci numbers divided by a determinant Delta(m).  This script
re-derives everything in exact integer/rational arithmetic and compares it
against the printed coefficient formulas and the floating-point solver.

Run:  python3 demos/fibonacci_green_check.py
"""

from fractions import Fraction

import numpy as np

from resbvp import LinearBVP, OperatorSequence, periodic
from resbvp.fibonacci import (
    FIB_MATRIX,
    fib_delta,
    fib_delta_exponent_offset,
    fib_green_coeffs,
    fib_green_matrix_oracle,
    fib_periodic_particular,
)


def main():
    offset = fib_delta_exponent_offset(20)
    print(f"exponent convention fixed by exact determinants: "
          f"Phi(m, 0) ~ A^(m+{offset})")
    print("\n m   Delta(m)")
    for m in range(1, 11):
        print(f" {m:2d}  {fib_delta(m)}")

    print("\ncoefficient formulas vs exact matrix oracle at (n, m, k) = (0, 3, 1):")
    print(f"  printed : {fib_green_coeffs(0, 3, 1)}")
    print(f"  oracle  : {fib_green_matrix_oracle(0, 3, 1)}")
    print("  (top-row entries agree everywhere; bottom-row formulas do not)")

    # End-to-end: exact rational periodic solution vs the float solver.
    m = 8
    rng = np.random.default_rng(3)
    f_exact = [tuple(Fraction(int(v), 4) for v in row)
               for row in rng.integers(-4, 5, (m, 2))]
    oracle = fib_periodic_particular(f_exact + [(Fraction(0), Fraction(0))], m)

    system = OperatorSequence.constant(FIB_MATRIX, m)
    f = np.array([[float(a), float(b)] for a, b in f_exact])
    family = LinearBVP(system, periodic(2, m)).solve(f)
    got = family.member(np.zeros(0))
    want = np.array([[float(a), float(b)] for a, b in oracle])
    print(f"\nperiodic particular solution, m = {m} "
          f"({family.report.classification}):")
    print(f"  z(0) exact = ({oracle[0][0]}, {oracle[0][1]})")
    print(f"  z(0) float = ({got[0][0]:.12g}, {got[0][1]:.12g})")
    print(f"  max abs deviation over the window: {np.abs(got - want).max():.2e}")


if __name__ == "__main__":
    main()
