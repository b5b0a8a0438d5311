"""Weakly nonlinear pipeline on the resonant rotation benchmark.

The system rotates the plane by 2*pi/m each step, so after m steps the
monodromy is the identity and the periodic problem is fully resonant
(r = d = 2).  A predator-prey style quadratic perturbation

    z(n+1) = A z(n) + f(n) + eps * Z(z(n))

selects isolated members of the generating family.  The script classifies
the linear part, then runs `solve` (generating root, sufficiency gate and
contraction-style iteration) at several eps and measures how far the
perturbed solution drifts from the generating one as eps shrinks.

Run:  python3 demos/weakly_nonlinear_rotation.py
"""

import numpy as np

from resbvp import (
    LinearBVP,
    LotkaVolterraSpec,
    NonlinearProblem,
    OperatorSequence,
    lv_callables,
    particular_forced,
    periodic,
    residuals,
    rotation_matrix,
    solve,
)
from resbvp.problem_io import DEFAULT_SOLVER, DEFAULT_TOLERANCES


def linear_family():
    """The solution family of the linear part, from its one LinearBVP."""
    m = 6
    system = OperatorSequence.constant(rotation_matrix(2 * np.pi / m), m)
    rng = np.random.default_rng(42)
    f = 0.3 * rng.standard_normal((m, 2))
    f[m - 1] -= particular_forced(system, f)[m]  # make the window sum close
    return LinearBVP(system, periodic(2, m)).solve(f)


def main():
    # one family, shared by the NonlinearProblem of every eps below
    family = linear_family()
    system, l = family.bvp.system, family.bvp.boundary
    Z, Z_du = lv_callables(LotkaVolterraSpec.uniform(1))
    print(f"linear part: {family.report.classification}, r = {family.kernel_dim}, "
          f"d = {family.cokernel_dim}")

    # the problem file's defaults, Newton started from c = (0.5, 0.5)
    solver = {**DEFAULT_SOLVER, "c_init": [0.5, 0.5]}
    eps_grid = (1e-2, 1e-3, 1e-4, 0.0)
    solutions = [solve(NonlinearProblem(family, Z, Z_du, eps), DEFAULT_TOLERANCES, solver)
                 for eps in eps_grid]
    root, gate = solutions[-1].root, solutions[-1].gate  # the same at every eps
    print(f"generating root c0 = {root.c0}, |F(c0)| = {root.residual_norm:.2e}")
    print(f"sufficiency gate: row rank {gate.row_rank}/{gate.required_rank} "
          f"-> {'holds' if gate.holds else 'fails'}")

    print("\n eps       iters   |z - z0|_inf   recurrence   boundary")
    for eps, sol in zip(eps_grid, solutions):
        z, trace = sol.z, sol.trace
        gap = np.abs(z - family.member(root.c0)).max()
        m = system.horizon
        rec, bc = residuals(system, l, family.forcing, z, eps * Z(z[:m], np.arange(m), eps))
        print(f" {eps:8.0e}  {trace.iterations:5d}   {gap:12.4e}   {rec:10.2e}   {bc:10.2e}")
    print("\nThe gap shrinks linearly with eps and vanishes exactly at eps = 0,")
    print("where the iteration returns the generating solution unchanged.")


if __name__ == "__main__":
    main()
