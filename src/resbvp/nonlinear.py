"""Weakly nonlinear solver: generating-constant equation, its linearization
B0, the full-row-rank sufficiency gate, and the fixed-point iteration that
continues a generating solution z0(n, c0) to z(n, eps) = z0 + u.

The perturbed system is

    z(n+1) = A_n z(n) + f(n) + eps * Z(z(n), n, eps),      l z = alpha.

Generating solutions that survive the perturbation are selected by the
bifurcation equation F(c) = 0, where F pushes the nonlinearity evaluated
along a family member through the forcing-to-boundary map and projects
onto the cokernel of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryOperator
from .linalg import numerical_rank
from .linear import (
    QUASISOLUTION,
    OperatorSequence,
    SolutionFamily,
    boundary_residual,
    particular_forced,
    particular_forced_scan,
    recurrence_defect,
)

__all__ = [
    "GeneratingFamilyError",
    "DerivativeMismatchError",
    "NonlinearProblem",
    "GeneratingRoot",
    "SufficiencyCheck",
    "IterationTrace",
    "NO_CONTRACTION_WINDOW",
    "generating_F",
    "solve_generating",
    "assemble_B0",
    "check_sufficient",
    "iterate",
    "verify_derivative",
    "nonlinear_recurrence_residual",
]


class GeneratingFamilyError(ValueError):
    """The linear part is a quasisolution; there is no generating family."""


class DerivativeMismatchError(ValueError):
    """Supplied derivative disagrees with finite differences of Z."""


@dataclass(frozen=True)
class NonlinearProblem:
    """Linear BVP data plus the nonlinearity and its state derivative.

    Z(z, n, eps) maps R^N -> R^N; Z_du(z, n, eps) is its N x N Jacobian
    in z. eps is the perturbation size of the solve. Both are batched over
    states z of shape (..., N) and integer times n broadcasting to
    z.shape[:-1], returning (..., N) and (..., N, N). The assembled linear
    operator is not part of the problem: build one LinearBVP per solve;
    its solution family carries it to ``iterate``.
    """

    system: OperatorSequence
    forcing: np.ndarray
    boundary: BoundaryOperator
    Z: callable
    Z_du: callable
    epsilon: float = 0.0


@dataclass(frozen=True)
class GeneratingRoot:
    """Accepted root of the generating-constant equation."""

    c0: np.ndarray
    residual_norm: float
    jacobian_rank: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SufficiencyCheck:
    """Outcome of the full-row-rank gate on B0. B0_pinv is B0^+, shape
    (r, d), from the gate's own rank decision; iterate takes it."""

    holds: bool
    row_rank: int
    required_rank: int
    product_norm: float
    null_direction: np.ndarray | None
    B0_pinv: np.ndarray


# A run whose increment has not shrunk over this many rounds is not contracting.
NO_CONTRACTION_WINDOW = 20


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration diagnostics of the fixed-point process.

    ``increments[k]`` is round k's sup-norm increment max |u_{k+1} - u_k|;
    ``iterations`` is the index k of the last round. ``reason`` says why the
    iteration stopped: "converged", "no_contraction" (the increment did not
    shrink over NO_CONTRACTION_WINDOW rounds), "blowup" (max |u| > blowup),
    "non_finite" (u overflowed or went NaN) or "max_iter" (the cap was
    reached).
    """

    records: tuple          # rows: (k, c_norm, ubar_norm, rec_res, bc_res, proj_res)
    converged: bool
    iterations: int
    reason: str
    increments: tuple

    FIELDS = ("k", "c_norm", "ubar_norm", "recurrence_residual",
              "boundary_residual", "projected_residual")


def _along(problem: NonlinearProblem, fn, z, eps) -> np.ndarray:
    """fn (Z or Z_du) at the first m states of a trajectory, or of a stack
    of trajectories (..., m+1, N), in one call."""
    m = problem.system.horizon
    return np.asarray(fn(z[..., :m, :], np.arange(m), float(eps)), dtype=float)


def _matvec(M, v):
    """Stacked matrix-vector products M[..., i, j] v[..., j]."""
    return (M @ v[..., None])[..., 0]


def verify_derivative(problem: NonlinearProblem) -> None:
    """Check Z_du against central finite differences of Z (step 1e-6) at 20
    probes: standard normal states at random times, drawn from seed 0.

    Raises DerivativeMismatchError where max |fd - Z_du| / (1 + max |Z_du|)
    exceeds 1e-5. Max-abs norms, not Frobenius ones, whose squares overflow
    once entries pass about 1e154.
    """
    rng = np.random.default_rng(0)
    N, m = problem.system.dim, problem.system.horizon
    points, step = 20, 1e-6
    z, n = np.empty((points, N)), np.empty(points, dtype=int)
    for k in range(points):
        z[k] = rng.standard_normal(N)
        n[k] = rng.integers(0, m)
    J = np.asarray(problem.Z_du(z, n, 0.0), dtype=float)
    # probes[s, k, j] = z[k] + s-th sign * step * e_j
    probes = z[None, :, None, :] + np.array([step, -step])[:, None, None, None] * np.eye(N)
    Zp = np.asarray(problem.Z(probes, n[None, :, None], 0.0), dtype=float)
    fd = (Zp[0] - Zp[1]).transpose(0, 2, 1) / (2 * step)
    err = np.abs(fd - J).max(axis=(1, 2)) / (1.0 + np.abs(J).max(axis=(1, 2)))
    bad = np.flatnonzero(~(err <= 1e-5))  # a NaN error is a mismatch too
    if bad.size:
        k = bad[0]
        raise DerivativeMismatchError(
            f"Z_du disagrees with finite differences at n={n[k]}: relative error {err[k]:.3e}"
        )


def _require_generating(family: SolutionFamily) -> None:
    if family.report.classification == QUASISOLUTION:
        raise GeneratingFamilyError(
            "linear part is only solvable in the least-squares sense; "
            "no generating family exists"
        )


def generating_F(problem: NonlinearProblem, family: SolutionFamily, c,
                 at_eps: float = 0.0) -> np.ndarray:
    """Bifurcation function F(c) in cokernel coordinates (length d).

    Evaluates Z along the family member z0(., c), pushes it through the
    forcing-to-boundary map, and projects onto N(Q*). The generating
    equation proper evaluates Z at eps = 0; parameter scans may probe the
    nonlinearity at a nonzero ``at_eps`` instead.

    ``c`` may also be a stack of coefficient vectors, shape (k, r), giving
    F of shape (k, d) from one stacked member, one Z call, one step-by-step
    sweep, one boundary map and one projection. Every row equals the single
    evaluation at its vector bit for bit, which Newton's finite-difference
    Jacobian needs (see _fd_jacobian).
    """
    _require_generating(family)
    fz = _along(problem, problem.Z, family.member(c), at_eps)
    g = particular_forced(problem.system, fz)
    return _matvec(family.cokernel_basis.T, problem.boundary.apply(g))


def _fd_jacobian(problem: NonlinearProblem, family: SolutionFamily, c: np.ndarray,
                 at_eps: float) -> np.ndarray:
    """Central finite-difference Jacobian of generating_F at c, shape (d, r).

    Column j is (F(c + s_j e_j) - F(c - s_j e_j)) / (2 s_j) with step
    s_j = 1e-6 (1 + |c_j|); all 2r points are one stacked generating_F
    call. It amplifies roundoff in F about a millionfold, so the stacked
    rows must equal single evaluations bit for bit, as generating_F's do.
    """
    r = c.shape[0]
    steps = 1e-6 * (1.0 + np.abs(c))
    E = np.diag(steps)
    F = generating_F(problem, family, np.concatenate([c + E, c - E]), at_eps=at_eps)
    return ((F[:r] - F[r:]) / (2 * steps)[:, None]).T


def solve_generating(problem: NonlinearProblem, family: SolutionFamily, c_init=None,
                     tol: float = 1e-10, max_iter: int = 50,
                     at_eps: float = 0.0) -> GeneratingRoot:
    """Damped Newton root search for F(c) = 0.

    Uses a finite-difference Jacobian and a pseudoinverse step, so
    rectangular and rank-deficient Jacobians are handled. With d = 0 the
    equation is empty and c_init is returned unchanged; with r = 0 < d
    there is nothing to vary, so F's norm is returned after 0 steps. A
    non-finite F or Jacobian (overflow) stops the search unconverged.

    Per Newton step, the Jacobian's 2r evaluations of F are one stacked
    generating_F call (one Z call); the centre and each line-search trial
    are single evaluations.
    """
    _require_generating(family)
    r = family.kernel_dim
    d = family.cokernel_dim
    c = np.zeros(r) if c_init is None else np.asarray(c_init, dtype=float).reshape(r).copy()
    if d == 0:
        return GeneratingRoot(c0=c, residual_norm=0.0, jacobian_rank=0,
                              converged=True, iterations=0)

    F = generating_F(problem, family, c, at_eps=at_eps)
    norm = float(np.linalg.norm(F))
    jac_rank = 0
    steps = 0
    while tol < norm < np.inf and steps < max_iter and r > 0:
        J = _fd_jacobian(problem, family, c, at_eps)
        if not np.isfinite(J).all():
            break  # overflow; report the current iterate
        rd = numerical_rank(J)
        jac_rank = rd.rank
        step = -rd.pinv @ F
        lam = 1.0
        improved = False
        for _ in range(30):
            trial = c + lam * step
            Ft = generating_F(problem, family, trial, at_eps=at_eps)
            nt = float(np.linalg.norm(Ft))
            if nt < norm:
                c, F, norm = trial, Ft, nt
                improved = True
                break
            lam *= 0.5
        if not improved:
            break  # stagnation; report best iterate
        steps += 1
    return GeneratingRoot(c0=c, residual_norm=norm, jacobian_rank=jac_rank,
                          converged=norm <= tol, iterations=steps)


def assemble_B0(problem: NonlinearProblem, family: SolutionFamily, c0,
                at_eps: float = 0.0) -> np.ndarray:
    """Linearization of the bifurcation function at c0, shape (d, r).

    Column j is minus the cokernel projection of l applied to the forced
    response of Z_du(z0(., c0), ., 0) acting on the j-th propagated kernel
    trajectory. By construction B0 = -dF/dc at c0.
    """
    _require_generating(family)
    m = problem.system.horizon
    r, d = family.kernel_dim, family.cokernel_dim
    if d == 0 or r == 0:
        return np.zeros((d, r))
    Zdu = _along(problem, problem.Z_du, family.member(c0), at_eps)
    G = particular_forced_scan(problem.system, _matvec(Zdu, family.kernel_basis[:, :m]))
    return -family.cokernel_basis.T @ problem.boundary.apply(G).T


def check_sufficient(B0) -> SufficiencyCheck:
    """Full-row-rank gate on B0 (in cokernel coordinates the condition
    P_{N(B0*)} P_{N(Q*)} = 0 reads: B0 has row rank d), at the rank
    cutoff 1e-9 (1 + ||B0||_2). A (d, 0) B0 (r = 0) has row rank 0.

    The one rank decision of B0 also gives B0^+, so directions the gate
    counts as null are never inverted; it is zero when r or d is 0."""
    B0 = np.asarray(B0, dtype=float)
    d, r = B0.shape
    if d == 0 or r == 0:
        rank, coker, pinv = 0, np.eye(d), np.zeros((r, d))
    else:
        rd = numerical_rank(B0, 1e-9)
        rank, coker, pinv = rd.rank, rd.cokernel, rd.pinv
    product_norm = float(np.linalg.norm(coker @ coker.T))  # = P_{N(B0*)} on R^d
    holds = rank == d
    null_dir = None if holds else coker[:, 0].copy()
    return SufficiencyCheck(holds=holds, row_rank=rank, required_rank=d,
                            product_norm=product_norm, null_direction=null_dir,
                            B0_pinv=pinv)


def nonlinear_recurrence_residual(problem: NonlinearProblem, z, Zz=None) -> float:
    """max_n || z(n+1) - A_n z(n) - f(n) - eps Z(z(n), n, eps) || at
    eps = problem.epsilon.

    ``Zz``, when given, is Z already evaluated at z(0..m-1) and eps.
    """
    eps = problem.epsilon
    z = np.asarray(z, dtype=float)
    if Zz is None:
        Zz = _along(problem, problem.Z, z, eps)
    res = recurrence_defect(problem.system, problem.forcing, z) - eps * Zz
    return float(np.linalg.norm(res, axis=1).max())


def iterate(problem: NonlinearProblem, family: SolutionFamily, c0, B0_pinv,
            tol: float = 1e-10, max_iter: int = 200,
            blowup: float = 1e6, residual_tol: float = 1e-8):
    """Three-sequence fixed-point iteration continuing z0(., c0) to
    eps = problem.epsilon.

    Per round, from the current (u, c, ubar):

        u_next    = propagated-kernel(c) + ubar
        c_next    = B0^+ [cokernel proj. of l(response of Z_du ubar + R(u))]
        ubar_next = eps * Green[ Z(z0,.,0) + Z_du(z0,.,0) u + R(u), 0 ]

    with remainder R(u, n, eps) = Z(z0+u, n, eps) - Z(z0, n, 0)
    - Z_du(z0, n, 0) u, all three sequences starting at zero. The
    linearized forcing therefore telescopes to Z(z0+u, n, eps) exactly, so
    a fixed point solves the perturbed recurrence identically.

    Stops on a sup-norm Cauchy increment delta_k = max |u_{k+1} - u_k|
    <= tol confirmed by small recurrence and boundary residuals of z0 + u.
    Gives up, unconverged, once u is non-finite or exceeds ``blowup``, or
    once k > w and delta_k >= delta_{k-w} with w = NO_CONTRACTION_WINDOW
    (20): a contraction shrinks every increment, so a run whose increment
    has not shrunk over w rounds is not contracting. trace.reason names the
    stop.

    The Green operator of family.bvp, the LinearBVP of (problem.system,
    problem.boundary) that ``family`` came from, gives ubar. ``B0_pinv`` is
    the pseudoinverse of the linearization assemble_B0 gives at c0, from
    the gate's rank decision: check_sufficient(B0).B0_pinv. The gate is
    not made here; the caller decides whether to iterate when it fails.

    Returns (z, trace) with z = z0(., c0) + u.
    """
    _require_generating(family)
    eps = problem.epsilon
    m, N = problem.system.horizon, problem.system.dim
    r = family.kernel_dim

    z0 = family.member(c0)
    Z0 = _along(problem, problem.Z, z0, 0.0)
    Zdu = _along(problem, problem.Z_du, z0, 0.0)
    Zz = _along(problem, problem.Z, z0, eps)  # Z(z0 + u, ., eps), reused across rounds
    D = family.cokernel_basis
    l = problem.boundary

    u = np.zeros((m + 1, N))
    c = np.zeros(r)
    ubar = np.zeros((m + 1, N))
    records = []
    deltas = []
    reason = "max_iter"
    iterations = 0

    for k in range(max_iter + 1):
        Zdu_u = _matvec(Zdu, u[:m])
        R = Zz - Z0 - Zdu_u
        phi = Z0 + Zdu_u + R
        lin_forcing = _matvec(Zdu, ubar[:m]) + R
        g_lin, g_phi = particular_forced_scan(problem.system, np.stack([lin_forcing, phi]))

        u_next = np.tensordot(c, family.kernel_basis, axes=1) + ubar
        c_next = B0_pinv @ (D.T @ l.apply(g_lin))
        ubar_next = eps * family.bvp.green(g_phi)

        z = z0 + u_next
        Zz = _along(problem, problem.Z, z, eps)
        rec_res = nonlinear_recurrence_residual(problem, z, Zz=Zz)
        bc_res = boundary_residual(l, z)
        proj_res = float(np.linalg.norm(D.T @ l.apply(g_phi)))
        records.append((k, float(np.linalg.norm(c)), float(np.abs(ubar).max()),
                        rec_res, bc_res, proj_res))

        delta = float(np.abs(u_next - u).max())
        deltas.append(delta)
        u, c, ubar = u_next, c_next, ubar_next
        iterations = k
        if not np.isfinite(u).all():
            reason = "non_finite"
            break
        if np.abs(u).max() > blowup:
            reason = "blowup"
            break
        scale = 1.0 + float(np.abs(z).max())
        if delta <= tol * scale and rec_res <= residual_tol * scale \
                and bc_res <= residual_tol * scale:
            reason = "converged"
            break
        if k > NO_CONTRACTION_WINDOW and delta >= deltas[k - NO_CONTRACTION_WINDOW]:
            reason = "no_contraction"
            break

    z = z0 + u
    trace = IterationTrace(records=tuple(records), converged=reason == "converged",
                           iterations=iterations, reason=reason, increments=tuple(deltas))
    return z, trace
