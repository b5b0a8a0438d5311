"""Weakly nonlinear solver: generating-constant equation, its linearization
B0, the full-row-rank sufficiency gate, and the fixed-point iteration that
continues a generating solution z0(n, c0) to z(n, eps) = z0 + u. ``solve``
chains them, and is the one place where the gate decides whether to iterate.

The perturbed system is

    z(n+1) = A_n z(n) + f(n) + eps * Z(z(n), n, eps),      l z = alpha.

Generating solutions that survive the perturbation are selected by the
bifurcation equation F(c) = 0, where F pushes the nonlinearity evaluated
along a family member through the forcing-to-boundary map and projects
onto the cokernel of Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import numerical_rank
from .linear import (
    QUASISOLUTION,
    SolutionFamily,
    particular_forced,
    residuals,
)

__all__ = [
    "GeneratingFamilyError",
    "DerivativeMismatchError",
    "NonlinearProblem",
    "GeneratingRoot",
    "SufficiencyCheck",
    "IterationTrace",
    "NonlinearSolution",
    "NO_CONTRACTION_WINDOW",
    "generating_F",
    "solve_generating",
    "assemble_B0",
    "check_sufficient",
    "iterate",
    "verify_derivative",
    "solve",
]


class GeneratingFamilyError(ValueError):
    """The linear part is a quasisolution; there is no generating family."""


class DerivativeMismatchError(ValueError):
    """Supplied derivative disagrees with finite differences of Z."""


@dataclass(frozen=True)
class NonlinearProblem:
    """The generating family of the linear problem plus the nonlinearity
    and its state derivative.

    ``family`` is the solution family of one LinearBVP.solve; its ``bvp``
    holds the system, the boundary operator and its Green operator, and its
    ``forcing`` the f. Z(z, n, eps) maps R^N -> R^N; Z_du(z, n, eps) is its
    N x N Jacobian in z. eps is the perturbation size of the solve. Both are
    batched over states z of shape (..., N) and integer times n
    broadcasting to z.shape[:-1], returning (..., N) and (..., N, N).

    A quasisolution family has no generating solutions and is refused with
    GeneratingFamilyError.
    """

    family: SolutionFamily
    Z: callable
    Z_du: callable
    epsilon: float = 0.0

    def __post_init__(self):
        if self.family.report.classification == QUASISOLUTION:
            raise GeneratingFamilyError(
                "linear part is only solvable in the least-squares sense; "
                "no generating family exists"
            )


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


def _along(fn, z, eps) -> np.ndarray:
    """fn (Z or Z_du) at the first m states of a trajectory, or of a stack
    of trajectories (..., m+1, N), in one call."""
    m = z.shape[-2] - 1
    return np.asarray(fn(z[..., :m, :], np.arange(m), float(eps)), dtype=float)


def _projected_du(problem: NonlinearProblem, z0, at_eps: float) -> np.ndarray:
    """P = psi Z_du(z0, ., at_eps) for the family's LinearBVP.psi, flattened
    to (d, m N): P v[:m].ravel() is D^T l of the response to Z_du v. It is
    a view of the P_i^T = Z_du(i)^T psi_i^T, one product per time."""
    psi = problem.family.bvp.psi
    d, m, N = psi.shape
    PT = _along(problem.Z_du, z0, at_eps).transpose(0, 2, 1) @ psi.transpose(1, 2, 0)
    return PT.reshape(m * N, d).T


def verify_derivative(problem: NonlinearProblem) -> None:
    """Check Z_du against central finite differences of Z (step 1e-6) at 20
    probes: standard normal states at random times, drawn from seed 0.

    Raises DerivativeMismatchError where max |fd - Z_du| / (1 + max |Z_du|)
    exceeds 1e-5. Max-abs norms, not Frobenius ones, whose squares overflow
    once entries pass about 1e154.
    """
    rng = np.random.default_rng(0)
    system = problem.family.bvp.system
    N, m = system.dim, system.horizon
    points, step = 20, 1e-6
    z, n = np.empty((points, N)), np.empty(points, dtype=int)
    for k in range(points):
        z[k] = rng.standard_normal(N)
        n[k] = rng.integers(0, m)
    J = np.asarray(problem.Z_du(z, n, 0.0), dtype=float)
    # probes[s, k, j] = z[k] + s-th sign * step * e_j
    probes = z[None, :, None, :] + np.array([step, -step])[:, None, None, None] * np.eye(N)
    Zp = np.asarray(problem.Z(probes, n[None, :, None], 0.0), dtype=float)
    Zp = Zp if Zp.flags.writeable else Zp.copy()
    # fd, then |fd - J|, formed in Zp[0]: the steps and their order of fd = (Zp[0] - Zp[1]) / 2h
    fd = np.subtract(Zp[0], Zp[1], out=Zp[0]).transpose(0, 2, 1)
    fd /= 2 * step
    fd -= J
    err = np.abs(fd, out=fd).max(axis=(1, 2)) / (1.0 + np.abs(J).max(axis=(1, 2)))
    bad = np.flatnonzero(~(err <= 1e-5))  # a NaN error is a mismatch too
    if bad.size:
        k = bad[0]
        raise DerivativeMismatchError(
            f"Z_du disagrees with finite differences at n={n[k]}: relative error {err[k]:.3e}"
        )


def generating_F(problem: NonlinearProblem, c, at_eps: float = 0.0) -> np.ndarray:
    """Bifurcation function F(c) in cokernel coordinates (length d).

    Evaluates Z along the family member z0(., c), pushes it through the
    forcing-to-boundary map, and projects onto N(Q*). The generating
    equation proper evaluates Z at eps = 0; parameter scans may probe the
    nonlinearity at a nonzero ``at_eps`` instead.

    ``c`` may also be a stack of coefficient vectors, shape (k, r), giving
    F of shape (k, d) from one stacked member, one Z call, one
    particular_forced sweep, one boundary map and one projection. That
    sweep steps through a time-varying system, a window of m <= 64 steps
    and a stack past the scan's bound (k N^2 > 1024), and there every row
    equals the single evaluation at its vector bit for bit, as Z's rows do
    (lv_callables sums each member in its own 2-D product); elsewhere it
    is the blocked scan, and rows agree with single evaluations to
    roundoff.
    """
    family, bvp = problem.family, problem.family.bvp
    g = particular_forced(bvp.system, _along(problem.Z, family.member(c), at_eps))
    return (family.cokernel_basis.T @ bvp.boundary.apply(g)[..., None])[..., 0]


def _fd_jacobian(problem: NonlinearProblem, c: np.ndarray, at_eps: float) -> np.ndarray:
    """Central finite-difference Jacobian of generating_F at c, shape (d, r).

    Column j is (F(c + s_j e_j) - F(c - s_j e_j)) / (2 s_j) with step
    s_j = 1e-6 (1 + |c_j|); all 2r points are one stacked generating_F
    call, and the quotients use only rows of that call, which share one
    sweep. It amplifies roundoff in F about a millionfold: on short windows
    the rows equal single evaluations bit for bit when Z's rows do, as
    generating_F says, and any change in F's roundoff moves the root.
    """
    r = c.shape[0]
    steps = 1e-6 * (1.0 + np.abs(c))
    E = np.diag(steps)
    F = generating_F(problem, np.concatenate([c + E, c - E]), at_eps=at_eps)
    return ((F[:r] - F[r:]) / (2 * steps)[:, None]).T


def solve_generating(problem: NonlinearProblem, c_init=None, tol: float = 1e-10,
                     max_iter: int = 50, at_eps: float = 0.0) -> GeneratingRoot:
    """Damped Newton root search for F(c) = 0.

    Uses a finite-difference Jacobian and a pseudoinverse step, so
    rectangular and rank-deficient Jacobians are handled. With d = 0 the
    equation is empty and c_init is returned unchanged; with r = 0 < d
    there is nothing to vary, so F's norm is returned after 0 steps. A
    non-finite F or Jacobian (overflow) stops the search unconverged; a
    c_init not of shape (r,) raises ValueError.

    Per Newton step, the Jacobian's 2r evaluations of F are one stacked
    generating_F call (one Z call); the centre and each line-search trial
    are single evaluations.
    """
    r = problem.family.kernel_dim
    c = np.zeros(r) if c_init is None else np.array(c_init, dtype=float)
    if c.shape != (r,):
        raise ValueError(f"c_init: expected shape ({r},) (r values, r the kernel dimension), "
                         f"got shape {c.shape}")
    F = generating_F(problem, c, at_eps=at_eps)
    norm = float(np.linalg.norm(F))
    jac_rank = 0
    steps = 0
    while tol < norm < np.inf and steps < max_iter and r > 0:
        J = _fd_jacobian(problem, c, at_eps)
        if not np.isfinite(J).all():
            break  # overflow; report the current iterate
        rd = numerical_rank(J)
        jac_rank = rd.rank
        step = -rd.pinv @ F
        lam = 1.0
        improved = False
        for _ in range(30):
            trial = c + lam * step
            Ft = generating_F(problem, trial, at_eps=at_eps)
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


def assemble_B0(problem: NonlinearProblem, c0, at_eps: float = 0.0) -> np.ndarray:
    """Linearization of the bifurcation function at c0, shape (d, r).

    Column j is minus the cokernel projection of l applied to the forced
    response of Z_du(z0(., c0), ., at_eps) acting on the j-th propagated
    kernel trajectory. By construction B0 = -dF/dc at c0. It is one product
    and no sweep: B0 = -P K^T, K the kernel basis over its first m times.
    """
    family = problem.family
    P = _projected_du(problem, family.member(c0), at_eps)
    return -(P @ family.kernel_rows[:, :P.shape[1]].T)


def check_sufficient(B0) -> SufficiencyCheck:
    """Full-row-rank gate on B0 (in cokernel coordinates the condition
    P_{N(B0*)} P_{N(Q*)} = 0 reads: B0 has row rank d), at the rank
    cutoff 1e-9 (1 + ||B0||_2): a (d, 0) B0 (r = 0) has row rank 0 < d,
    and a (0, r) one (d = 0) holds. Its one rank decision also gives B0^+,
    so directions the gate counts as null are never inverted."""
    rd = numerical_rank(B0, 1e-9)
    coker, d = rd.cokernel, rd.u.shape[0]
    product_norm = float(np.linalg.norm(coker @ coker.T))  # = P_{N(B0*)} on R^d
    holds = rd.rank == d
    null_dir = None if holds else coker[:, 0].copy()
    return SufficiencyCheck(holds=holds, row_rank=rd.rank, required_rank=d,
                            product_norm=product_norm, null_direction=null_dir,
                            B0_pinv=rd.pinv)


def iterate(problem: NonlinearProblem, c0, B0_pinv, tol: float = 1e-10, max_iter: int = 200,
            blowup: float = 1e6, residual_tol: float = 1e-8):
    """Three-sequence fixed-point iteration continuing z0(., c0) to
    eps = problem.epsilon.

    Per round, from the current (u, c, ubar):

        u_next    = propagated-kernel(c) + ubar
        c_next    = B0^+ [cokernel proj. of l(response of Z_du ubar + R(u))]
        ubar_next = eps * Green[ phi, 0 ],   phi = Z(z0+u, ., eps)

    with Z_du = Z_du(z0, ., 0) and remainder R(u, n, eps) = Z(z0+u, n, eps)
    - Z(z0, n, 0) - Z_du u, all three sequences starting at zero. phi is
    Z(z0,.,0) + Z_du u + R(u) telescoped, so a fixed point solves the
    perturbed recurrence identically. c_next's forcing, Z_du (ubar - u) +
    Z(z0+u,.,eps) - Z(z0,.,0), is not swept but contracted with P = psi Z_du,
    formed once, and LinearBVP.psi; the round's one sweep takes phi.

    u_next, ubar_next (through LinearBVP.green's ``out``) and the c
    forcing's projection are built in place, and the round's four
    sup-norms (the increment, |u|, |z| and |ubar|) are one abs and one max
    over a (4, m+1, N) buffer that holds those four arrays; each is the
    value a max over its array alone gives.

    Stops on a sup-norm Cauchy increment delta_k = max |u_{k+1} - u_k|
    <= tol confirmed by small recurrence and boundary residuals of z0 + u.
    Gives up, unconverged, once u is non-finite or exceeds ``blowup``, or
    once k > w and delta_k >= delta_{k-w} with w = NO_CONTRACTION_WINDOW
    (20): a contraction shrinks every increment, so a run whose increment
    has not shrunk over w rounds is not contracting. trace.reason names the
    stop.

    The Green operator of problem.family.bvp gives ubar. ``B0_pinv`` is
    check_sufficient(assemble_B0(problem, c0)).B0_pinv, from the gate's rank
    decision; ``solve`` decides whether to iterate when that gate fails.

    Returns (z, trace) with z = z0(., c0) + u.
    """
    eps, family = problem.epsilon, problem.family
    bvp = family.bvp
    system, l = bvp.system, bvp.boundary
    m = system.horizon

    z0 = family.member(c0)
    Z0 = _along(problem.Z, z0, 0.0)
    Zz = _along(problem.Z, z0, eps)  # Z(z0 + u, ., eps), reused across rounds
    P = _projected_du(problem, z0, 0.0)
    psi = bvp.psi.reshape(P.shape)
    K, D, forcing = family.kernel_rows, family.cokernel_basis, family.forcing

    # Round k writes (u_next - u, u_next, z, ubar) in bufs[k % 2], whose four
    # sup-norms are one abs and one max, and ubar_next in the other buffer's
    # last slot; u, c and ubar start at zero.
    bufs = np.zeros((2, 4) + z0.shape)
    mags = np.empty(bufs.shape[1:])
    u = bufs[1, 1]
    c = np.zeros(family.kernel_dim)
    work = np.empty((m, system.dim))  # ubar - u, then Z(z0+u) - Z(z0), over the first m times
    lin_proj = np.empty(P.shape[0])
    records, deltas = [], []
    reason = "max_iter"
    iterations = 0

    for k in range(max_iter + 1):
        buf = bufs[k % 2]
        du, u_next, z, ubar = buf
        np.matmul(P, np.subtract(ubar[:m], u[:m], out=work).ravel(), out=lin_proj)
        lin_proj += psi @ np.subtract(Zz, Z0, out=work).ravel()
        g_phi = particular_forced(system, Zz)
        lg_phi = l.apply(g_phi)
        phi_proj = lg_phi @ D

        np.matmul(c, K, out=u_next.reshape(-1))
        u_next += ubar
        c_next = B0_pinv @ lin_proj
        ubar_next = bvp.green(g_phi, lg=lg_phi, out=bufs[(k + 1) % 2, 3])
        ubar_next *= eps

        np.add(z0, u_next, out=z)
        Zz = _along(problem.Z, z, eps)
        rec_res, bc_res = residuals(system, l, forcing, z, eps * Zz)
        np.subtract(u_next, u, out=du)
        # a NaN or inf in u makes u_max non-finite
        delta, u_max, z_max, ubar_max = np.abs(buf, out=mags).max(axis=(1, 2)).tolist()
        # sqrt(v . v), as np.linalg.norm computes a vector's norm
        records.append((k, math.sqrt(c.dot(c)), ubar_max, rec_res, bc_res,
                        math.sqrt(phi_proj.dot(phi_proj))))

        deltas.append(delta)
        u, c = u_next, c_next
        iterations = k
        if not math.isfinite(u_max):
            reason = "non_finite"
            break
        if u_max > blowup:
            reason = "blowup"
            break
        scale = 1.0 + z_max
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


@dataclass(frozen=True)
class NonlinearSolution:
    """What ``solve`` reached: the generating root, the gate on B0 at it, the
    iterate z and its trace. A field past the stage that stopped is None."""

    root: GeneratingRoot
    gate: SufficiencyCheck | None
    z: np.ndarray | None
    trace: IterationTrace | None


def solve(problem: NonlinearProblem, tolerances: dict, solver: dict, force: bool = False,
          at_eps: float = 0.0) -> NonlinearSolution:
    """Root of F from solver["c_init"] -> gate on B0 -> iteration, under a
    problem file's whole ``tolerances`` and ``solver`` dicts; the root and
    B0 take Z at ``at_eps``. An unconverged root stops the solve, and so
    does a failed gate unless ``force``. A non-finite B0 raises OverflowError."""
    root = solve_generating(problem, solver["c_init"], tol=tolerances["newton"],
                            max_iter=solver["newton_max_iter"], at_eps=at_eps)
    if not root.converged:
        return NonlinearSolution(root, None, None, None)
    B0 = assemble_B0(problem, root.c0, at_eps=at_eps)
    if not np.isfinite(B0).all():  # the gate's rank decision refuses it
        raise OverflowError("B0 is not finite (it overflowed)")
    gate = check_sufficient(B0)
    if not gate.holds and not force:
        return NonlinearSolution(root, gate, None, None)
    z, trace = iterate(problem, root.c0, gate.B0_pinv, tol=tolerances["iteration"],
                       max_iter=solver["max_iter"], blowup=solver["blowup"],
                       residual_tol=tolerances["residual"])
    return NonlinearSolution(root, gate, z, trace)
