"""Linear boundary-value problems for first-order difference systems.

The system is z(n+1) = A_n z(n) + f(n) over the window {0, ..., m} with a
sampled linear boundary condition l z = alpha. The induced operator on the
initial state, Q = l Phi(., 0), may be singular (the resonance case); the
solver classifies solvability and returns a solution family built through
the Moore-Penrose pseudoinverse of Q. Building a LinearBVP makes Q's one
rank decision (linalg.numerical_rank at the rank tolerance): Q^+, the
kernel and cokernel bases and the classification all come from it.

Index convention: Phi(n, n) = I and Phi(n, i) = A_{n-1} ... A_i for n > i,
the unique choice under which z(n) = Phi(n, i) z(i) for the homogeneous
recurrence and g(n) = sum_{i<n} Phi(n, i+1) f(i) solves the forced one
from g(0) = 0.

The forced recurrence has one sweep, particular_forced, which F, the
linear solve and the fixed-point iteration's Green operator all use. It
scans a time_invariant system's long windows with small stacks by a
blocked scan, a few block-Toeplitz products in each of ceil(log_b m)
levels over the powers of A_0, and steps through any other: F's
finite-difference Jacobian amplifies roundoff about a millionfold, so
the short windows of the shipped problems keep the stepped bits. A bound
sweep (_forced_sweep; a scan's plan holds its zero-padded buffers) runs only
its arithmetic; the fixed-point iteration binds one per solve.

LinearBVP.psi, the forcing-to-boundary map projected onto the cokernel, is
built once, from the transition stack if the system is time-invariant and by
a backward sweep if not; B0 and the iteration's c update contract with it.

residuals is the one place a trajectory's recurrence and boundary residual
norms are taken: the fixed-point iteration's stop test and the CLI's audit.
The stop test binds it once per solve (_residual_check: A_0^T, f, a buffer).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary import BoundaryOperator
from .linalg import RankDecision, numerical_rank

__all__ = [
    "CLASSICAL",
    "FAMILY",
    "QUASISOLUTION",
    "OperatorSequence",
    "SolvabilityReport",
    "SolutionFamily",
    "LinearBVP",
    "transition_stack",
    "particular_forced",
    "classify",
    "residuals",
]

CLASSICAL = "unique_classical"
FAMILY = "family"
QUASISOLUTION = "quasisolution"


@dataclass(frozen=True)
class OperatorSequence:
    """Time-indexed square system matrices A_0, ..., A_{m-1}.

    matrices has shape (m, N, N); step n maps z(n) to the A_n z(n) part of
    z(n+1). Trajectories over the window have m+1 states.

    The system is time_invariant when every A_n equals A_0 bit for bit;
    then levels, built on first use and read-only (so never stale), are
    the blocked scan's (L^T, C^T) per level: with b = max(3, 64 // N), level
    l scans n_l inputs (n_0 = m + 1, n_(l+1) = ceil(n_l / b)) over
    S = A_0^(b^l) by the (bN, bN) block-Toeplitz L[r, s] = S^(r-s), r >= s,
    and C = [S; S^2; ...; S^b]. The top level, n_l <= b, is (L^T, None) over
    S^0 ... S^(n_l - 1) only: no power past A_0^m is formed (Fibonacci's
    overflow at 1475 steps). A time-varying system is never scanned: ().
    """

    matrices: np.ndarray
    time_invariant: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.array(self.matrices, dtype=float, order="C")  # a broadcast view copies non-C
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError(f"expected shape (m, N, N), got {A.shape}")
        if A.shape[0] == 0:
            raise ValueError("horizon must be at least 1")
        if not np.all(np.isfinite(A)):
            raise ValueError("system matrices must have finite entries")
        A.flags.writeable = False
        object.__setattr__(self, "matrices", A)
        # bitwise, so that a -0.0 where A_0 has 0.0 makes the system time-varying
        invariant = bool((A.view(np.uint64) == A[0].view(np.uint64)).all())
        object.__setattr__(self, "time_invariant", invariant)

    @functools.cached_property
    def levels(self) -> tuple:
        if not self.time_invariant:
            return ()
        N, b = self.dim, max(3, 64 // self.dim)
        S, n, levels = self.matrices[0], self.horizon + 1, []
        while True:
            rows = min(n, b)
            P = _powers(S, rows + (n > b))
            # row i of V: rows-1 zero blocks, then the (S^j)^T[i]; block row s of L^T
            # is its window of rows blocks from block rows-1-s on
            V = np.zeros((N, (rows - 1 + len(P)) * N))
            V.reshape(N, -1, N)[:, rows - 1:] = P.transpose(2, 0, 1)
            windows = sliding_window_view(V, rows * N, axis=1)[:, (rows - 1) * N::-N]
            Lt = windows.transpose(1, 0, 2).reshape(rows * N, rows * N)  # a copy
            Lt.flags.writeable = False
            if n <= b:
                return tuple(levels) + ((Lt, None),)
            Ct = V[:, rows * N:].copy()  # the blocks (S^j)^T, j = 1, ..., b
            Ct.flags.writeable = False
            levels.append((Lt, Ct))
            S, n = P[b], -(-n // b)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def horizon(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def constant(cls, A, m: int) -> "OperatorSequence":
        A = np.asarray(A, dtype=float)
        return cls(np.broadcast_to(A, (m,) + A.shape))  # __post_init__ copies it

    @classmethod
    def identity(cls, dim: int, m: int) -> "OperatorSequence":
        return cls.constant(np.eye(dim), m)


def transition_stack(system: OperatorSequence) -> np.ndarray:
    """All transition matrices from time 0: U[k] = Phi(k, 0), shape (m+1, N, N)."""
    # Step by step (A_k.dot, np.matmul's gemm at half its dispatch), not by the
    # powers of A_0: Q is roundoff-sized on the rotation workloads, so the scan's roundoff
    # would pick another kernel basis, in which c0 and solver.c_init are coordinates.
    m, N, A = system.horizon, system.dim, system.matrices
    U = np.empty((m + 1, N, N))
    U[0] = np.eye(N)
    steps = [A[0].dot] * m if system.time_invariant else [A_k.dot for A_k in A]
    Uv = list(U)  # the views made once
    for step, U_k, U_next in zip(steps, Uv, Uv[1:]):
        step(U_k, out=U_next)
    return U


def _forcing_array(system: OperatorSequence, f) -> np.ndarray:
    """f as a float array of shape (..., m, N); None is the zero forcing."""
    m, N = system.horizon, system.dim
    if f is None:
        return np.zeros((m, N))
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (m, N):
        raise ValueError(f"forcing must have shape (..., {m}, {N}), got {f.shape}")
    return f


# Windows of at most _SCAN_MIN_HORIZON steps, and stacks past k N^2 = _SCAN_MAX_WORK,
# keep the loop's bits, which F's finite-difference Newton Jacobian amplifies.
_SCAN_MIN_HORIZON = 64
_SCAN_MAX_WORK = 1024


def particular_forced(system: OperatorSequence, f) -> np.ndarray:
    """The unique solution of g(n+1) = A_n g(n) + f(n) with g(0) = 0.

    f has shape (..., m, N) and g has shape (..., m+1, N). A time_invariant
    system's stack of k forcings over m > 64 steps, with k N^2 <= 1024,
    goes through the blocked scan _scan_plan, flattened to (k, m, N). Any
    other is swept step by step, one (N, N) @ (N, 1) product per stacked
    forcing, so that every slice equals the sweep of its forcing alone bit
    for bit, as every shipped problem's generating root needs.
    """
    f = _forcing_array(system, f)
    return _forced_sweep(system, f.shape[:-2])(f)


def _forced_sweep(system: OperatorSequence, stack: tuple):
    """particular_forced bound to (system, stack shape): a function of an unchecked
    forcing, stack + (m, N), whose result the next call overwrites."""
    m, N, k = system.horizon, system.dim, math.prod(stack)
    if system.time_invariant and m > _SCAN_MIN_HORIZON and k * N * N <= _SCAN_MAX_WORK:
        scan, shape = _scan_plan(system, k), stack + (m + 1, N)
        return lambda f: scan(f.reshape(k, m, N)).reshape(shape)
    # Time-major (m, ..., N, 1), stepping over views: each step is one product
    # into a contiguous block and one add in place, rounding as a plain
    # g[n+1] = A_n g[n] + f[n]; a single forcing steps by np.dot, np.matmul's
    # bits at half its dispatch. swapaxes(0, -2) is its own inverse.
    g = np.zeros((m + 1,) + stack[1:] + stack[:1] + (N, 1))  # f's swapped axes; g[0] stays 0
    out, step = g[..., 0].swapaxes(0, -2), np.matmul if stack else np.dot
    steps = list(zip(system.matrices, g, g[1:]))  # the views made once

    def sweep(f):
        for (A, g_n, g_next), f_n in zip(steps, f.swapaxes(0, -2)[..., None]):
            step(A, g_n, out=g_next)
            g_next += f_n
        return out
    return sweep


def _scan_plan(system: OperatorSequence, k: int):
    """The blocked scan bound to k forcings: a function of f, shape (k, m, N),
    giving g(0..m), the prefix y[j] = sum_{i<=j} A_0^(j-i) u[i] of the inputs
    u = (0, f(0), ..., f(m-1)), in buffers the next call overwrites. Per level
    the n inputs sit behind zeros in B blocks of b (no state past the last
    input is formed: it may overflow, and 0 * inf poisons a dense product),
    u @ L^T is each block's local prefix, whose last states the next level
    scans, and C^T adds each incoming state. It matches the stepped sweep to
    roundoff, not bit for bit (rotation_lv.json's root would move past
    1e-12); a time-major forcing gives a C-ordered one's bits."""
    N = system.dim

    def level(levels, n, given):  # n inputs, the last `given` of them set per call
        Lt, Ct = levels[0]
        rows = Lt.shape[0] // N
        B = -(-n // rows)
        u, y = np.zeros((k, B, rows * N)), np.empty((k, B, rows * N))
        inputs, out = u.reshape(k, -1, N)[:, -given:], y.reshape(k, -1, N)[:, -n:]
        blocks, products = u.reshape(k * B, -1), y.reshape(k * B, -1)
        if B > 1:  # u, once spent, takes the incoming states; block 0 (all the padding) none
            carry, last, first, rest = level(levels[1:], B, B), y[..., -N:], u[:, 0], u[:, 1:]

        def prefix(x):
            inputs[...] = x
            np.matmul(blocks, Lt, out=products)
            if B > 1:
                np.matmul(carry(last)[:, :-1], Ct, out=rest)
                first[...] = 0.0
                np.add(y, u, out=y)  # contiguous: numpy buffers a strided in-place add
            return out
        return prefix

    return level(system.levels, system.horizon + 1, system.horizon)


def _powers(S: np.ndarray, count: int) -> np.ndarray:
    """S^0, ..., S^(count-1), count >= 2, shape (count, N, N), by doubling:
    S^(j+i) = S^j S^i, one stacked product per doubling, none past count."""
    P = np.stack([np.eye(len(S)), S])
    while len(P) < count:
        P = np.concatenate([P, P[-1] @ P[1:count - len(P) + 1]])
    return P


@dataclass(frozen=True)
class SolvabilityReport:
    """Classification of the induced equation Q z0 = h."""

    classification: str
    defect_norm: float
    kernel_dim: int
    cokernel_dim: int
    fredholm_index: int
    tolerance_used: float
    rank_tolerance: float


def classify(rd: RankDecision, h, tol: float = 1e-9) -> SolvabilityReport:
    """Classify Q z0 = h as unique / family / quasisolution, where rd is
    the rank decision of Q.

    The defect is ||P_{N(Q*)} h||; quasisolution iff it exceeds
    tol * (1 + ||h||). In finite dimensions the range of Q is closed, so
    the non-classical branch is exactly the least-squares one. A
    non-finite h or defect is refused: a NaN or inf would pass that test,
    and D^T h can overflow where h does not.
    """
    D = rd.cokernel
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape[0] != D.shape[0]:
        raise ValueError(f"h has length {h.shape[0]}, expected {D.shape[0]}")
    if not np.all(np.isfinite(h)):
        raise ValueError("the right-hand side h is not finite (it overflowed)")
    r, d = rd.kernel.shape[1], D.shape[1]
    with np.errstate(over="ignore"):  # an overflowed defect is refused just below
        defect = float(np.linalg.norm(D.T @ h))
        h_norm = float(np.linalg.norm(h))
    if not np.isfinite(defect):
        raise ValueError("the defect ||D^T h|| of the right-hand side is not finite "
                         "(it overflowed)")
    if defect > tol * (1.0 + h_norm):
        label = QUASISOLUTION
    elif r == 0:
        label = CLASSICAL
    else:
        label = FAMILY
    return SolvabilityReport(
        classification=label,
        defect_norm=defect,
        kernel_dim=r,
        cokernel_dim=d,
        fredholm_index=r - d,
        tolerance_used=tol,
        rank_tolerance=rd.tolerance,
    )


@dataclass(frozen=True)
class SolutionFamily:
    """Solution family z0(n, c) = particular(n) + sum_j c_j kernel_basis[j](n)
    of one LinearBVP.solve: ``bvp`` is the LinearBVP it came from,
    ``forcing`` the f it solved for and ``report`` its classification.

    Kernel members are propagated from an orthonormal basis of N(Q), the
    rows of kernel_basis[:, 0], so every member solves the recurrence
    exactly and leaves the boundary residual of the particular member
    unchanged. particular[0] = Q^+ h.
    """

    bvp: LinearBVP
    forcing: np.ndarray               # (m, N)
    report: SolvabilityReport
    particular: np.ndarray            # (m+1, N)
    kernel_basis: np.ndarray          # (r, m+1, N), C-contiguous

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[0]

    @property
    def kernel_rows(self) -> np.ndarray:
        """kernel_basis as an (r, (m+1) N) view; an explicit r, as -1 fails at r = 0."""
        return self.kernel_basis.reshape(self.kernel_dim, self.particular.size)

    @property
    def cokernel_basis(self) -> np.ndarray:
        """Orthonormal basis of N(Q*), shape (q, d), from bvp's rank decision."""
        return self.bvp.rd.cokernel

    @property
    def cokernel_dim(self) -> int:
        return self.cokernel_basis.shape[1]

    def member(self, c) -> np.ndarray:
        """z0(., c), shape (m+1, N), the particular member at r = 0; a stack
        of coefficient vectors, shape (..., r), gives the stack of members,
        shape (..., m+1, N), each equal bit for bit to its vector's alone."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        r = self.kernel_dim
        if c.shape[-1] != r:
            raise ValueError(f"coefficient vector must have shape (..., {r})")
        member = (c[..., None, :] @ self.kernel_rows).reshape(c.shape[:-1] + self.particular.shape)
        return np.add(self.particular, member, out=member)


class LinearBVP:
    """Assembled linear problem: transition stack, Q = l Phi(., 0), and its
    generalized inverse. The target alpha of l z = alpha is l.target.

    Immutable after construction; all solve/green calls are pure. Q^+ is
    rd.pinv, formed once on first use. Transition matrices Phi(n, 0) that
    overflow (a Fibonacci system over about 1475 steps) are refused with a
    ValueError that names the first such n.
    """

    def __init__(self, system: OperatorSequence, l: BoundaryOperator,
                 rank_tol: float = 1e-10):
        if l.dim is not None and l.dim != system.dim:
            raise ValueError(
                f"boundary operator dimension {l.dim} != state dimension {system.dim}")
        if l.max_point > system.horizon:
            raise ValueError(
                f"boundary sample point {l.max_point} outside window [0, {system.horizon}]")
        self.system = system
        self.boundary = l
        self.U = transition_stack(system)
        finite = np.isfinite(self.U).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"the transition matrices Phi(n, 0) overflow from "
                             f"n = {int(finite.argmin())} on")
        # the matrix of c -> l(Phi(., 0) c), shape (q, N)
        self.Q = np.zeros((l.codim, system.dim))
        for n, L in l.samples:
            self.Q += L @ self.U[n]
        self.rd = numerical_rank(self.Q, rank_tol)

    @functools.cached_property
    def psi(self) -> np.ndarray:
        """D^T l g = sum_i psi[:, i] f(i), D = rd.cokernel, for the response g
        of any forcing f: a read-only (d, m, N) view of the psi_i^T, stacked
        (m, N, d). No inverse: a time_invariant system's psi_i^T is sum_{n_k > i}
        U[n_k-1-i]^T L_k^T D; else psi_{i-1} = psi_i A_i + D^T sum_{n_k = i} L_k from psi_m = 0."""
        m, N, D = self.system.horizon, self.system.dim, self.rd.cokernel
        summed = {}  # the weights summed per sample time
        for n, L in self.boundary.samples:
            summed[n] = summed.get(n, 0.0) + L
        W = np.zeros((m, N, D.shape[1]))  # W[i] = psi_i^T, so each step writes a block
        if self.system.time_invariant and summed:  # the latest time's product needs no temporary
            last = max(summed)
            np.matmul(self.U[:last][::-1].transpose(0, 2, 1), summed.pop(last).T @ D, out=W[:last])
            for n, L in summed.items():
                W[:n] += np.matmul(self.U[:n][::-1].transpose(0, 2, 1), L.T @ D)
        else:
            W[m - 1] = summed[m].T @ D if m in summed else 0.0
            At, Wr = list(self.system.matrices[:0:-1].transpose(0, 2, 1)), list(W[::-1])
            for i, At_i, W_i, W_prev in zip(range(m - 1, 0, -1), At, Wr, Wr[1:]):
                At_i.dot(W_i, out=W_prev)  # as transition_stack steps
                if i in summed:
                    W_prev += summed[i].T @ D
        W.flags.writeable = False
        return W.transpose(2, 0, 1)

    def propagate(self, z0: np.ndarray) -> np.ndarray:
        """Homogeneous trajectory Phi(n, 0) z0 over the window, one 2-D product;
        k initial states as the columns of z0, shape (N, k), give (m+1, N, k)."""
        U, z0 = self.U, np.asarray(z0, dtype=float)
        return (U.reshape(-1, U.shape[2]) @ z0).reshape(U.shape[:2] + z0.shape[1:])

    def h(self, g) -> np.ndarray:
        """Right-hand side h = alpha - l g of the induced equation Q z0 = h,
        alpha the boundary target, for the response g of a forcing f, swept
        by the caller with particular_forced.
        """
        return self.boundary.target - self.boundary.apply(g)

    def green(self, g, lg=None, out=None) -> np.ndarray:
        """Generalized Green operator G[g, 0] = Phi(n, 0) Q^+ (0 - l g) + g(n),
        with g as for ``h``. ``lg``, when given, is l g already applied;
        ``out``, when given, an array of g's shape that receives the result.

        Linear in g: the target is zero, not the boundary's (0 - l g, not
        -l g, so that a zero l g gives no -0.0); least-squares/minimum-norm
        when l z = 0 cannot be met exactly.
        """
        lg = self.boundary.apply(g) if lg is None else lg
        return np.add(self.propagate(self.rd.pinv @ (np.zeros(self.boundary.codim) - lg)), g,
                      out=out)

    def solve(self, f, tol: float = 1e-9) -> SolutionFamily:
        """Classify f against the boundary target and build its full solution
        family, the kernel basis as one propagate of rd.kernel's columns. A
        forced response that overflows is refused with a ValueError."""
        f = _forcing_array(self.system, f)
        g = particular_forced(self.system, f)
        if not np.all(np.isfinite(g)):
            raise ValueError("the forced response is not finite (the sweep overflowed)")
        h = self.h(g)
        particular = self.propagate(self.rd.pinv @ h) + g
        kernels = np.ascontiguousarray(self.propagate(self.rd.kernel).transpose(2, 0, 1))
        return SolutionFamily(self, f, classify(self.rd, h, tol=tol), particular, kernels)


def _defect(system: OperatorSequence, f, stack: tuple):
    """The recurrence defect z(n+1) - A_n z(n) - f(n), n < m, bound to (system,
    f): a function of a stack of trajectories, stack + (m+1, N), writing it into
    one buffer that the next call overwrites. A time-invariant system's A_n z(n)
    are one 2-D product z[:m] A_0^T, a time-varying one's a product per time."""
    m, A, forcing = system.horizon, system.matrices, _forcing_array(system, f)
    defect = np.empty(stack + (m, system.dim))
    A0T = np.ascontiguousarray(A[0].T)  # a transposed view costs 0.1 MB more RSS

    def of(z):
        Az = np.matmul(z[..., :m, :], A0T, out=defect) if system.time_invariant \
            else (A @ z[..., :m, :, None])[..., 0]
        np.subtract(z[..., 1:m + 1, :], Az, out=defect)
        return np.subtract(defect, forcing, out=defect)
    return of


def residuals(system: OperatorSequence, l: BoundaryOperator, f, trajectory,
              perturbation=None):
    """max_n ||z(n+1) - A_n z(n) - f(n) - perturbation(n)|| and ||l z - alpha||
    of a trajectory, shape (m+1, N), as two floats; f=None is the homogeneous
    problem, zero forcing and a zero target. A stack, shape (..., m+1, N),
    perturbation (..., m, N), gives two (...) arrays, each entry equal bit
    for bit to that trajectory's own."""
    z = np.asarray(trajectory, dtype=float)
    return _residual_check(system, l, f, z.shape[:-2])(z, perturbation)


def _residual_check(system: OperatorSequence, l: BoundaryOperator, f, stack: tuple):
    """residuals bound to (system, l, f) and a stack shape."""
    defect_of, ones = _defect(system, f, stack), np.ones(system.dim)
    target = 0.0 if f is None else l.target

    def check(z, perturbation=None):
        defect = defect_of(z)
        if perturbation is not None:
            defect -= perturbation
        v = l.apply(z) - target
        # max_n ||defect(n)|| with the row sums as one product; .sum(-1) takes each row alone
        rec = np.sqrt((np.square(defect, out=defect) @ ones).max(-1))
        if not stack:  # sqrt(v . v) per row, as a 1-D norm rounds it; a stacked norm sums otherwise
            return float(rec), math.sqrt(v.dot(v))
        return rec, np.sqrt([row.dot(row) for row in v.reshape(-1, l.codim)]).reshape(stack)
    return check
