import tracemalloc
import warnings

import numpy as np
import pytest

from resbvp import linear
from resbvp.boundary import generic, periodic
from resbvp.linalg import numerical_rank
from resbvp.linear import (
    CLASSICAL,
    FAMILY,
    QUASISOLUTION,
    LinearBVP,
    OperatorSequence,
    classify,
    particular_forced,
    recurrence_defect,
    residuals,
    transition_stack,
)

from resbvp.problem_io import rotation_matrix

from conftest import phi_product, rotation_benchmark, varying_rotation_system

FIB = np.array([[1.0, 1.0], [1.0, 0.0]])


def random_system(rng, m, N, scale=1.0):
    return OperatorSequence(scale * rng.standard_normal((m, N, N)))


class TestEvolution:
    """transition_stack against the explicit ordered products Phi(n, i)."""

    def test_invertible_factorization(self):
        # Phi(n, i) = U(n) U(i)^{-1} when every step matrix is invertible
        rng = np.random.default_rng(4)
        m, N = 7, 4
        A = OperatorSequence(np.eye(N) + 0.3 * rng.standard_normal((m, N, N)))
        U = transition_stack(A)
        for i, n in [(0, 3), (2, 6), (1, 7)]:
            got = U[n] @ np.linalg.inv(U[i])
            expected = phi_product(A, n, i)
            assert np.linalg.norm(got - expected) <= 1e-10 * (1 + np.linalg.norm(expected))


class TestParticularForced:
    def test_zero_forcing(self):
        A = random_system(np.random.default_rng(0), 5, 3)
        assert np.array_equal(particular_forced(A, np.zeros((5, 3))), np.zeros((6, 3)))

    def test_identity_summation(self):
        v = np.array([1.0, -2.0])
        A = OperatorSequence.identity(2, 5)
        g = particular_forced(A, np.tile(v, (5, 1)))
        assert np.allclose(g, np.outer(np.arange(6), v))

    def test_against_transition_sum_oracle(self):
        # independent route: g(n) = sum_{i<n} Phi(n, i+1) f(i) by explicit products
        rng = np.random.default_rng(5)
        m, N = 6, 3
        A = random_system(rng, m, N)
        f = rng.standard_normal((m, N))
        g = particular_forced(A, f)
        for n in range(m + 1):
            expected = sum((phi_product(A, n, i + 1) @ f[i] for i in range(n)),
                           np.zeros(N))
            assert np.allclose(g[n], expected, atol=1e-10)


    def test_stack_matches_single_sweeps(self):
        # a time-varying system is stepped: every row equals the sequential sweep
        rng = np.random.default_rng(8)
        A = random_system(rng, 9, 3)
        f = rng.standard_normal((4, 9, 3))
        G = particular_forced(A, f)
        assert G.shape == (4, 10, 3)
        for k in range(4):
            assert np.array_equal(G[k], self.sequential_sweep(A, f[k]))

    @staticmethod
    def sequential_sweep(A: OperatorSequence, f):
        """Reference: the forced recurrence one step at a time."""
        g = np.zeros((f.shape[0] + 1,) + f.shape[1:])
        for n in range(f.shape[0]):
            g[n + 1] = A.matrices[n] @ g[n] + f[n]
        return g

    def check_scan(self, A: OperatorSequence, f):
        """A time-invariant system through the scan, to roundoff; a
        time-varying one through particular_forced, which steps bit for bit."""
        G = linear._scan(A, f) if A.time_invariant else particular_forced(A, f)
        assert G.shape == (f.shape[0], A.horizon + 1, A.dim)
        for j in range(f.shape[0]):
            g = self.sequential_sweep(A, f[j])
            if A.time_invariant:
                assert np.abs(G[j] - g).max() <= 1e-13 * (1 + np.abs(g).max())
            else:
                assert np.array_equal(G[j], g)

    @pytest.mark.parametrize("m", [1, 2, 7, 16, 37])
    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("k", [1, 4])
    def test_scan_matches_sequential_sweep(self, m, N, k):
        rng = np.random.default_rng(100 * m + 10 * N + k)
        mats = rng.standard_normal((m, N, N))
        mats[m // 2] = 0.0 if N == 1 else np.outer(mats[m // 2, 0], mats[m // 2, 1])
        A = OperatorSequence(mats)  # A_{m//2} is singular
        self.check_scan(A, rng.standard_normal((k, m, N)))

    @pytest.mark.parametrize("m", [1, 2, 7, 16, 37, 65, 600, 1500, 6144])
    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("k", [1, 4])
    def test_time_invariant_scan_matches_sequential_sweep(self, m, N, k):
        # each factor b in m + 1 adds a level (b = 64 at N = 1, 21 at N = 3): two from
        # m = 37 at N = 3 and m = 65 at N = 1, three from m = 600 at N = 3 and at m = 6144
        rng = np.random.default_rng(100 * m + 10 * N + k)
        M = rng.standard_normal((N, N)) / np.sqrt(N)
        if m > 64:  # a spectral radius of at most 1, so that 6144 steps stay finite
            M /= max(1.0, np.abs(np.linalg.eigvals(M)).max())
        A = OperatorSequence.constant(M, m)
        b, n = max(3, 64 // N), m + 1
        for Lt, Ct in A.levels[:-1]:
            assert Lt.shape == (b * N, b * N) and Ct.shape == (N, b * N)
            n = -(-n // b)
        assert n <= b and A.levels[-1][0].shape == (n * N, n * N) and A.levels[-1][1] is None
        self.check_scan(A, rng.standard_normal((k, m, N)))

    def test_scan_fibonacci_growth(self):
        m = 300  # F(300) ~ 2e62: only a relative tolerance is meaningful
        A = OperatorSequence.constant(FIB, m)
        f = np.zeros((2, m, 2))
        f[0, 0, 0] = 1.0
        f[1] = np.random.default_rng(12).standard_normal((m, 2))
        G = linear._scan(A, f)
        for j in range(2):
            g = self.sequential_sweep(A, f[j])
            assert np.all(np.abs(G[j] - g) <= 1e-12 * np.abs(g) + 1e-300)
        fib = [0.0, 1.0]
        while len(fib) < m + 2:
            fib.append(fib[-1] + fib[-2])
        assert np.allclose(G[0, 1:, 0], fib[1:m + 1], rtol=1e-13, atol=0)

    def test_scan_fibonacci_random_forcing_near_overflow(self):
        # the states reach 1e291, and FIB^1475 overflows: a scan that padded the window
        # at its end would form states past it, and 0 * inf would poison real entries
        m = 1400
        A = OperatorSequence.constant(FIB, m)
        f = np.random.default_rng(24).standard_normal((1, m, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            G = linear._scan(A, f)
        g = self.sequential_sweep(A, f[0])
        assert np.abs(g).max() > 1e290
        assert np.all(np.abs(G[0] - g) <= 1e-12 * np.abs(g))

    @pytest.mark.parametrize("k", [1, 3])
    def test_stack_leaves_forcing_unchanged(self, k):
        rng = np.random.default_rng(13)
        A = random_system(rng, 9, 2)
        f = rng.standard_normal((k, 9, 2))
        before = f.copy()
        G = particular_forced(A, f)
        assert np.array_equal(f, before)
        for j in range(k):
            assert np.array_equal(G[j], self.sequential_sweep(A, f[j]))

    @pytest.mark.parametrize("stack", [(1,), (4,), (2, 3)])
    @pytest.mark.parametrize("N", [1, 3, 32, 65, 128])
    def test_stacked_sweep_rows_equal_single_sweeps(self, stack, N):
        rng = np.random.default_rng(16)
        A = random_system(rng, 11, N)
        f = rng.standard_normal(stack + (11, N))
        before = f.copy()
        G = particular_forced(A, f)
        assert G.shape == stack + (12, N)
        assert np.array_equal(f, before)
        for i in np.ndindex(stack):
            assert np.array_equal(G[i], particular_forced(A, f[i]))
            assert np.array_equal(G[i], self.sequential_sweep(A, f[i]))

    def test_single_sweep_and_transition_stack_stay_sequential(self):
        for N in (2, 3, 32):
            rng = np.random.default_rng(14 + N)
            for A in (random_system(rng, 37, N),
                      OperatorSequence.constant(rng.standard_normal((N, N)), 37)):
                f = rng.standard_normal((37, N))
                assert np.array_equal(particular_forced(A, f), self.sequential_sweep(A, f))
                U = np.empty((38, N, N))
                U[0] = np.eye(N)
                for n in range(37):
                    U[n + 1] = A.matrices[n] @ U[n]
                assert np.array_equal(transition_stack(A), U)

    @staticmethod
    def routed_system(m, N, time_invariant):
        """A contracting system for the routing tests: one matrix A_0 with
        spectral norm 0.99, or a Gaussian matrix per time whose A_{m//2}
        is singular; and the generator that draws the forcing."""
        rng = np.random.default_rng(1000 * m + 10 * N + time_invariant)
        if time_invariant:
            M = rng.standard_normal((N, N))
            return OperatorSequence.constant(0.99 * M / np.linalg.norm(M, 2), m), rng
        mats = rng.standard_normal((m, N, N)) / np.sqrt(N)
        mats[m // 2] = np.outer(mats[m // 2, 0], mats[m // 2, 1])
        return OperatorSequence(mats), rng

    @pytest.mark.parametrize("time_invariant", [True, False])
    @pytest.mark.parametrize("N", [2, 16])
    def test_windows_of_64_steps_are_swept_step_by_step(self, N, time_invariant):
        A, rng = self.routed_system(64, N, time_invariant)
        f = rng.standard_normal((64, N))
        assert np.array_equal(particular_forced(A, f), self.sequential_sweep(A, f))

    @pytest.mark.parametrize("time_invariant", [True, False])
    @pytest.mark.parametrize("m", [65, 600])
    @pytest.mark.parametrize("N,stack", [(2, ()), (2, (4,)), (2, (2, 3)),
                                         (16, ()), (16, (4,)), (32, ())])
    def test_longer_windows_go_through_the_scan(self, m, N, stack, time_invariant):
        # on a time-invariant system; a time-varying one is stepped, so bit for bit
        A, rng = self.routed_system(m, N, time_invariant)
        f = rng.standard_normal(stack + (m, N))
        before = f.copy()
        G = particular_forced(A, f)
        assert G.shape == stack + (m + 1, N)
        assert np.array_equal(f, before)
        if time_invariant:
            scanned = linear._scan(A, f.reshape(-1, m, N))
            assert np.array_equal(G, scanned.reshape(G.shape))
        for i in np.ndindex(stack):
            g = self.sequential_sweep(A, f[i])
            if time_invariant:
                assert np.abs(G[i] - g).max() <= 1e-13 * (1 + np.abs(g).max())
            else:
                assert np.array_equal(G[i], g)

    @pytest.mark.parametrize("time_invariant", [True, False])
    @pytest.mark.parametrize("N", [2, 32])
    @pytest.mark.parametrize("m", [6, 65, 600])
    def test_in_place_scan_equals_the_allocating_scan(self, m, N, time_invariant):
        # against the sequential sweep, which allocates every state: the scan to
        # roundoff, bit for bit whatever the forcing's layout; a time-varying system
        # is not scanned, and particular_forced steps through it bit for bit
        A, rng = self.routed_system(m, N, time_invariant)
        sweep = linear._scan if time_invariant else particular_forced
        for k in (1, 2, 32):
            f = rng.standard_normal((k, m, N))
            time_major = np.ascontiguousarray(f.swapaxes(0, 1)).swapaxes(0, 1)
            expected = np.stack([self.sequential_sweep(A, f_j) for f_j in f])
            swept = []
            for forcing in (f, time_major):
                before = forcing.copy()
                G = sweep(A, forcing)
                assert G.shape == (k, m + 1, N)
                assert np.array_equal(forcing, before)
                swept.append(G)
            assert np.array_equal(swept[0], swept[1])
            if time_invariant:
                scale = 1 + np.abs(expected).max(axis=(1, 2))
                assert (np.abs(swept[0] - expected).max(axis=(1, 2)) <= 1e-13 * scale).all()
            else:
                assert np.array_equal(swept[0], expected)

    @pytest.mark.parametrize("N,stack,time_invariant", [
        (32, (), False), (16, (2, 3), True), (16, (2, 3), False), (8, (17,), True),
        (8, (17,), False)], ids=["32-stack0-False", "16-stack1-True", "16-stack1-False",
                                 "8-stack2-True", "8-stack2-False"])
    def test_wide_stacks_keep_the_step_by_step_sweep(self, N, stack, time_invariant):
        # past k N^2 = 1024 the scan is slower than the loop
        A, rng = self.routed_system(600, N, time_invariant)
        f = rng.standard_normal(stack + (600, N))
        G = particular_forced(A, f)
        for i in np.ndindex(stack):
            assert np.array_equal(G[i], self.sequential_sweep(A, f[i]))

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_time_invariant_levels_equal_the_powers_of_A0(self, N):
        # level l is block-Toeplitz in the powers of S = A_0^(b^l): L[r, s] = S^(r-s)
        # for r >= s, C = [S; S^2; ...; S^b]; the top level holds S^0 ... S^(n-1) only
        m = 600
        M = np.linalg.qr(np.random.default_rng(17).standard_normal((N, N)))[0]
        A = OperatorSequence.constant(M, m)
        b, n, S = max(3, 64 // N), m + 1, M
        for Lt, Ct in A.levels:
            rows = min(n, b)
            assert Lt.shape == (rows * N, rows * N) and not Lt.flags.writeable
            blocks = Lt.reshape(rows, N, rows, N)
            for s in range(rows):
                for r in range(rows):
                    want = np.linalg.matrix_power(S, r - s).T if r >= s else 0.0
                    assert np.abs(blocks[s, :, r, :] - want).max() <= 1e-12
            if n <= b:
                assert Ct is None
                break
            assert Ct.shape == (N, b * N) and not Ct.flags.writeable
            for r in range(b):
                want = np.linalg.matrix_power(S, r + 1).T
                assert np.abs(Ct[:, r * N:(r + 1) * N] - want).max() <= 1e-12
            S, n = np.linalg.matrix_power(S, b), -(-n // b)
        assert len(A.levels) == {1: 2, 2: 2, 5: 3}[N]  # 601 -> 10, 601 -> 19, 601 -> 51 -> 5

    def test_a_signed_zero_makes_a_system_time_varying(self):
        mats = np.zeros((4, 2, 2))
        mats[2, 0, 1] = -0.0
        varying = OperatorSequence(mats)
        assert not varying.time_invariant and varying.levels == ()
        assert OperatorSequence(np.zeros((4, 2, 2))).levels[0][0].shape == (10, 10)

    def test_levels_are_built_on_first_use(self):
        # m = 64 steps through the loop, so a linear solve reads no level
        m, N = 64, 32
        rng = np.random.default_rng(23)
        system = OperatorSequence.constant(rng.standard_normal((N, N)) / np.sqrt(N), m)
        assert system.time_invariant
        LinearBVP(system, periodic(N, m)).solve(rng.standard_normal((m, N)))
        assert "levels" not in vars(system)
        assert len(system.levels) == 4 and "levels" in vars(system)  # 65 -> 22 -> 8 -> 3

    def test_time_invariant_levels_stay_within_a_megabyte(self):
        # b = 3 at N = 32: seven full levels of (3N)^2 + 3 N^2 doubles, 6001 -> 2001 -> 667
        # -> 223 -> 75 -> 25 -> 9 -> 3, and a top level of (3N)^2, against 49 MB of matrices
        m, N = 6000, 32
        M = np.random.default_rng(18).standard_normal((N, N)) / np.sqrt(N)
        levels = OperatorSequence.constant(M, m).levels
        assert len(levels) == 8
        held = sum(Lt.nbytes + (0 if Ct is None else Ct.nbytes) for Lt, Ct in levels)
        assert held == (7 * (9 + 3) + 9) * N * N * 8 <= 1e6

    def test_no_level_is_composed_past_the_last_kept(self):
        # FIB^2048 overflows; at m = 1500 (1501 -> 47 -> 2) the top level's S is
        # FIB^1024 and it holds only S^0 and S^1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = OperatorSequence.constant(FIB, 1500)
            A.levels  # built on first use
        assert len(A.levels) == 3 and A.levels[-1][0].shape == (4, 4)
        assert all(np.isfinite(Lt).all() for Lt, _ in A.levels)
        assert all(np.isfinite(Ct).all() for _, Ct in A.levels[:-1])

    def test_stack_shape_checked(self):
        A = random_system(np.random.default_rng(9), 4, 2)
        with pytest.raises(ValueError, match=r"forcing must have shape \(\.\.\., 4, 2\)"):
            particular_forced(A, np.zeros((2, 5, 2)))


class TestAssembly:
    def test_evaluation_at_zero_gives_identity(self):
        A = random_system(np.random.default_rng(6), 4, 3)
        l = generic([(0, np.eye(3))], np.zeros(3))
        assert np.allclose(LinearBVP(A, l).Q, np.eye(3))

    def test_multipoint_unit_vector_propagation(self):
        rng = np.random.default_rng(7)
        m, N = 6, 3
        A = random_system(rng, m, N)
        L1, L2 = rng.standard_normal((2, 2, N))
        l = generic([(2, L1), (5, L2)], np.zeros(2))
        Q = LinearBVP(A, l).Q
        for j in range(N):
            e = np.zeros(N)
            e[j] = 1.0
            expected = L1 @ (phi_product(A, 2, 0) @ e) + L2 @ (phi_product(A, 5, 0) @ e)
            assert np.allclose(Q[:, j], expected, atol=1e-10)

    def test_h_zero_forcing(self):
        A = random_system(np.random.default_rng(8), 4, 2)
        alpha = np.array([3.0, -1.0])
        l = generic([(4, np.eye(2))], alpha)
        assert np.allclose(LinearBVP(A, l).h(particular_forced(A, np.zeros((4, 2)))), alpha)

    def test_h_manufactured_consistency(self):
        rng = np.random.default_rng(9)
        A = random_system(rng, 5, 2)
        f = rng.standard_normal((5, 2))
        g = particular_forced(A, f)
        l = periodic(2, 5)
        l = generic(l.samples, l.apply(g))  # alpha = l g
        assert np.allclose(LinearBVP(A, l).h(g), 0.0, atol=1e-12)

    def test_h_periodic_is_weighted_forcing_sum(self):
        rng = np.random.default_rng(10)
        m = 5
        A = random_system(rng, m, 2)
        f = rng.standard_normal((m, 2))
        h = LinearBVP(A, periodic(2, m)).h(particular_forced(A, f))
        expected = -sum((phi_product(A, m, i + 1) @ f[i] for i in range(m)),
                        np.zeros(2))
        assert np.allclose(h, expected, atol=1e-10)

    def test_window_violation(self):
        A = random_system(np.random.default_rng(11), 3, 2)
        l = generic([(5, np.eye(2))], np.zeros(2))
        with pytest.raises(ValueError):
            LinearBVP(A, l)


class TestClassify:
    def test_identity_unique(self):
        rep = classify(numerical_rank(np.eye(3), 1e-10), np.array([1.0, 2.0, 3.0]))
        assert rep.classification == CLASSICAL
        assert rep.fredholm_index == 0

    def test_zero_matrix_full_defect(self):
        h = np.array([1.0, -2.0])
        rep = classify(numerical_rank(np.zeros((2, 2)), 1e-10), h)
        assert rep.classification == QUASISOLUTION
        assert rep.kernel_dim == 2 and rep.cokernel_dim == 2
        assert np.isclose(rep.defect_norm, np.linalg.norm(h))

    def test_fibonacci_periodic_is_invertible(self):
        m = 7
        A = OperatorSequence.constant(FIB, m)
        Q = LinearBVP(A, periodic(2, m)).Q
        rep = classify(numerical_rank(Q, 1e-10), np.array([1.0, 1.0]))
        assert rep.classification == CLASSICAL
        assert rep.kernel_dim == 0 and rep.cokernel_dim == 0

    def test_negative_rank_tolerance_is_refused(self):
        # library callers reach numerical_rank without problem_io's checks
        with pytest.raises(ValueError, match="tolerance"):
            LinearBVP(OperatorSequence.identity(2, 5), periodic(2, 5), rank_tol=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_h_is_refused(self, bad):
        # its defect is NaN or inf, which the quasisolution test lets through
        with pytest.raises(ValueError, match="not finite"):
            classify(numerical_rank(np.zeros((2, 2)), 1e-10), np.array([bad, 1.0]))

    def test_overflowing_defect_is_refused(self):
        # h is finite, but its component along the cokernel (1, 1)/sqrt(2) is not
        rd = numerical_rank(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1e-10)
        assert rd.cokernel.shape == (2, 1)
        with pytest.raises(ValueError, match="defect .* not finite"):
            classify(rd, np.array([1.7e308, 1.7e308]))


class TestSolveFamily:
    @pytest.mark.parametrize("l", [
        periodic(2, 4),
        generic([(0, np.eye(2))], np.zeros(2)),  # h = alpha stays finite
    ])
    def test_overflowing_forced_response_is_refused(self, l):
        # 1e308 summed over identity steps overflows to inf
        bvp = LinearBVP(OperatorSequence.identity(2, 4), l)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="forced response"):
            bvp.solve(np.full((4, 2), 1e308))

    def test_overflowing_transition_matrices_are_refused(self):
        # FIB^1476 overflows; Q = Phi(m, 0) - I would then reach the rank decision
        system = OperatorSequence.constant(FIB, 1500)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=r"Phi\(n, 0\) overflow from n = 1476 on"):
            LinearBVP(system, periodic(2, 1500))

    def test_invertible_Q_exact(self):
        rng = np.random.default_rng(12)
        m = 6
        A = OperatorSequence.constant(FIB, m)
        f = rng.standard_normal((m, 2))
        l = periodic(2, m)
        family = LinearBVP(A, l).solve(f)
        report = family.report
        assert report.classification == CLASSICAL
        assert family.kernel_dim == 0
        Q = family.bvp.Q
        h = family.bvp.h(particular_forced(A, f))
        assert np.allclose(family.particular[0], np.linalg.solve(Q, h), atol=1e-9)

    def test_fully_resonant_identity_system(self):
        m, N = 5, 3
        family = LinearBVP(OperatorSequence.identity(N, m),
                           periodic(N, m)).solve(np.zeros((m, N)))
        report = family.report
        assert report.classification == FAMILY
        assert report.kernel_dim == N and report.fredholm_index == 0
        # kernel members of the identity system are the constant trajectories
        for j in range(N):
            w = family.kernel_basis[j]
            assert np.allclose(w, w[0], atol=1e-14)

    def test_family_member_residuals(self):
        rng = np.random.default_rng(13)
        m, N = 6, 4
        A = random_system(rng, m, N, scale=0.8)
        f = rng.standard_normal((m, N))
        l = periodic(N, m)
        family = LinearBVP(A, l).solve(f)
        report = family.report
        particular_bc = residuals(A, l, f, family.particular)[1]
        for _ in range(5):
            c = rng.standard_normal(family.kernel_dim)
            z = family.member(c)
            scale = 1 + np.abs(z).max()
            rec, bc = residuals(A, l, f, z)
            assert rec <= 1e-10 * scale
            # kernel members contribute no boundary defect
            assert np.isclose(bc, particular_bc, atol=1e-8)
        if report.classification != QUASISOLUTION:
            assert particular_bc <= 1e-8 * (1 + np.linalg.norm(l.target))

    def test_stacked_members_equal_single_members(self):
        rng = np.random.default_rng(19)
        family = rotation_benchmark(m=7, pairs=2).family
        m, N = 7, 4
        assert family.kernel_dim == N
        C = rng.standard_normal((2, 3, family.kernel_dim))
        Z = family.member(C)
        assert Z.shape == (2, 3, m + 1, N)
        for i in np.ndindex(2, 3):
            assert np.array_equal(Z[i], family.member(C[i]))
        with pytest.raises(ValueError):
            family.member(np.zeros((2, family.kernel_dim + 1)))

    def test_stacked_members_of_empty_kernel(self):
        m = 5
        family = LinearBVP(OperatorSequence.constant(FIB, m),
                           periodic(2, m)).solve(np.ones((m, 2)))
        assert family.kernel_dim == 0
        Z = family.member(np.zeros((3, 0)))
        assert Z.shape == (3, m + 1, 2)
        assert all(np.array_equal(z, family.particular) for z in Z)

    def test_quasisolution_least_squares_optimality(self):
        rng = np.random.default_rng(14)
        m, N = 4, 2
        A = OperatorSequence.identity(N, m)
        # z1(0) = 0 and z1(m) = 1 cannot both hold for the identity system
        l = generic([(0, np.array([[1.0, 0.0], [0.0, 0.0]])),
                     (m, np.array([[0.0, 0.0], [1.0, 0.0]]))],
                    np.array([0.0, 1.0]))
        f = np.zeros((m, N))
        family = LinearBVP(A, l).solve(f)
        report = family.report
        assert report.classification == QUASISOLUTION
        best = residuals(A, l, f, family.particular)[1]
        Z = np.tile(rng.standard_normal((100, 1, N)), (1, m + 1, 1))  # exact trajectories
        assert best <= residuals(A, l, f, Z)[1].min() + 1e-8

    def test_kernel_members_homogeneous(self):
        rng = np.random.default_rng(15)
        m, N = 5, 3
        A = random_system(rng, m, N)
        l = periodic(N, m)
        family = LinearBVP(A, l).solve(rng.standard_normal((m, N)))
        W = family.kernel_basis
        rec, bc = residuals(A, l, None, W)
        scale = 1 + np.abs(W).max(axis=(1, 2))
        assert (rec <= 1e-10 * scale).all() and (bc <= 1e-8 * scale).all()

    @pytest.mark.parametrize("case", ["varying_r2", "identity_r3", "fibonacci_r0"])
    def test_kernel_basis_is_one_propagation(self, case):
        # the columns of rd.kernel propagated by the transition stack,
        # stored C-contiguous as (r, m+1, N); r = 0 gives an empty stack
        m = 7
        system, N = {"varying_r2": (varying_rotation_system(m), 2),
                     "identity_r3": (OperatorSequence.identity(3, m), 3),
                     "fibonacci_r0": (OperatorSequence.constant(FIB, m), 2)}[case]
        bvp = LinearBVP(system, periodic(N, m))
        K = bvp.solve(np.zeros((m, N))).kernel_basis
        r = int(case[-1])
        assert K.shape == (r, m + 1, N) and K.flags.c_contiguous
        for j in range(r):
            expected = np.array([phi_product(system, n, 0) @ bvp.rd.kernel[:, j]
                                 for n in range(m + 1)])
            assert np.allclose(K[j], expected, rtol=0, atol=1e-14)


class TestOneHandle:
    """solve returns one family that carries its LinearBVP and its report;
    Q's pseudoinverse and cokernel basis live only in the rank decision."""

    @pytest.mark.parametrize("case", ["fibonacci", "rotation"])
    def test_family_carries_bvp_and_report(self, case):
        system, l, f = self.case(case)
        bvp = LinearBVP(system, l)
        family = bvp.solve(f, tol=1e-9)
        assert family.bvp is bvp
        assert family.report == classify(bvp.rd, bvp.h(particular_forced(system, f)), 1e-9)
        assert np.array_equal(family.cokernel_basis, bvp.rd.cokernel)

    def test_no_stored_copies_of_Q_pinv_or_cokernel(self):
        bvp = LinearBVP(*self.case("rotation")[:2])
        assert not hasattr(bvp, "Q_pinv") and not hasattr(bvp, "cokernel_basis")

    @pytest.mark.parametrize("case", ["fibonacci", "rotation"])
    def test_green_of_swept_response_is_unchanged(self, case):
        # green(f), which swept f itself, was propagate(Q^+ (0 - l g)) + g
        system, l, f = self.case(case)
        bvp = LinearBVP(system, l)
        g = particular_forced(system, f)
        old = bvp.propagate(bvp.rd.pinv @ (np.zeros(l.codim) - l.apply(g))) + g
        assert np.array_equal(bvp.green(g), old)

    @staticmethod
    def case(name):
        rng = np.random.default_rng(20)
        if name == "fibonacci":  # Q invertible
            m = 6
            return OperatorSequence.constant(FIB, m), periodic(2, m), rng.standard_normal((m, 2))
        family = rotation_benchmark(m=7, pairs=2).family  # Q = 0
        return family.bvp.system, family.bvp.boundary, family.forcing


def psi_case(name):
    """(system, boundary) pairs for the forcing-to-boundary map psi; every
    one but no_cokernel has d > 0."""
    rng = np.random.default_rng(24)
    if name == "rotation_m600":  # time-invariant, Q = 0
        return OperatorSequence.constant(rotation_matrix(2 * np.pi / 600), 600), periodic(2, 600)
    if name == "varying_rotation":  # time-varying, Q = 0
        return varying_rotation_system(120), periodic(2, 120)
    if name == "multipoint":  # interior samples, two of them at each of n = 4 and n = 7
        m, N, q = 9, 3, 4
        samples = [(n, rng.standard_normal((q, N))) for n in (0, 4, 4, 7, m, 7)]
        return random_system(rng, m, N), generic(samples, np.zeros(q))
    if name == "constant_multipoint":  # time-invariant, samples as multipoint's
        m, N, q = 9, 3, 4
        A = rng.standard_normal((N, N))
        A[0, 2] = 0.0  # a zero that psi_sweep_system can flip to -0.0
        samples = [(n, rng.standard_normal((q, N))) for n in (0, 4, 4, 7, m, 7)]
        return OperatorSequence.constant(A, m), generic(samples, np.zeros(q))
    if name == "nilpotent":  # constant A with A^3 = 0: terms with n_k - 1 - i >= 3 vanish
        m, N, q = 8, 3, 5
        samples = [(n, rng.standard_normal((q, N))) for n in (0, 2, 5, 5, m)]
        return OperatorSequence.constant(np.diag([1.5, -0.5], 1), m), generic(samples, np.zeros(q))
    if name == "singular_steps":  # A_3 has rank 1 and A_5 = 0
        m, N, q = 8, 3, 5
        A = rng.standard_normal((m, N, N))
        A[3] = np.outer(rng.standard_normal(N), rng.standard_normal(N))
        A[5] = 0.0
        samples = [(n, rng.standard_normal((q, N))) for n in (0, 2, 4, 6, m)]
        return OperatorSequence(A), generic(samples, np.zeros(q))
    if name.startswith("fibonacci"):  # expanding; three conditions on two states
        m = int(name.split("_m")[1])
        samples = [(0, rng.standard_normal((3, 2))), (m, rng.standard_normal((3, 2)))]
        return OperatorSequence.constant(FIB, m), generic(samples, np.zeros(3))
    if name == "no_samples":  # l z = 0 z: Q = 0 and psi = 0
        return OperatorSequence.constant(FIB, 5), generic([], np.zeros(2))
    if name == "one_step":
        samples = [(0, rng.standard_normal((3, 2))), (1, rng.standard_normal((3, 2)))]
        return random_system(rng, 1, 2), generic(samples, np.zeros(3))
    assert name == "no_cokernel"  # Fibonacci periodic: Q invertible, d = 0
    return OperatorSequence.constant(FIB, 6), periodic(2, 6)


PSI_CASES = ["rotation_m600", "varying_rotation", "multipoint", "constant_multipoint",
             "nilpotent", "singular_steps", "fibonacci_m2", "fibonacci_m7", "fibonacci_m12",
             "no_samples", "one_step", "no_cokernel"]


def psi_sweep_system(system: OperatorSequence) -> OperatorSequence:
    """The same matrices with one 0.0 of A_{m-1} flipped to -0.0: equal in
    value, but time-varying bit for bit, so LinearBVP.psi sweeps them."""
    A = system.matrices.copy()
    zero = tuple(np.argwhere(A[-1] == 0.0)[0])
    A[(-1,) + zero] = -0.0
    return OperatorSequence(A)


class TestForcingToBoundaryMap:
    """LinearBVP.psi, the map f -> D^T l g of a forcing to the cokernel
    projection of its response's boundary value, built once: from the
    transition stack on a time-invariant system, backwards otherwise."""

    @pytest.mark.parametrize("case", PSI_CASES)
    def test_contracts_forcings_as_the_sweep_then_l(self, case):
        system, l = psi_case(case)
        bvp = LinearBVP(system, l)
        m, N, D = system.horizon, system.dim, bvp.rd.cokernel
        psi = bvp.psi
        assert psi.shape == (D.shape[1], m, N)
        assert (D.shape[1] == 0) == (case == "no_cokernel")
        f = np.random.default_rng(25).standard_normal((3, m, N))
        got = np.einsum("din,kin->kd", psi, f)
        swept = l.apply(particular_forced(system, f)) @ D
        scale = np.einsum("din,kin->kd", np.abs(psi), np.abs(f))
        assert (np.abs(got - swept) <= 1e-13 * (1 + scale)).all()
        if case == "no_samples":
            assert not psi.any()

    @pytest.mark.parametrize("case", ["constant_multipoint", "nilpotent", "fibonacci_m2",
                                      "fibonacci_m7", "fibonacci_m12", "no_cokernel"])
    def test_time_invariant_product_matches_the_backward_sweep(self, case):
        system, l = psi_case(case)
        swept_system = psi_sweep_system(system)
        assert system.time_invariant and not swept_system.time_invariant
        assert np.array_equal(swept_system.matrices, system.matrices)  # -0.0 == 0.0
        bvp, swept = LinearBVP(system, l), LinearBVP(swept_system, l)
        assert np.array_equal(bvp.rd.cokernel, swept.rd.cokernel)
        # |D^T L_k| |A|^(n_k-1-i) summed over n_k > i bounds each entry's terms
        D, m = bvp.rd.cokernel, system.horizon
        powers = transition_stack(OperatorSequence(np.abs(system.matrices)))
        scale = np.zeros(bvp.psi.shape)
        for n, L in l.samples:
            for i in range(n):
                scale[:, i] += np.abs(D.T @ L) @ powers[n - 1 - i]
        assert np.isfinite(scale).all() and scale.shape == (D.shape[1], m, system.dim)
        assert (np.abs(bvp.psi - swept.psi) <= 1e-13 * (1 + scale)).all()

    def test_is_read_only_and_built_once(self):
        bvp = LinearBVP(*psi_case("multipoint"))
        psi = bvp.psi
        assert bvp.psi is psi
        assert not psi.flags.writeable
        with pytest.raises(ValueError):
            psi[0, 0, 0] = 1.0


class TestGreenApply:
    def test_zero_rhs(self):
        A = random_system(np.random.default_rng(16), 4, 2)
        z = LinearBVP(A, periodic(2, 4)).green(particular_forced(A, np.zeros((4, 2))))
        assert np.allclose(z, 0.0, atol=1e-14)

    def test_additivity(self):
        rng = np.random.default_rng(17)
        m, N = 5, 3
        A = random_system(rng, m, N)
        l = periodic(N, m)
        bvp = LinearBVP(A, l)
        f1, f2 = rng.standard_normal((2, m, N))
        lhs = bvp.green(particular_forced(A, f1 + f2))
        rhs = bvp.green(particular_forced(A, f1)) + bvp.green(particular_forced(A, f2))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(lhs))

    def test_green_solves_recurrence(self):
        rng = np.random.default_rng(18)
        m, N = 6, 3
        A = random_system(rng, m, N, scale=0.7)
        f = rng.standard_normal((m, N))
        l = periodic(N, m)
        z = LinearBVP(A, l).green(particular_forced(A, f))
        assert residuals(A, l, f, z)[0] <= 1e-10 * (1 + np.abs(z).max())


def random_boundary(rng, m, N):
    """Two weighted samples, at 0 and m, with a random nonzero target."""
    return generic([(0, rng.standard_normal((2, N))), (m, rng.standard_normal((2, N)))],
                   rng.standard_normal(2))


class TestResiduals:
    @pytest.mark.parametrize("N", [1, 2, 3, 9, 32])
    def test_matches_per_step_loop(self, N):
        rng = np.random.default_rng(11)
        m = 9
        A, l = random_system(rng, m, N), random_boundary(rng, m, N)
        f, p = rng.standard_normal((2, m, N))
        z = rng.standard_normal((m + 1, N))
        loop = max(float(np.linalg.norm(z[n + 1] - A.matrices[n] @ z[n] - f[n] - p[n]))
                   for n in range(m))
        lz = sum(L @ z[n] for n, L in l.samples)
        rec, bc = residuals(A, l, f, z, p)
        assert type(rec) is float and type(bc) is float
        assert abs(rec - loop) <= 64 * np.finfo(float).eps * loop
        want = float(np.linalg.norm(lz - l.target))
        assert abs(bc - want) <= 64 * np.finfo(float).eps * want
        with pytest.raises(ValueError):  # an (m+1)-th forcing row is a wrong shape
            residuals(A, l, np.vstack([f, np.ones(N)]), z)
        # no perturbation is a zero one, bit for bit
        assert residuals(A, l, f, z) == residuals(A, l, f, z, np.zeros((m, N)))
        # f=None is the homogeneous problem: zero forcing and a zero target
        rec0, bc0 = residuals(A, l, None, z)
        assert rec0 == residuals(A, l, np.zeros((m, N)), z)[0]
        assert bc0 == float(np.linalg.norm(l.apply(z)))
        assert bc0 != residuals(A, l, np.zeros((m, N)), z)[1]

    @pytest.mark.parametrize("N", [2, 9])
    @pytest.mark.parametrize("invariant", [True, False])
    def test_stacked_rows_equal_single_calls(self, invariant, N):
        rng = np.random.default_rng(12)
        m = 70
        A = OperatorSequence.constant(rng.standard_normal((N, N)), m) if invariant \
            else random_system(rng, m, N)
        assert A.time_invariant == invariant
        l = random_boundary(rng, m, N)
        f = rng.standard_normal((m, N))
        Z, P = rng.standard_normal((2, 3, m + 1, N)), rng.standard_normal((2, 3, m, N))
        for forcing in (f, None):
            for perturbation in (P, None):
                rec, bc = residuals(A, l, forcing, Z, perturbation)
                assert rec.shape == bc.shape == (2, 3)
                for i in np.ndindex(2, 3):
                    single = residuals(A, l, forcing, Z[i],
                                       None if perturbation is None else perturbation[i])
                    assert (rec[i], bc[i]) == single


def batched_defect(A: OperatorSequence, f, z):
    """z(n+1) - A_n z(n) - f(n) with one (N, N) @ (N, 1) product per time."""
    m = A.horizon
    return z[1:m + 1] - (A.matrices @ z[:m, :, None])[..., 0] - f


class TestRecurrenceDefect:
    @pytest.mark.parametrize("N", [1, 2, 32])
    def test_time_invariant_branch_matches_the_batched_product(self, N):
        rng = np.random.default_rng(19)
        m = 600 if N <= 2 else 40
        A = OperatorSequence.constant(rng.standard_normal((N, N)), m)
        assert A.time_invariant
        f, z = rng.standard_normal((m, N)), rng.standard_normal((m + 1, N))
        got, want = recurrence_defect(A, f, z), batched_defect(A, f, z)
        assert np.abs(got - want).max() <= 64 * np.finfo(float).eps * (1 + np.abs(want).max())

    def test_a_signed_zero_takes_the_per_time_branch(self):
        rng = np.random.default_rng(20)
        mats = np.broadcast_to(np.array([[0.5, 0.0], [1.0, 2.0]]), (7, 2, 2)).copy()
        mats[3, 0, 1] = -0.0
        A = OperatorSequence(mats)
        assert not A.time_invariant and A.levels == ()
        f, z = rng.standard_normal((7, 2)), rng.standard_normal((8, 2))
        assert np.array_equal(recurrence_defect(A, f, z), batched_defect(A, f, z))

    def test_one_step_system_is_time_invariant(self):
        rng = np.random.default_rng(21)
        A = OperatorSequence(rng.standard_normal((1, 3, 3)))
        assert A.time_invariant and len(A.levels) == 1  # the top level alone
        f, z = rng.standard_normal((1, 3)), rng.standard_normal((2, 3))
        assert np.allclose(recurrence_defect(A, f, z), batched_defect(A, f, z),
                           rtol=0, atol=1e-14)
        g = linear._scan(A, f[None])
        assert np.array_equal(g[0], particular_forced(A, f))


class TestConstantSystem:
    def test_is_a_read_only_copy_of_its_own(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        A = OperatorSequence.constant(M, 5)
        assert A.matrices.flags.owndata and A.matrices.flags.c_contiguous
        assert not A.matrices.flags.writeable
        assert not np.shares_memory(A.matrices, M)
        M[0, 0] = 9.0
        assert np.array_equal(A.matrices, np.broadcast_to([[1.0, 2.0], [3.0, 4.0]], (5, 2, 2)))

    def test_copies_once(self):
        m, N = 2000, 16
        M = np.linalg.qr(np.random.default_rng(22).standard_normal((N, N)))[0]
        tracemalloc.start()
        try:
            A = OperatorSequence.constant(M, m)
            A.levels
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = A.matrices.nbytes + sum(Lt.nbytes + (0 if Ct is None else Ct.nbytes)
                                       for Lt, Ct in A.levels)
        assert peak <= 1.2 * kept
