import dataclasses
import inspect

import numpy as np
import pytest

from resbvp.boundary import periodic
from resbvp.linear import (
    LinearBVP,
    OperatorSequence,
    boundary_residual,
    particular_forced,
)
from resbvp.nonlinear import (
    NO_CONTRACTION_WINDOW,
    GeneratingFamilyError,
    NonlinearProblem,
    assemble_B0,
    check_sufficient,
    generating_F,
    iterate,
    nonlinear_recurrence_residual,
    solve_generating,
    verify_derivative,
    _fd_jacobian,
)

from resbvp.problem_io import load_problem, parse_problem

from conftest import PROBLEMS_DIR, block_rotation_doc, load_problem_doc, rotation_benchmark


def zero_Z(z, n, eps):
    return np.zeros_like(np.asarray(z, dtype=float))


def zero_Zdu(z, n, eps):
    z = np.asarray(z, dtype=float)
    return np.zeros(z.shape + z.shape[-1:])


def brute_force_F(problem, family, c):
    """Independent oracle: unroll z0(., c), push the nonlinearity through
    explicit transition products into the boundary form, and project."""
    A = problem.system.matrices
    m, N = problem.system.horizon, problem.system.dim
    z0 = family.member(c)
    g = np.zeros((m + 1, N))
    for n in range(m + 1):
        acc = np.zeros(N)
        for i in range(n):
            P = np.eye(N)
            for k in range(i + 1, n):
                P = A[k] @ P
            acc += P @ problem.Z(z0[i], i, 0.0)
        g[n] = acc
    v = sum(L @ g[n] for n, L in problem.boundary.samples)
    return family.cokernel_basis.T @ v


def resonant_identity_problem(Z, Z_du, eps=0.0, m=4, N=2):
    system = OperatorSequence.identity(N, m)
    return NonlinearProblem(system, np.zeros((m, N)), periodic(N, m), Z, Z_du, eps)


def test_nonlinear_problem_is_frozen(benchmark_problem):
    with pytest.raises(dataclasses.FrozenInstanceError):
        benchmark_problem.epsilon = 1e-3


class TestGeneratingF:
    def test_zero_nonlinearity(self, benchmark_family, benchmark_problem):
        p = resonant_identity_problem(zero_Z, zero_Zdu)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        for c in (np.zeros(2), np.array([1.0, -2.0])):
            assert np.allclose(generating_F(p, family, c), 0.0)

    def test_nonresonant_gives_empty_F(self):
        m = 5
        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        p = NonlinearProblem(system, np.zeros((m, 2)), periodic(2, m),
                             zero_Z, zero_Zdu)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        assert family.cokernel_dim == 0
        assert generating_F(p, family, np.zeros(0)).shape == (0,)

    def test_matches_brute_force_oracle(self, benchmark_problem, benchmark_family):
        rng = np.random.default_rng(21)
        for _ in range(10):
            c = rng.standard_normal(2)
            got = generating_F(benchmark_problem, benchmark_family, c)
            expected = brute_force_F(benchmark_problem, benchmark_family, c)
            assert np.linalg.norm(got - expected) <= 1e-10 * (1 + np.linalg.norm(expected))

    def test_single_sweep_arithmetic_is_kept(self):
        # F must be bit-identical to the single-forcing sweep of a per-state
        # evaluation: Newton's finite-difference Jacobian amplifies any
        # roundoff in F about a millionfold.
        prob = load_problem(str(PROBLEMS_DIR / "rotation_lv.json"))
        p = NonlinearProblem(prob.system, prob.forcing, prob.boundary,
                             *prob.nonlinearity, prob.epsilon)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        m = p.system.horizon
        for c in (np.array([0.5, 0.5]), np.array([-0.3, 1.2])):
            z0 = family.member(c)
            fz = np.array([p.Z(z0[n], n, 0.0) for n in range(m)])
            expected = family.cokernel_basis.T @ p.boundary.apply(
                particular_forced(p.system, fz))
            assert np.array_equal(generating_F(p, family, c), expected)

    def test_quasisolution_family_rejected(self):
        from resbvp.boundary import generic
        m, N = 4, 2
        system = OperatorSequence.identity(N, m)
        l = generic([(0, np.array([[1.0, 0.0], [0.0, 0.0]])),
                     (m, np.array([[0.0, 0.0], [1.0, 0.0]]))],
                    np.array([0.0, 1.0]))
        family = LinearBVP(system, l).solve(np.zeros((m, N)))
        report = family.report
        p = NonlinearProblem(system, np.zeros((m, N)), l, zero_Z, zero_Zdu)
        with pytest.raises(GeneratingFamilyError):
            generating_F(p, family, np.zeros(family.kernel_dim))


def shipped_nonlinear(name):
    prob = load_problem(str(PROBLEMS_DIR / name))
    return NonlinearProblem(prob.system, prob.forcing, prob.boundary,
                            *prob.nonlinearity, prob.epsilon)


# Problems whose F rows are compared bit for bit: three shipped files and
# the benchmark's N = 32 block rotation, the width where the
# finite-difference Jacobian is most exposed to roundoff.
STACK_CASES = ["rotation_lv.json", "gate_refusal.json", "sweep_scalar.json", "block32"]


def stack_case(name):
    p = rotation_benchmark(1e-4, m=12, pairs=16) if name == "block32" \
        else shipped_nonlinear(name)
    family = LinearBVP(p.system, p.boundary).solve(p.forcing)
    return p, family


def per_column_fd_jacobian(problem, family, c, at_eps):
    """Reference: the central-difference Jacobian one column, and two
    single evaluations of F, at a time."""
    r = c.shape[0]
    J = np.zeros((family.cokernel_dim, r))
    for j in range(r):
        step = 1e-6 * (1.0 + abs(c[j]))
        e = np.zeros(r)
        e[j] = step
        J[:, j] = (generating_F(problem, family, c + e, at_eps=at_eps)
                   - generating_F(problem, family, c - e, at_eps=at_eps)) / (2 * step)
    return J


class TestStackedF:
    @pytest.mark.parametrize("name", STACK_CASES)
    @pytest.mark.parametrize("at_eps", [0.0, 1e-3])
    def test_rows_equal_single_calls(self, name, at_eps):
        p, family = stack_case(name)
        C = 0.5 + np.random.default_rng(31).standard_normal((5, family.kernel_dim))
        F = generating_F(p, family, C, at_eps=at_eps)
        assert F.shape == (5, family.cokernel_dim)
        for c, row in zip(C, F):
            assert np.array_equal(row, generating_F(p, family, c, at_eps=at_eps))

    @pytest.mark.parametrize("name", STACK_CASES)
    @pytest.mark.parametrize("at_eps", [0.0, 1e-3])
    def test_fd_jacobian_equals_per_column_loop(self, name, at_eps):
        p, family = stack_case(name)
        c = 0.5 + 0.1 * np.random.default_rng(32).standard_normal(family.kernel_dim)
        c[0] = -0.0  # -0.0 + 0.0 is +0.0 off the diagonal, in both forms
        assert np.array_equal(_fd_jacobian(p, family, c, at_eps),
                              per_column_fd_jacobian(p, family, c, at_eps))

    def test_one_stacked_Z_call_per_newton_step(self):
        p, family = stack_case("block32")
        shapes = []

        def Z(z, n, eps):
            shapes.append(np.shape(z))
            return p.Z(z, n, eps)

        counted = dataclasses.replace(p, Z=Z)
        root = solve_generating(counted, family, np.full(family.kernel_dim, 0.5))
        assert root.converged and root.iterations >= 1
        m, N, r = p.system.horizon, p.system.dim, family.kernel_dim
        assert shapes.count((2 * r, m, N)) == root.iterations
        assert all(shape in ((m, N), (2 * r, m, N)) for shape in shapes)


class TestSolveGenerating:
    def test_zero_nonlinearity_returns_seed(self):
        p = resonant_identity_problem(zero_Z, zero_Zdu)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        root = solve_generating(p, family, [0.3, -0.7])
        assert root.converged
        assert np.allclose(root.c0, [0.3, -0.7])

    def test_linear_F_one_newton_step(self):
        # Z linear in z makes F affine in c: Newton converges immediately
        def Z(z, n, eps):
            z = np.asarray(z, dtype=float)
            return np.stack([z[..., 0] + 2 * z[..., 1] + 1.0,
                             -z[..., 0] + z[..., 1] - 0.5], axis=-1)

        def Z_du(z, n, eps):
            z = np.asarray(z, dtype=float)
            return np.broadcast_to([[1.0, 2.0], [-1.0, 1.0]], z.shape + (2,))

        p = resonant_identity_problem(Z, Z_du)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        root = solve_generating(p, family, [5.0, -3.0])
        assert root.converged
        assert root.residual_norm <= 1e-9
        assert root.iterations <= 2

    def test_embedded_scalar_square_root(self):
        # F(c) = const * (c^2 - 4) componentwise via Z_i = z_i^2 - 4
        def Z(z, n, eps):
            return np.asarray(z) ** 2 - 4.0

        def Z_du(z, n, eps):
            z = np.asarray(z, dtype=float)
            return 2 * z[..., None] * np.eye(z.shape[-1])

        p = resonant_identity_problem(Z, Z_du, N=1)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        root = solve_generating(p, family, [1.0])
        assert root.converged
        # kernel basis of the scalar zero matrix is +-1; the state is +-2
        state = family.member(root.c0)[0]
        assert np.allclose(np.abs(state), 2.0, atol=1e-8)

    def test_stagnation_reports_steps_taken(self):
        # constant Z: F is a nonzero constant, its Jacobian vanishes and the
        # first line search cannot improve, so no step is taken
        def Z(z, n, eps):
            return np.full_like(np.asarray(z, dtype=float), 2.0)

        p = resonant_identity_problem(Z, zero_Zdu)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        root = solve_generating(p, family, [0.1, 0.2], max_iter=50)
        assert not root.converged
        assert root.iterations == 0
        assert np.allclose(root.c0, [0.1, 0.2])

    def test_nonresonant_short_circuits(self):
        m = 4
        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        p = NonlinearProblem(system, np.zeros((m, 2)), periodic(2, m), zero_Z, zero_Zdu)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        root = solve_generating(p, family, np.zeros(0))
        assert root.converged and root.c0.shape == (0,)


class TestB0:
    def test_zero_derivative_gives_zero(self):
        def Z(z, n, eps):
            return np.full_like(np.asarray(z, dtype=float), 2.0)

        p = resonant_identity_problem(Z, zero_Zdu)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        assert np.allclose(assemble_B0(p, family, np.zeros(2)), 0.0)

    def test_degenerate_shapes(self):
        m = 4
        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        p = NonlinearProblem(system, np.zeros((m, 2)), periodic(2, m), zero_Z, zero_Zdu)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        assert assemble_B0(p, family, np.zeros(0)).shape == (0, 0)

    def test_matches_negative_fd_jacobian(self, benchmark_problem, benchmark_family):
        root = solve_generating(benchmark_problem, benchmark_family, [0.5, 0.5])
        assert root.converged
        B0 = assemble_B0(benchmark_problem, benchmark_family, root.c0)
        h = 1e-6
        J = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            J[:, j] = (generating_F(benchmark_problem, benchmark_family, root.c0 + e)
                       - generating_F(benchmark_problem, benchmark_family, root.c0 - e)) / (2 * h)
        assert np.linalg.norm(B0 + J) <= 1e-6 * (1 + np.linalg.norm(B0))


class TestCheckSufficient:
    def test_identity_holds(self):
        chk = check_sufficient(np.eye(3))
        assert chk.holds and chk.product_norm <= 1e-12

    def test_zero_fails_with_null_direction(self):
        chk = check_sufficient(np.zeros((2, 3)))
        assert not chk.holds
        assert chk.row_rank == 0
        assert np.isclose(np.linalg.norm(chk.null_direction), 1.0)

    def test_no_columns_has_row_rank_zero(self):
        chk = check_sufficient(np.zeros((2, 0)))  # r = 0 < d
        assert not chk.holds and chk.row_rank == 0 and chk.required_rank == 2
        assert np.array_equal(chk.null_direction, [1.0, 0.0])
        assert np.array_equal(chk.B0_pinv, np.zeros((0, 2)))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_pseudoinverse_has_shape_r_by_d(self, shape):
        assert np.array_equal(check_sufficient(np.zeros(shape)).B0_pinv, np.zeros(shape[::-1]))

    def test_pseudoinverse_drops_the_directions_the_gate_calls_null(self):
        # 1e-12 is below the gate's cutoff 1e-9 (1 + 1) but above the standard
        # one, 2 eps: the gate fails, and B0^+ does not invert 1e-12
        chk = check_sufficient(np.diag([1.0, 1e-12]))
        assert not chk.holds and chk.row_rank == 1
        assert np.array_equal(chk.B0_pinv, np.diag([1.0, 0.0]))

    def test_pseudoinverse_when_the_gate_holds(self):
        B0 = np.random.default_rng(31).standard_normal((2, 3))
        chk = check_sufficient(B0)
        assert chk.holds
        assert np.allclose(B0 @ chk.B0_pinv, np.eye(2), atol=1e-12)

    def test_random_full_row_rank_holds(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            d, r = int(rng.integers(1, 4)), int(rng.integers(4, 7))
            B0 = rng.standard_normal((d, r))
            assert np.linalg.matrix_rank(B0) == d  # oracle
            assert check_sufficient(B0).holds


class TestIterate:
    def test_takes_the_green_operator_from_the_family(self):
        assert list(inspect.signature(iterate).parameters)[:4] == [
            "problem", "family", "c0", "B0_pinv"]
        assert "bvp" not in inspect.signature(iterate).parameters

    def test_eps_zero_returns_generating_solution(self, benchmark_problem, benchmark_family):
        assert benchmark_problem.epsilon == 0.0
        root = solve_generating(benchmark_problem, benchmark_family, [0.5, 0.5])
        B0 = assemble_B0(benchmark_problem, benchmark_family, root.c0)
        z, trace = iterate(benchmark_problem, benchmark_family, root.c0,
                           check_sufficient(B0).B0_pinv)
        assert trace.converged and trace.iterations == 0
        z0 = benchmark_family.member(root.c0)
        assert np.abs(z - z0).max() <= 1e-14

    def test_zero_nonlinearity_keeps_u_zero(self):
        p = resonant_identity_problem(zero_Z, zero_Zdu, eps=0.1)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        z, trace = iterate(p, family, np.zeros(2),
                           check_sufficient(assemble_B0(p, family, np.zeros(2))).B0_pinv)
        assert trace.converged
        assert np.abs(z - family.member(np.zeros(2))).max() <= 1e-14

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_benchmark_converges_with_small_residuals(self, eps):
        p = rotation_benchmark(eps)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        root = solve_generating(p, family, [0.5, 0.5])
        z, trace = iterate(p, family, root.c0,
                           check_sufficient(assemble_B0(p, family, root.c0)).B0_pinv)
        assert trace.converged and trace.iterations <= 200
        assert trace.reason == "converged" and len(trace.increments) == trace.iterations + 1
        assert nonlinear_recurrence_residual(p, z) <= 1e-8
        assert boundary_residual(p.boundary, z) <= 1e-8
        # necessity: the accepted root satisfies the generating equation
        assert root.residual_norm <= 1e-10
        # condition-(17)-style projected residual at convergence
        assert trace.records[-1][5] <= 1e-6 * (1 + np.abs(z - family.member(root.c0)).max())

    def test_linear_scaling_in_eps(self):
        sizes = []
        eps_grid = [1e-2, 1e-3, 1e-4]
        for eps in eps_grid:
            p = rotation_benchmark(eps)
            family = LinearBVP(p.system, p.boundary).solve(p.forcing)
            root = solve_generating(p, family, [0.5, 0.5])
            z, trace = iterate(p, family, root.c0,
                               check_sufficient(assemble_B0(p, family, root.c0)).B0_pinv)
            assert trace.converged
            sizes.append(np.abs(z - family.member(root.c0)).max())
        slope = np.polyfit(np.log(eps_grid), np.log(sizes), 1)[0]
        assert abs(slope - 1.0) <= 0.15

    def test_sufficiency_gate_blocks(self):
        def Z(z, n, eps):
            return np.asarray(z, dtype=float) ** 2

        def Z_du(z, n, eps):
            z = np.asarray(z, dtype=float)
            return 2 * z[..., None] * np.eye(z.shape[-1])

        p = resonant_identity_problem(Z, Z_du, eps=1e-3)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        assert not check_sufficient(assemble_B0(p, family, np.zeros(2))).holds

    def test_non_finite_iterate_stops(self):
        # Z turns NaN once a state leaves [-2, 2]; NaN never exceeds the
        # blow-up bound, so only an explicit finiteness check stops it
        def Z(z, n, eps):
            z = np.asarray(z, dtype=float)
            return np.where(np.abs(z) > 2.0, np.nan, 1.0 + z)

        p = resonant_identity_problem(Z, zero_Zdu, eps=1.0, N=1)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        B0_pinv = check_sufficient(assemble_B0(p, family, np.zeros(1))).B0_pinv
        z, trace = iterate(p, family, np.zeros(1), B0_pinv, max_iter=200)
        assert not trace.converged and trace.reason == "non_finite"
        assert trace.iterations <= 5
        assert not np.isfinite(z).all()

    def test_stops_once_the_increment_stops_shrinking(self):
        # the benchmark's m = 600, eps = 1e-3 block rotation (f0): without the
        # rule it runs all 200 rounds unconverged
        doc = parse_problem(block_rotation_doc(600, 2, 1e-3, 0))
        p = NonlinearProblem(doc.system, doc.forcing, doc.boundary, *doc.nonlinearity,
                             doc.epsilon)
        family = LinearBVP(p.system, p.boundary).solve(p.forcing)
        root = solve_generating(p, family, [0.5, 0.5])
        B0_pinv = check_sufficient(assemble_B0(p, family, root.c0)).B0_pinv
        _, trace = iterate(p, family, root.c0, B0_pinv)
        w, k, delta = NO_CONTRACTION_WINDOW, trace.iterations, trace.increments
        assert not trace.converged and trace.reason == "no_contraction"
        assert len(delta) == len(trace.records) == k + 1
        assert k > w and delta[k] >= delta[k - w]
        assert all(delta[j] < delta[j - w] for j in range(w + 1, k))  # the first such round


class TestRemainder:
    def test_remainder_law(self, benchmark_problem, benchmark_family):
        # R(u) = Z(z0+u, n, 0) - Z(z0, n, 0) - Z'(z0, n, 0) u is quadratically small
        root = solve_generating(benchmark_problem, benchmark_family, [0.5, 0.5])
        z0 = benchmark_family.member(root.c0)
        p = benchmark_problem
        rng = np.random.default_rng(33)
        for n in range(p.system.horizon):
            Z0 = p.Z(z0[n], n, 0.0)
            J = p.Z_du(z0[n], n, 0.0)
            assert np.allclose(p.Z(z0[n] + 0.0, n, 0.0) - Z0, 0.0)
            for scale in (1e-2, 1e-3):
                u = scale * rng.standard_normal(2)
                R = p.Z(z0[n] + u, n, 0.0) - Z0 - J @ u
                assert np.linalg.norm(R) <= 10.0 * np.linalg.norm(u) ** 2


class TestVerifyDerivative:
    def test_accepts_consistent_pair(self, benchmark_problem):
        verify_derivative(benchmark_problem)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_accepts_correct_large_derivative(self, scale):
        # Z = scale z^2: Frobenius norms of Z_du's entries near 1e154 and
        # above overflow to inf / inf, and the correct pair was refused
        doc = load_problem_doc("sweep_scalar.json")
        doc["nonlinearity"]["coeffs"] = [0.0, 0.0, scale]
        doc = parse_problem(doc)
        verify_derivative(NonlinearProblem(doc.system, doc.forcing, doc.boundary,
                                           *doc.nonlinearity, doc.epsilon))

    def test_rejects_nan_derivative(self, benchmark_problem):
        from resbvp.nonlinear import DerivativeMismatchError

        def nan_Zdu(z, n, eps):
            z = np.asarray(z, dtype=float)
            return np.full(z.shape + z.shape[-1:], np.nan)

        bad = NonlinearProblem(benchmark_problem.system, benchmark_problem.forcing,
                               benchmark_problem.boundary, benchmark_problem.Z,
                               nan_Zdu, 0.0)
        with pytest.raises(DerivativeMismatchError):
            verify_derivative(bad)

    def test_rejects_wrong_derivative(self, benchmark_problem):
        from resbvp.nonlinear import DerivativeMismatchError
        bad = NonlinearProblem(benchmark_problem.system, benchmark_problem.forcing,
                               benchmark_problem.boundary, benchmark_problem.Z,
                               zero_Zdu, 0.0)
        with pytest.raises(DerivativeMismatchError):
            verify_derivative(bad)
