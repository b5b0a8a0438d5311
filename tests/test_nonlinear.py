import contextlib
import dataclasses
import inspect
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from resbvp import linear, nonlinear
from resbvp.boundary import generic, periodic
from resbvp.linear import (
    QUASISOLUTION,
    LinearBVP,
    OperatorSequence,
    particular_forced,
    residuals,
)
from resbvp.lotka_volterra import LotkaVolterraSpec, lv_callables
from resbvp.nonlinear import (
    NO_CONTRACTION_WINDOW,
    GeneratingFamilyError,
    NonlinearProblem,
    assemble_B0,
    check_sufficient,
    generating_F,
    iterate,
    solve_generating,
    verify_derivative,
    _F_evaluator,
    _fd_jacobian,
)

from resbvp.problem_io import DEFAULT_SOLVER, DEFAULT_TOLERANCES, load_problem, parse_problem

from conftest import (
    PROBLEMS_DIR,
    bench_workloads,
    block_rotation,
    block_rotation_doc,
    brute_force_F,
    from_file,
    load_problem_doc,
    rotation_benchmark,
    scan,
    varying_block_doc,
    varying_rotation_system,
)


def zero_Z(z, n, eps):
    return np.zeros_like(np.asarray(z, dtype=float))


def zero_Zdu(z, n, eps):
    z = np.asarray(z, dtype=float)
    return np.zeros(z.shape + z.shape[-1:])


def over_zero_forcing(system, l, Z, Z_du, eps=0.0):
    """The NonlinearProblem over the family of (system, l) with f = 0."""
    family = LinearBVP(system, l).solve(np.zeros((system.horizon, system.dim)))
    return NonlinearProblem(family, Z, Z_du, eps)


def resonant_identity_problem(Z, Z_du, eps=0.0, m=4, N=2):
    return over_zero_forcing(OperatorSequence.identity(N, m), periodic(N, m), Z, Z_du, eps)


def test_nonlinear_problem_is_frozen(benchmark_problem):
    with pytest.raises(dataclasses.FrozenInstanceError):
        benchmark_problem.epsilon = 1e-3


class TestGeneratingF:
    def test_zero_nonlinearity(self, benchmark_family, benchmark_problem):
        p = resonant_identity_problem(zero_Z, zero_Zdu)
        for c in (np.zeros(2), np.array([1.0, -2.0])):
            assert np.allclose(generating_F(p, c), 0.0)

    def test_nonresonant_gives_empty_F(self):
        m = 5
        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        p = over_zero_forcing(system, periodic(2, m), zero_Z, zero_Zdu)
        family = p.family
        assert family.cokernel_dim == 0
        assert generating_F(p, np.zeros(0)).shape == (0,)

    def test_matches_brute_force_oracle(self, benchmark_problem, benchmark_family):
        rng = np.random.default_rng(21)
        for _ in range(10):
            c = rng.standard_normal(2)
            got = generating_F(benchmark_problem, c)
            expected = brute_force_F(benchmark_problem, c)
            assert np.linalg.norm(got - expected) <= 1e-10 * (1 + np.linalg.norm(expected))

    def test_single_sweep_arithmetic_is_kept(self):
        # F must be bit-identical to the single-forcing sweep of a per-state
        # evaluation: Newton's finite-difference Jacobian amplifies any
        # roundoff in F about a millionfold.
        p = from_file(load_problem(str(PROBLEMS_DIR / "rotation_lv.json")))
        family, bvp = p.family, p.family.bvp
        m = bvp.system.horizon
        for c in (np.array([0.5, 0.5]), np.array([-0.3, 1.2])):
            z0 = family.member(c)
            fz = np.array([p.Z(z0[n], n, 0.0) for n in range(m)])
            expected = family.cokernel_basis.T @ bvp.boundary.apply(
                particular_forced(bvp.system, fz))
            assert np.array_equal(generating_F(p, c), expected)

    def test_quasisolution_family_rejected(self):
        m, N = 4, 2
        system = OperatorSequence.identity(N, m)
        l = generic([(0, np.array([[1.0, 0.0], [0.0, 0.0]])),
                     (m, np.array([[0.0, 0.0], [1.0, 0.0]]))],
                    np.array([0.0, 1.0]))
        family = LinearBVP(system, l).solve(np.zeros((m, N)))
        assert family.report.classification == QUASISOLUTION
        with pytest.raises(GeneratingFamilyError):  # refused at construction
            NonlinearProblem(family, zero_Z, zero_Zdu)


def shipped_nonlinear(name):
    return from_file(load_problem(str(PROBLEMS_DIR / name)))


# Problems whose F rows are compared bit for bit: three shipped files and
# the benchmark's N = 32 block rotation, the width where the
# finite-difference Jacobian is most exposed to roundoff.
STACK_CASES = ["rotation_lv.json", "gate_refusal.json", "sweep_scalar.json", "block32"]


def stack_case(name):
    p = rotation_benchmark(1e-4, m=12, pairs=16) if name == "block32" \
        else shipped_nonlinear(name)
    return p, p.family


def per_column_fd_jacobian(problem, c, at_eps):
    """Reference: the central-difference Jacobian one column, and two
    single evaluations of F, at a time."""
    r = c.shape[0]
    J = np.zeros((problem.family.cokernel_dim, r))
    for j in range(r):
        step = 1e-6 * (1.0 + abs(c[j]))
        e = np.zeros(r)
        e[j] = step
        J[:, j] = (generating_F(problem, c + e, at_eps=at_eps)
                   - generating_F(problem, c - e, at_eps=at_eps)) / (2 * step)
    return J


class TestStackedF:
    @pytest.mark.parametrize("name", STACK_CASES)
    @pytest.mark.parametrize("at_eps", [0.0, 1e-3])
    def test_rows_equal_single_calls(self, name, at_eps):
        p, family = stack_case(name)
        C = 0.5 + np.random.default_rng(31).standard_normal((5, family.kernel_dim))
        F = generating_F(p, C, at_eps=at_eps)
        assert F.shape == (5, family.cokernel_dim)
        for c, row in zip(C, F):
            assert np.array_equal(row, generating_F(p, c, at_eps=at_eps))

    @pytest.mark.parametrize("name", STACK_CASES)
    @pytest.mark.parametrize("at_eps", [0.0, 1e-3])
    def test_fd_jacobian_equals_per_column_loop(self, name, at_eps):
        p, family = stack_case(name)
        c = 0.5 + 0.1 * np.random.default_rng(32).standard_normal(family.kernel_dim)
        c[0] = -0.0  # -0.0 + 0.0 is +0.0 off the diagonal, in both forms
        assert np.array_equal(_fd_jacobian(_F_evaluator(p, at_eps), c),
                              per_column_fd_jacobian(p, c, at_eps))

    def test_one_stacked_Z_call_per_newton_step(self):
        p, family = stack_case("block32")
        shapes = []

        def Z(z, n, eps):
            shapes.append(np.shape(z))
            return p.Z(z, n, eps)

        counted = dataclasses.replace(p, Z=Z)
        root = solve_generating(counted, np.full(family.kernel_dim, 0.5))
        assert root.converged and root.iterations >= 1
        m, N, r = family.bvp.system.horizon, family.bvp.system.dim, family.kernel_dim
        assert shapes.count((2 * r, m, N)) == root.iterations
        assert all(shape in ((m, N), (2 * r, m, N)) for shape in shapes)


class TestBoundF:
    """One _F_evaluator, called again and again with changing points, single
    and stacked as Newton calls it, equals generating_F bit for bit."""

    @pytest.mark.parametrize("case", ["scanned_m600_N2", "stepped_m24_N32", "varying_m120",
                                      "interior_sample", "rotation_lv.json"])
    @pytest.mark.parametrize("at_eps", [0.0, 1e-3])
    def test_equals_generating_F(self, case, at_eps):
        p = {"scanned_m600_N2": lambda: block_rotation(600, 2, 1e-4, 0),
             "stepped_m24_N32": lambda: block_rotation(24, 32, 1e-4, 0),
             "varying_m120": lambda: varying_rotation(120, 1e-3),
             "interior_sample": interior_sample_rotation}.get(case, lambda: shipped_nonlinear(case))()
        r, rng = p.family.kernel_dim, np.random.default_rng(35)
        F_of = _F_evaluator(p, at_eps)
        for shape in [(r,), (2 * r, r), (r,), (3, r), (2 * r, r)]:
            c = 0.5 + 0.1 * rng.standard_normal(shape)
            assert np.array_equal(F_of(c), generating_F(p, c, at_eps=at_eps))


class TestLongWindowF:
    """On a window of more than 64 steps generating_F sweeps through the
    scan; it still matches F swept step by step."""

    @pytest.mark.parametrize("N", [2, 8])
    def test_matches_the_step_by_step_sweep(self, monkeypatch, N):
        p = block_rotation(600, N, 1e-4, 0)
        family = p.family
        C = 0.5 + np.random.default_rng(33).standard_normal((3, family.kernel_dim))
        scanned = generating_F(p, C)
        single = generating_F(p, C[0])
        monkeypatch.setattr(linear, "_SCAN_MIN_HORIZON", 10**9)
        stepped = generating_F(p, C)
        scale = np.abs(stepped).max()
        assert scale > 1.0
        assert np.abs(scanned - stepped).max() <= 1e-13 * scale
        assert np.abs(single - stepped[0]).max() <= 1e-13 * scale


class TestSolveGenerating:
    def test_zero_nonlinearity_returns_seed(self):
        p = resonant_identity_problem(zero_Z, zero_Zdu)
        root = solve_generating(p, [0.3, -0.7])
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
        root = solve_generating(p, [5.0, -3.0])
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
        family = p.family
        root = solve_generating(p, [1.0])
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
        root = solve_generating(p, [0.1, 0.2], max_iter=50)
        assert not root.converged
        assert root.iterations == 0
        assert np.allclose(root.c0, [0.1, 0.2])

    @pytest.mark.parametrize("c_init", [[[0.5, 0.5]], [0.5]], ids=["nested", "short"])
    def test_c_init_of_another_shape_is_refused(self, c_init):
        # r = 2: one shape rule, (r,), with no reshaping of a nested pair
        with pytest.raises(ValueError, match=r"c_init: expected shape \(2,\) .* got shape "
                                             + re.escape(str(np.shape(c_init)))):
            solve_generating(rotation_benchmark(), c_init)

    def test_nonresonant_short_circuits(self):
        m = 4
        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        p = over_zero_forcing(system, periodic(2, m), zero_Z, zero_Zdu)
        root = solve_generating(p, np.zeros(0))
        assert root.converged and root.c0.shape == (0,)

    def test_overflowing_norm_under_warnings_as_errors(self):
        # F's 2-norm overflows at gains of 1e200; Newton's guard takes the
        # rescaled norm without an overflow warning, so a caller that makes
        # warnings errors gets the same 5 steps as one that does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            root = solve_generating(overflowing_gain(1e200), [0.5, 0.5])
        assert root.iterations == 5 and not root.converged
        assert root.residual_norm == pytest.approx(3.6566e187, rel=1e-4)


def interior_sample_rotation():
    """The benchmark rotation (m = 6, Phi(6, 0) = I) under z(6) - z(0) +
    M z(3) + M z(3) = 0, M = diag(1, 0): an interior sample time, taken
    twice, that makes Q = -2M, so r = d = 1."""
    m = 6
    system = rotation_benchmark().family.bvp.system
    M = np.diag([1.0, 0.0])
    l = generic([(0, -np.eye(2)), (3, M), (m, np.eye(2)), (3, M)], np.zeros(2))
    return over_zero_forcing(system, l, *lv_callables(LotkaVolterraSpec.uniform(1)))


def benchmark_root():
    p = rotation_benchmark()
    root = solve_generating(p, [0.5, 0.5])
    assert root.converged
    return p, root.c0


B0_CASES = {
    "benchmark_root": benchmark_root,
    "varying_m120": lambda: (varying_rotation(120, 1e-3), np.array([0.5, -0.2])),
    "interior_sample": lambda: (interior_sample_rotation(), np.array([0.7])),
    "block_m24_N32": lambda: (block_rotation(24, 32, 1e-4, 0),
                              0.5 + 0.1 * np.random.default_rng(34).standard_normal(32)),
}


def reference_sweep(system, f):
    """The sweep of the references below: the blocked scan of a stack over
    a time-invariant system, step by step through a time-varying one."""
    return (scan if system.time_invariant else particular_forced)(system, f)


def scanned_B0(problem, c0):
    """B0 as it was before the map psi: the scan of Z_du(z0) times each
    kernel trajectory, then l, then the cokernel projection."""
    family, bvp = problem.family, problem.family.bvp
    m = bvp.system.horizon
    Zdu = np.asarray(problem.Z_du(family.member(c0)[:m], np.arange(m), 0.0))
    G = reference_sweep(bvp.system, (Zdu @ family.kernel_basis[:, :-1, :, None])[..., 0])
    return -family.cokernel_basis.T @ bvp.boundary.apply(G).T


def spy_sweeps(monkeypatch) -> list:
    """Record the forcing shape of every forced sweep run: each sweep bound
    by linear._forced_sweep, in the nonlinear module or through
    particular_forced, records every call."""
    shapes = []

    def binding(system, stack, _bind=linear._forced_sweep):
        sweep = _bind(system, stack)

        def spying(f):
            shapes.append(np.shape(f))
            return sweep(f)
        return spying
    monkeypatch.setattr(nonlinear, "_forced_sweep", binding)
    monkeypatch.setattr(linear, "_forced_sweep", binding)
    return shapes


class TestB0:
    def test_zero_derivative_gives_zero(self):
        def Z(z, n, eps):
            return np.full_like(np.asarray(z, dtype=float), 2.0)

        p = resonant_identity_problem(Z, zero_Zdu)
        assert np.allclose(assemble_B0(p, np.zeros(2)), 0.0)

    def test_degenerate_shapes(self):
        m = 4
        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        p = over_zero_forcing(system, periodic(2, m), zero_Z, zero_Zdu)
        assert assemble_B0(p, np.zeros(0)).shape == (0, 0)

    @pytest.mark.parametrize("case", sorted(B0_CASES))
    def test_matches_negative_fd_jacobian(self, case):
        p, c0 = B0_CASES[case]()
        B0 = assemble_B0(p, c0)
        J = per_column_fd_jacobian(p, c0, 0.0)
        assert np.linalg.norm(B0 + J) <= 1e-6 * (1 + np.linalg.norm(B0))

    @pytest.mark.parametrize("case", sorted(B0_CASES))
    def test_matches_the_scanned_formula(self, case):
        p, c0 = B0_CASES[case]()
        expected = scanned_B0(p, c0)
        assert np.abs(assemble_B0(p, c0) - expected).max() <= 1e-13 * (1 + np.abs(expected).max())

    def test_gate_refusal_gives_exactly_zero(self):
        p = shipped_nonlinear("gate_refusal.json")  # Z = z^2 at z0 = 0: Z_du = 0
        B0 = assemble_B0(p, np.zeros(2))
        assert B0.shape == (2, 2) and (B0 == 0).all()

    def test_one_product_and_no_sweep(self, monkeypatch):
        p, c0 = B0_CASES["block_m24_N32"]()
        swept = spy_sweeps(monkeypatch)
        assemble_B0(p, c0)
        assert swept == []


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
        assert list(inspect.signature(iterate).parameters)[:3] == ["problem", "c0", "B0_pinv"]
        for stage in (generating_F, _fd_jacobian, solve_generating, assemble_B0, iterate):
            assert not {"family", "bvp"} & set(inspect.signature(stage).parameters)

    def test_eps_zero_returns_generating_solution(self, benchmark_problem, benchmark_family):
        assert benchmark_problem.epsilon == 0.0
        root = solve_generating(benchmark_problem, [0.5, 0.5])
        B0 = assemble_B0(benchmark_problem, root.c0)
        z, trace = iterate(benchmark_problem, root.c0,
                           check_sufficient(B0).B0_pinv)
        assert trace.converged and trace.iterations == 0
        z0 = benchmark_family.member(root.c0)
        assert np.abs(z - z0).max() <= 1e-14

    def test_zero_nonlinearity_keeps_u_zero(self):
        p = resonant_identity_problem(zero_Z, zero_Zdu, eps=0.1)
        family = p.family
        z, trace = iterate(p, np.zeros(2),
                           check_sufficient(assemble_B0(p, np.zeros(2))).B0_pinv)
        assert trace.converged
        assert np.abs(z - family.member(np.zeros(2))).max() <= 1e-14

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_benchmark_converges_with_small_residuals(self, eps):
        p = rotation_benchmark(eps)
        family = p.family
        root = solve_generating(p, [0.5, 0.5])
        z, trace = iterate(p, root.c0,
                           check_sufficient(assemble_B0(p, root.c0)).B0_pinv)
        assert trace.converged and trace.iterations <= 200
        assert trace.reason == "converged" and len(trace.increments) == trace.iterations + 1
        m = family.bvp.system.horizon
        rec, bc = residuals(family.bvp.system, family.bvp.boundary, family.forcing, z,
                            p.epsilon * p.Z(z[:m], np.arange(m), p.epsilon))
        assert rec <= 1e-8 and bc <= 1e-8
        # necessity: the accepted root satisfies the generating equation
        assert root.residual_norm <= 1e-10
        # condition-(17)-style projected residual at convergence
        assert trace.records[-1][5] <= 1e-6 * (1 + np.abs(z - family.member(root.c0)).max())

    def test_linear_scaling_in_eps(self):
        sizes = []
        eps_grid = [1e-2, 1e-3, 1e-4]
        for eps in eps_grid:
            p = rotation_benchmark(eps)
            family = p.family
            root = solve_generating(p, [0.5, 0.5])
            z, trace = iterate(p, root.c0,
                               check_sufficient(assemble_B0(p, root.c0)).B0_pinv)
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
        assert not check_sufficient(assemble_B0(p, np.zeros(2))).holds

    def test_non_finite_iterate_stops(self):
        # Z turns NaN once a state leaves [-2, 2]; NaN never exceeds the
        # blow-up bound, so only an explicit finiteness check stops it
        def Z(z, n, eps):
            z = np.asarray(z, dtype=float)
            return np.where(np.abs(z) > 2.0, np.nan, 1.0 + z)

        p = resonant_identity_problem(Z, zero_Zdu, eps=1.0, N=1)
        B0_pinv = check_sufficient(assemble_B0(p, np.zeros(1))).B0_pinv
        z, trace = iterate(p, np.zeros(1), B0_pinv, max_iter=200)
        assert not trace.converged and trace.reason == "non_finite"
        assert trace.iterations <= 5
        assert trace.why == f"non-finite iterate at round {trace.iterations}"
        assert not np.isfinite(z).all()

    def test_negative_max_iter_is_refused(self):
        p = resonant_identity_problem(zero_Z, zero_Zdu, eps=0.1)
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
            iterate(p, np.zeros(2), np.eye(2), max_iter=-1)

    def test_stops_once_the_increment_stops_shrinking(self):
        # the benchmark's m = 600, eps = 1e-3 block rotation (f0): without the
        # rule it runs all 200 rounds unconverged
        doc = parse_problem(block_rotation_doc(600, 2, 1e-3, 0))
        p = from_file(doc)
        root = solve_generating(p, [0.5, 0.5])
        B0_pinv = check_sufficient(assemble_B0(p, root.c0)).B0_pinv
        _, trace = iterate(p, root.c0, B0_pinv)
        w, k, delta = NO_CONTRACTION_WINDOW, trace.iterations, trace.increments
        assert not trace.converged and trace.reason == "no_contraction"
        assert len(delta) == len(trace.records) == k + 1
        assert k > w and delta[k] >= delta[k - w]
        assert all(delta[j] < delta[j - w] for j in range(w + 1, k))  # the first such round

    @staticmethod
    def false_stall(m=96, N=32, eps=3e-4, base=2):
        """By default the block rotation m = 96, N = 32, eps = 3e-4, base seed
        2, seed 0: the one run of 178 converging ones on the grid m in (24,
        96, 384, 600), N in (2, 8, 32), eps in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
        and base seeds 0-4 that the 20-round window stops, though it
        converges. Base seeds 5-9 hold one more: m = 600, N = 8, eps = 1e-4,
        base seed 6."""
        p = block_rotation(m, N, eps, base)
        root = solve_generating(p, [0.5] * N)
        return p, root.c0, check_sufficient(assemble_B0(p, root.c0)).B0_pinv

    def test_the_window_stops_a_run_that_converges_without_it(self, monkeypatch):
        p, c0, B0_pinv = self.false_stall()
        _, trace = iterate(p, c0, B0_pinv)
        delta = trace.increments
        assert trace.reason == "no_contraction" and trace.iterations == 23
        assert f"{delta[23]:.1e} {delta[3]:.1e}" == "3.9e+00 1.7e+00"
        monkeypatch.setattr(nonlinear, "NO_CONTRACTION_WINDOW", 10**9)
        _, trace = iterate(p, c0, B0_pinv)
        assert trace.converged and trace.iterations == 142

    @pytest.mark.xfail(strict=True, reason="the 20-round no-contraction window stops these "
                                           "converging runs at round 23 (they converge at "
                                           "142 and 144)")
    @pytest.mark.parametrize("case", [(96, 32, 3e-4, 2), (600, 8, 1e-4, 6)],
                             ids=["m96_N32_eps3e-4_base2", "m600_N8_eps1e-4_base6"])
    def test_block_rotation_m96_N32_eps3e_4_base2_converges(self, case):
        p, c0, B0_pinv = self.false_stall(*case)
        assert iterate(p, c0, B0_pinv)[1].converged

    @pytest.mark.parametrize("m, N", [(600, 2), (24, 32)])
    def test_one_single_forcing_sweep_and_no_Z_du_per_round(self, monkeypatch, m, N):
        p = block_rotation(m, N, 1e-4, 0)
        c0 = solve_generating(p, [0.5] * N).c0
        B0_pinv = check_sufficient(assemble_B0(p, c0)).B0_pinv
        derivatives = []

        def Z_du(z, n, eps):
            derivatives.append(np.shape(z))
            return p.Z_du(z, n, eps)

        swept = spy_sweeps(monkeypatch)
        _, trace = iterate(dataclasses.replace(p, Z_du=Z_du), c0, B0_pinv)
        assert trace.converged and trace.iterations > 1
        assert swept == [(m, N)] * (trace.iterations + 1)
        assert derivatives == [(m, N)]


def reference_iterate(problem, c0, B0_pinv, tol=1e-10, max_iter=200,
                      blowup=1e6, residual_tol=1e-8):
    """The fixed-point round as it was before iterate made one Z_du product
    per round: R formed on its own, l applied to each response apart, the
    kernel part by tensordot, and Green's propagation and the recurrence
    defect as per-time batched products. Returns (z, records, increments,
    iterations, reason) with iterate's stopping rules."""
    family = problem.family
    bvp, D = family.bvp, family.cokernel_basis
    system, l = bvp.system, bvp.boundary
    eps, m = problem.epsilon, system.horizon
    A, f = system.matrices, np.asarray(family.forcing, dtype=float)[:m]

    def along(fn, z, at_eps):
        return np.asarray(fn(z[:m], np.arange(m), at_eps), dtype=float)

    def matvec(M, v):
        return (M @ v[..., None])[..., 0]

    def green(g):
        return bvp.U @ (bvp.rd.pinv @ (np.zeros(l.codim) - l.apply(g))) + g

    z0 = family.member(c0)
    Z0, Zdu = along(problem.Z, z0, 0.0), along(problem.Z_du, z0, 0.0)
    Zz = along(problem.Z, z0, eps)
    u, ubar, c = np.zeros_like(z0), np.zeros_like(z0), np.zeros(family.kernel_dim)
    records, deltas, reason = [], [], "max_iter"
    for k in range(max_iter + 1):
        Zdu_u = matvec(Zdu, u[:m])
        R = Zz - Z0 - Zdu_u
        phi = Z0 + Zdu_u + R
        lin_forcing = matvec(Zdu, ubar[:m]) + R
        g_lin, g_phi = reference_sweep(system, np.stack([lin_forcing, phi]))
        u_next = np.tensordot(c, family.kernel_basis, axes=1) + ubar
        c_next = B0_pinv @ (D.T @ l.apply(g_lin))
        ubar_next = eps * green(g_phi)
        z = z0 + u_next
        Zz = along(problem.Z, z, eps)
        rec_res = float(np.linalg.norm(z[1:] - matvec(A, z[:m]) - f - eps * Zz, axis=1).max())
        bc_res = float(np.linalg.norm(l.apply(z) - l.target))
        records.append((k, float(np.linalg.norm(c)), float(np.abs(ubar).max()), rec_res,
                        bc_res, float(np.linalg.norm(D.T @ l.apply(g_phi)))))
        delta = float(np.abs(u_next - u).max())
        deltas.append(delta)
        u, c, ubar = u_next, c_next, ubar_next
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
    return z0 + u, records, deltas, k, reason


def varying_rotation(m, eps):
    """The time-varying rotation of varying_rotation_system, periodic
    boundary, a forcing corrected so that Q = 0 is solvable, and the
    uniform Lotka-Volterra nonlinearity."""
    system = varying_rotation_system(m)
    f = 0.3 * np.random.default_rng(7).standard_normal((m, 2))
    f[m - 1] -= particular_forced(system, f)[m]
    return NonlinearProblem(LinearBVP(system, periodic(2, m)).solve(f),
                            *lv_callables(LotkaVolterraSpec.uniform(1)), eps)


def no_kernel_square():
    """N = 1, r = 0 < d = 1 (the CLI's no-kernel problem) with Z = z^2: its
    gate fails, and iterate runs as --force makes it."""
    doc = parse_problem({
        "dim": 1, "horizon": 3, "system": {"type": "identity"},
        "boundary": {"type": "generic", "target": [1.0, 1.0],
                     "samples": [{"point": 0, "weights": [[1.0], [0.0]]},
                                 {"point": 3, "weights": [[0.0], [1.0]]}]},
        "nonlinearity": {"type": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
        "epsilon": 1e-2})
    return from_file(doc)


def overflowing_gain(gain):
    """The m = 600 block rotation with Lotka-Volterra gains g1 = g2 = gain.
    At 1e200 the 2-norm of F overflows, and Newton takes 5 steps on the
    rescaled norm without converging; B0 at that c0 stays finite, and the
    iterate turns non-finite at round 2."""
    doc = block_rotation_doc(600, 2, 1e-4, 0)
    doc["nonlinearity"].update(g1=gain, g2=gain)
    return from_file(parse_problem(doc))


ROUND_CASES = {
    "invariant_m600_N2": lambda: block_rotation(600, 2, 1e-4, 0),
    "invariant_m24_N32": lambda: block_rotation(24, 32, 1e-4, 0),
    "stalling_m600_N2": lambda: block_rotation(600, 2, 1e-3, 0),
    "varying_m120_N2": lambda: varying_rotation(120, 1e-3),
    "varying_block_m80_N2": lambda: from_file(parse_problem(varying_block_doc(80, 1e-4))),
    "no_kernel_forced": no_kernel_square,
    "blowup_m600_N2": lambda: block_rotation(600, 2, 1e-3, 3),
    "non_finite_m600_N2": lambda: overflowing_gain(1e200),
}
# the solver settings of the cases that stop on blowup and non_finite, and those stops
ROUND_STOPS = {"blowup_m600_N2": ({"blowup": 1.0}, "blowup"),
               "non_finite_m600_N2": ({"blowup": 1e300}, "non_finite")}


class TestRoundMatchesReference:
    @pytest.mark.parametrize("case", sorted(ROUND_CASES))
    def test_same_rounds_trace_and_trajectory(self, case):
        settings, stop = ROUND_STOPS.get(case, ({}, None))
        p = ROUND_CASES[case]()
        family = p.family
        r = family.kernel_dim
        # overflow is expected on the way to a non-finite iterate, as the CLI expects it
        with (np.errstate(over="ignore", invalid="ignore") if stop == "non_finite"
              else contextlib.nullcontext()):
            c0 = solve_generating(p, [0.5] * r).c0 if r else np.zeros(0)
            B0_pinv = check_sufficient(assemble_B0(p, c0)).B0_pinv
            z, trace = iterate(p, c0, B0_pinv, **settings)
            z_ref, records, deltas, iterations, reason = reference_iterate(p, c0, B0_pinv,
                                                                           **settings)
        system = family.bvp.system
        assert system.time_invariant or system.levels == ()  # a time-varying one is stepped
        assert (trace.iterations, trace.reason) == (iterations, reason)
        assert stop is None or reason == stop
        # a NaN or an inf only where the reference has it (the non-finite run's)
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)
        # relative to each record: the stalling run's projected residual reaches 400
        np.testing.assert_allclose(trace.records, records, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(trace.increments, deltas, rtol=0, atol=1e-12)

    def test_cases_cover_each_branch(self):
        assert ROUND_CASES["invariant_m600_N2"]().family.bvp.system.time_invariant
        assert not ROUND_CASES["varying_m120_N2"]().family.bvp.system.time_invariant
        assert not ROUND_CASES["varying_block_m80_N2"]().family.bvp.system.time_invariant
        p = no_kernel_square()
        family = p.family
        assert family.kernel_dim == 0 and family.cokernel_dim == 1
        assert not check_sufficient(assemble_B0(p, np.zeros(0))).holds


class TestRemainder:
    def test_remainder_law(self, benchmark_problem, benchmark_family):
        # R(u) = Z(z0+u, n, 0) - Z(z0, n, 0) - Z'(z0, n, 0) u is quadratically small
        root = solve_generating(benchmark_problem, [0.5, 0.5])
        z0 = benchmark_family.member(root.c0)
        p = benchmark_problem
        rng = np.random.default_rng(33)
        for n in range(p.family.bvp.system.horizon):
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
        verify_derivative(from_file(doc))

    def test_rejects_nan_derivative(self, benchmark_problem):
        from resbvp.nonlinear import DerivativeMismatchError

        def nan_Zdu(z, n, eps):
            z = np.asarray(z, dtype=float)
            return np.full(z.shape + z.shape[-1:], np.nan)

        bad = NonlinearProblem(benchmark_problem.family, benchmark_problem.Z, nan_Zdu, 0.0)
        with pytest.raises(DerivativeMismatchError):
            verify_derivative(bad)

    def test_rejects_wrong_derivative(self, benchmark_problem):
        from resbvp.nonlinear import DerivativeMismatchError
        bad = NonlinearProblem(benchmark_problem.family, benchmark_problem.Z, zero_Zdu, 0.0)
        with pytest.raises(DerivativeMismatchError):
            verify_derivative(bad)

    def test_accepts_read_only_Z_output(self):
        # the audit forms its quotient in Z's output, or in a copy of a read-only one
        def Z(z, n, eps):
            return np.broadcast_to(0.0, np.shape(z))

        verify_derivative(resonant_identity_problem(Z, zero_Zdu))

    def test_pinned_verdicts_on_the_wide_block_rotation(self):
        # N = 32, the newton-wide f0 input: a Z_du off by a relative 1e-3
        # is refused at the probe and with the error the audit has always
        # printed there, and a NaN derivative is refused too
        from resbvp.nonlinear import DerivativeMismatchError
        p = block_rotation(24, 32, 1e-4, 0)
        verify_derivative(p)

        def off_Zdu(z, n, eps):
            return p.Z_du(z, n, eps) * (1.0 + 1e-3)

        def nan_Zdu(z, n, eps):
            return np.full_like(p.Z_du(z, n, eps), np.nan)

        with pytest.raises(DerivativeMismatchError, match=re.escape(
                "Z_du disagrees with finite differences at n=21: relative error 8.395e-04")):
            verify_derivative(dataclasses.replace(p, Z_du=off_Zdu))
        with pytest.raises(DerivativeMismatchError, match="relative error nan"):
            verify_derivative(dataclasses.replace(p, Z_du=nan_Zdu))


def built_in_pair(dim, m, nonlinearity):
    """The NonlinearProblem of a problem file's nonlinearity over the
    identity system with a periodic boundary and zero forcing (Q = 0)."""
    return from_file(parse_problem({
        "dim": dim, "horizon": m, "system": {"type": "identity"}, "forcing": "zero",
        "boundary": {"type": "periodic"}, "nonlinearity": nonlinearity}))


def lv_tables(p, m, t, varying):
    """Random Lotka-Volterra gains and tables of p pairs and t interaction
    columns, the ones named in ``varying`` with a time axis of m."""
    rng = np.random.default_rng([p, m, t, len(varying)])
    shapes = {"g1": (p,), "g2": (p,), "a": (p, t), "b": (p, t)}
    return {"type": "lotka_volterra", **{
        name: rng.standard_normal(((m,) if name in varying else ()) + shape).tolist()
        for name, shape in shapes.items()}}


def shipped_nonlinear_files():
    return [path.name for path in sorted(PROBLEMS_DIR.glob("*.json"))
            if load_problem(str(path)).nonlinearity is not None]


class TestBuiltInPairs:
    """verify_derivative passes on every (Z, Z_du) pair a problem file can
    name, as the problem file builds it: the CLI builds only these and
    does not audit them at run time."""

    @pytest.mark.parametrize("t, varying", [
        (3, ()), (1, ()), (2, ()),
        (3, ("g1", "g2")), (3, ("a", "b")), (2, ("g1", "g2", "a", "b")), (1, ("a",)),
    ])
    def test_lotka_volterra(self, t, varying):
        p, m = 3, 5
        verify_derivative(built_in_pair(2 * p, m, lv_tables(p, m, t, varying)))

    @pytest.mark.parametrize("with_gradient", [False, True])
    @pytest.mark.parametrize("degree", range(6))
    def test_polynomial(self, degree, with_gradient):
        rng = np.random.default_rng(degree)
        nonlinearity = {"type": "polynomial", "coeffs": rng.standard_normal(degree + 1).tolist()}
        if with_gradient:
            nonlinearity["eps_gradient"] = rng.standard_normal(3).tolist()
        verify_derivative(built_in_pair(3, 4, nonlinearity))

    @pytest.mark.parametrize("name", shipped_nonlinear_files())
    def test_shipped_problem(self, name):
        doc = load_problem(str(PROBLEMS_DIR / name))
        verify_derivative(built_in_pair(doc.system.dim, doc.system.horizon,
                                        doc.canonical["nonlinearity"]))

    @pytest.mark.parametrize("workload", ["iterate-long", "newton-wide", "iterate-stall"])
    def test_benchmark_block_rotation(self, workload):
        w = bench_workloads.WORKLOADS[workload]
        doc = block_rotation_doc(w.m, w.N, w.eps, w.base_seeds[0])
        verify_derivative(from_file(parse_problem(doc)))


def peak_kib(fn):
    """tracemalloc's peak of one call of fn, in KiB, after a first call has
    built what the problem caches (the map psi)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class TestNewtonStackMemory:
    """tracemalloc peaks at N = 32, the newton-wide f0 input, against bounds
    10% over the measured 1131 and 1096 KiB. A count, not a timing: it
    guards the in-place forms of Z, the family member and the audit."""

    def test_fd_jacobian(self):
        p = block_rotation(24, 32, 1e-4, 0)
        assert peak_kib(lambda: _fd_jacobian(_F_evaluator(p, 0.0), np.full(32, 0.5))) <= 1244

    def test_verify_derivative(self):
        p = block_rotation(24, 32, 1e-4, 0)
        assert peak_kib(lambda: verify_derivative(p)) <= 1206


def overflowing_B0_problem():
    """The rotation by 2 pi / 100 over 100 steps, periodic, with zero forcing
    and a Lotka-Volterra gain of 1e307: the root is c0 = 0, where Z_du =
    1e307 I overflows the forced responses B0 is built from."""
    return from_file(parse_problem({
        "dim": 2, "horizon": 100, "system": {"type": "rotation", "theta": 2 * np.pi / 100},
        "forcing": "zero", "boundary": {"type": "periodic"},
        "nonlinearity": {"type": "lotka_volterra", "g1": 1e307, "g2": 1e307,
                         "a": 1.0, "b": 1.0}}))


NO_COKERNEL_DOCS = {
    # non-resonant: Q = Phi(8, 0) - I is invertible, r = d = 0
    "r0_d0": {"dim": 2, "horizon": 4,
              "system": {"type": "constant", "matrix": [[0.5, 0.1], [0.0, 0.8]]},
              "forcing": [[0.1, 0.2], [0.0, -0.1], [0.3, 0.0], [-0.2, 0.1]],
              "boundary": {"type": "periodic"},
              "nonlinearity": {"type": "lotka_volterra", "g1": 1.0, "g2": 1.0,
                               "a": 1.0, "b": 1.0},
              "epsilon": 1e-2},
    # one condition x(0) = 1 on a rotation: Q = [1, 0], r = 1, d = 0
    "r1_d0": {"dim": 2, "horizon": 8, "system": {"type": "rotation", "theta": 0.25},
              "forcing": "zero",
              "boundary": {"type": "generic", "target": [1.0],
                           "samples": [{"point": 0, "weights": [[1.0, 0.0]]}]},
              "nonlinearity": {"type": "lotka_volterra", "g1": 1.0, "g2": 1.0,
                               "a": 1.0, "b": 1.0},
              "epsilon": 1e-2},
}


class TestSolve:
    """nonlinear.solve: root, gate and iteration under a problem file's
    tolerances and solver dicts, each field past the stage that stopped it
    None."""

    def test_unconverged_root_stops_the_solve(self):
        # constant Z: F is a nonzero constant and Newton cannot improve it
        def Z(z, n, eps):
            return np.full_like(np.asarray(z, dtype=float), 2.0)

        p = resonant_identity_problem(Z, zero_Zdu, eps=1e-3)
        sol = nonlinear.solve(p, DEFAULT_TOLERANCES, {**DEFAULT_SOLVER, "c_init": [0.1, 0.2]})
        assert not sol.root.converged
        assert (sol.gate, sol.z, sol.trace) == (None, None, None)

    def test_failed_gate_stops_unless_forced(self):
        doc = load_problem(PROBLEMS_DIR / "gate_refusal.json")
        p = from_file(doc)
        sol = nonlinear.solve(p, doc.tolerances, doc.solver)
        assert sol.root.converged and not sol.gate.holds
        assert sol.z is None and sol.trace is None
        forced = nonlinear.solve(p, doc.tolerances, doc.solver, force=True)
        assert np.array_equal(forced.root.c0, sol.root.c0) and not forced.gate.holds
        assert forced.trace.records and forced.z.shape == (doc.system.horizon + 1, doc.system.dim)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_converged_solve_is_the_hand_run_chain(self, eps):
        p = rotation_benchmark(eps)
        sol = nonlinear.solve(p, DEFAULT_TOLERANCES, {**DEFAULT_SOLVER, "c_init": [0.5, 0.5]})
        root = solve_generating(p, [0.5, 0.5], tol=DEFAULT_TOLERANCES["newton"],
                                max_iter=DEFAULT_SOLVER["newton_max_iter"])
        gate = check_sufficient(assemble_B0(p, root.c0))
        z, trace = iterate(p, root.c0, gate.B0_pinv, tol=DEFAULT_TOLERANCES["iteration"],
                           max_iter=DEFAULT_SOLVER["max_iter"], blowup=DEFAULT_SOLVER["blowup"],
                           residual_tol=DEFAULT_TOLERANCES["residual"])
        assert sol.trace.converged and sol.gate.holds
        assert np.array_equal(sol.root.c0, root.c0)
        assert np.array_equal(sol.z, z) and sol.trace.records == trace.records

    @pytest.mark.parametrize("case", ["r0_d0", "r1_d0"])
    def test_no_cokernel_takes_the_general_path(self, case):
        # d = 0: F is empty, so the root is c_init after 0 Newton steps; B0
        # is (0, r) and the gate holds with row rank 0 = d
        doc = parse_problem(NO_COKERNEL_DOCS[case])
        p = from_file(doc)
        r = p.family.kernel_dim
        assert (r, p.family.cokernel_dim) == (int(case[1]), 0)
        solver = {**doc.solver, "c_init": [0.3] * r}
        sol = nonlinear.solve(p, doc.tolerances, solver)
        assert sol.root.converged and sol.root.iterations == 0 and sol.root.residual_norm == 0.0
        assert np.array_equal(sol.root.c0, solver["c_init"])
        assert assemble_B0(p, sol.root.c0).shape == (0, r)
        assert sol.gate.holds and sol.gate.row_rank == 0 and sol.gate.B0_pinv.shape == (r, 0)
        assert sol.trace.converged and sol.trace.iterations > 0
        m, Z = doc.system.horizon, doc.nonlinearity[0]
        rec, bc = residuals(doc.system, doc.boundary, doc.forcing, sol.z,
                            doc.epsilon * Z(sol.z[:m], np.arange(m), doc.epsilon))
        assert rec <= 1e-8 and bc <= 1e-8

    def test_non_finite_B0_raises(self):
        p = overflowing_B0_problem()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OverflowError, match="B0 is not finite"):
            nonlinear.solve(p, DEFAULT_TOLERANCES, DEFAULT_SOLVER)

    def test_package_root_exports_solve_not_its_stages(self):
        import resbvp

        assert resbvp.solve is nonlinear.solve
        assert resbvp.NonlinearSolution is nonlinear.NonlinearSolution
        for name in ("generating_F", "solve_generating", "assemble_B0", "check_sufficient",
                     "iterate"):
            assert not hasattr(resbvp, name)
