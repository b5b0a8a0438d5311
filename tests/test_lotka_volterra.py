from fractions import Fraction

import numpy as np
import pytest

from resbvp.boundary import periodic
from resbvp.fibonacci import (
    FIB_MATRIX,
    fib,
    fib_delta,
    fib_delta_exponent_offset,
    fib_green_coeffs,
    fib_green_matrix_oracle,
    fib_periodic_particular,
)
from resbvp.linear import LinearBVP, OperatorSequence
from resbvp.lotka_volterra import LotkaVolterraSpec, lv_callables
from resbvp.nonlinear import verify_derivative, NonlinearProblem


class TestLVNonlinearity:
    def test_single_pair_hand_value(self):
        # x=2, y=3, unit rates/interactions: (2(1-3), 3(1-2)) = (-4, -3)
        Z, _ = lv_callables(LotkaVolterraSpec.uniform(1))
        assert np.allclose(Z(np.array([2.0, 3.0]), 0, 0.0), [-4.0, -3.0])

    def test_zero_state_is_fixed(self):
        Z, _ = lv_callables(LotkaVolterraSpec.uniform(2))
        assert np.allclose(Z(np.zeros(4), 3, 0.0), 0.0)

    def test_jacobian_at_zero_is_rates(self):
        rng = np.random.default_rng(5)
        g1, g2 = rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 2)
        _, Z_du = lv_callables(LotkaVolterraSpec(2, g1, g2, np.ones((2, 2)), np.ones((2, 2))))
        J = Z_du(np.zeros(4), 0, 0.0)
        assert np.allclose(J, np.diag(np.concatenate([g1, g2])))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        spec = LotkaVolterraSpec(
            2,
            rng.uniform(0.5, 2.0, 2),
            rng.uniform(0.5, 2.0, 2),
            rng.uniform(0.1, 1.0, (2, 2)),
            rng.uniform(0.1, 1.0, (2, 2)),
        )
        Z, Z_du = lv_callables(spec)
        z = rng.standard_normal(4)
        J = Z_du(z, 0, 0.0)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            col = (Z(z + e, 0, 0.0) - Z(z - e, 0, 0.0)) / (2 * h)
            assert np.linalg.norm(J[:, j] - col) <= 1e-6 * (1 + np.linalg.norm(col))

    def test_bilinear_interaction_identity(self):
        # Z is linear in the rates and bilinear in (x, y): scaling both
        # species by s scales the linear part by s and the quadratic by s^2
        Z, _ = lv_callables(LotkaVolterraSpec.uniform(1))
        z = np.array([0.4, -0.7])
        s = 3.0
        lin = np.array([z[0], z[1]])  # g=1
        quad = Z(z, 0, 0.0) - lin
        got = Z(s * z, 0, 0.0)
        assert np.allclose(got, s * lin + s * s * quad, atol=1e-13)

    def test_time_varying_tables(self):
        g1 = np.array([[1.0], [2.0]])
        g2 = np.array([[1.0], [1.0]])
        Z, _ = lv_callables(LotkaVolterraSpec(1, g1, g2, np.ones((2, 1, 1)), np.ones((2, 1, 1))))
        z = np.array([1.0, 0.0])
        assert np.allclose(Z(z, 0, 0.0), [1.0, 0.0])
        assert np.allclose(Z(z, 1, 0.0), [2.0, 0.0])

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_stack_equals_per_state_loop(self, time_varying):
        # p = 3 pairs with t = 2 < p interaction columns
        rng = np.random.default_rng(11)
        m, p, t = 7, 3, 2
        lead = (m,) if time_varying else ()
        spec = LotkaVolterraSpec(p, rng.standard_normal(lead + (p,)),
                                 rng.standard_normal(lead + (p,)),
                                 rng.standard_normal(lead + (p, t)),
                                 rng.standard_normal(lead + (p, t)))
        Z, Z_du = lv_callables(spec)
        z = rng.standard_normal((m, 2 * p))
        n = np.arange(m)
        Z_loop = np.array([Z(z[k], k, 0.0) for k in range(m)])
        J_loop = np.array([Z_du(z[k], k, 0.0) for k in range(m)])
        assert np.array_equal(Z(z, n, 0.0), Z_loop)
        assert np.array_equal(Z_du(z, n, 0.0), J_loop)

    def test_callables_pass_derivative_audit(self):
        Z, Z_du = lv_callables(LotkaVolterraSpec.uniform(2))
        m = 4
        system = OperatorSequence.identity(4, m)
        p = NonlinearProblem(system, np.zeros((m, 4)), periodic(4, m), Z, Z_du, 0.0)
        verify_derivative(p)


class TestFibSequence:
    def test_initial_values_and_recursion(self):
        assert fib(-1) == 0 and fib(0) == 1 and fib(1) == 1
        for k in range(2, 30):
            assert fib(k) == fib(k - 1) + fib(k - 2)

    def test_matrix_power_entries(self):
        for k in range(0, 15):
            M = np.linalg.matrix_power(FIB_MATRIX, k)
            assert M[0][0] == fib(k)
            assert M[0][1] == fib(k - 1)
            assert M[1][0] == fib(k - 1)


class TestFibDeterminant:
    def test_small_values(self):
        assert fib_delta(1) == -4
        assert fib_delta(2) == -5
        assert fib_delta(3) == -11
        assert fib_delta(4) == -16

    def test_equals_determinant_oracle(self):
        for m in range(1, 21):
            A2 = np.linalg.matrix_power(FIB_MATRIX, m + 2)
            det = (A2[0][0] - 1) * (A2[1][1] - 1) - A2[0][1] * A2[1][0]
            assert fib_delta(m) == det

    def test_exponent_offset_is_two(self):
        assert fib_delta_exponent_offset(20) == 2


class TestFibGreenCoefficients:
    def test_frozen_point(self):
        assert fib_green_coeffs(0, 3, 1) == (-14, -9, -9, -8)
        assert fib_green_matrix_oracle(0, 3, 1) == (-14, -9, -9, -5)

    def test_agreement_census(self):
        # Over the full grid m=1..8, 0<=n,k<=m (284 points) the printed
        # formulas agree with the matrix product for the top row only.
        agree = {0: 0, 1: 0, 2: 0, 3: 0}
        total = 0
        for m in range(1, 9):
            for n in range(m + 1):
                for k in range(m + 1):
                    total += 1
                    c = fib_green_coeffs(n, m, k)
                    o = fib_green_matrix_oracle(n, m, k)
                    for i in range(4):
                        if c[i] == o[i]:
                            agree[i] += 1
        assert total == 284
        assert agree[0] == 284
        assert agree[1] == 284
        assert agree[2] == 44
        assert agree[3] == 4


class TestFibPeriodicSolver:
    def test_exact_particular_is_periodic_and_satisfies_recurrence(self):
        m = 6
        rng = np.random.default_rng(11)
        f = [tuple(Fraction(int(v), 16) for v in row)
             for row in rng.integers(-8, 9, (m + 1, 2))]
        traj = fib_periodic_particular(f, m)
        assert traj[0] == traj[m]
        for n in range(m):
            x, y = traj[n]
            fx, fy = f[n]
            assert traj[n + 1] == (x + y + fx, x + fy)

    def test_float_solver_matches_exact_oracle(self):
        m = 8
        rng = np.random.default_rng(13)
        f_exact = [tuple(Fraction(int(v), 32) for v in row)
                   for row in rng.integers(-16, 17, (m, 2))]
        oracle = fib_periodic_particular(f_exact + [(Fraction(0), Fraction(0))], m)

        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        f = np.array([[float(a), float(b)] for a, b in f_exact])
        family = LinearBVP(system, periodic(2, m)).solve(f)
        report = family.report
        assert report.classification == "unique_classical"
        got = family.member(np.zeros(0))
        want = np.array([[float(a), float(b)] for a, b in oracle])
        scale = 1 + np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-9 * scale

    @pytest.mark.parametrize("m", [12] + [
        pytest.param(m, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="single shooting from n = 0 loses the particular solution "
                   "of an expanding system (ROADMAP item 1)"))
        for m in (20, 40, 60)])
    def test_float_solver_matches_exact_oracle_to_1e_12(self, m):
        # criterion 4's forcings: eighths in [-1, 1], seed 400 + m
        rng = np.random.default_rng(400 + m)
        f_exact = [tuple(Fraction(int(v), 8) for v in row)
                   for row in rng.integers(-8, 9, (m, 2))]
        want = np.array(fib_periodic_particular(f_exact, m), dtype=float)

        system = OperatorSequence.constant(FIB_MATRIX, m)
        family = LinearBVP(system, periodic(2, m)).solve(np.array(f_exact, dtype=float))
        assert family.report.classification == "unique_classical"
        assert np.abs(family.particular - want).max() <= 1e-12 * np.abs(want).max()
