import numpy as np
import pytest

from resbvp.boundary import generic, initial_mass, multipoint, periodic
from resbvp.linear import LinearBVP, OperatorSequence, particular_forced


class TestPeriodic:
    def test_constant_trajectory_maps_to_zero(self):
        l = periodic(3, 5)
        z = np.tile([1.0, -2.0, 0.5], (6, 1))
        assert np.allclose(l.apply(z), 0.0)

    def test_linear_growth(self):
        v = np.array([2.0, -1.0])
        m = 4
        z = np.outer(np.arange(m + 1), v)
        assert np.allclose(periodic(2, m).apply(z), m * v)

    def test_induced_Q_is_transition_minus_identity(self):
        rng = np.random.default_rng(3)
        m = 5
        A = OperatorSequence(rng.standard_normal((m, 3, 3)))
        Q = LinearBVP(A, periodic(3, m)).Q
        Phi = np.eye(3)
        for n in range(m):
            Phi = A.matrices[n] @ Phi
        assert np.allclose(Q, Phi - np.eye(3), atol=1e-12)


class TestMultipoint:
    def test_single_point_identity_selector(self):
        l = multipoint(2, [([0], [3]), ([1], [3])], [0.0, 0.0])
        z = np.arange(10.0).reshape(5, 2)
        assert np.allclose(l.apply(z), z[3])

    def test_initial_mass_rows(self):
        # two rows of ones over the x- and y-blocks at n = 0, targets (1, 1)
        l = initial_mass(pairs=2)
        assert l.codim == 2
        assert np.allclose(l.target, [1.0, 1.0])
        (n, L), = l.samples
        assert n == 0
        assert np.allclose(L, [[1, 1, 0, 0], [0, 0, 1, 1]])

    def test_two_point_sum_direct_arithmetic(self):
        l = multipoint(2, [([0, 1], [1, 3])], [0.0])
        z = np.array([[1.0, 2], [3, 4], [5, 6], [7, 8]])
        assert np.allclose(l.apply(z), (3 + 4) + (7 + 8))

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            multipoint(2, [([], [0])], [0.0])

    def test_rejects_bad_component(self):
        with pytest.raises(ValueError):
            multipoint(2, [([5], [0])], [0.0])


class TestGeneric:
    def test_zero_functional(self):
        l = generic([], np.zeros(2))
        assert np.allclose(l.apply(np.ones((4, 3))), 0.0)

    def test_rejects_no_conditions(self):
        with pytest.raises(ValueError, match="at least one condition"):
            generic([], np.zeros(0))

    def test_reproduces_periodic(self):
        m, dim = 4, 2
        eye = np.eye(dim)
        lg = generic([(m, eye), (0, -eye)], np.zeros(dim))
        lp = periodic(dim, m)
        rng = np.random.default_rng(0)
        A = OperatorSequence(rng.standard_normal((m, dim, dim)))
        f = rng.standard_normal((m, dim))
        assert np.allclose(LinearBVP(A, lg).Q, LinearBVP(A, lp).Q, atol=1e-14)
        g = particular_forced(A, f)
        assert np.allclose(LinearBVP(A, lg).h(g), LinearBVP(A, lp).h(g), atol=1e-14)

    def test_random_weights_direct_sum(self):
        rng = np.random.default_rng(1)
        samples = [(n, rng.standard_normal((3, 2))) for n in (0, 2, 5)]
        l = generic(samples, rng.standard_normal(3))
        z = rng.standard_normal((6, 2))
        expected = sum(L @ z[n] for n, L in samples)
        assert np.allclose(l.apply(z), expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        l = generic([(1, rng.standard_normal((2, 3))), (4, rng.standard_normal((2, 3)))],
                    np.zeros(2))
        z1, z2 = rng.standard_normal((2, 5, 3))
        a, b = 0.7, -1.3
        assert np.allclose(l.apply(a * z1 + b * z2),
                           a * l.apply(z1) + b * l.apply(z2), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            generic([(0, np.ones((2, 2))), (1, np.ones((3, 2)))], np.zeros(2))


class TestStackedApply:
    def test_rows_equal_single_trajectories(self):
        rng = np.random.default_rng(20)
        m, N = 7, 5
        l = generic([(0, rng.standard_normal((3, N))), (4, rng.standard_normal((3, N))),
                     (m, rng.standard_normal((3, N)))], np.zeros(3))
        Z = rng.standard_normal((2, 4, m + 1, N))
        out = l.apply(Z)
        assert out.shape == (2, 4, 3)
        for i in np.ndindex(2, 4):
            assert np.array_equal(out[i], l.apply(Z[i]))

    def test_stack_window_checked(self):
        with pytest.raises(ValueError):
            periodic(2, 6).apply(np.zeros((3, 6, 2)))
