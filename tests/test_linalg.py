import dataclasses

import numpy as np
import pytest

from resbvp.linalg import numerical_rank


def random_matrix_with_rank(rng, rows, cols, rank):
    """Rank-controlled random matrix with singular values in [0.5, 2]."""
    U, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    V, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.zeros((rows, cols))
    vals = rng.uniform(0.5, 2.0, size=rank)
    s[:rank, :rank] = np.diag(vals)
    return U @ s @ V.T


class TestNumericalRank:
    def test_identity(self):
        rd = numerical_rank(np.eye(3), tol=1e-12)
        assert rd.rank == 3

    def test_zero_matrix(self):
        rd = numerical_rank(np.zeros((2, 4)))
        assert rd.rank == 0

    def test_tolerance_cutoff(self):
        rd = numerical_rank(np.diag([5.0, 1e-14]), tol=1e-10)
        assert rd.rank == 1
        assert np.all(np.diff(rd.singular_values) <= 0)

    def test_given_tol_cutoff_has_absolute_floor(self):
        # cutoff tol * (1 + sigma_max): relative for large sigma_max, but a
        # matrix of pure roundoff has rank 0 where a relative cutoff keeps it
        for M in (np.diag([1e6, 1e-5]), np.diag([1e-17, 1e-18]), np.zeros((2, 3))):
            rd = numerical_rank(M, tol=1e-10)
            assert rd.tolerance == 1e-10 * (1.0 + rd.singular_values[0])
        assert numerical_rank(np.diag([1e6, 1e-5]), tol=1e-10).rank == 1
        assert numerical_rank(np.diag([1e-17, 1e-18]), tol=1e-10).rank == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerical_rank(np.array([[1.0, np.nan]]))

    def test_empty_matrix_is_rank_zero(self):
        # the non-critical shapes r = 0 or d = 0: sigma_max is 0, so the
        # cutoff is tol (1 + 0), the bases are identities and M^+ is zero
        for d, r in [(0, 3), (2, 0), (0, 0)]:
            rd = numerical_rank(np.zeros((d, r)), tol=1e-9)
            assert rd.rank == 0 and rd.tolerance == 1e-9
            assert np.array_equal(rd.kernel, np.eye(r))
            assert np.array_equal(rd.cokernel, np.eye(d))
            assert rd.pinv.shape == (r, d) and not rd.pinv.any()
            assert numerical_rank(np.zeros((d, r))).tolerance == 0.0

    def test_rejects_non_2d(self):
        for shape in [(3,), (0,), (1, 2, 2)]:
            with pytest.raises(ValueError, match="2-d"):
                numerical_rank(np.zeros(shape))

    @pytest.mark.parametrize("tol", [-1, -1e-300, float("nan")])
    def test_rejects_negative_or_nan_tolerance(self, tol):
        # a negative cutoff counts zero singular values into the rank, and
        # the pseudoinverse then divides by them
        with pytest.raises(ValueError, match="tolerance"):
            numerical_rank(np.eye(2), tol)

    def test_zero_tolerance_is_accepted(self):
        assert numerical_rank(np.diag([1.0, 0.0]), 0.0).rank == 1


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(numerical_rank(np.eye(3)).pinv, np.eye(3))

    def test_zero(self):
        assert np.array_equal(numerical_rank(np.zeros((2, 3))).pinv, np.zeros((3, 2)))

    def test_diagonal(self):
        assert np.allclose(numerical_rank(np.diag([2.0, 0.0])).pinv, np.diag([0.5, 0.0]))

    def test_least_squares_against_normal_equations(self):
        # independent oracle: solve (M^T M) x = M^T b by dense elimination
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        x_oracle = np.linalg.solve(M.T @ M, M.T @ b)
        assert np.allclose(numerical_rank(M).pinv @ b, x_oracle, atol=1e-10)

    @pytest.mark.parametrize("M", [np.diag([2.0, 0.0]), np.zeros((2, 3))])
    def test_formed_once_and_read_only(self, M):
        rd = numerical_rank(M)
        assert rd.pinv is rd.pinv
        with pytest.raises(dataclasses.FrozenInstanceError):
            rd.pinv = np.zeros_like(rd.pinv)
        with pytest.raises(ValueError):
            rd.pinv[...] = 1.0


class TestProjectors:
    """The orthoprojectors I - M^+ M onto N(M) and I - M M^+ onto N(M*)."""

    def test_invertible_has_trivial_kernel(self):
        M = np.array([[2.0, 1.0], [0.0, 3.0]])
        P = numerical_rank(M).pinv
        assert np.allclose(np.eye(2) - P @ M, 0.0, atol=1e-12)
        assert np.allclose(np.eye(2) - M @ P, 0.0, atol=1e-12)

    def test_zero_matrix_full_kernel(self):
        M = np.zeros((3, 3))
        assert np.allclose(np.eye(3) - numerical_rank(M).pinv @ M, np.eye(3))
        M = np.zeros((2, 2))
        assert np.allclose(np.eye(2) - M @ numerical_rank(M).pinv, np.eye(2))

    def test_row_vector_kernel(self):
        # N([1, 1]) = span{(1, -1)}/sqrt(2)
        M = np.array([[1.0, 1.0]])
        rd = numerical_rank(M)
        assert np.allclose(np.eye(2) - rd.pinv @ M, [[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(np.abs(rd.kernel[:, 0]), np.sqrt(0.5))

    def test_column_vector_cokernel(self):
        M = np.array([[1.0], [1.0]])
        rd = numerical_rank(M)
        assert np.allclose(np.eye(2) - M @ rd.pinv, [[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(np.abs(rd.cokernel[:, 0]), np.sqrt(0.5))

    def test_factors_are_read_only(self):
        # the bases are views of the decision's factors
        rd = numerical_rank(np.zeros((2, 3)))
        for a in (rd.u, rd.singular_values, rd.vt, rd.kernel, rd.cokernel):
            with pytest.raises(ValueError):
                a[...] = 1.0


class TestPenroseProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_penrose_and_projector_laws(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 51, size=2)
        for rank in sorted({min(rows, cols), 1, min(rows, cols) // 2} - {0}):
            M = random_matrix_with_rank(rng, rows, cols, rank)
            rd = numerical_rank(M)
            assert rd.rank == rank
            P = rd.pinv
            assert np.linalg.norm(M @ P @ M - M) <= 1e-10 * (1 + np.linalg.norm(M))
            assert np.linalg.norm(P @ M @ P - P) <= 1e-10 * (1 + np.linalg.norm(P))
            assert np.linalg.norm((M @ P).T - M @ P) <= 1e-10
            assert np.linalg.norm((P @ M).T - P @ M) <= 1e-10
            PN = np.eye(cols) - P @ M
            PNs = np.eye(rows) - M @ P
            for proj, basis, expected_rank in (
                (PN, rd.kernel, cols - rank),
                (PNs, rd.cokernel, rows - rank),
            ):
                assert np.linalg.norm(proj @ proj - proj) <= 1e-10
                assert np.linalg.norm(proj.T - proj) <= 1e-10
                assert round(np.trace(proj)) == expected_rank
                # the decision's orthonormal basis spans the projector's range
                assert basis.shape[1] == expected_rank
                assert np.allclose(basis.T @ basis, np.eye(expected_rank), atol=1e-10)
                assert np.allclose(basis @ basis.T, proj, atol=1e-10)
            assert np.allclose(M @ PN, 0.0, atol=1e-10)
            assert np.allclose(PNs @ M, 0.0, atol=1e-10)

    def test_exactly_solvable_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = random_matrix_with_rank(rng, 6, 4, 2)
            b = M @ rng.standard_normal(4)
            defect = np.linalg.norm((np.eye(6) - M @ numerical_rank(M).pinv) @ b)
            assert defect <= 1e-8 * (1 + np.linalg.norm(b))
