import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsfrac.krylov
from tsfrac.krylov import solve_bicgstab, solve_cg, solve_dense


def dense_op(A):
    return lambda v: A @ v


def spd_matrix(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def exactly_symmetric(A):
    return (A + A.T) / 2.0  # a + b == b + a, so the sum is symmetric bit for bit


@pytest.fixture
def dense_calls(monkeypatch):
    """Records ("cholesky", info) per dposv call and "lu" per LU solve."""
    calls = []
    dposv, lu = tsfrac.krylov.dposv, np.linalg.solve

    def dposv_spy(*args, **kwargs):
        out = dposv(*args, **kwargs)
        calls.append(("cholesky", out[2]))
        return out

    def lu_spy(*args, **kwargs):
        calls.append("lu")
        return lu(*args, **kwargs)

    monkeypatch.setattr(tsfrac.krylov, "dposv", dposv_spy)
    monkeypatch.setattr(np.linalg, "solve", lu_spy)
    return calls


class TestCg:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(6)
        x, rep = solve_cg(dense_op(np.eye(6)), None, b)
        np.testing.assert_allclose(x, b, rtol=1e-12)
        assert rep.converged and rep.iterations == 1

    def test_random_spd_against_lu(self, rng):
        A = spd_matrix(rng, 50)
        b = rng.standard_normal(50)
        tol = 1e-12
        x, rep = solve_cg(dense_op(A), None, b, tol=tol)
        ref = np.linalg.solve(A, b)
        assert rep.converged
        assert np.linalg.norm(x - ref) <= 10 * tol * np.linalg.norm(ref)

    def test_exact_preconditioner_converges_immediately(self, rng):
        A = spd_matrix(rng, 30)
        b = rng.standard_normal(30)
        Ainv = np.linalg.inv(A)
        x, rep = solve_cg(dense_op(A), lambda v: Ainv @ v, b)
        assert rep.converged and rep.iterations <= 2

    def test_operator_linearity(self, rng):
        op = dense_op(spd_matrix(rng, 12))
        v, w = rng.standard_normal(12), rng.standard_normal(12)
        a, b = 0.7, -1.3
        scale = np.linalg.norm(op(v)) + np.linalg.norm(op(w))
        resid = op(a * v + b * w) - a * op(v) - b * op(w)
        assert np.linalg.norm(resid) <= 1e-12 * scale

    def test_breakdown_on_indefinite(self, rng):
        A = -np.eye(5)
        x, rep = solve_cg(dense_op(A), None, np.ones(5))
        assert not rep.converged
        assert rep.breakdown == "non-positive curvature"


class TestBicgstab:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(6)
        x, rep = solve_bicgstab(dense_op(np.eye(6)), None, b)
        np.testing.assert_allclose(x, b, rtol=1e-12)
        assert rep.converged and rep.iterations == 1

    def test_nonsymmetric_against_lu(self, rng):
        A = rng.standard_normal((50, 50))
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)  # diagonally dominant
        b = rng.standard_normal(50)
        tol = 1e-12
        x, rep = solve_bicgstab(dense_op(A), None, b, tol=tol)
        ref = np.linalg.solve(A, b)
        assert rep.converged
        assert np.linalg.norm(x - ref) <= 10 * tol * np.linalg.norm(ref)

    def test_reported_residual_matches_recomputation(self, rng):
        A = rng.standard_normal((40, 40)) + 40 * np.eye(40)
        b = rng.standard_normal(40)
        x, rep = solve_bicgstab(dense_op(A), None, b, tol=1e-10)
        true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert rep.converged
        assert true_rel <= 10 * max(rep.final_relative_residual, 1e-16)

    def test_preconditioning_does_not_change_solution(self, rng):
        A = spd_matrix(rng, 40)
        b = rng.standard_normal(40)
        D = np.diag(1.0 / np.diag(A))
        tol = 1e-11
        x_plain, _ = solve_bicgstab(dense_op(A), None, b, tol=tol)
        x_prec, _ = solve_bicgstab(dense_op(A), lambda v: D @ v, b, tol=tol)
        assert np.linalg.norm(x_plain - x_prec) <= 10 * tol * np.linalg.norm(x_plain)

    def test_zero_rhs(self):
        x, rep = solve_bicgstab(dense_op(np.eye(4)), None, np.zeros(4))
        assert rep.converged and rep.iterations == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_max_iters_exhaustion_reported(self, rng):
        A = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x, rep = solve_bicgstab(dense_op(A), None, b, tol=1e-15, max_iters=1)
        assert not rep.converged
        assert rep.iterations == 1


class TestSolveDense:
    def test_identity(self, rng):
        b = rng.standard_normal(5)
        np.testing.assert_array_equal(solve_dense(np.eye(5), b), b)

    def test_two_by_two(self):
        x = solve_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_residual_on_moderate_matrix(self, rng):
        A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        b = rng.standard_normal(8)
        x = solve_dense(A, b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b) * np.linalg.cond(A)

    def test_singular_matrix(self, dense_calls):
        with pytest.raises(ValueError, match="singular"):
            solve_dense(np.zeros((3, 3)), np.ones(3))
        # symmetric: Cholesky is tried first and stops at the zero pivot
        assert dense_calls[0][0] == "cholesky" and dense_calls[0][1] > 0

    def test_empty_system(self):
        assert solve_dense(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            solve_dense(np.eye(3000), np.ones(3000))

    def test_spd_matrix_takes_cholesky_and_matches_lu(self, rng, dense_calls):
        A = exactly_symmetric(spd_matrix(rng, 60))
        b = rng.standard_normal(60)
        x = solve_dense(A, b)
        assert dense_calls == [("cholesky", 0)]
        ref = np.linalg.solve(A, b)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.abs(ref).max()

    def test_symmetric_indefinite_falls_back_to_lu(self, dense_calls):
        x = solve_dense(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([3.0, 3.0]))
        assert dense_calls[0][0] == "cholesky" and dense_calls[0][1] > 0
        assert dense_calls[1:] == ["lu"]
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_nonsymmetric_matrix_uses_lu(self, rng, dense_calls):
        A = exactly_symmetric(spd_matrix(rng, 10))
        A[0, 1] = np.nextafter(A[0, 1], np.inf)  # one ulp off symmetric
        b = rng.standard_normal(10)
        x = solve_dense(A, b)
        assert dense_calls == ["lu"]
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["spd", "indefinite", "nonsymmetric"])
    def test_input_matrix_is_not_modified(self, rng, order, kind):
        A = exactly_symmetric(rng.standard_normal((12, 12)))
        if kind == "spd":
            A += 24.0 * np.eye(12)
        elif kind == "nonsymmetric":
            A[3, 4] += 1.0
        A = np.array(A, order=order)
        before = A.copy()
        solve_dense(A, rng.standard_normal(12))
        np.testing.assert_array_equal(A, before)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_spd_against_lu(self, n, seed):
        rng = np.random.default_rng(seed)
        A = exactly_symmetric(spd_matrix(rng, n))
        b = rng.standard_normal(n)
        before = A.copy()
        x = solve_dense(A, b)
        np.testing.assert_array_equal(A, before)
        ref = np.linalg.solve(A, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()
