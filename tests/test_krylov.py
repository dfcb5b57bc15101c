import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsfrac.krylov
from oracles import bicgstab_reference, cg_reference
from tsfrac.krylov import solve_bicgstab, solve_cg, solve_dense


def dense_op(A):
    return lambda v: A @ v


def spd_matrix(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def exactly_symmetric(A):
    return (A + A.T) / 2.0  # a + b == b + a, so the sum is symmetric bit for bit


@pytest.fixture
def dposv_infos(monkeypatch):
    """The info code of each dposv call that solve_dense makes."""
    infos = []
    dposv = tsfrac.krylov.dposv

    def dposv_spy(*args, **kwargs):
        out = dposv(*args, **kwargs)
        infos.append(out[2])
        return out

    monkeypatch.setattr(tsfrac.krylov, "dposv", dposv_spy)
    return infos


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


def test_both_loops_run_out_at_ten_n_iterations():
    # two order-2 cases, worked by hand, that neither converge nor break
    # down, so each loop stops at its cap of 10 n = 20 iterations.
    # CG on A = I + 10 J, J skew: p.Ap = p.p > 0 and r.r > 0 at every step;
    # the first step takes r from (1, 1) to (-10, 10), and |r| grows by
    # about 14 a step from there
    A = np.array([[1.0, 10.0], [-10.0, 1.0]])
    for solve in (solve_cg, cg_reference):
        applies = []
        _, rep = solve(lambda v: applies.append(v) or A @ v, None, np.ones(2))
        assert (rep.iterations, rep.converged, rep.breakdown) == (20, False, None)
        assert len(applies) == 20 and rep.final_relative_residual > 1.0
    # BiCGSTAB on the constant map v -> c = (1, 1) from b = (1, 0): the first
    # pass leaves r = b - (b.c / c.c) c = (1/2, -1/2); each later pass takes
    # rho = 1/2, r0.v = 1, alpha = 1/2, s = (0, -1), omega = -1/2 and
    # returns the same r, all exact in binary floating point
    c = np.array([1.0, 1.0])
    for solve in (solve_bicgstab, bicgstab_reference):
        applies = []
        _, rep = solve(lambda v: applies.append(v) or c.copy(), None,
                       np.array([1.0, 0.0]))
        assert (rep.iterations, rep.converged, rep.breakdown) == (20, False, None)
        assert len(applies) == 40
        assert rep.final_relative_residual == pytest.approx(np.sqrt(0.5), rel=1e-15)


def dominant_matrix(rng, n):
    A = rng.standard_normal((n, n))
    return A + np.diag(np.abs(A).sum(axis=1) + 1.0)


def preconditioner(kind, A, rng, spd):
    """None, Jacobi, or the dense inverse of a perturbed A (SPD when ``spd``)."""
    if kind == "none":
        return None
    if kind == "jacobi":
        d = 1.0 / np.diag(A)
        return lambda v: d * v
    E = 0.1 * rng.standard_normal(A.shape)
    if spd:
        E = E @ E.T
    Pinv = np.linalg.inv(A + E)
    return lambda v: Pinv @ v


class TestLeanLoopsAgainstOracles:
    """The in-place loops against the allocating loops they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["none", "jacobi", "dense"]),
           method=st.sampled_from(["cg", "bicgstab"]))
    def test_counts_and_solutions_match(self, n, seed, kind, method):
        rng = np.random.default_rng(seed)
        if method == "cg":
            A, solve, oracle = spd_matrix(rng, n), solve_cg, cg_reference
        else:
            A, solve, oracle = dominant_matrix(rng, n), solve_bicgstab, bicgstab_reference
        precond = preconditioner(kind, A, rng, spd=method == "cg")
        b = rng.standard_normal(n)
        before = b.copy()
        tol = 1e-10
        x, rep = solve(dense_op(A), precond, b, tol=tol)
        np.testing.assert_array_equal(b, before)  # r0 is b itself, never written
        assert not np.shares_memory(x, b)
        x_ref, ref = oracle(dense_op(A), precond, b, tol=tol)
        assert rep.converged and ref.converged
        assert abs(rep.iterations - ref.iterations) <= 1
        assert np.linalg.norm(x - x_ref) <= 10 * tol * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("solve", [solve_cg, solve_bicgstab])
    def test_no_preconditioner_equals_a_copying_identity(self, rng, solve):
        # without a preconditioner p_hat is p and s_hat is s: the loop must
        # use them before it overwrites them, exactly as if they were copies
        A = spd_matrix(rng, 60) + np.triu(rng.standard_normal((60, 60)), 1)
        if solve is solve_cg:
            A = exactly_symmetric(A)
        b = rng.standard_normal(60)
        x, rep = solve(dense_op(A), None, b, tol=1e-12)
        x_copy, rep_copy = solve(dense_op(A), lambda v: v.copy(), b, tol=1e-12)
        assert rep.converged and rep == rep_copy
        np.testing.assert_array_equal(x, x_copy)
        assert np.linalg.norm(b - A @ x) <= 1e-11 * np.linalg.norm(b)

    def test_skew_symmetric_operator_breaks_down_at_r0_v(self, rng):
        # integer data keeps the arithmetic exact: r0 . (S r0) = 0 for skew S
        S = np.triu(rng.integers(-5, 6, (20, 20)).astype(float), 1)
        S -= S.T
        b = rng.integers(-5, 6, 20).astype(float)
        for solve in (solve_bicgstab, bicgstab_reference):
            x, rep = solve(dense_op(S), None, b)
            assert not rep.converged
            assert rep.breakdown == "r0.v vanished" and rep.iterations == 1
            np.testing.assert_array_equal(x, 0.0)

    @pytest.mark.parametrize("solve", [solve_cg, solve_bicgstab,
                                       cg_reference, bicgstab_reference])
    @pytest.mark.parametrize("where", ["rhs", "operator"])
    def test_non_finite_residual_stops_at_once(self, rng, solve, where):
        # a NaN can never meet tol: without the check the loop would run
        # all 10 n iterations
        A = spd_matrix(rng, 50)
        b = rng.standard_normal(50)
        if where == "rhs":
            b[7] = np.nan
            apply = dense_op(A)
        else:
            apply = lambda v: np.full_like(v, np.nan)
        x, rep = solve(apply, None, b)
        assert not rep.converged
        assert rep.breakdown == "non-finite residual" and rep.iterations == 1
        assert x.shape == (50,)

    def test_empty_system(self):
        for solve in (solve_cg, solve_bicgstab):
            x, rep = solve(dense_op(np.zeros((0, 0))), None, np.zeros(0))
            assert x.shape == (0,) and rep.converged and rep.iterations == 0


class TestSolveDense:
    """The symmetric positive definite solve of a direct time level."""

    def test_identity(self, rng):
        b = rng.standard_normal(5)
        np.testing.assert_array_equal(solve_dense(np.eye(5), b), b)

    def test_two_by_two(self):
        x = solve_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_singular_matrix(self, dposv_infos):
        with pytest.raises(ValueError, match="not positive definite: its leading "
                                             "minor of order 1 is not positive"):
            solve_dense(np.zeros((3, 3)), np.ones(3))
        assert dposv_infos == [1]

    def test_indefinite_matrix_names_the_leading_minor(self, dposv_infos):
        with pytest.raises(ValueError, match="not positive definite: its leading "
                                             "minor of order 2 is not positive"):
            solve_dense(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([3.0, 3.0]))
        assert dposv_infos == [2]

    def test_empty_system(self):
        assert solve_dense(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError, match="shapes are inconsistent"):
            solve_dense(np.eye(3), np.ones(4))

    def test_spd_matrix_takes_cholesky_and_matches_lu(self, rng, dposv_infos):
        A = exactly_symmetric(spd_matrix(rng, 60))
        b = rng.standard_normal(60)
        ref = np.linalg.solve(A, b)
        x = solve_dense(A, b)
        assert dposv_infos == [0]
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.abs(ref).max()

    def test_fortran_ordered_matrix_is_factored_in_place(self, rng):
        A = exactly_symmetric(spd_matrix(rng, 12))
        work = np.array(A, order="F")
        b = rng.standard_normal(12)
        x = solve_dense(work, b)
        # work now holds the lower Cholesky factor L, with A = L L^T
        L = np.tril(work)
        np.testing.assert_allclose(L @ L.T, A, rtol=1e-13, atol=1e-13 * np.abs(A).max())
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_spd_against_lu(self, n, seed):
        rng = np.random.default_rng(seed)
        A = exactly_symmetric(spd_matrix(rng, n))
        b = rng.standard_normal(n)
        ref = np.linalg.solve(A, b)  # first: solve_dense may overwrite A
        x = solve_dense(A, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()
