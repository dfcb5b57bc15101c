import math

import numpy as np
import pytest
from scipy.linalg import circulant, toeplitz

from oracles import jacobi_eigenvalues
from tsfrac.ifl import build_ifl
from tsfrac.mesh import build_mesh, l1_weights
from tsfrac.toeplitz import (
    PreconditionerError,
    build_preconditioner,
    build_toeplitz,
    precond_solve,
    strang_first_column,
    toeplitz_matvec,
)


class TestToeplitzMatvec:
    def test_tridiagonal_by_hand(self):
        op = build_toeplitz(np.array([2.0, -1.0, 0.0]))
        np.testing.assert_allclose(op.matvec(np.ones(3)), [1.0, 0.0, 1.0],
                                   atol=1e-13)

    def test_unit_vector_reproduces_first_column(self, rng):
        col = rng.standard_normal(17)
        op = build_toeplitz(col)
        e1 = np.zeros(17)
        e1[0] = 1.0
        out = op.matvec(e1)
        assert np.max(np.abs(out - col)) <= 1e-12 * np.abs(col).max()

    @pytest.mark.parametrize("n", [200, 512])
    def test_matches_dense_multiplication(self, rng, n):
        col = rng.standard_normal(n)
        v = rng.standard_normal(n)
        ref = toeplitz(col) @ v
        out = toeplitz_matvec(build_toeplitz(col), v)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()

    def test_embedding_length_is_power_of_two(self):
        op = build_toeplitz(np.ones(100))
        assert op.embed_len >= 199
        assert op.embed_len & (op.embed_len - 1) == 0

    def test_imaginary_residue_is_roundoff(self, rng):
        # the frequency-domain product of real data must come back real
        op = build_toeplitz(rng.standard_normal(37))
        v = rng.standard_normal(37)
        padded = np.zeros(op.embed_len, dtype=complex)
        padded[:37] = v
        full = np.fft.ifft(op.spectrum_embed * np.fft.fft(padded))[:37]
        assert np.abs(full.imag).max() <= 1e-12 * np.linalg.norm(v)

    def test_dimension_mismatch(self):
        op = build_toeplitz(np.ones(4))
        with pytest.raises(ValueError):
            op.matvec(np.ones(5))


class TestStrangFirstColumn:
    def test_n5_mirror(self):
        col = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        np.testing.assert_array_equal(strang_first_column(col),
                                      [10.0, 20.0, 30.0, 30.0, 20.0])

    def test_n4_mirror(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(strang_first_column(col),
                                      [1.0, 2.0, 3.0, 2.0])

    def test_n2_boundary(self):
        np.testing.assert_array_equal(strang_first_column(np.array([5.0, 7.0])),
                                      [5.0, 7.0])

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            strang_first_column(np.array([1.0]))

    def test_result_is_even_symmetric(self, rng):
        # c_S[k] == c_S[n-k] makes s(A) a symmetric circulant
        col = rng.standard_normal(12)
        c = strang_first_column(col)
        np.testing.assert_array_equal(c[1:], c[1:][::-1])


def _example_shift(M=16, r=2.0, gamma=0.5, m=1):
    mesh = build_mesh(M, r, 1.0)
    from scipy.special import gammaln
    return l1_weights(mesh, gamma, m).a[-1] / math.exp(gammaln(1.0 - gamma))


class TestBuildPreconditioner:
    def test_identity_column(self):
        col = np.zeros(6)
        col[0] = 1.0
        p = build_preconditioner(col, 1.0, 1.0)
        np.testing.assert_allclose(p.total_eigs, 2.0, rtol=1e-14)

    def test_strang_eigs_against_dense_jacobi(self):
        d = build_ifl(1.5, 1.75, 1.0, 32)
        shift = _example_shift()
        p = build_preconditioner(d, shift, 1.0)
        dense_eigs = jacobi_eigenvalues(circulant(strang_first_column(d.first_col)))
        assert np.max(np.abs(np.sort(p.lam) - dense_eigs)) <= 1e-10 * dense_eigs.max()
        # Gershgorin disc {z : |z - a11| < a11}
        a11 = d.first_col[0]
        assert p.lam.min() > 0
        assert np.max(np.abs(p.lam - a11)) < a11

    @pytest.mark.parametrize("alpha,mu,N", [(0.4, 1.2, 8), (1.1, 2.0, 16),
                                            (1.9, 1.95, 64)])
    def test_gershgorin_for_ifl_columns(self, alpha, mu, N):
        d = build_ifl(alpha, mu, 1.0, N)
        p = build_preconditioner(d, 1.0, 2.0)
        assert np.all(p.lam > 0)
        assert np.all(p.lam < 2.0 * d.first_col[0])

    def test_invalid_shift_or_kappa(self):
        d = build_ifl(1.5, 1.75, 1.0, 8)
        with pytest.raises(ValueError):
            build_preconditioner(d, 0.0, 1.0)
        with pytest.raises(ValueError):
            build_preconditioner(d, 1.0, -1.0)

    def test_nonpositive_spectrum_is_a_breakdown(self):
        col = np.zeros(4)
        col[0] = -1.0  # not an IFL column; forces a negative total eigenvalue
        with pytest.raises(PreconditionerError):
            build_preconditioner(col, 0.5, 1.0)


class TestPrecondSolve:
    def test_identity_preconditioner(self, rng):
        col = np.zeros(8)
        col[0] = 1.0
        p = build_preconditioner(col, 0.5, 0.5)  # P = I
        v = rng.standard_normal(8)
        np.testing.assert_allclose(precond_solve(p, v), v, rtol=1e-13, atol=1e-13)

    def test_forward_then_inverse_roundtrip(self, rng):
        d = build_ifl(1.5, 1.75, 1.0, 32)
        p = build_preconditioner(d, _example_shift(), 1.3)
        P = p.shift * np.eye(p.n) + p.kappa_bar * circulant(
            strang_first_column(d.first_col))
        v = rng.standard_normal(p.n)
        out = precond_solve(p, P @ v)
        assert np.max(np.abs(out - v)) <= 1e-12 * np.abs(v).max()

    def test_against_dense_lu(self, rng):
        # random SPD circulant: diagonally dominant symmetric generator
        from tsfrac.toeplitz import CirculantPreconditioner

        n = 100
        gen = np.zeros(n)
        gen[0] = 5.0
        body = rng.uniform(0.01, 0.02, size=(n - 1) // 2)
        gen[1:1 + body.size] = body
        gen[n - body.size:] = body[::-1]
        P = circulant(gen)
        eigs = np.fft.fft(gen).real
        p = CirculantPreconditioner(n=n, shift=0.0, kappa_bar=1.0,
                                    lam=eigs, total_eigs=eigs)
        v = rng.standard_normal(n)
        ref = np.linalg.solve(P, v)
        out = precond_solve(p, v)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()

    def test_inverse_norm_bound(self):
        d = build_ifl(1.5, 1.75, 1.0, 16)
        shift = _example_shift()
        p = build_preconditioner(d, shift, 1.0)
        P = p.shift * np.eye(p.n) + p.kappa_bar * circulant(
            strang_first_column(d.first_col))
        inv_norm = np.linalg.norm(np.linalg.inv(P), 2)
        assert inv_norm <= (1.0 + 1e-12) / (shift + p.kappa_bar * p.lam.min())

    def test_dimension_mismatch(self):
        col = np.zeros(4)
        col[0] = 1.0
        p = build_preconditioner(col, 1.0, 1.0)
        with pytest.raises(ValueError):
            precond_solve(p, np.zeros(5))


class TestWienerClassTail:
    # summability of the synthetic off-diagonal extension
    # |a_tilde(k)| = ((k+1)^nu - (k-1)^nu) / (2 k^mu): the tail increment
    # S(1e6) - S(1e5) is bounded by the integral estimate (nu/alpha) k^{-alpha}
    # and is below 1e-6 once alpha is large enough for that estimate to be.
    @staticmethod
    def _tail_increment(alpha, mu, lo=10 ** 5, hi=10 ** 6):
        nu = mu - alpha
        k = np.arange(lo + 1, hi + 1, dtype=float)
        return float(np.sum(((k + 1.0) ** nu - (k - 1.0) ** nu) / (2.0 * k ** mu)))

    @pytest.mark.parametrize("alpha", (0.5, 1.1, 1.5, 1.9))
    def test_tail_increment_within_integral_bound(self, alpha):
        mu = 1.0 + alpha / 2.0
        inc = self._tail_increment(alpha, mu)
        bound = (mu - alpha) / alpha * (10.0 ** 5) ** -alpha
        assert 0 < inc <= 1.05 * bound

    @pytest.mark.parametrize("alpha", (1.5, 1.9))
    def test_tail_increment_small_for_large_alpha(self, alpha):
        assert self._tail_increment(alpha, 1.0 + alpha / 2.0) < 1e-6
