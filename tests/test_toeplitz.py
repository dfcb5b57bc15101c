import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant, toeplitz

from oracles import jacobi_eigenvalues, mesh_arrays
from tsfrac.ifl import build_ifl
from tsfrac.mesh import build_mesh, gamma_factor, level_shift
from tsfrac.problems import make_case
from tsfrac.scheme import SolverOptions, run_fids
from tsfrac.toeplitz import (
    DENSE_CROSSOVER,
    PreconditionerError,
    build_preconditioner,
    build_toeplitz,
    precond_solve,
    strang_eigenvalues,
    strang_first_column,
    symmetric_toeplitz,
    toeplitz_matvec,
)


def embedding_spectrum(col, L):
    """DFT of the first column of A's circulant embedding of order L."""
    emb = np.zeros(L)
    emb[: col.size] = col
    emb[L - col.size + 1:] = col[1:][::-1]
    return np.fft.fft(emb)


class TestToeplitzMatvec:
    def test_tridiagonal_by_hand(self):
        op = build_toeplitz(np.array([2.0, -1.0, 0.0]))
        np.testing.assert_allclose(toeplitz_matvec(op, np.ones(3)), [1.0, 0.0, 1.0],
                                   atol=1e-13)

    def test_unit_vector_reproduces_first_column(self, rng):
        col = rng.standard_normal(17)
        op = build_toeplitz(col)
        e1 = np.zeros(17)
        e1[0] = 1.0
        out = toeplitz_matvec(op, e1)
        assert np.max(np.abs(out - col)) <= 1e-12 * np.abs(col).max()

    @pytest.mark.parametrize("n", [200, 440, 441, 512, DENSE_CROSSOVER,
                                   DENSE_CROSSOVER + 1])
    def test_matches_dense_multiplication(self, rng, n):
        col = rng.standard_normal(n)
        v = rng.standard_normal(n)
        ref = toeplitz(col) @ v
        out = toeplitz_matvec(build_toeplitz(col), v)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()

    def test_kernel_switches_at_the_crossover(self):
        # the dense matrix up to the crossover, the real half-spectrum above
        below = build_toeplitz(np.ones(DENSE_CROSSOVER))
        col = np.ones(DENSE_CROSSOVER + 1)
        above = build_toeplitz(col)
        assert below.dense is not None and below.half_spectrum is None
        assert above.dense is None
        assert above.half_spectrum.shape == (above.embed_len // 2 + 1,)
        L = above.embed_len
        np.testing.assert_array_equal(
            above.half_spectrum,
            embedding_spectrum(col, L)[: L // 2 + 1].real)
        for n, dense in ((DENSE_CROSSOVER, True), (DENSE_CROSSOVER + 1, False)):
            p = build_preconditioner(np.ones(n), 1.0, 1.0)
            assert p.n == n
            assert (p.dense is not None) == dense

    def test_embedding_length_is_power_of_two(self):
        op = build_toeplitz(np.ones(100))
        assert op.embed_len >= 199
        assert op.embed_len & (op.embed_len - 1) == 0

    def test_imaginary_residue_is_roundoff(self, rng):
        # the frequency-domain product of real data must come back real
        col = rng.standard_normal(37)
        op = build_toeplitz(col)
        v = rng.standard_normal(37)
        padded = np.zeros(op.embed_len, dtype=complex)
        padded[:37] = v
        spectrum = embedding_spectrum(col, op.embed_len)
        full = np.fft.ifft(spectrum * np.fft.fft(padded))[:37]
        assert np.abs(full.imag).max() <= 1e-12 * np.linalg.norm(v)
        ref = toeplitz_matvec(op, v)
        assert np.max(np.abs(full.real - ref)) <= 1e-12 * np.abs(ref).max()

    def test_dense_side_transforms_nothing(self, monkeypatch):
        import tsfrac.fourier

        def no_fft(x):
            raise AssertionError("fourier.fft called")

        monkeypatch.setattr(tsfrac.fourier, "fft", no_fft)
        op = build_toeplitz(np.arange(DENSE_CROSSOVER, 0.0, -1.0))
        assert op.half_spectrum is None
        assert op.embed_len == 1024

    @pytest.mark.parametrize("n", [DENSE_CROSSOVER + 1, DENSE_CROSSOVER + 2,
                                   1023, 2047])
    def test_fft_side_results_own_their_n_values(self, rng, n):
        # the Krylov loops keep these vectors: a view of the leading n values
        # of A's inverse transform would keep its 2n-1 or more alive
        col = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = strang_eigenvalues(build_ifl(1.5, 1.75, 1.0, n + 1).first_col)
        for out in (toeplitz_matvec(build_toeplitz(col), v),
                    precond_solve(build_preconditioner(lam, 0.3, 1.7), v)):
            assert out.base is None and out.size == n

    def test_dimension_mismatch(self):
        op = build_toeplitz(np.ones(4))
        with pytest.raises(ValueError):
            toeplitz_matvec(op, np.ones(5))


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


class TestSymmetricToeplitz:
    @pytest.mark.parametrize("n", [1, 2, 3, 127, DENSE_CROSSOVER,
                                   DENSE_CROSSOVER + 1])
    def test_matches_scipy_toeplitz(self, rng, n):
        col = rng.standard_normal(n)
        np.testing.assert_array_equal(symmetric_toeplitz(col), toeplitz(col))

    @pytest.mark.parametrize("N", [16, 17])  # odd and even order n = N-1
    def test_even_column_gives_the_circulant(self, N):
        c = strang_first_column(build_ifl(1.5, 1.75, 1.0, N).first_col)
        np.testing.assert_array_equal(symmetric_toeplitz(c), circulant(c))

    def test_view_is_read_only(self):
        view = symmetric_toeplitz(np.arange(4.0))
        with pytest.raises(ValueError, match="read-only"):
            view[1, 2] = 0.0

    def test_dense_matrices_are_writable_copies(self):
        disc = build_ifl(1.5, 1.75, 1.0, 64)
        op = build_toeplitz(disc.first_col)
        p = build_preconditioner(strang_eigenvalues(disc.first_col), 1.0, 1.0)
        for dense in (op.dense, p.dense, disc.dense()):
            assert dense.flags.owndata and dense.flags.writeable
            assert dense.flags.c_contiguous
            np.testing.assert_array_equal(dense, symmetric_toeplitz(dense[:, 0]))


def _example_shift(M=16, r=2.0, gamma=0.5, m=1):
    return level_shift(gamma, mesh_arrays(build_mesh(M, r, 1.0))[1][m - 1],
                       gamma_factor(gamma))


class TestBuildPreconditioner:
    def test_identity_column(self):
        col = np.zeros(6)
        col[0] = 1.0
        p = build_preconditioner(strang_eigenvalues(col), 1.0, 1.0)
        np.testing.assert_allclose(1.0 / np.linalg.eigvalsh(p.dense), 2.0, rtol=1e-14)

    def test_strang_eigs_against_dense_jacobi(self):
        d = build_ifl(1.5, 1.75, 1.0, 32)
        lam = strang_eigenvalues(d.first_col)
        dense_eigs = jacobi_eigenvalues(circulant(strang_first_column(d.first_col)))
        assert np.max(np.abs(np.sort(lam) - dense_eigs)) <= 1e-10 * dense_eigs.max()
        # Gershgorin disc {z : |z - a11| < a11}
        a11 = d.first_col[0]
        assert lam.min() > 0
        assert np.max(np.abs(lam - a11)) < a11

    @pytest.mark.parametrize("n", [127, 2047])
    def test_strang_eigenvalues_own_their_n_values(self, n):
        # a run keeps lam: a strided view of the complex spectrum would keep
        # twice its bytes alive and make every level read it with a stride
        lam = strang_eigenvalues(build_ifl(1.5, 1.75, 1.0, n + 1).first_col)
        assert lam.base is None and lam.strides == (8,) and lam.size == n

    @pytest.mark.parametrize("alpha,mu,N", [(0.4, 1.2, 8), (1.1, 2.0, 16),
                                            (1.9, 1.95, 64)])
    def test_gershgorin_for_ifl_columns(self, alpha, mu, N):
        d = build_ifl(alpha, mu, 1.0, N)
        lam = strang_eigenvalues(d.first_col)
        assert np.all(lam > 0)
        assert np.all(lam < 2.0 * d.first_col[0])

    def test_invalid_shift_or_kappa(self):
        lam = strang_eigenvalues(build_ifl(1.5, 1.75, 1.0, 8).first_col)
        with pytest.raises(ValueError):
            build_preconditioner(lam, 0.0, 1.0)
        with pytest.raises(ValueError):
            build_preconditioner(lam, 1.0, -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["shift", "kappa_bar"])
    def test_shift_or_kappa_that_is_not_finite_is_rejected(self, name, value):
        # NaN would give an all-NaN P^{-1} and infinity P^{-1} = 0
        lam = strang_eigenvalues(build_ifl(1.5, 1.75, 1.0, 256).first_col)
        args = {"shift": 1.0, "kappa_bar": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {value}"):
            build_preconditioner(lam, args["shift"], args["kappa_bar"])

    def test_nonpositive_spectrum_is_a_breakdown(self):
        col = np.zeros(4)
        col[0] = -1.0  # not an IFL column; forces a negative total eigenvalue
        with pytest.raises(PreconditionerError):
            build_preconditioner(strang_eigenvalues(col), 0.5, 1.0)


class TestPrecondSolve:
    def test_identity_preconditioner(self, rng):
        col = np.zeros(8)
        col[0] = 1.0
        p = build_preconditioner(strang_eigenvalues(col), 0.5, 0.5)  # P = I
        v = rng.standard_normal(8)
        np.testing.assert_allclose(precond_solve(p, v), v, rtol=1e-13, atol=1e-13)

    def test_forward_then_inverse_roundtrip(self, rng):
        d = build_ifl(1.5, 1.75, 1.0, 32)
        shift = _example_shift()
        p = build_preconditioner(strang_eigenvalues(d.first_col), shift, 1.3)
        P = shift * np.eye(p.n) + 1.3 * circulant(strang_first_column(d.first_col))
        v = rng.standard_normal(p.n)
        out = precond_solve(p, P @ v)
        assert np.max(np.abs(out - v)) <= 1e-12 * np.abs(v).max()

    @staticmethod
    def _random_spd_circulant(rng, n):
        # random SPD circulant I + circulant(gen): diagonally dominant
        # symmetric generator
        gen = np.zeros(n)
        gen[0] = 4.0
        body = rng.uniform(0.01, 0.02, size=(n - 1) // 2)
        gen[1:1 + body.size] = body
        gen[n - body.size:] = body[::-1]
        eigs = np.fft.fft(gen).real
        return np.eye(n) + circulant(gen), build_preconditioner(eigs, 1.0, 1.0)

    def test_against_dense_lu(self, rng):
        n = 100
        P, p = self._random_spd_circulant(rng, n)
        v = rng.standard_normal(n)
        ref = np.linalg.solve(P, v)
        out = precond_solve(p, v)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()

    # odd and even n: the length irfft returns depends on the parity
    @pytest.mark.parametrize("n", [DENSE_CROSSOVER + 1, DENSE_CROSSOVER + 2,
                                   441, 442])
    def test_against_dense_lu_on_the_fft_side(self, rng, n):
        P, p = self._random_spd_circulant(rng, n)
        assert p.dense is None
        v = rng.standard_normal(n)
        ref = np.linalg.solve(P, v)
        out = precond_solve(p, v)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 127, 128, DENSE_CROSSOVER])
    def test_dense_inverse_matches_the_inverse_fft(self, rng, n):
        # the cosine-matrix synthesis and the strided circulant copy replace
        # scipy.linalg.circulant(np.fft.irfft(inv_half, n)); P = I + s with
        # the eigenvalues of s drawn at random
        eigs = rng.uniform(0.5, 2.0, size=n // 2 + 1)
        lam = np.concatenate((eigs, eigs[1:(n + 1) // 2][::-1]))
        p = build_preconditioner(lam, 1.0, 1.0)
        ref = circulant(np.fft.irfft(1.0 / (1.0 + eigs), n))
        assert np.max(np.abs(p.dense - ref)) <= 4e-15 * np.abs(ref).max()
        assert p.dense.flags.c_contiguous

    @pytest.mark.parametrize("n", [DENSE_CROSSOVER, DENSE_CROSSOVER + 1])
    def test_inverse_is_the_operator_of_its_first_column(self, n):
        # a circulant is its own embedding; below the crossover P^{-1} is
        # exactly the Toeplitz operator of its even first column
        lam = strang_eigenvalues(build_ifl(1.5, 1.75, 1.0, n + 1).first_col)
        p = build_preconditioner(lam, 0.3, 1.7)
        if n <= DENSE_CROSSOVER:
            op = build_toeplitz(p.dense[:, 0])
            assert (p.n, p.embed_len, p.half_spectrum) == (n, op.embed_len, None)
            np.testing.assert_array_equal(p.dense, op.dense)
        else:
            assert p.embed_len == n and p.half_spectrum.shape == (n // 2 + 1,)

    @pytest.mark.parametrize("N,fft_calls", [(32, 0), (DENSE_CROSSOVER + 1, 0),
                                             (DENSE_CROSSOVER + 2, 1)])
    @pytest.mark.parametrize("solver,strang_calls", [("krylov", 0), ("pkrylov", 1)])
    def test_strang_spectrum_is_computed_once_per_run(self, monkeypatch, N,
                                                      fft_calls, solver,
                                                      strang_calls):
        # fft_calls: A's embedding above the crossover, once per run
        import tsfrac.fourier

        calls = []
        fft = tsfrac.fourier.fft
        monkeypatch.setattr(tsfrac.fourier, "fft",
                            lambda x: calls.append(x.size) or fft(x))
        run_fids(make_case("example2", 1.5, 0.5).spec, 16, 2, N,
                 options=SolverOptions(solver=solver))
        assert len(calls) == fft_calls + strang_calls

    def test_inverse_norm_bound(self):
        d = build_ifl(1.5, 1.75, 1.0, 16)
        shift = _example_shift()
        p = build_preconditioner(strang_eigenvalues(d.first_col), shift, 1.0)
        P = shift * np.eye(p.n) + circulant(strang_first_column(d.first_col))
        inv_norm = np.linalg.norm(np.linalg.inv(P), 2)
        total_eigs = shift + 1.0 * strang_eigenvalues(d.first_col)
        assert inv_norm <= (1.0 + 1e-12) / total_eigs.min()

    def test_dimension_mismatch(self):
        col = np.zeros(4)
        col[0] = 1.0
        p = build_preconditioner(strang_eigenvalues(col), 1.0, 1.0)
        with pytest.raises(ValueError):
            precond_solve(p, np.zeros(5))


class TestRandomOrderOracles:
    # both kernels, against scipy's dense Toeplitz and circulant matrices
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 1100), alpha=st.floats(0.2, 1.95),
           shift_ratio=st.floats(0.01, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matvec_and_precond_solve(self, n, alpha, shift_ratio, seed):
        rng = np.random.default_rng(seed)
        col = rng.standard_normal(n)
        v = rng.standard_normal(n)
        ref = toeplitz(col) @ v
        out = toeplitz_matvec(build_toeplitz(col), v)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()

        d = build_ifl(alpha, 1.0 + alpha / 2.0, 1.0, n + 1)
        shift = shift_ratio * d.first_col[0]
        p = build_preconditioner(strang_eigenvalues(d.first_col), shift, 1.5)
        P = shift * np.eye(n) + 1.5 * circulant(strang_first_column(d.first_col))
        ref = np.linalg.solve(P, v)
        out = precond_solve(p, v)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()


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
