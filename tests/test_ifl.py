import math

import numpy as np
import pytest

from oracles import jacobi_eigenvalues
from tsfrac.ifl import (
    build_ifl,
    diagonal_dominance_gap,
    dominance_gap_dense,
    normalization_constant,
)
from tsfrac.problems import exact_ifl_of_bump

ALPHAS = (0.4, 0.5, 1.1, 1.5, 1.6, 1.9)


class TestNormalizationConstant:
    def test_alpha_one_is_inverse_pi(self):
        assert normalization_constant(1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_alpha_three_halves_high_precision(self):
        # 50-digit reference: 2^0.5 * 1.5 * Gamma(1.25) / (sqrt(pi) Gamma(0.25))
        assert normalization_constant(1.5) == pytest.approx(
            0.299206710301074508455, rel=1e-13)

    def test_vanishes_as_alpha_to_zero(self):
        values = [normalization_constant(a) for a in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            normalization_constant(alpha)


class TestBuildIfl:
    def test_hand_computed_entries_alpha1_mu2(self):
        # alpha=1, mu=2: nu=1, kappa_mu=2, C = (1/pi)/h with h=1/2
        d = build_ifl(1.0, 2.0, 1.0, 4)
        assert d.kappa_mu == 2
        assert d.first_col[1] == pytest.approx(-3.0 / math.pi, rel=1e-14)
        assert d.first_col[2] == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-14)

    def test_kappa_mu_one_for_interior_mu(self):
        assert build_ifl(1.0, 1.5, 1.0, 4).kappa_mu == 1

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("mu_kind", ["half", "two"])
    def test_m_matrix_sign_pattern_and_dominance(self, alpha, mu_kind):
        mu = 1.0 + alpha / 2.0 if mu_kind == "half" else 2.0
        d = build_ifl(alpha, mu, 1.0, 32)
        assert d.first_col[0] > 0
        assert np.all(d.first_col[1:] < 0)
        A = d.dense()
        np.testing.assert_array_equal(A, A.T)
        # strict dominance, row by row on the dense oracle
        assert dominance_gap_dense(A) > 0

    def test_off_diagonal_strict_decay(self):
        d = build_ifl(1.5, 1.75, 1.0, 64)
        mags = np.abs(d.first_col)
        assert np.all(np.diff(mags) < 0)

    def test_positive_definite_via_jacobi(self):
        d = build_ifl(0.5, 1.25, 1.0, 24)
        assert np.all(jacobi_eigenvalues(d.dense()) > 0)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0, 8), (2.0, 2.0, 1.0, 8),
                                      (1.0, 1.0, 1.0, 8), (1.0, 2.1, 1.0, 8),
                                      (1.0, 2.0, 1.0, 2), (1.0, 2.0, -1.0, 8)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            build_ifl(*args)

    def test_decay_law_slope(self):
        # |first_col[k]| ~ k^{-1-alpha}; log-log slope within 0.15
        for alpha in (0.5, 1.1, 1.9):
            d = build_ifl(alpha, 1.0 + alpha / 2.0, 1.0, 256)
            k = np.arange(8, 128)
            slope = np.polyfit(np.log(k), np.log(np.abs(d.first_col[k])), 1)[0]
            assert abs(slope + 1.0 + alpha) <= 0.15

    @pytest.mark.parametrize("alpha", (0.5, 1.5, 1.9))
    @pytest.mark.parametrize("mu_kind", ["half", "two"])
    def test_consistency_with_exact_ifl(self, alpha, mu_kind):
        # apply A to the bump (1-x^2)^{3+alpha/2}; second-order convergence to
        # the closed-form fractional Laplacian (boundary layer decays last,
        # so the rate is measured on the finest pair)
        mu = 1.0 + alpha / 2.0 if mu_kind == "half" else 2.0
        errs = []
        for N in (128, 256, 512):
            d = build_ifl(alpha, mu, 1.0, N)
            x = d.interior_points()
            u = (1.0 - x * x) ** (3.0 + alpha / 2.0)
            errs.append(np.max(np.abs(d.dense() @ u - exact_ifl_of_bump(3, alpha, x))))
        assert math.log2(errs[-2] / errs[-1]) >= 2.0 - 0.1


class TestDominanceGap:
    def test_identity_column(self):
        col = np.zeros(5)
        col[0] = 1.0
        assert diagonal_dominance_gap(col) == 1.0

    def test_matches_dense_brute_force(self):
        d = build_ifl(0.5, 1.25, 1.0, 8)
        assert diagonal_dominance_gap(d) == pytest.approx(
            dominance_gap_dense(d.dense()), rel=1e-14)

    @pytest.mark.parametrize("alpha,mu,N", [(0.5, 1.25, 16), (1.5, 2.0, 64),
                                            (1.9, 1.95, 32)])
    def test_positive_with_proof_lower_bound(self, alpha, mu, N):
        # the proof's bound: gap > C [ (N^nu - (N-1)^nu)/N^mu + 2 nu/(alpha N^alpha) ]
        d = build_ifl(alpha, mu, 1.0, N)
        gap = diagonal_dominance_gap(d)
        nu = d.nu
        bound = d.scale * ((N ** nu - (N - 1.0) ** nu) / N ** mu
                           + 2.0 * nu / (alpha * N ** alpha))
        assert gap > 0
        assert gap >= bound * (1.0 - 1e-10)
