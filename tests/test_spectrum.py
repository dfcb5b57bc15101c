import re

import numpy as np
import pytest

from oracles import jacobi_eigenvalues
from tsfrac.ifl import build_ifl
from tsfrac.spectrum import (
    dense_system,
    gershgorin_summary,
    preconditioned_eigenvalues,
    preconditioned_singular_values,
    system_eigenvalues,
)


class TestJacobiEigenvalues:
    @pytest.mark.parametrize("n", [2, 20, 63])
    def test_against_lapack(self, rng, n):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        ref = np.linalg.eigvalsh(A)
        out = jacobi_eigenvalues(A)
        assert np.max(np.abs(out - ref)) <= 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_diagonal_matrix(self):
        out = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_array_equal(out, [-1.0, 2.0, 3.0])

    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(rng.standard_normal((5, 5)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros((3, 4)))


class TestPreconditionedSpectrum:
    def test_identity_matrix_gives_unit_spectrum(self):
        col = np.zeros(16)
        col[0] = 1.0
        eigs = preconditioned_eigenvalues(col, 0.5, 2.0)
        np.testing.assert_allclose(eigs, 1.0, rtol=1e-12)

    def test_clustering_counts_stay_bounded(self):
        # scaled form (eta = 1): outlier count must not grow with N
        counts = []
        for N in (32, 64, 128):
            d = build_ifl(1.5, 1.75, 1.0, N)
            eigs = preconditioned_eigenvalues(d.first_col, d.scale, 1.0)
            counts.append(int(np.sum((eigs < 0.9) | (eigs > 1.1))))
        assert counts[1] <= counts[0] + 2
        assert counts[2] <= counts[1] + 2

    def test_condition_grows_with_alpha(self):
        shift = 1.0
        conds = []
        for alpha in (1.1, 1.9):
            d = build_ifl(alpha, 1.0 + alpha / 2.0, 1.0, 64)
            eigs = system_eigenvalues(d.first_col, shift, 1.0)
            conds.append(eigs.max() / eigs.min())
        assert conds[1] > conds[0]

    def test_preconditioning_compresses_the_spread(self):
        # small shift = the ill-conditioned late-time regime
        d = build_ifl(1.9, 1.95, 1.0, 64)
        shift = 1e-3 * d.scale
        orig = system_eigenvalues(d.first_col, shift, 1.0)
        prec = preconditioned_eigenvalues(d.first_col, shift, 1.0)
        assert (prec.max() / prec.min()) < 0.2 * (orig.max() / orig.min())

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            preconditioned_eigenvalues(np.ones(300), 1.0, 1.0)


class TestXDependentDiagnostics:
    def test_singular_values_cluster_loosely_near_one(self, rng):
        d = build_ifl(1.5, 1.75, 1.0, 32)
        x = d.interior_points()
        kappa = (1.0 + 0.5) * np.exp(0.8 * x + 1.0)
        sv = preconditioned_singular_values(d.first_col, d.scale, kappa)
        assert np.all(sv > 0)
        assert np.all(np.isfinite(sv))
        # reported, not asserted tightly: the bulk should sit around 1
        assert 0.2 < np.median(sv) < 5.0

    @pytest.mark.parametrize("shift,kappa,name,value", [
        (0.0, 1.0, "shift", "0.0"), (-2.0, 1.0, "shift", "-2.0"),
        (np.nan, 1.0, "shift", "nan"), (1.0, -1.0, "kappa", "kappa[0] = -1.0"),
        (1.0, [1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0], "kappa", "kappa[2] = 0.0"),
        (1.0, np.inf, "kappa", "kappa[0] = inf")])
    def test_dense_system_checks_shift_and_kappa(self, shift, kappa, name, value):
        d = build_ifl(1.5, 1.75, 1.0, 8)
        with pytest.raises(ValueError, match=(
                rf"{name} must be positive and finite, got {re.escape(value)}$")):
            dense_system(d.first_col, shift, kappa)

    def test_gershgorin_summary_fields(self):
        d = build_ifl(1.5, 1.75, 1.0, 16)
        M = dense_system(d.first_col, 2.0, np.linspace(1.0, 2.0, 15))
        s = gershgorin_summary(M)
        assert s["lower_bound"] <= s["center_min"] <= s["center_max"] <= s["upper_bound"]
        assert s["radius_max"] > 0
        # diagonal dominance of the level system keeps the lower bound positive
        assert s["lower_bound"] > 0
