import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import history_push_outer
from tsfrac.mesh import build_mesh, l1_weights
from tsfrac.soe import (
    FastHistory,
    SoeApproximation,
    SoeConstructionError,
    build_soe,
    fast_caputo_rhs,
    fast_coefficients,
    history_push,
)


def sup_error(soe, n_grid=10_000):
    t = np.logspace(math.log10(soe.delta), math.log10(soe.T), n_grid)
    return np.max(np.abs(t ** (-soe.gamma) - soe.evaluate(t)))


class TestBuildSoe:
    def test_half_order_tight_tolerance(self):
        soe = build_soe(0.5, 1e-10, 1e-4, 1.0)
        assert sup_error(soe) <= 1e-10

    def test_example2_regime(self):
        # delta matching the r=3, M=2^8 first graded step
        soe = build_soe(0.8, 1e-9, (1.0 / 2 ** 8) ** 3, 1.0)
        assert soe.n_exp <= 256
        assert sup_error(soe) <= 1e-9

    def test_positive_nodes_and_weights(self):
        soe = build_soe(0.3, 1e-8, 1e-3, 2.0)
        assert np.all(soe.nodes > 0)
        assert np.all(soe.weights > 0)

    def test_degenerate_interval_fails(self):
        with pytest.raises(SoeConstructionError):
            build_soe(0.5, 1e-10, 1.0, 1.0)
        with pytest.raises(SoeConstructionError):
            build_soe(0.5, 1e-10, 2.0, 1.0)

    def test_impossible_cap_fails(self):
        with pytest.raises(SoeConstructionError):
            build_soe(0.5, 1e-10, 1e-7, 1.0, node_cap=20)

    def test_cap_failure_names_gamma(self):
        # gamma near 1 with deep grading (r = 3, M = 2^16) needs about 286 nodes
        with pytest.raises(SoeConstructionError,
                           match=r"at gamma=0\.97 needs \d+ exponentials, cap is 256"):
            build_soe(0.97, 1e-10, (1.0 / 2 ** 16) ** 3, 1.0)

    def test_build_peak_memory_stays_under_one_megabyte(self):
        # the pk-n128 workload's SOE: gamma 0.5, epsilon 1e-9, M = 3326, r = 2;
        # one 4096 x N_exp kernel matrix for validation took 6.4 MB
        tracemalloc.start()
        try:
            build_soe(0.5, 1e-9, (1.0 / 3326) ** 2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("gamma", [0.1, 0.9])
    def test_bound_only_claimed_on_delta_T(self, gamma):
        soe = build_soe(gamma, 1e-9, 1e-5, 1.0)
        t = np.logspace(-5, 0, 2000)
        err = np.abs(t ** (-gamma) - soe.evaluate(t))
        assert err.max() <= 1e-9


class TestEvaluate:
    def test_blocks_are_bit_equal_to_the_whole_product(self):
        soe = build_soe(0.5, 1e-9, (1.0 / 3326) ** 2, 1.0)
        t = np.logspace(math.log10(soe.delta), 0.0, 10_000)
        whole = np.exp(-np.outer(t, soe.nodes)) @ soe.weights
        np.testing.assert_array_equal(soe.evaluate(t), whole)

    def test_shapes_are_flattened(self):
        soe = _single_exponential()
        assert soe.evaluate(1.0).shape == (1,)
        assert soe.evaluate(np.ones((3, 200))).shape == (600,)
        assert soe.evaluate(np.zeros(0)).shape == (0,)
        assert soe.evaluate(2.0)[0] == math.exp(-2.0)


class TestFastCoefficients:
    def test_level_one_is_the_l1_weight(self):
        mesh = build_mesh(8, 2, 1.0)
        soe = build_soe(0.5, 1e-10, mesh.tau[0], 1.0)
        b = fast_coefficients(soe, mesh, 1)
        a = l1_weights(mesh, 0.5, 1).a
        assert b.shape == (1,)
        assert b[0] == a[0]

    def test_matches_l1_weights_uniform(self):
        # b is an SOE quadrature of the same kernel integral as a, so they
        # agree to a small multiple of the compression tolerance
        mesh = build_mesh(8, 1, 1.0)
        soe = build_soe(0.5, 1e-12, mesh.tau[0], 1.0)
        b = fast_coefficients(soe, mesh, 8)
        a = l1_weights(mesh, 0.5, 8).a
        assert np.max(np.abs(b - a)) <= 1e-9

    def test_monotone_increasing(self):
        mesh = build_mesh(12, 3, 1.0)
        soe = build_soe(0.7, 1e-11, mesh.tau[0], 1.0)
        b = fast_coefficients(soe, mesh, 12)
        assert np.all(np.diff(b) > 0)

    def test_level_out_of_range(self):
        mesh = build_mesh(4, 1, 1.0)
        soe = build_soe(0.5, 1e-8, mesh.tau[0], 1.0)
        with pytest.raises(ValueError):
            fast_coefficients(soe, mesh, 5)


def _single_exponential():
    return SoeApproximation(gamma=0.5, epsilon=1.0, delta=0.1, T=1.0,
                            nodes=np.array([1.0]), weights=np.array([1.0]))


class TestHistoryPush:
    def test_zero_increment_only_decays(self, rng):
        soe = build_soe(0.5, 1e-8, 1e-2, 1.0)
        h = FastHistory.fresh(soe, 4)
        h.W[:] = rng.standard_normal(h.W.shape)
        before = h.W.copy()
        history_push(h, np.zeros(4), 0.25)
        np.testing.assert_allclose(h.W, before * np.exp(-0.25 * soe.nodes)[:, None],
                                   rtol=1e-14)

    def test_two_steps_by_hand(self):
        # w = s = 1, tau = 1, unit increments: W = e^{-1}(1-e^{-1}) + (1-e^{-1})
        h = FastHistory.fresh(_single_exponential(), 1)
        history_push(h, np.ones(1), 1.0)
        history_push(h, np.ones(1), 1.0)
        e = math.exp(-1.0)
        assert h.W[0, 0] == pytest.approx(e * (1 - e) + (1 - e), rel=1e-14)

    def test_recurrence_matches_direct_coefficient_sum(self, rng):
        # summation-by-parts identity: sum_j w_j e^{-s_j tau_m} W_j^{m-1}
        # equals sum_{k<m} b_k (u^k - u^{k-1}) from the direct formula
        mesh = build_mesh(5, 2, 1.0)
        soe = build_soe(0.6, 1e-12, mesh.tau[0], 1.0)
        n = 3
        u = rng.standard_normal((6, n))
        h = FastHistory.fresh(soe, n)
        for m in range(2, 6):
            history_push(h, u[m - 1] - u[m - 2], mesh.tau[m - 2])
            b = fast_coefficients(soe, mesh, m)
            direct = sum(b[k - 1] * (u[k] - u[k - 1]) for k in range(1, m))
            fast = (soe.weights * np.exp(-soe.nodes * mesh.tau[m - 1])) @ h.W
            assert np.max(np.abs(fast - direct)) <= 1e-12 * max(np.max(np.abs(direct)), 1.0)

    def test_dimension_mismatch(self):
        h = FastHistory.fresh(_single_exponential(), 3)
        with pytest.raises(ValueError):
            history_push(h, np.zeros(2), 0.5)

    @pytest.mark.parametrize("gamma,n", [(0.5, 127), (0.8, 2047)])
    def test_matches_the_outer_product_form(self, rng, gamma, n):
        soe = build_soe(gamma, 1e-9, 1e-6, 1.0)
        h = FastHistory.fresh(soe, n)
        W = h.W
        ref = W.copy()
        for tau in (1e-6, 3e-3, 0.25):
            du = rng.standard_normal(n)
            history_push(h, du, tau)
            ref = history_push_outer(ref, soe.nodes, du, tau)
        assert h.W is W
        assert np.max(np.abs(h.W - ref)) <= 1e-15 * np.abs(ref).max()

    def test_push_allocates_no_accumulator_sized_temporary(self, rng):
        # pk-n2048-deep's accumulator: 128 nodes x 2047 points, 2.1 MB
        soe = build_soe(0.8, 1e-9, (1.0 / 512) ** 3, 1.0)
        h = FastHistory.fresh(soe, 2047)
        du = rng.standard_normal(2047)
        history_push(h, du, 1e-3)
        tracemalloc.start()
        try:
            history_push(h, du, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h.W.nbytes / 8

    def test_accumulator_that_is_not_c_contiguous_is_rejected(self):
        h = FastHistory(soe=_single_exponential(), W=np.zeros((1, 6))[:, ::2])
        with pytest.raises(ValueError, match="C-contiguous float64"):
            history_push(h, np.ones(3), 0.5)


class TestFastCaputoRhs:
    def test_first_level_reduces_to_l1(self):
        soe = build_soe(0.5, 1e-10, 1e-2, 1.0)
        h = FastHistory.fresh(soe, 2)
        u0 = np.array([1.0, 2.0])
        u1 = np.array([0.5, -1.0])
        tau = 0.3
        a11 = tau ** -0.5 / 0.5
        r = fast_caputo_rhs(h, a11, u0, 0.5, tau)
        g = math.exp(gammaln(0.5))
        # fast Caputo of u1 = a11 u1 / Gamma - r = (a11/Gamma)(u1 - u0)
        np.testing.assert_allclose(a11 * u1 / g - r, a11 / g * (u1 - u0), rtol=1e-14)

    def test_constant_solution_caputo_below_epsilon(self):
        eps = 1e-10
        mesh = build_mesh(16, 2, 1.0)
        soe = build_soe(0.5, eps, mesh.tau[0], 1.0)
        c = 4.0
        u = np.full(3, c)
        h = FastHistory.fresh(soe, 3)
        g = math.exp(gammaln(0.5))
        for m in range(1, 17):
            tau = mesh.tau[m - 1]
            a_mm = tau ** -0.5 / 0.5
            r = fast_caputo_rhs(h, a_mm, u, 0.5, tau)
            caputo = a_mm * u / g - r
            assert np.max(np.abs(caputo)) <= 10 * eps * c
            history_push(h, np.zeros(3), tau)

    def test_fids_matches_dids_caputo_on_t_pow_gamma(self):
        # u(t) = t^gamma + 1 sampled on the graded mesh; the SOE path agrees
        # with the direct L1 path to a small multiple of epsilon
        from tsfrac.mesh import caputo_l1_apply

        gamma, eps, M = 0.5, 1e-10, 64
        mesh = build_mesh(M, 2, 1.0)
        soe = build_soe(gamma, eps, mesh.tau[0], 1.0)
        u = (mesh.t ** gamma + 1.0)[:, None]
        h = FastHistory.fresh(soe, 1)
        g = math.exp(gammaln(1.0 - gamma))
        worst = 0.0
        for m in range(1, M + 1):
            tau = mesh.tau[m - 1]
            a_mm = tau ** -gamma / (1.0 - gamma)
            r = fast_caputo_rhs(h, a_mm, u[m - 1], gamma, tau)
            fast = a_mm * u[m] / g - r
            w = l1_weights(mesh, gamma, m)
            direct = caputo_l1_apply(u[:m], u[m], w, gamma)
            worst = max(worst, abs(float(fast[0] - direct[0])))
            history_push(h, u[m] - u[m - 1], tau)
        assert worst <= 100 * eps

    def test_dimension_mismatch(self):
        h = FastHistory.fresh(_single_exponential(), 3)
        with pytest.raises(ValueError):
            fast_caputo_rhs(h, 1.0, np.zeros(4), 0.5, 0.5)
