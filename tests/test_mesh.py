import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from oracles import caputo_l1_apply, l1_row, l1_weight_by_quadrature, mesh_arrays
from tsfrac.mesh import LEVEL_BLOCK, build_mesh, gamma_factor, l1_weights, level_shift


class TestBuildMesh:
    def test_quadratic_grading(self):
        t, _ = mesh_arrays(build_mesh(4, 2, 1.0))
        np.testing.assert_allclose(t, [0.0, 0.0625, 0.25, 0.5625, 1.0],
                                   rtol=0, atol=0)

    def test_uniform(self):
        t, tau = mesh_arrays(build_mesh(4, 1, 1.0))
        np.testing.assert_allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(tau, 0.25)

    def test_cubic_first_step(self):
        t, _ = mesh_arrays(build_mesh(8, 3, 2.0))
        assert t[1] == 2.0 * (1.0 / 8.0) ** 3 == 0.00390625

    def test_endpoints_and_monotonicity(self):
        t, tau = mesh_arrays(build_mesh(37, 2.5, 0.7))
        assert t[0] == 0.0
        assert t[-1] == 0.7
        assert np.all(np.diff(t) > 0)
        assert np.all(tau > 0)

    # before the checks, M = 8.5 built 10 times ending at 1.121, r = inf
    # gave NaN times and r = nan failed later as a kappa error
    @pytest.mark.parametrize("M,r,T", [(0, 2, 1.0), (4, 0.5, 1.0), (4, 2, 0.0),
                                       (4, 2, -1.0), (8.5, 2, 1.0), (4.0, 2, 1.0),
                                       (4, math.inf, 1.0), (4, math.nan, 1.0),
                                       (4, 2, math.inf), (4, 2, math.nan)])
    def test_invalid_arguments(self, M, r, T):
        with pytest.raises(ValueError) as info:
            build_mesh(M, r, T)
        # the message names the bad parameter and its value
        message = str(info.value)
        assert any(f"{name} must " in message and message.endswith(f"got {value}")
                   for name, value in (("M", M), ("r", r), ("T", T)))


class TestEvaluator:
    # at the last two, Python's float ** differs from the array power in the
    # last bit at dozens of levels
    CONFIGS = [(3326, 2, 1), (512, 3, 1), (1000, 2.5, 1), (777, 1.7, 2)]

    @pytest.mark.parametrize("M,r,T", CONFIGS)
    def test_times_are_the_array_expression_bit_for_bit(self, M, r, T):
        mesh = build_mesh(M, r, T)
        expected = (np.arange(M + 1, dtype=float) / M) ** r * T
        levels = np.arange(M + 1)
        assert np.array_equal(mesh.times(levels), expected)
        # one level at a time, as a Python or numpy integer, and as a pair
        assert [mesh.times(m) for m in range(M + 1)] == expected.tolist()
        assert [mesh.times(m) for m in levels] == expected.tolist()
        pairs = np.array([mesh.times(np.array([m - 1, m])) for m in range(1, M + 1)])
        assert np.array_equal(pairs[:, 1], expected[1:])
        assert np.array_equal(np.diff(pairs, axis=1)[:, 0], np.diff(expected))

    @pytest.mark.parametrize("M,r,T", CONFIGS)
    @pytest.mark.parametrize("first", [1, 2, LEVEL_BLOCK + 1])
    def test_blocks_cover_the_levels_from_first_with_their_steps(self, M, r, T, first):
        mesh = build_mesh(M, r, T)
        expected = (np.arange(M + 1, dtype=float) / M) ** r * T
        starts, times, steps = zip(*mesh.blocks(first))
        assert starts == tuple(range(first, M + 1, LEVEL_BLOCK))
        assert all(t.size == tau.size + 1 <= LEVEL_BLOCK + 1
                   for t, tau in zip(times, steps))
        assert np.array_equal(np.concatenate([t[1:] for t in times]), expected[first:])
        assert np.array_equal(np.concatenate(steps), np.diff(expected)[first - 1:])

    # -1 used to wrap to the last time, and 2.0 was an index error
    @pytest.mark.parametrize("m,bad", [(-1, "-1"), (5, "5"), (2.0, "2.0"), (2.5, "2.5"),
                                       (np.array([0, 4, -1, 7]), "-1"),
                                       (np.array([1.0, 2.0]), "1.0"),
                                       (True, "True")])
    def test_a_level_that_is_not_an_integer_in_0_M_is_rejected(self, m, bad):
        mesh = build_mesh(4, 2, 1.0)
        with pytest.raises(ValueError, match=rf"level must be an integer in \[0, 4\], "
                                             rf"got {bad}$"):
            mesh.times(m)

    def test_a_mesh_allocates_nothing_of_length_M(self):
        tracemalloc.start()
        try:
            mesh = build_mesh(2 ** 20, 2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
            walked = sum(tau.size for _, _, tau in mesh.blocks())
            walk_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walked == 2 ** 20
        assert peak < 1024
        # a walk holds one block's arrays at a time
        assert walk_peak < 8 * 8 * (LEVEL_BLOCK + 1)


class TestL1Weights:
    def test_uniform_last_weight_closed_form(self):
        # a_2 = tau^{-gamma} / (1 - gamma) on the uniform 2-step mesh
        mesh = build_mesh(2, 1, 1.0)
        w = l1_row(mesh, 0.5, 2)
        assert w[1] == pytest.approx(0.5 ** -0.5 / 0.5, rel=1e-12)  # 2.828427...

    def test_uniform_first_weight_closed_form(self):
        mesh = build_mesh(2, 1, 1.0)
        w = l1_row(mesh, 0.5, 2)
        assert w[0] == pytest.approx((1.0 - 0.5 ** 0.5) / 0.25, rel=1e-12)  # 1.171573

    def test_against_adaptive_quadrature(self):
        # oracle: the defining integral (1/tau_k) int (t_m - s)^{-gamma} ds,
        # evaluated by adaptive quadrature with the algebraic-endpoint weight
        mesh = build_mesh(4, 2, 1.0)
        gamma, m = 0.8, 4
        w = l1_row(mesh, gamma, m)
        for k in range(1, m + 1):
            assert w[k - 1] == pytest.approx(
                l1_weight_by_quadrature(mesh, gamma, m, k), abs=1e-12)
        assert np.all(np.diff(w) > 0)

    @pytest.mark.parametrize("gamma,m", [(1.0, 1), (0.0, 1), (0.5, 0), (0.5, 5)])
    def test_invalid_arguments(self, gamma, m):
        mesh = build_mesh(4, 2, 1.0)
        with pytest.raises(ValueError):
            l1_row(mesh, gamma, m)

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(min_value=1, max_value=40),
        r=st.floats(min_value=1.0, max_value=5.0),
        gamma=st.floats(min_value=0.01, max_value=0.99),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_weights_positive_and_increasing(self, M, r, gamma, frac):
        mesh = build_mesh(M, r, 1.0)
        m = 1 + int(frac * (M - 1))
        w = l1_row(mesh, gamma, m)
        assert np.all(w > 0)
        assert np.all(np.diff(w) > 0)

    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(min_value=2, max_value=64),
        r=st.floats(min_value=1.0, max_value=4.0),
        gamma=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_telescoping(self, M, r, gamma):
        # a_m - sum(a_{k+1} - a_k) - a_1 == 0, so constants map to zero
        mesh = build_mesh(M, r, 1.0)
        a = l1_row(mesh, gamma, M)
        resid = a[-1] - np.sum(np.diff(a)) - a[0]
        assert abs(resid) <= 1e-13 * a[-1]


    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.95])
    def test_panel_rows_are_the_levels_rows(self, gamma):
        # bit for bit: a panel row is its level's history weights k < m over
        # the columns, and 0 from the level's own interval k = m on
        mesh = build_mesh(40, 2.5, 1.0)
        levels = np.arange(20, 40)
        panel = l1_weights(mesh, gamma, levels, 5, 30)
        assert panel.shape == (20, 25)
        for row, m in zip(panel, levels):
            k = min(m - 1, 30)
            np.testing.assert_array_equal(row[:k - 5], l1_row(mesh, gamma, m)[5:k])
            assert np.all(row[k - 5:] == 0.0)
        np.testing.assert_array_equal(l1_weights(mesh, gamma, levels, 5, 20),
                                      panel[:, :15])

    @pytest.mark.parametrize("start,stop", [(-1, 3), (3, 3), (0, 9)])
    def test_invalid_column_range(self, start, stop):
        mesh = build_mesh(8, 2, 1.0)
        with pytest.raises(ValueError, match="weights k"):
            l1_weights(mesh, 0.5, np.arange(4, 9), start, stop)


class TestLevelConstants:
    @pytest.mark.parametrize("gamma", [1e-6, 0.5, 0.95])
    def test_gamma_factor(self, gamma):
        assert gamma_factor(gamma) == pytest.approx(math.gamma(1.0 - gamma), rel=1e-14)

    def test_level_shift_is_the_newest_weight_over_the_gamma_factor(self):
        # the newest weight a_m from its defining integral, whose endpoint
        # singularity the quadrature weight takes
        mesh = build_mesh(50, 2.5, 2.0)
        _, tau = mesh_arrays(mesh)
        for gamma in (0.1, 0.5, 0.9):
            g = gamma_factor(gamma)
            for m in range(1, mesh.M + 1):
                assert level_shift(gamma, tau[m - 1], g) == pytest.approx(
                    l1_weight_by_quadrature(mesh, gamma, m, m) / g, rel=1e-14)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_level_shift_rejects_a_step_that_is_not_finite_and_positive(self, tau):
        with pytest.raises(ValueError,
                           match=rf"^step tau_m must be finite and > 0, got {tau}$"):
            level_shift(0.5, tau, gamma_factor(0.5))


class TestCaputoL1Apply:
    def test_constant_history_maps_to_zero(self):
        mesh = build_mesh(8, 2, 1.0)
        w = l1_row(mesh, 0.3, 8)
        hist = np.full((8, 5), 3.7)
        out = caputo_l1_apply(hist, np.full(5, 3.7), w, 0.3)
        np.testing.assert_allclose(out, 0.0, atol=1e-11)

    def test_single_step(self):
        mesh = build_mesh(4, 2, 1.0)
        w = l1_row(mesh, 0.5, 1)
        u0 = np.array([1.0, -2.0])
        u1 = np.array([2.0, 1.5])
        out = caputo_l1_apply(u0[None, :], u1, w, 0.5)
        expected = w[0] / math.exp(gammaln(0.5)) * (u1 - u0)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_dimension_mismatch(self):
        mesh = build_mesh(4, 2, 1.0)
        w = l1_row(mesh, 0.5, 2)
        with pytest.raises(ValueError):
            caputo_l1_apply(np.zeros((2, 3)), np.zeros(4), w, 0.5)
        with pytest.raises(ValueError):
            caputo_l1_apply(np.zeros((3, 4)), np.zeros(4), w, 0.5)

    @pytest.mark.parametrize("gamma,r", [(0.4, 5.0), (0.5, 2.0)])
    def test_truncation_decay_for_t_pow_gamma(self, gamma, r):
        # exact Caputo derivative of t^gamma is Gamma(1+gamma); the L1 error
        # at t_M decays with order min(r*gamma, 2-gamma)
        exact = math.exp(gammaln(1.0 + gamma))
        errs = []
        for M in (32, 64, 128, 256):
            mesh = build_mesh(M, r, 1.0)
            u = mesh_arrays(mesh)[0][:, None] ** gamma
            w = l1_row(mesh, gamma, M)
            out = caputo_l1_apply(u[:M], u[M], w, gamma)
            errs.append(abs(out[0] - exact))
        rate = math.log2(errs[-2] / errs[-1])
        assert rate >= min(r * gamma, 2.0 - gamma) - 0.1
