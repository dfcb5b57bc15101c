import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import (caputo_l1_apply, fast_coefficients, history_push_outer, l1_row,
                     mesh_arrays)
from tsfrac.mesh import build_mesh
from tsfrac.problems import make_case
from tsfrac.scheme import run_fids, run_soe
import tsfrac.soe as soe_module
from tsfrac.soe import (
    NODE_CAP,
    FastHistory,
    SoeApproximation,
    SoeConstructionError,
    build_soe,
    history_push,
    history_sum,
)


def sup_error(soe, n_grid=10_000):
    t = np.logspace(math.log10(soe.delta), math.log10(soe.T), n_grid)
    return np.max(np.abs(t ** (-soe.gamma) - soe.evaluate(t)))


# Where delta^-gamma is large, a few ulp of t^-gamma exceed epsilon (at
# gamma 0.5, epsilon 1e-12, delta 2^-36 four ulp are 2.3e-10), and summing
# the exponentials rounds to about that: on a 20 000-point grid the worst
# error was 4.4 ulp of t^-gamma before the reduction (gamma 0.8, epsilon
# 1e-12, M 4096, r 3) and 4.7 ulp after it (gamma 0.95, epsilon 1e-9, M
# 4096, r 3).  _validate allows 4 ulp on its 4096 points.
FLOOR_ULPS = 8.0


def floor_free(soe):
    """Whether epsilon is above the rounding floor on all of [delta, T]."""
    return soe.epsilon >= FLOOR_ULPS * np.finfo(float).eps * soe.delta ** -soe.gamma


def within_contract(soe, n_grid):
    """|t^-gamma - SOE(t)| <= max(epsilon, FLOOR_ULPS ulp of t^-gamma) on a
    log grid of [delta, T]: the sup error is at most epsilon when
    ``floor_free(soe)``."""
    t = np.logspace(math.log10(soe.delta), math.log10(soe.T), n_grid)
    kernel = t ** (-soe.gamma)
    err = np.abs(kernel - soe.evaluate(t))
    return bool(np.all(err <= np.maximum(
        soe.epsilon, FLOOR_ULPS * np.finfo(float).eps * kernel)))


def sup_rel_error(soe, n_grid):
    """max |t^-gamma - SOE(t)| / t^-gamma on a log grid of [delta, T]."""
    t = np.logspace(math.log10(soe.delta), math.log10(soe.T), n_grid)
    kernel = t ** (-soe.gamma)
    return float(np.max(np.abs(kernel - soe.evaluate(t)) / kernel))


# the FIDS workloads, pk-n128 and pk-n2048-deep: (gamma, epsilon, M, r)
WORKLOAD_RUNS = {"pk-n128": (0.5, 1e-9, 3326, 2),
                 "pk-n2048-deep": (0.8, 1e-9, 512, 3)}
# their absolute SOEs on [tau_1, T]: (gamma, epsilon, delta)
WORKLOAD_SOES = {name: (gamma, epsilon, (1.0 / M) ** r)
                 for name, (gamma, epsilon, M, r) in WORKLOAD_RUNS.items()}


class TestReduction:
    @pytest.mark.parametrize("epsilon", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("gamma", [1e-8, 0.05, 0.5, 0.8, 0.95, 0.99])
    def test_sweep(self, monkeypatch, gamma, epsilon):
        lattice_sizes = []
        build_lattice = soe_module._build_lattice

        def recorded(*args):
            s, w = build_lattice(*args)
            lattice_sizes.append(s.size)
            return s, w

        monkeypatch.setattr(soe_module, "_build_lattice", recorded)
        built = 0
        for M in (2, 64, 4096, 2 ** 16):
            for r in (1, 2, 3):
                lattice_sizes.clear()
                try:
                    soe = build_soe(gamma, epsilon, (1.0 / M) ** r, 1.0)
                except SoeConstructionError as exc:
                    # the lattice's own right tail (gamma 1e-8 at epsilon
                    # 1e-6) fails before a reduction is tried
                    if "right tail of the lattice" in str(exc):
                        continue
                    assert "cap is 256" in str(exc), (M, r)
                    assert lattice_sizes[-1] > NODE_CAP, (M, r)
                    continue
                built += 1
                if floor_free(soe):
                    assert sup_error(soe, 20_000) <= epsilon, (M, r)
                else:
                    assert within_contract(soe, 20_000), (M, r)
                assert np.all(soe.nodes > 0) and np.all(np.diff(soe.nodes) > 0), (M, r)
                assert np.all(soe.weights > 0), (M, r)
                assert soe.n_exp <= min(lattice_sizes[-1], NODE_CAP), (M, r)
        # every input raises at gamma 1e-8, epsilon 1e-6
        assert built or (gamma, epsilon) == (1e-8, 1e-6)

    @pytest.mark.parametrize("name", sorted(WORKLOAD_SOES))
    def test_workload_soe_is_validated_once(self, monkeypatch, name):
        calls = []
        validate = soe_module._validate

        def counted(soe, *args):
            calls.append(soe.n_exp)
            return validate(soe, *args)

        monkeypatch.setattr(soe_module, "_validate", counted)
        build_soe(*WORKLOAD_SOES[name], 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("name,most", [("pk-n128", 63), ("pk-n2048-deep", 88)])
    def test_workload_soe_sizes(self, name, most):
        # lattices of 96 and 128 nodes
        soe = build_soe(*WORKLOAD_SOES[name], 1.0)
        assert soe.n_exp <= most
        assert sup_error(soe, 20_000) <= soe.epsilon


class TestRelativeTolerance:
    @pytest.mark.parametrize("name,most", [("pk-n128", 47), ("pk-n2048-deep", 53)])
    def test_run_soe_on_the_workload_grids(self, name, most):
        # the absolute SOEs on the same [tau_2, T] take 58 and 77 nodes
        gamma, epsilon, M, r = WORKLOAD_RUNS[name]
        soe = run_soe(gamma, epsilon, build_mesh(M, r, 1.0))
        assert soe.relative and soe.epsilon == epsilon
        assert soe.n_exp <= most
        assert sup_rel_error(soe, 20_000) <= epsilon

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.8, 0.95])
    def test_sweep(self, gamma, epsilon):
        for M in (2, 64, 4096, 2 ** 16):
            for r in (1, 2, 3):
                soe = build_soe(gamma, epsilon, (1.0 / M) ** r, 1.0, relative=True)
                assert soe.n_exp <= NODE_CAP, (M, r)
                assert sup_rel_error(soe, 20_000) <= epsilon, (M, r)
                assert np.all(soe.nodes > 0) and np.all(np.diff(soe.nodes) > 0), (M, r)
                assert np.all(soe.weights > 0), (M, r)

    @pytest.mark.parametrize("epsilon", [1e-9, 1e-15])
    @pytest.mark.parametrize("gamma", [0.97, 0.99])
    def test_gamma_near_one_on_a_deep_grid(self, gamma, epsilon):
        # r = 3, M = 2^16: tau_2 = 7 / 2^48; at 1e-15 the sum's rounding,
        # up to 4.8 ulp, is the binding error
        soe = run_soe(gamma, epsilon, build_mesh(2 ** 16, 3, 1.0))
        assert soe.n_exp <= NODE_CAP
        assert sup_rel_error(soe, 20_000) <= max(epsilon, FLOOR_ULPS * np.finfo(float).eps)

    def test_tolerance_below_the_rounding_is_named(self):
        with pytest.raises(SoeConstructionError, match=(
                r"^relative tolerance 1e-17 on \[0\.0001, 1\] at gamma=0\.5 "
                r"cannot be met")):
            build_soe(0.5, 1e-17, 1e-4, 1.0, relative=True)

    @pytest.mark.parametrize("epsilon", [1.0, 1.75])
    def test_a_relative_tolerance_of_one_or_more_is_refused(self, epsilon):
        # the sum 0 meets a relative tolerance of 1 or more
        with pytest.raises(ValueError,
                           match=rf"^a relative epsilon must be < 1, got {epsilon}$"):
            build_soe(0.5, epsilon, 1e-4, 1.0, relative=True)
        with pytest.raises(ValueError, match="relative epsilon"):
            run_fids(make_case("example2", 1.9, 0.5).spec, 64, 2, 32,
                     epsilon=epsilon)
        # an absolute tolerance is not bounded by the kernel
        assert build_soe(0.5, epsilon, 1e-4, 1.0).n_exp >= 1

    def test_cap_failure_names_the_relative_tolerance(self):
        with pytest.raises(SoeConstructionError, match=(
                r"^relative tolerance 1e-15 on \[5\.42101e-20, 1\] at gamma=0\.97 "
                r"needs \d+ exponentials, cap is 256$")):
            build_soe(0.97, 1e-15, (1.0 / 2 ** 16) ** 4, 1.0, relative=True)

    def test_the_absolute_default_is_unchanged(self):
        soe = build_soe(*WORKLOAD_SOES["pk-n2048-deep"], 1.0)
        assert not soe.relative
        assert soe.tolerance(soe.delta) == soe.tolerance(soe.T) == soe.epsilon


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

    # before the checks: epsilon = nan failed converting NaN to an integer,
    # epsilon = inf overflowed and T = inf raised a math domain error
    @pytest.mark.parametrize("args,match", [
        ((0.5, math.nan, 0.01, 1.0), "epsilon must be finite and > 0, got nan"),
        ((0.5, math.inf, 0.01, 1.0), "epsilon must be finite and > 0, got inf"),
        ((0.5, 0.0, 0.01, 1.0), "epsilon must be finite and > 0, got 0.0"),
        ((0.5, 1e-10, 0.01, math.inf), "final time T must be finite, got inf"),
        ((0.5, 1e-10, 0.01, math.nan), "final time T must be finite, got nan")],
        ids=["epsilon-nan", "epsilon-inf", "epsilon-0", "T-inf", "T-nan"])
    def test_non_finite_epsilon_or_t_is_named(self, args, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            build_soe(*args)

    @pytest.mark.parametrize("epsilon", [100.0, 200.0])
    def test_an_absolute_tolerance_the_sum_zero_meets_is_refused(self, epsilon):
        # t^{-1/2} is at most 1e-4^{-1/2} = 100 on [1e-4, 1]
        with pytest.raises(ValueError, match=(
                rf"^an absolute epsilon must be < delta\^-gamma = 100, got "
                rf"epsilon={epsilon} at delta=0\.0001, gamma=0\.5$")):
            build_soe(0.5, epsilon, 1e-4, 1.0)
        assert build_soe(0.5, 99.0, 1e-4, 1.0).n_exp >= 1

    def test_cap_failure_names_gamma(self):
        # gamma near 1 with grading r = 4 at M = 2^16: a 418-node lattice,
        # 338 nodes after the reduction, 323 of them above the reduced block
        with pytest.raises(SoeConstructionError,
                           match=r"at gamma=0\.97 needs \d+ exponentials, cap is 256"):
            build_soe(0.97, 1e-10, (1.0 / 2 ** 16) ** 4, 1.0)

    def test_a_reduced_set_under_the_cap_earns_a_finer_lattice(self):
        # M = 2^16, r = 3: the first 273-node lattice is over the cap and its
        # 213-node reduction fails the validation; the next step's 248 pass
        soe = build_soe(0.99, 1e-9, (1.0 / 2 ** 16) ** 3, 1.0)
        assert soe.n_exp <= NODE_CAP
        assert within_contract(soe, 20_000)

    def test_reduction_brings_the_cap_edge_under_the_cap(self):
        # r = 3, M = 2^16: the 286-node lattice was over the cap
        soe = build_soe(0.97, 1e-10, (1.0 / 2 ** 16) ** 3, 1.0)
        assert soe.n_exp <= NODE_CAP
        assert within_contract(soe, 20_000)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-10])
    def test_small_gamma_builds(self, gamma):
        # the lattice's tail sums used to cancel in 1 - exp(-gamma h), and
        # validation failed at these gamma
        soe = build_soe(gamma, 1e-10, (1.0 / 16) ** 3, 1.0)
        assert sup_error(soe) <= 1e-10

    def test_unterminated_tail_names_its_inputs(self):
        with pytest.raises(SoeConstructionError, match=(
                r"right tail of the lattice does not terminate: tolerance 1e-10 "
                r"on \[0\.000244141, 1\] at gamma=1e-12")):
            build_soe(1e-12, 1e-10, (1.0 / 16) ** 3, 1.0)

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
        soe = build_soe(0.5, 1e-10, mesh_arrays(mesh)[1][0], 1.0)
        b = fast_coefficients(soe, mesh, 1)
        a = l1_row(mesh, 0.5, 1)
        assert b.shape == (1,)
        assert b[0] == a[0]

    def test_matches_l1_weights_uniform(self):
        # b is an SOE quadrature of the same kernel integral as a, so they
        # agree to a small multiple of the compression tolerance
        mesh = build_mesh(8, 1, 1.0)
        soe = build_soe(0.5, 1e-12, mesh_arrays(mesh)[1][0], 1.0)
        b = fast_coefficients(soe, mesh, 8)
        a = l1_row(mesh, 0.5, 8)
        assert np.max(np.abs(b - a)) <= 1e-9

    def test_monotone_increasing(self):
        mesh = build_mesh(12, 3, 1.0)
        soe = build_soe(0.7, 1e-11, mesh_arrays(mesh)[1][0], 1.0)
        b = fast_coefficients(soe, mesh, 12)
        assert np.all(np.diff(b) > 0)

    def test_level_out_of_range(self):
        mesh = build_mesh(4, 1, 1.0)
        soe = build_soe(0.5, 1e-8, mesh_arrays(mesh)[1][0], 1.0)
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
        _, steps = mesh_arrays(mesh)
        soe = build_soe(0.6, 1e-12, steps[0], 1.0)
        n = 3
        u = rng.standard_normal((6, n))
        h = FastHistory.fresh(soe, n)
        for m in range(2, 6):
            history_push(h, u[m - 1] - u[m - 2], steps[m - 2])
            b = fast_coefficients(soe, mesh, m)
            direct = sum(b[k - 1] * (u[k] - u[k - 1]) for k in range(1, m))
            fast = (soe.weights * np.exp(-soe.nodes * steps[m - 1])) @ h.W
            assert np.max(np.abs(fast - direct)) <= 1e-12 * max(np.max(np.abs(direct)), 1.0)

    def test_dimension_mismatch(self):
        h = FastHistory.fresh(_single_exponential(), 3)
        with pytest.raises(ValueError):
            history_push(h, np.zeros(2), 0.5)

    # a 0-d value used to raise IndexError, an (n, 3) matrix a bare dger
    # error, and an (n, 1) column was accepted
    @pytest.mark.parametrize("shape", [(), (3, 3), (3, 1)])
    def test_increment_that_is_not_one_value_per_column_is_rejected(self, shape):
        h = FastHistory.fresh(_single_exponential(), 3)
        with pytest.raises(ValueError, match=rf"shape \(3,\), .* got shape {re.escape(str(shape))}"):
            history_push(h, np.ones(shape), 0.5)
        assert not h.W.any()

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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("step", ["push", "sum"])
    def test_step_that_is_not_finite_and_positive_is_rejected(self, step, tau):
        h = FastHistory.fresh(_single_exponential(), 3)
        with pytest.raises(ValueError, match=f"tau_m must be finite and > 0, got {tau}"):
            if step == "push":
                history_push(h, np.ones(3), tau)
            else:
                history_sum(h, tau)
        assert not h.W.any()

    def test_history_without_an_accumulator_cannot_be_built(self):
        with pytest.raises(TypeError):
            FastHistory(_single_exponential())

    def test_accumulator_that_is_not_c_contiguous_is_rejected(self):
        h = FastHistory(soe=_single_exponential(), W=np.zeros((1, 6))[:, ::2])
        with pytest.raises(ValueError, match="C-contiguous float64"):
            history_push(h, np.ones(3), 0.5)


def fast_caputo(h, u_prev, u, tau, gamma):
    """(a_m (u - u_prev) + S_m) / Gamma(1-gamma), the fast Caputo of u at a
    level of step tau, with a_m = tau^{-gamma} / (1-gamma) and S_m from
    ``history_sum``."""
    a_m = tau ** -gamma / (1.0 - gamma)
    return (a_m * (u - u_prev) + history_sum(h, tau)) / math.exp(gammaln(1.0 - gamma))


class TestFastCaputoRhs:
    def test_first_level_reduces_to_l1(self):
        soe = build_soe(0.5, 1e-10, 1e-2, 1.0)
        h = FastHistory.fresh(soe, 2)
        u0 = np.array([1.0, 2.0])
        u1 = np.array([0.5, -1.0])
        tau = 0.3
        a11 = tau ** -0.5 / 0.5
        g = math.exp(gammaln(0.5))
        # W^0 = 0, so the fast Caputo of u1 is (a11/Gamma)(u1 - u0)
        assert not history_sum(h, tau).any()
        np.testing.assert_allclose(fast_caputo(h, u0, u1, tau, 0.5),
                                   a11 / g * (u1 - u0), rtol=1e-14)

    def test_constant_solution_caputo_below_epsilon(self):
        eps = 1e-10
        mesh = build_mesh(16, 2, 1.0)
        _, steps = mesh_arrays(mesh)
        soe = build_soe(0.5, eps, steps[0], 1.0)
        c = 4.0
        u = np.full(3, c)
        h = FastHistory.fresh(soe, 3)
        for m in range(1, 17):
            tau = steps[m - 1]
            caputo = fast_caputo(h, u, u, tau, 0.5)
            assert np.max(np.abs(caputo)) <= 10 * eps * c
            history_push(h, np.zeros(3), tau)

    def test_fids_matches_dids_caputo_on_t_pow_gamma(self):
        # u(t) = t^gamma + 1 sampled on the graded mesh; the SOE path agrees
        # with the direct L1 path to a small multiple of epsilon
        gamma, eps, M = 0.5, 1e-10, 64
        mesh = build_mesh(M, 2, 1.0)
        t, steps = mesh_arrays(mesh)
        soe = build_soe(gamma, eps, steps[0], 1.0)
        u = (t ** gamma + 1.0)[:, None]
        h = FastHistory.fresh(soe, 1)
        worst = 0.0
        for m in range(1, M + 1):
            tau = steps[m - 1]
            fast = fast_caputo(h, u[m - 1], u[m], tau, gamma)
            w = l1_row(mesh, gamma, m)
            direct = caputo_l1_apply(u[:m], u[m], w, gamma)
            worst = max(worst, abs(float(fast[0] - direct[0])))
            history_push(h, u[m] - u[m - 1], tau)
        assert worst <= 100 * eps
