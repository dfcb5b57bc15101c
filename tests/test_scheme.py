import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsfrac.krylov
import tsfrac.scheme
import tsfrac.toeplitz
from oracles import (dids_all_at_once, dominance_gap_dense, l1_row,
                     level_solve_unscaled, mesh_arrays, stability_probe)
from tsfrac.couplings import m_from_n, n_from_m
from tsfrac.ifl import build_ifl
from tsfrac.mesh import LEVEL_BLOCK, build_mesh, gamma_factor, level_shift
from tsfrac.problems import make_case
from tsfrac.krylov import solve_dense
from tsfrac.scheme import (
    DIRECT_THRESHOLD,
    EIGEN_MIN_LEVELS,
    EIGEN_MIN_ORDER,
    HISTORY_BLOCK,
    WEIGHT_PANEL,
    ProblemSpec,
    SolverOptions,
    _DirectLevels,
    _KrylovLevels,
    _L1Sum,
    _SoeRecurrence,
    run_dids,
    run_fids,
    run_soe,
    select_solver,
    soe_interval,
)
from tsfrac.spectrum import dense_system

# Gamma(1 - 0.5), for the level shifts of the gamma = 0.5 tests
G_HALF = gamma_factor(0.5)


def zero_problem(gamma=0.5, alpha=1.5):
    return ProblemSpec(gamma=gamma, alpha=alpha, l=1.0, T=1.0,
                       kappa=lambda x, t: np.ones_like(x),
                       source=lambda x, t: np.zeros_like(x),
                       initial=lambda x: np.zeros_like(x))


class TestSchemeBasics:
    def test_zero_data_gives_zero_solution(self):
        spec = zero_problem()
        hist, _ = run_dids(spec, 8, 2, 16)
        np.testing.assert_array_equal(hist, 0.0)
        hist, _ = run_fids(spec, 8, 2, 16, epsilon=1e-10)
        np.testing.assert_array_equal(hist, 0.0)

    def test_memory_lean_fids_returns_final_level(self):
        case = make_case("example1", 1.5, 0.5)
        soe = run_soe(0.5, 1e-10, build_mesh(16, 2, 1.0))
        hist, _ = run_fids(case.spec, 16, 2, 16)
        final, rep = run_fids(case.spec, 16, 2, 16, keep_history=False)
        np.testing.assert_allclose(final, hist[-1], rtol=1e-14)
        assert rep.history_memory_values == soe.n_exp * 15

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("M", [2, 3, 64])
    def test_fids_builds_its_soe_on_tau_2(self, monkeypatch, M, r):
        # the history term evaluates the kernel at no argument below tau_2
        built = []
        build = tsfrac.scheme.build_soe
        monkeypatch.setattr(tsfrac.scheme, "build_soe",
                            lambda *args, **kwargs: built.append((args, kwargs))
                            or build(*args, **kwargs))
        run_fids(make_case("example1", 1.5, 0.5).spec, M, r, 16,
                 keep_history=False)
        _, tau = mesh_arrays(build_mesh(M, r, 1.0))
        [((gamma, epsilon, delta, T), kwargs)] = built
        assert (gamma, epsilon, T) == (0.5, 1e-10, 1.0)
        assert kwargs == {"relative": True}
        assert delta == tau[1:].min() == tau[1]
        assert delta == pytest.approx((2 ** r - 1) * (1.0 / M) ** r, rel=1e-12)

    @pytest.mark.parametrize("r", [1, 1.5, 2, 3])
    def test_soe_interval_is_the_least_later_step_bit_for_bit(self, r):
        # as evaluated, a uniform mesh's steps differ in the last bits: tau_2
        # is not the least of tau_2..tau_M at 4985 of the 4998 M in [2, 5000)
        Ms = (range(2, 5000) if r == 1
              else [2, 3, LEVEL_BLOCK, LEVEL_BLOCK + 1, LEVEL_BLOCK + 2, 1000, 3326])
        not_tau_2 = 0
        for M in Ms:
            tau = np.diff((np.arange(M + 1, dtype=float) / M) ** r * 2.0)
            delta, T = soe_interval(build_mesh(M, r, 2.0))
            assert (delta, T) == (tau[1:].min(), 2.0)
            not_tau_2 += delta != tau[1]
        if r == 1:
            assert not_tau_2 == 4985
        # with its mesh, it holds a few arrays of one block at a time
        tracemalloc.start()
        try:
            soe_interval(build_mesh(2 ** 16, r, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * (LEVEL_BLOCK + 1)

    def test_soe_interval_of_a_one_step_mesh_names_m(self):
        with pytest.raises(ValueError, match=r"\[tau_2, T\] needs M >= 2, got M = 1$"):
            soe_interval(build_mesh(1, 2, 1.0))

    def test_each_level_takes_its_time_and_step_from_one_evaluation(self, monkeypatch):
        # three blocks of levels: the time goes to the problem data, the
        # step to the shift and to the history, each equal to the mesh's
        M, r = 2 * LEVEL_BLOCK + 5, 2.5
        t, tau = mesh_arrays(build_mesh(M, r, 1.0))
        times, shifts, pushes = [], [], []
        shift_of, push = tsfrac.scheme.level_shift, tsfrac.scheme.history_push

        def recorded_shift(gamma, tau_m, g1mg):
            shifts.append(tau_m)
            return shift_of(gamma, tau_m, g1mg)

        monkeypatch.setattr(tsfrac.scheme, "level_shift", recorded_shift)
        monkeypatch.setattr(tsfrac.scheme, "history_push",
                            lambda h, du, tau_m: pushes.append(tau_m) or push(h, du, tau_m))
        spec = make_case("example1", 1.5, 0.5).spec
        kappa = spec.kappa
        spec = dataclasses.replace(
            spec, kappa=lambda x, tm: times.extend(tm[:, 0]) or kappa(x, tm))
        run_fids(spec, M, r, 16, options=SolverOptions(solver="direct"),
                 keep_history=False)
        assert times == t[1:].tolist()
        assert shifts == tau.tolist()
        assert pushes == tau[:M - 1].tolist()

    def test_fids_pushes_every_level_but_the_last(self, monkeypatch):
        # no level reads the accumulators after level M
        steps = []
        push = tsfrac.scheme.history_push
        monkeypatch.setattr(tsfrac.scheme, "history_push",
                            lambda h, du, tau: steps.append(tau) or push(h, du, tau))
        M = 16
        run_fids(make_case("example1", 1.5, 0.5).spec, M, 2, 16)
        assert steps == list(mesh_arrays(build_mesh(M, 2, 1.0))[1][:M - 1])

    def test_kappa_positivity_enforced(self):
        spec = ProblemSpec(gamma=0.5, alpha=1.5, l=1.0, T=1.0,
                           kappa=lambda x, t: np.where(x > 0, 1.0, -1.0),
                           source=lambda x, t: np.zeros_like(x),
                           initial=lambda x: np.zeros_like(x))
        with pytest.raises(ValueError, match="kappa"):
            run_dids(spec, 4, 1, 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_non_positive_or_non_finite_kappa_names_the_level(self, bad):
        # NaN slips through a plain "k <= 0" test
        spec = ProblemSpec(gamma=0.5, alpha=1.5, l=1.0, T=1.0,
                           kappa=lambda x, t: np.where(t > 0.5, bad, 1.0) + 0 * x,
                           source=lambda x, t: np.zeros_like(x),
                           initial=lambda x: np.zeros_like(x))
        for run in (run_dids, run_fids):
            with pytest.raises(ValueError, match=rf"m=3, t=0\.5625.*= {bad}"):
                run(spec, 4, 2, 8)

    def test_nan_exact_solution_names_the_level_and_the_point(self):
        # a NaN reference would turn the error norms into NaN: it fails
        spec = ProblemSpec(gamma=0.5, alpha=1.5, l=1.0, T=1.0,
                           kappa=lambda x, t: np.ones_like(x),
                           source=lambda x, t: np.zeros_like(x),
                           initial=lambda x: np.zeros_like(x),
                           exact=lambda x, t: np.where((t > 0.5) & (x > 0.2),
                                                       np.nan, 0.0))
        for run in (run_dids, run_fids):
            with pytest.raises(ValueError, match=(
                    r"^exact must be finite on the grid: at level m=3, "
                    r"t=0\.5625, exact\(x=0\.25\) = nan$")):
                run(spec, 4, 2, 8)

    @pytest.mark.parametrize("shape", ["column", "first value"])
    def test_exact_solution_of_another_shape_names_the_level(self, shape):
        # broadcast against u, a (b, 1, n) or a (b,) exact solution would
        # give a wrong error with no message
        spec = make_case("example1", 1.5, 0.5).spec
        exact = spec.exact
        cut = (lambda x, t: exact(x, t)[:, None]) if shape == "column" else (
            lambda x, t: exact(x, t)[:, 0])
        spec = dataclasses.replace(spec, exact=cut)
        for run in (run_dids, run_fids):
            with pytest.raises(ValueError, match=(
                    r"^exact must return shape \(1, 15\) \(levels x grid points\) "
                    r"or one broadcast to it, \(\), \(15,\) or \(1, 1\): at level "
                    r"m=0, t=0\.0, it returned shape \((1, 1, 15|1,)\)$")):
                run(spec, 8, 2, 16)

    def test_parameters_after_n_are_keyword_only(self):
        # a fifth positional argument would mean mu to run_dids but epsilon
        # to run_fids
        spec = make_case("example2", 1.9, 0.5).spec
        for run in (run_dids, run_fids):
            with pytest.raises(TypeError, match="4 positional arguments but 5"):
                run(spec, 64, 2, 32, 1.75)

    def test_source_array_is_not_modified(self):
        shared = np.ones(7)
        spec = ProblemSpec(gamma=0.5, alpha=1.5, l=1.0, T=1.0,
                           kappa=lambda x, t: np.ones_like(x),
                           source=lambda x, t: shared,
                           initial=lambda x: np.ones_like(x))
        for run in (run_dids, run_fids):
            run(spec, 4, 2, 8)
            np.testing.assert_array_equal(shared, 1.0)

    def test_select_solver(self):
        assert select_solver(64) == "direct"
        assert select_solver(DIRECT_THRESHOLD + 1) == "direct"
        assert select_solver(DIRECT_THRESHOLD + 2) == "pkrylov"
        assert select_solver(512) == "pkrylov"
        assert select_solver(512, SolverOptions(solver="krylov")) == "krylov"
        assert select_solver(16, SolverOptions(solver="pkrylov")) == "pkrylov"

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, math.nan, math.inf])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # a tol of 0, NaN or below is never met: BiCGSTAB runs to a breakdown
        with pytest.raises(ValueError, match=f"tol must be finite and lie in "
                                             rf"\(0, 1\), got {tol}"):
            SolverOptions(solver="pkrylov", tol=tol)

    def test_krylov_failure_names_the_level(self, monkeypatch):
        import tsfrac.scheme
        from tsfrac.krylov import KrylovReport

        def unconverged(apply, precond, rhs, tol):
            return np.zeros(rhs.size), KrylovReport(17, 3.5e-4, False, "rho vanished")

        monkeypatch.setattr(tsfrac.scheme, "solve_bicgstab", unconverged)
        case = make_case("example1", 1.5, 0.5)
        with pytest.raises(RuntimeError, match=(
                r"BiCGSTAB \(pkrylov\) did not converge at level m=1, "
                r"t_m=0\.00390625: 17 iterations, final relative residual "
                r"3\.500e-04 \(tol 1e-10\), breakdown: rho vanished")):
            run_fids(case.spec, 16, 2, 16, options=SolverOptions(solver="pkrylov"))

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="auto, direct, krylov, pkrylov.*'pkrylv'"):
            SolverOptions(solver="pkrylv")


def nan_after_half(f):
    """f, with NaN from t > 1/2 on: level m=12 (t=0.5625) at M=16, r=2."""
    return lambda x, t: f(x, t) + np.where(t > 0.5, np.nan, 0.0)


class TestInputChecks:
    @pytest.mark.parametrize("run,N,solver", [(run_dids, 32, "direct"),
                                              (run_fids, 512, "pkrylov")])
    def test_non_finite_source_names_the_level(self, run, N, solver):
        # before the check: err_inf = nan on the direct path, and 10 n
        # BiCGSTAB iterations on the pkrylov path
        spec = make_case("example2", 1.5, 0.5).spec
        spec = dataclasses.replace(spec, source=nan_after_half(spec.source))
        assert select_solver(N) == solver
        with pytest.raises(ValueError, match=r"source must be finite on the grid: "
                                             r"at level m=12, t=0\.5625, "
                                             r"source\(x=.*\) = nan"):
            run(spec, 16, 2, N)

    def test_non_finite_initial_value_names_the_point(self):
        spec = make_case("example1", 1.5, 0.5).spec
        initial = spec.initial
        spec = dataclasses.replace(
            spec, initial=lambda x: np.where(x > 0.5, np.inf, initial(x)))
        for run in (run_dids, run_fids):
            with pytest.raises(ValueError, match=r"initial must be finite on the "
                                                 r"grid: at level m=0, t=0\.0, "
                                                 r"initial\(x=0\.625\) = inf"):
                run(spec, 4, 2, 16)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    def test_scalar_data_is_broadcast_to_the_grid(self, run):
        # before the evaluator: a scalar source failed in the in-place history
        # add under both schemes, and a scalar initial value under FIDS
        arrays = ProblemSpec(gamma=0.5, alpha=1.5, l=1.0, T=1.0,
                             kappa=lambda x, t: np.full_like(x, 2.0),
                             source=lambda x, t: (1.0 + t) * np.ones_like(x),
                             initial=lambda x: np.full_like(x, 0.5),
                             exact=lambda x, t: np.zeros_like(x))
        scalars = dataclasses.replace(arrays, kappa=lambda x, t: 2.0,
                                      source=lambda x, t: 1.0 + t,
                                      initial=lambda x: 0.5)
        ref, ref_report = run(arrays, 8, 2, 16)
        hist, report = run(scalars, 8, 2, 16)
        np.testing.assert_array_equal(hist, ref)
        assert (report.err_inf, report.err_2) == (ref_report.err_inf,
                                                  ref_report.err_2)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("name,level", [("kappa", r"m=1, t=0\.015625"),
                                            ("source", r"m=1, t=0\.015625"),
                                            ("initial", r"m=0, t=0\.0")])
    def test_a_wrong_shape_names_the_callable(self, run, name, level):
        # before the evaluator: numpy's broadcast error, naming nothing
        spec = dataclasses.replace(zero_problem(), **{name: lambda *args: np.ones(3)})
        # a block of levels (DIDS) is evaluated again level by level, so
        # both schemes name level 1 and its own shape
        with pytest.raises(ValueError, match=(
                rf"^{name} must return shape \(1, 15\) \(levels x grid points\) "
                rf"or one broadcast to it, \(\), \(15,\) or \(1, 1\): at level "
                rf"{level}, it returned shape \(3,\)$")):
            run(spec, 8, 2, 16)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("name,bad,what", [
        ("source", np.nan, "finite"), ("kappa", 0.0, "positive and finite"),
        ("kappa", -1.0, "positive and finite")])
    def test_a_bad_value_inside_a_block_names_its_level_and_point(self, run, name,
                                                                  bad, what):
        # level 45 of 64 lies inside DIDS's block of levels 33..64, evaluated
        # in one call; x = 0.25 is the first grid point above 0.2 at N = 16
        spec = make_case("example1", 1.5, 0.5).spec
        f, rows = getattr(spec, name), []
        t45 = build_mesh(64, 2, 1.0).times(45)

        def planted(x, t):
            rows.append(t.shape)
            return np.where((t == t45) & (x > 0.2), bad, f(x, t))

        spec = dataclasses.replace(spec, **{name: planted})
        with pytest.raises(ValueError, match=(
                rf"^{name} must be {what} on the grid: at level m=45, "
                rf"t=0\.494384765625, {name}\(x=0\.25\) = {bad}$")):
            run(spec, 64, 2, 16)
        assert rows == ([(HISTORY_BLOCK, 1)] * 2 if run is run_dids else [(1, 1)] * 45)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    def test_a_misshapen_value_inside_a_block_names_its_level(self, run):
        # the block of levels 33..64 is evaluated again one level at a time,
        # up to the first level whose own value has the wrong shape
        spec = make_case("example1", 1.5, 0.5).spec
        source, rows = spec.source, []
        t45 = build_mesh(64, 2, 1.0).times(45)

        def planted(x, t):
            rows.append(t.shape[0])
            return np.ones(3) if np.any(t == t45) else source(x, t)

        spec = dataclasses.replace(spec, source=planted)
        with pytest.raises(ValueError, match=(
                r"^source must return shape \(1, 15\) \(levels x grid points\) or "
                r"one broadcast to it, \(\), \(15,\) or \(1, 1\): at level m=45, "
                r"t=0\.494384765625, it returned shape \(3,\)$")):
            run(spec, 64, 2, 16)
        assert rows == ([HISTORY_BLOCK] * 2 + [1] * 13 if run is run_dids else [1] * 45)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("name", ["initial", "kappa", "source", "exact"])
    def test_complex_data_names_the_callable_and_level(self, run, name):
        # a cast to float dropped the imaginary part of a complex array, and
        # a complex scalar's raised numpy's bare TypeError; level 45 lies
        # inside DIDS's block of levels 33..64
        spec = make_case("example1", 1.5, 0.5).spec
        f = getattr(spec, name)
        t45 = build_mesh(64, 2, 1.0).times(45)
        if name == "initial":
            level, t = 0, r"0\.0"

            def planted(x):
                return 1.0 + 0.5j
        else:
            level, t = 45, r"0\.494384765625"

            def planted(x, t):
                v = f(x, t)
                return v * (1.0 + 0.5j) if np.any(t == t45) else v

        spec = dataclasses.replace(spec, **{name: planted})
        with pytest.raises(ValueError, match=(
                rf"^{name} must be real on the grid: at level m={level}, t={t}, "
                rf"it returned complex128 values$")):
            run(spec, 64, 2, 16)

    def test_a_zero_imaginary_part_is_still_complex(self):
        spec = dataclasses.replace(make_case("example1", 1.5, 0.5).spec,
                                   source=lambda x, t: np.zeros((t.shape[0], x.size),
                                                                dtype=complex))
        with pytest.raises(ValueError, match=r"^source must be real on the grid: "
                                             r"at level m=1, "):
            run_dids(spec, 8, 2, 16)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    def test_direct_cap_fails_before_allocating(self, run):
        calls = []
        spec = make_case("example1", 1.5, 0.5).spec
        source = spec.source
        spec = dataclasses.replace(
            spec, source=lambda x, t: calls.append(t) or source(x, t))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    r"the direct solver is capped at N-1 = 2048, got N-1 = 2049: "
                    r"its 2049x2049 matrix would take 33587208 bytes")):
                run(spec, 4, 2, 2050, options=SolverOptions(solver="direct"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix alone would take 33.6 MB; the SOE build is most of the rest
        assert peak < 2e6
        assert calls == []

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    def test_history_cap_fails_before_allocating(self, run):
        calls = []
        spec = make_case("example1", 1.5, 0.5).spec
        source = spec.source
        spec = dataclasses.replace(
            spec, source=lambda x, t: calls.append(t) or source(x, t))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    r"the full history is capped at 67108864 values, got "
                    r"M = 65536, N = 2049: its 65537x2048 array would take "
                    r"1073758208 bytes")):
                run(spec, 2 ** 16, 2, 2049)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the history alone would take 1.07 GB
        assert peak < 1e5
        assert calls == []

    def test_history_cap_spares_the_lean_fids_run(self, monkeypatch):
        # (4+1) x (8-1) = 35 values: above a cap of 34, which only the full
        # histories meet
        monkeypatch.setattr(tsfrac.scheme, "HISTORY_CAP", 34)
        spec = make_case("example1", 1.5, 0.5).spec
        for run in (run_dids, run_fids):
            with pytest.raises(ValueError, match="got M = 4, N = 8: its 5x7 array"):
                run(spec, 4, 2, 8)
        u, _ = run_fids(spec, 4, 2, 8, keep_history=False)
        assert u.shape == (7,)
        monkeypatch.setattr(tsfrac.scheme, "HISTORY_CAP", 35)
        assert run_dids(spec, 4, 2, 8)[0].shape == (5, 7)

    @pytest.mark.parametrize("gamma", [0.0, -0.3, 1.0, 1.5])
    def test_gamma_outside_the_unit_interval_fails_by_name(self, gamma):
        with pytest.raises(ValueError, match=rf"gamma must lie in \(0, 1\), got {gamma}"):
            gamma_factor(gamma)
        with pytest.raises(ValueError, match=rf"gamma must lie in \(0, 1\), got {gamma}"):
            n_from_m(16, 2.0, gamma, 2.0)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("alpha", [1e-310, 5e-324])
    def test_subnormal_alpha_fails(self, run, alpha):
        # before the check: a NaN history and err_inf = nan, with no warning
        spec = make_case("example1", alpha, 0.5).spec
        with pytest.raises(ValueError, match=rf"alpha = {alpha!r} is too small "
                                             rf"for N = 9: the diagonal of A is"):
            run(spec, 8, 2, 9)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    def test_smallest_normal_alphas_run(self, run):
        _, report = run(make_case("example1", 1e-300, 0.5).spec, 8, 2, 9)
        assert math.isfinite(report.err_inf)

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("gamma", [1.5, math.nan, 0.0])
    def test_gamma_is_checked_before_anything_is_built(self, monkeypatch, run,
                                                       gamma):
        calls = []
        monkeypatch.setattr(tsfrac.scheme, "build_ifl",
                            lambda *args: calls.append("build_ifl"))
        spec = dataclasses.replace(
            make_case("example1", 1.5, 0.5).spec, gamma=gamma,
            kappa=lambda x, t: calls.append("kappa") or np.ones_like(x))
        with pytest.raises(ValueError,
                           match=rf"gamma must lie in \(0, 1\), got {gamma}"):
            run(spec, 4, 2, 8)
        assert calls == []

    @pytest.mark.parametrize("M", [1, 0])
    def test_fids_without_an_soe_interval_names_m(self, monkeypatch, M):
        built, calls = [], []
        monkeypatch.setattr(tsfrac.scheme, "build_mesh",
                            lambda *args: built.append(args))
        spec = make_case("example1", 1.5, 0.5).spec
        source = spec.source
        spec = dataclasses.replace(
            spec, source=lambda x, t: calls.append(t) or source(x, t))
        with pytest.raises(ValueError, match=(
                rf"FIDS needs M >= 2, got M = {M}: the SOE interval "
                r"\[tau_2, T\] is empty")):
            run_fids(spec, M, 2, 16)
        assert built == [] and calls == []

    @pytest.mark.parametrize("solver", ["krylov", "pkrylov"])
    def test_true_kappa_x_independent_claim_runs_cg(self, methods, solver):
        # no flag: a kappa constant on the grid is observed at every level
        spec = cos_problem(lambda x, t: (1.0 + t) + 0.0 * x)
        ref, _ = run_fids(spec, 16, 2, 64, options=SolverOptions(solver="direct"))
        hist, _ = run_fids(spec, 16, 2, 64, options=SolverOptions(solver=solver))
        assert methods == ["solve_cg"] * 16
        assert np.max(np.abs(hist - ref)) <= 1e-8 * np.abs(ref).max()


@pytest.fixture
def methods(monkeypatch):
    """The Krylov solvers tsfrac.scheme calls, in order, by function name."""
    calls = []
    for name in ("solve_cg", "solve_bicgstab"):
        def traced(*args, _name=name, _solve=getattr(tsfrac.scheme, name), **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(tsfrac.scheme, name, traced)
    return calls


def cos_problem(kappa):
    return ProblemSpec(gamma=0.5, alpha=1.5, l=1.0, T=1.0, kappa=kappa,
                       source=lambda x, t: np.cos(x) * (1.0 + t),
                       initial=lambda x: 1.0 - x * x)


class TestKrylovMethod:
    """A Krylov level runs CG when kappa is constant on the grid, else BiCGSTAB."""

    @pytest.mark.parametrize("solver", ["krylov", "pkrylov"])
    def test_x_dependent_kappa_runs_bicgstab(self, methods, solver):
        run_fids(make_case("example2", 1.5, 0.5).spec, 16, 2, 32,
                 options=SolverOptions(solver=solver))
        assert methods == ["solve_bicgstab"] * 16

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("solver", ["krylov", "pkrylov"])
    def test_switches_at_the_first_level_where_kappa_varies(self, methods, run,
                                                            solver):
        # t_m = (m/16)^2 first exceeds 1/2 at m = 12
        spec = cos_problem(lambda x, t: (1.0 + t) + np.where(t > 0.5, 0.5 * x, 0.0 * x))
        ref, _ = run(spec, 16, 2, 64, options=SolverOptions(solver="direct"))
        hist, _ = run(spec, 16, 2, 64, options=SolverOptions(solver=solver))
        assert methods == ["solve_cg"] * 11 + ["solve_bicgstab"] * 5
        assert np.max(np.abs(hist - ref)) <= 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("spread,method", [(1e-13, "solve_cg"),
                                               (1e-11, "solve_bicgstab")])
    def test_constant_means_a_relative_spread_of_at_most_1e_12(self, methods,
                                                                spread, method):
        spec = cos_problem(lambda x, t: 2.0 * (1.0 + 0.5 * spread * x))
        run_fids(spec, 4, 2, 16, options=SolverOptions(solver="krylov"))
        assert methods == [method] * 4

    def test_failure_names_the_method_that_ran(self, monkeypatch):
        from tsfrac.krylov import KrylovReport

        def unconverged(apply, precond, rhs, tol):
            return np.zeros(rhs.size), KrylovReport(9, 2e-3, False)

        monkeypatch.setattr(tsfrac.scheme, "solve_cg", unconverged)
        with pytest.raises(RuntimeError, match=r"^CG \(krylov\) did not converge "
                                               r"at level m=1, .*breakdown: none"):
            run_fids(cos_problem(lambda x, t: 1.0 + 0.0 * x), 4, 2, 16,
                     options=SolverOptions(solver="krylov"))


class TestKrylovLevel:
    """One Krylov level against the direct solve, on both kernel sides."""

    @pytest.mark.parametrize("N", [128, 442])  # n = 127 dense, 441 real FFT
    @pytest.mark.parametrize("solver", ["krylov", "pkrylov"])
    @pytest.mark.parametrize("kappa,method", [
        (lambda x: np.full(x.size, 1.3), "solve_cg"),
        (lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2, "solve_bicgstab")])
    def test_matches_the_direct_solve(self, monkeypatch, methods, N, solver,
                                      kappa, method):
        disc = build_ifl(1.9, 1.95, 1.0, N)
        x = disc.interior_points()
        mesh = build_mesh(64, 2, 1.0)
        t, tau = mesh_arrays(mesh)
        matvecs = []
        toeplitz_matvec = tsfrac.toeplitz.toeplitz_matvec

        def counted(*args):
            matvecs.append(1)
            return toeplitz_matvec(*args)

        # the level operator goes through the module attribute on every apply
        monkeypatch.setattr(tsfrac.toeplitz, "toeplitz_matvec", counted)
        direct = _DirectLevels(disc, mesh.M)
        krylov = _KrylovLevels(disc, solver, SolverOptions().tol)
        k, rhs = kappa(x), np.cos(x) + x
        for m in (1, 64):
            shift = level_shift(0.5, tau[m - 1], G_HALF)
            ref, _ = direct.solve(shift, k, rhs, m, t[m])
            del matvecs[:]
            u, its = krylov.solve(shift, k, rhs, m, t[m])
            assert its <= len(matvecs) <= 2 * its
            assert np.max(np.abs(u - ref)) <= 1e-8 * np.abs(ref).max()
        assert methods == [method] * 2


@pytest.fixture
def seam_calls(monkeypatch):
    """Calls through tsfrac.scheme's solver names, counted by name."""
    calls = collections.Counter()
    for name in ("solve_dense", "eigh", "solve_cg", "solve_bicgstab",
                 "build_preconditioner", "build_toeplitz"):
        def counted(*args, _name=name, _call=getattr(tsfrac.scheme, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(tsfrac.scheme, name, counted)
    return calls


class TestLevelStrategies:
    """A run builds one level strategy, which calls through tsfrac.scheme."""

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("solver,calls", [
        ("direct", {"solve_dense": 16}),
        ("auto", {"solve_dense": 16}),
        ("krylov", {"build_toeplitz": 1, "solve_bicgstab": 16}),
        ("pkrylov", {"build_toeplitz": 1, "build_preconditioner": 16,
                     "solve_bicgstab": 16})],
        ids=["direct", "auto", "krylov", "pkrylov"])
    def test_calls_per_run(self, seam_calls, run, solver, calls):
        run(make_case("example2", 1.5, 0.5).spec, 16, 2, 32,
            options=SolverOptions(solver=solver))
        assert dict(seam_calls) == calls

    @pytest.mark.parametrize("run", [run_dids, run_fids])
    @pytest.mark.parametrize("solver", ["krylov", "pkrylov"])
    def test_a_krylov_run_allocates_no_matrix(self, run, solver):
        # n = 1025 takes the real-FFT kernels, which hold no n x n array
        n = 1025
        tracemalloc.start()
        try:
            run(make_case("example2", 1.5, 0.5).spec, 4, 2, n + 1,
                options=SolverOptions(solver=solver))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2

    @pytest.mark.parametrize("name,M,N,ratios", [
        ("example2", EIGEN_MIN_LEVELS + 1, EIGEN_MIN_ORDER + 1, 1),
        ("example1", EIGEN_MIN_LEVELS, EIGEN_MIN_ORDER + 1, 0),
        ("example1", EIGEN_MIN_LEVELS + 1, EIGEN_MIN_ORDER, 0),
        ("example1", EIGEN_MIN_LEVELS + 1, EIGEN_MIN_ORDER + 1, EIGEN_MIN_LEVELS)])
    def test_direct_levels_read_the_ratio_only_for_a_basis(self, monkeypatch, name,
                                                           M, N, ratios):
        # kappa_m / kappa_1 is tested at level 2 when a basis may be built,
        # and at later levels only once one exists
        tested = []
        uniform = tsfrac.scheme._uniform

        def counted(v):
            tested.append(1)
            return uniform(v)

        monkeypatch.setattr(tsfrac.scheme, "_uniform", counted)
        run_dids(make_case(name, 1.5, 0.5).spec, M, 2, N,
                 options=SolverOptions(solver="direct"))
        assert len(tested) == ratios


class TestDirectLevelSolve:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("alpha", [0.3, 1.9])
    @pytest.mark.parametrize("gamma", [0.1, 0.95])
    def test_scaled_system_matches_the_unscaled_oracle(self, monkeypatch, name,
                                                       alpha, gamma):
        spec = make_case(name, alpha, gamma).spec
        options = SolverOptions(solver="direct")
        runs = [(run, run(spec, 16, 2, 32, options=options)[0])
                for run in (run_dids, run_fids)]

        def unscaled(self, shift, kappa, rhs, m, t):
            return level_solve_unscaled(self.A, shift, kappa, rhs), 0

        monkeypatch.setattr(tsfrac.scheme._DirectLevels, "solve", unscaled)
        for run, hist in runs:
            ref, _ = run(spec, 16, 2, 32, options=options)
            assert np.max(np.abs(hist - ref)) <= 1e-10 * np.abs(ref).max()

    def test_a_level_allocates_no_matrix(self):
        # one work matrix per run: a level copies A into it and factors it
        # in place, so its transient memory is a few vectors of length n
        disc = build_ifl(1.9, 1.95, 1.0, 128)
        n = disc.N - 1
        mesh = build_mesh(16, 2, 1.0)
        t, tau = mesh_arrays(mesh)
        solver = _DirectLevels(disc, mesh.M)
        x = disc.interior_points()
        kappa, rhs = 1.0 + 0.5 * x * x, np.cos(x)
        solver.solve(level_shift(0.5, tau[0], G_HALF), kappa, rhs, 1, t[1])
        tracemalloc.start()
        try:
            u, _ = solver.solve(level_shift(0.5, tau[1], G_HALF), kappa, rhs, 2,
                                t[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2
        ref = level_solve_unscaled(disc.dense(), level_shift(0.5, tau[1], G_HALF),
                                   kappa, rhs)
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.abs(ref).max()

    def test_every_level_factors_by_cholesky(self, monkeypatch):
        infos = []
        dposv = tsfrac.krylov.dposv

        def spy(*args, **kwargs):
            out = dposv(*args, **kwargs)
            infos.append(out[2])
            return out

        monkeypatch.setattr(tsfrac.krylov, "dposv", spy)
        run_dids(make_case("example2", 1.9, 0.5).spec, 16, 2, 32)
        assert infos == [0] * 16


class TestEigenbasisLevels:
    """Direct levels of a separable kappa solve in one eigenbasis per run."""

    @pytest.mark.parametrize("alpha", [0.4, 1.5, 1.9])
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.95])
    @pytest.mark.parametrize("N", [16, EIGEN_MIN_ORDER + 1, 128, 441])
    def test_every_level_matches_cholesky(self, monkeypatch, seam_calls,
                                          alpha, gamma, N):
        errors = []
        solve = tsfrac.scheme._DirectLevels.solve

        def checked(self, shift, kappa, rhs, m, t):
            u, its = solve(self, shift, kappa, rhs, m, t)
            work = np.array(self.A, order="F")
            work.reshape(-1, order="F")[:: N] += shift / kappa  # stride n + 1
            ref = solve_dense(work, rhs / kappa)
            errors.append(np.max(np.abs(u - ref)) / np.max(np.abs(ref)))
            return u, its

        monkeypatch.setattr(tsfrac.scheme._DirectLevels, "solve", checked)
        M = EIGEN_MIN_LEVELS + 1  # the fewest levels that build the basis
        run_dids(make_case("example1", alpha, gamma).spec, M, 2, N,
                 options=SolverOptions(solver="direct"))
        # level 1 by Cholesky, every later one in the eigenbasis; below
        # EIGEN_MIN_ORDER unknowns every level by Cholesky
        if N - 1 >= EIGEN_MIN_ORDER:
            assert dict(seam_calls) == {"solve_dense": 1, "eigh": 1}
        else:
            assert dict(seam_calls) == {"solve_dense": M}
        assert len(errors) == M and max(errors) <= 1e-12

    @pytest.mark.parametrize("failing", [{5, 6, 40, "M"}, {2, 40}],
                             ids=["later-levels", "level-2"])
    def test_cholesky_on_exactly_the_failing_levels(self, monkeypatch,
                                                    seam_calls, failing):
        # the path is chosen at level 2: failing there, no level builds it
        M = EIGEN_MIN_LEVELS + 8
        mesh = build_mesh(M, 2, 1.0)
        times, _ = mesh_arrays(mesh)
        failing = {M if m == "M" else m for m in failing}
        level = {}

        def kappa(x, t):
            # c(t) k(x), but not separable at the failing levels' times
            bent = np.isin(np.searchsorted(times, t[:, 0]), list(failing))
            bend = np.where(bent[:, None], 0.1 * x, 0.0)
            return (1.0 + t) * np.exp(0.8 * x + 1.0 + bend)

        cholesky_levels = []
        solve, level_solve = tsfrac.scheme.solve_dense, _DirectLevels.solve

        def levelled(self, shift, kappa, rhs, m, t):
            level["m"] = m
            return level_solve(self, shift, kappa, rhs, m, t)

        def spy(*args):
            cholesky_levels.append(level["m"])
            return solve(*args)

        monkeypatch.setattr(_DirectLevels, "solve", levelled)
        monkeypatch.setattr(tsfrac.scheme, "solve_dense", spy)
        spec = dataclasses.replace(make_case("example1", 1.5, 0.5).spec, kappa=kappa)
        N = EIGEN_MIN_ORDER + 1
        hist, _ = run_dids(spec, M, 2, N)
        built = 2 not in failing
        assert cholesky_levels == ([1] + sorted(failing) if built
                                   else list(range(1, M + 1)))
        assert seam_calls["eigh"] == built
        monkeypatch.setattr(tsfrac.scheme, "EIGEN_MIN_LEVELS", M)
        ref, _ = run_dids(spec, M, 2, N)
        assert np.max(np.abs(hist - ref)) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name,M", [("example2", EIGEN_MIN_LEVELS + 1),
                                        ("example1", EIGEN_MIN_LEVELS)])
    def test_no_eigh_for_a_varying_kappa_or_a_short_run(self, seam_calls, name, M):
        run_dids(make_case(name, 1.5, 0.5).spec, M, 2, EIGEN_MIN_ORDER + 1)
        assert dict(seam_calls) == {"solve_dense": M}

    def test_no_eigh_for_a_small_system(self, seam_calls):
        # a separable kappa and enough levels, one unknown short of the order
        M = EIGEN_MIN_LEVELS + 1
        run_dids(make_case("example1", 1.5, 0.5).spec, M, 2, EIGEN_MIN_ORDER)
        assert dict(seam_calls) == {"solve_dense": M}

    def test_an_eigen_level_allocates_no_matrix(self):
        # Q takes the work matrix's place: a level after the basis is built
        # holds a few vectors of length n
        disc = build_ifl(1.9, 1.95, 1.0, 128)
        n = disc.N - 1
        mesh = build_mesh(EIGEN_MIN_LEVELS + 1, 2, 1.0)
        t, tau = mesh_arrays(mesh)
        solver = _DirectLevels(disc, mesh.M)
        x = disc.interior_points()
        kappa, rhs = np.exp(x), np.cos(x)
        for m in (1, 2):
            solver.solve(level_shift(0.5, tau[m - 1], G_HALF), (1 + t[m]) * kappa,
                         rhs, m, t[m])
        tracemalloc.start()
        try:
            u, _ = solver.solve(level_shift(0.5, tau[2], G_HALF),
                                (1 + t[3]) * kappa, rhs, 3, t[3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solver.basis is not None and peak < n * n * 8 / 2
        ref = level_solve_unscaled(disc.dense(), level_shift(0.5, tau[2], G_HALF),
                                   (1 + t[3]) * kappa, rhs)
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.abs(ref).max()


class TestDidsOracle:
    """run_dids against the all-at-once space-time solve of all its levels."""

    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("M,N", [
        (5, 16), (HISTORY_BLOCK - 1, 16), (HISTORY_BLOCK, 16),
        (HISTORY_BLOCK + 1, 16),
        # blocks start at 1, 1 + B, ...: a block past WEIGHT_PANEL forms
        # its far part from two weight panels
        (WEIGHT_PANEL + HISTORY_BLOCK // 2, 8)])
    def test_matches_the_all_at_once_solve(self, name, gamma, M, N):
        spec = make_case(name, 1.5, gamma).spec
        hist, _ = run_dids(spec, M, 2, N)
        ref = dids_all_at_once(spec, M, 2, N)
        assert np.max(np.abs(hist - ref)) <= 1e-12 * np.abs(ref).max()


class TestHistoryStrategies:
    """Each strategy's history(m, tau_m) is S_m, the L1 sum
    sum_{k<m} a_k (u^k - u^{k-1}) over the levels before m, on a stored
    random history.  The run divides it by Gamma(1-gamma), holds u^{m-1}
    for ``record`` and hands each block of levels to ``start``."""

    GAMMA = 0.6
    # 200 levels: seven blocks of HISTORY_BLOCK, the last far parts from two
    # weight panels
    M = 200

    @pytest.fixture
    def stored(self, rng):
        mesh = build_mesh(self.M, 2.0, 1.0)
        return mesh, rng.standard_normal((self.M + 1, 6))

    def exact_sums(self, mesh, hist):
        """(S_m, sum_{k<m} a_k |u^k - u^{k-1}|) for m = 1..M, from the
        oracle's weight rows."""
        for m in range(1, mesh.M + 1):
            a = l1_row(mesh, self.GAMMA, m)[:-1]
            du = np.diff(hist[:m], axis=0)
            yield a @ du, a @ np.abs(du)

    def l1_sums(self, mesh, hist, sizes):
        """(m, got, want) for m = 1..M: S_m of an ``_L1Sum`` handed blocks
        of ``sizes`` levels, each with its column of times, and the
        oracle's S_m."""
        assert sum(sizes) == mesh.M
        strategy = _L1Sum(self.GAMMA, mesh, hist)
        t, tau = mesh_arrays(mesh)
        exact = self.exact_sums(mesh, hist)
        m0 = 1
        for b in sizes:
            strategy.start(m0, t[m0:m0 + b, None])
            for m in range(m0, m0 + b):
                yield m, strategy.history(m, tau[m - 1]), next(exact)[0]
            m0 += b

    def test_the_l1_sum_is_the_oracle_sum(self, stored):
        mesh, hist = stored
        # the blocks the run hands a DIDS strategy
        sizes = [HISTORY_BLOCK] * (self.M // HISTORY_BLOCK) + [self.M % HISTORY_BLOCK]
        for m, got, want in self.l1_sums(mesh, hist, sizes):
            # block and panel edges
            if m in (1, 2, HISTORY_BLOCK, HISTORY_BLOCK + 1, WEIGHT_PANEL + 1, self.M):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_the_l1_sum_takes_the_blocks_it_is_handed(self, stored):
        # blocks whose sizes do not divide LEVEL_BLOCK, and a short last
        # one; the blocks from level 107 on form their far parts from rows
        # on both sides of a weight panel's edge
        mesh, hist = stored
        sizes = [5, 37, 32, 32, 32, 32, 30]
        edges = set(np.cumsum([1] + sizes[:-1])) | set(np.cumsum(sizes))
        for m, got, want in self.l1_sums(mesh, hist, sizes):
            if m in edges | {WEIGHT_PANEL, WEIGHT_PANEL + 1}:
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_the_soe_recurrence_is_the_l1_sum_to_the_soe_tolerance(self, stored):
        # a relative kernel error of at most eps leaves each history weight
        # within eps a_k, and so S_m within eps sum_{k<m} a_k |u^k - u^{k-1}|
        mesh, hist = stored
        eps = 1e-9
        fast = _SoeRecurrence(run_soe(self.GAMMA, eps, mesh), mesh.M, hist.shape[1])
        t, tau = mesh_arrays(mesh)
        for m, (want, scale) in enumerate(self.exact_sums(mesh, hist), start=1):
            fast.start(m, t[m:m + 1, None])
            got = fast.history(m, tau[m - 1])
            fast.record(m, hist[m], hist[m - 1], tau[m - 1])
            assert np.all(np.abs(got - want) <= eps * scale)

    @pytest.mark.parametrize("run,block", [(run_dids, HISTORY_BLOCK), (run_fids, 1)])
    def test_the_run_hands_each_data_block_to_the_strategy(self, monkeypatch, run,
                                                           block):
        # the strategy's blocks are the run's: the levels and times of each
        # kappa evaluation
        evaluated, started = [], []
        on_grid = tsfrac.scheme._on_grid

        def spy_on_grid(name, f, x, m0, t, positive=False):
            if name == "kappa":
                evaluated.append((m0, t.shape[0], t.copy()))
            return on_grid(name, f, x, m0, t, positive)

        strategy = _L1Sum if run is run_dids else _SoeRecurrence
        start = strategy.start

        def spy_start(self, m0, t):
            started.append((m0, t.shape[0], t.copy()))
            return start(self, m0, t)

        monkeypatch.setattr(tsfrac.scheme, "_on_grid", spy_on_grid)
        monkeypatch.setattr(strategy, "start", spy_start)
        M = 3 * HISTORY_BLOCK + 4
        run(make_case("example1", 1.5, 0.5).spec, M, 2, 16)
        assert [(m0, b) for m0, b, _ in started] == [(m0, b) for m0, b, _ in evaluated]
        assert all(np.array_equal(s[2], e[2]) for s, e in zip(started, evaluated))
        assert [b for _, b, _ in started] == [min(block, M + 1 - m0)
                                              for m0 in range(1, M + 1, block)]


class TestPaperValues:
    def test_temporal_benchmark_row(self):
        # alpha=1.5, mu=1+alpha/2, s=3, (r,gamma)=(1,0.8), M=2^8
        case = make_case("example1", 1.5, 0.8)
        N = n_from_m(2 ** 8, 1, 0.8, 2)
        _, rep = run_dids(case.spec, 2 ** 8, 1, N)
        assert rep.err_inf == pytest.approx(6.734e-3, rel=2e-3)
        assert rep.err_2 == pytest.approx(5.974e-3, rel=2e-3)

    def test_spatial_benchmark_row_with_rate(self):
        # alpha=0.5, (r,gamma)=(2,0.5): N=2^5 row err 8.214e-4, rate 1.912
        case = make_case("example1", 0.5, 0.5)
        errs = []
        for N in (16, 32):
            M = m_from_n(N, 2, 0.5, 2)
            _, rep = run_dids(case.spec, M, 2, N)
            errs.append(rep.err_inf)
        assert errs[1] == pytest.approx(8.214e-4, rel=2e-3)
        assert math.log2(errs[0] / errs[1]) == pytest.approx(1.912, abs=5e-3)

    @pytest.mark.slow
    def test_fids_deep_mesh_benchmark_row(self):
        # (r,gamma)=(3,0.8), M=2^10: FIDS matches the DIDS benchmark digits
        case = make_case("example1", 1.5, 0.8)
        N = n_from_m(2 ** 10, 3, 0.8, 2)
        _, rep = run_fids(case.spec, 2 ** 10, 3, N, epsilon=1e-10)
        assert rep.err_inf == pytest.approx(1.037e-4, rel=2e-3)


class TestFidsDidsAgreement:
    def test_proximity_at_moderate_size(self):
        eps = 1e-10
        case = make_case("example1", 1.5, 0.5)
        h_dids, _ = run_dids(case.spec, 2 ** 7, 2, 2 ** 5)
        h_fids, _ = run_fids(case.spec, 2 ** 7, 2, 2 ** 5, epsilon=eps)
        assert np.max(np.abs(h_fids - h_dids)) <= 100 * eps

    # gamma and alpha at both ends of their ranges on small grids.  The SOE
    # lattice's right tail does not terminate for gamma below about 1e-12, a
    # subnormal alpha and FIDS at M = 1 are rejected: the strategy stops
    # short of those.
    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 64), N=st.integers(3, 17),
           gamma=st.one_of(st.floats(1e-11, 0.05),
                           st.floats(0.95, 1.0, exclude_max=True)),
           alpha=st.one_of(st.floats(1e-300, 0.1),
                           st.floats(1.9, 2.0, exclude_max=True)),
           r=st.sampled_from((1.0, 3.0)),
           name=st.sampled_from(("example1", "example2")))
    def test_proximity_at_parameter_edges(self, M, N, gamma, alpha, r, name):
        eps = 1e-10
        case = make_case(name, alpha, gamma)
        h_dids, _ = run_dids(case.spec, M, r, N)
        h_fids, _ = run_fids(case.spec, M, r, N, epsilon=eps)
        assert np.max(np.abs(h_fids - h_dids)) <= 100 * eps

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_proximity_on_short_meshes(self, name, gamma, r):
        # the SOE covers [tau_2, T] only; at M = 2 that is the last step
        # alone.  The worst gap of these 90 runs is 5.2e-13
        case = make_case(name, 1.5, gamma)
        for M in (2, 3, 4, 8, 64):
            h_dids, _ = run_dids(case.spec, M, r, 16)
            h_fids, _ = run_fids(case.spec, M, r, 16, epsilon=1e-10)
            assert np.max(np.abs(h_fids - h_dids)) < 1e-11


class TestDominancePreservation:
    @pytest.mark.parametrize("N", [8, 32, 64])
    def test_level_systems_dominated_by_shift(self, N):
        # D(shift I + K A) >= shift must hold at every level
        case = make_case("example1", 1.5, 0.5)
        M, r = 6, 2.0
        mesh = build_mesh(M, r, 1.0)
        t, _ = mesh_arrays(mesh)
        disc = build_ifl(1.5, 1.75, 1.0, N)
        x = disc.interior_points()
        g = math.gamma(1.0 - 0.5)
        for m in range(1, M + 1):
            shift = l1_row(mesh, 0.5, m)[-1] / g
            kappa = case.spec.kappa(x, t[m])
            mat = dense_system(disc.first_col, shift, kappa)
            assert dominance_gap_dense(mat) >= shift - 1e-12 * disc.scale


class TestStabilityProbe:
    def test_zero_source_bounds_by_initial_data(self, rng):
        # random initial data in [-1,1], f == 0: sup-norm never grows
        data = rng.uniform(-1.0, 1.0, size=63)
        spec = ProblemSpec(gamma=0.5, alpha=1.5, l=1.0, T=1.0,
                           kappa=lambda x, t: np.ones_like(x),
                           source=lambda x, t: np.zeros_like(x),
                           initial=lambda x: data[: x.size])
        hist, _ = run_dids(spec, 16, 2, 64)
        norms = np.max(np.abs(hist), axis=1)
        assert np.all(norms[1:] <= norms[0] + 1e-12)

    @pytest.mark.parametrize("scheme", ["dids", "fids"])
    @pytest.mark.parametrize("name,r,gamma", [("example1", 2.0, 0.5),
                                              ("example2", 3.0, 0.8)])
    def test_inequality_holds_every_level(self, scheme, name, r, gamma):
        case = make_case(name, 1.5, gamma)
        check = stability_probe(case.spec, 2 ** 5, r, 2 ** 4, scheme=scheme,
                                epsilon=1e-10)
        assert check.ok
        assert check.max_slack <= 0.0 or check.max_slack <= 1e-12


class TestComplexityCounters:
    def test_dids_history_cost_grows_linearly(self):
        case = make_case("example1", 1.5, 0.5)
        _, rep = run_dids(case.spec, 128, 2, 16)
        ops = rep.history_ops
        assert ops[99] == pytest.approx(2 * ops[49], rel=0.05)
        assert ops[-1] > ops[0]
        assert rep.history_memory_values == 129 * 15

    def test_fids_history_cost_flat_and_memory_capped(self):
        case = make_case("example1", 1.5, 0.5)
        _, rep = run_fids(case.spec, 128, 2, 16, epsilon=1e-10,
                          keep_history=False)
        assert np.all(rep.history_ops == rep.history_ops[0])
        assert rep.history_memory_values <= 256 * 15

    def test_lean_fids_memory_does_not_grow_with_M(self, monkeypatch):
        # the peak from the SOE's return on holds W, u^{m-1}, a level's
        # vectors and one block of the mesh's times, none of them of length
        # M: the mesh is evaluated, not stored, and the report's counters
        # state their sums in closed form without a value per FIDS level.
        # A mesh that stored t and tau grew the peak by 98 kB
        build = tsfrac.scheme.build_soe

        def reset_after(*args, **kwargs):
            soe = build(*args, **kwargs)
            tracemalloc.reset_peak()
            return soe

        monkeypatch.setattr(tsfrac.scheme, "build_soe", reset_after)
        spec = make_case("example1", 1.5, 0.5).spec
        options = SolverOptions(solver="direct")
        N, n = 8, 7
        peaks = []
        for M in (2 ** 11, 2 ** 13):
            tracemalloc.start()
            try:
                _, rep = run_fids(spec, M, 1, N, options=options, keep_history=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            n_exp = rep.history_memory_values // n
            assert len(rep.history_ops) == M
            assert int(np.sum(rep.history_ops)) == M * n_exp * n
        assert peaks[1] - peaks[0] < 8 * 1024
        M = 2 ** 11
        _, rep = run_dids(spec, M, 1, N, options=options)
        assert len(rep.history_ops) == M
        assert int(np.sum(rep.history_ops)) == n * M * (M + 1) // 2

    def test_dids_holds_blocks_beside_its_history(self):
        # beside its (M+1) x n history a DIDS run holds the direct solve's
        # n x n matrix and, a few at a time, arrays of one block of levels:
        # the problem data and far part, HISTORY_BLOCK x n, and the weight
        # panels, HISTORY_BLOCK x WEIGHT_PANEL.  Measured at n = 127: 399 kB
        # at M = 2048 and 12 kB less at M = 512, the report's 8-byte count
        # per level; 373 kB when the data came one level at a time
        spec = make_case("example2", 1.5, 0.5).spec
        N, n = 128, 127
        run_dids(spec, 40, 2, N)  # first-use caches
        beside = {}
        for M in (512, 2048):
            tracemalloc.start()
            try:
                hist, _ = run_dids(spec, M, 2, N)
                beside[M] = tracemalloc.get_traced_memory()[1] - hist.nbytes
            finally:
                tracemalloc.stop()
        assert beside[2048] < 8 * (n * n + 10 * HISTORY_BLOCK * max(n, WEIGHT_PANEL))
        assert beside[2048] - beside[512] < 8 * HISTORY_BLOCK * n

    def test_memory_lean_fids_never_holds_the_history(self, monkeypatch):
        # the peak of the lean run stays below the (M+1) x (N-1) history it
        # does not build; the SOE is built before the measurement
        case = make_case("example1", 1.5, 0.5)
        M, N = 2048, 17
        soe = run_soe(0.5, 1e-10, build_mesh(M, 2, 1.0))
        monkeypatch.setattr(tsfrac.scheme, "build_soe", lambda *args, **kwargs: soe)
        history_bytes = (M + 1) * (N - 1) * 8
        peaks = {}
        for keep in (True, False):
            tracemalloc.start()
            try:
                run_fids(case.spec, M, 2, N, keep_history=keep)
                peaks[keep] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] < history_bytes <= peaks[True]

    def test_fft_side_krylov_run_holds_little_beside_the_accumulators(
            self, monkeypatch):
        # N-1 = 1023 takes the real-FFT kernels (embedding 2048).  Measured:
        # 21.3 vectors of N-1 values beside W, 24.3 when A's matvec returned
        # views that pinned the whole inverse transform.  A first run fills
        # first-use caches; the second is measured
        M, r, N = 32, 2, 1024
        soe = run_soe(0.5, 1e-9, build_mesh(M, r, 1.0))
        monkeypatch.setattr(tsfrac.scheme, "build_soe", lambda *args, **kwargs: soe)
        spec = make_case("example2", 1.9, 0.5).spec
        options = SolverOptions(solver="pkrylov")
        for _ in range(2):
            tracemalloc.start()
            try:
                run_fids(spec, M, r, N, epsilon=1e-9, options=options,
                         keep_history=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        W_bytes = soe.n_exp * (N - 1) * 8
        assert peak - W_bytes < 22 * (N - 1) * 8


class TestTemporalOrder:
    def test_empirical_rate_meets_theory(self):
        # (r,gamma)=(3,0.8): min(r*gamma, 2-gamma) = 1.2
        case = make_case("example1", 1.5, 0.8)
        errs = []
        for M in (64, 128, 256):
            N = n_from_m(M, 3, 0.8, 2)
            _, rep = run_fids(case.spec, M, 3, N, epsilon=1e-10)
            errs.append(rep.err_inf)
        rate = math.log2(errs[-2] / errs[-1])
        assert rate >= 1.2 - 0.1
