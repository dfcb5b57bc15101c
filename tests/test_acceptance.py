"""Acceptance gate: every benchmark criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``) after its
assertions; the test name doubles as the criterion label in ``pytest -v``
output.  Reference values are the pinned benchmark numbers this package
reproduces; the couplings N(M) and M(N) regenerate the benchmark grids
exactly.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import toeplitz

from oracles import (
    bluestein_dft,
    dft_direct,
    dominance_gap_dense,
    fast_coefficients,
    jacobi_eigenvalues,
    l1_row,
    mesh_arrays,
    stability_probe,
)
from tsfrac.couplings import m_from_n, n_from_m
from tsfrac.ifl import build_ifl
from tsfrac.mesh import build_mesh
from tsfrac.problems import make_case
from tsfrac.scheme import SolverOptions, run_dids, run_fids, run_soe
from tsfrac.soe import FastHistory, build_soe, history_push
from tsfrac.toeplitz import (
    build_preconditioner,
    build_toeplitz,
    precond_solve,
    strang_eigenvalues,
    strang_first_column,
    toeplitz_matvec,
)


def report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def test_criterion_01_temporal_convergence_smooth():
    # alpha=1.5, mu=1+alpha/2, s=3, (r,gamma)=(2,0.5); both schemes within 2%
    expected = {2 ** 7: 4.363e-3, 2 ** 8: 1.964e-3, 2 ** 9: 9.497e-4,
                2 ** 10: 4.542e-4}
    case = make_case("example1", 1.5, 0.5)
    t0 = time.perf_counter()
    results = {}
    for M, want in expected.items():
        N = n_from_m(M, 2, 0.5, 2)
        _, rep_d = run_dids(case.spec, M, 2, N)
        _, rep_f = run_fids(case.spec, M, 2, N, epsilon=1e-10)
        results[M] = (rep_d.err_inf, rep_f.err_inf)
        assert rep_d.err_inf == pytest.approx(want, rel=0.02), f"DIDS M={M}"
        assert rep_f.err_inf == pytest.approx(want, rel=0.02), f"FIDS M={M}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 1", f"errors matched within 2% in {elapsed:.1f}s: "
           + ", ".join(f"M={M}: {d:.3e}/{f:.3e}" for M, (d, f) in results.items()))


def test_criterion_02_temporal_convergence_mu2():
    # alpha=1.6, mu=2, (r,gamma)=(3,0.8): the M=2^10 row and its rate
    case = make_case("example1", 1.6, 0.8)
    errs = {}
    for M in (2 ** 9, 2 ** 10):
        N = n_from_m(M, 3, 0.8, 2)
        _, rep = run_dids(case.spec, M, 3, N, mu=2.0)
        errs[M] = rep.err_inf
    rate = math.log2(errs[2 ** 9] / errs[2 ** 10])
    assert errs[2 ** 10] == pytest.approx(9.389e-5, rel=0.02)
    assert rate == pytest.approx(1.285, abs=0.05)
    report("criterion 2", f"err={errs[2**10]:.3e} (ref 9.389e-5), rate={rate:.3f}")


def test_criterion_03_spatial_convergence_smooth():
    # alpha=1.5, (r,gamma)=(1,0.8), N=2^3..2^6, M(N)=(N/2)^{2/0.8}
    case = make_case("example1", 1.5, 0.8)
    t0 = time.perf_counter()
    errs = []
    for N in (8, 16, 32, 64):
        M = m_from_n(N, 1, 0.8, 2)
        _, rep = run_dids(case.spec, M, 1, N)
        errs.append(rep.err_inf)
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    elapsed = time.perf_counter() - t0
    for got, want in zip(rates, (2.166, 2.136, 2.112)):
        assert got == pytest.approx(want, abs=0.05)
    assert elapsed < 300.0
    report("criterion 3", f"rates {[f'{r:.3f}' for r in rates]} in {elapsed:.1f}s")


def test_criterion_04_spatial_reduced_regularity():
    # alpha=1.9, (r,gamma)=(3,0.8), N in {9,18,36,72}
    case = make_case("example2", 1.9, 0.8)
    errs = []
    for N in (9, 18, 36, 72):
        M = m_from_n(N, 3, 0.8, 1.95)
        _, rep = run_dids(case.spec, M, 3, N)
        errs.append(rep.err_inf)
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert errs[-1] == pytest.approx(1.135e-3, rel=0.02)
    for got in rates:
        assert got == pytest.approx(2.03, abs=0.05)
    report("criterion 4", f"final err={errs[-1]:.3e}, rates "
           f"{[f'{r:.3f}' for r in rates]}")


def test_criterion_05_low_alpha_branch():
    # alpha=0.5, (r,gamma)=(2,0.5), N=2^9 row with its rate
    case = make_case("example2", 0.5, 0.5)
    errs = {}
    for N in (2 ** 8, 2 ** 9):
        M = m_from_n(N, 2, 0.5, 1.25)
        _, rep = run_fids(case.spec, M, 2, N, epsilon=1e-9)
        errs[N] = rep.err_inf
    rate = math.log2(errs[2 ** 8] / errs[2 ** 9])
    assert errs[2 ** 9] == pytest.approx(2.115e-4, rel=0.02)
    assert rate == pytest.approx(1.232, abs=0.05)
    report("criterion 5", f"err={errs[2**9]:.3e} (ref 2.115e-4), rate={rate:.3f}")


@pytest.mark.slow
def test_criterion_06_preconditioner_benefit():
    # (r,gamma,alpha)=(2,0.5,1.9), mu=1.95, tol=1e-10, zero initial guess
    case = make_case("example2", 1.9, 0.5)
    mu = 1.95

    def avg_its(N, solver):
        M = m_from_n(N, 2, 0.5, mu)
        _, rep = run_fids(case.spec, M, 2, N, epsilon=1e-9,
                          options=SolverOptions(solver=solver, tol=1e-10))
        return rep.avg_iterations

    plain = avg_its(2 ** 8, "krylov")
    assert 160.0 <= plain <= 240.0  # reference 198.3
    prec = {N: avg_its(N, "pkrylov") for N in (2 ** 6, 2 ** 7, 2 ** 8)}
    for N, its in prec.items():
        assert 6.0 <= its <= 12.0, f"N={N}"  # reference ~8.1
    assert max(prec.values()) - min(prec.values()) <= 2.0
    report("criterion 6", f"unpreconditioned {plain:.1f} (ref 198.3), "
           f"preconditioned {sorted(prec.values())} (ref 8.1)")


def test_criterion_07_fids_dids_proximity():
    # every criterion-1..5 configuration with M <= 2^8, eps = 1e-10
    eps = 1e-10
    configs = []
    for M in (2 ** 7, 2 ** 8):  # criterion 1
        configs.append(("example1", 1.5, 0.5, 2, None, M, n_from_m(M, 2, 0.5, 2)))
    configs.append(("example1", 1.6, 0.8, 3, 2.0, 2 ** 8,
                    n_from_m(2 ** 8, 3, 0.8, 2)))  # criterion 2
    for N in (8, 16):  # criterion 3
        configs.append(("example1", 1.5, 0.8, 1, None, m_from_n(N, 1, 0.8, 2), N))
    for N in (9, 18, 36):  # criterion 4
        configs.append(("example2", 1.9, 0.8, 3, None, m_from_n(N, 3, 0.8, 1.95), N))
    for N in (2 ** 6,):  # criterion 5 (larger N needs M > 2^8)
        configs.append(("example2", 0.5, 0.5, 2, None, m_from_n(N, 2, 0.5, 1.25), N))

    worst = 0.0
    for name, alpha, gamma, r, mu, M, N in configs:
        assert M <= 2 ** 8
        case = make_case(name, alpha, gamma)
        h_d, _ = run_dids(case.spec, M, r, N, mu=mu)
        h_f, _ = run_fids(case.spec, M, r, N, epsilon=eps, mu=mu)
        diff = float(np.max(np.abs(h_d - h_f)))
        worst = max(worst, diff)
        assert diff <= 100.0 * eps, f"{name} M={M} N={N}: {diff:.2e}"
    report("criterion 7", f"{len(configs)} configs, worst FIDS-DIDS gap "
           f"{worst:.2e} <= {100 * eps:.0e}")


def test_criterion_08_soe_contract():
    worst = {}
    for gamma, eps in ((0.5, 1e-10), (0.8, 1e-9)):
        for r in (1, 2, 3):
            delta = (1.0 / 2 ** 8) ** r
            soe = build_soe(gamma, eps, delta, 1.0)
            t = np.logspace(math.log10(delta), 0.0, 10_000)
            sup = float(np.max(np.abs(t ** (-gamma) - soe.evaluate(t))))
            assert sup <= eps, f"gamma={gamma} r={r}"
            assert soe.n_exp <= 256
            worst[(gamma, r)] = (soe.n_exp, sup)
    report("criterion 8", "; ".join(
        f"g={g},r={r}: N_exp={n}, sup={s:.1e}" for (g, r), (n, s) in worst.items()))


def test_criterion_09_matrix_property_suite():
    alphas = (0.4, 0.5, 1.1, 1.5, 1.6, 1.9)
    checked = 0
    for alpha in alphas:
        for mu in (1.0 + alpha / 2.0, 2.0):
            for N in (8, 16, 32, 64):
                d = build_ifl(alpha, mu, 1.0, N)
                A = toeplitz(d.first_col)
                np.testing.assert_array_equal(A, A.T)
                assert np.all(d.first_col[1:] < 0)
                assert dominance_gap_dense(A) > 0
                assert np.all(jacobi_eigenvalues(A) > 0)
                lam = strang_eigenvalues(d.first_col)
                assert np.all(lam > 0) and np.all(lam < 2.0 * d.first_col[0])
                checked += 1
    # dominance of the assembled level systems along a short run
    case = make_case("example1", 1.5, 0.5)
    mesh = build_mesh(6, 2, 1.0)
    t, _ = mesh_arrays(mesh)
    g = math.gamma(0.5)
    for N in (8, 16, 32, 64):
        d = build_ifl(1.5, 1.75, 1.0, N)
        x = d.interior_points()
        A = toeplitz(d.first_col)
        for m in range(1, 7):
            shift = l1_row(mesh, 0.5, m)[-1] / g
            sys = shift * np.eye(N - 1) + case.spec.kappa(x, t[m])[:, None] * A
            assert dominance_gap_dense(sys) >= shift - 1e-12 * d.scale
    report("criterion 9", f"{checked} (alpha, mu, N) combinations verified")


def test_criterion_10_oracle_equivalences(rng):
    # FFT Toeplitz matvec vs dense multiply, n = 512
    col = rng.standard_normal(512)
    v = rng.standard_normal(512)
    ref = toeplitz(col) @ v
    got = toeplitz_matvec(build_toeplitz(col), v)
    mv_err = np.max(np.abs(got - ref)) / np.abs(ref).max()
    assert mv_err <= 1e-11

    # fast-history recurrence vs direct coefficient sum, m <= 32
    mesh = build_mesh(32, 2, 1.0)
    _, tau = mesh_arrays(mesh)
    soe = build_soe(0.5, 1e-11, tau[0], 1.0)
    u = rng.standard_normal((33, 4))
    h = FastHistory.fresh(soe, 4)
    hist_err = 0.0
    for m in range(2, 33):
        history_push(h, u[m - 1] - u[m - 2], tau[m - 2])
        b = fast_coefficients(soe, mesh, m)
        direct = sum(b[k - 1] * (u[k] - u[k - 1]) for k in range(1, m))
        fast = (soe.weights * np.exp(-soe.nodes * tau[m - 1])) @ h.W
        hist_err = max(hist_err, np.max(np.abs(fast - direct))
                       / max(np.max(np.abs(direct)), 1e-30))
    assert hist_err <= 1e-12

    # circulant inverse apply vs dense LU, n = 100
    d = build_ifl(1.5, 1.75, 1.0, 101)
    p = build_preconditioner(strang_eigenvalues(d.first_col), 2.0, 1.5)
    from scipy.linalg import circulant
    P = 2.0 * np.eye(100) + 1.5 * circulant(strang_first_column(d.first_col))
    w = rng.standard_normal(100)
    lu_err = (np.max(np.abs(precond_solve(p, w) - np.linalg.solve(P, w)))
              / np.abs(w).max())
    assert lu_err <= 1e-11

    # Bluestein vs direct DFT, n <= 64
    bl_err = 0.0
    for n in (7, 31, 45, 64):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = dft_direct(x)
        bl_err = max(bl_err, float(np.max(np.abs(bluestein_dft(x) - ref))
                                   / np.abs(ref).max()))
    assert bl_err <= 1e-12
    report("criterion 10", f"matvec {mv_err:.1e}, history {hist_err:.1e}, "
           f"circulant {lu_err:.1e}, bluestein {bl_err:.1e}")


def test_criterion_11_stability_inequality():
    outcomes = []
    for name, alpha in (("example1", 1.5), ("example2", 1.9)):
        for r, gamma in ((1, 0.8), (2, 0.5), (3, 0.8)):
            case = make_case(name, alpha, gamma)
            for scheme in ("dids", "fids"):
                check = stability_probe(case.spec, 2 ** 6, r, 2 ** 5,
                                        scheme=scheme, epsilon=1e-10)
                assert check.ok, f"{name} ({r},{gamma}) {scheme}"
                outcomes.append(check.max_slack)
    report("criterion 11", f"12 runs, worst slack {max(outcomes):.2e} (<= 0)")


def test_criterion_12_complexity_counters():
    case = make_case("example1", 1.5, 0.5)
    M, N = 256, 17
    # the SOE the run builds
    soe = run_soe(0.5, 1e-10, build_mesh(M, 2, 1.0))
    _, rep_d = run_dids(case.spec, M, 2, N)
    _, rep_f = run_fids(case.spec, M, 2, N, epsilon=1e-10, keep_history=False)
    # DIDS history work grows linearly in the level index
    assert rep_d.history_ops[199] == pytest.approx(2 * rep_d.history_ops[99],
                                                   rel=0.02)
    # FIDS history work is level-independent and memory is N_exp x (N-1)
    assert np.all(rep_f.history_ops == soe.n_exp * (N - 1))
    assert rep_f.history_memory_values == soe.n_exp * (N - 1)
    report("criterion 12",
           f"DIDS ops m=100/200: {rep_d.history_ops[99]}/{rep_d.history_ops[199]}; "
           f"FIDS flat {rep_f.history_ops[0]} with memory "
           f"{rep_f.history_memory_values} = {soe.n_exp}x{N - 1}")
