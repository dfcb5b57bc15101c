import math

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import exact_ifl_of_bump
from tsfrac.mesh import build_mesh
from tsfrac.problems import hypergeom_terminating, make_case


class TestHypergeomTerminating:
    def test_s_one_linear(self):
        # one surviving term: 1 - (alpha+1) x2
        assert hypergeom_terminating(1.25, 1, 0.25) == pytest.approx(0.375, rel=1e-15)

    def test_argument_zero(self):
        for a, s in [(0.3, 1), (1.25, 3), (2.0, 5)]:
            assert hypergeom_terminating(a, s, 0.0) == 1.0

    def test_s_three_high_precision(self):
        # 2F1(1.25, -3; 0.5; 0.5) = -35/64 (50-digit reference: -0.546875)
        assert hypergeom_terminating(1.25, 3, 0.5) == pytest.approx(-0.546875,
                                                                    rel=1e-14)

    def test_vectorized(self):
        # s=1: 2F1(a,-1;1/2;x2) = 1 - 2a x2, i.e. 1 - (alpha+1) x2
        x2 = np.array([0.0, 0.25, 1.0])
        out = hypergeom_terminating(1.25, 1, x2)
        np.testing.assert_allclose(out, 1.0 - 2.5 * x2, rtol=1e-15)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            hypergeom_terminating(1.0, 0, 0.5)


class TestExactIflOfBump:
    def test_prefactor_at_origin(self):
        # x = 0: the 2F1 factor is 1, leaving the Gamma prefactor
        val = exact_ifl_of_bump(3, 1.5, 0.0)
        assert val == pytest.approx(3.998406636320060569, rel=1e-13)

    def test_s1_alpha1_origin_is_three_halves(self):
        assert exact_ifl_of_bump(1, 1.0, 0.0) == pytest.approx(1.5, rel=1e-14)

    def test_even_symmetry(self):
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(exact_ifl_of_bump(2, 0.7, x),
                                   exact_ifl_of_bump(2, 0.7, -x), rtol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_ifl_of_bump(1, 1.0, 1.5)


class TestExampleSource:
    def test_boundary_drops_time_derivative_term(self):
        # at x = +-1 the bump vanishes; only the kappa * IFL term remains
        for kind, s in [("example1", 3), ("example2", 1)]:
            alpha, gamma, t = 1.5, 0.5, 0.7
            kappa = ((1 + t) * math.exp(0.8 + 1.0) if kind == "example1"
                     else 7.0 * (math.log(5.0 + 2.0 + t) + math.cos(t)) / 4.0)
            expected = (kappa * exact_ifl_of_bump(s, alpha, 1.0)
                        * (t ** gamma + 1.0))
            got = make_case(kind, alpha, gamma).spec.source(np.array([1.0]), t)
            assert got[0] == pytest.approx(expected, rel=1e-13)

    def test_initial_time_value(self):
        x = np.array([0.3])
        s, alpha, gamma = 3, 1.5, 0.5
        got = make_case("example1", alpha, gamma).spec.source(x, 0.0)
        bump = (1 - 0.09) ** (s + alpha / 2)
        kappa0 = math.exp(0.8 * 0.3 + 1.0)
        expected = (math.exp(gammaln(1 + gamma)) * bump
                    + kappa0 * exact_ifl_of_bump(s, alpha, 0.3))
        assert got[0] == pytest.approx(expected, rel=1e-13)

    def test_domain_violations(self):
        source = make_case("example1", 1.5, 0.5).spec.source
        with pytest.raises(ValueError):
            source(np.array([1.2]), 0.5)
        with pytest.raises(ValueError):
            source(np.array([0.5]), -0.1)


class TestMakeCase:
    def test_registry(self):
        assert make_case("example1", 1.5, 0.5).s == 3
        assert make_case("example2", 1.9, 0.8).s == 1
        with pytest.raises(KeyError):
            make_case("example3", 1.0, 0.5)

    def test_exact_at_t0_equals_initial(self):
        case = make_case("example1", 1.3, 0.4)
        x = np.linspace(-1.0, 1.0, 21)
        np.testing.assert_array_equal(case.spec.exact(x, 0.0),
                                      case.spec.initial(x))

    def test_exact_vanishes_at_boundary(self):
        case = make_case("example2", 1.9, 0.8)
        assert case.spec.exact(np.array([1.0]), 0.5)[0] == 0.0
        assert case.spec.initial(np.array([-1.0]))[0] == 0.0

    @pytest.mark.parametrize("name,alpha,gamma", [("example1", 1.5, 0.5),
                                                  ("example2", 1.9, 0.8)])
    def test_source_and_exact_equal_the_closed_forms_bit_for_bit(self, name,
                                                                 alpha, gamma):
        # the x-only factors are computed once per grid: two grids of one
        # shape in turn, then a grid mutated in place, must each get their own
        case = make_case(name, alpha, gamma)
        spec, s = case.spec, case.s
        grids = [np.linspace(-1.0, 1.0, 129)[1:-1], np.linspace(-0.9, 0.8, 127)]

        def check(x, t):
            bump = np.exp((s + alpha / 2) * np.log1p(-x * x))
            source = (math.exp(gammaln(1 + gamma)) * bump
                      + spec.kappa(x, t) * exact_ifl_of_bump(s, alpha, 0.0)
                      * hypergeom_terminating((alpha + 1) / 2, s, x * x)
                      * (t ** gamma + 1.0))
            np.testing.assert_array_equal(spec.source(x, t), source)
            np.testing.assert_array_equal(spec.exact(x, t), bump * (t ** gamma + 1.0))

        for t in np.linspace(0.0, 1.0, 60):
            for x in grids:
                check(x, t)
        grids[1][::3] *= 0.5
        for t in (0.0, 0.3, 1.0):
            check(grids[1], t)
        with pytest.raises(ValueError, match=r"x must lie in \[-1, 1\]"):
            spec.source(np.array([0.5, 1.5]), 0.5)
        with pytest.raises(ValueError, match="t must be >= 0"):
            spec.source(grids[1], -0.1)

    @pytest.mark.parametrize("name,alpha,gamma", [("example1", 1.5, 0.5),
                                                  ("example2", 1.9, 0.8),
                                                  ("example2", 0.4, 0.3)])
    def test_rows_of_a_column_of_times_are_the_values_at_each_time(self, name,
                                                                   alpha, gamma):
        # a run evaluates a block of levels per call, t a (b, 1) column; each
        # row is the closed form at its one time, t a numpy scalar, to 1 ulp,
        # so a run's values do not depend on how many levels share a call.
        # numpy's vectorized power moved t^gamma in the last bit at 187 of
        # these 3326 times (gamma 0.8), and the source by up to 64 ulps
        case = make_case(name, alpha, gamma)
        spec, s = case.spec, case.s
        x = np.linspace(-1.0, 1.0, 129)[1:-1]
        t = build_mesh(3326, 2, 1.0).times(np.arange(1, 3327))
        bump = np.exp((s + alpha / 2) * np.log1p(-x * x))
        kappa = np.array([spec.kappa(x, tm) for tm in t])
        power = np.array([tm ** gamma + 1.0 for tm in t])[:, None]
        want = {spec.kappa: kappa, spec.exact: bump * power,
                spec.source: (math.exp(gammaln(1 + gamma)) * bump
                              + kappa * exact_ifl_of_bump(s, alpha, 0.0)
                              * hypergeom_terminating((alpha + 1) / 2, s, x * x)
                              * power)}
        for f, values in want.items():
            for b in (1, 32):
                rows = np.concatenate([f(x, t[i:i + b, None])
                                       for i in range(0, t.size, b)])
                np.testing.assert_array_max_ulp(rows, values, maxulp=1)

    def test_kappa_positive_on_grid(self):
        for name in ("example1", "example2"):
            case = make_case(name, 1.5, 0.5)
            x = np.linspace(-1.0, 1.0, 41)
            for t in (0.0, 0.5, 1.0):
                assert np.all(case.spec.kappa(x, t) > 0)
