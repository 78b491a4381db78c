import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from crexlab import (
    CrexValue,
    DivergenceError,
    DomainError,
    Exponential,
    FiniteRange,
    Method,
    PowerBeta,
    Uniform,
    crex,
    crex_min_order_stat,
    crex_minrssu_design,
    crex_srs_design,
    cumulative_extropy,
    d_designs,
    dynamic_crex,
    dynamic_crex_designs,
    extropy,
    parse_distribution,
)
from crexlab._quadrature import ABS_TOL, truncation_point
from crexlab.measures import _power_products

ALL_FAMILIES = [
    Exponential(1.0),
    Exponential(0.5),
    Uniform(0.0, 1.0),
    Uniform(0.0, 2.0),
    FiniteRange(1.0, 1.0),
    FiniteRange(2.0, 3.0),
    PowerBeta(2.0),
    PowerBeta(3.0),
]


def quad_crex(dist, power=2.0, lower=0.0):
    """Brute-force oracle: -(1/2) int_t S**p over the truncated support."""
    hi = dist.support[1]
    if not math.isfinite(hi):
        hi = dist.quantile(1.0 - 1e-14)
    value, _ = quad(lambda x: dist.survival(x) ** power, lower, hi, limit=200)
    head = max(0.0, dist.support[0] - lower)
    return -0.5 * (value + head)


class TestExtropy:
    def test_uniform(self):
        assert extropy(Uniform(0.0, 1.0)) == pytest.approx(-0.5, abs=1e-12)

    def test_exponential(self):
        assert extropy(Exponential(1.0)) == pytest.approx(-0.25, abs=1e-12)

    def test_wide_uniform(self):
        assert extropy(Uniform(0.0, 2.0)) == pytest.approx(-0.25, abs=1e-12)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_quadrature_agrees(self, dist):
        assert extropy(dist) == pytest.approx(extropy(dist, method="quadrature"), abs=1e-8)

    def test_divergent_density(self):
        with pytest.raises(DivergenceError):
            extropy(FiniteRange(1.0, 0.4))
        with pytest.raises(DivergenceError):
            extropy(PowerBeta(0.4))

    def test_quadrature_that_does_not_converge_raises(self):
        # alpha = 1/2 diverges; QUADPACK stops at its subdivision limit
        with pytest.raises(DivergenceError, match="did not converge"):
            extropy(PowerBeta(0.5), method="quadrature")


class TestCrex:
    def test_uniform(self):
        assert float(crex(Uniform(0.0, 1.0))) == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_exponential(self):
        assert float(crex(Exponential(1.0))) == pytest.approx(-0.25, abs=1e-12)

    def test_power_beta(self):
        # -(1/2) int_0^1 (1 - x^2)^2 dx = -(1/2)(1 - 2/3 + 1/5) = -4/15
        d = PowerBeta(2.0)
        assert float(crex(d)) == pytest.approx(-4.0 / 15.0, abs=1e-12)
        assert float(crex(d)) == pytest.approx(quad_crex(d), abs=1e-9)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_methods_agree_within_bound(self, dist):
        closed = crex(dist)
        numeric = crex(dist, method="quadrature")
        assert closed.method is Method.CLOSED_FORM
        assert numeric.method is Method.QUADRATURE
        assert abs(closed.value - numeric.value) <= numeric.abs_error_bound + 1e-8

    def test_value_must_be_nonpositive(self):
        with pytest.raises(ValueError):
            CrexValue(0.1, Method.CLOSED_FORM)


class TestCumulativeExtropy:
    def test_uniform(self):
        d = Uniform(0.0, 1.0)
        assert cumulative_extropy(d) == pytest.approx(-1.0 / 6.0, abs=1e-12)
        oracle, _ = quad(lambda x: d.cdf(x) ** 2, 0.0, 1.0)
        assert cumulative_extropy(d) == pytest.approx(-0.5 * oracle, abs=1e-9)

    def test_exponential_diverges(self):
        with pytest.raises(DivergenceError):
            cumulative_extropy(Exponential(1.0))

    def test_wide_uniform(self):
        d = Uniform(0.0, 2.0)
        assert cumulative_extropy(d) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert cumulative_extropy(d) == pytest.approx(
            cumulative_extropy(d, method="quadrature"), abs=1e-8
        )


class TestDynamicCrex:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_t_zero_reduces_to_crex(self, dist):
        assert float(dynamic_crex(dist, 0.0)) == pytest.approx(
            float(crex(dist)), abs=1e-12
        )

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 3.0, 10.0])
    def test_exponential_constancy(self, lam, t):
        assert float(dynamic_crex(Exponential(lam), t)) == pytest.approx(
            -1.0 / (4.0 * lam), abs=1e-12
        )

    def test_uniform_hand_value(self):
        # -(1/2) int_t^1 ((1-x)/(1-t))^2 dx = -(1-t)/6
        d = Uniform(0.0, 1.0)
        assert float(dynamic_crex(d, 0.4)) == pytest.approx(-0.1, abs=1e-12)
        oracle, _ = quad(lambda x: (d.survival(x) / d.survival(0.4)) ** 2, 0.4, 1.0)
        assert float(dynamic_crex(d, 0.4)) == pytest.approx(-0.5 * oracle, abs=1e-9)

    def test_domain_error_at_dead_state(self):
        with pytest.raises(DomainError):
            dynamic_crex(Uniform(0.0, 1.0), 1.0)

    def test_quadrature_past_truncation_point(self):
        # t = 30 lies beyond the 1 - 1e-12 quantile of Exp(1), about 27.6
        assert float(dynamic_crex(Exponential(1.0), 30.0)) == -0.25
        with pytest.raises(DomainError, match="quantile"):
            dynamic_crex(Exponential(1.0), 30.0, method="quadrature")

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_mean_residual_life_bound(self, dist):
        # dynamic value >= -mrl(t) / (2 * survival(t)) everywhere
        rng = np.random.default_rng(5)
        ts = dist.quantile(rng.uniform(0.0, 0.999, size=100))
        for t in ts:
            bound = -dist.mean_residual_life(t) / (2.0 * dist.survival(t))
            assert float(dynamic_crex(dist, t)) >= bound - 1e-12


class TestMinOrderStatMeasure:
    def test_uniform_i2(self):
        assert float(crex_min_order_stat(Uniform(0.0, 1.0), 2)) == pytest.approx(
            -0.1, abs=1e-12
        )

    def test_exponential_i3(self):
        assert float(crex_min_order_stat(Exponential(1.0), 3)) == pytest.approx(
            -1.0 / 12.0, abs=1e-12
        )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_i1_reduces_to_crex(self, dist):
        assert float(crex_min_order_stat(dist, 1)) == pytest.approx(
            float(crex(dist)), abs=1e-14
        )

    def test_exponential_increasing_in_set_size(self):
        # decreasing-failure-rate boundary case: values rise toward zero
        values = [float(crex_min_order_stat(Exponential(1.0), i)) for i in range(1, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDesignMeasures:
    def test_uniform_m2(self):
        assert float(crex_minrssu_design(Uniform(0.0, 1.0), 2)) == pytest.approx(
            -1.0 / 30.0, abs=1e-12
        )
        assert float(crex_srs_design(Uniform(0.0, 1.0), 2)) == pytest.approx(
            -1.0 / 18.0, abs=1e-12
        )

    def test_exponential_m3(self):
        assert float(crex_minrssu_design(Exponential(1.0), 3)) == pytest.approx(
            -1.0 / 96.0, abs=1e-12
        )

    def test_finite_range_m3(self):
        assert float(crex_srs_design(FiniteRange(1.0, 1.0), 3)) == pytest.approx(
            -1.0 / 54.0, abs=1e-12
        )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_m1_reduces_to_crex(self, dist):
        assert float(crex_minrssu_design(dist, 1)) == pytest.approx(
            float(crex(dist)), abs=1e-14
        )
        assert float(crex_srs_design(dist, 1)) == pytest.approx(
            float(crex(dist)), abs=1e-14
        )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_minrssu_dominates_srs(self, dist, m):
        """The unequal-minima plan value always sits at or above the SRS one.

        Each factor int S**(2i) dx for i >= 1 is at most int S**2 dx, so the
        product form can only shrink in magnitude relative to the m-th power
        (the reverse ordering is sometimes asserted for these plans, but
        direct evaluation forces this direction, e.g. -1/30 >= -1/18 for
        Uniform(0,1) at m=2).  Verified against a brute-force quadrature
        oracle.
        """
        mn = float(crex_minrssu_design(dist, m))
        srs = float(crex_srs_design(dist, m))
        assert mn >= srs
        oracle_mn = -0.5 * math.prod(
            -2.0 * quad_crex(dist, power=2.0 * i) for i in range(1, m + 1)
        )
        oracle_srs = -0.5 * (-2.0 * quad_crex(dist, power=2.0)) ** m
        assert mn == pytest.approx(oracle_mn, rel=1e-8, abs=1e-12)
        assert srs == pytest.approx(oracle_srs, rel=1e-8, abs=1e-12)
        assert oracle_mn >= oracle_srs - 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_uniform_ratio_rule(self, m):
        """Uniform(0,1): consecutive plan values have ratio 1/(2m+3) exactly."""
        d = Uniform(0.0, 1.0)
        ratio = float(crex_minrssu_design(d, m + 1)) / float(crex_minrssu_design(d, m))
        assert ratio == pytest.approx(1.0 / (2.0 * m + 3.0), abs=1e-12)

    def test_uniform_design_increasing_in_m(self):
        d = Uniform(0.0, 1.0)
        values = [float(crex_minrssu_design(d, m)) for m in range(1, 8)]
        assert all(a < b < 0 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_stochastic_order_monotonicity(self, m):
        # Exponential(2) <=_st Exponential(1), Uniform(0,1) <=_st Uniform(0,2):
        # the smaller variable keeps the larger (less negative) plan value
        assert float(crex_minrssu_design(Exponential(2.0), m)) >= float(
            crex_minrssu_design(Exponential(1.0), m)
        )
        assert float(crex_minrssu_design(Uniform(0.0, 1.0), m)) >= float(
            crex_minrssu_design(Uniform(0.0, 2.0), m)
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_dispersive_order_monotonicity(self, m):
        # Uniform(0,1) <=_disp Uniform(0,2): same direction as stochastic order
        assert float(crex_minrssu_design(Uniform(0.0, 1.0), m)) >= float(
            crex_minrssu_design(Uniform(0.0, 2.0), m)
        )

    def test_log_space_product_matches_direct(self):
        # m > 20 switches to log-space accumulation; results must agree
        for dist in (Uniform(0.0, 1.0), Exponential(0.25)):
            for m in (21, 25, 30):
                factors = [dist.survival_power_integral(2.0 * i) for i in range(1, m + 1)]
                direct = -0.5 * math.prod(factors)
                assert float(crex_minrssu_design(dist, m)) == pytest.approx(
                    direct, rel=1e-12
                )
                direct_d = -0.5 * (
                    math.prod(dist.min_order_stat_mean(2 * i) for i in range(1, m + 1))
                    - math.prod(dist.min_order_stat_mean(i + 1) for i in range(1, m + 1))
                )
                assert float(d_designs(dist, m)) == pytest.approx(direct_d, rel=1e-12)

    def test_design_scale_rule(self):
        """Scaling x by a > 0 scales the m-plan values by a**m.

        At m = 1 this is plain scale covariance with factor a; for m > 1 a
        single factor a cannot hold, because every one of the m product
        terms picks up one power of a.
        """
        for a in (0.5, 2.0, 3.0):
            base_u = Uniform(0.0, 1.0)
            scaled_u = Uniform(0.0, a)
            base_e = Exponential(1.0)
            scaled_e = Exponential(1.0 / a)
            assert float(crex(scaled_u)) == pytest.approx(
                a * float(crex(base_u)), abs=1e-10
            )
            assert float(crex(scaled_e)) == pytest.approx(
                a * float(crex(base_e)), abs=1e-10
            )
            for m in (1, 2, 3, 4):
                assert float(crex_minrssu_design(scaled_u, m)) == pytest.approx(
                    a**m * float(crex_minrssu_design(base_u, m)), abs=1e-10
                )
                assert float(crex_srs_design(scaled_e, m)) == pytest.approx(
                    a**m * float(crex_srs_design(base_e, m)), abs=1e-10
                )

    def test_symmetry_rule(self):
        # Uniform(0,1) is symmetric about its mean: the residual-survival
        # measure and the cumulative one coincide
        d = Uniform(0.0, 1.0)
        assert float(crex(d)) == pytest.approx(cumulative_extropy(d), abs=1e-14)
        assert float(crex(d, method="quadrature")) == pytest.approx(
            cumulative_extropy(d, method="quadrature"), abs=1e-8
        )


class TestDynamicDesigns:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_t_zero_reduces_to_static(self, dist, m):
        mn, srs = dynamic_crex_designs(dist, m, 0.0)
        assert float(mn) == pytest.approx(float(crex_minrssu_design(dist, m)), abs=1e-14)
        assert float(srs) == pytest.approx(float(crex_srs_design(dist, m)), abs=1e-14)

    def test_exponential_memoryless(self):
        mn, srs = dynamic_crex_designs(Exponential(1.0), 2, 3.0)
        assert float(mn) == pytest.approx(-1.0 / 16.0, abs=1e-12)
        assert float(srs) == pytest.approx(-1.0 / 8.0, abs=1e-12)

    def test_uniform_hand_values(self):
        # factors (1-t)/(2i+1): -(1/2)(1/6)(1/10) and -(1/2)(1/6)^2 at t=0.5
        d = Uniform(0.0, 1.0)
        mn, srs = dynamic_crex_designs(d, 2, 0.5)
        assert float(mn) == pytest.approx(-1.0 / 120.0, abs=1e-12)
        assert float(srs) == pytest.approx(-1.0 / 72.0, abs=1e-12)
        mn_q, srs_q = dynamic_crex_designs(d, 2, 0.5, method="quadrature")
        assert float(mn) == pytest.approx(float(mn_q), abs=1e-8)
        assert float(srs) == pytest.approx(float(srs_q), abs=1e-8)

    def test_domain_error_past_support(self):
        with pytest.raises(DomainError):
            dynamic_crex_designs(Uniform(0.0, 1.0), 2, 1.5)


def unshared_power_products(dist, power_lists, t):
    """Reference for the quadrature route of ``_power_products``.

    Integrates every distinct power on its own, calling ``dist.survival``
    at each node, with ``_quad``'s settings; at most 20 factors per list,
    so every product is direct.
    """
    lo, hi = dist.support
    upper = truncation_point(dist)
    s_t = dist.survival(t) if t > 0.0 else 1.0
    factor_of, rel_err_of = {}, {}
    for p in {p for powers in power_lists for p in powers}:
        value, err = quad(lambda x: dist.survival(x) ** p, max(t, lo), upper,
                          epsabs=ABS_TOL, epsrel=ABS_TOL, limit=200)
        if not math.isfinite(hi):
            err += dist.mean_residual_life(upper) * dist.survival(upper) ** p
        integral = max(0.0, lo - t) + value
        factor_of[p] = integral / s_t**p
        rel_err_of[p] = err / integral
    out = []
    for powers in power_lists:
        value = -0.5 * math.prod(factor_of[p] for p in powers)
        out.append((value, -value * sum(rel_err_of[p] for p in powers)))
    return out


class TestQuadratureSharing:
    def test_survival_evaluated_once_per_node(self, monkeypatch):
        nodes = []
        survival = Exponential.survival

        def counted(self, x):
            nodes.append(x)
            return survival(self, x)

        monkeypatch.setattr(Exponential, "survival", counted)
        crex_minrssu_design(Exponential(1.0), 30, method="quadrature")
        # 30 quadratures over about 315 distinct nodes: 7980 calls unshared
        assert len(nodes) == len(set(nodes))
        assert len(nodes) <= 320

    @pytest.mark.parametrize(
        "spec", ["exp:rate=1", "unif:a=2,b=3", "finite:a=2,b=3", "powerbeta:alpha=0.5"]
    )
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_matches_unshared_quadrature_bit_for_bit(self, spec, t):
        dist = parse_distribution(spec)
        sets = range(1, 11)
        power_lists = [[2.0 * i for i in sets], [i + 1.0 for i in sets], [2.0] * 10]
        shared = _power_products(dist, power_lists, t, Method.QUADRATURE)
        assert shared == unshared_power_products(dist, power_lists, t)


class TestNonpositivity:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_every_value_nonpositive(self, dist):
        assert float(crex(dist)) <= 0.0
        assert extropy(dist) <= 0.0
        for m in (1, 2, 3, 5):
            assert float(crex_minrssu_design(dist, m)) <= 0.0
            assert float(crex_srs_design(dist, m)) <= 0.0
        for t in (0.0, 0.2):
            t_val = dist.quantile(t) if t else 0.0
            mn, srs = dynamic_crex_designs(dist, 2, t_val)
            assert float(mn) <= 0.0
            assert float(srs) <= 0.0


class TestExactRationals:
    """Closed-form product values checked in exact rational arithmetic."""

    def test_uniform_products(self):
        for m in range(1, 6):
            expected = -Fraction(1, 2) * math.prod(
                Fraction(1, 2 * i + 1) for i in range(1, m + 1)
            )
            got = float(crex_minrssu_design(Uniform(0.0, 1.0), m))
            assert got == pytest.approx(float(expected), abs=1e-15)

    def test_exponential_products(self):
        for m in range(1, 6):
            expected = -Fraction(1, 2) * math.prod(
                Fraction(1, 2 * i) for i in range(1, m + 1)
            )
            got = float(crex_minrssu_design(Exponential(1.0), m))
            assert got == pytest.approx(float(expected), abs=1e-15)
