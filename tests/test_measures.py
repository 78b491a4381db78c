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
    d_min_vs_parent,
    dynamic_crex,
    dynamic_crex_designs,
    extropy,
    parse_distribution,
)
from crexlab import _quadrature as nq
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
        # alpha = 1/2 diverges; gk21 reaches its interval cap, and the estimates
        # grow like a logarithm, with no limit to extrapolate
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
        # a Method member names its route as its text does
        assert crex(dist, Method.QUADRATURE) == numeric

    def test_value_must_be_nonpositive(self):
        with pytest.raises(ValueError):
            CrexValue(0.1, Method.CLOSED_FORM)

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    @pytest.mark.parametrize("alpha", [1e-300, 1e-200])
    def test_integral_that_underflows_to_zero_raises(self, alpha, method):
        # S > 0 on (0, 1), so int S**2 > 0: a computed 0 is an underflow
        with pytest.raises(DivergenceError, match="underflows to 0"):
            crex(PowerBeta(alpha), method)


class TestZeroIntegral:
    """A survival-power integral from t with S(t) > 0 is positive, never 0."""

    def test_route_that_cannot_resolve_raises(self):
        assert crex(PowerBeta(1e-100)).value == pytest.approx(-1e-200, rel=1e-12)
        with pytest.raises(DivergenceError, match="underflows to 0"):
            crex(PowerBeta(1e-100), "quadrature")

    def test_one_ulp_interval_raises_by_quadrature(self):
        # every gk21 node on [1 - 2**-53, 1] rounds to 1.0, where S is 0
        t = 1.0 - 2.0**-53
        minrssu, srs = dynamic_crex_designs(Uniform(0.0, 1.0), 2, t)
        assert minrssu.value == pytest.approx(-4.11e-34, rel=1e-3)
        assert srs.value == pytest.approx(-6.85e-34, rel=1e-3)
        with pytest.raises(DivergenceError, match="underflows to 0"):
            dynamic_crex_designs(Uniform(0.0, 1.0), 2, t, "quadrature")

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    def test_zero_difference_is_a_value(self, method):
        # a zero disparity is a difference of two positive products, not a factor
        value = d_min_vs_parent(Exponential(1.0), 1, method).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestCumulativeExtropy:
    def test_uniform(self):
        d = Uniform(0.0, 1.0)
        assert cumulative_extropy(d) == pytest.approx(-1.0 / 6.0, abs=1e-12)
        oracle, _ = quad(lambda x: d.cdf(x) ** 2, 0.0, 1.0)
        assert cumulative_extropy(d) == pytest.approx(-0.5 * oracle, abs=1e-9)

    def test_exponential_diverges(self):
        with pytest.raises(DivergenceError):
            cumulative_extropy(Exponential(1.0))
        with pytest.raises(DivergenceError, match="unbounded support"):
            cumulative_extropy(Exponential(1.0), method="quadrature")

    def test_wide_uniform(self):
        d = Uniform(0.0, 2.0)
        assert cumulative_extropy(d) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert cumulative_extropy(d) == pytest.approx(
            cumulative_extropy(d, method="quadrature"), abs=1e-8
        )


    @pytest.mark.parametrize(
        "dist,exact",
        [
            # (1 - 2/(b+1) + 1/(2b+1)) / a on the finite range, 1/(2 alpha+1) on powerbeta
            (FiniteRange(2.0, 3.0), Fraction(9, 28)),
            (FiniteRange(0.5, 0.7), 2 * (1 - Fraction(20, 17) + Fraction(10, 24))),
            (PowerBeta(2.0), Fraction(1, 5)),
            (PowerBeta(0.5), Fraction(1, 2)),
        ],
        ids=repr,
    )
    def test_closed_form_on_bounded_families(self, dist, exact):
        closed = cumulative_extropy(dist)
        assert closed == pytest.approx(-0.5 * float(exact), abs=1e-15)
        assert closed == pytest.approx(cumulative_extropy(dist, method="quadrature"), abs=1e-15)


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

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    def test_set_size_past_the_float_range_is_a_domain_error(self, method):
        # 10**400 and 2**1024 ended in a bare OverflowError from 2.0 * i
        for i in (10**400, 2**1024):
            bits = i.bit_length()
            message = f"^set size must be at most 1.79769e\\+308, got a {bits}-bit integer$"
            with pytest.raises(DomainError, match=message):
                crex_min_order_stat(Exponential(1.0), i, method)
        # a size a float holds but whose power 2i does not
        with pytest.raises(DomainError, match="survival power must be positive and finite"):
            crex_min_order_stat(Exponential(1.0), 2**1023, method)
        with pytest.raises(DomainError, match="^design size must be at most"):
            crex_minrssu_design(Exponential(1.0), 10**400, method)


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


def quadpack_power_products(dist, power_lists, t):
    """Test-only QUADPACK oracle for the quadrature route of ``_power_products``.

    Integrates every distinct power on its own with scipy's ``quad`` at
    the kernel's tolerance; at most 20 factors per list, so every product
    is direct.  Returns one (value, error bound) pair per list.
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


SHARING_SPECS = ["exp:rate=1", "unif:a=2,b=3", "finite:a=2,b=3", "powerbeta:alpha=0.5"]
SHARING_POWER_LISTS = [[2.0 * i for i in range(1, 11)], [i + 1.0 for i in range(1, 11)], [2.0] * 10]


class TestQuadratureSharing:
    def test_one_survival_call_per_round(self, monkeypatch):
        calls = []
        survival = Exponential._survival

        def counted(self, x):
            calls.append(np.array(x))
            return survival(self, x)

        monkeypatch.setattr(Exponential, "_survival", counted)
        crex_minrssu_design(Exponential(1.0), 30, method="quadrature")
        # the tail factor S(U) goes through the checked survival, which hands
        # the kernel a one-element array; then one kernel call per round, on
        # the 21 nodes of each interval still open: the four quarters of the
        # range first, then each interval that failed the round before split in four
        tail, *rounds = calls
        assert tail.shape == (1,)
        assert all(x.ndim == 1 and x.size % 21 == 0 for x in rounds)
        intervals = [x.size // 21 for x in rounds]
        assert intervals[0] == 4
        assert all(n % 4 == 0 and n <= 4 * prev for prev, n in zip(intervals, intervals[1:]))
        nodes = np.concatenate(rounds)
        assert np.unique(nodes).size == nodes.size

    def test_tail_constants_once_per_law_instance(self, monkeypatch):
        quantiles, survivals = [], []
        quantile, survival = Exponential.quantile, Exponential.survival
        monkeypatch.setattr(Exponential, "quantile",
                            lambda self, u: quantiles.append(u) or quantile(self, u))
        monkeypatch.setattr(Exponential, "survival",
                            lambda self, x: survivals.append(np.ndim(x)) or survival(self, x))
        law = Exponential(1.0)
        crex(law, method="quadrature")
        crex_minrssu_design(law, 3, method="quadrature")
        # the truncation point and S there are worked out on the first call only
        assert quantiles == [1.0 - nq.TAIL_MASS]
        assert survivals.count(0) == 1
        # kept by the instance, not by its value: an equal law works them out again
        crex(Exponential(1.0), method="quadrature")
        assert len(quantiles) == 2 and survivals.count(0) == 2

    def test_one_quadrature_call_per_measure_call(self, monkeypatch):
        from crexlab import _quadrature

        calls = []
        quad_powers = _quadrature.survival_power_quad

        def counted(dist, powers, lower):
            calls.append(list(powers))
            return quad_powers(dist, powers, lower)

        monkeypatch.setattr(_quadrature, "survival_power_quad", counted)
        crex_minrssu_design(Exponential(1.0), 30, method="quadrature")
        assert calls == [[2.0 * i for i in range(1, 31)]]

    @pytest.mark.parametrize("spec", SHARING_SPECS)
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_agrees_with_quadpack_within_both_bounds(self, spec, t):
        dist = parse_distribution(spec)
        shared = _power_products(dist, SHARING_POWER_LISTS, t, Method.QUADRATURE)
        oracle = quadpack_power_products(dist, SHARING_POWER_LISTS, t)
        for (value, err), (ref, ref_err) in zip(shared, oracle):
            assert abs(value - ref) <= err + ref_err

    @pytest.mark.parametrize("spec", SHARING_SPECS)
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_agrees_with_closed_forms_within_own_bound(self, spec, t):
        dist = parse_distribution(spec)
        shared = _power_products(dist, SHARING_POWER_LISTS, t, Method.QUADRATURE)
        closed = _power_products(dist, SHARING_POWER_LISTS, t, Method.CLOSED_FORM)
        for (value, err), (exact, _) in zip(shared, closed):
            assert abs(value - exact) <= err


class TestEndpointSingularities:
    """Quadrature near an infinite slope or value at the support start."""

    def test_steep_survival(self):
        # S = 1 - x**0.1 has an infinite slope at 0
        d = PowerBeta(0.1)
        closed, numeric = crex(d), crex(d, method="quadrature")
        assert abs(closed.value - numeric.value) <= numeric.abs_error_bound

    @pytest.mark.parametrize(
        "dist",
        [
            # f**2 = 0.49 x**-0.6 on PowerBeta(0.7), singular at the lower end
            PowerBeta(0.7),
            PowerBeta(0.6),
            PowerBeta(0.55),
            # f**2 = a**2 b**2 (1 - a x)**(2b - 2), singular at the upper end 1/a
            FiniteRange(1.0, 0.7),
            FiniteRange(1.0, 0.55),
            FiniteRange(3.0, 0.6),
            FiniteRange(0.3, 0.62),
        ],
        ids=repr,
    )
    def test_integrable_singular_density(self, dist):
        assert extropy(dist, method="quadrature") == pytest.approx(extropy(dist), abs=1e-9)
        value, err = nq.pdf_square_quad(dist)
        exact = dist.pdf_square_integral()
        assert abs(value - exact) <= err <= ABS_TOL * exact


BOUND_SPECS = [
    "exp:rate=1",
    "exp:rate=0.25",
    "unif:a=0,b=1",
    "unif:a=2,b=3",
    "finite:a=2,b=3",
    "powerbeta:alpha=2",
    "powerbeta:alpha=0.5",
]


def uncovered(pairs):
    """The labels whose quadrature bound misses ``|closed - quadrature|``; no slack."""
    return [
        (label, closed.value, numeric.value, numeric.abs_error_bound)
        for label, closed, numeric in pairs
        if not abs(closed.value - numeric.value) <= numeric.abs_error_bound
    ]


@pytest.mark.parametrize("spec", BOUND_SPECS)
class TestErrorBoundsCoverRoutes:
    def test_crex(self, spec):
        dist = parse_distribution(spec)
        assert uncovered([("crex", crex(dist), crex(dist, method="quadrature"))]) == []

    @pytest.mark.parametrize("design", [crex_minrssu_design, crex_srs_design])
    def test_designs(self, spec, design):
        dist = parse_distribution(spec)
        pairs = [(m, design(dist, m), design(dist, m, method="quadrature")) for m in range(1, 31)]
        assert uncovered(pairs) == []

    def test_dynamic_designs(self, spec):
        dist = parse_distribution(spec)
        pairs = []
        for m in range(1, 31):
            closed = dynamic_crex_designs(dist, m, 0.3)
            numeric = dynamic_crex_designs(dist, m, 0.3, method="quadrature")
            pairs += [((m, side), c, q) for side, c, q in zip(("minrssu", "srs"), closed, numeric)]
        assert uncovered(pairs) == []


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


@pytest.mark.parametrize(
    "call",
    [
        lambda d, method: extropy(d, method),
        lambda d, method: crex(d, method),
        lambda d, method: cumulative_extropy(d, method),
        lambda d, method: dynamic_crex(d, 0.2, method),
        lambda d, method: crex_min_order_stat(d, 2, method),
        lambda d, method: crex_minrssu_design(d, 2, method),
        lambda d, method: crex_srs_design(d, 2, method),
        lambda d, method: dynamic_crex_designs(d, 2, 0.2, method),
        lambda d, method: d_min_vs_parent(d, 2, method),
        lambda d, method: d_designs(d, 2, method),
    ],
    ids=["extropy", "crex", "cumulative_extropy", "dynamic_crex", "crex_min_order_stat",
         "crex_minrssu_design", "crex_srs_design", "dynamic_crex_designs",
         "d_min_vs_parent", "d_designs"],
)
@pytest.mark.parametrize("method", ["simpson", "Closed"])
def test_unknown_method_rejected(call, method):
    with pytest.raises(DomainError, match="unknown evaluation method"):
        call(Uniform(0.0, 1.0), method)
