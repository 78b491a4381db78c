import math

import pytest

from crexlab import (
    DivergenceError,
    DomainError,
    Exponential,
    FiniteRange,
    Method,
    PowerBeta,
    Uniform,
    d_designs,
    d_min_vs_parent,
)

ALL_FAMILIES = [
    Exponential(1.0),
    Exponential(2.0),
    Uniform(0.0, 1.0),
    Uniform(0.0, 2.0),
    FiniteRange(1.0, 1.0),
    FiniteRange(2.0, 3.0),
    PowerBeta(2.0),
]


def uniform_closed_form(i):
    # -(1/2)[1/(2i+1) - 1/(i+2)] = (i-1) / (2(2i+1)(i+2))
    return (i - 1) / (2.0 * (2 * i + 1) * (i + 2))


class TestMinVsParent:
    def test_uniform_i2(self):
        assert float(d_min_vs_parent(Uniform(0.0, 1.0), 2)) == pytest.approx(
            1.0 / 40.0, abs=1e-14
        )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_i1_is_zero(self, dist):
        # exactly +0.0: the two minimum means are the same number
        value = float(d_min_vs_parent(dist, 1))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_i1_is_zero_quadrature(self, dist):
        # both powers are 2: one integral, subtracted from itself
        value = float(d_min_vs_parent(dist, 1, method="quadrature"))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("i", [2, 3, 10])
    def test_quadrature_is_half_the_difference_of_two_rows(self, dist, i):
        from crexlab._quadrature import survival_power_quad

        (parent, _), (minimum, _) = survival_power_quad(dist, [i + 1.0, 2.0 * i], 0.0)
        value = d_min_vs_parent(dist, i, method="quadrature").value
        assert value.hex() == (0.5 * (parent - minimum)).hex()

    @pytest.mark.parametrize("i", [1, 2, 7])
    def test_quadrature_is_one_survival_power_call(self, monkeypatch, i):
        from crexlab import _quadrature

        calls = []
        quad = _quadrature.survival_power_quad

        def counted(dist, powers, lower):
            calls.append((list(powers), lower))
            return quad(dist, powers, lower)

        monkeypatch.setattr(_quadrature, "survival_power_quad", counted)
        d_min_vs_parent(Exponential(1.0), i, method="quadrature")
        # each distinct power once: at i = 1, S**(i+1) and S**(2i) are one integral
        assert calls == [([2.0] if i == 1 else [i + 1.0, 2.0 * i], 0.0)]

    def test_exponential_i2(self):
        # minima means 1/(j*lam): -(1/2)(1/4 - 1/3) = 1/24
        dv = d_min_vs_parent(Exponential(1.0), 2)
        assert float(dv) == pytest.approx(1.0 / 24.0, abs=1e-14)
        quad_route = d_min_vs_parent(Exponential(1.0), 2, method="quadrature")
        assert float(dv) == pytest.approx(float(quad_route), abs=1e-8)

    @pytest.mark.parametrize("i", range(1, 11))
    def test_uniform_matches_closed_form(self, i):
        assert float(d_min_vs_parent(Uniform(0.0, 1.0), i)) == pytest.approx(
            uniform_closed_form(i), abs=1e-12
        )

    @pytest.mark.parametrize("i", range(1, 12))
    def test_uniform_nonnegative(self, i):
        assert float(d_min_vs_parent(Uniform(0.0, 1.0), i)) >= 0.0

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("i", range(1, 7))
    def test_two_routes_agree(self, dist, i):
        closed = d_min_vs_parent(dist, i)
        numeric = d_min_vs_parent(dist, i, method="quadrature")
        assert closed.method is Method.CLOSED_FORM
        assert numeric.method is Method.QUADRATURE
        assert float(closed) == pytest.approx(float(numeric), abs=1e-8)

    def test_set_size_validation(self):
        with pytest.raises(DomainError):
            d_min_vs_parent(Uniform(0.0, 1.0), 0)

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    def test_set_size_past_the_float_range_is_a_domain_error(self, method):
        # 10**400 ended in a bare OverflowError from i + 1.0
        with pytest.raises(DomainError, match="^set size must be at most 1.79769e\\+308"):
            d_min_vs_parent(Exponential(1.0), 10**400, method)
        with pytest.raises(DomainError, match="survival power must be positive and finite"):
            d_min_vs_parent(Exponential(1.0), 10**308, method)


class TestDesigns:
    def test_uniform_m2(self):
        # -(1/2)[(1/3)(1/5) - (1/3)(1/4)] = 1/120
        assert float(d_designs(Uniform(0.0, 1.0), 2)) == pytest.approx(
            1.0 / 120.0, abs=1e-14
        )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_m1_is_zero(self, dist):
        assert float(d_designs(dist, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_m2(self):
        # -(1/2)[(1/2)(1/4) - (1/2)(1/3)] = 1/48
        dv = d_designs(Exponential(1.0), 2)
        assert float(dv) == pytest.approx(1.0 / 48.0, abs=1e-14)
        quad_route = d_designs(Exponential(1.0), 2, method="quadrature")
        assert float(dv) == pytest.approx(float(quad_route), abs=1e-9)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_uniform_product_form(self, m):
        expected = -0.5 * (
            math.prod(1.0 / (2 * i + 1) for i in range(1, m + 1))
            - math.prod(1.0 / (i + 2) for i in range(1, m + 1))
        )
        assert float(d_designs(Uniform(0.0, 1.0), m)) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("m", range(1, 5))
    def test_two_routes_agree(self, dist, m):
        closed = d_designs(dist, m)
        numeric = d_designs(dist, m, method="quadrature")
        assert float(closed) == pytest.approx(float(numeric), abs=1e-8)

    def test_observed_nonnegative_across_families(self):
        for dist in ALL_FAMILIES:
            for m in range(1, 6):
                assert float(d_designs(dist, m)) >= -1e-12

    def test_shared_powers_integrated_once(self, monkeypatch):
        from crexlab import _quadrature
        from crexlab.measures import dynamic_crex_designs

        calls = []
        quad = _quadrature.survival_power_quad

        def counted(dist, powers, lower):
            calls.append(list(powers))
            return quad(dist, powers, lower)

        monkeypatch.setattr(_quadrature, "survival_power_quad", counted)
        d_designs(Exponential(1.0), 10, method="quadrature")
        # one call holding the powers 2i and i+1 for i = 1..10: 15 distinct
        [powers] = calls
        assert sorted(powers) == sorted({2.0 * i for i in range(1, 11)} | set(range(2, 12)))
        calls.clear()
        dynamic_crex_designs(Exponential(1.0), 5, 0.3, method="quadrature")
        assert calls == [[2.0, 4.0, 6.0, 8.0, 10.0]]


@pytest.mark.parametrize("method", ["closed", "quadrature"])
@pytest.mark.parametrize(
    "measure,size",
    [(d_min_vs_parent, 1), (d_min_vs_parent, 2), (d_designs, 2)],
    ids=["min-vs-parent-1", "min-vs-parent-2", "designs-2"],
)
def test_subnormal_minimum_means_diverge(measure, size, method):
    # every minimum mean of Uniform(0, 1e-310) is subnormal: it has lost
    # digits, so the difference of two of them is not returned
    with pytest.raises(DivergenceError, match="underflows"):
        measure(Uniform(0.0, 1e-310), size, method=method)
