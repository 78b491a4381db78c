import math

import numpy as np
import pytest

from crexlab import DivergenceError, _quadrature
from crexlab._quadrature import (
    ABS_TOL,
    GAUSS_WEIGHTS,
    GK21_NODES,
    KRONROD_WEIGHTS,
    MAX_INTERVALS,
    _wynn_epsilon,
    gk21,
)


class TestGK21Constants:
    """The qk21 table checks itself: a typo in a constant breaks one of these."""

    def test_embedded_gauss_rule_is_legendre_10(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        on = GAUSS_WEIGHTS > 0.0
        assert on.sum() == 10
        np.testing.assert_allclose(GK21_NODES[on], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(GAUSS_WEIGHTS[on], weights, rtol=0.0, atol=1e-15)

    def test_nodes_symmetric_and_increasing(self):
        assert np.all(np.diff(GK21_NODES) > 0.0)
        np.testing.assert_array_equal(GK21_NODES, -GK21_NODES[::-1])
        np.testing.assert_array_equal(KRONROD_WEIGHTS, KRONROD_WEIGHTS[::-1])

    @pytest.mark.parametrize("degree", range(32))
    def test_kronrod_exact_through_degree_31(self, degree):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(KRONROD_WEIGHTS @ GK21_NODES**degree - exact) <= 1e-15

    def test_kronrod_misses_degree_32(self):
        assert abs(KRONROD_WEIGHTS @ GK21_NODES**32 - 2.0 / 33) > 1e-15


class TestKernel:
    def test_rows_share_nodes_and_match_single_rows(self):
        powers = np.array([1.0, 2.0, 7.5])[:, None]
        values, errors = gk21(lambda x: np.exp(-x) ** powers, 0.0, 30.0)
        for p, value, error in zip(powers[:, 0], values, errors):
            alone, alone_error = gk21(lambda x: np.exp(-p * x), 0.0, 30.0)
            assert abs(value - (1.0 - np.exp(-30.0 * p)) / p) <= error
            assert abs(alone[0] - value) <= error + alone_error[0]

    def test_error_bound_has_roundoff_floor(self):
        # a polynomial both rules integrate exactly: |K - G| is 0 or roundoff,
        # and each of the four quarters the run starts from is kept at once
        value, error = gk21(lambda x: x**3, 0.0, 1.0)
        edges = np.linspace(0.0, 1.0, 5)
        half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
        nodes = mid[:, None] + half[:, None] * GK21_NODES
        floors = np.abs(nodes**3) @ (50.0 * np.finfo(float).eps * KRONROD_WEIGHTS)
        assert error[0] >= floors @ half
        assert abs(value[0] - 0.25) <= error[0]

    @pytest.mark.parametrize(
        "integrand,lo,hi,exact",
        [
            (lambda x: x**-0.9, 0.0, 1.0, 10.0),
            # the summed-bound stop would take 3.5e-10 off, with a bound of 2.6e-10
            (lambda x: x**-0.7, 0.0, 1.0, 1.0 / 0.3),
            # at an end away from 0 the nodes round to coarse floats
            (lambda x: (3.0 - x) ** -0.7, 2.0, 3.0, 1.0 / 0.3),
        ],
        ids=["x**-0.9", "x**-0.7", "(3-x)**-0.7"],
    )
    def test_endpoint_singularity_converges_by_extrapolation(self, integrand, lo, hi, exact):
        # bisection alone would need intervals far below a float's resolution
        value, error = gk21(integrand, lo, hi)
        assert abs(value[0] - exact) <= error[0] <= ABS_TOL * exact

    def test_endpoint_singularity_converges_by_summed_bounds(self, monkeypatch):
        # where the extrapolation finds no limit: |K - G| on [0, w] shrinks like
        # w**0.6, never within the interval's share of the tolerance; once the
        # intervals run out, the bounds of all intervals together meet it
        monkeypatch.setattr(_quadrature, "_wynn_epsilon", lambda sequence: (sequence[-1], math.inf))
        value, error = gk21(lambda x: x**-0.4, 0.0, 1.0)
        assert abs(value[0] - 1.0 / 0.6) <= error[0] <= ABS_TOL / 0.6

    def test_divergent_power_is_not_extrapolated(self, monkeypatch):
        # the estimates of int_0^1 x**-1.1 grow geometrically; their epsilon
        # limit is the anti-limit -10, of the other sign
        limits = []

        def spy(sequence):
            limits.append(_wynn_epsilon(sequence))
            return limits[-1]

        monkeypatch.setattr(_quadrature, "_wynn_epsilon", spy)
        with pytest.raises(DivergenceError, match="did not converge"):
            gk21(lambda x: x**-1.1, 0.0, 1.0)
        assert limits[0][0] == pytest.approx(-10.0, rel=1e-6)

    def test_non_finite_value_raises(self):
        # the middle node of [0, 1] is 0.5
        with pytest.raises(DivergenceError, match="did not converge.*non-finite"):
            gk21(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)

    def test_interval_cap_raises(self):
        calls = []

        def integrand(x):
            calls.append(x.size // 21)
            return 1.0 / x

        with pytest.raises(DivergenceError, match=f"more than {MAX_INTERVALS} intervals"):
            gk21(integrand, 0.0, 1.0)
        # a run by quarters, from the four quarters of the range, then one by
        # halves, from the whole range
        start = calls.index(1)
        quarters, halves = calls[:start], calls[start:]
        assert quarters[0] == 4
        assert sum(quarters) <= MAX_INTERVALS and sum(halves) <= MAX_INTERVALS
        assert {n % 4 for n in quarters} == {0} and {n % 2 for n in halves[1:]} == {0}

    def test_interval_too_narrow_raises(self):
        # [1, 1 + 2 ulp]: the nodes round to its three floats, and a spike on the
        # middle one gives K and G different weights; the interval is within
        # 100 eps of its midpoint, too narrow to bisect, in both runs
        lo = 1.0
        middle = np.nextafter(lo, 2.0)
        hi = np.nextafter(middle, 2.0)
        with pytest.raises(DivergenceError, match="did not converge.*too narrow"):
            gk21(lambda x: np.where(x == middle, 1e20, 0.0), lo, hi)


class TestWynnEpsilon:
    def test_alternating_series(self):
        # partial sums of 1 - 1/2 + 1/3 - ...: 15 terms leave an error near 0.03
        sums = np.cumsum([(-1.0) ** (k + 1) / k for k in range(1, 16)])
        limit, error = _wynn_epsilon(sums)
        assert abs(limit - math.log(2.0)) <= error <= 1e-7

    def test_sum_of_geometric_tails(self):
        sequence = [1.0 + 0.8**k + 0.5 * 0.6**k + 0.3 * 0.9**k for k in range(30)]
        limit, error = _wynn_epsilon(sequence)
        assert abs(limit - 1.0) <= error <= 1e-12

    def test_constant_sequence(self):
        assert _wynn_epsilon([0.25] * 6) == (0.25, 5.0 * np.finfo(float).eps * 0.25)

    def test_arithmetic_sequence_has_no_limit(self):
        limit, error = _wynn_epsilon([float(k) for k in range(20)])
        assert error >= 1.0

    def test_short_sequence_has_no_error_estimate(self):
        assert _wynn_epsilon([1.0, 0.5, 0.25, 0.125])[1] == math.inf
