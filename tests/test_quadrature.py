import functools
import math

import numpy as np
import pytest

from crexlab import (
    DivergenceError,
    _quadrature,
    d_designs,
    d_min_vs_parent,
    distributions,
    measures,
)
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


# the measures-sweep laws, a density spike at 0, and two laws whose S at the
# support end is not 0 in the kernel: FiniteRange(49, 0.5)._survival(1/49) is 1.05e-8
NODE_LAWS = ["exp:rate=1", "unif:a=0,b=1", "finite:a=2,b=3", "powerbeta:alpha=2",
             "powerbeta:alpha=0.1", "finite:a=49,b=0.5", "finite:a=0.3,b=0.62"]


class TestKernelNodes:
    """The gk21 integrands call the family kernels unchecked, on nodes inside the support.

    Every node lies strictly inside the support, where each kernel is the
    checked evaluator's value; for ``_pdf`` the ends count as inside, as
    for ``pdf``.  A node on an end would meet a kernel value that is not
    the checked evaluator's constant there.
    """

    @pytest.mark.parametrize("spec", NODE_LAWS)
    def test_nodes_lie_inside_the_support(self, monkeypatch, spec):
        dist = distributions.parse_distribution(spec)
        seen = {"_survival": [], "_pdf": [], "_cdf": []}
        for name, points in seen.items():
            kernel = getattr(type(dist), name)

            def recorded(self, x, kernel=kernel, points=points):
                points.append(np.array(x))
                return kernel(self, x)

            monkeypatch.setattr(type(dist), name, recorded)
        age = float(dist.quantile(0.3))
        calls = [functools.partial(measures.crex, dist)]
        for m in (1, 2, 5, 30):
            calls += [functools.partial(measures.crex_srs_design, dist, m),
                      functools.partial(measures.crex_minrssu_design, dist, m),
                      functools.partial(measures.dynamic_crex_designs, dist, m, age)]
        calls += [functools.partial(measures.extropy, dist),
                  functools.partial(measures.cumulative_extropy, dist)]
        for call in calls:
            try:
                call(method="quadrature")
            except DivergenceError:
                pass
        lo, hi = dist.support
        for name, points in seen.items():
            x = np.concatenate(points) if points else np.empty(0)
            if name == "_pdf":
                assert ((lo <= x) & (x <= hi)).all(), name
            else:
                assert ((lo < x) & (x < hi)).all(), name
        # every integrand ran on gk21's nodes: 21 per interval
        assert any(x.size % 21 == 0 for x in seen["_survival"])
        assert any(x.size % 21 == 0 for x in seen["_pdf"])
        assert bool(seen["_cdf"]) == math.isfinite(hi)


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


# float.hex of (value, error bound) per row, pinned from the kernel before
# its per-call glue was trimmed: any change to the arithmetic that reaches a
# value or a bound shows here
_UNIF = distributions.parse_distribution("unif:a=0,b=1")
_POWERS = np.arange(2.0, 61.0)[:, None]
_TWO_ULP = float(np.nextafter(np.nextafter(1.0, 2.0), 2.0))
KERNEL_CASES = {
    # one round: the four quarters all pass
    "unif S**2": (lambda x: _UNIF.survival(x) ** 2, 0.0, 1.0),
    # several rounds by quarters, 59 rows
    "exp(-x)**p": (lambda x: np.exp(-x) ** _POWERS, 0.0, 27.631021115928547),
    # the quarters run runs out of intervals; the halves run extrapolates
    "x**-0.7": (lambda x: x**-0.7, 0.0, 1.0),
    # the first split is too narrow: the halves run converges on the whole range
    "constant on 2 ulp": (np.ones_like, 1.0, _TWO_ULP),
}
KERNEL_BITS = {
    "unif S**2": ("0x1.5555555555556p-2", "0x1.0aaaaaaaaaaacp-48"),
    "exp(-x)**p": [
        ("0x1.fffffffffffffp-2", "0x1.af443453addcap-48"),
        ("0x1.5555555555555p-2", "0x1.10fa83232c121p-48"),
        ("0x1.0000000000000p-2", "0x1.904e2340b301ep-49"),
        ("0x1.9999999999999p-3", "0x1.42297efc7c064p-49"),
        ("0x1.5555555555556p-3", "0x1.11a546b69b8b5p-49"),
        ("0x1.2492492492493p-3", "0x1.e29ffc040a244p-50"),
        ("0x1.fffffffffffffp-4", "0x1.af4433fa8e231p-50"),
        ("0x1.c71c71c71c71cp-4", "0x1.7fff5cf09f212p-50"),
        ("0x1.9999999999998p-4", "0x1.547f18b57db0fp-50"),
        ("0x1.745d1745d1747p-4", "0x1.2f2cf059b897ep-50"),
        ("0x1.5555555555555p-4", "0x1.10fa83231f653p-50"),
        ("0x1.3b13b13b13b14p-4", "0x1.f20aa21e92726p-51"),
        ("0x1.2492492492492p-4", "0x1.cb7d2e92ae5e6p-51"),
        ("0x1.1111111111111p-4", "0x1.ab8ba2a023858p-51"),
        ("0x1.0000000000000p-4", "0x1.904e2340b2fc0p-51"),
        ("0x1.e1e1e1e1e1e1cp-5", "0x1.78e314c8ab2a3p-51"),
        ("0x1.c71c71c71c71dp-5", "0x1.6461146bbc38bp-51"),
        ("0x1.af286bca1af26p-5", "0x1.523eb6daec574p-51"),
        ("0x1.999999999999ap-5", "0x1.422945ff07d8ap-51"),
        ("0x1.8618618618619p-5", "0x1.33df1dfd9f3cep-51"),
        ("0x1.745d1745d1748p-5", "0x1.27278fd2c8df9p-51"),
        ("0x1.642c8590b2164p-5", "0x1.1bcf2ab92cd2ep-51"),
        ("0x1.5555555555555p-5", "0x1.11a53ad7229cfp-51"),
        ("0x1.47ae147ae147bp-5", "0x1.087b2c65cbabap-51"),
        ("0x1.3b13b13b13b14p-5", "0x1.00249fad71e6ap-51"),
        ("0x1.2f684bda12f67p-5", "0x1.f0f032490f0dep-52"),
        ("0x1.2492492492493p-5", "0x1.e29ff5d3ba8efp-52"),
        ("0x1.1a7b9611a7b97p-5", "0x1.d516fc5d06ad1p-52"),
        ("0x1.1111111111110p-5", "0x1.c81eebfb6a9a3p-52"),
        ("0x1.0842108421084p-5", "0x1.bb8d6d8d5b7f3p-52"),
        ("0x1.0000000000001p-5", "0x1.af4432b409789p-52"),
        ("0x1.f07c1f07c1f07p-6", "0x1.a330383617fb8p-52"),
        ("0x1.e1e1e1e1e1e21p-6", "0x1.9748657fd7932p-52"),
        ("0x1.d41d41d41d41dp-6", "0x1.8b8bbe1e4c1c7p-52"),
        ("0x1.c71c71c71c71fp-6", "0x1.7fff5caedf714p-52"),
        ("0x1.bacf914c1bad2p-6", "0x1.74ac6a14e8189p-52"),
        ("0x1.af286bca1af2dp-6", "0x1.699e3c4e0d495p-52"),
        ("0x1.a41a41a41a41ep-6", "0x1.5ee0bab112d18p-52"),
        ("0x1.999999999999bp-6", "0x1.547f18a7a1331p-52"),
        ("0x1.8f9c18f9c18fap-6", "0x1.4a82ec65c0334p-52"),
        ("0x1.861861861861bp-6", "0x1.40f39d6118345p-52"),
        ("0x1.7d05f417d05f7p-6", "0x1.37d6200ccec86p-52"),
        ("0x1.745d1745d1746p-6", "0x1.2f2cf05733564p-52"),
        ("0x1.6c16c16c16c19p-6", "0x1.26f83b0e7d040p-52"),
        ("0x1.642c8590b2166p-6", "0x1.1f3626c7c59a2p-52"),
        ("0x1.5c9882b93105bp-6", "0x1.17e32e8fa2e0dp-52"),
        ("0x1.5555555555558p-6", "0x1.10fa8322abba0p-52"),
        ("0x1.4e5e0a72f053bp-6", "0x1.0a766a1835825p-52"),
        ("0x1.47ae147ae147dp-6", "0x1.0450950a7298fp-52"),
        ("0x1.4141414141417p-6", "0x1.fd04da325aa8ep-53"),
        ("0x1.3b13b13b13b17p-6", "0x1.f20aa21e64620p-53"),
        ("0x1.3521cfb2b78c5p-6", "0x1.e7a58bd07fd93p-53"),
        ("0x1.2f684bda12f6cp-6", "0x1.ddc934f98378dp-53"),
        ("0x1.29e4129e412a1p-6", "0x1.d469ff7d5bcbap-53"),
        ("0x1.2492492492496p-6", "0x1.cb7d2e92a6233p-53"),
        ("0x1.1f7047dc11f74p-6", "0x1.c2f8f43f76b2ap-53"),
        ("0x1.1a7b9611a7b99p-6", "0x1.bad472c9d7d27p-53"),
        ("0x1.15b1e5f752711p-6", "0x1.b307b55b0c906p-53"),
        ("0x1.1111111111114p-6", "0x1.ab8ba2a022165p-53"),
    ],
    "x**-0.7": ("0x1.aaaaaaaaaaaa0p+1", "0x1.6eaaaaa441242p-45"),
    "constant on 2 ulp": ("0x1.0000000000000p-51", "0x1.8ffffffffffffp-98"),
}
MEASURE_LAWS = ("exp:rate=1", "unif:a=0,b=1", "finite:a=2,b=3", "powerbeta:alpha=2")
MEASURE_AGE = 0.2
MEASURE_BITS = {
    ("exp:rate=1", 1, "min_order_stat"): ("-0x1.0000000000000p-2", "0x1.af4436f816755p-49"),
    ("exp:rate=1", 1, "srs"): ("-0x1.0000000000000p-2", "0x1.af4436f816755p-49"),
    ("exp:rate=1", 1, "minrssu"): ("-0x1.0000000000000p-2", "0x1.af4436f816755p-49"),
    ("exp:rate=1", 1, "dynamic minrssu"): ("-0x1.0000000000001p-2", "0x1.aef318061da05p-49"),
    ("exp:rate=1", 1, "dynamic srs"): ("-0x1.0000000000001p-2", "0x1.aef318061da05p-49"),
    ("exp:rate=1", 1, "d_designs"): "0x0.0p+0",
    ("exp:rate=1", 1, "d_min_vs_parent"): "0x0.0p+0",
    ("exp:rate=1", 2, "min_order_stat"): ("-0x1.ffffffffffffep-4", "0x1.904e22fd31e84p-50"),
    ("exp:rate=1", 2, "srs"): ("-0x1.0000000000000p-3", "0x1.af4436f816755p-49"),
    ("exp:rate=1", 2, "minrssu"): ("-0x1.ffffffffffffcp-5", "0x1.9fc92cfaa42ebp-50"),
    ("exp:rate=1", 2, "dynamic minrssu"): ("-0x1.0000000000001p-4", "0x1.9fa58a32a9be6p-50"),
    ("exp:rate=1", 2, "dynamic srs"): ("-0x1.0000000000002p-3", "0x1.aef318061da06p-49"),
    ("exp:rate=1", 2, "d_designs"): "0x1.555555555555cp-6",
    ("exp:rate=1", 2, "d_min_vs_parent"): "0x1.555555555555ep-5",
    ("exp:rate=1", 5, "min_order_stat"): ("-0x1.9999999999999p-5", "0x1.547f15363647dp-51"),
    ("exp:rate=1", 5, "srs"): ("-0x1.0000000000000p-6", "0x1.0d8aa25b0e095p-50"),
    ("exp:rate=1", 5, "minrssu"): ("-0x1.111111111110fp-13", "0x1.17db62bae3b5bp-57"),
    ("exp:rate=1", 5, "dynamic minrssu"): ("-0x1.1111111111118p-13", "0x1.17cbf92b89f56p-57"),
    ("exp:rate=1", 5, "dynamic srs"): ("-0x1.0000000000000p-6", "0x1.0d57ef03d2843p-50"),
    ("exp:rate=1", 5, "d_designs"): "0x1.27d27d27d27d0p-11",
    ("exp:rate=1", 5, "d_min_vs_parent"): "0x1.111111111110fp-5",
    ("exp:rate=1", 30, "min_order_stat"): ("-0x1.111111111110fp-7", "0x1.ab8ba1f70f723p-54"),
    ("exp:rate=1", 30, "srs"): ("-0x1.0000000000034p-31", "0x1.944ff38895135p-73"),
    ("exp:rate=1", 30, "minrssu"): ("-0x1.3932c5047d5e8p-139", "0x1.db1d297a795e4p-181"),
    ("exp:rate=1", 30, "dynamic minrssu"): ("-0x1.3932c5047d7bdp-139", "0x1.b16b3a0c77f77p-156"),
    ("exp:rate=1", 30, "dynamic srs"): ("-0x1.0000000000034p-31", "0x1.9403e685bbcb4p-73"),
    ("exp:rate=1", 30, "d_designs"): "0x1.434d2ddba5fa9p-114",
    ("exp:rate=1", 30, "d_min_vs_parent"): "0x1.fee61fee61feep-8",
    ("unif:a=0,b=1", 1, "min_order_stat"): ("-0x1.5555555555556p-3", "0x1.0aaaaaaaaaaacp-49"),
    ("unif:a=0,b=1", 1, "srs"): ("-0x1.5555555555556p-3", "0x1.0aaaaaaaaaaacp-49"),
    ("unif:a=0,b=1", 1, "minrssu"): ("-0x1.5555555555556p-3", "0x1.0aaaaaaaaaaacp-49"),
    ("unif:a=0,b=1", 1, "dynamic minrssu"): ("-0x1.1111111111110p-3", "0x1.aaaaaaaaaaaa9p-50"),
    ("unif:a=0,b=1", 1, "dynamic srs"): ("-0x1.1111111111110p-3", "0x1.aaaaaaaaaaaa9p-50"),
    ("unif:a=0,b=1", 1, "d_designs"): "0x0.0p+0",
    ("unif:a=0,b=1", 1, "d_min_vs_parent"): "0x0.0p+0",
    ("unif:a=0,b=1", 2, "min_order_stat"): ("-0x1.9999999999999p-4", "0x1.4000000000000p-50"),
    ("unif:a=0,b=1", 2, "srs"): ("-0x1.c71c71c71c71ep-5", "0x1.638e38e38e390p-50"),
    ("unif:a=0,b=1", 2, "minrssu"): ("-0x1.1111111111111p-5", "0x1.aaaaaaaaaaaabp-51"),
    ("unif:a=0,b=1", 2, "dynamic minrssu"): ("-0x1.5d867c3ece2a1p-6", "0x1.111111111110ep-51"),
    ("unif:a=0,b=1", 2, "dynamic srs"): ("-0x1.23456789abcddp-5", "0x1.c71c71c71c719p-51"),
    ("unif:a=0,b=1", 2, "d_designs"): "0x1.1111111111114p-7",
    ("unif:a=0,b=1", 2, "d_min_vs_parent"): "0x1.999999999999cp-6",
    ("unif:a=0,b=1", 5, "min_order_stat"): ("-0x1.745d1745d1743p-5", "0x1.22e8ba2e8ba2fp-51"),
    ("unif:a=0,b=1", 5, "srs"): ("-0x1.0db20a88f4698p-9", "0x1.075fde49beaf1p-53"),
    ("unif:a=0,b=1", 5, "minrssu"): ("-0x1.937e11175f095p-15", "0x1.8a091cb0d2cf2p-59"),
    ("unif:a=0,b=1", 5, "dynamic minrssu"): ("-0x1.086eccb22c6bap-16", "0x1.023c33e5ff612p-60"),
    ("unif:a=0,b=1", 5, "dynamic srs"): ("-0x1.617ec8bff60d5p-11", "0x1.5935d00b7648fp-55"),
    ("unif:a=0,b=1", 5, "d_designs"): "0x1.3b3a7d5a423f5p-13",
    ("unif:a=0,b=1", 5, "d_min_vs_parent"): "0x1.a98ef606a63c0p-6",
    ("unif:a=0,b=1", 30, "min_order_stat"): ("-0x1.0c9714fbcda3ap-7", "0x1.3ebbd59608268p-38"),
    ("unif:a=0,b=1", 30, "srs"): ("-0x1.5dfaa697ec6c8p-49", "0x1.0055150445a98p-90"),
    ("unif:a=0,b=1", 30, "minrssu"): ("-0x1.906d9c10fce7cp-142", "0x1.ed7520aca0a77p-172"),
    ("unif:a=0,b=1", 30, "dynamic minrssu"): ("-0x1.fb9a5e412c49ep-152", "0x1.38c1c275fb9ffp-181"),
    ("unif:a=0,b=1", 30, "dynamic srs"): ("-0x1.bba6b67a90292p-59", "0x1.44f09aa6c4961p-100"),
    ("unif:a=0,b=1", 30, "d_designs"): "0x1.434d2ce7d1c36p-118",
    ("unif:a=0,b=1", 30, "d_min_vs_parent"): "0x1.e6d1d60864b8ap-8",
    ("finite:a=2,b=3", 1, "min_order_stat"): ("-0x1.2492492492493p-5", "0x1.c924924924925p-52"),
    ("finite:a=2,b=3", 1, "srs"): ("-0x1.2492492492493p-5", "0x1.c924924924925p-52"),
    ("finite:a=2,b=3", 1, "minrssu"): ("-0x1.2492492492493p-5", "0x1.c924924924925p-52"),
    ("finite:a=2,b=3", 1, "dynamic minrssu"): ("-0x1.5f15f15f15f16p-6", "0x1.1249249249248p-52"),
    ("finite:a=2,b=3", 1, "dynamic srs"): ("-0x1.5f15f15f15f16p-6", "0x1.1249249249248p-52"),
    ("finite:a=2,b=3", 1, "d_designs"): "0x0.0p+0",
    ("finite:a=2,b=3", 1, "d_min_vs_parent"): "0x0.0p+0",
    ("finite:a=2,b=3", 2, "min_order_stat"): ("-0x1.3b13b13b13b14p-6", "0x1.ec4ec4ec4ec50p-53"),
    ("finite:a=2,b=3", 2, "srs"): ("-0x1.4e5e0a72f053bp-9", "0x1.05397829cbc15p-54"),
    ("finite:a=2,b=3", 2, "minrssu"): ("-0x1.6816816816817p-10", "0x1.1951951951952p-55"),
    ("finite:a=2,b=3", 2, "dynamic minrssu"): ("-0x1.03436769a9cdfp-11", "0x1.951951951951ap-57"),
    ("finite:a=2,b=3", 2, "dynamic srs"): ("-0x1.e17d2dc43b59bp-11", "0x1.7829cbc14e5dfp-56"),
    ("finite:a=2,b=3", 2, "d_designs"): "0x1.b01b01b01b014p-12",
    ("finite:a=2,b=3", 2, "d_min_vs_parent"): "0x1.7a17a17a17a14p-8",
    ("finite:a=2,b=3", 5, "min_order_stat"): ("-0x1.0842108421084p-7", "0x1.9cf4038669ac2p-54"),
    ("finite:a=2,b=3", 5, "srs"): ("-0x1.f31d2b3664802p-21", "0x1.e76a7c331e251p-65"),
    ("finite:a=2,b=3", 5, "minrssu"): ("-0x1.90a84bf97dc9ep-27", "0x1.8746c745f9e20p-71"),
    ("finite:a=2,b=3", 5, "dynamic minrssu"): ("-0x1.f27b5f4305da8p-31", "0x1.e6cf6081ed4adp-75"),
    ("finite:a=2,b=3", 5, "dynamic srs"): ("-0x1.367d220237255p-24", "0x1.2f36333629da6p-68"),
    ("finite:a=2,b=3", 5, "d_designs"): "0x1.8101b901bee02p-25",
    ("finite:a=2,b=3", 5, "d_min_vs_parent"): "0x1.4dccb68bf3d48p-8",
    ("finite:a=2,b=3", 30, "min_order_stat"): ("-0x1.6a13cd153729bp-10", "0x1.dc44fec10abcap-46"),
    ("finite:a=2,b=3", 30, "srs"): ("-0x1.b7636186742c1p-116", "0x1.41d149edfa163p-157"),
    ("finite:a=2,b=3", 30, "minrssu"): ("-0x1.c13efb27ec558p-218", "0x1.436e7e4ad77d8p-252"),
    ("finite:a=2,b=3", 30, "dynamic minrssu"): ("-0x1.a0905d3b215e4p-240", "0x1.32d6df6d46175p-248"),
    ("finite:a=2,b=3", 30, "dynamic srs"): ("-0x1.976c5a55e3d2cp-138", "0x1.2a67dc29e85cdp-179"),
    ("finite:a=2,b=3", 30, "d_designs"): "0x1.4cab941c52e59p-193",
    ("finite:a=2,b=3", 30, "d_min_vs_parent"): "0x1.4f1d385d2ae16p-10",
    ("powerbeta:alpha=2", 1, "min_order_stat"): ("-0x1.1111111111111p-2", "0x1.aaaaaaaaaaaabp-49"),
    ("powerbeta:alpha=2", 1, "srs"): ("-0x1.1111111111111p-2", "0x1.aaaaaaaaaaaabp-49"),
    ("powerbeta:alpha=2", 1, "minrssu"): ("-0x1.1111111111111p-2", "0x1.aaaaaaaaaaaabp-49"),
    ("powerbeta:alpha=2", 1, "dynamic minrssu"): ("-0x1.7839a5bc7dea0p-3", "0x1.25ed097b425edp-49"),
    ("powerbeta:alpha=2", 1, "dynamic srs"): ("-0x1.7839a5bc7dea0p-3", "0x1.25ed097b425edp-49"),
    ("powerbeta:alpha=2", 1, "d_designs"): "0x0.0p+0",
    ("powerbeta:alpha=2", 1, "d_min_vs_parent"): "0x0.0p+0",
    ("powerbeta:alpha=2", 2, "min_order_stat"): ("-0x1.a01a01a01a01ap-3", "0x1.4514514514514p-49"),
    ("powerbeta:alpha=2", 2, "srs"): ("-0x1.23456789abcdfp-3", "0x1.c71c71c71c71cp-49"),
    ("powerbeta:alpha=2", 2, "minrssu"): ("-0x1.bbd779334ef0bp-4", "0x1.5ac056b015ac1p-49"),
    ("powerbeta:alpha=2", 2, "dynamic minrssu"): ("-0x1.7fd9361f6fe16p-5", "0x1.2be1b2488f681p-50"),
    ("powerbeta:alpha=2", 2, "dynamic srs"): ("-0x1.1474b1ea758e0p-4", "0x1.aff655fe57addp-50"),
    ("powerbeta:alpha=2", 2, "d_designs"): "0x1.bbd779334ef10p-7",
    ("powerbeta:alpha=2", 2, "d_min_vs_parent"): "0x1.a01a01a01a020p-6",
    ("powerbeta:alpha=2", 5, "min_order_stat"): ("-0x1.14bf15e76d04cp-3", "0x1.b06a92399a577p-50"),
    ("powerbeta:alpha=2", 5, "srs"): ("-0x1.617ec8bff60dcp-6", "0x1.5935d00b76497p-50"),
    ("powerbeta:alpha=2", 5, "minrssu"): ("-0x1.881071d08f8ddp-9", "0x1.7ee00f25ac308p-53"),
    ("powerbeta:alpha=2", 5, "dynamic minrssu"): ("-0x1.cae2c1dde1d59p-13", "0x1.c0217152ae8a9p-57"),
    ("powerbeta:alpha=2", 5, "dynamic srs"): ("-0x1.b6c09b00a2f97p-9", "0x1.ac78175e9f279p-53"),
    ("powerbeta:alpha=2", 5, "d_designs"): "0x1.a9ccdf4ec0ba5p-9",
    ("powerbeta:alpha=2", 5, "d_min_vs_parent"): "0x1.21b80aee46210p-5",
    ("powerbeta:alpha=2", 30, "min_order_stat"): ("-0x1.d1b9b2b9c614bp-5", "0x1.60930e187652ap-48"),
    ("powerbeta:alpha=2", 30, "srs"): ("-0x1.bba6b67a90253p-29", "0x1.44f09aa6c4934p-70"),
    ("powerbeta:alpha=2", 30, "minrssu"): ("-0x1.de14ebecb1ed1p-77", "0x1.044d501a82defp-117"),
    ("powerbeta:alpha=2", 30, "dynamic minrssu"): ("-0x1.4041277eb7f7ep-116", "0x1.d62187778efb0p-158"),
    ("powerbeta:alpha=2", 30, "dynamic srs"): ("-0x1.958178aef8286p-45", "0x1.290053e426c18p-86"),
    ("powerbeta:alpha=2", 30, "d_designs"): "0x1.de2385f1a354ap-65",
    ("powerbeta:alpha=2", 30, "d_min_vs_parent"): "0x1.64f73c6fb52d6p-6",
}


# closed-route (d_designs, d_min_vs_parent) of the same laws and sizes
CLOSED_DISCRIMINATION_BITS = {
    ("exp:rate=1", 1): ("0x0.0p+0", "0x0.0p+0"),
    ("exp:rate=1", 2): ("0x1.5555555555554p-6", "0x1.5555555555554p-5"),
    ("exp:rate=1", 5): ("0x1.27d27d27d27d2p-11", "0x1.1111111111110p-5"),
    ("exp:rate=1", 30): ("0x1.434d2ddba5fa9p-114", "0x1.fee61fee61feep-8"),
    ("unif:a=0,b=1", 1): ("0x0.0p+0", "0x0.0p+0"),
    ("unif:a=0,b=1", 2): ("0x1.1111111111110p-7", "0x1.9999999999998p-6"),
    ("unif:a=0,b=1", 5): ("0x1.3b3a7d5a423f4p-13", "0x1.a98ef606a63bcp-6"),
    ("unif:a=0,b=1", 30): ("0x1.434d2ce7d1be5p-118", "0x1.e6d1d60864b8ap-8"),
    ("finite:a=2,b=3", 1): ("0x0.0p+0", "0x0.0p+0"),
    ("finite:a=2,b=3", 2): ("0x1.b01b01b01b018p-12", "0x1.7a17a17a17a18p-8"),
    ("finite:a=2,b=3", 5): ("0x1.8101b901bee03p-25", "0x1.4dccb68bf3d48p-8"),
    ("finite:a=2,b=3", 30): ("0x1.4cab941c52db3p-193", "0x1.4f1d385d2ae1ep-10"),
    ("powerbeta:alpha=2", 1): ("0x0.0p+0", "0x0.0p+0"),
    ("powerbeta:alpha=2", 2): ("0x1.bbd779334ef08p-7", "0x1.a01a01a01a018p-6"),
    ("powerbeta:alpha=2", 5): ("0x1.a9ccdf4ec0ba5p-9", "0x1.21b80aee46210p-5"),
    ("powerbeta:alpha=2", 30): ("0x1.de2385f1a350ep-65", "0x1.64f73c6fb52dap-6"),
}


def _hex_pairs(values, errors):
    return [(float(v).hex(), float(e).hex()) for v, e in zip(values, errors)]


def _quadrature_measures(dist, n):
    """The hex of every quadrature design and discrimination measure at size ``n``."""

    def pair(cv):
        return cv.value.hex(), cv.abs_error_bound.hex()

    dynamic = measures.dynamic_crex_designs(dist, n, MEASURE_AGE, method="quadrature")
    return {
        "min_order_stat": pair(measures.crex_min_order_stat(dist, n, method="quadrature")),
        "srs": pair(measures.crex_srs_design(dist, n, method="quadrature")),
        "minrssu": pair(measures.crex_minrssu_design(dist, n, method="quadrature")),
        "dynamic minrssu": pair(dynamic[0]),
        "dynamic srs": pair(dynamic[1]),
        "d_designs": d_designs(dist, n, method="quadrature").value.hex(),
        "d_min_vs_parent": d_min_vs_parent(dist, n, method="quadrature").value.hex(),
    }


class TestPinnedBits:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_gk21(self, case):
        fn, lo, hi = KERNEL_CASES[case]
        expected = KERNEL_BITS[case]
        found = _hex_pairs(*gk21(fn, lo, hi))
        assert found == (expected if isinstance(expected, list) else [expected])

    @pytest.mark.parametrize("spec", MEASURE_LAWS)
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_measures(self, spec, n):
        dist = distributions.parse_distribution(spec)
        expected = {name: bits for (law, size, name), bits in MEASURE_BITS.items()
                    if (law, size) == (spec, n)}
        assert _quadrature_measures(dist, n) == expected

    @pytest.mark.parametrize("spec", MEASURE_LAWS)
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_closed_discrimination(self, spec, n):
        dist = distributions.parse_distribution(spec)
        found = (d_designs(dist, n).value.hex(), d_min_vs_parent(dist, n).value.hex())
        assert found == CLOSED_DISCRIMINATION_BITS[spec, n]
