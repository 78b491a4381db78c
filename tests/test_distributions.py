import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from crexlab import (
    DomainError,
    Exponential,
    FiniteRange,
    PowerBeta,
    SpecParseError,
    Uniform,
    parse_distribution,
)

ALL_FAMILIES = [
    Exponential(1.0),
    Exponential(2.0),
    Uniform(0.0, 1.0),
    Uniform(0.0, 2.0),
    FiniteRange(1.0, 1.0),
    FiniteRange(2.0, 3.0),
    PowerBeta(2.0),
    PowerBeta(3.5),
]


def interior_grid(dist, count=1000, margin=1e-6):
    # probability-scale grid: stays where float64 cdf values remain informative
    u = np.linspace(margin, 1.0 - margin, count)
    return dist.quantile(u)


class TestPointValues:
    def test_exponential_pdf_at_zero(self):
        assert Exponential(1.0).pdf(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_pdf_is_flat(self):
        assert Uniform(0.0, 1.0).pdf(0.3) == pytest.approx(1.0, abs=1e-15)

    def test_finite_range_pdf_hand_value(self):
        # d/dx [1 - (1 - a x)^b] at a=2, b=3, x=0.25 -> 2*3*(1-0.5)^2 = 1.5
        d = FiniteRange(2.0, 3.0)
        assert d.pdf(0.25) == pytest.approx(1.5, abs=1e-12)
        # cross-check with a centered finite difference of the cdf
        h = 1e-6
        fd = (d.cdf(0.25 + h) - d.cdf(0.25 - h)) / (2 * h)
        assert d.pdf(0.25) == pytest.approx(fd, abs=1e-7)

    def test_finite_range_survival(self):
        assert FiniteRange(1.0, 1.0).survival(0.4) == pytest.approx(0.6, abs=1e-15)

    def test_exponential_survival_at_zero(self):
        assert Exponential(2.0).survival(0.0) == 1.0

    def test_power_beta_survival(self):
        d = PowerBeta(2.0)
        assert d.survival(0.5) == pytest.approx(0.75, abs=1e-15)
        # oracle: 1 - numeric integral of the density up to x
        tail, _ = quad(d.pdf, 0.0, 0.5)
        assert d.survival(0.5) == pytest.approx(1.0 - tail, abs=1e-10)

    def test_uniform_quantile(self):
        assert Uniform(0.0, 1.0).quantile(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_exponential_quantile(self):
        assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_power_beta_quantile_bisection_oracle(self):
        d = PowerBeta(2.0)
        assert d.quantile(0.25) == pytest.approx(0.5, abs=1e-15)
        root = brentq(lambda x: d.cdf(x) - 0.25, 0.0, 1.0, xtol=1e-13)
        assert d.quantile(0.25) == pytest.approx(root, abs=1e-10)

    def test_quantile_domain_error(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                Uniform(0.0, 1.0).quantile(bad)

    def test_quantile_endpoints_map_to_support(self):
        assert Uniform(0.5, 2.0).quantile(0.0) == 0.5
        assert Uniform(0.5, 2.0).quantile(1.0) == 2.0
        assert Exponential(1.0).quantile(0.0) == 0.0
        assert Exponential(1.0).quantile(1.0) == math.inf


class TestSampling:
    def test_zero_count_is_empty(self):
        rng = np.random.default_rng(0)
        assert Uniform(0.0, 1.0).sample(rng, 0).size == 0

    def test_uniform_sample_mean(self):
        rng = np.random.default_rng(101)
        draws = Uniform(0.0, 1.0).sample(rng, 10**5)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_exponential_sample_mean(self):
        rng = np.random.default_rng(102)
        draws = Exponential(1.0).sample(rng, 10**5)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_sampling_is_deterministic_given_stream(self):
        a = Exponential(1.0).sample(np.random.default_rng(7), 50)
        b = Exponential(1.0).sample(np.random.default_rng(7), 50)
        np.testing.assert_array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            Uniform(0.0, 1.0).sample(np.random.default_rng(0), -1)


class TestMinOrderStatMean:
    def test_uniform_j3(self):
        assert Uniform(0.0, 1.0).min_order_stat_mean(3) == pytest.approx(0.25, abs=1e-12)

    def test_exponential_j1_is_mean(self):
        assert Exponential(1.0).min_order_stat_mean(1) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_rate2_j4(self):
        # min of j exponentials is exponential with rate j*lam
        d = Exponential(2.0)
        assert d.min_order_stat_mean(4) == pytest.approx(1.0 / 8.0, abs=1e-12)
        oracle, _ = quad(lambda x: d.survival(x) ** 4, 0.0, 50.0)
        assert d.min_order_stat_mean(4) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_j1_equals_mean(self, dist):
        assert dist.min_order_stat_mean(1) == pytest.approx(dist.mean(), abs=1e-8)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8])
    def test_exponential_closed_form(self, lam, j):
        assert Exponential(lam).min_order_stat_mean(j) == pytest.approx(
            1.0 / (j * lam), abs=1e-9
        )


class TestMeanResidualLife:
    def test_exponential_memoryless(self):
        assert Exponential(1.0).mean_residual_life(5.0) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_midpoint(self):
        d = Uniform(0.0, 1.0)
        assert d.mean_residual_life(0.5) == pytest.approx(0.25, abs=1e-12)
        oracle, _ = quad(d.survival, 0.5, 1.0)
        assert d.mean_residual_life(0.5) == pytest.approx(
            oracle / d.survival(0.5), abs=1e-9
        )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_at_zero_is_unconditional_mean(self, dist):
        assert dist.mean_residual_life(0.0) == pytest.approx(dist.mean(), abs=1e-12)

    def test_domain_error_past_support(self):
        with pytest.raises(DomainError):
            Uniform(0.0, 1.0).mean_residual_life(1.0)


class TestInvariants:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_survival_plus_cdf_is_one(self, dist):
        rng = np.random.default_rng(33)
        lo, hi = dist.support
        if not math.isfinite(hi):
            hi = dist.quantile(1.0 - 1e-12)
        x = rng.uniform(lo - 0.5, hi + 0.5, size=1000)
        total = dist.survival(x) + dist.cdf(x)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_quantile_cdf_round_trip(self, dist):
        x = interior_grid(dist, count=500)
        back = dist.quantile(dist.cdf(x))
        assert np.max(np.abs(back - x)) < 1e-9

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_pdf_integrates_to_one(self, dist):
        lo, hi = dist.support
        if not math.isfinite(hi):
            hi = dist.quantile(1.0 - 1e-13)
        total, _ = quad(dist.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_monotonicity(self, dist):
        x = interior_grid(dist, count=400)
        s = dist.survival(x)
        f = dist.cdf(x)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(np.diff(f) >= -1e-15)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_outside_support(self, dist):
        lo, hi = dist.support
        assert dist.survival(lo - 1.0) == 1.0
        assert dist.cdf(lo - 1.0) == 0.0
        assert dist.pdf(lo - 1.0) == 0.0
        if math.isfinite(hi):
            assert dist.survival(hi + 1.0) == 0.0
            assert dist.cdf(hi + 1.0) == 1.0
            assert dist.pdf(hi + 1.0) == 0.0


def points(dist):
    """Points inside, at the ends of and outside the support of ``dist``."""
    lo, hi = dist.support
    top = hi if math.isfinite(hi) else 50.0
    return st.one_of(
        st.floats(lo, top),
        st.sampled_from([lo, hi, -math.inf, math.inf]),
        st.floats(-1e3, lo, exclude_max=True),
        st.floats(hi, 1e3, exclude_min=True) if math.isfinite(hi) else st.nothing(),
        st.integers(-3, 3),
    )


class TestScalarAndArrayAgree:
    """The scalar route of pdf/cdf/survival returns the array route's bits."""

    @settings(deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("name", ["pdf", "cdf", "survival"])
    def test_bit_for_bit(self, name, data):
        dist = data.draw(st.sampled_from(ALL_FAMILIES))
        xs = data.draw(st.lists(points(dist), min_size=1, max_size=40))
        method = getattr(dist, name)
        values = [method(x) for x in xs]
        assert all(type(v) is float for v in values)
        scalars = np.array(values)
        zero_d = np.array([method(np.asarray(x, dtype=float)) for x in xs])
        array = method(np.array(xs, dtype=float))
        assert scalars.view(np.uint64).tolist() == array.view(np.uint64).tolist()
        assert zero_d.view(np.uint64).tolist() == array.view(np.uint64).tolist()

    @settings(deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("name", ["pdf", "cdf", "survival"])
    def test_nan_raises(self, name, data):
        dist = data.draw(st.sampled_from(ALL_FAMILIES))
        xs = data.draw(st.lists(points(dist), max_size=10))
        xs.insert(data.draw(st.integers(0, len(xs))), math.nan)
        method = getattr(dist, name)
        with pytest.raises(DomainError, match="nan"):
            method(math.nan)
        with pytest.raises(DomainError, match="nan"):
            method(np.float64(math.nan))
        with pytest.raises(DomainError, match="nan"):
            method(np.array(xs))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestWholeArrayPath:
    """An array wholly inside the support skips the masks, with the same bits.

    Appending one point outside the support sends the same points down
    the mask route, which hands the kernel only the inside points.
    """

    @staticmethod
    def layouts(x):
        return [x, x.T, x[:, ::3]]

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("name", ["pdf", "cdf", "survival"])
    def test_evaluations_match_mask_route(self, dist, name):
        method = getattr(dist, name)
        x = dist.quantile(np.random.default_rng(5).uniform(1e-9, 1.0 - 1e-9, (7, 30)))
        lo, hi = dist.support
        if name == "pdf":  # pdf counts the support ends as inside
            x[0, 0] = lo
            if math.isfinite(hi):
                x[-1, -1] = hi
        for view in self.layouts(x):
            whole = method(view)
            assert whole.shape == view.shape
            masked = method(np.append(view.ravel(), lo - 1.0))
            assert _bits(whole.ravel()) == _bits(masked[:-1])

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_quantile_matches_mask_route(self, dist, end):
        u = np.random.default_rng(6).uniform(1e-12, 1.0 - 1e-12, (9, 40))
        for view in self.layouts(u):
            whole = dist.quantile(view)
            assert whole.shape == view.shape
            masked = dist.quantile(np.append(view.ravel(), end))
            assert _bits(whole.ravel()) == _bits(masked[:-1])
            assert _bits(masked[-1]) == _bits(dist.support[int(end)])

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_empty_and_zero_d(self, dist):
        lo = dist.support[0]
        for name in ["pdf", "cdf", "survival", "quantile"]:
            method = getattr(dist, name)
            assert method(np.empty((0, 3))).shape == (0, 3)
            point = 0.3 if name == "quantile" else float(dist.quantile(0.3))
            outside = 0.0 if name == "quantile" else lo - 1.0
            value = method(np.asarray(point))
            assert type(value) is float
            assert _bits(value) == _bits(method(np.array([point, outside]))[0])

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_nan_still_raises(self, dist):
        x = dist.quantile(np.full((3, 4), 0.5))
        x[1, 2] = math.nan
        for name in ["pdf", "cdf", "survival"]:
            with pytest.raises(DomainError, match="nan"):
                getattr(dist, name)(x)
        with pytest.raises(DomainError):
            dist.quantile(np.array([[0.2, math.nan], [0.5, 0.7]]))

    def test_kernel_sees_the_whole_array(self, monkeypatch):
        dist = Exponential(1.0)
        seen = []
        kernel = dist._survival
        monkeypatch.setattr(dist, "_survival", lambda x: seen.append(x.shape) or kernel(x))
        dist.survival(np.full((4, 5), 0.5))
        dist.survival(np.array([0.5, -1.0, 0.7]))
        assert seen == [(4, 5), (2,)]


class TestSpecStrings:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("exp:rate=1", Exponential(1.0)),
            ("unif:a=0,b=1", Uniform(0.0, 1.0)),
            ("finite:a=2,b=3", FiniteRange(2.0, 3.0)),
            ("powerbeta:alpha=2", PowerBeta(2.0)),
            ("unif:b=1,a=0", Uniform(0.0, 1.0)),
            ("EXP:rate=0.5", Exponential(0.5)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_distribution(text) == expected

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_spec_string_round_trip(self, dist):
        assert parse_distribution(dist.spec_string()) == dist

    @pytest.mark.parametrize(
        "text",
        [
            "bogus:rate=1",
            "exp",
            "exp:",
            "exp:rate=abc",
            "exp:scale=1",
            "unif:a=0",
            "unif:a=1,b=0",
            "exp:rate=-1",
            "exp:rate=1,rate=2",
            "finite:a=0,b=1",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(SpecParseError):
            parse_distribution(text)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            Exponential(0.0)
        with pytest.raises(DomainError):
            Uniform(1.0, 1.0)
        with pytest.raises(DomainError):
            Uniform(-2.0, -1.0)
        with pytest.raises(DomainError):
            Uniform(-1.0, 1.0)
        with pytest.raises(DomainError):
            FiniteRange(-1.0, 2.0)
        with pytest.raises(DomainError):
            PowerBeta(0.0)
