import math
import sys
from fractions import Fraction

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
    crex,
    parse_distribution,
)
from crexlab.distributions import _number_text
from crexlab.simulation import _shape_digest, run_cell

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

    @pytest.mark.parametrize(
        "dist,end",
        [(FiniteRange(1.0, 0.2), 1.0), (PowerBeta(0.5), 0.0)],
        ids=["finite-b<1-upper", "powerbeta-alpha<1-lower"],
    )
    def test_unbounded_density_is_inf_at_its_end(self, dist, end):
        # a RuntimeWarning is an error in this suite: the end must give none
        assert dist.pdf(end) == math.inf
        assert np.array_equal(dist.pdf(np.array([end, 0.5])), [math.inf, float(dist.pdf(0.5))])

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

    @pytest.mark.parametrize(
        "law",
        [
            "exp:rate=1", "exp:rate=1e-300", "exp:rate=3.7",
            "unif:a=0,b=1", "unif:a=-0,b=2", "unif:a=2,b=3",
            "finite:a=2,b=3", "finite:a=0.3,b=0.62",
            "powerbeta:alpha=2", "powerbeta:alpha=0.1", "powerbeta:alpha=1", "powerbeta:alpha=1e300",
        ],
    )
    def test_kernel_maps_zero_to_the_support_start(self, law):
        # a drawn uniform lies in [0, 1) and goes to the kernel unchecked
        dist = parse_distribution(law)
        start = dist._quantile(np.zeros(3))
        assert start.tobytes() == np.full(3, dist.support[0]).tobytes()

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_quantile_checks_then_maps_the_ends(self, dist):
        # 1 is the support end with no warning (warnings are errors under
        # pytest), 0 and -0 the support start, sign included
        lo, hi = dist.support
        ends = dist.quantile(np.array([[0.0, 1.0], [-0.0, 1.0]]))
        assert ends.tobytes() == np.array([[lo, hi], [lo, hi]]).tobytes()
        for u, end in ((0.0, lo), (-0.0, lo), (1.0, hi), (np.float64(1.0), hi), (0.5, None)):
            value = dist.quantile(u)
            assert type(value) is float
            assert end is None or _bits(value) == _bits(end)
        for bad in (-2.0**-1074, 1.0 + 2.0**-52, math.nan, -math.inf, math.inf,
                    [0.5, math.nan], [[0.2, 1.5]]):
            with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
                dist.quantile(bad)


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


class TestInvalidArguments:
    """A nan or an out-of-range argument raises DomainError, never a silent nan."""

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.0, -1.0])
    def test_survival_power_must_be_positive_and_finite(self, dist, p):
        with pytest.raises(DomainError, match="survival power must be positive and finite"):
            dist.survival_power_integral(p)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_int_power_is_its_float(self, dist):
        # an int power reaches each family's tail as a float
        for lower in (0.0, 0.25):
            assert dist.survival_power_integral(3, lower) == dist.survival_power_integral(3.0, lower)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_nan_lower_limit_rejected(self, dist):
        with pytest.raises(DomainError, match="lower limit is nan"):
            dist.survival_power_integral(2.0, lower=math.nan)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_nan_mean_residual_life_rejected(self, dist):
        with pytest.raises(DomainError, match="nan"):
            dist.mean_residual_life(math.nan)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("t", [-5.0, -1e-300, -math.inf, -2])
    def test_negative_age_mean_residual_life_rejected(self, dist, t):
        # Uniform(2, 3) returned 2.5 at -5 where E[X + 5 | X > -5] is 7.5,
        # and Exponential(1) returned 1.0
        with pytest.raises(DomainError, match=f"age must be >= 0, got {float(t)}"):
            dist.mean_residual_life(t)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    @pytest.mark.parametrize("count", [2.5, True, "3", -1])
    def test_sample_count_must_be_a_nonnegative_integer(self, dist, count):
        with pytest.raises(DomainError, match="sample count must be"):
            dist.sample(np.random.default_rng(0), count)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_integer_sample_counts_accepted(self, dist):
        assert dist.sample(np.random.default_rng(0), 0).size == 0
        assert dist.sample(np.random.default_rng(0), np.int64(3)).size == 3


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
            # from an age at or past the support end, S is 0 all the way
            assert dist.survival_power_integral(2.0, lower=hi) == 0.0
            assert dist.survival_power_integral(2.0, lower=hi + 1.0) == 0.0



class TestPowerBetaTail:
    """``int_t^1 (1 - x**alpha)**p dx`` keeps its relative accuracy where ``S(t)**p`` is small."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 20.0, 52.0, 200.0])
    @pytest.mark.parametrize("t", [0.3, 0.7, 0.95])
    def test_square_root_law(self, p, t):
        # alpha = 1/2, x = u**2: 2 int_{sqrt t}^1 (1 - u)**p u du, w = 1 - sqrt(t)
        w = 1.0 - math.sqrt(t)
        exact = 2.0 * w ** (p + 1) * (1.0 / (p + 1) - w / (p + 2))
        tail = PowerBeta(0.5).survival_power_integral(p, lower=t)
        assert tail == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 7.5, 60.0, 300.0])
    @pytest.mark.parametrize("t", [0.3, 0.9])
    def test_uniform_law(self, p, t):
        exact = (1.0 - t) ** (p + 1) / (p + 1)
        tail = PowerBeta(1.0).survival_power_integral(p, lower=t)
        assert tail == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [2.0, 0.5, 1.0, 3.0, 0.3, 5.0, 0.1, 1e-300, 1e300])
    def test_integer_powers_from_zero_are_correctly_rounded(self, alpha):
        # p! / prod_{k=1..p} (k + 1/alpha) for the float 1/alpha, rounded once
        dist, inv = PowerBeta(alpha), Fraction(1.0 / alpha)
        for p in range(1, 65):
            exact = math.factorial(p) / math.prod(k + inv for k in range(1, p + 1))
            assert dist.survival_power_integral(p) == float(exact), p
        assert dist.mean() == float(1 / (1 + inv))

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    def test_integer_powers_at_an_age_match_exact_values(self, alpha):
        dist = PowerBeta(alpha)
        inv = Fraction(1, alpha)
        for t in AGES:
            for p, tail in enumerate(_exact_tails(alpha, t, 60), start=1):
                full = math.factorial(p) / math.prod(k + inv for k in range(1, p + 1))
                got = dist.survival_power_integral(p, lower=t)
                allowed = _tail_allowance(alpha, p, t, float(tail), float(full))
                assert abs(Fraction(got) - tail) <= allowed, (t, p)

    # non-integer powers, and integer powers past _EXACT_POWER_CAP (64)
    @pytest.mark.parametrize("p", [1.5, 7.5, 20.25, 63.5, 65.0, 66.0, 100.5, 300.0, 1000.0])
    @pytest.mark.parametrize("alpha", [2.0, 0.5, 3.0, 0.3])
    def test_other_powers_keep_the_recurrence(self, alpha, p):
        # integration by parts: (1 + alpha p) J_p = alpha p J_{p-1} - t S(t)**p
        dist = PowerBeta(alpha)
        for t in [0.0] + AGES[::3]:
            j, j_less = (dist.survival_power_integral(q, lower=t) for q in (p, p - 1.0))
            full, full_less = (dist.survival_power_integral(q) for q in (p, p - 1.0))
            v = t**alpha
            s = 1.0 - v
            boundary = t * s**p
            # p roundings of S(t) in S(t)**p, and one of the power
            boundary_allowed = boundary * (p * (math.ulp(s) / 2 + math.ulp(v)) / s + EPS)
            allowed = (
                (1.0 + alpha * p) * _tail_allowance(alpha, p, t, j, full)
                + alpha * p * _tail_allowance(alpha, p - 1.0, t, j_less, full_less)
                + boundary_allowed
                # the three products and two sums of the check itself
                + 3 * EPS * alpha * p * j_less
            )
            assert abs((1.0 + alpha * p) * j + boundary - alpha * p * j_less) <= allowed, t


EPS = sys.float_info.epsilon
AGES = [k / 20 for k in range(1, 20)]


def _exact_tails(alpha, t, top):
    """``int_t^1 (1 - x**alpha)**p dx`` at the float ``t`` for p = 1..top, as Fractions.

    The binomial expansion ``sum_k C(p, k) (-1)**k (1 - t**(alpha k + 1)) /
    (alpha k + 1)`` over one common denominator, for an integer alpha.
    """
    num, den = t.as_integer_ratio()
    exps = [alpha * k + 1 for k in range(top + 1)]
    lcm = math.lcm(*exps)
    last = exps[-1]
    # term k over the denominator den**last * lcm
    terms = [(den**e - num**e) * den ** (last - e) * (lcm // e) for e in exps]
    return [
        Fraction(sum((-1) ** k * math.comb(p, k) * terms[k] for k in range(p + 1)), den**last * lcm)
        for p in range(1, top + 1)
    ]


def _tail_allowance(alpha, p, t, tail, full):
    """How far a route may miss ``tail = int_t^1 (1 - x**alpha)**p dx``; ``full`` is its value from 0.

    Two terms, derived from where the roundings enter:
    - The age enters through the float S(t) = 1 - t**alpha, off by at most
      half an ulp of S plus an ulp of t**alpha, and the tail moves by
      ``dJ/dS = t S**p / (alpha t**alpha)`` per unit of S.  Where the tail
      is about S**(p + 1), this is p + 1 roundings of S.
    - c (p + 2) eps of the scale, c = 4: p + 1 roundings of a route's own
      S(t) raised to the power p + 1, one of the power, and a few more for
      the beta function or continued fraction and the products around it.
      The scale is the tail, except past S = (p + 2) / (p + 1/alpha + 3),
      where the continued fraction of the tail converges slowly
      (Numerical Recipes 6.4, DiDonato & Morris 1992): there a route
      takes the full integral less the head, and rounds on the scale of
      their sum, ``full + (full - tail)``.

    Below the smallest normal float a value has lost digits, whatever the
    route: that float is added to the allowance.
    """
    if t == 0.0:
        return 4 * (p + 2) * EPS * tail + sys.float_info.min
    v = t**alpha
    s = 1.0 - v
    shift = t * s**p / (alpha * v) * (math.ulp(s) / 2 + math.ulp(v))
    scale = tail if s < (p + 2) / (p + 1 / alpha + 3) else 2 * full - tail
    return shift + 4 * (p + 2) * EPS * scale + sys.float_info.min


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
    """A scalar argument to pdf/cdf/survival returns a float with the array's bits."""

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
    """An array wholly inside the support keeps its shape and its bits.

    Appending one point outside the support changes no other point's
    bits: the checked evaluators hand the kernel the inside points, in
    one array, whatever the argument's shape and layout.
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

    # every finite positive float, from subnormal to huge; the law's own
    # check may reject it, as it rejects a rate whose draws overflow
    POSITIVE = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
    LAWS = {
        "exp": st.builds(Exponential, POSITIVE),
        "unif": st.tuples(st.floats(0.0, 1e300), POSITIVE).map(lambda p: (p[0], p[0] + p[1])),
        "finite": st.builds(FiniteRange, POSITIVE, POSITIVE),
        "powerbeta": st.builds(PowerBeta, POSITIVE),
    }

    @pytest.mark.parametrize("family", list(LAWS))
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_spec_string_round_trips_every_law(self, family, data):
        try:
            law = data.draw(self.LAWS[family])
            if family == "unif":
                law = Uniform(*law)
        except DomainError:
            return
        assert parse_distribution(law.spec_string()) == law
        assert eval(repr(law)) == law

    def test_laws_that_differ_get_different_digests(self):
        # both rates printed rate=0.123457 and so shared every stream
        first, second = Exponential(0.1234567), Exponential(0.1234568)
        assert (first.spec_string(), second.spec_string()) == (
            "exp:rate=0.1234567",
            "exp:rate=0.1234568",
        )
        assert repr(first) == "Exponential(rate=0.1234567)"
        digests = [_shape_digest(law.spec_string(), False, 2, 3) for law in (first, second)]
        assert digests[0] != digests[1]
        assert crex(first).value != crex(second).value
        # a law whose :g text reads back keeps its text, and so its digest and streams
        assert Exponential(1 / 3).spec_string() == "exp:rate=0.3333333333333333"
        assert PowerBeta(2.0).spec_string() == "powerbeta:alpha=2"

    @pytest.mark.parametrize(
        "dist,shown,params",
        [
            (Exponential(0.5), "Exponential(rate=0.5)", "rate=0.5"),
            (Uniform(2.0, 3.0), "Uniform(a=2, b=3)", "a=2,b=3"),
            (FiniteRange(0.5, 0.7), "FiniteRange(a=0.5, b=0.7)", "a=0.5,b=0.7"),
            (PowerBeta(0.3), "PowerBeta(alpha=0.3)", "alpha=0.3"),
        ],
        ids=["exp", "unif", "finite", "powerbeta"],
    )
    def test_each_family_names_its_params(self, dist, shown, params):
        assert (repr(dist), dist.param_text()) == (shown, params)
        assert dist.spec_string() == f"{dist.family}:{params}"
        assert parse_distribution(dist.spec_string()) == dist

    @pytest.mark.parametrize("dist", ALL_FAMILIES + [Exponential(0.1234567)], ids=repr)
    def test_kept_text_equals_a_fresh_derivation(self, dist):
        # the text is derived once per instance; a new instance derives it again
        fresh = ",".join(f"{k}={_number_text(v)}" for k, v in dist.param_items())
        twin = type(dist)(*(value for _, value in dist.param_items()))
        assert dist.param_text() == dist.param_text() == twin.param_text() == fresh
        assert dist.spec_string() == f"{dist.family}:{fresh}"

    def test_negative_zero_is_the_law_at_zero(self):
        # Uniform(-0.0, 1) equals Uniform(0, 1) and used to print a=-0, which
        # gave it other digests and streams
        laws = [Uniform(-0.0, 1.0), Uniform(0.0, 1.0), parse_distribution("unif:a=-0,b=1")]
        assert math.copysign(1.0, laws[0].a) == 1.0
        assert {law.spec_string() for law in laws} == {"unif:a=0,b=1"}
        assert repr(laws[0]) == "Uniform(a=0, b=1)"
        rows = {run_cell(law, "rn", 2, 2, 5, base_seed=1) for law in laws}
        assert len(rows) == 1

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

    @pytest.mark.parametrize(
        "law,smallest",
        [(Exponential, 2.043552364819525e-307),
         (lambda a: FiniteRange(a, 1.0), 5.562684646268003e-309)],
        ids=["exp", "finite"],
    )
    def test_law_whose_draws_overflow_is_rejected(self, law, smallest):
        # the smallest parameter whose quantile at the largest float below 1 is
        # finite; a warning is an error in this suite, so no line may warn
        top = law(smallest).quantile(np.array([np.nextafter(1.0, 0.0)]))
        assert np.isfinite(top).all()
        for param in (np.nextafter(smallest, 0.0), 1e-320):
            with pytest.raises(DomainError, match="has quantile inf at the largest float below 1$"):
                law(param)
        with pytest.raises(SpecParseError, match=r"^exp:rate=9\.99989e-321 has quantile inf"):
            parse_distribution("exp:rate=1e-320")

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

    @pytest.mark.parametrize("alpha", [5e-324, 5.5e-309])
    def test_powerbeta_whose_inverse_overflows_is_a_domain_error(self, alpha):
        # 1/alpha is inf: the mean was nan, with a RuntimeWarning
        with pytest.raises(DomainError, match="finite 1/alpha"):
            PowerBeta(alpha)
        with pytest.raises(SpecParseError, match="finite 1/alpha"):
            parse_distribution(f"powerbeta:alpha={alpha!r}")
        # the least alpha with a finite 1/alpha keeps its mean alpha / (1 + alpha)
        least = 5.56268464626801e-309
        assert math.isinf(1.0 / math.nextafter(least, 0.0))
        assert PowerBeta(least).mean() == least
        # int_t^1 (1 - x**alpha) dx is alpha int_t^1 -ln x dx to first order
        tail = PowerBeta(least).survival_power_integral(1.0, lower=0.5)
        assert tail == pytest.approx(least * (0.5 - 0.5 * math.log(2.0)), rel=1e-12)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Exponential("1"), "exponential parameter rate must be a real number, got '1'"),
            (lambda: Uniform(0, "1"), "uniform parameter b must be a real number, got '1'"),
            (lambda: PowerBeta(None), "powerbeta parameter alpha must be a real number, got None"),
            (lambda: FiniteRange(1, [2]), "finite-range parameter b must be a real number, got \\[2\\]"),
            (lambda: Exponential(True), "exponential parameter rate must be a real number, got True"),
            (
                lambda: Exponential(10**400),
                "exponential parameter rate must be finite, got a 1329-bit integer$",
            ),
        ],
        ids=["exp-text", "unif-text", "powerbeta-none", "finite-list", "exp-bool", "exp-huge-int"],
    )
    def test_non_real_parameter_is_a_domain_error(self, build, message):
        # each of the first four used to end in a bare TypeError
        with pytest.raises(DomainError, match=f"^{message}"):
            build()


class TestQuantileKernels:
    """The proof obligation of the grid, which checks no value it draws.

    A drawn uniform U lies in ``[0, 1 - 2**-53]``.  Every family's kernel
    ``_quantile`` maps it, and ``_log_survival_quantile`` maps ``log1p(-U)
    / i`` for every set size i, to a finite point of the support, which
    starts at 0 or above: every grid sample is finite and nonnegative, as
    the order-statistic estimators require.
    """

    TOP = 1.0 - 2.0**-53
    UNIFORMS = st.one_of(st.floats(0.0, TOP), st.sampled_from([0.0, 5e-324, 0.5, TOP]))

    @pytest.mark.parametrize("family", list(TestSpecStrings.LAWS))
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_drawn_uniforms_map_into_the_support(self, family, data):
        try:
            law = data.draw(TestSpecStrings.LAWS[family])
            if family == "unif":
                law = Uniform(*law)
        except DomainError:
            return
        u = np.array(data.draw(st.lists(self.UNIFORMS, min_size=1, max_size=8)))
        lo, hi = law.support
        x = law._quantile(u)
        assert lo >= 0.0
        assert np.isfinite(x).all()
        assert ((lo <= x) & (x <= hi)).all(), (law, u[(x < lo) | (x > hi)])
        ell = np.log1p(-u)
        for i in range(1, 31):
            y = law._log_survival_quantile(ell / i)
            assert np.isfinite(y).all(), (law, i, u[~np.isfinite(y)])
            assert ((lo <= y) & (y <= hi)).all(), (law, i, u[(y < lo) | (y > hi)])
            # a uniform of 0 is the support start, never -0.0
            start = y[u == 0.0]
            assert (start == lo).all() and not np.signbit(start).any(), (law, i)
