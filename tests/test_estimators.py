import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from crexlab import (
    CellError,
    DivergenceError,
    DomainError,
    EmpiricalSurvival,
    EstimatorKind,
    EstimatorSpec,
    Exponential,
    MinRssuSample,
    ParameterError,
    PowerBeta,
    PsiFamily,
    SimulationConfig,
    SizeError,
    SpecParseError,
    Uniform,
    asymptotic_variance_minrssu,
    asymptotic_variance_srs,
    crex,
    draw_minrssu,
    lstat,
    lstat_adjusted,
    parse_distribution,
    pooled_order_statistics,
    psi,
    rmn,
    rn,
    run_cell,
    run_grid,
    vn,
)
from crexlab._quadrature import double_quad_kinked, truncation_point
from crexlab.estimators import _psi, estimate, row_estimates, row_estimator, row_weights
from crexlab.simulation import LSTAT_ADJ_W_GRID

# exact rationals for the limit variances, derived by hand via the
# substitution u = S(x) and polynomial integration; the quadrature
# routines must reproduce them and Monte Carlo confirms them in the
# acceptance suite
SRS_VARIANCE_UNIFORM = 1.0 / 45.0
SRS_VARIANCE_EXPONENTIAL = 1.0 / 12.0
MINRSSU_VARIANCE_UNIFORM_M2 = 497.0 / 33600.0
MINRSSU_VARIANCE_EXPONENTIAL_M2 = 239.0 / 5760.0


def sample_of(values, m=None):
    values = np.asarray(values, dtype=float)
    if m is None:
        m = values.size
    return MinRssuSample(m=m, l=values.size // m, values=values.reshape(-1, m))


def survival_square_integral(values):
    """Independent route: midpoint evaluation of the squared step function."""
    es = EmpiricalSurvival(values)
    xs = es.order_stats
    mids = 0.5 * (xs[:-1] + xs[1:])
    heights = es.survival(mids)
    return float(np.sum(heights**2 * np.diff(xs)))


class TestVn:
    def test_hand_value(self):
        # (2/3)^2 * 1 + (1/3)^2 * 2 = 2/3, halved and negated
        assert vn([1.0, 2.0, 4.0]) == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert vn([1.0, 2.0, 4.0]) == pytest.approx(
            -0.5 * survival_square_integral([1.0, 2.0, 4.0]), abs=1e-15
        )

    def test_all_equal_is_zero(self):
        assert vn([3.0, 3.0, 3.0]) == 0.0

    def test_size_error(self):
        with pytest.raises(SizeError):
            vn([1.0])

    def test_matches_empirical_survival_integral(self):
        rng = np.random.default_rng(20)
        for n in (2, 5, 23, 101):
            values = rng.exponential(size=n)
            assert vn(values) == pytest.approx(
                -0.5 * survival_square_integral(values), abs=1e-12
            )

    def test_consistency_exponential(self):
        rng = np.random.default_rng(21)
        draws = rng.exponential(size=10**4)
        assert abs(vn(draws) - (-0.25)) < 0.02

    def test_affine_rules(self):
        rng = np.random.default_rng(22)
        values = rng.exponential(size=50)
        assert vn(2.5 * values) == pytest.approx(2.5 * vn(values), rel=1e-14)
        assert vn(values + 3.0) == pytest.approx(vn(values), rel=1e-12)


class TestRn:
    def test_m1_equals_vn(self):
        rng = np.random.default_rng(23)
        values = rng.exponential(size=10)
        assert rn(sample_of(values, m=1)) == pytest.approx(vn(values), abs=1e-15)

    def test_pooled_hand_value(self):
        assert rn(sample_of([1.0, 2.0, 4.0], m=3)) == pytest.approx(
            -1.0 / 3.0, abs=1e-15
        )

    def test_all_equal_is_zero(self):
        assert rn(sample_of([5.0, 5.0, 5.0, 5.0], m=2)) == 0.0


class TestRmn:
    def test_reduces_to_rn_when_denominator_is_n(self):
        s = draw_minrssu(Exponential(1.0), 2, 3, np.random.default_rng(24))
        assert rmn(s, -s.m) == pytest.approx(rn(s), abs=1e-15)

    def test_hand_value(self):
        # pooled {1,2,4}, m=2, w=1: denominator 6
        # -(1/2) [1*(5/6)^2 + 2*(4/6)^2] = -(25/72 + 32/72) = -57/72
        value = rmn([1.0, 2.0, 4.0], w=1, m=2)
        weights = [(1 - k / 6.0) ** 2 for k in (1, 2)]
        oracle = -0.5 * (1.0 * weights[0] + 2.0 * weights[1])
        assert value == pytest.approx(-57.0 / 72.0, abs=1e-15)
        assert value == pytest.approx(oracle, abs=1e-15)

    def test_rejects_nonpositive_weights(self):
        s = draw_minrssu(Exponential(1.0), 2, 2, np.random.default_rng(25))
        with pytest.raises(ParameterError):
            rmn(s, -s.m - 1)
        with pytest.raises(ParameterError):
            rmn(s, -100)

    def test_plain_array_needs_m(self):
        with pytest.raises(ParameterError):
            rmn([1.0, 2.0, 4.0], w=1)

    @pytest.mark.parametrize("m", [2.5, 0, -1, True, "3"])
    def test_explicit_m_must_be_a_count(self, m):
        values = [0.3, 1.2, 0.5, 2.2, 0.9, 1.7, 0.1]
        with pytest.raises(DomainError, match="m must be"):
            rmn(values, 2, m=m)
        # a valid m keeps its value, whatever its integer type
        assert rmn(values, 2, m=np.int64(2)) == rmn(values, 2, m=2)

    @pytest.mark.parametrize("w", [0.7, -0.5, True, "1"])
    def test_w_must_be_an_integer(self, w):
        # 0.7 used to run w=0 and True w=1
        values = [0.3, 1.2, 0.5, 2.2, 0.9, 1.7, 0.1]
        with pytest.raises(DomainError, match="w must be an integer"):
            rmn(values, w, m=2)
        assert rmn(values, np.int64(1), m=2) == rmn(values, 1, m=2)


class TestLstat:
    def test_hand_value(self):
        # -(1/3)[(2/3)*1 + (1/3)*2 + 0*4] = -4/9
        assert lstat([1.0, 2.0, 4.0]) == pytest.approx(-4.0 / 9.0, abs=1e-15)

    def test_plug_in_oracle(self):
        # independent route: -(1/n) sum x_(i) * Shat(x_(i)) via the step function
        rng = np.random.default_rng(26)
        values = rng.exponential(size=40)
        es = EmpiricalSurvival(values)
        oracle = -float(np.sum(es.order_stats * es.survival(es.order_stats))) / es.n
        assert lstat(values) == pytest.approx(oracle, abs=1e-13)

    def test_single_point_is_zero(self):
        assert lstat([4.2]) == 0.0

    def test_consistency_uniform(self):
        rng = np.random.default_rng(27)
        draws = rng.random(10**4)
        assert abs(lstat(draws) - (-1.0 / 6.0)) < 0.01

    def test_scale_covariance_but_not_shift_invariance(self):
        rng = np.random.default_rng(28)
        values = rng.random(30)
        assert lstat(3.0 * values) == pytest.approx(3.0 * lstat(values), rel=1e-14)
        assert lstat(values + 1.0) != pytest.approx(lstat(values), abs=1e-6)

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            lstat([-1.0, 2.0])


class TestPsi:
    def test_anchor_values(self):
        assert psi("exp", 2, 0) == -2
        assert psi("unif", 2, 0) == 7
        assert psi("beta", 3, 1) == 2

    def test_exponential_table(self):
        # 5m - 4k + w with k = (3, 2, 1, 0)
        for m, base in [(2, -2), (3, 7), (4, 16), (5, 25)]:
            for w in (-3, 0, 4):
                assert psi(PsiFamily.EXPONENTIAL, m, w) == base + w

    def test_uniform_table(self):
        # 3m - (2k + 1) + w with k = (-1, 0, 1, 2)
        for m, base in [(2, 7), (3, 8), (4, 9), (5, 10)]:
            for w in (-3, 0, 4):
                assert psi(PsiFamily.UNIFORM, m, w) == base + w

    def test_beta_any_m(self):
        assert psi(PsiFamily.BETA, 7, 2) == 5
        assert psi(PsiFamily.BETA, 1, 0) == 1

    def test_domain_errors(self):
        for m in (1, 6):
            with pytest.raises(DomainError):
                psi(PsiFamily.EXPONENTIAL, m, 0)
            with pytest.raises(DomainError):
                psi(PsiFamily.UNIFORM, m, 0)

    def test_unknown_family_is_a_spec_parse_error(self):
        with pytest.raises(SpecParseError, match="unknown psi family 'zzz'"):
            psi("zzz", 2, 0)

    @pytest.mark.parametrize("family", ["exp", "unif", "beta"])
    def test_w_must_be_an_integer(self, family):
        # w=0.5 used to run w=0, in psi and in lstat_adjusted alike
        s = draw_minrssu(Exponential(1.0), 3, 2, np.random.default_rng(31))
        for w in (0.5, True, "0"):
            with pytest.raises(DomainError, match="w must be an integer"):
                psi(family, 3, w)
            with pytest.raises(DomainError, match="w must be an integer"):
                lstat_adjusted(s, family, w)
        assert psi(family, np.int64(3), np.int32(1)) == psi(family, 3, 1)
        assert type(psi(family, np.int64(3), np.int32(1))) is int
        assert lstat_adjusted(s, family, np.int64(1)) == lstat_adjusted(s, family, 1)

    @pytest.mark.parametrize("family", list(PsiFamily))
    def test_kernel_matches_the_checked_psi(self, family):
        # every w a protocol grid tunes at m, under every family
        for m in (2, 3, 4, 5):
            for w in sorted({w for grid in LSTAT_ADJ_W_GRID.values() for w in grid[m]}):
                assert _psi(family, m, w) == psi(family, m, w)

    def test_sample_keeps_a_numpy_m_as_an_int(self):
        # the estimators take a sample's m unchecked: a numpy m overflowed
        # the C long of n + m + w, or of psi, for a w past 2**63
        s = MinRssuSample(m=np.int64(2), l=np.int32(2), values=np.ones((2, 2)))
        assert type(s.m) is int and type(s.l) is int
        assert rmn(s, 10**30) == rmn(MinRssuSample(2, 2, np.ones((2, 2))), 10**30)
        assert lstat_adjusted(s, "exp", 10**30) == -1.0

    @pytest.mark.parametrize("family", ["exp", "unif"])
    def test_grid_cell_outside_the_m_range_fails_with_the_psi_message(self, family):
        # the grid calls the unchecked kernel, which keeps psi's m-range error
        cfg = SimulationConfig(
            distribution="exp:rate=1", m_values=(2, 6), l_values=(2,),
            estimators=("lstat_adj",), w_lists={"lstat_adj": (0,)}, psi_family=family,
            replications=3, base_seed=1,
        )
        result = run_grid(cfg)
        assert [row.m for row in result.rows] == [2]
        [failure] = result.failures
        assert isinstance(failure, CellError) and failure.coordinates["m"] == 6
        with pytest.raises(DomainError) as info:
            psi(family, 6, 0)
        assert type(failure.cause) is DomainError and str(failure.cause) == str(info.value)
        assert str(info.value) == f"psi family {family!r} is defined for m = 2..5, got 6"


class TestLstatAdjusted:
    def test_zero_offset_reduces_to_lstat(self):
        s = draw_minrssu(PowerBeta(2.0), 3, 4, np.random.default_rng(29))
        # beta family at w = m gives psi = 0
        assert lstat_adjusted(s, PsiFamily.BETA, w=s.m) == pytest.approx(
            lstat(pooled_order_statistics(s)), abs=1e-15
        )

    def test_hand_value(self):
        # pooled {1,2,4}, psi=3 (beta family, m=3, w=0): denominator 6
        # -(1/3)(5/6 + 8/6 + 12/6) = -25/18
        s = sample_of([1.0, 2.0, 4.0], m=3)
        value = lstat_adjusted(s, PsiFamily.BETA, w=0)
        oracle = -(sum((1 - i / 6.0) * x for i, x in [(1, 1.0), (2, 2.0), (3, 4.0)])) / 3.0
        assert value == pytest.approx(-25.0 / 18.0, abs=1e-15)
        assert value == pytest.approx(oracle, abs=1e-15)

    def test_rejects_nonpositive_denominator(self):
        # exp family at m=2, w=-11 gives psi = -13; n = 4
        s = draw_minrssu(Exponential(1.0), 2, 2, np.random.default_rng(30))
        with pytest.raises(ParameterError):
            lstat_adjusted(s, PsiFamily.EXPONENTIAL, w=-11)

    def test_unknown_family_is_a_spec_parse_error(self):
        s = draw_minrssu(Exponential(1.0), 2, 2, np.random.default_rng(30))
        with pytest.raises(SpecParseError, match="unknown psi family 'zzz'"):
            lstat_adjusted(s, "zzz", 0)
        assert lstat_adjusted(s, "beta", 0) == lstat_adjusted(s, PsiFamily.BETA, 0)


class TestEstimatorSpec:
    @pytest.mark.parametrize(
        "text, kind, w, family",
        [
            ("vn", EstimatorKind.VN, None, None),
            ("rn", EstimatorKind.RN, None, None),
            ("rmn:w=-2", EstimatorKind.RMN, -2, None),
            ("lstat", EstimatorKind.LSTAT, None, None),
            (
                "lstat_adj:family=exp,w=0",
                EstimatorKind.LSTAT_ADJUSTED,
                0,
                PsiFamily.EXPONENTIAL,
            ),
            (
                "lstat_adj:w=3,family=beta",
                EstimatorKind.LSTAT_ADJUSTED,
                3,
                PsiFamily.BETA,
            ),
            (" RMN : w = -2 ", EstimatorKind.RMN, -2, None),
            ("Lstat_Adj:family= UNIF ,w=+1", EstimatorKind.LSTAT_ADJUSTED, 1, PsiFamily.UNIFORM),
            ("vn:", EstimatorKind.VN, None, None),
        ],
    )
    def test_parse(self, text, kind, w, family):
        spec = EstimatorSpec.parse(text)
        assert spec.kind is kind and spec.w == w and spec.psi_family is family
        assert EstimatorSpec.parse(spec.text()) == spec

    @pytest.mark.parametrize(
        "text,short",
        [
            ("vn", "vn"),
            ("rn", "rn"),
            ("rmn:w=-2", "rmn"),
            ("lstat", "lstat"),
            ("lstat_adj:family=beta,w=3", "lstat_adj:family=beta"),
        ],
    )
    def test_kept_text_equals_a_fresh_derivation(self, text, short):
        # both texts are derived on construction and kept; a copy derives them again
        spec = EstimatorSpec.parse(text)
        for _ in range(2):
            assert (spec.text(), spec.text(with_w=False)) == (text, short)
        twin = EstimatorSpec(spec.kind, w=spec.w, psi_family=spec.psi_family)
        assert (twin.text(with_w=False), twin.text()) == (short, text)

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",
            "vn:w=1",
            "rmn",
            "rmn:w=x",
            "lstat_adj:w=0",
            "lstat_adj:family=exp",
            "lstat_adj:family=nope,w=0",
            "rmn:q=2",
            "rmn:w",
            "rmn:w=1,",
            "rmn:w=1,w=2",
            "rmn: w=1 ,w =1",
            "lstat_adj:family=exp,family=unif,w=0",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(SpecParseError):
            EstimatorSpec.parse(text)

    @pytest.mark.parametrize("kind", [EstimatorKind.RMN, EstimatorKind.LSTAT_ADJUSTED])
    def test_w_must_be_an_integer(self, kind):
        family = "exp" if kind is EstimatorKind.LSTAT_ADJUSTED else None
        for w in (0.7, True, "2"):
            with pytest.raises(DomainError, match="w must be an integer"):
                EstimatorSpec(kind, w=w, psi_family=family)
        spec = EstimatorSpec(kind, w=np.int64(2), psi_family=family)
        assert type(spec.w) is int and spec == EstimatorSpec(kind, w=2, psi_family=family)


# spec-like text: the heads, keys and values both grammars know, joined by
# their separators, mixed with arbitrary characters
_SPEC_WORDS = st.sampled_from(
    ["exp", "unif", "finite", "powerbeta", "vn", "rn", "rmn", "lstat", "lstat_adj",
     "rate", "a", "b", "alpha", "w", "family", "beta", "0", "-2", "0.5", "1e400", "nan",
     ":", ",", "=", " "]
)
SPEC_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(_SPEC_WORDS, st.text(max_size=2)), max_size=12).map("".join),
)


@settings(deadline=None)
@given(text=SPEC_TEXT)
@pytest.mark.parametrize(
    "parse", [parse_distribution, EstimatorSpec.parse], ids=["distribution", "estimator"]
)
def test_any_spec_text_parses_or_raises_spec_parse_error(parse, text):
    try:
        parse(text)
    except SpecParseError:
        pass


class TestEmpiricalSurvival:
    def test_step_values(self):
        es = EmpiricalSurvival([1.0, 2.0, 4.0])
        assert es.survival(0.5) == 1.0
        assert es.survival(1.0) == pytest.approx(2.0 / 3.0)
        assert es.survival(1.5) == pytest.approx(2.0 / 3.0)
        assert es.survival(2.0) == pytest.approx(1.0 / 3.0)
        assert es.survival(4.0) == 0.0
        assert es.survival(9.9) == 0.0

    def test_complementarity(self):
        es = EmpiricalSurvival([3.0, 1.0, 2.0])
        x = np.linspace(0.0, 5.0, 101)
        np.testing.assert_allclose(es.survival(x) + es.cdf(x), 1.0, atol=1e-15)

    def test_nan_raises(self):
        es = EmpiricalSurvival([1.0, 2.0, 4.0])
        for x in [np.nan, np.array([1.5, np.nan])]:
            with pytest.raises(DomainError, match="nan"):
                es.survival(x)
            with pytest.raises(DomainError, match="nan"):
                es.cdf(x)


class TestAsymptoticVariances:
    def test_srs_uniform(self):
        assert asymptotic_variance_srs(Uniform(0.0, 1.0)) == pytest.approx(
            SRS_VARIANCE_UNIFORM, rel=1e-14, abs=0.0
        )

    def test_srs_exponential(self):
        assert asymptotic_variance_srs(Exponential(1.0)) == pytest.approx(
            SRS_VARIANCE_EXPONENTIAL, rel=1e-14, abs=0.0
        )

    def test_srs_near_degenerate_limit(self):
        # point-mass limit: the covariance kernel vanishes
        assert asymptotic_variance_srs(Uniform(0.0, 1e-9)) < 1e-12

    def test_minrssu_m1_equals_srs(self):
        # SRS is the one-set case of the same path: equal to the last bit
        for dist in (Uniform(0.0, 1.0), Exponential(1.0), PowerBeta(2.0)):
            assert asymptotic_variance_minrssu(dist, 1) == asymptotic_variance_srs(dist)

    def test_minrssu_uniform_m2(self):
        assert asymptotic_variance_minrssu(Uniform(0.0, 1.0), 2) == pytest.approx(
            MINRSSU_VARIANCE_UNIFORM_M2, abs=1e-12
        )

    def test_minrssu_exponential_m2(self):
        assert asymptotic_variance_minrssu(Exponential(1.0), 2) == pytest.approx(
            MINRSSU_VARIANCE_EXPONENTIAL_M2, abs=1e-10
        )

    def test_minrssu_positive_finite(self):
        for m in (2, 3, 5):
            v = asymptotic_variance_minrssu(PowerBeta(2.0), m)
            assert 0.0 < v < 1.0

    def test_srs_wide_uniform_against_monte_carlo(self):
        # no closed claim for the scaled family: the quadrature value is
        # held to a seeded Monte Carlo oracle only
        d = Uniform(0.0, 2.0)
        quad_value = asymptotic_variance_srs(d)
        true_value = float(crex(d))
        n, reps = 1000, 1500
        rng = np.random.default_rng(55)
        z = np.array(
            [np.sqrt(n) * (lstat(d.sample(rng, n)) - true_value) for _ in range(reps)]
        )
        assert abs(z.var(ddof=1) / quad_value - 1.0) < 0.10

    def test_minrssu_exponential_against_monte_carlo(self):
        d = Exponential(1.0)
        quad_value = asymptotic_variance_minrssu(d, 2)
        true_value = float(crex(d))
        n, reps = 1000, 1500
        rng = np.random.default_rng(56)
        z = np.array(
            [
                np.sqrt(n)
                * (
                    lstat_adjusted(draw_minrssu(d, 2, n // 2, rng), PsiFamily.BETA, w=2)
                    - true_value
                )
                for _ in range(reps)
            ]
        )
        assert abs(z.var(ddof=1) / quad_value - 1.0) < 0.10


@functools.cache
def graded_rule(n):
    """Gauss-Legendre on [0, 1] through ``u**3 / (u**3 + (1 - u)**3)``: nodes, weights."""
    z, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (z + 1.0)
    g = u**3 / (u**3 + (1.0 - u) ** 3)
    dg = 3.0 * u**2 * (1.0 - u) ** 2 / (u**3 + (1.0 - u) ** 3) ** 2
    return g, 0.5 * w * dg


def reference_variances(dist, ms, nodes=1024):
    """Reference: the covariance integrand as written, on a graded tensor grid.

    Twice ``int int_{y >= x} P(S(x)) P(S(y)) [P(S(y)) - P(S(x) S(y))]``
    with the mixture survival ``P(u) = (1/m) sum_{i<=m} u**i``, one value
    per ``m`` in ``ms``.
    """
    lo, hi = max(0.0, dist.support[0]), truncation_point(dist)
    t, w = graded_rule(nodes)
    x = lo + t * (hi - lo)
    X = x[:, None]
    s_x, s_y = dist.survival(X), dist.survival(X + t[None, :] * (hi - X))
    bases = (s_x, s_y, s_x * s_y)
    # the running s**m and sum_{i<=m} s**i of each base
    powers = [np.ones_like(s) for s in bases]
    sums = [np.zeros_like(s) for s in bases]
    out = {}
    for m in range(1, max(ms) + 1):
        powers = [power * s for power, s in zip(powers, bases)]
        sums = [total + power for total, power in zip(sums, powers)]
        if m in ms:
            p_x, p_y, p_xy = sums
            inner = p_x * p_y * (p_y - p_xy) / m**3
            out[m] = 2.0 * float(np.sum((hi - lo) * w * (hi - x) * (inner @ w)))
    return out


# exp, unif, finite and powerbeta, with an infinite slope of S at an end of
# the support for finite b < 1 and powerbeta alpha < 1
REFERENCE_SPECS = [
    "exp:rate=1",
    "exp:rate=3",
    "unif:a=0,b=1",
    "unif:a=2,b=3",
    "finite:a=2,b=3",
    "finite:a=1,b=0.2",
    "finite:a=0.3,b=0.62",
    "powerbeta:alpha=2",
    "powerbeta:alpha=0.7",
    "powerbeta:alpha=0.3",
    "powerbeta:alpha=0.1",
]


class TestVarianceKernel:
    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    def test_matches_graded_reference(self, spec):
        dist = parse_distribution(spec)
        reference = reference_variances(dist, (1, 2, 3, 5))
        assert asymptotic_variance_srs(dist) == pytest.approx(reference[1], rel=1e-11, abs=0.0)
        for m, value in reference.items():
            assert asymptotic_variance_minrssu(dist, m) == pytest.approx(value, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("spec", ["exp:rate=1", "powerbeta:alpha=2"])
    def test_many_sets_match_graded_reference(self, spec):
        # S(y)**(2m) is a narrow peak at y = x for large m: the refinement
        # check must pass wherever the returned value is accurate
        dist = parse_distribution(spec)
        ms = range(20, 101)
        reference = reference_variances(dist, ms)
        for m in ms:
            assert asymptotic_variance_minrssu(dist, m) == pytest.approx(
                reference[m], rel=1e-11, abs=0.0
            )

    def test_refinement_error_raises(self):
        # S jumps at 0.3: the grid resolves the jump at first order only, so
        # the passes at both node counts differ far beyond the tolerance
        def survival(x):
            return (1.0 - x) * np.where(x < 0.3, 1.0, 0.5)

        with pytest.raises(DivergenceError, match="did not converge"):
            double_quad_kinked(survival, 2, 0.0, 1.0)

    @pytest.mark.parametrize("m", [None, 1, 3])
    def test_one_survival_call_per_pass_and_grid(self, monkeypatch, m):
        calls, cdf_calls = [], []
        survival, cdf = Exponential.survival, Exponential.cdf

        def counted(self, x):
            calls.append(np.shape(x))
            return survival(self, x)

        def counted_cdf(self, x):
            cdf_calls.append(np.shape(x))
            return cdf(self, x)

        monkeypatch.setattr(Exponential, "survival", counted)
        monkeypatch.setattr(Exponential, "cdf", counted_cdf)
        if m is None:
            asymptotic_variance_srs(Exponential(1.0))
        else:
            asymptotic_variance_minrssu(Exponential(1.0), m)
        # the check pass, then the fine one: the x-nodes, then the grid
        assert calls == [(80,), (80, 80), (96,), (96, 96)]
        assert cdf_calls == []


class TestConsistencyAcrossFamilies:
    @pytest.mark.parametrize(
        "spec",
        ["exp:rate=1", "unif:a=0,b=1", "finite:a=2,b=3", "powerbeta:alpha=2"],
    )
    def test_vn_error_decays_for_every_family(self, spec):
        # 200-replication error at n = 1e4 under 0.02, shrinking in n
        rows = {
            n: run_cell(spec, "vn", 1, n, 200, base_seed=505)
            for n in (10**2, 10**3, 10**4)
        }
        assert abs(rows[10**4].bias) < 0.02
        assert rows[10**4].rmse < 0.02
        rmse = [rows[n].rmse for n in (10**2, 10**3, 10**4)]
        assert rmse[0] > rmse[1] > rmse[2]


class TestEstimateDispatch:
    def test_each_kind_routes_to_its_function(self):
        s = draw_minrssu(Exponential(1.0), 3, 4, np.random.default_rng(44))
        pooled = pooled_order_statistics(s)
        cases = {
            "vn": vn(pooled),
            "rn": rn(s),
            "rmn:w=1": rmn(s, 1),
            "lstat": lstat(pooled),
            "lstat_adj:family=exp,w=-5": lstat_adjusted(s, PsiFamily.EXPONENTIAL, -5),
        }
        for text, expected in cases.items():
            spec = EstimatorSpec.parse(text)
            data = pooled if spec.kind is EstimatorKind.VN else s
            assert estimate(spec, data) == pytest.approx(expected, abs=0.0)
        # vn and lstat accept either a plain array or a sample
        for kind, plain in ((EstimatorKind.VN, vn), (EstimatorKind.LSTAT, lstat)):
            assert estimate(EstimatorSpec(kind), s) == plain(s) == plain(pooled)
        # rmn on a plain array takes m from its argument, on a sample from the sample
        assert rmn(pooled, 1, m=3) == rmn(s, 1) == rmn(s, 1, m=7)

    @pytest.mark.parametrize(
        "call",
        [
            rn,
            lambda values: lstat_adjusted(values, "exp", 0),
            lambda values: estimate(EstimatorSpec.parse("rn"), values),
            lambda values: estimate(EstimatorSpec.parse("lstat_adj:family=exp,w=0"), values),
        ],
        ids=["rn", "lstat_adjusted", "estimate-rn", "estimate-lstat_adj"],
    )
    def test_plain_array_needs_a_minrssu_sample(self, call):
        with pytest.raises(ParameterError, match="MinRSSU sample"):
            call(np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "text", ["vn", "rn", "rmn:w=1", "lstat", "lstat_adj:family=exp,w=0"]
    )
    def test_row_estimator_ignores_memory_layout(self, text):
        # 157 pooled MinRSSU samples of n = 5 (m = 5, l = 1), one per row
        spec = EstimatorSpec.parse(text)
        rng = np.random.default_rng(157)
        samples = [draw_minrssu(Exponential(1.0), 5, 1, rng) for _ in range(157)]
        rows = np.stack([pooled_order_statistics(s) for s in samples])
        expected = [estimate(spec, s) for s in samples]
        # C order, Fortran order, a transposed view and rows with a stride
        layouts = [rows, np.asfortranarray(rows), np.ascontiguousarray(rows.T).T,
                   np.repeat(rows, 2, axis=1)[:, ::2]]
        for layout in layouts:
            assert _kernel_rows(spec, 5, layout).tolist() == expected

    @pytest.mark.parametrize("estimator", [vn, lstat, lambda values: rmn(values, 0, m=1)],
                             ids=["vn", "lstat", "rmn"])
    @pytest.mark.parametrize(
        "values,shown",
        [([1.0, np.inf], "inf"), ([1.0, np.nan, 2.0], "nan"), ([-np.inf, 1.0], "-inf")],
        ids=["inf", "nan", "minus-inf"],
    )
    def test_non_finite_data_is_a_domain_error(self, estimator, values, shown):
        # these gave -inf or nan, some after a RuntimeWarning, which this suite makes an error
        with pytest.raises(DomainError, match=f"must be finite, got {shown}$"):
            estimator(np.array(values))

    def test_non_finite_minrssu_sample_is_a_domain_error(self):
        sample = MinRssuSample(m=2, l=1, values=np.array([[1.0, np.nan]]))
        for text in ["rn", "rmn:w=0", "lstat_adj:family=exp,w=0"]:
            with pytest.raises(DomainError, match="got nan"):
                estimate(EstimatorSpec.parse(text), sample)

    @pytest.mark.parametrize(
        "estimator,values",
        [(vn, [1e308, -1e308]), (lambda values: rmn(values, 0, m=1), [-1e308, 1.7e308]),
         (lstat, [1.7e308] * 4)],
        ids=["vn", "rmn", "lstat"],
    )
    def test_overflowing_estimate_diverges(self, estimator, values):
        # the spacing 2e308, or the sum of the weighted values, overflows, with no warning
        with pytest.raises(DivergenceError, match="estimate overflows: -inf"):
            estimator(np.array(values))


def _kernel_rows(spec, m, rows):
    """Each row's estimate through the kernel seam, as one cell of one call."""
    n = rows.shape[-1]
    spacing, denom = row_estimator(spec, m, n)
    weights = row_weights(spacing, n, [denom])
    return row_estimates(spacing, rows, weights)[0]


def _dot_per_row(spec, m, rows):
    """Oracle: each row's estimate by its own 1-D ``np.dot``, weights from the formulas."""
    n = rows.shape[1]
    if spec.kind in (EstimatorKind.LSTAT, EstimatorKind.LSTAT_ADJUSTED):
        denom = n
        if spec.kind is EstimatorKind.LSTAT_ADJUSTED:
            denom += psi(spec.psi_family, m, spec.w)
        weights = 1.0 - np.arange(1, n + 1) / denom
        return np.array([-np.dot(weights, row) / n for row in rows])
    denom = n + m + spec.w if spec.kind is EstimatorKind.RMN else n
    weights = (1.0 - np.arange(1, n) / denom) ** 2
    return np.array([-0.5 * np.dot(np.diff(row), weights) for row in rows])


class TestRowKernel:
    """``row_estimates`` sums each row as ``np.dot`` sums that row alone."""

    SPECS = ["vn", "rn", "rmn:w=1", "lstat", "lstat_adj:family=beta,w=0"]
    # (n, m): both sides of BLAS's 16-element blocking, and a large sample
    SIZES = [(2, 2), (15, 3), (16, 4), (17, 1), (33, 3), (5000, 5)]

    @staticmethod
    def sorted_rows(n, rows):
        rng = np.random.default_rng(n)
        scale = rng.uniform(0.1, 1e3, size=(rows, 1))
        return np.sort(rng.exponential(size=(rows, n)) * scale, axis=1)

    @pytest.mark.parametrize("n,m", SIZES)
    @pytest.mark.parametrize("text", SPECS)
    def test_matches_a_dot_per_row_and_estimate(self, text, n, m):
        spec = EstimatorSpec.parse(text)
        rows = self.sorted_rows(n, 6 if n > 100 else 60)
        expected = _dot_per_row(spec, m, rows)
        layouts = [rows, np.asfortranarray(rows), np.ascontiguousarray(rows.T).T]
        for layout in layouts:
            assert _kernel_rows(spec, m, layout).tobytes() == expected.tobytes()
        assert _kernel_rows(spec, m, rows[:1]).tobytes() == expected[:1].tobytes()
        by_estimate = [estimate(spec, sample_of(row, m)) for row in rows]
        assert np.array(by_estimate).tobytes() == expected.tobytes()

    # cells of one kind in one call, each under its own denominator
    CELLS = {
        True: ["vn", "rn", "rmn:w=-1", "rmn:w=0", "rmn:w=7"],
        False: ["lstat", "lstat_adj:family=beta,w=0", "lstat_adj:family=beta,w=-3",
                "lstat_adj:family=beta,w=2"],
    }

    @pytest.mark.parametrize("n,m", SIZES)
    @pytest.mark.parametrize("spacing", [True, False], ids=["spacing", "order"])
    def test_broadcast_over_cells_matches_a_dot_per_row(self, spacing, n, m):
        # every cell reads the same rows, as the cells of one draw shape do
        specs = [EstimatorSpec.parse(text) for text in self.CELLS[spacing]]
        rows = self.sorted_rows(n, 3 if n > 100 else 20)
        expected = np.stack([_dot_per_row(spec, m, rows) for spec in specs])
        kinds = [row_estimator(spec, m, n) for spec in specs]
        assert {kind for kind, _ in kinds} == {spacing}
        weights = row_weights(spacing, n, [denom for _, denom in kinds])
        assert row_estimates(spacing, rows, weights).tobytes() == expected.tobytes()
        # a dot per row, with the weights on either side of the broadcast product
        operand = np.diff(rows, axis=-1) if spacing else rows
        by_dot = [[np.dot(row, w) for row in operand] for w in weights]
        weights = weights[:, None]
        for product in (np.vecdot(operand, weights), np.vecdot(weights, operand)):
            assert product.tobytes() == np.array(by_dot).tobytes()

    def test_negative_value_fails_estimate(self):
        # estimate checks data from outside the package, after the checks that
        # need no values; the row kernel checks nothing, and the spacing
        # estimators take negative values
        rows = self.sorted_rows(6, 3)
        rows[2, 0] = -1.0
        with pytest.raises(DomainError, match="nonnegative"):
            estimate(EstimatorSpec(EstimatorKind.LSTAT), rows[2])
        sample = sample_of(rows[2], 2)
        with pytest.raises(ParameterError, match="n\\+psi"):
            estimate("lstat_adj:family=beta,w=9", sample)
        assert math.isfinite(estimate("rn", sample))

    @pytest.mark.parametrize(
        "product",
        [lambda rows, w: rows @ w, lambda rows, w: np.einsum("ij,j->i", rows, w)],
        ids=["matmul", "einsum"],
    )
    def test_rows_tell_other_summation_orders_apart(self, product):
        # a kernel that summed in another order would fail the test above
        differing = 0
        for n, m in self.SIZES:
            rows = self.sorted_rows(n, 6 if n > 100 else 60)
            weights = 1.0 - np.arange(1, n + 1) / n
            oracle = _dot_per_row(EstimatorSpec(EstimatorKind.LSTAT), m, rows)
            differing += np.count_nonzero(-product(rows, weights) / n != oracle)
        assert differing > 0


class TestZeroSumSign:
    """A zero estimate is 0.0, never -0.0, from estimate and the row kernels alike."""

    # every spacing of a constant sample is zero; order-statistic sums are zero on zeros
    @pytest.mark.parametrize(
        "text,value",
        [("vn", 3.0), ("rn", 3.0), ("rmn:w=1", 3.0), ("vn", 0.0), ("lstat", 0.0),
         ("lstat_adj:family=beta,w=0", 0.0)],
    )
    def test_constant_sample(self, text, value):
        spec = EstimatorSpec.parse(text)
        rows = np.full((3, 4), value)
        by_rows = _kernel_rows(spec, 2, rows)
        by_estimate = estimate(spec, sample_of(rows[0], 2))
        assert by_estimate == 0.0 and math.copysign(1.0, by_estimate) == 1.0
        assert np.all(by_rows == 0.0) and not np.signbit(by_rows).any()

    @pytest.mark.parametrize(
        "spacing,value", [(True, 3.0), (True, 0.0), (False, 0.0)],
        ids=["spacing-3", "spacing-0", "order-0"],
    )
    def test_constant_cells_in_one_call(self, spacing, value):
        # three cells under their own denominators, in one broadcast call
        specs = [EstimatorSpec.parse(text) for text in TestRowKernel.CELLS[spacing][1:4]]
        weights = row_weights(spacing, 4, [row_estimator(spec, 2, 4)[1] for spec in specs])
        estimates = row_estimates(spacing, np.full((5, 4), value), weights)
        assert estimates.shape == (3, 5)
        assert np.all(estimates == 0.0) and not np.signbit(estimates).any()


class TestNormalitySanity:
    def test_standardized_lstat_moments(self):
        # sqrt(n)(lstat - xi)/sigma should look normal at n=1000
        d = Uniform(0.0, 1.0)
        sigma = np.sqrt(asymptotic_variance_srs(d))
        true_value = float(crex(d))
        n, reps = 1000, 2000
        rng = np.random.default_rng(31)
        z = np.empty(reps)
        for r in range(reps):
            z[r] = np.sqrt(n) * (lstat(d.sample(rng, n)) - true_value) / sigma
        assert abs(stats.skew(z)) < 0.15
        assert abs(stats.kurtosis(z)) < 0.3
