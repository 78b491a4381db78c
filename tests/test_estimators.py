import numpy as np
import pytest
from scipy import stats

from crexlab import (
    DomainError,
    EmpiricalSurvival,
    EstimatorKind,
    EstimatorSpec,
    Exponential,
    MinRssuSample,
    ParameterError,
    PowerBeta,
    PsiFamily,
    SizeError,
    SpecParseError,
    Uniform,
    asymptotic_variance_minrssu,
    asymptotic_variance_srs,
    crex,
    draw_minrssu,
    lstat,
    lstat_adjusted,
    pooled_order_statistics,
    psi,
    rmn,
    rn,
    run_cell,
    vn,
)
from crexlab.estimators import estimate

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
        ],
    )
    def test_parse(self, text, kind, w, family):
        spec = EstimatorSpec.parse(text)
        assert spec.kind is kind and spec.w == w and spec.psi_family is family
        assert EstimatorSpec.parse(spec.text()) == spec

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
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(SpecParseError):
            EstimatorSpec.parse(text)


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
            SRS_VARIANCE_UNIFORM, abs=1e-12
        )

    def test_srs_exponential(self):
        assert asymptotic_variance_srs(Exponential(1.0)) == pytest.approx(
            SRS_VARIANCE_EXPONENTIAL, abs=1e-10
        )

    def test_srs_near_degenerate_limit(self):
        # point-mass limit: the covariance kernel vanishes
        assert asymptotic_variance_srs(Uniform(0.0, 1e-9)) < 1e-12

    def test_minrssu_m1_equals_srs(self):
        for dist in (Uniform(0.0, 1.0), Exponential(1.0), PowerBeta(2.0)):
            assert asymptotic_variance_minrssu(dist, 1) == pytest.approx(
                asymptotic_variance_srs(dist), rel=1e-12
            )

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
        # lstat accepts either a plain array or a sample
        assert estimate(EstimatorSpec.parse("lstat"), s) == pytest.approx(
            lstat(pooled), abs=0.0
        )

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
