import io
import math

import numpy as np
import pytest
from scipy import stats

from crexlab import (
    DomainError,
    Exponential,
    MinRssuSample,
    SpecParseError,
    Uniform,
    asymptotic_variance_minrssu,
    crex_min_order_stat,
    crex_minrssu_design,
    crex_srs_design,
    d_designs,
    d_min_vs_parent,
    draw_minrssu,
    draw_srs,
    dynamic_crex_designs,
    parse_distribution,
    pooled_order_statistics,
    psi,
    replication_rng,
    run_cell,
    sample_from_csv,
    sample_to_csv,
)
from crexlab.sampling import _draw_values

EXP = Exponential(1.0)
# every argument that counts sets, draws, cycles or replications, each
# behind a call that takes it as ``n``
COUNT_ARGUMENTS = {
    "crex_min_order_stat i": lambda n: crex_min_order_stat(EXP, n),
    "d_min_vs_parent i": lambda n: d_min_vs_parent(EXP, n),
    "min_order_stat_mean j": lambda n: EXP.min_order_stat_mean(n),
    "crex_minrssu_design m": lambda n: crex_minrssu_design(EXP, n),
    "crex_srs_design m": lambda n: crex_srs_design(EXP, n),
    "dynamic_crex_designs m": lambda n: dynamic_crex_designs(EXP, n, 1.0),
    "d_designs m": lambda n: d_designs(EXP, n),
    "asymptotic_variance_minrssu m": lambda n: asymptotic_variance_minrssu(EXP, n),
    "psi beta m": lambda n: psi("beta", n, 0),
    "psi exp m": lambda n: psi("exp", n, 0),
    "psi unif m": lambda n: psi("unif", n, 0),
    "draw_srs n": lambda n: draw_srs(EXP, n, np.random.default_rng(0)),
    "draw_minrssu m": lambda n: draw_minrssu(EXP, n, 2, np.random.default_rng(0)),
    "draw_minrssu l": lambda n: draw_minrssu(EXP, 2, n, np.random.default_rng(0)),
    "MinRssuSample m": lambda n: MinRssuSample(m=n, l=1, values=np.ones((1, 2))),
    "MinRssuSample l": lambda n: MinRssuSample(m=1, l=n, values=np.ones((2, 1))),
    "run_cell m": lambda n: run_cell("exp:rate=1", "rn", n, 2, 2),
    "run_cell l": lambda n: run_cell("exp:rate=1", "rn", 2, n, 2),
    "run_cell replications": lambda n: run_cell("exp:rate=1", "rn", 2, 2, n),
}


@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_count_arguments_are_integers_of_at_least_one(name):
    call = COUNT_ARGUMENTS[name]
    for bad in (0, -3, 1.5, 2.0, True, "2", None):
        with pytest.raises(DomainError):
            call(bad)
    call(np.int64(2))
    call(2)


class TestDrawSrs:
    def test_single_draw(self):
        rng = np.random.default_rng(1)
        assert draw_srs(Uniform(0.0, 1.0), 1, rng).shape == (1,)

    def test_kolmogorov_distance(self):
        rng = np.random.default_rng(2)
        draws = np.sort(draw_srs(Uniform(0.0, 1.0), 10**5, rng))
        grid = np.arange(1, draws.size + 1) / draws.size
        ks = np.max(np.abs(draws - grid))
        assert ks < 0.01

    def test_fixed_seed_reproduces(self):
        a = draw_srs(Exponential(1.0), 100, np.random.default_rng(3))
        b = draw_srs(Exponential(1.0), 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            draw_srs(Uniform(0.0, 1.0), 0, np.random.default_rng(0))


class TestDrawMinrssu:
    def test_m1_l1_is_one_plain_draw(self):
        d = Exponential(1.0)
        s = draw_minrssu(d, 1, 1, np.random.default_rng(4))
        direct = d.sample(np.random.default_rng(4), 1)
        assert s.values.shape == (1, 1)
        assert s.values[0, 0] == direct[0]

    def test_counts_m3_l2(self):
        s = draw_minrssu(Uniform(0.0, 1.0), 3, 2, np.random.default_rng(5))
        assert s.n == 6
        assert s.values.shape == (2, 3)

    def test_consumes_exactly_m_times_l_draws(self):
        # after drawing, the stream must sit exactly m * l uniforms in
        rng = np.random.default_rng(6)
        draw_minrssu(Uniform(0.0, 1.0), 3, 2, rng)
        fresh = np.random.default_rng(6)
        fresh.random(3 * 2)
        assert rng.random() == fresh.random()

    @pytest.mark.parametrize(
        "law", ["exp:rate=3.7", "unif:a=2,b=3", "finite:a=0.3,b=0.62", "powerbeta:alpha=0.1"]
    )
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 30])
    @pytest.mark.parametrize("lead", [(1,), (6,), (1, 1), (3, 4), (2, 1)])
    def test_set_values_are_the_kernel_of_their_own_uniform(self, law, m, lead):
        # lead is (rows,) or (rows, cycles per row).  Cycle-major, then
        # set-ascending: value i of cycle j reads uniform U = u[j * m + i]
        # alone, and is the point where log S = log1p(-U) / (i + 1), bit
        # for bit, each computed on its own
        dist = parse_distribution(law)
        u = np.random.default_rng(m).random(lead + (m,))
        rows = _draw_values(dist, m, False, u.reshape(lead[0], -1))
        assert rows.shape == (lead[0], math.prod(lead[1:]) * m) and rows.flags.c_contiguous
        values = rows.reshape(lead + (m,))
        for cycle in np.ndindex(lead):
            for i in range(m):
                ell = np.log1p(-u[cycle][i : i + 1]) / (i + 1)
                assert values[cycle][i].tobytes() == dist._log_survival_quantile(ell).tobytes()
        sample = draw_minrssu(dist, m, 4, np.random.default_rng(m))
        stream = np.random.default_rng(m).random(4 * m)
        for j, i in np.ndindex(4, m):
            ell = np.log1p(-stream[j * m + i : j * m + i + 1]) / (i + 1)
            assert sample.values[j, i].tobytes() == dist._log_survival_quantile(ell).tobytes()

    @pytest.mark.parametrize("srs", [True, False], ids=["srs", "minrssu"])
    @pytest.mark.parametrize(
        "law", ["exp:rate=3.7", "unif:a=2,b=3", "finite:a=0.3,b=0.62", "powerbeta:alpha=0.1"]
    )
    def test_draw_values_match_the_per_stream_route(self, law, srs):
        # the grid kernel's rows: the heads of consecutive ranges of whole
        # counter blocks of one stream.  Each is the sample that
        # draw_minrssu, or Distribution.sample by SRS, draws from its
        # replication's replication_rng stream, bit for bit
        dist, m, l = parse_distribution(law), 3, 2
        width = m * l
        blocks = (width + 3) // 4
        u = replication_rng(7, 11, 0).random(5 * 4 * blocks).reshape(5, -1)[:, :width]
        values = _draw_values(dist, m, srs, u)
        assert values.shape == (5, m * l) and values.flags.c_contiguous
        for r, row in enumerate(values):
            rng = replication_rng(7, 11, r * blocks)
            route = dist.sample(rng, m * l) if srs else draw_minrssu(dist, m, l, rng).values
            assert row.tobytes() == route.tobytes()
        # a uniform of exactly 0 is the support start, sign included
        start = _draw_values(dist, m, srs, np.zeros((2, width)))
        assert start.tobytes() == np.full((2, m * l), dist.support[0]).tobytes()

    def test_set2_minima_mean(self):
        # min of two unit exponentials is exponential with rate 2
        s = draw_minrssu(Exponential(1.0), 2, 5000, np.random.default_rng(8))
        assert abs(s.set_values(2).mean() - 0.5) < 0.02

    def test_statistical_identity_of_set_minima(self):
        # empirical survival of set-i minima matches S**i at grid points
        d = Exponential(1.0)
        m, reps = 3, 5000
        s = draw_minrssu(d, m, reps, np.random.default_rng(9))
        grid = d.quantile(np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
        for i in range(1, m + 1):
            values = s.set_values(i)
            for x in grid:
                p = d.survival(x) ** i
                emp = np.mean(values > x)
                tol = 4.0 * np.sqrt(p * (1 - p) / reps) + 1e-9
                assert abs(emp - p) < tol, (i, x, emp, p)

    def test_validation(self):
        with pytest.raises(DomainError):
            draw_minrssu(Uniform(0.0, 1.0), 0, 1, np.random.default_rng(0))
        with pytest.raises(DomainError):
            draw_minrssu(Uniform(0.0, 1.0), 1, 0, np.random.default_rng(0))


class TestSetMinimaLaw:
    """The law referee of the drawn set minima, whatever the draw route.

    The set-i value of a cycle is the least of i draws, whose survival is
    ``S**i``.  Seeds and bounds were fixed before the first run.
    """

    CYCLES = 20000

    @pytest.mark.parametrize(
        "law,seed",
        [("exp:rate=1", 101), ("unif:a=2,b=3", 102), ("powerbeta:alpha=2", 103),
         ("finite:a=2,b=3", 104)],
    )
    def test_each_set_follows_the_survival_power(self, law, seed):
        # a KS test of each set's 20000 values against 1 - S**i; 20 tests at
        # p > 1e-4 pass on a correct law with probability above 0.998
        dist = parse_distribution(law)
        sample = draw_minrssu(dist, 5, self.CYCLES, np.random.default_rng(seed))
        for i in range(1, 6):
            result = stats.kstest(sample.set_values(i), lambda x: 1.0 - dist.survival(x) ** i)
            assert result.pvalue > 1e-4, (law, i, result)

    def test_uniform_set_means_are_one_over_i_plus_1(self):
        # the least of i Uniform(0, 1) draws has mean 1/(i+1) and variance
        # i / ((i+1)**2 (i+2)); each set's mean lies within 4 standard errors
        sample = draw_minrssu(Uniform(0.0, 1.0), 5, self.CYCLES, np.random.default_rng(105))
        for i in range(1, 6):
            se = math.sqrt(i / ((i + 1) ** 2 * (i + 2)) / self.CYCLES)
            z = (sample.set_values(i).mean() - 1.0 / (i + 1)) / se
            assert abs(z) < 4.0, (i, z)


class TestPooledOrderStatistics:
    def test_sorts_values(self):
        s = MinRssuSample(m=3, l=1, values=np.array([[3.0, 1.0, 2.0]]))
        np.testing.assert_array_equal(pooled_order_statistics(s), [1.0, 2.0, 3.0])

    def test_all_equal_unchanged(self):
        s = MinRssuSample(m=2, l=2, values=np.full((2, 2), 7.0))
        np.testing.assert_array_equal(pooled_order_statistics(s), [7.0] * 4)

    def test_permutation_and_nondecreasing(self):
        s = draw_minrssu(Exponential(1.0), 4, 10, np.random.default_rng(10))
        pooled = pooled_order_statistics(s)
        assert np.all(np.diff(pooled) >= 0)
        assert sorted(s.values.ravel().tolist()) == pooled.tolist()


class TestMinRssuSample:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            MinRssuSample(m=2, l=2, values=np.zeros((2, 3)))

    def test_n_is_m_times_l(self):
        s = MinRssuSample(m=2, l=3, values=np.zeros((3, 2)))
        assert s.n == 6

    def test_set_values_bounds(self):
        s = MinRssuSample(m=2, l=1, values=np.array([[1.0, 2.0]]))
        with pytest.raises(DomainError):
            s.set_values(3)


class TestCsvRoundTrip:
    def test_round_trip(self):
        s = draw_minrssu(Exponential(1.0), 3, 4, np.random.default_rng(11))
        text = sample_to_csv(s)
        back = sample_from_csv(text)
        assert back.m == s.m and back.l == s.l
        np.testing.assert_array_equal(back.values, s.values)

    def test_header_and_layout(self):
        s = MinRssuSample(m=2, l=1, values=np.array([[0.5, 1.5]]))
        lines = sample_to_csv(s).strip().split("\n")
        assert lines[0] == "cycle,set_size,value"
        assert lines[1] == "1,1,0.5"
        assert lines[2] == "1,2,1.5"

    def test_file_object_round_trip(self):
        s = draw_minrssu(Uniform(0.0, 1.0), 2, 2, np.random.default_rng(12))
        buf = io.StringIO()
        sample_to_csv(s, buf)
        buf.seek(0)
        back = sample_from_csv(buf)
        np.testing.assert_array_equal(back.values, s.values)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "wrong,header,here\n1,1,0.5\n",
            "cycle,set_size,value\n",
            "cycle,set_size,value\n1,1,0.5\n1,1,0.7\n",
            "cycle,set_size,value\n1,1,0.5\n2,2,0.7\n",
            "cycle,set_size,value\n1,1,abc\n",
            "cycle,set_size,value\n1,1\n",
            "cycle,set_size,value\n0,1,0.5\n",
            "cycle,set_size,value\n1,-1,0.5\n",
            "cycle,set_size,value\n1,1,nan\n",
            "cycle,set_size,value\n1,1,-inf\n",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(SpecParseError):
            sample_from_csv(text)
