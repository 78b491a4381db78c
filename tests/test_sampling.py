import io

import numpy as np
import pytest

from crexlab import (
    DomainError,
    Exponential,
    MinRssuSample,
    SpecParseError,
    Uniform,
    draw_minrssu,
    draw_srs,
    pooled_order_statistics,
    sample_from_csv,
    sample_to_csv,
)
from crexlab.sampling import _minrssu_values


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

    def test_consumes_exactly_the_documented_draws(self):
        # after drawing, the stream must sit exactly l*m(m+1)/2 uniforms in
        rng = np.random.default_rng(6)
        draw_minrssu(Uniform(0.0, 1.0), 3, 2, rng)
        fresh = np.random.default_rng(6)
        fresh.random(2 * 6)
        assert rng.random() == fresh.random()

    def test_draw_order_cycle_major_set_ascending(self):
        # reconstruct by hand from the raw uniform stream
        d = Uniform(0.0, 1.0)
        m, l = 3, 2
        s = draw_minrssu(d, m, l, np.random.default_rng(7))
        u = np.random.default_rng(7).random(l * m * (m + 1) // 2).reshape(l, -1)
        expected = np.empty((l, m))
        for j in range(l):
            pos = 0
            for i in range(1, m + 1):
                expected[j, i - 1] = d.quantile(np.min(u[j, pos : pos + i]))
                pos += i
        np.testing.assert_allclose(s.values, expected, rtol=0, atol=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 30])
    @pytest.mark.parametrize("lead", [(1,), (6,), (1, 1), (3, 4), (2, 1)])
    def test_set_minima_match_a_per_set_min(self, m, lead):
        # Uniform(0, 1) has quantile u exactly, so the values are the minima
        u = np.random.default_rng(m).random(lead + (m * (m + 1) // 2,))
        values = _minrssu_values(Uniform(0.0, 1.0), m, u)
        assert values.shape == lead + (m,) and values.flags.c_contiguous
        for cycle in np.ndindex(lead):
            draws = u[cycle].tolist()
            expected = [min(draws[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]) for i in range(m)]
            assert values[cycle].tolist() == expected

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
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(SpecParseError):
            sample_from_csv(text)
