import numpy as np
import pytest

from crexlab import (
    BiasConvention,
    DomainError,
    EstimatorSpec,
    Exponential,
    MinRssuSample,
    ParameterError,
    SpecParseError,
    calibrate_parameter,
    crex,
    draw_minrssu,
    parse_distribution,
    protocol_config,
    replication_rng,
    rows_from_csv,
    rows_to_csv,
    run_cell,
    run_grid,
)
from crexlab.errors import SizeError
from crexlab.estimators import estimate, psi, row_estimator
from crexlab.simulation import (
    SimulationConfig,
    _cell_digest,
    _cell_samples,
    _replication_keys,
)


class TestRunCell:
    def test_same_seed_is_bit_identical(self):
        a = run_cell("exp:rate=1", "rmn:w=0", 2, 3, 25, base_seed=9)
        b = run_cell("exp:rate=1", "rmn:w=0", 2, 3, 25, base_seed=9)
        assert a == b

    def test_degenerate_injection(self):
        # all-equal sample makes the spacing estimator exactly zero, so the
        # estimate-minus-truth bias equals -true_value exactly
        def degenerate(rng):
            return MinRssuSample(m=2, l=2, values=np.full((2, 2), 3.0))

        row = run_cell(
            "exp:rate=1",
            "rn",
            2,
            2,
            1,
            bias_convention=BiasConvention.ESTIMATE_MINUS_TRUTH,
            sample_factory=degenerate,
        )
        assert row.bias == pytest.approx(0.25, abs=0.0)
        assert row.rmse == pytest.approx(0.25, abs=1e-15)

    def test_vn_runs_on_srs(self):
        # with m=1 the two samplers coincide; bias must be small at n=2000
        row = run_cell("unif:a=0,b=1", "vn", 1, 2000, 50, base_seed=3)
        assert abs(row.bias) < 0.01
        assert row.true_value == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_bias_convention_sign(self):
        t = run_cell("exp:rate=1", "rn", 2, 2, 40, base_seed=5)
        e = run_cell(
            "exp:rate=1",
            "rn",
            2,
            2,
            40,
            base_seed=5,
            bias_convention="estimate-minus-truth",
        )
        assert t.bias == pytest.approx(-e.bias, abs=1e-15)
        assert t.rmse == e.rmse

    def test_rmse_dominates_bias(self):
        for est in ("rn", "rmn:w=0", "lstat"):
            row = run_cell("unif:a=0,b=1", est, 2, 3, 60, base_seed=11)
            assert row.rmse >= abs(row.bias)

    def test_rmse_recomputable_from_row_fields(self):
        # mse decomposes as bias^2 + (reps - 1) * mc_se^2
        row = run_cell("exp:rate=1", "rn", 2, 3, 250, base_seed=17)
        recomputed = np.sqrt(row.bias**2 + (row.reps - 1) * row.mc_se**2)
        assert row.rmse == pytest.approx(recomputed, rel=1e-12)

    def test_mc_se_against_split_half(self):
        row = run_cell("exp:rate=1", "rn", 2, 2, 400, base_seed=13)
        # recompute the per-replication estimates through the public stream API
        digest = _cell_digest("exp:rate=1", "rn", 2, 2)
        spec = EstimatorSpec.parse("rn")
        dist = Exponential(1.0)
        ests = np.empty(400)
        for r in range(400):
            rng = replication_rng(13, digest, r)
            ests[r] = estimate(spec, draw_minrssu(dist, 2, 2, rng))
        halves = np.array_split(ests, 2)
        split_sd = np.sqrt(np.mean([h.var(ddof=1) for h in halves]))
        assert row.mc_se == pytest.approx(split_sd / np.sqrt(400), rel=0.2)

    def test_estimator_error_propagates(self):
        with pytest.raises(ParameterError):
            run_cell("exp:rate=1", "lstat_adj:family=exp,w=-11", 2, 2, 2)


def _reference_estimate(spec, m, data):
    """The per-replication formulas: one sort, weights, one 1-D dot."""
    values = data.values if isinstance(data, MinRssuSample) else data
    s = np.sort(np.ravel(values))
    n = s.size
    kind = spec.kind.value
    if kind in ("vn", "rn", "rmn"):
        denom = n + m + spec.w if kind == "rmn" else n
        return -0.5 * float(np.dot(np.diff(s), (1.0 - np.arange(1, n) / denom) ** 2))
    denom = n + psi(spec.psi_family, m, spec.w) if kind == "lstat_adj" else n
    return -float(np.dot(1.0 - np.arange(1, n + 1) / denom, s)) / n


class TestBatchedKernel:
    # each shape spans several chunks of the kernel's uniform budget
    @pytest.mark.parametrize(
        "dist_text,m,l,reps",
        [
            ("exp:rate=1.5", 1, 2000, 20),
            ("unif:a=2,b=3", 2, 1000, 12),
            ("powerbeta:alpha=3", 5, 3, 2500),
            ("exp:rate=1", 5, 1, 3500),
        ],
    )
    @pytest.mark.parametrize(
        "spec_text", ["vn", "rn", "rmn:w=1", "lstat", "lstat_adj:family=beta,w=0"]
    )
    def test_matches_per_replication_route(self, dist_text, m, l, reps, spec_text):
        dist = parse_distribution(dist_text)
        spec = EstimatorSpec.parse(spec_text)
        seed = 31
        digest = _cell_digest(dist.spec_string(), spec.text(), m, l)
        loop = np.empty(reps)
        for r in range(reps):
            rng = replication_rng(seed, digest, r)
            if spec_text == "vn":
                data = dist.sample(rng, m * l)
            else:
                data = draw_minrssu(dist, m, l, rng)
            loop[r] = _reference_estimate(spec, m, data)
            if r % 97 == 0:
                assert estimate(spec, data) == loop[r]
        chunks = list(_cell_samples(dist, spec.kind, m, l, _replication_keys(seed, digest, reps)))
        assert len(chunks) > 1
        batched = np.concatenate([row_estimator(spec, m, m * l)(rows) for rows in chunks])
        assert batched.tobytes() == loop.tobytes()
        row = run_cell(dist, spec, m, l, reps, base_seed=seed)
        assert row.bias == row.true_value - float(np.mean(loop, dtype=np.longdouble))

    @pytest.mark.parametrize(
        "seed", [0, 42, 2**32 - 1, 2**32, 2**63 + 11, 2**80 + 9, 2**96 + 5, 2**127 + 3]
    )
    @pytest.mark.parametrize("digest", [0, 7, 2**32 - 1, 2**32, 0xFEDCBA9876543210, 2**64 - 1])
    def test_keys_match_seed_sequence(self, seed, digest):
        # seeds of 1, 2, 3 and 4 words; digests of 1 word (high word 0) and 2
        keys = _replication_keys(seed, digest, 70000)
        assert keys.shape == (70000, 2) and keys.dtype == np.uint64
        for r in (0, 1, 2, 65535, 65536, 69999):
            expected = np.random.SeedSequence([seed, digest, r]).generate_state(2, np.uint64)
            assert keys[r].tolist() == expected.tolist()
        rng = replication_rng(seed, digest, 3)
        assert rng.bit_generator.state["state"]["key"].tolist() == keys[3].tolist()

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=-1)

    @pytest.mark.parametrize(
        "spec_text,m,l,error",
        [
            ("lstat_adj:family=exp,w=-11", 2, 2, ParameterError),
            ("rmn:w=-4", 2, 1, ParameterError),
            ("lstat_adj:family=unif,w=0", 1, 3, DomainError),
            ("rn", 1, 1, SizeError),
            ("vn", 1, 1, SizeError),
        ],
    )
    def test_infeasible_cell_fails_before_drawing(self, spec_text, m, l, error):
        spec = EstimatorSpec.parse(spec_text)
        dist = Exponential(1.0)
        rng = replication_rng(1, 0, 0)
        data = dist.sample(rng, m * l) if spec_text == "vn" else draw_minrssu(dist, m, l, rng)
        with pytest.raises(error):
            estimate(spec, data)
        with pytest.raises(error):
            run_cell(dist, spec, m, l, 5)

        def no_draw(rng):
            raise AssertionError("drew a sample for an infeasible cell")

        with pytest.raises(error):
            run_cell(dist, spec, m, l, 5, sample_factory=no_draw)

    def test_negative_sample_fails_like_per_replication_route(self):
        sample = MinRssuSample(m=2, l=2, values=np.array([[-1.0, 0.5], [2.0, 0.1]]))
        spec = EstimatorSpec.parse("lstat")
        with pytest.raises(DomainError):
            estimate(spec, sample.values.ravel())
        with pytest.raises(DomainError):
            run_cell("exp:rate=1", spec, 2, 2, 3, sample_factory=lambda rng: sample)


class TestRunGrid:
    def test_single_cell_grid_matches_run_cell(self):
        cfg = SimulationConfig(
            distribution="exp:rate=1",
            m_values=(2,),
            l_values=(3,),
            estimators=("rn",),
            replications=30,
            base_seed=21,
        )
        result = run_grid(cfg)
        assert result.ok and len(result.rows) == 1
        assert result.rows[0] == run_cell("exp:rate=1", "rn", 2, 3, 30, base_seed=21)

    def test_protocol_spacing_grid_has_40_rows(self):
        cfg = protocol_config("exp", replications=1, sides=("spacing",))
        result = run_grid(cfg)
        # 4 m-values x 2 l-values x (rn + four rmn w's)
        assert len(result.rows) == 40
        assert result.ok

    def test_row_order_is_m_l_estimator_w(self):
        cfg = SimulationConfig(
            distribution="unif:a=0,b=1",
            m_values=(2, 3),
            l_values=(2, 3),
            estimators=("rn", "rmn"),
            w_lists={"rmn": (0, 1)},
            replications=1,
            base_seed=1,
        )
        rows = run_grid(cfg).rows
        coords = [(r.m, r.l, r.estimator, r.w) for r in rows]
        assert coords == [
            (2, 2, "rn", None),
            (2, 2, "rmn", 0),
            (2, 2, "rmn", 1),
            (2, 3, "rn", None),
            (2, 3, "rmn", 0),
            (2, 3, "rmn", 1),
            (3, 2, "rn", None),
            (3, 2, "rmn", 0),
            (3, 2, "rmn", 1),
            (3, 3, "rn", None),
            (3, 3, "rmn", 0),
            (3, 3, "rmn", 1),
        ]

    def test_untuned_estimators_carry_no_w(self):
        cfg = SimulationConfig(
            distribution="unif:a=0,b=1",
            m_values=(2,),
            l_values=(2,),
            estimators=("rn", "lstat"),
            replications=1,
            psi_family="unif",
        )
        rows = run_grid(cfg).rows
        assert [r.w for r in rows] == [None, None]

    def test_infeasible_cells_error_but_grid_continues(self):
        # exp-family offsets at m=2 make n + psi <= 0 for every listed w
        cfg = protocol_config("exp", replications=2, sides=("order",))
        result = run_grid(cfg)
        assert len(result.failures) == 8  # m=2: 4 w's x 2 l's
        for failure in result.failures:
            assert failure.coordinates["m"] == 2
            assert "lstat_adj" in failure.coordinates["estimator"]
        # all other cells completed: 4 m x 2 l x (lstat + 4 w) - 8
        assert len(result.rows) == 40 - 8

    def test_identical_config_gives_identical_csv(self):
        cfg = dict(
            distribution="exp:rate=1",
            m_values=(2, 3),
            l_values=(2,),
            estimators=("rn", "rmn"),
            w_lists={"rmn": (0,)},
            replications=50,
            base_seed=77,
        )
        a = rows_to_csv(run_grid(SimulationConfig(**cfg)).rows)
        b = rows_to_csv(run_grid(SimulationConfig(**cfg)).rows)
        assert a == b

    def test_parallel_equivalence(self):
        cfg = SimulationConfig(
            distribution="unif:a=0,b=1",
            m_values=(2, 3),
            l_values=(2, 3),
            estimators=("rn", "rmn"),
            w_lists={"rmn": (0, 1)},
            replications=40,
            base_seed=123,
        )
        serial = rows_to_csv(run_grid(cfg, workers=1).rows)
        threaded = rows_to_csv(run_grid(cfg, workers=4).rows)
        assert serial == threaded

    def test_threads_env_accepted_but_must_be_an_integer(self, monkeypatch):
        cfg = protocol_config("unif", replications=3, sides=("spacing",))
        expected = rows_to_csv(run_grid(cfg).rows)
        monkeypatch.setenv("CREXLAB_THREADS", "2")
        assert rows_to_csv(run_grid(cfg, workers=8).rows) == expected
        monkeypatch.setenv("CREXLAB_THREADS", "two")
        with pytest.raises(SpecParseError):
            run_grid(cfg)


class TestCsv:
    def test_round_trip(self):
        cfg = SimulationConfig(
            distribution="unif:a=0,b=1",
            m_values=(2,),
            l_values=(2,),
            estimators=("rn", "rmn", "lstat", "lstat_adj"),
            w_lists={"rmn": (0,), "lstat_adj": (0,)},
            psi_family="unif",
            replications=5,
            base_seed=2,
        )
        rows = run_grid(cfg).rows
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == (
            "distribution,params,estimator,m,l,w,reps,seed,true_value,bias,rmse,mc_se"
        )
        assert rows_from_csv(text) == rows

    def test_comment_lines_are_skipped(self):
        row = run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=1)
        text = "# seed defaulted to 42\n" + rows_to_csv([row])
        assert rows_from_csv(text) == [row]

    def test_malformed_rows(self):
        with pytest.raises(SpecParseError):
            rows_from_csv("")
        with pytest.raises(SpecParseError):
            rows_from_csv("bad,header\n")
        good = rows_to_csv([run_cell("exp:rate=1", "rn", 2, 2, 2, base_seed=1)])
        broken = good + "exp,rate=1,rn,2,2,,x,1,0,0,0,0\n"
        with pytest.raises(SpecParseError):
            rows_from_csv(broken)


class TestConfigValidation:
    def test_unknown_estimator(self):
        with pytest.raises(SpecParseError):
            SimulationConfig(distribution="exp:rate=1", estimators=("bogus",))

    def test_w_on_untuned_estimator(self):
        with pytest.raises(SpecParseError):
            SimulationConfig(
                distribution="exp:rate=1",
                estimators=("rn",),
                w_lists={"rn": (0,)},
            )

    def test_missing_w_list(self):
        with pytest.raises(SpecParseError):
            SimulationConfig(distribution="exp:rate=1", estimators=("rmn",))

    def test_missing_psi_family(self):
        with pytest.raises(SpecParseError):
            SimulationConfig(
                distribution="exp:rate=1",
                estimators=("lstat_adj",),
                w_lists={"lstat_adj": (0,)},
            )

    def test_bad_replications(self):
        with pytest.raises(SpecParseError):
            SimulationConfig(distribution="exp:rate=1", replications=0)

    def test_per_m_w_lists(self):
        cfg = SimulationConfig(
            distribution="exp:rate=1",
            m_values=(2, 3),
            l_values=(2,),
            estimators=("rmn",),
            w_lists={"rmn": {2: (0, 1), 3: (1,)}},
            replications=1,
        )
        rows = run_grid(cfg).rows
        assert [(r.m, r.w) for r in rows] == [(2, 0), (2, 1), (3, 1)]


class TestCalibrate:
    def test_recovers_generating_parameter(self):
        target_row = run_cell("exp:rate=2", "rmn:w=0", 2, 2, 120, base_seed=40)
        result = calibrate_parameter(
            ["exp:rate=0.5", "exp:rate=1", "exp:rate=2", "exp:rate=4"],
            "rmn:w=0",
            2,
            2,
            (target_row.bias, target_row.rmse),
            replications=120,
            base_seed=40,
        )
        assert result.spec_string == "exp:rate=2"
        assert result.residual == pytest.approx(0.0, abs=1e-18)
        assert result.bias_convention is BiasConvention.TRUTH_MINUS_ESTIMATE

    def test_single_point_grid(self):
        result = calibrate_parameter(
            ["unif:a=0,b=1"], "rn", 2, 2, (0.0, 0.0), replications=10
        )
        assert result.spec_string == "unif:a=0,b=1"
        assert np.isfinite(result.residual)

    def test_both_conventions_reported(self):
        result = calibrate_parameter(
            ["exp:rate=1"], "rn", 2, 2, (0.1, 0.3), replications=20
        )
        conventions = {d["bias_convention"] for d in result.details}
        assert conventions == {"truth-minus-estimate", "estimate-minus-truth"}

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            calibrate_parameter([], "rn", 2, 2, (0.0, 0.0))


class TestBiasShrinksWithN:
    def test_vn_bias_tracks_exact_decay(self):
        """Bias of vn on Exp(1) shrinks like the exact value -1/(4n).

        For unit-rate exponential spacings, E[vn at n] is -(n-1)/(4n)
        exactly, so the truth-minus-estimate bias is -1/(4n): strictly
        shrinking in n.  200 replications cannot resolve 1/(4n) at large
        n directly, so each measured bias is checked against the exact
        value within 5 standard errors, and the (noise-robust) RMSE is
        required to fall strictly.
        """
        rows = {
            n: run_cell("exp:rate=1", "vn", 1, n, 200, base_seed=1405)
            for n in (10**2, 10**3, 10**4)
        }
        for n, row in rows.items():
            exact_bias = -1.0 / (4.0 * n)
            assert abs(row.bias - exact_bias) < 5.0 * row.mc_se, (n, row.bias)
        rmse = [rows[n].rmse for n in (10**2, 10**3, 10**4)]
        assert rmse[0] > rmse[1] > rmse[2]


class TestTrueValues:
    def test_row_true_value_matches_measure(self):
        for spec in ("exp:rate=1", "unif:a=0,b=1", "powerbeta:alpha=2"):
            row = run_cell(spec, "rn", 2, 2, 2, base_seed=1)
            assert row.true_value == pytest.approx(
                float(crex(parse_distribution(spec))), abs=1e-15
            )
