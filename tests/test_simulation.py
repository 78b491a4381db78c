import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from crexlab import (
    BiasConvention,
    CrexlabError,
    DivergenceError,
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
from crexlab import simulation
from crexlab.cli import main
from crexlab.errors import SizeError
from crexlab.estimators import asymptotic_variance_minrssu, estimate, psi, row_estimator
from crexlab.simulation import (
    _CHUNK_UNIFORMS,
    CSV_HEADER,
    LSTAT_ADJ_W_GRID,
    PROTOCOL_DISTRIBUTIONS,
    RMN_W_GRID,
    SimulationConfig,
    SimulationRow,
    _cell_summaries,
    _grid_outcomes,
    _reset_uniforms,
    _shape_digest,
    _stream_key,
)

DATA = Path(__file__).parent / "data"


def _forbid_drawing(monkeypatch):
    """Fail the test if the grid kernel draws any uniform."""

    def no_draw(*args):
        raise AssertionError("drew uniforms")

    monkeypatch.setattr(simulation, "_reset_uniforms", no_draw)


def _philox(k0, block):
    """numpy's C Philox keyed ``(k0, 0)``, advanced to counter block ``block``."""
    philox = np.random.Philox(key=np.array([k0, 0], np.uint64))
    return np.random.Generator(philox.advance(block))


def _blocks(width):
    """The counter blocks of four uniforms one replication of ``width`` uniforms spans."""
    return (width + 3) // 4


def _replication(seed, digest, r, width):
    """The stream of replication ``r`` of a shape whose samples read ``width`` uniforms."""
    return replication_rng(seed, digest, r * _blocks(width))


def _kernel_estimates(monkeypatch, dist, cells, reps, seed):
    """The grid kernel's estimate matrix on ``cells``, caught on its way to the summaries."""
    caught = []

    def summaries(estimates, true_value):
        caught.append(estimates.copy())
        return _cell_summaries(estimates, true_value)

    with monkeypatch.context() as patch:
        patch.setattr(simulation, "_cell_summaries", summaries)
        _grid_outcomes(dist, cells, reps, seed)
    return caught[0]


def _inject_samples(monkeypatch, values):
    """Make every MinRSSU cycle the kernel draws record ``values``; returns the uniforms' shapes."""
    calls = []

    def injected(dist, m, srs, u):
        assert not srs
        calls.append(u.shape)
        cycles = np.broadcast_to(values, (len(u), u.shape[1] // m, m))
        return cycles.reshape(len(u), -1).copy()

    monkeypatch.setattr(simulation, "_draw_values", injected)
    return calls


class TestRunCell:
    def test_same_seed_is_bit_identical(self):
        a = run_cell("exp:rate=1", "rmn:w=0", 2, 3, 25, base_seed=9)
        b = run_cell("exp:rate=1", "rmn:w=0", 2, 3, 25, base_seed=9)
        assert a == b

    def test_degenerate_injection(self, monkeypatch):
        # all-equal sample makes the spacing estimator exactly zero, so the
        # estimate-minus-truth bias equals -true_value exactly
        calls = _inject_samples(monkeypatch, 3.0)
        row = run_cell(
            "exp:rate=1",
            "rn",
            2,
            2,
            1,
            bias_convention=BiasConvention.ESTIMATE_MINUS_TRUTH,
        )
        # one replication of l=2 cycles, two uniforms each
        assert calls == [(1, 4)]
        assert row.bias == pytest.approx(0.25, abs=0.0)
        assert row.rmse == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize(
        "change,error,message",
        [
            ({"m": 0}, DomainError, "m must be >= 1, got 0"),
            ({"l": 2.5}, DomainError, "l must be an integer, got 2.5"),
            ({"replications": True}, DomainError, "replications must be an integer, got True"),
            ({"base_seed": -1}, DomainError, "base seed must be >= 0, got -1"),
            ({"base_seed": 2**128}, DomainError, r"base seed must be < 2\*\*128, got 3402"),
            ({"bias_convention": "bogus"}, SpecParseError, "unknown bias convention 'bogus'"),
        ],
        ids=["m", "l", "replications", "seed", "large-seed", "convention"],
    )
    def test_direct_call_checks_its_arguments(self, change, error, message, monkeypatch):
        # a grid hands run_cell checked config values; a direct call is checked before drawing
        _forbid_drawing(monkeypatch)
        args = {"m": 2, "l": 2, "replications": 3, "base_seed": 1,
                "bias_convention": "truth-minus-estimate", **change}
        with pytest.raises(error, match=f"^{message}"):
            run_cell("exp:rate=1", "rn", **args)

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
        digest = _shape_digest("exp:rate=1", False, 2, 2)
        spec = EstimatorSpec.parse("rn")
        dist = Exponential(1.0)
        ests = np.empty(400)
        for r in range(400):
            rng = _replication(13, digest, r, 6)
            ests[r] = estimate(spec, draw_minrssu(dist, 2, 2, rng))
        halves = np.array_split(ests, 2)
        split_sd = np.sqrt(np.mean([h.var(ddof=1) for h in halves]))
        assert row.mc_se == pytest.approx(split_sd / np.sqrt(400), rel=0.2)

    def test_estimator_error_propagates(self):
        with pytest.raises(ParameterError):
            run_cell("exp:rate=1", "lstat_adj:family=exp,w=-11", 2, 2, 2)

    def test_summary_that_overflows_fails_the_cell(self):
        # estimates near 1e300: np.std squares them in float64, so mc_se is
        # inf, with no numpy warning (warnings are errors under pytest)
        with pytest.raises(DivergenceError, match="^cell summary overflows: .*mc_se=inf"):
            run_cell("exp:rate=1e-300", "rn", 2, 2, 3)
        cfg = SimulationConfig("exp:rate=1e-300", m_values=(2,), l_values=(2,),
                               estimators=("rn", "rmn"), w_lists={"rmn": (0,)}, replications=3)
        result = run_grid(cfg)
        assert result.rows == [] and len(result.failures) == 2
        assert all(isinstance(f.cause, DivergenceError) for f in result.failures)

    def test_summaries_hold_one_extended_copy(self):
        # beside the float64 matrix: one 16-byte copy of it (2x its bytes),
        # freed before np.std makes its float64 temporaries; the summaries'
        # bits are pinned by test_summaries_match_per_replication_oracle
        estimates = np.random.default_rng(3).normal(-0.25, 0.1, (72, 5000))
        tracemalloc.start()
        try:
            _cell_summaries(estimates, -0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * estimates.nbytes


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
    # at each budget of uniforms per chunk each shape spans several chunks
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
    def test_matches_per_replication_route(self, dist_text, m, l, reps, spec_text, monkeypatch):
        dist = parse_distribution(dist_text)
        spec = EstimatorSpec.parse(spec_text)
        seed, vn = 31, spec_text == "vn"
        digest = _shape_digest(dist.spec_string(), vn, m, l)
        width = m * l
        loop = np.empty(reps)
        for r in range(reps):
            rng = _replication(seed, digest, r, width)
            data = dist.sample(rng, m * l) if vn else draw_minrssu(dist, m, l, rng)
            loop[r] = _reference_estimate(spec, m, data)
            if r % 97 == 0:
                assert estimate(spec, data) == loop[r]
        for budget in (2**10, 2**12, _CHUNK_UNIFORMS):
            monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", budget)
            assert reps * width > budget
            estimates = _kernel_estimates(monkeypatch, dist, [(spec, m, l)], reps, seed)
            assert estimates[0].tobytes() == loop.tobytes()
            row = run_cell(dist, spec, m, l, reps, base_seed=seed)
            assert row.bias == row.true_value - float(np.mean(loop, dtype=np.longdouble))

    @pytest.mark.parametrize(
        "seed", [0, 42, 2**32, 2**63 + 11, 2**64 + 3, 2**127 + 3, 2**128 - 1]
    )
    @pytest.mark.parametrize("digest", [0, 7, 0xFEDCBA9876543210, 2**64 - 1])
    def test_stream_key_is_k0_and_the_counter_is_the_block(self, seed, digest):
        # k0 is the blake2b digest of the 16-byte seed and 8-byte shape
        # digest; the block is spread over counter words 0 and 1
        data = seed.to_bytes(16, "little") + digest.to_bytes(8, "little")
        k0 = int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")
        assert _stream_key(seed, digest) == k0
        for block in (0, 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**127 + 5, 2**128 - 1):
            state = replication_rng(seed, digest, block).bit_generator.state
            assert state["state"]["key"].tolist() == [k0, 0]
            assert state["state"]["counter"].tolist() == [block % 2**64, block >> 64, 0, 0]
            assert state["buffer_pos"] == 4

    # seeds and digests at word boundaries; the literals pin stream contract 3
    @pytest.mark.parametrize(
        "seed,digest,k0,first",
        [
            (0, 0, 0x282047AD06AEB62B, "0x1.b4dec1441ac74p-1"),
            (2**32 - 1, 2**32, 0xD8A786E1BFA48663, "0x1.93ed9e7ac0e66p-1"),
            (2**63 + 11, 7, 0x71EB839E0F4A6F33, "0x1.8b0a261d6ac75p-1"),
            (2**80 + 9, 0xFEDCBA9876543210, 0x6BAC1BFB30EBFDC5, "0x1.bd289159c15c9p-1"),
            (2**96 + 5, 2**64 - 1, 0x7A5241E699A5FBA9, "0x1.184c0ad2a1580p-8"),
            (2**128 - 1, 2**32 - 1, 0x955B690E0BC4166B, "0x1.b8bdc6555727cp-1"),
        ],
    )
    def test_stream_key_and_first_uniform_are_pinned(self, seed, digest, k0, first):
        r = 2**63 + 1
        assert _stream_key(seed, digest) == k0
        assert replication_rng(seed, digest, r).random().hex() == first
        assert _philox(k0, r).random().hex() == first
        assert _reset_uniforms(k0, r, r + 1, 1)[0, 0].hex() == first

    @pytest.mark.parametrize(
        "first,second,same",
        [
            ("exp:rate=1", "exp:rate=1.0", True),
            ("unif:a=2,b=3", "unif:b=3,a=2", True),
            ("powerbeta:alpha=2", "powerbeta:alpha=2.000", True),
            ("exp:rate=0.3", "exp:rate=0.30000000000000004", False),
            ("unif:a=0,b=1", "unif:a=0,b=1.0000000000000002", False),
            ("powerbeta:alpha=2", "powerbeta:alpha=3", False),
        ],
    )
    def test_shape_digest_reads_the_lossless_law_text(self, first, second, same):
        # two spellings of one law draw one stream; laws one ulp apart do not
        texts = [parse_distribution(text).spec_string() for text in (first, second)]
        assert (texts[0] == texts[1]) is same
        for vn, m, l in ((False, 2, 3), (True, 2, 3), (False, 5, 1)):
            digests = [_shape_digest(text, vn, m, l) for text in texts]
            shape = f"{texts[0]}|{'srs' if vn else 'minrssu'}|m={m}|l={l}".encode()
            expected = int.from_bytes(hashlib.blake2b(shape, digest_size=8).digest(), "big")
            assert digests[0] == expected
            assert (digests[0] == digests[1]) is same
        if same:
            grids = [
                run_grid(SimulationConfig(text, m_values=(2,), l_values=(3,),
                                          estimators=("vn", "rn"), replications=9, base_seed=4))
                for text in (first, second)
            ]
            assert rows_to_csv(grids[0].rows) == rows_to_csv(grids[1].rows)

    @pytest.mark.parametrize("budget", [2**10, 2**12, _CHUNK_UNIFORMS])
    def test_rows_do_not_depend_on_the_replication_count(self, budget, monkeypatch):
        # row r reads its own counter blocks alone: a shorter run at any
        # chunk budget gives the first rows of a longer one, bit for bit
        dist = parse_distribution("exp:rate=2")
        cells = [(EstimatorSpec.parse(text), 3, 2) for text in ("rn", "rmn:w=1", "lstat")]
        longer = _kernel_estimates(monkeypatch, dist, cells, 1000, 9)
        monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", budget)
        shorter = _kernel_estimates(monkeypatch, dist, cells, 700, 9)
        assert shorter.tobytes() == longer[:, :700].copy().tobytes()

    def test_keys_of_nearby_seeds_and_shapes_differ(self):
        seeds = [0, 1, 2**64, 2**64 + 1, 2**127 + 3]
        digests = [_shape_digest("exp:rate=1", vn, m, l)
                   for vn in (False, True) for m in (1, 2) for l in (1, 2)]
        assert len(set(digests)) == 8
        assert len({_stream_key(seed, d) for seed in seeds for d in digests}) == 40

    @pytest.mark.parametrize("width", [1, 3, 4, 5, 6, 9, 45, 48, 49, 5000, 15000])
    def test_reset_uniforms_match_replication_rng(self, width):
        seed, digest = 2**64 + 5, 0xFEDCBA9876543210
        k0, (start, stop) = _stream_key(seed, digest), (3, 6) if width > 100 else (5, 45)
        expected = [_replication(seed, digest, r, width).random(width)
                    for r in range(start, stop)]
        u = _reset_uniforms(k0, start, stop, width)
        assert u.shape == (stop - start, width)
        assert u.tobytes() == np.stack(expected).tobytes()

    def test_reset_uniforms_take_every_key_word(self):
        # key words of 0 and 2**64 - 1, each against numpy's C Philox advanced to the row
        top = 2**64 - 1
        for k0 in (0, 1, top):
            for start, stop in ((0, 3), (top - 2, top + 1)):
                u = _reset_uniforms(k0, start, stop, 13).copy()
                expected = [_philox(k0, 4 * r).random(13) for r in range(start, stop)]
                assert u.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("width", [1, 6, 9, 45])
    def test_chunk_counter_carries_into_word_1(self, width):
        # a chunk whose counter crosses 2**64 in its one fill (counter word
        # 0 wraps and word 1 takes the carry), then a chunk set with word 1
        # at 1, each as the advance oracle reads it
        k0, blocks = _stream_key(2**40 + 3, 0xFEDCBA9876543210), _blocks(width)
        start = 2**64 // blocks - 2
        assert start * blocks < 2**64 < (start + 5) * blocks
        for first, stop in ((start, start + 5), (start + 5, start + 9)):
            u = _reset_uniforms(k0, first, stop, width)
            expected = [_philox(k0, r * blocks).random(width) for r in range(first, stop)]
            assert u.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("width", [6, 9, 45])
    def test_no_row_reads_another_rows_tail(self, width):
        # a row of width % 4 != 0 uniforms leaves the rest of its last
        # counter block unread: the rows are the heads of consecutive
        # 4 * blocks ranges of one stream, and no other row reads a tail
        k0, stride = _stream_key(7, 11), 4 * _blocks(width)
        stream = _philox(k0, 3 * _blocks(width)).random(40 * stride).reshape(40, stride)
        u = _reset_uniforms(k0, 3, 43, width)
        assert u.tobytes() == stream[:, :width].copy().tobytes()
        assert not set(stream[:, width:].ravel()) & set(u.ravel())

    def test_kernel_reads_no_tail(self, monkeypatch):
        # every tail of the workspace set to NaN after each draw leaves
        # every estimate of shapes of 6, 9 and 45 uniforms (and a vn shape
        # of 9) unchanged; a read tail would make its estimates NaN
        dist = parse_distribution("exp:rate=1")
        cells = [(EstimatorSpec.parse(text), m, l) for text in ("vn", "rn", "lstat")
                 for m, l in ((2, 2), (2, 3), (3, 3), (5, 3))]
        expected = _kernel_estimates(monkeypatch, dist, cells, 300, 21)

        def poisoned(k0, start, stop, width):
            u = _reset_uniforms(k0, start, stop, width)
            full = simulation._WORKSPACE.out[: len(u) * 4 * _blocks(width)]
            full.reshape(len(u), -1)[:, width:] = np.nan
            return u

        for budget in (2**7, _CHUNK_UNIFORMS):
            monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", budget)
            monkeypatch.setattr(simulation, "_reset_uniforms", poisoned)
            assert _kernel_estimates(monkeypatch, dist, cells, 300, 21).tobytes() == (
                expected.tobytes()
            )

    def test_each_shape_is_drawn_once_for_all_its_cells(self, monkeypatch):
        # vn and MinRSSU cells of several estimators: one stream per shape and
        # replication, each row drawn once, whatever the number of cells
        cfg = SimulationConfig(
            "exp:rate=1", m_values=(2, 5), l_values=(1, 3, 12),
            estimators=("lstat", "vn", "rmn", "lstat_adj", "rn"),
            w_lists={"rmn": (0, 1), "lstat_adj": (0, 1)}, psi_family="beta",
            replications=37, base_seed=5,
        )
        monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", 2**8)
        draws = []

        def recorded(k0, start, stop, width):
            draws.append((k0, start, stop, width))
            return _reset_uniforms(k0, start, stop, width)

        monkeypatch.setattr(simulation, "_reset_uniforms", recorded)
        run_grid(cfg)
        shapes = {
            _stream_key(5, _shape_digest("exp:rate=1", vn, m, l)): m * l
            for m in (2, 5) for l in (1, 3, 12) for vn in (False, True)
        }
        rows = {}
        for k0, start, stop, width in draws:
            assert shapes[k0] == width
            rows.setdefault(k0, []).extend(range(start, stop))
        assert rows == {k0: list(range(37)) for k0 in shapes}
        assert len(draws) > len(shapes)

    def test_negative_seed_rejected(self, monkeypatch):
        with pytest.raises(DomainError, match="base seed"):
            replication_rng(-1, 0, 0)
        _forbid_drawing(monkeypatch)
        with pytest.raises(DomainError, match="base seed"):
            run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=-1)
        # each of these used to run a truncated seed: 3, 0, 1, 7 and 2
        for seed in (3.9, -0.5, True, "7", 2.5):
            with pytest.raises(DomainError, match="base seed must be an integer"):
                run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=seed)
            with pytest.raises(DomainError, match="base seed must be an integer"):
                replication_rng(seed, 0, 0)

    def test_seeds_and_indices_past_their_key_words_rejected(self, monkeypatch):
        # a seed of 10**5000 ran, and rows_to_csv then ended in a bare ValueError
        _forbid_drawing(monkeypatch)
        for seed, shown in ((2**128, "340282366920938463463374607431768211456"),
                            (10**5000, "a 16610-bit integer")):
            message = rf"^base seed must be < 2\*\*128, got {shown}$"
            with pytest.raises(DomainError, match=message):
                run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=seed)
            with pytest.raises(DomainError, match=message):
                replication_rng(seed, 0, 0)
            with pytest.raises(SpecParseError, match=message):
                SimulationConfig("exp:rate=1", base_seed=seed)
        for args, label, bits in (((0, 2**64, 0), "shape digest", 64),
                                  ((0, 0, 2**128), "counter block", 128)):
            message = rf"^{label} must be < 2\*\*{bits}, got {2**bits}$"
            with pytest.raises(DomainError, match=message):
                replication_rng(*args)
        monkeypatch.undo()
        row = run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=2**128 - 1)
        assert rows_from_csv(rows_to_csv([row])) == [row]
        assert replication_rng(2**128 - 1, 2**64 - 1, 2**128 - 1).random() < 1

    def test_numpy_integer_seed_accepted(self):
        row = run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=np.uint64(9))
        assert row == run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=9)
        assert type(row.seed) is int
        u = replication_rng(np.int64(9), np.uint64(5), np.int32(1)).random(4)
        assert u.tobytes() == replication_rng(9, 5, 1).random(4).tobytes()

    @pytest.mark.parametrize("position,label", [(1, "shape digest"), (2, "counter block")])
    def test_replication_rng_checks_digest_and_index(self, position, label):
        # 2.5, True and "3" used to run the stream of int(value); -1 ended in a bare ValueError
        for value in (2.5, True, "3"):
            args = [1, 2, 0]
            args[position] = value
            with pytest.raises(DomainError, match=f"{label} must be an integer"):
                replication_rng(*args)
        args = [1, 2, 0]
        args[position] = -1
        with pytest.raises(DomainError, match=f"{label} must be >= 0, got -1"):
            replication_rng(*args)

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
    def test_infeasible_cell_fails_before_drawing(self, spec_text, m, l, error, monkeypatch):
        spec = EstimatorSpec.parse(spec_text)
        dist = Exponential(1.0)
        rng = replication_rng(1, 0, 0)
        data = dist.sample(rng, m * l) if spec_text == "vn" else draw_minrssu(dist, m, l, rng)
        with pytest.raises(error):
            estimate(spec, data)
        _forbid_drawing(monkeypatch)
        with pytest.raises(error):
            run_cell(dist, spec, m, l, 5)

    def test_negative_sample_fails_estimate(self):
        # the grid draws no negative value (TestQuantileKernels in
        # test_distributions.py); data from outside the package meet the check
        sample = MinRssuSample(m=2, l=2, values=np.array([[-1.0, 0.5], [2.0, 0.1]]))
        with pytest.raises(DomainError, match="nonnegative"):
            estimate(EstimatorSpec.parse("lstat"), sample.values.ravel())

    def test_chunk_edges_keep_the_csv(self, monkeypatch):
        # vn and MinRSSU cells of both kinds, narrow and wide rows, and 37
        # replications: at small budgets a shape is drawn in several chunks,
        # and rows wider than the budget one row per chunk
        cfg = SimulationConfig(
            "exp:rate=1", m_values=(2, 5), l_values=(1, 3, 12),
            estimators=("lstat", "vn", "rmn", "lstat_adj", "rn"),
            w_lists={"rmn": (0, 1), "lstat_adj": (0, 1)}, psi_family="beta",
            replications=37, base_seed=5,
        )
        expected = rows_to_csv(run_grid(cfg).rows)
        chunks = {}

        def recorded(k0, start, stop, width):
            chunks.setdefault(k0, []).append((start, stop - start))
            return _reset_uniforms(k0, start, stop, width)

        monkeypatch.setattr(simulation, "_reset_uniforms", recorded)
        for budget in (2**5, 2**10):
            monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", budget)
            chunks.clear()
            assert rows_to_csv(run_grid(cfg).rows) == expected
            sizes = {size for shape in chunks.values() for _, size in shape}
            assert any(len(shape) > 1 for shape in chunks.values())
            # the widest rows, of 60 uniforms, are one row per chunk only at 2**5
            assert len(sizes) > 2 and (1 in sizes) == (budget < 60)
            for shape in chunks.values():
                assert [start for start, _ in shape] == list(
                    np.cumsum([0] + [size for _, size in shape[:-1]])
                )
                assert sum(size for _, size in shape) == 37


class TestPhiloxWorkspace:
    """The C Philox draws into a workspace that each thread keeps between draws."""

    @staticmethod
    def _at_once(work, args):
        """``[work(arg) for arg in args]``, each in its own thread, started together."""
        start = threading.Barrier(len(args), timeout=60)

        def started(arg):
            start.wait()
            return work(arg)

        # switch threads as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(args)) as pool:
                futures = [pool.submit(started, arg) for arg in args]
                return [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _in_step(monkeypatch, threads):
        """Make ``threads`` threads draw each chunk in step and estimate it in step."""
        in_step = threading.Barrier(threads, timeout=60)

        def stepped(work):
            def in_turn(*args):
                in_step.wait()
                return work(*args)

            return in_turn

        monkeypatch.setattr(simulation, "_reset_uniforms", stepped(_reset_uniforms))
        monkeypatch.setattr(simulation, "row_estimates", stepped(simulation.row_estimates))

    def test_threads_running_grids_at_once_keep_their_workspaces_apart(self, monkeypatch):
        # two protocol grids, three times each in two threads at once.  Each
        # grid draws its eight shapes in one chunk each, and the threads draw
        # and estimate each chunk in step, so grids that shared one workspace
        # would overwrite each other's uniforms in every chunk
        configs = [protocol_config(family, 20, base_seed=1) for family in ("exp", "beta")]
        serial = [rows_to_csv(run_grid(config).rows) for config in configs]
        self._in_step(monkeypatch, len(configs))
        csvs = self._at_once(
            lambda config: [rows_to_csv(run_grid(config).rows) for _ in range(3)], configs
        )
        assert csvs == [[text] * 3 for text in serial]

    def test_threads_running_philox_at_once_keep_their_workspaces_apart(self):
        # draws of 150, 60 and 25 rows, 100 each in three threads at once
        runs = [(_stream_key(11, 3), 0, 150, 16), (_stream_key(11, 2**40), 20, 80, 40),
                (2**64 - 1, 5, 30, 24)]
        serial = [_reset_uniforms(*run).tobytes() for run in runs]
        drawn = self._at_once(
            lambda run: {_reset_uniforms(*run).tobytes() for _ in range(100)}, runs
        )
        assert drawn == [{u} for u in serial]

    def test_threads_running_wide_grids_at_once_keep_their_generators_apart(self, monkeypatch):
        # the large-sample benchmark's grid shape (exp, m = 5, l = 1000, all
        # five estimators: rows of 5000 and 15000 uniforms) on two seeds,
        # three times each in two threads at once, each chunk drawn and
        # estimated in step.  A generator or output that the threads shared
        # would hand one thread's uniforms to the other.  Rows this wide keep
        # both threads' fills running at once: at l = 100 a shared generator
        # went unseen in some runs
        configs = [
            SimulationConfig(
                "exp:rate=1", m_values=(5,), l_values=(1000,),
                estimators=("vn", "rn", "rmn", "lstat", "lstat_adj"),
                w_lists={"rmn": (0,), "lstat_adj": (0,)}, psi_family="exp",
                replications=12, base_seed=seed,
            )
            for seed in (1, 2)
        ]
        serial = [rows_to_csv(run_grid(config).rows) for config in configs]
        self._in_step(monkeypatch, len(configs))
        csvs = self._at_once(
            lambda config: [rows_to_csv(run_grid(config).rows) for _ in range(3)], configs
        )
        assert csvs == [[text] * 3 for text in serial]

    def test_draws_write_one_output(self):
        # a draw's uniforms are valid until this thread's next draw
        k0 = _stream_key(3, 5)
        first = _reset_uniforms(k0, 0, 10, 12)
        later = _reset_uniforms(k0, 10, 14, 8)
        assert np.shares_memory(first, later)
        assert first.reshape(-1)[: later.size].tobytes() == later.tobytes()
        expected = [_philox(k0, 2 * r).random(8) for r in range(10, 14)]
        assert later.tobytes() == np.stack(expected).tobytes()

    def test_alternating_widths_restart_every_stream(self):
        # in a new thread, rows of 1, 3, 5, 15000 and 7 uniforms, twice over.
        # A width that is not a whole number of blocks leaves words in the
        # generator's buffer and every draw moves its counter, so each row
        # matches its stream only when each draw's state set moves the
        # counter to its first row and empties the buffer
        seed, digest = 9, 0x0123456789ABCDEF
        k0 = _stream_key(seed, digest)
        runs = [(width, start) for _ in range(2)
                for width, start in zip((1, 3, 5, 15000, 7), (0, 4, 17, 2, 30))]

        def draws():
            return [_reset_uniforms(k0, start, start + 3, width).copy() for width, start in runs]

        with ThreadPoolExecutor(1) as pool:
            drawn = pool.submit(draws).result(timeout=120)
        for (width, start), u in zip(runs, drawn):
            expected = [_replication(seed, digest, r, width).random(width)
                        for r in range(start, start + 3)]
            assert u.tobytes() == np.stack(expected).tobytes()

    def test_each_chunk_is_estimated_before_the_next_draw(self, monkeypatch):
        # narrow and wide rows of several shapes, in several chunks: every
        # row_estimates call reads the rows of the latest draw, unchanged
        # since it was drawn, and the next draw may write over it
        cfg = SimulationConfig(
            "exp:rate=1", m_values=(2, 5), l_values=(1, 3, 12),
            estimators=("lstat", "vn", "rmn", "lstat_adj", "rn"),
            w_lists={"rmn": (0, 1), "lstat_adj": (0, 1)}, psi_family="beta",
            replications=37, base_seed=5,
        )
        expected = rows_to_csv(run_grid(cfg).rows)
        monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", 2**10)
        draws, row_estimates = [], simulation.row_estimates

        def recorded(*args):
            u = _reset_uniforms(*args)
            draws.append((u, u.copy()))
            return u

        def checked(spacing, rows, weights):
            latest, kept = draws[-1]
            assert len(rows) == len(latest) and latest.tobytes() == kept.tobytes()
            return row_estimates(spacing, rows, weights)

        monkeypatch.setattr(simulation, "_reset_uniforms", recorded)
        monkeypatch.setattr(simulation, "row_estimates", checked)
        assert rows_to_csv(run_grid(cfg).rows) == expected
        assert len(draws) > 12

    @staticmethod
    def _faults_per_pass(config):
        """Minor page faults per ``run_grid`` pass on ``config``, code text, in a new interpreter.

        Counted in a new interpreter, as other tests leave this one's heap
        in a state that does not trim: two passes warm up, five are counted.
        """
        code = (
            "import resource; from crexlab import *\n"
            f"config = {config}\n"
            "for _ in range(2): run_grid(config)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(5): run_grid(config)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        return int(done.stdout) / 5

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux getrusage")
    def test_protocol_grids_do_not_fault_the_heap_in_again(self):
        # when every run allocated and freed its own words, each grid here
        # made about 180-240 minor page faults
        config = "protocol_config('exp', replications=20, base_seed=1)"
        assert self._faults_per_pass(config) <= 50

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux getrusage")
    def test_wide_rows_do_not_fault_the_heap_in_again(self):
        # the large-sample benchmark's shape at R = 80: when a chunk's
        # samples stayed alive while the next chunk was drawn, glibc trimmed
        # the heap top and each grid faulted it in again, about 350 times
        config = (
            "SimulationConfig('exp:rate=1', m_values=(5,), l_values=(1000,), "
            "estimators=('vn', 'rn', 'rmn', 'lstat', 'lstat_adj'), "
            "w_lists={'rmn': (0, 1), 'lstat_adj': (0, 1)}, psi_family='exp', "
            "replications=80, base_seed=3)"
        )
        assert self._faults_per_pass(config) <= 50

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux getrusage")
    def test_wide_srs_rows_do_not_fault_the_heap_in_again(self):
        # the same shape with vn alone: with no MinRSSU temporaries beside
        # them, chunks of 2**16 uniforms let glibc trim the heap top and
        # fault it in again, about 1330 times per grid
        config = (
            "SimulationConfig('exp:rate=1', m_values=(5,), l_values=(1000,), "
            "estimators=('vn',), replications=80, base_seed=3)"
        )
        assert self._faults_per_pass(config) <= 50


class TestRunGrid:
    GRIDS = [
        dict(
            distribution="exp:rate=1",
            m_values=(2,),
            l_values=(3,),
            estimators=("rn",),
            replications=30,
            base_seed=21,
        ),
        # vn and MinRSSU cells, m = 1 and l = 1: rows of 1 to 280 uniforms
        dict(
            distribution="unif:a=2,b=3",
            m_values=(1, 2, 3, 7),
            l_values=(1, 2, 40),
            estimators=("vn", "rn", "rmn", "lstat"),
            w_lists={"rmn": (0,)},
            replications=23,
            base_seed=2**70 + 11,
        ),
        # one shape spans several chunks
        dict(
            distribution="powerbeta:alpha=2",
            m_values=(2,),
            l_values=(2,),
            estimators=("rn", "rmn", "lstat"),
            w_lists={"rmn": (-2, -1, 0, 1)},
            replications=2500,
            base_seed=5,
        ),
    ]

    def test_single_cell_grid_matches_run_cell(self):
        # the infeasible exp m=2 lstat_adj cells fail in the grid as on their own
        configs = [SimulationConfig(**grid) for grid in self.GRIDS]
        configs.append(protocol_config("exp", replications=7, base_seed=3, sides=("order",)))
        for cfg in configs:
            result = run_grid(cfg)
            rows, failures = [], []
            for spec, m, l in cfg.cells():
                try:
                    rows.append(
                        run_cell(cfg.distribution, spec, m, l, cfg.replications,
                                 base_seed=cfg.base_seed)
                    )
                except CrexlabError as exc:
                    failures.append((spec.text(), m, l, type(exc), str(exc)))
            assert result.rows == rows
            assert [
                (f.coordinates["estimator"], f.coordinates["m"], f.coordinates["l"],
                 type(f.cause), str(f.cause))
                for f in result.failures
            ] == failures
        assert len(failures) == 8 and {f[3] for f in failures} == {ParameterError}

    @pytest.mark.parametrize(
        "grid",
        [
            protocol_config("unif", replications=1, base_seed=3),
            protocol_config("beta", replications=2, base_seed=2**40 + 3),
            # at m=2 the lstat_adj w=-11 cells fail in row_estimator and
            # share their shapes with live cells
            dict(
                distribution="exp:rate=1",
                m_values=(2, 3),
                l_values=(1, 2),
                estimators=("vn", "rn", "lstat", "lstat_adj"),
                w_lists={"lstat_adj": (-11, 0)},
                psi_family="exp",
                replications=7,
                base_seed=12345,
            ),
        ],
        ids=["R=1", "R=2", "rejected-cells"],
    )
    def test_summaries_match_per_replication_oracle(self, grid, monkeypatch):
        cfg = grid if isinstance(grid, SimulationConfig) else SimulationConfig(**grid)
        dist, reps, seed = cfg.distribution, cfg.replications, cfg.base_seed
        true_value = float(crex(dist))
        rows, failures = [], []
        for spec, m, l in cfg.cells():
            vn = spec.kind.value == "vn"
            digest, width = _shape_digest(dist.spec_string(), vn, m, l), m * l
            ests = np.empty(reps)
            try:
                for r in range(reps):
                    rng = _replication(seed, digest, r, width)
                    if vn:
                        data = dist.sample(rng, m * l)
                    else:
                        data = draw_minrssu(dist, m, l, rng)
                    ests[r] = estimate(spec, data)
            except CrexlabError as exc:
                failures.append((spec.text(), m, l, str(exc)))
                continue
            dev = ests.astype(np.longdouble) - true_value
            mc_se = float(np.std(ests, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
            rows.append(SimulationRow(
                distribution=dist.family,
                params=dist.param_text(),
                estimator=spec.text(with_w=False),
                m=m,
                l=l,
                w=spec.w,
                reps=reps,
                seed=seed,
                true_value=true_value,
                bias=true_value - float(np.mean(ests, dtype=np.longdouble)),
                rmse=float(np.sqrt(np.mean(dev * dev))),
                mc_se=mc_se,
            ))
        # at budgets where some shapes take several chunks and one row each
        for budget in (2**4, 2**9, _CHUNK_UNIFORMS):
            monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", budget)
            result = run_grid(cfg)
            assert result.rows == rows
            assert [
                (f.coordinates["estimator"], f.coordinates["m"], f.coordinates["l"], str(f.cause))
                for f in result.failures
            ] == failures

    def test_protocol_grid_matches_golden_file(self):
        # the golden files pin each family's CSV and failure list byte for byte
        for family in ("exp", "unif", "beta"):
            result = run_grid(protocol_config(family, replications=20, base_seed=1))
            golden = f"protocol_{family}_r20_s1"
            assert rows_to_csv(result.rows).encode() == (DATA / f"{golden}.csv").read_bytes()
            failures = "".join(f"{type(f.cause).__name__}: {f}\n" for f in result.failures)
            assert failures.encode() == (DATA / f"{golden}_failures.txt").read_bytes()

    def test_estimators_of_one_shape_share_their_samples(self):
        # rn and rmn:w=-m have the same weights, and so do lstat and
        # lstat_adj:family=beta,w=m (psi = m - w = 0): on common random
        # numbers each pair gives the same bits
        cfg = SimulationConfig(
            "powerbeta:alpha=2", m_values=(2, 3, 5), l_values=(1, 4),
            estimators=("rn", "rmn", "lstat", "lstat_adj"),
            w_lists={"rmn": {m: (-m, 0) for m in (2, 3, 5)},
                     "lstat_adj": {m: (m, 0) for m in (2, 3, 5)}},
            psi_family="beta", replications=40, base_seed=2**127 + 3,
        )
        result = run_grid(cfg)
        assert result.ok
        cells = {(row.m, row.l, row.estimator, row.w): row for row in result.rows}
        for m in (2, 3, 5):
            for l in (1, 4):
                pairs = [((m, l, "rn", None), (m, l, "rmn", -m)),
                         ((m, l, "lstat", None), (m, l, "lstat_adj:family=beta", m))]
                for first, second in pairs:
                    same = [(getattr(cells[first], f), getattr(cells[second], f))
                            for f in ("bias", "rmse", "mc_se")]
                    assert all(a.hex() == b.hex() for a, b in same), (first, same)
                assert cells[m, l, "rmn", 0].bias != cells[m, l, "rn", None].bias

    @pytest.mark.parametrize("estimator", ["vn", "rn", "rmn", "lstat", "lstat_adj"])
    def test_cell_rows_do_not_depend_on_the_rest_of_the_grid(self, estimator):
        # each shape's streams are keyed by the shape alone: a one-cell grid
        # gives the row that cell has in a grid of every estimator and shape
        w_lists = {"rmn": (-1, 0), "lstat_adj": (0, 1)}
        common = dict(replications=30, base_seed=2**64 + 17)
        full = run_grid(SimulationConfig(
            "unif:a=1,b=4", m_values=(2, 3, 5), l_values=(1, 4),
            estimators=("vn", "rn", "rmn", "lstat", "lstat_adj"), w_lists=w_lists,
            psi_family="beta", **common,
        ))
        alone = run_grid(SimulationConfig(
            "unif:a=1,b=4", m_values=(3,), l_values=(4,), estimators=(estimator,),
            w_lists={k: v for k, v in w_lists.items() if k == estimator},
            psi_family="beta" if estimator == "lstat_adj" else None, **common,
        ))
        assert full.ok and alone.ok and alone.rows
        rows = {(row.m, row.l, row.estimator, row.w): row for row in full.rows}
        for row in alone.rows:
            assert rows[row.m, row.l, row.estimator, row.w] == row

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
        assert rows_to_csv(rows_from_csv(text)) == text

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

    @pytest.mark.parametrize("family", ["exp", "unif", "beta"])
    def test_goldens_round_trip_byte_for_byte(self, family):
        text = (DATA / f"protocol_{family}_r20_s1.csv").read_text()
        assert rows_to_csv(rows_from_csv(text)) == text

    def test_rows_are_immutable_and_hash_by_value(self):
        row = run_cell("exp:rate=1", "rmn:w=0", 2, 2, 5, base_seed=3)
        with pytest.raises(AttributeError):
            row.bias = 0.0
        twin = run_cell("exp:rate=1", "rmn:w=0", 2, 2, 5, base_seed=3)
        assert twin is not row and twin == row and hash(twin) == hash(row)
        assert len({row, twin}) == 1
        # a named tuple: a changed copy by _replace, and equal to its plain tuple
        assert row._replace(bias=0.0).bias == 0.0 and row.bias != 0.0
        assert row == tuple(getattr(row, name) for name in CSV_HEADER)

    def test_header_is_the_field_names(self):
        assert CSV_HEADER == SimulationRow._fields

    def test_read_rows_carry_their_field_types(self):
        rows = rows_from_csv((DATA / "protocol_exp_r20_s1.csv").read_text())
        assert {row.w is None for row in rows} == {True, False}
        for row in rows:
            assert row.w is None or type(row.w) is int
            assert {type(v) for v in (row.m, row.l, row.reps, row.seed)} == {int}
            assert {type(v) for v in (row.true_value, row.bias, row.rmse, row.mc_se)} == {float}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "sides,message",
        [
            (("spacing", "bogus"), "unknown side 'bogus' (use spacing/order)"),
            ("spacingorder", "sides must be a list, got 'spacingorder'"),
            ("order", "sides must be a list, got 'order'"),
            ((), "sides must not be empty"),
            (None, "sides must be a list, got None"),
            ([np.zeros(2)], "unknown side array([0., 0.]) (use spacing/order)"),
        ],
        ids=["unknown-side", "bare-string", "bare-side", "empty", "none", "array-side"],
    )
    def test_protocol_sides_checked(self, sides, message):
        # these dropped a side, matched by substring, or gave a 0-cell grid
        with pytest.raises(SpecParseError) as info:
            protocol_config("exp", replications=2, sides=sides)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("family", ["zzz", 5, ["exp"]])
    def test_unknown_psi_family(self, family):
        # a family that is not a string used to pass here and fail in the grid as ValueError
        with pytest.raises(SpecParseError, match="unknown psi family"):
            SimulationConfig(
                distribution="exp:rate=1",
                estimators=("lstat_adj",),
                w_lists={"lstat_adj": (0,)},
                psi_family=family,
            )

    def test_bad_replications(self):
        with pytest.raises(SpecParseError):
            SimulationConfig(distribution="exp:rate=1", replications=0)

    VALID = dict(
        distribution="exp:rate=1",
        m_values=(2,),
        l_values=(2,),
        estimators=("rn", "rmn"),
        w_lists={"rmn": (0,)},
        replications=2,
        base_seed=1,
    )

    @pytest.mark.parametrize(
        "key,field,value",
        [
            ("replications", "replications", 2.5),
            ("replications", "replications", True),
            ("replications", "replications", "5"),
            ("seed", "base_seed", 3.9),
            ("seed", "base_seed", 1e30),
            ("m", "m_values", [2.7]),
            ("m", "m_values", "23"),
            ("m", "m_values", 2),
            ("l", "l_values", [True]),
            ("estimators", "estimators", "rn"),
            ("w", "w_lists", {"rmn": [0.7]}),
            ("w", "w_lists", {"rmn": "01"}),
        ],
    )
    def test_non_integer_or_string_values_rejected(self, tmp_path, capsys, key, field, value):
        # a truncated or split value would run a grid other than the one written
        with pytest.raises(SpecParseError, match="must be an integer|must be a list"):
            SimulationConfig(**{**self.VALID, field: value})
        raw = {"distribution": "exp:rate=1", "m": [2], "l": [2], "estimators": ["rn", "rmn"],
               "w": {"rmn": [0]}, "replications": 2, "seed": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path)]) == 0
        path.write_text(json.dumps({**raw, key: value}))
        capsys.readouterr()
        assert main(["simulate", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("crexlab:")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("m_values", (2, 0), "m value must be >= 1, got 0"),
            ("l_values", (-1,), "l value must be >= 1, got -1"),
            ("replications", 0, "replications must be >= 1, got 0"),
            ("base_seed", -1, "base seed must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_values_name_the_value(self, field, value, message):
        with pytest.raises(SpecParseError, match=message):
            SimulationConfig(**{**self.VALID, field: value})

    def test_unknown_bias_convention(self):
        # both entry points used to end in a bare ValueError
        known = r"unknown bias convention 'bogus' \(known: truth-minus-estimate, estimate-minus"
        with pytest.raises(SpecParseError, match=known):
            SimulationConfig(**{**self.VALID, "bias_convention": "bogus"})
        with pytest.raises(SpecParseError, match=known):
            run_cell("exp:rate=1", "rn", 2, 2, 3, bias_convention="bogus")

    def test_numpy_integers_accepted(self):
        cfg = SimulationConfig(
            **{**self.VALID, "m_values": np.array([2]), "l_values": (np.int32(2),),
               "replications": np.int64(2), "base_seed": np.uint64(1)}
        )
        assert (cfg.m_values, cfg.l_values, cfg.replications, cfg.base_seed) == ((2,), (2,), 2, 1)
        assert all(type(v) is int for v in (*cfg.m_values, *cfg.l_values, cfg.replications))
        assert run_grid(cfg).rows == run_grid(SimulationConfig(**self.VALID)).rows

    @pytest.mark.parametrize(
        "field,value", [("replications", 2.5), ("replications", 0), ("base_seed", 7),
                        ("bias_convention", "bogus")]
    )
    def test_built_config_is_frozen(self, field, value):
        # run_grid trusts the fields that construction checked
        cfg = protocol_config("unif", 3, sides=("spacing",))
        expected = rows_to_csv(run_grid(cfg).rows)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert rows_to_csv(run_grid(cfg).rows) == expected

    def test_w_lists_are_read_only_copies(self):
        # the protocol grids are module dicts: a config must not hand them out
        cfg = protocol_config("exp", 3, sides=("spacing",))
        expected = [(spec.text(), m, l) for spec, m, l in cfg.cells()]
        with pytest.raises(TypeError):
            cfg.w_lists["rmn"][2] = (9,)
        with pytest.raises(TypeError):
            cfg.w_lists["rmn"] = (9,)
        fresh = protocol_config("exp", 3, sides=("spacing",))
        assert [(spec.text(), m, l) for spec, m, l in fresh.cells()] == expected
        w_list = [0, 1]
        cfg = SimulationConfig(**{**self.VALID, "w_lists": {"rmn": w_list}})
        w_list.append(2)
        assert cfg.w_lists["rmn"] == (0, 1)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("m_values", (), "m must not be empty"),
            ("l_values", [], "l must not be empty"),
            ("estimators", (), "estimators must not be empty"),
            ("w_lists", {"rmn": ()}, "w list of 'rmn' must not be empty"),
            ("w_lists", {"rmn": {2: (0,), 3: []}}, "w list of 'rmn' at m=3 must not be empty"),
            # w lists the grid never reads are lists all the same
            ("w_lists", {"rmn": (0,), "lstat_adj": "01"},
             "w list of 'lstat_adj' must be a list, got '01'"),
            ("w_lists", {"rmn": {2: (0,), 7: 1}}, "w list of 'rmn' at m=7 must be a list, got 1"),
            ("w_lists", {"rmn": {3: (0,)}}, "no w list for estimator 'rmn' at m=2"),
        ],
        ids=["m", "l", "estimators", "w", "per-m-w", "w-of-estimator-not-run", "w-at-m-not-run",
             "per-m-w-missing-m"],
    )
    def test_every_list_checked_on_construction(self, field, value, message):
        # an empty list gave a grid without its cells, down to none at all
        with pytest.raises(SpecParseError) as info:
            SimulationConfig(**{**self.VALID, field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"estimators": ("rn",), "w_lists": {}, "psi_family": "bogus"},
             "psi_family 'bogus' is set, but the grid has no lstat_adj cell"),
            ({"w_lists": {"rmn": (0,)}, "psi_family": "beta"},
             "psi_family 'beta' is set, but the grid has no lstat_adj cell"),
            ({"estimators": ("rn",), "w_lists": {"bogus": (1,)}},
             "w_lists key 'bogus' is not one of the estimators"),
            ({"estimators": ("rn",)}, "w_lists key 'rmn' is not one of the estimators"),
        ],
        ids=["bogus-psi", "psi-without-lstat-adj", "bogus-w", "w-of-estimator-left-out"],
    )
    def test_fields_no_cell_reads_are_rejected(self, fields, message):
        # each was accepted, and no cell of the grid read it
        with pytest.raises(SpecParseError) as info:
            SimulationConfig(**{**self.VALID, **fields})
        assert str(info.value) == message

    @pytest.mark.parametrize("w_lists", [[("rmn", (0,))], None, "rmn"])
    def test_w_lists_must_be_a_mapping(self, w_lists):
        # a list of pairs used to end in a bare AttributeError
        with pytest.raises(SpecParseError, match="w_lists must be a mapping of estimator kind"):
            SimulationConfig(**{**self.VALID, "w_lists": w_lists})

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

    @pytest.mark.parametrize("target", [(1e308, 1e308), (1e154, 1.5e154)],
                             ids=["square-overflows", "sum-overflows"])
    def test_non_finite_residual_diverges(self, target):
        # (bias - 1e308)**2 raised OverflowError; two finite squares can sum to inf
        with pytest.raises(DivergenceError, match="calibration residual of exp:rate=1"):
            calibrate_parameter(["exp:rate=1"], "rn", 2, 2, target, replications=3)

    @pytest.mark.parametrize("target_bias", [0.0, 0.2, -0.2])
    def test_law_listed_twice_returns_the_first_of_equal_residuals(self, target_bias):
        # at target bias 0 both conventions tie too, so all four residuals are equal
        first, second = Exponential(1.0), Exponential(1.0)
        result = calibrate_parameter(
            [first, second], "rn", 2, 2, (target_bias, 0.3), replications=20
        )
        keys = [(d["distribution"], d["bias_convention"]) for d in result.details]
        conventions = ["truth-minus-estimate", "estimate-minus-truth"]
        assert keys == [("exp:rate=1", c) for c in conventions] * 2
        residuals = [d["residual"] for d in result.details]
        assert residuals[:2] == residuals[2:]
        best = residuals.index(min(residuals))
        assert best < 2
        assert result.distribution is first
        assert result.bias_convention.value == conventions[best]
        entry = result.details[best]
        assert (result.bias, result.rmse, result.residual) == (
            entry["bias"], entry["rmse"], entry["residual"]
        )
        if target_bias == 0.0:
            assert best == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            calibrate_parameter([], "rn", 2, 2, (0.0, 0.0))

    def test_target_must_be_two_finite_numbers(self, capsys):
        # a nan target used to give residual=nan for every candidate and a "best fit"
        for target in [(float("nan"), 0.3), (0.1, float("inf")), ("x", 0), (0.1,), None]:
            with pytest.raises(DomainError, match="calibration target"):
                calibrate_parameter(["exp:rate=1"], "rn", 2, 2, target, replications=10)
        argv = ["calibrate", "--dist-grid", "exp:rate=1", "exp:rate=2", "--estimator", "rn",
                "--m", "2", "--l", "2", "--target-bias", "nan", "--target-rmse", "0.3",
                "--reps", "10"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("crexlab: calibration target must be finite")


class TestLimitReferee:
    """Grid means and variances against the limits they converge to.

    On MinRSSU data the pooled estimators converge to the CREX of the
    mixture law of the recorded values, whose survival is ``(1/m) sum_i
    S**i``: ``-(1/2m**2) sum_{i,j<=m} int S**(i+j)``.  The limits do not
    depend on the streams, so this referees the grid kernel under any
    stream contract.  The seed, the sizes and every tolerance were fixed
    before the first run:

    - a mean is within ``K`` Monte Carlo SE plus ``(1 + 2|D - n|) E/n`` of
      its target, where ``E`` is the mixture mean and ``D`` the weight
      denominator.  ``E/(2n)`` bounds the bias of ``-1/2 int Shat**2`` and
      of the L-statistic's discretization, and ``|D - n| E/n`` the shift
      of weights with a denominator other than n;
    - the spacing sums start at the sample minimum, the minimum of all
      ``N = l m (m + 1) / 2`` draws, so their target adds half its
      expectation, ``int S**N / 2``;
    - ``n R mc_se**2`` of ``lstat``, n times its variance, is within ``K
      sqrt(2 / (R - 1))`` relative of ``asymptotic_variance_minrssu``.
    """

    SEED, REPS, N, K = 7, 400, 3000, 4.0

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("family", ["exp", "unif", "beta"])
    def test_pooled_estimators_approach_the_mixture_limit(self, family, m):
        dist = parse_distribution(PROTOCOL_DISTRIBUTIONS[family])
        spi = dist.survival_power_integral
        l = self.N // m
        n = m * l
        cfg = SimulationConfig(
            dist, m_values=(m,), l_values=(l,),
            estimators=("rn", "rmn", "lstat", "lstat_adj"),
            w_lists={"rmn": RMN_W_GRID[m], "lstat_adj": LSTAT_ADJ_W_GRID[family][m]},
            psi_family=family, replications=self.REPS, base_seed=self.SEED,
        )
        result = run_grid(cfg)
        assert result.ok and len(result.rows) == 10
        pairs = range(1, m + 1)
        limit = -sum(spi(i + j) for i in pairs for j in pairs) / (2 * m * m)
        mixture_mean = sum(spi(i) for i in pairs) / m
        first_spacing = spi(l * m * (m + 1) // 2) / 2
        for (spec, _, _), row in zip(cfg.cells(), result.rows):
            spacing, denom = row_estimator(spec, m, n)
            target = limit + (first_spacing if spacing else 0.0)
            allowance = (1 + 2 * abs(denom - n)) * mixture_mean / n
            mean = row.true_value - row.bias
            assert abs(mean - target) <= self.K * row.mc_se + allowance, spec.text()
        lstat = next(row for row in result.rows if row.estimator == "lstat")
        ratio = n * self.REPS * lstat.mc_se**2 / asymptotic_variance_minrssu(dist, m)
        assert abs(ratio - 1) <= self.K * np.sqrt(2 / (self.REPS - 1)), ratio


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
