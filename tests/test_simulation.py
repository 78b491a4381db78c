import dataclasses
import json
import os
import subprocess
import sys
import threading
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
from crexlab.estimators import estimate, psi, row_estimator
from crexlab.simulation import (
    _CHUNK_UNIFORMS,
    _NUMPY_PHILOX_MAX_WIDTH,
    SimulationConfig,
    SimulationRow,
    _chunks,
    _draw_groups,
    _Group,
    _cell_digest,
    _philox_uniforms,
    _replication_keys,
    _reset_uniforms,
)

DATA = Path(__file__).parent / "data"


def _numpy_uniforms(keys, width):
    """``width`` uniforms per stream from one numpy Philox run."""
    blocks = np.full(len(keys), -(-width // 4))
    return _philox_uniforms(keys, blocks).reshape(len(keys), -1)[:, :width]


def _forbid_drawing(monkeypatch):
    """Fail the test if the grid kernel draws any uniform, by either generator."""

    def no_draw(*args):
        raise AssertionError("drew uniforms")

    monkeypatch.setattr(simulation, "_philox_uniforms", no_draw)
    monkeypatch.setattr(simulation, "_reset_uniforms", no_draw)


def _inject_samples(monkeypatch, values):
    """Make every MinRSSU cycle the kernel draws record ``values``; returns the calls."""
    calls = []

    def injected(dist, m, u):
        calls.append(u.shape)
        return np.broadcast_to(values, u.shape[:-1] + (m,)).copy()

    monkeypatch.setattr(simulation, "_minrssu_values", injected)
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
        # one replication of l=2 cycles, three uniforms each
        assert calls == [(1, 2, 3)]
        assert row.bias == pytest.approx(0.25, abs=0.0)
        assert row.rmse == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize(
        "change,error,message",
        [
            ({"m": 0}, DomainError, "m must be >= 1, got 0"),
            ({"l": 2.5}, DomainError, "l must be an integer, got 2.5"),
            ({"replications": True}, DomainError, "replications must be an integer, got True"),
            ({"base_seed": -1}, DomainError, "base seed must be >= 0, got -1"),
            ({"bias_convention": "bogus"}, SpecParseError, "unknown bias convention 'bogus'"),
        ],
        ids=["m", "l", "replications", "seed", "convention"],
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
    # at a budget of 2**14 uniforms per chunk each shape spans several chunks
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
        monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", 2**14)
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
        keys = _replication_keys(seed, [digest], reps)
        group = _Group(spec_text == "vn", m, l, keys, [row_estimator(spec, m, m * l)])
        assert len(list(_chunks([group]))) > 1
        _draw_groups(dist, [group])
        assert group.estimates[0].tobytes() == loop.tobytes()
        row = run_cell(dist, spec, m, l, reps, base_seed=seed)
        assert row.bias == row.true_value - float(np.mean(loop, dtype=np.longdouble))

    @pytest.mark.parametrize(
        "seed", [0, 42, 2**32 - 1, 2**32, 2**63 + 11, 2**80 + 9, 2**96 + 5, 2**127 + 3]
    )
    @pytest.mark.parametrize("digest", [0, 7, 2**32 - 1, 2**32, 0xFEDCBA9876543210, 2**64 - 1])
    def test_keys_match_seed_sequence(self, seed, digest):
        # seeds of 1, 2, 3 and 4 words; digests of 1 word (high word 0) and 2
        keys = _replication_keys(seed, [digest], 70000)[0]
        assert keys.shape == (70000, 2) and keys.dtype == np.uint64
        for r in (0, 1, 2, 65535, 65536, 69999):
            expected = np.random.SeedSequence([seed, digest, r]).generate_state(2, np.uint64)
            assert keys[r].tolist() == expected.tolist()
        rng = replication_rng(seed, digest, 3)
        assert rng.bit_generator.state["state"]["key"].tolist() == keys[3].tolist()

    @pytest.mark.parametrize(
        "width", [1, 3, 4, 5, _NUMPY_PHILOX_MAX_WIDTH, _NUMPY_PHILOX_MAX_WIDTH + 1, 15000]
    )
    def test_both_generators_match_replication_rng(self, width):
        seed, digest, reps = 2**64 + 5, 0xFEDCBA9876543210, 3 if width > 100 else 40
        keys = _replication_keys(seed, [digest], reps)[0]
        expected = np.stack([replication_rng(seed, digest, r).random(width) for r in range(reps)])
        for uniforms in (_numpy_uniforms, _reset_uniforms()):
            assert uniforms(keys, width).tobytes() == expected.tobytes()

    def test_packed_philox_matches_replication_rng(self, monkeypatch):
        # every (m, l) shape of m = 1..5 and l = 1..3, vn and MinRSSU: rows
        # of 1 to 45 uniforms; about 2.3 chunks of rows in all, so a chunk
        # holds rows of several widths and a chunk boundary splits a group
        seed, reps = 2**40 + 3, _CHUNK_UNIFORMS // 260
        digests = {}
        for m in range(1, 6):
            for l in range(1, 4):
                for vn in (False, True):
                    cells = [_cell_digest("exp:rate=1", f"{vn}|{k}", m, l) for k in range(2)]
                    keys = _replication_keys(seed, cells, reps)
                    digests[_Group(vn, m, l, keys, [(True, m * l)] * 2)] = cells
        groups = list(digests)
        chunks = list(_chunks(groups))
        assert all(g.width <= _NUMPY_PHILOX_MAX_WIDTH for g in groups)
        assert any(len({group.width for group, _, _ in chunk}) > 1 for chunk in chunks)
        assert any(chunk[-1][0] is later[0][0] for chunk, later in zip(chunks, chunks[1:]))
        runs, drawn = [], {group: [] for group in groups}

        def counted(keys, blocks):
            runs.append(len(keys))
            return _philox_uniforms(keys, blocks)

        monkeypatch.setattr(simulation, "_philox_uniforms", counted)
        monkeypatch.setattr(
            _Group, "add_rows", lambda group, dist, start, stop, u: drawn[group].append(u)
        )
        _draw_groups(Exponential(1.0), groups)
        assert len(runs) == len(chunks)
        for group, cells in digests.items():
            expected = [
                replication_rng(seed, digest, r).random(group.width)
                for digest in cells
                for r in range(reps)
            ]
            assert np.concatenate(drawn[group]).tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("seed", [0, 42, 2**64 + 3])
    @pytest.mark.parametrize("reps", [1, 5])
    def test_grid_keys_match_seed_sequence(self, seed, reps):
        # digests of one word (high word 0) and of two, interleaved: a grid
        # hashes the two kinds apart; a seed of 2**64 or more has three
        # words, so its entropy is longer than the pool
        digests = [7, 0xFEDCBA9876543210, 0, 2**32, 2**32 - 1, 2**64 - 1]
        keys = _replication_keys(seed, digests, reps)
        assert keys.shape == (len(digests), reps, 2) and keys.dtype == np.uint64
        for cell, digest in enumerate(digests):
            for r in range(reps):
                expected = np.random.SeedSequence([seed, digest, r]).generate_state(2, np.uint64)
                assert keys[cell, r].tolist() == expected.tolist()

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

    def test_numpy_integer_seed_accepted(self):
        row = run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=np.uint64(9))
        assert row == run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=9)
        assert type(row.seed) is int
        u = replication_rng(np.int64(9), np.uint64(5), np.int32(1)).random(4)
        assert u.tobytes() == replication_rng(9, 5, 1).random(4).tobytes()

    @pytest.mark.parametrize("position,label", [(1, "cell digest"), (2, "replication index")])
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

    def test_negative_sample_fails_like_per_replication_route(self, monkeypatch):
        sample = MinRssuSample(m=2, l=2, values=np.array([[-1.0, 0.5], [2.0, 0.1]]))
        spec = EstimatorSpec.parse("lstat")
        with pytest.raises(DomainError):
            estimate(spec, sample.values.ravel())
        calls = _inject_samples(monkeypatch, sample.values)
        with pytest.raises(DomainError):
            run_cell("exp:rate=1", spec, 2, 2, 3)
        assert calls == [(3, 2, 3)]
        # in one group of both kinds, listed order first, only the
        # order-statistic cells fail; the spacing cells keep their estimates
        cfg = SimulationConfig(
            "exp:rate=1", m_values=(2,), l_values=(2,),
            estimators=("lstat", "rn", "lstat_adj", "rmn"),
            w_lists={"rmn": (0, 1), "lstat_adj": (0, 1)}, psi_family="beta", replications=3,
        )
        result = run_grid(cfg)
        assert calls[1:] == [(18, 2, 3)]
        assert [f.coordinates["estimator"] for f in result.failures] == [
            "lstat", "lstat_adj:family=beta,w=0", "lstat_adj:family=beta,w=1"
        ]
        assert all(isinstance(f.cause, DomainError) for f in result.failures)
        assert [row.estimator for row in result.rows] == ["rn", "rmn", "rmn"]
        for row in result.rows:
            w_spec = EstimatorSpec.parse("rn" if row.w is None else f"rmn:w={row.w}")
            assert row.bias == row.true_value - estimate(w_spec, sample)

    def test_chunk_edges_keep_the_csv(self, monkeypatch):
        # vn and MinRSSU cells of both kinds, narrow and wide rows, and 37
        # replications: at small budgets partial cells of both kinds fall at
        # both ends of a chunk
        cfg = SimulationConfig(
            "exp:rate=1", m_values=(2, 5), l_values=(1, 3, 12),
            estimators=("lstat", "vn", "rmn", "lstat_adj", "rn"),
            w_lists={"rmn": (0, 1), "lstat_adj": (0, 1)}, psi_family="beta",
            replications=37, base_seed=5,
        )
        expected = rows_to_csv(run_grid(cfg).rows)
        add_rows, edges = _Group.add_rows, set()

        def recorded(group, dist, start, stop, u):
            replications = group.estimates.shape[1]
            split = group.spacing_cells * replications
            if start % replications:
                edges.add(("start", start < split))
            if stop % replications:
                edges.add(("stop", stop <= split))
            add_rows(group, dist, start, stop, u)

        monkeypatch.setattr(_Group, "add_rows", recorded)
        for budget in (2**8, 2**12):
            monkeypatch.setattr(simulation, "_CHUNK_UNIFORMS", budget)
            edges.clear()
            assert rows_to_csv(run_grid(cfg).rows) == expected
            assert edges == {(end, kind) for end in ("start", "stop") for kind in (True, False)}

    def test_philox_leaves_its_arguments_unchanged(self):
        seed, digests, reps = 2**64 + 5, [7, 2**40], 9
        keys = _replication_keys(seed, digests, reps).reshape(-1, 2)
        blocks = np.full(len(keys), 3)
        before = [keys.copy(), blocks.copy()]
        first, second = _philox_uniforms(keys, blocks), _philox_uniforms(keys, blocks)
        assert [keys.tobytes(), blocks.tobytes()] == [array.tobytes() for array in before]
        expected = np.stack(
            [replication_rng(seed, d, r).random(12) for d in digests for r in range(reps)]
        )
        for u in (first, second):
            assert u.reshape(len(expected), -1).tobytes() == expected.tobytes()

    def test_philox_oracle_mixes_every_block_count(self):
        # one run over streams of 1 to 13 blocks in a scrambled order, rows
        # of 1 to 52 uniforms; keys of replications and keys whose words
        # are 0 and 2**64 - 1, each against numpy's C Philox from counter 0
        seed, digest, top = 2**40 + 3, 0xFEDCBA9876543210, 2**64 - 1
        edge_keys = [(0, 0), (top, top), (0, top), (top, 0)]
        streams = []
        for b in (7, 1, 13, 4, 12, 2, 9, 3, 11, 5, 10, 6, 8):
            for width in (4 * b - 3, 4 * b):
                r = len(streams) // 2
                key = _replication_keys(seed, [digest], r + 1)[0, r]
                streams.append((key, width, replication_rng(seed, digest, r)))
                key = np.array(edge_keys[r % 4], np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key))
                streams.append((key, width, rng))
        keys = np.stack([key for key, _, _ in streams])
        blocks = np.array([-(-width // 4) for _, width, _ in streams])
        before = [keys.copy(), blocks.copy()]
        u = _philox_uniforms(keys, blocks)
        assert [keys.tobytes(), blocks.tobytes()] == [array.tobytes() for array in before]
        assert u.shape == (blocks.sum(), 4) and set(blocks.tolist()) == set(range(1, 14))
        rows = np.split(u, np.cumsum(blocks)[:-1])
        for row, (key, width, rng) in zip(rows, streams):
            assert rng.bit_generator.state["state"]["key"].tolist() == key.tolist()
            assert row.reshape(-1)[:width].tobytes() == rng.random(width).tobytes()


class TestPhiloxWorkspace:
    """The numpy Philox runs in a workspace that each thread keeps between runs."""

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

    def test_threads_running_grids_at_once_keep_their_workspaces_apart(self, monkeypatch):
        # two grids of different sizes, three times each in two threads at
        # once.  Each grid makes one numpy Philox run of 19 _mulhilo calls,
        # and the two threads make each call in step, so runs that shared
        # one workspace would overwrite each other's words in every run
        configs = [protocol_config(family, 20, base_seed=1) for family in ("exp", "beta")]
        serial = [rows_to_csv(run_grid(config).rows) for config in configs]
        in_step, mulhilo = threading.Barrier(len(configs), timeout=60), simulation._mulhilo

        def stepped(*args):
            in_step.wait()
            mulhilo(*args)

        monkeypatch.setattr(simulation, "_mulhilo", stepped)
        csvs = self._at_once(
            lambda config: [rows_to_csv(run_grid(config).rows) for _ in range(3)], configs
        )
        assert csvs == [[text] * 3 for text in serial]

    def test_threads_running_philox_at_once_keep_their_workspaces_apart(self):
        # runs of 2400, 1000 and 600 blocks, 100 each in three threads at once
        keys = _replication_keys(11, [3, 2**40], 300).reshape(-1, 2)
        runs = [(keys[:600], np.full(600, 4)), (keys[100:350], np.full(250, 4)),
                (keys[200:300], np.full(100, 6))]
        serial = [_philox_uniforms(*run).tobytes() for run in runs]
        drawn = self._at_once(
            lambda run: {_philox_uniforms(*run).tobytes() for _ in range(100)}, runs
        )
        assert drawn == [{u} for u in serial]

    def test_a_run_keeps_its_uniforms_through_later_runs(self):
        keys = _replication_keys(3, [5, 2**40], 60).reshape(-1, 2)
        first = _philox_uniforms(keys[:10], np.full(10, 3))
        kept = first.copy()
        # larger, smaller and larger runs again, all after the first
        for streams, blocks in ((120, 12), (4, 1), (60, 7)):
            later = _philox_uniforms(keys[:streams], np.full(streams, blocks))
            assert not np.shares_memory(first, later)
        assert first.tobytes() == kept.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux getrusage")
    def test_protocol_grids_do_not_fault_the_heap_in_again(self):
        # counted in a new interpreter, as other tests leave this one's heap
        # in a state that does not trim; when every run allocated and freed
        # its own words, each grid here made about 180-240 minor page faults
        code = (
            "import resource; from crexlab import protocol_config, run_grid\n"
            "config = protocol_config('exp', replications=20, base_seed=1)\n"
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
        assert int(done.stdout) / 5 <= 50


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
        # vn and MinRSSU cells, m = 1 and l = 1, and rows on both sides of
        # the generator switch: 1 to 280 uniforms per replication
        dict(
            distribution="unif:a=2,b=3",
            m_values=(1, 2, 3, 7),
            l_values=(1, 2, 40),
            estimators=("vn", "rn", "rmn", "lstat"),
            w_lists={"rmn": (0,)},
            replications=23,
            base_seed=2**70 + 11,
        ),
        # one group spans several chunks, split inside cells
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
            # share their groups with live cells
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
    def test_summaries_match_per_replication_oracle(self, grid):
        cfg = grid if isinstance(grid, SimulationConfig) else SimulationConfig(**grid)
        dist, reps, seed = cfg.distribution, cfg.replications, cfg.base_seed
        true_value = float(crex(dist))
        rows, failures = [], []
        for spec, m, l in cfg.cells():
            digest = _cell_digest(dist.spec_string(), spec.text(), m, l)
            ests = np.empty(reps)
            try:
                for r in range(reps):
                    rng = replication_rng(seed, digest, r)
                    if spec.kind.value == "vn":
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

    def test_generator_switch_changes_no_estimate(self, monkeypatch):
        cfg = SimulationConfig(**self.GRIDS[1])
        widths = {"numpy": set(), "reset": set()}

        # the numpy Philox sees whole blocks: four uniforms per block
        def numpy_philox(keys, blocks):
            widths["numpy"].update((4 * blocks).tolist())
            return _philox_uniforms(keys, blocks)

        def reset_philox():
            uniforms = _reset_uniforms()
            return lambda keys, width: widths["reset"].add(width) or uniforms(keys, width)

        monkeypatch.setattr(simulation, "_philox_uniforms", numpy_philox)
        monkeypatch.setattr(simulation, "_reset_uniforms", reset_philox)
        expected = run_grid(cfg).rows
        assert max(widths["numpy"]) <= _NUMPY_PHILOX_MAX_WIDTH < min(widths["reset"])
        for width in (0, 10**9):
            monkeypatch.setattr(simulation, "_NUMPY_PHILOX_MAX_WIDTH", width)
            assert run_grid(cfg).rows == expected

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


class TestConfigValidation:
    @pytest.mark.parametrize(
        "sides,message",
        [
            (("spacing", "bogus"), "unknown side 'bogus' (use spacing/order)"),
            ("spacingorder", "sides must be a list, got 'spacingorder'"),
            ("order", "sides must be a list, got 'order'"),
            ((), "sides must not be empty"),
            (None, "sides must be a list, got None"),
        ],
        ids=["unknown-side", "bare-string", "bare-side", "empty", "none"],
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
        ],
        ids=["m", "l", "estimators", "w", "per-m-w", "w-of-estimator-not-run", "w-at-m-not-run"],
    )
    def test_every_list_checked_on_construction(self, field, value, message):
        # an empty list gave a grid without its cells, down to none at all
        with pytest.raises(SpecParseError) as info:
            SimulationConfig(**{**self.VALID, field: value})
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
