"""The benchmark's workloads, each run in a process of its own.

``run.py`` starts this file with ``src`` on ``PYTHONPATH``:

    python3 benchmarks/workloads.py probe
    python3 benchmarks/workloads.py run --workload NAME --seed N \\
        --seconds S --trace 0|1 [--smoke]

``probe`` imports crexlab, runs the warm-up and prints the import time;
``run.py`` times a few probes from outside to get the set-up time.
``run`` warms up the same way, then repeats whole passes of the workload
until ``--seconds`` have passed, checks every output and prints one JSON
line.  A pass is a list of blocks of about a tenth of a second; after
each block a fixed calibration loop that uses no crexlab code is timed,
and the block's time is rescaled to the loop's nominal speed (see
``calibrated``).  With ``--trace 1`` a traced second warm-up runs before
the window and passes alternate between untraced and traced, which gives
the per-layer figures and the tracing overhead.
"""

# Time the package import before anything else loads numpy or scipy.
from time import perf_counter

_IMPORT_START = perf_counter()
import crexlab  # noqa: E402

IMPORT_S = perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from crexlab import (  # noqa: E402
    _quadrature,
    cli,
    discrimination,
    distributions,
    estimators,
    measures,
    sampling,
    simulation,
)

import checks  # noqa: E402
from tracing import Tracer, check_nesting, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Timed grid passes run on one thread: on the 2-core reference machine a
# 2-thread pool is slower (the threads contend for the interpreter lock)
# and its pass times spread far more between runs.  The pool runs once
# after the window, where its output must equal the serial output and
# the traced run reads its busy ratio.
WORKERS = 1
POOL_WORKERS = 2
ALL_ESTIMATORS = ("vn", "rn", "rmn", "lstat", "lstat_adj")


def _check_source():
    where = Path(crexlab.__file__).resolve().parent
    if where != SRC / "crexlab":
        sys.exit(f"crexlab imported from {where}, expected {SRC / 'crexlab'}")


def _cli_argv_cycle(rng):
    """One (measure, estimate, discriminate) triple of closed-form CLI calls,
    each with the library call that must give the printed value."""
    rate = f"{rng.uniform(0.5, 2.0):.4f}"
    b = f"{rng.uniform(0.5, 2.0):.4f}"
    m, l, seed = rng.randint(1, 8), rng.randint(2, 6), rng.randint(0, 10**6)
    exp = f"exp:rate={rate}"
    unif = f"unif:a=0,b={b}"
    parse = distributions.parse_distribution

    def drawn_estimate():
        sample = sampling.draw_minrssu(
            parse(exp), m, l, simulation.replication_rng(seed, 0, 0)
        )
        return estimators.estimate(estimators.EstimatorSpec.parse("rmn:w=0"), sample)

    return [
        (
            ["measure", "--dist", exp, "--design", "minrssu", "--m", str(m)],
            lambda: measures.crex_minrssu_design(parse(exp), m).value,
        ),
        (
            ["estimate", "--estimator", "rmn:w=0", "--draw", exp,
             "--m", str(m), "--l", str(l), "--seed", str(seed)],
            drawn_estimate,
        ),
        (
            ["discriminate", "--dist", unif, "--mode", "designs", "--m", str(m)],
            lambda: discrimination.d_designs(parse(unif), m).value,
        ),
    ]


def check_cli_calls(rng):
    """Run one seeded CLI triple in fresh processes; each printed value must
    equal the library value at the printed precision."""
    problems = []
    for argv, library in _cli_argv_cycle(rng):
        done = subprocess.run(
            [sys.executable, "-m", "crexlab.cli", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        label = " ".join(argv)
        if done.returncode != 0:
            problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
        else:
            problems += checks.check_cli_value(done.stdout, library(), label)
    return problems


def warm_up():
    """Touch every layer once, so first-call costs (the Gauss-Legendre node
    cache, lazy scipy imports) land in set-up, not in the measured window."""
    exp = distributions.parse_distribution("exp:rate=1")
    config = simulation.SimulationConfig(
        exp,
        m_values=(2,),
        l_values=(2,),
        estimators=ALL_ESTIMATORS,
        w_lists={"rmn": (0,), "lstat_adj": (0,)},
        psi_family="exp",
        replications=2,
        base_seed=0,
    )
    simulation.run_grid(config, workers=POOL_WORKERS)
    for route in ("closed", "quadrature"):
        measures.crex(exp, method=route)
        measures.crex_minrssu_design(exp, 2, method=route)
        discrimination.d_designs(exp, 2, method=route)
    estimators.asymptotic_variance_srs(exp)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv, _ in _cli_argv_cycle(random.Random(0)):
            cli.main(argv)


class GridWorkload:
    """Repeated ``run_grid`` calls on fixed configs (``workers=1``).

    A pass runs every config once; a request is one ``run_grid`` call and
    its work is the replications of the cells that completed.  The first
    CSV of each config is the reference every rerun must equal byte for
    byte; after the window one ``workers=2`` run must equal it too.
    """

    # work is replications, so per-layer calls can be given per replication
    work_is_replications = True

    def __init__(self, configs, expected_failures):
        self.configs = configs
        self.expected_failures = expected_failures
        self.reference = {}
        self.cells_attempted = 0
        self.cells_failed = 0

    def blocks(self):
        """One block per config."""
        return list(self.configs.items())

    def run_block(self, block):
        """Return (work, requests, seconds of request time, problems, failed)."""
        key, config = block
        start = perf_counter()
        result = simulation.run_grid(config, workers=WORKERS)
        elapsed = perf_counter() - start
        self.cells_attempted += len(result.rows) + len(result.failures)
        self.cells_failed += len(result.failures)
        found = self._check(key, result, "rerun")
        return config.replications * len(result.rows), 1, elapsed, found, int(bool(found))

    def end_pass(self):
        return [], 0

    def _check(self, key, result, label):
        text = simulation.rows_to_csv(result.rows)
        problems = checks.check_failures(
            checks.failure_set(result), self.expected_failures.get(key, frozenset())
        )
        if key not in self.reference:
            self.reference[key] = text
            return problems + checks.check_grid_csv(text)
        return problems + checks.check_same_csv(text, self.reference[key], f"{key}, {label}")

    def draw_shapes(self):
        return [(config.distribution, m, l) for config in self.configs.values()
                for m in config.m_values for l in config.l_values]

    def final_checks(self):
        problems = []
        for key, config in self.configs.items():
            problems += self._check(key, simulation.run_grid(config, workers=POOL_WORKERS),
                                    f"workers={POOL_WORKERS}")
        return problems


def protocol_grid(seed, smoke):
    """The paper's table grid, both sides, for exp, unif and beta."""
    reps = 2 if smoke else 20
    base_seed = random.Random(seed).getrandbits(31)
    configs = {
        family: simulation.protocol_config(family, reps, base_seed)
        for family in ("exp", "unif", "beta")
    }
    params = {"replications": reps, "base_seed": base_seed, "families": list(configs),
              "sides": "spacing,order", "workers": WORKERS,
              "pool_check_workers": POOL_WORKERS, "cells_per_pass": 240}
    return GridWorkload(configs, {"exp": checks.EXPECTED_PROTOCOL_FAILURES}), params


def large_sample(seed, smoke):
    """One large-n cell shape: exp, m=5, l=1000 (n=5000), all five estimators."""
    reps = 2 if smoke else 80
    base_seed = random.Random(seed).getrandbits(31)
    l = 50 if smoke else 1000
    config = simulation.SimulationConfig(
        "exp:rate=1",
        m_values=(5,),
        l_values=(l,),
        estimators=ALL_ESTIMATORS,
        w_lists={"rmn": (0,), "lstat_adj": (0,)},
        psi_family="exp",
        replications=reps,
        base_seed=base_seed,
    )
    params = {"replications": reps, "base_seed": base_seed, "distribution": "exp:rate=1",
              "m": 5, "l": l, "estimators": list(ALL_ESTIMATORS), "w": 0,
              "workers": WORKERS, "pool_check_workers": POOL_WORKERS, "cells_per_pass": 5}
    return GridWorkload({"large": config}, {}), params


def _route_values(result):
    """(value, abs error bound) pairs of a measure or discrimination result."""
    items = result if isinstance(result, tuple) else (result,)
    return [(x.value, getattr(x, "abs_error_bound", 0.0)) for x in items]


class MeasuresSweep:
    """Every design and discrimination measure by both routes, four families.

    A request evaluates one measure by the closed and the quadrature route
    and counts two evaluations; the routes must agree within the
    quadrature error bound plus 1e-8.  The asymptotic variances are single
    evaluations on the double-quadrature route.
    """

    work_is_replications = False
    # about a tenth of a second of requests between two calibrations
    BLOCK = 12
    # Fixed laws: quadrature cost depends on the parameters, so seeding
    # them would make the work differ between seeds.  The seed sets the
    # ages of the residual measures and the order of the requests.
    SPECS = ("exp:rate=1", "unif:a=0,b=1", "finite:a=2,b=3", "powerbeta:alpha=2")

    def __init__(self, seed, smoke):
        rng = random.Random(seed)
        self.cli_rng = random.Random(rng.getrandbits(32))
        self.specs = self.SPECS
        self.ages = [rng.uniform(0.1, 0.5) for _ in self.specs]
        top = 3 if smoke else 30
        self.design_m = range(1, top + 1)
        self.sparse_m = (1, 2, 3) if smoke else (1, 2, 5, 10, 20, 30)
        self.set_sizes = range(1, 3 if smoke else 11)
        self.variance_m = (1, 2) if smoke else (1, 2, 3)
        self.requests = self._requests()
        self.variances = {}
        rng.shuffle(self.requests)
        self.params = {"distributions": list(self.specs), "age_quantiles": self.ages,
                       "design_m": [1, top], "sparse_m": list(self.sparse_m),
                       "set_sizes": [1, self.set_sizes[-1]],
                       "variance_m": list(self.variance_m),
                       "requests_per_pass": len(self.requests)}

    def _requests(self):
        out = []
        for spec, u in zip(self.specs, self.ages):
            d = distributions.parse_distribution(spec)
            t = float(d.quantile(u))
            # bind loop values as defaults; module attributes are looked up
            # at call time so the tracer's wrappers see every call
            paired = [(f"crex {spec}", lambda r, d=d: measures.crex(d, method=r))]
            for m in self.design_m:
                paired.append((f"srs m={m} {spec}",
                               lambda r, d=d, m=m: measures.crex_srs_design(d, m, method=r)))
                paired.append((f"minrssu m={m} {spec}",
                               lambda r, d=d, m=m: measures.crex_minrssu_design(d, m, method=r)))
            for m in self.sparse_m:
                paired.append((f"dynamic m={m} t={t:.4g} {spec}",
                               lambda r, d=d, m=m, t=t: measures.dynamic_crex_designs(d, m, t, method=r)))
                paired.append((f"d_designs m={m} {spec}",
                               lambda r, d=d, m=m: discrimination.d_designs(d, m, method=r)))
            for i in self.set_sizes:
                paired.append((f"d_min_vs_parent i={i} {spec}",
                               lambda r, d=d, i=i: discrimination.d_min_vs_parent(d, i, method=r)))
            single = [(f"avar srs {spec}", lambda d=d: estimators.asymptotic_variance_srs(d))]
            for m in self.variance_m:
                single.append((f"avar minrssu m={m} {spec}",
                               lambda d=d, m=m: estimators.asymptotic_variance_minrssu(d, m)))
            out += [(label, call, True) for label, call in paired]
            out += [(label, call, False) for label, call in single]
        return out

    def blocks(self):
        """The shuffled requests in blocks of ``BLOCK`` requests."""
        return [self.requests[i:i + self.BLOCK] for i in range(0, len(self.requests), self.BLOCK)]

    def run_block(self, block):
        """Return (work, requests, seconds of request time, problems, failed)."""
        work, elapsed, problems, failed = 0, 0.0, [], 0
        for label, call, paired in block:
            found = []
            if paired:
                start = perf_counter()
                closed = call("closed")
                quadrature = call("quadrature")
                elapsed += perf_counter() - start
                work += 2
                for (c, _), (q, bound) in zip(_route_values(closed), _route_values(quadrature)):
                    found += checks.check_routes(c, q, bound, label)
            else:
                start = perf_counter()
                value = call()
                elapsed += perf_counter() - start
                work += 1
                self.variances[label] = value
                if not (np.isfinite(value) and value >= 0.0):
                    found.append(f"{label}: bad variance {value!r}")
            problems += found
            failed += bool(found)
        return work, len(block), elapsed, problems, failed

    def end_pass(self):
        """Check the variances of the pass; return (problems, failed)."""
        problems, failed = [], 0
        for spec in self.specs:
            # the one-set mixture is the parent law: both variances coincide
            found = checks.check_exact(
                self.variances.pop(f"avar minrssu m=1 {spec}"),
                self.variances.pop(f"avar srs {spec}"),
                f"avar minrssu m=1 vs srs {spec}", rtol=1e-12,
            )
            problems += found
            failed += bool(found)
        return problems, failed

    def draw_shapes(self):
        # no draws in a pass: the warm-up's grid shape
        return [(distributions.parse_distribution("exp:rate=1"), 2, 2)]

    def final_checks(self):
        exp = distributions.parse_distribution("exp:rate=1")
        problems = check_cli_calls(self.cli_rng)
        for route in ("closed", "quadrature"):
            single = measures.crex(exp, method=route)
            design = measures.crex_minrssu_design(exp, 3, method=route)
            if route == "closed":
                problems += checks.check_exact(single.value, -0.25, "Exp(1) crex")
                problems += checks.check_exact(design.value, -1.0 / 96, "Exp(1) minrssu m=3")
            else:
                problems += checks.check_routes(-0.25, single.value, single.abs_error_bound,
                                                "Exp(1) crex quadrature")
                problems += checks.check_routes(-1.0 / 96, design.value, design.abs_error_bound,
                                                "Exp(1) minrssu m=3 quadrature")
        return problems


def measures_sweep(seed, smoke):
    workload = MeasuresSweep(seed, smoke)
    return workload, workload.params


WORKLOADS = {
    "protocol-grid": protocol_grid,
    "large-sample": large_sample,
    "measures-sweep": measures_sweep,
}


def patch_layers(tracer):
    """Wrap the public function each layer exposes to its caller."""

    def routed(position):
        def pick(args, kwargs):
            method = kwargs.get("method", args[position] if len(args) > position else "closed")
            text = getattr(method, "value", method)
            return "measures.quadrature" if text.startswith("quad") else "measures.closed"

        return pick, ("measures.closed", "measures.quadrature")

    tracer.patch(simulation, "run_grid", "simulation.run_grid")
    tracer.patch(simulation, "run_cell", "simulation.run_cell", cpu=True)
    tracer.patch(simulation, "replication_rng", "simulation.replication_rng")
    tracer.patch(simulation, "draw_minrssu", "sampling.draw_minrssu")
    tracer.patch(simulation, "estimate", "estimators.estimate")
    tracer.patch(simulation, "crex", routed(1))
    tracer.patch(distributions.Distribution, "sample", "distributions.sample")
    for attr, position in (("crex", 1), ("crex_srs_design", 2),
                           ("crex_minrssu_design", 2), ("dynamic_crex_designs", 3)):
        tracer.patch(measures, attr, routed(position))
    tracer.patch(discrimination, "d_designs", "discrimination.d_designs")
    tracer.patch(discrimination, "d_min_vs_parent", "discrimination.d_min_vs_parent")
    # measures reaches the kernel through the module, discrimination
    # through its own imported name: wrap both bindings
    tracer.patch(_quadrature, "survival_power_quad", "quadrature.survival_power_quad")
    tracer.patch(discrimination, "survival_power_quad", "quadrature.survival_power_quad")
    tracer.patch(estimators, "double_quad_kinked", "quadrature.double_quad_kinked")
    tracer.patch(estimators, "asymptotic_variance_srs", "estimators.asymptotic_variance")
    tracer.patch(estimators, "asymptotic_variance_minrssu", "estimators.asymptotic_variance")


def layer_metrics(tracer, window, pool_cpu_s, passes, replications):
    """Per-layer figures of a traced run.

    ``window`` is the (start, end) of the passes.  Times per call, shares
    and cell figures cover the traced warm-up before the window and the
    traced passes in it.  Call counts cover the traced passes only, given
    per replication (0 when the passes draw none) or per pass.  The busy
    ratio covers the ``run_grid`` calls made with the pool, outside the
    window, whose cells spent ``pool_cpu_s`` of CPU time.
    """
    spans, names = tracer.spans(), tracer.names
    dur = spans["end"] - spans["start"]
    before_end = spans["start"] < window[1]
    in_passes = (spans["start"] >= window[0]) & before_end

    def rows(name):
        return spans["name"] == names.index(name)

    def total(name):
        return float(dur[rows(name) & before_end].sum())

    def per_call(name, scale):
        return total(name) / max(np.count_nonzero(rows(name) & before_end), 1) * scale

    def per_rep(name):
        return np.count_nonzero(rows(name) & in_passes) / replications if replications else 0.0

    def per_pass(name):
        return np.count_nonzero(rows(name) & in_passes) / passes

    cell_time = total("simulation.run_cell")
    out = {}
    for layer in ("simulation.replication_rng", "sampling.draw_minrssu", "estimators.estimate"):
        out[f"{layer}.calls_per_rep"] = per_rep(layer)
        out[f"{layer}.us_per_call"] = per_call(layer, 1e6)
        out[f"{layer}.share"] = total(layer) / cell_time
    out["distributions.sample.calls_per_rep"] = per_rep("distributions.sample")
    out["distributions.sample.us_per_call"] = per_call("distributions.sample", 1e6)
    cells = rows("simulation.run_cell") & before_end
    out["simulation.run_cell.calls_per_pass"] = per_pass("simulation.run_cell")
    out["simulation.run_cell.ms_p50"] = float(np.median(dur[cells])) * 1e3
    out["simulation.run_cell.self_share"] = float(self_times(spans)[cells].sum()) / cell_time
    # CPU time, not wall time: a cell waiting for the interpreter lock is not busy
    pooled = rows("simulation.run_grid") & ~in_passes
    out["simulation.run_grid.busy_ratio"] = pool_cpu_s / (
        float(dur[pooled].sum()) * POOL_WORKERS)
    out["measures.closed.calls_per_pass"] = per_pass("measures.closed")
    out["measures.closed.us_per_call"] = per_call("measures.closed", 1e6)
    out["measures.quadrature.calls_per_pass"] = per_pass("measures.quadrature")
    out["measures.quadrature.ms_per_call"] = per_call("measures.quadrature", 1e3)
    for kernel in ("quadrature.survival_power_quad", "quadrature.double_quad_kinked"):
        out[f"{kernel}.calls_per_pass"] = per_pass(kernel)
        out[f"{kernel}.ms_per_call"] = per_call(kernel, 1e3)
    out["discrimination.d_designs.ms_per_call"] = per_call("discrimination.d_designs", 1e3)
    return out


def _philox_words(rng):
    """64-bit words a Philox generator has handed out so far."""
    state = rng.bit_generator.state
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    # each counter step fills a buffer of four words; buffer_pos is the next unread
    return 4 * counter - (4 - state["buffer_pos"])


def draw_probe(shapes):
    """Mean uniforms consumed and mean peak bytes allocated by one
    ``draw_minrssu`` call per (distribution, m, l) shape.

    Run after the window, on one thread: the uniforms are the advance of
    the call's Philox stream, the bytes the peak tracemalloc sees (numpy
    reports its buffers to it) while the call runs.
    """
    uniforms, peaks = [], []
    for index, (dist, m, l) in enumerate(shapes):
        rng = simulation.replication_rng(0, index, 0)
        before = _philox_words(rng)
        tracemalloc.start()
        try:
            simulation.draw_minrssu(dist, m, l, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        uniforms.append(_philox_words(rng) - before)
    return statistics.fmean(uniforms), statistics.fmean(peaks)


def cli_main_ms(samples):
    """Median wall time of in-process ``cli.main(argv)`` over the CLI mix."""
    rng = random.Random(1)
    times = []
    with contextlib.redirect_stdout(io.StringIO()):
        while len(times) < samples:
            for argv, _ in _cli_argv_cycle(rng):
                start = perf_counter()
                cli.main(argv)
                times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


# Nominal time of one ``calibrate()`` call, about its time on the 2-core
# reference machine.  The shared machine's speed drifts by up to a factor
# of two within minutes, for crexlab and for this loop alike, so block
# times are rescaled by nominal / measured calibration time next to them.
CALIBRATION_NOMINAL_S = 0.007


def calibrate():
    """A fixed mix of interpreter work and small numpy calls, like a
    replication's, that uses no crexlab code: its time tracks the speed
    the machine gives this process at the moment, not the program."""
    rng = np.random.Generator(np.random.Philox(12345))
    total = 0.0
    counts = {}
    for i in range(1000):
        x = np.sort(rng.random(8 + i % 8))
        y = np.cumsum(x) / x.size
        total += float(y[-1] - x[0]) + float(np.dot(x, x))
        counts[i % 17] = counts.get(i % 17, 0) + sum(k * k for k in range(12))
    return total + len(counts)


def calibration_s():
    start = perf_counter()
    calibrate()
    return perf_counter() - start


def calibrated(seconds, calibration):
    """``seconds`` measured while ``calibrate()`` took ``calibration``
    seconds, rescaled to the calibration's nominal speed."""
    return seconds * CALIBRATION_NOMINAL_S / calibration


def cell_cpu_s(tracer):
    return tracer.counts().get("simulation.run_cell.cpu_s", 0.0)


def run(args):
    workload, params = WORKLOADS[args.workload](args.seed, args.smoke)
    warm_up()
    tracer = None
    if args.trace:
        tracer = Tracer()
        patch_layers(tracer)
        # first-call costs are paid: a traced second warm-up times the
        # layers this workload's passes do not use
        tracer.install()
        warm_up()
        tracer.uninstall()
        cpu_before_window = cell_cpu_s(tracer)

    # the calibrated rate of each whole pass: work over the summed
    # calibrated request time of its blocks
    rates = {False: [], True: []}
    raw_rates = {False: [], True: []}
    work_done = {False: 0, True: 0}
    calibrations, problems = [], []
    passes = requests = failed = 0
    window_start = perf_counter()
    last = calibration_s()
    while True:
        traced = bool(tracer) and passes % 2 == 1
        work = raw = scaled = 0.0
        for block in workload.blocks():
            if traced:
                tracer.install()
            done, count, elapsed, found, failures = workload.run_block(block)
            if traced:
                tracer.uninstall()
            now = calibration_s()
            scaled += calibrated(elapsed, (last + now) / 2)
            raw += elapsed
            last = now
            calibrations.append(now)
            work += done
            requests += count
            problems += found
            failed += failures
        found, failures = workload.end_pass()
        problems += found
        failed += failures
        rates[traced].append(work / scaled)
        raw_rates[traced].append(work / raw)
        work_done[traced] += work
        passes += 1
        if passes >= 2 and perf_counter() - window_start >= args.seconds:
            break
    window_end = perf_counter()
    window = {"seconds": window_end - window_start, "passes": passes,
              "requests": requests, "calibrations": len(calibrations),
              "calibration_s_p50": statistics.median(calibrations)}
    if tracer:
        # the final checks run the pool: trace them for its busy ratio
        cpu_in_passes = cell_cpu_s(tracer) - cpu_before_window
        tracer.install()
    problems += workload.final_checks()
    if tracer:
        tracer.uninstall()

    spans = None
    if tracer:
        spans = tracer.spans()
        problems += check_nesting(spans, tracer.names)
        replications = work_done[True] if workload.work_is_replications else 0
        pool_cpu_s = cell_cpu_s(tracer) - cpu_in_passes
        metrics = layer_metrics(tracer, (window_start, window_end), pool_cpu_s,
                                len(rates[True]), replications)
        metrics["simulation.run_grid.cell_fail_ratio"] = (
            getattr(workload, "cells_failed", 0) / max(getattr(workload, "cells_attempted", 0), 1)
        )
        uniforms, peak = draw_probe(workload.draw_shapes())
        metrics["sampling.draw_minrssu.uniforms_per_call"] = uniforms
        metrics["sampling.draw_minrssu.peak_bytes"] = peak
        metrics["trace.overhead_ratio"] = (
            statistics.median(rates[False]) / statistics.median(rates[True])
        )
        metrics["cli.main.ms_p50"] = cli_main_ms(6 if args.smoke else 30)
        out_dir = ROOT / "benchmarks" / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {"work_per_cal_s": statistics.median(rates[False])}
    print(json.dumps({
        "attempted": requests,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "params": params,
        "window": window,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "crexlab": crexlab.__version__},
        "spans": None if spans is None else int(spans["id"].size),
        "samples": {"untraced_pass_rates": rates[False], "traced_pass_rates": rates[True],
                    "untraced_raw_pass_rates": raw_rates[False],
                    "traced_raw_pass_rates": raw_rates[True], "calibration_s": calibrations},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("probe", help="import, warm up and print the import time")
    p = sub.add_parser("run", help="run one workload and print its result")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    _check_source()
    if args.mode == "probe":
        warm_up()
        print(json.dumps({"import_s": IMPORT_S}))
    else:
        run(args)


if __name__ == "__main__":
    main()
