"""Tests of the benchmark itself (not of crexlab).

    PYTHONPATH=src python -m pytest benchmarks -q

The smoke tests run every workload at tiny sizes through ``run.py`` and
check that each metric ``BENCHMARK.json`` names appears with its unit.
The other tests feed the correctness checks corrupted output and expect
them to fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crexlab import distributions, simulation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("# provenance ")
    provenance = json.loads(lines[-2][len("# provenance "):])
    assert provenance["seed"] == 3 and provenance["versions"]["numpy"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def exp_grid():
    config = simulation.protocol_config("exp", replications=3, base_seed=5)
    return simulation.run_grid(config, workers=2)


def test_grid_checks_pass_on_real_output(exp_grid):
    text = simulation.rows_to_csv(exp_grid.rows)
    assert checks.check_grid_csv(text) == []
    assert checks.check_failures(
        checks.failure_set(exp_grid), checks.EXPECTED_PROTOCOL_FAILURES
    ) == []


def test_corrupted_grid_output_fails(exp_grid):
    text = simulation.rows_to_csv(exp_grid.rows)
    header, first, *rest = text.splitlines(keepends=True)
    fields = first.split(",")
    fields[10] = repr(float(fields[10]) * (1 + 1e-6))  # rmse
    assert checks.check_grid_csv("".join([header, ",".join(fields), *rest]))
    fields[10] = "nan"
    assert checks.check_grid_csv("".join([header, ",".join(fields), *rest]))
    flipped = text.replace("-0.25", "-0.26", 1)
    assert checks.check_same_csv(flipped, text, "rerun")
    found = checks.failure_set(exp_grid)
    assert checks.check_failures(found - {min(found)}, checks.EXPECTED_PROTOCOL_FAILURES)
    extra = found | {("exp:rate=1", "rn", 2, 2)}
    assert checks.check_failures(extra, checks.EXPECTED_PROTOCOL_FAILURES)


def test_corrupted_measure_and_cli_output_fails():
    assert checks.check_routes(-0.25, -0.25 + 5e-9, 0.0, "ok") == []
    assert checks.check_routes(-0.25, -0.25 + 5e-8, 1e-8, "off")
    assert checks.check_routes(-0.25, float("nan"), 0.0, "nan")
    assert checks.check_exact(-1 / 96, -1 / 96, "anchor") == []
    assert checks.check_exact(-1 / 96 * (1 + 1e-12), -1 / 96, "anchor")
    line = "crex[minrssu,m=3]               -0.0104167 closed-form                0\n"
    assert checks.check_cli_value("header\n" + line, -1 / 96, "measure") == []
    assert checks.check_cli_value("header\n" + line.replace("67", "68"), -1 / 96, "measure")
    assert checks.check_cli_value("", -1 / 96, "measure")


def test_tracer_keeps_pool_threads_apart():
    tracer = tracing.Tracer()
    tracer.patch(simulation, "run_grid", "simulation.run_grid")
    tracer.patch(simulation, "run_cell", "simulation.run_cell")
    tracer.patch(simulation, "replication_rng", "simulation.replication_rng")
    tracer.patch(simulation, "estimate", "estimators.estimate")
    tracer.install()
    try:
        config = simulation.protocol_config("unif", replications=3, base_seed=1)
        simulation.run_grid(config, workers=2)
    finally:
        tracer.uninstall()
    assert simulation.run_cell.__module__ == "crexlab.simulation"
    spans = tracer.spans()
    names = tracer.names
    cells = spans["name"] == names.index("simulation.run_cell")
    assert np.count_nonzero(cells) == 80
    assert np.count_nonzero(spans["name"] == names.index("simulation.replication_rng")) == 240
    assert tracing.check_nesting(spans, names) == []

    moved = dict(spans)
    child = np.flatnonzero(moved["parent"] >= 0)[0]
    moved["thread"] = spans["thread"].copy()
    moved["thread"][child] += 1
    assert "child span on another thread than its parent" in tracing.check_nesting(moved, names)

    stretched = dict(spans)
    stretched["end"] = spans["end"].copy()
    stretched["end"][child] += 10.0
    assert tracing.check_nesting(stretched, names)


def test_draw_probe_measures_uniforms_and_bytes():
    exp = distributions.parse_distribution("exp:rate=1")
    uniforms, peak = workloads.draw_probe([(exp, 3, 4), (exp, 2, 5)])
    # 4 cycles of 1 + 2 + 3 uniforms, then 5 cycles of 1 + 2
    assert uniforms == (24 + 15) / 2
    assert peak >= 8 * 15


def test_calibration_is_fixed_work_and_rescales_time():
    assert workloads.calibrate() == workloads.calibrate()
    nominal = workloads.CALIBRATION_NOMINAL_S
    # a block timed while the machine ran the loop at half its nominal speed
    assert workloads.calibrated(1.0, 2 * nominal) == 0.5
    assert workloads.calibrated(0.3, nominal) == 0.3
