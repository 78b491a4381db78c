"""Run one crexlab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the package is taken from ``src/`` next to this
directory, with no install.  The workload runs in a process of its own
(``workloads.py``), timed from here: this process measures the set-up
time over several fresh processes, reads the workload process's peak
resident memory when it ends, and with ``--trace 1`` times fresh CLI
start-ups.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.  The line
before it starts with ``# provenance`` and the full record, checks
included, goes to ``benchmarks/results/``.  The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the run could not
be made (no ``src/crexlab``, a crashed or overdue workload process).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "crexlab"
WORKLOADS = HERE / "workloads.py"
RESULTS = HERE / "results"
# the whole run, probes included, must end within this many seconds
BUDGET_S = 170.0


class RunError(Exception):
    """The run could not be made; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CREXLAB_THREADS", None)
    return env


def timed_run(cmd, timeout):
    """Run ``cmd`` to completion; return (wall seconds, stdout)."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{' '.join(cmd[1:3])} ran out of the time budget") from None
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RunError(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()}")
    return wall, done.stdout


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(cmd, timeout):
    """Run the workload process; return (stdout, peak RSS in MB).

    The process gets its own session, so on time-out it and any CLI
    process it started are killed together.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timer = threading.Timer(timeout, kill_group, (proc.pid,))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise RunError("workload process ran out of the time budget")
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}")
    # ru_maxrss is in KiB on Linux; it covers the process and its waited children
    return out, usage.ru_maxrss / 1024.0


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        raise RunError("workload process printed nothing")
    return json.loads(lines[-1])


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def measure(args, spec):
    started = time.perf_counter()

    def left(reserve=0.0):
        """Seconds of the budget left after keeping ``reserve`` for later steps."""
        return max(BUDGET_S - (time.perf_counter() - started) - reserve, 1.0)

    python = sys.executable
    setups, imports = [], []

    def probe(count, reserve):
        for _ in range(count):
            wall, out = timed_run([python, str(WORKLOADS), "probe"], timeout=left(reserve))
            setups.append(wall)
            imports.append(last_json(out)["import_s"])

    # half the set-up probes before the workload and half after, so the
    # median spans the run and not one moment of a machine whose speed drifts
    probes = 1 if args.smoke else 3
    probe(probes, args.seconds + 10.0)
    cmd = [python, str(WORKLOADS), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    out, peak_rss_mb = run_workload(cmd, timeout=left(10.0))
    child = last_json(out)
    probe(probes, 5.0 if args.trace else 0.0)

    metrics = dict(child["metrics"])
    if args.trace:
        metrics["cli.import_s"] = statistics.median(imports)
        startups = [
            timed_run([python, "-m", "crexlab.cli", "--version"], timeout=left())[0]
            for _ in range(1 if args.smoke else 3)
        ]
        metrics["cli.startup_ms"] = statistics.median(startups) * 1e3
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RunError(f"metrics not produced: {missing}")
    problems = child["problems"]
    result = {
        "correct": not problems and child["failed"] == 0,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": child["params"],
        "window": child["window"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": child["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "setup_probes_s": setups,
        "import_probes_s": imports,
        "spans": child.get("spans"),
        "wall_s": time.perf_counter() - started,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=provenance, problems=problems, all_metrics=metrics,
                  samples=child["samples"])
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run one crexlab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no package at {PACKAGE}; run from a checkout with src/", file=sys.stderr)
        return 2
    try:
        return measure(args, spec)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
