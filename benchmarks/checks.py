"""Correctness checks on the outputs of a benchmark run.

Each check returns a list of problem strings; an empty list means the
output passed.  The checks take plain values (CSV text, printed CLI
lines, numbers), so the benchmark's tests can feed them corrupted output
and see them fail.
"""

from __future__ import annotations

import csv
import io
import math

# lstat_adj with the exp weight offsets at m=2: psi = -2 + w with
# w in -11..-8 gives n + psi <= 0 for n = 4 and 6, so these cells are
# infeasible by construction and must fail, while every other cell runs.
EXPECTED_PROTOCOL_FAILURES = frozenset(
    ("exp:rate=1", f"lstat_adj:family=exp,w={w}", 2, l)
    for w in (-11, -10, -9, -8)
    for l in (2, 3)
)

IDENTITY_RTOL = 1e-9
ROUTE_ATOL = 1e-8


def failure_set(grid_result):
    """The coordinates of a GridResult's failed cells."""
    return frozenset(
        (c["distribution"], c["estimator"], c["m"], c["l"])
        for c in (f.coordinates for f in grid_result.failures)
    )


def check_failures(found, expected):
    problems = []
    if found - expected:
        problems.append(f"unexpected failed cells: {sorted(found - expected)}")
    if expected - found:
        problems.append(f"cells that should fail but ran: {sorted(expected - found)}")
    return problems


def check_grid_csv(text):
    """Every value finite and ``rmse**2 == bias**2 + (reps - 1) * mc_se**2``.

    ``mc_se`` is the standard error of the mean with ``ddof=1`` and
    ``rmse`` the root mean squared deviation from the truth, so the
    identity is exact up to rounding.
    """
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["results CSV has no rows"]
    for row in rows:
        where = f"{row['estimator']} w={row['w']} m={row['m']} l={row['l']}"
        try:
            values = {k: float(row[k]) for k in ("true_value", "bias", "rmse", "mc_se")}
            reps = int(row["reps"])
        except ValueError:
            problems.append(f"unparsable row {where}")
            continue
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"non-finite value in row {where}")
            continue
        lhs = values["rmse"] ** 2
        rhs = values["bias"] ** 2 + (reps - 1) * values["mc_se"] ** 2
        if abs(lhs - rhs) > IDENTITY_RTOL * max(abs(lhs), abs(rhs)):
            problems.append(f"rmse identity off by {abs(lhs - rhs):.3g} in row {where}")
    return problems


def check_same_csv(text, reference, label):
    if text != reference:
        return [f"results CSV differs from the reference ({label})"]
    return []


def check_routes(closed, quadrature, bound, label):
    """Closed and quadrature values agree within ``bound + 1e-8``."""
    if not (math.isfinite(closed) and math.isfinite(quadrature)):
        return [f"{label}: non-finite value ({closed!r}, {quadrature!r})"]
    if abs(closed - quadrature) > bound + ROUTE_ATOL:
        return [f"{label}: closed {closed!r} vs quadrature {quadrature!r} (bound {bound:.3g})"]
    return []


def check_exact(value, expected, label, rtol=1e-15):
    if not abs(value - expected) <= rtol * abs(expected):
        return [f"{label}: got {value!r}, expected {expected!r}"]
    return []


def check_cli_value(stdout, library_value, label, precision=6):
    """The value column of the CLI's last output line equals the library value
    at the printed number of significant digits."""
    lines = stdout.strip().splitlines()
    if not lines:
        return [f"{label}: no output"]
    fields = lines[-1].split()
    if len(fields) < 2:
        return [f"{label}: unexpected output {lines[-1]!r}"]
    expected = f"{float(library_value):.{precision}g}"
    if fields[1] != expected:
        return [f"{label}: CLI printed {fields[1]!r}, library gives {expected!r}"]
    return []
