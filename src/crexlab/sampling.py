"""Dataset generators for the SRS and unequal-minima (MinRSSU) designs.

A MinRSSU dataset records, for each of ``l`` cycles and each set size
``i = 1..m``, the minimum of ``i`` fresh draws.  Ranking is exact
(minima are taken on true values).  The least of ``i`` draws has
survival ``S**i`` (David & Nagaraja, *Order Statistics*, 2003, 2.1), so
each recorded value is drawn from that law by one uniform: a cycle
consumes ``m`` uniforms, and the stream-consumption order is fixed so a
seed fully determines the sample:

    cycle-major, then set-ascending; the value of set ``i`` in cycle
    ``j`` reads stream position ``j * m + i - 1`` (``j`` zero-based).

One transform turns drawn uniforms into a sample of either design, and
:func:`draw_minrssu` and the simulation grid both draw through it: one
sample of either design reads ``m * l`` uniforms, one per value, and
:func:`_draw_values` maps rows of them to rows of values.  An SRS value
is the family kernel ``Distribution._quantile`` of its uniform U, and a
set-i value the kernel
``Distribution._log_survival_quantile`` of ``log1p(-U) / i``, the point
where ``log S**i = log(1 - U)``.  A drawn uniform lies in ``[0, 1)``,
where every kernel is finite and maps 0 to the support start, so the
uniforms reach the kernels unchecked.

Samples round-trip through CSV with header ``cycle,set_size,value``
(cycle and set_size are 1-based in the file).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import as_distribution
from .errors import DomainError, SpecParseError, allocating, check_array, check_count
from .errors import check_generator, check_integer, read_csv, shown, write_csv

__all__ = [
    "MinRssuSample",
    "draw_srs",
    "draw_minrssu",
    "pooled_order_statistics",
    "sample_to_csv",
    "sample_from_csv",
]

CSV_HEADER = ("cycle", "set_size", "value")


@dataclass(frozen=True)
class MinRssuSample:
    """An l-cycle unequal-minima dataset.

    ``values[j, i]`` is the recorded minimum for cycle ``j`` and set size
    ``i + 1``, a value of law ``S**(i + 1)``; the total size is ``n = m *
    l``.  ``m`` and ``l`` are stored as ints, a numpy integer converted, so
    the estimators take ``m`` unchecked.
    """

    m: int
    l: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", check_count(self.m, "m"))
        object.__setattr__(self, "l", check_count(self.l, "l"))
        arr = check_array(self.values, "sample values")
        if arr.shape != (self.l, self.m):
            raise DomainError(
                f"values must have shape (l, m) = ({self.l}, {self.m}), got {arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def n(self):
        return self.m * self.l

    def set_values(self, i):
        """All recorded minima for set size ``i`` across cycles."""
        i = check_integer(i, "set size")
        if not 1 <= i <= self.m:
            raise DomainError(f"set size must be in 1..{self.m}, got {shown(i)}")
        return self.values[:, i - 1]


def draw_srs(dist, n, rng):
    """``n`` i.i.d. draws from ``dist`` using the caller's stream."""
    check_count(n, "sample size")
    return as_distribution(dist).sample(rng, n)


@functools.lru_cache(maxsize=64)
def _set_sizes(m, l):
    """The read-only ``m * l`` set sizes of a MinRSSU row, ``1.0 .. m`` once per cycle."""
    sizes = np.tile(np.arange(1.0, m + 1), l)
    sizes.flags.writeable = False
    return sizes


def _draw_values(dist, m, srs, u):
    """The samples of the ``(rows, m * l)`` uniforms ``u``, one ``(rows, m * l)`` row each.

    Each row of ``u`` holds one sample's ``m * l`` uniforms in stream
    order, and may be the head of a wider row (the grid kernel passes
    such a view); each drawn uniform lies in ``[0, 1)``.  An SRS
    row is the kernel ``dist._quantile`` of its uniforms.  A MinRSSU row
    holds its cycles in order, each the values of sets ``1..m``: the
    value of set i is ``dist._log_survival_quantile(log1p(-U) / i)`` of
    its own uniform U, one draw from the law ``S**i`` of the least of i
    draws.  Both kernels are finite on these uniforms and map 0 to the
    support start.  The result is a new C-contiguous array in the row
    order of ``u``: the estimators' row-wise BLAS dot sums a strided row
    in another order.
    """
    if srs:
        return dist._quantile(u)
    ell = np.log1p(-u)
    ell /= _set_sizes(m, u.shape[1] // m)
    return dist._log_survival_quantile(ell)


def draw_minrssu(dist, m, l, rng):
    """Draw an l-cycle unequal-minima sample of total size ``m * l``.

    Consumes exactly ``m * l`` uniforms from ``rng``, one per value, in
    the documented order; more than can be allocated raise DomainError.
    """
    dist = as_distribution(dist)
    check_count(m, "m")
    check_count(l, "l")
    check_generator(rng)
    width = m * l
    with allocating(width, "MinRSSU draw"):
        values = _draw_values(dist, m, srs=False, u=rng.random((1, width)))
        return MinRssuSample(m=m, l=l, values=values.reshape(l, m))


def pooled_order_statistics(sample):
    """All ``n`` recorded values sorted ascending (ties preserved)."""
    return np.sort(sample.values, axis=None)


def sample_to_csv(sample, file=None):
    """Write ``cycle,set_size,value`` rows; returns the text if file is None."""
    rows = ([j + 1, i + 1, repr(float(sample.values[j, i]))]
            for j in range(sample.l) for i in range(sample.m))
    return write_csv(CSV_HEADER, rows, file)


def sample_from_csv(file):
    """Read a sample written by :func:`sample_to_csv`; validates the grid."""
    entries = {}
    for row in read_csv(file, CSV_HEADER, "sample CSV"):
        try:
            j, i, value = row
            j, i, value = int(j), int(i), float(value)
        except ValueError:
            raise SpecParseError(f"malformed sample row: {row}") from None
        if not math.isfinite(value):
            raise SpecParseError(f"non-finite value in sample row: {row}")
        if j < 1 or i < 1:
            raise SpecParseError(f"cycle and set_size must be >= 1, got ({j}, {i})")
        if (j, i) in entries:
            raise SpecParseError(f"duplicate entry for cycle={j}, set_size={i}")
        entries[(j, i)] = value
    if not entries:
        raise SpecParseError("sample CSV has no data rows")
    l = max(j for j, _ in entries)
    m = max(i for _, i in entries)
    if len(entries) != l * m:
        raise SpecParseError(
            f"incomplete sample grid: expected {l * m} entries, got {len(entries)}"
        )
    values = np.empty((l, m))
    for (j, i), value in entries.items():
        values[j - 1, i - 1] = value
    return MinRssuSample(m=m, l=l, values=values)
