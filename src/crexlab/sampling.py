"""Dataset generators for the SRS and unequal-minima (MinRSSU) designs.

A MinRSSU dataset records, for each of ``l`` cycles and each set size
``i = 1..m``, the minimum of ``i`` fresh draws.  Ranking is exact
(minima are taken on true values).  One cycle therefore consumes
``m * (m + 1) / 2`` underlying draws, and the stream-consumption order is
fixed so a seed fully determines the sample:

    cycle-major, then set-ascending, then within-set draw order;
    draw ``r`` of set ``i`` in cycle ``j`` sits at stream position
    ``j * m(m+1)/2 + i(i-1)/2 + r``  (all zero-based).

Samples round-trip through CSV with header ``cycle,set_size,value``
(cycle and set_size are 1-based in the file).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SpecParseError

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
    ``i + 1``; the total size is ``n = m * l``.
    """

    m: int
    l: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_design(self.m, self.l)
        arr = np.asarray(self.values, dtype=float)
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
        if not 1 <= i <= self.m:
            raise DomainError(f"set size must be in 1..{self.m}, got {i}")
        return self.values[:, i - 1]


def draw_srs(dist, n, rng):
    """``n`` i.i.d. draws from ``dist`` using the caller's stream."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return dist.sample(rng, n)


def _check_design(m, l):
    """Raise DomainError unless ``m >= 1`` and ``l >= 1``."""
    if m < 1 or l < 1:
        raise DomainError(f"need m >= 1 and l >= 1, got m={m}, l={l}")


@functools.lru_cache(maxsize=64)
def _set_index(m):
    """``(m, m)`` gather index of a cycle's sets: ``idx[k, i] = start_i + min(k, i)``.

    Row ``k`` holds draw ``k`` of every set, repeating a set's last draw
    once the set has none left, so a minimum over the rows of a gather
    is the minimum of each set.
    """
    sets = np.arange(m)
    start = sets * (sets + 1) // 2
    idx = start[None, :] + np.minimum(sets[:, None], sets[None, :])
    idx.flags.writeable = False
    return idx


def _minrssu_values(dist, m, u):
    """Recorded values of MinRSSU cycles from their uniforms.

    ``u[..., j, :]`` holds the ``m * (m + 1) / 2`` uniforms of cycle ``j``
    in stream order; the result has shape ``u.shape[:-1] + (m,)``.  The
    quantile transform is monotone, so the minimum of each set is taken on
    the uniforms and transformed once.  Every set minimum comes from one
    gather of the stream positions through :func:`_set_index`, into
    ``(m, m, cycles)``, and one reduction over its first axis; the
    quantile then runs on the contiguous ``(m, cycles)`` minima.  The
    result is C-contiguous: a row-wise ``np.dot`` over strided rows sums
    in another order.
    """
    minima = u.reshape(-1, u.shape[-1]).T[_set_index(m)].min(axis=0)
    return np.ascontiguousarray(dist.quantile(minima).T).reshape(u.shape[:-1] + (m,))


def draw_minrssu(dist, m, l, rng):
    """Draw an l-cycle unequal-minima sample of total size ``m * l``.

    Consumes exactly ``l * m * (m + 1) / 2`` uniforms from ``rng`` in the
    documented order.
    """
    _check_design(m, l)
    per_cycle = m * (m + 1) // 2
    u = rng.random(l * per_cycle).reshape(l, per_cycle)
    return MinRssuSample(m=m, l=l, values=_minrssu_values(dist, m, u))


def pooled_order_statistics(sample):
    """All ``n`` recorded values sorted ascending (ties preserved)."""
    return np.sort(sample.values, axis=None)


def sample_to_csv(sample, file=None):
    """Write ``cycle,set_size,value`` rows; returns the text if file is None."""
    own = file is None
    if own:
        file = io.StringIO()
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for j in range(sample.l):
        for i in range(sample.m):
            writer.writerow([j + 1, i + 1, repr(float(sample.values[j, i]))])
    if own:
        return file.getvalue()
    return None


def sample_from_csv(file):
    """Read a sample written by :func:`sample_to_csv`; validates the grid."""
    if isinstance(file, str):
        file = io.StringIO(file)
    reader = csv.reader(file)
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise SpecParseError("empty sample CSV") from None
    if header != CSV_HEADER:
        raise SpecParseError(f"expected header {','.join(CSV_HEADER)}, got {header}")
    entries = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise SpecParseError(f"malformed sample row: {row}")
        try:
            j, i, value = int(row[0]), int(row[1]), float(row[2])
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
