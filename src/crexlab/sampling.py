"""Dataset generators for the SRS and unequal-minima (MinRSSU) designs.

A MinRSSU dataset records, for each of ``l`` cycles and each set size
``i = 1..m``, the minimum of ``i`` fresh draws.  Ranking is exact
(minima are taken on true values).  One cycle therefore consumes
``m * (m + 1) / 2`` underlying draws, and the stream-consumption order is
fixed so a seed fully determines the sample:

    cycle-major, then set-ascending, then within-set draw order;
    draw ``r`` of set ``i`` in cycle ``j`` sits at stream position
    ``j * m(m+1)/2 + i(i-1)/2 + r``  (all zero-based).

One transform turns drawn uniforms into a sample of either design, and
:func:`draw_minrssu` and the simulation grid both draw through it:
:func:`_draw_width` gives the uniforms one sample reads, and
:func:`_draw_values` maps rows of them to rows of values.  An SRS sample
of ``n`` values reads ``n`` uniforms, and each value is the family kernel
``Distribution._quantile`` of its uniform.  A drawn uniform lies in
``[0, 1)``, where every kernel is finite and maps 0 to the support
start, so the uniforms reach the kernel unchecked.

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
    ``i + 1``; the total size is ``n = m * l``.
    """

    m: int
    l: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_count(self.m, "m")
        check_count(self.l, "l")
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


def _draw_width(m, l, srs):
    """The uniforms one sample of ``m * l`` values reads, by SRS or by MinRSSU."""
    return m * l if srs else l * m * (m + 1) // 2


def _draw_values(dist, m, srs, u):
    """The samples of the ``(rows, width)`` uniforms ``u``, one ``(rows, m * l)`` row each.

    Each row of ``u`` holds one sample's :func:`_draw_width` uniforms in
    stream order, and may be the head of a wider row (the grid kernel
    passes such a view); each drawn uniform lies in ``[0, 1)``, where every
    family's kernel ``dist._quantile`` is finite and maps 0 to the support
    start.  An SRS row is the kernel of its uniforms.  A MinRSSU row holds
    its cycles in order, each the minima of sets ``1..m``: the quantile
    transform is monotone, so the minimum of each set is taken on the
    uniforms and transformed once.  Every set minimum comes from one
    gather of the stream positions through :func:`_set_index`, into
    ``(m, m, cycles)``, and one reduction over its first axis; the kernel
    then runs on the contiguous ``(m, cycles)`` minima.  The result is
    C-contiguous: the estimators' row-wise BLAS dot sums a strided row in
    another order.
    """
    if srs:
        return dist._quantile(u)
    minima = u.reshape(-1, _draw_width(m, 1, srs=False)).T[_set_index(m)].min(axis=0)
    return np.ascontiguousarray(dist._quantile(minima).T).reshape(len(u), -1)


def draw_minrssu(dist, m, l, rng):
    """Draw an l-cycle unequal-minima sample of total size ``m * l``.

    Consumes exactly ``l * m * (m + 1) / 2`` uniforms from ``rng`` in the
    documented order; more than can be allocated raise DomainError.
    """
    dist = as_distribution(dist)
    check_count(m, "m")
    check_count(l, "l")
    check_generator(rng)
    width = _draw_width(m, l, srs=False)
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
