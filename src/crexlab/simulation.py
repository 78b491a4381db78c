"""Seeded Monte Carlo harness: bias and RMSE of the estimators on a grid.

Each grid cell is one (distribution, m, l, estimator, w) coordinate.  A
cell runs ``replications`` independent repetitions; repetition ``r`` owns
a counter-based random stream derived from

    (base seed, cell digest, r)

via ``numpy``'s Philox generator, so results are bit-identical across
reruns and across execution order; :func:`replication_rng` rebuilds any
one stream.  Sample sizes follow ``n = m * l``; the spacing and
order-statistic estimators run on a fresh unequal-minima (MinRSSU) sample
per repetition, while the ``vn`` estimator runs on a plain SRS sample of
the same size.

A grid draws for all its cells at once.  The keys of every stream of
every cell come from one vectorised SeedSequence hash.  Cells that draw
the same shape, the same ``(m, l)`` and ``vn`` or not, form a group.
Two generators give exactly the stream :func:`replication_rng` builds,
under one contract: given one key and one block count per stream, each
returns the uniforms of every stream's first blocks, four per block.
Rows of at most ``_NUMPY_PHILOX_MAX_WIDTH`` uniforms come from
Philox4x64-10 written in numpy.  Block ``b`` of a stream has counter
``(b + 1, 0, 0, 0)``, so the zero words fold two of the ten rounds: round
0 is a lookup in a table of the run's counter products, and round 1
multiplies the key word ``k0`` once per stream.  Wider rows reset
numpy's C generator to each stream in turn, which is faster once a row
spans more than a dozen or so blocks.  The rows each generator draws, of
all groups in group order, are cut into chunks of at most
``_CHUNK_UNIFORMS`` uniforms, and each chunk is one draw.  Every draw
buffer lives in one workspace that each thread keeps from draw to draw,
and one rule holds for both generators: a draw's uniforms are valid until
the thread's next draw.  Buffers allocated and freed by every draw would
let glibc hand the top of the heap back to the system and fault it in
again on every grid.  A group's rows in a chunk are transformed and
sorted at once, spacing cells first; each run of whole cells of one
estimator kind is one broadcast ``np.vecdot``.  A grid's estimates are
summarized by one set of reductions along the replications, against a
true value computed once; :func:`run_cell` then applies the bias
convention to each cell's summary.

Reported cells use the configured bias convention (default: truth minus
mean estimate); RMSE and |bias| do not depend on the convention.  Squared
deviations are accumulated in extended precision.

Rows serialize to CSV under a header of the :class:`SimulationRow` field
names, in order::

    distribution,params,estimator,m,l,w,reps,seed,true_value,bias,rmse,mc_se
"""

from __future__ import annotations

import enum
import functools
import hashlib
import os
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .distributions import Distribution, as_distribution
from .errors import CellError, CrexlabError, DivergenceError, DomainError, SpecParseError
from .errors import check_count, check_integer, enum_member, read_csv, shown, write_csv
# estimate and draw_minrssu are unused here; the benchmark tracer wraps these bindings
from .estimators import (  # noqa: F401
    EstimatorKind,
    EstimatorSpec,
    estimate,
    row_estimates,
    row_estimator,
    row_weights,
)
from .measures import crex
from .sampling import _minrssu_values, draw_minrssu  # noqa: F401

__all__ = [
    "BiasConvention",
    "SimulationConfig",
    "SimulationRow",
    "GridResult",
    "CalibrationResult",
    "DEFAULT_SEED",
    "replication_rng",
    "run_cell",
    "run_grid",
    "rows_to_csv",
    "rows_from_csv",
    "protocol_config",
    "calibrate_parameter",
]

DEFAULT_SEED = 42

# per-m tuning grids used by the benchmark tables
RMN_W_GRID = {2: (-2, -1, 0, 1), 3: (-1, 0, 1, 2), 4: (0, 1, 2, 3), 5: (1, 2, 3, 4)}
LSTAT_ADJ_W_GRID = {
    "exp": {2: (-11, -10, -9, -8), 3: (-7, -6, -5, -4), 4: (-3, -2, -1, 0), 5: (1, 2, 3, 4)},
    "unif": {2: (-4, -3, -2, -1), 3: (-2, -1, 0, 1), 4: (0, 1, 2, 3), 5: (2, 3, 4, 5)},
    "beta": {m: (-3, -2, -1, 0) for m in (2, 3, 4, 5)},
}
# uniforms drawn per chunk of rows: bounds the working memory of a draw.
# On 2 shared vCPUs a numpy Philox run costs about 0.25 ms plus 0.12-0.16 us
# per block; 2**16 draws an R=20 protocol grid in one run, and in 6 alternating
# benchmark pairs beat 2**14 (3 runs) on every pair, 260k vs 240k
# replications per calibrated second, for 1 MB more peak memory.  A thread's
# workspace keeps 128 bytes per block, 96 of uint64 rows and 32 of output:
# 1.2 MB for an R=20 protocol grid (9200 blocks), at most 8.4 MB for a chunk
# of one-uniform rows (a block each)
_CHUNK_UNIFORMS = 2**16
# the widest row the numpy Philox draws; wider rows reset numpy's C generator.
# On 2 shared vCPUs the numpy Philox costs about 0.12-0.16 us per block of
# four uniforms and a reset 2.5-3 us per row: they break even at about 60-100
# uniforms.  Protocol rows hold 6-45 uniforms and large-sample rows 5000 or
# more, so any limit from 45 to 4999 draws the benchmarks alike
_NUMPY_PHILOX_MAX_WIDTH = 48

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 constants (numpy/random/src/philox/philox.h), and the masks
# and shift counts of its kernel, as np.uint64 scalars made once: numpy
# converts a Python int operand on every ufunc call, and a run makes about
# 330 of them.  Each multiplier is kept as its (low half, high half, whole)
_LOW32, _SHIFT32, _SHIFT11 = np.uint64(_MASK32), np.uint64(32), np.uint64(11)
_PHILOX_MULT = tuple(
    (np.uint64(mult & _MASK32), np.uint64(mult >> 32), np.uint64(mult))
    for mult in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_BUMP = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10

PROTOCOL_DISTRIBUTIONS = {
    "exp": "exp:rate=1",
    "unif": "unif:a=0,b=1",
    "beta": "powerbeta:alpha=2",
}


class BiasConvention(enum.Enum):
    TRUTH_MINUS_ESTIMATE = "truth-minus-estimate"
    ESTIMATE_MINUS_TRUTH = "estimate-minus-truth"


@dataclass(frozen=True)
class SimulationRow:
    """One completed grid cell."""

    distribution: str
    params: str
    estimator: str
    m: int
    l: int
    w: int | None
    reps: int
    seed: int
    true_value: float
    bias: float
    rmse: float
    mc_se: float


# the results CSV has one column per SimulationRow field, read back by its annotation
CSV_HEADER = tuple(f.name for f in fields(SimulationRow))
_FROM_TEXT = {"str": str, "int": int, "float": float, "int | None": lambda t: int(t) if t else None}
_FIELD_READERS = tuple(_FROM_TEXT[f.type] for f in fields(SimulationRow))


def _sequence(value, label):
    """``value`` as a nonempty tuple; a bare string, a non-iterable or an empty one raises.

    Every list a grid is built from passes here once: the m, l and
    estimator lists, every w list and the protocol sides.
    """
    if not isinstance(value, str):
        try:
            items = tuple(value)
        except TypeError:
            pass
        else:
            if items:
                return items
            raise SpecParseError(f"{label} must not be empty")
    raise SpecParseError(f"{label} must be a list, got {shown(value)}")


@dataclass(frozen=True)
class SimulationConfig:
    """Grid coordinates plus execution settings.

    ``w_lists`` maps an estimator kind to either one w sequence (used for
    every m) or a mapping ``m -> sequence``.  Estimator kinds without a
    tuning value run once per (m, l) cell.  Every list, the m, l and
    estimator lists and each w list alike, must be a nonempty list, not a
    string.  A config is frozen: its fields are checked and normalized
    once, on construction, and :func:`run_grid` trusts them.  ``w_lists``
    is kept as read-only mappings of tuples, copied from the caller's.
    """

    distribution: Distribution | str
    m_values: tuple = (2, 3, 4, 5)
    l_values: tuple = (2, 3)
    estimators: tuple = ("rn", "rmn")
    w_lists: Mapping = field(default_factory=dict)
    psi_family: str | None = None
    replications: int = 5000
    base_seed: int = DEFAULT_SEED
    bias_convention: BiasConvention = BiasConvention.TRUTH_MINUS_ESTIMATE
    _cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def normalize(name, value):
            object.__setattr__(self, name, value)

        normalize("distribution", as_distribution(self.distribution))
        normalize(
            "bias_convention",
            enum_member(BiasConvention, self.bias_convention, "bias convention"),
        )
        try:
            normalize("replications", check_count(self.replications, "replications"))
            normalize("base_seed", _check_seed(self.base_seed))
            m_values = _sequence(self.m_values, "m")
            normalize("m_values", tuple(check_count(m, "m value") for m in m_values))
            l_values = _sequence(self.l_values, "l")
            normalize("l_values", tuple(check_count(l, "l value") for l in l_values))
            normalize("estimators", _sequence(self.estimators, "estimators"))
            if not hasattr(self.w_lists, "items"):
                raise SpecParseError(
                    f"w_lists must be a mapping of estimator kind to w list, got {self.w_lists!r}"
                )
            w_lists = {
                token: MappingProxyType(
                    {m: _sequence(ws, f"w list of {token!r} at m={m}") for m, ws in w_list.items()}
                )
                if isinstance(w_list, Mapping)
                else _sequence(w_list, f"w list of {token!r}")
                for token, w_list in self.w_lists.items()
            }
            normalize("w_lists", MappingProxyType(w_lists))
            cells = []  # building each EstimatorSpec checks every (estimator, w) pair
            for m in self.m_values:
                specs = []
                for token in self.estimators:
                    kind = enum_member(EstimatorKind, token, "estimator")
                    family = self.psi_family if kind is EstimatorKind.LSTAT_ADJUSTED else None
                    w_list = w_lists.get(token, (None,))
                    if isinstance(w_list, Mapping):
                        w_list = w_list.get(m)
                        if w_list is None:
                            raise SpecParseError(f"no w list for estimator {token!r} at m={m}")
                    specs += [EstimatorSpec(kind=kind, w=w, psi_family=family) for w in w_list]
                cells += [(spec, m, l) for l in self.l_values for spec in specs]
            normalize("_cells", tuple(cells))
        except DomainError as exc:
            raise SpecParseError(str(exc)) from exc

    def cells(self):
        """The grid's ``(EstimatorSpec, m, l)`` cells in row order: m, l, estimator, w."""
        return self._cells


@dataclass(frozen=True)
class GridResult:
    rows: list
    failures: list

    @property
    def ok(self):
        return not self.failures


def _cell_digest(dist_spec, estimator_text, m, l):
    text = f"{dist_spec}|{estimator_text}|m={m}|l={l}"
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _check_seed(value, label="base seed"):
    """A seed word ``value`` as an int; a non-integer or negative value raises DomainError."""
    value = check_integer(value, label)
    if value < 0:
        raise DomainError(f"{label} must be >= 0, got {shown(value)}")
    return value


def replication_rng(base_seed, cell_digest, rep_index):
    """The counter-based stream owned by one replication of one cell.

    Each argument is an integer >= 0 (a numpy integer passes); anything
    else raises DomainError.
    """
    entropy = [
        _check_seed(base_seed),
        _check_seed(cell_digest, "cell digest"),
        _check_seed(rep_index, "replication index"),
    ]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _uint32_words(value):
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _wrap(x):
    # uint32 arrays wrap by themselves; Python ints are masked
    return x & _MASK32 if isinstance(x, int) else x


def _xorshift(x):
    return x ^ (x >> 16)


def _seed_sequence_keys(entropy):
    """``SeedSequence(entropy).generate_state(2, np.uint64)``, broadcast over arrays.

    This is numpy's SeedSequence hash spelt out.  Entropy words that are
    the same for every key stay Python ints; the others are uint32 arrays
    that broadcast together, and the keys take their shape plus a last
    axis of two words.
    """
    const = _INIT_A

    def hashmix(x):
        nonlocal const
        x = x ^ const
        const = const * _MULT_A & _MASK32
        return _xorshift(_wrap(x * const))

    def mix(x, y):
        return _xorshift(_wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y)))

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    pool = np.stack(np.broadcast_arrays(*pool), axis=-1)
    pre = np.array([_INIT_B * _MULT_B**i & _MASK32 for i in range(_POOL_SIZE)], np.uint32)
    words = _xorshift((pool ^ pre) * (pre * np.uint32(_MULT_B)))
    # two little-endian word pairs per key, as generate_state(2, np.uint64) packs them
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _replication_keys(base_seed, cell_digests, replications):
    """Philox keys of replications ``0..replications-1`` of each cell.

    ``keys[c, r]`` equals ``SeedSequence([base_seed, cell_digests[c], r])
    .generate_state(2, np.uint64)``, the key of the stream
    :func:`replication_rng` builds.  The digest words are ``(cells, 1)``
    arrays and ``r`` a ``(1, replications)`` array, so one hash serves a
    whole grid.  SeedSequence drops a digest's zero high word, so digests
    below 2**32 hash as one word and are hashed apart from the others.
    """
    # a negative seed would never run out of words
    base_seed = _check_seed(base_seed)
    digests = np.array(cell_digests, dtype=np.uint64).reshape(-1, 1)
    reps = np.arange(replications, dtype=np.uint32)[None, :]
    keys = np.empty((len(digests), replications, 2), np.uint64)
    high = (digests >> 32).astype(np.uint32)
    low = (digests & _MASK32).astype(np.uint32)
    for two_words in (False, True):
        cells = (high[:, 0] != 0) == two_words
        if cells.any():
            words = [low[cells], high[cells]] if two_words else [low[cells]]
            keys[cells] = _seed_sequence_keys(_uint32_words(base_seed) + words + [reps])
    return keys


def _mulhilo(mult, x, hi, lo, scratch):
    """Write the high and low 64-bit words of ``mult * x`` to ``hi`` and ``lo``.

    ``mult`` is an entry of ``_PHILOX_MULT``, ``x`` a uint64 array and
    ``scratch`` three uint64 rows at least as long.  The high word is
    built from 32-bit halves.  ``x`` is read last by the low word, so
    ``lo`` may be ``x`` itself; ``hi`` may not.  Here and in
    :func:`_philox_uniforms` each ufunc takes its output as its last
    positional argument, which numpy parses faster than ``out=``.
    """
    m_lo, m_hi, whole = mult
    x_half, mid, low_mid = scratch[:, : len(x)]
    np.bitwise_and(x, _LOW32, x_half)
    np.multiply(m_lo, x_half, mid)
    np.right_shift(mid, _SHIFT32, mid)
    np.multiply(m_hi, x_half, x_half)
    # no sum below can pass 2**64 - 2**32
    np.add(x_half, mid, mid)
    np.right_shift(x, _SHIFT32, x_half)
    np.multiply(m_lo, x_half, low_mid)
    np.multiply(m_hi, x_half, hi)
    np.bitwise_and(mid, _LOW32, x_half)
    np.add(low_mid, x_half, low_mid)
    np.right_shift(mid, _SHIFT32, mid)
    np.add(hi, mid, hi)
    np.right_shift(low_mid, _SHIFT32, low_mid)
    np.add(hi, low_mid, hi)
    np.multiply(x, whole, lo)


class _Workspace(threading.local):
    """Every draw buffer of one thread, kept from each draw to the next.

    ``rows`` are the numpy Philox's twelve uint64 rows, row 0 the counters
    ``1, 2, ...`` and the others scratch; ``out`` is the ``(blocks, 4)``
    float output both generators write their uniforms into.  Each grows
    to the largest draw the thread has made, and a smaller draw uses its
    first columns.
    """

    def __init__(self):
        self.rows, self.out = np.empty((12, 0), np.uint64), np.empty((0, 4))

    # made on the thread's first reset, so that importing crexlab does not
    # load numpy.random: about 12 ms and 1.7 MB of resident memory
    @functools.cached_property
    def reset(self):
        """numpy's C Philox, a generator on it and the state dict a reset gives it.

        A new Philox's state, a copy, is counter 0 and an empty buffer;
        each reset writes a stream's key into it.
        """
        bit_generator = np.random.Philox(0)
        return bit_generator, np.random.Generator(bit_generator), bit_generator.state

    def output(self, blocks):
        """The ``(blocks, 4)`` output of a draw of ``blocks`` blocks."""
        if len(self.out) < blocks:
            self.out = np.empty((blocks, 4))
        return self.out[:blocks]


_WORKSPACE = _Workspace()


def _philox_uniforms(keys, blocks):
    """Uniforms of Philox4x64-10 blocks ``0 .. blocks[s] - 1`` of each stream ``s``, in numpy.

    ``keys`` holds one ``(k0, k1)`` key per stream and ``blocks`` an
    integer array of block counts, one per stream, each at least 1.
    numpy's Philox raises its counter before each block, so block ``b``
    of a stream is the 10-round Philox of counter ``(b + 1, 0, 0, 0)``
    under the stream's key; it yields four 64-bit words in order, and a
    uniform is ``(word >> 11) * 2**-53``.  Returns the ``(sum(blocks),
    4)`` uniforms, stream by stream, in this thread's workspace output:
    they are valid until the thread's next draw.  The zero counter words
    fold two rounds: round 0 multiplies only ``b + 1``, looked up in a
    table of the run's counters, and turns the first word into ``k0`` and
    the second into 0, so round 1's first product is taken once per
    stream.  Rounds 2-9 run in full; uint64 arrays wrap silently, as the C
    code does.

    Every ufunc writes into the rows of this thread's :class:`_Workspace`,
    and the four words rotate through them rather than being copied.  A
    new array per ufunc, about 330 arrays of one word per block, would
    free enough at the top of the heap that glibc hands it back to the
    system and faults it in again on the next run: about 360 minor page
    faults per protocol grid.
    """
    ends = np.cumsum(blocks)
    total, streams, top = int(ends[-1]), len(keys), int(blocks.max())
    workspace = _WORKSPACE
    if workspace.rows.shape[1] < total:
        workspace.rows = np.empty((12, total), np.uint64)
        workspace.rows[0] = np.arange(1, total + 1, dtype=np.uint64)
    rows = workspace.rows[:, :total]
    counters, stream, k0, k1, c0, c1, c2, c3, hi = rows[:9]
    scratch = rows[9:]
    # the stream of each block: the count of stream starts at or before it
    stream = stream.view(np.intp)
    stream.fill(0)
    stream[ends[:-1]] = 1
    np.cumsum(stream, out=stream)
    np.take(keys[:, 0], stream, out=k0)
    np.take(keys[:, 1], stream, out=k1)
    # the index of each block in its stream, into the table of counter
    # products: counters[k] - (start of its stream + 1) = k - start
    index = hi.view(np.intp)
    np.take(ends - blocks + 1, stream, out=index)
    np.subtract(counters.view(np.intp), index, index)
    _mulhilo(_PHILOX_MULT[0], counters[:top], c0[:top], c1[:top], scratch)
    # after round 0 the words are (k0, 0, mulhi(b + 1) ^ k1, mullo(b + 1))
    np.take(c0[:top], index, out=c2)
    np.bitwise_xor(c2, k1, c2)
    np.take(c1[:top], index, out=c3)
    # round 1 takes k0's product once per stream; (k0, 0, c2, c3) becomes
    # (mulhi(c2) ^ k0, mullo(c2), mulhi(k0) ^ c3 ^ k1, mullo(k0)), in the rows of (c2, c1, c3, c0)
    key_hi, key_lo = c0[:streams], c1[:streams]
    _mulhilo(_PHILOX_MULT[0], keys[:, 0], key_hi, key_lo, scratch)
    np.add(k0, _PHILOX_BUMP[0], k0)
    np.add(k1, _PHILOX_BUMP[1], k1)
    np.take(key_hi, stream, out=hi)
    np.bitwise_xor(hi, c3, c3)
    np.bitwise_xor(c3, k1, c3)
    np.take(key_lo, stream, out=c0)
    _mulhilo(_PHILOX_MULT[1], c2, hi, c1, scratch)
    np.bitwise_xor(hi, k0, c2)
    c0, c2, c3 = c2, c3, c0
    for _ in range(2, _PHILOX_ROUNDS):
        np.add(k0, _PHILOX_BUMP[0], k0)
        np.add(k1, _PHILOX_BUMP[1], k1)
        # (c0, c1, c2, c3) becomes (mulhi(c2) ^ c1 ^ k0, mullo(c2), mulhi(c0) ^ c3 ^ k1,
        # mullo(c0)), each written over a word it replaces: the rows of (c1, c2, c3, c0)
        _mulhilo(_PHILOX_MULT[0], c0, hi, c0, scratch)
        np.bitwise_xor(hi, c3, c3)
        np.bitwise_xor(c3, k1, c3)
        _mulhilo(_PHILOX_MULT[1], c2, hi, c2, scratch)
        np.bitwise_xor(hi, c1, c1)
        np.bitwise_xor(c1, k0, c1)
        c0, c1, c2, c3 = c1, c2, c3, c0
    out = workspace.output(total)
    for column, word in zip(out.T, (c0, c1, c2, c3)):
        np.right_shift(word, _SHIFT11, word)
        np.multiply(word, 2.0**-53, column)
    return out


def _reset_uniforms(keys, blocks):
    """The uniforms of :func:`_philox_uniforms`, from numpy's C Philox.

    It takes the same arguments and returns the same layout in the same
    output.  This thread's generator is reset to each stream in turn:
    counter 0, the stream's key and an empty buffer.  A reset costs more
    than a numpy Philox block but draws a wide row faster.
    """
    workspace, ends = _WORKSPACE, np.cumsum(blocks).tolist()
    out = workspace.output(ends[-1])
    bit_generator, generator, state = workspace.reset
    for key, start, stop in zip(keys, [0] + ends, ends):
        state["state"]["key"] = key
        bit_generator.state = state
        generator.random(out=out[start:stop])
    return out


def _cell_summaries(estimates, true_value):
    """``(true_value, mean estimate, RMSE, Monte Carlo SE)`` of each row of ``estimates``.

    Each row holds one cell's estimates.  The mean and the squared
    deviations from ``true_value`` are summed in extended precision; the
    standard error uses ``ddof=1`` and is 0 for a single replication.
    """
    replications = estimates.shape[1]
    mean = np.mean(estimates, axis=1, dtype=np.longdouble)
    dev = estimates.astype(np.longdouble) - true_value
    rmse = np.sqrt(np.mean(dev * dev, axis=1))
    if replications > 1:
        mc_se = np.std(estimates, axis=1, ddof=1) / np.sqrt(replications)
    else:
        mc_se = np.zeros(len(estimates))
    stats = zip(mean.astype(float).tolist(), rmse.astype(float).tolist(), mc_se.tolist())
    return [(true_value, *cell) for cell in stats]


class _Group:
    """The cells of a grid that draw one shape: the same ``(m, l)``, ``vn`` or not.

    Row ``k * replications + r`` is replication ``r`` of cell ``k``, drawn
    from the stream keyed by ``keys[k, r]``; ``kinds[k]``, spacing cells
    first, is cell ``k``'s :func:`~crexlab.estimators.row_estimator` pair.
    """

    def __init__(self, vn, m, l, keys, kinds):
        self.vn, self.m, self.l = vn, m, l
        self.width = m * l if vn else l * m * (m + 1) // 2
        self.keys = keys.reshape(-1, 2)
        self.estimates = np.zeros(keys.shape[:2])
        self.errors = [None] * len(kinds)
        self.error = None
        self.spacing_cells = sum(spacing for spacing, _ in kinds)
        # one weight row per cell of each kind, in cell order
        self.weights = {
            spacing: row_weights(spacing, m * l, [d for s, d in kinds if s == spacing])
            for spacing in (True, False)
        }

    def add_rows(self, dist, start, stop, u):
        """Estimate rows ``start .. stop - 1`` from their uniforms ``u``, one row each.

        The uniforms become samples in the order
        :func:`~crexlab.sampling.draw_minrssu` (or, when ``vn``,
        ``Distribution.sample``) reads a stream, sorted once.  Each run of
        whole cells of one kind is one :func:`~crexlab.estimators.row_estimates`
        call, as is the part of a cell at either end.  A CrexlabError fails
        the cell whose estimator returned it, or the group when the samples raise it.
        """
        if self.error is not None:
            return
        try:
            if self.vn:
                values = dist.quantile(u)
            else:
                values = _minrssu_values(dist, self.m, u.reshape(len(u), self.l, -1))
                values = values.reshape(len(u), -1)
        except CrexlabError as exc:
            self.error = exc
            return
        values.sort(axis=1)
        replications = self.estimates.shape[1]
        flat = self.estimates.reshape(-1)
        split = self.spacing_cells * replications
        for spacing, lo, hi, first in (
            (True, start, min(stop, split), 0),
            (False, max(start, split), stop, self.spacing_cells),
        ):
            if lo >= hi:
                continue
            rows = values[lo - start : hi - start]
            # the part of a cell before the first boundary, the whole cells, the part after
            head = min(hi, -(-lo // replications) * replications)
            tail = max(head, hi // replications * replications)
            for a, b in ((lo, head), (head, tail), (tail, hi)):
                if a == b:
                    continue
                k0, k1 = a // replications, -(-b // replications)
                cell_rows = rows[a - lo : b - lo].reshape(k1 - k0, -1, rows.shape[1])
                weights = self.weights[spacing][k0 - first : k1 - first]
                estimates, errors = row_estimates(spacing, cell_rows, weights)
                flat[a:b] = estimates.reshape(-1)
                for k, error in errors.items():
                    self.errors[k0 + k] = error


def _chunks(groups):
    """The rows of ``groups`` in order, cut into chunks of ``(group, start, stop)``.

    A chunk holds at most ``_CHUNK_UNIFORMS`` uniforms, or one row when a
    row is wider; a chunk boundary may fall inside a group or a cell.
    """
    chunk, used = [], 0
    for group in groups:
        rows, start = len(group.keys), 0
        while start < rows:
            take = min(rows - start, (_CHUNK_UNIFORMS - used) // group.width)
            if take < 1 and chunk:
                yield chunk
                chunk, used = [], 0
                continue
            stop = start + max(take, 1)
            chunk.append((group, start, stop))
            used += (stop - start) * group.width
            start = stop
    if chunk:
        yield chunk


def _draw_groups(dist, groups):
    """Draw and estimate every row of every group.

    The rows of at most ``_NUMPY_PHILOX_MAX_WIDTH`` uniforms come from
    :func:`_philox_uniforms` and the wider rows from
    :func:`_reset_uniforms`.  The rows each generator draws, of all the
    groups, are packed into chunks that each take one draw, and row ``r``
    of a group reads the stream :func:`replication_rng` builds, from
    counter 0.  A chunk's uniforms are estimated before the next draw,
    which writes over them.
    """
    narrow = [g for g in groups if g.width <= _NUMPY_PHILOX_MAX_WIDTH]
    wide = [g for g in groups if g.width > _NUMPY_PHILOX_MAX_WIDTH]
    for draw, drawn in ((_philox_uniforms, narrow), (_reset_uniforms, wide)):
        for chunk in _chunks(drawn):
            rows = [stop - start for _, start, stop in chunk]
            blocks = [-(-group.width // 4) for group, _, _ in chunk]
            keys = np.concatenate([group.keys[start:stop] for group, start, stop in chunk])
            u = draw(keys, np.repeat(blocks, rows))
            offset = 0
            for (group, start, stop), count, row_blocks in zip(chunk, rows, blocks):
                group_u = u[offset : offset + count * row_blocks].reshape(count, -1)
                group.add_rows(dist, start, stop, group_u[:, : group.width])
                offset += count * row_blocks


def _grid_outcomes(dist, cells, replications, base_seed):
    """The summary of each ``(spec, m, l)`` cell of a grid on ``dist``.

    Each entry is the cell's :func:`_cell_summaries` entry or the
    CrexlabError the cell raised.  The true value is computed once, and
    its error fails every cell.  Errors that do not depend on the drawn
    values come next and draw nothing.  The keys of all other cells are
    hashed at once, and each ``(m, l, vn or not)`` group of cells is one
    :class:`_Group`, drawn by :func:`_draw_groups`.  One
    :func:`_cell_summaries` call summarizes the estimates of all groups.
    """
    try:
        true_value = float(crex(dist))
    except CrexlabError as exc:
        return [exc] * len(cells)
    outcomes = [None] * len(cells)
    live, kinds, digests, members = [], [], [], {}
    spec_text = dist.spec_string()
    for index, (spec, m, l) in enumerate(cells):
        try:
            kinds.append(row_estimator(spec, m, m * l))
        except CrexlabError as exc:
            outcomes[index] = exc
            continue
        members.setdefault((m, l, spec.kind is EstimatorKind.VN), []).append(len(live))
        live.append(index)
        digests.append(_cell_digest(spec_text, spec.text(), m, l))
    keys = _replication_keys(base_seed, digests, replications)
    # each group's spacing cells first, in grid order
    members = {shape: sorted(p, key=lambda i: not kinds[i][0]) for shape, p in members.items()}
    groups = [
        _Group(vn, m, l, keys[positions], [kinds[p] for p in positions])
        for (m, l, vn), positions in members.items()
    ]
    _draw_groups(dist, groups)
    if not groups:
        return outcomes
    summaries = iter(_cell_summaries(np.concatenate([g.estimates for g in groups]), true_value))
    for group, positions in zip(groups, members.values()):
        for position, error in zip(positions, group.errors):
            summary = next(summaries)
            outcomes[live[position]] = group.error or error or summary
    return outcomes


def run_cell(
    dist,
    estimator,
    m,
    l,
    replications,
    base_seed=DEFAULT_SEED,
    bias_convention=BiasConvention.TRUTH_MINUS_ESTIMATE,
    *,
    _summary=None,
):
    """Run one grid cell and summarize bias / RMSE against the true measure.

    ``dist`` is a law or its spec text, ``estimator`` an EstimatorSpec or
    its text.  ``run_cell`` runs a grid of this one cell: the grid kernel
    draws and estimates its replications in chunks, and every estimate
    equals the one from the replication's own :func:`replication_rng` stream,
    :func:`~crexlab.sampling.draw_minrssu` (``Distribution.sample`` for
    ``vn``) and :func:`~crexlab.estimators.estimate`, bit for bit.
    Errors that do not depend on the drawn values are raised before any
    drawing.  :func:`run_grid` passes ``_summary``, this cell's entry of
    the grid kernel: its true value, mean estimate, RMSE and Monte Carlo
    SE, or its error.  The arguments then come from a frozen
    :class:`SimulationConfig`, which has checked them, so they are
    parsed and checked only when ``run_cell`` runs its own cell.
    """
    if _summary is None:
        dist, estimator = as_distribution(dist), EstimatorSpec.coerce(estimator)
        bias_convention = enum_member(BiasConvention, bias_convention, "bias convention")
        replications = check_count(replications, "replications")
        m, l = check_count(m, "m"), check_count(l, "l")
        base_seed = _check_seed(base_seed)
        _summary = _grid_outcomes(dist, [(estimator, m, l)], replications, base_seed)[0]
    if isinstance(_summary, CrexlabError):
        raise _summary
    true_value, mean_est, rmse, mc_se = _summary
    if bias_convention is BiasConvention.TRUTH_MINUS_ESTIMATE:
        bias = true_value - mean_est
    else:
        bias = mean_est - true_value
    return SimulationRow(
        distribution=dist.family,
        params=dist.param_text(),
        estimator=estimator.text(with_w=False),
        m=m,
        l=l,
        w=estimator.w,
        reps=replications,
        seed=base_seed,
        true_value=true_value,
        bias=bias,
        rmse=rmse,
        mc_se=mc_se,
    )


def _check_threads_env():
    env = os.environ.get("CREXLAB_THREADS")
    if env:
        try:
            int(env)
        except ValueError:
            raise SpecParseError(f"CREXLAB_THREADS must be an integer, got {env!r}") from None


def run_grid(config, workers=None):
    """Run the full Cartesian grid of a config.

    Rows come back in deterministic (m, l, estimator, w) order.  Failed
    cells are collected as :class:`~crexlab.errors.CellError` and do not
    stop the rest.  The grid kernel draws and estimates every cell first;
    then :func:`run_cell` summarizes each cell in that order.  Cells run
    in this one thread: ``workers`` and the ``CREXLAB_THREADS``
    environment variable are accepted for compatibility and change
    nothing (a non-integer ``CREXLAB_THREADS`` is still a SpecParseError).
    """
    _check_threads_env()
    dist = config.distribution
    cells = config._cells
    outcomes = _grid_outcomes(dist, cells, config.replications, config.base_seed)
    rows, failures = [], []
    for (spec, m, l), outcome in zip(cells, outcomes):
        try:
            rows.append(
                run_cell(
                    dist,
                    spec,
                    m,
                    l,
                    config.replications,
                    base_seed=config.base_seed,
                    bias_convention=config.bias_convention,
                    _summary=outcome,
                )
            )
        except CrexlabError as exc:
            coords = {"distribution": dist.spec_string(), "estimator": spec.text(), "m": m, "l": l}
            failures.append(CellError(coords, exc))
    return GridResult(rows=rows, failures=failures)


def rows_to_csv(rows, file=None):
    """Serialize rows under the fixed schema; returns text if file is None."""
    # csv writes None as an empty field and a float by its repr
    lines = ([getattr(row, name) for name in CSV_HEADER] for row in rows)
    return write_csv(CSV_HEADER, lines, file)


def rows_from_csv(file):
    """Read rows written by :func:`rows_to_csv`; '#' comment lines are skipped."""
    rows = []
    for raw in read_csv(file, CSV_HEADER, "results CSV", comments=True):
        try:
            values = (read(text) for read, text in zip(_FIELD_READERS, raw, strict=True))
            rows.append(SimulationRow(*values))
        except ValueError:
            raise SpecParseError(f"malformed results row: {raw}") from None
    return rows


def protocol_config(family, replications=5000, base_seed=DEFAULT_SEED, sides=("spacing", "order")):
    """The benchmark-table grid for one distribution family.

    ``family`` is ``"exp"``, ``"unif"`` or ``"beta"``; defaults are rate 1,
    Uniform(0, 1), and Beta(2, 1).  ``sides`` selects the spacing-estimator
    half (``rn`` + tuned ``rmn``), the order-statistic half (``lstat`` +
    tuned ``lstat_adj``), or both, as a nonempty list.
    """
    if not isinstance(family, str) or family not in PROTOCOL_DISTRIBUTIONS:
        known = ", ".join(sorted(PROTOCOL_DISTRIBUTIONS))
        raise SpecParseError(f"unknown protocol family {family!r} (known: {known})")
    sides = _sequence(sides, "sides")
    for side in sides:
        if side not in ("spacing", "order"):
            raise SpecParseError(f"unknown side {side!r} (use spacing/order)")
    estimators = []
    w_lists = {}
    if "spacing" in sides:
        estimators += ["rn", "rmn"]
        w_lists["rmn"] = RMN_W_GRID
    if "order" in sides:
        estimators += ["lstat", "lstat_adj"]
        w_lists["lstat_adj"] = LSTAT_ADJ_W_GRID[family]
    return SimulationConfig(
        distribution=PROTOCOL_DISTRIBUTIONS[family],
        m_values=(2, 3, 4, 5),
        l_values=(2, 3),
        estimators=tuple(estimators),
        w_lists=w_lists,
        psi_family=family if "order" in sides else None,
        replications=replications,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Best-fit distribution for a target (bias, rmse) pair."""

    distribution: Distribution
    residual: float
    bias_convention: BiasConvention
    bias: float
    rmse: float
    details: list

    @property
    def spec_string(self):
        return self.distribution.spec_string()


def calibrate_parameter(
    candidates,
    estimator,
    m,
    l,
    target,
    replications=500,
    base_seed=DEFAULT_SEED,
):
    """Scan candidate distributions for the best match to a target cell.

    ``candidates`` is a list of laws or their spec texts.  ``target`` is
    the (bias, rmse) pair to reproduce; anything but two finite numbers
    raises DomainError.  Both bias sign conventions are tried for every
    candidate; the squared deviation
    ``(bias - target_bias)**2 + (rmse - target_rmse)**2`` is minimized.
    Returns the best fit together with per-candidate details; a poor
    residual is reported, one that overflows raises DivergenceError.
    """
    try:
        target_bias, target_rmse = map(float, target)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"calibration target must be (bias, rmse), got {shown(target)}") from None
    if not np.isfinite([target_bias, target_rmse]).all():
        raise DomainError(f"calibration target must be finite, got {target!r}")
    try:
        candidate_list = [as_distribution(c) for c in candidates]
    except TypeError:
        raise DomainError(f"calibration candidates must be a list, got {candidates!r}") from None
    if not candidate_list:
        raise DomainError("calibration needs at least one candidate distribution")
    fits, details = [], []
    for dist in candidate_list:
        row = run_cell(
            dist,
            estimator,
            m,
            l,
            replications,
            base_seed=base_seed,
            bias_convention=BiasConvention.TRUTH_MINUS_ESTIMATE,
        )
        for convention in BiasConvention:
            bias = row.bias if convention is BiasConvention.TRUTH_MINUS_ESTIMATE else -row.bias
            try:
                residual = (bias - target_bias) ** 2 + (row.rmse - target_rmse) ** 2
            except OverflowError:
                residual = np.inf
            if not np.isfinite(residual):
                raise DivergenceError(f"calibration residual of {dist.spec_string()} is not finite")
            details.append(
                {
                    "distribution": dist.spec_string(),
                    "bias_convention": convention.value,
                    "bias": bias,
                    "rmse": row.rmse,
                    "residual": residual,
                }
            )
            fits.append(CalibrationResult(dist, residual, convention, bias, row.rmse, details))
    # every fit shares the one details list; min keeps the first of equal residuals
    return min(fits, key=lambda fit: fit.residual)
