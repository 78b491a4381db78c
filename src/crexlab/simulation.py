"""Seeded Monte Carlo harness: bias and RMSE of the estimators on a grid.

Each grid cell is one (distribution, m, l, estimator, w) coordinate, and
each draws one of a few sample shapes: ``n = m * l`` values of a plain
SRS sample for ``vn``, or an unequal-minima (MinRSSU) sample for the
spacing and order-statistic estimators.  A shape's samples read one
counter-based stream, numpy's Philox with the key ``(k0, 0)``.  ``k0`` is
a 64-bit blake2b digest of the base seed and the shape digest, which
hashes the law's text, ``srs`` or ``minrssu``, m and l.  A sample of
either design reads ``width = m * l`` uniforms, one per value; it spans
``blocks = ceil(width / 4)`` counter blocks of four 64-bit words, one
double each, and replication ``r`` reads the ``width`` uniforms that
start at counter block ``r * blocks``; the rest of its last block is
left unread.  Every cell of a shape reads the same sample in each
replication, so estimators are compared on common random numbers;
results are bit-identical across reruns and execution order, and
:func:`replication_rng` rebuilds any one replication's stream.

A grid's kernel is one chunk loop over one estimate matrix, one row per
cell that draws; the cells are bucketed by shape and by estimator kind,
spacing or order statistic.  A shape's replications are drawn in chunks
of rows of ``4 * blocks`` uniforms, at most ``_CHUNK_UNIFORMS`` a chunk:
numpy's C Philox is set once per chunk, to its first row's counter, and
one fill writes the chunk, whose rows the kernel reads through a view of
their first ``width`` uniforms.  A chunk goes through the one draw
transform of :mod:`crexlab.sampling` and is sorted once, and each kind
writes its cells' rows of the matrix by one broadcast ``np.vecdot`` of
its weight rows against the shared sorted rows.  The kernel checks no
value it draws: a drawn uniform lies in ``[0, 1)``, every family's draw
kernels map that into its support, and every support starts at 0 or
above, so each sample is finite and nonnegative, as the order-statistic
estimators require.  A draw's uniforms live in a workspace each thread
keeps from draw to draw, valid until the thread's next draw, and one
chunk's samples are freed before the next chunk is drawn: buffers
allocated and freed by every draw, or a chunk's samples kept alive
across the next draw, let glibc hand the top of the heap back to the
system and fault it in again on every grid.  The chunk budget of 2**14
uniforms keeps the workspace at 128 kB and each of a chunk's temporaries
under glibc's default mmap threshold of 128 kB; larger chunks brought
the same faults back on the large-sample shape.  One set of reductions
along the replications summarizes the matrix against a true value
computed once; :func:`run_cell` then applies the bias convention to each
cell's summary, and fails a cell whose bias, RMSE or Monte Carlo SE is
not finite.

Reported cells use the configured bias convention (default: truth minus
mean estimate); RMSE and |bias| do not depend on the convention.  Squared
deviations are accumulated in extended precision.

Rows are :class:`SimulationRow` named tuples, and serialize to CSV under
a header of their field names, in order::

    distribution,params,estimator,m,l,w,reps,seed,true_value,bias,rmse,mc_se
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import os
import threading
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .distributions import Distribution, as_distribution
from .errors import CellError, CrexlabError, DivergenceError, DomainError, SpecParseError
from .errors import allocating, check_count, check_integer, enum_member, read_csv, shown, write_csv
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
from .sampling import _draw_values, draw_minrssu  # noqa: F401

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
# A whole large-sample shape, 80 rows of 5000 uniforms, would take 3.2 MB;
# the chunk buffer each thread keeps takes 128 kB.  A chunk's temporaries
# (its samples, and a MinRSSU draw's logarithms) are each at most that
# size, under glibc's default mmap threshold of 128 kB: at 2**16 or 2**15
# they made glibc trim the heap top and fault it in again on every grid,
# more than 2000 minor faults per large-sample pass, and at 2**14 none
_CHUNK_UNIFORMS = 2**14

PROTOCOL_DISTRIBUTIONS = {
    "exp": "exp:rate=1",
    "unif": "unif:a=0,b=1",
    "beta": "powerbeta:alpha=2",
}


class BiasConvention(enum.Enum):
    TRUTH_MINUS_ESTIMATE = "truth-minus-estimate"
    ESTIMATE_MINUS_TRUTH = "estimate-minus-truth"


class SimulationRow(typing.NamedTuple):
    """One completed grid cell: an immutable, hashable tuple of its CSV columns.

    Fields are read by name or by position; ``_replace`` gives a changed
    copy.  As a tuple, a row equals the plain tuple of its values.
    """

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


# the results CSV has one column per SimulationRow field, read back by its
# type; get_type_hints resolves the annotations, which NamedTuple keeps as
# forward references under postponed evaluation
CSV_HEADER = SimulationRow._fields
_FROM_TEXT = {str: str, int: int, float: float, int | None: lambda t: int(t) if t else None}
_FIELD_READERS = tuple(_FROM_TEXT[t] for t in typing.get_type_hints(SimulationRow).values())


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
    tuning value run once per (m, l) cell.  A ``w_lists`` key that is not
    one of ``estimators``, or a ``psi_family`` on a grid without
    ``lstat_adj``, would be read by no cell and raises SpecParseError.
    Every list, the m, l and estimator lists and each w list alike, must
    be a nonempty list, not a string.  A config is frozen: its fields are
    checked and normalized once, on construction, and :func:`run_grid`
    trusts them.  ``w_lists`` is kept as read-only mappings of tuples,
    copied from the caller's.
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
            for token in w_lists:
                if token not in self.estimators:
                    raise SpecParseError(f"w_lists key {token!r} is not one of the estimators")
            kinds = [enum_member(EstimatorKind, token, "estimator") for token in self.estimators]
            if self.psi_family is not None and EstimatorKind.LSTAT_ADJUSTED not in kinds:
                raise SpecParseError(
                    f"psi_family {self.psi_family!r} is set, but the grid has no lstat_adj cell"
                )
            cells = []  # building each EstimatorSpec checks every (estimator, w) pair
            for m in self.m_values:
                specs = []
                for token, kind in zip(self.estimators, kinds):
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


def _shape_digest(dist_spec, vn, m, l):
    """The 64-bit digest of one draw shape: the law's text, ``srs`` or ``minrssu``, m and l."""
    text = f"{dist_spec}|{'srs' if vn else 'minrssu'}|m={m}|l={l}"
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _check_seed(value, label="base seed", bits=128):
    """A seed word ``value`` as an int below ``2**bits``; anything else raises DomainError.

    A base seed and a counter block have 128 bits, a shape digest 64.
    """
    value = check_integer(value, label)
    if value < 0:
        raise DomainError(f"{label} must be >= 0, got {shown(value)}")
    if value >> bits:
        raise DomainError(f"{label} must be < 2**{bits}, got {shown(value)}")
    return value


def _stream_key(base_seed, shape_digest):
    """``k0``, the first Philox key word of one shape's stream: a 64-bit blake2b digest."""
    data = base_seed.to_bytes(16, "little") + shape_digest.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _blocks(width):
    """The Philox counter blocks, of four uniforms each, that one row of ``width`` spans."""
    return -(-width // 4)


def replication_rng(base_seed, shape_digest, block):
    """The stream of one shape from counter block ``block``: Philox keyed ``(k0, 0)``.

    Replication ``r`` of a shape whose sample reads ``width`` uniforms
    reads the first ``width`` uniforms of ``replication_rng(base_seed,
    shape_digest, r * ceil(width / 4))``.  The base seed and the block
    are integers in ``0 .. 2**128 - 1``, the shape digest in ``0 ..
    2**64 - 1`` (a numpy integer passes); anything else raises
    DomainError.
    """
    k0 = _stream_key(_check_seed(base_seed), _check_seed(shape_digest, "shape digest", 64))
    philox = np.random.Philox(key=k0, counter=_check_seed(block, "counter block"))
    return np.random.Generator(philox)


class _Workspace(threading.local):
    """The draw buffer and the C generator of one thread, kept from each draw to the next.

    ``out`` grows to the largest draw the thread has made, and a smaller
    draw uses its first entries.
    """

    def __init__(self):
        self.out = np.empty(0)

    # made on the thread's first draw, so that importing crexlab does not
    # load numpy.random: about 12 ms and 1.7 MB of resident memory
    @functools.cached_property
    def generator(self):
        return np.random.Generator(np.random.Philox(0))


_WORKSPACE = _Workspace()


def _reset_uniforms(k0, start, stop, width):
    """Replications ``start .. stop - 1`` of the stream keyed ``(k0, 0)``, ``width`` uniforms each.

    Row r reads the ``width`` uniforms from counter block ``r * blocks``,
    the stream of ``replication_rng(seed, digest, r * blocks)``.  This
    thread's generator is set once, to the key, counter ``start *
    blocks`` over counter words 0 and 1 and an empty buffer, and one
    fill writes rows of stride ``4 * blocks``.  The returned ``(stop -
    start, width)`` view of them lives in this thread's workspace and is
    valid until its next draw.
    """
    stride, counter = 4 * _blocks(width), start * _blocks(width)
    workspace, size = _WORKSPACE, (stop - start) * stride
    if len(workspace.out) < size:
        with allocating(size, "uniform workspace"):
            workspace.out = np.empty(size)
    generator = workspace.generator
    generator.bit_generator.state = {
        "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0, "state": {"counter": [counter % 2**64, counter >> 64, 0, 0], "key": [k0, 0]}}
    return generator.random(out=workspace.out[:size]).reshape(-1, stride)[:, :width]


def _cell_summaries(estimates, true_value):
    """``(true_value, mean estimate, RMSE, Monte Carlo SE)`` of each row of ``estimates``.

    Each row holds one cell's estimates.  The mean and the squared
    deviations from ``true_value`` are summed in extended precision, in
    one extended copy of the matrix, freed before the standard error; the
    standard error uses ``ddof=1`` and is 0 for a single replication.  A
    reduction that overflows gives inf without a warning, and
    :func:`run_cell` fails its cell.
    """
    replications = estimates.shape[1]
    with np.errstate(over="ignore"):
        mean = np.mean(estimates, axis=1, dtype=np.longdouble)
        dev = np.subtract(estimates, true_value, dtype=np.longdouble)
        dev *= dev
        rmse = np.sqrt(np.mean(dev, axis=1))
        del dev
        if replications > 1:
            mc_se = np.std(estimates, axis=1, ddof=1) / np.sqrt(replications)
        else:
            mc_se = np.zeros(len(estimates))
        stats = zip(mean.astype(float).tolist(), rmse.astype(float).tolist(), mc_se.tolist())
    return [(true_value, *cell) for cell in stats]


def _grid_outcomes(dist, cells, replications, base_seed):
    """The summary of each ``(spec, m, l)`` cell of a grid on ``dist``.

    Each entry is the cell's :func:`_cell_summaries` entry or the
    CrexlabError the cell raised.  The true value is computed once, and
    its error fails every cell.  Errors that do not depend on the drawn
    values come next and draw nothing.  Each other cell owns one row of
    the estimate matrix, in grid order.  A chunk's uniforms become samples
    by :func:`~crexlab.sampling._draw_values`, the transform that
    :func:`~crexlab.sampling.draw_minrssu` and, for ``vn``,
    ``Distribution.sample`` apply to a stream, and each kind's cells are
    one :func:`~crexlab.estimators.row_estimates` call on them, unchecked:
    the samples are the package's own draws, finite and nonnegative.  A
    CrexlabError fails every cell of a shape when drawing its samples
    raises it.
    """
    try:
        true_value = float(crex(dist))
    except CrexlabError as exc:
        return [exc] * len(cells)
    outcomes, drawn, shapes = [None] * len(cells), [], {}
    for index, (spec, m, l) in enumerate(cells):
        try:
            spacing, denom = row_estimator(spec, m, m * l)
        except CrexlabError as exc:
            outcomes[index] = exc
            continue
        kinds = shapes.setdefault((m, l, spec.kind is EstimatorKind.VN), {})
        rows, denoms = kinds.setdefault(spacing, ([], []))
        rows.append(len(drawn))
        denoms.append(denom)
        drawn.append(index)
    if not drawn:
        return outcomes
    with allocating(len(drawn) * replications, "estimate matrix"):
        estimates = np.zeros((len(drawn), replications))
    errors, spec_text = {}, dist.spec_string()
    for (m, l, vn), kinds in shapes.items():
        k0 = _stream_key(base_seed, _shape_digest(spec_text, vn, m, l))
        width = m * l
        step = max(1, _CHUNK_UNIFORMS // (4 * _blocks(width)))
        try:
            weights = {spacing: row_weights(spacing, width, denoms)
                       for spacing, (_, denoms) in kinds.items()}
            for start in range(0, replications, step):
                stop = min(start + step, replications)
                values = _draw_values(dist, m, vn, _reset_uniforms(k0, start, stop, width))
                values.sort(axis=1)
                for spacing, (rows, _) in kinds.items():
                    estimates[rows, start:stop] = row_estimates(spacing, values, weights[spacing])
                # one chunk's samples at a time: see the module docstring
                del values
        except CrexlabError as exc:
            for rows, _ in kinds.values():
                errors.update(dict.fromkeys(rows, exc))
    summaries = _cell_summaries(estimates, true_value)
    for row, (index, summary) in enumerate(zip(drawn, summaries)):
        outcomes[index] = errors.get(row) or summary
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
    equals the one from its shape's :func:`replication_rng` stream,
    :func:`~crexlab.sampling.draw_minrssu` (``Distribution.sample`` for
    ``vn``) and :func:`~crexlab.estimators.estimate`, bit for bit.
    Errors that do not depend on the drawn values are raised before any
    drawing, and a bias, RMSE or Monte Carlo SE that is not finite raises
    DivergenceError.  :func:`run_grid` passes ``_summary``, this cell's
    entry of the grid kernel: its true value, mean estimate, RMSE and
    Monte Carlo SE, or its error.  The arguments then come from a frozen
    :class:`SimulationConfig`, which has checked them, so they are
    parsed and checked only when ``run_cell`` runs its own cell; the grid
    passes them by position, and the row is built by position.  The grid
    calls ``run_cell`` once per cell, through this module's binding, so
    that a tracer that wraps it sees every cell.
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
    if not (math.isfinite(bias) and math.isfinite(rmse) and math.isfinite(mc_se)):
        raise DivergenceError(f"cell summary overflows: bias={bias}, rmse={rmse}, mc_se={mc_se}")
    return SimulationRow(
        dist.family, dist.param_text(), estimator.text(False), m, l, estimator.w,
        replications, base_seed, true_value, bias, rmse, mc_se,
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
    then :func:`run_cell` summarizes each cell in that order, called by
    position once per cell with the settings read once per grid.  Cells
    run in this one thread: ``workers`` and the ``CREXLAB_THREADS``
    environment variable are accepted for compatibility and change
    nothing (a non-integer ``CREXLAB_THREADS`` is still a SpecParseError).
    """
    _check_threads_env()
    dist, cells = config.distribution, config._cells
    reps, seed, convention = config.replications, config.base_seed, config.bias_convention
    outcomes = _grid_outcomes(dist, cells, reps, seed)
    rows, failures = [], []
    for (spec, m, l), outcome in zip(cells, outcomes):
        try:
            rows.append(run_cell(dist, spec, m, l, reps, seed, convention, _summary=outcome))
        except CrexlabError as exc:
            coords = {"distribution": dist.spec_string(), "estimator": spec.text(), "m": m, "l": l}
            failures.append(CellError(coords, exc))
    return GridResult(rows=rows, failures=failures)


def rows_to_csv(rows, file=None):
    """Serialize rows under the fixed schema; returns text if file is None."""
    # each row is its own CSV line: csv writes None as an empty field and a float by its repr
    return write_csv(CSV_HEADER, rows, file)


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
        # an array side compared with a string has no truth value
        if not isinstance(side, str) or side not in ("spacing", "order"):
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
            fits.append((dist, residual, convention, bias, row.rmse))
    # one result, for the first of equal residuals
    return CalibrationResult(*min(fits, key=lambda fit: fit[1]), details)
