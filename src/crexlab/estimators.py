"""Empirical estimators of the cumulative residual measure.

Two estimator families operate on a sorted sample ``Y_(1) <= ... <= Y_(n)``:

* spacing estimators: ``-(1/2) sum_k Z_{k+1} (1 - k/D)**2`` with spacings
  ``Z_{k+1} = Y_(k+1) - Y_(k)``; the plain version uses ``D = n`` and the
  adjusted version ``D = n + m + w`` for a tuning integer ``w``;
* order-statistic (L-statistic) estimators:
  ``-(1/n) sum_i (1 - i/D) Y_(i)`` with ``D = n`` plain and
  ``D = n + psi`` adjusted, where ``psi`` comes from a per-distribution
  weight-offset family.

Estimator specs parse from strings (used by the CLI and config files)::

    "vn" | "rn" | "rmn:w=-2" | "lstat" | "lstat_adj:family=exp,w=0"

in the ``head:key=value,...`` grammar of distribution specs
(:func:`crexlab.errors.split_spec`): whitespace is ignored, the head and
the family are matched in any case, and a repeated key is rejected.
:func:`estimate` is the one dispatcher and alone decides what data each
estimator takes; ``vn``, ``rn``, ``rmn``, ``lstat`` and ``lstat_adjusted``
each call it with one spec.  It takes an EstimatorSpec or its text,
through :meth:`EstimatorSpec.coerce`.  :func:`row_estimator`,
:func:`row_weights` and :func:`row_estimates` are the simulation grid
kernel's: they take the specs, weight rows and sorted samples the kernel
builds, unchecked, and are not part of ``__all__``.  :func:`row_estimates`
takes one block of sorted samples that every weight row of an estimator
kind shares, and returns only their estimates: the values it meets are
the package's own draws, finite and on a nonnegative support, and
:func:`estimate` checks data from outside the package before they reach
it.

The asymptotic variance functionals of the L-statistic route are evaluated
by tensor quadrature on the triangle ``y >= x``, where the covariance
kernel is smooth, on Gauss-Legendre rules graded towards the ends of the
support; SRS is the one-set case of MinRSSU.  A variance whose refinement
error exceeds a relative 1e-8 raises DivergenceError (see
:func:`crexlab._quadrature.double_quad_kinked`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import double_quad_kinked, truncation_point
from .distributions import as_distribution
from .errors import DivergenceError, DomainError, ParameterError, SizeError, SpecParseError
from .errors import allocating, check_array, check_count, check_integer, check_real, enum_member
from .errors import shown, split_spec
from .sampling import MinRssuSample, pooled_order_statistics

__all__ = [
    "PsiFamily",
    "EstimatorKind",
    "EstimatorSpec",
    "EmpiricalSurvival",
    "vn",
    "rn",
    "rmn",
    "lstat",
    "psi",
    "lstat_adjusted",
    "estimate",
    "asymptotic_variance_srs",
    "asymptotic_variance_minrssu",
]


class PsiFamily(enum.Enum):
    """Weight-offset family for the adjusted L-statistic estimator."""

    EXPONENTIAL = "exp"
    UNIFORM = "unif"
    BETA = "beta"


class EstimatorKind(enum.Enum):
    VN = "vn"
    RN = "rn"
    RMN = "rmn"
    LSTAT = "lstat"
    LSTAT_ADJUSTED = "lstat_adj"


_NEEDS_W = {EstimatorKind.RMN, EstimatorKind.LSTAT_ADJUSTED}


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run, its tuning offset w, and its psi family.

    ``w`` is an integer within the float range, as the weights divide by
    it as a float.  A spec derives its two :meth:`text` forms once, on
    construction.
    """

    kind: EstimatorKind
    w: int | None = None
    psi_family: PsiFamily | None = None

    def __post_init__(self):
        kind = enum_member(EstimatorKind, self.kind, "estimator")
        object.__setattr__(self, "kind", kind)
        if self.psi_family is not None:
            family = enum_member(PsiFamily, self.psi_family, "psi family")
            object.__setattr__(self, "psi_family", family)
        if (self.w is not None) != (kind in _NEEDS_W):
            need = "requires" if kind in _NEEDS_W else "does not take"
            raise SpecParseError(f"estimator {kind.value!r} {need} a w value")
        if self.w is not None:
            w = check_integer(self.w, "w")
            if not math.isfinite(check_real(w, "w")):
                raise DomainError(f"w must lie in the float range, got {shown(w)}")
            object.__setattr__(self, "w", w)
        adjusted = kind is EstimatorKind.LSTAT_ADJUSTED
        if (self.psi_family is not None) != adjusted:
            need = "requires" if adjusted else "does not take"
            raise SpecParseError(f"estimator {kind.value!r} {need} a psi family")
        # the text without and with w, indexed by with_w
        family = [] if self.psi_family is None else [f"family={self.psi_family.value}"]
        w = [] if self.w is None else [f"w={self.w}"]
        texts = tuple(
            f"{self.kind.value}:{','.join(parts)}" if parts else self.kind.value
            for parts in (family, family + w)
        )
        object.__setattr__(self, "_texts", texts)

    def text(self, with_w=True):
        return self._texts[bool(with_w)]

    @classmethod
    def parse(cls, text):
        """Parse an estimator spec string; see the module docstring."""
        head, options = split_spec(text, "estimator")
        kind = enum_member(EstimatorKind, head, "estimator")
        w = family = None
        for key, val in options.items():
            if key == "w":
                try:
                    w = int(val)
                except ValueError:
                    raise SpecParseError(f"w must be an integer, got {val!r}") from None
            elif key == "family":
                family = enum_member(PsiFamily, val.lower(), "psi family")
            else:
                raise SpecParseError(f"unknown estimator option {key!r}")
        return cls(kind=kind, w=w, psi_family=family)

    @classmethod
    def coerce(cls, spec):
        """``spec`` itself when it is an EstimatorSpec, else the spec its text names."""
        return spec if isinstance(spec, cls) else cls.parse(spec)


class EmpiricalSurvival:
    """Right-continuous complement of the empirical distribution function.

    Steps down by 1/n at each order statistic: 1 below ``X_(1)``, height
    ``1 - k/n`` on ``[X_(k), X_(k+1))``, and 0 above ``X_(n)``.
    """

    def __init__(self, values):
        arr = check_array(values, "empirical survival values").ravel()
        if arr.size == 0:
            raise SizeError("empirical survival needs at least one value")
        self.order_stats = np.sort(arr)
        self.n = arr.size

    def survival(self, x):
        arr = check_array(x, "empirical survival argument")
        if np.isnan(arr).any():
            raise DomainError(f"empirical survival argument contains nan: {x!r}")
        counts = np.searchsorted(self.order_stats, np.atleast_1d(arr), side="right")
        out = 1.0 - counts / self.n
        if arr.ndim == 0:
            return float(out[0])
        return out

    def cdf(self, x):
        s = self.survival(x)
        return 1.0 - s


def _sorted_values(data):
    """Ascending values of a MinRSSU sample (pooled) or of a value array of any shape."""
    if isinstance(data, MinRssuSample):
        return pooled_order_statistics(data)
    return np.sort(check_array(data, "estimator data").ravel())


def row_estimator(spec, m, n):
    """The kind and weight denominator of ``spec`` on samples of ``n`` values at design size ``m``.

    Returns ``(spacing, denom)``: whether ``spec`` is a spacing estimator,
    and its weight denominator D.  Every error that does not depend on the
    values (sample too small, a weight denominator that makes weights
    nonpositive, a psi family undefined at ``m``) is raised here, before
    any sample exists; :func:`row_weights` and :func:`row_estimates` use
    the denominator.
    """
    kind = spec.kind
    if kind in (EstimatorKind.LSTAT, EstimatorKind.LSTAT_ADJUSTED):
        if n < 1:
            raise SizeError(f"order-statistic estimator needs n >= 1, got n={n}")
        denom = n
        if kind is EstimatorKind.LSTAT_ADJUSTED:
            offset = _psi(spec.psi_family, m, spec.w)
            denom = n + offset
            if denom <= 0:
                raise ParameterError(
                    f"psi(m={m}, w={spec.w}) = {offset} gives denominator n+psi={denom} <= 0"
                )
        return False, denom
    if n < 2:
        raise SizeError(f"spacing estimator needs n >= 2, got n={n}")
    denom = n
    if kind is EstimatorKind.RMN:
        denom = n + m + spec.w
        if denom <= n - 1:
            raise ParameterError(
                f"w={spec.w} gives denominator n+m+w={denom} <= n-1={n - 1}; "
                "weights would be nonpositive"
            )
    return True, denom


def row_weights(spacing, n, denoms):
    """One row of weights per denominator D in ``denoms``, for samples of ``n`` values.

    Spacing weights are ``(1 - k/D)**2`` for k = 1..n-1, order-statistic
    weights ``1 - i/D`` for i = 1..n.  Rows too large to allocate raise
    DomainError.
    """
    denoms = np.asarray(denoms, dtype=float)[:, None]
    with allocating(len(denoms) * n, "weight rows"):
        if spacing:
            return (1.0 - np.arange(1, n) / denoms) ** 2
        return 1.0 - np.arange(1, n + 1) / denoms


# one BLAS dot per row and weight row, run by np.vecdot: it sums each
# pair as np.dot sums one 1-D pair, where a matrix-vector product sums in
# another order.  A dot over a strided row is another BLAS call too, so
# the kernel takes C-contiguous rows, spacings included: the diff of a
# Fortran-order or strided row keeps its layout.  Both kinds add 0.0, so
# a zero sum gives 0.0, not -0.0
def row_estimates(spacing, rows, weights):
    """The estimates of one ``(replications, n)`` block of rows under each weight row.

    Each row is an ascending sample, shared by every weight row; a
    spacing estimator sums its ``np.diff``, an order-statistic estimator
    the sample itself.  Returns the estimates: ``[k, r]`` is row ``r``
    under ``weights[k]``.  The values are not checked.
    """
    if spacing:
        rows = np.ascontiguousarray(np.diff(rows, axis=-1))
        return -0.5 * np.vecdot(rows, weights[:, None, :]) + 0.0
    rows = np.ascontiguousarray(rows)
    return -np.vecdot(weights[:, None, :], rows) / rows.shape[1] + 0.0


def estimate(spec, data, *, _m=None):
    """Run the estimator ``spec`` on a MinRSSU sample or a plain value array.

    ``spec`` is an EstimatorSpec or its text.  This is the one place
    that decides what data each estimator takes.  A MinRSSU sample
    supplies the design size m; ``rn`` and ``lstat_adj`` need one, and
    ``rmn`` on a plain value array needs the m that :func:`rmn` passes on
    as ``_m``, a count like every other m.  ``vn`` and ``lstat`` take
    either.  A plain array of any shape is ravelled:
    ``vn(np.ones((2, 2)))`` is ``vn`` of four equal values, 0.0.  A nan
    or infinite value raises DomainError, as does a negative value for an
    order-statistic estimator, and an estimate that overflows
    DivergenceError.
    """
    spec = EstimatorSpec.coerce(spec)
    if _m is not None:
        _m = check_count(_m, "m")
    m = data.m if isinstance(data, MinRssuSample) else None
    if m is None:
        if spec.kind in (EstimatorKind.RN, EstimatorKind.LSTAT_ADJUSTED):
            raise ParameterError(
                f"{spec.kind.value} needs a MinRSSU sample, got a plain value array"
            )
        if spec.kind is EstimatorKind.RMN and _m is None:
            raise ParameterError("rmn on a plain array needs an explicit m")
        m = _m
    values = _sorted_values(data)
    if not np.isfinite(values).all():
        raise DomainError(f"estimator data must be finite, got {values[~np.isfinite(values)][0]}")
    spacing, denom = row_estimator(spec, m, values.size)
    if not spacing and values[0] < 0:
        raise DomainError("order-statistic estimator requires nonnegative values")
    weights = row_weights(spacing, values.size, [denom])
    with np.errstate(over="ignore"):
        estimates = row_estimates(spacing, values[None], weights)
    if not np.isfinite(estimates).all():
        raise DivergenceError(f"{spec.text()} estimate overflows: {estimates[0, 0]}")
    return float(estimates[0, 0])


def vn(sample):
    """Plain spacing estimator ``-(1/2) sum Z_{k+1} (1 - k/n)**2``.

    Equals ``-(1/2) int Shat(x)**2 dx`` for the empirical survival Shat.
    """
    return estimate(EstimatorSpec(EstimatorKind.VN), sample)


def rn(sample):
    """Spacing estimator on the pooled order statistics of a MinRSSU sample."""
    return estimate(EstimatorSpec(EstimatorKind.RN), sample)


def rmn(sample, w, m=None):
    """Adjusted spacing estimator with weight denominator ``n + m + w``.

    ``sample`` is a MinRSSU sample (m taken from it) or a plain value
    array with ``m`` passed explicitly.  A ``w`` that is not an integer,
    or an explicit ``m`` that is not an integer >= 1, raises DomainError.
    Every weight ``1 - k/(n + m + w)`` for ``k <= n - 1`` must stay
    positive, i.e. ``n + m + w > n - 1``.
    """
    return estimate(EstimatorSpec(EstimatorKind.RMN, w=w), sample, _m=m)


def lstat(sample):
    """Order-statistic estimator ``-(1/n) sum (1 - i/n) X_(i)``.

    Plug-in of the identity ``-int x S(x) dF(x)``; nonnegative inputs only.
    """
    return estimate(EstimatorSpec(EstimatorKind.LSTAT), sample)


_K_EXPONENTIAL = {2: 3, 3: 2, 4: 1, 5: 0}
_K_UNIFORM = {2: -1, 3: 0, 4: 1, 5: 2}


def psi(family, m, w):
    """Weight offset for the adjusted L-statistic.

    exponential: ``5m - 4*k_m + w`` with k = (3, 2, 1, 0) for m = 2..5
    uniform:     ``3m - (2*k_m + 1) + w`` with k = (-1, 0, 1, 2)
    beta:        ``m - w``

    ``m`` is a count and ``w`` an integer; anything else raises DomainError.
    This is the checked boundary; :func:`_psi` is its kernel.
    """
    family = enum_member(PsiFamily, family, "psi family")
    return _psi(family, check_count(m, "design size"), check_integer(w, "w"))


def _psi(family, m, w):
    """:func:`psi` of a PsiFamily ``family``, a count ``m`` and an int ``w``, unchecked.

    The kernel that :func:`row_estimator` calls: an EstimatorSpec checked
    its family and w, and a config or a sample checked its m.  An
    exponential or uniform family outside m = 2..5, a value and not a
    type fault, still raises DomainError.
    """
    if family is PsiFamily.BETA:
        return m - w
    if m not in _K_EXPONENTIAL:
        raise DomainError(f"psi family {family.value!r} is defined for m = 2..5, got {m}")
    if family is PsiFamily.EXPONENTIAL:
        return 5 * m - 4 * _K_EXPONENTIAL[m] + w
    return 3 * m - (2 * _K_UNIFORM[m] + 1) + w


def lstat_adjusted(sample, family, w):
    """Adjusted order-statistic estimator ``-(1/n) sum (1 - i/(n+psi)) Y_(i)``."""
    spec = EstimatorSpec(EstimatorKind.LSTAT_ADJUSTED, w=w, psi_family=family)
    return estimate(spec, sample)


def asymptotic_variance_srs(dist):
    """Limit variance of ``sqrt(n)`` times the plain L-statistic under SRS.

    ``int int S(x) S(y) [F(min(x,y)) - F(x) F(y)] dx dy`` over the
    nonnegative support: :func:`asymptotic_variance_minrssu` at ``m = 1``.
    """
    return _asymptotic_variance(dist, 1)


def asymptotic_variance_minrssu(dist, m):
    """Limit variance of the pooled L-statistic under the unequal-minima plan.

    ``int int P(S(x)) P(S(y)) [P(S(max(x,y))) - P(S(x) S(y))] dx dy`` over
    the nonnegative support, with the mixture survival ``P(S)``, ``P(u) =
    (1/m) sum_{i<=m} u**i``, and the averaged covariance kernel of the minima.
    """
    return _asymptotic_variance(dist, check_count(m, "design size"))


def _asymptotic_variance(dist, m):
    dist = as_distribution(dist)
    lo = max(0.0, dist.support[0])
    # the checked survival, not the kernel: points of the y-grid land on hi
    # itself (25 of the 96-node pass on FiniteRange(49, 0.5)), where that
    # law's kernel _survival is 1.05e-8, not 0
    return max(double_quad_kinked(dist.survival, m, lo, truncation_point(dist)), 0.0)
