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

The asymptotic variance functionals of the L-statistic route are evaluated
by tensor Gauss-Legendre quadrature split along the ``x == y`` kink.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from ._quadrature import DOUBLE_QUAD_NODES, double_quad_kinked, truncation_point
from .errors import DomainError, ParameterError, SizeError, SpecParseError
from .sampling import pooled_order_statistics

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
    "row_estimator",
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


def _estimator_kind(token):
    try:
        return EstimatorKind(token)
    except ValueError:
        known = ", ".join(k.value for k in EstimatorKind)
        raise SpecParseError(f"unknown estimator {token!r} (known: {known})") from None


def _psi_family(token):
    try:
        return PsiFamily(token)
    except ValueError:
        known = ", ".join(f.value for f in PsiFamily)
        raise SpecParseError(f"unknown psi family {token!r} (known: {known})") from None


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run, its tuning offset w, and its psi family."""

    kind: EstimatorKind
    w: int | None = None
    psi_family: PsiFamily | None = None

    def __post_init__(self):
        if isinstance(self.psi_family, str):
            object.__setattr__(self, "psi_family", _psi_family(self.psi_family))
        if (self.w is not None) != (self.kind in _NEEDS_W):
            need = "requires" if self.kind in _NEEDS_W else "does not take"
            raise SpecParseError(f"estimator {self.kind.value!r} {need} a w value")
        if (self.psi_family is not None) != (self.kind is EstimatorKind.LSTAT_ADJUSTED):
            need = (
                "requires"
                if self.kind is EstimatorKind.LSTAT_ADJUSTED
                else "does not take"
            )
            raise SpecParseError(f"estimator {self.kind.value!r} {need} a psi family")

    def text(self, with_w=True):
        parts = []
        if self.psi_family is not None:
            parts.append(f"family={self.psi_family.value}")
        if with_w and self.w is not None:
            parts.append(f"w={self.w}")
        if parts:
            return f"{self.kind.value}:{','.join(parts)}"
        return self.kind.value

    @classmethod
    def parse(cls, text):
        """Parse an estimator spec string; see the module docstring."""
        if not isinstance(text, str):
            raise SpecParseError(f"estimator spec must be a string, got {text!r}")
        head, _, tail = text.strip().partition(":")
        kind = _estimator_kind(head.strip().lower())
        w = None
        family = None
        if tail.strip():
            for piece in tail.split(","):
                key, eq, val = piece.partition("=")
                key, val = key.strip(), val.strip()
                if not eq:
                    raise SpecParseError(f"bad estimator option {piece.strip()!r}")
                if key == "w":
                    try:
                        w = int(val)
                    except ValueError:
                        raise SpecParseError(f"w must be an integer, got {val!r}") from None
                elif key == "family":
                    family = _psi_family(val.lower())
                else:
                    raise SpecParseError(f"unknown estimator option {key!r}")
        return cls(kind=kind, w=w, psi_family=family)


class EmpiricalSurvival:
    """Right-continuous complement of the empirical distribution function.

    Steps down by 1/n at each order statistic: 1 below ``X_(1)``, height
    ``1 - k/n`` on ``[X_(k), X_(k+1))``, and 0 above ``X_(n)``.
    """

    def __init__(self, values):
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise SizeError("empirical survival needs at least one value")
        self.order_stats = np.sort(arr)
        self.n = arr.size

    def survival(self, x):
        arr = np.asarray(x, dtype=float)
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


def _design_size(data):
    """The design size m of a MinRSSU sample; None for a plain value array."""
    return data.m if hasattr(data, "values") else None


def _sorted_values(data):
    """Ascending values of a MinRSSU sample (pooled) or of a value array."""
    if _design_size(data) is not None:
        return pooled_order_statistics(data)
    return np.sort(np.asarray(data, dtype=float).ravel())


def _spacing_rows(rows, weights):
    diffs = np.diff(rows, axis=1)
    # one 1-D dot per row: a matrix-vector product sums in another order
    return -0.5 * np.fromiter(map(np.dot, diffs, repeat(weights)), float, len(diffs))


def _order_stat_rows(rows, weights):
    if rows[:, 0].min() < 0:
        raise DomainError("order-statistic estimator requires nonnegative values")
    dots = np.fromiter(map(np.dot, repeat(weights), rows), float, len(rows))
    return -dots / rows.shape[1]


def row_estimator(spec, m, n):
    """The estimator ``spec`` on pooled samples of ``n`` values at design size ``m``.

    Returns a function that maps an array of ascending samples, one per
    row, to their estimates; each equals :func:`estimate` on that row's
    sample bit for bit.  Every error that does not depend on the values
    (sample too small, a weight denominator that makes weights
    nonpositive, a psi family undefined at ``m``) is raised here, before
    any sample exists.  Spacing weights are ``(1 - k/D)**2`` for
    k = 1..n-1, order-statistic weights ``1 - i/D`` for i = 1..n.
    """
    kind = spec.kind
    if kind in (EstimatorKind.LSTAT, EstimatorKind.LSTAT_ADJUSTED):
        if n < 1:
            raise SizeError(f"order-statistic estimator needs n >= 1, got n={n}")
        denom = n
        if kind is EstimatorKind.LSTAT_ADJUSTED:
            offset = psi(spec.psi_family, m, spec.w)
            denom = n + offset
            if denom <= 0:
                raise ParameterError(
                    f"psi(m={m}, w={spec.w}) = {offset} gives denominator n+psi={denom} <= 0"
                )
        i = np.arange(1, n + 1)
        return partial(_order_stat_rows, weights=1.0 - i / denom)
    if n < 2:
        raise SizeError(f"spacing estimator needs n >= 2, got n={n}")
    denom = n
    if kind is EstimatorKind.RMN:
        denom = n + int(m) + int(spec.w)
        if denom <= n - 1:
            raise ParameterError(
                f"w={spec.w} gives denominator n+m+w={denom} <= n-1={n - 1}; "
                "weights would be nonpositive"
            )
    k = np.arange(1, n)
    return partial(_spacing_rows, weights=(1.0 - k / denom) ** 2)


def _estimate_one(spec, m, data):
    values = _sorted_values(data)
    return float(row_estimator(spec, m, values.size)(values[np.newaxis])[0])


def vn(sample):
    """Plain spacing estimator ``-(1/2) sum Z_{k+1} (1 - k/n)**2``.

    Equals ``-(1/2) int Shat(x)**2 dx`` for the empirical survival Shat.
    """
    return _estimate_one(EstimatorSpec(EstimatorKind.VN), 1, sample)


def rn(sample):
    """Spacing estimator on the pooled order statistics of a MinRSSU sample."""
    m = _design_size(sample)
    if m is None:
        raise ParameterError("rn needs a MinRSSU sample, got a plain value array")
    return _estimate_one(EstimatorSpec(EstimatorKind.RN), m, sample)


def rmn(sample, w, m=None):
    """Adjusted spacing estimator with weight denominator ``n + m + w``.

    ``sample`` is a MinRSSU sample (m taken from it) or a plain value
    array with ``m`` passed explicitly.  Every weight
    ``1 - k/(n + m + w)`` for ``k <= n - 1`` must stay positive,
    i.e. ``n + m + w > n - 1``.
    """
    sample_m = _design_size(sample)
    if sample_m is not None:
        m = sample_m
    elif m is None:
        raise ParameterError("rmn on a plain array needs an explicit m")
    return _estimate_one(EstimatorSpec(EstimatorKind.RMN, w=int(w)), m, sample)


def lstat(sample):
    """Order-statistic estimator ``-(1/n) sum (1 - i/n) X_(i)``.

    Plug-in of the identity ``-int x S(x) dF(x)``; nonnegative inputs only.
    """
    return _estimate_one(EstimatorSpec(EstimatorKind.LSTAT), 1, sample)


_K_EXPONENTIAL = {2: 3, 3: 2, 4: 1, 5: 0}
_K_UNIFORM = {2: -1, 3: 0, 4: 1, 5: 2}


def psi(family, m, w):
    """Weight offset for the adjusted L-statistic.

    exponential: ``5m - 4*k_m + w`` with k = (3, 2, 1, 0) for m = 2..5
    uniform:     ``3m - (2*k_m + 1) + w`` with k = (-1, 0, 1, 2)
    beta:        ``m - w``
    """
    if not isinstance(family, PsiFamily):
        family = PsiFamily(family)
    m, w = int(m), int(w)
    if family is PsiFamily.BETA:
        if m < 1:
            raise DomainError(f"need m >= 1, got {m}")
        return m - w
    if m not in _K_EXPONENTIAL:
        raise DomainError(f"psi family {family.value!r} is defined for m = 2..5, got {m}")
    if family is PsiFamily.EXPONENTIAL:
        return 5 * m - 4 * _K_EXPONENTIAL[m] + w
    return 3 * m - (2 * _K_UNIFORM[m] + 1) + w


def lstat_adjusted(sample, family, w):
    """Adjusted order-statistic estimator ``-(1/n) sum (1 - i/(n+psi)) Y_(i)``."""
    spec = EstimatorSpec(EstimatorKind.LSTAT_ADJUSTED, w=int(w), psi_family=PsiFamily(family))
    m = _design_size(sample)
    if m is None:
        raise ParameterError("lstat_adj needs a MinRSSU sample, got a plain value array")
    return _estimate_one(spec, m, sample)


def estimate(spec, data):
    """Dispatch an EstimatorSpec on data (array for vn/lstat, sample otherwise)."""
    kind = spec.kind
    if kind is EstimatorKind.VN:
        return vn(data)
    if kind is EstimatorKind.RN:
        return rn(data)
    if kind is EstimatorKind.RMN:
        return rmn(data, spec.w)
    if kind is EstimatorKind.LSTAT:
        return lstat(data)
    return lstat_adjusted(data, spec.psi_family, spec.w)


def asymptotic_variance_srs(dist, nodes=DOUBLE_QUAD_NODES):
    """Limit variance of ``sqrt(n)`` times the plain L-statistic under SRS.

    ``int int S(x) S(y) [F(min(x,y)) - F(x) F(y)] dx dy`` over the
    nonnegative support.
    """
    lo = max(0.0, dist.support[0])
    hi = truncation_point(dist)

    def kernel(X, Y):
        return dist.cdf(np.minimum(X, Y)) - dist.cdf(X) * dist.cdf(Y)

    value, _ = double_quad_kinked(dist.survival, kernel, lo, hi, nodes=nodes)
    return max(value, 0.0)


def asymptotic_variance_minrssu(dist, m, nodes=DOUBLE_QUAD_NODES):
    """Limit variance of the pooled L-statistic under the unequal-minima plan.

    Uses the mixture cdf ``(1/m) sum_i [1 - S(x)**i]`` as weight argument
    and the averaged covariance kernel of the set minima.
    """
    if m < 1:
        raise DomainError(f"design size must be >= 1, got {m}")
    lo = max(0.0, dist.support[0])
    hi = truncation_point(dist)

    def mixture_survival(X):
        s = dist.survival(X)
        return sum(s**i for i in range(1, m + 1)) / m

    def kernel(X, Y):
        s_x = dist.survival(X)
        s_y = dist.survival(Y)
        s_max = np.maximum(s_x, s_y)
        total = np.zeros(np.broadcast(X, Y).shape)
        for i in range(1, m + 1):
            total += (1.0 - s_max**i) - (1.0 - s_x**i) * (1.0 - s_y**i)
        return total / m

    value, _ = double_quad_kinked(mixture_survival, kernel, lo, hi, nodes=nodes)
    return max(value, 0.0)
