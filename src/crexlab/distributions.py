"""Parametric lifetime distributions with exact analytic kernels.

Four families are provided, each with closed-form pdf, cdf, survival,
quantile, inverse-transform sampling, and the survival-power integrals

    ``int_t^inf  S(x)**p dx``        (``survival_power_integral``)

that drive every cumulative-residual measure in :mod:`crexlab.measures`.

Distributions can be built from a compact spec string (used by the CLI and
by config files).  The grammar is::

    spec       := family ":" param ("," param)*
    param      := name "=" float
    family     := "exp"       with param  rate  (rate > 0)
                | "unif"      with params a, b  (0 <= a < b)
                | "finite"    with params a, b  (a > 0, b > 0)
                | "powerbeta" with param  alpha (alpha > 0)

Every parameter must be finite.  Examples: ``exp:rate=1``,
``unif:a=0,b=1``, ``finite:a=2,b=3``, ``powerbeta:alpha=2``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from .errors import DomainError, DivergenceError, SpecParseError

__all__ = [
    "Distribution",
    "Exponential",
    "Uniform",
    "FiniteRange",
    "PowerBeta",
    "parse_distribution",
]


def _all_inside(vals, lo, hi, closed=False):
    """Whether ``vals`` is non-empty and lies in ``(lo, hi)``, or ``[lo, hi]``.

    A nan fails every comparison, so an array holding one is never inside.
    """
    if vals.size == 0:
        return False
    low, high = vals.min(), vals.max()
    if closed:
        return lo <= low and high <= hi
    return lo < low and high < hi


def _on_support(below, above, ends_inside=False):
    """Evaluate a kernel ``func(self, x)`` inside the support, constants outside.

    Left of the support the method returns ``below``, right of it
    ``above``; the support ends count as inside only when ``ends_inside``.
    ``func`` sees an array of points inside the support only: the whole
    argument when every point lies inside, else the inside points.  A
    scalar argument skips the array masks and evaluates the kernel on a
    one-element array, so it returns the same float as the array route.
    A nan argument raises DomainError.
    """

    def decorate(func):
        @functools.wraps(func)
        def method(self, x):
            lo, hi = self.support
            if isinstance(x, (float, int)):
                if x != x:
                    raise DomainError(f"{func.__name__} argument is nan")
                if lo < x < hi or (ends_inside and lo <= x <= hi):
                    return float(func(self, np.array([x], dtype=float))[0])
                return below if x <= lo else above
            arr = np.asarray(x, dtype=float)
            vals = np.atleast_1d(arr)
            if _all_inside(vals, lo, hi, ends_inside):
                out = func(self, vals)
            else:
                if np.isnan(vals).any():
                    raise DomainError(f"{func.__name__} argument contains nan: {x!r}")
                if ends_inside:
                    inside = (vals >= lo) & (vals <= hi)
                else:
                    inside = (vals > lo) & (vals < hi)
                out = np.where(vals <= lo, below, above)
                if inside.any():
                    out[inside] = func(self, vals[inside])
            if arr.ndim == 0:
                return float(out[0])
            return out

        return method

    return decorate


def _require_finite(family, **params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{family} parameter {name} must be finite, got {value}")


class Distribution:
    """Common interface of the parametric families.

    Subclasses fill in the analytic kernels; everything here is pure and
    safe to call concurrently.  Sampling consumes uniforms from a caller
    owned ``numpy.random.Generator`` via the inverse transform, so a given
    stream state fully determines the output.
    """

    family = "base"
    support = (0.0, math.inf)

    # -- analytic kernels (subclass responsibility) ---------------------

    def _pdf(self, x):
        raise NotImplementedError

    def _cdf(self, x):
        raise NotImplementedError

    def _survival(self, x):
        raise NotImplementedError

    def _quantile(self, u):
        raise NotImplementedError

    # -- public evaluations ---------------------------------------------

    @_on_support(below=0.0, above=0.0, ends_inside=True)
    def pdf(self, x):
        """Density; zero outside the support."""
        return self._pdf(x)

    @_on_support(below=0.0, above=1.0)
    def cdf(self, x):
        """Distribution function; 0 left of the support, 1 right of it."""
        return self._cdf(x)

    @_on_support(below=1.0, above=0.0)
    def survival(self, x):
        """Survival function 1 - cdf; 1 left of the support, 0 right of it."""
        return self._survival(x)

    def quantile(self, u):
        """Generalized inverse ``inf{x : cdf(x) >= u}`` for u in [0, 1]."""
        arr = np.asarray(u, dtype=float)
        vals = np.atleast_1d(arr)
        if _all_inside(vals, 0.0, 1.0):
            out = self._quantile(vals)
        else:
            if np.any((vals < 0.0) | (vals > 1.0)) or np.any(np.isnan(vals)):
                raise DomainError(f"quantile argument outside [0, 1]: {u!r}")
            out = np.empty_like(vals)
            lo, hi = self.support
            out[vals == 0.0] = lo
            out[vals == 1.0] = hi
            mid = (vals > 0.0) & (vals < 1.0)
            if np.any(mid):
                out[mid] = self._quantile(vals[mid])
        if arr.ndim == 0:
            return float(out[0])
        return out

    def sample(self, rng, count):
        """Draw ``count`` i.i.d. values by inverse transform on ``rng``."""
        if count < 0:
            raise DomainError(f"sample count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0)
        return self.quantile(rng.random(count))

    # -- moments and survival-power integrals ---------------------------

    def survival_power_integral(self, p, lower=0.0):
        """Exact ``int_t^inf S(x)**p dx`` with ``t = max(lower, 0)``.

        The integrand is 1 below the support start, so that region
        contributes its length.  Subclasses implement `_spi_tail` for the
        part inside the support.
        """
        if p <= 0:
            raise DomainError(f"survival power must be positive, got {p}")
        lo, hi = self.support
        t = max(float(lower), 0.0)
        if t >= hi:
            return 0.0
        head = max(0.0, lo - t)
        return head + self._spi_tail(p, max(t, lo))

    def _spi_tail(self, p, t):
        raise NotImplementedError

    def mean(self):
        """E[X]; equals ``survival_power_integral(1)`` on nonnegative support."""
        return self.survival_power_integral(1.0)

    def min_order_stat_mean(self, j):
        """E of the minimum of ``j`` fresh draws, ``int_0^inf S(x)**j dx``."""
        if j < 1:
            raise DomainError(f"set size must be >= 1, got {j}")
        return self.survival_power_integral(float(j))

    def mean_residual_life(self, t):
        """Expected remaining lifetime beyond age ``t``."""
        s = self.survival(float(t))
        if s <= 0.0:
            raise DomainError(f"mean residual life undefined: survival({t}) = 0")
        return self.survival_power_integral(1.0, lower=t) / s

    # -- closed-form squared-kernel integrals (used by measures) --------

    def pdf_square_integral(self):
        """Exact ``int f(x)**2 dx``; raises DivergenceError when infinite."""
        raise NotImplementedError

    def cdf_square_integral(self):
        """Exact ``int_0^sup F(x)**2 dx`` over the nonnegative support.

        Diverges whenever the support is unbounded above.
        """
        raise NotImplementedError

    # -- textual form ----------------------------------------------------

    def param_items(self):
        raise NotImplementedError

    def param_text(self):
        return ",".join(f"{k}={v:g}" for k, v in self.param_items())

    def spec_string(self):
        return f"{self.family}:{self.param_text()}"

    def __repr__(self):
        args = ", ".join(f"{k}={v:g}" for k, v in self.param_items())
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        return (
            isinstance(other, Distribution)
            and self.family == other.family
            and self.param_items() == other.param_items()
        )

    def __hash__(self):
        return hash((self.family, self.param_items()))


class Exponential(Distribution):
    """Exponential lifetime with rate ``lam`` (mean ``1/lam``)."""

    family = "exp"

    def __init__(self, rate):
        _require_finite("exponential", rate=rate)
        if rate <= 0:
            raise DomainError(f"exponential rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.support = (0.0, math.inf)

    def _pdf(self, x):
        return self.rate * np.exp(-self.rate * x)

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def _survival(self, x):
        return np.exp(-self.rate * x)

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate

    def _spi_tail(self, p, t):
        return math.exp(-self.rate * p * t) / (self.rate * p)

    def mean_residual_life(self, t):
        if t < 0:
            t = 0.0
        # memoryless: constant in t
        return 1.0 / self.rate

    def pdf_square_integral(self):
        return self.rate / 2.0

    def cdf_square_integral(self):
        raise DivergenceError(
            "cumulative extropy diverges on unbounded support (exp family)"
        )

    def param_items(self):
        return (("rate", self.rate),)


class Uniform(Distribution):
    """Uniform on ``[a, b]``."""

    family = "unif"

    def __init__(self, a, b):
        _require_finite("uniform", a=a, b=b)
        if not b > a:
            raise DomainError(f"uniform requires b > a, got a={a}, b={b}")
        if a < 0:
            raise DomainError(f"uniform lifetime support must start at a >= 0, got a={a}")
        self.a = float(a)
        self.b = float(b)
        self.support = (self.a, self.b)

    def _pdf(self, x):
        return np.full_like(x, 1.0 / (self.b - self.a))

    def _cdf(self, x):
        return (x - self.a) / (self.b - self.a)

    def _survival(self, x):
        return (self.b - x) / (self.b - self.a)

    def _quantile(self, u):
        return self.a + u * (self.b - self.a)

    def _spi_tail(self, p, t):
        width = self.b - self.a
        frac = (self.b - t) / width
        return width / (p + 1.0) * frac ** (p + 1.0)

    def pdf_square_integral(self):
        return 1.0 / (self.b - self.a)

    def cdf_square_integral(self):
        # int_a^b ((x - a)/width)^2 dx
        return (self.b - self.a) / 3.0

    def param_items(self):
        return (("a", self.a), ("b", self.b))


class FiniteRange(Distribution):
    """Finite-range lifetime with survival ``(1 - a*x)**b`` on ``0 < x < 1/a``."""

    family = "finite"

    def __init__(self, a, b):
        _require_finite("finite-range", a=a, b=b)
        if a <= 0 or b <= 0:
            raise DomainError(f"finite-range requires a > 0 and b > 0, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self.support = (0.0, 1.0 / self.a)

    def _pdf(self, x):
        return self.a * self.b * (1.0 - self.a * x) ** (self.b - 1.0)

    def _cdf(self, x):
        return 1.0 - (1.0 - self.a * x) ** self.b

    def _survival(self, x):
        return (1.0 - self.a * x) ** self.b

    def _quantile(self, u):
        return (1.0 - (1.0 - u) ** (1.0 / self.b)) / self.a

    def _spi_tail(self, p, t):
        q = p * self.b
        return (1.0 - self.a * t) ** (q + 1.0) / (self.a * (q + 1.0))

    def pdf_square_integral(self):
        if self.b <= 0.5:
            raise DivergenceError(
                f"squared density not integrable for finite-range shape b={self.b} <= 1/2"
            )
        return self.a * self.b**2 / (2.0 * self.b - 1.0)

    def cdf_square_integral(self):
        # int_0^{1/a} (1 - (1-ax)^b)^2 dx, expanded termwise
        return (1.0 - 2.0 / (self.b + 1.0) + 1.0 / (2.0 * self.b + 1.0)) / self.a

    def param_items(self):
        return (("a", self.a), ("b", self.b))


class PowerBeta(Distribution):
    """Beta(alpha, 1) on (0, 1): cdf ``x**alpha``."""

    family = "powerbeta"

    def __init__(self, alpha):
        _require_finite("powerbeta", alpha=alpha)
        if alpha <= 0:
            raise DomainError(f"powerbeta requires alpha > 0, got {alpha}")
        self.alpha = float(alpha)
        self.support = (0.0, 1.0)

    def _pdf(self, x):
        return self.alpha * x ** (self.alpha - 1.0)

    def _cdf(self, x):
        return x**self.alpha

    def _survival(self, x):
        return 1.0 - x**self.alpha

    def _quantile(self, u):
        return u ** (1.0 / self.alpha)

    def _spi_tail(self, p, t):
        # int_t^1 (1 - x^alpha)^p dx via the incomplete beta function
        inv = 1.0 / self.alpha
        full = inv * special.beta(inv, p + 1.0)
        if t <= 0.0:
            return full
        return full * (1.0 - special.betainc(inv, p + 1.0, t**self.alpha))

    def pdf_square_integral(self):
        if self.alpha <= 0.5:
            raise DivergenceError(
                f"squared density not integrable for powerbeta alpha={self.alpha} <= 1/2"
            )
        return self.alpha**2 / (2.0 * self.alpha - 1.0)

    def cdf_square_integral(self):
        return 1.0 / (2.0 * self.alpha + 1.0)

    def param_items(self):
        return (("alpha", self.alpha),)


_FAMILIES = {
    "exp": (Exponential, ("rate",)),
    "unif": (Uniform, ("a", "b")),
    "finite": (FiniteRange, ("a", "b")),
    "powerbeta": (PowerBeta, ("alpha",)),
}


def parse_distribution(text):
    """Build a distribution from a spec string like ``"exp:rate=1"``."""
    if not isinstance(text, str):
        raise SpecParseError(f"distribution spec must be a string, got {text!r}")
    head, sep, tail = text.strip().partition(":")
    family = head.strip().lower()
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise SpecParseError(f"unknown distribution family {family!r} (known: {known})")
    cls, names = _FAMILIES[family]
    if not sep or not tail.strip():
        raise SpecParseError(f"missing parameters in distribution spec {text!r}")
    params = {}
    for piece in tail.split(","):
        key, eq, val = piece.partition("=")
        key = key.strip()
        if not eq or key not in names:
            raise SpecParseError(
                f"bad parameter {piece.strip()!r} in {text!r}; expected {'/'.join(names)}"
            )
        if key in params:
            raise SpecParseError(f"duplicate parameter {key!r} in {text!r}")
        try:
            params[key] = float(val)
        except ValueError:
            raise SpecParseError(f"non-numeric value for {key!r} in {text!r}") from None
    missing = [n for n in names if n not in params]
    if missing:
        raise SpecParseError(f"missing parameter(s) {missing} in {text!r}")
    try:
        return cls(**params)
    except DomainError as exc:
        raise SpecParseError(str(exc)) from exc
