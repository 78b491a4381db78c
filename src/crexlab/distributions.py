"""Parametric lifetime distributions with exact analytic kernels.

Four families are provided, each with closed-form pdf, cdf, survival,
quantile, inverse-transform sampling, and the survival-power integrals

    ``int_t^inf  S(x)**p dx``        (``survival_power_integral``)

that drive every cumulative-residual measure in :mod:`crexlab.measures`.
They are elementary functions, apart from powerbeta's: from 0 at an
integer power up to ``_EXACT_POWER_CAP`` it is a ratio of Python
integers, rounded once, and elsewhere the (incomplete) beta function,
the one use of ``scipy.special``, imported on first use.

Distributions can be built from a compact spec string (used by the CLI and
by config files).  Distribution and estimator specs share one
``head:key=value,...`` grammar, split by :func:`crexlab.errors.split_spec`;
for distributions it reads::

    spec       := family ":" param ("," param)*
    param      := name "=" float
    family     := "exp"       with param  rate  (rate > 0)
                | "unif"      with params a, b  (0 <= a < b)
                | "finite"    with params a, b  (a > 0, b > 0)
                | "powerbeta" with param  alpha (alpha > 0)

Whitespace around the family, names and values is ignored, and the
family is matched in any case.  Every parameter must be given exactly
once (a repeated name is rejected) and must be finite.  Examples:
``exp:rate=1``, ``unif:a=0,b=1``, ``finite:a=2,b=3``, ``powerbeta:alpha=2``.
Every function of the package that takes a law takes a Distribution or
its spec text, through :func:`as_distribution`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._quadrature import TAIL_MASS
from .errors import DomainError, DivergenceError, SpecParseError, allocating, check_count
from .errors import check_age, split_spec
from .errors import check_array, check_generator, check_integer, check_powers, check_real, shown

__all__ = [
    "Distribution",
    "Exponential",
    "Uniform",
    "FiniteRange",
    "PowerBeta",
    "parse_distribution",
    "as_distribution",
]


# the largest integer power whose powerbeta integral from 0 is computed exactly;
# the cost of the exact product grows with its square
_EXACT_POWER_CAP = 64


def _on_support(below, above, ends_inside=False):
    """Evaluate a kernel ``func(self, x)`` inside the support, constants outside.

    This is the checked evaluator, for points from outside the package.
    Left of the support the method returns ``below``, right of it
    ``above``; the support ends count as inside only when ``ends_inside``.
    ``func`` sees the inside points only, as one array.  A scalar is a
    one-element array on the same route and comes back as a float.  An
    argument that is not real numbers, or holds a nan, raises
    DomainError.  Points the package makes inside the support, such as
    the quadrature's nodes, go to the kernel itself.
    """

    def decorate(func):
        @functools.wraps(func)
        def method(self, x):
            lo, hi = self.support
            arr = check_array(x, f"{func.__name__} argument")
            vals = np.atleast_1d(arr)
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


def _number_text(value):
    """``value`` as ``:g`` text when that reads back as ``value``, else as its repr.

    A law's spec text and digest come from this text, so two laws that
    differ never share them.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _require_finite(family, **params):
    for name, value in params.items():
        if not math.isfinite(check_real(value, f"{family} parameter {name}")):
            raise DomainError(f"{family} parameter {name} must be finite, got {shown(value)}")


class Distribution:
    """Common interface of the parametric families.

    Subclasses fill in the analytic kernels; everything here is pure and
    safe to call concurrently.  Sampling consumes uniforms from a caller
    owned ``numpy.random.Generator`` via the inverse transform, so a given
    stream state fully determines the output.

    An instance derives its parameter text and the quadrature's tail
    constants (the truncation point, and S and the mean residual life
    there) once, on first use, and keeps them: an instance must not be
    mutated after construction.
    """

    family = "base"
    # the parameter names, in spec order; each is an attribute of the instance
    params = ()
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

    def _log_survival_quantile(self, ell):
        """The point ``x`` where ``log S(x) = ell``, for ``ell <= 0``: the draw kernel of set minima.

        A set-i MinRSSU value is the least of i draws, whose survival is
        ``S**i``: one draw of it is this kernel at ``log1p(-U) / i`` for a
        uniform U in ``[0, 1)``.  Every family maps such an ``ell`` to a
        finite point of its support, and ``-0.0``, the image of ``U = 0``,
        to the support start, never to ``-0.0``.
        """
        raise NotImplementedError

    def _require_finite_draws(self):
        """Raise DomainError when ``_quantile`` overflows below 1, at construction.

        A draw reaches the quantile at the largest float below 1; where
        that is inf, every draw past some u is inf, with a numpy warning.
        """
        with np.errstate(over="ignore"):
            top = self._quantile(np.array([1.0 - 2.0**-53]))[0]
        if math.isinf(top):
            raise DomainError(f"{self.spec_string()} has quantile inf at the largest float below 1")

    # -- public evaluations ---------------------------------------------

    @_on_support(below=0.0, above=0.0, ends_inside=True)
    def pdf(self, x):
        """Density; zero outside the support, inf at an end where it is unbounded."""
        # an end of an unbounded density is 0.0 to a negative power there
        with np.errstate(divide="ignore"):
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
        """Generalized inverse ``inf{x : cdf(x) >= u}`` for u in [0, 1].

        1 maps to the support end and every other value to the kernel,
        which maps 0 to the support start.  A nan, or a value outside
        [0, 1], raises DomainError.  A scalar comes back as a float.
        """
        arr = check_array(u, "quantile argument")
        vals = np.atleast_1d(arr)
        # a nan fails both comparisons
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise DomainError(f"quantile argument outside [0, 1]: {u!r}")
        top = vals == 1.0
        # the kernel never sees 1, where the exponential's divides by zero;
        # + 0.0 turns -0.0 into 0.0, which the kernels map to the support start
        out = self._quantile(np.where(top, 0.0, vals) + 0.0)
        out[top] = self.support[1]
        if arr.ndim == 0:
            return float(out[0])
        return out

    def sample(self, rng, count):
        """Draw ``count`` i.i.d. values by inverse transform on ``rng``.

        ``count`` is an integer >= 0; a count too large to allocate raises
        DomainError (:func:`~crexlab.errors.allocating`).  A drawn uniform
        lies in [0, 1), so it goes to the kernel ``_quantile`` unchecked.
        """
        check_generator(rng)
        count = check_integer(count, "sample count")
        if count < 0:
            raise DomainError(f"sample count must be >= 0, got {shown(count)}")
        with allocating(count, "sample"):
            return self._quantile(rng.random(count))

    # -- moments and survival-power integrals ---------------------------

    def survival_power_integral(self, p, lower=0.0):
        """Exact ``int_t^inf S(x)**p dx`` with ``t = max(lower, 0)``.

        The integrand is 1 below the support start, so that region
        contributes its length.  Subclasses implement `_spi_tail` for the
        part inside the support.
        """
        p = check_real(p, "survival power")
        check_powers([p])
        t = check_real(lower, "survival-power lower limit")
        if math.isnan(t):
            raise DomainError("survival-power lower limit is nan")
        head_start = self._head_start(max(t, 0.0))
        if head_start is None:
            return 0.0
        head, start = head_start
        return head + self._spi_tail(p, start)

    def _head_start(self, t):
        """``(head, start)`` of ``int_t^inf S(x)**p dx`` at an age ``t >= 0``; None when ``t >= sup``.

        ``head`` is the length of ``[t, lo)``, where S is 1, and the
        integral from ``start = max(t, lo)`` on is `_spi_tail`'s or the
        quadrature's.
        """
        lo, hi = self.support
        if t >= hi:
            return None
        return max(0.0, lo - t), max(t, lo)

    def _spi_tail(self, p, t):
        raise NotImplementedError

    def mean(self):
        """E[X]; equals ``survival_power_integral(1)`` on nonnegative support."""
        return self.survival_power_integral(1.0)

    def min_order_stat_mean(self, j):
        """E of the minimum of ``j`` fresh draws, ``int_0^inf S(x)**j dx``."""
        check_count(j, "set size")
        return self.survival_power_integral(float(j))

    def mean_residual_life(self, t):
        """Expected remaining lifetime beyond age ``t``, a real number >= 0."""
        s = self.survival(check_age(t))
        if s <= 0.0:
            raise DomainError(f"mean residual life undefined: survival({t}) = 0")
        return self.survival_power_integral(1.0, lower=t) / s

    # -- the quadrature's tail constants --------------------------------

    @functools.cached_property
    def _truncation_point(self):
        """The support end, or the ``1 - TAIL_MASS`` quantile on an unbounded support."""
        hi = self.support[1]
        return hi if math.isfinite(hi) else self.quantile(1.0 - TAIL_MASS)

    @functools.cached_property
    def _tail_factors(self):
        """``(S(U), mrl(U))`` at the truncation point U; zeros on a bounded support."""
        if math.isfinite(self.support[1]):
            return 0.0, 0.0
        upper = self._truncation_point
        return self.survival(upper), self.mean_residual_life(upper)

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
        return tuple((name, getattr(self, name)) for name in self.params)

    def param_text(self):
        return self._param_text

    @functools.cached_property
    def _param_text(self):
        return ",".join(f"{k}={_number_text(v)}" for k, v in self.param_items())

    def spec_string(self):
        return f"{self.family}:{self.param_text()}"

    def __repr__(self):
        args = ", ".join(f"{k}={_number_text(v)}" for k, v in self.param_items())
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
    params = ("rate",)

    def __init__(self, rate):
        _require_finite("exponential", rate=rate)
        if rate <= 0:
            raise DomainError(f"exponential rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.support = (0.0, math.inf)
        self._require_finite_draws()

    def _pdf(self, x):
        return self.rate * np.exp(-self.rate * x)

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def _survival(self, x):
        return np.exp(-self.rate * x)

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate

    def _log_survival_quantile(self, ell):
        return ell / -self.rate

    def _spi_tail(self, p, t):
        return math.exp(-self.rate * p * t) / (self.rate * p)

    def mean_residual_life(self, t):
        check_age(t)
        # memoryless: constant in t
        return 1.0 / self.rate

    def pdf_square_integral(self):
        return self.rate / 2.0

    def cdf_square_integral(self):
        raise DivergenceError(
            "cumulative extropy diverges on unbounded support (exp family)"
        )


class Uniform(Distribution):
    """Uniform on ``[a, b]``."""

    family = "unif"
    params = ("a", "b")

    def __init__(self, a, b):
        _require_finite("uniform", a=a, b=b)
        if not b > a:
            raise DomainError(f"uniform requires b > a, got a={a}, b={b}")
        if a < 0:
            raise DomainError(f"uniform lifetime support must start at a >= 0, got a={a}")
        # + 0.0 turns -0.0 into 0.0: equal laws share their text and streams
        self.a = float(a) + 0.0
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

    def _log_survival_quantile(self, ell):
        return self.a - np.expm1(ell) * (self.b - self.a)

    def _spi_tail(self, p, t):
        width = self.b - self.a
        frac = (self.b - t) / width
        return width / (p + 1.0) * frac ** (p + 1.0)

    def pdf_square_integral(self):
        return 1.0 / (self.b - self.a)

    def cdf_square_integral(self):
        # int_a^b ((x - a)/width)^2 dx
        return (self.b - self.a) / 3.0


class FiniteRange(Distribution):
    """Finite-range lifetime with survival ``(1 - a*x)**b`` on ``0 < x < 1/a``."""

    family = "finite"
    params = ("a", "b")

    def __init__(self, a, b):
        _require_finite("finite-range", a=a, b=b)
        if a <= 0 or b <= 0:
            raise DomainError(f"finite-range requires a > 0 and b > 0, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self.support = (0.0, 1.0 / self.a)
        self._require_finite_draws()

    def _pdf(self, x):
        return self.a * self.b * (1.0 - self.a * x) ** (self.b - 1.0)

    def _cdf(self, x):
        return 1.0 - (1.0 - self.a * x) ** self.b

    def _survival(self, x):
        return (1.0 - self.a * x) ** self.b

    def _quantile(self, u):
        return (1.0 - (1.0 - u) ** (1.0 / self.b)) / self.a

    def _log_survival_quantile(self, ell):
        # a shape b below about 2e-307 takes ell / b to -inf, where expm1 is
        # -1: the support end, the limit of the law
        with np.errstate(over="ignore"):
            return -np.expm1(ell / self.b) / self.a

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


class PowerBeta(Distribution):
    """Beta(alpha, 1) on (0, 1): cdf ``x**alpha``."""

    family = "powerbeta"
    params = ("alpha",)

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

    def _log_survival_quantile(self, ell):
        return (-np.expm1(ell)) ** (1.0 / self.alpha)

    def _spi_tail(self, p, t):
        # int_t^1 (1 - x^alpha)^p dx.  From 0 at an integer power p it is
        # p! / prod_{k=1..p} (k + 1/alpha); with the float 1/alpha = num/den
        # that is p! den**p / prod (k den + num), a ratio of ints that true
        # division rounds once.  scipy's beta is off by up to about 200 ulps.
        # Past the cap the ints cost too much, and an alpha below about
        # 5.6e-309 has no finite 1/alpha
        inv = 1.0 / self.alpha
        if t <= 0.0 and p <= _EXACT_POWER_CAP and p.is_integer() and math.isfinite(inv):
            num, den = inv.as_integer_ratio()
            p = int(p)
            return math.factorial(p) * den**p / math.prod(range(den + num, p * den + num + 1, den))
        # elsewhere the (incomplete) beta function; scipy.special is imported
        # on first use, to keep the import fast.  At t > 0 the integer-power
        # recurrence would lose digits like S(t)**-p
        from scipy import special

        full = inv * special.beta(inv, p + 1.0)
        if t <= 0.0:
            return full
        # the complement I_{1-u}(p+1, 1/alpha) of I_u(1/alpha, p+1), not 1 - I_u: that
        # difference cancels to a few digits, or to 0.0, once S(t)**p is small
        return full * special.betainc(p + 1.0, inv, 1.0 - t**self.alpha)

    def pdf_square_integral(self):
        if self.alpha <= 0.5:
            raise DivergenceError(
                f"squared density not integrable for powerbeta alpha={self.alpha} <= 1/2"
            )
        return self.alpha**2 / (2.0 * self.alpha - 1.0)

    def cdf_square_integral(self):
        return 1.0 / (2.0 * self.alpha + 1.0)


_FAMILIES = {cls.family: cls for cls in (Exponential, Uniform, FiniteRange, PowerBeta)}


def parse_distribution(text):
    """Build a distribution from a spec string like ``"exp:rate=1"``."""
    family, options = split_spec(text, "distribution")
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise SpecParseError(f"unknown distribution family {family!r} (known: {known})")
    cls = _FAMILIES[family]
    if not options:
        raise SpecParseError(f"missing parameters in distribution spec {text!r}")
    values = {}
    for key, val in options.items():
        if key not in cls.params:
            raise SpecParseError(
                f"bad parameter {key!r} in {text!r}; expected {'/'.join(cls.params)}"
            )
        try:
            values[key] = float(val)
        except ValueError:
            raise SpecParseError(f"non-numeric value for {key!r} in {text!r}") from None
    missing = [n for n in cls.params if n not in values]
    if missing:
        raise SpecParseError(f"missing parameter(s) {missing} in {text!r}")
    try:
        return cls(**values)
    except DomainError as exc:
        raise SpecParseError(str(exc)) from exc


def as_distribution(law):
    """``law`` itself when it is a Distribution, else the law its spec text names."""
    return law if isinstance(law, Distribution) else parse_distribution(law)
