"""Cumulative residual extropy and related information measures.

All measures are nonpositive.  Each one is available through an exact
closed form (the default for the four built-in families) and through
adaptive quadrature; results carry which route produced them plus an
absolute error bound, so the two routes can be cross-checked.

CREX and all its residual and design variants are one product of
survival-power integrals,

    ``-(1/2) prod_p int_t [S(x)/S(t)]**p dx``,

evaluated by the single kernel ``_power_products``, one CrexValue per
power list by ``_measures``; the public functions, the discrimination
measures included, only choose the power lists and the age ``t``.  CREX
is the product with one power 2.  The independent draw plan (SRS) of
size ``m`` uses m powers 2; the unequal-minima plan (MinRSSU) uses the
powers ``2, 4, ..., 2m`` of its set minima.  A product rounds once per
factor, with no partial product leaving the float range, and a product
outside the normal range raises DivergenceError rather than returning
inf, nan or -0.  So does a survival-power integral that computes to 0,
which with ``S(t) > 0`` can only be an underflow.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass

from . import _quadrature as nq
from .distributions import as_distribution
from .errors import DivergenceError, DomainError, check_age, check_count, check_powers, check_real

__all__ = [
    "Method",
    "CrexValue",
    "extropy",
    "crex",
    "cumulative_extropy",
    "dynamic_crex",
    "crex_min_order_stat",
    "crex_minrssu_design",
    "crex_srs_design",
    "dynamic_crex_designs",
]

# smallest normal float: products and scales below it have lost digits
_TINY = sys.float_info.min


class Method(enum.Enum):
    """How a measure value was produced."""

    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class CrexValue:
    """A nonpositive measure value with provenance and error bound."""

    value: float
    method: Method
    abs_error_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", check_real(self.value, "measure value"))
        object.__setattr__(self, "abs_error_bound", check_real(self.abs_error_bound, "error bound"))
        if self.value > 0.0:
            raise DomainError(f"measure value must be <= 0, got {self.value}")

    def __float__(self):
        return self.value


# the text of each evaluation method, aliases included
_METHODS = {"closed": Method.CLOSED_FORM, "closed-form": Method.CLOSED_FORM,
            "quad": Method.QUADRATURE, "quadrature": Method.QUADRATURE}


def _coerce_method(method):
    if isinstance(method, Method):
        return method
    if isinstance(method, str) and method in _METHODS:
        return _METHODS[method]
    raise DomainError(f"unknown evaluation method {method!r}")


def extropy(dist, method="closed"):
    """``-(1/2) int f(x)**2 dx``; always <= 0."""
    dist, method = as_distribution(dist), _coerce_method(method)
    if method is Method.CLOSED_FORM:
        return -0.5 * dist.pdf_square_integral()
    value, _ = nq.pdf_square_quad(dist)
    return -0.5 * value


def cumulative_extropy(dist, method="closed"):
    """``-(1/2) int_0^sup F(x)**2 dx``; diverges on unbounded support."""
    dist, method = as_distribution(dist), _coerce_method(method)
    if method is Method.CLOSED_FORM:
        return -0.5 * dist.cdf_square_integral()
    value, _ = nq.cdf_square_quad(dist)
    return -0.5 * value


def _power_products(dist, power_lists, t, method):
    """(value, error bound) of ``-(1/2) prod_p int_t [S(x)/S(t)]**p dx`` per power list.

    Each distinct power is integrated once across all lists, by one
    call per route.  Each product rounds once per factor, as
    ``math.prod`` does wherever its partial products are normal, and never
    over- or underflows midway.  A scale ``S(t)**p`` or a
    product outside the normal float range raises DivergenceError, and so
    does an integral that computes to 0: with ``S(t) > 0`` that is an
    underflow or an interval the route cannot resolve, never the value.
    The error bound is ``|value| * sum_p err_p / I_p`` over the factors.
    The age is checked here by :func:`check_age`, the rule of
    ``mean_residual_life`` (``survival_power_integral`` clamps its lower
    limit at 0 instead), and the powers by :func:`check_powers`, once,
    ahead of either route; the closed route then takes each family tail
    ``_spi_tail`` from the head and start of ``Distribution._head_start``.
    """
    t = check_age(t)
    # age 0 is the unconditioned measure
    s_t = dist.survival(t) if t > 0.0 else 1.0
    if s_t <= 0.0:
        raise DomainError(f"measure undefined: survival({t}) = 0")
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(power_lists)))
    check_powers(distinct)
    scales = [s_t**p for p in distinct]
    # integrate up to the first power whose scale underflows: its integration errors come first
    bad = next((k for k, scale in enumerate(scales) if scale < _TINY), len(distinct))
    run = distinct[: bad + 1]
    if method is Method.CLOSED_FORM:
        # S(t) > 0, so t lies below the support end
        head, start = dist._head_start(t)
        integrals = [(head + dist._spi_tail(p, start), 0.0) for p in run]
    else:
        integrals = nq.survival_power_quad(dist, run, t)
    if bad < len(distinct):
        raise DivergenceError(f"survival({t})**{distinct[bad]:g} underflows")
    split_of, rel_err_of = {}, {}
    for p, scale, (integral, err) in zip(distinct, scales, integrals):
        if integral == 0.0:
            # S(t) > 0 makes every integral from t positive: a zero underflowed or went unresolved
            raise DivergenceError(f"integral of S(x)**{p!r} from t={t!r} underflows to 0")
        # each factor as its mantissa in [0.5, 1) and binary exponent, split once
        split_of[p] = math.frexp(integral / scale)
        rel_err_of[p] = err / integral
    return [_product(powers, split_of, rel_err_of) for powers in power_lists]


def _product(powers, split_of, rel_err_of):
    # the product is mant * 2**exp: a step multiplies two mantissas in [0.5, 1),
    # which rounds as the product at its own exponent does and stays normal
    mant, exp = 1.0, 0
    for p in powers:
        factor, factor_exp = split_of[p]
        mant, step_exp = math.frexp(mant * factor)
        exp += factor_exp + step_exp
    prod = math.ldexp(mant, exp) if exp <= sys.float_info.max_exp else math.inf
    if not _TINY <= prod < math.inf:
        what = "overflows" if prod > 1.0 else "underflows"
        raise DivergenceError(f"product of {len(powers)} survival-power integrals {what}")
    value = -0.5 * prod
    return value, -value * sum(map(rel_err_of.__getitem__, powers))


def _measures(dist, power_lists, t, method):
    """One CrexValue of :func:`_power_products` per power list; ``dist`` is a law or its text."""
    dist, method = as_distribution(dist), _coerce_method(method)
    return [CrexValue(value, method, err)
            for value, err in _power_products(dist, power_lists, t, method)]


def crex(dist, method="closed"):
    """Cumulative residual extropy ``-(1/2) int_0^inf S(x)**2 dx``."""
    return _measures(dist, [[2.0]], 0.0, method)[0]


def dynamic_crex(dist, t, method="closed"):
    """Residual-lifetime measure ``-(1/2) int_t [S(x)/S(t)]**2 dx``.

    Requires ``S(t) > 0``.  Bounded below by ``-mrl(t) / (2 S(t))``.
    """
    return _measures(dist, [[2.0]], t, method)[0]


def crex_min_order_stat(dist, i, method="closed"):
    """Measure of the minimum of ``i`` draws: ``-(1/2) int S(x)**(2i) dx``."""
    check_count(i, "set size")
    return _measures(dist, [[2.0 * i]], 0.0, method)[0]


def crex_minrssu_design(dist, m, method="closed"):
    """Plan-level measure for unequal minima sets of sizes ``1..m``.

    ``-(1/2) prod_{i=1..m} int_0^inf S(x)**(2i) dx``
    """
    check_count(m, "design size")
    return _measures(dist, [[2.0 * i for i in range(1, m + 1)]], 0.0, method)[0]


def crex_srs_design(dist, m, method="closed"):
    """Plan-level measure for ``m`` independent draws.

    ``-(1/2) [int_0^inf S(x)**2 dx]**m``
    """
    check_count(m, "design size")
    return _measures(dist, [[2.0] * m], 0.0, method)[0]


def dynamic_crex_designs(dist, m, t, method="closed"):
    """Residual-lifetime design measures beyond age ``t``.

    Returns the pair ``(minrssu_value, srs_value)`` where::

        minrssu = -(1/2) prod_{i=1..m} int_t [S(x)/S(t)]**(2i) dx
        srs     = -(1/2) [int_t [S(x)/S(t)]**2 dx]**m
    """
    check_count(m, "design size")
    return tuple(_measures(dist, [[2.0 * i for i in range(1, m + 1)], [2.0] * m], t, method))
