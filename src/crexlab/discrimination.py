"""Survival-based discrimination between set minima and their parent law.

``d_min_vs_parent`` measures the disparity between the survival function of
the minimum of ``i`` draws, ``S(x)**i``, and the parent survival ``S``:

    ``-(1/2) int S**i (S**i - S) dx
      = -(1/2) [E(min of 2i draws) - E(min of i+1 draws)]``

``d_designs`` extends this to whole sampling plans of size ``m``,
comparing the unequal-minima plan with the independent-draw plan through
products of minimum means.

Both measures are built from the minimum means ``int S**j dx``: the
closed route takes them from the family's exact survival-power integrals,
the quadrature route from one ``survival_power_quad`` call for all the
powers a measure needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _quadrature as nq
# survival_power_quad is unused here; the benchmark tracer wraps this binding
from ._quadrature import survival_power_quad  # noqa: F401
from .errors import check_count
from .measures import Method, _coerce_method, _power_products

__all__ = ["DiscriminationValue", "d_min_vs_parent", "d_designs"]


@dataclass(frozen=True)
class DiscriminationValue:
    """A discrimination value tagged with its set size (or plan size)."""

    value: float
    i_or_m: int
    method: Method

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def __float__(self):
        return self.value


def d_min_vs_parent(dist, i, method="closed"):
    """Disparity between the minimum-of-``i`` law and the parent law.

    Exactly ``+0.0`` at ``i = 1``.  The closed route uses exact minimum
    means; the quadrature route integrates ``S**(i+1)`` and ``S**(2i)`` in
    one call, once each: at ``i = 1`` they are one power.
    """
    check_count(i, "set size")
    method = _coerce_method(method)
    if method is Method.CLOSED_FORM:
        value = 0.5 * (dist.min_order_stat_mean(i + 1) - dist.min_order_stat_mean(2 * i))
    else:
        powers = list(dict.fromkeys([i + 1.0, 2.0 * i]))
        means = [mean for mean, _ in nq.survival_power_quad(dist, powers, 0.0)]
        value = 0.5 * (means[0] - means[-1])
    return DiscriminationValue(value=value, i_or_m=int(i), method=method)


def d_designs(dist, m, method="closed"):
    """Plan-level disparity: unequal-minima plan versus independent draws.

    ``-(1/2) [prod_{i=1..m} E(min of 2i) - prod_{i=1..m} E(min of i+1)]``
    """
    check_count(m, "design size")
    method = _coerce_method(method)
    sets = range(1, m + 1)
    (min_value, _), (srs_value, _) = _power_products(
        dist, [[2.0 * i for i in sets], [i + 1.0 for i in sets]], 0.0, method
    )
    return DiscriminationValue(value=min_value - srs_value, i_or_m=int(m), method=method)
