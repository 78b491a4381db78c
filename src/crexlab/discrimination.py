"""Survival-based discrimination between set minima and their parent law.

``d_min_vs_parent`` measures the disparity between the survival function of
the minimum of ``i`` draws, ``S(x)**i``, and the parent survival ``S``:

    ``-(1/2) int S**i (S**i - S) dx
      = -(1/2) [E(min of 2i draws) - E(min of i+1 draws)]``

``d_designs`` extends this to whole sampling plans of size ``m``,
comparing the unequal-minima plan with the independent-draw plan through
products of minimum means.

Both are the difference of two products of the design measures' kernel
``measures._measures``, on the powers ``i + 1`` and ``2i`` of the set
sizes ``i``: one set for ``d_min_vs_parent``, the sets 1..m for ``d_designs``.
"""

from __future__ import annotations

from dataclasses import dataclass

# survival_power_quad is unused here; the benchmark tracer wraps this binding
from ._quadrature import survival_power_quad  # noqa: F401
from .errors import check_count, check_real
from .measures import Method, _measures

__all__ = ["DiscriminationValue", "d_min_vs_parent", "d_designs"]


@dataclass(frozen=True)
class DiscriminationValue:
    """A discrimination value tagged with its largest set size ``i`` or ``m``."""

    value: float
    i_or_m: int
    method: Method

    def __post_init__(self):
        object.__setattr__(self, "value", check_real(self.value, "discrimination value"))

    def __float__(self):
        return self.value


def _disparity(dist, sets, method):
    """``-(1/2) [prod_i E(min of 2i) - prod_i E(min of i+1)]`` over the set sizes ``sets``."""
    powers = [[i + 1.0 for i in sets], [2.0 * i for i in sets]]
    parent, minima = _measures(dist, powers, 0.0, method)
    return DiscriminationValue(minima.value - parent.value, int(sets[-1]), parent.method)


def d_min_vs_parent(dist, i, method="closed"):
    """Disparity between the minimum-of-``i`` law and the parent law.

    Exactly ``+0.0`` at ``i = 1``, where the powers ``i + 1`` and ``2i``
    are one power, integrated once.
    """
    check_count(i, "set size")
    return _disparity(dist, [i], method)


def d_designs(dist, m, method="closed"):
    """Plan-level disparity: unequal-minima plan versus independent draws.

    ``-(1/2) [prod_{i=1..m} E(min of 2i) - prod_{i=1..m} E(min of i+1)]``
    """
    check_count(m, "design size")
    return _disparity(dist, range(1, m + 1), method)
