"""Numerical integration backends for the measure and variance functionals.

One-dimensional integrals use adaptive Gauss-Kronrod refinement
(scipy's QUADPACK) at absolute tolerance 1e-10; an integral QUADPACK
reports as not converged raises DivergenceError.  Unbounded supports are
truncated at the ``1 - 1e-12`` quantile and the tail remainder is bounded
analytically: for ``int_U^inf S**p`` the tail is at most
``S(U)**(p-1) * int_U^inf S = mrl(U) * S(U)**p``.

A measure call makes one ``survival_power_quad`` call for all its
distinct powers.  QUADPACK bisects the same interval for every power, so
the call evaluates S through one memo, once per distinct node, and works
out the support, start, truncation point and tail factor once.

Double integrals over covariance-style kernels are evaluated on a tensor
Gauss-Legendre grid.  The kernels have a derivative kink along ``x == y``
(through ``F(min(x, y))``), so the square is split into the two triangles
where the integrand is smooth; a half-resolution pass serves as the
refinement check.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DivergenceError, DomainError

TAIL_MASS = 1e-12
ABS_TOL = 1e-10
DOUBLE_QUAD_NODES = 256

_leggauss_cache = {}


def _leggauss(n):
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    return _leggauss_cache[n]


def truncation_point(dist):
    """Upper integration limit: support end, or the 1 - 1e-12 quantile."""
    hi = dist.support[1]
    if math.isfinite(hi):
        return hi
    return dist.quantile(1.0 - TAIL_MASS)


def _quad(fn, lo, hi):
    """QUADPACK on ``[lo, hi]``; raises DivergenceError unless it converged."""
    # imported on first use: scipy.integrate is most of the package's import time
    from scipy.integrate import quad

    value, err, _, *report = quad(
        fn, lo, hi, epsabs=ABS_TOL, epsrel=ABS_TOL, limit=200, full_output=1
    )
    if report:
        reason = " ".join(report[0].split(".")[0].split())
        raise DivergenceError(f"quadrature did not converge on [{lo}, {hi}]: {reason}")
    if not math.isfinite(value):
        raise DivergenceError(f"quadrature diverged on [{lo}, {hi}]")
    return value, err


def survival_power_quad(dist, powers, lower):
    """One (value, error_bound) of ``int_t^inf S(x)**p dx`` per ``p`` in ``powers``."""
    lo_sup, hi_sup = dist.support
    t = max(float(lower), 0.0)
    if t >= hi_sup:
        return [(0.0, 0.0)] * len(powers)
    head = max(0.0, lo_sup - t)
    start = max(t, lo_sup)
    upper = truncation_point(dist)
    if upper <= start:
        raise DomainError(
            f"quadrature undefined beyond the 1 - {TAIL_MASS:g} quantile {upper:g}: "
            f"lower limit {t:g}; use the closed route"
        )
    survival = functools.cache(dist.survival)
    # the tail beyond ``upper`` is at most mrl(U) * S(U)**p; zero on a bounded support
    s_u = mrl_u = 0.0
    if not math.isfinite(hi_sup):
        s_u, mrl_u = survival(upper), dist.mean_residual_life(upper)
    integrals = [_quad(lambda x, p=p: survival(x) ** p, start, upper) for p in powers]
    return [(head + v, err + mrl_u * s_u**p) for p, (v, err) in zip(powers, integrals)]


def pdf_square_quad(dist):
    """``int f(x)**2 dx`` by quadrature; returns (value, error_bound)."""
    lo_sup, hi_sup = dist.support
    upper = truncation_point(dist)
    value, err = _quad(lambda x: dist.pdf(x) ** 2, lo_sup, upper)
    tail = 0.0
    if not math.isfinite(hi_sup):
        # density decreasing beyond the truncation point for these families
        tail = dist.pdf(upper) * TAIL_MASS
    return value, err + tail


def cdf_square_quad(dist):
    """``int_0^sup F(x)**2 dx`` over a bounded support; returns (value, error)."""
    lo_sup, hi_sup = dist.support
    if not math.isfinite(hi_sup):
        raise DivergenceError("cdf-squared integral diverges on unbounded support")
    lo = max(0.0, lo_sup)
    return _quad(lambda x: dist.cdf(x) ** 2, lo, hi_sup)


def min_vs_parent_quad(dist, i):
    """``int_0^inf S(x)**i (S(x) - S(x)**i) dx``, nonnegative; returns (value, error)."""
    # the integrand vanishes below the support, where both survivals are 1
    lo = max(0.0, dist.support[0])

    def integrand(x):
        s = dist.survival(x)
        return s**i * (s - s**i)

    return _quad(integrand, lo, truncation_point(dist))


def double_quad_kinked(weight_fn, kernel_fn, lo, hi, nodes=DOUBLE_QUAD_NODES):
    """``int int w(x) w(y) k(x, y) dx dy`` for kernels kinked along x == y.

    Exploits symmetry of the integrand in (x, y): integrates twice the
    lower triangle x < y, mapped to a rectangle so Gauss-Legendre sees a
    smooth integrand.  Returns (value, refinement_error_estimate).
    """

    def pass_at(n):
        z, w = _leggauss(n)
        x = 0.5 * (z + 1.0) * (hi - lo) + lo
        wx = 0.5 * (hi - lo) * w
        t = 0.5 * (z + 1.0)
        wt = 0.5 * w
        X = x[:, None]
        Y = X + t[None, :] * (hi - X)
        M = weight_fn(X) * weight_fn(Y) * kernel_fn(X, Y)
        inner = M @ wt
        return 2.0 * float(np.sum(wx * (hi - x) * inner))

    coarse = pass_at(nodes // 2)
    fine = pass_at(nodes)
    err = abs(fine - coarse)
    if not math.isfinite(fine):
        raise DivergenceError("double quadrature diverged")
    return fine, err
