"""Numerical integration backends for the measure and variance functionals.

One-dimensional integrals use an adaptive 21-point Gauss-Kronrod rule
written in numpy, on the nodes and weights of QUADPACK's qk21 (Piessens et
al., 1983).  The integrand is a vectorized function that returns one row
per integral, so a call integrates several integrands over the same
intervals: each round evaluates the integrand once, in one array call, on
the 21 nodes of every interval still open.  The first round evaluates the
four quarters of the range, the intervals a failing whole-range round
would have gone on to; their ends are computed on floats.  A round in
which every interval passes returns its own estimate, the one its
tolerance was taken from.  The tolerance of a row is
``tol = ABS_TOL * max(1, |estimate|)``, absolute and relative 1e-10.  An
interval is kept when, in every row, ``|K - G|`` (21-point Kronrod minus
embedded 10-point Gauss) is within the interval's share
``tol * width / (hi - lo)``, or within the roundoff floor
``50 * eps * int |f|`` on it.  Otherwise it is bisected twice, into four
quarters, for the next round: two bisection levels per round halve the
rounds, and so the per-round numpy overhead, at about the same number of
intervals.  The error bound of an interval is the larger of its
``|K - G|`` and its roundoff floor.

Refinement stops at more than ``MAX_INTERVALS`` evaluated intervals
(QUADPACK's ``limit`` counts the final partition instead), or at an
interval too narrow to bisect: one whose ends are within ``100 eps`` of
its midpoint, QUADPACK's limit.  The second check holds for the first
split into quarters too.  The call is then run again with one bisection
per round, stopped the same way, from the whole range: the extrapolation
needs an estimate per bisection level, the whole range's included.
That run ends as qags does near an integrable endpoint singularity:
Wynn's epsilon algorithm extrapolates the sequence of its whole-range
estimates, and the result counts when its error estimate, plus the
bounds of the intervals kept, is within ``tol`` and it passes qags's
test against a divergent sequence.  Failing that, the last estimate
counts when the error bounds of all intervals sum to at most ``tol``,
QUADPACK's own test.  Otherwise, and at any non-finite integrand value,
the call raises DivergenceError.  The extrapolation's error is an
estimate, not a bound, as in QUADPACK.

Unbounded supports are truncated at the ``1 - 1e-12`` quantile and the
tail remainder is bounded analytically: for ``int_U^inf S**p`` the tail is
at most ``S(U)**(p-1) * int_U^inf S = mrl(U) * S(U)**p``.  These tail
constants, the truncation point U, ``S(U)`` and ``mrl(U)``, are worked out
once per law instance, on its first quadrature call, not once per call.

A measure call makes one ``survival_power_quad`` call for all its
distinct powers: the rows are the powers of S, so S is evaluated once per
node, and the support's head and start are worked out once, by the rule
``Distribution.survival_power_integral`` uses.  Every survival-power
functional goes through it, both discrimination measures included; only
the squared density and the squared cdf have integrands of their own.

The three integrands call the family kernels ``_survival``, ``_pdf`` and
``_cdf`` on the nodes, not the checked ``survival``, ``pdf`` and ``cdf``:
every gk21 node lies strictly inside its interval, and so inside
``[start, U]``, which the support contains, and there each kernel is the
checked evaluator's value.  The checked evaluators are for points from
outside the package.

The limit variances of the L-statistic are double integrals, kinked along
``x == y`` and symmetric in (x, y): twice the triangle ``y >= x`` is mapped
to a square, ``y = x + v (hi - x)``, and integrated on a tensor grid.
There, with ``sx = S(x)``, ``sy = S(y)`` and ``P(u) = (1/m) sum_{i<=m}
u**i``, the integrand is smooth:

    P(sx) P(sy) [P(sy) - P(sx sy)] = P(sx)/m**2 sum_{i,b<=m} (1 - sx**i) sy**(b+i)

SRS is the case m = 1, ``sx (1 - sx) sy**2``.  S is the checked
``survival``: points of the y-grid round to ``hi`` itself, where a
family kernel need not be 0, as the checked evaluator is.  S is
evaluated once on the x-nodes and once on the grid, each ``sy**k``, k =
2..2m, is reduced at once to its row integrals, and the rest are sums of
n-vectors.  Each axis, x
on ``[lo, hi]`` and v on [0, 1], is a Gauss-Legendre rule mapped through
``g(u) = u**3 / (u**3 + (1 - u)**3)``, whose nodes crowd at both ends:
there S may have an infinite slope (``powerbeta`` with alpha < 1 at 0,
``finite`` with b < 1 at 1/a), which a uniform grid resolves slowly.  The
grid has ``DOUBLE_QUAD_NODES`` = 96 nodes per axis, and a pass at
``DOUBLE_QUAD_CHECK_NODES`` = 80 gives the refinement error ``|fine -
coarse|``.  The callers get the fine value, or DivergenceError where the
refinement error exceeds ``DOUBLE_QUAD_RTOL`` = 1e-8 of it, relative.

The check pass is close to the fine one so that the difference estimates
the error of the value returned, not of a much coarser pass.  Where S is
smooth the error falls geometrically with the nodes and the difference is
about the 80-node error, an upper bound; at an end where S has an infinite
slope it falls algebraically, about as ``n**-6`` for ``powerbeta`` with
alpha = 0.1, and the difference is still about twice the 96-node error
at m <= 5.  A pass at half the nodes would overstate the error by orders
of magnitude at large m, where ``S(y)**(2m)`` is a narrow peak at
``y = x``: at m = 100 on ``exp`` the 48-node pass is off by 4e-7
relative, the 96-node one by 4e-15.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DivergenceError, DomainError

TAIL_MASS = 1e-12
ABS_TOL = 1e-10
MAX_INTERVALS = 200
DOUBLE_QUAD_NODES = 96
DOUBLE_QUAD_CHECK_NODES = 80
DOUBLE_QUAD_RTOL = 1e-8

# qk21: the nonnegative Kronrod abscissae of [-1, 1] in decreasing order and
# their weights; every second one, from the second, is a node of the
# embedded 10-point Gauss rule, whose weights are _WG
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077589488365410,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the 21 nodes on [-1, 1] in increasing order, with their two weight rows
GK21_NODES = np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
KRONROD_WEIGHTS = np.array(_WGK[:-1] + tuple(reversed(_WGK)))
GAUSS_WEIGHTS = np.zeros(21)
GAUSS_WEIGHTS[1:10:2] = _WG
GAUSS_WEIGHTS[11:20:2] = _WG[::-1]
# one product with these rows gives K and K - G
_RULES = np.stack([KRONROD_WEIGHTS, KRONROD_WEIGHTS - GAUSS_WEIGHTS])
_FLOOR_WEIGHTS = 50.0 * np.finfo(float).eps * KRONROD_WEIGHTS
# QUADPACK's limit for a bisection: an interval whose ends are within 100 eps
# of its midpoint has nodes that round to a few floats
_NARROW = 1.0 + 100.0 * float(np.finfo(float).eps)
_UNDERFLOW = 1000.0 * float(np.finfo(float).tiny)


@functools.cache
def _graded(n):
    """The ``n``-point Gauss-Legendre rule on [0, 1] mapped through ``g``.

    ``g(u) = u**3 / (u**3 + (1 - u)**3)`` crowds the nodes at both ends,
    where ``g'(u) = 3 u**2 (1 - u)**2 / (u**3 + (1 - u)**3)**2`` vanishes.
    Returns the nodes ``g(u)`` and the weights ``w g'(u)``.
    """
    z, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (z + 1.0)
    near, far = u**3, (1.0 - u) ** 3
    return near / (near + far), 1.5 * w * (u * (1.0 - u)) ** 2 / (near + far) ** 2


def truncation_point(dist):
    """Upper integration limit: support end, or the 1 - 1e-12 quantile; kept by the law instance."""
    return dist._truncation_point


def _not_converged(lo, hi, reason):
    return DivergenceError(f"quadrature did not converge on [{lo}, {hi}]: {reason}")


def _split(a, mid, b, quarters):
    """The quarters, or halves, of the intervals ``[a, b]`` of midpoints ``mid``: their (a, b)."""
    if quarters:
        edges = np.array([a, 0.5 * (a + mid), mid, 0.5 * (mid + b), b])
    else:
        edges = np.array([a, mid, b])
    return edges[:-1].ravel(), edges[1:].ravel()


def _too_narrow(a, mid, b):
    """Whether ``[a, b]``, of midpoint ``mid``, is too narrow to bisect; elementwise on arrays."""
    limit = _NARROW * (abs(mid) + _UNDERFLOW)
    return (abs(a) <= limit) & (abs(b) <= limit)


def gk21(fn, lo, hi, quarters=True):
    """Adaptive Gauss-Kronrod on ``[lo, hi]``: arrays (values, error bounds), one per row.

    ``fn`` maps a 1-D array of points to an array of shape ``(rows,
    points)``, or ``(points,)`` for one row.  A failing interval is split
    into quarters, or halves with ``quarters=False``.  The first round of
    the run by quarters evaluates the range's four quarters, whose ends
    are computed on floats.  A round in which every interval passes
    returns its own estimate.  Raises DivergenceError unless every row
    converged to finite values.
    """
    # an interval's share of tol, per unit of its half-width
    share = 2.0 / (hi - lo)
    pieces = 4 if quarters else 2
    value = error = 0.0
    if quarters:
        # a failing whole-range round would go on to the quarters; the halves
        # run starts from the whole range, whose estimate the extrapolation needs
        mid = 0.5 * (lo + hi)
        if _too_narrow(lo, mid, hi):
            return gk21(fn, lo, hi, quarters=False)
        a, b = _split(lo, mid, hi, quarters)
    else:
        a, b = np.array([lo], dtype=float), np.array([hi], dtype=float)
    evaluated = a.size
    # the whole-range estimate of every round of the halves run, for the extrapolation
    estimates = []
    with np.errstate(all="ignore"):
        while True:
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            f = fn((mid[:, None] + half[:, None] * GK21_NODES).ravel()).reshape(-1, 21)
            # per row and interval, per unit of half-width: K, K - G and the roundoff floor
            kronrod, diff = (_RULES @ f.T).reshape(2, -1, a.size)
            floor = (np.abs(f) @ _FLOOR_WEIGHTS).reshape(-1, a.size)
            diff = np.abs(diff)
            estimate = value + kronrod @ half
            # every Kronrod weight is positive: a non-finite node value makes a row's K non-finite
            if not np.isfinite(estimate).all():
                raise _not_converged(lo, hi, "non-finite integrand value")
            tol = ABS_TOL * np.maximum(1.0, np.abs(estimate))
            bound = np.maximum(diff, floor)
            # an interval within its share, or whose |K - G| is roundoff, is kept
            done = (diff <= np.maximum(share * tol[:, None], floor)).all(axis=0)
            if done.all():
                return estimate, error + bound @ half
            if not quarters:
                estimates.append(estimate)
            weights = half * done
            value = value + kronrod @ weights
            error = error + bound @ weights
            keep = ~done
            a, b, mid, half = a[keep], b[keep], mid[keep], half[keep]
            evaluated += pieces * a.size
            if evaluated > MAX_INTERVALS:
                stuck = f"more than {MAX_INTERVALS} intervals needed"
            elif _too_narrow(a, mid, b).any():
                stuck = "interval too narrow to bisect"
            else:
                a, b = _split(a, mid, b, quarters)
                continue
            if quarters:
                # the extrapolation needs an estimate per bisection level: with
                # one per two, rounding near an end away from 0 takes over first
                return gk21(fn, lo, hi, quarters=False)
            # as qags does, extrapolate the estimates of the rounds: near an
            # integrable singularity at an end they tend to the integral geometrically
            limit, spread = np.array([_wynn_epsilon(row) for row in np.transpose(estimates)]).T
            total = error + spread
            # qags's divergence test: a limit far from the last estimate, or of
            # the other sign, is the anti-limit of a divergent sequence
            ratio = limit / estimate
            plausible = (limit == estimate) | ((0.01 <= ratio) & (ratio <= 100.0))
            if (plausible & (total <= ABS_TOL * np.maximum(1.0, np.abs(limit)))).all():
                return limit, total
            # QUADPACK's own stop still holds when the error bounds of all the
            # intervals sum to at most tol
            total = error + bound[:, keep] @ half
            if (total <= tol).all():
                return estimate, total
            raise _not_converged(lo, hi, stuck)


def _wynn_epsilon(sequence):
    """The limit of ``sequence`` by Wynn's epsilon algorithm, as QUADPACK's qelg.

    Each element adds a diagonal to the table of the even columns, by Wynn's
    cross rule.  A column stops where two of its neighbouring entries agree
    to roundoff or where the rule is ill-conditioned.  An element's result is
    the entry of its diagonal whose neighbours are closest, and its error
    estimate is the distance of that result from the four results before
    it, at least ``5 eps |result|``; where three entries of a column agree
    to roundoff, the result is the newest and the error their spread.
    Returns the (result, error) with the smallest error, as qags keeps its
    best extrapolation; the error is inf when no result has one.

    qelg measures the distance from three results, not four.  Neighbouring
    results share most of their elements, so near an end away from 0, where
    the nodes round to coarse floats, they can share an error too: on the
    squared density of ``finite:a=0.3,b=0.62`` the three distances summed to
    a ninth of it.
    """
    eps = float(np.finfo(float).eps)

    def roundoff(u, v):
        return abs(u - v) <= eps * max(abs(u), abs(v))

    best = (float(sequence[-1]), math.inf)
    older, old, results = [], [], []
    for element in sequence:
        new = [float(element)]
        result, local, error = new[0], math.inf, None
        for k in range(min(len(old), len(older))):
            # the cross around old[k]: older[k] and new[k] in its column, older[k - 1] west
            e0, e1, e2 = older[k], old[k], new[k]
            if roundoff(e2, e1) and roundoff(e1, e0):
                result, error = e2, abs(e2 - e1) + abs(e1 - e0)
                break
            if roundoff(e2, e1) or roundoff(e1, e0):
                break
            ss = 1.0 / (e2 - e1) - 1.0 / (e1 - e0)
            if k:
                e3 = older[k - 1]
                if roundoff(e1, e3):
                    break
                ss += 1.0 / (e1 - e3)
            if not abs(ss * e1) > 1e-4:
                break
            entry = e1 + 1.0 / ss
            new.append(entry)
            spread = abs(e2 - e1) + abs(entry - e2) + abs(e1 - e0)
            if spread <= local:
                result, local = entry, spread
        older, old = old, new
        if error is None:
            results.append(result)
            if len(results) < 5:
                continue
            error = sum(abs(result - r) for r in results[-5:-1])
        error = max(error, 5.0 * eps * abs(result))
        if error < best[1]:
            best = (result, error)
    return best


def _integral(fn, lo, hi):
    """``gk21`` of a one-row integrand, as a float (value, error bound)."""
    value, error = gk21(fn, lo, hi)
    return float(value[0]), float(error[0])


def survival_power_quad(dist, powers, lower):
    """One (value, error_bound) of ``int_t^inf S(x)**p dx`` per ``p`` in ``powers``.

    The age ``t = lower`` is a float ``>= 0`` with ``S(t) > 0``, as
    ``measures._power_products`` checks it.
    """
    head, start = dist._head_start(lower)
    upper = truncation_point(dist)
    if upper <= start:
        raise DomainError(
            f"quadrature undefined beyond the 1 - {TAIL_MASS:g} quantile {upper:g}: "
            f"lower limit {lower:g}; use the closed route"
        )
    # the tail beyond ``upper`` is at most mrl(U) * S(U)**p; zero on a bounded support
    s_u, mrl_u = dist._tail_factors
    column = np.array(powers, dtype=float)[:, None]
    values, errors = gk21(lambda x: dist._survival(x) ** column, start, upper)
    return [
        (head + v, err + mrl_u * s_u**p)
        for p, v, err in zip(powers, values.tolist(), errors.tolist())
    ]


def pdf_square_quad(dist):
    """``int f(x)**2 dx`` by quadrature; returns (value, error_bound)."""
    lo_sup, hi_sup = dist.support
    upper = truncation_point(dist)
    value, err = _integral(lambda x: dist._pdf(x) ** 2, lo_sup, upper)
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
    return _integral(lambda x: dist._cdf(x) ** 2, lo, hi_sup)


def double_quad_kinked(survival, m, lo, hi):
    """``2 int_lo^hi int_x^hi P(S(x)) P(S(y)) [P(S(y)) - P(S(x) S(y))] dy dx``.

    ``S`` is ``survival`` and ``P(u) = (1/m) sum_{i<=m} u**i``, on
    ``DOUBLE_QUAD_NODES`` graded nodes per axis.  Returns the value as a
    float.  Raises DivergenceError unless it is finite and the pass at
    ``DOUBLE_QUAD_CHECK_NODES`` is within ``DOUBLE_QUAD_RTOL`` (1e-8) of it,
    relative.
    """

    def pass_at(n):
        t, wt = _graded(n)
        x = lo + t * (hi - lo)
        wx = (hi - lo) * wt
        X = x[:, None]
        sx = survival(x)
        sy = survival(X + t[None, :] * (hi - X))
        # row k - 2: the integrals over y of sy**k, k = 2..2m
        power, rows = sy.copy(), []
        for _ in range(2 * m - 1):
            power *= sy
            rows.append(power @ wt)
        rows = np.array(rows)
        terms = [(1.0 - sx**i) * rows[i - 1:i + m - 1].sum(axis=0) for i in range(1, m + 1)]
        inner = sum(sx**i for i in range(1, m + 1)) / m * sum(terms) / m**2
        return 2.0 * float(np.sum(wx * (hi - x) * inner))

    coarse = pass_at(DOUBLE_QUAD_CHECK_NODES)
    fine = pass_at(DOUBLE_QUAD_NODES)
    if not math.isfinite(fine):
        raise DivergenceError("double quadrature diverged")
    if abs(fine - coarse) > DOUBLE_QUAD_RTOL * abs(fine):
        raise DivergenceError(
            f"double quadrature did not converge on [{lo}, {hi}]: {fine!r} at "
            f"{DOUBLE_QUAD_NODES} nodes per axis, {coarse!r} at {DOUBLE_QUAD_CHECK_NODES}"
        )
    return fine
