"""The library boundary: every public callable returns or raises a CrexlabError.

A law is a ``Distribution`` or its spec text, an estimator an
``EstimatorSpec`` or its text; every scalar and array argument has one
rule in :mod:`crexlab.errors`.  The property test calls each callable
in each public module's ``__all__`` with arbitrary arguments.
"""

import enum
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crexlab import discrimination, distributions, estimators, measures, sampling, simulation
from crexlab import (
    CrexlabError,
    CrexValue,
    DiscriminationValue,
    DomainError,
    Exponential,
    FiniteRange,
    Method,
    PowerBeta,
    SpecParseError,
    Uniform,
    asymptotic_variance_srs,
    calibrate_parameter,
    crex,
    crex_min_order_stat,
    draw_minrssu,
    dynamic_crex,
    extropy,
    run_cell,
    vn,
)
from crexlab.errors import enum_member
from crexlab.estimators import estimate

MODULES = (distributions, measures, sampling, estimators, discrimination, simulation)

_SAMPLE = draw_minrssu(Exponential(1.0), 2, 2, np.random.default_rng(0))
_CONFIG = simulation.SimulationConfig(
    "exp:rate=1", m_values=(2,), l_values=(2,), estimators=("rn",), replications=2
)
# The parameters that take an object only the library builds get one built
# here; every other parameter is drawn.  These alone are excluded.
BUILT = {
    ("run_grid", "config"): _CONFIG,
    ("rows_to_csv", "rows"): simulation.run_grid(_CONFIG).rows,
    ("sample_to_csv", "sample"): _SAMPLE,
    ("pooled_order_statistics", "sample"): _SAMPLE,
}

SPEC_LIKE = st.sampled_from([
    "exp:rate=1", "unif:a=0,b=1", "finite:a=2,b=3", "powerbeta:alpha=2", "exp:rate=-1",
    "exp:rate", "exp", "unif", "beta", "vn", "rn", "rmn:w=0", "lstat",
    "lstat_adj:family=exp,w=0", "rmn", "closed", "quadrature", "spacing",
    "truth-minus-estimate", "cycle,set_size,value\n1,1,0.5\n", "1", "",
])
NEGATIVE = st.one_of(
    st.integers(min_value=-10**6, max_value=-1),
    st.floats(max_value=0.0, exclude_max=True, allow_nan=False, allow_infinity=False),
)
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
ARGUMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=12),
    SPEC_LIKE,
    SPECIAL,
    NEGATIVE,
    st.lists(st.one_of(st.floats(), SPEC_LIKE, st.none()), max_size=4),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=3)),
)


def _public_callables():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield pytest.param(name, obj, id=f"{module.__name__.split('.')[-1]}.{name}")


def _call_and_parameters(name, obj):
    """What to call for ``obj``, and its drawn parameters: all but private ones and BUILT's."""
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        # an enum is looked up by its value as the library looks it up;
        # calling the class itself is the standard library's lookup, which
        # raises ValueError
        value = inspect.Parameter("value", inspect.Parameter.POSITIONAL_OR_KEYWORD)
        return (lambda value: enum_member(obj, value, name)), [value]
    return obj, [
        p for p in inspect.signature(obj).parameters.values()
        if not p.name.startswith("_") and (name, p.name) not in BUILT
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


@pytest.mark.parametrize("name, obj", list(_public_callables()))
# derandomized: the same examples on every run, so a defect fails the change that made it
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_public_callable_returns_or_raises_a_crexlab_error(name, obj, data):
    call, params = _call_and_parameters(name, obj)
    kwargs = {param: built for (owner, param), built in BUILT.items() if owner == name}
    for param in params:
        # a parameter with a default keeps it now and then, so later ones are reached
        choices = ARGUMENTS if param.default is param.empty else st.one_of(
            st.just(param.default), ARGUMENTS
        )
        kwargs[param.name] = data.draw(choices, label=param.name)
    try:
        call(**kwargs)
    except CrexlabError:
        pass


_EXP = Exponential(1.0)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: crex("exp:rate=1") == crex(_EXP), True, id="crex-text"),
        pytest.param(lambda: extropy("exp:rate=1") == extropy(_EXP), True, id="extropy-text"),
        pytest.param(
            lambda: np.array_equal(
                draw_minrssu("exp:rate=1", 2, 3, np.random.default_rng(5)).values,
                draw_minrssu(_EXP, 2, 3, np.random.default_rng(5)).values,
            ),
            True,
            id="draw_minrssu-text",
        ),
        pytest.param(
            lambda: asymptotic_variance_srs("exp:rate=1") == asymptotic_variance_srs(_EXP),
            True,
            id="asymptotic_variance_srs-text",
        ),
        pytest.param(
            lambda: estimate("lstat", [1.0, 2.0]) == estimators.lstat([1.0, 2.0]),
            True,
            id="estimate-text",
        ),
        pytest.param(lambda: run_cell(_EXP, 3, 2, 2, 5), SpecParseError, id="run_cell-estimator"),
        pytest.param(
            lambda: calibrate_parameter([None], "rn", 2, 2, (0.0, 0.0)),
            SpecParseError,
            id="calibrate-candidate",
        ),
        pytest.param(
            lambda: calibrate_parameter(None, "rn", 2, 2, (0.0, 0.0)),
            DomainError,
            id="calibrate-candidates",
        ),
        pytest.param(lambda: vn("abc"), DomainError, id="vn-text"),
        pytest.param(lambda: dynamic_crex(_EXP, "a"), DomainError, id="dynamic_crex-age"),
        pytest.param(lambda: _EXP.survival("a"), DomainError, id="survival"),
        pytest.param(lambda: _EXP.quantile("a"), DomainError, id="quantile"),
        pytest.param(lambda: _EXP.mean_residual_life("a"), DomainError, id="mrl"),
        pytest.param(lambda: _EXP.survival_power_integral("a"), DomainError, id="spi-power"),
        pytest.param(lambda: _EXP.survival_power_integral(2, "a"), DomainError, id="spi-lower"),
    ],
)
def test_motivation_probes(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


LAWS = [
    pytest.param(Exponential(1.0), id="exp"),
    pytest.param(Uniform(0.0, 1.0), id="unif"),
    pytest.param(PowerBeta(2.0), id="powerbeta"),
    pytest.param(FiniteRange(2.0, 3.0), id="finite"),
]


@pytest.mark.parametrize("method", ["closed", "quadrature"])
@pytest.mark.parametrize("law", LAWS)
def test_infinite_survival_power_raises_on_both_routes(law, method):
    # 2 * 10**308 overflows to an infinite power; the quadrature route used to return 0.0
    with pytest.raises(DomainError, match="survival power must be positive and finite, got inf"):
        crex_min_order_stat(law, 10**308, method)
    with pytest.raises(DomainError, match="survival power must be positive and finite"):
        law.survival_power_integral(math.inf)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CrexValue(0.5, Method.CLOSED_FORM), "measure value must be <= 0, got 0.5"),
        (lambda: CrexValue("a", Method.CLOSED_FORM), "measure value must be a real number"),
        (lambda: CrexValue(-1.0, Method.CLOSED_FORM, None), "error bound must be a real number"),
        (lambda: DiscriminationValue("a", 1, Method.CLOSED_FORM),
         "discrimination value must be a real number"),
    ],
    ids=["positive", "text", "bound", "discrimination"],
)
def test_result_constructors_raise_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()
    # DomainError is a ValueError, so callers that catch ValueError still do
    with pytest.raises(ValueError):
        call()


def test_plain_arrays_of_any_shape_are_ravelled():
    # vn of four equal values: every spacing is zero
    assert vn(np.ones((2, 2))) == 0.0
    values = np.random.default_rng(3).exponential(size=(3, 4))
    for estimator in (vn, estimators.lstat):
        assert estimator(values) == estimator(values.ravel()) == estimator(values.T.ravel())
