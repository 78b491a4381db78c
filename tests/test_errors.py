import io

import numpy as np
import pytest

from crexlab import (
    BiasConvention,
    CrexlabError,
    DomainError,
    EstimatorKind,
    EstimatorSpec,
    Exponential,
    PsiFamily,
    SpecParseError,
    Uniform,
    calibrate_parameter,
    crex_min_order_stat,
    draw_minrssu,
    draw_srs,
    rmn,
    rows_from_csv,
    rows_to_csv,
    sample_from_csv,
    sample_to_csv,
    simulation,
)
from crexlab.cli import main
from crexlab.errors import enum_member, shown, text_lines

HUGE = 10**5000


def _rng():
    return np.random.default_rng(0)


ENUMS = [
    pytest.param(EstimatorKind, "estimator", id="estimator"),
    pytest.param(PsiFamily, "psi family", id="psi-family"),
    pytest.param(BiasConvention, "bias convention", id="bias-convention"),
]


class TestEnumMember:
    @pytest.mark.parametrize("kind, what", ENUMS)
    def test_value_or_member_gives_the_member(self, kind, what):
        for member in kind:
            assert enum_member(kind, member.value, what) is member
            assert enum_member(kind, member, what) is member

    @pytest.mark.parametrize(
        "kind, what, message",
        [
            (EstimatorKind, "estimator",
             "unknown estimator 'bogus' (known: vn, rn, rmn, lstat, lstat_adj)"),
            (PsiFamily, "psi family", "unknown psi family 'bogus' (known: exp, unif, beta)"),
            (BiasConvention, "bias convention",
             "unknown bias convention 'bogus' "
             "(known: truth-minus-estimate, estimate-minus-truth)"),
        ],
        ids=["estimator", "psi-family", "bias-convention"],
    )
    def test_unknown_value_message(self, kind, what, message):
        with pytest.raises(SpecParseError) as info:
            enum_member(kind, "bogus", what)
        assert str(info.value) == message
        # the enum's own ValueError is not chained onto the message
        assert info.value.__suppress_context__

    @pytest.mark.parametrize("kind, what", ENUMS)
    @pytest.mark.parametrize("bad", [5, None, ["exp"], "EXP"], ids=repr)
    def test_non_member_values_raise_spec_parse_error(self, kind, what, bad):
        with pytest.raises(SpecParseError, match=f"unknown {what} "):
            enum_member(kind, bad, what)


_EXP = Exponential(1.0)


class TestDrawAndCsvBoundary:
    # a draw without a numpy Generator is a DomainError, on both draw paths
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: draw_minrssu(_EXP, 2, 3, 7), id="draw_minrssu-int"),
            pytest.param(lambda: draw_minrssu(_EXP, 2, 3, None), id="draw_minrssu-None"),
            pytest.param(lambda: draw_srs(_EXP, 3, 7), id="draw_srs-int"),
            pytest.param(lambda: _EXP.sample(7, 3), id="sample-int"),
            pytest.param(lambda: _EXP.sample(np.random.RandomState(0), 3), id="sample-RandomState"),
        ],
    )
    def test_draw_needs_a_generator(self, call):
        with pytest.raises(DomainError, match="must be a numpy.random.Generator"):
            call()

    # CSV input that is not text is a SpecParseError, in both readers
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: rows_from_csv(3), id="rows_from_csv-int"),
            pytest.param(lambda: rows_from_csv(None), id="rows_from_csv-None"),
            pytest.param(lambda: sample_from_csv(3), id="sample_from_csv-int"),
            pytest.param(lambda: rows_from_csv(b"distribution"), id="rows_from_csv-bytes"),
            pytest.param(
                lambda: sample_from_csv(io.BytesIO(b"cycle,set_size,value\n")),
                id="sample_from_csv-binary-file",
            ),
        ],
    )
    def test_csv_reader_needs_text(self, call):
        with pytest.raises(SpecParseError, match="must be text"):
            call()

    def test_text_lines_pass_through(self):
        text = "cycle,set_size,value\n1,1,0.5\n"
        for source in (text, io.StringIO(text), text.splitlines(keepends=True)):
            assert list(text_lines(source, "CSV")) == text.splitlines(keepends=True)


_SAMPLE_TEXT = "cycle,set_size,value\n1,1,0.5\n"


class TestSharedCsvCode:
    # one writer and one reader serve both CSV formats
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sample_from_csv("a,b\n1,2\n"),
             "expected header cycle,set_size,value, got a,b"),
            (lambda: sample_from_csv(_SAMPLE_TEXT + "1,2,a\rb\n"),
             "malformed sample CSV: new-line character seen in unquoted field"),
            (lambda: rows_from_csv("a\rb\n"), "malformed results CSV: new-line character"),
        ],
        ids=["sample-header", "sample-csv-error", "results-csv-error"],
    )
    def test_reader_errors(self, call, message):
        with pytest.raises(SpecParseError, match=message):
            call()

    def test_only_the_results_reader_skips_comment_lines(self):
        with pytest.raises(SpecParseError, match="got # note"):
            sample_from_csv("# note\n" + _SAMPLE_TEXT)
        with pytest.raises(SpecParseError, match="malformed sample row"):
            sample_from_csv(_SAMPLE_TEXT + "# note\n")
        header = ",".join(simulation.CSV_HEADER)
        assert rows_from_csv(f"# note\n{header}\n# more\n\n") == []

    @pytest.mark.parametrize("file", ["out.csv", 3, [], None], ids=repr)
    def test_writer_needs_a_text_file(self, file):
        sample = draw_minrssu(_EXP, 2, 1, np.random.default_rng(0))
        if file is None:
            assert sample_to_csv(sample, file).startswith("cycle,set_size,value\n")
            return
        with pytest.raises(SpecParseError, match="CSV output must be a text file"):
            sample_to_csv(sample, file)
        with pytest.raises(SpecParseError, match="CSV output must be a text file"):
            rows_to_csv([], file)


class TestHugeIntegers:
    """An int past the float range, or too long for ``str()``, ends in a typed error."""

    # each used to end in a bare ValueError (a message formatting an int
    # of more than 4300 digits, or numpy's array size limit) or OverflowError
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: crex_min_order_stat(Exponential(1.0), -HUGE), id="set-size"),
            pytest.param(
                lambda: simulation.run_cell("exp:rate=1", "rn", 2, 2, 3, base_seed=-HUGE),
                id="seed",
            ),
            pytest.param(lambda: Exponential(HUGE), id="rate"),
            pytest.param(lambda: Exponential(-HUGE), id="negative-rate"),
            pytest.param(lambda: Uniform(-HUGE, 1), id="uniform-end"),
            pytest.param(lambda: EstimatorSpec("rmn", w=HUGE), id="spec-w"),
            pytest.param(lambda: rmn([1.0, 2.0, 3.0], -HUGE, m=2), id="rmn-w"),
            pytest.param(lambda: draw_srs("exp:rate=1", -HUGE, _rng()), id="srs-count"),
            pytest.param(lambda: Exponential(1.0).sample(_rng(), -HUGE), id="sample-count"),
            pytest.param(
                lambda: draw_minrssu(Exponential(1.0), 2, 2, _rng()).set_values(HUGE),
                id="set-values",
            ),
            pytest.param(
                lambda: simulation.SimulationConfig("exp:rate=1", l_values=(-HUGE,)), id="l-value"
            ),
            pytest.param(lambda: Exponential(1.0).survival(HUGE), id="survival"),
            pytest.param(lambda: Exponential(1.0).quantile(HUGE), id="quantile"),
            pytest.param(
                lambda: calibrate_parameter(["exp:rate=1"], "rn", 2, 2, (HUGE, 1.0)),
                id="calibration-target",
            ),
            pytest.param(lambda: Exponential(1.0).sample(_rng(), HUGE), id="huge-sample"),
            pytest.param(lambda: draw_srs("exp:rate=1", 10**30, _rng()), id="srs-past-intp"),
        ],
    )
    def test_typed_error(self, call):
        with pytest.raises(CrexlabError) as caught:
            call()
        assert len(str(caught.value)) < 200

    def test_shown(self):
        assert shown(10**400) == "a 1329-bit integer"
        assert shown(-HUGE) == "a negative 16610-bit integer"
        assert shown([HUGE]) == "a list too long to print"
        values = (2**1023, 2.5, "3", None)
        assert [shown(v) for v in values] == [repr(2**1023), "2.5", "'3'", "None"]

    def test_w_past_int64_gives_float_weights(self):
        # used to end in a bare TypeError: the weight denominators became an object array
        sample = [1.0, 2.0, 3.0]
        assert rmn(sample, 10**20, m=2) == rmn(sample, 10**300, m=2) == -1.0


class TestAllocationsSizedByInput:
    """An array whose size an argument sets, too large to allocate, is a DomainError naming it.

    Every size here is at least 2**48 bytes, which no allocation is
    granted, so each case is refused at once.
    """

    # each used to end in numpy's MemoryError or "array is too big" ValueError
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: Exponential(1.0).sample(_rng(), 2**60),
                         "sample of 1152921504606846976 floats", id="sample-past-intp"),
            pytest.param(lambda: Exponential(1.0).sample(_rng(), 2**46),
                         "sample of 70368744177664 floats", id="sample"),
            pytest.param(lambda: draw_minrssu("exp:rate=1", 2**23, 2**23, _rng()),
                         "MinRSSU draw of 70368744177664 floats", id="draw_minrssu"),
            pytest.param(lambda: simulation.run_cell("exp:rate=1", "rn", 2, 2, 10**15),
                         "estimate matrix of 1000000000000000 floats", id="estimate-matrix"),
            pytest.param(lambda: simulation.run_cell("exp:rate=1", "rn", 2, 2, 10**18),
                         "estimate matrix of 1000000000000000000 floats", id="past-intp"),
            pytest.param(lambda: simulation.run_cell("exp:rate=1", "rn", 2**23, 2**23, 2),
                         "weight rows of 70368744177664 floats", id="weight-rows"),
            pytest.param(lambda: simulation._reset_uniforms(5, 0, 2, 2**46),
                         "uniform workspace of 140737488355328 floats", id="workspace"),
        ],
    )
    def test_domain_error_names_the_size(self, call, message):
        with pytest.raises(DomainError, match=f"^{message} is too large to allocate$"):
            call()

    def test_one_shape_too_large_fails_only_its_cells(self):
        config = simulation.SimulationConfig(
            "exp:rate=1", m_values=(1, 2**45), l_values=(1,), estimators=("lstat",),
            replications=3,
        )
        result = simulation.run_grid(config)
        assert [row.m for row in result.rows] == [1]
        [failure] = result.failures
        assert failure.coordinates["m"] == 2**45 and isinstance(failure.cause, DomainError)
        assert str(failure.cause) == "weight rows of 35184372088832 floats is too large to allocate"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["simulate", "--dist", "exp:rate=1", "--m", "2", "--l", "2", "--estimators", "rn",
              "--reps", str(10**15)], 2, "crexlab: estimate matrix of 10"),
            (["calibrate", "--dist-grid", "exp:rate=1", "--estimator", "rn", "--m", "2", "--l",
              "2", "--target-bias", "0", "--target-rmse", "1", "--reps", str(10**18)],
             2, "crexlab: estimate matrix of 10"),
            (["estimate", "--estimator", "rn", "--draw", "exp:rate=1", "--m", str(2**23), "--l",
              str(2**23)], 2, "crexlab: MinRSSU draw of 70368744177664 floats"),
            (["simulate", "--dist", "exp:rate=1", "--m", f"1,{2**45}", "--l", "1",
              "--estimators", "lstat", "--reps", "3"], 4, "cell failed: cell (distribution"),
        ],
        ids=["simulate", "calibrate", "estimate", "simulate-cell"],
    )
    def test_cli_exits_without_a_traceback(self, capsys, argv, code, message):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert "too large to allocate" in err
