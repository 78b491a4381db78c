import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crexlab import BiasConvention, PsiFamily, rows_from_csv, sample_from_csv
from crexlab.cli import _config_from_flags, build_parser, main
from crexlab.simulation import DEFAULT_SEED, PROTOCOL_DISTRIBUTIONS

DATA = Path(__file__).parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_number(text):
    numbers = re.findall(r"-?\d+\.?\d*(?:e-?\d+)?", text)
    assert numbers, f"no number in output: {text!r}"
    return float(numbers[-1])


class TestMeasure:
    def test_minrssu_design_value(self, capsys):
        code, out, _ = run(
            capsys, ["measure", "--dist", "unif:a=0,b=1", "--design", "minrssu", "--m", "2"]
        )
        assert code == 0
        value = float(out.splitlines()[1].split()[1])
        assert value == pytest.approx(-1.0 / 30.0, abs=1e-6)

    def test_srs_design_value(self, capsys):
        code, out, _ = run(
            capsys, ["measure", "--dist", "exp:rate=1", "--design", "srs", "--m", "1"]
        )
        assert code == 0
        assert float(out.splitlines()[1].split()[1]) == pytest.approx(-0.25, abs=1e-9)

    @pytest.mark.parametrize("argv", [["--m", "7"], ["--m", "1", "--t", "0.5"],
                                      ["--design", "single", "--m", "2"]])
    def test_single_design_rejects_m(self, capsys, argv):
        # the flag was not read: --m 7 printed crex of the law and exited 0
        code, out, err = run(capsys, ["measure", "--dist", "exp:rate=1", *argv])
        assert (code, out, err) == (2, "", "crexlab: --m cannot be used with --design single\n")

    def test_design_size_defaults_to_1(self, capsys):
        for design in ("srs", "minrssu"):
            argv = ["measure", "--dist", "exp:rate=1", "--design", design]
            assert run(capsys, argv) == run(capsys, [*argv, "--m", "1"])

    def test_malformed_spec_exits_2(self, capsys):
        code, _, err = run(capsys, ["measure", "--dist", "nope:p=1"])
        assert code == 2
        assert "unknown distribution family" in err

    def test_powerbeta_whose_inverse_overflows_exits_2(self, capsys):
        # its mean was nan, with a RuntimeWarning, and the command exited 3
        code, out, err = run(capsys, ["measure", "--dist", "powerbeta:alpha=5e-324"])
        assert (code, out) == (2, "")
        assert "finite 1/alpha" in err

    def test_dynamic_pair(self, capsys):
        code, out, _ = run(
            capsys,
            ["measure", "--dist", "exp:rate=1", "--design", "dynamic", "--m", "2", "--t", "3"],
        )
        assert code == 0
        lines = out.splitlines()
        assert float(lines[1].split()[1]) == pytest.approx(-1.0 / 16.0, abs=1e-6)
        assert float(lines[2].split()[1]) == pytest.approx(-1.0 / 8.0, abs=1e-6)

    def test_dynamic_needs_t(self, capsys):
        code, _, err = run(
            capsys, ["measure", "--dist", "exp:rate=1", "--design", "dynamic", "--m", "2"]
        )
        assert (code, err) == (2, "crexlab: --design dynamic requires --t\n")
        # a bad law is reported before the missing age
        code, _, err = run(capsys, ["measure", "--dist", "nope:p=1", "--design", "dynamic"])
        assert code == 2 and "unknown distribution family" in err

    def test_divergence_exits_3(self, capsys):
        for argv in (
            ["measure", "--dist", "exp:rate=1e-300", "--design", "srs", "--m", "5"],
            ["discriminate", "--dist", "exp:rate=1e-300", "--mode", "designs", "--m", "5"],
            ["discriminate", "--dist", "exp:rate=1e-300", "--mode", "designs", "--m", "50"],
            ["measure", "--dist", "exp:rate=1", "--design", "srs", "--m", "100000"],
            ["measure", "--dist", "exp:rate=1", "--design", "dynamic", "--m", "400", "--t", "5"],
            # survival(t)**2 is subnormal: the factor would lose its digits
            ["measure", "--dist", "exp:rate=1", "--t", "370"],
            ["measure", "--dist", "exp:rate=1", "--t", "372.5"],
            # subnormal minimum means, by both routes
            ["discriminate", "--dist", "unif:a=0,b=1e-310", "--i", "2"],
            ["discriminate", "--dist", "unif:a=0,b=1e-310", "--i", "2", "--method", "quadrature"],
            ["discriminate", "--dist", "unif:a=0,b=1e-310", "--mode", "designs", "--m", "2",
             "--method", "quadrature"],
            # an estimate or a calibration residual that overflows
            ["estimate", "--estimator", "vn", "--values", "1e308,-1e308"],
            ["estimate", "--estimator", "lstat", "--values", "1.7e308,1.7e308,1.7e308,1.7e308"],
            ["calibrate", "--dist-grid", "exp:rate=1", "--estimator", "rn", "--m", "2", "--l", "2",
             "--target-bias", "1e308", "--target-rmse", "1e308", "--reps", "3"],
            # a candidate whose Monte Carlo SE overflows
            ["calibrate", "--dist-grid", "exp:rate=1e-300", "--estimator", "rn", "--m", "2",
             "--l", "2", "--target-bias", "0", "--target-rmse", "1", "--reps", "3"],
            # a survival-power integral that underflows to 0, by both routes
            ["measure", "--dist", "powerbeta:alpha=1e-300"],
            ["measure", "--dist", "powerbeta:alpha=1e-300", "--method", "quadrature"],
            ["measure", "--dist", "unif:a=0,b=1", "--design", "dynamic", "--m", "2",
             "--t", "0.9999999999999999", "--method", "quadrature"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 3, argv
            assert err.startswith("crexlab: divergence:") and err.count("\n") == 1
            assert out == ""

    @pytest.mark.parametrize(
        "design,line",
        [
            ("minrssu", "dynamic_crex[minrssu,m=2,t=0.5]          -0.0625 closed-form"),
            ("srs", "dynamic_crex[srs,m=2,t=0.5]            -0.125 closed-form"),
        ],
        ids=["minrssu", "srs"],
    )
    def test_design_at_an_age(self, capsys, design, line):
        code, out, _ = run(
            capsys,
            ["measure", "--dist", "exp:rate=1", "--design", design, "--m", "2", "--t", "0.5"],
        )
        assert code == 0
        assert out.splitlines()[1:] == [f"{line}                 0"]

    @pytest.mark.parametrize(
        "argv",
        [["--m", "2", "--t", "0.5"],
         ["--m", "12", "--t", "0.9999999999999999", "--method", "quadrature"]],
        ids=["m2", "m12-quadrature"],
    )
    def test_columns_line_up_with_the_header(self, capsys, argv):
        # labels longer than 28 characters pushed their row's fields right
        code, out, _ = run(
            capsys, ["measure", "--dist", "exp:rate=1", "--design", "dynamic", *argv]
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == 2
        value_end = header.index(" value ") + len(" value")
        method_start = header.index("method")
        for row in rows:
            fields = re.fullmatch(r"(\S+) +(\S+) (\S+) +(\S+)", row)
            assert fields.end(2) == value_end, row
            assert fields.start(3) == method_start, row
            assert fields.end(4) == len(header), row

    @pytest.mark.parametrize(
        "t", ["0.9999999999999999", "0.5", "3", "1e-07", "0.30000000000000004"]
    )
    def test_age_label_reads_back_as_the_age(self, capsys, t):
        for argv, label in (
            (["--t", t], f"dynamic_crex[t={t}]"),
            (["--design", "dynamic", "--m", "2", "--t", t], f"dynamic_crex[minrssu,m=2,t={t}]"),
        ):
            code, out, _ = run(capsys, ["measure", "--dist", "exp:rate=1", *argv])
            assert code == 0
            assert out.splitlines()[1].split()[0] == label

    def test_quadrature_method_reports_bound(self, capsys):
        code, out, _ = run(
            capsys,
            ["measure", "--dist", "unif:a=0,b=1", "--method", "quadrature", "--raw"],
        )
        assert code == 0
        assert "quadrature" in out

    def test_precision_flag(self, capsys):
        _, out6, _ = run(capsys, ["measure", "--dist", "unif:a=0,b=1"])
        _, out12, _ = run(capsys, ["measure", "--dist", "unif:a=0,b=1", "--precision", "12"])
        assert "-0.166667" in out6
        assert "-0.166666666667" in out12

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, ["measure", "--dist", "exp:rate=1", "--frobnicate"])
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--dist", "exp:rate=1"],
        ["estimate", "--estimator", "rn", "--values", "1,2,3"],
        ["discriminate", "--dist", "exp:rate=1", "--i", "2"],
        ["calibrate", "--dist-grid", "exp:rate=1", "--estimator", "rn", "--m", "2",
         "--l", "2", "--target-bias", "0", "--target-rmse", "1", "--reps", "2"],
    ],
    ids=["measure", "estimate", "discriminate", "calibrate"],
)
@pytest.mark.parametrize(
    "precision, rule",
    [("-1", ">= 1"), ("0", ">= 1"), ("2147483648", "at most 2147483647"),
     (str(10**20), "at most 2147483647")],
)
def test_precision_out_of_range_exits_2(capsys, argv, precision, rule):
    code, out, err = run(capsys, argv + [f"--precision={precision}"])
    assert (code, out, err) == (2, "", f"crexlab: --precision must be {rule}, got {precision}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--dist", "exp:rate=nan"],
        ["measure", "--dist", "unif:a=0,b=inf"],
        ["estimate", "--estimator", "vn", "--values", "1,nan,3"],
        ["measure", "--dist", "exp:rate=1", "--t", "nan"],
        ["estimate", "--estimator", "vn", "--draw", "exp:rate=1e-320", "--m", "2", "--l", "3"],
        # a law whose draws can overflow to inf is rejected where it is built
        ["measure", "--dist", "exp:rate=1e-320"],
        ["estimate", "--estimator", "vn", "--draw", "finite:a=1e-320,b=1", "--m", "2", "--l", "2"],
    ],
    ids=["exp-rate-nan", "unif-b-inf", "values-nan", "age-nan", "draws-inf", "rate-quantile-inf",
         "finite-draws-inf"],
)
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("crexlab:") and re.search(r"nan|inf", err)
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--dist", "unif:a=-2,b=-1"],
        ["estimate", "--estimator", "vn", "--draw", "unif:a=-1,b=1", "--m", "2", "--l", "2"],
    ],
    ids=["measure", "estimate-draw"],
)
def test_negative_uniform_support_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("crexlab:") and "a >= 0" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--estimator", "vn", "--input", "{dir}"],
        ["estimate", "--estimator", "vn", "--values", "1,2", "--save", "{dir}"],
        ["estimate", "--estimator", "vn", "--input", "{latin1}"],
        ["simulate", "--input", "{dir}"],
        ["simulate", "--dist", "exp:rate=1", "--m", "2", "--l", "2", "--estimators", "rn",
         "--reps", "2", "--seed", "1", "--out", "{dir}"],
        ["simulate", "--config", "{dir}"],
        ["simulate", "--config", "{latin1}"],
        ["simulate", "--input", "{latin1}"],
    ],
    ids=["estimate-input-dir", "save-dir", "estimate-input-latin1", "simulate-input-dir",
         "out-dir", "config-dir", "config-latin1", "simulate-input-latin1"],
)
def test_unreadable_or_unwritable_file_exits_2(capsys, tmp_path, argv):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("caf\u00e9,na\u00efve\n".encode("latin-1"))
    argv = [arg.format(dir=tmp_path, latin1=latin1) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("crexlab:") and "Traceback" not in err
    assert out == ""


class TestEstimate:
    def test_inline_values(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--estimator", "vn", "--values", "1,2,4"])
        assert code == 0
        assert last_number(out) == pytest.approx(-1.0 / 3.0, abs=1e-6)

    def test_draw_save_input_round_trip(self, capsys, tmp_path):
        path = tmp_path / "sample.csv"
        code, out_a, _ = run(
            capsys,
            [
                "estimate", "--estimator", "rmn:w=0", "--draw", "exp:rate=1",
                "--m", "3", "--l", "2", "--seed", "5", "--save", str(path),
            ],
        )
        assert code == 0
        with open(path, newline="") as fh:
            sample = sample_from_csv(fh)
        assert sample.m == 3 and sample.l == 2
        code, out_b, _ = run(
            capsys, ["estimate", "--estimator", "rmn:w=0", "--input", str(path)]
        )
        assert code == 0
        assert last_number(out_a) == pytest.approx(last_number(out_b), abs=1e-12)

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, ["estimate", "--estimator", "vn"])
        assert code == 2
        code, _, err = run(
            capsys,
            ["estimate", "--estimator", "vn", "--values", "1,2", "--draw", "exp:rate=1"],
        )
        assert code == 2

    def test_estimator_errors_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            ["estimate", "--estimator", "lstat_adj:family=exp,w=-11", "--draw",
             "exp:rate=1", "--m", "2", "--l", "2"],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--estimator", "rn", "--draw", "exp:rate=1", "--seed", "-1"], "base seed"),
            (["--estimator", "rmn:w=1,w=2", "--values", "1,2,3"], "duplicate key 'w'"),
            (["--estimator", "vn", "--draw", "exp:rate=1,rate=2"], "duplicate key 'rate'"),
        ],
        ids=["negative-seed", "repeated-estimator-key", "repeated-distribution-key"],
    )
    def test_usage_errors_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, ["estimate", *argv])
        assert code == 2 and out == ""
        assert err.startswith("crexlab:") and message in err


    @pytest.mark.parametrize(
        "estimator,values", [("vn", "3,3,3"), ("lstat", "0,0")], ids=["vn", "lstat"]
    )
    def test_zero_estimate_prints_unsigned(self, capsys, estimator, values):
        code, out, _ = run(capsys, ["estimate", "--estimator", estimator, "--values", values])
        assert code == 0
        assert out == f"{estimator:<28} {'0':>16}\n"

    def test_empty_values_exit_2(self, capsys):
        code, out, err = run(capsys, ["estimate", "--estimator", "vn", "--values", ","])
        assert (code, out, err) == (2, "", "crexlab: --values is empty\n")

    @pytest.mark.parametrize("source", ["--input", "--values"])
    @pytest.mark.parametrize("flag", ["--m", "--l", "--seed"])
    def test_draw_flags_rejected_without_draw(self, capsys, tmp_path, source, flag):
        # these were dropped without a word, and the estimate printed with exit 0
        path = tmp_path / "sample.csv"
        assert run(capsys, ["estimate", "--estimator", "rn", "--draw", "exp:rate=1",
                            "--save", str(path)])[0] == 0
        value = str(path) if source == "--input" else "1,2,3"
        argv = ["estimate", "--estimator", "vn", source, value, flag, "3"]
        assert run(capsys, argv) == (2, "", f"crexlab: {flag} cannot be used with {source}\n")

    def test_every_unread_draw_flag_is_named(self, capsys):
        argv = ["estimate", "--estimator", "vn", "--values", "1,2,3", "--m", "5", "--l", "9",
                "--seed", "3"]
        message = "--m, --l, --seed cannot be used with --values"
        assert run(capsys, argv) == (2, "", f"crexlab: {message}\n")

    def test_draw_defaults_to_m_2_l_2_and_the_default_seed(self, capsys):
        default = run(capsys, ["estimate", "--estimator", "rn", "--draw", "exp:rate=1"])
        argv = ["estimate", "--estimator", "rn", "--draw", "exp:rate=1", "--m", "2", "--l", "2",
                "--seed", str(DEFAULT_SEED)]
        assert default[0] == 0 and run(capsys, argv) == default


class TestSimulate:
    BASE = [
        "simulate", "--dist", "exp:rate=1", "--m", "2", "--l", "2,3",
        "--estimators", "rn,rmn", "--w-rmn", "-2,-1", "--reps", "20",
    ]

    def test_deterministic_given_seed(self, capsys):
        code, out_a, _ = run(capsys, self.BASE + ["--seed", "7"])
        assert code == 0
        code, out_b, _ = run(capsys, self.BASE + ["--seed", "7"])
        assert out_a == out_b

    def test_emitted_csv_parses(self, capsys):
        code, out, _ = run(capsys, self.BASE + ["--seed", "7"])
        rows = rows_from_csv(out)
        assert len(rows) == 6  # 1 m x 2 l x (rn + 2 w)

    def test_default_seed_noted_in_header_comment(self, capsys):
        code, out, _ = run(capsys, self.BASE)
        assert code == 0
        assert out.startswith("# seed defaulted to 42\n")
        assert rows_from_csv(out)  # still parseable

    def test_reprint_round_trip(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, self.BASE + ["--seed", "3", "--out", str(path)])
        assert code == 0
        code, out, _ = run(capsys, ["simulate", "--input", str(path)])
        assert code == 0
        assert "rmn" in out

    def test_reprint_of_the_exp_golden_is_pinned(self, capsys):
        # rows_from_csv -> SimulationRow -> summary table; the CI golden
        # step compares the entry point's output with the same file
        golden = DATA / "protocol_exp_r20_s1.csv"
        code, out, _ = run(capsys, ["simulate", "--input", str(golden)])
        assert code == 0
        assert out == (DATA / "reprint_exp_r20_s1.txt").read_text()

    def test_single_rep_smoke(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            ["simulate", "--dist", "unif:a=0,b=1", "--m", "2", "--l", "2",
             "--estimators", "rn", "--reps", "1", "--seed", "1"],
        )
        assert code == 0
        assert time.perf_counter() - start < 1.0

    def test_partial_failure_exits_4(self, capsys):
        code, out, err = run(
            capsys,
            ["simulate", "--protocol", "exp", "--sides", "order", "--reps", "2",
             "--seed", "2"],
        )
        assert code == 4
        assert "cell failed" in err
        assert rows_from_csv(out)  # completed cells still emitted

    @pytest.mark.parametrize(
        "law", ["exp:rate=1e-300", "powerbeta:alpha=1e-300"], ids=["mc-se-overflows", "truth-underflows"]
    )
    def test_cell_that_cannot_be_summarized_fails(self, capsys, law):
        code, out, err = run(
            capsys,
            ["simulate", "--dist", law, "--m", "2", "--l", "2", "--estimators", "rn",
             "--reps", "3", "--seed", "1"],
        )
        assert code == 4
        assert err.startswith("cell failed:") and err.count("\n") == 1
        assert rows_from_csv(out) == [] and "inf" not in out

    def test_config_file(self, capsys, tmp_path):
        cfg = {
            "distribution": "unif:a=0,b=1",
            "m": [2],
            "l": [2],
            "estimators": ["rn", "rmn"],
            "w": {"rmn": {"2": [0, 1]}},
            "replications": 5,
            "seed": 11,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, ["simulate", "--config", str(path)])
        assert code == 0
        assert len(rows_from_csv(out)) == 3

    def test_bad_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        path.write_text(json.dumps({"distribution": "exp:rate=1", "bogus_key": 1}))
        code, _, _ = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        path.write_text(json.dumps({"distribution": "exp:rate=1", "m": ["x"]}))
        code, _, err = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        assert err.startswith("crexlab:")
        # a per-m w list keyed by text that is not an integer
        path.write_text(json.dumps({"distribution": "exp:rate=1", "w": {"rmn": {"x": [0]}}}))
        code, out, err = run(capsys, ["simulate", "--config", str(path)])
        assert (code, out) == (2, "") and err.startswith("crexlab: bad config:")

    @pytest.mark.parametrize(
        "source,message",
        [
            ({"estimators": ["rn"], "psi_family": "bogus", "w": {"lstat": [5]}},
             "w_lists key 'lstat' is not one of the estimators"),
            ({"estimators": ["rn", "lstat"], "psi_family": "exp"},
             "psi_family 'exp' is set, but the grid has no lstat_adj cell"),
            (["--estimators", "rn", "--psi-family", "exp", "--w-rmn", "0"],
             "w_lists key 'rmn' is not one of the estimators"),
            (["--estimators", "rn,lstat", "--psi-family", "exp"],
             "psi_family 'exp' is set, but the grid has no lstat_adj cell"),
            (["--estimators", "rn", "--w-lstat-adj", "0"],
             "w_lists key 'lstat_adj' is not one of the estimators"),
        ],
        ids=["config-w", "config-psi", "dist-w-rmn", "dist-psi", "dist-w-lstat-adj"],
    )
    def test_fields_no_cell_reads_exit_2(self, capsys, tmp_path, source, message):
        # each exited 0: no cell read the psi family or the w list
        if isinstance(source, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"distribution": "exp:rate=1", **source}))
            argv = ["simulate", "--config", str(path)]
        else:
            argv = ["simulate", "--dist", "exp:rate=1", "--m", "2", "--l", "2", "--reps", "2",
                    *source]
        assert run(capsys, argv) == (2, "", f"crexlab: {message}\n")

    def test_missing_inputs_exit_2(self, capsys):
        code, _, _ = run(capsys, ["simulate"])
        assert code == 2

    def test_w_lstat_adj_flag(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--dist", "exp:rate=1", "--m", "2", "--l", "2", "--estimators",
             "lstat_adj", "--w-lstat-adj", "0,1", "--psi-family", "exp", "--reps", "3",
             "--seed", "1"],
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "exp,rate=1,lstat_adj:family=exp,2,2,0,3,1,-0.25,"
            "-0.5870635192604079,0.6215517122649185,0.14436577740766093",
            "exp,rate=1,lstat_adj:family=exp,2,2,1,3,1,-0.25,"
            "-0.3290319346497367,0.3330321084763383,0.036389361473148946",
        ]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--dist", "exp:rate=1", "--m", "2,x"], "bad --m list: '2,x'"),
            (["--protocol", "exp", "--sides", "spacing,bogus"],
             "unknown side 'bogus' (use spacing/order)"),
            (["--protocol", "exp", "--sides", ""], "sides must not be empty"),
            # these gave a 0-cell grid: a header alone and exit 0
            (["--dist", "exp:rate=1", "--m", ",", "--estimators", "rn", "--seed", "1"],
             "m must not be empty"),
            (["--dist", "exp:rate=1", "--estimators", ","], "estimators must not be empty"),
            (["--dist", "exp:rate=1", "--w-rmn", ","], "w list of 'rmn' must not be empty"),
        ],
        ids=["bad-m-list", "unknown-side", "no-side", "no-m", "no-estimator", "no-w"],
    )
    def test_bad_list_flags_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, ["simulate", *argv, "--reps", "2"])
        assert (code, out, err) == (2, "", f"crexlab: {message}\n")

    # each flag with a value of the kind it takes; --config reads none of them
    GRID_FLAGS = {
        "--protocol": "exp", "--sides": "spacing", "--dist": "exp:rate=1", "--m": "2",
        "--l": "2", "--estimators": "rn", "--w-rmn": "0", "--w-lstat-adj": "0",
        "--psi-family": "exp", "--reps": "2", "--seed": "1",
        "--bias-convention": "estimate-minus-truth",
    }

    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"distribution": "exp:rate=1", "m": [2], "l": [2],
                                    "estimators": ["rn"], "replications": 3, "seed": 5}))
        return str(path)

    @pytest.mark.parametrize("flag", list(GRID_FLAGS))
    def test_config_rejects_every_grid_flag(self, capsys, config_path, flag):
        # these were dropped without a word: the config's seed and count ran
        argv = ["simulate", "--config", config_path, flag, self.GRID_FLAGS[flag]]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"crexlab: {flag} cannot be used with --config\n")

    @pytest.mark.parametrize(
        "flag",
        ["--dist", "--m", "--l", "--estimators", "--w-rmn", "--w-lstat-adj", "--psi-family",
         "--bias-convention"],
    )
    def test_protocol_rejects_the_flags_it_does_not_read(self, capsys, flag):
        argv = ["simulate", "--protocol", "exp", "--reps", "2", "--seed", "1",
                flag, self.GRID_FLAGS[flag]]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"crexlab: {flag} cannot be used with --protocol\n")

    def test_every_unread_flag_is_named(self, capsys, config_path):
        code, out, err = run(
            capsys, ["simulate", "--config", config_path, "--seed", "99", "--reps", "7"]
        )
        assert (code, out, err) == (2, "", "crexlab: --reps, --seed cannot be used with --config\n")
        code, out, err = run(
            capsys, ["simulate", "--protocol", "exp", "--m", "2", "--bias-convention",
                     "estimate-minus-truth", "--l", "2", "--reps", "2"]
        )
        message = "--m, --l, --bias-convention cannot be used with --protocol"
        assert (code, out, err) == (2, "", f"crexlab: {message}\n")

    @pytest.mark.parametrize("flag", ["--config", *GRID_FLAGS, "--out"])
    def test_input_rejects_every_grid_flag_and_out(self, capsys, tmp_path, flag):
        # --input read none of them and exited 0: a grid flag or --config
        # was dropped, and --out wrote no file
        path = tmp_path / "rows.csv"
        assert run(capsys, self.BASE + ["--seed", "3", "--out", str(path)])[0] == 0
        value = {"--config": "cfg.json", "--out": "o.csv"}.get(flag) or self.GRID_FLAGS[flag]
        code, out, err = run(capsys, ["simulate", "--input", str(path), flag, value])
        assert (code, out, err) == (2, "", f"crexlab: {flag} cannot be used with --input\n")

    def test_input_names_every_unread_flag(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        assert run(capsys, self.BASE + ["--seed", "3", "--out", str(path)])[0] == 0
        argv = ["simulate", "--input", str(path), "--seed", "9", "--reps", "7",
                "--protocol", "exp", "--out", str(tmp_path / "o.csv")]
        message = "--protocol, --reps, --seed, --out cannot be used with --input"
        assert run(capsys, argv) == (2, "", f"crexlab: {message}\n")
        assert not (tmp_path / "o.csv").exists()

    def test_dist_rejects_sides(self, capsys):
        argv = ["simulate", "--dist", "exp:rate=1", "--sides", "order", "--reps", "2"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "crexlab: --sides cannot be used with --dist\n")

    def test_each_source_keeps_the_flags_it_reads(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "rows.csv"
        argv = ["simulate", "--config", config_path, "--threads", "2", "--out", str(out_path)]
        assert run(capsys, argv)[0] == 0
        assert [(row.reps, row.seed) for row in rows_from_csv(out_path.read_text())] == [(3, 5)]
        argv = ["simulate", "--protocol", "exp", "--sides", "spacing", "--reps", "2",
                "--seed", "7", "--threads", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert {(row.reps, row.seed) for row in rows_from_csv(out)} == {(2, 7)}

    def test_non_integer_threads_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CREXLAB_THREADS", "many")
        code, out, err = run(capsys, self.BASE + ["--seed", "7"])
        assert code == 2
        assert "CREXLAB_THREADS" in err and out == ""


# JSON values with every integer small, so no drawn config can ask for a large grid
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 7) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_SMALL_INTS = st.lists(st.integers(-1, 4), max_size=3)
_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "distribution": st.sampled_from(
            ["exp:rate=1", "unif:a=0,b=1", "powerbeta:alpha=2", "finite:a=2,b=3",
             "exp:rate=1,rate=2", "unif:a=-1,b=1"]
        ) | _JSON,
        "m": _SMALL_INTS | _JSON,
        "l": _SMALL_INTS | _JSON,
        "estimators": st.lists(
            st.sampled_from(["vn", "rn", "rmn", "lstat", "lstat_adj", "rmn:w=0"]), max_size=4
        ) | _JSON,
        "w": st.dictionaries(
            st.sampled_from(["rmn", "lstat_adj", "vn"]),
            _SMALL_INTS | st.dictionaries(st.sampled_from(["1", "2", "3", "x"]), _SMALL_INTS),
            max_size=2,
        ) | _JSON,
        "psi_family": st.sampled_from(["exp", "unif", "beta"]) | _JSON,
        "replications": st.integers(-1, 3) | _JSON,
        "seed": st.integers(-2, 2**70) | _JSON,
        "bias_convention": st.sampled_from(["truth-minus-estimate", "estimate-minus-truth"])
        | _JSON,
        "junk": _JSON,
    },
)


@settings(deadline=None, max_examples=60)
@given(raw=_CONFIG | _JSON)
def test_any_json_config_exits_0_2_or_4(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "property-config.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main is what ends the command line in exit 1
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(path)])
    assert code in (0, 2, 4)
    assert "Traceback" not in err.getvalue()


class TestDiscriminate:
    def test_designs_uniform(self, capsys):
        code, out, _ = run(
            capsys,
            ["discriminate", "--dist", "unif:a=0,b=1", "--mode", "designs", "--m", "2"],
        )
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(1.0 / 120.0, abs=1e-6)

    def test_min_vs_parent_i1_is_zero(self, capsys):
        code, out, _ = run(capsys, ["discriminate", "--dist", "exp:rate=1", "--i", "1"])
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    def test_min_vs_parent_i1_prints_unsigned_zero(self, capsys, method):
        code, out, _ = run(
            capsys, ["discriminate", "--dist", "exp:rate=1", "--i", "1", "--method", method]
        )
        assert code == 0
        label = "closed-form" if method == "closed" else method
        assert out == f"{'d[min-vs-parent,i=1]':<28} {'0':>16} {label}\n"

    def test_min_vs_parent_without_i_exits_2(self, capsys):
        code, out, err = run(capsys, ["discriminate", "--dist", "exp:rate=1"])
        assert (code, out, err) == (2, "", "crexlab: --mode min-vs-parent requires --i\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mode", "designs", "--m", "2", "--i", "5"], "--i cannot be used with --mode designs"),
            (["--i", "2", "--m", "3"], "--m cannot be used with --mode min-vs-parent"),
            (["--mode", "min-vs-parent", "--i", "2", "--m", "3"],
             "--m cannot be used with --mode min-vs-parent"),
        ],
        ids=["i-under-designs", "m-under-default-mode", "m-under-min-vs-parent"],
    )
    def test_flag_of_the_other_mode_exits_2(self, capsys, argv, message):
        # the flag was not read: --mode designs printed d[designs,m=2]
        code, out, err = run(capsys, ["discriminate", "--dist", "exp:rate=1", *argv])
        assert (code, out, err) == (2, "", f"crexlab: {message}\n")

    def test_set_size_past_the_float_range_exits_2(self, capsys):
        # this printed an OverflowError traceback
        argv = ["discriminate", "--dist", "exp:rate=1", "--i", str(10**400)]
        code, out, err = run(capsys, argv)
        message = "set size must be at most 1.79769e+308, got a 1329-bit integer"
        assert (code, out, err) == (2, "", f"crexlab: {message}\n")

    def test_min_vs_parent_exponential(self, capsys):
        code, out, _ = run(capsys, ["discriminate", "--dist", "exp:rate=1", "--i", "2"])
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(1.0 / 24.0, abs=1e-6)

    def test_missing_mode_argument_exits_2(self, capsys):
        code, _, _ = run(
            capsys, ["discriminate", "--dist", "exp:rate=1", "--mode", "designs"]
        )
        assert code == 2


class TestCalibrate:
    def test_reports_best_fit_and_residual(self, capsys):
        code, out, _ = run(
            capsys,
            ["calibrate", "--dist-grid", "exp:rate=0.5", "exp:rate=1",
             "--estimator", "rmn:w=-2", "--m", "2", "--l", "2",
             "--target-bias", "0.321", "--target-rmse", "0.407",
             "--reps", "40", "--seed", "6"],
        )
        assert code == 0
        assert "best fit:" in out
        assert "residual=" in out
        assert "truth-minus-estimate" in out and "estimate-minus-truth" in out


README_CALIBRATE = [
    "calibrate", "--dist-grid", "exp:rate=0.25", "exp:rate=0.5", "exp:rate=1",
    "--estimator", "rmn:w=-2", "--m", "2", "--l", "2",
    "--target-bias", "0.321", "--target-rmse", "0.407",
]

# every value-printing command: each design with and without an age by
# both routes, both discrimination modes by both routes, both estimate
# sources and the README calibrate example
VALUE_CALLS = [
    *(
        ["measure", "--dist", "exp:rate=1", "--design", design,
         *(() if design == "single" else ("--m", "2")), *age, "--method", method]
        for design in ("single", "srs", "minrssu", "dynamic")
        for age in ((), ("--t", "0.5"))
        for method in ("closed", "quadrature")
    ),
    ["measure", "--dist", "exp:rate=1", "--design", "dynamic", "--m", "12",
     "--t", "0.9999999999999999", "--method", "quadrature"],
    ["measure", "--dist", "unif:a=0,b=1", "--design", "minrssu", "--m", "3", "--raw"],
    ["estimate", "--estimator", "vn", "--values", "0.3,1.2,0.7,2.5"],
    ["estimate", "--estimator", "rmn:w=0", "--draw", "exp:rate=1", "--m", "3", "--l", "2"],
    *(
        ["discriminate", "--dist", "unif:a=0,b=1", *mode, "--method", method]
        for mode in (("--mode", "min-vs-parent", "--i", "3"), ("--mode", "designs", "--m", "2"))
        for method in ("closed", "quadrature")
    ),
    README_CALIBRATE,
    [*README_CALIBRATE, "--raw"],
]


class TestValueReferee:
    """``tests/data/cli_values.txt`` holds the stdout and exit code of every VALUE_CALLS call."""

    def test_values_match_byte_for_byte(self, capsys):
        blocks = []
        for argv in VALUE_CALLS:
            code, out, _ = run(capsys, argv)
            blocks.append(f"$ crexlab {shlex.join(argv)}\n{out}[exit {code}]\n")
        assert "".join(blocks) == (DATA / "cli_values.txt").read_text()

    def test_readme_calibrate_example_is_pinned(self, capsys):
        # the CI golden step compares the entry point's output with this file
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        command = re.search(r"^crexlab calibrate .*?[^\\]$", readme, re.M | re.S).group()
        assert shlex.split(command.replace("\\\n", " "))[1:] == README_CALIBRATE
        code, out, _ = run(capsys, README_CALIBRATE)
        assert code == 0
        assert out == (DATA / "calibrate_readme.txt").read_text()


class TestHelp:
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["--help"], "help_main.txt"),
            (["measure", "--help"], "help_measure.txt"),
            (["estimate", "--help"], "help_estimate.txt"),
            (["simulate", "--help"], "help_simulate.txt"),
            (["discriminate", "--help"], "help_discriminate.txt"),
            (["calibrate", "--help"], "help_calibrate.txt"),
        ],
    )
    def test_golden_help(self, capsys, monkeypatch, argv, golden):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == (DATA / golden).read_text()

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys, [])
        assert code == 2
        assert "COMMAND" in out

    def test_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0
        assert out.startswith("crexlab ")


class TestChoices:
    @pytest.mark.parametrize(
        "option, dest, source",
        [
            ("--protocol", "protocol", list(PROTOCOL_DISTRIBUTIONS)),
            ("--psi-family", "psi_family", [f.value for f in PsiFamily]),
            ("--bias-convention", "bias_convention", [c.value for c in BiasConvention]),
        ],
    )
    def test_simulate_choices_are_the_library_values(self, capsys, option, dest, source):
        parser = build_parser()
        for value in source:
            assert getattr(parser.parse_args(["simulate", option, value]), dest) == value
        with pytest.raises(SystemExit) as info:
            parser.parse_args(["simulate", option, "bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(value) in err for value in source)

    def test_bias_convention_default_is_the_library_default(self):
        # the flag defaults to None, so that a given flag can be told from
        # its default, and the config built without it takes the library's
        args = build_parser().parse_args(["simulate", "--dist", "exp:rate=1", "--estimators", "rn"])
        assert args.bias_convention is None
        config = _config_from_flags(args)
        assert config.bias_convention is BiasConvention.TRUTH_MINUS_ESTIMATE


class TestStartup:
    @staticmethod
    def modules_after(code, prefix="scipy"):
        """Package ``prefix`` and its modules, loaded by ``code`` in a new interpreter."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        found = f"[m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})]"
        code += f"; import sys; print({found})"
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip().splitlines()[-1]

    def test_import_leaves_scipy_unloaded(self):
        # scipy is a test dependency only; it would be most of the import time
        assert self.modules_after("import crexlab") == "[]"

    def test_beta_protocol_grid_leaves_scipy_unloaded(self):
        # Beta(2, 1) at age 0 and integer powers is the exact closed form
        code = "from crexlab import protocol_config, run_grid; run_grid(protocol_config('beta', 2))"
        assert self.modules_after(code) == "[]"

    def test_closed_powerbeta_measure_leaves_scipy_unloaded(self):
        argv = ["measure", "--dist", "powerbeta:alpha=2", "--design", "minrssu", "--m", "5"]
        code = f"from crexlab.cli import main; assert main({argv!r}) == 0"
        assert self.modules_after(code) == "[]"

    @pytest.mark.parametrize(
        "code",
        [
            "from crexlab.cli import main; assert main(['measure', '--dist', 'powerbeta:alpha=2',"
            " '--design', 'minrssu', '--m', '5', '--t', '0.5']) == 0",
            # a non-integer power also reads the Gamma ratio, at age 0 and past it
            "from crexlab import PowerBeta; [PowerBeta(0.7).survival_power_integral(7.5, t)"
            " for t in (0.0, 0.5)]",
        ],
        ids=["measure", "non-integer-power"],
    )
    def test_powerbeta_measure_at_an_age_leaves_scipy_unloaded(self, code):
        # past age 0 the tail is an incomplete beta function, computed by a
        # continued fraction in Python floats
        assert self.modules_after(code) == "[]"

    def test_import_leaves_numpy_random_unloaded(self):
        # every draw resets numpy's C Philox; each thread makes its generator
        # on its first draw, so the import does not pay about 12 ms for it
        assert self.modules_after("import crexlab", "numpy.random") == "[]"

    def test_quadrature_measure_leaves_scipy_unloaded(self):
        # the 1-D quadrature is numpy: scipy.integrate never loads
        argv = ["measure", "--dist", "exp:rate=1", "--design", "minrssu", "--m", "5",
                "--method", "quadrature"]
        code = f"from crexlab.cli import main; assert main({argv!r}) == 0"
        assert self.modules_after(code) == "[]"

    def test_protocol_grid_leaves_numpy_ma_unloaded(self):
        # numpy.ma takes about 14 ms to import, which np.unique, for one, pays
        code = "from crexlab import protocol_config, run_grid; run_grid(protocol_config('exp', 2))"
        assert self.modules_after(code, "numpy.ma") == "[]"
