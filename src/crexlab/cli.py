"""Command-line front end.

Subcommands
-----------
measure       evaluate the cumulative residual measure (single value,
              design level, or residual-lifetime variant)
estimate      run an estimator on a sample (from CSV, inline values, or a
              freshly drawn seeded sample)
simulate      run the Monte Carlo benchmark grid and emit CSV rows
discriminate  evaluate the design discrimination measures
calibrate     scan candidate distributions against a target (bias, RMSE)

Exit codes: 0 ok, 2 usage/config error (a file that cannot be opened,
read or decoded included), 3 numeric divergence, 4 partial grid
failure.  ``simulate --threads`` and the environment variable
``CREXLAB_THREADS`` are accepted and ignored (cells run one after
another); a non-integer ``CREXLAB_THREADS`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .discrimination import d_designs, d_min_vs_parent
from .distributions import _number_text, parse_distribution
from .errors import CrexlabError, DivergenceError, DomainError, SpecParseError, check_count
from .estimators import EstimatorSpec, PsiFamily, estimate as run_estimator
from .measures import (
    crex,
    crex_minrssu_design,
    crex_srs_design,
    dynamic_crex,
    dynamic_crex_designs,
)
from .sampling import draw_minrssu, sample_from_csv, sample_to_csv, MinRssuSample
from .simulation import (
    DEFAULT_SEED,
    PROTOCOL_DISTRIBUTIONS,
    BiasConvention,
    SimulationConfig,
    calibrate_parameter,
    protocol_config,
    replication_rng,
    rows_from_csv,
    rows_to_csv,
    run_grid,
)

USAGE_EXIT = 2
DIVERGENCE_EXIT = 3
PARTIAL_FAILURE_EXIT = 4


def _fmt(value, args):
    if getattr(args, "raw", False):
        return repr(float(value))
    return f"{float(value):.{args.precision}g}"


def _print_rows(rows):
    """Print text rows ``(label, value, *rest)``, a header row included.

    The label is left-aligned in a column as wide as the longest label
    and never narrower than 28, the value right-aligned in 16, and the
    rest follow, one space apart.
    """
    width = max(28, *(len(row[0]) for row in rows))
    for label, value, *rest in rows:
        print(f"{label:<{width}} {value:>16}", *rest)


def cmd_measure(args):
    dist, design, method = parse_distribution(args.dist), args.design, args.method
    m = 1 if args.m is None else args.m
    if design == "dynamic" and args.t is None:
        raise SpecParseError("--design dynamic requires --t")
    age = None if args.t is None else f"t={_number_text(args.t)}"
    if design == "single":
        _reject_unread(args, "--design single", ("m",))
        rows = [(f"dynamic_crex[{age}]", dynamic_crex(dist, args.t, method=method)) if age
                else ("crex", crex(dist, method=method))]
    elif age:
        # a design pair at an age, of which --design minrssu or srs keeps one
        pair = dynamic_crex_designs(dist, m, args.t, method=method)
        rows = [(f"dynamic_crex[{name},m={m},{age}]", cv)
                for name, cv in zip(("minrssu", "srs"), pair) if design in ("dynamic", name)]
    else:
        measure = crex_minrssu_design if design == "minrssu" else crex_srs_design
        rows = [(f"crex[{design},m={m}]", measure(dist, m, method=method))]
    _print_rows([
        ("measure", "value", f"{'method':<12}", f"{'abs_error_bound':>16}"),
        *((label, _fmt(cv.value, args), f"{cv.method.value:<12}",
           f"{_fmt(cv.abs_error_bound, args):>16}") for label, cv in rows),
    ])
    return 0


def _parse_list(text, label, convert=int):
    """The non-blank entries of a comma list, each converted by ``convert``; None for None."""
    if text is None:
        return None
    try:
        return tuple(convert(v) for v in str(text).split(",") if v.strip() != "")
    except ValueError:
        raise SpecParseError(f"bad {label} list: {text!r}") from None


# the flags that only --draw reads
_DRAW_FLAGS = ("m", "l", "seed")


def _load_estimate_data(args):
    sources = sum(x is not None for x in (args.input, args.values, args.draw))
    if sources != 1:
        raise SpecParseError("choose exactly one of --input, --values, --draw")
    if args.input is not None:
        _reject_unread(args, "--input", _DRAW_FLAGS)
        with open(args.input, newline="") as fh:
            sample = sample_from_csv(fh)
    elif args.values is not None:
        _reject_unread(args, "--values", _DRAW_FLAGS)
        vals = np.array(_parse_list(args.values, "--values", float))
        if vals.size == 0:
            raise SpecParseError("--values is empty")
        sample = MinRssuSample(m=1, l=vals.size, values=vals.reshape(-1, 1))
    else:
        draw = {"m": 2, "l": 2, "seed": DEFAULT_SEED} | _given(m=args.m, l=args.l, seed=args.seed)
        sample = draw_minrssu(args.draw, draw["m"], draw["l"], replication_rng(draw["seed"], 0, 0))
    if args.save is not None:
        with open(args.save, "w", newline="") as fh:
            sample_to_csv(sample, fh)
    return sample


def cmd_estimate(args):
    spec = EstimatorSpec.parse(args.estimator)
    value = run_estimator(spec, _load_estimate_data(args))
    _print_rows([(spec.text(), _fmt(value, args))])
    return 0


# JSON config key -> SimulationConfig field; absent keys keep the field default
_CONFIG_FIELDS = {
    "distribution": "distribution",
    "m": "m_values",
    "l": "l_values",
    "estimators": "estimators",
    "w": "w_lists",
    "psi_family": "psi_family",
    "replications": "replications",
    "seed": "base_seed",
    "bias_convention": "bias_convention",
}


def _config_from_json(path):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"bad JSON config: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecParseError("JSON config must be an object")
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise SpecParseError(f"unknown config keys: {sorted(unknown)}")
    if "distribution" not in raw:
        raise SpecParseError("config missing key: 'distribution'")
    fields = {_CONFIG_FIELDS[key]: value for key, value in raw.items()}
    try:
        if "w" in raw:
            # JSON object keys are strings; per-m w lists are keyed by int m
            fields["w_lists"] = {
                kind: {int(m): v for m, v in entry.items()} if isinstance(entry, dict) else entry
                for kind, entry in dict(raw["w"] or {}).items()
            }
        return SimulationConfig(**fields)
    except CrexlabError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad config: {exc}") from None


def _reject_unread(args, source, dests):
    """Raise SpecParseError naming each flag of ``dests`` given with ``source``, which ignores it.

    A flag is named by its argparse dest, and a flag left out is None.
    """
    given = [f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) is not None]
    if given:
        raise SpecParseError(f"{', '.join(given)} cannot be used with {source}")


def _given(**fields):
    """The ``fields`` whose flag was given; the rest keep the library's defaults."""
    return {name: value for name, value in fields.items() if value is not None}


# the grid flags that --dist reads and --protocol does not
_LAW_FLAGS = ("dist", "m", "l", "estimators", "w_rmn", "w_lstat_adj", "psi_family",
              "bias_convention")
# the grid flags that --config and --input read none of
_GRID_FLAGS = ("protocol", "sides", *_LAW_FLAGS, "reps", "seed")


def _config_from_flags(args):
    """The grid of ``--config``, ``--protocol`` or ``--dist``, the first given.

    A grid flag its source does not read is a SpecParseError.
    """
    if args.config is not None:
        _reject_unread(args, "--config", _GRID_FLAGS)
        return _config_from_json(args.config)
    if args.protocol is not None:
        _reject_unread(args, "--protocol", _LAW_FLAGS)
        return protocol_config(args.protocol, **_given(
            replications=args.reps,
            base_seed=args.seed,
            sides=_parse_list(args.sides, "--sides", str.strip),
        ))
    if args.dist is None:
        raise SpecParseError("simulate needs --config, --protocol, or --dist")
    _reject_unread(args, "--dist", ("sides",))
    w_lists = {}
    if args.w_rmn is not None:
        w_lists["rmn"] = _parse_list(args.w_rmn, "--w-rmn")
    if args.w_lstat_adj is not None:
        w_lists["lstat_adj"] = _parse_list(args.w_lstat_adj, "--w-lstat-adj")
    return SimulationConfig(args.dist, w_lists=w_lists, **_given(
        m_values=_parse_list(args.m, "--m"),
        l_values=_parse_list(args.l, "--l"),
        estimators=_parse_list(args.estimators, "--estimators", str.strip),
        psi_family=args.psi_family,
        replications=args.reps,
        base_seed=args.seed,
        bias_convention=args.bias_convention,
    ))


def _print_rows_summary(rows):
    print(f"{'estimator':<24} {'m':>2} {'l':>2} {'w':>4} {'bias':>12} {'rmse':>12}")
    for row in rows:
        w = "" if row.w is None else str(row.w)
        print(
            f"{row.estimator:<24} {row.m:>2} {row.l:>2} {w:>4} "
            f"{row.bias:>12.4f} {row.rmse:>12.4f}"
        )


def cmd_simulate(args):
    if args.input is not None:
        _reject_unread(args, "--input", ("config", *_GRID_FLAGS, "out"))
        with open(args.input, newline="") as fh:
            rows = rows_from_csv(fh)
        _print_rows_summary(rows)
        return 0
    result = run_grid(_config_from_flags(args), workers=args.threads)
    lines = []
    if args.seed is None and args.config is None:
        lines.append(f"# seed defaulted to {DEFAULT_SEED}")
    lines.append(rows_to_csv(result.rows))
    text = "\n".join(lines)
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for failure in result.failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    return PARTIAL_FAILURE_EXIT if result.failures else 0


def cmd_discriminate(args):
    dist = parse_distribution(args.dist)
    if args.mode == "min-vs-parent":
        if args.i is None:
            raise SpecParseError("--mode min-vs-parent requires --i")
        _reject_unread(args, "--mode min-vs-parent", ("m",))
        dv = d_min_vs_parent(dist, args.i, method=args.method)
        label = f"d[min-vs-parent,i={dv.i_or_m}]"
    else:
        if args.m is None:
            raise SpecParseError("--mode designs requires --m")
        _reject_unread(args, "--mode designs", ("i",))
        dv = d_designs(dist, args.m, method=args.method)
        label = f"d[designs,m={dv.i_or_m}]"
    _print_rows([(label, _fmt(dv.value, args), dv.method.value)])
    return 0


def cmd_calibrate(args):
    spec = EstimatorSpec.parse(args.estimator)
    result = calibrate_parameter(
        args.dist_grid,
        spec,
        args.m,
        args.l,
        (args.target_bias, args.target_rmse),
        replications=args.reps,
        base_seed=args.seed,
    )
    print(
        f"target: bias={args.target_bias:g} rmse={args.target_rmse:g} "
        f"(cell m={args.m}, l={args.l}, estimator {spec.text()})"
    )
    for entry in result.details:
        print(
            f"  candidate {entry['distribution']:<24} {entry['bias_convention']:<22} "
            f"bias={_fmt(entry['bias'], args):>12} rmse={_fmt(entry['rmse'], args):>12} "
            f"residual={_fmt(entry['residual'], args)}"
        )
    print(
        f"best fit: {result.spec_string} under {result.bias_convention.value} "
        f"(bias={_fmt(result.bias, args)}, rmse={_fmt(result.rmse, args)}, "
        f"residual={_fmt(result.residual, args)})"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crexlab",
        description="Cumulative residual extropy measures, estimators, and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"crexlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_output_flags(p):
        p.add_argument(
            "--precision", type=int, default=6, help="significant digits (default 6)"
        )
        p.add_argument(
            "--raw", action="store_true", help="print full-precision values"
        )

    p = sub.add_parser("measure", help="evaluate the cumulative residual measure")
    p.add_argument("--dist", required=True, help="distribution spec, e.g. exp:rate=1")
    p.add_argument(
        "--design",
        choices=("single", "srs", "minrssu", "dynamic"),
        default="single",
        help="evaluation level (default single)",
    )
    # left out, --m is None: --design single rejects it, and the designs take 1
    p.add_argument("--m", type=int, default=None, help="design size (default 1)")
    p.add_argument("--t", type=float, default=None, help="age for residual variants")
    p.add_argument(
        "--method",
        choices=("closed", "quadrature"),
        default="closed",
        help="evaluation route (default closed)",
    )
    add_output_flags(p)
    p.set_defaults(handler=cmd_measure)

    p = sub.add_parser("estimate", help="run an estimator on a sample")
    p.add_argument(
        "--estimator",
        required=True,
        help="estimator spec: vn | rn | rmn:w=-2 | lstat | lstat_adj:family=exp,w=0",
    )
    p.add_argument("--input", help="sample CSV (header cycle,set_size,value)")
    p.add_argument("--values", help="inline comma-separated values (treated as m=1)")
    p.add_argument("--draw", help="draw a fresh sample from this distribution spec")
    # left out, each is None: --input and --values reject them, and --draw
    # takes m = 2, l = 2 and DEFAULT_SEED
    p.add_argument("--m", type=int, default=None, help="sets per cycle for --draw")
    p.add_argument("--l", type=int, default=None, help="cycles for --draw")
    p.add_argument("--seed", type=int, default=None, help="seed for --draw")
    p.add_argument("--save", help="write the sample to this CSV file")
    add_output_flags(p)
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("simulate", help="run the Monte Carlo benchmark grid")
    # let w lists like "-2,-1,0,1" pass as option values, not option names
    p._negative_number_matcher = re.compile(r"^-\d+[\d,.\-]*$")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--protocol", choices=list(PROTOCOL_DISTRIBUTIONS), help="benchmark-table grid")
    # a grid flag left out defaults to None, and its grid takes the library's
    # default: SimulationConfig's, or protocol_config's under --protocol
    p.add_argument("--sides", help="protocol halves: spacing, order, or both (default)")
    p.add_argument("--dist", help="distribution spec")
    p.add_argument("--m", help="comma list of m values")
    p.add_argument("--l", help="comma list of l values")
    p.add_argument("--estimators", help="comma list of estimator kinds")
    p.add_argument("--w-rmn", dest="w_rmn", help="comma list of w values for rmn")
    p.add_argument(
        "--w-lstat-adj", dest="w_lstat_adj", help="comma list of w values for lstat_adj"
    )
    p.add_argument("--psi-family", dest="psi_family", choices=[f.value for f in PsiFamily])
    p.add_argument("--reps", type=int, help="replications per cell")
    p.add_argument("--seed", type=int, default=None, help=f"base seed (default {DEFAULT_SEED})")
    p.add_argument(
        "--bias-convention",
        dest="bias_convention",
        choices=[c.value for c in BiasConvention],
    )
    p.add_argument("--threads", type=int, default=None, help="ignored; cells run serially")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--input", help="reprint a previously emitted results CSV")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("discriminate", help="design discrimination measures")
    p.add_argument("--dist", required=True, help="distribution spec")
    p.add_argument(
        "--mode", choices=("min-vs-parent", "designs"), default="min-vs-parent"
    )
    p.add_argument("--i", type=int, default=None, help="set size for min-vs-parent")
    p.add_argument("--m", type=int, default=None, help="design size for designs mode")
    p.add_argument("--method", choices=("closed", "quadrature"), default="closed")
    add_output_flags(p)
    p.set_defaults(handler=cmd_discriminate)

    p = sub.add_parser("calibrate", help="fit a distribution to a target bias/RMSE")
    p.add_argument(
        "--dist-grid",
        dest="dist_grid",
        nargs="+",
        required=True,
        help="candidate distribution specs",
    )
    p.add_argument("--estimator", required=True, help="estimator spec for the cell")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--target-bias", dest="target_bias", type=float, required=True)
    p.add_argument("--target-rmse", dest="target_rmse", type=float, required=True)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_output_flags(p)
    p.set_defaults(handler=cmd_calibrate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return USAGE_EXIT
    try:
        if hasattr(args, "precision"):
            # a format spec reads its precision as a C int
            if args.precision > 2**31 - 1:
                raise DomainError(f"--precision must be at most {2**31 - 1}, got {args.precision}")
            check_count(args.precision, "--precision")
        return args.handler(args)
    except DivergenceError as exc:
        print(f"crexlab: divergence: {exc}", file=sys.stderr)
        return DIVERGENCE_EXIT
    # a file that cannot be opened, read or decoded is a usage error too
    except (CrexlabError, OSError, UnicodeDecodeError) as exc:
        print(f"crexlab: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
