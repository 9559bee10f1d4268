"""Command-line interface.

Subcommands:

* ``fit``      fit one model to a CSV series and emit an analysis report
* ``mc``       fit, then propagate a relative rate error by resampling
* ``curve``    tabulate a fitted curve (log price, price, growth rate,
               doubling time) as plot-ready CSV
* ``predict``  evaluate the fitted price index at a target date

Exit codes: 0 success (a non-converged fit is reported, not fatal),
2 file or format problems, 3 model/fit domain errors.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import replace
from datetime import date as _date
from pathlib import Path

import numpy as np

from . import __version__
from .fitting import (
    FitConfig,
    FitError,
    fit_double_exp,
    fit_linear,
    fit_singularity,
)
from .models import (
    MODEL_PARAMS,
    ModelDomainError,
    SingularityParams,
    doubling_time,
    evaluate,
    growth_rate_curve,
)
from .report import AnalysisReport, ReportError, build_report, params_from_report
from .series import (
    DAYS_PER_MONTH,
    DAYS_PER_YEAR,
    MONTHLY,
    YEARLY,
    Epoch,
    InflationSeries,
    LoadError,
    SeriesError,
    build_price_index,
    date_to_time,
    load_series,
    slice_window,
)

#: The fitter of each model, by its name in ``models.MODEL_PARAMS``.
_FITTERS = {"linear": fit_linear, "doubleexp": fit_double_exp, "singularity": fit_singularity}


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="CSV file with date,value rows")
    p.add_argument("--kind", choices=["rate", "index"], default="rate",
                   help="value column holds inflation rates or a price index")
    p.add_argument("--units", choices=["fraction", "percent"], default="fraction")
    p.add_argument("--day-convention", choices=["mid", "end"], default="mid",
                   help="day of month assigned to monthly epochs")
    p.add_argument("--year-convention", choices=["start", "mid", "end"], default="start",
                   help="instant of the year a yearly value refers to")
    p.add_argument("--window", metavar="FROM:TO",
                   help="restrict to epochs between FROM and TO (inclusive)")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pin-p0", action="store_true",
                   help="pin p0 to the observed ln P(t0) instead of fitting it")
    p.add_argument("--out", type=Path, help="write the machine-readable report here")


def _parse_window(text: str | None, day_convention: str):
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
    except ValueError as exc:
        raise LoadError(f"bad window {text!r}, expected FROM:TO") from exc
    start = Epoch.parse(lo, day_convention) if lo else None
    end = Epoch.parse(hi, day_convention) if hi else None
    return start, end


def _load_index(args):
    series = load_series(args.input, kind=args.kind, units=args.units,
                         day_convention=args.day_convention)
    window = _parse_window(args.window, args.day_convention)
    if window is not None:
        series = slice_window(series, *window)
    if isinstance(series, InflationSeries):
        return series, build_price_index(series)
    return None, series


def _source_meta(args) -> dict:
    return {
        "path": str(args.input),
        "kind": args.kind,
        "units": args.units,
        "day_convention": args.day_convention,
        "year_convention": args.year_convention,
        "window": args.window or "",
    }


def _emit(report: AnalysisReport, out: Path | None) -> None:
    sys.stdout.write(report.format_text())
    if out is not None:
        out.write_text(report.to_json(), encoding="utf-8")


def _cmd_fit(args) -> int:
    if args.pin_p0 and args.model != "singularity":
        raise LoadError(f"--pin-p0 applies to --model singularity only; "
                        f"the {args.model} fit always fits p0")
    _, index = _load_index(args)
    config = FitConfig(pin_p0=args.pin_p0)
    fit = _FITTERS[args.model](index, config=config)
    _emit(build_report(fit, index, source=_source_meta(args)), args.out)
    return 0


def _parse_sweep(text: str) -> tuple[float, ...]:
    """Percent range FROM:TO:STEP, inclusive of TO when it falls on a step."""
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise LoadError(f"bad sweep {text!r}, expected FROM:TO:STEP in percent") from exc
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
        raise LoadError(f"bad sweep range {text!r}")
    values = np.arange(lo, hi + step / 2.0, step)
    return tuple(float(v) / 100.0 for v in values)


def _cmd_mc(args) -> int:
    from .montecarlo import MCConfig, run_mc, sweep_error   # `fit` never samples

    # Check every argument before any loading or fitting.
    if args.kind != "rate":
        raise LoadError("mc needs --kind rate: the resampling error model "
                        "is defined on measured inflation rates")
    sweep = None
    if args.sweep:
        if args.sweep_out is None:
            raise LoadError("--sweep requires --sweep-out FILE")
        sweep = _parse_sweep(args.sweep)
    sweep_m = args.m if args.sweep_m is None else args.sweep_m
    try:
        seed = args.seed if args.seed is not None else int(os.environ.get("HYPERFIT_SEED", "0"))
        mc_config = MCConfig(di=args.di, m=args.m, seed=seed,
                             threshold=args.threshold, workers=args.workers)
        for di in sweep or ():
            replace(mc_config, di=di, m=sweep_m)
    except ValueError as exc:
        raise LoadError(f"bad mc argument or HYPERFIT_SEED: {exc}") from exc
    if sweep is None and (args.sweep_out is not None or args.sweep_m is not None):
        raise LoadError("--sweep-out and --sweep-m apply only with --sweep FROM:TO:STEP")
    rates, index = _load_index(args)
    mc = run_mc(rates, FitConfig(pin_p0=args.pin_p0), mc_config)
    _emit(build_report(mc.direct, index, source=_source_meta(args), mc=mc), args.out)

    if sweep is not None:
        # At --di and --m the sweep's run is the main run: the same seed, the
        # same refits.  Only the threshold may differ, and no column reads it.
        main_di = args.di if sweep_m == args.m else None
        runs = iter(sweep_error(rates, di_values=[di for di in sweep if di != main_di],
                                m=sweep_m, seed=seed, direct=mc.direct))
        lines = ["di_pct,std_tc,std_alpha,std_c0,std_p0,sd_tc_rel_pct,sd_gamma_rel_pct"]
        for di in sweep:
            r = mc if di == main_di else next(runs)
            lines.append(",".join(map(repr, [
                di * 100.0, *(r.params[k].std for k in ("tc", "alpha", "c0", "p0")),
                r.sd_tc_rel_pct, r.sd_gamma_rel_pct])))
        args.sweep_out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _params_from_args(args):
    """The curve's parameters and resolution, from ``--report`` or from ``--param``."""
    if args.report is not None:
        report = AnalysisReport.from_json(Path(args.report).read_text(encoding="utf-8"))
        return params_from_report(report), report.data.get("series.resolution", YEARLY)
    if not args.param:
        raise LoadError("curve needs --report FILE or --model with --param NAME=VALUE")
    values = {}
    for item in args.param:
        try:
            name, raw = item.split("=", 1)
            values[name] = float(raw)
        except ValueError as exc:
            raise LoadError(f"bad --param {item!r}, expected NAME=VALUE") from exc
    data = {"format": 1, "model": args.model, **{f"fit.{k}": v for k, v in values.items()}}
    return params_from_report(AnalysisReport(data=data)), args.resolution


def _cmd_curve(args) -> int:
    if args.points < 1:
        raise LoadError(f"--points must be >= 1, got {args.points}")
    for flag, value in (("--from", args.t_from), ("--to", args.t_to)):
        if not math.isfinite(value):
            raise LoadError(f"{flag} must be finite, got {value}")
    params, resolution = _params_from_args(args)
    dt = 1.0 if resolution == YEARLY else DAYS_PER_MONTH

    t = np.linspace(args.t_from, args.t_to, args.points)
    if isinstance(params, SingularityParams):
        keep = t < params.tc
        if not np.all(keep):
            print(
                f"warning: clipped {int((~keep).sum())} points at or beyond "
                f"the singularity (tc = {params.tc})",
                file=sys.stderr,
            )
            t = t[keep]
        if t.size == 0:
            raise ModelDomainError("requested range lies entirely at or beyond tc")

    if args.quantity in ("rate", "tau2") and not isinstance(params, SingularityParams):
        kind = "growth-rate" if args.quantity == "rate" else "doubling-time"
        raise ModelDomainError(f"{kind} curves need a singularity model")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        if args.quantity in ("logprice", "price"):
            values = evaluate(params, t)
            if args.quantity == "price":
                values = np.exp(values)
        elif args.quantity == "rate":
            values = growth_rate_curve(params, dt, t)
        else:  # tau2
            values = doubling_time(params, t)
    bad = ~np.isfinite(values)
    if bad.any():
        first = int(np.argmax(bad))
        raise ModelDomainError(f"the {args.quantity} at t = {float(t[first])!r} "
                               f"({float(values[first])!r}) is not a finite number")

    lines = ["t,value"] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(t, values)]
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _parse_target_date(text: str, resolution: str, report_data: dict) -> float:
    """Map a target date onto the report's continuous time axis."""
    if resolution == YEARLY:
        parts = text.split("-")
        try:
            if len(parts) == 1:
                return float(int(parts[0]))
            y, m, d = (int(v) for v in parts)   # other part counts fail to unpack
            convention = report_data.get("input.year_convention", "start")
            return date_to_time(_date(y, m, d), convention)
        except ValueError as exc:               # also a calendar date out of range
            raise LoadError(f"bad yearly date {text!r}, expected YYYY or YYYY-MM-DD") from exc
    day_convention = report_data.get("series.day_convention", "mid")
    epoch = Epoch.parse(text, day_convention)
    if epoch.resolution == YEARLY:
        raise LoadError(f"monthly report needs YYYY-MM or YYYY-MM-DD, got {text!r}")
    return float(epoch.ordinal() - report_data["series.t0_ordinal"])


def _cmd_predict(args) -> int:
    report = AnalysisReport.from_json(Path(args.report).read_text(encoding="utf-8"))
    params = params_from_report(report)
    resolution = report.data.get("series.resolution", YEARLY)
    t = _parse_target_date(args.date, resolution, report.data)
    one_year = 1.0 if resolution == YEARLY else DAYS_PER_YEAR
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
        price = float(np.exp(evaluate(params, t)))
        prior = float(np.exp(evaluate(params, t - one_year)))
    if not (0.0 < price < math.inf and 0.0 < prior < math.inf):
        raise ModelDomainError(f"the price index at {args.date} ({price!r}) or a year before "
                               f"it ({prior!r}) is not a finite positive number")
    yoy_pct = 100.0 * (price / prior - 1.0)
    sys.stdout.write(f"t : {repr(float(t))}\n")
    sys.stdout.write(f"price_index : {repr(price)}\n")
    sys.stdout.write(f"yoy_inflation_pct : {repr(yoy_pct)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfit",
        description="Fit hyperinflation price-index models and estimate the "
                    "critical crash date with Monte Carlo uncertainties.",
    )
    parser.add_argument("--version", action="version", version=f"hyperfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model and print a report")
    _add_input_flags(p_fit)
    p_fit.add_argument("--model", choices=sorted(MODEL_PARAMS), default="singularity")
    _add_fit_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_mc = sub.add_parser("mc", help="fit, then resample rates to estimate uncertainties")
    _add_input_flags(p_mc)
    _add_fit_flags(p_mc)
    p_mc.add_argument("--di", type=float, default=0.25,
                      help="relative rate error as a fraction (default 0.25)")
    p_mc.add_argument("--m", type=int, default=4000, help="number of generations")
    p_mc.add_argument("--seed", type=int, default=None,
                      help="master seed (default: HYPERFIT_SEED or 0)")
    p_mc.add_argument("--threshold", type=float, default=0.1,
                      help="acceptance threshold on |mean - direct| / std")
    p_mc.add_argument("--workers", type=int, default=1,
                      help="accepted for compatibility and ignored: generations are "
                           "refitted in one process, so results are identical for any "
                           "value >= 1")
    p_mc.add_argument("--sweep", metavar="FROM:TO:STEP",
                      help="also sweep the relative error over this percent range")
    p_mc.add_argument("--sweep-m", type=int, default=None,
                      help="generations per sweep point (default: --m)")
    p_mc.add_argument("--sweep-out", type=Path, help="CSV output for the sweep table")
    p_mc.set_defaults(func=_cmd_mc)

    p_curve = sub.add_parser("curve", help="tabulate a fitted curve as CSV")
    p_curve.add_argument("--report", help="report JSON produced by fit/mc")
    p_curve.add_argument("--model", choices=sorted(MODEL_PARAMS), default="singularity",
                         help="model for explicit --param input")
    p_curve.add_argument("--param", action="append", metavar="NAME=VALUE",
                         help="explicit parameter instead of --report (repeatable)")
    p_curve.add_argument("--resolution", choices=[YEARLY, MONTHLY], default=YEARLY,
                         help="time units for explicit --param input")
    p_curve.add_argument("--quantity", choices=["logprice", "price", "rate", "tau2"],
                         default="logprice")
    p_curve.add_argument("--from", dest="t_from", type=float, required=True,
                         help="start of the time grid (continuous coordinates)")
    p_curve.add_argument("--to", dest="t_to", type=float, required=True)
    p_curve.add_argument("--points", type=int, default=200)
    p_curve.add_argument("--out", type=Path, required=True)
    p_curve.set_defaults(func=_cmd_curve)

    p_pred = sub.add_parser("predict", help="evaluate the fitted price index at a date")
    p_pred.add_argument("--report", required=True, help="report JSON produced by fit/mc")
    p_pred.add_argument("--date", required=True,
                        help="target date: YYYY, YYYY-MM or YYYY-MM-DD")
    p_pred.set_defaults(func=_cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeriesError, ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, ModelDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def script() -> None:
    """Entry point of the ``hyperfit`` script and of ``python -m hyperfit.cli``.

    Every output is written and closed inside ``main``.  Freezing the
    collector before exit spares the interpreter's final collection passes
    over every import-time object: a ``fit`` process then exits in about
    7 ms instead of 27 ms on a 2-vCPU VM (``benches/cli_layers.py``).
    Objects are still freed by reference counting, and atexit handlers
    still run.  ``main`` leaves the collector alone for in-process callers.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    script()
