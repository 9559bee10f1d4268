"""Flat, versioned analysis reports.

A report is a single-level mapping of dotted string keys to JSON scalars,
so any language can parse it without a schema library.  Floats are stored
at full precision (shortest round-trip representation), which makes
reload-and-recompute bit-exact; every derived value in the report is
recomputable from the stored parameters with the model functions.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from . import __version__
from .fitting import FitResult
from .models import (
    DoubleExpParams,
    LinearParams,
    SingularityParams,
    ab_coefficients,
    alpha_to_gamma,
)
from .series import (
    DAYS_PER_MONTH,
    MONTHLY,
    YEAR_END,
    YEAR_MID,
    YEAR_START,
    YEARLY,
    PriceIndexSeries,
    epoch_from_time,
)

if TYPE_CHECKING:   # an annotation only: `hyperfit fit` does not import the Monte Carlo
    from .montecarlo import MCReport

FORMAT_VERSION = 1


class ReportError(ValueError):
    """A report file is missing or structurally invalid."""


@dataclass
class AnalysisReport:
    """Wrapper around the flat key-value mapping of one analysis."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReportError(f"not a valid report: {exc}") from exc
        if not isinstance(data, dict) or data.get("format") != FORMAT_VERSION:
            raise ReportError("not a valid report: wrong or missing format version")
        return cls(data=data)

    def format_text(self) -> str:
        """Stable human-readable rendering: aligned key: value lines."""
        width = max(len(k) for k in self.data)
        lines = [f"{k.ljust(width)} : {_fmt(self.data[k])}" for k in sorted(self.data)]
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def tc_label(tc: float, index: PriceIndexSeries) -> str:
    """Calendar presentation of a fitted critical time.

    Monthly series carry day precision (Year:Month:Day), yearly series a
    fractional year with two decimals.
    """
    if index.resolution == YEARLY:
        return f"{tc:.2f}"
    epoch = epoch_from_time(tc, index.t0)
    return f"{epoch.year:04d}:{epoch.month:02d}:{epoch.day:02d}"


def build_report(
    fit: FitResult,
    index: PriceIndexSeries,
    source: dict | None = None,
    mc: MCReport | None = None,
) -> AnalysisReport:
    """Assemble the flat report for one fit (and optionally one MC run)."""
    data: dict = {
        "format": FORMAT_VERSION,
        "software": f"hyperfit {__version__}",
        "model": fit.model,
        "series.resolution": index.resolution,
        "series.n_points": fit.n_points,
        "series.t0_label": index.t0.label(),
        "series.end_label": index.epochs[-1].label(),
        "fit.chi": float(fit.chi),
        "fit.chi_n_minus_k": float(fit.chi_n_minus_k),
        "fit.converged": bool(fit.converged),
        "fit.iterations": int(fit.iterations),
        "fit.objective": float(fit.objective),
        "fit.p0_pinned": bool(fit.p0_pinned),
    }
    for field in fields(fit.params):
        data[f"fit.{field.name}"] = float(getattr(fit.params, field.name))
    if index.resolution == MONTHLY:
        data["series.t0_ordinal"] = index.t0.ordinal()
        data["series.day_convention"] = index.t0.day_convention
        # Native monthly coordinates are days; a per-month reading of the
        # initial growth rate is the conventional presentation.
        data["fit.c0_per_month"] = float(fit.params.c0) * DAYS_PER_MONTH

    for key, value in (source or {}).items():
        data[f"input.{key}"] = value

    if isinstance(fit.params, SingularityParams):
        params = fit.params
        a_coeff, b_coeff = ab_coefficients(params)
        data["derived.gamma"] = alpha_to_gamma(params.alpha)
        data["derived.A"] = float(a_coeff)
        data["derived.B"] = float(b_coeff)
        data["derived.tc_label"] = tc_label(params.tc, index)

    if mc is not None:
        data["mc.di"] = float(mc.config.di)
        data["mc.m"] = int(mc.config.m)
        data["mc.seed"] = int(mc.config.seed)
        data["mc.threshold"] = float(mc.config.threshold)
        data["mc.accepted"] = bool(mc.accepted)
        data["mc.unreliable"] = bool(mc.unreliable)
        data["mc.n_nonconverged"] = int(mc.n_nonconverged)
        for kind, count in mc.outcome.items():
            data[f"mc.outcome.{kind}"] = int(count)
        data["mc.truncated_draws"] = int(mc.truncated_draws)
        data["mc.tc_skewness"] = float(mc.tc_skewness)
        data["mc.tc_excess_kurtosis"] = float(mc.tc_excess_kurtosis)
        data["mc.gaussian_ok"] = bool(mc.gaussian_ok)
        for name, st in mc.params.items():
            data[f"mc.mean.{name}"] = float(st.mean)
            data[f"mc.std.{name}"] = float(st.std)
            # JSON has no Infinity; an unbounded ratio (zero spread around a
            # displaced mean) is stored as null.
            data[f"mc.ratio.{name}"] = float(st.ratio) if st.ratio < float("inf") else None
            data[f"mc.param_accepted.{name}"] = bool(st.ratio < mc.config.threshold)
        data["mc.tc_uncertainty"] = float(mc.params["tc"].std)
        unit = "years" if index.resolution == YEARLY else "days"
        data["mc.tc_uncertainty_unit"] = unit

    return AnalysisReport(data=data)


#: The parameter class of each model; a report stores its fields as ``fit.<name>`` keys.
_PARAMS = {"linear": LinearParams, "doubleexp": DoubleExpParams, "singularity": SingularityParams}


def params_from_report(report: AnalysisReport):
    """Rebuild the fitted parameter object stored in a report.

    Checks what ``predict`` and ``curve`` read: every parameter is a finite
    number (``json`` reads NaN and Infinity, and true is no number), the
    resolution is yearly (also when absent) or monthly, a monthly report
    holds its first epoch's integer ordinal, and a yearly date's convention,
    if given, is start, mid or end.  Anything else raises ReportError; a
    value outside the model's domain still raises ModelDomainError.
    """
    d = report.data
    resolution = d.get("series.resolution", YEARLY)
    if resolution not in (YEARLY, MONTHLY):
        raise ReportError(f"unknown series.resolution {resolution!r} in report")
    if resolution == MONTHLY and type(d.get("series.t0_ordinal")) is not int:
        raise ReportError("monthly report needs an integer series.t0_ordinal, "
                          f"got {d.get('series.t0_ordinal')!r}")
    convention = d.get("input.year_convention", YEAR_START)
    if convention not in (YEAR_START, YEAR_MID, YEAR_END):
        raise ReportError(f"unknown input.year_convention {convention!r} in report")
    model = d.get("model")
    if not isinstance(model, str) or model not in _PARAMS:
        raise ReportError(f"unknown model {model!r} in report")
    cls = _PARAMS[model]
    values = {}
    for field in fields(cls):
        value = d.get(f"fit.{field.name}")
        # NaN, Infinity and ints beyond the float range all fail the bound.
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ReportError(f"report needs a finite number at fit.{field.name}, got {value!r}")
        values[field.name] = float(value)
    return cls(**values)
