"""Monte Carlo propagation of inflation-rate measurement error.

Each measured rate i(t_k) is treated as gaussian with mean i(t_k) and
standard deviation di * |i(t_k)| (the same relative error everywhere).
A generation is one full resample of the rate series; it is cumulated
into a price index and refitted to the singular model, and the parameter
means and standard deviations over all generations quantify the fit
uncertainty.  Results are accepted when every parameter's
|mean - direct| / std ratio stays below the configured threshold, i.e.
when resampling does not systematically displace the direct fit.

Determinism: generation j draws from a substream derived only from the
master seed and j (``SeedSequence(seed).spawn(m)[j]``), and all
aggregation is order-independent, so reports are bit-identical for a
fixed seed regardless of how the generations are chunked for execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import (
    FitConfig,
    FitError,
    FitResult,
    fit_singular_rows,
    fit_singularity,
    tc_search_window,
)
from .models import SingularityParams, alpha_to_gamma
from .series import InflationSeries, build_price_index, cumulate


@dataclass(frozen=True)
class MCConfig:
    """Settings for the resampling run.

    ``di`` is the relative rate error as a fraction (0.25 = 25 percent);
    the generation count must be large enough for the sample moments to
    match the assigned gaussian (a few thousand in practice).  ``workers``
    is accepted (and must be >= 1) but ignored: the refit runs in one
    process, in batches of a fixed size, and results never depend on it.
    """

    di: float = 0.25
    m: int = 4000
    seed: int = 0
    threshold: float = 0.1
    workers: int = 1
    max_nonconverged_frac: float = 0.05

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"generation count must be >= 1, got {self.m}")
        if self.di < 0:
            raise ValueError(f"relative error must be >= 0, got {self.di}")
        if not self.threshold > 0:
            raise ValueError(f"acceptance threshold must be > 0, got {self.threshold}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ParamStats:
    """Direct-fit value and resampled moments of one parameter."""

    direct: float
    mean: float
    std: float
    ratio: float          # |mean - direct| / std; 0 when std == 0 and mean == direct
    accepted: bool


@dataclass(frozen=True)
class MCReport:
    """Aggregated outcome of one resampling run around the ``direct`` fit.

    ``outcome`` puts every generation in one class, so its counts sum to m:
    ``converged_interior``; ``on_alpha_floor`` (converged with alpha on the
    lower bound of ``FitConfig.alpha_bounds``, kept in the moments at the
    bound); ``stalled`` (no convergence within ``max_iter`` rounds) and
    ``out_of_box`` (converged with tc beyond the search window or alpha
    above its upper bound), both excluded from the moments.
    ``n_nonconverged`` counts all but the converged-interior ones;
    ``unreliable`` is set when it exceeds ``max_nonconverged_frac`` of m.
    """

    di: float
    m: int
    seed: int
    threshold: float
    params: dict[str, ParamStats]        # tc, alpha, c0, p0, gamma
    accepted: bool                       # all of tc/alpha/c0/p0 below threshold
    n_nonconverged: int
    unreliable: bool
    truncated_draws: int
    tc_hist_edges: np.ndarray
    tc_hist_counts: np.ndarray
    tc_skewness: float
    tc_excess_kurtosis: float
    gaussian_ok: bool
    outcome: dict[str, int]
    direct: FitResult


@dataclass(frozen=True)
class SweepRow:
    """Standard deviations at one relative-error setting.

    Absolute stds per parameter, plus the relative (percent) standard
    deviations of the time to the singularity tc - t0 and of the growth
    exponent gamma, the two headline uncertainty measures.
    """

    di: float
    std_tc: float
    std_alpha: float
    std_c0: float
    std_p0: float
    sd_tc_rel_pct: float
    sd_gamma_rel_pct: float
    accepted: bool


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_MAX_REDRAW_ROUNDS = 10000


def _redraw(vals: np.ndarray, loc: np.ndarray, sd: np.ndarray,
            rng: np.random.Generator) -> int:
    """Redraw in place, as loc + sd * z, every value of vals at or below -1.

    Draws one standard normal per offending value, in index order, round
    after round until none is left; returns the number of redraws.
    """
    redraws = 0
    bad = vals <= -1.0
    rounds = 0
    while bad.any():
        count = int(bad.sum())
        redraws += count
        vals[bad] = loc[bad] + sd[bad] * rng.standard_normal(count)
        bad = vals <= -1.0
        rounds += 1
        if rounds > _MAX_REDRAW_ROUNDS:
            raise RuntimeError("rate resampling failed to stay above -1")
    return redraws


def _sample_rates(rates: np.ndarray, di: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One gaussian resample of a rate vector; redraws any value <= -1.

    The first rate has zero assigned error (it is zero by the loading
    convention), so it is reproduced exactly.  Returns the sample and the
    number of redraws forced by the i > -1 positivity requirement.
    ``rates + sd * z`` is bit for bit what ``rng.normal(rates, sd)`` draws.
    """
    sd = di * np.abs(rates)
    vals = rates + sd * rng.standard_normal(len(rates))
    return vals, _redraw(vals, rates, sd, rng)


def _draw_generations(rates: np.ndarray, di: float, children, out: np.ndarray) -> int:
    """Fill out (m, n) with one ``_sample_rates`` draw per seed child, in place.

    Row j is bit for bit ``_sample_rates(rates, di, default_rng(children[j]))``
    but the scaling runs once over the whole array.  Only rows with a value
    at or below -1 rebuild their generator, skip the n normals already used
    and redraw.  Returns the total number of redraws.
    """
    for row, child in zip(out, children):
        np.random.default_rng(child).standard_normal(out=row)
    sd = di * np.abs(rates)
    out *= sd
    out += rates
    truncated = 0
    for j in np.flatnonzero((out <= -1.0).any(axis=1)):
        rng = np.random.default_rng(children[j])
        rng.standard_normal(len(rates))
        truncated += _redraw(out[j], rates, sd, rng)
    return truncated


def sample_generation(
    rates: InflationSeries, di: float, rng: np.random.Generator
) -> InflationSeries:
    """Draw one generation of inflation rates from the assigned error model."""
    vals, _ = _sample_rates(rates.rates, di, rng)
    return InflationSeries(epochs=rates.epochs, rates=vals)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

#: Generations refitted per engine batch.  Rows do not interact, so results
#: do not depend on it; it only bounds the batch's working arrays.
_REFIT_CHUNK = 1024


def _refit_generations(p_data: np.ndarray, t: np.ndarray, direct: SingularityParams,
                       fit_config: FitConfig, chunk: int = _REFIT_CHUNK):
    """Refit every row of p_data from the direct fit; returns per-row arrays.

    tc and alpha are held at or above the lower edges of the box, as in the
    direct fit, but not bounded above: a generation that leaves the box is
    seen (and excluded), not clamped.  With ``fit_config.pin_p0`` every row
    keeps the direct fit's p0: the first rate carries no error, so all
    generations share the observed ln P(t0).
    """
    window = tc_search_window(t, fit_config)
    seed = (direct.tc, direct.alpha)
    pinned = direct.p0 if fit_config.pin_p0 else None
    m = p_data.shape[0]
    out = np.empty((6, m))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        params, ssr, converged, _ = fit_singular_rows(
            p_data[lo:hi], t, window, seed, fit_config, bounded_above=False, pinned_p0=pinned)
        out[:, lo:hi] = (*params, ssr, converged)
    tc, alpha, c0, p0, ssr, converged = out
    return tc, alpha, c0, p0, ssr, converged.astype(bool)


def _population_moments(x: np.ndarray) -> tuple[float, float]:
    """Mean and population std, summed as offsets from the first sample.

    Identical samples (every generation at di = 0) then give their common
    value and a spread of exactly zero, free of summation round-off.
    """
    dev = x - x[0]
    shift = float(np.mean(dev))
    return float(x[0]) + shift, float(np.sqrt(np.mean((dev - shift) ** 2)))


def _ratio(direct: float, mean: float, std: float, atol: float) -> float:
    """Displacement of the resampled mean in units of the resampled spread.

    A zero spread (all generations identical, as with di = 0) gives 0 when
    the mean agrees with the direct fit at optimizer resolution and
    infinity otherwise; two optimizers stopping within their tolerance of
    the same minimum count as agreeing.
    """
    diff = abs(mean - direct)
    if std == 0.0:
        return 0.0 if diff <= atol else math.inf
    return diff / std


def _skew_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Biased sample skewness m3 / m2^1.5 and excess kurtosis m4 / m2^2 - 3."""
    dev = x - x.mean()
    m2 = np.mean(dev ** 2)
    return float(np.mean(dev ** 3) / m2 ** 1.5), float(np.mean(dev ** 4) / m2 ** 2 - 3.0)


def _direct_fit(rates: InflationSeries, fit_config: FitConfig) -> tuple[FitResult, np.ndarray]:
    """Direct fit of the unperturbed series, and its observation times."""
    index = build_price_index(rates)
    direct = fit_singularity(index, fit_config)
    if not direct.converged:
        raise FitError("direct fit did not converge; refusing to resample around it")
    return direct, index.times()


def run_mc(
    rates: InflationSeries,
    fit_config: FitConfig | None = None,
    mc_config: MCConfig | None = None,
) -> MCReport:
    """Resample the rate series m times, refit each generation, aggregate.

    The direct fit of the unperturbed series anchors the comparison and
    seeds every refit.  Each refit keeps tc beyond the data and alpha at
    or above the lower bound of ``alpha_bounds``, as the direct fit does.
    A generation enters the moments unless its refit stalled or left the
    box (tc beyond the search window, alpha above its upper bound); a
    refit that converged with alpha on the lower bound enters at the
    bound, like a direct fit accepted there.  ``MCReport.outcome`` counts
    each kind; more than ``max_nonconverged_frac`` generations outside
    the converged interior marks the report unreliable.
    """
    fit_config = fit_config or FitConfig()
    return _resample(rates, fit_config, mc_config or MCConfig(),
                     *_direct_fit(rates, fit_config))


def _resample(rates: InflationSeries, fit_config: FitConfig, mc: MCConfig,
              direct: FitResult, t: np.ndarray) -> MCReport:
    """run_mc around a given direct fit of ``rates`` at times ``t``."""
    dp = direct.params
    _, tc_hi = tc_search_window(t, fit_config)
    a_lo, a_hi = fit_config.alpha_bounds

    # Draw all generations; each one consumes only its own substream.
    samples = np.empty((mc.m, len(rates)))
    truncated = _draw_generations(rates.rates, mc.di,
                                  np.random.SeedSequence(mc.seed).spawn(mc.m), samples)

    # Cumulate each generation exactly as the direct fit's data.
    p_data = cumulate(samples)[1]

    tc, alpha, c0, p0, _, converged = _refit_generations(p_data, t, dp, fit_config)

    out_of_box = converged & ((tc > tc_hi) | (alpha > a_hi))
    on_floor = converged & ~out_of_box & (alpha - a_lo <= fit_config.xtol * max(1.0, a_lo))
    ok = converged & ~out_of_box
    outcome = {
        "converged_interior": int(np.count_nonzero(ok & ~on_floor)),
        "on_alpha_floor": int(np.count_nonzero(on_floor)),
        "stalled": int(np.count_nonzero(~converged)),
        "out_of_box": int(np.count_nonzero(out_of_box)),
    }
    n_bad = mc.m - outcome["converged_interior"]
    if not ok.any():
        raise FitError("no Monte Carlo generation produced a usable refit")

    gamma_direct = alpha_to_gamma(dp.alpha)
    gamma = (2.0 + alpha[ok]) / (1.0 + alpha[ok])
    values = {
        "tc": (dp.tc, tc[ok]),
        "alpha": (dp.alpha, alpha[ok]),
        "c0": (dp.c0, c0[ok]),
        "p0": (dp.p0, p0[ok]),
        "gamma": (gamma_direct, gamma),
    }
    params: dict[str, ParamStats] = {}
    for name, (direct_value, sample) in values.items():
        mean, std = _population_moments(sample)
        atol = 10.0 * fit_config.xtol * max(1.0, abs(direct_value))
        ratio = _ratio(direct_value, mean, std, atol)
        params[name] = ParamStats(
            direct=direct_value,
            mean=mean,
            std=std,
            ratio=ratio,
            accepted=bool(ratio < mc.threshold),
        )
    accepted = all(params[k].accepted for k in ("tc", "alpha", "c0", "p0"))

    tc_ok = tc[ok]
    skew, kurt = _skew_kurtosis(tc_ok) if params["tc"].std > 0 else (0.0, 0.0)
    counts, edges = np.histogram(tc_ok, bins=40)

    return MCReport(
        di=mc.di,
        m=mc.m,
        seed=mc.seed,
        threshold=mc.threshold,
        params=params,
        accepted=accepted,
        n_nonconverged=n_bad,
        unreliable=bool(n_bad > mc.max_nonconverged_frac * mc.m),
        truncated_draws=truncated,
        tc_hist_edges=edges,
        tc_hist_counts=counts,
        tc_skewness=skew,
        tc_excess_kurtosis=kurt,
        gaussian_ok=bool(abs(skew) < 0.5 and abs(kurt) < 1.0),
        outcome=outcome,
        direct=direct,
    )


def sweep_error(
    rates: InflationSeries,
    fit_config: FitConfig | None = None,
    di_values: tuple[float, ...] | list[float] = (),
    m: int = 4000,
    seed: int = 0,
    workers: int = 1,
    direct: FitResult | None = None,
) -> list[SweepRow]:
    """Repeat run_mc over a list of relative errors and tabulate the stds.

    The direct fit is made once and anchors every run; pass ``direct`` (a
    converged ``fit_singularity`` of ``rates`` under ``fit_config``, such
    as ``MCReport.direct``) to reuse one already made.  Every run reuses
    the same master seed, so the underlying gaussian draws are common
    across error settings (the classic common-random-numbers device); std
    columns then vary smoothly with di.
    """
    fit_config = fit_config or FitConfig()
    if direct is None:
        direct, t = _direct_fit(rates, fit_config)
    else:
        t = rates.times()
    span = direct.params.tc - float(t[0])
    rows: list[SweepRow] = []
    for di in di_values:
        mc = MCConfig(di=float(di), m=m, seed=seed, workers=workers)
        report = _resample(rates, fit_config, mc, direct, t)
        rows.append(
            SweepRow(
                di=float(di),
                std_tc=report.params["tc"].std,
                std_alpha=report.params["alpha"].std,
                std_c0=report.params["c0"].std,
                std_p0=report.params["p0"].std,
                sd_tc_rel_pct=100.0 * report.params["tc"].std / span,
                sd_gamma_rel_pct=100.0 * report.params["gamma"].std
                / abs(report.params["gamma"].direct),
                accepted=report.accepted,
            )
        )
    return rows
