"""Monte Carlo propagation of inflation-rate measurement error.

Each measured rate i(t_k) is treated as gaussian with mean i(t_k) and
standard deviation di * |i(t_k)| (the same relative error everywhere),
except the first rate, the base of the cumulated index, which carries none.
A generation is one full resample of the rate series; it is cumulated
into a price index and refitted to the singular model, and the parameter
means and standard deviations over all generations quantify the fit
uncertainty.  Results are accepted when every parameter's
|mean - direct| / std ratio stays below the configured threshold, i.e.
when resampling does not systematically displace the direct fit.

Determinism: generation j draws from a substream derived only from the
master seed and j: bit for bit ``default_rng(SeedSequence(seed).spawn(m)[j])``.
The draws run in bulk, with no generator object per generation: every
substream's state, its PCG64 outputs and numpy's ziggurat normals on them
are computed for all j at once.  The few generations the bulk path cannot
finish (a ziggurat tail or near-tie, or a value at or below -1 to redraw)
are drawn again by ``_sample_rates`` itself, on one generator set to their
state.  All aggregation is order-independent, so reports are bit-identical
for a fixed seed however many generations the refit engine holds in flight.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _ziggurat_tables, fitting
from .fitting import (
    FitConfig,
    FitError,
    FitResult,
    _sing_linearization,
    fit_singular_rows,
    fit_singularity,
    tc_search_window,
)
from .models import SingularityParams, alpha_to_gamma
from .series import InflationSeries, PriceIndexSeries, build_price_index, cumulate


@dataclass(frozen=True)
class MCConfig:
    """Settings for the resampling run.

    ``di`` is the relative rate error as a fraction (0.25 = 25 percent);
    the generation count must be large enough for the sample moments to
    match the assigned gaussian (a few thousand in practice).  ``workers``
    is accepted (and must be >= 1) but ignored: the refit runs in one
    process, with a fixed number of generations in flight, and results
    never depend on it.
    """

    di: float = 0.25
    m: int = 4000
    seed: int = 0
    threshold: float = 0.1
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.m, numbers.Integral) or self.m < 1:
            raise ValueError(f"generation count must be an integer >= 1, got {self.m!r}")
        if not (math.isfinite(self.di) and self.di >= 0):
            raise ValueError(f"relative error must be finite and >= 0, got {self.di}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"acceptance threshold must be finite and > 0, got {self.threshold}")
        if not isinstance(self.workers, numbers.Integral) or self.workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


#: A run is unreliable when more than this fraction of its generations end
#: outside the converged interior (``MCReport.unreliable``).
_MAX_NONCONVERGED_FRAC = 0.05


@dataclass(frozen=True)
class ParamStats:
    """Direct-fit value and resampled moments of one parameter."""

    direct: float
    mean: float
    std: float

    @property
    def ratio(self) -> float:
        """Displacement of the resampled mean in units of the resampled spread.

        A zero spread (all generations identical, as with di = 0) gives 0
        when the mean is the direct fit and infinity otherwise: a refit
        started at a converged fit returns it bit for bit, so any gap is a
        real displacement.
        """
        if self.std == 0.0:
            return 0.0 if self.mean == self.direct else math.inf
        return abs(self.mean - self.direct) / self.std


#: Each generation's outcome class, in ``MCReport.status`` by its index here.
#: The classes before ``stalled``, the converged ones, enter the moments.
OUTCOMES = ("converged_interior", "on_alpha_floor", "stalled", "out_of_box")
_ON_FLOOR, _STALLED, _OUT_OF_BOX = range(1, len(OUTCOMES))


@dataclass(frozen=True, eq=False)
class MCReport:
    """What one resampling run under ``config`` found around the ``direct`` fit.

    ``refits`` holds each generation's refit, one (tc, alpha, c0, p0) row
    per generation, and ``status`` its outcome class, an index into
    ``OUTCOMES``: ``converged_interior``; ``on_alpha_floor`` (converged with
    alpha exactly on the lower bound of ``fitting._ALPHA_BOUNDS``, where the
    box projection holds a floored refit, kept in the moments at the bound);
    ``stalled`` (no convergence within ``fitting._MAX_ITER`` rounds, inside
    the box) and ``out_of_box`` (ended with tc beyond the search window or
    alpha above its upper bound, where a refit is held at most one box width
    beyond the box), both excluded from the moments.  Every statistic is a
    property of these arrays, computed on each read and never cached:
    ``outcome`` counts each class, so its counts sum to m; ``params`` holds
    the moments of tc, alpha, c0, p0 and gamma over the converged
    generations, in generation order, as do ``tc_skewness`` and
    ``tc_excess_kurtosis`` for tc; the flags and the relative spreads
    derive from those.
    """

    config: MCConfig
    direct: FitResult
    refits: np.ndarray                   # (m, 4): tc, alpha, c0, p0
    status: np.ndarray                   # (m,) int8: index into OUTCOMES
    truncated_draws: int

    def _in_moments(self) -> list[np.ndarray]:
        """tc, alpha, c0 and p0 of the generations in the moments, in generation order."""
        keep = self.status < _STALLED
        return [column[keep] for column in self.refits.T]

    @property
    def outcome(self) -> dict[str, int]:
        """Generations per outcome class, in ``OUTCOMES`` order."""
        return dict(zip(OUTCOMES, np.bincount(self.status, minlength=len(OUTCOMES)).tolist()))

    @property
    def params(self) -> dict[str, ParamStats]:
        """Direct value, mean and std of tc, alpha, c0, p0 and gamma."""
        d = self.direct.params
        tc, alpha, c0, p0 = self._in_moments()
        values = {"tc": (d.tc, tc), "alpha": (d.alpha, alpha), "c0": (d.c0, c0), "p0": (d.p0, p0),
                  "gamma": (alpha_to_gamma(d.alpha), alpha_to_gamma(alpha))}
        return {name: ParamStats(direct_value, *_population_moments(sample))
                for name, (direct_value, sample) in values.items()}

    def _tc_shape(self) -> tuple[float, float]:
        """Skewness and excess kurtosis of tc; both 0.0 when its spread is zero."""
        tc = self._in_moments()[0]
        return _skew_kurtosis(tc) if _population_moments(tc)[1] > 0 else (0.0, 0.0)

    @property
    def tc_skewness(self) -> float:
        """Biased sample skewness of tc over the generations in the moments."""
        return self._tc_shape()[0]

    @property
    def tc_excess_kurtosis(self) -> float:
        """Biased sample excess kurtosis of tc over the generations in the moments."""
        return self._tc_shape()[1]

    @property
    def accepted(self) -> bool:
        """Every ratio of tc, alpha, c0 and p0 below the threshold; gamma is not judged."""
        return all(stats.ratio < self.config.threshold
                   for name, stats in self.params.items() if name != "gamma")

    @property
    def n_nonconverged(self) -> int:
        """Generations outside the converged interior."""
        return self.config.m - self.outcome["converged_interior"]

    @property
    def unreliable(self) -> bool:
        """More than ``_MAX_NONCONVERGED_FRAC`` of m outside the converged interior."""
        return bool(self.n_nonconverged > _MAX_NONCONVERGED_FRAC * self.config.m)

    @property
    def gaussian_ok(self) -> bool:
        """The tc sample looks gaussian: |skewness| < 0.5 and |excess kurtosis| < 1."""
        skew, kurt = self._tc_shape()
        return bool(abs(skew) < 0.5 and abs(kurt) < 1.0)

    @property
    def sd_tc_rel_pct(self) -> float:
        """Std of tc in percent of the direct fit's time to the singularity, tc - t0."""
        d = self.direct.params
        return 100.0 * self.params["tc"].std / (d.tc - d.t0)

    @property
    def sd_gamma_rel_pct(self) -> float:
        """Std of the growth exponent gamma in percent of its direct value."""
        gamma = self.params["gamma"]
        return 100.0 * gamma.std / abs(gamma.direct)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_MAX_REDRAW_ROUNDS = 10000


def _rate_sd(rates: np.ndarray, di: float) -> np.ndarray:
    """Each rate's assigned standard deviation: di * |i|, and 0 for the first rate.

    The first rate sets the index's base ln P(t0), which every generation
    shares with the direct fit: a windowed series' first rate need not be
    the 0 the loader gives a file's first rate.
    """
    sd = di * np.abs(rates)
    sd[0] = 0.0
    return sd


def _sample_rates(rates: np.ndarray, di: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One gaussian resample of a rate vector; redraws any value <= -1.

    The first rate has zero assigned error (``_rate_sd``), so it is
    reproduced exactly.  Each round redraws every value still at or below
    -1 from one standard normal apiece, in index order.  Returns the sample
    and the number of redraws forced by the i > -1 positivity requirement.
    ``rates + sd * z`` is bit for bit what ``rng.normal(rates, sd)`` draws.
    """
    sd = _rate_sd(rates, di)
    vals = rates + sd * rng.standard_normal(len(rates))
    redraws = rounds = 0
    bad = vals <= -1.0
    while bad.any():
        count = int(bad.sum())
        redraws += count
        vals[bad] = rates[bad] + sd[bad] * rng.standard_normal(count)
        bad = vals <= -1.0
        rounds += 1
        if rounds > _MAX_REDRAW_ROUNDS:
            raise RuntimeError("rate resampling failed to stay above -1")
    return vals, redraws


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG64_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def _substream_words(seed: int, m: int) -> np.ndarray:
    """Row j of (m, 4) is ``SeedSequence(seed).spawn(m)[j].generate_state(4, np.uint64)``.

    SeedSequence's uint32 hashing over the entropy (the seed's 32-bit words,
    zero-padded to the pool size of 4, then key j), vectorized over j.
    """
    seed = int(seed)
    words = [seed >> s & 0xFFFFFFFF for s in range(0, seed.bit_length() or 1, 32)]
    entropy = [np.full(m, w, np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(m, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value, mult):
        nonlocal hash_const
        value = (value ^ hash_const) * (hash_const := hash_const * mult % 2**32)
        return value ^ value >> 16

    pool = [hashmix(e, _MULT_A) for e in entropy[:4]]
    for src, value in enumerate(entropy):
        for dst in range(4):
            if src != dst:
                x = pool[dst] * _MIX_L - hashmix(pool[src] if src < 4 else value, _MULT_A) * _MIX_R
                pool[dst] = x ^ x >> 16
    hash_const = _INIT_B
    state = np.empty((m, 8), np.uint32)
    for i in range(8):
        state[:, i] = hashmix(pool[i % 4], _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(s_hi: int, s_lo: int, q_hi: int, q_lo: int) -> dict:
    """``PCG64`` state seeded from four words: one LCG step from inc + initial state."""
    inc = (q_hi << 65 | q_lo << 1 | 1) % 2**128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) % 2**128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# numpy's ziggurat tables: _ZIG_W[r & 0x1FF] is the wi of level r & 0xFF with
# the sign of bit 8; fi[i] = exp(-x_i**2 / 2) at the strip edge
# x_i = wi[i] * 2**52, fi[0] = 1, and _ZIG_FD[i] = fi[i - 1] - fi[i].
_ZIG_WI = np.frombuffer(_ziggurat_tables.PACKED, "<f8", 256)
_ZIG_KI = np.frombuffer(_ziggurat_tables.PACKED, "<u8", 256, 2048)
_ZIG_W = np.concatenate([_ZIG_WI, -_ZIG_WI])
_ZIG_FI = np.exp(-0.5 * (_ZIG_WI * 2.0**52) ** 2)
_ZIG_FI[0] = 1.0
_ZIG_FD = np.roll(_ZIG_FI, 1) - _ZIG_FI
_RABS = 2**52 - 1

#: Outputs drawn per generation beyond its n normals; a wedge draw takes two.
_SPARE_OUTPUTS = 8
#: Generations per block of the bulk ziggurat, which bounds its scratch arrays.
_DRAW_BLOCK = 1024
#: A wedge test whose two sides differ by at most this, relative, is left to numpy.
_WEDGE_TIE = 1e-9

_MULT_LO, _MULT_HI = np.uint64(_PCG64_MULT % 2**64), np.uint64(_PCG64_MULT >> 64)
_MULT0, _MULT1 = _MULT_LO & np.uint64(0xFFFFFFFF), _MULT_LO >> np.uint64(32)


def _pcg64_outputs(words: np.ndarray, k: int) -> np.ndarray:
    """(m, k) uint64: row j is the first k outputs of a PCG64 set to ``_pcg64_state(*words[j])``.

    PCG64 steps its 128-bit LCG state to s * mult + inc, then outputs the
    XSL-RR of the new state; both run here in uint64 words over all rows.
    """
    s_hi, s_lo, q_hi, q_lo = words.T.copy()
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    lo = s_lo + inc_lo                  # seeding: state = (s + inc) * mult + inc
    hi = s_hi + inc_hi + (lo < s_lo)
    raw = np.empty((k, len(words)), np.uint64)
    for j in range(-1, k):              # step -1 is the seeding step
        a0, a1 = lo & 0xFFFFFFFF, lo >> 32          # high word of lo * _MULT_LO:
        low = (a0 * _MULT0 >> 32) + a1 * _MULT0     # 32-bit halves, no sum above 2**64
        mid = (low & 0xFFFFFFFF) + a0 * _MULT1
        hi = (a1 * _MULT1 + (low >> 32) + (mid >> 32)
              + hi * _MULT_LO + lo * _MULT_HI + inc_hi)
        lo = lo * _MULT_LO + inc_lo
        hi += lo < inc_lo
        if j >= 0:
            x, rot = hi ^ lo, hi >> 58
            raw[j] = x >> rot | x << (64 - rot & 63)
    return raw.T


def _ziggurat_normals(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (rows, n) with numpy's ``standard_normal`` on each row of raw outputs.

    A draw reads level i (low 8 bits), a sign bit and a 52-bit rabs from
    one output and returns x = +-rabs * wi[i] if rabs < ki[i].  Otherwise
    level 0 samples the tail, and level i >= 1 (a wedge) takes the next
    output as U and returns x if (fi[i-1] - fi[i]) * U + fi[i] < exp(-x**2/2),
    else draws again.  A wedge takes two outputs either way, so along a run
    of adjacent slow outputs every other one starts a draw.  Returns a mask
    of the rows whose n draws reach a tail, a wedge test within
    ``_WEDGE_TIE`` of a tie, or the end of raw; their out rows hold no numpy
    draw.
    """
    n, k = out.shape[1], raw.shape[1]
    raw = raw.ravel()                   # output j of row r at r * k + j
    rabs = raw >> 9 & _RABS
    slow = np.flatnonzero(rabs >= _ZIG_KI[(raw & 0xFF).view(np.int64)])
    index = np.arange(len(slow))
    follows = np.r_[False, np.diff(slow) == 1] & (slow % k > 0)
    run_start = np.maximum.accumulate(np.where(follows, 0, index))
    start = slow[(index - run_start) % 2 == 0]
    level = (raw[start] & 0xFF).view(np.int64)
    x = rabs[start] * _ZIG_WI[level]
    u = start + (start % k < k - 1)     # the wedge's U; in the last column, the wedge itself
    height = _ZIG_FD[level] * ((raw[u] >> 11) * 2.0**-53) + _ZIG_FI[level]
    bell = np.exp(-0.5 * x * x)
    # Outputs that give no value, and the values before each in its row.
    skipped = np.sort(np.r_[u, start[height >= bell]])   # np.unique would import numpy.ma
    skipped = skipped[np.diff(skipped, prepend=-1) != 0]
    row = skipped // k
    before = skipped - row * k - (np.arange(len(skipped)) - np.searchsorted(skipped, row * k))
    end = n + np.bincount(row[before < n], minlength=len(out))  # past the row's n-th value
    unsure = (level == 0) | (np.abs(height - bell) <= _WEDGE_TIE * bell)
    left = end > k
    left[start[unsure & (start % k < end[start // k])] // k] = True
    take = (np.arange(k) < np.where(left, n, end)[:, None]).ravel()
    take[skipped[~left[row]]] = False
    chosen = raw[take]
    out[:] = ((chosen >> 9 & _RABS) * _ZIG_W[(chosen & 0x1FF).view(np.int64)]).reshape(-1, n)
    return left


def _draw_generations(rates: np.ndarray, di: float, seed: int, out: np.ndarray) -> int:
    """Fill out (m, n) with one ``_sample_rates`` draw per generation, in place.

    Row j is bit for bit ``_sample_rates(rates, di, default_rng(child))`` for
    child j of ``SeedSequence(seed).spawn(m)``.  Every row's PCG64 outputs
    are computed at once, and numpy's ziggurat runs on them in blocks of
    rows.  A row the bulk path cannot finish, because it needs a draw left
    to numpy (a tail, a near-tie or more than ``_SPARE_OUTPUTS`` spare
    outputs) or holds a value at or below -1 to redraw, is drawn again by
    ``_sample_rates`` on one generator set to its state.  Returns the total
    redraws.
    """
    words = _substream_words(seed, len(out))
    raw = _pcg64_outputs(words, out.shape[1] + _SPARE_OUTPUTS)
    left = np.empty(len(out), dtype=bool)
    for b in range(0, len(out), _DRAW_BLOCK):
        left[b:b + _DRAW_BLOCK] = _ziggurat_normals(raw[b:b + _DRAW_BLOCK],
                                                   out[b:b + _DRAW_BLOCK])
    out *= _rate_sd(rates, di)
    out += rates
    rng = np.random.Generator(np.random.PCG64())
    truncated = 0
    for j in np.flatnonzero(left | (out <= -1.0).any(axis=1)):
        rng.bit_generator.state = _pcg64_state(*words[j].tolist())
        out[j], redraws = _sample_rates(rates, di, rng)
        truncated += redraws
    return truncated


def sample_generation(
    rates: InflationSeries, di: float, rng: np.random.Generator
) -> InflationSeries:
    """Draw one generation of inflation rates from the assigned error model.

    ``di`` is the relative rate error, as in ``MCConfig``: finite and >= 0.
    """
    if not (math.isfinite(di) and di >= 0):
        raise ValueError(f"di (relative error) must be finite and >= 0, got {di!r}")
    vals, _ = _sample_rates(rates.rates, di, rng)
    return InflationSeries(epochs=rates.epochs, rates=vals)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _population_moments(x: np.ndarray) -> tuple[float, float]:
    """Mean and population std, summed as offsets from the first sample.

    Identical samples (every generation at di = 0) then give their common
    value and a spread of exactly zero, free of summation round-off.
    """
    dev = x - x[0]
    shift = float(np.mean(dev))
    return float(x[0]) + shift, float(np.sqrt(np.mean((dev - shift) ** 2)))


def _skew_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Biased sample skewness m3 / m2^1.5 and excess kurtosis m4 / m2^2 - 3."""
    dev = x - x.mean()
    m2 = np.mean(dev ** 2)
    return float(np.mean(dev ** 3) / m2 ** 1.5), float(np.mean(dev ** 4) / m2 ** 2 - 3.0)


def run_mc(
    rates: InflationSeries,
    fit_config: FitConfig | None = None,
    mc_config: MCConfig | None = None,
) -> MCReport:
    """Resample the rate series m times, refit each generation, aggregate.

    The direct fit of the unperturbed series under ``fit_config`` anchors
    the comparison, seeds every refit and sets its p0 rule; one that did
    not converge raises ``FitError``.  Each refit keeps tc beyond the data
    and alpha at or above the lower bound of ``fitting._ALPHA_BOUNDS``, as
    the direct fit does.  A generation enters the moments unless its refit
    stalled or ended outside the box (tc beyond the search window, alpha
    above its upper bound); a refit is held at most one box width beyond
    the box.  A refit that converged with alpha on the lower bound enters
    at the bound, like a direct fit accepted there.  ``MCReport.outcome``
    counts each kind; more than ``_MAX_NONCONVERGED_FRAC`` of the
    generations outside the converged interior marks the report unreliable.
    """
    index = build_price_index(rates)
    return _resample(rates, mc_config or MCConfig(), fit_singularity(index, fit_config), index)


def _refit_starts(p_data: np.ndarray, p_direct: np.ndarray, t: np.ndarray,
                  direct: SingularityParams, centre: bool) -> np.ndarray:
    """(m, 2): each generation's refit start, one Gauss-Newton step from the direct fit.

    Row j starts at (tc, alpha) + A (p_j - p_direct) / C0_j, where (A, w) is
    the direct fit's ``_sing_linearization`` and C0_j = C0 + w.(p_j - p_direct):
    one undamped Gauss-Newton step for row j with the Jacobian held at the
    direct fit, which costs no model call.  A generation with the direct
    fit's data starts exactly at its (tc, alpha), and one with C0_j not > 0
    starts there too.
    """
    a, w = _sing_linearization(t, direct.tc, direct.alpha, centre)
    move = (p_data - p_direct) @ np.vstack([a, w]).T
    c0 = direct.c0 + move[:, 2]
    start = np.array([direct.tc, direct.alpha])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((c0 > 0)[:, None], start + move[:, :2] / c0[:, None], start)


def _resample(rates: InflationSeries, mc: MCConfig, direct: FitResult,
              index: PriceIndexSeries) -> MCReport:
    """run_mc around ``direct``, a fit of ``index``, the price index of ``rates``.

    The direct fit defines the run: its ``p0_pinned`` is every refit's p0
    rule (the pinned p0, and whether ``_refit_starts`` centres), and one
    that did not converge raises ``FitError``.
    """
    if not direct.converged:
        raise FitError("direct fit did not converge; refusing to resample around it")
    dp, pin = direct.params, direct.p0_pinned
    t = index.times()
    window = tc_search_window(t)
    a_lo, a_hi = fitting._ALPHA_BOUNDS

    # Draw all generations; each one consumes only its own substream.
    samples = np.empty((mc.m, len(rates)))
    truncated = _draw_generations(rates.rates, mc.di, mc.seed, samples)

    # Cumulate each generation exactly as the direct fit's data.
    p_data = cumulate(samples)

    # Refit every generation from its first-order start, held at or above the
    # box's lower edges and at most one box width beyond its upper ones, so
    # a generation that leaves the box is seen (and excluded), not clamped at
    # its edge.  Under a pinned direct fit every generation keeps its p0: the
    # first rate carries no error, so all share the observed ln P(t0).
    starts = _refit_starts(p_data, index.log_index, t, dp, not pin)
    (tc, alpha, c0, p0), _, converged, _ = fit_singular_rows(
        p_data, t, starts, bounded_above=False, pinned_p0=dp.p0 if pin else None)

    # Each generation's class: out of the box before stalled before on the floor.
    status = np.zeros(mc.m, dtype=np.int8)
    status[alpha == a_lo] = _ON_FLOOR
    status[~converged] = _STALLED
    status[(tc > window[1]) | (alpha > a_hi)] = _OUT_OF_BOX
    if not (status < _STALLED).any():
        raise FitError("no Monte Carlo generation produced a usable refit")
    refits = np.array((tc, alpha, c0, p0)).T    # by columns: each one contiguous
    refits.flags.writeable = status.flags.writeable = False
    return MCReport(config=mc, direct=direct, refits=refits, status=status,
                    truncated_draws=truncated)


def sweep_error(
    rates: InflationSeries,
    fit_config: FitConfig | None = None,
    di_values: tuple[float, ...] | list[float] = (),
    m: int = 4000,
    seed: int = 0,
    direct: FitResult | None = None,
) -> list[MCReport]:
    """Repeat run_mc over a list of relative errors: one report per di, in order.

    One direct fit anchors every run, and its own p0 rule is every refit's.
    Pass ``direct`` (a ``fit_singularity`` of ``rates``, such as
    ``MCReport.direct``) to reuse one already made; otherwise the direct fit
    is made here under ``fit_config``, which applies to that fit alone.  A
    direct fit that did not converge, passed or made, raises ``FitError``.
    Each run takes ``MCConfig``'s default threshold.  Every run reuses the
    same master seed, so the underlying gaussian draws are common across
    error settings (the classic common-random-numbers device); the stds
    then vary smoothly with di.
    """
    index = build_price_index(rates)
    if direct is None:
        direct = fit_singularity(index, fit_config)
    return [_resample(rates, MCConfig(di=float(di), m=m, seed=seed), direct, index)
            for di in di_values]
