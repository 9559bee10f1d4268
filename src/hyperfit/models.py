"""Closed-form price models, derived quantities, and validation simulators.

All models describe the natural-log price index p(t) = ln P(t).  Base-10
conversion is presentation-only and lives in the CLI layer.

The model family, nested from slowest to fastest growth:

* linear:              p(t) = p0 + C0 (t - t0)
* double-exponential:  p(t) = p0 + (C0/b2) [exp(b2 (t - t0)) - 1]
* finite-time singularity (growth exponent 1 < gamma < 2, alpha > 0):

      p(t) = p0 + C0 (tc - t0)/alpha [((tc - t0)/(tc - t))^alpha - 1]

  which diverges at the critical time tc, where the per-period growth
  rate r(t) = C0 dt ((tc - t0)/(tc - t))^(1 + alpha) blows up.

The two nonlinear models are affine in (C0, p0): p(t) = p0 + C0 g(t), with
the basis g coded once, in ``_sing_basis`` and ``_dexp_basis``.  The fits
score those bases (``hyperfit.fitting``), the evaluators return p0 + C0
times them, and the growth rate and doubling time read the powers the
singular basis forms (``_sing_ratio``), so a curve, a prediction and a fit
all evaluate one formula per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)


class ModelDomainError(ValueError):
    """Model evaluated outside its domain (for example at or after tc)."""


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearParams:
    """Steady exponential inflation: p(t) = p0 + C0 (t - t0).

    C0 is the initial growth in prices per unit time; it may be negative
    (sustained deflation gives a downward-sloping log index).
    """

    p0: float
    c0: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p0) and math.isfinite(self.c0) and math.isfinite(self.t0)):
            raise ModelDomainError("linear parameters must be finite")


@dataclass(frozen=True)
class DoubleExpParams:
    """Exponentially accelerating growth rate: r(t) = r0 exp(b2 (t - t0)).

    b2 is the acceleration rate (1/time); b2 = 0 is the linear limit.
    """

    p0: float
    c0: float
    b2: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.b2 < 0:
            raise ModelDomainError(f"b2 must be >= 0, got {self.b2}")


@dataclass(frozen=True)
class SingularityParams:
    """Power-law accelerating growth with a finite-time singularity at tc.

    Requires tc > t0, alpha > 0 and C0 > 0; the derived growth exponent
    gamma = (2 + alpha)/(1 + alpha) then lies in (1, 2).
    """

    tc: float
    alpha: float
    c0: float
    p0: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not self.tc > self.t0:
            raise ModelDomainError(f"tc must exceed t0, got tc={self.tc}, t0={self.t0}")
        if not self.alpha > 0:
            raise ModelDomainError(f"alpha must be > 0, got {self.alpha}")
        if not self.c0 > 0:
            raise ModelDomainError(f"C0 must be > 0, got {self.c0}")


#: The parameter class of each model, by the name a report and the command
#: line give the model; a fit's model is the name of its parameters' class.
MODEL_PARAMS = {"linear": LinearParams, "doubleexp": DoubleExpParams,
                "singularity": SingularityParams}


@dataclass(frozen=True)
class RecursionParams:
    """Discrete feedback recursion r(t + dt) = r(t - dt) + a [r(t - dt)]^gamma.

    The recursion advances two interleaved subsequences at stride 2 dt, both
    seeded with r0.  Its continuum limit is dr/dt = a1 r^gamma with
    a1 = a / (2 dt).  gamma = 1 gives pure geometric growth per stride and
    a = 0 gives a constant rate, the two classical limits.
    """

    r0: float
    a: float
    gamma: float
    dt: float

    def __post_init__(self) -> None:
        if not self.r0 > 0:
            raise ModelDomainError(f"r0 must be > 0, got {self.r0}")
        if self.a < 0:
            raise ModelDomainError(f"a must be >= 0, got {self.a}")
        if self.gamma < 1:
            raise ModelDomainError(f"gamma must be >= 1, got {self.gamma}")
        if not self.dt > 0:
            raise ModelDomainError(f"dt must be > 0, got {self.dt}")

    @property
    def a1(self) -> float:
        """Continuum-limit coefficient of dr/dt = a1 r^gamma."""
        return self.a / (2.0 * self.dt)

    @classmethod
    def from_continuum(cls, r0: float, gamma: float, a1: float, dt: float) -> "RecursionParams":
        return cls(r0=r0, a=2.0 * dt * a1, gamma=gamma, dt=dt)


@dataclass(frozen=True, eq=False)
class RecursionResult:
    """Simulated growth rates r(t0 + k dt); truncated on overflow."""

    rates: np.ndarray
    blew_up: bool

    def __len__(self) -> int:
        return len(self.rates)


# ---------------------------------------------------------------------------
# Model bases: the one coding of each nonlinear model
# ---------------------------------------------------------------------------

def _sing_ratio(tc, alpha, t, t0):
    """(tc - t0, ratio, log ratio, f) of the singular model at t, ratio = (tc - t0)/(tc - t).

    f = ratio^alpha, formed as exp(alpha log ratio), and f ratio =
    ratio^(1 + alpha) are the model's only powers: the log price, the
    growth rate, the doubling time and the fits' derivatives all read them
    here.  tc and alpha broadcast against t; ``f`` must come out an array,
    as it is exponentiated in place.
    """
    s0 = tc - t0
    ratio = s0 / (tc - t)
    log_ratio = np.log(ratio)
    f = alpha * log_ratio
    np.exp(f, out=f)
    return s0, ratio, log_ratio, f


def _sing_basis(tc, alpha, t: np.ndarray, t0, with_jac: bool):
    """The singular model's basis g and, with ``with_jac``, dg/d(tc, alpha).

    p(t) = p0 + C0 g with g = (tc - t0) / alpha * (f - 1), f = ratio^alpha
    (``_sing_ratio``).  tc and alpha broadcast against each other, each with
    a trailing unit axis: (rows, 1) in the fitting engine; (n_tc, 1, 1) and
    (n_alpha, 1) in its grid; floats for a model evaluation.  The fits pass
    t0 = t[0].  Their closed-form (C0, p0) solve needs dg/d(tc, alpha) only
    up to span{1, g}; up to a multiple of g they are

        dg/dtc    = 1 - f ratio
        dg/dalpha = (tc - t0) / alpha * f log(ratio)

    (the 1 matters only with p0 pinned), returned as (2, *g.shape), or None
    without ``with_jac``.
    """
    s0, ratio, log_ratio, f = _sing_ratio(tc, alpha, t, t0)
    scale = s0 / alpha
    g = f - 1.0
    g *= scale
    dg = None
    if with_jac:
        dg = np.empty((2, *g.shape))
        np.multiply(f, ratio, out=dg[0])
        np.subtract(1.0, dg[0], out=dg[0])
        np.multiply(f, log_ratio, out=dg[1])
        dg[1] *= scale
    return g, dg


def _dexp_basis(b2, x: np.ndarray, with_jac: bool):
    """The double-exponential basis h = expm1(b2 x) / b2 and, with ``with_jac``, dh/db2.

    p(t) = p0 + C0 h with x = t - t0.  b2 is a float or a column of values
    against rows of x.  A row whose every |b2 x| is below 1e-8 uses the
    series of the b2 -> 0 limit (h = x exactly at b2 = 0), which avoids
    amplified rounding in expm1(b2 x) / b2 and its derivative when b2 is
    tiny; the series is computed only when some row needs it.  The rule
    reads the whole row, so it holds for x of any sign and order (times
    before t0, descending times); in a fit, where x ascends from 0 and
    b2 >= 0, it picks the rows whose last b2 x is below 1e-8.  dh/db2 is
    returned as (1, *h.shape), or None without ``with_jac``.
    """
    b2x = b2 * x
    small = np.abs(b2x).max(axis=-1, keepdims=True, initial=0.0) < 1e-8
    b2_safe = np.where(small, 1.0, b2)
    em1 = np.expm1(b2x)
    h = em1 / b2_safe
    dh = None
    if with_jac:
        dh = ((x * (em1 + 1.0) - h) / b2_safe)[None]
    if np.count_nonzero(small):     # 0.2 us; small.any() 0.6 us (2-vCPU VM, numpy 2.4)
        np.copyto(h, x * (1.0 + b2x / 2.0 + b2x * b2x / 6.0), where=small)
        if with_jac:
            np.copyto(dh[0], x * x / 2.0 * (1.0 + 2.0 * b2x / 3.0), where=small)
    return h, dh


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------

def _as_array(t) -> tuple[np.ndarray, bool]:
    """t as a float array of at least one dimension, and whether it was a scalar."""
    arr = np.asarray(t, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _before_tc(params: SingularityParams, t, quantity: str) -> tuple[np.ndarray, bool]:
    """``_as_array(t)``, after checking that every t lies before the singularity."""
    arr, scalar = _as_array(t)
    if np.any(arr >= params.tc):
        raise ModelDomainError(
            f"{quantity} requested at or after the singularity (tc = {params.tc})"
        )
    return arr, scalar


def eval_linear(params: LinearParams, t) -> float | np.ndarray:
    """Log price of the constant-growth-rate model."""
    arr, scalar = _as_array(t)
    return _ret(params.p0 + params.c0 * (arr - params.t0), scalar)


def eval_double_exp(params: DoubleExpParams, t) -> float | np.ndarray:
    """Log price of the double-exponential model, p0 + C0 ``_dexp_basis``.

    p(t) = p0 + (C0/b2) [exp(b2 (t - t0)) - 1].  The b2 -> 0 limit is the
    linear model, which b2 = 0 gives exactly.
    """
    arr, scalar = _as_array(t)
    h, _ = _dexp_basis(params.b2, arr - params.t0, False)
    return _ret(params.p0 + params.c0 * h, scalar)


def eval_singularity(params: SingularityParams, t) -> float | np.ndarray:
    """Log price of the singular model, p0 + C0 ``_sing_basis``; defined only for t < tc.

    Strictly increasing on [t0, tc) and divergent as t -> tc.  At t = t0
    the bracket vanishes and p(t0) = p0 exactly.
    """
    arr, scalar = _before_tc(params, t, "log price")
    g, _ = _sing_basis(params.tc, params.alpha, arr, params.t0, False)
    return _ret(params.p0 + params.c0 * g, scalar)


def evaluate(params, t) -> float | np.ndarray:
    """Evaluate the log price of whichever model the parameters describe."""
    if isinstance(params, LinearParams):
        return eval_linear(params, t)
    if isinstance(params, DoubleExpParams):
        return eval_double_exp(params, t)
    if isinstance(params, SingularityParams):
        return eval_singularity(params, t)
    raise TypeError(f"unknown parameter type: {type(params).__name__}")


def growth_rate_curve(params: SingularityParams, dt: float, t) -> float | np.ndarray:
    """Per-period growth rate r(t) = C0 dt ((tc - t0)/(tc - t))^(1 + alpha).

    r(t0) = C0 dt = r0, and r blows up as t -> tc.  ``dt`` is the
    measurement period in the same units as t.
    """
    arr, scalar = _before_tc(params, t, "growth rate")
    _, ratio, _, f = _sing_ratio(params.tc, params.alpha, arr, params.t0)
    return _ret(params.c0 * dt * (f * ratio), scalar)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def alpha_to_gamma(alpha: float | np.ndarray) -> float | np.ndarray:
    """Growth exponent gamma = (2 + alpha)/(1 + alpha), of a float or elementwise of an array."""
    if np.any(alpha == -1.0):
        raise ModelDomainError("alpha = -1 has no growth exponent")
    return (2.0 + alpha) / (1.0 + alpha)


def ab_coefficients(params: SingularityParams) -> tuple[float, float]:
    """Coefficients of the equivalent form p(t) = A + B (tc - t)^(-alpha).

    A = p0 - C0 (tc - t0)/alpha and B = C0 (tc - t0)^(1 + alpha)/alpha.
    The identity holds for every t < tc.  A and B mix the base parameters,
    so their uncertainties are strongly correlated; they are reported as
    derived values only and never fitted directly.
    """
    span = params.tc - params.t0
    a_coeff = params.p0 - params.c0 * span / params.alpha
    b_coeff = params.c0 * span ** (1.0 + params.alpha) / params.alpha
    return a_coeff, b_coeff


def doubling_time(params: SingularityParams, t) -> float | np.ndarray:
    """Time for the price index to double, near the singularity.

    tau2(t) = (ln 2 / C0) ((tc - t)/(tc - t0))^(1 + alpha).  Positive,
    strictly decreasing, and -> 0 as t -> tc.  The expression is exact only
    asymptotically (for tau2 much smaller than tc - t).
    """
    arr, scalar = _before_tc(params, t, "doubling time")
    _, ratio, _, f = _sing_ratio(params.tc, params.alpha, arr, params.t0)
    return _ret(LN2 / (params.c0 * (f * ratio)), scalar)


def doubling_time_from_ab(alpha: float, b_coeff: float, time_to_tc) -> float | np.ndarray:
    """Doubling time from the (alpha, B) parameterization.

    tau2 = ln 2 / (alpha B) * (tc - t)^(1 + alpha), taking the remaining
    time tc - t directly.  Equivalent to :func:`doubling_time` when B comes
    from :func:`ab_coefficients`; useful when only (alpha, B) are published.
    """
    arr, scalar = _as_array(time_to_tc)
    if alpha <= 0 or b_coeff <= 0:
        raise ModelDomainError("alpha and B must be positive")
    if np.any(arr <= 0):
        raise ModelDomainError("time to tc must be positive")
    return _ret(LN2 / (alpha * b_coeff) * arr ** (1.0 + alpha), scalar)


def critical_time(r0: float, gamma: float, a1: float, t0: float = 0.0) -> float:
    """Blow-up time of dr/dt = a1 r^gamma started from r(t0) = r0.

    tc = t0 + 1 / (a1 (gamma - 1) r0^(gamma - 1)), finite whenever r0 > 0,
    gamma > 1 and a1 > 0.
    """
    if not (r0 > 0 and gamma > 1 and a1 > 0):
        raise ModelDomainError(
            f"blow-up requires r0 > 0, gamma > 1, a1 > 0; got {(r0, gamma, a1)}"
        )
    return t0 + 1.0 / (a1 * (gamma - 1.0) * r0 ** (gamma - 1.0))


# ---------------------------------------------------------------------------
# Discrete recursion simulator
# ---------------------------------------------------------------------------

#: Rates beyond this are treated as blown up; keeps r**gamma inside float range.
_BLOWUP_LIMIT = 1e150


def simulate_recursion(params: RecursionParams, n_steps: int) -> RecursionResult:
    """Iterate the feedback recursion for n_steps periods of length dt.

    Steps k = 0 and k = 1 are both seeded with r0 (the recursion couples
    r(t + dt) to r(t - dt), so odd and even steps form two independent
    interleaved maps).  With a = 0 the output is constant r0; with
    gamma = 1 each stride multiplies the rate by (1 + a).  When a value
    overflows, the sequence is truncated there and flagged instead of
    raising.
    """
    if n_steps < 1:
        raise ModelDomainError(f"n_steps must be >= 1, got {n_steps}")
    out = np.empty(n_steps + 1)
    out[0] = params.r0
    out[1] = params.r0
    for k in range(2, n_steps + 1):
        prev = out[k - 2]
        if prev > _BLOWUP_LIMIT:
            return RecursionResult(rates=out[:k], blew_up=True)
        with np.errstate(over="ignore"):
            nxt = prev + params.a * prev ** params.gamma
        if not math.isfinite(nxt):
            return RecursionResult(rates=out[:k], blew_up=True)
        out[k] = nxt
    return RecursionResult(rates=out, blew_up=False)
