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


@dataclass(frozen=True)
class RecursionResult:
    """Simulated growth rates r(t0 + k dt); truncated on overflow."""

    rates: np.ndarray
    blew_up: bool

    def __len__(self) -> int:
        return len(self.rates)


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------

def _as_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _ret(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def eval_linear(params: LinearParams, t) -> float | np.ndarray:
    """Log price of the constant-growth-rate model."""
    arr, scalar = _as_array(t)
    return _ret(params.p0 + params.c0 * (arr - params.t0), scalar)


def eval_double_exp(params: DoubleExpParams, t) -> float | np.ndarray:
    """Log price of the double-exponential model.

    p(t) = p0 + (C0/b2) [exp(b2 (t - t0)) - 1].  The b2 -> 0 limit is the
    linear model; expm1 keeps the bracket fully accurate for small b2 and
    the b2 = 0 case returns the analytic limit directly.
    """
    arr, scalar = _as_array(t)
    x = arr - params.t0
    if params.b2 == 0.0:
        return _ret(params.p0 + params.c0 * x, scalar)
    return _ret(params.p0 + params.c0 * np.expm1(params.b2 * x) / params.b2, scalar)


def eval_singularity(params: SingularityParams, t) -> float | np.ndarray:
    """Log price of the singular model; defined only for t < tc.

    Strictly increasing on [t0, tc) and divergent as t -> tc.  At t = t0
    the bracket vanishes and p(t0) = p0 exactly.
    """
    arr, scalar = _as_array(t)
    if np.any(arr >= params.tc):
        raise ModelDomainError(
            f"log price requested at or after the singularity (tc = {params.tc})"
        )
    span = params.tc - params.t0
    ratio = span / (params.tc - arr)
    bracket = ratio ** params.alpha - 1.0
    return _ret(params.p0 + params.c0 * span / params.alpha * bracket, scalar)


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
    arr, scalar = _as_array(t)
    if np.any(arr >= params.tc):
        raise ModelDomainError(
            f"growth rate requested at or after the singularity (tc = {params.tc})"
        )
    ratio = (params.tc - params.t0) / (params.tc - arr)
    return _ret(params.c0 * dt * ratio ** (1.0 + params.alpha), scalar)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def alpha_to_gamma(alpha: float) -> float:
    """Growth exponent gamma = (2 + alpha)/(1 + alpha)."""
    if alpha == -1.0:
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
    arr, scalar = _as_array(t)
    if np.any(arr >= params.tc):
        raise ModelDomainError(f"doubling time not defined at or after tc = {params.tc}")
    frac = (params.tc - arr) / (params.tc - params.t0)
    return _ret(LN2 / params.c0 * frac ** (1.0 + params.alpha), scalar)


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
