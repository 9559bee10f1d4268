"""Nonlinear least-squares estimation of price-model parameters.

All fits minimize the sum of squared residuals of the natural-log price,
unweighted, and report the root-mean-square residue under both conventions,
k the free parameters:

    chi = sqrt(SSR / N),    chi_n_minus_k = sqrt(SSR / (N - k))

The singular and double-exponential models are affine in (C0, p0) once
their shape parameters are fixed, so one closed-form solve (``_project``)
gives (C0, p0), pinned p0 or not, and the fits search the shape parameters
alone (variable projection, Golub & Pereyra 1973): a coarse grid seeds one
projected Levenberg-Marquardt engine (``_lm``), which refines (tc, alpha)
or b2 and refits every Monte Carlo generation.  The grid, the refine and
the refit call one residual function per model (``_sing_residuals``, or
``model`` in ``fit_double_exp``), which evaluates the model's basis from
``hyperfit.models`` (``_sing_basis`` with t0 = t[0], ``_dexp_basis``): the
one coding of each formula, the one ``evaluate`` reads too, so a fit's
residuals are the log index less ``evaluate`` at its parameters, up to the
rounding of the (C0, p0) solve.  This module holds no model formula.  The
engine takes each row's normal
equations, which ``_project`` builds from a few inner products per row
(Kaufman 1975) without forming the Jacobian.  Everything is deterministic
for a given input and ``FitConfig``; grid ties are broken toward the smaller
critical time.

Trial points may overflow or divide by zero; the engine rejects their
non-finite objectives and the grid skips them.  So every entry point that
evaluates a model (``fit_linear``, ``fit_singularity``, ``fit_double_exp``,
``fit_singular_rows``, ``_sing_grid_seed`` and ``_sing_linearization``)
runs under one floating-point state, ``_FP_STATE``, which ignores division
by zero, invalid operations and overflow, and the functions they call set
none of their own: one ``np.errstate`` per fit, not one per model call.
Inner products go straight to numpy's C einsum (``c_einsum``), which
``np.einsum`` forwards to without optimization, bit for bit, after about
1 us of Python per call (2-vCPU VM, numpy 2.4).  ``c_einsum`` is private to
numpy, so a numpy without it gets ``np.einsum`` itself: the same bits, in
about 1.07x the time of a direct fit and 1.05x that of a ``run_mc``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError:
    c_einsum = np.einsum

from .models import (MODEL_PARAMS, DoubleExpParams, LinearParams, SingularityParams,
                     _dexp_basis, _sing_basis)
from .series import PriceIndexSeries


class FitError(ValueError):
    """Fit rejected: degenerate input or too few points."""


@dataclass(frozen=True)
class FitConfig:
    """The one choice a caller makes about a fit: whether p0 is pinned.

    Every fit runs the same search, fixed by the module constants below.
    """

    pin_p0: bool = False                 # pin p0 to the observed ln P(t0)


#: The search every nonlinear fit runs.  alpha is searched in
#: ``_ALPHA_BOUNDS`` and b2 in [0, ``_B2_SPAN_MAX`` / span], span the time
#: the data cover; tc in ``tc_search_window``.  The grids that seed the
#: engine take ``_GRID_TC`` x ``_GRID_ALPHA`` (tc, alpha) nodes and
#: ``_GRID_B2`` b2 nodes.  The (tc, alpha) grid only has to seed the refine
#: in the basin of the lowest minimum.  On the bundled episodes, noiseless
#: and perturbed at 5-100 % rate error, 20 x 16 nodes end every fit at the
#: minimum that 48 x 32 or 96 x 64 nodes do, in about 0.6x the time of 48 x
#: 32; 16 x 12 nodes missed it on 3 of 13,000 fits at 100 %, where the
#: objective has minima 0.1-1 % apart.  ``_lm`` ends a row on ``_XTOL``
#: (relative parameter change of a finite trial step, taken or not),
#: ``_FTOL`` (relative objective change of a trial, up or down) or after
#: ``_MAX_ITER`` rounds.
_ALPHA_BOUNDS = (0.01, 5.0)
_B2_SPAN_MAX = 20.0
_GRID_TC, _GRID_ALPHA, _GRID_B2 = 20, 16, 48
_XTOL, _FTOL = 1e-9, 1e-12
_MAX_ITER = 400

#: The floating-point state of every fit (module docstring), as a decorator.
_FP_STATE = np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _ladder(lo: float, hi: float, num: int) -> np.ndarray:
    """``np.geomspace(lo, hi, num)`` bit for bit, for finite 0 < lo < hi and num >= 2.

    The same steps as numpy's geomspace -> logspace -> linspace (log10 of the
    ends, an arange scaled and shifted in place, 10 ** that, the ends pinned;
    linspace's pinned last exponent is left out, as the pinned end replaces
    its power) without their Python-level argument handling: about 4 us a
    call where ``np.geomspace`` takes 20 us (2-vCPU VM, numpy 2.4).
    """
    log_lo, log_hi = np.log10((lo, hi))
    y = np.arange(num, dtype=float)
    y *= (log_hi - log_lo) / (num - 1)
    y += log_lo
    nodes = np.power(10.0, y)
    nodes[0], nodes[-1] = lo, hi
    return nodes


#: The alpha nodes of the (tc, alpha) grid, the same for every fit: placed
#: once, from ``_ALPHA_BOUNDS`` and ``_GRID_ALPHA`` as they are at import.
_ALPHA_NODES = _ladder(*_ALPHA_BOUNDS, _GRID_ALPHA)
_ALPHA_NODES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class FitResult:
    """What one fit found: its parameters, its residuals and how the engine ended.

    The parameters fix the model, ``model`` (its name in ``MODEL_PARAMS``),
    and with ``p0_pinned`` the number of free parameters, ``n_free_params``:
    every parameter but t0, less p0 when it is pinned.  ``residuals`` is
    p_data - p_model, and everything else about the fit's quality derives
    from it: ``objective`` is its sum of squares and ``chi`` and
    ``chi_n_minus_k`` the residue sqrt(objective / N) and
    sqrt(objective / (N - k)), k = ``n_free_params`` (inf when N <= k), so
    a published residue can be compared under either convention.  The
    nonlinear fits take the residuals from the closed-form (C0, p0) solve at
    their final shape parameters, as the engine scored them, so a
    double-exponential fit at b2 = 0 has the linear fit's residuals bit for
    bit.
    """

    params: LinearParams | DoubleExpParams | SingularityParams
    residuals: np.ndarray
    converged: bool
    iterations: int                      # LM rounds run; 0 for closed forms
    p0_pinned: bool = False

    @property
    def model(self) -> str:
        return next(name for name, cls in MODEL_PARAMS.items() if type(self.params) is cls)

    @property
    def n_free_params(self) -> int:
        return len(fields(self.params)) - 1 - self.p0_pinned

    @property
    def objective(self) -> float:
        return float(_ssr(self.residuals))

    @property
    def n_points(self) -> int:
        return len(self.residuals)

    @property
    def chi(self) -> float:
        return float(np.sqrt(self.objective / self.n_points))

    @property
    def chi_n_minus_k(self) -> float:
        n, k = self.n_points, self.n_free_params
        return float(np.sqrt(self.objective / (n - k))) if n > k else float("inf")


def _ssr(resid: np.ndarray) -> np.ndarray:
    """Sum of squared residuals along the last axis."""
    return c_einsum("...k,...k->...", resid, resid)


def _data_side(p: np.ndarray, pinned_p0: float | None):
    """(p - shift, shift) per row of p: shift is the row mean, or the pinned p0."""
    if pinned_p0 is None:                # p.mean's add.reduce and true_divide, unwrapped
        shift = p.sum(axis=-1) / p.shape[-1]
    else:
        shift = np.full(p.shape[:-1], float(pinned_p0))
    return p - shift[..., None], shift


def _project(g: np.ndarray, y: np.ndarray, shift, centre: bool, dg=None):
    """Least squares of y + shift on p0 + C0 g along the last axis, per row.

    (y, shift) come from ``_data_side``; with ``centre`` (p0 free) g is
    centred like y, which keeps the solve accurate when g is large against
    its spread.  Returns (resid, normal, c0, p0), normal None without dg.

    Given dg/dx as (k, rows, n), normal is the engine's (J^T J, J^T resid)
    for Kaufman's Jacobian J (BIT 15 (1975) 49): C0 dg/dx less its part in
    span{1, g} (span{g} with p0 pinned), so dg/dx is needed only up to that
    span.  J is never formed.  With p0 free dg is centred in place, which
    removes its part along 1; then with g as above and a = dg.g / g.g,

        J^T J     = C0^2 (dg.dg - (g.g) a a^T)
        J^T resid = C0 (dg.resid - a (g.resid))

    g.resid and, with p0 free, 1.resid (taken out by the centring) vanish
    but for rounding; keeping them holds the rounding of J^T resid to that
    of J.  The part of C0 dg/dx dropped from J lies in span{1, g},
    orthogonal to resid, so J^T resid is exactly -grad(SSR / 2).
    """
    n = g.shape[-1]
    g_mean = c_einsum("...k->...", g) / n if centre else np.zeros(g.shape[:-1])
    g = g - g_mean[..., None]
    den = _ssr(g)
    c0 = c_einsum("...k,...k->...", g, y) / den
    resid = y - c0[..., None] * g
    p0 = shift - c0 * g_mean
    if dg is None:
        return resid, None, c0, p0
    if centre:
        dg -= (c_einsum("jik->ji", dg) / n)[..., None]
    b = c_einsum("jik,ik->ji", dg, g)
    a = b / den
    diag = _ssr(dg) - a * b
    if len(dg) == 1:
        jtj = diag[None]
    else:                               # J^T J is symmetric: three products
        off = c_einsum("ik,ik->i", dg[0], dg[1]) - a[0] * b[1]
        jtj = np.array([[diag[0], off], [off, diag[1]]])
    jtr = c_einsum("jik,ik->ji", dg, resid) - a * c_einsum("ik,ik->i", g, resid)
    jtj *= c0 * c0
    jtr *= c0
    return resid, (jtj.transpose(2, 0, 1), jtr.T), c0, p0


def _damped_step(jtj: np.ndarray, jtr: np.ndarray, lam: np.ndarray, free: np.ndarray,
                 curv: np.ndarray | None = None):
    """Per row, the step delta of (C + lam D) delta = J^T r on the free coordinates.

    C is ``curv`` (default J^T J) and D is diag(J^T J) floored at 1e-30; a
    held coordinate (``free`` False) drops out of the system and gets
    delta = 0.  Solved in closed form for k = 1 or 2, the only sizes the
    engine serves, so no row pays for a LAPACK call, and one coordinate's
    column at a time: at 1024 rows the same operations took 27 us on
    strided and broadcast (rows, 2) arrays and take 17 us on 1-D columns
    (2-vCPU VM, numpy 2.4), with the same bits.
    """
    if curv is None:
        curv = jtj
    b = np.where(free, jtr, 0.0)
    k = jtr.shape[1]
    d = [np.where(free[:, i], curv[:, i, i] + lam * np.maximum(jtj[:, i, i], 1e-30), 1.0)
         for i in range(k)]
    if k == 1:
        return b / d[0][:, None]
    b0, b1 = b[:, 0], b[:, 1]
    off = np.where(free[:, 0] & free[:, 1], curv[:, 0, 1], 0.0)
    det = d[0] * d[1] - off * off
    # coordinate i is d_j b_i - off b_j, j the other coordinate (Cramer's rule)
    step = np.empty_like(b)
    np.divide(d[1] * b0 - off * b1, det, out=step[:, 0])
    np.divide(d[0] * b1 - off * b0, det, out=step[:, 1])
    return step


def _row_items(a: np.ndarray) -> np.ndarray:
    """C-contiguous ``a`` as a 1-D array of its rows (first axis): ``a`` itself
    when 1-D, else a view with one ``np.void`` item per row.

    ``_lm`` scatters rows of (rows, k) and (rows, k, k) state through these
    views: numpy assigns 1-D items quickly, but fancy-indexed rows of a 2-D
    or 3-D array by a slow generic path (``_lm`` gives the costs).  The
    bytes move as they are, so every bit is kept, NaN payloads included.
    Writing through the view writes ``a``; a non-contiguous ``a`` would be
    copied instead, so pass only arrays made contiguous.
    """
    if a.ndim == 1:
        return a
    size = math.prod(a.shape[1:])
    return a.reshape(-1, size).view(_void(a.itemsize * size))[:, 0]


@cache
def _void(nbytes: int) -> np.dtype:
    """The ``np.void`` dtype of ``nbytes`` bytes, made once (0.4 us a call)."""
    return np.dtype((np.void, nbytes))


#: Rows in flight in ``_lm``: as one ends, the next pending row joins.  Rows
#: do not interact, so results do not depend on it; it only bounds the
#: working arrays of each model call, for a Monte Carlo refit of m rows.
_IN_FLIGHT = 1024


def _lm(model, x0, lb, ub):
    """Projected Levenberg-Marquardt over a batch of independent fits.

    ``model(x, rows, with_jac)`` returns a tuple that starts with the
    residuals r (data - model) of batch rows ``rows`` at parameters x
    (len(rows), k) and, if asked, their normal equations (J^T J, J^T r) as
    (len(rows), k, k) and (len(rows), k), J = d(model)/dx; further items are
    per-row values, such as the closed-form (C0, p0), or per-row arrays, such
    as the residuals.  The engine never sees J itself, so a model may build
    the two products from inner products (``_project``).  k is 1 or 2: the
    damped step is solved in closed form (``_damped_step``), with no LAPACK
    call.

    Each round evaluates the model once, with normal equations, at every row's
    trial point.  A row keeps its normal equations (J^T J, J^T r) at its
    current x: an accepted step takes over the trial's, a rejected one
    re-solves the kept ones with ten times the damping.  At most
    ``_IN_FLIGHT`` rows are in flight; as rows finish, pending rows join in
    index order, evaluated at their start in the same model call.  Each row
    runs at most ``_MAX_ITER`` rounds of its own.  Rows keep their own damping
    and stop state, so a row's result depends on neither the batch nor how
    many rows are in flight.  A step is only accepted when it does not raise
    the row's objective.

    The step solves (C + lam D) delta = J^T r, D = diag(J^T J).  For k = 2
    the curvature C is J^T J (Gauss-Newton).  For k = 1 it is the secant
    slope of the row's gradient over its last accepted step s, y / s with
    y = J^T r before the step - J^T r after it, while that slope is > 0,
    and J^T J otherwise; the first round is Gauss-Newton, and a rejected
    step keeps the slope.  This is the one-dimensional case of NL2SOL's
    structured secant update (Dennis, Gay & Welsch, ACM TOMS 7 (1981) 348),
    to which all its variants reduce.  The double-exponential fits of the
    bundled episodes leave large residuals (SSR 5.6 to 391), under which
    Gauss-Newton shrinks the b2 error only about 5x per round: on their 40
    benchmark inputs, started at the best b2 grid node, the slope took 4-6
    rounds (mean 5.2) where J^T J took 8-11 (mean 9.35).  For k = 2, three
    structured-secant variants tried on the (tc, alpha) fits each raised
    the rounds: direct singular fits 4.62 -> 4.83 per fit with PSB sized
    as in NL2SOL, and the Peru Monte Carlo refit 5.85 -> 6.50 per row with
    it, 6.81 with SR1 and 7.26 unsized.

    The box [lb, ub] is per coordinate (equal bounds pin one) and kept by
    projection: a trial step is clipped onto it, and a coordinate on a bound
    whose descent direction points out of the box is held for that step, so
    it can leave the bound as soon as the data pull it back.  Only the box
    bounds a step: there is no cap on its length, so a row crosses a wide
    box in one round when the damped step points there.

    A row converges when a trial with a finite objective steps every
    coordinate by less than ``_XTOL`` (relative to |x| + 1), accepted or not,
    or when a trial changes the objective by at most ``_FTOL`` relative, up or down
    (MINPACK's xtol test, also after an unsuccessful step, and its two-sided
    ftol test; Moré 1978).  A trial that raises the objective is not taken,
    so a row that ends on one keeps its x.  A row at the round-off floor
    thus stops at once instead of damping a futile step until it rounds to
    zero, even where rounding moves its objective by more than ``_FTOL``.  A row
    whose first trial ends it keeps its start, even when that trial scores
    lower, so a row started at a converged fit returns that fit bit for bit.
    A non-finite trial never ends a row, and a row whose objective starts
    non-finite runs no round.  Returns (x, ssr, converged, rounds run), then
    each further item of the model at every row's final x; a batch of 0 rows
    takes those from one model call on 0 rows, the only call it makes.

    Per-round state moves by ``take`` along the row axis or by 1-D items,
    never by advanced indexing of (rows, k) or (rows, k, k) arrays, and the
    round's arithmetic runs on 1-D columns or on (rows, k) arrays of one
    shape.  numpy's generic paths for the other forms cost more than the
    arithmetic; at 1024 rows (2-vCPU VM, numpy 2.4):

    - a gather ``a[idx]`` of (rows, 2) or (rows, 2, 2) state takes 7.1-7.2
      us, ``a.take(idx, axis=0)`` 0.7-0.9 us;
    - a selection ``a[mask]`` 6.6 us, ``a.compress(mask, axis=0)`` 1.4 us,
      and ``take`` on ``mask.nonzero()``, found once a round, 0.5 us;
    - a scatter ``a[idx] = v`` 5.4 us, the same through ``_row_items``
      0.8 us;
    - ``q.max(axis=1)`` 26 us, ``np.maximum(q[:, 0], q[:, -1])`` 1.3 us;
    - comparing (rows, 2) values with the (2,) bounds 3.5 us, with bounds
      held row by row 0.55 us;
    - the damped step on strided and broadcast (rows, 2) arrays 27 us, one
      coordinate's column at a time 17 us (``_damped_step``).

    None of these changes an operation's arithmetic, so every bit is that
    of the indexing forms, and at one row they cost no more.
    """
    m, k = x0.shape
    x = np.minimum(np.maximum(x0, lb), ub)
    ssr = np.empty(m)
    jtj = np.empty((m, k, k))
    jtr = np.empty((m, k))
    curv = np.empty((m, 1, 1)) if k == 1 else None  # the step's curvature, for k = 1
    curv_at = None if curv is None else _row_items(curv)
    lam = np.full(m, 1e-3)
    converged = np.zeros(m, dtype=bool)
    rounds = np.zeros(m, dtype=int)
    x_at, jtj_at, jtr_at = _row_items(x), _row_items(jtj), _row_items(jtr)  # scatter targets
    kept = None                             # the model's further items at each row's x
    # the bounds row by row: compared against (rows, k) arrays of the same shape
    lb_rows, ub_rows = (np.full((min(m, _IN_FLIGHT), k), bound) for bound in (lb, ub))
    live = np.empty(0, dtype=np.intp)       # rows in flight: their step comes next
    joined = 0                              # rows 0 .. joined-1 have been admitted

    while True:
        fresh = slice(joined, min(m, joined + _IN_FLIGHT - live.size))
        new = np.arange(fresh.start, fresh.stop)
        joined = fresh.stop
        s = live.size
        if s + new.size == 0:
            break
        rows = live
        if s:
            xa = x.take(live, axis=0)
            g = jtr.take(live, axis=0)
            lo, hi = lb_rows[:s], ub_rows[:s]
            free = ~(((xa <= lo) & (g <= 0.0)) | ((xa >= hi) & (g >= 0.0)))
            lam_live = lam[live]
            delta = _damped_step(jtj.take(live, axis=0), g, lam_live, free,
                                 None if curv is None else curv.take(live, axis=0))
            trial = points = np.minimum(np.maximum(xa + delta, lo), hi)
            rounds_live = rounds[live] + 1
            rounds[live] = rounds_live
        if new.size:
            rows = np.concatenate([live, new])
            points = np.concatenate([trial, x[fresh]]) if s else x[fresh]

        r, (jtj_e, jtr_e), *more = model(points, rows, True)
        ssr_e = _ssr(r)
        if kept is None:
            kept = [np.empty((m, *v.shape[1:]), v.dtype) for v in more]
            kept_at = [_row_items(keep) for keep in kept]
        if new.size:
            ssr[fresh], jtj[fresh], jtr[fresh] = ssr_e[s:], jtj_e[s:], jtr_e[s:]
            for keep, v in zip(kept, more):
                keep[fresh] = v[s:]
            if curv is not None:
                curv[fresh] = jtj_e[s:]

        if s:
            ssr_new, ssr_old = ssr_e[:s], ssr[live]
            finite = np.isfinite(ssr_new)
            better = finite & (ssr_new <= ssr_old)
            step = trial - xa
            q = np.abs(step) / (np.abs(xa) + 1.0)     # k <= 2: columns 0 and -1 are all of q
            step_small = np.maximum(q[:, 0], q[:, -1]) < _XTOL
            flat = finite & (np.abs(ssr_new - ssr_old) <= _FTOL * np.maximum(ssr_new, 1e-300))
            done = flat | (finite & step_small)
            better &= ~(done & (rounds_live == 1))     # a converged start keeps its bits

            kb = better.nonzero()[0]        # the rows that take their trial, among live
            upd = live[kb]
            jtj_u, jtr_u = jtj_e.take(kb, axis=0), jtr_e.take(kb, axis=0)
            if curv is not None:            # the secant slope of the gradient, while > 0
                slope = ((jtr.take(upd, axis=0) - jtr_u) / step.take(kb, axis=0))[:, :, None]
                curv_at[upd] = _row_items(np.where(slope > 0.0, slope, jtj_u))
            x_at[upd] = _row_items(trial.take(kb, axis=0))
            ssr[upd] = ssr_e[kb]
            jtj_at[upd], jtr_at[upd] = _row_items(jtj_u), _row_items(jtr_u)
            for keep_at, v in zip(kept_at, more):
                keep_at[upd] = _row_items(v.take(kb, axis=0))
            lam[live] = np.where(better, np.maximum(lam_live * 0.3, 1e-12),
                                 np.minimum(lam_live * 10.0, 1e15))
            converged[live[done]] = True
            live = live[~done]

        if new.size:
            live = np.concatenate([live, new[np.isfinite(ssr[fresh])]])
        live = live[rounds[live] < _MAX_ITER]

    if kept is None:                        # 0 rows: the further items, as 0 rows
        kept = model(x, live, False)[2:]
    return x, ssr, converged, rounds, *kept


def _points(index: PriceIndexSeries, model: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A fit's data (t, p), refusing a series of fewer than k points."""
    t = index.times()
    if len(t) < k:
        raise FitError(f"{model} fit needs at least {k} points, got {len(t)}")
    return t, index.log_index


# ---------------------------------------------------------------------------
# Linear model
# ---------------------------------------------------------------------------

@_FP_STATE
def fit_linear(index: PriceIndexSeries, config: FitConfig | None = None) -> FitResult:
    """Ordinary least squares of the log index on time: global optimum in closed form.

    ``config`` is taken for the fitters' common signature: p0 is always free.
    """
    t, p = _points(index, "linear", 3)
    t0 = float(t[0])
    resid, _, c0, p0 = _project(t - t0, *_data_side(p, None), True)
    params = LinearParams(p0=float(p0), c0=float(c0), t0=t0)
    return FitResult(params, resid, converged=True, iterations=0)


# ---------------------------------------------------------------------------
# Finite-time singularity model
# ---------------------------------------------------------------------------

def tc_search_window(times: np.ndarray) -> tuple[float, float]:
    """Critical-time search interval for a set of observation times.

    [last epoch + dt/2, last epoch + span], dt the median step and span the
    time the data cover: a singularity inside the data would contradict the
    finite observed prices, and one further out than a full series span is
    unconstrained by the data.
    """
    t_last = float(times[-1])
    steps = times[1:] - times[:-1]    # their median; np.median would import numpy.ma
    steps.sort()
    k = len(steps) // 2
    dt = float(steps[k] if len(steps) % 2 else (steps[k - 1] + steps[k]) / 2.0)
    return t_last + dt / 2.0, t_last + (t_last - float(times[0]))


def _sing_residuals(tc: np.ndarray, alpha: np.ndarray, t: np.ndarray, y: np.ndarray, shift,
                    centre: bool, with_jac: bool):
    """``_project``'s (resid, normal, c0, p0) for the singular model (``_sing_basis``).

    C0 <= 0 is outside the model: such rows get NaN residuals, which the
    engine rejects and the grid skips.
    """
    g, dg = _sing_basis(tc, alpha, t, t[0], with_jac)
    resid, normal, c0, p0 = _project(g, y, shift, centre, dg)
    resid[~(c0 > 0)] = np.nan
    return resid, normal, c0, p0


@_FP_STATE
def _sing_linearization(t: np.ndarray, tc: float, alpha: float, centre: bool):
    """First-order response (A, w) of a singular fit at (tc, alpha) to its data.

    With D the columns dg/d(tc, alpha) of ``_sing_basis`` and P the
    projector out of span{1, g} (``centre``, p0 free) or span{g} (p0
    pinned), A = (D^T P D)^-1 D^T P is a 2 x n map (Kaufman, BIT 15 (1975)
    49): a change dp of the log prices moves the optimum's (tc, alpha) by
    A dp / C0 to first order, less a term in the fit's residuals that
    Gauss-Newton drops, and S = A / C0 is their sensitivity to ln P.
    w = g / |g|^2, g centred with p0 free, gives C0 at fixed (tc, alpha):
    it moves by w.dp.
    """
    g, dg = _sing_basis(tc, alpha, t, t[0], True)
    if centre:
        g = g - g.mean()
        dg -= dg.mean(axis=1, keepdims=True)
    w = g / (g @ g)
    pd = dg - np.outer(dg @ w, g)       # (P D)^T
    return np.linalg.solve(pd @ pd.T, pd), w


#: The upper bound of a fit not bounded above, in box widths from the box's
#: lower edge: tc and alpha are held at most one box width beyond the box.
#: Left unbounded, a row that heads away may spend all ``_MAX_ITER`` rounds
#: out there, and the Monte Carlo moments exclude it if it ends outside.
#: Not the box edge itself: some refits step out and come back (at di = 0.5,
#: Peru to 1.133 box widths in tc and Zimbabwe to 1.034 in alpha), while
#: none that ends inside the box has been seen to pass two.
_REACH_BOXES = 2.0


@_FP_STATE
def fit_singular_rows(p_data: np.ndarray, t: np.ndarray, seed: tuple[float, float] | np.ndarray,
                      bounded_above: bool = True, pinned_p0: float | None = None):
    """Singular-model fits of every row of p_data from (tc, alpha) seeds.

    ``seed`` is one (tc, alpha) pair for all rows, or an (m, 2) array of
    one pair per row.  The engine refines (tc, alpha); (C0, p0) are solved
    in closed form, p0 held at ``pinned_p0`` if given.  tc and alpha are
    held at or above the lower edges of ``tc_search_window(t)`` and
    ``_ALPHA_BOUNDS``, and at or below the upper edges with
    ``bounded_above``, or else at most one box width beyond them
    (``_REACH_BOXES``); a seed outside those bounds starts on them.  A row
    seeded at a converged fit of its data returns that fit bit for bit:
    ``_lm`` keeps a start that its first trial ends, and the offset
    tc - tc_lo is exact (Sterbenz's lemma, as tc < 2 tc_lo), so adding
    tc_lo back gives the seed's tc, as adding a_lo gives its alpha.
    Returns ((tc, alpha, c0, p0), ssr, converged, rounds), one array entry
    per row.
    """
    tc_lo, tc_hi = tc_search_window(t)
    a_lo, a_hi = _ALPHA_BOUNDS
    box = np.array([tc_hi - tc_lo, a_hi - a_lo])
    ub = box if bounded_above else _REACH_BOXES * box
    y, shift = _data_side(p_data, pinned_p0)
    x0 = np.empty((len(p_data), 2))
    x0[:] = np.asarray(seed, dtype=float) - (tc_lo, a_lo)

    def model(x, rows, with_jac):
        return _sing_residuals(tc_lo + x[:, :1], a_lo + x[:, 1:], t, y.take(rows, axis=0),
                               shift[rows], pinned_p0 is None, with_jac)

    x, ssr, converged, rounds, c0, p0 = _lm(model, x0, np.zeros(2), ub)
    return (tc_lo + x[:, 0], a_lo + x[:, 1], c0, p0), ssr, converged, rounds


@_FP_STATE
def _sing_grid_seed(t, p, pinned_p0):
    """Best (tc, alpha, c0, p0) over the initialization grid.

    ``_GRID_TC`` tc nodes span ``tc_search_window(t)`` and ``_GRID_ALPHA``
    alpha nodes span ``_ALPHA_BOUNDS``, both spaced geometrically (tc in its
    distance to the last epoch).  tc is the outer grid axis in ascending
    order, so the first minimum of the flattened objective (what argmin
    returns) is the smallest-tc tie.
    """
    t_last = float(t[-1])
    tc_lo, tc_hi = tc_search_window(t)
    tc_nodes = t_last + _ladder(tc_lo - t_last, tc_hi - t_last, _GRID_TC)
    resid, _, c0, p0 = _sing_residuals(tc_nodes[:, None, None], _ALPHA_NODES[:, None], t,
                                       *_data_side(p, pinned_p0), pinned_p0 is None, False)
    ssr = _ssr(resid)
    finite = np.isfinite(ssr)
    if not finite.any() or np.ptp(p) == 0.0:  # C0 of flat data is 0 up to rounding
        raise FitError("singular model does not apply: no grid node gives C0 > 0 "
                       "(the log price index does not grow, as in flat or deflating data)")
    i, j = np.unravel_index(np.argmin(np.where(finite, ssr, np.inf)), ssr.shape)
    return float(tc_nodes[i]), float(_ALPHA_NODES[j]), float(c0[i, j]), float(p0[i, j])


@_FP_STATE
def fit_singularity(index: PriceIndexSeries, config: FitConfig | None = None) -> FitResult:
    """Fit the finite-time-singularity model to a log price index.

    Minimizes the squared log-price residuals over (tc, alpha, C0, p0)
    subject to tc beyond the last epoch, alpha > 0, C0 > 0, searching
    (tc, alpha) with (C0, p0) in closed form.  Flat or deflating data, where
    no grid node gives C0 > 0, raise FitError.  p0 stays free
    by default: pinning it to the observed ln P(t0) fixes the curve at the
    first point and can bias tc, so that variant is opt-in via
    ``config.pin_p0``.
    """
    config = config or FitConfig()
    t, p = _points(index, "singularity", 6)
    if not (p[-3:] > p[-4:-1]).all():
        warnings.warn(
            "log price index is not strictly increasing near the end of the "
            "window; the singular model may be inappropriate",
            stacklevel=3,                   # past _FP_STATE's wrapper, to the caller
        )
    t0 = float(t[0])
    pinned = float(p[0]) if config.pin_p0 else None
    tc_s, a_s, _, _ = _sing_grid_seed(t, p, pinned)
    (tc, alpha, c0, p0), _, converged, rounds = fit_singular_rows(
        p[None, :], t, (tc_s, a_s), pinned_p0=pinned)
    params = SingularityParams(tc=float(tc[0]), alpha=float(alpha[0]), c0=float(c0[0]),
                               p0=float(p0[0]), t0=t0)
    # Evaluated again, not kept by the engine: keeping them would cost every Monte Carlo refit.
    resid, *_ = _sing_residuals(tc[:, None], alpha[:, None], t,
                                *_data_side(p[None, :], pinned), pinned is None, False)
    return FitResult(params, resid[0], converged=bool(converged[0]), iterations=int(rounds[0]),
                     p0_pinned=config.pin_p0)


# ---------------------------------------------------------------------------
# Double-exponential model
# ---------------------------------------------------------------------------

#: Half-widths of the brackets of ``_dexp_start``, each relative to its middle b2.
_BRACKETS = (1e-2, 1e-4, 1e-6)


def _vertex(x: list, f: list) -> float | None:
    """The vertex of the parabola through three points (x, f), x ascending.

    None unless every f is finite and the parabola opens upward.
    """
    a, b = (x[1] - x[0]) * (f[1] - f[2]), (x[1] - x[2]) * (f[1] - f[0])
    if not (math.isfinite(f[0] + f[1] + f[2]) and a < b):
        return None
    return x[1] - 0.5 * ((x[1] - x[0]) * a - (x[1] - x[2]) * b) / (a - b)


def _dexp_start(nodes: np.ndarray, ssr: np.ndarray, score, hi: float) -> float:
    """The b2 at which ``fit_double_exp`` starts the engine.

    ``nodes`` are the b2 grid in ascending order, ``ssr`` their objectives
    and ``score`` gives the objectives of an array of b2 values in one call;
    both give a non-finite objective as inf.  Successive parabola vertices
    (``_vertex``; Brent 1973) refine the best node (the first of equal
    ones): the first through it and its two neighbours, each next one
    through v (1 - h), v and v (1 + h), v the vertex before it and h the
    next of ``_BRACKETS``, clipped at ``hi``.  A vertex is taken only when
    its parabola opens upward and its bracket holds the lowest point scored
    so far; otherwise the start is that point.  So a best node that is the
    first (b2 = 0, the linear fit) or the last node, or that has a
    non-finite neighbour, is the start.  The last vertex is not scored.
    The grid spaces b2 about 30 % apart, and after the three brackets the
    start nearly always lies within the engine's ``_FTOL`` of the minimum,
    so the engine's first trial ends the row at the start.  On 2505 fits
    (the five bundled episodes, noiseless and 100 perturbations each at di
    0.05, 0.1, 0.25, 0.5 and 1) all 2327 starts off the grid scored below
    the best node, so the engine, which never raises a row's objective,
    ended below it too; 2322 of them took 1 round and 5 took 3.
    """
    best = int(np.argmin(ssr))
    low_b2, low_ssr = float(nodes[best]), float(ssr[best])
    if not 0 < best < len(nodes) - 1:
        return low_b2
    v = _vertex(nodes[best - 1:best + 2].tolist(), ssr[best - 1:best + 2].tolist())
    for h in _BRACKETS:
        if v is None:
            return low_b2
        bracket = np.minimum(v * np.array([1.0 - h, 1.0, 1.0 + h]), hi)
        scores = score(bracket)
        low = int(np.argmin(scores))
        if not scores[low] <= low_ssr:
            return low_b2
        low_b2, low_ssr = float(bracket[low]), float(scores[low])
        v = _vertex(bracket.tolist(), scores.tolist())
    return low_b2 if v is None else v


@_FP_STATE
def fit_double_exp(index: PriceIndexSeries, config: FitConfig | None = None) -> FitResult:
    """Fit the double-exponential model over (b2, C0, p0) with b2 >= 0.

    The search runs over b2, with (C0, p0) in closed form and C0 of either
    sign.  At b2 = 0 the model is the linear one (the Cagan limit).  One
    model call scores the b2 grid; the engine starts from successive
    parabola vertices around its best node (``_dexp_start``), which take it
    1 round on the 40 benchmark inputs, where one bracket took it 3-4 and
    the best node 4-6.  The residuals are the ones the engine scored at the
    final b2, kept by ``_lm`` as a further item, so the fit makes no model
    call after the engine: 6 calls a fit on those inputs (the grid, three
    brackets of three b2, the engine's start and its one round).  ``config``
    is taken for the fitters' common signature: p0 is always free.
    """
    t, p = _points(index, "double-exponential", 6)
    t0 = float(t[0])
    x = t - t0
    span = float(x[-1])

    y, shift = _data_side(p, None)
    b2_hi = _B2_SPAN_MAX / span
    b2_nodes = np.concatenate(([0.0], _ladder(1e-4 / span, b2_hi, _GRID_B2 - 1)))

    def model(v, rows, with_jac):
        h, dh = _dexp_basis(v, x, with_jac)
        resid, normal, c0, p0 = _project(h, y, shift, True, dh)
        return resid, normal, c0, p0, resid

    def score(b2):
        ssr = _ssr(model(b2[:, None], None, False)[0])
        return np.where(np.isfinite(ssr), ssr, np.inf)

    start = _dexp_start(b2_nodes, score(b2_nodes), score, b2_hi)
    v, _, converged, rounds, c0, p0, resid = _lm(model, np.array([[start]]), np.zeros(1),
                                                 np.array([b2_hi]))
    params = DoubleExpParams(p0=float(p0[0]), c0=float(c0[0]), b2=float(v[0, 0]), t0=t0)
    return FitResult(params, resid[0], converged=bool(converged[0]), iterations=int(rounds[0]))

