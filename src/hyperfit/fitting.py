"""Nonlinear least-squares estimation of price-model parameters.

All fits minimize the sum of squared residuals of the natural-log price,
unweighted, and report the root-mean-square residue under both conventions,
k the free parameters:

    chi = sqrt(SSR / N),    chi_n_minus_k = sqrt(SSR / (N - k))

The singular and double-exponential models are affine in (C0, p0) once
their shape parameters are fixed, so one closed-form solve (``_project``)
gives (C0, p0), pinned p0 or not, and the fits search the shape parameters
alone (variable projection, Golub & Pereyra 1973): a coarse grid, refined
by a few derivative-free model calls (finite-difference Newton stencils in
log(tc - t_last) and log(alpha) or in log(b2), one search: ``_stencil_start``),
brings a direct fit so close to the minimum that its start mostly passes the
stop test of the projected Levenberg-Marquardt engine (``_lm``, Gauss-Newton
for every k) already.  One step, ``_refine``, serves both direct fits: it
returns such a start without running the engine, and otherwise the engine
starts there and mostly ends in its first round.  The engine also refits
every Monte Carlo generation (``fit_singular_rows``).  The grid, the start,
the refine and the refit call one residual function per model
(``_sing_residuals``, or ``model`` in ``fit_double_exp``), which evaluates
the model's basis from ``hyperfit.models`` (``_sing_basis`` with t0 = t[0],
``_dexp_basis``): the one coding of each formula, the one ``evaluate``
reads too, so a fit's residuals are the log index less ``evaluate`` at its
parameters, up to the rounding of the (C0, p0) solve.  This module holds no
model formula.  The engine takes each row's normal equations, which
``_project`` builds from a few inner products per row (Kaufman 1975)
without forming the Jacobian.  Everything is deterministic for a given
input and ``FitConfig``; grid ties are broken toward the smaller critical
time.

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
    their final shape parameters, as the engine or the start's scoring
    scored them, so a double-exponential fit at b2 = 0 has the linear fit's
    residuals bit for bit.
    """

    params: LinearParams | DoubleExpParams | SingularityParams
    residuals: np.ndarray
    converged: bool
    iterations: int                      # LM rounds run; 0 for closed forms, and 0 also
                                         # when the start passes the engine's stop test
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
    its spread.  Returns (resid, normal, c0, p0), normal None without dg,
    else C-contiguous (rows, k, k) and (rows, k) arrays.

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
    k, rows = len(dg), len(c0)
    b = c_einsum("jik,ik->ji", dg, g)
    a = b / den
    diag = _ssr(dg) - a * b
    grad = c_einsum("jik,ik->ji", dg, resid) - a * c_einsum("ik,ik->i", g, resid)
    # each entry scaled into C-contiguous (rows, k, k) and (rows, k), which the engine gathers
    jtj, jtr = np.empty((rows, k, k)), np.empty((rows, k))
    c0_sq = c0 * c0
    for i in range(k):
        np.multiply(diag[i], c0_sq, out=jtj[:, i, i])
        np.multiply(grad[i], c0, out=jtr[:, i])
    if k == 2:                          # J^T J is symmetric: three products
        off = c_einsum("ik,ik->i", dg[0], dg[1]) - a[0] * b[1]
        np.multiply(off, c0_sq, out=jtj[:, 0, 1])
        jtj[:, 1, 0] = jtj[:, 0, 1]
    return resid, (jtj, jtr), c0, p0


def _damped_step(jtj: np.ndarray, jtr: np.ndarray, lam: np.ndarray, free: np.ndarray):
    """Per row, the step delta of (J^T J + lam D) delta = J^T r on the free coordinates.

    D is diag(J^T J) floored at 1e-30; a held coordinate (``free`` False)
    drops out of the system and gets delta = 0.  Solved in closed form for
    k = 1 or 2, the only sizes the engine serves, so no row pays for a LAPACK
    call, and one coordinate's column at a time: at 1024 rows the same
    operations took 27 us on strided and broadcast (rows, 2) arrays and take
    17 us on 1-D columns (2-vCPU VM, numpy 2.4), with the same bits.
    """
    b = np.where(free, jtr, 0.0)
    k = jtr.shape[1]
    d = [np.where(free[:, i], jtj[:, i, i] + lam * np.maximum(jtj[:, i, i], 1e-30), 1.0)
         for i in range(k)]
    if k == 1:
        return b / d[0][:, None]
    b0, b1 = b[:, 0], b[:, 1]
    off = np.where(free[:, 0] & free[:, 1], jtj[:, 0, 1], 0.0)
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

    The step solves (J^T J + lam D) delta = J^T r, D = diag(J^T J), for
    every k (Gauss-Newton): a direct fit starts within about ``_FTOL`` of its
    minimum (``_stencil_start``) and mostly skips the engine or
    ends in its first round, before any accepted step a curvature update
    could learn from, so no such update is left to pay for.

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
            delta = _damped_step(jtj.take(live, axis=0), g, lam_live, free)
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

        if s:
            ssr_new, ssr_old = ssr_e[:s], ssr[live]
            finite = np.isfinite(ssr_new)
            better = finite & (ssr_new <= ssr_old)
            q = np.abs(trial - xa) / (np.abs(xa) + 1.0)  # k <= 2: columns 0 and -1 are all of q
            step_small = np.maximum(q[:, 0], q[:, -1]) < _XTOL
            flat = finite & (np.abs(ssr_new - ssr_old) <= _FTOL * np.maximum(ssr_new, 1e-300))
            done = flat | (finite & step_small)
            better &= ~(done & (rounds_live == 1))     # a converged start keeps its bits

            kb = better.nonzero()[0]        # the rows that take their trial, among live
            upd = live[kb]
            x_at[upd] = _row_items(trial.take(kb, axis=0))
            ssr[upd] = ssr_e[kb]
            jtj_at[upd] = _row_items(jtj_e.take(kb, axis=0))
            jtr_at[upd] = _row_items(jtr_e.take(kb, axis=0))
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


#: The upper bound of a Monte Carlo refit (``fit_singular_rows``), in box
#: widths from the box's lower edge: tc and alpha are held at most one box
#: width beyond the box.  Left unbounded, a row that heads away may spend all
#: ``_MAX_ITER`` rounds out there, and the Monte Carlo moments exclude it if
#: it ends outside.  Not the box edge itself: some refits step out and come
#: back (at di = 0.5, Peru to 1.133 box widths in tc and Zimbabwe to 1.034 in
#: alpha), while none that ends inside the box has been seen to pass two.
_REACH_BOXES = 2.0


@_FP_STATE
def fit_singular_rows(p_data: np.ndarray, t: np.ndarray, seed: tuple[float, float] | np.ndarray,
                      pinned_p0: float | None = None):
    """The Monte Carlo refit: singular-model fits of every row of p_data from
    (tc, alpha) seeds.

    ``seed`` is one (tc, alpha) pair for all rows, or an (m, 2) array of
    one pair per row.  The engine refines (tc, alpha); (C0, p0) are solved
    in closed form, p0 held at ``pinned_p0`` if given.  tc and alpha are
    held at or above the lower edges of ``tc_search_window(t)`` and
    ``_ALPHA_BOUNDS`` and at most one box width beyond the upper ones
    (``_REACH_BOXES``), so a row that leaves the box is seen, not clamped at
    its edge; a seed outside those bounds starts on them.  A row seeded at a
    converged fit of its data returns that fit bit for bit: ``_lm`` keeps a
    start that its first trial ends, and the offset tc - tc_lo is exact
    (Sterbenz's lemma, as tc < 2 tc_lo), so adding tc_lo back gives the
    seed's tc, as adding a_lo gives its alpha.  Returns ((tc, alpha, c0,
    p0), ssr, converged, rounds), one array entry per row.
    """
    tc_lo, tc_hi = tc_search_window(t)
    a_lo, a_hi = _ALPHA_BOUNDS
    y, shift = _data_side(p_data, pinned_p0)
    x0 = np.empty((len(p_data), 2))
    x0[:] = np.asarray(seed, dtype=float) - (tc_lo, a_lo)

    def model(x, rows, with_jac):
        return _sing_residuals(tc_lo + x[:, :1], a_lo + x[:, 1:], t, y.take(rows, axis=0),
                               shift[rows], pinned_p0 is None, with_jac)

    ub = _REACH_BOXES * np.array([tc_hi - tc_lo, a_hi - a_lo])
    x, ssr, converged, rounds, c0, p0 = _lm(model, x0, np.zeros(2), ub)
    return (tc_lo + x[:, 0], a_lo + x[:, 1], c0, p0), ssr, converged, rounds


def _sing_objective(t: np.ndarray, p: np.ndarray, pinned_p0: float | None):
    """The singular fit's objective on a grid, as a function ``score(tc, alpha)``.

    Given 1-D arrays of tc and alpha it returns, in one model call, the
    objective at every (tc, alpha) of tc x alpha, flattened with tc the
    outer axis, with a non-finite one (C0 <= 0) as inf.
    """
    y, shift = _data_side(p, pinned_p0)

    def score(tc: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        ssr = _ssr(_sing_residuals(tc[:, None, None], alpha[:, None], t, y, shift,
                                   pinned_p0 is None, False)[0]).ravel()
        return np.fmin(ssr, np.inf)         # NaN (C0 <= 0) as inf
    return score


@_FP_STATE
def _sing_grid_seed(t, p, pinned_p0):
    """Best (tc, alpha) over the initialization grid, and its objective.

    ``_GRID_TC`` tc nodes span ``tc_search_window(t)`` and ``_GRID_ALPHA``
    alpha nodes span ``_ALPHA_BOUNDS``, both spaced geometrically (tc in its
    distance to the last epoch).  tc is the outer grid axis in ascending
    order, so the first minimum of the flattened objective (what argmin
    returns) is the smallest-tc tie.
    """
    t_last = float(t[-1])
    tc_lo, tc_hi = tc_search_window(t)
    tc_nodes = t_last + _ladder(tc_lo - t_last, tc_hi - t_last, _GRID_TC)
    ssr = _sing_objective(t, p, pinned_p0)(tc_nodes, _ALPHA_NODES)
    if np.isinf(ssr).all() or np.ptp(p) == 0.0:  # C0 of flat data is 0 up to rounding
        raise FitError("singular model does not apply: no grid node gives C0 > 0 "
                       "(the log price index does not grow, as in flat or deflating data)")
    k = int(ssr.argmin())
    i, j = divmod(k, len(_ALPHA_NODES))
    return float(tc_nodes[i]), float(_ALPHA_NODES[j]), float(ssr[k])


#: The least half-width of each successive stencil of ``_stencil_start``,
#: in the logarithms of its coordinates (so about relative sizes): tc -
#: t_last and alpha, t_last the last epoch, or b2.  All lie below a grid
#: cell: on the bundled episodes the grid spaces log(tc - t_last) 0.19-0.23
#: apart, log(alpha) 0.41 and log(b2) 0.27.  Each is about the square of the
#: one before, as the distance to the minimum shrinks under Newton steps.
#: The last is there twice: with it once, the noiseless singular fits of
#: Zimbabwe and Yugoslavia (p0 free or pinned) ended up to 1e-6 from their
#: minimum in log(tc - t_last), where they now end within 1e-11, and the
#: engine keeps such a start.
_STENCILS = (1e-1, 5e-3, 1e-4, 1e-6, 1e-7, 1e-7)


def _stencil_vertex(f: list) -> tuple | None:
    """The vertex, in half-widths from the middle, of the quadratic that
    central differences fit to the objectives f of a stencil: 3 points
    (-1, 0, 1) in one coordinate, where it is the parabola through them, or
    3 x 3 points in two, given row by row with the first coordinate the outer
    axis: (-1, -1), (-1, 0), ..., (1, 1).

    None unless every f is finite and the quadratic is positive definite.
    """
    if not math.isfinite(sum(f)):
        return None
    if len(f) == 3:
        f_m, f_0, f_p = f
        hxx = f_p - 2.0 * f_0 + f_m
        return ((f_m - f_p) / 2.0 / hxx,) if hxx > 0.0 else None
    f_mm, f_m0, f_mp, f_0m, f_00, f_0p, f_pm, f_p0, f_pp = f
    gx, gy = (f_p0 - f_m0) / 2.0, (f_0p - f_0m) / 2.0
    hxx, hyy = f_p0 - 2.0 * f_00 + f_m0, f_0p - 2.0 * f_00 + f_0m
    hxy = (f_pp - f_pm - f_mp + f_mm) / 4.0
    det = hxx * hyy - hxy * hxy
    if not (hxx > 0.0 and det > 0.0):
        return None
    return (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det


def _stencil_start(seed: tuple, ssr: float, score, origin: tuple, lo: tuple, hi: tuple,
                   first: tuple | None = None):
    """The point at which a direct fit starts, and the objective that its
    last stencil scored at its middle when the loop ended on a small step
    (else None).

    The search runs over k = 1 or 2 coordinates, each in the logarithm of its
    offset from ``origin``: log(tc - t_last) and log(alpha) for the singular
    fit, log(b2) for the double-exponential one.  ``seed`` is the best grid
    node and ``ssr`` the grid's objective there; [lo, hi] is the box, whose
    lower edge may lie on the origin (b2 = 0, log 0 = -inf), and
    ``score(*axes)`` returns, in one model call, the objectives at every point
    of the product of k axes, flattened with the first axis outer and
    non-finite as inf.  Successive finite-difference Newton vertices
    (``_stencil_vertex``) refine the seed.  Each stencil takes 3 points a
    coordinate, spaced h apart in its logarithm, around the vertex before it
    (the seed first) and moved inward just enough to lie in the box.  Its
    half-width h is the square of the last vertex's step in those logarithms,
    about the distance that a Newton step leaves, held between the stencil's
    entry in ``_STENCILS`` and the half-width before it; after a stencil whose
    vertex was not taken it is the entry.  ``first``, (h, axes, scores), is a
    first stencil around the seed that the grid has scored already, in place of
    the one at ``_STENCILS[0]``.  A stencil's vertex is taken only when its
    quadratic is positive definite, the vertex lies in the box and the stencil
    holds the lowest point scored so far, the seed counting as scored;
    otherwise the next, smaller stencil restarts from that lowest point, which
    is the start if no stencil is left.  The loop ends early on a step below
    ``_STENCILS[-1]``.  The last vertex is not scored.  The start nearly always
    lies within the engine's ``_FTOL`` of the minimum.
    """
    # per coordinate: its origin, its box, and its box in offsets from the origin
    edges = [(o, a, b, a - o, b - o) for o, a, b in zip(origin, lo, hi)]
    k = len(seed)
    start = low = seed
    low_ssr = ssr
    h, step = math.inf, 0.0                 # the seed is no vertex: the first entry
    for least in _STENCILS:
        if first:
            (h, axes, scores), first = first, None
            mid = [axis[1] - o for axis, o in zip(axes, origin)]
        else:
            h = max(least, min(h, step * step))
            grow = math.exp(h)
            mid, axes = [], []
            for v, (o, a, b, v_lo, v_hi) in zip(start, edges):
                # the middle, moved inward just enough that the stencil lies in the box
                m = min(max(v - o, v_lo * grow), v_hi / grow)
                mid.append(m)
                # held in the box against rounding
                axes.append([max(o + m / grow, a), o + m, min(o + m * grow, b)])
            scores = score(*map(np.array, axes)).tolist()
        j = scores.index(min(scores))
        u = None
        if scores[j] <= low_ssr:
            low = (axes[0][j],) if k == 1 else (axes[0][j // 3], axes[1][j % 3])
            low_ssr = scores[j]
            u = _stencil_vertex(scores)
        vertex, step = [], 0.0              # step: the vertex's largest move, h |u|
        for ui, m, (o, _, _, v_lo, v_hi) in zip(u or (), mid, edges):
            # the box test in logarithms, so that a far vertex does not overflow;
            # a lower edge on the origin (b2 = 0) lies at log 0 = -inf
            x = h * ui
            if not ((v_lo <= 0.0 or math.log(v_lo / m) <= x) and x <= math.log(v_hi / m)):
                break
            vertex.append(o + m * math.exp(x))
            if abs(x) > step:
                step = abs(x)
        if len(vertex) < k:                 # no vertex, or one outside the box
            start, step = low, 0.0
            continue
        start = tuple(vertex)
        if step < _STENCILS[-1]:
            return start, scores[len(scores) // 2]
    return start, None


def _flat(ssr: float, before: float) -> bool:
    """``_lm``'s flat test on a step from objective ``before`` to ``ssr``:
    ``ssr`` is finite and within ``_FTOL`` of ``before``, relative to ``ssr``.

    A direct fit applies it to its start search's last step, from the last
    stencil's middle to the start, and returns a start that passes without
    running the engine.
    """
    return math.isfinite(ssr) and abs(ssr - before) <= _FTOL * max(ssr, 1e-300)


def _refine(model, start: tuple, before: float | None, hi: tuple):
    """A direct fit's refine from ``start``: (x, c0, p0, resid, converged,
    rounds), x the (1, k) end.

    ``model`` is the fit's engine model (``_lm``) over offsets from the box's
    lower edges, and its further items are (C0, p0, residuals); ``start`` is
    the start and ``hi`` the box's upper edges, both in those offsets.  The
    start is held in the box [0, hi] as ``_lm`` holds it, but in Python
    floats and by comparisons, which cost less than numpy's clip or ``min``
    and ``max``.  When the start search gave ``before`` (the objective of its
    last stencil's middle), one model call without normal equations scores
    the start, which is returned, converged, after 0 rounds if it passes
    ``_flat``; otherwise the engine runs from the start.  Either way the
    residuals come from the last model call, at x, so no model call follows
    the engine.
    """
    x = np.array([0.0 if v < 0.0 else v_hi if v > v_hi else v for v, v_hi in zip(start, hi)])[None]
    if before is not None:
        resid, _, c0, p0, _ = model(x, None, False)
        if _flat(float(_ssr(resid[0])), before):
            return x, c0, p0, resid, True, 0
    x, _, (converged,), (rounds,), c0, p0, resid = _lm(model, x, np.zeros(len(hi)), np.array(hi))
    return x, c0, p0, resid, converged, rounds


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

    One model call scores the (tc, alpha) grid, and successive
    finite-difference Newton vertices around its best node
    (``_stencil_start``), one model call of nine points a stencil, give the
    start.  ``_refine``
    takes it from there, on a model over the offsets (tc - tc_lo, alpha -
    a_lo) from the box's lower edges, as ``fit_singular_rows`` searches:
    when the stencils ended on a step below ``_STENCILS[-1]``, one more
    model call, without normal equations, scores the start, and a start
    within ``_FTOL`` of the last stencil's middle (``_flat``: the engine's
    own flat test, applied to the search's last step) is returned,
    converged, after 0 rounds; otherwise the engine runs from the start and
    keeps the residuals at its end.  A skipped fit returns what the engine
    would: on the 5010 singular fits of ``benches/fit_gate.py`` the 3104
    that skip it keep the engine's bits, where without the small-step
    condition 6 ended up to 4.4e-11 relative above them.  On the 80 inputs
    of the tests (each episode noiseless and with seven perturbations at
    di = 0.1, p0 free and pinned) they take 4-6 stencils (mean 5.7); 40
    fits skip the engine and the others take 1.15 rounds on average (at
    most 5), where from the best node they took 4-6 (mean 5.14).  A fit so
    makes 8.45 model calls on average, 7-13.
    """
    config = config or FitConfig()
    t, p = _points(index, "singularity", 6)
    if not (p[-3:] > p[-4:-1]).all():
        warnings.warn(
            "log price index is not strictly increasing near the end of the "
            "window; the singular model may be inappropriate",
            stacklevel=3,                   # past _FP_STATE's wrapper, to the caller
        )
    pinned = float(p[0]) if config.pin_p0 else None
    tc_lo, tc_hi = tc_search_window(t)
    a_lo, a_hi = _ALPHA_BOUNDS
    tc_s, a_s, ssr_s = _sing_grid_seed(t, p, pinned)
    (tc, alpha), before = _stencil_start((tc_s, a_s), ssr_s, _sing_objective(t, p, pinned),
                                         (float(t[-1]), 0.0), (tc_lo, a_lo), (tc_hi, a_hi))
    y, shift = _data_side(p[None, :], pinned)

    def model(x, rows, with_jac):
        resid, normal, c0, p0 = _sing_residuals(tc_lo + x[:, :1], a_lo + x[:, 1:], t, y, shift,
                                                pinned is None, with_jac)
        return resid, normal, c0, p0, resid

    x, c0, p0, resid, converged, rounds = _refine(
        model, (tc - tc_lo, alpha - a_lo), before, (tc_hi - tc_lo, a_hi - a_lo))
    params = SingularityParams(tc=tc_lo + float(x[0, 0]), alpha=a_lo + float(x[0, 1]),
                               c0=float(c0[0]), p0=float(p0[0]), t0=float(t[0]))
    return FitResult(params, resid[0], converged=bool(converged), iterations=int(rounds),
                     p0_pinned=config.pin_p0)


# ---------------------------------------------------------------------------
# Double-exponential model
# ---------------------------------------------------------------------------

@_FP_STATE
def fit_double_exp(index: PriceIndexSeries, config: FitConfig | None = None) -> FitResult:
    """Fit the double-exponential model over (b2, C0, p0) with b2 >= 0.

    The search runs over b2, with (C0, p0) in closed form and C0 of either
    sign.  At b2 = 0 the model is the linear one (the Cagan limit).  One
    model call scores the b2 grid, geometric but for its first node, b2 = 0.
    Its best node and that node's two neighbours are a stencil in log(b2),
    and successive finite-difference Newton vertices from there
    (``_stencil_start``), one model call of three b2 a stencil, give the
    start.  A best node at either grid end is the start itself, and one next
    to b2 = 0, which makes no stencil with its neighbours, starts the search
    alone.  ``_refine`` takes the start from there, on the model over b2
    itself (b2's lower edge is 0): when the stencils ended on a step below
    ``_STENCILS[-1]``, one more model call, without normal equations, scores
    the start, and a start within ``_FTOL`` of the last stencil's middle
    (``_flat``) is returned, converged, after 0 rounds, as the engine would
    return it: on the 2505 double-exponential fits of ``benches/fit_gate.py``
    the 2499 that skip it keep the engine's bits (the others start at a grid
    end).  Otherwise the engine runs from the start and keeps the residuals
    at its end, so the fit makes no model call after the engine.  On the 40
    benchmark inputs every fit skips the engine in 5 model calls (the grid,
    three stencils and the start), where three fixed brackets in b2 left 9
    fits to the engine.  ``config`` is taken for the fitters' common
    signature: p0 is always free.
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
        return np.fmin(_ssr(model(b2[:, None], None, False)[0]), np.inf)  # NaN as inf

    ssr = score(b2_nodes)
    best = int(ssr.argmin())
    if 0 < best < _GRID_B2 - 1:
        # the node and its neighbours are a stencil in log b2, but next to b2 = 0
        b2, f = b2_nodes[best - 1:best + 2].tolist(), ssr[best - 1:best + 2].tolist()
        first = None if best == 1 else (math.log(b2[2] / b2[1]), [b2], f)
        start, before = _stencil_start((b2[1],), f[1], score, (0.0,), (0.0,), (b2_hi,), first)
    else:                                   # a grid end is the start
        start, before = (float(b2_nodes[best]),), None
    v, c0, p0, resid, converged, rounds = _refine(model, start, before, (b2_hi,))
    params = DoubleExpParams(p0=float(p0[0]), c0=float(c0[0]), b2=float(v[0, 0]), t0=t0)
    return FitResult(params, resid[0], converged=bool(converged), iterations=int(rounds))

