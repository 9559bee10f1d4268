import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperfit import fitting
from hyperfit.fitting import (
    FitConfig,
    FitError,
    FitResult,
    _data_side,
    _damped_step,
    _dexp_basis,
    _lm,
    _project,
    _row_items,
    _sing_grid_seed,
    _sing_linearization,
    _sing_residuals,
    _ssr,
    fit_double_exp,
    fit_linear,
    fit_singularity,
    tc_search_window,
)
from hyperfit.models import (
    MODEL_PARAMS,
    DoubleExpParams,
    SingularityParams,
    eval_double_exp,
    eval_singularity,
    evaluate,
)
from hyperfit.fixtures import PRESETS, episode, fixture_path, synthetic_rates
from hyperfit.montecarlo import sample_generation
from hyperfit.series import Epoch, PriceIndexSeries, build_price_index, load_series, slice_window

from conftest import synthetic_yearly_index, yearly_epochs


def linear_index(p0, c0, year0, n):
    epochs = yearly_epochs(year0, year0 + n - 1)
    t = np.array([float(e.year) for e in epochs])
    return PriceIndexSeries.from_log_index(epochs, p0 + c0 * (t - t[0]))


def lm(model, x0, lb, ub, xtol=1e-12, ftol=1e-14, max_iter=100):
    """``_lm`` run under the stopping rule given, set on the module constants it reads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "_XTOL", xtol)
        patch.setattr(fitting, "_FTOL", ftol)
        patch.setattr(fitting, "_MAX_ITER", max_iter)
        return _lm(model, x0, lb, ub)


def normal_eqs(r, jac):
    """(J^T J, J^T r) per row of a (rows, n, k) Jacobian: what an engine model returns."""
    with np.errstate(over="ignore", invalid="ignore"):      # inf and NaN trials
        return np.einsum("ink,inl->ikl", jac, jac), np.einsum("ink,in->ik", jac, r)


# ---------------------------------------------------------------------------
# The projected Levenberg-Marquardt engine
# ---------------------------------------------------------------------------

class TestEngine:
    X = np.linspace(0.0, 1.0, 9)

    def line_model(self, y):
        """y = a + b x, the engine's model interface: batch row i fits row i of a 2-d y."""
        def model(v, rows, with_jac):
            resid = np.atleast_2d(y)[rows] - (v[:, :1] + v[:, 1:2] * self.X)
            if not with_jac:
                return resid, None
            jac = np.stack([np.ones_like(resid), np.broadcast_to(self.X, resid.shape)], axis=-1)
            return resid, normal_eqs(resid, jac)
        return model

    def run(self, y, x0, lb, ub):
        v, _, converged, _ = lm(self.line_model(y), np.array([x0]), np.array(lb), np.array(ub))
        assert converged[0]
        return v[0]

    def test_coordinate_held_on_bound(self):
        # Falling data with b >= 0: b ends exactly on the bound, a at the mean.
        y = 2.0 - self.X
        a, b = self.run(y, [0.0, 1.0], [-np.inf, 0.0], [np.inf, np.inf])
        assert b == 0.0
        assert a == pytest.approx(y.mean(), rel=1e-12)

    def test_coordinate_leaves_bound(self):
        y = 1.0 + 2.0 * self.X
        a, b = self.run(y, [0.0, 0.0], [-np.inf, 0.0], [np.inf, np.inf])
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(2.0, rel=1e-9)

    def test_upper_bound_holds(self):
        y = 1.0 + 2.0 * self.X
        _, b = self.run(y, [0.0, 0.5], [-np.inf, 0.0], [np.inf, 1.5])
        assert b == 1.5

    def test_equal_bounds_pin_a_coordinate(self):
        y = 2.0 - self.X + 0.1 * np.sin(7.0 * self.X)
        a, b = self.run(y, [0.0, 0.0], [1.5, -np.inf], [1.5, np.inf])
        assert a == 1.5
        assert b == pytest.approx(self.X @ (y - 1.5) / (self.X @ self.X), rel=1e-9)

    def test_row_without_finite_start_is_retired(self):
        # A deflating row gives C0 <= 0, so NaN residuals, at its seed: it can
        # accept no step and must not run max_iter rounds.  The growing row
        # beside it gives the bits it gives alone.
        t = np.arange(1970.0, 1982.0)
        deflating = -0.1 * np.arange(12)
        growing = eval_singularity(SingularityParams(tc=1984.0, alpha=0.4, c0=0.5, p0=0.1,
                                                     t0=1970.0), t)
        args = (t, (1983.0, 0.3))
        params, ssr, converged, rounds = fitting.fit_singular_rows(
            np.stack([deflating, growing]), *args)
        alone = fitting.fit_singular_rows(growing[None, :], *args)
        assert rounds[0] <= 1 and not converged[0]
        assert converged[1] and rounds[1] < 400
        assert np.array_equal(np.array(params)[:, 1:], np.array(alone[0]))
        assert ssr[1:].tobytes() == alone[1].tobytes() and rounds[1] == alone[3][0]

    def test_per_row_seeds(self):
        # An (m, 2) seed gives each row the bits it gets alone from its own
        # pair, and m copies of one pair give what the pair gives; a seed
        # beyond the reach (one box width past the box) starts on its edge.
        t = np.arange(1970.0, 1982.0)
        p = np.stack([eval_singularity(SingularityParams(tc=tc, alpha=a, c0=0.5, p0=0.1,
                                                         t0=1970.0), t)
                      for tc, a in ((1984.0, 0.4), (1986.0, 0.8), (1983.0, 0.2))])
        seeds = np.array([[1983.0, 0.3], [1990.0, 1.5], [2100.0, 12.0]])
        rows = fitting.fit_singular_rows(p, t, seeds)
        for j, seed in enumerate(seeds):
            alone = fitting.fit_singular_rows(p[j:j + 1], t, tuple(seed))
            assert np.array(rows[0])[:, j].tobytes() == np.array(alone[0])[:, 0].tobytes()
            assert rows[3][j] == alone[3][0]
        lo = np.array([tc_search_window(t)[0], fitting._ALPHA_BOUNDS[0]])
        box = np.array([tc_search_window(t)[1], fitting._ALPHA_BOUNDS[1]]) - lo
        reach = lo + fitting._REACH_BOXES * box     # (2002.5, 9.99), its offsets exact
        assert np.all(reach < seeds[2])
        edge = fitting.fit_singular_rows(p[2:], t, tuple(reach))
        assert np.array(rows[0])[:, 2].tobytes() == np.array(edge[0])[:, 0].tobytes()
        one = fitting.fit_singular_rows(p, t, (1983.0, 0.3))
        same = fitting.fit_singular_rows(p, t, np.tile([1983.0, 0.3], (3, 1)))
        assert np.array(one[0]).tobytes() == np.array(same[0]).tobytes()

    def test_a_batch_of_no_rows_returns_empty_arrays(self, monkeypatch):
        # 0 rows give every result as an empty array, from one model call on
        # 0 rows; one row still makes one call to start and one per round.
        calls = []
        residuals = fitting._sing_residuals

        def spy(tc, *args):
            calls.append(len(tc))
            return residuals(tc, *args)

        monkeypatch.setattr(fitting, "_sing_residuals", spy)
        t = np.arange(12.0)
        (tc, alpha, c0, p0), ssr, converged, rounds = fitting.fit_singular_rows(
            np.empty((0, 12)), t, (13.0, 0.5))
        for values, dtype in ((tc, float), (alpha, float), (c0, float), (p0, float),
                              (ssr, float), (converged, bool), (rounds, int)):
            assert values.shape == (0,) and values.dtype == dtype
        assert calls == [0]
        calls.clear()
        p = eval_singularity(SingularityParams(tc=14.0, alpha=0.4, c0=0.5, p0=0.1), t)
        *_, converged, rounds = fitting.fit_singular_rows(p[None, :], t, (13.0, 0.5))
        assert converged[0] and calls == [1] * (1 + rounds[0])

    def test_one_model_evaluation_per_round(self):
        # Each trial is evaluated once, with the Jacobian, and the row keeps
        # its normal equations: one call at the start, then one per round.
        model = self.line_model(1.0 + 2.0 * self.X + 0.1 * np.sin(7.0 * self.X))
        calls = []

        def spy(v, rows, with_jac):
            calls.append(with_jac)
            return model(v, rows, with_jac)

        _, _, converged, rounds = lm(spy, np.array([[0.0, 0.0]]), np.full(2, -np.inf),
                                     np.full(2, np.inf))
        assert converged[0] and rounds[0] > 1
        assert len(calls) == rounds[0] + 1

    def test_late_rows_get_their_own_max_iter(self, monkeypatch):
        # With two rows in flight, rows 2-4 join as others stop; each still
        # runs max_iter rounds of its own and ends where five in flight do.
        y = np.stack([k + (2.0 - k) * self.X + 0.1 * np.sin((3.0 + k) * self.X)
                      for k in range(5)])

        def model(v, rows, with_jac):
            resid = y[rows] - (v[:, :1] + v[:, 1:2] * self.X)
            jac = np.stack([np.ones_like(resid), np.broadcast_to(self.X, resid.shape)], axis=-1)
            return resid, normal_eqs(resid, jac)

        x0 = np.tile([50.0, -50.0], (5, 1))
        bounds = np.full(2, -np.inf), np.full(2, np.inf)
        runs = []
        for in_flight in (2, 5):
            monkeypatch.setattr(fitting, "_IN_FLIGHT", in_flight)
            runs.append(lm(model, x0, *bounds, max_iter=3))
        narrow, wide = runs
        assert np.all(narrow[3] == 3) and not narrow[2].any()
        for a, b in zip(narrow, wide):
            assert a.tobytes() == b.tobytes()

    def test_flat_trial_ends_the_row(self):
        # The Jacobian has the wrong sign, so every step goes uphill, but the
        # model is so flat in v that the trial raises the SSR by less than
        # ftol.  That ends the row after one round, without taking the step.
        # The step points down; a lower bound 50 below x0 keeps the trial short.
        y = 1.0 + self.X
        ssrs = []

        def model(v, rows, with_jac):
            resid = y - 1e-12 * v * self.X
            ssrs.append(float(_ssr(resid)[0]))
            wrong_sign = np.broadcast_to(-1e-12 * self.X, resid.shape)[..., None]
            return resid, normal_eqs(resid, wrong_sign)

        x0 = np.array([[0.3]])
        x, ssr, converged, rounds = lm(model, x0, x0[0] - 50.0, np.full(1, np.inf),
                                       ftol=1e-10, max_iter=10)
        assert ssrs[0] < ssrs[1] <= ssrs[0] * (1.0 + 1e-10)
        assert converged[0] and rounds[0] == 1
        assert x.tobytes() == x0.tobytes() and ssr[0] == ssrs[0]

    def test_a_converged_start_keeps_its_bits(self):
        # Restarted where it converged, a row's first trial ends it; the row
        # keeps its start instead of taking that trial (which here moves
        # both coordinates by about 3e-9), so it returns the same fit bit
        # for bit.  The model is y = c exp(b x), fitted over v = (b, c).
        y = np.exp(0.7 * self.X) + 0.3 * np.sin(7.0 * self.X)

        def model(v, rows, with_jac):
            e = np.exp(v[:, :1] * self.X)
            resid = y - v[:, 1:] * e
            return resid, normal_eqs(resid, np.stack([v[:, 1:] * self.X * e, e], axis=-1))

        bounds = np.full(2, -np.inf), np.full(2, np.inf)
        x, ssr, _, _ = lm(model, np.array([[0.0, 1.0]]), *bounds)
        again, ssr_again, converged, rounds = lm(model, x, *bounds)
        assert converged[0] and rounds[0] == 1
        assert again.tobytes() == x.tobytes() and ssr_again[0] == ssr[0]

    @pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_a_rejected_trial_below_xtol_ends_the_row(self, name, pin):
        # A noiseless episode restarted at its true (tc, alpha) sits at the
        # round-off floor, SSR 2e-29 to 1.3e-27, where rounding moves a
        # trial's SSR by far more than ftol relative.  A first trial that
        # scores higher with a step below xtol ends the row, which keeps its
        # start.  Damping that step tenfold instead ran 4-5 rounds on Peru,
        # Greece and Yugoslavia, and moved Greece's alpha (p0 free).
        preset = episode(name).params
        index = build_price_index(synthetic_rates(episode(name)))
        t, p = index.times(), index.log_index
        pinned = float(p[0]) if pin else None
        resid, _, c0, p0 = _sing_residuals(np.array([[preset.tc]]), np.array([[preset.alpha]]),
                                           t, *_data_side(p[None, :], pinned), not pin, False)
        (tc, alpha, c0_fit, p0_fit), ssr, converged, rounds = fitting.fit_singular_rows(
            p[None, :], t, (preset.tc, preset.alpha), pinned_p0=pinned)
        assert converged[0] and rounds[0] == 1
        assert (tc[0], alpha[0]) == (preset.tc, preset.alpha)
        assert (c0_fit[0], p0_fit[0], ssr[0]) == (c0[0], p0[0], _ssr(resid)[0])
        assert ssr[0] <= 1e-26

    def test_no_step_cap_inside_the_box(self):
        # Only the box bounds a step: the level a of flat data 1000 units
        # from the start, in a box 1e4 wide, is reached in two rounds (the
        # slope b pinned at 0), not in steps of some cap.
        y = np.full_like(self.X, 1000.0)
        x0, lb, ub = np.zeros((1, 2)), np.array([-5e3, 0.0]), np.array([5e3, 0.0])
        x, _, _, rounds = lm(self.line_model(y), x0, lb, ub, max_iter=2)
        assert rounds[0] == 2 and x[0, 0] == pytest.approx(1000.0, abs=1e-3)
        assert self.run(y, x0[0], lb, ub)[0] == pytest.approx(1000.0, rel=1e-12)

    def test_non_finite_trial_never_converges(self):
        # Every trial away from the start overflows (row 0) or is undefined
        # (row 1).  A non-finite SSR is no flat trial: both rows stay put and
        # run all max_iter rounds.
        y = 1.0 + 2.0 * self.X

        def model(v, rows, with_jac):
            resid = y - (v[:, :1] + v[:, 1:2] * self.X)
            moved = np.any(v != 0.0, axis=1)
            resid[moved & (rows == 0)] = np.inf
            resid[moved & (rows == 1)] = np.nan
            jac = np.stack([np.ones_like(resid), np.broadcast_to(self.X, resid.shape)], axis=-1)
            return resid, normal_eqs(resid, jac)

        x0 = np.zeros((2, 2))
        x, ssr, converged, rounds = lm(model, x0, np.full(2, -np.inf), np.full(2, np.inf),
                                       max_iter=20)
        assert not converged.any() and np.all(rounds == 20)
        assert x.tobytes() == x0.tobytes() and np.all(ssr == _ssr(y))

    @pytest.mark.parametrize("k", [1, 2])
    def test_damped_step_matches_a_dense_solve(self, k):
        # The closed-form step against LAPACK on the same damped, masked
        # system: random SPD J^T J, damping over 15 decades, and about a
        # third of the coordinates held.  Column scales stay within a few
        # fold: far apart, LAPACK's LU drifts from the exact solution by
        # 1e-12 relative while the closed form stays within 1e-15.
        rng = np.random.default_rng(k)
        rows = 2000
        jac = rng.normal(size=(rows, 12, k)) * rng.lognormal(0.0, 0.5, size=(rows, 1, k))
        jtj = np.einsum("ink,inl->ikl", jac, jac)
        jtr = np.einsum("ink,in->ik", jac, rng.normal(size=(rows, 12)))
        lam = 10.0 ** rng.uniform(-12.0, 3.0, rows)
        free = rng.random((rows, k)) < 0.67
        d = np.einsum("ikk->ik", jtj)
        a = jtj + lam[:, None, None] * np.maximum(d, 1e-30)[:, None, :] * np.eye(k)
        a = np.where(free[:, :, None] & free[:, None, :], a, np.eye(k))
        want = np.linalg.solve(a, np.where(free, jtr, 0.0)[..., None])[..., 0]
        got = _damped_step(jtj, jtr, lam, free)
        assert np.all(got[~free] == 0.0)
        err = np.abs(got - want).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))


# ---------------------------------------------------------------------------
# The engine's row moves and step, bit for bit against the (rows, k) forms
# ---------------------------------------------------------------------------

def damped_step_reference(jtj, jtr, lam, free):
    """The damped step as numpy solves it on whole (rows, k) arrays, in one
    expression per quantity: the form ``_damped_step`` computes column by column."""
    d = np.einsum("ikk->ik", jtj)
    d = np.where(free, d + lam[:, None] * np.maximum(d, 1e-30), 1.0)
    b = np.where(free, jtr, 0.0)
    if jtj.shape[-1] == 1:
        return b / d
    off = np.where(free[:, 0] & free[:, 1], jtj[:, 0, 1], 0.0)
    det = d[:, 0] * d[:, 1] - off * off
    return (d[:, ::-1] * b - off[:, None] * b[:, ::-1]) / det[:, None]


def model_rows(k, rows, seed):
    """An engine model's (resid, (J^T J, J^T r), c0, p0) on ``rows`` random rows: the
    singular model's for k = 2, the double-exponential one's for k = 1, as
    ``_project`` returns them.  About a fifth of the rows have a NaN datum, so
    everything of theirs is NaN."""
    rng = np.random.default_rng(seed)
    t = np.arange(20.0)
    p = np.cumsum(rng.uniform(0.05, 0.5, (rows, 20)), axis=1)
    p[rng.random(rows) < 0.2, -1] = np.nan
    y, shift = _data_side(p, None)
    if k == 2:
        tc, alpha = 20.5 + rng.uniform(0.0, 20.0, (rows, 1)), rng.uniform(0.01, 5.0, (rows, 1))
        return _sing_residuals(tc, alpha, t, y, shift, True, True)
    h, dh = _dexp_basis(rng.uniform(0.0, 1.0, (rows, 1)), t, True)
    return _project(h, y, shift, True, dh)


@pytest.mark.parametrize("rows", [0, 1, 1024])
@pytest.mark.parametrize("k", [1, 2])
def test_damped_step_is_the_whole_array_form_bit_for_bit(k, rows):
    # Column by column, the step takes the same operations as on whole
    # (rows, k) arrays: on _project's arrays and on the rows the engine
    # gathers from them, with held coordinates, NaN rows and damping over
    # 27 decades.
    rng = np.random.default_rng(10 * rows + k)
    _, (jtj, jtr), *_ = model_rows(k, rows, rows + k)
    lam = 10.0 ** rng.uniform(-12.0, 15.0, rows)
    free = rng.random((rows, k)) < 0.7
    gathered = jtj.take(np.arange(rows), axis=0), jtr.take(np.arange(rows), axis=0)
    for a, b in ((jtj, jtr), gathered):
        want = damped_step_reference(a, b, lam, free)
        got = _damped_step(a, b, lam, free)
        assert got.shape == want.shape == (rows, k)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [0, 1, 1024])
@pytest.mark.parametrize("k", [1, 2])
def test_row_moves_are_fancy_indexing_bit_for_bit(k, rows):
    # The engine gathers rows with take, picks the rows that take their
    # trial with take on their positions, and scatters them through
    # _row_items.  Each move gives the bytes of numpy's fancy indexing, on
    # (rows,), (rows, k), (rows, k, k) and (rows, n) arrays, from
    # _project's normal equations, which it returns C-contiguous, as from
    # other arrays, NaN rows and a NaN with a payload included.
    rng = np.random.default_rng(10 * rows + k)
    m = rows + 7                            # the state also holds rows not in flight
    resid, (jtj_e, jtr_e), c0, p0 = model_rows(k, rows, rows + k)
    assert jtj_e.flags.c_contiguous and jtr_e.flags.c_contiguous
    trial = rng.normal(size=(rows, k))
    trial[rng.random(rows) < 0.2] = np.uint64(0x7FF8_0000_0000_0001).view(np.float64)
    live = rng.permutation(m)[:rows]
    better = rng.random(rows) < 0.6
    kb = better.nonzero()[0]
    for src in (trial, jtj_e, jtr_e, c0, p0, resid):
        state = rng.normal(size=(m, *src.shape[1:]))
        state[rng.random(m) < 0.2] = np.nan
        assert state.take(live, axis=0).tobytes() == state[live].tobytes()
        assert src.take(kb, axis=0).tobytes() == src[better].tobytes()
        want = state.copy()
        want[live[better]] = src[better]
        _row_items(state)[live[kb]] = _row_items(src.take(kb, axis=0))
        assert state.tobytes() == want.tobytes()


def forty_indexes():
    """Every episode, noiseless and with seven perturbations at di = 0.1: the
    inputs of benches/digests.py."""
    children = np.random.SeedSequence(1).spawn(7)
    for name in PRESETS:
        rates = synthetic_rates(episode(name))
        for r in [rates] + [sample_generation(rates, 0.1, np.random.default_rng(child))
                            for child in children]:
            yield build_price_index(r)


def recorded_starts(monkeypatch):
    """The (start, before) that each direct fit hands ``_refine``: its start,
    in offsets from the box's lower edges, and the last stencil's middle
    score, or None; one pair per fit, as the fits call it."""
    starts = []
    refine = fitting._refine

    def spy(model, start, before, hi):
        starts.append((start, before))
        return refine(model, start, before, hi)
    monkeypatch.setattr(fitting, "_refine", spy)
    return starts


# ---------------------------------------------------------------------------
# Grid nodes
# ---------------------------------------------------------------------------

positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                            allow_infinity=False)


#: Inputs of ``_ladder``: (lo, hi) in either order, and num.
ladder_inputs = st.tuples(positive_floats, positive_floats, st.integers(2, 64)).filter(
    lambda case: case[0] != case[1])


@pytest.mark.filterwarnings("ignore:overflow encountered in power")  # both, near 1.8e308
@settings(max_examples=50, deadline=None)
@given(st.lists(ladder_inputs, min_size=10, max_size=10))
def test_ladder_is_geomspace_bit_for_bit(cases):
    # 500 inputs, ten to an example: hypothesis's cost per example, not the
    # two functions compared, sets the time of a property this cheap.
    for a, b, num in cases:
        lo, hi = min(a, b), max(a, b)
        assert fitting._ladder(lo, hi, num).tobytes() == np.geomspace(lo, hi, num).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1100), st.integers(6, 60), st.integers(0, 2**32 - 1))
def test_c_einsum_is_np_einsum_bit_for_bit(rows, n, seed):
    # The fits call numpy's C einsum, which np.einsum forwards to when not
    # optimizing; a numpy that changed that would move the fits' bits.
    # Every product the fits take, on the shapes and views they pass: rows
    # of g, y and resid, the (2, rows, n) derivatives and their first row
    # alone, and the 20 x 16 grid.
    rng = np.random.default_rng(seed)
    g, y = rng.standard_normal((2, rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, rows, 1))
    dg = rng.standard_normal((2, rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, rows, 1))
    grid = rng.standard_normal((fitting._GRID_TC, fitting._GRID_ALPHA, n))
    products = [("...k,...k->...", g, y), ("...k,...k->...", g[0], y[0]),
                ("...k,...k->...", dg, dg), ("...k,...k->...", grid, grid),
                ("...k->...", g), ("...k->...", g[0]), ("...k->...", grid),
                ("jik->ji", dg), ("jik->ji", dg[:1]),
                ("jik,ik->ji", dg, g), ("jik,ik->ji", dg[:1], y),
                ("ik,ik->i", dg[0], dg[1]), ("ik,ik->i", g, y)]
    for subscripts, *operands in products:
        assert (fitting.c_einsum(subscripts, *operands).tobytes()
                == np.einsum(subscripts, *operands).tobytes()), subscripts


@pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
@pytest.mark.parametrize("name", list(PRESETS))
def test_grid_nodes_are_the_geomspace_nodes(name, monkeypatch):
    # The fitters place their grids with _ladder; on every bundled episode
    # the nodes they score are np.geomspace's, bit for bit.
    index = build_price_index(
        load_series(fixture_path(name), day_convention=episode(name).day_convention))
    t = index.times()
    seen = {}

    def spy(f, key):
        def call(*args, **kwargs):
            seen.setdefault(key, args[0].copy())
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(fitting, "_sing_basis", spy(fitting._sing_basis, "tc"))
    monkeypatch.setattr(fitting, "_dexp_basis", spy(fitting._dexp_basis, "b2"))
    fit_singularity(index)
    fit_double_exp(index)

    t_last, span = float(t[-1]), float(t[-1] - t[0])
    tc_lo, tc_hi = tc_search_window(t)
    tc_nodes = t_last + np.geomspace(tc_lo - t_last, tc_hi - t_last, fitting._GRID_TC)
    b2_nodes = np.concatenate(([0.0], np.geomspace(1e-4 / span, fitting._B2_SPAN_MAX / span,
                                                   fitting._GRID_B2 - 1)))
    assert seen["tc"].ravel().tobytes() == tc_nodes.tobytes()
    assert seen["b2"].ravel().tobytes() == b2_nodes.tobytes()
    assert fitting._ALPHA_NODES.tobytes() == np.geomspace(*fitting._ALPHA_BOUNDS,
                                                          fitting._GRID_ALPHA).tobytes()


@pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
@pytest.mark.parametrize("fitter", [fit_linear, fit_double_exp, fit_singularity])
@pytest.mark.parametrize("name", list(PRESETS))
def test_stored_residuals_are_the_log_index_less_the_model(name, fitter):
    # The fits score the models' own bases, so a fit's residuals are
    # ln P - evaluate(params, t) up to the rounding of the (C0, p0) solve:
    # within 2 eps max|ln P| on the noiseless fixture and one perturbation
    # at di = 0.1.  At most 0.95 eps max|ln P| was measured on these and on
    # 20 more perturbations per fixture, where a log price coded apart from
    # the fits' basis reached 2.3.
    rates = load_series(fixture_path(name), day_convention=episode(name).day_convention)
    perturbed = sample_generation(rates, 0.1, np.random.default_rng(31))
    for index in (build_price_index(rates), build_price_index(perturbed)):
        fit = fitter(index)
        t, p = index.times(), index.log_index
        bound = 2.0 * np.finfo(float).eps * np.abs(p).max()
        assert np.abs(fit.residuals - (p - evaluate(fit.params, t))).max() <= bound


# ---------------------------------------------------------------------------
# fit_linear
# ---------------------------------------------------------------------------

class TestFitLinear:
    def test_noiseless_recovery(self):
        fit = fit_linear(linear_index(0.5, 0.2, 1970, 10))
        assert fit.params.p0 == pytest.approx(0.5, abs=1e-12)
        assert fit.params.c0 == pytest.approx(0.2, abs=1e-13)
        assert fit.chi == pytest.approx(0.0, abs=1e-12)
        assert fit.converged

    def test_noisy_fit_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(99)
        n = 500
        epochs = yearly_epochs(1500, 1500 + n - 1)
        t = np.array([float(e.year) for e in epochs])
        x = t - t[0]
        p = 0.7 + 0.05 * x + rng.normal(0.0, 0.05, n)
        index = PriceIndexSeries.from_log_index(epochs, p)
        fit = fit_linear(index)

        # Hand-rolled normal equations.
        sx, sxx, sy, sxy = x.sum(), (x * x).sum(), p.sum(), (x * p).sum()
        den = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / den
        intercept = (sy - slope * sx) / n
        assert fit.params.c0 == pytest.approx(slope, rel=1e-10)
        assert fit.params.p0 == pytest.approx(intercept, rel=1e-10)

        # Slope standard error: within 3 standard errors of the truth.
        resid_var = fit.objective / (n - 2)
        se_slope = math.sqrt(resid_var * n / den)
        assert abs(slope - 0.05) < 3.0 * se_slope

    def test_negative_slope_allowed(self):
        fit = fit_linear(linear_index(0.64, -0.008, 1920, 17))
        assert fit.params.c0 == pytest.approx(-0.008, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError, match="^linear fit needs at least 3 points, got 2$"):
            fit_linear(linear_index(0.0, 0.1, 1970, 2))

    def test_window_argument(self):
        fit = fit_linear(slice_window(linear_index(0.0, 0.1, 1970, 20),
                                      Epoch(year=1975), Epoch(year=1980)))
        assert fit.n_points == 6
        assert fit.params.t0 == 1975.0


# ---------------------------------------------------------------------------
# fit_singularity
# ---------------------------------------------------------------------------

class TestFitSingularity:
    def test_noiseless_peru_roundtrip(self, peru_params, peru_index):
        fit = fit_singularity(peru_index)
        assert fit.converged
        assert fit.chi < 1e-8
        assert fit.params.tc - fit.params.t0 == pytest.approx(
            peru_params.tc - peru_params.t0, rel=1e-4)
        assert fit.params.alpha == pytest.approx(peru_params.alpha, rel=1e-4)
        assert fit.params.c0 == pytest.approx(peru_params.c0, rel=1e-4)
        assert fit.params.p0 == pytest.approx(peru_params.p0, rel=1e-4)

    def test_too_few_points_rejected(self, peru_params):
        with pytest.raises(FitError, match="^singularity fit needs at least 6 points, got 5$"):
            fit_singularity(synthetic_yearly_index(peru_params, 1969, 1973))

    def test_non_increasing_tail_warns(self):
        epochs = yearly_epochs(1970, 1979)
        p = np.array([0.0, 0.5, 1.0, 1.5, 2.2, 3.0, 4.2, 6.0, 9.0, 8.5])
        with pytest.warns(UserWarning, match="not strictly increasing") as record:
            fit_singularity(PriceIndexSeries.from_log_index(epochs, p))
        # at the caller, past the floating-point state's wrapper
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    @pytest.mark.parametrize("pin", [False, True])
    @pytest.mark.parametrize("p", [-0.1 * np.arange(12), np.zeros(12), np.full(12, 0.3)],
                             ids=["deflating", "flat", "constant"])
    def test_no_positive_c0_fails_loudly(self, p, pin):
        # No grid node gives C0 > 0, so there is no singular fit to refine.
        index = PriceIndexSeries.from_log_index(yearly_epochs(1970, 1981), p)
        with pytest.raises(FitError, match="no grid node gives C0 > 0"):
            fit_singularity(index, FitConfig(pin_p0=pin))

    def test_nonconvergence_flagged_not_fatal(self, peru_index, monkeypatch):
        # Started at the best grid node, with no stencil, the fit needs
        # more than two rounds.
        monkeypatch.setattr(fitting, "_STENCILS", ())
        monkeypatch.setattr(fitting, "_MAX_ITER", 2)
        fit = fit_singularity(peru_index)
        assert not fit.converged
        assert isinstance(fit.params, SingularityParams)

    def test_objective_not_above_grid_seed(self, peru_index):
        # Monotone refinement contract: the refined objective never exceeds
        # the grid-search seed's, which the grid returns with the seed.
        t = peru_index.times()
        p = peru_index.log_index
        tc_s, a_s, ssr_s = _sing_grid_seed(t, p, None)
        # (C0, p0) at the seed by a dense least-squares solve on the model's basis
        basis = eval_singularity(SingularityParams(tc=tc_s, alpha=a_s, c0=1.0, p0=0.0,
                                                   t0=float(t[0])), t)
        (p0_s, c0_s), *_ = np.linalg.lstsq(np.stack([np.ones_like(t), basis], axis=1), p,
                                           rcond=None)
        seed = SingularityParams(tc=tc_s, alpha=a_s, c0=max(c0_s, 1e-12), p0=p0_s, t0=float(t[0]))
        seed_ssr = float(np.sum((p - eval_singularity(seed, t)) ** 2))
        assert ssr_s == pytest.approx(seed_ssr, rel=1e-9)
        fit = fit_singularity(peru_index)
        assert fit.objective <= seed_ssr + 1e-15

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    @pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_coarse_grid_ends_no_higher_than_a_48_by_32_grid(self, name, pin, monkeypatch):
        # The grid only seeds the refine.  On each episode, noiseless and with
        # the seven perturbations at di = 0.1 of benches/digests.py, the fit
        # from the module's grid ends no higher than from 48 x 32 nodes, but
        # for rounding (1e-9 relative) or at the round-off floor of a
        # noiseless fit: there Germany (p0 free) ends at 2.3e-25 against
        # 6.4e-28, with tc 1.6e-11 days from where 48 x 32 ends it.
        rates = synthetic_rates(episode(name))
        samples = [rates] + [sample_generation(rates, 0.1, np.random.default_rng(child))
                             for child in np.random.SeedSequence(1).spawn(7)]
        indexes = [build_price_index(r) for r in samples]
        config = FitConfig(pin_p0=pin)
        coarse = [fit_singularity(index, config) for index in indexes]
        monkeypatch.setattr(fitting, "_GRID_TC", 48)
        monkeypatch.setattr(fitting, "_ALPHA_NODES", np.geomspace(*fitting._ALPHA_BOUNDS, 32))
        fine = [fit_singularity(index, config) for index in indexes]
        for k, (c, f) in enumerate(zip(coarse, fine)):
            at_floor = k == 0 and max(c.objective, f.objective) <= 1e-20
            assert at_floor or c.objective <= f.objective * (1.0 + 1e-9), k
        assert coarse[0].params.tc == pytest.approx(episode(name).params.tc, rel=1e-10)

    def test_grid_ties_go_to_the_smallest_tc(self, peru_index, monkeypatch):
        # Every node scores the same finite objective: the seed is the first
        # node, the smallest tc (the window's lower edge) and smallest alpha.
        def equal_everywhere(tc, alpha, t, *args):
            shape = np.broadcast_shapes(np.shape(tc), np.shape(alpha))[:-1]
            return np.ones((*shape, len(t))), None, np.ones(shape), np.zeros(shape)

        monkeypatch.setattr(fitting, "_sing_residuals", equal_everywhere)
        t, p = peru_index.times(), peru_index.log_index
        tc, alpha, _ = _sing_grid_seed(t, p, None)
        assert (tc, alpha) == (tc_search_window(t)[0], fitting._ALPHA_BOUNDS[0])

    def test_deterministic(self, peru_index):
        a = fit_singularity(peru_index)
        b = fit_singularity(peru_index)
        assert a.params == b.params
        assert a.objective == b.objective

    def test_scale_equivariance(self, peru_index):
        scaled = PriceIndexSeries.from_index(peru_index.epochs, peru_index.index * 250.0)
        base = fit_singularity(peru_index)
        other = fit_singularity(scaled)
        assert other.params.p0 - base.params.p0 == pytest.approx(math.log(250.0), abs=1e-8)
        assert other.params.tc == pytest.approx(base.params.tc, abs=1e-8)
        assert other.params.alpha == pytest.approx(base.params.alpha, abs=1e-8)
        assert other.params.c0 == pytest.approx(base.params.c0, abs=1e-8)
        assert other.chi == pytest.approx(base.chi, abs=1e-8)

    def test_time_shift_equivariance(self, peru_index):
        shift = 7
        shifted = PriceIndexSeries.from_index(
            tuple(Epoch(year=e.year + shift) for e in peru_index.epochs),
            peru_index.index,
        )
        base = fit_singularity(peru_index)
        other = fit_singularity(shifted)
        assert other.params.tc - base.params.tc == pytest.approx(shift, abs=1e-8)
        assert other.params.alpha == pytest.approx(base.params.alpha, abs=1e-8)
        assert other.params.c0 == pytest.approx(base.params.c0, abs=1e-8)
        assert other.chi == pytest.approx(base.chi, abs=1e-8)

    def test_pinned_p0_never_beats_free_p0(self, peru_params):
        rng = np.random.default_rng(3)
        index = synthetic_yearly_index(peru_params, 1969, 1990)
        noisy = PriceIndexSeries.from_log_index(
            index.epochs, index.log_index + rng.normal(0, 0.25, len(index)))
        free = fit_singularity(noisy)
        pinned = fit_singularity(noisy, FitConfig(pin_p0=True))
        assert pinned.p0_pinned
        assert pinned.params.p0 == noisy.log_index[0]
        assert pinned.chi >= free.chi - 1e-12

    def test_pinned_p0_is_exactly_the_first_log_price(self, peru_index):
        germany = build_price_index(load_series(fixture_path("germany")))
        for index in (peru_index, germany):
            fit = fit_singularity(index, FitConfig(pin_p0=True))
            assert fit.params.p0 == index.log_index[0]

    def test_random_roundtrip_recovery(self):
        rng = np.random.default_rng(314)
        for _ in range(50):
            alpha = rng.uniform(0.1, 1.0)
            c0 = rng.uniform(0.05, 0.4)
            n = rng.integers(12, 30)
            year0 = 1960
            span = float(n - 1)
            tc = year0 + span * (1.0 + rng.uniform(0.05, 0.30))
            true = SingularityParams(tc=tc, alpha=alpha, c0=c0,
                                     p0=rng.uniform(-1.0, 1.0), t0=float(year0))
            index = synthetic_yearly_index(true, year0, year0 + int(n) - 1)
            fit = fit_singularity(index)
            assert fit.params.tc - true.t0 == pytest.approx(tc - true.t0, rel=1e-3)
            assert fit.params.alpha == pytest.approx(alpha, rel=1e-3)
            assert fit.params.c0 == pytest.approx(c0, rel=1e-3)
            assert fit.params.p0 == pytest.approx(true.p0, rel=1e-3, abs=1e-3)

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_most_direct_singular_fits_take_1_round(self):
        # forty_indexes, p0 free and pinned.  The stencils start most fits
        # within ftol of the minimum: 40 end there without the engine, and
        # its first trial ends 38 more (from the best grid node it took 4-6
        # rounds, mean 5.14).
        rounds = []
        for index in forty_indexes():
            for pin in (False, True):
                fit = fit_singularity(index, FitConfig(pin_p0=pin))
                assert fit.converged
                rounds.append(fit.iterations)
        assert len(rounds) == 80 and sum(r <= 1 for r in rounds) >= 76
        assert np.mean(rounds) <= 1.1 and max(rounds) <= 5
        assert rounds.count(0) == 40

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_the_engine_keeps_every_engine_free_fit(self, monkeypatch):
        # An engine-free fit of forty_indexes is the one the engine gives
        # from its start, bit for bit, in 1 round; and restarted at the
        # fit, the engine's first trial ends the row, which keeps the fit.
        configs = (FitConfig(), FitConfig(pin_p0=True))
        indexes = list(forty_indexes())
        fits = [[fit_singularity(index, config) for config in configs] for index in indexes]
        monkeypatch.setattr(fitting, "_flat", lambda ssr, before: False)
        skipped = 0
        for index, pair in zip(indexes, fits):
            t, p = index.times(), index.log_index
            for pin, fit in zip((False, True), pair):
                if fit.iterations:
                    continue
                skipped += 1
                run = fit_singularity(index, configs[pin])
                assert run.iterations == 1 and run.params == fit.params
                assert run.residuals.tobytes() == fit.residuals.tobytes()
                q = fit.params
                pinned = q.p0 if pin else None
                (tc, alpha, c0, p0), ssr, converged, rounds = fitting.fit_singular_rows(
                    p[None, :], t, (q.tc, q.alpha), pinned_p0=pinned)
                assert fit.converged and converged[0] and rounds[0] == 1
                assert (tc[0], alpha[0], c0[0], p0[0]) == (q.tc, q.alpha, q.c0, q.p0)
                resid, *_ = _sing_residuals(tc[:, None], alpha[:, None], t,
                                            *_data_side(p[None, :], pinned), not pin, False)
                assert resid[0].tobytes() == fit.residuals.tobytes()
                assert ssr[0] == _ssr(resid)[0]
        assert skipped == 40

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_a_stencil_loop_not_ending_on_a_small_step_runs_the_engine(self, monkeypatch):
        # 28 of the 80 fits of forty_indexes end their stencils without a
        # step below the last entry; each runs the engine.
        starts = recorded_starts(monkeypatch)
        runs = 0
        for index in forty_indexes():
            for pin in (False, True):
                fit = fit_singularity(index, FitConfig(pin_p0=pin))
                if starts[-1][1] is None:
                    assert fit.iterations >= 1
                    runs += 1
        assert runs == 28

    @pytest.mark.parametrize("pin, k", [(False, 4), (True, 3)])
    def test_one_fit_carries_both_residues(self, peru_params, pin, k):
        rng = np.random.default_rng(8)
        index = synthetic_yearly_index(peru_params, 1969, 1990)
        noisy = PriceIndexSeries.from_log_index(
            index.epochs, index.log_index + rng.normal(0, 0.3, len(index)))
        fit = fit_singularity(noisy, FitConfig(pin_p0=pin))
        n, r = len(noisy), fit.residuals
        assert (fit.n_points, fit.n_free_params, fit.p0_pinned) == (n, k, pin)
        assert fit.objective == float(np.einsum("k,k->", r, r))
        assert fit.chi == math.sqrt(fit.objective / n)
        assert fit.chi_n_minus_k == math.sqrt(fit.objective / (n - k))

    def test_stores_only_what_the_fit_decides(self):
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["pin_p0"]
        assert [f.name for f in dataclasses.fields(FitResult)] == [
            "params", "residuals", "converged", "iterations", "p0_pinned"]

    @pytest.mark.parametrize("fit, model, k_free, k_pinned", [
        (fit_linear, "linear", 2, 2),
        (fit_double_exp, "doubleexp", 3, 3),
        (fit_singularity, "singularity", 4, 3),
    ])
    def test_model_and_free_parameters_come_from_the_parameters(
            self, peru_index, fit, model, k_free, k_pinned):
        # Every parameter but t0 is free, less p0 when pinned; only the
        # singular fit pins it.
        for pin, k in ((False, k_free), (True, k_pinned)):
            result = fit(peru_index, FitConfig(pin_p0=pin))
            assert result.model == model
            assert MODEL_PARAMS[model] is type(result.params)
            assert result.n_free_params == k
            assert result.p0_pinned == (pin and model == "singularity")


class TestSingStart:
    # _stencil_start in two coordinates, as fit_singularity calls it, on
    # synthetic objectives of (tc, alpha), t_last = 0, so log(tc - t_last)
    # is log(tc): the box is tc in [1, 20], alpha in [0.01, 5].
    T_LAST, LO, HI = 0.0, (1.0, 0.01), (20.0, 5.0)
    SPACING = np.array([-1.0, 0.0, 1.0])

    @staticmethod
    def quadratic(optimum, ssr_min=1.0):
        """A positive definite quadratic in (log tc, log alpha), least at
        ``optimum``, over the grid tc x alpha (``recorded`` flattens it into
        ``_stencil_start``'s score)."""
        z_tc, z_alpha = np.log(optimum)

        def f(tc, alpha):
            d_tc, d_alpha = np.log(tc)[:, None] - z_tc, np.log(alpha)[None, :] - z_alpha
            return ssr_min + 2.0 * d_tc ** 2 + d_tc * d_alpha + d_alpha ** 2
        return f

    @staticmethod
    def recorded(f):
        """f as ``_stencil_start``'s score, flattened, and the list of the
        stencils it is asked, each as its (tc, alpha) arrays."""
        asked = []

        def score(tc, alpha):
            asked.append((tc.copy(), alpha.copy()))
            return f(tc, alpha).ravel()
        return score, asked

    def start(self, seed, f, score, ssr=None):
        """``_stencil_start``'s (start, middle score) from ``seed``, whose
        grid objective is ``ssr`` or f's."""
        if ssr is None:
            ssr = float(f(np.array([seed[0]]), np.array([seed[1]]))[0, 0])
        return fitting._stencil_start(seed, ssr, score, (self.T_LAST, 0.0), self.LO, self.HI)

    @staticmethod
    def middle(stencil):
        return stencil[0][1], stencil[1][1]

    @staticmethod
    def lowest(stencil, f):
        k = int(np.argmin(f(*stencil)))
        return stencil[0][k // 3], stencil[1][k % 3]

    def assert_spaced(self, stencil, h):
        """The stencil is h apart in log tc and log alpha."""
        for axis in stencil:
            np.testing.assert_allclose(np.log(axis) - np.log(axis[1]), h * self.SPACING,
                                       rtol=0, atol=1e-12)

    def test_the_vertex_of_a_positive_definite_quadratic_is_taken(self):
        # Central differences fit a quadratic exactly: the first stencil's
        # vertex is the minimum, the second stencil is centred there and its
        # vertex moves by less than the last half-width, which ends the loop.
        # With that small step it returns the second stencil's middle score.
        f = self.quadratic((4.0, 0.5))
        score, asked = self.recorded(f)
        start, before = self.start((5.0, 0.6), f, score)
        assert len(asked) == 2
        assert self.middle(asked[0]) == (5.0, 0.6)
        assert self.middle(asked[1]) == pytest.approx((4.0, 0.5), rel=1e-12)
        assert start == pytest.approx((4.0, 0.5), rel=1e-12)
        assert before == f(*asked[1])[1, 1]

    @pytest.mark.parametrize("seed, h", [
        ((5.0, 0.6), math.log(5.0 / 4.0) ** 2),     # the square of the first step
        ((4.04, 0.5), fitting._STENCILS[1]),        # held at its entry
        ((8.0, 0.5), fitting._STENCILS[0]),         # held at the half-width before
    ], ids=["square", "entry", "before"])
    def test_a_half_width_is_the_square_of_the_step_before(self, seed, h):
        f = self.quadratic((4.0, 0.5))
        score, asked = self.recorded(f)
        self.start(seed, f, score)
        self.assert_spaced(asked[0], fitting._STENCILS[0])
        self.assert_spaced(asked[1], h)

    def test_a_stencil_that_is_not_positive_definite_restarts_from_its_lowest_point(self):
        # A saddle: no stencil has a vertex, so each next one, of its own
        # entry's half-width, is centred on the lowest point of the one
        # before, and the start is the last one's lowest point, with no
        # middle score, as no step ended the loop.
        def f(tc, alpha):
            return 1.0 + np.log(tc / 4.0)[:, None] ** 2 - np.log(alpha / 0.5)[None, :] ** 2
        score, asked = self.recorded(f)
        start, before = self.start((4.5, 0.5), f, score)
        assert before is None
        assert len(asked) == len(fitting._STENCILS)
        for stencil, h in zip(asked, fitting._STENCILS):
            self.assert_spaced(stencil, h)
        for before, stencil in zip(asked, asked[1:]):
            assert self.middle(stencil) == self.lowest(before, f)
        assert start == self.lowest(asked[-1], f)

    def test_stencils_above_the_grid_objective_keep_the_seed(self):
        # The grid's objective at the seed counts as scored: no stencil
        # point is below it, so every stencil restarts from the seed.
        score, asked = self.recorded(lambda tc, alpha: np.full((len(tc), len(alpha)), 1.0))
        assert self.start((5.0, 0.6), None, score, ssr=0.5) == ((5.0, 0.6), None)
        assert len(asked) == len(fitting._STENCILS)
        assert all(self.middle(stencil) == (5.0, 0.6) for stencil in asked)

    def test_a_later_stencil_above_the_lowest_point_restarts_from_it(self):
        # The first stencil's vertex is taken; the second stencil, around
        # it, scores above the first stencil's lowest point, so the third is
        # centred on that point.
        f = self.quadratic((4.0, 0.5))
        calls = iter([f, lambda tc, alpha: np.full((len(tc), len(alpha)), 2.0)])
        score, asked = self.recorded(lambda tc, alpha: next(calls, f)(tc, alpha))
        start, _ = self.start((5.0, 0.6), f, score)
        assert self.middle(asked[1]) == pytest.approx((4.0, 0.5), rel=1e-12)
        assert self.middle(asked[2]) == self.lowest(asked[0], f)
        assert start == pytest.approx((4.0, 0.5), rel=1e-9)     # from 0.1 away

    def test_a_vertex_outside_the_box_restarts_from_the_lowest_point(self):
        # The minimum is at alpha = 10, beyond the box: the first stencil's
        # vertex is not taken, and the second is centred on its lowest point.
        f = self.quadratic((4.0, 10.0))
        score, asked = self.recorded(f)
        start, _ = self.start((4.0, 3.0), f, score)
        assert self.middle(asked[1]) == self.lowest(asked[0], f)
        assert self.LO[1] <= start[1] <= self.HI[1]

    def test_a_far_vertex_does_not_overflow(self):
        # A nearly flat valley puts the vertex e^1000 away: it is refused
        # as outside the box.
        def f(tc, alpha):
            d = np.log(tc)[:, None] - np.log(alpha)[None, :] - math.log(8.0)
            return 1.0 + d ** 2 - 1e-3 * np.log(tc)[:, None] + 5e-7 * np.log(tc)[:, None] ** 2
        score, asked = self.recorded(f)
        start, _ = self.start((4.0, 0.5), f, score)
        assert all(lo <= v <= hi for v, lo, hi in zip(start, self.LO, self.HI))

    @pytest.mark.parametrize("corner", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_no_stencil_point_leaves_the_box(self, corner):
        # Seeded at a corner of the box, with the minimum beyond it: every
        # stencil is moved inward just enough to lie in the box, and keeps
        # its spacing.
        bounds = (self.LO, self.HI)
        seed = tuple(bounds[side][i] for i, side in enumerate(corner))
        f = self.quadratic(tuple(v * (2.0 if side else 0.5) for v, side in zip(seed, corner)))
        score, asked = self.recorded(f)
        start, _ = self.start(seed, f, score)
        for (tc, alpha), h in zip(asked, fitting._STENCILS):
            assert np.all((self.LO[0] <= tc) & (tc <= self.HI[0]))
            assert np.all((self.LO[1] <= alpha) & (alpha <= self.HI[1]))
        self.assert_spaced(asked[0], fitting._STENCILS[0])
        inward = np.log(seed) + np.where(corner, -1.0, 1.0) * fitting._STENCILS[0]
        np.testing.assert_allclose(np.log(self.middle(asked[0])), inward, rtol=0, atol=1e-12)
        assert all(lo <= v <= hi for v, lo, hi in zip(start, self.LO, self.HI))


# ---------------------------------------------------------------------------
# Variable projection: the engine searches the shape parameters only
# ---------------------------------------------------------------------------

def half_ssr(g, p, pinned_p0):
    """SSR / 2 of p on span{1, g}, or of p - pinned_p0 on span{g}, by lstsq."""
    if pinned_p0 is None:
        basis, y = np.column_stack([np.ones_like(g), g]), p
    else:
        basis, y = g[:, None], p - pinned_p0
    r = y - basis @ np.linalg.lstsq(basis, y, rcond=None)[0]
    return 0.5 * float(r @ r)


def central_gradient(f, x, h=1e-6):
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(len(x))])


def kaufman_reference(g, y, shift, centre, dg):
    """(resid, J^T J, J^T resid) as the engine once built them, J formed explicitly.

    dg is the full d g / dx as (rows, k, n); J is C0 dg/dx less its part in
    span{1, g} (span{g} uncentred, p0 pinned), as a (rows, n, k) array.
    """
    n = g.shape[-1]
    g_mean = g.mean(axis=-1) if centre else np.zeros(g.shape[:-1])
    g = g - g_mean[:, None]
    den = np.einsum("ik,ik->i", g, g)
    c0 = np.einsum("ik,ik->i", g, y) / den
    resid = y - c0[:, None] * g
    dg = dg - np.einsum("ijk,ik->ij", dg, g)[..., None] / den[:, None, None] * g[:, None]
    if centre:
        dg = dg - np.einsum("ijk->ij", dg)[..., None] / n
    jac = c0[:, None, None] * dg.transpose(0, 2, 1)
    return resid, *normal_eqs(resid, jac)


def full_singular_columns(tc, alpha, t, t0):
    """g of the singular model and its full (rows, 2, n) derivative in (tc, alpha)."""
    s0 = tc - t0
    ratio = s0 / (tc - t)
    f = ratio ** alpha
    g = s0 / alpha * (f - 1.0)
    dg = np.stack([((1.0 + alpha) * f - alpha * f * ratio - 1.0) / alpha,
                   s0 / alpha * (f * np.log(ratio) - (f - 1.0) / alpha)], axis=1)
    return g, dg


def assert_same_normal_eqs(resid, jtj, jtr, reference, tol_jtj=1e-10, tol_jtr=1e-12):
    """Each entry within tol of its Cauchy-Schwarz scale.

    |J_k . J_l| <= |J_k| |J_l| and |J_k . r| <= |J_k| |r|, so those products
    of column norms scale the errors: near the optimum J^T r is itself
    round-off and has no relative accuracy to compare.
    """
    ref_resid, ref_jtj, ref_jtr = reference
    col = np.sqrt(np.einsum("ikk->ik", ref_jtj))
    assert np.abs(resid - ref_resid).max() <= 1e-12
    assert np.all(np.abs(jtj - ref_jtj) <= tol_jtj * col[:, :, None] * col[:, None])
    assert np.all(np.abs(jtr - ref_jtr) <= tol_jtr * col * np.sqrt(_ssr(ref_resid))[:, None])


@pytest.fixture(scope="module")
def noisy_peru_index():
    """Peru resampled at 10 %: the singular optimum leaves real residuals."""
    rates = synthetic_rates(episode("peru"))
    return build_price_index(sample_generation(rates, 0.1, np.random.default_rng(3)))


class TestVariableProjection:
    @pytest.mark.parametrize("pin", [False, True])
    def test_kaufman_gradient_is_exact_singular(self, peru_index, pin):
        # Off the optimum (tc 1991.29, alpha 0.29): tc = 1992.5, alpha = 0.6.
        t, p = peru_index.times(), peru_index.log_index
        t0, tc_lo, a_lo = float(t[0]), 1991.0, 0.0
        pinned = float(p[0]) if pin else None
        x = np.array([1.5, 0.6])
        _, (_, jtr), c0, _ = _sing_residuals(tc_lo + x[None, :1], a_lo + x[None, 1:], t,
                                             *_data_side(p[None], pinned), not pin, True)
        assert c0[0] > 0

        def g(v):
            shape = SingularityParams(tc_lo + v[0], a_lo + v[1], c0=1.0, p0=0.0, t0=t0)
            return eval_singularity(shape, t)

        grad = central_gradient(lambda v: half_ssr(g(v), p, pinned), x)
        assert jtr[0] == pytest.approx(-grad, rel=1e-6)

    def test_kaufman_gradient_is_exact_double_exp(self, peru_index):
        # Off the optimum (b2 0.2055).
        t, p = peru_index.times(), peru_index.log_index
        x = t - t[0]
        h, dh = _dexp_basis(np.array([[0.1]]), x, True)
        _, (_, jtr), _, _ = _project(h, *_data_side(p, None), True, dh)
        grad = central_gradient(
            lambda v: half_ssr(_dexp_basis(v[:, None], x, False)[0][0], p, None),
            np.array([0.1]))
        assert jtr[0] == pytest.approx(-grad, rel=1e-6)

    @pytest.mark.parametrize("pin", [False, True])
    def test_singular_normal_eqs_match_the_explicit_jacobian(self, noisy_peru_index, pin):
        # Rows: the optimum, a point 0.01 / 1 % off it, points far off in tc
        # and alpha, and alpha near its floor.  Measured worst errors against
        # the reference: 1.8e-12 (J^T J, alpha = 0.05, tc 3 years out, p0
        # pinned) and 7.8e-15 (J^T r), each in units of its Cauchy-Schwarz
        # scale.
        t, p = noisy_peru_index.times(), noisy_peru_index.log_index
        t0 = float(t[0])
        fit = fit_singularity(noisy_peru_index, FitConfig(pin_p0=pin))
        tc_hat, a_hat = fit.params.tc, fit.params.alpha
        tc = np.array([tc_hat, tc_hat + 0.01, tc_hat + 0.5, tc_hat + 3.0, tc_hat])[:, None]
        alpha = np.array([a_hat, 0.99 * a_hat, 1.5 * a_hat, 0.05, 2.0])[:, None]
        y, shift = _data_side(np.tile(p, (len(tc), 1)), float(p[0]) if pin else None)
        resid, (jtj, jtr), c0, _ = _sing_residuals(tc, alpha, t, y, shift, not pin, True)
        assert np.all(c0 > 0)
        g, dg = full_singular_columns(tc, alpha, t, t0)
        assert_same_normal_eqs(resid, jtj, jtr, kaufman_reference(g, y, shift, not pin, dg))

    @pytest.mark.parametrize("pin", [False, True])
    def test_linearization_matches_the_explicit_projection(self, noisy_peru_index, pin):
        # A = (D^T P D)^-1 D^T P from the full derivative columns and an
        # explicit projector out of span{1, g} (span{g} pinned): the columns
        # of _sing_basis, known only up to that span, give the same map.
        t = noisy_peru_index.times()
        fit = fit_singularity(noisy_peru_index, FitConfig(pin_p0=pin)).params
        a, w = _sing_linearization(t, fit.tc, fit.alpha, not pin)
        g, dg = full_singular_columns(np.array([[fit.tc]]), np.array([[fit.alpha]]), t, t[0])
        basis = np.stack([g[0]] if pin else [np.ones_like(t), g[0]], axis=1)
        proj = np.eye(len(t)) - basis @ np.linalg.pinv(basis)
        d = dg[0].T
        reference = np.linalg.solve(d.T @ proj @ d, d.T @ proj)
        assert np.abs(a - reference).max() <= 1e-9 * np.abs(reference).max()
        centred = g[0] - (0.0 if pin else g[0].mean())
        assert w == pytest.approx(centred / (centred @ centred), rel=1e-12)

    @pytest.mark.parametrize("name", ["peru", "greece"])
    @pytest.mark.parametrize("pin", [False, True])
    def test_linearization_is_the_first_order_response_of_the_fit(self, name, pin, monkeypatch):
        # The fixtures fit the singular model exactly (SSR ~ 1e-28), so the
        # residual term Gauss-Newton drops vanishes: the fitted (tc, alpha)
        # move along two random directions dp as A dp / C0.  Central
        # differences at h = 1e-3 to 1e-5 agreed within 1.4e-6 relative.
        index = build_price_index(synthetic_rates(episode(name)))
        t, p = index.times(), index.log_index
        monkeypatch.setattr(fitting, "_XTOL", 1e-13)
        monkeypatch.setattr(fitting, "_FTOL", 1e-15)
        fit = fit_singularity(index, FitConfig(pin_p0=pin)).params
        a, _ = _sing_linearization(t, fit.tc, fit.alpha, not pin)
        dp = np.random.default_rng(1).standard_normal((2, len(t)))
        dp[:, 0] = 0.0                      # p0 pinned keeps the first log price
        h = 1e-4
        (tc, alpha, *_), _, converged, _ = fitting.fit_singular_rows(
            np.concatenate([p + h * dp, p - h * dp]), t, (fit.tc, fit.alpha),
            pinned_p0=fit.p0 if pin else None)
        assert converged.all()
        moved = np.stack([tc[:2] - tc[2:], alpha[:2] - alpha[2:]], axis=1) / (2.0 * h)
        linear = dp @ a.T / fit.c0
        assert np.abs(moved - linear).max() <= 1e-5 * np.abs(linear).max()

    def test_double_exp_normal_eqs_match_the_explicit_jacobian(self, noisy_peru_index):
        # The optimum, a point 30 % off, and two b2 in _dexp_basis's series
        # branch (|b2 x| < 1e-8), one of them b2 = 0.  Measured worst errors:
        # 1.8e-14 (J^T J) and 4.5e-16 (J^T r), in the units above.
        t, p = noisy_peru_index.times(), noisy_peru_index.log_index
        x = t - t[0]
        b2_hat = fit_double_exp(noisy_peru_index).params.b2
        b2 = np.array([b2_hat, 1.3 * b2_hat, 1e-10, 0.0])[:, None]
        assert np.array_equal(np.max(np.abs(b2 * x), axis=1) < 1e-8, [False, False, True, True])
        h, dh = _dexp_basis(b2, x, True)
        y, shift = _data_side(np.tile(p, (len(b2), 1)), None)
        reference = kaufman_reference(h, y, shift, True, dh[0][:, None])
        resid, (jtj, jtr), _, _ = _project(h, y, shift, True, dh.copy())  # centres dg
        assert_same_normal_eqs(resid, jtj, jtr, reference)

    def test_engine_searches_shape_parameters_only(self, peru_index, monkeypatch):
        widths = []
        engine = fitting._lm

        def spy(model, x0, lb, ub):
            widths.append(x0.shape[1])
            return engine(model, x0, lb, ub)

        monkeypatch.setattr(fitting, "_lm", spy)
        monkeypatch.setattr(fitting, "_flat", lambda ssr, before: False)  # every fit runs it
        fit_singularity(peru_index)
        fit_singularity(peru_index, FitConfig(pin_p0=True))
        fit_double_exp(peru_index)
        assert widths == [2, 2, 1]


# ---------------------------------------------------------------------------
# fit_double_exp
# ---------------------------------------------------------------------------

class TestFitDoubleExp:
    def test_noiseless_recovery(self):
        true = DoubleExpParams(p0=0.2, c0=0.1, b2=0.3, t0=1970.0)
        epochs = yearly_epochs(1970, 1989)
        t = np.array([float(e.year) for e in epochs])
        index = PriceIndexSeries.from_log_index(epochs, eval_double_exp(true, t))
        fit = fit_double_exp(index)
        assert fit.params.b2 == pytest.approx(0.3, rel=1e-5)
        assert fit.params.c0 == pytest.approx(0.1, rel=1e-5)
        assert fit.params.p0 == pytest.approx(0.2, rel=1e-5)

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_direct_double_exp_fits_take_1_round(self):
        # They leave large residuals under this model, so Gauss-Newton
        # curvature took up to 11 rounds and the secant slope from the best
        # grid node up to 6 (mean 5.2); from one parabola bracket it took
        # 3-4.  The stencils start it within _FTOL of the minimum.
        rounds = []
        for index in forty_indexes():
            fit = fit_double_exp(index)
            assert fit.converged
            rounds.append(fit.iterations)
        assert len(rounds) == 40 and max(rounds) <= 1

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_every_direct_double_exp_fit_skips_the_engine(self):
        # All 40 fits of forty_indexes, eight per episode, end at their
        # start.  Three fixed brackets in b2 left 9 of them to the engine:
        # all eight of Yugoslavia and one of Germany.
        skipped = Counter()
        for index, name in zip(forty_indexes(), np.repeat(list(PRESETS), 8)):
            skipped[name] += fit_double_exp(index).iterations == 0
        assert skipped == dict.fromkeys(PRESETS, 8)

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_the_engine_keeps_every_engine_free_fit(self, monkeypatch):
        # An engine-free fit of forty_indexes is the one the engine gives
        # from its start, bit for bit, in 1 round; and restarted at the
        # fit, the engine's first trial ends the row, which keeps the fit.
        indexes = list(forty_indexes())
        fits = [fit_double_exp(index) for index in indexes]
        monkeypatch.setattr(fitting, "_flat", lambda ssr, before: False)
        skipped = 0
        for index, fit in zip(indexes, fits):
            if fit.iterations:
                continue
            skipped += 1
            run = fit_double_exp(index)
            assert run.iterations == 1 and run.params == fit.params
            assert run.residuals.tobytes() == fit.residuals.tobytes()
            t, p = index.times(), index.log_index
            x = t - t[0]
            y, shift = _data_side(p, None)

            def model(v, rows, with_jac):
                h, dh = _dexp_basis(v, x, with_jac)
                resid, normal, c0, p0 = _project(h, y, shift, True, dh)
                return resid, normal, c0, p0, resid

            q = fit.params
            v, ssr, converged, rounds, c0, p0, resid = _lm(
                model, np.array([[q.b2]]), np.zeros(1),
                np.array([fitting._B2_SPAN_MAX / float(x[-1])]))
            assert fit.converged and converged[0] and rounds[0] == 1
            assert (v[0, 0], c0[0], p0[0]) == (q.b2, q.c0, q.p0)
            assert resid[0].tobytes() == fit.residuals.tobytes()
        assert skipped == 40

    @pytest.mark.parametrize("p, b2", [(0.1 * np.arange(12.0), 0.0),
                                       (1e-12 * np.expm1(3.0 * np.arange(12.0)), 20.0 / 11.0)],
                             ids=["first node", "last node"])
    def test_a_best_node_at_either_grid_end_runs_the_engine(self, p, b2, monkeypatch):
        # Linear data are best at b2 = 0; data steeper than b2_max = 20 /
        # span at the top node.  That node is the start: no stencil is
        # scored, and the engine runs.
        starts = recorded_starts(monkeypatch)
        monkeypatch.setattr(fitting, "_stencil_start", None)      # never called
        fit = fit_double_exp(PriceIndexSeries.from_log_index(yearly_epochs(1970, 1981), p))
        assert starts == [((b2,), None)]
        assert fit.converged and fit.iterations >= 1 and fit.params.b2 == b2

    @pytest.mark.parametrize("best", [0, 4])
    def test_best_first_or_last_node_is_the_start(self, best, monkeypatch):
        # The grid-end rule does not depend on the grid's size: on five b2
        # nodes, the same data are best at node 0 (b2 = 0) or node 4
        # (b2_max), and that node is the start, with no stencil scored.
        p, b2 = {0: (0.1 * np.arange(12.0), 0.0),
                 4: (1e-12 * np.expm1(3.0 * np.arange(12.0)), 20.0 / 11.0)}[best]
        monkeypatch.setattr(fitting, "_GRID_B2", 5)
        starts = recorded_starts(monkeypatch)
        monkeypatch.setattr(fitting, "_stencil_start", None)      # never called
        fit = fit_double_exp(PriceIndexSeries.from_log_index(yearly_epochs(1970, 1981), p))
        assert starts == [((b2,), None)]
        assert fit.converged and fit.iterations >= 1 and fit.params.b2 == b2

    def test_a_best_node_next_to_b2_zero_starts_at_the_first_entry(self, monkeypatch):
        # Noiseless data at the b2 node next to b2 = 0, which is no stencil
        # in log b2 with its neighbours: the search starts from the node
        # alone, at _STENCILS[0], and the fit ends at the data's b2.
        t = np.arange(1970.0, 1982.0)
        b2 = 1e-4 / 11.0                            # the node next to 0, span 11
        p = eval_double_exp(DoubleExpParams(p0=0.1, c0=0.5, b2=b2, t0=1970.0), t)
        calls = []
        stencil_start = fitting._stencil_start

        def spy(seed, ssr, score, *box_and_first):
            def scored(b2s):
                calls.append(b2s)
                return score(b2s)
            calls.append((seed, box_and_first))
            return stencil_start(seed, ssr, scored, *box_and_first)

        monkeypatch.setattr(fitting, "_stencil_start", spy)
        fit = fit_double_exp(PriceIndexSeries.from_log_index(yearly_epochs(1970, 1981), p))
        seed, box_and_first = calls[0]
        assert seed == (b2,) and box_and_first[-1] is None
        np.testing.assert_allclose(np.log(calls[1] / b2), fitting._STENCILS[0] * self.SPACING,
                                   rtol=0, atol=1e-14)
        assert fit.converged and fit.params.b2 == pytest.approx(b2, rel=1e-7)

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_start_scores_no_higher_than_the_best_grid_node(self, monkeypatch):
        # Scores of the start, the best grid node and the b2 = 0 node (the
        # linear fit), per fit.
        seen = []
        stencil_start = fitting._stencil_start

        def spy(seed, ssr, score, *box_and_first):
            start, before = stencil_start(seed, ssr, score, *box_and_first)
            seen.append((score(np.array(start))[0], ssr, score(np.array([0.0]))[0]))
            return start, before

        monkeypatch.setattr(fitting, "_stencil_start", spy)
        for index in forty_indexes():
            fit = fit_double_exp(index)
            start, best, linear = seen[-1]
            assert start <= best <= linear and fit.objective <= start
        assert len(seen) == 40

    # _stencil_start in log b2 (k = 1), as fit_double_exp calls it: from the
    # best of five b2 nodes, geometric but for b2 = 0 (half-width log 2), the
    # node and its two neighbours being the first stencil, scored already.
    # A bracket, in the names below, is such a stencil of three b2.
    NODES = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    SSR = np.array([3.0, 2.0, 1.0, 1.5, 3.0])
    HI = 8.0
    SPACING = np.array([-1.0, 0.0, 1.0])

    def b2_start(self, ssr, score, best=2):
        """``_stencil_start``'s (start, middle score) from node ``best``."""
        first = (math.log(2.0), [self.NODES[best - 1:best + 2].tolist()],
                 ssr[best - 1:best + 2].tolist())
        return fitting._stencil_start((self.NODES[best],), float(ssr[best]), score, (0.0,),
                                      (0.0,), (self.HI,), first)

    @staticmethod
    def recorded(f):
        """f as ``_stencil_start``'s score, and the list of the b2 arrays it is asked."""
        asked = []

        def score(b2):
            asked.append(b2)
            return f(b2)
        return score, asked

    def assert_spaced(self, b2, h):
        """The stencil is h apart in log b2."""
        np.testing.assert_allclose(np.log(b2 / b2[1]), h * self.SPACING, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("side", [1, 3])
    def test_a_non_finite_neighbour_keeps_the_best_node(self, side):
        # The grid's stencil has no vertex: the next stencil, at its own
        # entry, restarts from the best node, here the minimum, where its
        # vertex ends the search with that stencil's middle score.
        ssr = self.SSR.copy()
        ssr[side] = np.inf
        score, asked = self.recorded(lambda b2: 1.0 + np.log(b2 / 2.0) ** 2)
        (start,), before = self.b2_start(ssr, score)
        assert len(asked) == 1 and asked[0][1] == 2.0
        self.assert_spaced(asked[0], fitting._STENCILS[1])
        assert start == pytest.approx(2.0, rel=1e-12) and before == 1.0

    def test_two_vertices_of_a_parabola(self):
        # A parabola in log b2, least at 2.3: the grid's stencil has its
        # vertex there, up to rounding; the next stencil, around it, is
        # spaced the square of that step apart, and its vertex ends the
        # search, with the stencil's middle score.
        def f(b2):
            return 1.0 + np.log(b2 / 2.3) ** 2
        score, asked = self.recorded(f)
        (start,), before = self.b2_start(np.concatenate(([np.inf], f(self.NODES[1:]))), score)
        assert len(asked) == 1
        assert asked[0][1] == pytest.approx(2.3, rel=1e-14)
        self.assert_spaced(asked[0], math.log(2.3 / 2.0) ** 2)
        assert start == pytest.approx(2.3, rel=1e-14)
        assert before == f(asked[-1])[1]

    def test_each_bracket_is_its_half_width_around_the_vertex_before_it(self):
        # Not a parabola in log b2, so it takes several stencils: each is
        # centred on the vertex before it, at the square of that vertex's
        # step, held between its entry and the half-width before it.
        def f(b2):
            return np.cosh(np.log(b2 / 2.3))
        score, asked = self.recorded(f)
        self.b2_start(np.concatenate(([np.inf], f(self.NODES[1:]))), score)
        assert len(asked) >= 2
        h_before, middle, scores = math.log(2.0), 2.0, f(self.NODES[1:4])
        for b2, least in zip(asked, fitting._STENCILS[1:]):
            (u,) = fitting._stencil_vertex(scores.tolist())
            step = h_before * abs(u)
            h = max(least, min(h_before, step * step))
            assert b2[1] == pytest.approx(middle * math.exp(h_before * u), rel=1e-15)
            self.assert_spaced(b2, h)
            h_before, middle, scores = h, b2[1], f(b2)

    def test_second_bracket_above_the_best_node_keeps_the_node(self):
        # Every stencil scores above the best node: each next one restarts
        # from the node, the start is the node, and no small step ended the
        # search.
        score, asked = self.recorded(lambda b2: np.array([1.2, 1.1, 1.3]))
        assert self.b2_start(self.SSR, score) == ((2.0,), None)
        assert len(asked) == len(fitting._STENCILS) - 1
        for b2, h in zip(asked[1:], fitting._STENCILS[2:]):
            assert b2[1] == 2.0
            self.assert_spaced(b2, h)

    def test_first_bracket_above_the_best_node_restarts_from_it(self):
        # The first stencil scored, around the grid's vertex, lies above the
        # best node; the next restarts from the node at its own entry, 1e-4,
        # on a parabola in log b2 whose minimum is 5e-5 from it, and its
        # vertex is the minimum.
        def f(b2):
            return 0.5 + np.log(b2 / 2.0001) ** 2
        calls = iter([lambda b2: np.array([1.2, 1.1, 1.3])])
        score, asked = self.recorded(lambda b2: next(calls, f)(b2))
        (start,), _ = self.b2_start(self.SSR, score)
        assert asked[1][1] == 2.0
        self.assert_spaced(asked[1], fitting._STENCILS[2])
        assert asked[2][1] == pytest.approx(2.0001, rel=1e-12)
        assert start == pytest.approx(2.0001, rel=1e-12)

    def test_second_bracket_with_the_middle_highest_starts_at_its_lowest_point(self):
        # The parabola opens downward: no vertex, so each next stencil
        # restarts from the lowest point of the one before, and the start is
        # the last one's lowest point.
        score, asked = self.recorded(lambda b2: np.array([0.9, 0.95, 0.8]))
        (start,), before = self.b2_start(self.SSR, score)
        assert before is None
        assert len(asked) == len(fitting._STENCILS) - 1
        for before, b2 in zip(asked, asked[1:]):
            assert b2[1] == before[2]
        assert start == asked[-1][2]

    def test_last_bracket_falling_across_takes_its_vertex(self):
        # In every stencil the middle point is not the lowest, but the
        # parabola opens upward and the low end ties the lowest point so
        # far, so each next stencil is around the vertex, 2.5 half-widths
        # below its middle, beyond the low end, and the start is the last
        # stencil's vertex, beyond its low end.
        scores = [0.7, 0.8, 0.95]
        score, asked = self.recorded(lambda b2: np.array(scores))
        (start,), before = self.b2_start(self.SSR, score)
        (u,) = fitting._stencil_vertex(scores)
        assert u == pytest.approx(-2.5, rel=1e-14)
        assert len(asked) == len(fitting._STENCILS) - 1 and before is None
        for before, b2 in zip(asked, asked[1:] + [np.array([start] * 3)]):
            assert b2[1] < before[0]
            assert b2[1] == pytest.approx(before[1] * (before[0] / before[1]) ** 2.5, rel=1e-12)

    def test_later_bracket_above_the_lowest_point_keeps_the_previous_vertex(self):
        # The second stencil, around the first one's vertex, scores above
        # the first stencil's middle, the lowest point so far, and so does
        # each later one, which restarts from that middle: the start is that
        # middle, the grid's vertex.
        stencils = iter([np.array([0.9, 0.8, 0.95]), np.array([0.85, 0.81, 0.9])])
        score, asked = self.recorded(lambda b2: next(stencils, np.array([0.83, 0.82, 0.84])))
        (start,), before = self.b2_start(self.SSR, score)
        assert before is None
        assert len(asked) == len(fitting._STENCILS) - 1
        assert start == asked[0][1] == asked[2][1] == asked[-1][1]
        (u,) = fitting._stencil_vertex([0.9, 0.8, 0.95])
        assert asked[1][1] == pytest.approx(asked[0][1] * (asked[0][2] / asked[0][1]) ** u,
                                            rel=1e-12)

    def test_later_bracket_is_held_at_b2_max(self):
        # A parabola in log b2 least at 7.9998, 2.5e-5 below b2_max = 8:
        # a stencil that would cross b2_max is moved inward just enough,
        # keeping its spacing, so its top point is b2_max, and the start is
        # the minimum.
        def f(b2):
            return 1.0 + np.log(b2 / 7.9998) ** 2
        score, asked = self.recorded(f)
        (start,), _ = self.b2_start(np.array([5.0, 4.0, 3.0, 2.0, 2.5]), score, best=3)
        held = [b2 for b2 in asked if b2[2] == pytest.approx(self.HI, rel=1e-15)]
        assert held and all(b2[2] <= self.HI for b2 in asked)
        for b2 in held:
            self.assert_spaced(b2, math.log(b2[1] / b2[0]))
        assert start == pytest.approx(7.9998, rel=1e-12)

    def test_a_stencil_near_b2_max_is_moved_inward(self):
        # Searched from a node alone (as next to b2 = 0) at 7.5, with the
        # minimum beyond b2_max = 8: the first stencil, 0.1 either side in
        # log b2, is moved inward so that its top point is b2_max, and no
        # stencil leaves [0, b2_max].
        score, asked = self.recorded(lambda b2: 1.0 + np.log(b2 / 16.0) ** 2)
        (start,), _ = fitting._stencil_start((7.5,), 1.0 + math.log(7.5 / 16.0) ** 2, score,
                                             (0.0,), (0.0,), (self.HI,))
        assert asked[0][1] == self.HI / math.exp(fitting._STENCILS[0])
        assert asked[0][2] == pytest.approx(self.HI, rel=1e-15)
        self.assert_spaced(asked[0], fitting._STENCILS[0])
        assert all(np.all((0.0 <= b2) & (b2 <= self.HI)) for b2 in asked)
        assert 0.0 <= start <= self.HI

    def test_correct_model_wins_on_singular_data(self, peru_index):
        sing = fit_singularity(peru_index)
        dexp = fit_double_exp(peru_index)
        assert dexp.chi >= sing.chi

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError,
                           match="^double-exponential fit needs at least 6 points, got 4$"):
            fit_double_exp(linear_index(0.0, 0.1, 1970, 4))

    def test_b2_zero_grid_node_is_the_linear_fit(self, peru_index):
        # The grid's affine solve at b2 = 0 reproduces the linear fit bit for
        # bit, so the refined double-exponential objective cannot exceed it.
        t = peru_index.times()
        p = peru_index.log_index
        h, dh = _dexp_basis(np.array([[0.0], [1e-4], [0.3]]), t - t[0], False)
        assert dh is None
        resid, _, c0, p0 = _project(h, *_data_side(p, None), True)
        ssr = fitting._ssr(resid)
        linear = fit_linear(peru_index)
        assert (c0[0], p0[0]) == (linear.params.c0, linear.params.p0)
        assert ssr[0] == linear.objective

    def test_never_worse_than_linear(self):
        # Three perturbations of each episode at di = 0.1, and one of Peru at
        # di = 1 whose fit ends at b2 = 0, the linear fit: residuals taken as
        # p - evaluate(params, t) put its objective a rounding above it, and
        # FitResult promises the linear fit's residuals bit for bit there.
        cases = [(name, 0.1, child) for name in PRESETS
                 for child in np.random.SeedSequence(17).spawn(3)]
        cases.append(("peru", 1.0, np.random.SeedSequence(5).spawn(100)[42]))
        for name, di, child in cases:
            rates = load_series(fixture_path(name), day_convention=episode(name).day_convention)
            index = build_price_index(sample_generation(rates, di, np.random.default_rng(child)))
            dexp = fit_double_exp(index)
            assert dexp.converged
            assert dexp.objective <= fit_linear(index).objective
        assert dexp.params.b2 == 0.0
        assert dexp.residuals.tobytes() == fit_linear(index).residuals.tobytes()

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    def test_residuals_are_a_fresh_projection_at_the_final_b2(self):
        # The fit keeps the residuals the engine scored at its final b2.
        for index in forty_indexes():
            fit = fit_double_exp(index)
            t, p = index.times(), index.log_index
            h, _ = _dexp_basis(np.array([[fit.params.b2]]), t - t[0], False)
            resid, *_ = _project(h, *_data_side(p, None), True)
            assert fit.residuals.tobytes() == resid[0].tobytes()

    @pytest.mark.parametrize("fit, basis, rounds", [(fit_double_exp, "_dexp_basis", 0),
                                                    (fit_singularity, "_sing_basis", 1)],
                             ids=["doubleexp", "singularity"])
    def test_no_model_call_after_the_engine_returns(self, peru_index, monkeypatch, fit, basis,
                                                    rounds):
        # Noiseless Peru skips the double-exponential engine, so its last
        # model call scores the start, and the singular fit runs 1 round;
        # refused the skip, each fit runs the engine and makes no model call
        # after it.
        calls = []
        model, engine = getattr(fitting, basis), fitting._lm

        def basis_spy(*args):
            calls.append("model call")
            return model(*args)

        def engine_spy(*args):
            result = engine(*args)
            calls.append("engine returned")
            return result

        monkeypatch.setattr(fitting, basis, basis_spy)
        monkeypatch.setattr(fitting, "_lm", engine_spy)
        assert fit(peru_index).iterations == rounds
        assert calls[-1] == ("engine returned" if rounds else "model call")
        assert calls.count("engine returned") == (rounds > 0)
        calls.clear()
        monkeypatch.setattr(fitting, "_flat", lambda ssr, before: False)
        assert fit(peru_index).iterations == 1
        assert calls.count("engine returned") == 1 and calls[-1] == "engine returned"

    @staticmethod
    def two_branch_basis(b2, x, with_jac):
        """``_dexp_basis`` as two ``np.where`` branches, series and closed form, on every row."""
        b2x = b2 * x
        small = np.abs(b2x).max(axis=-1, keepdims=True) < 1e-8
        b2_safe = np.where(small, 1.0, b2)
        em1 = np.expm1(b2x)
        h = np.where(small, x * (1.0 + b2x / 2.0 + b2x * b2x / 6.0), em1 / b2_safe)
        if not with_jac:
            return h, None
        return h, np.where(small, x * x / 2.0 * (1.0 + 2.0 * b2x / 3.0),
                           (x * (em1 + 1.0) - h) / b2_safe)[None]

    @pytest.mark.parametrize("with_jac", [True, False])
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_basis_has_the_bits_of_the_two_branch_form(self, name, with_jac):
        # Columns of series rows only, closed-form rows only, and both:
        # b2 = 0, |b2 x| < 1e-8 (up to just below it) and ordinary b2 up to
        # the grid's top, 20 / span.
        t = build_price_index(
            load_series(fixture_path(name), day_convention=episode(name).day_convention)).times()
        x = t - t[0]
        span = float(x[-1])
        small = np.array([0.0, 1e-14, 1e-10 / span, 0.999e-8 / span])
        ordinary = np.array([1.001e-8 / span, 1e-6, 1e-4 / span, 0.1 / span, 3.0 / span,
                             20.0 / span])
        for b2 in (small, ordinary, np.concatenate([ordinary[::2], small, ordinary[1::2]])):
            b2 = b2[:, None]
            h, dh = _dexp_basis(b2, x, with_jac)
            h_ref, dh_ref = self.two_branch_basis(b2, x, with_jac)
            assert h.tobytes() == h_ref.tobytes()
            assert (dh is None) == (dh_ref is None) == (not with_jac)
            if with_jac:
                assert dh.shape == dh_ref.shape and dh.tobytes() == dh_ref.tobytes()

