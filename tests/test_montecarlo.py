import dataclasses
import functools
import importlib.util
import math
import pickle
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperfit import fitting, montecarlo
from hyperfit.fitting import (
    FitConfig,
    FitError,
    _data_side,
    _sing_linearization,
    _sing_residuals,
    fit_linear,
    fit_singular_rows,
    fit_singularity,
    tc_search_window,
)
from hyperfit.fixtures import PRESETS, episode, synthetic_rates
from hyperfit.models import RecursionParams, simulate_recursion
from hyperfit.montecarlo import (
    OUTCOMES,
    MCConfig,
    MCReport,
    ParamStats,
    _draw_generations,
    _pcg64_state,
    _population_moments,
    _sample_rates,
    _skew_kurtosis,
    _substream_words,
    run_mc,
    sample_generation,
    sweep_error,
)
from hyperfit.report import build_report
from hyperfit.series import Epoch, InflationSeries, build_price_index, cumulate, slice_window


@pytest.fixture(scope="module")
def peru_rates():
    return synthetic_rates(episode("peru"))


def two_rate_series(i1):
    return InflationSeries(
        epochs=(Epoch(year=2000), Epoch(year=2001)), rates=np.array([0.0, i1])
    )


# ---------------------------------------------------------------------------
# sample_generation
# ---------------------------------------------------------------------------

class TestSampleGeneration:
    def test_zero_error_reproduces_input(self, peru_rates):
        rng = np.random.default_rng(0)
        out = sample_generation(peru_rates, 0.0, rng)
        assert np.array_equal(out.rates, peru_rates.rates)

    def test_single_rate_moments(self):
        # Law of large numbers on m = 4000 draws of one rate: the sample
        # moments reproduce the assigned gaussian.
        series = two_rate_series(0.2)
        children = np.random.SeedSequence(123).spawn(4000)
        draws = np.array([
            sample_generation(series, 0.25, np.random.default_rng(c)).rates[1]
            for c in children
        ])
        assert draws.mean() == pytest.approx(0.2, abs=0.002)
        assert draws.std() == pytest.approx(0.05, abs=0.002)

    def test_zero_rate_is_degenerate(self):
        series = two_rate_series(0.0)
        out = sample_generation(series, 0.25, np.random.default_rng(1))
        assert np.array_equal(out.rates, np.zeros(2))

    def test_first_rate_never_perturbed(self, peru_rates):
        out = sample_generation(peru_rates, 0.25, np.random.default_rng(7))
        assert out.rates[0] == 0.0

    def test_a_windowed_series_keeps_its_own_first_rate(self, peru_rates):
        # A window's first rate is the base of its index, not the loader's 0:
        # every generation keeps it, so each shares the direct fit's ln P(t0).
        window = slice_window(peru_rates, Epoch(year=1975), Epoch(year=1990))
        first = window.rates[0]
        assert first == pytest.approx(0.296, abs=5e-4)
        out = np.empty((2000, len(window)))
        _draw_generations(window.rates, 0.25, 7, out)
        assert (out[:, 0] == first).all()
        assert (cumulate(out)[:, 0] == build_price_index(window).log_index[0]).all()
        for child in np.random.SeedSequence(7).spawn(20):
            assert sample_generation(window, 0.25, np.random.default_rng(child)).rates[0] == first

    def test_redraws_keep_rates_above_minus_one_and_are_counted(self):
        # i = -0.95 with 25% relative error puts sizable mass below -1.
        rates = np.array([0.0, -0.95])
        total = 0
        for c in np.random.SeedSequence(9).spawn(2000):
            vals, redraws = _sample_rates(rates, 0.25, np.random.default_rng(c))
            assert np.all(vals > -1.0)
            total += redraws
        assert total > 0

    @pytest.mark.parametrize("di", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_a_non_finite_or_negative_error(self, peru_rates, di):
        # As MCConfig does: nan or inf would surface later as a nan rate,
        # and a negative error would draw silently.
        with pytest.raises(ValueError, match=r"^di \(relative error\) must be finite"):
            sample_generation(peru_rates, di, np.random.default_rng(0))

    def test_ratio_edge_cases(self):
        assert ParamStats(1.0, 1.0, 0.0).ratio == 0.0
        assert ParamStats(1.0, 1.0 + 2.0**-52, 0.0).ratio == math.inf
        assert ParamStats(1.0, 1.1, 0.0).ratio == math.inf
        assert ParamStats(1.0, 1.2, 0.1).ratio == pytest.approx(2.0)


def normal_sample_rates(rates, di, rng):
    """Reference resample in the ``rng.normal(loc, scale)`` form."""
    sd = di * np.abs(rates)
    vals = rng.normal(rates, sd)
    redraws = 0
    bad = vals <= -1.0
    while bad.any():
        redraws += int(bad.sum())
        vals[bad] = rng.normal(rates[bad], sd[bad])
        bad = vals <= -1.0
    return vals, redraws


class TestDrawGenerations:
    # Germany at 50 percent error forces redraws of its large early rates.
    M = 200

    @pytest.fixture(scope="class")
    def germany(self):
        rates = synthetic_rates(episode("germany")).rates
        return rates, np.random.SeedSequence(20080605).spawn(self.M)

    def test_sample_rates_draws_what_normal_draws(self, germany):
        rates, children = germany
        total = 0
        for child in children:
            vals, redraws = _sample_rates(rates, 0.5, np.random.default_rng(child))
            ref, ref_redraws = normal_sample_rates(rates, 0.5, np.random.default_rng(child))
            assert vals.tobytes() == ref.tobytes()
            assert redraws == ref_redraws
            total += redraws
        assert total > 0

    def test_matches_per_generation_sampling(self, germany):
        rates, children = germany
        out = np.empty((self.M, len(rates)))
        truncated = _draw_generations(rates, 0.5, 20080605, out)
        total = 0
        for row, child in zip(out, children):
            vals, redraws = _sample_rates(rates, 0.5, np.random.default_rng(child))
            assert row.tobytes() == vals.tobytes()
            total += redraws
        assert truncated == total > 0

    # The rows the bulk ziggurat leaves to numpy, and those with a value at or
    # below -1 (14 at di 0.5, 121 at di 1.0), are drawn again by _sample_rates
    # on a generator set once to the row's state.  Row 148 is both, at either di.
    @pytest.mark.parametrize("di", [0.5, 1.0])
    def test_unfinished_rows_are_redrawn_once_per_row(self, germany, monkeypatch, di):
        rates, children = germany
        row_of = {tuple(w): j for j, w in enumerate(_substream_words(20080605, self.M).tolist())}
        set_rows, left = [], []
        state, ziggurat = montecarlo._pcg64_state, montecarlo._ziggurat_normals
        monkeypatch.setattr(montecarlo, "_pcg64_state",
                            lambda *w: set_rows.append(row_of[w]) or state(*w))
        monkeypatch.setattr(montecarlo, "_ziggurat_normals",
                            lambda raw, out: left.append(ziggurat(raw, out)) or left[-1])
        out = np.empty((self.M, len(rates)))
        truncated = _draw_generations(rates, di, 20080605, out)
        rows = [_sample_rates(rates, di, np.random.default_rng(child)) for child in children]
        ref = np.array([vals for vals, _ in rows])
        assert out.tobytes() == ref.tobytes()
        assert truncated == sum(redraws for _, redraws in rows)
        truncating = {j for j, (_, redraws) in enumerate(rows) if redraws}
        leftovers = set(np.flatnonzero(np.concatenate(left)).tolist())
        assert truncating and leftovers & truncating
        assert sorted(set_rows) == sorted(leftovers | truncating)

    # One generation, and a count that is no multiple of the bulk draw's blocks.
    @pytest.mark.parametrize("m", [1, 1037])
    def test_matches_per_generation_sampling_at_any_count(self, m):
        rates = synthetic_rates(episode("germany")).rates
        out = np.empty((m, len(rates)))
        truncated = _draw_generations(rates, 0.5, 20080605, out)
        children = np.random.SeedSequence(20080605).spawn(m)
        ref, ref_truncated = per_row_reference(rates, 0.5, map(np.random.default_rng, children))
        assert out.tobytes() == ref.tobytes()
        assert truncated == ref_truncated and (m == 1 or truncated > 0)


# 2**128 + 11 has five 32-bit words, more than SeedSequence's pool of four,
# so its mixing takes the tail loop over the extra entropy words.
@pytest.mark.parametrize("seed", [0, 1, 20080605, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 11])
def test_substream_states_are_seedsequence_and_pcg64_bits(seed):
    m = 3000
    children = np.random.SeedSequence(seed).spawn(m)
    words = _substream_words(seed, m)
    assert words.dtype == np.uint64 and words.shape == (m, 4)
    assert np.array_equal(words, [child.generate_state(4, np.uint64) for child in children])
    for child, row in zip(children, words.tolist()):
        assert _pcg64_state(*row) == np.random.PCG64(child).state


def test_mc_config_rejects_negative_or_non_integer_seeds():
    for seed in (-3, -(2**40), 1.5, 3.0, "7", None):
        with pytest.raises(ValueError, match="seed"):
            MCConfig(seed=seed)
    assert MCConfig(seed=np.int64(7)).seed == 7
    assert MCConfig(seed=2**128 + 11).seed == 2**128 + 11


def test_numpy_integer_seed_draws_like_the_python_int():
    rates = synthetic_rates(episode("peru")).rates
    a, b = np.empty((20, len(rates))), np.empty((20, len(rates)))
    _draw_generations(rates, 0.25, 20080605, a)
    _draw_generations(rates, 0.25, np.uint32(20080605), b)
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Bulk draws: PCG64 and numpy's ziggurat as array arithmetic
# ---------------------------------------------------------------------------

def output_word(level, rabs, negative=False):
    """A PCG64 output that numpy's ziggurat reads as this level, sign and mantissa."""
    return rabs << 9 | negative << 8 | level


def words_with_output(word, position, q=0):
    """Substream words, increment 2q + 1, whose generator's output ``position`` is word.

    The state with high word 0 and low word ``word`` has XSL-RR rotation 0,
    so it outputs word; step back from it to the seeding state.
    """
    inc, inverse = 2 * q + 1, pow(montecarlo._PCG64_MULT, -1, 2**128)
    state = word
    for _ in range(position + 2):
        state = (state - inc) * inverse % 2**128
    seed_state = (state - inc) % 2**128
    return [seed_state >> 64, seed_state % 2**64, q >> 64, q % 2**64]


def outputs_used(words, n):
    """PCG64 outputs that n ``standard_normal`` draws take from these words."""
    rng = generator_at(words)
    start = rng.bit_generator.state["state"]
    rng.standard_normal(n)
    state, end, used = start["state"], rng.bit_generator.state["state"]["state"], 0
    while state != end:
        state, used = (state * montecarlo._PCG64_MULT + start["inc"]) % 2**128, used + 1
    return used


def test_ziggurat_tables_are_numpys():
    """wi and ki read off the installed numpy's ``standard_normal``.

    A draw at rabs = 1 returns wi of its level.  ki is the least rabs whose
    draw takes a second output (a rejection test), found by bisection.
    """
    rng = np.random.Generator(np.random.PCG64())

    def draw(level, rabs):
        word = output_word(level, rabs)
        rng.bit_generator.state = _pcg64_state(*words_with_output(word, 0))
        value = rng.standard_normal()
        return value, rng.bit_generator.state["state"]["state"] != word

    wi, ki = np.empty(256), np.empty(256, np.uint64)
    for level in range(256):
        wi[level] = draw(level, 1)[0]
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if not draw(level, mid)[1] else (lo, mid)
        ki[level] = lo
    assert ki[1] == 0                       # level 1 never takes the fast path
    assert wi.tobytes() == montecarlo._ZIG_WI.tobytes()
    assert np.array_equal(ki, montecarlo._ZIG_KI)


def per_row_reference(rates, di, rngs):
    rows = [_sample_rates(rates, di, rng) for rng in rngs]
    return np.array([vals for vals, _ in rows]), sum(redraws for _, redraws in rows)


def generator_at(words):
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = _pcg64_state(*words)
    return rng


class TestBulkDraws:
    @pytest.fixture
    def draw_words(self, monkeypatch):
        """Draw from given substream words; also return the rows set one by one."""
        def draw(rates, di, words):
            set_rows = []
            state = montecarlo._pcg64_state
            monkeypatch.setattr(montecarlo, "_substream_words",
                                lambda seed, m: np.array(words, np.uint64))
            monkeypatch.setattr(montecarlo, "_pcg64_state",
                                lambda *w: set_rows.append(words.index(list(w))) or state(*w))
            out = np.empty((len(words), len(rates)))
            truncated = _draw_generations(rates, di, 0, out)
            return out, truncated, set(set_rows)
        return draw

    def test_each_kind_of_slow_draw(self, peru_rates, draw_words):
        rates = peru_rates.rates
        # Rows 3-6: a level-0 tail; a wedge reject and its redraw; a slow output
        # in the last column read, then the next row's slow first output (a
        # level-1 wedge, always accepted): adjacent outputs of different rows.
        last = len(rates) + montecarlo._SPARE_OUTPUTS - 1
        words = [list(map(int, row)) for row in _substream_words(11, 3)] + [
            words_with_output(output_word(0, 2**52 - 1), 3),
            words_with_output(output_word(200, 2**52 - 1, True), 5),
            words_with_output(output_word(7, 2**52 - 1), last),
            words_with_output(output_word(1, 1), 0),
        ]
        assert outputs_used(words[4], len(rates)) >= len(rates) + 2
        out, truncated, set_rows = draw_words(rates, 0.25, words)
        ref, ref_truncated = per_row_reference(rates, 0.25, map(generator_at, words))
        assert out.tobytes() == ref.tobytes() and truncated == ref_truncated == 0
        assert 3 in set_rows and not set_rows & {4, 6}

    def test_row_out_of_spare_outputs(self, peru_rates, draw_words, monkeypatch):
        monkeypatch.setattr(montecarlo, "_SPARE_OUTPUTS", 1)
        rates = peru_rates.rates
        n = len(rates)
        exact = next(words for q in range(100)               # one wedge, all else fast
                     if outputs_used(words := words_with_output(output_word(1, 1), 0, q), n)
                     == n + 1)
        words = [words_with_output(output_word(200, 2**52 - 1), 0), exact]
        assert outputs_used(words[0], n) > n + 1
        out, _, set_rows = draw_words(rates, 0.25, words)
        ref, _ = per_row_reference(rates, 0.25, map(generator_at, words))
        assert out.tobytes() == ref.tobytes()
        assert set_rows == {0}

    @given(seed=st.integers(0, 2**70), di=st.sampled_from([0.05, 0.25, 0.5, 1.0, 2.0]),
           name=st.sampled_from(sorted(PRESETS)))
    @settings(max_examples=30, deadline=None)
    def test_matches_default_rng_per_generation(self, seed, di, name):
        rates = synthetic_rates(episode(name)).rates
        out = np.empty((45, len(rates)))
        truncated = _draw_generations(rates, di, seed, out)
        children = np.random.SeedSequence(seed).spawn(len(out))
        ref, ref_truncated = per_row_reference(rates, di, map(np.random.default_rng, children))
        assert out.tobytes() == ref.tobytes() and truncated == ref_truncated


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(m=0)
    with pytest.raises(ValueError):
        MCConfig(di=-0.1)
    with pytest.raises(ValueError):
        MCConfig(threshold=0.0)
    for bad in ({"di": math.nan}, {"di": math.inf}, {"threshold": math.inf},
                {"threshold": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            MCConfig(**bad)
    with pytest.raises(ValueError):
        MCConfig(workers=0)
    # Counts are integers, as the seed is: m = 10.0 used to pass here and
    # fail in run_mc after the direct fit.
    for bad in ({"m": 10.0}, {"m": 10.5}, {"m": "10"}, {"workers": 1.5}, {"workers": 2.0}):
        with pytest.raises(ValueError, match="integer"):
            MCConfig(**bad)
    assert MCConfig(m=np.int64(10), workers=np.int32(2)).m == 10


# ---------------------------------------------------------------------------
# run_mc
# ---------------------------------------------------------------------------

class TestRunMC:
    def test_zero_error_collapses_to_direct_fit(self, peru_rates):
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.0, m=10, seed=3))
        for name in ("tc", "alpha", "c0", "p0"):
            st = rep.params[name]
            assert st.std == 0.0
            assert st.mean == st.direct
            assert st.ratio == 0.0
        assert rep.accepted
        assert rep.n_nonconverged == 0

    def test_zero_error_run_of_a_pinned_zimbabwe_perturbation_is_accepted(self):
        # Taking the first trial, which ends each refit here, would move
        # alpha 1.16e-8 off the direct fit; with a zero spread that reads as
        # an infinite ratio and rejects the run.
        rates = synthetic_rates(episode("zimbabwe"))
        child = np.random.SeedSequence(1).spawn(5)[1].spawn(7)[3]
        sample = sample_generation(rates, 0.1, np.random.default_rng(child))
        rep = run_mc(sample, FitConfig(pin_p0=True), MCConfig(di=0.0, m=3, seed=1))
        assert rep.accepted
        assert all(st.ratio == 0.0 and st.mean == st.direct for st in rep.params.values())

    def test_deterministic_across_worker_counts(self, peru_rates):
        a = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=200, seed=11, workers=1))
        b = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=200, seed=11, workers=5))
        for name in ("tc", "alpha", "c0", "p0", "gamma"):
            assert a.params[name].mean == b.params[name].mean
            assert a.params[name].std == b.params[name].std
        assert a.tc_skewness == b.tc_skewness
        assert a.refits.tobytes() == b.refits.tobytes()
        assert np.array_equal(a.status, b.status)

    def test_moment_matching(self, peru_rates):
        # Sample moments match the assigned gaussian within 3/sqrt(m)
        # (relative) for every epoch with a nonzero rate.
        m = 4000
        children = np.random.SeedSequence(1).spawn(m)
        samples = np.empty((m, len(peru_rates)))
        for j, c in enumerate(children):
            samples[j], _ = _sample_rates(peru_rates.rates, 0.25, np.random.default_rng(c))
        sigma = 0.25 * np.abs(peru_rates.rates)
        nz = sigma > 0
        tol = 3.0 / math.sqrt(m)
        assert np.all(np.abs(samples.mean(0)[nz] / peru_rates.rates[nz] - 1.0) <= tol * 0.25)
        assert np.all(np.abs(samples.std(0)[nz] / sigma[nz] - 1.0) <= tol)

    def test_acceptance_rule_is_conjunction_over_four_params(self, peru_rates):
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=150, seed=4, threshold=1e9))
        assert rep.accepted
        assert all(rep.params[k].ratio < rep.config.threshold
                   for k in ("tc", "alpha", "c0", "p0"))
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=150, seed=4, threshold=1e-12))
        assert not rep.accepted

    @pytest.fixture(scope="class")
    def heavy_error_run(self, peru_rates):
        return run_mc(peru_rates, FitConfig(), MCConfig(di=0.5, m=100, seed=2))

    def test_unreliable_flag_on_heavy_nonconvergence(self, heavy_error_run):
        rep = heavy_error_run
        assert rep.n_nonconverged > 5
        assert rep.unreliable

    def test_alpha_floor_generations_enter_moments_and_are_counted(self, heavy_error_run):
        # At 50 percent error many refits end with alpha on its lower bound.
        # They are counted in n_nonconverged but still enter the moments,
        # at the bound; only out-of-box refits (one here) leave them.
        rep = heavy_error_run
        in_moments = rep.outcome["converged_interior"] + rep.outcome["on_alpha_floor"]
        assert rep.config.m - rep.n_nonconverged < in_moments < rep.config.m
        entered = rep.status <= OUTCOMES.index("on_alpha_floor")
        alpha = rep.refits[entered, 1]
        assert np.count_nonzero(alpha == fitting._ALPHA_BOUNDS[0]) == rep.outcome["on_alpha_floor"]
        assert rep.params["alpha"].mean == _population_moments(alpha)[0]

    def test_direct_fit_on_alpha_floor_seeds_refit(self, peru_rates, monkeypatch):
        # With the floor above Peru's alpha = 0.29 the direct fit sits on
        # the bound; at di = 0 every refit stays there and reproduces it.
        monkeypatch.setattr(fitting, "_ALPHA_BOUNDS", (0.5, 5.0))
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.0, m=5, seed=1))
        assert rep.params["alpha"].mean == 0.5
        for name in ("tc", "alpha", "c0", "p0"):
            st = rep.params[name]
            assert st.std == 0.0
            assert st.ratio == 0.0
        assert rep.n_nonconverged == 5

    def test_direct_fit_must_converge(self, peru_rates, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_ITER", 2)
        with pytest.raises(FitError):
            run_mc(peru_rates, FitConfig(), MCConfig(di=0.1, m=5, seed=1))
        stuck = fit_singularity(build_price_index(peru_rates))
        assert not stuck.converged
        # A non-converged fit passed in is refused too, whatever the refits
        # could do: they run with their full round budget here.
        monkeypatch.undo()
        with pytest.raises(FitError, match="did not converge"):
            sweep_error(peru_rates, FitConfig(), [0.1], m=5, seed=1, direct=stuck)

    def test_gamma_stats_derived_from_alpha(self, peru_rates):
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.1, m=100, seed=6))
        g = rep.params["gamma"]
        a = rep.params["alpha"]
        assert g.direct == pytest.approx((2 + a.direct) / (1 + a.direct), rel=1e-12)
        # Means are over the same generations, so the nonlinear map keeps
        # them consistent at first order.
        assert g.mean == pytest.approx((2 + a.mean) / (1 + a.mean), rel=1e-3)


def refit(p_data, index, direct, config):
    """Every row of p_data refitted around ``direct``, the fit of ``index``,
    as ``run_mc`` refits its generations: (tc, alpha, c0, p0, ssr,
    converged), one entry per row."""
    t = index.times()
    starts = montecarlo._refit_starts(p_data, index.log_index, t, direct, not config.pin_p0)
    (tc, alpha, c0, p0), ssr, converged, _ = fit_singular_rows(
        p_data, t, starts, bounded_above=False,
        pinned_p0=direct.p0 if config.pin_p0 else None)
    return tc, alpha, c0, p0, ssr, converged


#: Peru generations at di = 0.25 under master seed 20080605 whose refit
#: stalled for all max_iter rounds, with alpha drifting towards zero and tc
#: to the window floor, when the batched refit left alpha without a floor.
PERU_STALLED = (
    106, 121, 190, 399, 728, 846, 1157, 1187, 1340, 1367, 1408, 1410,
    1498, 1569, 1633, 1642, 1665, 1667, 1800, 1940, 2217, 2493, 2959, 3051,
    3076, 3087, 3099, 3183, 3339, 3553, 3629, 3701, 3719, 3801, 3942, 3963,
)


def test_refit_honours_alpha_bounds_on_formerly_stalled_generations(peru_rates):
    config = FitConfig()
    a_lo, a_hi = fitting._ALPHA_BOUNDS
    index = build_price_index(peru_rates)
    direct = fit_singularity(index, config).params
    children = np.random.SeedSequence(20080605).spawn(4000)
    indices = []
    for j in PERU_STALLED:
        vals, _ = _sample_rates(peru_rates.rates, 0.25, np.random.default_rng(children[j]))
        indices.append(build_price_index(InflationSeries(epochs=peru_rates.epochs, rates=vals)))
    p_data = np.array([ix.log_index for ix in indices])
    _, alpha, _, _, ssr, converged = refit(p_data, index, direct, config)
    assert converged.all()
    assert np.all((alpha >= a_lo) & (alpha <= a_hi))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # some generations end non-increasing
        objectives = np.array([fit_singularity(ix, config).objective for ix in indices])
    assert np.all(ssr <= objectives * (1.0 + 1e-9))


def refits_in_flight(rates, counts, monkeypatch):
    """50 Peru generations at di = 0.25 refitted with each count of rows in flight."""
    config = FitConfig()
    index = build_price_index(rates)
    direct = fit_singularity(index, config).params
    samples = np.empty((50, len(rates)))
    _draw_generations(rates.rates, 0.25, 5, samples)
    p_data = cumulate(samples)
    runs = []
    for count in counts:
        monkeypatch.setattr(fitting, "_IN_FLIGHT", count)
        runs.append(refit(p_data, index, direct, config))
    return runs


def test_refit_rows_do_not_depend_on_the_chunk(peru_rates, monkeypatch):
    one, whole = refits_in_flight(peru_rates, (1, 50), monkeypatch)
    for a, b in zip(one, whole):
        assert a.tobytes() == b.tobytes()


def test_refit_rows_do_not_depend_on_a_refilled_window(peru_rates, monkeypatch):
    # With 7 generations in flight the other 43 join as earlier ones stop,
    # each into a window of rows at other rounds; every row keeps its bits.
    window, whole = refits_in_flight(peru_rates, (7, 50), monkeypatch)
    for a, b in zip(window, whole):
        assert a.tobytes() == b.tobytes()


def test_zero_error_generations_are_the_direct_fit_data(monkeypatch):
    # Generations and the direct fit cumulate rates the same way, so with
    # di = 0 every generation is the direct fit's log index, bit for bit.
    seen = []
    fit_rows = montecarlo.fit_singular_rows

    def spy(p_data, *args, **kwargs):
        seen.append(p_data.copy())
        return fit_rows(p_data, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "fit_singular_rows", spy)
    for name in PRESETS:
        rates = synthetic_rates(episode(name))
        run_mc(rates, FitConfig(), MCConfig(di=0.0, m=3, seed=1))
        expected = build_price_index(rates).log_index.tobytes()
        assert [row.tobytes() for row in seen.pop()] == [expected] * 3


def test_pinned_p0_carries_into_the_refit(peru_rates):
    # Every generation shares the direct fit's ln P(t0): the first rate has
    # no assigned error.  A refit with p0 free drifts off the pinned fit.
    sample = sample_generation(peru_rates, 0.1, np.random.default_rng(4))
    rep = run_mc(sample, FitConfig(pin_p0=True), MCConfig(di=0.0, m=3, seed=1))
    assert rep.params["p0"].mean == rep.params["p0"].direct == rep.direct.params.p0
    assert all(st.ratio == 0.0 for st in rep.params.values())
    assert rep.accepted


def test_population_moments_exact_for_identical_samples():
    # A plain mean of ten copies of 0.3 is off by one ulp, which gives a
    # spread of 5.6e-17 instead of zero.
    x = np.full(10, 0.3)
    assert _population_moments(x) == (x[0], 0.0)
    mean, std = _population_moments(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mean == 2.5
    assert std == pytest.approx(math.sqrt(1.25), rel=1e-15)


def test_skew_kurtosis_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(12)
    for sample in (rng.normal(size=50), rng.gamma(2.0, size=4000),
                   1991.3 + 0.5 * rng.standard_t(5, size=999)):
        skew, kurt = _skew_kurtosis(sample)
        assert skew == pytest.approx(stats.skew(sample, bias=True), rel=1e-12)
        assert kurt == pytest.approx(stats.kurtosis(sample, fisher=True, bias=True), rel=1e-12)


def test_outcome_counts_partition_the_generations(peru_rates):
    rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=4000, seed=20080605))
    assert OUTCOMES == ("converged_interior", "on_alpha_floor", "stalled", "out_of_box")
    assert tuple(rep.outcome) == OUTCOMES
    assert sum(rep.outcome.values()) == rep.config.m
    assert rep.n_nonconverged == rep.config.m - rep.outcome["converged_interior"]
    # Converged generations on the alpha floor enter the moments: the tc
    # moments are those of exactly these rows.
    in_moments = rep.outcome["converged_interior"] + rep.outcome["on_alpha_floor"]
    tc = rep.refits[rep.status <= OUTCOMES.index("on_alpha_floor"), 0]
    assert len(tc) == in_moments
    assert (rep.params["tc"].mean, rep.params["tc"].std) == _population_moments(tc)
    data = build_report(rep.direct, build_price_index(peru_rates), mc=rep).data
    assert sum(data[f"mc.outcome.{kind}"] for kind in OUTCOMES) == data["mc.m"]


def alternating(m):
    """(m, 4) refits of +2 and -2 in turn in every column: a mean of 0 and a std of 2 exactly."""
    return np.where(np.arange(m) % 2 == 0, 2.0, -2.0)[:, None].repeat(4, axis=1)


def hand_report(status, refits=None, direct=(0.0, 0.0, 0.0, 0.0), threshold=0.1):
    """An MCReport built by hand from each generation's status and refit.

    ``refits`` defaults to ``alternating``.  The direct fit stands in for a
    ``FitResult`` by its (tc, alpha, c0, p0) alone, so that any value can be
    set.  The arrays are stored as given, so a test can change them between
    reads.
    """
    status = np.asarray(status, dtype=np.int8)
    refits = alternating(len(status)) if refits is None else refits
    params = types.SimpleNamespace(**dict(zip(("tc", "alpha", "c0", "p0"), direct)), t0=0.0)
    return MCReport(config=MCConfig(m=len(status), threshold=threshold),
                    direct=types.SimpleNamespace(params=params), refits=refits, status=status,
                    truncated_draws=0)


def converged_report(**ratios):
    """100 converged generations whose tc, alpha, c0 and p0 ratios are ``ratios`` (0 if unset).

    Around ``alternating`` refits a direct value of 2 r gives a ratio of exactly r.
    """
    return hand_report(np.zeros(100), direct=[2.0 * ratios.get(k, 0.0)
                                              for k in ("tc", "alpha", "c0", "p0")])


@pytest.mark.parametrize("m", [20, 100, 4000, 4001])
def test_unreliable_from_one_generation_past_the_limit(m):
    limit = math.floor(montecarlo._MAX_NONCONVERGED_FRAC * m)
    stalled = OUTCOMES.index("stalled")
    at = hand_report(np.repeat([0, stalled], [m - limit, limit]))
    past = hand_report(np.repeat([0, stalled], [m - limit - 1, limit + 1]))
    assert (at.n_nonconverged, at.unreliable) == (limit, False)
    assert (past.n_nonconverged, past.unreliable) == (limit + 1, True)


def test_accepted_is_strict_on_four_params_and_ignores_gamma():
    assert converged_report(**dict.fromkeys(("tc", "alpha", "c0", "p0"), 0.0999)).accepted
    # alpha alternates u + 1 and u - 1 around its direct value u = -1 + 2**-30:
    # its ratio is 0, and that of gamma = (2 + alpha) / (1 + alpha) about 2**30.
    u = -1.0 + 2.0**-30
    refits = alternating(100)
    refits[:, 1] = u + refits[:, 1] / 2.0
    rep = hand_report(np.zeros(100), refits, direct=(0.0, u, 0.0, 0.0))
    assert rep.params["alpha"].ratio == 0.0
    assert rep.params["gamma"].ratio > 1e9
    assert rep.accepted
    for name in ("tc", "alpha", "c0", "p0"):
        rep = converged_report(**{name: 0.1})
        assert rep.params[name].ratio == rep.config.threshold
        assert not rep.accepted


def test_a_hand_built_report_reads_numpys_statistics_of_its_converged_rows():
    rng = np.random.default_rng(36)
    m = 500
    refits = 1.0 + rng.gamma(2.0, size=(m, 4))
    status = rng.integers(0, len(OUTCOMES), m)
    direct = (3.0, 2.5, 2.0, 1.5)
    rep = hand_report(status, refits, direct)
    assert rep.outcome == {kind: int(np.sum(status == k)) for k, kind in enumerate(OUTCOMES)}
    assert rep.n_nonconverged == m - int(np.sum(status == 0))
    rows = refits[status <= 1]
    columns = {"tc": rows[:, 0], "alpha": rows[:, 1], "c0": rows[:, 2], "p0": rows[:, 3],
               "gamma": (2.0 + rows[:, 1]) / (1.0 + rows[:, 1])}
    assert list(rep.params) == list(columns)
    for (name, x), value in zip(columns.items(), (*direct, (2.0 + 2.5) / (1.0 + 2.5))):
        stats = rep.params[name]
        assert stats.direct == value
        assert stats.mean == pytest.approx(np.mean(x), rel=1e-14)
        assert stats.std == pytest.approx(np.std(x), rel=1e-12)
    dev = rows[:, 0] - np.mean(rows[:, 0])
    m2 = np.mean(dev**2)
    assert rep.tc_skewness == pytest.approx(np.mean(dev**3) / m2**1.5, rel=1e-12)
    assert rep.tc_excess_kurtosis == pytest.approx(np.mean(dev**4) / m2**2 - 3.0, rel=1e-12)
    # Identical tc refits have no shape: skewness and excess kurtosis read 0.
    flat = hand_report(status, np.full((m, 4), 2.0), direct)
    assert (flat.params["tc"].std, flat.tc_skewness, flat.tc_excess_kurtosis) == (0.0, 0.0, 0.0)
    assert flat.gaussian_ok


def test_a_changed_status_moves_params_on_the_next_read():
    refits = np.arange(1.0, 41.0).reshape(10, 4)
    status = np.zeros(10, dtype=np.int8)
    rep = hand_report(status, refits)
    before = rep.params["tc"]
    assert (before.mean, before.std) == _population_moments(refits[:, 0])
    status[0] = OUTCOMES.index("out_of_box")
    after = rep.params["tc"]
    assert (after.mean, after.std) == _population_moments(refits[1:, 0])
    assert after.mean != before.mean
    assert rep.outcome["out_of_box"] == 1


def test_a_report_stores_its_generations_read_only(peru_rates):
    assert [f.name for f in dataclasses.fields(MCReport)] == [
        "config", "direct", "refits", "status", "truncated_draws"]
    for name in ("outcome", "params", "tc_skewness", "tc_excess_kurtosis"):
        assert isinstance(getattr(MCReport, name), property)
    rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=20, seed=1))
    assert (rep.refits.shape, rep.refits.dtype) == ((20, 4), np.float64)
    assert (rep.status.shape, rep.status.dtype) == ((20,), np.int8)
    for array in (rep.refits, rep.status):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_reading_a_report_adds_no_instance_state(peru_rates):
    # Digests of a report hash vars(report): a value cached on first read
    # would make two equal runs hash differently.
    rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=20, seed=1))
    for obj in (rep, *rep.params.values()):
        for name in dir(obj):
            if not name.startswith("_"):
                getattr(obj, name)
        assert set(vars(obj)) == {f.name for f in dataclasses.fields(obj)}


def test_fit_and_run_mc_import_no_numpy_ma(fresh_process):
    # np.median and np.unique import numpy.ma on first use, 10-14 ms of a
    # cold process; a truncated Germany draw reaches the redraw path too.
    assert (fresh_process["truncated draws"], fresh_process["numpy.ma after run_mc"]) == \
        (True, False)


def test_fits_and_run_mc_call_no_geomspace_or_stack(peru_rates, monkeypatch):
    # Python-level numpy helpers cost more than the arithmetic they wrap at
    # these sizes (2-vCPU VM, Python 3.11, numpy 2.4): np.geomspace about
    # 20 us a call against 4 us for fitting._ladder, np.stack about 3 us,
    # once per LM round in the damped step, where a ufunc does the same, and
    # np.einsum 1.87 us against 0.91 us for the C einsum it forwards to,
    # about 43 times a fit.
    def forbidden(*args, **kwargs):
        raise AssertionError("called on a fit path")

    index = build_price_index(peru_rates)
    monkeypatch.setattr(np, "geomspace", forbidden)
    monkeypatch.setattr(np, "stack", forbidden)
    monkeypatch.setattr(np, "einsum", forbidden)
    fitting.fit_linear(index)
    fitting.fit_double_exp(index)
    fit_singularity(index)
    run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=50, seed=1))


def test_fits_and_run_mc_keep_their_bits_on_numpys_public_einsum(peru_rates, monkeypatch):
    # Where numpy has no private c_einsum, fitting takes np.einsum in its
    # place: the same bits on the three fits of every bundled episode and on
    # every generation's refit and class.
    def results():
        fits = [bits(fit(build_price_index(synthetic_rates(episode(name)))))
                for name in PRESETS
                for fit in (fitting.fit_linear, fitting.fit_double_exp, fit_singularity)]
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=200, seed=1))
        return fits, rep.refits.tobytes(), rep.status.tobytes()

    fast = results()
    monkeypatch.setattr(fitting, "c_einsum", np.einsum)
    assert results() == fast
    monkeypatch.undo()
    # The fallback itself: fitting imported where numpy has no c_einsum.
    monkeypatch.delattr(np._core.multiarray, "c_einsum")
    spec = importlib.util.spec_from_file_location("hyperfit._fitting_copy", fitting.__file__)
    copy = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, copy)     # dataclasses look their module up
    spec.loader.exec_module(copy)
    assert copy.c_einsum is np.einsum


def outcome_bits(call):
    """What ``call()`` returns, or the error it raises, as bytes: equal bytes, equal bits."""
    try:
        return pickle.dumps(call())
    except FitError as err:
        return pickle.dumps(repr(err))


def test_fits_keep_the_callers_floating_point_state(peru_rates):
    # Each entry point that evaluates a model sets the fits' one
    # floating-point state itself, so a caller that raises on every
    # floating-point event gets the same bits as numpy's default state, and
    # gets its own state back.
    calls = []
    for name in PRESETS:
        rates = synthetic_rates(episode(name))
        children = np.random.SeedSequence(26).spawn(4)
        for series in [rates] + [sample_generation(rates, 1.0, np.random.default_rng(child))
                                 for child in children]:
            index = build_price_index(series)
            calls += [functools.partial(fitting.fit_linear, index),
                      functools.partial(fitting.fit_double_exp, index),
                      functools.partial(fit_singularity, index),
                      functools.partial(fit_singularity, index, FitConfig(pin_p0=True))]
    calls.append(functools.partial(run_mc, peru_rates, FitConfig(),
                                   MCConfig(di=0.5, m=200, seed=3)))

    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "log price index is not strictly increasing")
            with np.errstate(all="raise"):
                state = np.geterr()
                strict = outcome_bits(call)
                assert np.geterr() == state
            state = np.geterr()
            default = outcome_bits(call)
            assert np.geterr() == state
        assert strict == default


def test_a_refit_started_on_an_epoch_raises_no_floating_point_error(peru_rates):
    # fit_singular_rows sets the fits' floating-point state itself: under a
    # caller that raises on everything, a row whose objective overflows is
    # retired, not an error.  No row can start on an epoch, where the model
    # divides by zero, as the tc window lies beyond the last one; log prices
    # scaled by 1e200 overflow the SSR, which the bundled fits never do, so
    # this is the case that shows it.
    index = build_price_index(peru_rates)
    t = index.times()
    p_data = 1e200 * index.log_index[None]
    seed = (tc_search_window(t)[0] + 1.0, 0.5)
    with np.errstate(all="raise"):
        _, ssr, converged, rounds = fit_singular_rows(p_data, t, seed)
        with pytest.raises(FloatingPointError):
            fit_singular_rows.__wrapped__(p_data, t, seed)
    assert ssr[0] == np.inf and not converged[0] and rounds[0] == 0


def test_tc_is_lognormal_in_its_distance_to_the_last_epoch(peru_rates):
    # Criterion 4(b) fails on skew(tc) = 1.06 at di = 0.25; on the same
    # generations log(tc - t_last) is close to gaussian (skew -0.083; seeds
    # 1 and 2 give -0.084 and -0.111).  The skew is taken over exactly the
    # tc of the generations that enter the moments.
    rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=4000, seed=20080605))
    tc = rep.refits[rep.status <= OUTCOMES.index("on_alpha_floor"), 0]
    assert len(tc) == rep.outcome["converged_interior"] + rep.outcome["on_alpha_floor"]
    assert _skew_kurtosis(tc) == (rep.tc_skewness, rep.tc_excess_kurtosis)
    skew, _ = _skew_kurtosis(np.log(tc - float(peru_rates.times()[-1])))
    assert abs(skew) < 0.5


def test_out_of_box_generations_are_counted(peru_rates):
    rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.5, m=100, seed=2))
    assert rep.outcome["out_of_box"] >= 1
    # Each generation counted out of the box ended beyond it, and every
    # other one inside it.
    tc, alpha = rep.refits[:, 0], rep.refits[:, 1]
    beyond = (tc > tc_search_window(peru_rates.times())[1]) | (alpha > fitting._ALPHA_BOUNDS[1])
    assert np.array_equal(beyond, rep.status == OUTCOMES.index("out_of_box"))
    in_moments = np.count_nonzero(rep.status <= OUTCOMES.index("on_alpha_floor"))
    assert in_moments == rep.config.m - rep.outcome["out_of_box"] - rep.outcome["stalled"]


def refit_row(name: str, di: float, seed: int, row: int, config: FitConfig):
    """``refit`` on generation ``row`` of an m = 4000 run alone."""
    rates = synthetic_rates(episode(name))
    index = build_price_index(rates)
    child = np.random.SeedSequence(seed).spawn(4000)[row]
    vals, _ = _sample_rates(rates.rates, di, np.random.default_rng(child))
    p_data = build_price_index(InflationSeries(epochs=rates.epochs, rates=vals)).log_index
    return refit(p_data[None], index, fit_singularity(index, config).params, config)


@pytest.mark.parametrize("name, seed, row", [("peru", 1_000_003, 3563),
                                             ("zimbabwe", 1_000_007, 381)])
def test_a_refit_that_steps_out_and_back_is_not_stopped(name, seed, row, monkeypatch):
    """A refit may step out of the box and end inside it: the reach bound leaves it alone.

    At di = 0.5 with p0 free, from its first-order start Peru's row reaches
    1.133 box widths in tc (from the box's lower edge) and Zimbabwe's 1.034
    in alpha, and both end inside the box.  Held within two box widths
    (``fitting._REACH_BOXES``) each refits bit for bit as unbounded.  A
    bound at the box edge (``_REACH_BOXES`` = 1) clips the excursion: the
    row still converges inside the box, but elsewhere (Peru's tc moves by
    1.3e-5, in 18 rounds instead of 24), so this test fails with it.
    """
    config = FitConfig()
    _, tc_hi = tc_search_window(synthetic_rates(episode(name)).times())
    a_hi = fitting._ALPHA_BOUNDS[1]
    held = refit_row(name, 0.5, seed, row, config)
    monkeypatch.setattr(fitting, "_REACH_BOXES", np.inf)
    free = refit_row(name, 0.5, seed, row, config)
    for a, b in zip(held, free):
        assert a.tobytes() == b.tobytes()
    tc, alpha, *_, converged = held
    assert converged[0] and tc[0] <= tc_hi and alpha[0] <= a_hi
    monkeypatch.setattr(fitting, "_REACH_BOXES", 1.0)
    tc_clipped, alpha_clipped, *_, converged = refit_row(name, 0.5, seed, row, config)
    assert converged[0] and tc_clipped[0] <= tc_hi and alpha_clipped[0] <= a_hi
    assert tc_clipped[0] != tc[0] and alpha_clipped[0] != alpha[0]


def test_a_refit_far_beyond_the_box_stops_early(monkeypatch):
    # Germany at di = 0.5, seed 1000014: one generation heads far past
    # tc_hi.  Unbounded it ran all 400 rounds out there and counted as
    # stalled; now it is held one box width beyond the box, ends on that
    # bound and counts as out_of_box, and n_nonconverged stays what it was.
    results = []
    fit_rows = montecarlo.fit_singular_rows

    def spy(*args, **kwargs):
        results.append(fit_rows(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(montecarlo, "fit_singular_rows", spy)
    rates = synthetic_rates(episode("germany"))
    rep = run_mc(rates, FitConfig(), MCConfig(di=0.5, m=4000, seed=1_000_014))
    assert rep.outcome["stalled"] == 0 and rep.outcome["out_of_box"] == 1
    assert rep.n_nonconverged == 9
    ((tc, *_), _, _, rounds), = results
    tc_lo, tc_hi = tc_search_window(build_price_index(rates).times())
    assert tc.max() == tc_lo + 2.0 * (tc_hi - tc_lo)
    assert rounds.max() <= fitting._MAX_ITER // 4


# ---------------------------------------------------------------------------
# The linearization at the direct fit: each refit's start, and an oracle
# ---------------------------------------------------------------------------

def spy_refits(monkeypatch):
    """(p_data, seed, result) of every ``fit_singular_rows`` call of ``run_mc``."""
    calls = []
    fit_rows = montecarlo.fit_singular_rows

    def spy(p_data, t, seed, *args, **kwargs):
        calls.append((p_data.copy(), np.array(seed), fit_rows(p_data, t, seed, *args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(montecarlo, "fit_singular_rows", spy)
    return calls


@pytest.mark.parametrize("pin", [False, True])
def test_zero_error_refits_start_exactly_at_the_direct_fit(pin, monkeypatch):
    calls = spy_refits(monkeypatch)
    for name in PRESETS:
        rep = run_mc(synthetic_rates(episode(name)), FitConfig(pin_p0=pin),
                     MCConfig(di=0.0, m=3, seed=1))
        direct = np.array([rep.direct.params.tc, rep.direct.params.alpha])
        assert calls.pop()[1].tobytes() == np.tile(direct, (3, 1)).tobytes()


@pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
def test_zero_error_refits_return_the_direct_fit_bit_for_bit(monkeypatch):
    # Every fixture, noiseless and with seven perturbations at di = 0.1,
    # under p0 free, p0 pinned and an alpha floor of 0.5 (on which Peru's
    # direct fit sits): 120 runs.  Each refit starts at the direct fit and
    # returns its (tc, alpha, c0, p0) and SSR bit for bit, so the report
    # reads an exact zero spread, mean == direct and ratio 0 everywhere.
    calls = []
    fit_rows = fitting.fit_singular_rows

    def spy(*args, **kwargs):
        calls.append(fit_rows(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(fitting, "fit_singular_rows", spy)     # the direct fit's call
    monkeypatch.setattr(montecarlo, "fit_singular_rows", spy)  # the refit's
    bounds = fitting._ALPHA_BOUNDS
    configs = ((False, bounds), (True, bounds), (False, (0.5, bounds[1])))  # (pin_p0, bounds)
    runs = 0
    for k, name in enumerate(PRESETS):
        rates = synthetic_rates(episode(name))
        children = np.random.SeedSequence(1).spawn(len(PRESETS))[k].spawn(7)
        for sample in [rates] + [sample_generation(rates, 0.1, np.random.default_rng(child))
                                 for child in children]:
            for pin, alpha_bounds in configs:
                monkeypatch.setattr(fitting, "_ALPHA_BOUNDS", alpha_bounds)
                rep = run_mc(sample, FitConfig(pin_p0=pin), MCConfig(di=0.0, m=3, seed=1))
                (direct, direct_ssr, *_), (refit, ssr, converged, _) = calls
                calls.clear()
                assert np.array(refit).tobytes() == np.repeat(direct, 3, axis=1).tobytes()
                assert ssr.tobytes() == np.repeat(direct_ssr, 3).tobytes()
                assert converged.all()
                for param in ("tc", "alpha", "c0", "p0"):
                    st = rep.params[param]
                    assert (st.std, st.mean, st.ratio) == (0.0, st.direct, 0.0)
                assert rep.accepted
                runs += 1
    assert runs == 120


@pytest.mark.parametrize("name", ["peru", "germany"])
@pytest.mark.parametrize("pin", [False, True])
def test_refits_start_one_gauss_newton_step_from_the_direct_fit(name, pin, monkeypatch):
    # Each start is the undamped step solve(J^T J, J^T r) of the row's own
    # normal equations at the direct fit (agreement measured: 2.7e-12
    # relative), and at di = 1 % it lies about 200 times closer to where the
    # row converges than the direct fit does.
    calls = spy_refits(monkeypatch)
    rates = synthetic_rates(episode(name))
    rep = run_mc(rates, FitConfig(pin_p0=pin), MCConfig(di=0.01, m=200, seed=3))
    ((p_data, start, ((tc, alpha, *_), *_)),) = calls
    d = rep.direct.params
    t = rates.times()
    rows = np.ones((len(p_data), 1))
    _, (jtj, jtr), _, _ = _sing_residuals(d.tc * rows, d.alpha * rows, t,
                                          *_data_side(p_data, d.p0 if pin else None),
                                          not pin, True)
    step = np.linalg.solve(jtj, jtr[..., None])[..., 0]
    direct = np.array([d.tc, d.alpha])
    assert np.all(np.abs(start - direct - step) <= 1e-10 * np.abs(step).max(axis=0))
    end = np.stack([tc, alpha], axis=1)
    assert np.all(np.median(np.abs(end - start), axis=0)
                  < 0.02 * np.median(np.abs(end - direct), axis=0))


def test_a_row_without_positive_c0_starts_at_the_direct_fit(peru_rates):
    index = build_price_index(peru_rates)
    t, p = index.times(), index.log_index
    d = fit_singularity(index, FitConfig()).params
    deflating = p[0] - 0.1 * np.arange(len(p))
    starts = montecarlo._refit_starts(np.stack([deflating, p + 1e-3 * (t - t[0])]), p, t, d,
                                      True)
    assert starts[0].tolist() == [d.tc, d.alpha]
    assert starts[1].tolist() != [d.tc, d.alpha]


ORACLE_SEED = 20080605


@functools.cache
def oracle_run(name: str, di: float):
    """The m = 4000 run at master seed 20080605, and the first-order std of
    (tc, alpha) at its direct fit: the root diagonal of S L Sigma L^T S^T.

    S = A / C0 is the fit's sensitivity to ln P (``_sing_linearization``),
    L = d ln P / d i is lower-triangular with column l holding 1 / (1 + i_l),
    and Sigma = diag((di |i_l|)^2) is the rate error."""
    rates = synthetic_rates(episode(name))
    rep = run_mc(rates, FitConfig(), MCConfig(di=di, m=4000, seed=ORACLE_SEED))
    d, i = rep.direct.params, rates.rates
    a, _ = _sing_linearization(rates.times(), d.tc, d.alpha, True)
    root = (a / d.c0) @ (np.tril(np.ones((len(i), len(i)))) / (1.0 + i)) * (di * np.abs(i))
    return rep, np.sqrt(np.einsum("jk,jk->j", root, root))


@pytest.mark.parametrize("name", list(PRESETS))
def test_spread_at_one_percent_is_the_linear_spread(name):
    # At di = 1 % each std of tc and alpha lies within 3 sampling errors
    # (std / sqrt(2m)) of its first-order value; the worst measured is -1.9
    # (Peru tc: linear 0.01765, Monte Carlo 0.01729).  At 25 % the linear
    # values fall 5-9 sampling errors short in tc.
    rep, linear = oracle_run(name, 0.01)
    for k, param in enumerate(("tc", "alpha")):
        std = rep.params[param].std
        assert abs(std - linear[k]) <= 3.0 * std / math.sqrt(2 * rep.config.m)


@pytest.mark.parametrize("di", [0.01, 0.05, 0.10])
@pytest.mark.parametrize("name", list(PRESETS))
def test_tc_skew_is_the_lognormal_skew_of_the_linear_spread(name, di):
    # If log(tc - t_last) is gaussian with std s, tc has skew
    # (e^{s^2} + 2) sqrt(e^{s^2} - 1).  With s the first-order std of tc
    # over tc - t_last, that matches skew(tc) within 0.2, about five
    # sampling errors of a skew at m = 4000 (sqrt(6 / m) = 0.039); the
    # worst measured is 0.134 (Zimbabwe, 10 %).  Criterion 4(b) fails on
    # Peru at 25 %, where this predicts 1.10 and the run gives 1.059; Greece
    # at 25 % is the exception (1.26 against 2.15).
    rep, linear = oracle_run(name, di)
    s = linear[0] / (rep.direct.params.tc - float(synthetic_rates(episode(name)).times()[-1]))
    e = math.exp(s * s)
    assert abs(rep.tc_skewness - (e + 2.0) * math.sqrt(e - 1.0)) <= 0.2


def bits(value):
    """value as nested dicts of its fields, with arrays as bytes and floats by
    repr: two values are the same bit for bit when their ``bits`` are equal."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value).__name__, repr(value)


def count_direct_fits(monkeypatch):
    calls = []
    fit = montecarlo.fit_singularity

    def counted(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "fit_singularity", counted)
    return calls


# ---------------------------------------------------------------------------
# sweep_error
# ---------------------------------------------------------------------------

class TestSweepError:
    def test_one_direct_fit_per_sweep(self, peru_rates, monkeypatch):
        calls = count_direct_fits(monkeypatch)
        reports = sweep_error(peru_rates, FitConfig(), [0.05, 0.15, 0.25], m=40, seed=3)
        assert len(calls) == 1
        # Each report is what a separate run_mc at that error gives, field
        # for field as the analysis report writes them.
        index = build_price_index(peru_rates)
        assert len(reports) == 3
        for di, swept in zip([0.05, 0.15, 0.25], reports):
            rep = run_mc(peru_rates, FitConfig(), MCConfig(di=di, m=40, seed=3))
            assert (build_report(swept.direct, index, mc=swept).to_json()
                    == build_report(rep.direct, index, mc=rep).to_json())

    @pytest.mark.parametrize("direct_pin", [True, False])
    def test_refits_take_the_direct_fits_own_p0_rule(self, peru_rates, direct_pin):
        # A direct fit swept under a FitConfig of the other p0 rule: the
        # config applies to a fit sweep_error makes itself, not to this one.
        direct = fit_singularity(build_price_index(peru_rates), FitConfig(pin_p0=direct_pin))
        other = FitConfig(pin_p0=not direct_pin)
        zero, swept = sweep_error(peru_rates, other, [0.0, 0.1], m=200, seed=1, direct=direct)
        assert all(stats.ratio == 0.0 for stats in zero.params.values())
        assert zero.accepted
        own = run_mc(peru_rates, FitConfig(pin_p0=direct_pin), MCConfig(di=0.1, m=200, seed=1))
        assert bits(swept) == bits(own)

    def test_zero_error_row_is_all_zero(self, peru_rates):
        rows = sweep_error(peru_rates, FitConfig(), [0.0], m=10, seed=3)
        row = rows[0]
        assert all(row.params[k].std == 0.0 for k in ("tc", "alpha", "c0", "p0"))
        assert row.sd_tc_rel_pct == 0.0 and row.sd_gamma_rel_pct == 0.0
        assert row.accepted

    def test_monotone_in_di(self, peru_rates):
        rows = sweep_error(peru_rates, FitConfig(), [0.05, 0.15, 0.25], m=300, seed=3)
        tc_col = [r.sd_tc_rel_pct for r in rows]
        g_col = [r.sd_gamma_rel_pct for r in rows]
        assert tc_col == sorted(tc_col)
        assert g_col == sorted(g_col)

    def test_robustness_ordering_large_index_stays_tighter(self):
        # At 35% relative error the dataset with the much larger cumulated
        # index (about 7e10 vs 4e7) keeps a smaller relative tc spread: its
        # singularity is better pinned by the data.
        peru = synthetic_rates(episode("peru"))
        germany = synthetic_rates(episode("germany"))
        rel = {}
        for name, rates in (("peru", peru), ("germany", germany)):
            rep = run_mc(rates, FitConfig(), MCConfig(di=0.35, m=400, seed=5))
            span = rep.params["tc"].direct - float(rates.times()[0])
            rel[name] = rep.params["tc"].std / span
        assert rel["germany"] < rel["peru"]


#: Each record that holds an array, built from fixed inputs: two calls give
#: records of equal content.
RECORDS = {
    "InflationSeries": lambda: synthetic_rates(episode("peru")),
    "PriceIndexSeries": lambda: build_price_index(synthetic_rates(episode("peru"))),
    "FitResult": lambda: fit_linear(build_price_index(synthetic_rates(episode("peru")))),
    "MCReport": lambda: run_mc(synthetic_rates(episode("peru")), mc_config=MCConfig(m=20, seed=3)),
    "RecursionResult": lambda: simulate_recursion(
        RecursionParams(r0=0.1, a=0.05, gamma=1.5, dt=1.0), 12),
}


@pytest.mark.parametrize("record", list(RECORDS))
def test_records_compare_and_hash_by_identity(record):
    # A record is equal only to itself, so == never asks an array for a
    # truth value and a record can be hashed; digests.py's named values
    # compare two runs.
    a, b = RECORDS[record](), RECORDS[record]()
    assert type(a).__name__ == record
    assert a == a and (a == b) is False and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
