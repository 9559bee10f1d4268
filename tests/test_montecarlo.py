import math
import warnings

import numpy as np
import pytest

from hyperfit import montecarlo
from hyperfit.fitting import FitConfig, FitError, fit_singularity
from hyperfit.fixtures import PRESETS, episode, synthetic_rates
from hyperfit.montecarlo import (
    MCConfig,
    _draw_generations,
    _population_moments,
    _ratio,
    _refit_generations,
    _sample_rates,
    _skew_kurtosis,
    run_mc,
    sample_generation,
    sweep_error,
)
from hyperfit.report import build_report
from hyperfit.series import Epoch, InflationSeries, build_price_index


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

    def test_redraws_keep_rates_above_minus_one_and_are_counted(self):
        # i = -0.95 with 25% relative error puts sizable mass below -1.
        rates = np.array([0.0, -0.95])
        total = 0
        for c in np.random.SeedSequence(9).spawn(2000):
            vals, redraws = _sample_rates(rates, 0.25, np.random.default_rng(c))
            assert np.all(vals > -1.0)
            total += redraws
        assert total > 0

    def test_ratio_edge_cases(self):
        assert _ratio(1.0, 1.0, 0.0, 1e-9) == 0.0
        assert _ratio(1.0, 1.0 + 1e-12, 0.0, 1e-9) == 0.0
        assert _ratio(1.0, 1.1, 0.0, 1e-9) == math.inf
        assert _ratio(1.0, 1.2, 0.1, 1e-9) == pytest.approx(2.0)


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
        truncated = _draw_generations(rates, 0.5, children, out)
        total = 0
        for row, child in zip(out, children):
            vals, redraws = _sample_rates(rates, 0.5, np.random.default_rng(child))
            assert row.tobytes() == vals.tobytes()
            total += redraws
        assert truncated == total > 0


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(m=0)
    with pytest.raises(ValueError):
        MCConfig(di=-0.1)
    with pytest.raises(ValueError):
        MCConfig(threshold=0.0)
    with pytest.raises(ValueError):
        MCConfig(workers=0)


# ---------------------------------------------------------------------------
# run_mc
# ---------------------------------------------------------------------------

class TestRunMC:
    def test_zero_error_collapses_to_direct_fit(self, peru_rates):
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.0, m=10, seed=3))
        for name in ("tc", "alpha", "c0", "p0"):
            st = rep.params[name]
            assert st.std == 0.0
            assert st.mean == pytest.approx(st.direct, rel=1e-12)
            assert st.ratio == 0.0
        assert rep.accepted
        assert rep.n_nonconverged == 0

    def test_deterministic_across_worker_counts(self, peru_rates):
        a = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=200, seed=11, workers=1))
        b = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=200, seed=11, workers=5))
        for name in ("tc", "alpha", "c0", "p0", "gamma"):
            assert a.params[name].mean == b.params[name].mean
            assert a.params[name].std == b.params[name].std
        assert a.tc_skewness == b.tc_skewness
        assert np.array_equal(a.tc_hist_counts, b.tc_hist_counts)

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
        assert all(rep.params[k].accepted for k in ("tc", "alpha", "c0", "p0"))
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=150, seed=4, threshold=1e-12))
        assert not rep.accepted

    def test_unreliable_flag_on_heavy_nonconvergence(self, peru_rates):
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.5, m=100, seed=2))
        assert rep.n_nonconverged > 5
        assert rep.unreliable

    def test_alpha_floor_generations_enter_moments_and_are_counted(self, peru_rates):
        # At 50 percent error many refits end with alpha on its lower bound.
        # They are counted in n_nonconverged but still enter the moments;
        # only out-of-box refits (one here) leave the tc histogram.
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.5, m=100, seed=2))
        in_moments = int(rep.tc_hist_counts.sum())
        assert rep.m - rep.n_nonconverged < in_moments < rep.m

    def test_direct_fit_on_alpha_floor_seeds_refit(self, peru_rates):
        # With the floor above Peru's alpha = 0.29 the direct fit sits on
        # the bound; at di = 0 every refit stays there and reproduces it.
        config = FitConfig(alpha_bounds=(0.5, 5.0))
        rep = run_mc(peru_rates, config, MCConfig(di=0.0, m=5, seed=1))
        assert rep.params["alpha"].mean == 0.5
        for name in ("tc", "alpha", "c0", "p0"):
            st = rep.params[name]
            assert st.std == 0.0
            assert st.ratio == 0.0
        assert rep.n_nonconverged == 5

    def test_direct_fit_must_converge(self, peru_rates):
        with pytest.raises(FitError):
            run_mc(peru_rates, FitConfig(max_iter=2), MCConfig(di=0.1, m=5, seed=1))

    def test_gamma_stats_derived_from_alpha(self, peru_rates):
        rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.1, m=100, seed=6))
        g = rep.params["gamma"]
        a = rep.params["alpha"]
        assert g.direct == pytest.approx((2 + a.direct) / (1 + a.direct), rel=1e-12)
        # Means are over the same generations, so the nonlinear map keeps
        # them consistent at first order.
        assert g.mean == pytest.approx((2 + a.mean) / (1 + a.mean), rel=1e-3)


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
    a_lo, a_hi = config.alpha_bounds
    index = build_price_index(peru_rates)
    direct = fit_singularity(index, config).params
    children = np.random.SeedSequence(20080605).spawn(4000)
    indices = []
    for j in PERU_STALLED:
        vals, _ = _sample_rates(peru_rates.rates, 0.25, np.random.default_rng(children[j]))
        indices.append(build_price_index(InflationSeries(epochs=peru_rates.epochs, rates=vals)))
    p_data = np.array([ix.log_index for ix in indices])
    _, alpha, _, _, ssr, converged = _refit_generations(p_data, index.times(), direct,
                                                        config, chunk=len(PERU_STALLED))
    assert converged.all()
    assert np.all((alpha >= a_lo) & (alpha <= a_hi))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # some generations end non-increasing
        objectives = np.array([fit_singularity(ix, config).objective for ix in indices])
    assert np.all(ssr <= objectives * (1.0 + 1e-9))


def test_refit_rows_do_not_depend_on_the_chunk(peru_rates):
    config = FitConfig()
    index = build_price_index(peru_rates)
    direct = fit_singularity(index, config).params
    children = np.random.SeedSequence(5).spawn(50)
    samples = np.empty((50, len(peru_rates)))
    _draw_generations(peru_rates.rates, 0.25, children, samples)
    p_data = np.cumsum(np.log1p(samples), axis=1)
    one = _refit_generations(p_data, index.times(), direct, config, chunk=1)
    whole = _refit_generations(p_data, index.times(), direct, config, chunk=50)
    for a, b in zip(one, whole):
        assert a.tobytes() == b.tobytes()


def test_zero_error_generations_are_the_direct_fit_data(monkeypatch):
    # Generations and the direct fit cumulate rates the same way, so with
    # di = 0 every generation is the direct fit's log index, bit for bit.
    seen = []
    refit = montecarlo._refit_generations

    def spy(p_data, *args, **kwargs):
        seen.append(p_data.copy())
        return refit(p_data, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_refit_generations", spy)
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


OUTCOMES = ("converged_interior", "on_alpha_floor", "stalled", "out_of_box")


def test_outcome_counts_partition_the_generations(peru_rates):
    rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.25, m=4000, seed=20080605))
    assert tuple(rep.outcome) == OUTCOMES
    assert sum(rep.outcome.values()) == rep.m
    assert rep.n_nonconverged == rep.m - rep.outcome["converged_interior"]
    # Converged generations on the alpha floor enter the moments.
    in_moments = rep.outcome["converged_interior"] + rep.outcome["on_alpha_floor"]
    assert int(rep.tc_hist_counts.sum()) == in_moments
    data = build_report(rep.direct, build_price_index(peru_rates), mc=rep).data
    assert sum(data[f"mc.outcome.{kind}"] for kind in OUTCOMES) == data["mc.m"]


def test_out_of_box_generations_are_counted(peru_rates):
    rep = run_mc(peru_rates, FitConfig(), MCConfig(di=0.5, m=100, seed=2))
    assert rep.outcome["out_of_box"] >= 1
    assert int(rep.tc_hist_counts.sum()) == rep.m - rep.outcome["out_of_box"] - rep.outcome["stalled"]


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
        rows = sweep_error(peru_rates, FitConfig(), [0.05, 0.15, 0.25], m=40, seed=3)
        assert len(calls) == 1
        # Each row is what a separate run_mc at that error gives.
        for row in rows:
            rep = run_mc(peru_rates, FitConfig(), MCConfig(di=row.di, m=40, seed=3))
            assert row.std_tc == rep.params["tc"].std
            assert row.std_alpha == rep.params["alpha"].std
            assert row.std_p0 == rep.params["p0"].std


    def test_zero_error_row_is_all_zero(self, peru_rates):
        rows = sweep_error(peru_rates, FitConfig(), [0.0], m=10, seed=3)
        row = rows[0]
        assert row.std_tc == row.std_alpha == row.std_c0 == row.std_p0 == 0.0
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
