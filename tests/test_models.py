import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from hyperfit.fixtures import PRESETS
from hyperfit.models import (
    DoubleExpParams,
    LinearParams,
    ModelDomainError,
    RecursionParams,
    SingularityParams,
    ab_coefficients,
    alpha_to_gamma,
    critical_time,
    doubling_time,
    doubling_time_from_ab,
    eval_double_exp,
    eval_linear,
    eval_singularity,
    growth_rate_curve,
    simulate_recursion,
)

PERU = SingularityParams(tc=1991.29, alpha=0.29, c0=0.18, p0=-0.38, t0=1969.0)


def ode_blowup_time(r0, gamma, a1, r_stop=1e12):
    """Adaptive-step integration of dr/dt = a1 r^gamma until r > r_stop.

    Integrated with the axes swapped (t as a function of u = ln r), which
    the chain rule makes non-stiff: dt/du = exp(-(gamma - 1) u) / a1.
    """
    sol = solve_ivp(
        lambda u, t: [math.exp(-(gamma - 1.0) * u) / a1],
        (math.log(r0), math.log(r_stop)),
        [0.0],
        rtol=1e-12,
        atol=1e-14,
    )
    assert sol.success
    return float(sol.y[0, -1])


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------

class TestEvalLinear:
    def test_published_deflation_row_at_t0(self):
        params = LinearParams(p0=0.64, c0=-0.008, t0=0.0)
        assert eval_linear(params, 0.0) == 0.64

    def test_zero_slope_is_flat(self):
        params = LinearParams(p0=1.3, c0=0.0, t0=5.0)
        assert np.all(eval_linear(params, np.linspace(0, 50, 7)) == 1.3)

    def test_affine_arithmetic(self):
        assert eval_linear(LinearParams(p0=1.0, c0=2.0, t0=0.0), 3.0) == 7.0


class TestEvalDoubleExp:
    def test_tiny_b2_matches_linear(self):
        d = DoubleExpParams(p0=0.5, c0=0.1, b2=1e-8, t0=0.0)
        l = LinearParams(p0=0.5, c0=0.1, t0=0.0)
        assert eval_double_exp(d, 10.0) == pytest.approx(eval_linear(l, 10.0), rel=1e-6)

    def test_value_at_t0_is_p0(self):
        d = DoubleExpParams(p0=-2.0, c0=0.3, b2=0.7, t0=4.0)
        assert eval_double_exp(d, 4.0) == -2.0

    def test_closed_form_and_quadrature_oracle(self):
        # p(t) - p0 = integral of C0 exp(b2 (t' - t0)) dt'
        d = DoubleExpParams(p0=0.0, c0=0.2, b2=0.5, t0=0.0)
        assert eval_double_exp(d, 4.0) == pytest.approx(0.4 * (math.e ** 2 - 1.0), rel=1e-12)
        oracle, err = quad(lambda u: 0.2 * math.exp(0.5 * u), 0.0, 4.0, epsabs=1e-12)
        assert err < 1e-9
        assert eval_double_exp(d, 4.0) == pytest.approx(oracle, rel=1e-8)

    def test_b2_zero_is_exact_linear_limit(self):
        d = DoubleExpParams(p0=0.1, c0=0.25, b2=0.0, t0=1.0)
        assert eval_double_exp(d, 9.0) == pytest.approx(0.1 + 0.25 * 8.0, abs=0.0)

    def test_any_sign_and_order_of_t_is_the_closed_form(self):
        # Times before t0, descending, out of order, and a scalar.  With
        # p0 = 0 and C0 = 1 the value is expm1(b2 (t - t0)) / b2 bit for bit
        # wherever some |b2 (t - t0)| of the row reaches 1e-8, and within
        # 1e-15 where every one stays below it and the b2 -> 0 series
        # applies.  A series chosen on a row's last point alone gave -1550 at
        # 1919, where the closed form gives -3.33, and one chosen on its two
        # ends would take the out-of-order row for a series row.
        closed = lambda b2, t: np.expm1(b2 * (np.asarray(t) - 1969.0)) / b2
        d = DoubleExpParams(p0=0.0, c0=1.0, b2=0.3, t0=1969.0)
        for t in (np.array([1919.0, 1944.0, 1969.0]), np.array([2000.0, 1969.0, 1919.0]),
                  np.array([1969.0, 1919.0, 1969.0])):
            assert eval_double_exp(d, t).tobytes() == closed(0.3, t).tobytes()
        assert eval_double_exp(d, 1919.0) == float(closed(0.3, 1919.0))
        assert eval_double_exp(d, np.array([])).shape == (0,)
        tiny = DoubleExpParams(p0=0.0, c0=1.0, b2=1e-12, t0=1969.0)
        t = np.array([1990.0, 1969.0, 1919.0])
        assert eval_double_exp(tiny, t) == pytest.approx(closed(1e-12, t), rel=1e-15)
        assert eval_double_exp(tiny, 1919.0) == pytest.approx(float(closed(1e-12, 1919.0)),
                                                              rel=1e-15)

    def test_negative_b2_rejected(self):
        with pytest.raises(ModelDomainError):
            DoubleExpParams(p0=0.0, c0=0.1, b2=-0.1)


class TestEvalSingularity:
    def test_value_at_t0_is_p0(self):
        assert eval_singularity(PERU, 1969.0) == pytest.approx(-0.38, abs=0.0)

    def test_peru_endpoint_magnitude(self):
        # Cumulated index near the end of the window is around 3e7.
        price = math.exp(eval_singularity(PERU, 1990.0))
        assert 1.5e7 < price < 6e7

    def test_quadrature_oracle(self):
        # p(t) - p0 = integral of C0 ((tc - t0)/(tc - t'))^(1 + alpha) dt'
        params = SingularityParams(tc=12.0, alpha=0.7, c0=0.08, p0=1.5, t0=2.0)
        for t in (5.0, 9.0, 11.5):
            oracle, err = quad(
                lambda u: 0.08 * ((12.0 - 2.0) / (12.0 - u)) ** 1.7, 2.0, t,
                epsabs=1e-13, epsrel=1e-13,
            )
            assert eval_singularity(params, t) - 1.5 == pytest.approx(oracle, rel=1e-8)
            assert err < 1e-9

    def test_domain_error_at_and_after_tc(self):
        with pytest.raises(ModelDomainError, match="singularity"):
            eval_singularity(PERU, 1991.29)
        with pytest.raises(ModelDomainError):
            eval_singularity(PERU, np.array([1980.0, 1999.0]))

    def test_strictly_increasing_and_divergent(self):
        t = np.linspace(PERU.t0, PERU.tc - 1e-9, 400)
        p = eval_singularity(PERU, t)
        assert np.all(np.diff(p) > 0)
        assert p[-1] > 1e3

    def test_invalid_params_rejected(self):
        with pytest.raises(ModelDomainError):
            SingularityParams(tc=1960.0, alpha=0.3, c0=0.1, p0=0.0, t0=1969.0)
        with pytest.raises(ModelDomainError):
            SingularityParams(tc=2000.0, alpha=-0.3, c0=0.1, p0=0.0, t0=1969.0)
        with pytest.raises(ModelDomainError):
            SingularityParams(tc=2000.0, alpha=0.3, c0=-0.1, p0=0.0, t0=1969.0)


class TestGrowthRateCurve:
    def test_base_value_is_r0(self):
        assert growth_rate_curve(PERU, 1.0, 1969.0) == pytest.approx(0.18, abs=0.0)

    def test_yugoslavia_terminal_blowup(self):
        # Day-based Yugoslavia fit: monotone blow-up with r above 2 well
        # before the critical date.
        c0_day = 0.335 / 30.4375
        params = SingularityParams(tc=1181.0, alpha=0.53, c0=c0_day, p0=-1.52, t0=0.0)
        t = np.linspace(0.0, 1181.0 - 30.4375, 300)
        r = growth_rate_curve(params, 30.4375, t)
        assert np.all(np.diff(r) > 0)
        assert r[-1] > 2.0

    def test_finite_difference_oracle(self):
        h = 1e-3
        t = 1985.0
        diff = eval_singularity(PERU, t + h) - eval_singularity(PERU, t)
        r = growth_rate_curve(PERU, h, t)
        # One-sided difference agrees up to the curvature term h r' / 2.
        bound = 0.5 * h * (1.0 + PERU.alpha) * r / (PERU.tc - t)
        assert abs(diff - r) <= 3.0 * bound

    def test_domain_error_at_tc(self):
        with pytest.raises(ModelDomainError):
            growth_rate_curve(PERU, 1.0, PERU.tc)

    def test_the_power_form_within_a_few_ulp(self):
        # The rate reads ratio^(1 + alpha) as f ratio, f = exp(alpha log ratio)
        # of the model's basis; the ratio ** (1 + alpha) it replaced differs
        # by the rounding of exp, within 8 ulp on every episode up to 1e-6
        # of its span before tc (6 measured).
        for preset in PRESETS.values():
            params = preset.params
            t = np.linspace(params.t0, params.tc - 1e-6 * (params.tc - params.t0), 2000)
            ratio = (params.tc - params.t0) / (params.tc - t)
            power_form = params.c0 * 30.0 * ratio ** (1.0 + params.alpha)
            rate = growth_rate_curve(params, 30.0, t)
            assert np.all(np.abs(rate - power_form) <= 8.0 * np.spacing(power_form))


# ---------------------------------------------------------------------------
# Exponent conversions
# ---------------------------------------------------------------------------

class TestExponentConversion:
    @pytest.mark.parametrize(
        "alpha,gamma",
        [(0.29, 1.78), (0.56, 1.64), (0.53, 1.65), (0.79, 1.56)],
    )
    def test_published_pairs(self, alpha, gamma):
        assert alpha_to_gamma(alpha) == pytest.approx(gamma, abs=0.01)

    def test_alpha_zero_boundary(self):
        assert alpha_to_gamma(0.0) == 2.0

    def test_domain_errors(self):
        with pytest.raises(ModelDomainError):
            alpha_to_gamma(-1.0)

    def test_an_array_is_its_values_bit_for_bit(self):
        alpha = np.array([0.01, 0.17, 0.29, 0.56, 1.0, 4.99])
        gamma = alpha_to_gamma(alpha)
        assert gamma.tobytes() == np.array([alpha_to_gamma(float(a)) for a in alpha]).tobytes()
        with pytest.raises(ModelDomainError):
            alpha_to_gamma(np.array([0.5, -1.0]))


# ---------------------------------------------------------------------------
# A/B coefficients and doubling time
# ---------------------------------------------------------------------------

class TestABCoefficients:
    def test_identity_with_explicit_form(self):
        rng = np.random.default_rng(5)
        params = SingularityParams(tc=1991.29, alpha=0.29, c0=0.18, p0=-0.38, t0=1969.0)
        a_coeff, b_coeff = ab_coefficients(params)
        t = rng.uniform(params.t0, params.tc - 1e-6, 50)
        lhs = eval_singularity(params, t)
        rhs = a_coeff + b_coeff * (params.tc - t) ** (-params.alpha)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_peru_values(self, peru_params):
        a_coeff, b_coeff = ab_coefficients(peru_params)
        assert a_coeff == pytest.approx(-14.16, abs=0.15)
        assert b_coeff == pytest.approx(34.0, abs=1.0)


class TestDoublingTime:
    def test_base_value(self):
        params = SingularityParams(tc=10.0, alpha=0.5, c0=0.2, p0=0.0, t0=0.0)
        assert doubling_time(params, 0.0) == pytest.approx(math.log(2.0) / 0.2, rel=1e-15)

    def test_hungary_from_published_ab(self):
        # alpha = 1, B = 2370 (days): tau2(180 days out) = ln2 * 180^2 / 2370.
        tau = doubling_time_from_ab(1.0, 2370.0, 180.0)
        assert tau == pytest.approx(math.log(2.0) * 180.0 ** 2 / 2370.0, rel=1e-15)
        assert tau == pytest.approx(9.5, abs=0.05)

    def test_two_closed_forms_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = SingularityParams(
                tc=rng.uniform(5.0, 50.0) + 100.0,
                alpha=rng.uniform(0.05, 2.0),
                c0=rng.uniform(0.01, 0.5),
                p0=rng.uniform(-2, 2),
                t0=100.0,
            )
            _, b_coeff = ab_coefficients(params)
            t = rng.uniform(params.t0, params.tc - 1e-3)
            lhs = doubling_time(params, t)
            rhs = doubling_time_from_ab(params.alpha, b_coeff, params.tc - t)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_strictly_decreasing_to_zero(self):
        params = SingularityParams(tc=10.0, alpha=0.5, c0=0.2, p0=0.0, t0=0.0)
        t = np.linspace(0.0, 10.0 - 1e-9, 200)
        tau = doubling_time(params, t)
        assert np.all(np.diff(tau) < 0)
        assert tau[-1] < 1e-3

    def test_exact_doubling_near_singularity(self):
        # The formula is asymptotic: valid where tau2 << tc - t.  Pick test
        # points in the final 10% of the domain deep enough that tau2 is at
        # most 1% of the remaining time; there the price really doubles over
        # tau2 within 1%.
        params = SingularityParams(tc=10.0, alpha=0.5, c0=0.2, p0=0.0, t0=0.0)
        span = params.tc - params.t0
        s_max = (0.01 * params.c0 / math.log(2.0)) ** (1.0 / params.alpha) \
            * span ** ((1.0 + params.alpha) / params.alpha)
        assert s_max < 0.1 * span
        for s in (s_max, 0.3 * s_max, 0.1 * s_max):
            t = params.tc - s
            tau = doubling_time(params, t)
            assert tau <= 0.0101 * s
            dp = eval_singularity(params, t + tau) - eval_singularity(params, t)
            assert dp == pytest.approx(math.log(2.0), rel=0.01)

    def test_numeric_doubling_solver_cross_check(self):
        # brentq on p(t + tau) - p(t) = ln 2, far enough in for the
        # asymptotic formula to hold at the percent level.
        params = SingularityParams(tc=10.0, alpha=0.5, c0=0.2, p0=0.0, t0=0.0)
        t = 9.992
        tau_formula = doubling_time(params, t)
        assert tau_formula <= 0.011 * (params.tc - t)
        f = lambda tau: eval_singularity(params, t + tau) - eval_singularity(params, t) - math.log(2.0)
        tau_exact = brentq(f, 1e-12, (params.tc - t) * (1 - 1e-12), xtol=1e-14)
        assert tau_formula == pytest.approx(tau_exact, rel=0.01)

    def test_domain_error_at_tc(self):
        params = SingularityParams(tc=10.0, alpha=0.5, c0=0.2, p0=0.0, t0=0.0)
        with pytest.raises(ModelDomainError):
            doubling_time(params, 10.0)

    def test_the_power_form_within_a_few_ulp(self):
        # As the growth rate: ln 2 / (C0 f ratio) against the
        # (ln 2 / C0) ((tc - t)/(tc - t0)) ** (1 + alpha) it replaced, within
        # 8 ulp (6 measured).
        for preset in PRESETS.values():
            params = preset.params
            t = np.linspace(params.t0, params.tc - 1e-6 * (params.tc - params.t0), 2000)
            frac = (params.tc - t) / (params.tc - params.t0)
            power_form = math.log(2.0) / params.c0 * frac ** (1.0 + params.alpha)
            tau = doubling_time(params, t)
            assert np.all(np.abs(tau - power_form) <= 8.0 * np.spacing(power_form))


# ---------------------------------------------------------------------------
# Critical time and the discrete recursion
# ---------------------------------------------------------------------------

class TestCriticalTime:
    def test_unit_case(self):
        assert critical_time(1.0, 2.0, 1.0, t0=5.0) == 6.0

    def test_ode_oracle(self):
        tc = critical_time(0.1, 1.5, 0.2)
        assert ode_blowup_time(0.1, 1.5, 0.2) == pytest.approx(tc, rel=1e-4)

    def test_degenerate_inputs_rejected(self):
        for bad in [(0.0, 2.0, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 0.0)]:
            with pytest.raises(ModelDomainError):
                critical_time(*bad)


class TestSimulateRecursion:
    def test_zero_feedback_is_constant(self):
        params = RecursionParams(r0=0.07, a=0.0, gamma=1.5, dt=1.0)
        res = simulate_recursion(params, 25)
        assert np.all(res.rates == 0.07)
        assert not res.blew_up

    def test_gamma_one_is_geometric_per_stride(self):
        params = RecursionParams(r0=0.05, a=0.2, gamma=1.0, dt=1.0)
        res = simulate_recursion(params, 12)
        for k, r in enumerate(res.rates):
            assert r == pytest.approx(0.05 * 1.2 ** (k // 2), rel=1e-12)

    def test_nondecreasing_for_positive_feedback(self):
        params = RecursionParams(r0=0.05, a=0.1, gamma=1.7, dt=1.0)
        res = simulate_recursion(params, 60)
        assert np.all(np.diff(res.rates) >= 0)

    def test_blowup_truncates_with_marker(self):
        params = RecursionParams(r0=10.0, a=5.0, gamma=2.5, dt=1.0)
        res = simulate_recursion(params, 500)
        assert res.blew_up
        assert len(res) < 501
        assert np.all(np.isfinite(res.rates))

    def test_continuum_limit_converges_to_ode_blowup(self):
        r0, gamma, a1 = 0.05, 1.7, 0.3
        t_blow = ode_blowup_time(r0, gamma, a1, r_stop=1e12)
        errors = []
        for dt in (0.1, 0.05, 0.025):
            params = RecursionParams.from_continuum(r0=r0, gamma=gamma, a1=a1, dt=dt)
            res = simulate_recursion(params, int(2 * t_blow / dt) + 4)
            k = int(np.argmax(res.rates > 1e3))
            assert res.rates[k] > 1e3
            errors.append(abs(k * dt - t_blow))
        assert errors[0] > errors[1] > errors[2]

    def test_continuum_coefficient_mapping(self):
        params = RecursionParams.from_continuum(r0=0.1, gamma=1.5, a1=0.4, dt=0.25)
        assert params.a == pytest.approx(2 * 0.25 * 0.4, abs=0.0)
        assert params.a1 == pytest.approx(0.4, abs=0.0)


# ---------------------------------------------------------------------------
# Nesting and monotonicity invariants
# ---------------------------------------------------------------------------

def test_singularity_approaches_linear_for_distant_tc():
    c0, p0, t0 = 0.2, 0.5, 0.0
    params = SingularityParams(tc=1e6, alpha=0.5, c0=c0, p0=p0, t0=t0)
    linear = LinearParams(p0=p0, c0=c0, t0=t0)
    t = np.linspace(0.0, 20.0, 50)
    assert np.max(np.abs(eval_singularity(params, t) - eval_linear(linear, t))) < 1e-3


def test_double_exp_first_order_in_b2():
    c0, p0, t0, b2 = 0.2, 0.0, 0.0, 1e-4
    d = DoubleExpParams(p0=p0, c0=c0, b2=b2, t0=t0)
    l = LinearParams(p0=p0, c0=c0, t0=t0)
    t = np.linspace(0.1, 5.0, 25)
    rel = np.abs(eval_double_exp(d, t) - eval_linear(l, t)) / np.abs(eval_linear(l, t) - p0)
    assert np.all(rel <= 10.0 * b2 * (t - t0) ** 2)
