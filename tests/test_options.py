import dataclasses
import math
import weakref

import numpy as np
import pytest

from conftest import constant_instance, make_instance
from volswap import mc, options, rvdist, swaps
from volswap.errors import DegenerateExponent, DomainError, InvalidConfig, NoConvergence
from volswap.model import SchwartzParams, Schedule, return_moments
from volswap.options import (
    LaguerreMoments,
    NcchiMoments,
    OptionSpec,
    call_price,
    ncchi_moment,
    ncchi_moment_dsigma,
    vega_call,
)
from volswap.specfun import MP_LOCK


# ---------------------------------------------------------------------------
# shared reference instance: S0=2, mu=1, kappa=0.5, sigma=0.05, N=52, T=1
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ref():
    params = SchwartzParams(s0=2.0, mu=1.0, sigma=0.05, kappa=0.5)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=52)
    rm = return_moments(params, schedule)
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100_000, seed=12345))
    return params, schedule, rm, samples


def _series_moment(rm, ell):
    """E[RV^ell], ell = 1/2 or 1, as the K=25 swap quote reads it: the scale
    the strikes below are set on."""
    quote = swaps.vol_swap_tv if ell == 0.5 else swaps.var_swap_tv
    return quote(rm, rvdist.ExpansionConfig.defaults(rm, k_max=25)).strike


def _h(spec, mp, k):
    """Expansion coefficient h_k in raw (unnormalized) units, formed by the
    pricer's own steps from the moments at max(working dps, 40 + k) digits."""
    import mpmath as mpm

    dps = max(options._working_dps(spec), 40 + k)
    with MP_LOCK, mpm.workdps(dps):
        ingredients = [mp.moment_hp(spec.rho_tau(j), dps) for j in range(k + 1)]
        *_, h_k = options._h_coeffs(options._inner_coeffs(spec, ingredients))
        return float(h_k)


# ---------------------------------------------------------------------------
# OptionSpec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvalidConfig):
        OptionSpec(rho=0.7, strike=1.0)
    with pytest.raises(InvalidConfig):
        OptionSpec(rho=1.0, strike=0.0)
    with pytest.raises(InvalidConfig):
        OptionSpec(rho=1.0, strike=1.0, a=0.0, b=1.0)  # needs a > 2b - 1
    with pytest.raises(InvalidConfig):
        OptionSpec(rho=1.0, strike=1.0, discount=1.5)
    with pytest.raises(InvalidConfig):
        OptionSpec(rho=1.0, strike=1.0, k_terms=0)
    # an infinite strike, a or b would price to "last term nan"
    for kwargs in (dict(strike=math.inf), dict(a=math.inf), dict(b=-math.inf)):
        with pytest.raises(InvalidConfig, match="must be finite"):
            OptionSpec(**(dict(rho=1.0, strike=1.0) | kwargs))
    # a - b = -1 + 2^-53 passes the (a, b) condition, but a - b + 2 rounds to 1
    with pytest.raises(DegenerateExponent, match="rounds to the forbidden value 1"):
        OptionSpec(rho=1.0, strike=1.0, a=math.nextafter(-1.0, 0.0), b=0.0)
    spec = OptionSpec(rho=0.5, strike=2.0, a=1.0, b=0.5)
    assert spec.tau(0) == 2.5
    assert spec.rho_tau(3) == pytest.approx(2.75)


# ---------------------------------------------------------------------------
# constant-regime moments
# ---------------------------------------------------------------------------


def test_ncchi_moment_low_orders():
    eta, lam, sn, T = 7.0, 1.4, 0.03, 1.0
    scale = 100.0**2 * sn**2 / T
    m1 = ncchi_moment(1.0, eta, lam, sn, T)
    m2 = ncchi_moment(2.0, eta, lam, sn, T)
    assert m1 == pytest.approx(scale * (eta + lam), rel=1e-12)
    assert m2 == pytest.approx(
        scale**2 * ((eta + lam) ** 2 + 2.0 * (eta + 2.0 * lam)), rel=1e-12
    )
    with pytest.raises(DomainError):
        ncchi_moment(0.0, eta, lam, sn, T)


def test_ncchi_moment_central_case():
    eta, sn, T = 5.0, 0.02, 2.0
    scale = 100.0**2 * sn**2 / T
    m = ncchi_moment(1.5, eta, 0.0, sn, T)
    ref = scale**1.5 * 2.0**1.5 * math.gamma(1.5 + eta / 2.0) / math.gamma(eta / 2.0)
    assert m == pytest.approx(ref, rel=1e-13)


def test_ncchi_fractional_moment_vs_sampling():
    eta, lam, sn, T = 6.0, 2.0, 0.04, 1.0
    rng = np.random.default_rng(11)
    w = rng.noncentral_chisquare(eta, lam, size=400_000)
    rv = (100.0**2 * sn**2 / T) * w
    vals = rv**2.5
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    m = ncchi_moment(2.5, eta, lam, sn, T)
    assert abs(m - vals.mean()) < 4.0 * se


def test_ncchi_moment_hp_matches_float():
    eta, lam, sn, T = 9.0, 0.8, 0.05, 1.0
    nm = NcchiMoments(eta, lam, sn, sigma=0.05, T=T)
    for ell in (0.5, 1.0, 2.5, 4.0):
        assert float(nm.moment_hp(ell, 40)) == pytest.approx(
            ncchi_moment(ell, eta, lam, sn, T), rel=1e-12
        )


@pytest.mark.parametrize("lam", [0.0, 0.9])
def test_ncchi_moment_dsigma_vs_fd(lam):
    eta, T, sigma = 11.0, 1.0, 0.06
    sn = 0.015
    mu_sq = lam * sn**2  # held fixed under the sigma bump

    def mom(ell, s):
        sn_s = sn * s / sigma
        lam_s = mu_sq / sn_s**2
        return ncchi_moment(ell, eta, lam_s, sn_s, T)

    h = 1e-6
    for ell in (0.5, 1.0, 1.75):
        fd = (mom(ell, sigma + h) - mom(ell, sigma - h)) / (2.0 * h)
        ana = ncchi_moment_dsigma(ell, eta, lam, sn, sigma, T)
        assert ana == pytest.approx(fd, rel=1e-7)
        nm = NcchiMoments(eta, lam, sn, sigma, T)
        assert float(nm.dmoment_dsigma_hp(ell, 40)) == pytest.approx(ana, rel=1e-11)


# ---------------------------------------------------------------------------
# time-varying moment provider
# ---------------------------------------------------------------------------


def test_laguerre_moments_match_rvdist(ref):
    # the provider's lazily continued coefficient list sums to the moment of
    # one fresh rvdist build at the same precision (the provider's dps + 10)
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    cfg = rvdist.ExpansionConfig.defaults(rm)
    c_hp = rvdist.coeffs_hp(rm, cfg, 200, 50)
    for ell in (0.5, 1.0, 2.0):
        value, converged = rvdist.raw_moment_hp(rm, cfg, c_hp, ell, 40)
        assert converged
        assert lm.moment_hp(ell, 40) == value
    with pytest.raises(NotImplementedError):
        lm.dmoment_dsigma_hp(1.0, 40)


def test_laguerre_moment_hp_matches_float(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    cfg = rvdist.ExpansionConfig.defaults(rm, k_max=25)
    co = rvdist.coeffs(rm, cfg)
    for ell in (1.0, 2.0):
        assert float(lm.moment_hp(ell, 40)) == pytest.approx(
            rvdist.raw_moment(rm, cfg, co, ell).value, rel=1e-9
        )


def test_laguerre_moment_hp_matches_cumulants(ref):
    # E[RV] = k1 and E[RV^2] = k1^2 + k2 with k2 = 2 sum alpha^2 (1 + 2 delta)
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    k1 = rm.rv_mean()
    k2 = 2.0 * float(np.sum(rm.alpha_bar**2 * (1.0 + 2.0 * rm.delta_bar)))
    assert float(lm.moment_hp(1.0, 40)) == pytest.approx(k1, rel=1e-14)
    assert float(lm.moment_hp(2.0, 40)) == pytest.approx(k1 * k1 + k2, rel=1e-14)


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------


def test_dufresne_coeff_h0():
    eta, lam, sn, T = 9.0, 0.8, 0.05, 1.0
    nm = NcchiMoments(eta, lam, sn, sigma=0.05, T=T)
    spec = OptionSpec(rho=1.0, strike=10.0)
    # tau_0 = 2: h_0 = E[RV^2] / ((tau_0 - 1) tau_0 Gamma(a+1)) = E[RV^2]/2
    assert _h(spec, nm, 0) == pytest.approx(
        0.5 * ncchi_moment(2.0, eta, lam, sn, T), rel=1e-12
    )


def test_dufresne_coeffs_vs_direct_sum():
    import mpmath as mpm

    eta, lam, sn, T = 9.0, 0.8, 0.05, 1.0
    nm = NcchiMoments(eta, lam, sn, sigma=0.05, T=T)
    spec = OptionSpec(rho=1.0, strike=10.0, a=1.0, b=0.5)
    for k in range(6):
        with mpm.workdps(60):
            ref = mpm.fsum(
                mpm.factorial(k)
                * (-1) ** j
                * nm.moment_hp(spec.rho_tau(j), 60)
                / (
                    mpm.gamma(j + spec.a + 1)
                    * mpm.factorial(j)
                    * mpm.factorial(k - j)
                    * (spec.tau(j) - 1)
                    * spec.tau(j)
                )
                for j in range(k + 1)
            )
        assert _h(spec, nm, k) == pytest.approx(float(ref), rel=1e-10)


# ---------------------------------------------------------------------------
# variance calls (rho = 1)
# ---------------------------------------------------------------------------


def test_var_call_vs_mc(ref):
    _, _, rm, samples = ref
    lm = LaguerreMoments(rm)
    e_rv = _series_moment(rm, 1.0)
    for frac in (0.5, 1.0, 1.5):
        strike = frac * e_rv
        price = call_price(OptionSpec(rho=1.0, strike=strike), lm).value
        est = mc.estimate_call(samples, 1.0, strike)
        assert abs(price - est.mean) < 3.0 * est.std_error


def test_var_call_small_strike_limit(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_rv = _series_moment(rm, 1.0)
    strike = 1e-8 * e_rv
    price = call_price(OptionSpec(rho=1.0, strike=strike, k_terms=60), lm).value
    assert price == pytest.approx(e_rv - strike, rel=1e-10)


def test_var_call_strike_structure(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_rv = _series_moment(rm, 1.0)
    strikes = np.linspace(0.25, 2.0, 15) * e_rv
    prices = np.array(
        [call_price(OptionSpec(rho=1.0, strike=float(k), k_terms=60), lm).value
         for k in strikes]
    )
    assert np.all(np.diff(prices) < 0)
    # convex: second differences on the uniform grid are nonnegative
    assert np.all(np.diff(prices, 2) > -1e-10 * e_rv)
    # no-arbitrage envelope
    lower = np.maximum(e_rv - strikes, 0.0)
    assert np.all(prices >= lower - 1e-9 * e_rv)
    assert np.all(prices <= e_rv)


def test_var_call_ab_robustness(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_rv = _series_moment(rm, 1.0)
    p00 = call_price(OptionSpec(rho=1.0, strike=e_rv), lm).value
    p1h = call_price(OptionSpec(rho=1.0, strike=e_rv, a=1.0, b=0.5), lm, rel_tol=1e-7).value
    assert p1h == pytest.approx(p00, rel=1e-6)


def test_var_call_discount_scales_linearly(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_rv = _series_moment(rm, 1.0)
    p1 = call_price(OptionSpec(rho=1.0, strike=e_rv), lm).value
    p2 = call_price(OptionSpec(rho=1.0, strike=e_rv, discount=0.97), lm).value
    assert p2 == pytest.approx(0.97 * p1, rel=1e-12)


# ---------------------------------------------------------------------------
# volatility calls (rho = 1/2)
# ---------------------------------------------------------------------------


def test_vol_call_vs_mc(ref):
    _, _, rm, samples = ref
    lm = LaguerreMoments(rm)
    e_vol = _series_moment(rm, 0.5)
    for frac in (0.5, 0.9, 1.0, 1.1):
        strike = frac * e_vol
        price = call_price(
            OptionSpec(rho=0.5, strike=strike, k_terms=200), lm, rel_tol=1e-7
        ).value
        est = mc.estimate_call(samples, 0.5, strike)
        assert abs(price - est.mean) < 3.0 * est.std_error


def test_vol_call_small_strike_limit(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_vol = _series_moment(rm, 0.5)
    strike = 1e-6 * e_vol
    price = call_price(
        OptionSpec(rho=0.5, strike=strike, k_terms=300), lm, rel_tol=1e-6
    ).value
    assert price == pytest.approx(e_vol - strike, rel=1e-4)


def test_vol_call_strike_structure(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_vol = _series_moment(rm, 0.5)
    strikes = np.linspace(0.5, 1.3, 9) * e_vol
    prices = np.array(
        [
            call_price(
                OptionSpec(rho=0.5, strike=float(k), k_terms=200), lm, rel_tol=1e-7
            ).value
            for k in strikes
        ]
    )
    assert np.all(np.diff(prices) < 0)
    assert np.all(np.diff(prices, 2) > -1e-6 * e_vol)
    # the stagnation tolerance leaves ~1e-6 relative series error, so the
    # deep-ITM price can sit a hair below intrinsic value
    lower = np.maximum(e_vol - strikes, 0.0)
    assert np.all(prices >= lower - 1e-5 * e_vol)
    assert np.all(prices <= e_vol + 1e-5 * e_vol)


def test_vol_call_ab_robustness(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_vol = _series_moment(rm, 0.5)
    p00 = call_price(
        OptionSpec(rho=0.5, strike=e_vol, k_terms=300), lm, rel_tol=1e-6
    ).value
    p1h = call_price(
        OptionSpec(rho=0.5, strike=e_vol, a=1.0, b=0.5, k_terms=300), lm, rel_tol=1e-6
    ).value
    # the slowly-decaying rho=1/2 series caps the achievable agreement near 1e-5
    assert p1h == pytest.approx(p00, rel=1e-4)


def test_vol_call_no_convergence_at_tiny_series(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_vol = _series_moment(rm, 0.5)
    with pytest.raises(NoConvergence):
        call_price(OptionSpec(rho=0.5, strike=e_vol, k_terms=5), lm)


# ---------------------------------------------------------------------------
# constant-regime agreement between the two moment backends
# ---------------------------------------------------------------------------


def test_regime_agreement_constant_instance():
    rm = constant_instance(eta=20, lambda_bar=0.6, sigma_n=0.02)
    lm = LaguerreMoments(rm)
    nm = NcchiMoments(rm.eta, rm.lambda_bar, rm.sigma_N, sigma=0.02, T=rm.horizon)
    e_rv = ncchi_moment(1.0, nm.eta, nm.lambda_bar, nm.sigma_N, nm.T)
    spec = OptionSpec(rho=1.0, strike=e_rv)
    p_tv = call_price(spec, lm).value
    p_cc = call_price(spec, nm).value
    assert p_tv == pytest.approx(p_cc, rel=1e-6)


# ---------------------------------------------------------------------------
# vega
# ---------------------------------------------------------------------------


def _ncchi_for_sigma(s, eta, mu_sq, sn0, sigma0, T):
    sn = sn0 * s / sigma0
    return NcchiMoments(eta, mu_sq / sn**2, sn, s, T)


def test_vega_var_call_vs_fd():
    eta, T, sigma0, sn0 = 26.0, 1.0, 0.08, 0.016
    mu_sq = 0.9 * sn0**2
    nm = _ncchi_for_sigma(sigma0, eta, mu_sq, sn0, sigma0, T)
    e_rv = ncchi_moment(1.0, nm.eta, nm.lambda_bar, nm.sigma_N, nm.T)
    spec = OptionSpec(rho=1.0, strike=e_rv)
    vega = vega_call(spec, nm).value
    h = 1e-5
    up = call_price(spec, _ncchi_for_sigma(sigma0 + h, eta, mu_sq, sn0, sigma0, T)).value
    dn = call_price(spec, _ncchi_for_sigma(sigma0 - h, eta, mu_sq, sn0, sigma0, T)).value
    fd = (up - dn) / (2.0 * h)
    assert vega == pytest.approx(fd, rel=1e-5)
    assert vega > 0


def test_vega_vol_call_vs_fd():
    eta, T, sigma0, sn0 = 26.0, 1.0, 0.08, 0.016
    mu_sq = 0.9 * sn0**2
    nm = _ncchi_for_sigma(sigma0, eta, mu_sq, sn0, sigma0, T)
    e_vol = ncchi_moment(0.5, nm.eta, nm.lambda_bar, nm.sigma_N, nm.T)
    spec = OptionSpec(rho=0.5, strike=e_vol, k_terms=200)
    vega = vega_call(spec, nm, rel_tol=1e-6).value
    h = 1e-4
    up = call_price(
        spec, _ncchi_for_sigma(sigma0 + h, eta, mu_sq, sn0, sigma0, T), rel_tol=1e-7
    ).value
    dn = call_price(
        spec, _ncchi_for_sigma(sigma0 - h, eta, mu_sq, sn0, sigma0, T), rel_tol=1e-7
    ).value
    fd = (up - dn) / (2.0 * h)
    assert vega == pytest.approx(fd, rel=1e-3)
    assert vega > 0


# ---------------------------------------------------------------------------
# bit-identity pins: values recorded before the integer power sums and the
# reciprocal-factorial convolution, compared with ==
# ---------------------------------------------------------------------------


def _pool_lm(sigma, kappa, n_obs):
    """A fresh LaguerreMoments on an ``option_smile`` pool instance."""
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=kappa)
    return LaguerreMoments(return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=n_obs)))


def test_pinned_var_call_n52():
    lm = _pool_lm(0.096522, 3.344507, 52)
    assert call_price(OptionSpec(rho=1.0, strike=66.65867979246397), lm).value == 26.35730789362892


def test_pinned_n252_moment_and_no_convergence_message():
    # no pool variance call converges at N=252, so the pins there are the
    # fractional moment the pricer consumes and the refusal's text
    lm = _pool_lm(0.064606, 1.12188, 252)
    assert float(lm.moment_hp(0.5, 80)) == 6.458057797624431
    with pytest.raises(NoConvergence) as info:
        call_price(OptionSpec(rho=1.0, strike=48.947896747900934), lm)
    assert str(info.value) == (
        "call_price series not stagnated after 41 terms (last term 2.103e+00); "
        "increase k_terms"
    )


def test_pinned_vol_call(ref):
    _, _, rm, _ = ref
    lm = LaguerreMoments(rm)
    e_vol = _series_moment(rm, 0.5)
    spec = OptionSpec(rho=0.5, strike=e_vol, k_terms=200)
    assert call_price(spec, lm, rel_tol=1e-7).value == 0.1994782751807074


def test_pinned_dufresne_coeff():
    nm = NcchiMoments(9.0, 0.8, 0.05, sigma=0.05, T=1.0)
    spec = OptionSpec(rho=1.0, strike=10.0, a=1.0, b=0.5)
    assert _h(spec, nm, 5) == -928811101518178.0


def test_pinned_vega_call():
    # the strike is ncchi_moment(1.0, ...) as it read when the pin was recorded,
    # 5.8e-13 below the exact E[RV] = 68.864 it returns now
    nm = NcchiMoments(26.0, 0.9, 0.016, sigma=0.08, T=1.0)
    assert vega_call(OptionSpec(rho=1.0, strike=68.86399999999942), nm).value == 953.7344094512137


# the option_smile pool instances behind the pins below, with their strikes:
# twelve variance calls, then three volatility calls
_SMILE_N52 = (0.096522, 3.344507, 52, [
    (1.0, 27.404638613774623), (1.0, 38.253466138024145), (1.0, 46.75835398367834),
    (1.0, 47.94422069854079), (1.0, 66.65867979246397), (1.0, 83.16816796343976),
    (1.0, 106.65388766794234), (1.0, 110.81368575367081), (1.0, 128.88888857161345),
    (1.0, 145.91719343034154), (1.0, 168.18925266885208), (1.0, 183.8186053873909),
    (0.5, 8.250830831123713), (0.5, 10.659119314746725), (0.5, 11.546181819056555),
])
_SMILE_N252 = (0.064606, 1.12188, 252, [
    (1.0, 12.177424325397705), (1.0, 25.959560710147752), (1.0, 27.560093831845528),
    (1.0, 29.315247646762153), (1.0, 30.97010695796925), (1.0, 47.3097531873121),
    (1.0, 48.947896747900934), (1.0, 56.95474129404438), (1.0, 59.871639776929634),
    (1.0, 66.41167720632133), (1.0, 69.29932312562462), (1.0, 76.73783215074745),
    (0.5, 5.429289190462867), (0.5, 7.150361593529779), (0.5, 8.00670005749478),
])


def _price_smile(smile):
    """Each strike's price, or the text of its NoConvergence, on one fresh
    LaguerreMoments."""
    sigma, kappa, n_obs, legs = smile
    lm = _pool_lm(sigma, kappa, n_obs)
    out = []
    for rho, strike in legs:
        try:
            out.append(call_price(OptionSpec(rho=rho, strike=strike), lm).value)
        except NoConvergence as exc:
            out.append(str(exc))
    return lm, out


def _stalled(last):
    return f"call_price series not stagnated after 41 terms (last term {last}); increase k_terms"


def test_pinned_smile_n52():
    # recorded before the strike-independent series was shared across strikes;
    # six prices moved a last bit, each toward the price from the exact
    # spectrum, when the noncentral weights came to be formed directly
    _, out = _price_smile(_SMILE_N52)
    assert out == [
        65.24119865449165, 54.392475034494915, 45.89049987584058, 44.706071022752774,
        26.35730789362892, 12.682682307984615, 2.5260810517272163, 1.766064473351132,
        0.2954711258495388, 0.04019530913149002, 0.002023441857180248, 0.00020030792767618,
        _stalled("5.070e-05"), _stalled("2.252e-06"), _stalled("1.109e-05"),
    ]


def test_pinned_smile_n252_messages():
    _, out = _price_smile(_SMILE_N252)
    assert out == [_stalled(t) for t in (
        "1.289e+24", "3.849e+14", "1.568e+14", "1.434e+13", "7.405e+11", "1.701e+00",
        "2.103e+00", "3.576e-06", "1.112e-08", "1.104e-14", "1.847e-17", "7.089e-25",
        "1.388e-03", "2.265e-05", "4.277e-05",
    )]


def test_smile_work_counts(monkeypatch):
    # One smile does each piece of strike-independent work once: every
    # power-sum order and every coefficient order is formed once however
    # often the list is extended, every moment series is summed once, and
    # the scale and h_k are formed once per key (here one for the variance
    # calls, one for the volatility calls).
    powers, convolutions, h_calls, sums = [], [], [], []
    kernel = rvdist._HpKernel
    power_order, coeff_order = kernel._power_order, kernel._coeff_order

    def counted_power(self):
        powers.append(len(self.d))
        power_order(self)

    def counted_coeff(self):
        convolutions.append(len(self.c))
        coeff_order(self)

    h_coeffs, raw_moment_hp = options._h_coeffs, rvdist.raw_moment_hp

    def counted_h(g):
        h_calls.append(len(g))
        return h_coeffs(g)

    def counted_sum(rm, cfg, c_hp, ell, dps):
        sums.append(ell)
        return raw_moment_hp(rm, cfg, c_hp, ell, dps)

    monkeypatch.setattr(kernel, "_power_order", counted_power)
    monkeypatch.setattr(kernel, "_coeff_order", counted_coeff)
    monkeypatch.setattr(options, "_h_coeffs", counted_h)
    monkeypatch.setattr(rvdist, "raw_moment_hp", counted_sum)
    lm, out = _price_smile(_SMILE_N52)
    k_max = len(lm._c_hp) - 1
    assert k_max > 80  # the volatility moments extended the list
    assert sorted(convolutions) == list(range(1, k_max + 1))
    assert sorted(powers) == list(range(1, k_max + 1))
    assert h_calls == [41, 41]
    assert len(sums) == len(set(sums)) == len(lm._hp_cache)


def test_moment_hp_refuses_at_the_coefficient_cap(monkeypatch):
    monkeypatch.setattr(options, "_HP_K_CAP", 20)
    _, _, rm = make_instance(sigma=0.08, kappa=1.5, n_obs=252)
    with pytest.raises(NoConvergence, match="did not stagnate within 20 coefficients"):
        LaguerreMoments(rm).moment_hp(0.5, 60)


@pytest.mark.parametrize("dps", [40, 60])
def test_moment_hp_refuses_a_sum_past_jensens_bound(dps):
    # here the series stagnates on cancellation noise (-1.2e129 at 40 digits,
    # 2.9e110 at 60), while E[sqrt(RV)] <= sqrt(E[RV]) = 2.118
    _, _, rm = make_instance(sigma=0.005, kappa=5.0, n_obs=52, independent_increments=True)
    with pytest.raises(NoConvergence, match="outside Jensen's bound E\\[RV\\]\\^ell = 2.118"):
        LaguerreMoments(rm).moment_hp(0.5, dps)


@pytest.mark.parametrize("ell,scale,refused", [
    (1.5, 1 - 1e-9, True), (1.5, 1 + 1e-9, False), (0.5, -1.0, True), (1.5, 0.0, True),
])
def test_moment_hp_jensen_bound_sides(monkeypatch, ell, scale, refused):
    # above E[RV]^ell is allowed for ell > 1, below it is not; a moment is never <= 0
    _, _, rm = make_instance(sigma=0.08, kappa=1.5, n_obs=52)
    bound = options.mpm.mpf(rm.rv_mean()) ** ell
    monkeypatch.setattr(rvdist, "raw_moment_hp", lambda *a: (bound * scale, True))
    lm = LaguerreMoments(rm)
    if refused:
        with pytest.raises(NoConvergence, match="outside Jensen's bound"):
            lm.moment_hp(ell, 40)
    else:
        assert lm.moment_hp(ell, 40) == bound * scale


class _SlottedMoments:
    """A provider without a weak reference, so the pricer cannot keep its series."""

    __slots__ = ("_lm",)

    def __init__(self, rm):
        self._lm = LaguerreMoments(rm)

    def moment_hp(self, ell, dps):
        return self._lm.moment_hp(ell, dps)

    def dmoment_dsigma_hp(self, ell, dps):
        return self._lm.dmoment_dsigma_hp(ell, dps)


def test_unreferable_provider_prices_like_a_plain_one():
    _, _, rm = make_instance(sigma=0.08, kappa=1.5, n_obs=52)
    slotted = _SlottedMoments(rm)
    with pytest.raises(TypeError):
        weakref.ref(slotted)
    spec = OptionSpec(rho=1.0, strike=64.0)
    for _ in range(2):  # no series is kept, so the second call rebuilds it
        assert call_price(spec, slotted).value == 5.020198037475088
    assert call_price(spec, LaguerreMoments(rm)).value == 5.020198037475088


def test_ncchi_moments_is_frozen():
    nm = NcchiMoments(9.0, 0.8, 0.05, sigma=0.05, T=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        nm.sigma = 0.06
    assert NcchiMoments(9.0, 0.8, 0.05, 0.05, 1.0) == nm


_REGIME_OK = dict(eta=3.0, lambda_bar=0.5, sigma_N=0.02, T=1.0)
_REGIME_ENTRIES = {
    "NcchiMoments.moment_hp": lambda a: NcchiMoments(sigma=0.05, **a).moment_hp(0.5, 30),
    "NcchiMoments.dmoment_dsigma_hp":
        lambda a: NcchiMoments(sigma=0.05, **a).dmoment_dsigma_hp(0.5, 30),
    "ncchi_moment": lambda a: ncchi_moment(0.5, **a),
    "ncchi_moment_dsigma": lambda a: ncchi_moment_dsigma(0.5, sigma=0.05, **a),
    "vol_swap_ncchi": lambda a: swaps.vol_swap_ncchi(**a).strike,
    "var_swap_ncchi": lambda a: swaps.var_swap_ncchi(**a).strike,
}


@pytest.mark.parametrize("bad", [
    dict(lambda_bar=-0.5), dict(sigma_N=-0.02), dict(sigma_N=0.0), dict(T=0.0),
    dict(eta=-3.0), dict(eta=0.0), dict(T=math.inf), dict(lambda_bar=math.nan),
], ids=lambda bad: "%s=%s" % next(iter(bad.items())))
@pytest.mark.parametrize("entry", _REGIME_ENTRIES)
def test_constant_regime_inputs_refused(entry, bad):
    # the option entries once returned numbers at lambda_bar < 0 and sigma_N < 0,
    # and raised ZeroDivisionError at T = 0 and a bare ValueError at eta < 0
    call = _REGIME_ENTRIES[entry]
    assert math.isfinite(call(_REGIME_OK))
    with pytest.raises(DomainError, match="^constant-regime closed forms require"):
        call(_REGIME_OK | bad)


@pytest.mark.parametrize("sigma", [0.0, -0.05, math.nan])
@pytest.mark.parametrize("entry", ["NcchiMoments.dmoment_dsigma_hp", "ncchi_moment_dsigma"])
def test_constant_regime_vega_sigma_refused(entry, sigma):
    # the regime check does not cover sigma: these once raised ZeroDivisionError
    # at sigma = 0, returned -58.89 at sigma = -0.05 and nan at sigma = nan
    call = {
        "NcchiMoments.dmoment_dsigma_hp":
            lambda s: NcchiMoments(sigma=s, **_REGIME_OK).dmoment_dsigma_hp(0.5, 30),
        "ncchi_moment_dsigma": lambda s: ncchi_moment_dsigma(0.5, sigma=s, **_REGIME_OK),
    }[entry]
    assert math.isfinite(call(0.05))
    with pytest.raises(DomainError, match="^the sigma-derivative requires a finite sigma > 0"):
        call(sigma)
