import math

import mpmath as mpm
import numpy as np
import pytest

from conftest import constant_instance, make_instance
from volswap import rvdist, swaps
from volswap.errors import DomainError, InvalidConfig, RegimeError
from volswap.model import SchwartzParams, iid_return_moments
from volswap.options import ncchi_moment, ncchi_moment_dsigma


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------


def test_var_central_trivial():
    # eta * sigma_N^2 / T * 100^2 = 1 * 0.0001 / 1 * 10000
    assert swaps.var_swap_central(1, 0.01, 1.0).strike == pytest.approx(1.0, rel=1e-15)


def test_vol_const_c_trivial():
    # sqrt(2c/T) Gamma(1)/Gamma(1/2) * 100 = sqrt(2) / sqrt(pi) * 100
    q = swaps.vol_swap_const_c(c=1.0, nu=1.0, T=1.0)
    assert q.strike == pytest.approx(math.sqrt(2.0 / math.pi) * 100.0, rel=1e-14)
    assert q.method is swaps.Method.CONSTANT_C


def test_var_ncchi_trivial():
    # sigma_N^2/T (eta + lambda) 100^2 = 0.0004 * 3.5 * 10000 = 14
    q = swaps.var_swap_ncchi(3, 0.5, 0.02, 1.0)
    assert q.strike == pytest.approx(14.0, rel=1e-15)
    assert q.method is swaps.Method.NCCHI_CLOSED_FORM


def test_vol_central_trivial():
    # sigma_N sqrt(2/T) Gamma(3/2)/Gamma(1) 100 = 0.01*sqrt(2)*sqrt(pi)/2*100
    q = swaps.vol_swap_central(2, 0.01, 1.0)
    assert q.strike == pytest.approx(math.sqrt(2.0) * math.sqrt(math.pi) / 2.0, rel=1e-14)


def test_const_c_domain_errors():
    with pytest.raises(DomainError):
        swaps.vol_swap_const_c(c=0.0, nu=1.0, T=1.0)
    with pytest.raises(DomainError):
        swaps.var_swap_const_c(c=1.0, nu=-1.0, T=1.0)
    # lambda_bar = 0 is the central case of the one closed form, bit for bit
    for eta, sigma_n, T in ((3, 0.02, 1.0), (51.0, 0.02, 1.0), (1.0, 0.3, 0.25),
                            (251, 0.001, 2.0), (4999, 0.001, 1.0)):
        central = swaps.vol_swap_central(eta, sigma_n, T)
        assert swaps.vol_swap_ncchi(eta, 0.0, sigma_n, T).strike == central.strike
        assert central.method is swaps.Method.CENTRAL_CLOSED_FORM


# ---------------------------------------------------------------------------
# four-way equality chain on a degenerate instance
# ---------------------------------------------------------------------------


def test_equality_chain_variance():
    eta, sigma_n, T = 12, 0.03, 0.75
    rm = constant_instance(eta=eta, lambda_bar=1e-14, sigma_n=sigma_n, horizon=T)
    a = swaps.var_swap_tv(rm).strike
    b = swaps.var_swap_const_c(sigma_n, eta, T).strike
    c = swaps.var_swap_ncchi(eta, rm.lambda_bar, sigma_n, T).strike
    d = swaps.var_swap_central(eta, sigma_n, T).strike
    ref = eta * sigma_n**2 / T * 100.0**2
    for val in (a, b, c, d):
        assert val == pytest.approx(ref, rel=1e-10)


def test_equality_chain_volatility():
    eta, sigma_n, T = 12, 0.03, 0.75
    rm = constant_instance(eta=eta, lambda_bar=1e-14, sigma_n=sigma_n, horizon=T)
    cfg = rvdist.ExpansionConfig.defaults(rm, k_max=25)
    a = swaps.vol_swap_tv(rm, cfg).strike
    b = swaps.vol_swap_const_c(sigma_n**2, eta, T).strike
    c = swaps.vol_swap_ncchi(eta, rm.lambda_bar, sigma_n, T).strike
    d = swaps.vol_swap_central(eta, sigma_n, T).strike
    assert b == pytest.approx(d, rel=1e-14)
    assert c == pytest.approx(d, rel=1e-10)
    assert a == pytest.approx(d, rel=1e-10)


def test_jensen_inequality():
    # E[sqrt(RV)]^2 <= E[RV], strictly when RV is non-degenerate
    for lam in (0.1, 1.0, 5.0):
        vol = swaps.vol_swap_ncchi(10, lam, 0.05, 1.0).strike
        var = swaps.var_swap_ncchi(10, lam, 0.05, 1.0).strike
        assert vol**2 < var


# ---------------------------------------------------------------------------
# ncchi strike vs direct sampling
# ---------------------------------------------------------------------------


def test_vol_ncchi_vs_sampling():
    eta, lam, sigma_n, T = 6, 1.3, 0.04, 1.0
    rng = np.random.default_rng(7)
    draws = rng.noncentral_chisquare(eta, lam, size=400_000)
    rv = sigma_n**2 / T * draws * 100.0**2
    sample = np.sqrt(rv)
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    strike = swaps.vol_swap_ncchi(eta, lam, sigma_n, T).strike
    assert abs(strike - sample.mean()) < 3.0 * se


# ---------------------------------------------------------------------------
# monotonicity in sigma
# ---------------------------------------------------------------------------


def test_strikes_monotone_in_sigma():
    # below sigma ~ 0.03 the drift dominates and the series needs far more
    # terms, so the sweep starts where k_max = 25 is certified-accurate
    sigmas = np.linspace(0.03, 0.15, 20)
    vols, vars_ = [], []
    for s in sigmas:
        _, _, rm = make_instance(sigma=float(s), kappa=1.5, n_obs=13)
        vols.append(swaps.vol_swap_tv(rm, _cfg25(rm)).strike)
        vars_.append(swaps.var_swap_tv(rm).strike)
    assert np.all(np.diff(vols) > 0)
    assert np.all(np.diff(vars_) > 0)


# ---------------------------------------------------------------------------
# analytic vegas vs finite differences
# ---------------------------------------------------------------------------


def _constant_rm_for_sigma(sigma, eta, mu_incr, T):
    """Constant-regime moments whose sigma_N scales with sigma while the
    per-interval means stay fixed (the dependence the analytic vega assumes)."""
    sigma_n = sigma * math.sqrt(T / eta)
    mu_bar = np.full(eta, mu_incr)
    sigma_bar = np.full(eta, sigma_n)
    return iid_return_moments(mu_bar, sigma_bar, T)


@pytest.mark.parametrize("mu_incr", [0.0, 0.004, 0.02])
def test_vega_vol_swap_fd(mu_incr):
    eta, T, sigma = 26, 1.0, 0.08
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=0.5)
    rm = _constant_rm_for_sigma(sigma, eta, mu_incr, T)
    vega = swaps.vega_vol_swap(rm, params)
    h = 1e-5

    def strike(s):
        r = _constant_rm_for_sigma(s, eta, mu_incr, T)
        if r.lambda_bar > 0:
            return swaps.vol_swap_ncchi(eta, r.lambda_bar, r.sigma_N, T).strike
        return swaps.vol_swap_central(eta, r.sigma_N, T).strike

    fd = (strike(sigma + h) - strike(sigma - h)) / (2.0 * h)
    assert vega == pytest.approx(fd, rel=1e-4)
    assert vega > 0


def _cfg25(rm):
    return rvdist.ExpansionConfig.defaults(rm, k_max=25)


@pytest.mark.parametrize("mu_incr", [0.0, 0.004, 0.02])
def test_vega_var_swap_fd(mu_incr):
    eta, T, sigma = 26, 1.0, 0.08
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=0.5)
    rm = _constant_rm_for_sigma(sigma, eta, mu_incr, T)
    vega = swaps.vega_var_swap(rm, params)
    h = 1e-6
    up = swaps.var_swap_tv(_constant_rm_for_sigma(sigma + h, eta, mu_incr, T)).strike
    dn = swaps.var_swap_tv(_constant_rm_for_sigma(sigma - h, eta, mu_incr, T)).strike
    fd = (up - dn) / (2.0 * h)
    assert vega == pytest.approx(fd, rel=1e-6)


def test_vega_var_swap_independent_of_lambda():
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=0.08, kappa=0.5)
    v0 = swaps.vega_var_swap(constant_instance(eta=10, lambda_bar=1e-12), params)
    v1 = swaps.vega_var_swap(constant_instance(eta=10, lambda_bar=2.0), params)
    assert v0 == pytest.approx(v1, rel=1e-14)


def test_vega_requires_constant_regime():
    params, _, rm = make_instance(sigma=0.1, kappa=0.5, n_obs=52)
    with pytest.raises(RegimeError):
        swaps.vega_vol_swap(rm, params)
    with pytest.raises(RegimeError):
        swaps.vega_var_swap(rm, params)


# ---------------------------------------------------------------------------
# configuration guards and quote metadata
# ---------------------------------------------------------------------------


def test_tv_requires_beta_above_half_max_alpha(example_instance):
    _, _, rm = example_instance
    cfg = rvdist.ExpansionConfig(beta_bar=0.25 * float(np.max(rm.alpha_bar)), k_max=3)
    with pytest.raises(InvalidConfig):
        swaps.var_swap_tv(rm, cfg)


def test_default_quote_carries_error_bound(example_instance):
    _, _, rm = example_instance
    q = swaps.vol_swap_tv(rm)
    assert q.method is swaps.Method.LAGUERRE_SERIES
    assert q.terms_used >= 1
    assert q.error_bound is not None and q.error_bound >= 0.0

    qv = swaps.var_swap_tv(rm)
    # integer moment: the series terminates and its certified tail vanishes
    assert qv.error_bound == 0.0


def test_zero_zeta_quote_bound_covers_closed_form():
    # equal weights make zeta = 0, but with drift the K=3 series is still
    # truncated: its certificate must cover the gap to the closed form
    rm = constant_instance(eta=6, lambda_bar=5.0, sigma_n=0.03)
    q = swaps.vol_swap_tv(rm)
    exact = swaps.vol_swap_ncchi(rm.eta, rm.lambda_bar, rm.sigma_N, rm.horizon).strike
    assert abs(q.strike - exact) > 0.01
    assert q.error_bound >= abs(q.strike - exact)


# ---------------------------------------------------------------------------
# constant-regime closed forms against 60 digits
# ---------------------------------------------------------------------------


def _grid(size=400, seed=0):
    """(eta, lambda_bar, sigma_N, T, sigma) over the constant-regime range:
    lambda_bar log-uniform on [1e-6, 3e4], sigma_N uniform on [3e-4, 0.1]."""
    rng = np.random.default_rng(seed)
    etas = rng.choice([1, 2, 3, 11, 51, 251, 999, 4999], size)
    lams = 10.0 ** rng.uniform(-6.0, math.log10(3e4), size)
    sns = rng.uniform(3e-4, 0.1, size)
    Ts = rng.choice([0.25, 1.0, 2.0], size)
    sigmas = rng.uniform(0.01, 0.5, size)
    return [tuple(map(float, p)) for p in zip(etas, lams, sns, Ts, sigmas)]


def _mp_moment_and_dsigma(ell, eta, lam, sn, T, sigma):
    """E[RV^ell] and its sigma-derivative at 60 digits, through the Kummer
    transform 1F1(-ell; eta/2; -lambda/2) of the library's
    e^{-lambda/2} 1F1(ell+eta/2; eta/2; lambda/2): with
    C = scaling^ell 2^ell Gamma(ell+eta/2)/Gamma(eta/2), scaling ~ sigma^2 and
    lambda ~ 1/sigma^2, d/dsigma = (2 ell/sigma) C 1F1(-ell; eta/2; -lambda/2)
    - C (2 ell/eta) (lambda/sigma) 1F1(1-ell; eta/2+1; -lambda/2)."""
    with mpm.workdps(60):
        ell, eta, lam, sn, T, sigma = map(mpm.mpf, (ell, eta, lam, sn, T, sigma))
        c = (10000 * sn**2 / T) ** ell * 2**ell * mpm.gamma(ell + eta / 2) / mpm.gamma(eta / 2)
        mom = c * mpm.hyp1f1(-ell, eta / 2, -lam / 2)
        dmom = 2 * ell / sigma * mom - c * 2 * ell / eta * lam / sigma * mpm.hyp1f1(
            1 - ell, eta / 2 + 1, -lam / 2
        )
        return float(mom), float(dmom)


def _ulps(value, ref, scale=None):
    assert math.isfinite(value)
    return abs(value - ref) / math.ulp(ref if scale is None else scale)


def test_constant_regime_strikes_and_moments_within_two_ulps():
    for eta, lam, sn, T, _ in _grid():
        ref, _ = _mp_moment_and_dsigma(0.5, eta, lam, sn, T, 1.0)
        assert _ulps(swaps.vol_swap_ncchi(eta, lam, sn, T).strike, ref) <= 2
        central, _ = _mp_moment_and_dsigma(0.5, eta, 0.0, sn, T, 1.0)
        assert _ulps(swaps.vol_swap_central(eta, sn, T).strike, central) <= 2
        for ell in (0.5, 1.0, 2.5):
            ref, _ = _mp_moment_and_dsigma(ell, eta, lam, sn, T, 1.0)
            assert _ulps(ncchi_moment(ell, eta, lam, sn, T), ref) <= 2


def test_constant_regime_vegas_within_two_ulps_of_strike_over_sigma():
    # At eta = 1 and large lambda_bar the derivative cancels to about
    # e^{-lambda_bar/2} of its terms, so the error is measured against the
    # derivative's scale 2 ell E[RV^ell]/sigma (strike/sigma at ell = 1/2).
    for eta, lam, sn, T, sigma in _grid():
        for ell in (0.5, 1.0, 2.5):
            mom, ref = _mp_moment_and_dsigma(ell, eta, lam, sn, T, sigma)
            value = ncchi_moment_dsigma(ell, eta, lam, sn, sigma, T)
            assert _ulps(value, ref, 2 * ell * mom / sigma) <= 2
        rm = constant_instance(eta=int(eta), lambda_bar=lam, sigma_n=sn, horizon=T)
        params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=0.5)
        mom, ref = _mp_moment_and_dsigma(0.5, rm.eta, rm.lambda_bar, rm.sigma_N, T, sigma)
        assert _ulps(swaps.vega_vol_swap(rm, params), ref, mom / sigma) <= 2
