"""End-to-end acceptance checks for the pricing library.

Each test pins one externally stated requirement: a truncation certificate
that bounds the measured series tail and stays within the magnitude of the
published bound table, oracle equivalences, MC agreement, structural option
properties, and runtime budgets.  Tolerances are part of the requirements
and must not be loosened.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import constant_instance, measured_tail, moment_series_terms
from volswap import mc, options, rvdist, swaps
from volswap.model import (
    Schedule,
    SchwartzParams,
    iid_return_moments,
    return_moments,
)

# ---------------------------------------------------------------------------
# Published truncation-bound table: rows are (kappa, K) -> values for
# sigma = 0.05, 0.06, ..., 0.10 at S0=2, mu=0.6, T=1, t1=0, N=252, ell=1/2,
# mu0_bar = nu/2, beta_bar = max alpha_bar, independent-increment weights.
# Every published value is 0.76-0.99 of the measured truncation error
# |sum_{k>K} term_k| of the series it claims to bound (the converged sums
# agree with an independent transform inversion of E[sqrt(RV)] to 1e-12), so
# no valid bound can match it.  It fixes the magnitude a sharp certificate
# must reach: criterion 1 asks for measured tail <= bound <= 1e3 x published.
# ---------------------------------------------------------------------------

REFERENCE_BOUNDS = {
    (0.5, 0): [5.0621e-03, 4.0908e-03, 3.3784e-03, 2.8286e-03, 2.3877e-03, 2.0238e-03],
    (0.5, 1): [2.4812e-06, 1.3472e-06, 7.8533e-07, 4.7996e-07, 3.0264e-07, 1.9458e-07],
    (0.5, 2): [2.3443e-09, 8.5308e-10, 3.4989e-10, 1.5546e-10, 7.2847e-11, 3.5296e-11],
    (0.5, 3): [2.6654e-12, 6.4748e-13, 1.8563e-13, 6.0396e-14, 1.9540e-14, 7.1054e-15],
    (1.5, 0): [2.2769e-02, 1.8416e-02, 1.5221e-02, 1.2749e-02, 1.0760e-02, 9.1092e-03],
    (1.5, 1): [5.0288e-05, 2.7367e-05, 1.5987e-05, 9.7862e-06, 6.1741e-06, 3.9644e-06],
    (1.5, 2): [2.1434e-07, 7.8326e-08, 3.2261e-08, 1.4386e-08, 6.7571e-09, 3.2735e-09],
    (1.5, 3): [1.1008e-09, 2.6957e-10, 7.8065e-11, 2.5270e-11, 8.7965e-12, 3.1957e-12],
    (3.0, 0): [4.8567e-02, 3.9763e-02, 3.3365e-02, 2.8470e-02, 2.4577e-02, 2.1387e-02],
    (3.0, 1): [2.2947e-04, 1.2806e-04, 7.7190e-05, 4.9107e-05, 3.2476e-05, 2.2088e-05],
    (3.0, 2): [2.0955e-06, 7.9627e-07, 3.4435e-07, 1.6308e-07, 8.2467e-08, 4.3744e-08],
    (3.0, 3): [2.3101e-08, 5.9702e-09, 1.8497e-09, 6.5101e-10, 2.5122e-10, 1.0367e-10],
}
SIGMAS_TABLE = (0.05, 0.06, 0.07, 0.08, 0.09, 0.10)

# Relative strike tolerance a default K=3 certificate must meet.
STRIKE_REL_TOL = 1e-6


def _table_moments(kappa, sigma):
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=kappa)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=252)
    return return_moments(params, schedule, independent_increments=True)


def _table_bound(kappa, K, sigma):
    rm = _table_moments(kappa, sigma)
    cfg = rvdist.ExpansionConfig.defaults(rm, k_max=K)
    return rvdist.truncation_bound(rm, cfg, 0.5, K)


def test_criterion_1_reference_bound_table():
    start = time.perf_counter()
    bounds = {
        (kappa, K, sigma): _table_bound(kappa, K, sigma)
        for kappa, K in REFERENCE_BOUNDS
        for sigma in SIGMAS_TABLE
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    # The tail is the sum of the series terms past K (each accurate), not the
    # converged value minus the quote, whose ~1e-13 roundoff exceeds the
    # smallest tails.
    failures = []
    for (kappa, K), published_row in REFERENCE_BOUNDS.items():
        for sigma, published in zip(SIGMAS_TABLE, published_row):
            bound = bounds[(kappa, K, sigma)]
            tail = measured_tail(_table_moments(kappa, sigma), 0.5, K)
            if not tail <= bound <= 1e3 * published:
                failures.append((kappa, K, sigma, tail, bound, published))
    assert not failures, (
        f"{len(failures)}/72 bound cells miss measured tail <= bound <= 1e3 x "
        f"published; first (kappa, K, sigma, tail, bound, published): {failures[:4]}"
    )


def test_criterion_2_k3_bound_ceiling():
    cells = [(kappa, sigma) for kappa in (0.5, 1.5, 3.0) for sigma in SIGMAS_TABLE]
    start = time.perf_counter()
    bounds = [_table_bound(kappa, 3, sigma) for kappa, sigma in cells]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    strikes = [
        float(np.sum(moment_series_terms(_table_moments(kappa, sigma), 0.5, 60)))
        for kappa, sigma in cells
    ]
    worst = max(b / s for b, s in zip(bounds, strikes))
    assert worst <= STRIKE_REL_TOL, (
        f"max K=3 truncation bound over the reference grid is {worst:.4e} of "
        f"E[sqrt(RV)], expected <= {STRIKE_REL_TOL:.0e}"
    )


# ---------------------------------------------------------------------------
# criterion 3: moment identities on random instances
# ---------------------------------------------------------------------------


def test_criterion_3_moment_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n_obs = int(rng.integers(2, 11))
        sigma = float(rng.uniform(0.01, 0.2))
        kappa = float(rng.uniform(0.1, 5.0))
        params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=kappa)
        rm = return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=n_obs))
        cfg = rvdist.ExpansionConfig.defaults(rm, k_max=25)
        co = rvdist.coeffs(rm, cfg)
        a, d = rm.alpha_bar, rm.delta_bar

        m1_ref = float(np.sum(a * (1.0 + d)))
        m2_ref = m1_ref**2 + float(np.sum(2.0 * a**2 * (1.0 + 2.0 * d)))
        for ell, ref in ((1.0, m1_ref), (2.0, m2_ref)):
            got = rvdist.raw_moment(rm, cfg, co, ell).value
            bound = rvdist.truncation_bound(rm, cfg, ell, 25)
            assert abs(got / ref - 1.0) < 1e-8
            # the bound covers series truncation; allow for float roundoff
            # (integer orders terminate, so the certified bound is exactly 0)
            assert abs(got - ref) <= bound + 1e-9 * abs(ref)
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# criterion 4: density normalization and histogram agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_obs,sigma", [(52, 0.08), (52, 0.10), (252, 0.08), (252, 0.10)])
def test_criterion_4_pdf_normalization_and_histogram(n_obs, sigma):
    start = time.perf_counter()
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=0.5)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=n_obs)
    rm = return_moments(params, schedule)
    cfg = rvdist.ExpansionConfig.defaults(rm, k_max=rvdist.DEFAULT_K_PDF)
    co = rvdist.coeffs(rm, cfg)

    upper = stats.gamma(a=rm.nu / 2.0, scale=2.0 * cfg.beta_bar).ppf(1 - 1e-13)
    total, _ = integrate.quad(
        lambda y: rvdist.pdf(rm, cfg, co, y), 1e-12, upper, limit=400
    )
    assert total == pytest.approx(1.0, abs=1e-6)

    n_paths = 100_000
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=n_paths, seed=404))
    dens, edges = np.histogram(samples, bins=100, density=True)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pdf_vals = np.asarray(rvdist.pdf(rm, cfg, co, centers), dtype=float)
    p_bin = np.clip(pdf_vals * widths, 0.0, 1.0)
    se_density = np.sqrt(p_bin * (1.0 - p_bin) / n_paths) / widths
    ok = np.abs(dens - pdf_vals) < 3.0 * np.maximum(se_density, 1e-300)
    assert np.mean(ok) >= 0.95, f"only {np.mean(ok):.2%} of bins within 3 binomial SE"
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# criterion 5: swap strikes vs MC across the sigma / N sweeps
# ---------------------------------------------------------------------------


def _vol_strike(rm):
    """Volatility-swap strike from the half-moment series.

    Evaluated through the arbitrary-precision backend: the drift-dominated
    corner (small sigma, large kappa) needs hundreds of series terms whose
    cancellation exceeds double precision.
    """
    return float(options.LaguerreMoments(rm).moment_hp(0.5, 60))


def _check_instance(params, schedule, rm, seed):
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100_000, seed=seed))
    vol = _vol_strike(rm)
    var = swaps.var_swap_tv(rm).strike
    est_vol = mc.estimate_swap(samples, 0.5)
    est_var = mc.estimate_swap(samples, 1.0)
    assert abs(vol - est_vol.mean) < 3.0 * est_vol.std_error, (
        f"vol strike {vol} vs MC {est_vol.mean} +- {est_vol.std_error} "
        f"(sigma={params.sigma}, kappa={params.kappa}, N={schedule.n_obs})"
    )
    assert abs(var - est_var.mean) < 3.0 * est_var.std_error, (
        f"var strike {var} vs MC {est_var.mean} +- {est_var.std_error} "
        f"(sigma={params.sigma}, kappa={params.kappa}, N={schedule.n_obs})"
    )
    return vol, var


def test_criterion_5_swap_mc_agreement_and_monotonicity():
    start = time.perf_counter()
    seed = 1000
    # sweep over sigma at N = 52
    for kappa in (0.5, 1.5, 3.0):
        vols, vars_ = [], []
        for sigma in np.linspace(0.005, 0.1, 10):
            params = SchwartzParams(s0=2.0, mu=0.6, sigma=float(sigma), kappa=kappa)
            schedule = Schedule(t1=0.0, horizon=1.0, n_obs=52)
            rm = return_moments(params, schedule)
            seed += 1
            vol, var = _check_instance(params, schedule, rm, seed)
            vols.append(vol)
            vars_.append(var)
        assert np.all(np.diff(vols) > 0), f"vol strikes not monotone at kappa={kappa}"
        assert np.all(np.diff(vars_) > 0), f"var strikes not monotone at kappa={kappa}"
    # sweep over the observation count at kappa = 0.5
    for sigma in (0.05, 0.06, 0.07):
        for n_obs in (2, 13, 52, 126, 252):
            params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=0.5)
            schedule = Schedule(t1=0.0, horizon=1.0, n_obs=n_obs)
            rm = return_moments(params, schedule)
            seed += 1
            _check_instance(params, schedule, rm, seed)
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# criterion 6: specialization identities
# ---------------------------------------------------------------------------


def test_criterion_6_specialization_chain_and_jensen():
    start = time.perf_counter()
    for eta, sigma_n, T in [(12, 0.03, 0.75), (51, 0.014, 1.0), (5, 0.08, 2.0)]:
        rm = constant_instance(eta=eta, lambda_bar=1e-14, sigma_n=sigma_n, horizon=T)
        cfg = rvdist.ExpansionConfig.defaults(rm, k_max=25)

        chain_vol = [
            swaps.vol_swap_tv(rm, cfg).strike,
            swaps.vol_swap_const_c(sigma_n**2, eta, T).strike,
            swaps.vol_swap_ncchi(eta, rm.lambda_bar, sigma_n, T).strike,
            swaps.vol_swap_central(eta, sigma_n, T).strike,
        ]
        chain_var = [
            swaps.var_swap_tv(rm, cfg).strike,
            swaps.var_swap_const_c(sigma_n, eta, T).strike,
            swaps.var_swap_ncchi(eta, rm.lambda_bar, sigma_n, T).strike,
            swaps.var_swap_central(eta, sigma_n, T).strike,
        ]
        for chain in (chain_vol, chain_var):
            ref = chain[-1]
            for value in chain:
                assert value == pytest.approx(ref, rel=1e-10)
        assert chain_vol[0] <= math.sqrt(chain_var[0]) * (1.0 + 1e-12)

    # Jensen with genuine drift
    for lam in (0.2, 1.0, 4.0):
        vol = swaps.vol_swap_ncchi(10, lam, 0.05, 1.0).strike
        var = swaps.var_swap_ncchi(10, lam, 0.05, 1.0).strike
        assert vol <= math.sqrt(var)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 7: analytic vegas vs finite differences on an (eta, lambda, sigma) grid
# ---------------------------------------------------------------------------


def _constant_setup(eta, lam, sigma, T=1.0):
    """Constant-regime instance whose sigma_N scales with sigma and whose
    squared interval means are held fixed (lambda ~ 1/sigma^2)."""
    sigma_n = sigma * math.sqrt(T / eta)
    mu_sq = lam * sigma_n**2
    mu_bar = np.full(eta, math.sqrt(mu_sq / eta))
    rm = iid_return_moments(mu_bar, np.full(eta, sigma_n), T)
    return rm, mu_sq


def _bumped(eta, mu_sq, sigma_n0, sigma0, s, T=1.0):
    sn = sigma_n0 * s / sigma0
    return sn, mu_sq / sn**2


def test_criterion_7_vega_grid():
    start = time.perf_counter()
    T = 1.0
    for eta in (10, 26, 51):
        for lam in (0.0, 0.5, 2.0):
            for sigma in (0.05, 0.08, 0.12):
                rm, mu_sq = _constant_setup(eta, lam, sigma, T)
                params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=0.5)
                sn0 = rm.sigma_N

                def vol_strike(s):
                    sn, lam_s = _bumped(eta, mu_sq, sn0, sigma, s)
                    if lam_s > 0:
                        return swaps.vol_swap_ncchi(eta, lam_s, sn, T).strike
                    return swaps.vol_swap_central(eta, sn, T).strike

                def var_strike(s):
                    sn, lam_s = _bumped(eta, mu_sq, sn0, sigma, s)
                    return swaps.var_swap_ncchi(eta, lam_s, sn, T).strike

                h = 1e-5 * sigma
                fd_vol = (vol_strike(sigma + h) - vol_strike(sigma - h)) / (2 * h)
                fd_var = (var_strike(sigma + h) - var_strike(sigma - h)) / (2 * h)
                assert swaps.vega_vol_swap(rm, params) == pytest.approx(fd_vol, rel=1e-4)
                assert swaps.vega_var_swap(rm, params) == pytest.approx(fd_var, rel=1e-4)

                # option vega (variance call struck at the mean)
                nm = options.NcchiMoments(eta, rm.lambda_bar, sn0, sigma, T)
                spec = options.OptionSpec(
                    rho=1.0, strike=options.ncchi_moment(1.0, eta, rm.lambda_bar, sn0, T)
                )
                vega = options.vega_call(spec, nm).value

                def call(s):
                    sn, lam_s = _bumped(eta, mu_sq, sn0, sigma, s)
                    return options.call_price(
                        spec, options.NcchiMoments(eta, lam_s, sn, s, T)
                    ).value

                fd_call = (call(sigma + h) - call(sigma - h)) / (2 * h)
                assert vega == pytest.approx(fd_call, rel=1e-3)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 8: option property suite (variance calls, reference instance)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def option_instance():
    params = SchwartzParams(s0=2.0, mu=1.0, sigma=0.05, kappa=0.5)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=52)
    rm = return_moments(params, schedule)
    lmom = options.LaguerreMoments(rm)
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100_000, seed=12345))
    return rm, lmom, samples


def test_criterion_8_option_properties(option_instance):
    start = time.perf_counter()
    rm, lmom, samples = option_instance
    e_rv = swaps.var_swap_tv(rm, rvdist.ExpansionConfig.defaults(rm, k_max=25)).strike
    discount = 0.95

    strikes = np.linspace(0.25, 2.0, 15) * e_rv
    prices = np.array(
        [
            options.call_price(
                options.OptionSpec(rho=1.0, strike=float(k), discount=discount, k_terms=60),
                lmom,
            ).value
            for k in strikes
        ]
    )
    assert np.all(np.diff(prices) < 0)
    assert np.all(np.diff(prices, 2) > -1e-10 * e_rv)
    lower = np.maximum(discount * (e_rv - strikes), 0.0)
    assert np.all(prices >= lower - 1e-9 * e_rv)
    assert np.all(prices <= discount * e_rv)

    # parameterization robustness
    spec0 = options.OptionSpec(rho=1.0, strike=e_rv, discount=discount)
    spec1 = options.OptionSpec(rho=1.0, strike=e_rv, a=1.0, b=0.5, discount=discount)
    p0 = options.call_price(spec0, lmom).value
    p1 = options.call_price(spec1, lmom, rel_tol=1e-7).value
    assert p1 == pytest.approx(p0, rel=1e-6)

    # MC agreement at three strikes
    for frac in (0.5, 1.0, 1.5):
        strike = frac * e_rv
        price = options.call_price(
            options.OptionSpec(rho=1.0, strike=strike, discount=discount), lmom
        ).value
        est = mc.estimate_call(samples, 1.0, strike, discount)
        assert abs(price - est.mean) < 3.0 * est.std_error
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# criterion 9: analytic quote speed vs MC
# ---------------------------------------------------------------------------


def test_criterion_9_performance():
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=0.08, kappa=1.5)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=252)

    def quote():
        rm = return_moments(params, schedule)
        cfg = rvdist.ExpansionConfig.defaults(rm, k_max=3)
        return swaps.vol_swap_tv(rm, cfg).strike

    quote()  # warm-up (imports, LAPACK dispatch)
    reps = 5
    t0 = time.perf_counter()
    for _ in range(reps):
        quote()
    quote_time = (time.perf_counter() - t0) / reps
    assert quote_time < 0.010, f"analytic quote took {quote_time * 1e3:.2f} ms"

    t0 = time.perf_counter()
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100_000, seed=1))
    mc.estimate_swap(samples, 0.5)
    mc_time = time.perf_counter() - t0
    assert mc_time >= 100.0 * quote_time, (
        f"MC ({mc_time:.3f} s) is only {mc_time / quote_time:.0f}x the "
        f"analytic quote ({quote_time * 1e3:.2f} ms)"
    )
