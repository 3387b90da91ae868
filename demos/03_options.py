"""
Calls on realized variance and realized volatility
==================================================

Prices European calls on RV (rho = 1) and on sqrt(RV) (rho = 1/2) through
a Laguerre expansion whose coefficients are finite combinations of
fractional RV moments, then sanity-checks the prices against Monte Carlo
and no-arbitrage bounds, and computes an analytic vega in the
constant-per-interval-volatility regime.

Run:  python3 demos/03_options.py
"""

import numpy as np

from volswap import mc, options, rvdist, swaps
from volswap.model import Schedule, SchwartzParams, return_moments

params = SchwartzParams(s0=2.0, mu=1.0, sigma=0.05, kappa=0.5)
schedule = Schedule(t1=0.0, horizon=1.0, n_obs=52)
rm = return_moments(params, schedule)

# the moment provider feeds E[RV^ell], in arbitrary precision, to the option
# expansion; here the general time-varying backend.  The strikes are set on
# the swap strikes E[RV] and E[sqrt(RV)] of a 25-term series.
lmom = options.LaguerreMoments(rm)
cfg = rvdist.ExpansionConfig.defaults(rm, k_max=25)
e_rv = swaps.var_swap_tv(rm, cfg).strike
e_vol = swaps.vol_swap_tv(rm, cfg).strike
print(f"E[RV]       = {e_rv:.4f} variance points")
print(f"E[sqrt(RV)] = {e_vol:.4f} volatility points")

samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100_000, seed=12345))

# --- variance calls across strikes ------------------------------------------
print("\nvariance calls (rho = 1)")
print("K/E[RV]   price      MC price   MC se      intrinsic")
for frac in (0.5, 0.8, 1.0, 1.2, 1.5):
    strike = frac * e_rv
    price = options.call_price(options.OptionSpec(rho=1.0, strike=strike), lmom).value
    est = mc.estimate_call(samples, 1.0, strike)
    print(f"{frac:5.2f}   {price:9.4f}   {est.mean:8.4f}   {est.std_error:8.4f}"
          f"   {max(e_rv - strike, 0.0):9.4f}")

# --- volatility calls (slower-decaying series: more terms, looser target) ----
print("\nvolatility calls (rho = 1/2)")
print("K/E[vol]  price      MC price   MC se")
for frac in (0.8, 1.0, 1.1):
    strike = frac * e_vol
    price = options.call_price(
        options.OptionSpec(rho=0.5, strike=strike, k_terms=200), lmom, rel_tol=1e-7
    ).value
    est = mc.estimate_call(samples, 0.5, strike)
    print(f"{frac:5.2f}   {price:9.5f}   {est.mean:8.5f}   {est.std_error:8.5f}")

# --- analytic vega in the constant-volatility regime -------------------------
# when every interval shares one variance, RV is a single scaled noncentral
# chi-square and moment derivatives in sigma are closed-form
eta, lam, sigma, T = 26, 0.9, 0.08, 1.0
sigma_n = sigma * np.sqrt(T / eta)
nm = options.NcchiMoments(eta, lam, sigma_n, sigma, T)
spec = options.OptionSpec(rho=1.0, strike=options.ncchi_moment(1.0, eta, lam, sigma_n, T))
price = options.call_price(spec, nm).value
vega = options.vega_call(spec, nm).value
print(f"\nconstant-regime ATM variance call: price = {price:.4f}, "
      f"vega = {vega:.4f} per unit sigma")
