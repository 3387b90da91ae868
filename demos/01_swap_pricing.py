"""
Volatility- and variance-swap fair strikes
==========================================

Prices discretely-sampled swaps on the realized variance of a
mean-reverting (log-OU) commodity price, then cross-checks the analytic
strikes against a Monte Carlo estimate built on the exact Gaussian
transition of the log price.

Run:  python3 demos/01_swap_pricing.py
"""

import numpy as np

from volswap import mc, rvdist, swaps
from volswap.model import Schedule, SchwartzParams, return_moments

# --- model and sampling grid ------------------------------------------------
# S0: spot, mu: long-run log level, sigma: instantaneous vol, kappa: reversion
params = SchwartzParams(s0=2.0, mu=0.6, sigma=0.08, kappa=1.5)

# weekly sampling over one year: N observations => nu = N - 1 squared returns
schedule = Schedule(t1=0.0, horizon=1.0, n_obs=52)

# the distribution of realized variance is a weighted sum of noncentral
# chi-squares; return_moments computes the exact weights and noncentralities
rm = return_moments(params, schedule)

print("chi-square components:", rm.nu)
print("E[RV] (variance points):", rm.rv_mean())

# --- analytic strikes -------------------------------------------------------
# the volatility strike is the fractional moment E[sqrt(RV)], evaluated by a
# Laguerre-type series; the quote carries a certified truncation-error bound
cfg = rvdist.ExpansionConfig.defaults(rm, k_max=25)
vol = swaps.vol_swap_tv(rm, cfg)
var = swaps.var_swap_tv(rm)

print(f"\nvol swap strike : {vol.strike:.6f}  "
      f"(terms={vol.terms_used}, certified error <= {vol.error_bound:.2e})")
print(f"var swap strike : {var.strike:.6f}")
print(f"Jensen gap      : {var.strike - vol.strike**2:.6f}  (always >= 0)")

# --- Monte Carlo cross-check ------------------------------------------------
samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100_000, seed=7))
est_vol = mc.estimate_swap(samples, rho=0.5)
est_var = mc.estimate_swap(samples, rho=1.0)

print(f"\nMC vol strike   : {est_vol.mean:.6f} +- {est_vol.std_error:.6f}"
      f"   (z = {(vol.strike - est_vol.mean) / est_vol.std_error:+.2f})")
print(f"MC var strike   : {est_var.mean:.6f} +- {est_var.std_error:.6f}"
      f"   (z = {(var.strike - est_var.mean) / est_var.std_error:+.2f})")

# --- strike term structure in sigma -----------------------------------------
print("\nsigma    vol strike   var strike")
for sigma in np.linspace(0.04, 0.12, 5):
    p = SchwartzParams(s0=2.0, mu=0.6, sigma=float(sigma), kappa=1.5)
    r = return_moments(p, schedule)
    c = rvdist.ExpansionConfig.defaults(r, k_max=25)
    print(f"{sigma:.3f}   {swaps.vol_swap_tv(r, c).strike:10.6f}"
          f"   {swaps.var_swap_tv(r).strike:10.6f}")
