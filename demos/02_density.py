"""
The realized-variance density
=============================

Realized variance here is a weighted sum of independent noncentral
chi-squares, and its density is evaluated through a Laguerre-type series
around a Gamma envelope.  This script tabulates the density for several
sampling frequencies, verifies it integrates to one, and compares it with
a Monte Carlo histogram.

Run:  python3 demos/02_density.py
"""

import numpy as np
from scipy import integrate, stats

from volswap import mc, rvdist
from volswap.model import Schedule, SchwartzParams, return_moments

KAPPA, SIGMA = 0.5, 0.1

# --- density across sampling frequencies ------------------------------------
# fewer observations => fewer chi-square components => heavier, more skewed
print("N    mean(RV)   mode-ish y*   f(y*)")
for n_obs in (2, 5, 10, 22, 52):
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=SIGMA, kappa=KAPPA)
    rm = return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=n_obs))
    cfg = rvdist.ExpansionConfig.defaults(rm, k_max=rvdist.DEFAULT_K_PDF)
    co = rvdist.coeffs(rm, cfg)
    mean = rm.rv_mean()
    grid = np.linspace(mean / 50.0, 3.0 * mean, 400)
    dens = np.asarray(rvdist.pdf(rm, cfg, co, grid))
    y_star = float(grid[np.argmax(dens)])
    print(f"{n_obs:<4d} {mean:9.4f}   {y_star:10.4f}   {dens.max():8.5f}")

# --- normalization check ----------------------------------------------------
params = SchwartzParams(s0=2.0, mu=0.6, sigma=SIGMA, kappa=KAPPA)
rm = return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=52))
cfg = rvdist.ExpansionConfig.defaults(rm, k_max=rvdist.DEFAULT_K_PDF)
co = rvdist.coeffs(rm, cfg)
upper = stats.gamma(a=rm.nu / 2.0, scale=2.0 * cfg.beta_bar).ppf(1 - 1e-13)
area, _ = integrate.quad(lambda y: rvdist.pdf(rm, cfg, co, y), 1e-12, upper, limit=400)
print(f"\nintegral of the N=52 density: {area:.9f}  (should be 1)")

# --- agreement with a Monte Carlo histogram ---------------------------------
schedule = Schedule(t1=0.0, horizon=1.0, n_obs=52)
samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100_000, seed=11))
dens_mc, edges = np.histogram(samples, bins=25, density=True)
centers = 0.5 * (edges[:-1] + edges[1:])
dens_series = np.asarray(rvdist.pdf(rm, cfg, co, centers))

print("\nbin center   MC density   series density")
for c, d_mc, d_s in list(zip(centers, dens_mc, dens_series))[::5]:
    print(f"{c:10.3f}   {d_mc:10.6f}   {d_s:14.6f}")
