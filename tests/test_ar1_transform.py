"""The chi-square reduction (alpha_bar, delta_bar) against the AR(1) kernel
oracle of ``ar1_transform``, through the Laplace transform of RV."""

import math

import numpy as np
import pytest
from ar1_transform import one_minus_mgf

from volswap.model import Schedule, SchwartzParams, return_moments

# The sigma/kappa corners of the coverage grid, and kappa values outside it,
# where the spectral solve takes its scalar band-edge steps.
SIGMA_KAPPA = [(0.005, 0.1), (0.005, 5.0), (0.2, 0.1), (0.2, 5.0), (0.05, 1e-3), (0.05, 50.0)]


@pytest.mark.parametrize("drift", [True, False], ids=["drift", "no_drift"])
@pytest.mark.parametrize("n_obs", [2, 3, 52, 252, 5000, 100_000])
@pytest.mark.parametrize("sigma,kappa", SIGMA_KAPPA)
def test_laplace_transform_matches_ar1_oracle(sigma, kappa, n_obs, drift):
    mu = 0.6
    # Without drift the start sits on the reversion level, to rounding.
    s0 = 2.0 if drift else math.exp(SchwartzParams(s0=1.0, mu=mu, sigma=sigma, kappa=kappa).alpha)
    params = SchwartzParams(s0=s0, mu=mu, sigma=sigma, kappa=kappa)
    rm = return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=n_obs))
    s_values = np.exp(np.linspace(-6.0, 8.0, 48)) / rm.rv_mean()

    a, da = rm.alpha_bar, rm.delta_bar * rm.alpha_bar
    got = []
    for s in s_values:
        t = 2.0 * s * a
        log_m = -0.5 * float(np.sum(np.log1p(t))) - s * float(np.sum(da / (1.0 + t)))
        got.append(-math.expm1(log_m))
    ref = [float(v) for v in one_minus_mgf(sigma, kappa, s0, mu, 1.0, n_obs, s_values)]
    assert got == pytest.approx(ref, rel=1e-14, abs=0)
