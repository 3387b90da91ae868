"""Pinned Monte Carlo estimates: a change of draws, step or scale fails here.

The values were recorded from ``simulate_rv`` on 2 streams of 4000 paths.
The other Monte Carlo tests check determinism and statistical agreement
only, which a different (but valid) stream of draws would also pass.
"""

import pytest

from volswap import mc
from volswap.model import Schedule, SchwartzParams

# (s0, sigma, kappa, N, seed): mean and SE of RV, then of sqrt(RV)
PINNED = [
    ((2.0, 0.08, 1.5, 52, 101),
     (64.31342342180653, 0.19974189502898768, 7.981343222451719, 0.012366655989099426)),
    # drift corner: the start sits far from the reversion level in units of
    # the one-step deviation, so the drift dominates RV
    ((2.0, 0.005, 5.0, 52, 202),
     (4.487093360679729, 0.0023818661705444955, 2.11797761608597, 0.0005622487354726687)),
    ((1.8, 0.2, 0.1, 252, 303),
     (399.00647454141745, 0.5581397577375552, 19.955637499933015, 0.013957088817272735)),
]


@pytest.mark.parametrize("case,expected", PINNED, ids=["N52", "drift_N52", "N252"])
def test_pinned_estimates(case, expected):
    s0, sigma, kappa, n_obs, seed = case
    params = SchwartzParams(s0=s0, mu=0.6, sigma=sigma, kappa=kappa)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=n_obs)
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=4000, seed=seed, n_streams=2))
    rv = mc.estimate_swap(samples, 1.0)
    vol = mc.estimate_swap(samples, 0.5)
    got = (rv.mean, rv.std_error, vol.mean, vol.std_error)
    assert got == pytest.approx(expected, rel=1e-13, abs=0)
