import itertools

import mpmath as mpm
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from volswap import rvdist
from volswap.specfun import SeriesResult, laguerre_polys

from conftest import constant_instance


# ---------------------------------------------------------------------------
# terminating 2F1 at unit argument
# ---------------------------------------------------------------------------


def test_2f1_vol_strike_parameters_vs_high_precision():
    # The moment series steps 2F1(-k, p+ell; p; 1) = (-ell)_k/(p)_k by a
    # ratio recurrence.  Checked at nu = 251, the vol-strike ell and one above.
    rm = constant_instance(eta=251)
    p = mpm.mpf(rm.nu) / 2
    for ell in (0.5, 1.5):
        ratios = rvdist._poch_ratios(ell, rm.nu / 2)
        for k, ratio in zip(range(51), ratios):
            with mpm.workdps(50):
                ref = float(mpm.hyp2f1(-k, p + ell, p, 1))
            assert ratio == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------


def _first_laguerre(a, x, count):
    return list(itertools.islice(laguerre_polys(a, x), count))


def test_laguerre_polys_trivials():
    l0, l1 = _first_laguerre(0.7, 3.0, 2)
    assert l0 == 1.0
    assert l1 == pytest.approx(1.7 - 3.0, rel=1e-15)
    # the arithmetic follows the argument: mpmath reals stay mpmath reals
    with mpm.workdps(40):
        a, x = mpm.mpf("0.7"), mpm.mpf(3)
        l5 = _first_laguerre(a, x, 6)[5]
        assert isinstance(l5, mpm.mpf)
        assert abs(l5 - mpm.laguerre(5, a, x)) < mpm.mpf(10) ** -35


def test_laguerre_polys_vs_scipy_grid():
    xs = np.linspace(-5, 5, 50)
    for a in (-0.5, 0.0, 0.5, 2.0):
        # an ndarray argument steps every point at once, with the same numbers
        on_grid = [np.broadcast_to(lag, xs.shape) for lag in _first_laguerre(a, xs, 11)]
        for i, x in enumerate(xs):
            for n, ours in enumerate(_first_laguerre(a, float(x), 11)):
                ref = float(eval_genlaguerre(n, a, x))
                assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))
                assert on_grid[n][i] == ours


def test_series_result_float():
    r = SeriesResult(value=2.5, terms_used=3, last_term=1e-12, converged=True)
    assert float(r) == 2.5
