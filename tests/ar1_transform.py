"""Laplace transform of realized variance from the AR(1) chain, in mpmath.

An oracle for the model's chi-square reduction that shares no code with
volswap.  About its reversion level alpha the log price on the grid is
AR(1): x_i - alpha = phi (x_{i-1} - alpha) + sqrt(q) eps_i, with
phi = e^{-kappa dt} and one-step variance q = sigma^2/(2 kappa)
(1 - e^{-2 kappa dt}).  In units of the innovation, y = (x - alpha)/sqrt(q),
RV = c q sum_i (y_i - y_{i-1})^2 with c = 100^2/T, so

    M(s) = E[e^{-s RV}] = int K^n(y_0, z) dz,

where K(y, z) = exp(-s c q (z - y)^2) N(z; phi y, 1) is the one-step kernel
and K^n its n-fold composition.  Every such kernel is Gaussian,
exp(-[A (z - R y)^2 + G y^2] - f); composing two (first 1, then 2) is one
Gaussian integral over the middle point which, with h = A1 + G2 and
g = h + A2 R2^2, gives

    A = A2 h / g,  R = A1 R1 R2 / h,  G = G1 + A1 R1^2 G2 / h,
    f = f1 + f2 + ln(g/pi)/2,

with no subtraction.  Repeated squaring forms K^n in O(log n)
compositions, and M(s) = sqrt(pi/A) exp(-G y_0^2 - f).  This is the
discrete analogue of the Cameron-Martin formula for quadratic functionals
of Gaussian processes (Cameron & Martin, Bull. AMS 51, 1945).
"""

from __future__ import annotations

import mpmath as mpm


def _compose(k1, k2):
    a1, r1, g1, f1 = k1
    a2, r2, g2, f2 = k2
    h = a1 + g2
    g = h + a2 * r2 * r2
    return a2 * h / g, a1 * r1 * r2 / h, g1 + a1 * r1 * r1 * g2 / h, f1 + f2 + mpm.log(g / mpm.pi) / 2


def one_minus_mgf(sigma, kappa, s0, mu, horizon, n_obs, s_values, dps=30):
    """[1 - M(s) for s in s_values], each an mpf at ``dps`` digits, for the
    model with these (float) inputs observed at n_obs equally spaced times."""
    with mpm.workdps(dps):
        sigma, kappa, horizon = mpm.mpf(sigma), mpm.mpf(kappa), mpm.mpf(horizon)
        dt = horizon / (n_obs - 1)
        phi_m1 = mpm.expm1(-kappa * dt)  # phi - 1
        q = sigma**2 / (2 * kappa) * -mpm.expm1(-2 * kappa * dt)
        alpha = mpm.mpf(mu) - sigma**2 / (2 * kappa)
        y0 = (mpm.log(mpm.mpf(s0)) - alpha) / mpm.sqrt(q)
        out = []
        for s in s_values:
            a = mpm.mpf(s) * 100**2 / horizon * q  # s c q
            # exp(-a (z - y)^2 - (z - phi y)^2/2) / sqrt(2 pi), completed in z
            step = (a + mpm.mpf(1) / 2, (a + (1 + phi_m1) / 2) / (a + mpm.mpf(1) / 2),
                    a * phi_m1**2 / (2 * a + 1), mpm.log(2 * mpm.pi) / 2)
            kernel, n = None, n_obs - 1
            while n:
                if n & 1:
                    kernel = step if kernel is None else _compose(kernel, step)
                n >>= 1
                if n:
                    step = _compose(step, step)
            big_a, _, big_g, f = kernel
            log_m = mpm.log(mpm.pi / big_a) / 2 - big_g * y0**2 - f
            out.append(+(-mpm.expm1(log_m)))
        return out
