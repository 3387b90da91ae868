"""Mean-reverting commodity model, observation schedule and log-return moments.

The spot price follows ``dS/S = kappa*(mu - ln S) dt + sigma dW`` so the log
price ``X = ln S`` is an Ornstein-Uhlenbeck process reverting to
``alpha = mu - sigma^2/(2*kappa)`` at speed ``kappa``.  Realized variance over
a uniform observation grid is the annualized sum of squared log returns scaled
by 100^2 -- a quadratic form in a Gaussian vector, hence distributed as a
weighted sum of independent noncentral chi-squares with one degree of freedom.

Mean reversion makes consecutive log returns negatively correlated, so the
exact weights are the eigenvalues of the return covariance matrix (with
noncentralities from the rotated means), not the per-interval variances.
``return_moments`` computes the exact spectral weights by default; passing
``independent_increments=True`` ignores the cross-correlations and uses the
per-interval variances directly, which treats the returns as independent and
only matches the true distribution through its mean.

No n x n matrix is ever formed, and no eigensolver runs.  The log price is
Markov, so the inverse of its grid covariance is tridiagonal, and after a
diagonal scaling it is Toeplitz except in its last row and column.  Its
eigenvectors are sinusoids and its eigenvalues solve a secular equation with
exactly one root in each of n known brackets (Kulkarni, Schmidt & Tsui,
Linear Algebra Appl. 297, 1999; Yueh, Appl. Math. E-Notes 5, 2005), so the
chi-square weights and the noncentral weights alpha_bar_i delta_bar_i (from
which delta_bar is derived) cost O(1) each, O(n) in total, and the noncentral
sums of the series coefficients (``ReturnMoments.mean_forms``) read them.
One Newton sweep finds the roots; a rule on the local curvature sends the few
it leaves short of an ulp through further steps of their own
(``_spectral_parts``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateInterval, DomainError

__all__ = [
    "SchwartzParams",
    "Schedule",
    "ReturnMoments",
    "ou_variance",
    "return_moments",
    "iid_return_moments",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SchwartzParams:
    """Risk-neutral model parameters.

    Attributes
    ----------
    s0 : float
        Spot price at the start of the observation window (> 0).
    mu : float
        Long-run log-price level.
    sigma : float
        Price volatility per square-root year (> 0).
    kappa : float
        Mean-reversion speed per year (> 0).

    All four must be finite.
    """

    s0: float
    mu: float
    sigma: float
    kappa: float

    def __post_init__(self) -> None:
        for name in ("s0", "mu", "sigma", "kappa"):
            _require_finite(name, getattr(self, name))
        if not self.s0 > 0:
            raise DomainError(f"s0 must be > 0, got {self.s0}")
        if not self.sigma > 0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if not self.kappa > 0:
            raise DomainError(
                f"kappa must be > 0, got {self.kappa}; the kappa -> 0 "
                "(arithmetic Brownian) limit is not supported"
            )

    @property
    def alpha(self) -> float:
        """Reversion level of the log price: mu - sigma^2/(2*kappa)."""
        return self.mu - self.sigma**2 / (2.0 * self.kappa)

    @property
    def x0(self) -> float:
        """Initial log price ln(s0)."""
        return math.log(self.s0)


@dataclass(frozen=True)
class Schedule:
    """Uniform observation grid t_i = t1 + (i-1)*dt, i = 1..n_obs.

    ``horizon`` is the length T of the window, so the last observation falls
    at ``t1 + horizon`` and ``dt = horizon/(n_obs-1)``.  Both ``t1`` and
    ``horizon`` must be finite.  The log price is known at t1 and every law
    depends only on ``dt`` and ``n_obs``, so ``t1`` is recorded but moves no
    number.
    """

    t1: float
    horizon: float
    n_obs: int

    def __post_init__(self) -> None:
        _require_finite("t1", self.t1)
        _require_finite("horizon", self.horizon)
        if self.t1 < 0:
            raise DomainError(f"t1 must be >= 0, got {self.t1}")
        if not self.horizon > 0:
            raise DomainError(f"horizon must be > 0, got {self.horizon}")
        if int(self.n_obs) != self.n_obs or self.n_obs < 2:
            raise DomainError(f"n_obs must be an integer >= 2, got {self.n_obs}")

    @property
    def dt(self) -> float:
        return self.horizon / (self.n_obs - 1)


@dataclass(frozen=True)
class ReturnMoments:
    """Chi-square representation of realized variance, plus reductions.

    Realized variance is RV = sum_i alpha_bar_i * Y_i with independent
    Y_i ~ chi2_1(delta_bar_i).  The weights come either from the exact
    spectral decomposition of the return covariance or from the
    per-interval variances under the independence idealization; downstream
    code never needs to know which.

    Attributes
    ----------
    mu_bar, var_bar : ndarray
        Mean and variance of each log return ln(S_{t_i}/S_{t_{i-1}})
        (per-interval statistics, kept for the constant-regime reductions
        and reporting).
    alpha_bar : ndarray
        Chi-square weights, in annualized variance points (x 100^2/T),
        largest first for spectral instances.
    delta_alpha : ndarray
        Noncentral weights b_i = alpha_bar_i delta_bar_i, which every
        double-precision reader reads: w = 100^2/T times the squared
        projections of ``mu_bar`` on the eigenvectors (w mu_bar_i^2 for
        independent returns), so they sum to w mu_bar^T mu_bar.
    delta_bar : ndarray
        Noncentralities b_i/alpha_bar_i (0 where alpha_bar_i = 0), derived.
    nu : int
        Degrees of freedom N-1; the read-only ``eta`` is the same number
        under the name of the constant-regime reduction.
    lambda_bar : float
        Constant-regime noncentrality sum(mu_bar^2)/sigma_N^2.
    sigma_N : float
        Representative volatility: sigma_bar of the last interval.
    horizon : float
        Window length T (carried along for annualization downstream).
    """

    mu_bar: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)
    var_bar: np.ndarray = field(repr=False)
    delta_alpha: np.ndarray = field(repr=False)
    nu: int = 0
    lambda_bar: float = 0.0
    sigma_N: float = 0.0
    horizon: float = 1.0

    @property
    def delta_bar(self) -> np.ndarray:
        a = self.alpha_bar
        return np.divide(self.delta_alpha, a, out=np.zeros_like(a), where=a != 0.0)

    @property
    def eta(self) -> int:
        return self.nu

    @cached_property
    def _alpha_range(self) -> tuple[float, float]:
        """(min, max) of alpha_bar, which every series quote reads."""
        return float(np.min(self.alpha_bar)), float(np.max(self.alpha_bar))

    def is_constant_regime(self) -> bool:
        """True when every chi-square weight is within 1e-9 relative of the
        last one, so RV reduces to a single noncentral chi-square with eta
        degrees of freedom.  The rounded difference a_i - a_last rises with
        a_i, so the extreme weights decide it in O(1)."""
        lo, hi = self._alpha_range
        a = float(self.alpha_bar[-1])
        tol = 1e-9 * abs(a)
        return hi - a <= tol and a - lo <= tol

    def rv_mean(self) -> float:
        """E[RV] = sum_i alpha_bar_i (1 + delta_bar_i); the noncentral part is
        w mu_bar^T mu_bar, w = 100^2/T, by the rotation invariance of the norm."""
        w = 100.0**2 / self.horizon
        return float(np.sum(self.alpha_bar)) + w * float(self.mu_bar @ self.mu_bar)

    def mean_forms(self, count: int, beta_bar: float) -> np.ndarray:
        """The sums U_m = sum_i b_i xi_i^m of the noncentral weights b for
        m = 0..count-1, with xi_i = 1 - alpha_bar_i/beta_bar, in count*n flops."""
        xi = 1 - self.alpha_bar / beta_bar if count > 1 else None
        out = np.empty(max(count, 0))
        v = self.delta_alpha
        for m in range(count):
            if m:
                v = v * xi
            out[m] = float(np.sum(v))
        return out


def ou_variance(params: SchwartzParams, t: float) -> float:
    """Conditional variance of X_t given X_0: sigma^2/(2 kappa) (1-e^{-2 kappa t})."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return params.sigma**2 / (2.0 * params.kappa) * (-math.expm1(-2.0 * params.kappa * t))


def _one_step_variance(params: SchwartzParams, dt: float) -> float:
    """q = ``ou_variance(params, dt)``, refused unless a normal positive float."""
    q = ou_variance(params, dt)
    if not sys.float_info.min <= q < math.inf:
        raise DomainError(f"the one-step variance q = {q} is not a normal positive float "
                          f"(sigma = {params.sigma}, kappa = {params.kappa}, dt = {dt})")
    return q


def _spectral_parts(
    kdt: float, q: float, nu: int, x0_gap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lambda of the return covariance, largest first, and the
    squared projections lambda delta of the means on their eigenvectors, in
    closed form at O(1) each.

    The grid log prices after the known start form a Gauss-Markov chain with
    step coefficient phi = e^{-kappa dt} and innovation variance q, so their
    precision T is tridiagonal.  With B the first-difference map the return
    covariance is Sigma = B T^{-1} B^T, and B^T B = (q/phi) T + D with D
    diagonal; hence Sigma's spectrum is q/phi - 1/x over the eigenvalues x of
    Ttilde = |D|^{-1/2} T |D|^{-1/2}.  Ttilde is tridiagonal Toeplitz, with
    a = (1+phi^2) phi/(q(1-phi)^2) on the diagonal and -b, b = phi^2/(q(1-phi)^2),
    off it, except for its last diagonal entry a_n = phi/(q(1-phi)) and its
    last off-diagonal entry -b_l, b_l^2 = (1-phi) b^2.  With
    x = a - 2b cos(theta) the eigenvectors are sinusoids, y_i = sin(i theta)
    for i < n and y_n = (b/b_l) sin(n theta), and the last row closes the
    recurrence (Kulkarni, Schmidt & Tsui, Linear Algebra Appl. 297, 1999;
    Yueh, Appl. Math. E-Notes 5, 2005):

        (a_n - a) + (2b - c) cos(theta) + c cot(n theta) sin(theta) = 0,

    c = b_l^2/b.  Here a_n - a + 2b - c = 0, and the equation reduces to

        tan(n theta) tan(theta/2) = rho,   rho = (1-phi)/(1+phi) = tanh(kappa dt/2).

    The left side rises from 0 to +inf on each (j pi/n, (j+1/2) pi/n),
    j = 0..n-1, and is negative on the rest of each bracket, so it has
    exactly one root there.  These are n distinct eigenvalues inside the band
    [a - 2b, a + 2b], hence all of them: none lies above the band, and none
    below it, as Sigma >= 0 requires.

    In theta the weight is lambda = 4 q sin^2(theta/2)/E with
    E = 1 - 2 phi cos(theta) + phi^2 = (1-phi)^2 + 4 phi sin^2(theta/2), free
    of the cancellation in q/phi - 1/x.  Sigma's eigenvector is proportional
    to B |D|^{-1/2} y, and the means are geometric,
    mu_bar_i = -(x0 - alpha)(1-phi) phi^(i-1), so their projection is a
    geometric-trigonometric sum, which the secular equation collapses to a
    multiple of sin(theta)/E.  With

        ||y||^2 = (2n - 1 - sin((2n-1) theta)/sin(theta))/4 + sin^2(n theta)/(1-phi)

    the noncentral weight is lambda delta =
    (x0 - alpha)^2 (1-phi)^4 cos^2(theta/2) / (E^2 ||y||^2), free of q.
    At the root, with s = sin(theta/2), c = cos(theta/2), d = s^2 + rho^2 c^2
    and v = n theta - j pi, tan v = rho c/s; with 4 rho^2/(1-phi) = 2 rho (1+rho)
    this reads 4 ||y||^2 = 2n - 1 + (1+rho)(s^2 + rho c^2)/d.

    In the offset w = theta/2 - j pi/(2n) the root is the zero of
    f(w) = arctan(rho c/s)/(2n) - w, where f' = -(d+k)/d, k = rho/(2n), and
    f'' = 2k (1-rho^2) s c/d^2.  One vectorized Newton sweep starts each root
    at the zero of f's quadratic Taylor model at w = 0.  A step dw leaves an
    error of about k s c dw^2/(d (d+k)), f''/(2|f'|) dw^2, and carrying s and
    c over it to second order one of |dw|^3/6 in the angle; a root whose sum
    of the two is below 2^-53 of its offset is final, and the few others, at
    the low band edge, take further steps one by one.
    """
    rho = math.tanh(0.5 * kdt)
    phi = math.exp(-kdt)
    om = -math.expm1(-kdt)  # 1 - phi
    half = 0.5 / nu
    k = rho * half
    # theta/2 and pi/2 - theta/2 are formed separately so that s and c keep
    # full relative accuracy at both ends of the band; bracket j is at n-1-j.
    t = (np.pi * half) * np.arange(nu + 1.0)
    jh, kh = t[nu - 1 :: -1], t[1:]
    sin_t = np.sin(t)
    s0, c0 = sin_t[nu - 1 :: -1], sin_t[1:]
    rc0 = rho * c0
    d0 = s0 * s0 + rc0 * rc0
    f0 = half * np.arctan2(rc0, s0)
    a = 1.0 + k / d0
    b = (2.0 * k * (1.0 - rho * rho)) * (s0 * c0) / (d0 * d0)
    w = 2.0 * f0 / (a + np.sqrt(a * a - 2.0 * b * f0))
    # s0 = 0 flattens the model in the first bracket: start it at the bound
    # tan(v) tan(v/(2n)) >= (v + v^3/3) v/(2n), v = 2n w, instead.
    w[-1] = half * min(math.sqrt(1.5 * math.sqrt(1.0 + 8.0 * nu * rho / 3.0) - 1.5), 0.5 * math.pi)

    def newton(jh, kh, w, sin, atan2):  # s, c, dw and the stop rule at w
        s, c = sin(jh + w), sin(kh - w)
        rc = rho * c
        d = s * s + rc * rc
        h = k / (d + k)
        f = half * atan2(rc, s) - w
        dw = f - f * h
        return s, c, dw, dw * dw * (h * s * c / d + abs(dw) / 6.0) <= 2.0**-53 * (w + dw)

    s, c, dw, done = newton(jh, kh, w, np.sin, np.arctan2)
    for i in np.flatnonzero(~done).tolist():
        ji, ki, wi, dwi = float(jh[i]), float(kh[i]), float(w[i]), float(dw[i])
        for _ in range(50):
            wi += dwi
            si, ci, dwi, ok = newton(ji, ki, wi, math.sin, math.atan2)
            if ok:
                break
        else:
            raise DomainError(f"secular equation did not converge (kappa dt = {kdt})")
        s[i], c[i], dw[i] = si, ci, dwi
    s, c = s + dw * (c - 0.5 * s * dw), c - dw * (s + 0.5 * c * dw)

    s2, c2 = s * s, c * c
    e = om * om + 4.0 * phi * s2
    # 4 q s^2/E, arranged so that rounding keeps the weights in order
    lam = 4.0 * q / (om * om / s2 + 4.0 * phi)
    norm4 = (2 * nu - 1) + (1.0 + rho) * (s2 + rho * c2) / (s2 + (rho * rho) * c2)
    return lam, 4.0 * (x0_gap * om * om) ** 2 * c2 / (e * e * norm4)


def return_moments(
    params: SchwartzParams,
    schedule: Schedule,
    independent_increments: bool = False,
) -> ReturnMoments:
    """Chi-square representation of realized variance on the grid.

    Per-interval statistics (conditional on the known log price at t1)::

        mu_bar_i  = E[X_{t_i}] - E[X_{t_{i-1}}]
                  = (alpha - x0) (1 - phi) e^{-kappa (t_{i-1} - t1)}
        var_bar_i = Var(t_i) + Var(t_{i-1}) - 2 Cov(t_{i-1}, t_i)
                  = q + (1 - phi)^2 Var(t_{i-1})

    with phi = e^{-kappa dt} and q = Var(dt), since Var(t_i) = q +
    phi^2 Var(t_{i-1}).  Both are formed in these closed forms, free of the
    cancellation of differencing the grid moments.

    By default the chi-square weights are the eigenvalues of the full return
    covariance matrix and the noncentralities come from the eigenvector-
    rotated means, which is the exact distribution: mean reversion makes
    consecutive returns negatively correlated, so the per-interval variances
    alone overstate the variance of RV.  With ``independent_increments=True``
    the cross-covariances are dropped and the weights are the per-interval
    variances; the resulting distribution has the exact mean but is wider
    than the true one (noticeably so for large kappa*T/N).

    Only the times t_i - t1 enter, so ``schedule.t1`` moves no number.
    """
    kappa = params.kappa
    dt = schedule.dt
    tau = dt * np.arange(schedule.n_obs - 1)  # start times t_{i-1} - t1 of the returns
    om = -math.expm1(-kappa * dt)  # 1 - phi
    mu_bar = (params.alpha - params.x0) * om * np.exp(-kappa * tau)
    s2 = params.sigma**2 / (2.0 * kappa)
    q = _one_step_variance(params, dt)
    var_bar = q + om * om * (s2 * -np.expm1(-2.0 * kappa * tau))

    nu = schedule.n_obs - 1
    if independent_increments or nu == 1:
        return _return_moments(mu_bar, var_bar, schedule.horizon)
    return _return_moments(mu_bar, var_bar, schedule.horizon,
                           _spectral_parts(kappa * dt, q, nu, params.x0 - params.alpha))


def _return_moments(mu_bar, var_bar, horizon: float, spectral=None) -> ReturnMoments:
    """ReturnMoments of the returns N(mu_bar_i, var_bar_i): weights and
    noncentral weights (times w = 100^2/T) from ``spectral``, those of the
    returns' covariance, or else those of independent returns, var_bar_i and
    mu_bar_i^2; lambda_bar and sigma_N from the last."""
    mu_sq = mu_bar**2
    if spectral is None and np.any((var_bar == 0.0) & (mu_sq != 0.0)):
        raise DegenerateInterval(
            "zero-variance component with nonzero mean: noncentrality is undefined")
    weights, mean_weights = spectral or (var_bar, mu_sq)
    w, var_n = 100.0**2 / horizon, var_bar[-1]
    return ReturnMoments(
        mu_bar=mu_bar, alpha_bar=w * weights, var_bar=var_bar, delta_alpha=w * mean_weights,
        nu=mu_bar.size, horizon=horizon, sigma_N=math.sqrt(var_n),
        lambda_bar=float(np.sum(mu_sq) / var_n) if var_n > 0 else 0.0,
    )


def iid_return_moments(
    mu_bar: np.ndarray, sigma_bar: np.ndarray, horizon: float
) -> ReturnMoments:
    """Build a ReturnMoments directly from independent N(mu_bar_i, sigma_bar_i^2)
    returns.

    Useful for synthetic instances -- in particular the constant-variance
    regime, where every ``sigma_bar`` entry is equal and RV reduces to a
    single noncentral chi-square.
    """
    mu_bar = np.asarray(mu_bar, dtype=float)
    sigma_bar = np.asarray(sigma_bar, dtype=float)
    if mu_bar.shape != sigma_bar.shape or mu_bar.ndim != 1 or mu_bar.size < 1:
        raise DomainError(
            f"mu_bar and sigma_bar must be equal-length 1-d arrays, got shapes "
            f"{mu_bar.shape} and {sigma_bar.shape}"
        )
    if not horizon > 0:
        raise DomainError(f"horizon must be > 0, got {horizon}")
    if np.any(sigma_bar < 0):
        raise DomainError("sigma_bar entries must be >= 0")
    return _return_moments(mu_bar, sigma_bar**2, horizon)
