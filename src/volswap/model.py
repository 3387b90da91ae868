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

No n x n matrix is ever formed.  The log price is Markov, so the inverse of
its grid covariance is tridiagonal and the eigenproblem reduces to a
symmetric tridiagonal one: the eigenvalues (the chi-square weights) come
from an O(n^2) QR sweep without eigenvectors, and the eigenvectors, needed
only for the noncentralities, are materialized lazily on first access to
``delta_bar``.  The return covariance itself is rank-1 semiseparable, so a
product with it costs O(n) time and memory; the quadratic forms that drive
the series coefficients (``ReturnMoments.mean_forms``) use only such
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dsterf, dtbtrs

from .errors import DegenerateInterval, DomainError

__all__ = [
    "SchwartzParams",
    "Schedule",
    "ReturnMoments",
    "ou_mean",
    "ou_variance",
    "ou_covariance",
    "return_moments",
    "iid_return_moments",
]


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
    """

    s0: float
    mu: float
    sigma: float
    kappa: float

    def __post_init__(self) -> None:
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
    at ``t1 + horizon`` and ``dt = horizon/(n_obs-1)``.
    """

    t1: float
    horizon: float
    n_obs: int

    def __post_init__(self) -> None:
        if self.t1 < 0:
            raise DomainError(f"t1 must be >= 0, got {self.t1}")
        if not self.horizon > 0:
            raise DomainError(f"horizon must be > 0, got {self.horizon}")
        if int(self.n_obs) != self.n_obs or self.n_obs < 2:
            raise DomainError(f"n_obs must be an integer >= 2, got {self.n_obs}")

    @property
    def dt(self) -> float:
        return self.horizon / (self.n_obs - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t1 + self.dt * np.arange(self.n_obs)

    @property
    def annualization_factor(self) -> float:
        """(N-1)/T = 1/dt."""
        return (self.n_obs - 1) / self.horizon


@dataclass(frozen=True)
class _ReturnCovariance:
    """Covariance Sigma of the log returns, in natural units, stored in O(n).

    The diagonal is ``var_bar``; for i > j the entries are
    Cov(r_i, r_j) = -b_j phi^(i-j-1), a rank-1 semiseparable part with
    phi = e^{-kappa dt} and b_j = (1 - phi)(v_j - phi v_{j-1}) (v the OU
    variance at tau_j).  ``b=None`` means independent returns (diagonal).
    """

    var_bar: np.ndarray
    phi: float = 0.0
    b: Optional[np.ndarray] = None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.var_bar * x
        if self.b is None:
            return y
        # u_i = sum_{j<=i} phi^(i-j) b_j x_j and w_i = sum_{j>=i} phi^(j-i) x_j
        # are first-order recursions, solved as unit-bidiagonal systems: stable
        # for 0 <= phi < 1, with no e^{+-kappa tau} scaling to overflow.
        ab = np.zeros((2, x.size), order="F")
        ab[1, :-1] = -self.phi
        u = dtbtrs(ab, (self.b * x)[:, None], uplo="L", diag="U")[0][:, 0]
        w = dtbtrs(ab, x[:, None], uplo="L", trans="T", diag="U")[0][:, 0]
        # (Sigma x)_i = var_bar_i x_i - u_{i-1} - b_i w_{i+1}
        y[1:] -= u[:-1]
        y[:-1] -= self.b[:-1] * w[1:]
        return y


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
        and reporting); ``var_bar`` is the diagonal of the O(n) return
        covariance that ``mean_forms`` multiplies by.
    alpha_bar : ndarray
        Chi-square weights, in annualized variance points (x 100^2/T),
        largest first for spectral instances.
    delta_bar : ndarray
        Noncentralities paired with ``alpha_bar`` (lazily materialized for
        spectral instances: they require eigenvectors, the weights do not).
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
    _cov: _ReturnCovariance = field(repr=False, compare=False)
    nu: int = 0
    lambda_bar: float = 0.0
    sigma_N: float = 0.0
    horizon: float = 1.0
    _delta_bar: Optional[np.ndarray] = field(default=None, repr=False)
    _delta_fn: Optional[Callable[[], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def delta_bar(self) -> np.ndarray:
        if self._delta_bar is None:
            object.__setattr__(self, "_delta_bar", self._delta_fn())
        return self._delta_bar

    @property
    def var_bar(self) -> np.ndarray:
        return self._cov.var_bar

    @property
    def eta(self) -> int:
        return self.nu

    @property
    def n_obs(self) -> int:
        return self.nu + 1

    def is_constant_regime(self, rtol: float = 1e-9) -> bool:
        """True when every chi-square weight is the same, so RV reduces to a
        single noncentral chi-square with eta degrees of freedom."""
        a = self.alpha_bar
        return bool(np.all(np.abs(a - a[-1]) <= rtol * abs(a[-1])))

    def rv_mean(self) -> float:
        """E[RV] = sum_i alpha_bar_i (1 + delta_bar_i), avoiding eigenvectors
        for spectral instances (the noncentral part is a quadratic form)."""
        return float(np.sum(self.alpha_bar)) + float(self.mean_forms(1, 1.0)[0])

    def mean_forms(self, count: int, beta_bar: float) -> np.ndarray:
        """The weighted sums U_m = sum_i delta_bar_i alpha_bar_i xi_i^m for
        m = 0..count-1, with xi_i = 1 - alpha_bar_i/beta_bar.

        They equal the quadratic forms w mu_bar^T (I - w Sigma/beta_bar)^m mu_bar
        with w = 100^2/T and Sigma the return covariance, so each order costs
        one O(n) product and eigenvectors are never needed.
        """
        w = 100.0**2 / self.horizon
        out = np.empty(max(count, 0))
        v = self.mu_bar
        for m in range(count):
            if m:
                v = v - (w / beta_bar) * (self._cov @ v)
            out[m] = float(self.mu_bar @ v)
        return w * out


def ou_mean(params: SchwartzParams, x0: float, t: float) -> float:
    """Conditional mean of X_t given X_0 = x0."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    e = math.exp(-params.kappa * t)
    return e * x0 + (1.0 - e) * params.alpha


def ou_variance(params: SchwartzParams, t: float) -> float:
    """Conditional variance of X_t given X_0: sigma^2/(2 kappa) (1-e^{-2 kappa t})."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return params.sigma**2 / (2.0 * params.kappa) * (-math.expm1(-2.0 * params.kappa * t))


def ou_covariance(params: SchwartzParams, t_prev: float, t: float) -> float:
    """Cov(X_{t_prev}, X_t) given X_0, for 0 <= t_prev <= t."""
    if not 0 <= t_prev <= t:
        raise DomainError(f"need 0 <= t_prev <= t, got ({t_prev}, {t})")
    return ou_variance(params, t_prev) * math.exp(-params.kappa * (t - t_prev))


def _noncentralities(weights: np.ndarray, means_sq: np.ndarray) -> np.ndarray:
    """delta_i = means_sq_i / weights_i with zero-weight guards."""
    zero = weights == 0.0
    if np.any(zero & (means_sq != 0.0)):
        raise DegenerateInterval(
            "zero-variance component with nonzero mean: noncentrality is undefined"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zero, 0.0, means_sq / np.where(zero, 1.0, weights))


def _spectral_parts(
    phi: float, q: float, nu: int, mu_bar: np.ndarray
) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Eigenvalues of the return covariance and a lazy noncentrality
    builder, both through the tridiagonal reduction.

    The grid log prices Y (after the known start) form a Gauss-Markov chain
    with step coefficient phi = e^{-kappa dt} and innovation variance q, so
    their precision T is tridiagonal.  With B the first-difference map the
    return covariance is Sigma = B T^{-1} B^T, and B^T B = (q/phi) T + D
    with D diagonal; hence Sigma's spectrum is q/phi - 1/eig(Ttilde) for
    the symmetric tridiagonal Ttilde = |D|^{-1/2} T |D|^{-1/2}, and its
    eigenvectors are diagonal/difference transforms of Ttilde's.
    """
    # |D| entries and the tridiagonal precision T (scaled by q).
    d_abs = np.full(nu, (1.0 - phi) ** 2 / phi)
    d_abs[-1] = (1.0 - phi) / phi
    t_diag = np.full(nu, (1.0 + phi**2) / q)
    t_diag[-1] = 1.0 / q
    t_off = np.full(nu - 1, -phi / q)
    inv_sqrt = 1.0 / np.sqrt(d_abs)
    td = t_diag * inv_sqrt**2
    to = t_off * inv_sqrt[:-1] * inv_sqrt[1:]

    w_vals, info = dsterf(td, to)
    if info != 0:
        raise DomainError(f"tridiagonal eigenvalue computation failed (info={info})")
    lam = q / phi - 1.0 / w_vals  # ascending in lambda
    lam = np.maximum(lam[::-1], 0.0)  # descending, clamped

    def delta_fn() -> np.ndarray:
        w_full, y_mat = eigh_tridiagonal(td, to)
        psi = 1.0 / w_full
        lam_f = q / phi - psi
        z_mat = y_mat * inv_sqrt[:, None]
        x_mat = np.empty_like(z_mat)
        x_mat[0] = z_mat[0]
        x_mat[1:] = z_mat[1:] - z_mat[:-1]
        proj = mu_bar @ x_mat
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(lam_f > 0.0, psi * proj**2 / lam_f**2, 0.0)
        return delta[::-1].copy()  # match the descending weight order

    return lam, delta_fn


def return_moments(
    params: SchwartzParams,
    schedule: Schedule,
    independent_increments: bool = False,
) -> ReturnMoments:
    """Chi-square representation of realized variance on the grid.

    Per-interval statistics (conditional on the known log price at t1)::

        mu_bar_i  = E[X_{t_i}] - E[X_{t_{i-1}}]
        var_bar_i = Var(t_i) + Var(t_{i-1}) - 2 Cov(t_{i-1}, t_i)

    By default the chi-square weights are the eigenvalues of the full return
    covariance matrix and the noncentralities come from the eigenvector-
    rotated means, which is the exact distribution: mean reversion makes
    consecutive returns negatively correlated, so the per-interval variances
    alone overstate the variance of RV.  With ``independent_increments=True``
    the cross-covariances are dropped and the weights are the per-interval
    variances; the resulting distribution has the exact mean but is wider
    than the true one (noticeably so for large kappa*T/N).
    """
    kappa = params.kappa
    # Times measured from t1, where the log price is known.
    tau = schedule.times - schedule.t1
    decay = np.exp(-kappa * tau)
    mean = decay * params.x0 + (1.0 - decay) * params.alpha
    var = params.sigma**2 / (2.0 * kappa) * -np.expm1(-2.0 * kappa * tau)

    mu_bar = np.diff(mean)
    dt = schedule.dt
    phi = math.exp(-kappa * dt)
    var_bar = var[1:] + var[:-1] - 2.0 * var[:-1] * phi
    # Guard tiny negative round-off; exact formula is nonnegative.
    var_bar = np.maximum(var_bar, 0.0)

    T = schedule.horizon
    scale = 100.0**2 / T
    n = schedule.n_obs
    nu = n - 1
    common = dict(
        mu_bar=mu_bar,
        nu=nu,
        lambda_bar=float(np.sum(mu_bar**2) / var_bar[-1]) if var_bar[-1] > 0 else 0.0,
        sigma_N=math.sqrt(var_bar[-1]),
        horizon=T,
    )

    if independent_increments or nu == 1:
        return ReturnMoments(
            alpha_bar=scale * var_bar,
            _cov=_ReturnCovariance(var_bar),
            _delta_bar=_noncentralities(var_bar, mu_bar**2),
            **common,
        )

    s2 = params.sigma**2 / (2.0 * kappa)
    q = s2 * -math.expm1(-2.0 * kappa * dt)
    # v_j - phi v_{j-1} = s2 (1 - phi)(1 + phi^(2j-1)) without the cancellation
    # of the difference.  The leading 1 - phi is taken from the rounded phi
    # that var_bar was built with: the quadratic forms cancel between the
    # diagonal and the off-diagonal part, so both must round alike (an exact
    # 1 - phi there loses about two digits once kappa dt is near 1e-5).
    a = s2 * -math.expm1(-kappa * dt) * (1.0 + phi ** np.arange(1.0, 2.0 * nu, 2.0))
    lam, delta_fn = _spectral_parts(phi, q, nu, mu_bar)
    return ReturnMoments(
        alpha_bar=scale * lam,
        _cov=_ReturnCovariance(var_bar, phi, (1.0 - phi) * a),
        _delta_fn=delta_fn,
        **common,
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
    var_bar = sigma_bar**2
    sigma_n = float(sigma_bar[-1])
    return ReturnMoments(
        mu_bar=mu_bar,
        alpha_bar=(100.0**2 / horizon) * var_bar,
        _cov=_ReturnCovariance(var_bar),
        nu=mu_bar.size,
        lambda_bar=float(np.sum(mu_bar**2) / var_bar[-1]) if var_bar[-1] > 0 else 0.0,
        sigma_N=sigma_n,
        horizon=horizon,
        _delta_bar=_noncentralities(var_bar, mu_bar**2),
    )
