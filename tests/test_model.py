import functools
import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volswap import model
from volswap.errors import DegenerateInterval, DomainError
from volswap.model import (
    Schedule,
    SchwartzParams,
    iid_return_moments,
    ou_covariance,
    ou_mean,
    ou_variance,
    return_moments,
)

from conftest import make_instance


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(s0=0.0, mu=0.6, sigma=0.1, kappa=0.5),
        dict(s0=2.0, mu=0.6, sigma=0.0, kappa=0.5),
        dict(s0=2.0, mu=0.6, sigma=0.1, kappa=0.0),
        dict(s0=2.0, mu=0.6, sigma=0.1, kappa=-1.0),
    ],
)
def test_params_rejects_nonpositive(kwargs):
    with pytest.raises(DomainError):
        SchwartzParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["s0", "mu", "sigma", "kappa"])
def test_params_rejects_non_finite(field, value):
    # mu = nan once priced a variance swap at nan with bound 0
    kwargs = dict(s0=2.0, mu=0.6, sigma=0.1, kappa=0.5) | {field: value}
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        SchwartzParams(**kwargs)


def test_kappa_zero_message_names_limitation():
    with pytest.raises(DomainError, match="Brownian"):
        SchwartzParams(s0=2.0, mu=0.6, sigma=0.1, kappa=0.0)


def test_alpha_identity():
    p = SchwartzParams(s0=2.0, mu=0.6, sigma=0.1, kappa=0.5)
    assert p.alpha + p.sigma**2 / (2 * p.kappa) - p.mu == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t1=-0.1, horizon=1.0, n_obs=5),
        dict(t1=0.0, horizon=0.0, n_obs=5),
        dict(t1=0.0, horizon=1.0, n_obs=1),
    ],
)
def test_schedule_rejects_invalid(kwargs):
    with pytest.raises(DomainError):
        Schedule(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["t1", "horizon"])
def test_schedule_rejects_non_finite(field, value):
    kwargs = dict(t1=0.0, horizon=1.0, n_obs=5) | {field: value}
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        Schedule(**kwargs)


def test_schedule_grid():
    sch = Schedule(t1=0.25, horizon=2.0, n_obs=9)
    t = sch.times
    assert t[0] == 0.25
    assert abs(t[-1] - 2.25) < 1e-14
    assert np.all(np.diff(t) > 0)
    assert abs(sch.dt * (sch.n_obs - 1) - sch.horizon) < 1e-12 * sch.horizon


# ---------------------------------------------------------------------------
# OU moments
# ---------------------------------------------------------------------------


def test_ou_mean_identities():
    p = SchwartzParams(s0=2.0, mu=0.6, sigma=0.1, kappa=0.5)
    assert ou_mean(p, math.log(2.0), 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert ou_mean(p, p.alpha, 7.3) == pytest.approx(p.alpha, abs=1e-15)


def test_ou_variance_limits():
    p = SchwartzParams(s0=2.0, mu=0.6, sigma=0.1, kappa=0.5)
    assert ou_variance(p, 0.0) == 0.0
    assert ou_variance(p, 1e3) == pytest.approx(p.sigma**2 / (2 * p.kappa), rel=1e-12)


def test_ou_covariance_identities():
    p = SchwartzParams(s0=2.0, mu=0.6, sigma=0.1, kappa=0.5)
    assert ou_covariance(p, 0.0, 1.0) == 0.0
    assert ou_covariance(p, 0.7, 0.7) == pytest.approx(ou_variance(p, 0.7), rel=1e-15)
    with pytest.raises(DomainError):
        ou_covariance(p, 1.0, 0.5)


def test_ou_moments_vs_mc():
    p = SchwartzParams(s0=2.0, mu=0.6, sigma=0.1, kappa=0.5)
    rng = np.random.default_rng(7)
    n = 10**6
    t = 1.0
    mean = ou_mean(p, p.x0, t)
    var = ou_variance(p, t)
    x = mean + math.sqrt(var) * rng.standard_normal(n)
    se_mean = math.sqrt(var / n)
    assert abs(np.mean(x) - mean) < 4 * se_mean
    se_var = var * math.sqrt(2.0 / n)
    assert abs(np.var(x, ddof=1) - var) < 4 * se_var


# ---------------------------------------------------------------------------
# return moments
# ---------------------------------------------------------------------------


def test_single_interval_variance():
    p, sch, rm = make_instance(n_obs=2)
    assert rm.var_bar.shape == (1,)
    assert rm.var_bar[0] == pytest.approx(ou_variance(p, 1.0), rel=1e-14)


def test_var_bar_nonnegative_and_nondecreasing():
    _, _, rm = make_instance(n_obs=52)
    assert np.all(rm.var_bar >= 0)
    assert np.all(np.diff(rm.var_bar) >= -1e-15)


def test_mu_bar_two_route_agreement():
    p, sch, rm = make_instance(n_obs=52)
    means = np.array([ou_mean(p, p.x0, t - sch.t1) for t in sch.times])
    direct = np.diff(means)
    denom = np.maximum(np.abs(direct), 1e-300)
    assert np.max(np.abs(rm.mu_bar - direct) / denom) < 1e-10


@pytest.mark.parametrize(
    "sigma,kappa,n_obs,horizon,t1",
    [(0.05, 0.5, 252, 1.0, 0.0), (0.005, 3.0, 252, 1.0, 0.0),
     (0.2, 5.0, 5000, 1.0, 0.0), (0.08, 0.1, 52, 2.0, 0.3), (0.1, 1.5, 2, 0.5, 0.0)],
)
def test_mu_bar_matches_mpmath(sigma, kappa, n_obs, horizon, t1):
    # (alpha - x0)(e^{-kappa tau_{i-1}} - e^{-kappa tau_i}) at 50 digits from the
    # double-precision alpha and x0 the model takes; differencing the grid means
    # near 0.6 in double precision instead misses by about 1e-12.  Likewise
    # var_bar_i = Var(tau_i) + Var(tau_{i-1}) - 2 e^{-kappa dt} Var(tau_{i-1}),
    # which differencing the grid variances misses by up to 6e-14 relative.
    p, sch, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs, horizon=horizon, t1=t1)
    with mp.workdps(50):
        kappa, dt = mp.mpf(p.kappa), mp.mpf(sch.dt)
        gap = mp.mpf(p.alpha) - mp.mpf(p.x0)
        ref = [gap * (mp.exp(-kappa * i * dt) - mp.exp(-kappa * (i + 1) * dt))
               for i in range(n_obs - 1)]
        ref = np.array([float(x) for x in ref])
        s2 = mp.mpf(p.sigma) ** 2 / (2 * kappa)
        var = [s2 * -mp.expm1(-2 * kappa * i * dt) for i in range(n_obs)]
        var_ref = np.array([float(var[i + 1] + var[i] - 2 * mp.exp(-kappa * dt) * var[i])
                            for i in range(n_obs - 1)])
    np.testing.assert_allclose(rm.mu_bar, ref, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(rm.var_bar, var_ref, rtol=1e-15, atol=0.0)


def test_lambda_zero_when_started_at_level():
    p = SchwartzParams(s0=math.exp(0.6 - 0.1**2 / (2 * 0.5)), mu=0.6, sigma=0.1, kappa=0.5)
    sch = Schedule(t1=0.0, horizon=1.0, n_obs=10)
    rm = return_moments(p, sch)
    assert rm.lambda_bar <= 1e-20
    assert np.all(rm.mu_bar == 0.0)


def test_nu_eta_and_sigma_n():
    _, _, rm = make_instance(n_obs=52)
    assert rm.nu == rm.eta == 51
    assert rm.sigma_N == pytest.approx(math.sqrt(rm.var_bar[-1]), rel=1e-15)
    assert rm.n_obs == 52


# ---------------------------------------------------------------------------
# spectral weights vs dense eigendecomposition oracle
# ---------------------------------------------------------------------------


def _dense_cov(p, sch):
    """Dense covariance matrix of the log returns (natural variance units)."""
    tau = sch.times - sch.t1
    var = np.array([ou_variance(p, t) for t in tau])
    cov_x = np.minimum.outer(var, var) * np.exp(
        -p.kappa * np.abs(np.subtract.outer(tau, tau))
    )
    return cov_x[1:, 1:] - cov_x[1:, :-1] - cov_x[:-1, 1:] + cov_x[:-1, :-1]


def _dense_oracle(p, sch):
    tau = sch.times - sch.t1
    lam, q_mat = np.linalg.eigh(_dense_cov(p, sch))
    lam = np.maximum(lam[::-1], 0.0)
    proj = q_mat[:, ::-1].T @ np.diff(
        [ou_mean(p, p.x0, t) for t in tau]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(lam > 0, proj**2 / np.where(lam > 0, lam, 1.0), 0.0)
    return (100.0**2 / sch.horizon) * lam, delta


@pytest.mark.parametrize("kappa", [0.5, 3.0])
@pytest.mark.parametrize("n_obs", [2, 3, 5, 52, 252])
def test_spectral_matches_dense(kappa, n_obs):
    p, sch, rm = make_instance(sigma=0.08, kappa=kappa, n_obs=n_obs)
    a_ref, d_ref = _dense_oracle(p, sch)
    assert np.allclose(rm.alpha_bar, a_ref, rtol=1e-9, atol=1e-12)
    # deltas pair with eigenvalues up to degenerate-subspace ordering
    assert np.allclose(np.sort(rm.delta_bar), np.sort(d_ref), atol=1e-8)


def _mp_oracle(p, sch):
    """Weights (descending) and noncentralities from mpmath's symmetric
    eigensolver on the dense return covariance built at 40 digits."""
    with mp.workdps(40):
        kappa, sigma, dt = mp.mpf(p.kappa), mp.mpf(p.sigma), mp.mpf(sch.dt)
        alpha = mp.mpf(p.mu) - sigma**2 / (2 * kappa)
        x0 = mp.log(mp.mpf(p.s0))
        nu = sch.n_obs - 1
        tau = [dt * i for i in range(nu + 1)]
        var = [sigma**2 / (2 * kappa) * -mp.expm1(-2 * kappa * t) for t in tau]

        def cov_x(i, j):
            return var[min(i, j)] * mp.exp(-kappa * abs(tau[i] - tau[j]))

        cov = mp.matrix(nu, nu)
        for i in range(nu):
            for j in range(nu):
                cov[i, j] = (
                    cov_x(i + 1, j + 1) - cov_x(i + 1, j) - cov_x(i, j + 1) + cov_x(i, j)
                )
        mean = [alpha + (x0 - alpha) * mp.exp(-kappa * t) for t in tau]
        mu_bar = [mean[i + 1] - mean[i] for i in range(nu)]
        lam, vecs = mp.eigsy(cov)
        order = sorted(range(nu), key=lambda i: -lam[i])
        proj = [mp.fsum(vecs[r, i] * mu_bar[r] for r in range(nu)) for i in order]
        delta = [x**2 / lam[i] for x, i in zip(proj, order)]
        weights = [lam[i] * 100**2 / mp.mpf(sch.horizon) for i in order]
        return np.array([float(x) for x in weights]), np.array([float(x) for x in delta])


_CORNERS = [(0.2, 0.1), (0.005, 0.1), (0.2, 5.0), (0.005, 5.0)]


@pytest.mark.parametrize(
    "sigma,kappa,n_obs",
    [(s, k, n) for n in (2, 3, 4, 8, 30) for s, k in _CORNERS]
    + [(0.2, 0.1, 52), (0.2, 5.0, 52)],
)
def test_spectral_matches_mpmath(sigma, kappa, n_obs):
    # Every weight to 1e-13 relative, the smallest included: it comes from
    # the first bracket of the secular equation, where a stalled root finder
    # shows first (sigma=0.2, kappa=0.1, N=52).  Every noncentrality to
    # 1e-10 relative, down to the tiny ones of the fast-oscillating modes.
    p, sch, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
    a_ref, d_ref = _mp_oracle(p, sch)
    np.testing.assert_allclose(rm.alpha_bar, a_ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rm.delta_bar, d_ref, rtol=1e-10, atol=0.0)
    # The noncentral sums U_m = sum_i delta_i alpha_i xi_i^m of the series;
    # each side takes xi from its own largest weight, so xi_0 = 0 on both.
    xi_ref = 1.0 - a_ref / a_ref.max()
    u_ref = [float(np.sum(d_ref * a_ref * xi_ref**m)) for m in range(6)]
    u = rm.mean_forms(6, float(rm.alpha_bar.max()))
    np.testing.assert_allclose(u, u_ref, rtol=1e-10, atol=0.0)


def _mp_brackets(p, sch, js):
    """Weights and noncentralities of brackets ``js`` (j = 0 holds the
    smallest weight) at 40 digits: each root of tan(n theta) tan(theta/2) = rho
    found by mpmath in its own bracket, then the closed forms of
    ``model._spectral_parts`` in their trigonometric form."""
    with mp.workdps(40):
        kappa, sigma = mp.mpf(p.kappa), mp.mpf(p.sigma)
        kdt = kappa * mp.mpf(sch.dt)
        rho, phi, om = mp.tanh(kdt / 2), mp.exp(-kdt), -mp.expm1(-kdt)
        q = sigma**2 / (2 * kappa) * -mp.expm1(-2 * kdt)
        gap = mp.log(mp.mpf(p.s0)) - (mp.mpf(p.mu) - sigma**2 / (2 * kappa))
        n = sch.n_obs - 1
        weights, deltas = [], []
        for j in js:
            # v = n theta - j pi in (0, pi/2) solves v = arctan(rho cot(theta/2))
            def half_angle(v):
                return (j * mp.pi + v) / (2 * n)

            v = mp.findroot(
                lambda v: v - mp.atan2(rho * mp.cos(half_angle(v)), mp.sin(half_angle(v))),
                (0, mp.pi / 2), solver="anderson",
            )
            th = 2 * half_angle(v)
            e = om**2 + 4 * phi * mp.sin(th / 2) ** 2
            norm2 = (2 * n - 1 - mp.sin((2 * n - 1) * th) / mp.sin(th)) / 4 + mp.sin(n * th) ** 2 / om
            weights.append(float(4 * q * mp.sin(th / 2) ** 2 / e * 100**2 / mp.mpf(sch.horizon)))
            deltas.append(float(gap**2 * om**4 / mp.tan(th / 2) ** 2 / (4 * q * e * norm2)))
    return np.array(weights), np.array(deltas)


@pytest.mark.parametrize("sigma,kappa", _CORNERS)
@pytest.mark.parametrize("n_obs", [1000, 5000])
def test_spectral_brackets_match_mpmath_at_intraday_n(sigma, kappa, n_obs):
    # The dense oracle above stops at N=52.  Here each bracket is solved on
    # its own at 40 digits: the first and last five, where the Newton start
    # is crudest, and every 50th in between.
    p, sch, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
    n = n_obs - 1
    js = sorted({*range(5), *range(n - 5, n), *range(0, n, 50)})
    a_ref, d_ref = _mp_brackets(p, sch, js)
    idx = n - 1 - np.array(js)  # largest weight first
    np.testing.assert_allclose(rm.alpha_bar[idx], a_ref, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(rm.delta_bar[idx], d_ref, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("kappa", [0.1, 1.5, 5.0])
def test_spectral_trig_passes(monkeypatch, kappa):
    # One Newton sweep: the sines of the bracket starts, the start's
    # arctangent, and the sweep's two sines and one arctangent run over all
    # n roots; the few roots the stop rule holds back take scalar steps.
    n_obs, calls = 2000, []

    class CountingNumpy:
        def __getattr__(self, name):
            fn = getattr(np, name)
            if name not in ("sin", "cos", "arctan2"):
                return fn

            def counted(*args, **kwargs):
                if any(np.size(a) >= n_obs - 1 for a in args):
                    calls.append(name)
                return fn(*args, **kwargs)

            return counted

    monkeypatch.setattr(model, "np", CountingNumpy())
    make_instance(sigma=0.08, kappa=kappa, n_obs=n_obs)
    assert len(calls) <= 6, calls


def _quadratic_forms(matvec, mu_bar, w, count, beta):
    """U_m = w mu^T (I - w Sigma/beta)^m mu, with ``matvec(v)`` = Sigma v."""
    out, v = [], mu_bar.copy()
    for _ in range(count):
        out.append(w * float(mu_bar @ v))
        v = v - (w / beta) * matvec(v)
    return np.array(out)


def test_mean_forms_matches_arrays():
    # Definition: sum_i delta_bar_i alpha_bar_i xi_i^m from the eigenpairs.
    _, _, rm = make_instance(n_obs=52)
    beta = float(rm.alpha_bar.max())
    xi = 1.0 - rm.alpha_bar / beta
    da = rm.delta_bar * rm.alpha_bar
    ref = np.array([float(np.sum(da * xi**m)) for m in range(6)])
    assert np.allclose(rm.mean_forms(6, beta), ref, rtol=1e-8, atol=1e-12)
    # The sums over the closed-form weights and noncentralities against the
    # quadratic forms of the dense matrix, spectral and independent instances
    # alike.  U_1.. vanish at N=2 and cancel in the dense products of the
    # independent kappa=0.1 instances, so rounding relative to U_0 is allowed.
    for n_obs in (2, 3, 52, 1000, 2000):
        for kappa in (0.1, 5.0):
            for sigma in (0.005, 0.2):
                p, sch, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
                _, _, rm_iid = make_instance(
                    sigma=sigma, kappa=kappa, n_obs=n_obs, independent_increments=True
                )
                w = 100.0**2 / sch.horizon
                pairs = ((rm, _dense_cov(p, sch)), (rm_iid, np.diag(rm_iid.var_bar)))
                for inst, cov in pairs:
                    beta = float(inst.alpha_bar.max())
                    got = inst.mean_forms(25, beta)
                    ref = _quadratic_forms(cov.__matmul__, inst.mu_bar, w, 25, beta)
                    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-13 * ref[0])


def test_swap_quotes_hold_no_dense_covariance():
    # At N=5000 one dense n x n float matrix is 200 MB; the closed-form
    # spectrum and noncentralities need a few vectors of length n.
    from volswap import swaps

    tracemalloc.start()
    try:
        _, _, rm = make_instance(sigma=0.05, kappa=1.5, n_obs=5000)
        vol, var = swaps.vol_swap_tv(rm), swaps.var_swap_tv(rm)
        delta = rm.delta_bar
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(vol.strike) and math.isfinite(var.strike)
    assert np.all(np.isfinite(delta))
    assert peak < 20 * 2**20


def test_return_moments_scaling_guard():
    # The spectrum and the noncentralities in closed form: about 2 ms at
    # N=5000, where an O(n^2) eigensolver takes 0.5 s and its eigenvectors 5 s.
    p = SchwartzParams(s0=2.0, mu=0.6, sigma=0.08, kappa=1.5)
    sch = Schedule(t1=0.0, horizon=1.0, n_obs=5000)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        rm = return_moments(p, sch)
        rm.delta_bar
        best = min(best, time.perf_counter() - t0)
    assert best < 0.1


def test_coeffs_hp_scaling_guard():
    # The whole recurrence (power sums, d_j and the convolution) in
    # fixed-point integers: about 0.1 s at K=640, 90 digits, N=252, where the
    # mpmath convolution over integer power sums took 0.4-0.5 s.
    from volswap import rvdist

    _, _, rm = make_instance(sigma=0.08, kappa=1.5, n_obs=252)
    cfg = rvdist.ExpansionConfig.defaults(rm)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        rvdist.coeffs_hp(rm, cfg, 640, 90)
        best = min(best, time.perf_counter() - t0)
    assert best < 1.0


def test_rv_mean_unchanged_by_correlation():
    # The total-variance trace is invariant under rotation, so the mean of RV
    # is identical between the exact and independent-increment weightings.
    _, _, rm = make_instance(n_obs=52)
    _, _, rm_iid = make_instance(n_obs=52, independent_increments=True)
    assert rm.rv_mean() == pytest.approx(rm_iid.rv_mean(), rel=1e-10)
    assert float(np.sum(rm.alpha_bar)) == pytest.approx(
        float(np.sum(rm_iid.alpha_bar)), rel=1e-10
    )


def test_rv_variance_matrix_identity():
    # Var(RV) from the chi-square weights equals the covariance-matrix form
    # 2 tr(A^2) + 4 w mu' A mu, which knows nothing about eigenvectors.
    p, sch, rm = make_instance(n_obs=52)
    v_weights = 2 * float(np.sum(rm.alpha_bar**2 * (1 + 2 * rm.delta_bar)))
    cov = _dense_cov(p, sch)
    w = 100.0**2 / sch.horizon
    v_matrix = 2 * w**2 * float(np.sum(cov * cov)) + 4 * w * float(
        rm.mu_bar @ cov @ rm.mu_bar
    ) * w
    assert v_weights == pytest.approx(v_matrix, rel=1e-9)


def test_rv_variance_vs_mc():
    p, sch, rm = make_instance(sigma=0.05, kappa=0.5, n_obs=52, mu=1.0)
    var_exact = 2 * float(np.sum(rm.alpha_bar**2 * (1 + 2 * rm.delta_bar)))
    from volswap import mc

    samples = mc.simulate_rv(p, sch, mc.McConfig(n_paths=50_000, seed=11))
    sample_var = float(np.var(samples, ddof=1))
    # chi-square-sum variance estimator is noisy; 10% covers ~4 SE here
    assert abs(sample_var - var_exact) < 0.10 * var_exact


# ---------------------------------------------------------------------------
# degenerate and synthetic instances
# ---------------------------------------------------------------------------


def test_iid_constructor_and_regime_flag():
    rm = iid_return_moments(np.zeros(4), np.full(4, 0.02), horizon=1.0)
    assert rm.is_constant_regime()
    assert rm.lambda_bar == 0.0
    assert np.all(rm.alpha_bar == 100.0**2 * 0.02**2)
    _, _, rm_tv = make_instance(n_obs=52)
    assert not rm_tv.is_constant_regime()


def test_iid_constructor_validation():
    with pytest.raises(DomainError):
        iid_return_moments(np.zeros(3), np.full(2, 0.1), horizon=1.0)
    with pytest.raises(DomainError):
        iid_return_moments(np.zeros(3), np.full(3, 0.1), horizon=0.0)
    with pytest.raises(DomainError):
        iid_return_moments(np.zeros(3), np.array([0.1, -0.1, 0.1]), horizon=1.0)


def test_zero_variance_nonzero_mean_rejected():
    with pytest.raises(DegenerateInterval):
        iid_return_moments(np.array([0.0, 0.01]), np.array([0.1, 0.0]), horizon=1.0)


def test_zero_variance_zero_mean_allowed():
    rm = iid_return_moments(np.array([0.01, 0.0]), np.array([0.1, 0.0]), horizon=1.0)
    assert rm.delta_bar[-1] == 0.0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _off_diagonal(p, sch):
    """(phi, b) of the return covariance Sigma, stored in O(n): for i > j
    Sigma_ij = -b_j phi^(i-j-1), with phi = e^{-kappa dt} and
    b_j = (1 - phi)(v_j - phi v_{j-1}), v_j the OU variance at tau_j."""
    kdt = p.kappa * sch.dt
    phi = math.exp(-kdt)
    # v_j - phi v_{j-1} = s2 (1 - phi)(1 + phi^(2j-1)) without the cancellation
    # of the difference.  Both factors 1 - phi are -expm1(-kappa dt), as in
    # var_bar: the quadratic forms cancel between the diagonal and the
    # off-diagonal part, so both must round alike (1 - phi from the rounded
    # phi loses about a digit once kappa dt is near 1e-5).
    s2 = p.sigma**2 / (2.0 * p.kappa)
    om = -math.expm1(-kdt)
    j = np.arange(1.0, sch.n_obs)
    b = om * s2 * om * (1.0 + phi ** (2.0 * j - 1.0))
    return phi, b


def _semiseparable_matvec(var_bar, phi, b, x):
    """Sigma x, Sigma with diagonal var_bar and ``_off_diagonal`` parts, in
    O(n) memory and log2(n) vector passes."""
    y = var_bar * x
    # u_i = sum_{j<=i} phi^(i-j) b_j x_j and w_i = sum_{j>=i} phi^(j-i) x_j
    # are first-order recursions, summed by doubling: after the pass with
    # shift k each entry holds its terms up to distance 2k - 1.
    u, w = b * x, x.copy()
    c, k = phi, 1
    while k < x.size:
        u[k:] += c * u[:-k]
        w[:-k] += c * w[k:]
        c, k = c * c, 2 * k
    # (Sigma x)_i = var_bar_i x_i - u_{i-1} - b_i w_{i+1}
    y[1:] -= u[:-1]
    y[:-1] -= b[:-1] * w[1:]
    return y


def _frobenius_sq(var_bar, phi, b):
    """||Sigma||_F^2 in O(n): column j below the diagonal is -b_j phi^k,
    k = 0..n-2-j."""
    n = var_bar.size
    m = n - 1 - np.arange(n)
    log_phi = math.log(phi)
    geometric = np.expm1(2.0 * m * log_phi) / math.expm1(2.0 * log_phi)
    return float(np.sum(var_bar**2) + 2.0 * np.sum(b**2 * geometric))


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(0.1, 5.0),
    sigma=st.floats(0.005, 0.2),
    n_obs=st.integers(2, 5000),
)
def test_weights_property(kappa, sigma, n_obs):
    # Invariants of the spectrum that need no eigensolver, at any N.
    p, sch, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
    a, w = rm.alpha_bar, 100.0**2 / sch.horizon
    # descending; near the top of a fine grid neighbours can round alike
    assert np.all(a > 0) and np.all(np.diff(a) <= 0)
    # eigenvalue sum equals the trace of the return covariance
    assert float(np.sum(a)) == pytest.approx(w * float(np.sum(rm.var_bar)), rel=1e-9)
    assert np.all(rm.delta_bar >= 0)
    var_bar, (phi, b) = rm.var_bar, _off_diagonal(p, sch)
    if n_obs > 2:  # spectral instances; N=2 is a single independent return
        # sum of squared eigenvalues equals the squared Frobenius norm
        frobenius = w**2 * _frobenius_sq(var_bar, phi, b)
        assert float(np.sum(a**2)) == pytest.approx(frobenius, rel=1e-10)
    # the noncentral sums against the O(n) quadratic forms
    # w mu^T (I - w Sigma/beta)^m mu; U_1 and U_2 vanish at N=2, where
    # rounding relative to U_0 is all that is left
    beta = float(a[0])
    matvec = functools.partial(_semiseparable_matvec, var_bar, phi, b)
    ref = _quadratic_forms(matvec, rm.mu_bar, w, 3, beta)
    got = rm.mean_forms(3, beta)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-13 * ref[0])
