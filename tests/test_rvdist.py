import math

import mpmath as mpm
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from volswap import options, rvdist, swaps
from volswap.errors import (
    DomainError,
    InvalidConfig,
    NoConvergence,
    PreconditionError,
)
from volswap.model import iid_return_moments
from volswap.rvdist import ExpansionConfig

from conftest import (
    constant_instance,
    make_instance,
    measured_tail,
    random_iid_instance,
)


def _cfg(rm, k_max=25, beta_bar=None):
    if beta_bar is None:
        return ExpansionConfig.defaults(rm, k_max=k_max)
    return ExpansionConfig(beta_bar=beta_bar, k_max=k_max)


def alpha_delta_instance(alpha, delta, horizon=1.0):
    """iid instance with prescribed chi-square weights and noncentralities."""
    alpha = np.asarray(alpha, dtype=float)
    delta = np.asarray(delta, dtype=float)
    sigma_bar = np.sqrt(alpha * horizon) / 100.0
    mu_bar = sigma_bar * np.sqrt(delta)
    return iid_return_moments(mu_bar, sigma_bar, horizon)


# ---------------------------------------------------------------------------
# config and coefficient basics
# ---------------------------------------------------------------------------


def test_config_defaults(example_instance):
    _, _, rm = example_instance
    cfg = ExpansionConfig.defaults(rm)
    assert cfg.beta_bar == float(np.max(rm.alpha_bar))
    assert cfg.k_max == rvdist.DEFAULT_K_PRICING


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beta_bar=0.0, k_max=3),
        dict(beta_bar=1.0, k_max=-1),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvalidConfig):
        ExpansionConfig(**kwargs)


def test_coeffs_degenerate_equal_weights():
    rm = constant_instance(eta=6, lambda_bar=0.0, sigma_n=0.03)
    cfg = _cfg(rm, k_max=10)
    co = rvdist.coeffs(rm, cfg)
    assert co.c[0] == pytest.approx(1.0, rel=1e-14)
    assert np.all(co.c[1:] == 0.0)
    assert np.all(co.d == 0.0)
    assert co.zeta == 0.0


def test_coeffs_zero_drift_kills_exponential():
    rm = alpha_delta_instance([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    cfg = _cfg(rm, k_max=5)
    co = rvdist.coeffs(rm, cfg)
    # c_0 = 1 at the shape center, whatever the drift
    assert co.c[0] == pytest.approx(1.0, rel=1e-14)


def test_coeffs_fast_path_matches_arrays():
    _, _, rm = make_instance(n_obs=52)
    cfg = _cfg(rm, k_max=6)
    co = rvdist.coeffs(rm, cfg)  # spectral quadratic-form path
    xi = 1.0 - rm.alpha_bar / cfg.beta_bar
    da = rm.delta_bar * rm.alpha_bar
    d_ref = np.zeros(7)
    for j in range(1, 7):
        d_ref[j] = 0.5 * np.sum(xi**j) - (j / (2.0 * cfg.beta_bar)) * np.sum(
            da * xi ** (j - 1)
        )
    # delta_bar is in closed form, so the two routes agree to rounding
    assert np.allclose(co.d, d_ref, rtol=1e-12, atol=1e-12)


def test_coeffs_rejects_nonpositive_weights():
    rm = iid_return_moments(np.zeros(2), np.array([0.1, 0.0]), horizon=1.0)
    with pytest.raises(InvalidConfig):
        rvdist.coeffs(rm, ExpansionConfig(beta_bar=100.0, k_max=3))
    # a nan weight is refused too: the check reads the weight extremes
    rm = iid_return_moments(np.zeros(2), np.array([0.1, np.nan]), horizon=1.0)
    with pytest.raises(InvalidConfig):
        rvdist.coeffs(rm, ExpansionConfig(beta_bar=100.0, k_max=3))


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------


def test_pdf_rejects_nonpositive_y(example_instance):
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=3)
    co = rvdist.coeffs(rm, cfg)
    with pytest.raises(DomainError):
        rvdist.pdf(rm, cfg, co, 0.0)
    with pytest.raises(DomainError):
        rvdist.pdf(rm, cfg, co, np.array([1.0, -2.0]))


def test_pdf_constant_regime_is_gamma():
    # two equal central components with alpha = beta = 1: Gamma(1, 2), i.e.
    # density e^{-y/2}/2
    rm = alpha_delta_instance([1.0, 1.0], [0.0, 0.0])
    cfg = _cfg(rm, k_max=5)
    co = rvdist.coeffs(rm, cfg)
    for y in (0.3, 1.0, 2.7):
        assert rvdist.pdf(rm, cfg, co, y) == pytest.approx(
            math.exp(-y / 2.0) / 2.0, rel=1e-12
        )


def _convolution_oracle(alpha, delta, y):
    """Brute-force density of alpha1*Y1 + alpha2*Y2, Yi ~ chi2_1(delta_i)."""

    def comp_pdf(x, a, d):
        if d == 0.0:
            return stats.chi2.pdf(x / a, df=1) / a
        return stats.ncx2.pdf(x / a, df=1, nc=d) / a

    val, _ = integrate.quad(
        lambda x: comp_pdf(x, alpha[0], delta[0]) * comp_pdf(y - x, alpha[1], delta[1]),
        0.0,
        y,
        limit=200,
    )
    return val


def test_pdf_matches_convolution_oracle():
    alpha, delta = [1.0, 2.0], [0.0, 0.5]
    rm = alpha_delta_instance(alpha, delta)
    cfg = ExpansionConfig(beta_bar=2.0, k_max=20)
    co = rvdist.coeffs(rm, cfg)
    mean = float(np.sum(rm.alpha_bar * (1 + rm.delta_bar)))
    for y in np.linspace(0.01 * mean, 5 * mean, 12):
        ours = float(rvdist.pdf(rm, cfg, co, float(y)))
        ref = _convolution_oracle(alpha, delta, float(y))
        assert abs(ours - ref) < 1e-6


@pytest.mark.parametrize("n_obs,sigma", [(52, 0.08), (22, 0.1), (5, 0.1)])
def test_pdf_normalization(n_obs, sigma):
    _, _, rm = make_instance(sigma=sigma, n_obs=n_obs)
    cfg = _cfg(rm, k_max=25)
    co = rvdist.coeffs(rm, cfg)
    upper = stats.gamma(a=rm.nu / 2.0, scale=2.0 * cfg.beta_bar).ppf(1 - 1e-12)
    total, _ = integrate.quad(
        lambda y: rvdist.pdf(rm, cfg, co, y), 1e-12, upper, limit=300
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n_obs", [252, 1000, 5000])
@pytest.mark.parametrize("sigma,kappa", [(0.08, 1.5), (0.2, 0.1)])
def test_pdf_finite_and_normalized_at_large_n(sigma, kappa, n_obs):
    """From N ~ 400 the density once returned nan: the weights k!/Gamma(p+k)
    and the unnormalized envelope overflowed apart.

    A separate defect remains at the drift corners: there the K=25 density on
    the default envelope is finite but wrong (it integrates to about 6e22 at
    sigma = 0.005, kappa = 5, N = 252), because the envelope does not cover
    the distribution; that needs another envelope, not this fix.
    """
    _, _, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
    cfg = _cfg(rm, k_max=rvdist.DEFAULT_K_PDF)
    co = rvdist.coeffs(rm, cfg)
    envelope = stats.gamma(a=rm.nu / 2.0, scale=2.0 * cfg.beta_bar)
    y = np.linspace(envelope.ppf(1e-15), envelope.ppf(1 - 1e-15), 20001)
    dens = rvdist.pdf(rm, cfg, co, y)
    assert np.all(np.isfinite(dens))
    assert integrate.simpson(dens, x=y) == pytest.approx(1.0, abs=1e-8)


def test_moment_consistency_with_quadrature(example_instance):
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=25)
    co = rvdist.coeffs(rm, cfg)
    upper = stats.gamma(a=rm.nu / 2.0, scale=2.0 * cfg.beta_bar).ppf(1 - 1e-12)
    m1_quad, _ = integrate.quad(
        lambda y: y * rvdist.pdf(rm, cfg, co, y), 1e-12, upper, limit=300
    )
    assert m1_quad == pytest.approx(rvdist.raw_moment(rm, cfg, co, 1.0).value, rel=1e-6)
    mh_quad, _ = integrate.quad(
        lambda y: math.sqrt(y) * rvdist.pdf(rm, cfg, co, y), 1e-12, upper, limit=300
    )
    assert mh_quad == pytest.approx(rvdist.raw_moment(rm, cfg, co, 0.5).value, rel=1e-5)


def test_scaling_covariance():
    rng = np.random.default_rng(3)
    base = random_iid_instance(rng)
    s = 4.0
    scaled = iid_return_moments(2 * base.mu_bar, 2 * base.var_bar**0.5, base.horizon)
    assert np.allclose(scaled.alpha_bar, s * base.alpha_bar, rtol=1e-12)
    cfg_b = _cfg(base, k_max=20)
    cfg_s = _cfg(scaled, k_max=20)
    co_b = rvdist.coeffs(base, cfg_b)
    co_s = rvdist.coeffs(scaled, cfg_s)
    mean = float(np.sum(base.alpha_bar * (1 + base.delta_bar)))
    for y in np.linspace(0.2 * mean, 3 * mean, 7):
        lhs = float(rvdist.pdf(scaled, cfg_s, co_s, s * y))
        rhs = float(rvdist.pdf(base, cfg_b, co_b, y)) / s
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-15)


# ---------------------------------------------------------------------------
# raw moments
# ---------------------------------------------------------------------------


def test_raw_moment_domain(example_instance):
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=3)
    co = rvdist.coeffs(rm, cfg)
    with pytest.raises(DomainError):
        rvdist.raw_moment(rm, cfg, co, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_raw_moment_mean_oracle(seed):
    rng = np.random.default_rng(seed)
    rm = random_iid_instance(rng)
    cfg = _cfg(rm, k_max=25)
    co = rvdist.coeffs(rm, cfg)
    target = float(np.sum(rm.alpha_bar * (1 + rm.delta_bar)))
    assert rvdist.raw_moment(rm, cfg, co, 1.0).value == pytest.approx(target, rel=1e-8)


def test_raw_moment_second_oracle():
    rm = alpha_delta_instance([1.0, 2.0], [0.0, 0.5])
    cfg = _cfg(rm, k_max=25)
    co = rvdist.coeffs(rm, cfg)
    # mean^2 + variance = 16 + 18 = 34
    assert rvdist.raw_moment(rm, cfg, co, 2.0).value == pytest.approx(34.0, rel=1e-10)


def test_raw_moment_half_constant_case():
    rm = constant_instance(eta=7, lambda_bar=0.0, sigma_n=0.04)
    cfg = _cfg(rm, k_max=10)
    co = rvdist.coeffs(rm, cfg)
    nu = rm.nu
    target = math.sqrt(2.0 * cfg.beta_bar) * math.exp(
        math.lgamma((nu + 1) / 2.0) - math.lgamma(nu / 2.0)
    )
    assert rvdist.raw_moment(rm, cfg, co, 0.5).value == pytest.approx(target, rel=1e-12)


def test_raw_moment_no_bound_no_convergence(example_instance):
    # an envelope too narrow for a certified tail bound, and a fat last term
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=0, beta_bar=0.4 * float(np.max(rm.alpha_bar)))
    co = rvdist.coeffs(rm, cfg)
    with pytest.raises(NoConvergence):
        rvdist.raw_moment(rm, cfg, co, 0.5)


def test_raw_moment_unconverged_but_bounded(example_instance):
    # K = 0 with the default (certified) config: inconclusive but not an error
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=0)
    co = rvdist.coeffs(rm, cfg)
    res = rvdist.raw_moment(rm, cfg, co, 0.5)
    assert not res.converged


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_coeff_bound_trivials():
    # equal weights -> zeta = 0, yet with drift c_k = c_0 (-S/2)^k / k! does
    # not vanish and the bound must cover it
    rm = constant_instance(eta=6, lambda_bar=0.3, sigma_n=0.03)
    cfg = _cfg(rm, k_max=5)
    co = rvdist.coeffs(rm, cfg)
    assert co.zeta == 0.0
    b0 = rvdist.coeff_bound(rm, cfg, 0)
    assert b0 > 0
    assert b0 == pytest.approx(abs(co.c[0]), rel=1e-14)
    for k in range(1, 6):
        assert 0.0 < abs(co.c[k]) <= rvdist.coeff_bound(rm, cfg, k)
    # zeta = 0 and no drift: every c_k with k >= 1 and the tail are exactly 0
    rm0 = constant_instance(eta=6, lambda_bar=0.0, sigma_n=0.03)
    cfg0 = _cfg(rm0, k_max=5)
    assert rvdist.coeff_bound(rm0, cfg0, 3) == 0.0
    assert rvdist.truncation_bound(rm0, cfg0, 0.5, 3) == 0.0
    with pytest.raises(DomainError):
        rvdist.coeff_bound(rm, cfg, -1)


def test_bound_preconditions():
    _, _, rm = make_instance(n_obs=20)
    for scale in (0.5, 0.4):  # beta_bar <= max alpha_bar / 2
        with pytest.raises(PreconditionError):
            rvdist.coeff_bound(
                rm, _cfg(rm, beta_bar=scale * float(np.max(rm.alpha_bar))), 1
            )


def _assert_dominated(rm, cfg, k_max=25):
    co = rvdist.coeffs(rm, ExpansionConfig(cfg.beta_bar, k_max))
    for k in range(k_max + 1):
        assert abs(co.c[k]) <= rvdist.coeff_bound(rm, cfg, k) * (1 + 1e-12)


# (sigma, kappa, N) of the default-quote error table in ROADMAP.md
BASELINE_ROWS = [(0.08, 1.5, 52), (0.005, 3.0, 252), (0.005, 0.5, 52), (0.05, 0.5, 252)]

# beta_bar / max alpha_bar of the off-default envelopes
BETA_SCALES = (0.8, 1.3)


def test_lemma_domination_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rm = random_iid_instance(rng)
        base = _cfg(rm, k_max=25)
        _assert_dominated(rm, base)
        # off-default envelopes inside the certified region: negative xi_i
        # (beta below max alpha, the ``a`` form) and a wider envelope
        for beta_scale in BETA_SCALES:
            cfg = _cfg(rm, beta_bar=beta_scale * base.beta_bar)
            _assert_dominated(rm, cfg)  # raises PreconditionError if uncertified
    # spectral instances: the drift is summed over the closed-form spectrum
    for sigma, kappa, n_obs in ((0.1, 0.5, 13), (0.05, 3.0, 52), (0.2, 0.1, 5), (0.005, 3.0, 20)):
        _, _, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
        _assert_dominated(rm, _cfg(rm))
        for beta_scale in BETA_SCALES:
            _assert_dominated(rm, _cfg(rm, beta_bar=beta_scale * float(np.max(rm.alpha_bar))))
    # the default K=3 vol-swap certificate covers the error against the
    # 60-digit series at the baseline rows
    for sigma, kappa, n_obs in BASELINE_ROWS:
        _, _, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
        quote = swaps.vol_swap_tv(rm)
        exact = float(options.LaguerreMoments(rm).moment_hp(0.5, 60))
        assert abs(quote.strike - exact) <= quote.error_bound


def test_truncation_bound_covers_series_tail():
    rng = np.random.default_rng(5)
    instances = [random_iid_instance(rng) for _ in range(20)]
    instances += [
        make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)[2]
        for sigma, kappa, n_obs in ((0.1, 0.5, 13), (0.05, 3.0, 52), (0.2, 1.0, 5))
    ]
    instances.append(constant_instance(eta=6, lambda_bar=5.0, sigma_n=0.03))  # zeta = 0
    for rm in instances:
        for ell in (0.5, 1.5, 2.5):
            for K in range(6):
                bound = rvdist.truncation_bound(rm, _cfg(rm, k_max=K), ell, K)
                assert measured_tail(rm, ell, K) <= bound


def test_truncation_bound_is_the_sum_of_coefficient_bounds():
    # scalar reference for the blocked log-space sum; the drift-dominated
    # instance (zeta ~ 0.86, S ~ 130) needs about 430 orders, more than a
    # first block sized from zeta alone (about 300)
    longest = 0
    for sigma, kappa, n_obs in ((0.1, 0.5, 13), (0.01, 3.0, 52)):
        _, _, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
        cfg = _cfg(rm, k_max=3)
        p = rm.nu / 2.0
        for ell, K in ((0.5, 3), (2.5, 0), (2.0, 1)):
            ref, k = 0.0, K + 1
            log_poch = sum(math.log(abs(m - ell)) for m in range(k))  # |(-ell)_k|
            while True:
                log_fac = (
                    ell * math.log(2.0 * cfg.beta_bar)
                    + log_poch
                    + math.lgamma(p + ell)
                    - math.lgamma(p + k)
                )
                term = math.exp(log_fac) * rvdist.coeff_bound(rm, cfg, k)
                ref += term
                if k == ell or term <= 1e-17 * ref:
                    break  # at k == ell the next Pochhammer factor is 0
                log_poch += math.log(abs(k - ell))
                k += 1
            longest = max(longest, k - K)
            assert rvdist.truncation_bound(rm, cfg, ell, K) == pytest.approx(ref, rel=1e-9)
    assert longest > 400


def test_truncation_bound_overflow_is_inf_not_error():
    # a corner whose tail summands overflow a float outside log space
    _, _, rm = make_instance(sigma=0.0479, kappa=3.969, n_obs=2000)
    cfg = _cfg(rm, k_max=3)
    bound = rvdist.truncation_bound(rm, cfg, 0.5, 3)
    assert bound > 0.0
    assert swaps.vol_swap_tv(rm, cfg).error_bound == bound
    # a tail too large for a float saturates to inf
    rm = alpha_delta_instance([1.0, 2.0], [5000.0, 5000.0])
    assert rvdist.truncation_bound(rm, _cfg(rm, k_max=3), 0.5, 3) == math.inf


def test_truncation_bound_monotone_in_K(example_instance):
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=3)
    bounds = [rvdist.truncation_bound(rm, cfg, 0.5, K) for K in range(6)]
    assert all(b > 0 for b in bounds)
    assert all(b1 < b0 for b0, b1 in zip(bounds, bounds[1:]))


def test_truncation_bound_integer_order_terminates(example_instance):
    # integer-order moment series terminate exactly, so the tail past K >= ell
    # is exactly zero
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=3)
    assert rvdist.truncation_bound(rm, cfg, 1.0, 2) == 0.0


def test_truncation_bound_validation(example_instance):
    _, _, rm = example_instance
    cfg = _cfg(rm, k_max=3)
    with pytest.raises(DomainError):
        rvdist.truncation_bound(rm, cfg, 0.5, -1)
    with pytest.raises(DomainError):
        rvdist.truncation_bound(rm, cfg, 0.0, 3)


# ---------------------------------------------------------------------------
# high-precision backend
# ---------------------------------------------------------------------------


def _hp_configs(rm, k_max):
    """The default config and the off-default envelopes of BETA_SCALES."""
    base = _cfg(rm, k_max=k_max)
    return [base] + [_cfg(rm, k_max=k_max, beta_bar=f * base.beta_bar) for f in BETA_SCALES]


def test_coeffs_hp_matches_float(example_instance):
    _, _, rm = example_instance
    for cfg in _hp_configs(rm, 10):
        co = rvdist.coeffs(rm, cfg)
        c_hp = rvdist.coeffs_hp(rm, cfg, 10, dps=40)
        for k in range(11):
            # both paths sum over the closed-form noncentralities, the hp one
            # in fixed point and the float one in double precision; both are
            # exact to double-precision rounding
            assert float(c_hp[k]) == pytest.approx(co.c[k], rel=1e-12, abs=1e-300)


def test_raw_moment_hp_matches_float(example_instance):
    _, _, rm = example_instance
    for cfg in _hp_configs(rm, 25):
        co = rvdist.coeffs(rm, cfg)
        c_hp = rvdist.coeffs_hp(rm, cfg, 80, dps=40)
        for ell in (0.5, 1.0, 2.0, 2.5):
            val, converged = rvdist.raw_moment_hp(rm, cfg, c_hp, ell, dps=40)
            assert converged
            ref = rvdist.raw_moment(rm, cfg, co, ell).value
            assert float(val) == pytest.approx(ref, rel=1e-12)


def _coeffs_reference(rm, cfg, k_max, dps=150):
    """c_0..c_{k_max} by the recurrence of ``_build``, with the power and
    noncentral sums formed one mpmath product at a time at ``dps`` digits."""
    with mpm.workdps(dps):
        beta = mpm.mpf(cfg.beta_bar)
        xi = [1 - mpm.mpf(a) / beta for a in rm.alpha_bar]
        w = [mpm.mpf(d) * mpm.mpf(a) for a, d in zip(rm.alpha_bar, rm.delta_bar)]
        power = [mpm.mpf(1)] * len(xi)
        d = [mpm.mpf(0)]
        for j in range(1, k_max + 1):
            u = mpm.fsum(wi * pi for wi, pi in zip(w, power))  # U_{j-1}
            power = [pi * x for pi, x in zip(power, xi)]
            d.append(mpm.fsum(power) / 2 - j / (2 * beta) * u)
        c = [mpm.mpf(1)]
        for k in range(1, k_max + 1):
            c.append(mpm.fsum(d[j] * c[k - j] for j in range(1, k + 1)) / k)
        return c


def _assert_hp_close(c_hp, ref, tol):
    assert len(c_hp) == len(ref)
    scale = max(1, max(abs(x) for x in ref))
    assert max(abs(x - y) for x, y in zip(c_hp, ref)) <= tol * scale


@pytest.mark.parametrize(
    "sigma,kappa,n_obs", [(0.08, 1.5, 252), (0.005, 3.0, 252), (0.2, 0.1, 52), (0.1, 0.5, 13)]
)
def test_coeffs_hp_high_order_accuracy(sigma, kappa, n_obs):
    # K=320 at 90 digits against a 150-digit reference, on the default
    # envelope, a narrower one and a wider one; beta_bar = 0.4 max alpha_bar
    # makes some xi_i < -1, so the powers grow
    _, _, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
    top = float(np.max(rm.alpha_bar))
    for scale in (0.4, 0.8, 1.3):
        cfg = _cfg(rm, beta_bar=scale * top)
        if scale == 0.4:
            assert np.min(1.0 - rm.alpha_bar / cfg.beta_bar) < -1.0
        c_hp = rvdist.coeffs_hp(rm, cfg, 320, dps=90)
        _assert_hp_close(c_hp, _coeffs_reference(rm, cfg, 320), 1e-87)


@pytest.mark.parametrize("sigma,kappa,n_obs", [(0.096522, 3.344507, 52), (0.064606, 1.12188, 252)])
def test_coeffs_hp_pool_accuracy_k640(sigma, kappa, n_obs):
    # the two pool instances the option tests pin, at K=640 and 90 digits
    # (the N=52 smile continues its list to K=590), against the 150-digit
    # reference
    _, _, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
    cfg = _cfg(rm)
    c_hp = rvdist.coeffs_hp(rm, cfg, 640, dps=90)
    _assert_hp_close(c_hp, _coeffs_reference(rm, cfg, 640), 1e-87)


def test_coeffs_hp_edges():
    for n_obs in (2, 3):
        _, _, rm = make_instance(n_obs=n_obs)
        for cfg in _hp_configs(rm, 25):
            for k_max in (0, 1, 25):
                c_hp = rvdist.coeffs_hp(rm, cfg, k_max, dps=60)
                _assert_hp_close(c_hp, _coeffs_reference(rm, cfg, k_max), 1e-57)
    _, _, rm = make_instance()
    cfg = _cfg(rm)
    for k_max in (0, 1):
        _assert_hp_close(
            rvdist.coeffs_hp(rm, cfg, k_max, dps=60), _coeffs_reference(rm, cfg, k_max), 1e-57
        )
    with pytest.raises(DomainError):
        rvdist.coeffs_hp(rm, cfg, -1, dps=60)


def test_coeffs_hp_prefix_is_stable():
    # LaguerreMoments continues its list rather than rebuild it, and relies
    # on the orders it already has keeping their values at a larger K
    _, _, rm = make_instance(n_obs=252)
    for cfg in _hp_configs(rm, 25):
        assert rvdist.coeffs_hp(rm, cfg, 80, 60)[:41] == rvdist.coeffs_hp(rm, cfg, 40, 60)


def test_coeffs_hp_continues_a_prefix():
    # LaguerreMoments continues its list by a quarter of its order at a time:
    # the orders each step adds must equal those of one build to the full
    # order, bit for bit
    _, _, rm = make_instance(sigma=0.08, kappa=1.5, n_obs=252)
    cfg = _cfg(rm)
    c_hp = rvdist.coeffs_hp(rm, cfg, 80, 90)
    while len(c_hp) <= 640:
        c_hp = rvdist.coeffs_hp(rm, cfg, min((len(c_hp) - 1) * 5 // 4, 640), 90, c_hp)
    assert len(c_hp) == 641
    assert c_hp == rvdist.coeffs_hp(rm, cfg, 640, 90)
    # a shorter list from a longer state is a fresh build's prefix, and the
    # state only continues at the precision it was built at
    assert rvdist.coeffs_hp(rm, cfg, 40, 90, c_hp) == rvdist.coeffs_hp(rm, cfg, 40, 90)
    with pytest.raises(DomainError):
        rvdist.coeffs_hp(rm, cfg, 700, 60, c_hp)


def test_raw_moment_hp_takes_any_iterable(example_instance):
    _, _, rm = example_instance
    cfg = _cfg(rm)
    c_hp = rvdist.coeffs_hp(rm, cfg, 80, dps=40)
    for ell in (0.5, 2.0, 2.5):
        value, converged = rvdist.raw_moment_hp(rm, cfg, c_hp, ell, dps=40)
        assert converged
        assert rvdist.raw_moment_hp(rm, cfg, iter(c_hp), ell, dps=40) == (value, True)
    # a fractional order runs out of five coefficients before it stagnates
    assert not rvdist.raw_moment_hp(rm, cfg, c_hp[:5], 0.5, dps=40)[1]


@pytest.mark.parametrize("sigma, kappa, n_obs, value", [
    (0.005, 3.0, 52, 1.6689080464016313),
    (0.005, 3.0, 252, 0.8747535297813672),
    (0.08, 1.5, 52, 7.96390247261765),
])
def test_raw_moment_hp_keeps_sums_with_digits_left(sigma, kappa, n_obs, value):
    # values recorded before the cancellation guard; the first loses 36 of
    # its 60 digits to cancellation and still holds 24
    _, _, rm = make_instance(sigma=sigma, kappa=kappa, n_obs=n_obs)
    assert float(options.LaguerreMoments(rm).moment_hp(0.5, 60)) == value


@pytest.mark.parametrize("kappa", [4.0, 5.0])
def test_raw_moment_hp_refuses_cancelled_sums(kappa):
    # at sigma=.005, N=52 the half-moment series cancels more than 40 of 60
    # digits: the sums it stagnated on were 8481.6 (kappa 4) and 1.09e28
    # (kappa 5), against 1.907293 and 2.117875
    _, _, rm = make_instance(sigma=0.005, kappa=kappa, n_obs=52)
    with pytest.raises(NoConvergence, match="cancellation leaves"):
        options.LaguerreMoments(rm).moment_hp(0.5, 60)


def test_raw_moment_hp_more_digits_survive_cancellation():
    _, _, rm = make_instance(sigma=0.005, kappa=4.0, n_obs=52)
    assert float(options.LaguerreMoments(rm).moment_hp(0.5, 80)) == 1.9072934383283935
