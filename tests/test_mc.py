import math
from unittest import mock

import numpy as np
import pytest

from volswap import mc
from volswap.errors import DomainError
from volswap.model import Schedule, SchwartzParams


def _setup(sigma=0.1, n_obs=13, seed=42):
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=sigma, kappa=0.5)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=n_obs)
    return params, schedule


def test_config_validation():
    with pytest.raises(DomainError):
        mc.McConfig(n_paths=0, seed=1)
    with pytest.raises(DomainError):
        mc.McConfig(n_paths=10, seed=1, n_streams=0)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        mc.McConfig(n_paths=10, seed=-1)


def test_bitwise_determinism():
    params, schedule = _setup()
    cfg = mc.McConfig(n_paths=5_000, seed=99)
    a = mc.simulate_rv(params, schedule, cfg)
    b = mc.simulate_rv(params, schedule, cfg)
    assert np.array_equal(a, b)


def test_near_zero_vol_is_deterministic_drift():
    # sigma -> 0: each increment collapses to its mean, so RV approaches
    # the deterministic drift contribution sum(mu_bar^2) * 100^2 / T
    from volswap.model import return_moments

    params, schedule = _setup(sigma=1e-10)
    rm = return_moments(params, schedule)
    target = float(np.sum(rm.mu_bar**2)) * 100.0**2 / schedule.horizon
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100, seed=3))
    assert np.all(np.abs(samples / target - 1.0) < 1e-6)


def test_underflowing_step_variance_refused_before_streams(monkeypatch):
    params, schedule = _setup(sigma=1e-160)
    monkeypatch.setattr(mc, "_stream_rv", lambda *a: pytest.fail("a stream started"))
    with pytest.raises(DomainError, match="one-step variance"):
        mc.simulate_rv(params, schedule, mc.McConfig(n_paths=100, seed=3))


def test_two_point_mean_matches_moments():
    from volswap.model import return_moments

    params, schedule = _setup(n_obs=2)
    rm = return_moments(params, schedule)
    target = float(rm.alpha_bar[0] * (1.0 + rm.delta_bar[0]))
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=200_000, seed=17))
    est = mc.estimate_swap(samples, 1.0)
    assert abs(est.mean - target) < 4.0 * est.std_error


def test_estimate_swap_constant_samples():
    est = mc.estimate_swap(np.full(50, 7.0), 1.0)
    assert est.mean == 7.0
    assert est.std_error == 0.0
    assert est.n == 50


def test_std_error_scaling():
    params, schedule = _setup()
    small = mc.estimate_swap(
        mc.simulate_rv(params, schedule, mc.McConfig(n_paths=20_000, seed=5)), 1.0
    )
    large = mc.estimate_swap(
        mc.simulate_rv(params, schedule, mc.McConfig(n_paths=80_000, seed=5)), 1.0
    )
    assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.2)


def test_estimate_call_limits():
    samples = np.array([1.0, 4.0, 9.0])
    zero_strike = mc.estimate_call(samples, 0.5, 1e-300)
    assert zero_strike.mean == pytest.approx(2.0, rel=1e-12)  # E[sqrt(RV)]
    huge = mc.estimate_call(samples, 1.0, 1e12)
    assert huge.mean == 0.0
    disc = mc.estimate_call(samples, 1.0, 2.0, discount=0.5)
    assert disc.mean == pytest.approx(0.5 * np.mean(np.maximum(samples - 2.0, 0.0)))


def test_stream_partition_statistically_consistent():
    params, schedule = _setup()
    one = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=40_000, seed=8, n_streams=1))
    four = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=40_000, seed=8, n_streams=4))
    e1 = mc.estimate_swap(one, 1.0)
    e4 = mc.estimate_swap(four, 1.0)
    assert abs(e1.mean - e4.mean) < 4.0 * math.hypot(e1.std_error, e4.std_error)


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    sizes: list = []

    def __init__(self, max_workers):
        _SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_thread_cap_does_not_change_output():
    params, schedule = _setup()
    cfg = mc.McConfig(n_paths=8_000, seed=21, n_streams=4)
    base = mc.simulate_rv(params, schedule, cfg)
    for cores in (1, 8):
        with mock.patch.object(mc.os, "cpu_count", return_value=cores):
            assert np.array_equal(mc.simulate_rv(params, schedule, cfg), base)


def test_max_workers_defaults_to_core_count():
    params, schedule = _setup(n_obs=3)
    _SerialPool.sizes = []
    with mock.patch.object(mc, "ThreadPoolExecutor", _SerialPool):
        for cores, n_streams in ((2, 8), (2, 1), (None, 8)):
            with mock.patch.object(mc.os, "cpu_count", return_value=cores):
                cfg = mc.McConfig(n_paths=40, seed=4, n_streams=n_streams)
                mc.simulate_rv(params, schedule, cfg)
    assert _SerialPool.sizes == [2, 1, 1]


def test_many_streams_ask_for_core_count_workers():
    params, schedule = _setup(n_obs=3)
    cfg = mc.McConfig(n_paths=40, seed=4, n_streams=20)
    base = mc.simulate_rv(params, schedule, cfg)
    _SerialPool.sizes = []
    with mock.patch.object(mc.os, "cpu_count", return_value=2), \
            mock.patch.object(mc, "ThreadPoolExecutor", _SerialPool):
        pooled = mc.simulate_rv(params, schedule, cfg)
    assert _SerialPool.sizes == [2]
    assert np.array_equal(base, pooled)


@pytest.mark.parametrize("n_paths,n_streams", [(7, 3), (2, 5)])
def test_uneven_partition(n_paths, n_streams):
    params, schedule = _setup()
    cfg = mc.McConfig(n_paths=n_paths, seed=13, n_streams=n_streams)
    base = mc.simulate_rv(params, schedule, cfg)
    assert base.shape == (n_paths,)
    assert np.all(np.isfinite(base)) and np.all(base > 0)
    assert np.unique(base).size == n_paths
    for cores in (1, 2, 8):
        with mock.patch.object(mc.os, "cpu_count", return_value=cores):
            assert np.array_equal(mc.simulate_rv(params, schedule, cfg), base)


@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("n_obs", [53, 253])
def test_first_two_moments_match_exact_cumulants(n_obs, drift):
    # RV = sum_i alpha_bar_i chi2_1(delta_bar_i) has exact cumulants
    # k_j = 2^(j-1) (j-1)! sum_i alpha_bar_i^j (1 + j delta_bar_i); k_4 sets
    # the standard error of the sample variance.
    from volswap.model import return_moments

    alpha = 0.6 - 0.08**2 / (2.0 * 1.5)
    s0 = 2.0 if drift else math.exp(alpha)
    params = SchwartzParams(s0=s0, mu=0.6, sigma=0.08, kappa=1.5)
    assert math.isclose(params.alpha, alpha)
    schedule = Schedule(t1=0.0, horizon=1.0, n_obs=n_obs)
    rm = return_moments(params, schedule)
    a, d = rm.alpha_bar, rm.delta_bar
    if drift:
        assert float(np.max(d)) > 1e-3
    else:
        assert float(np.max(d)) < 1e-20
    k2 = 2.0 * float(np.sum(a**2 * (1.0 + 2.0 * d)))
    k4 = 48.0 * float(np.sum(a**4 * (1.0 + 4.0 * d)))

    n = 40_000
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=n, seed=11, n_streams=2))
    mean_se = math.sqrt(k2 / n)
    var_se = math.sqrt(k4 / n + 2.0 * k2**2 / (n - 1))
    assert abs(float(np.mean(samples)) - rm.rv_mean()) < 4.0 * mean_se
    assert abs(float(np.var(samples, ddof=1)) - k2) < 4.0 * var_se
