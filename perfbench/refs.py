"""Independent reference values for the benchmark, and the script that stores them.

Nothing here imports ``volswap``: the references are rebuilt from the model's
definition with numpy and scipy only, so they can judge the library.

Model: the log price X follows an Ornstein-Uhlenbeck process reverting to
alpha = mu - sigma^2/(2 kappa) at speed kappa, known at the first observation.
Realized variance RV = (100^2/T) sum_i r_i^2 over the n_obs - 1 log returns r,
a Gaussian vector, so RV is a quadratic form in Gaussians:

* E[RV] has a closed form from the OU mean and covariance (O(n));
* with Sigma_r = Q diag(lam) Q^T, RV = sum_j w_j (Z_j + b_j)^2, whose Laplace
  transform M(s) = prod_j (1 + 2 s w_j)^(-1/2) exp(-s sum_j a_j/(1 + 2 s w_j))
  and characteristic function are closed forms (w = c lam, a = c (Q^T mu)^2);
* E[RV^l] = l/Gamma(1-l) int_0^inf (1 - M(s)) s^(-l-1) ds for 0 < l < 1;
* E(RV - K)^+ = (E[RV] - K + E|RV - K|)/2 with
  E|RV - K| = (2/pi) int_0^inf (1 - Re phi(u) e^{-iuK}) / u^2 du;
* where a dense eigendecomposition is impractical (n > 2000) or no smooth
  transform formula is used (volatility calls), exact-transition Monte Carlo at
  a fixed seed with control variates, reported with its standard error.

Run ``python3 perfbench/refs.py`` from the repository root to rebuild the
stored pools in ``perfbench/refs/`` (``--workload`` limits it to one pool).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Market constants shared by every instance (the CLI defaults).
S0, MU, HORIZON = 2.0, 0.6, 1.0

# ROADMAP baseline: (sigma, kappa, N) -> E[sqrt(RV)] from the 60-digit series.
BASELINE = [
    ((0.08, 1.5, 52), 7.963902),
    ((0.005, 3.0, 252), 0.874754),
    ((0.005, 0.5, 52), 0.717085),
    ((0.05, 0.5, 252), 4.996724),
]

DENSE_MAX_N = 2000
MC_PATHS = 100_000
MC_CHUNK = 10_000


# --------------------------------------------------------------------------
# Model moments
# --------------------------------------------------------------------------

def _grid(sigma, kappa, n_obs):
    """Means and variances of X at the grid times, and the step decay."""
    dt = HORIZON / (n_obs - 1)
    tau = dt * np.arange(n_obs)
    alpha = MU - sigma**2 / (2.0 * kappa)
    decay = np.exp(-kappa * tau)
    mean = decay * math.log(S0) + (1.0 - decay) * alpha
    var = sigma**2 / (2.0 * kappa) * -np.expm1(-2.0 * kappa * tau)
    return mean, var, math.exp(-kappa * dt)


def rv_mean(sigma, kappa, n_obs):
    """E[RV] = (100^2/T) sum_i (Var r_i + (E r_i)^2), all from OU formulas."""
    mean, var, phi = _grid(sigma, kappa, n_obs)
    r_mean = np.diff(mean)
    r_var = var[1:] + var[:-1] - 2.0 * phi * var[:-1]
    return 100.0**2 / HORIZON * float(np.sum(r_var + r_mean**2))


def spectrum(sigma, kappa, n_obs):
    """(w, a): RV = sum_j w_j (Z_j + b_j)^2 with a_j = w_j b_j^2, from a dense
    eigendecomposition of the return covariance."""
    mean, var, _ = _grid(sigma, kappa, n_obs)
    tau = HORIZON / (n_obs - 1) * np.arange(n_obs)
    cov_x = np.minimum.outer(var, var) * np.exp(-kappa * np.abs(tau[:, None] - tau[None, :]))
    # r_i = X_i - X_{i-1}, so Cov(r) is the second difference of Cov(X).
    cov_r = cov_x[1:, 1:] - cov_x[1:, :-1] - cov_x[:-1, 1:] + cov_x[:-1, :-1]
    lam, q = np.linalg.eigh(cov_r)
    c = 100.0**2 / HORIZON
    return c * np.maximum(lam, 0.0), c * (q.T @ np.diff(mean)) ** 2


# --------------------------------------------------------------------------
# Transform inversion
# --------------------------------------------------------------------------

def _one_minus_laplace(s, w, a):
    log_m = -0.5 * np.sum(np.log1p(2.0 * s * w)) - s * np.sum(a / (1.0 + 2.0 * s * w))
    return -math.expm1(log_m)


def frac_moment(w, a, ell):
    """E[RV^ell], 0 < ell < 1, by inverting the Laplace transform."""
    m1 = float(np.sum(w + a))
    # s = e^u / m1 keeps the integrand O(1) around u = 0.
    f = lambda u: _one_minus_laplace(math.exp(u) / m1, w, a) * math.exp(-ell * u)  # noqa: E731
    lo, hi = -60.0 / (1.0 - ell), 60.0 / ell
    val, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500, points=[0.0])
    return ell / math.gamma(1.0 - ell) * m1**ell * val


def var_call(w, a, strike):
    """E(RV - K)^+ by inverting the characteristic function."""
    m1 = float(np.sum(w + a))
    wn, an, k = w / m1, a / m1, strike / m1  # RV/m1 has mean 1

    def one_minus_re(t):
        # 1 - Re(phi(t) e^{-itk}) = -expm1(R) + 2 e^R sin^2(I/2), with R and I
        # the real and imaginary parts of log(phi(t) e^{-itk}); no cancellation
        # as t -> 0.
        q = 1.0 + 4.0 * t * t * wn * wn
        re = -0.25 * np.sum(np.log1p(4.0 * t * t * wn * wn)) - 2.0 * t * t * np.sum(wn * an / q)
        im = 0.5 * np.sum(np.arctan(2.0 * t * wn)) + t * np.sum(an / q) - t * k
        return -math.expm1(re) + 2.0 * math.exp(re) * math.sin(0.5 * im) ** 2

    # |phi| <= prod (1 + 4 t^2 w^2)^(-1/4); stop where it is negligible.
    top = 1.0
    while math.exp(-0.25 * np.sum(np.log1p(4.0 * top**2 * wn**2))) > 1e-17:
        top *= 2.0
    val, _ = integrate.quad(
        lambda t: one_minus_re(t) / (t * t), 0.0, top, epsabs=1e-13, epsrel=1e-13, limit=2000
    )
    abs_dev = 2.0 / math.pi * (val + 1.0 / top)
    return m1 * 0.5 * (1.0 - k + abs_dev)


# --------------------------------------------------------------------------
# Monte Carlo
# --------------------------------------------------------------------------

def _mc_samples_quadform(w, a, n_paths, seed):
    rng = np.random.default_rng(seed)
    sw, sa = np.sqrt(w), np.sqrt(a)
    out = np.empty(n_paths)
    for i in range(0, n_paths, MC_CHUNK):
        z = rng.standard_normal((min(MC_CHUNK, n_paths - i), w.size))
        out[i:i + z.shape[0]] = np.sum((z * sw + sa) ** 2, axis=1)
    return out


def _mc_samples_paths(sigma, kappa, n_obs, n_paths, seed):
    """Exact AR(1) transitions of the log price, path by path in chunks."""
    rng = np.random.default_rng(seed)
    dt = HORIZON / (n_obs - 1)
    phi = math.exp(-kappa * dt)
    alpha = MU - sigma**2 / (2.0 * kappa)
    sd = math.sqrt(sigma**2 / (2.0 * kappa) * -math.expm1(-2.0 * kappa * dt))
    out = np.empty(n_paths)
    for i in range(0, n_paths, MC_CHUNK):
        m = min(MC_CHUNK, n_paths - i)
        x = np.full(m, math.log(S0))
        acc = np.zeros(m)
        for _ in range(n_obs - 1):
            step = (phi - 1.0) * (x - alpha) + sd * rng.standard_normal(m)
            acc += step * step
            x += step
        out[i:i + m] = 100.0**2 / HORIZON * acc
    return out


def cv_mean(y, controls):
    """Control-variate estimate of E[y] and its standard error.

    ``controls`` maps each control sample array to its known mean.
    """
    x = np.column_stack([c - mean for c, mean in controls])
    design = np.column_stack([np.ones(y.size), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    se = float(np.std(resid, ddof=design.shape[1]) / math.sqrt(y.size))
    return float(coef[0]), se


# --------------------------------------------------------------------------
# Pools of instances with references
# --------------------------------------------------------------------------

def _draw_params(rng, sigma_range, log_sigma):
    lo, hi = sigma_range
    sigma = math.exp(rng.uniform(math.log(lo), math.log(hi))) if log_sigma else rng.uniform(lo, hi)
    kappa = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
    return round(sigma, 6), round(kappa, 6)


def swap_refs(sigma, kappa, n_obs, seed):
    """Vol and var swap references; MC (with E[RV] as control) past DENSE_MAX_N."""
    ref = {"var": rv_mean(sigma, kappa, n_obs)}
    if n_obs <= DENSE_MAX_N:
        w, a = spectrum(sigma, kappa, n_obs)
        ref["vol"], ref["vol_se"] = frac_moment(w, a, 0.5), 0.0
    else:
        x = _mc_samples_paths(sigma, kappa, n_obs, MC_PATHS, seed)
        ref["vol"], ref["vol_se"] = cv_mean(np.sqrt(x), [(x, ref["var"])])
    return ref


def smile_refs(sigma, kappa, n_obs, var_m, vol_m, seed):
    """Variance calls by transform inversion; volatility calls by Monte Carlo
    with sqrt(RV) and RV as controls."""
    w, a = spectrum(sigma, kappa, n_obs)
    ev, evol = float(np.sum(w + a)), frac_moment(w, a, 0.5)
    x = _mc_samples_quadform(w, a, MC_PATHS, seed)
    root = np.sqrt(x)
    strikes = []
    for m in var_m:
        k = m * ev
        strikes.append({"rho": 1.0, "strike": k, "ref": var_call(w, a, k), "se": 0.0})
    for m in vol_m:
        k = m * evol
        val, se = cv_mean(np.maximum(root - k, 0.0), [(root, evol), (x, ev)])
        strikes.append({"rho": 0.5, "strike": k, "ref": val, "se": se})
    return {"var": ev, "vol": evol, "strikes": strikes}


def build_pool(name, rng):
    """Instances of one workload with their references (see README.md)."""
    pool = []
    if name == "swap_daily":
        for (sigma, kappa, n_obs), _ in BASELINE:
            pool.append({"sigma": sigma, "kappa": kappa, "N": n_obs, "baseline": True})
        for n_obs, count in ((52, 60), (252, 150)):
            for _ in range(count):
                sigma, kappa = _draw_params(rng, (0.005, 0.2), log_sigma=True)
                pool.append({"sigma": sigma, "kappa": kappa, "N": n_obs})
        for inst in pool:
            inst.update(swap_refs(inst["sigma"], inst["kappa"], inst["N"], 0))
    elif name == "swap_intraday":
        for n_obs in (1000, 2000, 5000):
            for _ in range(30):
                sigma, kappa = _draw_params(rng, (0.005, 0.2), log_sigma=True)
                inst = {"sigma": sigma, "kappa": kappa, "N": n_obs}
                inst.update(swap_refs(sigma, kappa, n_obs, int(rng.integers(2**31))))
                pool.append(inst)
    elif name == "option_smile":
        for n_obs in (52, 252):
            for _ in range(30):
                sigma, kappa = _draw_params(rng, (0.03, 0.12), log_sigma=False)
                var_m = np.sort(rng.uniform(0.25, 2.0, 12)).round(4)
                vol_m = np.sort(rng.uniform(0.75, 1.25, 3)).round(4)
                inst = {"sigma": sigma, "kappa": kappa, "N": n_obs}
                inst.update(smile_refs(sigma, kappa, n_obs, var_m, vol_m, int(rng.integers(2**31))))
                pool.append(inst)
    elif name == "cli_validate":
        for n_obs in (52, 252):
            for contract in ("vol-swap", "var-swap"):
                for _ in range(20):
                    sigma, kappa = _draw_params(rng, (0.03, 0.12), log_sigma=False)
                    inst = {"sigma": sigma, "kappa": kappa, "N": n_obs, "contract": contract}
                    inst.update(swap_refs(sigma, kappa, n_obs, 0))
                    pool.append(inst)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return pool


# Fixed generator seeds: the stored pools never change unless rebuilt on purpose.
POOL_SEEDS = {"swap_daily": 101, "swap_intraday": 102, "option_smile": 103, "cli_validate": 104}


def check_baseline():
    """Largest gap between the transform-inversion vol strikes and the ROADMAP's
    60-digit values, which are given to 6 decimals."""
    worst = 0.0
    for (sigma, kappa, n_obs), expected in BASELINE:
        w, a = spectrum(sigma, kappa, n_obs)
        got = frac_moment(w, a, 0.5)
        print(f"sigma={sigma} kappa={kappa} N={n_obs}: {got:.9f} (ROADMAP {expected})")
        worst = max(worst, abs(got - expected))
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(POOL_SEEDS), action="append")
    args = ap.parse_args(argv)
    worst = check_baseline()
    print(f"largest gap to the 6-decimal 60-digit values: {worst:.2e}")
    if worst > 5e-7:
        return 1
    REFS_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(POOL_SEEDS):
        t0 = time.perf_counter()
        pool = build_pool(name, np.random.default_rng(POOL_SEEDS[name]))
        path = REFS_DIR / f"{name}.json"
        path.write_text(json.dumps(pool, indent=1) + "\n")
        print(f"{name}: {len(pool)} instances in {time.perf_counter() - t0:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
