"""Monte Carlo oracle: exact-transition log-price simulation and estimators.

Paths use the exact Gaussian transition of the mean-reverting log price, so
there is no discretization bias: any disagreement with the analytic pricers
is pure sampling noise.  The log price is AR(1) about its reversion level
alpha, with phi = e^{-kappa dt} and one-step variance q = ``ou_variance(dt)``;
each path carries y = (x - alpha)/sqrt(q), and a step with a standard normal
z takes the return r = (phi - 1) y + z, y += r, so RV = q 100^2/T sum r^2.
Draws come from SFC64 generators keyed per stream, making runs a pure
function of (seed, n_streams) and bitwise reproducible.  Streams run on at
most one thread per core.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import Schedule, SchwartzParams, _one_step_variance

__all__ = [
    "McConfig",
    "McEstimate",
    "simulate_rv",
    "estimate_swap",
    "estimate_call",
]


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    seed: int
    n_streams: int = 1

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_streams < 1:
            raise DomainError(f"n_streams must be >= 1, got {self.n_streams}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int


def _stream_rv(
    params: SchwartzParams, schedule: Schedule, q: float, out: np.ndarray, seed: int, stream: int
) -> None:
    """Fill ``out`` with one stream's realized-variance samples, one per path."""
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )
    decay_m1 = math.expm1(-params.kappa * schedule.dt)

    # Each step is r = (phi - 1) y + z, y += r, out += r^2, in place over
    # three buffers of one stream's width; out takes the scale q 100^2/T last.
    y = np.full(out.size, (params.x0 - params.alpha) / math.sqrt(q))
    z = np.empty(out.size)
    r = np.empty(out.size)
    out.fill(0.0)
    for _ in range(schedule.n_obs - 1):
        rng.standard_normal(out=z)
        np.multiply(y, decay_m1, out=r)
        r += z
        y += r
        np.square(r, out=r)
        out += r
    out *= q * 100.0**2 / schedule.horizon


def simulate_rv(params: SchwartzParams, schedule: Schedule, mc: McConfig) -> np.ndarray:
    """Sample realized-variance values over n_paths exact-transition paths.

    Paths are partitioned across streams (extra paths go to the earliest
    streams) and each stream fills its own slice of the output in stream
    order, so output is bitwise reproducible for a given (seed, n_streams)
    whatever the thread count.  A one-step variance that is not a normal
    positive float is refused before any stream starts.
    """
    q = _one_step_variance(params, schedule.dt)
    out = np.empty(mc.n_paths)
    views = np.array_split(out, mc.n_streams)
    tasks = [(s, view) for s, view in enumerate(views) if view.size]
    with ThreadPoolExecutor(max_workers=min(len(tasks), os.cpu_count() or 1)) as pool:
        list(pool.map(lambda t: _stream_rv(params, schedule, q, t[1], mc.seed, t[0]), tasks))
    return out


def _estimate(vals: np.ndarray) -> McEstimate:
    n = vals.size
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=float(np.mean(vals)), std_error=se, n=n)


def estimate_swap(samples: np.ndarray, rho: float) -> McEstimate:
    """Mean and standard error of RV^rho over the sample set."""
    return _estimate(np.asarray(samples, dtype=float) ** rho)


def estimate_call(
    samples: np.ndarray, rho: float, strike: float, discount: float = 1.0
) -> McEstimate:
    """Discounted mean and standard error of the payoff (RV^rho - K)^+."""
    return _estimate(discount * np.maximum(np.asarray(samples, dtype=float) ** rho - strike, 0.0))
