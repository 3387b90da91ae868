"""The four benchmark workloads: seeded input selection, one request each,
and the check of every result against the stored references.

Each workload draws its instances from a stored pool (``refs/<name>.json``,
built by ``refs.py``) with ``random.Random(seed)``, so a seed fixes the inputs
and the references were computed before any timed region.  The library sees
only the generated inputs.

A request is what one caller waits for: one swap quote pair, one smile of
option prices on a fresh ``LaguerreMoments``, or one CLI call.  It yields one
result per priced quantity (one per smile strike, otherwise one), and each
result is checked on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Relative tolerance for exact references (swap strikes); calls use
# REL_TOL * E[RV^rho] as an absolute tolerance; Monte Carlo references use
# MC_SIGMAS standard errors instead.
REL_TOL = 1e-6
MC_SIGMAS = 4.0

S0, MU = 2.0, 0.6
MC_PATHS = 100_000
MC_STREAMS = 2

# Per workload: the cycle of N values, and how many instances of each N a run
# takes from the pool.  The cycle gives each latency mode a fixed share, so a
# median falls inside a mode rather than between two.  One pass over a sample
# takes at most about half a 25 s run, so every run checks its whole sample.
PLAN = {
    "swap_daily": {"cycle": (52, 252, 252), "take": {52: 48, 252: 96}},
    "swap_intraday": {"cycle": (1000, 2000, 5000), "take": {1000: 9, 2000: 9, 5000: 9}},
    "option_smile": {"cycle": (52, 252, 252), "take": {52: 6, 252: 12}},
    "cli_validate": {"cycle": (52, 252, 252), "take": {52: 8, 252: 16}},
}


def load_pool(name: str) -> list[dict]:
    return json.loads((REFS_DIR / f"{name}.json").read_text())


def select(name: str, pool: list[dict], seed: int) -> list[dict]:
    """The run's instances in order.

    For each N the pool (less the ROADMAP baseline rows, which ``swap_daily``
    always includes) is sorted by kappa and cut into equal strata, and one
    instance is drawn from each: kappa drives both cost and failures, so
    stratifying keeps runs with different seeds comparable.  The samples are
    shuffled and interleaved by the N cycle; ``cli_validate`` also draws a CLI
    seed per instance.
    """
    rng = random.Random(seed)
    plan = PLAN[name]
    queues = {}
    for n_obs, count in plan["take"].items():
        picked = [i for i in pool if i["N"] == n_obs and i.get("baseline")]
        rest = sorted((i for i in pool if i["N"] == n_obs and not i.get("baseline")),
                      key=lambda i: i["kappa"])
        strata = count - len(picked)
        for s in range(strata):
            picked.append(rng.choice(rest[s * len(rest) // strata:(s + 1) * len(rest) // strata]))
        rng.shuffle(picked)
        queues[n_obs] = picked
    order = []
    while any(queues.values()):
        for n_obs in plan["cycle"]:
            if queues[n_obs]:
                order.append(dict(queues[n_obs].pop()))
    if name == "cli_validate":
        for inst in order:
            inst["seed"] = rng.randrange(2**31)
            inst["paths"] = MC_PATHS
    return order


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def _finite_within(bound, tol) -> bool:
    return bound is not None and math.isfinite(bound) and bound <= tol


def check_swap(inst: dict, vol, var) -> tuple[bool, bool]:
    """(within tolerance, false certificate) for a vol and a var quote.

    ``vol``/``var`` are (strike, error_bound).  A quote is certified when the
    library attached a finite error bound within the tolerance; a certified
    quote outside the tolerance is a false certificate.
    """
    ok, lie = True, False
    for (value, bound), ref, se in ((vol, inst["vol"], inst.get("vol_se", 0.0)),
                                    (var, inst["var"], 0.0)):
        tol = MC_SIGMAS * se if se > 0 else REL_TOL * abs(ref)
        good = abs(value - ref) <= tol
        ok = ok and good
        lie = lie or (not good and _finite_within(bound, REL_TOL * abs(ref)))
    return ok, lie


def check_call(inst: dict, leg: dict, value: float) -> bool:
    if leg["se"] > 0:
        return abs(value - leg["ref"]) <= MC_SIGMAS * leg["se"]
    scale = inst["var"] if leg["rho"] == 1.0 else inst["vol"]
    return abs(value - leg["ref"]) <= REL_TOL * scale


def outcome_of(exc: BaseException) -> str:
    return f"raised:{type(exc).__name__}"


@dataclass
class Request:
    """Timed seconds of the whole request and of its first result, and each
    result's (outcome, false certificate)."""

    seconds: float = 0.0
    first_seconds: float = 0.0
    results: list = field(default_factory=list)


# --------------------------------------------------------------------------
# Requests.  Only the library calls are timed; the checks run outside.
# --------------------------------------------------------------------------

class Workload:
    def __init__(self, name: str):
        from volswap import cli, model, options, swaps

        # Layer functions are looked up on their modules at call time, so the
        # traced run's wrappers are the ones called.
        self._cli, self._model, self._options, self._swaps = cli, model, options, swaps
        self.run = {"swap_daily": self._swap, "swap_intraday": self._swap,
                    "option_smile": self._option_smile, "cli_validate": self._cli_validate}[name]

    def _moments(self, inst):
        m = self._model
        params = m.SchwartzParams(s0=S0, mu=MU, sigma=inst["sigma"], kappa=inst["kappa"])
        return m.return_moments(params, m.Schedule(t1=0.0, horizon=1.0, n_obs=inst["N"]))

    def _swap(self, inst) -> Request:
        t0 = time.perf_counter()
        try:
            rm = self._moments(inst)
            vol = self._swaps.vol_swap_tv(rm)
            var = self._swaps.var_swap_tv(rm)
        except Exception as exc:  # every failure class is an outcome
            elapsed = time.perf_counter() - t0
            return Request(elapsed, elapsed, [(outcome_of(exc), False)])
        elapsed = time.perf_counter() - t0
        ok, lie = check_swap(inst, (vol.strike, vol.error_bound), (var.strike, var.error_bound))
        return Request(elapsed, elapsed, [("ok" if ok else "wrong", lie)])

    def _option_smile(self, inst) -> Request:
        """A fresh LaguerreMoments, then variance calls (the first strike pays
        the arbitrary-precision coefficient build), then volatility calls (the
        first pays the fractional-moment extension)."""
        req = Request()
        lm = None
        for leg in inst["strikes"]:
            t0 = time.perf_counter()
            try:
                if lm is None:
                    lm = self._options.LaguerreMoments(self._moments(inst))
                spec = self._options.OptionSpec(rho=leg["rho"], strike=leg["strike"])
                value = self._options.call_price(spec, lm).value
            except Exception as exc:  # every failure class is an outcome
                elapsed = time.perf_counter() - t0
                req.results.append((outcome_of(exc), False))
            else:
                elapsed = time.perf_counter() - t0
                good = check_call(inst, leg, value)
                # A returned price claims a converged series.
                req.results.append(("ok" if good else "wrong", not good))
            if len(req.results) == 1:
                req.first_seconds = elapsed
            req.seconds += elapsed
        return req

    def _cli_validate(self, inst) -> Request:
        argv = ["price", "--contract", inst["contract"], "--sigma", repr(inst["sigma"]),
                "--kappa", repr(inst["kappa"]), "--N", str(inst["N"]),
                "--validate-mc", str(inst["paths"]), "--seed", str(inst["seed"]),
                "--streams", str(MC_STREAMS), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._cli.main(argv)
        except Exception as exc:  # every failure class is an outcome
            elapsed = time.perf_counter() - t0
            return Request(elapsed, elapsed, [(outcome_of(exc), False)])
        elapsed = time.perf_counter() - t0
        if code != 0:
            return Request(elapsed, elapsed, [(f"raised:exit{code}", False)])
        res = json.loads(out.getvalue())
        ref = inst["vol" if inst["contract"] == "vol-swap" else "var"]
        good_price = abs(res["value"] - ref) <= REL_TOL * abs(ref)
        good_mc = abs(res["mc_mean"] - ref) <= MC_SIGMAS * res["mc_se"]
        lie = not good_price and _finite_within(res["bound"], REL_TOL * abs(ref))
        return Request(elapsed, elapsed, [("ok" if good_price and good_mc else "wrong", lie)])

    def warm_up(self, pool: list[dict]) -> None:
        """One untimed request on the pool's first instance (its first strike
        only, for a smile)."""
        inst = dict(pool[0], seed=1, paths=MC_PATHS)
        if "strikes" in inst:
            inst["strikes"] = inst["strikes"][:1]
        self.run(inst)
