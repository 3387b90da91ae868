"""mpmath is imported on the first arbitrary-precision call, not with the
package, and scipy and the benchmark harness never are.  These tests run in a
fresh interpreter, because the test modules import mpmath and scipy
themselves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import volswap

# Values the suite pins elsewhere: test_options.test_pinned_var_call_n52 and
# sqrt(2) sqrt(pi)/2 from test_swaps.test_vol_central_trivial.
PINNED_CALL = 26.35730789362892
PINNED_CENTRAL = 1.2533141373155003

_PRELUDE = """
import json, sys
import volswap, volswap.cli, volswap.options
from volswap import cli, options, rvdist, swaps
from volswap.model import Schedule, SchwartzParams, return_moments

def provider():
    params = SchwartzParams(s0=2.0, mu=0.6, sigma=0.096522, kappa=3.344507)
    rm = return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=52))
    return options.LaguerreMoments(rm)

SPEC = options.OptionSpec(rho=1.0, strike=66.65867979246397)

def _foreign():  # the loaded modules of scipy and perfbench, which the library never needs
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "perfbench"))
"""

_SWAP_PATH = _PRELUDE + """
params = SchwartzParams(s0=2.0, mu=0.6, sigma=0.1, kappa=0.5)
for n_obs in (52, 252, 1000):
    rm = return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=n_obs))
    swaps.vol_swap_tv(rm)
    swaps.var_swap_tv(rm)
code = cli.main(["price", "--contract", "vol-swap", "--validate-mc", "200",
                 "--streams", "2", "--format", "json"])
loaded_before = "mpmath" in sys.modules
if sys.argv[1] == "call_price":
    value = options.call_price(SPEC, provider()).value
else:
    value = swaps.vol_swap_central(2, 0.01, 1.0).strike
import mpmath
print(json.dumps({
    "code": code,
    "loaded_before": loaded_before,
    "foreign": _foreign(),
    "value": value,
    "options_rebound": options.mpm is mpmath,
    "rvdist_rebound": rvdist.mpm is mpmath,
}))
"""

_FIRST_USE_RACE = _PRELUDE + """
import threading

n = 4
providers = [provider() for _ in range(n)]
loaded_before = "mpmath" in sys.modules
barrier = threading.Barrier(n)
results = [None] * n

def first_call(i):
    barrier.wait()
    results[i] = options.call_price(SPEC, providers[i]).value

old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    alive = [t.is_alive() for t in threads]
finally:
    sys.setswitchinterval(old)
serial = options.call_price(SPEC, provider()).value
print(json.dumps({"loaded_before": loaded_before, "alive": alive,
                  "results": results, "serial": serial, "foreign": _foreign()}))
"""


def _run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter and parse its last output line."""
    env = dict(os.environ, PYTHONPATH=str(Path(volswap.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=300, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_mpmath_unloaded():
    result = _run_fresh(_PRELUDE + "print(json.dumps(['mpmath' in sys.modules, _foreign()]))")
    assert result == [False, []]


@pytest.mark.parametrize("first_call, pinned, rvdist_rebound", [
    ("call_price", PINNED_CALL, True),
    ("vol_swap_central", PINNED_CENTRAL, False),
])
def test_swap_quotes_and_mc_never_load_mpmath(first_call, pinned, rvdist_rebound):
    result = _run_fresh(_SWAP_PATH, first_call)
    assert result["code"] == 0
    assert result["loaded_before"] is False
    assert result["foreign"] == []
    assert result["value"] == pinned
    assert result["options_rebound"] is True
    assert result["rvdist_rebound"] is rvdist_rebound


def test_concurrent_first_use_matches_serial():
    result = _run_fresh(_FIRST_USE_RACE)
    assert result["loaded_before"] is False
    assert result["foreign"] == []
    assert not any(result["alive"])
    assert result["serial"] == PINNED_CALL
    assert result["results"] == [result["serial"]] * 4
