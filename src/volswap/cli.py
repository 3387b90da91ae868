"""Command-line front end.

Subcommands::

    volswap price        one swap/option quote (optionally MC-validated)
    volswap pdf          tabulate the realized-variance density
    volswap bound-table  truncation-error bound table over a parameter grid
    volswap reproduce    emit the data sets behind the reference figures/table

Output is CSV (default) or JSON; CSV carries a ``#``-prefixed metadata block
(parameters, seed, config hash, version) and 17-significant-digit values.
Exit codes: 0 success, 2 invalid parameters, 3 convergence or precondition
failure.  A ``--config FILE`` (or ``--config=FILE``) of flat ``key=value``
lines supplies defaults that explicit flags override.  Monte Carlo streams
run on at most one thread per core.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, mc, options, rvdist, swaps
from .errors import (
    DegenerateExponent,
    DegenerateInterval,
    DomainError,
    InvalidConfig,
    RegimeError,
    VolswapError,
)
from .model import Schedule, SchwartzParams, return_moments

_INVALID = (DomainError, InvalidConfig, DegenerateInterval, DegenerateExponent)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return "" if x is None else str(x)


def _meta_block(params: dict) -> list[str]:
    import hashlib  # loads OpenSSL; only the CSV metadata needs it

    items = sorted((k, _fmt(v)) for k, v in params.items())
    digest = hashlib.sha256(repr(items).encode()).hexdigest()[:16]
    lines = [f"# {k}={v}" for k, v in items]
    lines.append(f"# config_hash={digest}")
    lines.append(f"# version={__version__}")
    return lines


def _write_csv(out, params: dict, header: list[str], rows: list[list]) -> None:
    lines = _meta_block(params)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    out.write("\n".join(lines) + "\n")


def _write_json(out, params: dict, header: list[str], rows: list[list], flat=False) -> None:
    """``params`` beside the columns and rows, or (``flat``) the one row's cells."""
    body = dict(zip(header, rows[0])) if flat else {"columns": header, "rows": rows}
    payload = {"params": params} | body
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit(args, params: dict, header: list[str], rows: list[list], flat=False) -> None:
    writer = partial(_write_json, flat=flat) if args.format == "json" else _write_csv
    if args.out:
        with open(args.out, "w") as fh:
            writer(fh, params, header, rows)
    else:
        writer(sys.stdout, params, header, rows)


# Model defaults of the flags below; ``reproduce`` builds its instances on them.
_MODEL_DEFAULTS = dict(s0=2.0, mu=0.6, sigma=0.05, kappa=0.5, n_obs=252, horizon=1.0, t1=0.0)
_MODEL_KEYS = tuple(_MODEL_DEFAULTS)


def _model_args(p: argparse.ArgumentParser, grid: bool = False) -> None:
    """The model flags; a ``grid`` command takes sigma and kappa from its grid."""
    d = _MODEL_DEFAULTS
    p.add_argument("--S0", type=float, default=d["s0"], dest="s0")
    p.add_argument("--mu", type=float, default=d["mu"])
    if not grid:
        p.add_argument("--sigma", type=float, default=d["sigma"])
        p.add_argument("--kappa", type=float, default=d["kappa"])
    p.add_argument("--N", type=int, default=d["n_obs"], dest="n_obs")
    p.add_argument("--T", type=float, default=d["horizon"], dest="horizon")
    p.add_argument("--t1", type=float, default=d["t1"],
                   help="first observation time; the log price is known there and "
                        "returns are measured from it, so it moves no number")


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--config", default=None, help="key=value defaults file")


def _moments(args=None, independent_increments=False, **model):
    """Params, schedule and return moments at the model flags of ``args``
    (their defaults without ``args``); keywords override single values."""
    m = {k: getattr(args, k, v) for k, v in _MODEL_DEFAULTS.items()} | model
    params = SchwartzParams(s0=m["s0"], mu=m["mu"], sigma=m["sigma"], kappa=m["kappa"])
    schedule = Schedule(t1=m["t1"], horizon=m["horizon"], n_obs=m["n_obs"])
    return params, schedule, return_moments(params, schedule, independent_increments)


# --------------------------------------------------------------------------
# price
# --------------------------------------------------------------------------

# The flags each (contract kind, method) reads: the required ones among them
# must be given, and they are the row's metadata, hence its config_hash.
_CALL_KEYS = _MODEL_KEYS + ("strike", "a", "b", "k_terms", "discount")
_PRICE_INPUTS = {
    ("swap", "laguerre"): _MODEL_KEYS + ("terms",),
    ("swap", "const-c"): ("c", "eta", "horizon"),
    ("swap", "ncchi"): ("eta", "lambda_bar", "sigma_n", "horizon"),
    ("swap", "central"): ("eta", "sigma_n", "horizon"),
    ("call", "laguerre"): _CALL_KEYS,
    ("call", "ncchi"): _CALL_KEYS,
}
# The closed-form swap strikes (vol, var); they take the flags listed above.
_CLOSED_FORMS = {
    "const-c": (swaps.vol_swap_const_c, swaps.var_swap_const_c),
    "ncchi": (swaps.vol_swap_ncchi, swaps.var_swap_ncchi),
    "central": (swaps.vol_swap_central, swaps.var_swap_central),
}


def cmd_price(args) -> int:
    contract = args.contract
    rho = 0.5 if contract.startswith("vol") else 1.0
    reads = _PRICE_INPUTS.get((contract.partition("-")[2], args.method))
    if reads is None:
        raise DomainError(f"option contracts take --method laguerre or ncchi, got {args.method!r}")
    missing = [n for n in reads if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise DomainError(f"method {args.method!r} requires {flags}")
    meta = {"command": "price", "contract": contract, "method": args.method}
    meta |= {k: getattr(args, k) for k in reads}
    # Closed-form swap quotes read --c/--eta/--sigma-n, which no simulation checks.
    needs_model = set(_MODEL_KEYS).issubset(reads)
    if args.validate_mc and not needs_model:
        raise DomainError(f"--validate-mc simulates the model, which method {args.method!r} "
                          "does not read")
    params, schedule, rm = _moments(args) if needs_model else (None, None, None)

    if contract.endswith("swap"):
        quote = _price_swap(args, contract, rm)
        method, value = quote.method.value, quote.strike
        terms, bound = quote.terms_used, quote.error_bound
    else:
        price = _price_call(args, rho, rm)
        method, value, terms, bound = args.method, price.value, price.terms_used, None
    header = ["contract", "method", "value", "terms", "bound"]
    row = [contract, method, value, terms, bound]
    if args.validate_mc:
        cfg = mc.McConfig(n_paths=args.validate_mc, seed=args.seed, n_streams=args.streams)
        samples = mc.simulate_rv(params, schedule, cfg)
        if contract.endswith("swap"):
            est = mc.estimate_swap(samples, rho)
        else:
            est = mc.estimate_call(samples, rho, args.strike, args.discount)
        meta.update(seed=args.seed, n_paths=args.validate_mc, n_streams=args.streams)
        header = header + ["mc_mean", "mc_se"]
        row = row + [est.mean, est.std_error]
    _emit(args, meta, header, [row], flat=True)
    return 0


def _model_meta(args) -> dict:
    return {k: getattr(args, k) for k in _MODEL_KEYS + ("terms",) if hasattr(args, k)}


def _price_swap(args, contract, rm) -> swaps.SwapQuote:
    if args.method == "laguerre":
        cfg = rvdist.ExpansionConfig.defaults(rm, k_max=args.terms)
        return swaps.vol_swap_tv(rm, cfg) if contract == "vol-swap" else swaps.var_swap_tv(rm, cfg)
    vol, var = _CLOSED_FORMS[args.method]
    fn = vol if contract == "vol-swap" else var
    return fn(*(getattr(args, k) for k in _PRICE_INPUTS["swap", args.method]))


def _price_call(args, rho, rm):
    spec = options.OptionSpec(
        rho=rho, strike=args.strike, a=args.a, b=args.b,
        discount=args.discount, k_terms=args.k_terms,
    )
    if args.method == "ncchi":
        if not rm.is_constant_regime():
            raise RegimeError("--method ncchi requires the constant per-interval volatility "
                              "regime; this model's weights differ (use --method laguerre)")
        mp = options.NcchiMoments(rm.eta, rm.lambda_bar, rm.sigma_N, args.sigma, args.horizon)
    else:
        mp = options.LaguerreMoments(rm)
    return options.call_price(spec, mp)


# --------------------------------------------------------------------------
# pdf
# --------------------------------------------------------------------------

def cmd_pdf(args) -> int:
    _, _, rm = _moments(args)
    cfg = rvdist.ExpansionConfig.defaults(rm, k_max=args.terms)
    co = rvdist.coeffs(rm, cfg)
    if args.points < 1:
        raise DomainError(f"--points must be >= 1, got {args.points}")
    mean = rm.rv_mean()
    y_min = args.y_min if args.y_min is not None else mean / 100.0
    y_max = args.y_max if args.y_max is not None else 3.0 * mean
    if not 0 < y_min < y_max:
        raise DomainError("need 0 < y-min < y-max")
    if y_max == math.inf:
        raise DomainError("--y-max must be finite")
    grid = np.linspace(y_min, y_max, args.points)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        dens = rvdist.pdf(rm, cfg, co, grid)
    bad = grid[~np.isfinite(dens)]
    if bad.size:
        raise VolswapError(f"the density series is not finite at y = {_fmt(float(bad[0]))}")
    # The flags as given: a grid derived from E[RV] shows in the first and
    # last rows, and its last-place moves must not change config_hash.
    meta = {"command": "pdf",
            "y_min": "auto" if args.y_min is None else args.y_min,
            "y_max": "auto" if args.y_max is None else args.y_max,
            "points": args.points} | _model_meta(args)
    rows = [[float(y), float(d)] for y, d in zip(grid, dens)]
    _emit(args, meta, ["y", "density"], rows)
    return 0


# --------------------------------------------------------------------------
# bound-table
# --------------------------------------------------------------------------

def _parse_floats(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of ``flag``: at least one, or DomainError."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"{flag} takes comma-separated numbers, got {text!r}") from exc
    if not values:
        raise DomainError(f"{flag} needs at least one value, got {text!r}")
    return values


def _bound_rows(args, kappas, ks, sigmas, ell, independent_increments) -> list[list]:
    """[kappa, K, sigma, truncation bound] over the grid, in that order."""
    rows = []
    for kappa in kappas:
        for K in ks:
            for sigma in sigmas:
                _, _, rm = _moments(args, independent_increments, sigma=sigma, kappa=kappa)
                cfg = rvdist.ExpansionConfig.defaults(rm, k_max=K)
                rows.append([kappa, K, sigma, rvdist.truncation_bound(rm, cfg, ell, K)])
    return rows


def cmd_bound_table(args) -> int:
    kappas, ks = _parse_floats(args.kappas, "--kappas"), _parse_floats(args.Ks, "--Ks")
    sigmas = _parse_floats(args.sigmas, "--sigmas")
    if not all(k.is_integer() and k >= 0 for k in ks):
        raise DomainError(f"--Ks takes integer orders >= 0, got {args.Ks!r}")
    rows = _bound_rows(args, kappas, [int(k) for k in ks], sigmas, args.ell, not args.spectral)
    meta = {"command": "bound-table", "ell": args.ell, "kappas": args.kappas,
            "sigmas": args.sigmas, "Ks": args.Ks,
            "spectral": args.spectral} | _model_meta(args)
    _emit(args, meta, ["kappa", "K", "sigma", "bound"], rows)
    return 0


# --------------------------------------------------------------------------
# reproduce
# --------------------------------------------------------------------------

def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []

    def write(name: str, params: dict, header: list[str], rows: list[list]) -> None:
        path = out_dir / name
        with open(path, "w") as fh:
            _write_csv(fh, params, header, rows)
        created.append(path)

    try:
        _REPRODUCE[args.target](args, write)
        return 0
    except Exception:
        for path in created:
            path.unlink(missing_ok=True)
        raise


def _reproduce_fig1(args, write) -> None:
    """Density shapes across observation counts at sigma = 0.1."""
    ns = [2, 3, 4, 5, 7, 10, 15, 22]
    curves = {}
    mean_max = 0.0
    for n in ns:
        _, _, rm = _moments(sigma=0.1, kappa=0.5, n_obs=n)
        cfg = rvdist.ExpansionConfig.defaults(rm, k_max=rvdist.DEFAULT_K_PDF)
        curves[n] = (rm, cfg, rvdist.coeffs(rm, cfg))
        mean_max = max(mean_max, rm.rv_mean())
    grid = np.linspace(1e-3, 3.0 * mean_max, args.points)
    rows = []
    for y in grid:
        rows.append([float(y)] + [float(rvdist.pdf(rm, cfg, co, y)) for rm, cfg, co in curves.values()])
    write("fig1.csv", {"target": "fig1", "sigma": 0.1, "kappa": 0.5, "points": args.points},
          ["y"] + [f"pdf_N{n}" for n in ns], rows)


def _reproduce_fig2(args, write) -> None:
    """Series density vs MC histogram at N in {52, 252}, sigma in {0.08, 0.10}."""
    for n_obs in (52, 252):
        for sigma in (0.08, 0.10):
            params, schedule, rm = _moments(sigma=sigma, kappa=0.5, n_obs=n_obs)
            cfg = rvdist.ExpansionConfig.defaults(rm, k_max=rvdist.DEFAULT_K_PDF)
            co = rvdist.coeffs(rm, cfg)
            samples = mc.simulate_rv(params, schedule, mc.McConfig(args.paths, args.seed))
            dens, edges = np.histogram(samples, bins=100, density=True)
            centers = 0.5 * (edges[:-1] + edges[1:])
            pdf_vals = rvdist.pdf(rm, cfg, co, centers)
            rows = [[float(c), float(d), float(p)] for c, d, p in zip(centers, dens, pdf_vals)]
            tag = f"N{n_obs}_s{int(round(sigma * 100)):03d}"
            write(f"fig2_{tag}.csv",
                  {"target": "fig2", "N": n_obs, "sigma": sigma, "kappa": 0.5,
                   "seed": args.seed, "n_paths": args.paths},
                  ["bin_center", "mc_density", "series_density"], rows)


def _reproduce_fig3(args, write) -> None:
    """MC volatility-swap estimates converging to the analytic strike."""
    rows = []
    path_grid = [int(round(x)) for x in np.logspace(3, 5, 9)]
    for kappa in (0.5, 1.5, 3.0):
        params, schedule, rm = _moments(sigma=args.sigma, kappa=kappa, n_obs=252)
        analytic = swaps.vol_swap_tv(rm).strike
        for n_paths in path_grid:
            samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths, args.seed))
            est = mc.estimate_swap(samples, 0.5)
            rows.append([kappa, n_paths, est.mean, est.std_error, analytic])
    write("fig3.csv", {"target": "fig3", "sigma": args.sigma, "N": 252, "seed": args.seed},
          ["kappa", "n_paths", "mc_mean", "mc_se", "analytic"], rows)


def _swap_sweep(args, write, name, meta, points) -> None:
    """Analytic vs MC strikes at each (kappa, sigma, N) point."""
    rows = []
    for kappa, sigma, n_obs in points:
        params, schedule, rm = _moments(sigma=sigma, kappa=kappa, n_obs=n_obs)
        samples = mc.simulate_rv(params, schedule, mc.McConfig(args.paths, args.seed))
        for contract, rho, quote in (
            ("vol-swap", 0.5, swaps.vol_swap_tv(rm)),
            ("var-swap", 1.0, swaps.var_swap_tv(rm)),
        ):
            est = mc.estimate_swap(samples, rho)
            rows.append([kappa, sigma, n_obs, contract, quote.strike, est.mean, est.std_error])
    write(name, meta | {"seed": args.seed, "n_paths": args.paths},
          ["kappa", "sigma", "N", "contract", "analytic", "mc_mean", "mc_se"], rows)


def _reproduce_fig4(args, write) -> None:
    """Analytic vs MC strikes swept over sigma at N = 52."""
    points = [(kappa, float(sigma), 52)
              for kappa in (0.5, 1.5, 3.0) for sigma in np.linspace(0.005, 0.1, 10)]
    _swap_sweep(args, write, "fig4.csv", {"target": "fig4", "N": 52}, points)


def _reproduce_fig5(args, write) -> None:
    """Analytic vs MC strikes swept over observation count at kappa = 0.5."""
    points = [(0.5, sigma, n_obs)
              for sigma in (0.05, 0.06, 0.07) for n_obs in (2, 13, 52, 126, 252)]
    _swap_sweep(args, write, "fig5.csv", {"target": "fig5", "kappa": 0.5}, points)


def _reproduce_table1(args, write) -> None:
    """Truncation-bound table over the default (kappa, K, sigma) grid.

    Uses the independence idealization for the chi-square weights, matching
    the pipeline behind the reference table.
    """
    rows = _bound_rows(None, (0.5, 1.5, 3.0), range(4),
                       (0.05, 0.06, 0.07, 0.08, 0.09, 0.10), 0.5, True)
    write("table1.csv", {"target": "table1", "N": 252, "ell": 0.5},
          ["kappa", "K", "sigma", "bound"], rows)


_REPRODUCE = {"fig1": _reproduce_fig1, "fig2": _reproduce_fig2, "fig3": _reproduce_fig3,
              "fig4": _reproduce_fig4, "fig5": _reproduce_fig5, "table1": _reproduce_table1}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="volswap", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("price", help="price a swap or option")
    p.add_argument("--contract", required=True,
                   choices=("vol-swap", "var-swap", "vol-call", "var-call"))
    p.add_argument("--method", default="laguerre",
                   choices=("laguerre", "const-c", "ncchi", "central"))
    _model_args(p)
    p.add_argument("--terms", type=int, default=rvdist.DEFAULT_K_PRICING,
                   help="Laguerre truncation order K of --method laguerre swap "
                        "quotes; calls read --k-terms instead")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--sigma-n", type=float, default=None, dest="sigma_n")
    p.add_argument("--lambda-bar", type=float, default=None, dest="lambda_bar")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--strike", type=float, default=None)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--k-terms", type=int, default=options.DEFAULT_K_TERMS, dest="k_terms")
    p.add_argument("--discount", type=float, default=1.0)
    p.add_argument("--validate-mc", type=int, default=0, dest="validate_mc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=1)
    _common_args(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("pdf", help="tabulate the realized-variance density")
    _model_args(p)
    p.add_argument("--terms", type=int, default=rvdist.DEFAULT_K_PDF,
                   help="Laguerre truncation order K of the density series")
    p.add_argument("--y-min", type=float, default=None, dest="y_min")
    p.add_argument("--y-max", type=float, default=None, dest="y_max")
    p.add_argument("--points", type=int, default=200)
    _common_args(p)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("bound-table", help="truncation-bound table", description=(
        "Truncation bound of the E[RV^ell] series after K+1 terms, one row per "
        "(kappa, K, sigma) of the comma-separated --kappas, --Ks and --sigmas."))
    _model_args(p, grid=True)
    p.add_argument("--ell", type=float, default=0.5)
    p.add_argument("--kappas", default="0.5,1.5,3.0")
    p.add_argument("--Ks", default="0,1,2,3", dest="Ks")
    p.add_argument("--sigmas", default="0.05,0.06,0.07,0.08,0.09,0.10")
    p.add_argument("--spectral", action="store_true",
                   help="use the exact spectral chi-square weights instead of "
                        "the per-interval variances (the default matches the "
                        "reference table, which treats returns as independent)")
    _common_args(p)
    p.set_defaults(func=cmd_bound_table)

    # CSV files into --out-dir, so no --format or --out; and no abbreviations,
    # which would take --out for --out-dir.
    p = sub.add_parser("reproduce", help="emit reference figure/table data sets",
                       allow_abbrev=False)
    p.add_argument("target", choices=_REPRODUCE)
    p.add_argument("--out-dir", default="reproduce-out", dest="out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--sigma", type=float, default=0.05, help="fig3 volatility")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.set_defaults(func=cmd_reproduce)

    return parser


def _config_path(argv: list[str]) -> str | None:
    """The file named by ``--config FILE`` or ``--config=FILE``, if any."""
    for i, tok in enumerate(argv):
        if tok == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if tok.startswith("--config="):
            return tok.partition("=")[2]
    return None


def _apply_config_file(argv: list[str], path: str | None) -> list[str]:
    """Load key=value defaults from a --config file, flags still override."""
    if path is None:
        return argv
    # As flags right after the subcommand: argparse keeps the last value of a
    # flag, so explicit ones, which come later, override.
    extra: list[str] = []
    try:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            extra += ["--" + key.strip().replace("_", "-"), value.strip()]
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    # find the subcommand position (first non-flag token)
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            return argv[: i + 1] + extra + argv[i + 1 :]
    return argv + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        path = _config_path(argv)
        args = parser.parse_args(_apply_config_file(argv, path))
        if getattr(args, "config", None) != path:
            # argparse also takes an abbreviated or repeated flag; load
            # nothing but the one file it names.
            raise DomainError(f"give --config once and in full, got {args.config!r}")
        return args.func(args)
    except _INVALID as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VolswapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
