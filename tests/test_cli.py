import json
import math

import numpy as np
import pytest

from conftest import make_instance
from volswap import cli, mc, options, rvdist, swaps
from volswap.model import ReturnMoments, Schedule, SchwartzParams, return_moments


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------


def test_price_central_trivial(capsys):
    code, out, _ = run_cli(
        capsys, "price", "--contract", "var-swap", "--method", "central",
        "--eta", "1", "--sigma-n", "0.01", "--T", "1",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    value = float(rows[0][header.index("value")])
    assert value == pytest.approx(1.0, rel=1e-15)


def test_price_laguerre_matches_library_bitwise(capsys):
    code, out, _ = run_cli(
        capsys, "price", "--contract", "vol-swap",
        "--sigma", "0.08", "--kappa", "1.5", "--N", "52",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    cell = rows[0][header.index("value")]

    params = SchwartzParams(s0=2.0, mu=0.6, sigma=0.08, kappa=1.5)
    rm = return_moments(params, Schedule(t1=0.0, horizon=1.0, n_obs=52))
    cfg = rvdist.ExpansionConfig.defaults(rm, k_max=rvdist.DEFAULT_K_PRICING)
    quote = swaps.vol_swap_tv(rm, cfg)
    assert cell == format(quote.strike, ".17g")


def test_price_validate_mc_columns(capsys):
    code, out, _ = run_cli(
        capsys, "price", "--contract", "var-swap",
        "--sigma", "0.08", "--kappa", "1.5", "--N", "13",
        "--validate-mc", "20000", "--seed", "7",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    value = float(rows[0][header.index("value")])
    mc_mean = float(rows[0][header.index("mc_mean")])
    mc_se = float(rows[0][header.index("mc_se")])
    assert mc_se > 0
    assert abs(value - mc_mean) < 3.0 * mc_se


def test_price_json_matches_csv_value(capsys):
    args = ["price", "--contract", "var-swap", "--sigma", "0.08", "--N", "13"]
    code_c, out_c, _ = run_cli(capsys, *args)
    code_j, out_j, _ = run_cli(capsys, *args, "--format", "json")
    assert code_c == 0 and code_j == 0
    _, header, rows = parse_csv(out_c)
    record = json.loads(out_j)
    assert float(rows[0][header.index("value")]) == record["value"]
    assert int(rows[0][header.index("terms")]) == record["terms"]


def test_price_missing_closed_form_args_exit_2(capsys):
    code, _, err = run_cli(capsys, "price", "--contract", "vol-swap", "--method", "ncchi")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("--contract", "var-swap", "--method", "central", "--eta", "-2", "--sigma-n", "0.01"),
    ("--contract", "vol-swap", "--method", "central", "--eta", "5", "--sigma-n", "-0.01"),
    ("--contract", "vol-swap", "--method", "ncchi", "--eta", "5", "--lambda-bar", "0.5",
     "--sigma-n", "0.01", "--T", "0"),
])
def test_price_closed_form_invalid_inputs_exit_2(capsys, argv):
    # a negative eta or sigma_N once printed a strike, and T = 0 a
    # ZeroDivisionError traceback
    code, out, err = run_cli(capsys, "price", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: constant-regime closed forms require")


@pytest.mark.parametrize("argv", [
    ("--contract", "var-swap", "--mu", "nan"),
    ("--contract", "var-swap", "--S0", "inf"),
    ("--contract", "vol-swap", "--mu", "nan"),
    ("--contract", "vol-swap", "--t1", "nan"),
])
def test_price_non_finite_model_input_exit_2(capsys, argv):
    # --mu nan once printed nan with bound 0 and exit 0 for a variance swap,
    # and exit 3 with a term-cap message for a volatility swap
    code, out, err = run_cli(capsys, "price", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize("argv", [
    ("price", "--contract", "var-swap", "--validate-mc", "100", "--seed", "-1"),
    ("reproduce", "fig3", "--paths", "100", "--seed", "-2"),
])
def test_negative_seed_exit_2(capsys, tmp_path, monkeypatch, argv):
    # numpy's "expected non-negative integer" traceback once ended these
    monkeypatch.chdir(tmp_path)  # reproduce makes its output directory first
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == "error: seed must be >= 0, got " + argv[-1] + "\n"


def test_price_validate_mc_with_closed_form_exit_2(capsys):
    # once printed the closed form's 204 beside the default model's mc_mean 24.9
    code, out, err = run_cli(
        capsys, "price", "--contract", "var-swap", "--method", "central",
        "--eta", "51", "--sigma-n", "0.02", "--validate-mc", "1000",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --validate-mc simulates the model")


def test_price_underflowing_step_variance_exit_2(capsys):
    # once printed value nan, bound 0 and mc_mean inf with exit 0
    code, out, err = run_cli(
        capsys, "price", "--contract", "var-swap", "--sigma", "1e-160", "--kappa", "1.5",
        "--N", "52", "--validate-mc", "100",
    )
    assert code == 2
    assert out == ""
    assert "one-step variance" in err


def test_pdf_not_finite_exit_3(capsys):
    code, out, err = run_cli(capsys, "pdf", "--y-max", "1e300", "--points", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: the density series is not finite at y = ")


def test_pdf_large_n_is_finite(capsys):
    # printed nan with exit 0 before the envelope carried -ln Gamma(p)
    code, out, _ = run_cli(capsys, "pdf", "--sigma", "0.08", "--kappa", "1.5",
                           "--N", "1000", "--points", "50")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert all(math.isfinite(float(d)) for _, d in rows)


def test_price_ncchi_large_noncentrality(capsys):
    # e^{-lambda/2} 1F1 overflows double precision from lambda_bar ~ 1420 on
    code, out, _ = run_cli(
        capsys, "price", "--contract", "vol-swap", "--method", "ncchi",
        "--eta", "251", "--lambda-bar", "1500", "--sigma-n", "0.001",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert rows[0][header.index("value")] == "4.1833855907901212"
    assert rows[0][header.index("terms")] == "1"


def test_price_option_no_convergence_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "price", "--contract", "vol-call", "--N", "52",
        "--strike", "5.0", "--k-terms", "5",
    )
    assert code == 3
    assert "error:" in err


_CALL_MODEL = ("--strike", "64", "--sigma", "0.08", "--kappa", "1.5", "--N", "52")


def test_price_ncchi_call_outside_constant_regime_exit_3(capsys):
    # The spectral weights at N=52 differ, so one noncentral chi-square
    # misprices the call: this printed 5.1992211358352289 with exit 0, 3.6%
    # above the converged Laguerre price 5.0201980374750876.
    code, out, err = run_cli(
        capsys, "price", "--contract", "var-call", "--method", "ncchi", *_CALL_MODEL
    )
    assert (code, out) == (3, "")
    assert "constant per-interval volatility regime" in err


def test_price_ncchi_call_matches_library_bitwise(capsys):
    # At N=2 the model is in the constant regime: the CLI's one way to price
    # a call from NcchiMoments.
    code, out, _ = run_cli(
        capsys, "price", "--contract", "vol-call", "--method", "ncchi", "--N", "2",
        "--strike", "5", "--sigma", "0.08", "--kappa", "1.5", "--k-terms", "100",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    _, _, rm = make_instance(0.08, 1.5, 2)
    spec = options.OptionSpec(rho=0.5, strike=5.0, k_terms=100)
    price = options.call_price(
        spec, options.NcchiMoments(rm.eta, rm.lambda_bar, rm.sigma_N, 0.08, 1.0)
    )
    assert rows[0][header.index("value")] == format(price.value, ".17g")
    assert rows[0][header.index("value")] == "3.2509274961150347"
    assert rows[0][header.index("terms")] == str(price.terms_used)


def test_price_call_validate_mc_matches_library_bitwise(capsys):
    code, out, _ = run_cli(
        capsys, "price", "--contract", "var-call", *_CALL_MODEL,
        "--validate-mc", "20000", "--seed", "7",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    params, schedule, _ = make_instance(0.08, 1.5, 52)
    samples = mc.simulate_rv(params, schedule, mc.McConfig(n_paths=20000, seed=7))
    est = mc.estimate_call(samples, 1.0, 64.0, 1.0)
    row = dict(zip(header, rows[0]))
    assert row["mc_mean"] == format(est.mean, ".17g")
    assert row["mc_se"] == format(est.std_error, ".17g")
    assert abs(float(row["value"]) - est.mean) < 3.0 * est.std_error


@pytest.mark.parametrize("contract", ["var-call", "vol-call"])
@pytest.mark.parametrize("method", ["central", "const-c"])
def test_price_call_rejects_swap_only_methods_exit_2(capsys, contract, method):
    # These priced by Laguerre and printed the row under the method's name.
    code, out, err = run_cli(
        capsys, "price", "--contract", contract, "--method", method, *_CALL_MODEL
    )
    assert (code, out) == (2, "")
    assert err == f"error: option contracts take --method laguerre or ncchi, got {method!r}\n"


def _price_meta(capsys, *argv):
    code, out, _ = run_cli(capsys, "price", *argv)
    assert code == 0
    return parse_csv(out)[0]


def test_closed_form_hash_follows_its_inputs(capsys):
    # The three ncchi vol-swap strikes once printed under one config_hash,
    # which held the unread model flags and none of eta, lambda_bar, sigma_N.
    ncchi = ("--contract", "vol-swap", "--method", "ncchi")
    metas = [
        _price_meta(capsys, *ncchi, "--eta", "51", "--lambda-bar", "2.5", "--sigma-n", "0.02"),
        _price_meta(capsys, *ncchi, "--eta", "52", "--lambda-bar", "2.5", "--sigma-n", "0.02"),
        _price_meta(capsys, *ncchi, "--eta", "51", "--lambda-bar", "2.6", "--sigma-n", "0.02"),
        _price_meta(capsys, *ncchi, "--eta", "51", "--lambda-bar", "2.5", "--sigma-n", "0.03"),
        _price_meta(capsys, *ncchi, "--eta", "51", "--lambda-bar", "2.5", "--sigma-n", "0.02",
                    "--T", "2"),
    ]
    assert len({m["config_hash"] for m in metas}) == len(metas)
    assert (metas[0]["eta"], metas[0]["lambda_bar"], metas[0]["sigma_n"]) == ("51", "2.5", "0.02")
    assert not {"sigma", "kappa", "n_obs", "terms"} & set(metas[0])
    const_c = ("--contract", "vol-swap", "--method", "const-c", "--eta", "51")
    assert (_price_meta(capsys, *const_c, "--c", "0.0004")["config_hash"]
            != _price_meta(capsys, *const_c, "--c", "0.0005")["config_hash"])


def test_call_hash_ignores_terms_and_follows_its_inputs(capsys):
    base = _price_meta(capsys, "--contract", "var-call", *_CALL_MODEL)
    assert _price_meta(capsys, "--contract", "var-call", *_CALL_MODEL,
                       "--terms", "25") == base
    assert "terms" not in base
    assert (base["strike"], base["k_terms"], base["discount"]) == ("64", "40", "1")
    for flag, value in (("--discount", "0.9"), ("--k-terms", "41"), ("--a", "0.5")):
        moved = _price_meta(capsys, "--contract", "var-call", *_CALL_MODEL, flag, value)
        assert moved["config_hash"] != base["config_hash"]


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------


def test_pdf_integrates_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "pdf", "--N", "52", "--sigma", "0.08",
        "--y-min", "1e-6", "--y-max", "500", "--points", "4000",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    data = np.array([[float(v) for v in row] for row in rows])
    area = float(np.trapezoid(data[:, 1], data[:, 0]))
    assert area == pytest.approx(1.0, abs=1e-4)


def test_pdf_config_hash_ignores_derived_grid(capsys, monkeypatch):
    # Without --y-min/--y-max the grid follows E[RV]; a last-place move of it
    # shows in the y column but not in the hashed metadata.
    code, out, _ = run_cli(capsys, "pdf", "--points", "5")
    assert code == 0
    meta, _, rows = parse_csv(out)
    rv_mean = ReturnMoments.rv_mean
    monkeypatch.setattr(
        ReturnMoments, "rv_mean", lambda self: math.nextafter(rv_mean(self), math.inf)
    )
    code, out, _ = run_cli(capsys, "pdf", "--points", "5")
    assert code == 0
    moved, _, moved_rows = parse_csv(out)
    assert moved_rows[-1][0] != rows[-1][0]
    assert moved["config_hash"] == meta["config_hash"]
    assert meta["y_min"] == meta["y_max"] == "auto"


def test_pdf_zero_points_exit_2(capsys):
    code, _, err = run_cli(capsys, "pdf", "--points", "0")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# bound-table
# ---------------------------------------------------------------------------


def test_pdf_inverted_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "pdf", "--y-min", "2", "--y-max", "1")
    assert (code, out) == (2, "")
    assert err == "error: need 0 < y-min < y-max\n"


@pytest.mark.parametrize("argv", [
    ("pdf", "--points", "5"),
    ("price", "--contract", "var-swap", "--format", "json"),
])
def test_out_file_holds_what_stdout_would(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    path = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert code == 0
    assert path.read_text() == out


def test_bound_table_monotone_in_K_and_deterministic(capsys):
    args = [
        "bound-table", "--N", "52", "--kappas", "1.5",
        "--sigmas", "0.08", "--Ks", "0,1,2,3", "--spectral",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical reruns
    _, header, rows = parse_csv(out1)
    bounds = [float(r[header.index("bound")]) for r in rows]
    assert all(math.isfinite(b) for b in bounds)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_bound_table_json_matches_csv(capsys):
    args = ["bound-table", "--N", "52", "--kappas", "0.5,1.5",
            "--sigmas", "0.05,0.08", "--Ks", "1,2"]
    code, out_c, _ = run_cli(capsys, *args)
    code_j, out_j, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0 and code_j == 0
    _, header, rows = parse_csv(out_c)
    payload = json.loads(out_j)
    assert payload["columns"] == header
    for csv_row, json_row in zip(rows, payload["rows"]):
        assert float(csv_row[header.index("bound")]) == json_row[header.index("bound")]


def test_bound_table_meta_block(capsys):
    code, out, _ = run_cli(capsys, "bound-table", "--N", "52",
                           "--kappas", "0.5", "--sigmas", "0.05", "--Ks", "1")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert "config_hash" in meta
    assert "version" in meta
    assert meta["n_obs"] == "52"
    # sigma and kappa come from the grid, and no flag sets the series order
    assert not {"sigma", "kappa", "terms"} & set(meta)


def test_bound_table_takes_sigma_and_kappa_from_its_grid(capsys):
    # --terms is no bound-table flag, and --sigma/--kappa now abbreviate the
    # grid flags instead of being taken and ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound-table", "--terms", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --terms 3" in capsys.readouterr().err
    grid = ("bound-table", "--N", "52", "--Ks", "1")
    _, out, _ = run_cli(capsys, *grid, "--sigmas", "0.2", "--kappas", "2")
    assert run_cli(capsys, *grid, "--sigma", "0.2", "--kappa", "2")[1] == out


@pytest.mark.parametrize("flags, message", [
    # int() once truncated these to K = 2 and K = 0, and an empty list
    # printed an empty table, each with exit 0
    (("--Ks", "2.7"), "--Ks takes integer orders >= 0, got '2.7'"),
    (("--Ks", "1,-1"), "--Ks takes integer orders >= 0, got '1,-1'"),
    (("--Ks", "nan"), "--Ks takes integer orders >= 0, got 'nan'"),
    (("--kappas", ""), "--kappas needs at least one value, got ''"),
    (("--Ks", " , "), "--Ks needs at least one value, got ' , '"),
    (("--sigmas", ""), "--sigmas needs at least one value, got ''"),
    (("--sigmas", "0.05,x"), "--sigmas takes comma-separated numbers, got '0.05,x'"),
], ids=["K-fraction", "K-negative", "K-nan", "kappas-empty", "Ks-blank", "sigmas-empty",
        "sigmas-malformed"])
def test_bound_table_refuses_a_bad_grid_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "bound-table", "--N", "52", "--kappas", "0.5",
                             "--sigmas", "0.05", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("# defaults\nsigma=0.08\nkappa=1.5\nN=52\n")
    code, out_cfg, _ = run_cli(
        capsys, "price", "--contract", "var-swap", "--config", str(cfg)
    )
    code2, out_direct, _ = run_cli(
        capsys, "price", "--contract", "var-swap",
        "--sigma", "0.08", "--kappa", "1.5", "--N", "52",
    )
    assert code == 0 and code2 == 0
    assert out_cfg == out_direct

    # an explicit flag wins over the config value
    code3, out_override, _ = run_cli(
        capsys, "price", "--contract", "var-swap", "--config", str(cfg),
        "--sigma", "0.05",
    )
    code4, out_expected, _ = run_cli(
        capsys, "price", "--contract", "var-swap",
        "--sigma", "0.05", "--kappa", "1.5", "--N", "52",
    )
    assert code3 == 0 and out_override == out_expected


def test_config_file_equals_spelling(capsys, tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("sigma=0.08\nkappa=1.5\nN=52\n")
    code, out_space, _ = run_cli(
        capsys, "price", "--contract", "var-swap", "--config", str(cfg)
    )
    code2, out_equals, _ = run_cli(
        capsys, "price", "--contract", "var-swap", f"--config={cfg}"
    )
    code3, out_default, _ = run_cli(capsys, "price", "--contract", "var-swap")
    assert code == 0 and code2 == 0 and code3 == 0
    assert out_equals == out_space
    assert "64.038394178965859" in out_equals
    assert out_equals != out_default


@pytest.mark.parametrize("spelling", [
    ("--conf", "{cfg}"),
    ("--config={cfg}", "--config", "{cfg}.other"),
])
def test_config_file_abbreviated_or_repeated_exit_2(capsys, tmp_path, spelling):
    # argparse accepts both; neither may load one file and report another
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("sigma=0.08\n")
    argv = [tok.format(cfg=cfg) for tok in spelling]
    code, out, err = run_cli(capsys, "price", "--contract", "var-swap", *argv)
    assert code == 2
    assert out == ""
    assert "--config" in err


def test_config_file_malformed_exit_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sigma 0.08\n")
    code, _, err = run_cli(capsys, "price", "--contract", "var-swap",
                           "--config", str(cfg))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_table1_matches_bound_table_defaults(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "reproduce", "table1", "--out-dir", str(tmp_path))
    assert code == 0
    _, header_r, rows_r = parse_csv((tmp_path / "table1.csv").read_text())

    code, out, _ = run_cli(capsys, "bound-table")
    assert code == 0
    _, header_b, rows_b = parse_csv(out)

    assert header_r == header_b
    assert len(rows_r) == len(rows_b) == 72
    for rr, rb in zip(rows_r, rows_b):
        for col in ("kappa", "K", "sigma", "bound"):
            a = float(rr[header_r.index(col)])
            b = float(rb[header_b.index(col)])
            assert a == b
        assert math.isfinite(float(rr[header_r.index("bound")]))


def test_reproduce_fig1_writes_density_curves(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "reproduce", "fig1",
                         "--out-dir", str(tmp_path), "--points", "50")
    assert code == 0
    _, header, rows = parse_csv((tmp_path / "fig1.csv").read_text())
    assert header[0] == "y"
    assert len(rows) == 50
    data = np.array([[float(v) for v in row] for row in rows])
    assert np.all(np.isfinite(data))
    assert np.all(data[:, 1:] >= -1e-12)


@pytest.mark.parametrize("flags", [
    ("--format", "json"), ("--out", "x.json"), ("--format", "json", "--out", "x.json"),
])
def test_reproduce_refuses_format_and_out(capsys, tmp_path, flags):
    # reproduce writes CSV files into --out-dir: it once took both flags and
    # ignored them, and --out alone would abbreviate --out-dir
    out_dir = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "table1", "--out-dir", str(out_dir), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
    assert not out_dir.exists()


_FIG2_FILES = sorted(f"fig2_N{n}_s{s}.csv" for n in (52, 252) for s in ("008", "010"))


def test_reproduce_fig2_writes_histograms_and_densities(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "reproduce", "fig2", "--out-dir", str(tmp_path),
                         "--paths", "200")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == _FIG2_FILES
    for name in _FIG2_FILES:
        meta, header, rows = parse_csv((tmp_path / name).read_text())
        assert (meta["target"], meta["n_paths"]) == ("fig2", "200")
        assert header == ["bin_center", "mc_density", "series_density"]
        assert len(rows) == 100
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_reproduce_failure_leaves_no_file(capsys, tmp_path, monkeypatch):
    real, calls = mc.simulate_rv, []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            assert [p.name for p in tmp_path.iterdir()] == ["fig2_N52_s008.csv"]
            raise RuntimeError("simulation failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "simulate_rv", fail_second)
    with pytest.raises(RuntimeError, match="simulation failed"):
        cli.main(["reproduce", "fig2", "--out-dir", str(tmp_path), "--paths", "200"])
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_reproduce_fig3_analytic_is_the_vol_swap_quote(capsys, tmp_path):
    # fig3 sets its own path counts; --paths does not reach it
    code, _, _ = run_cli(capsys, "reproduce", "fig3", "--out-dir", str(tmp_path),
                         "--paths", "200")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["fig3.csv"]
    _, header, rows = parse_csv((tmp_path / "fig3.csv").read_text())
    assert header == ["kappa", "n_paths", "mc_mean", "mc_se", "analytic"]
    path_grid = [str(int(round(x))) for x in np.logspace(3, 5, 9)]
    assert len(rows) == 27
    for i, kappa in enumerate((0.5, 1.5, 3.0)):
        strike = format(swaps.vol_swap_tv(make_instance(0.05, kappa, 252)[2]).strike, ".17g")
        block = rows[9 * i : 9 * i + 9]
        assert [r[1] for r in block] == path_grid
        assert {(r[0], r[4]) for r in block} == {(cli._fmt(kappa), strike)}


@pytest.mark.parametrize("target,points", [
    ("fig4", [(kappa, float(sigma), 52)
              for kappa in (0.5, 1.5, 3.0) for sigma in np.linspace(0.005, 0.1, 10)]),
    ("fig5", [(0.5, sigma, n_obs)
              for sigma in (0.05, 0.06, 0.07) for n_obs in (2, 13, 52, 126, 252)]),
])
def test_reproduce_swap_sweep_analytic_is_the_series_quote(capsys, tmp_path, target, points):
    code, _, _ = run_cli(capsys, "reproduce", target, "--out-dir", str(tmp_path),
                         "--paths", "200")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == [f"{target}.csv"]
    meta, header, rows = parse_csv((tmp_path / f"{target}.csv").read_text())
    assert (meta["target"], meta["n_paths"]) == (target, "200")
    assert header == ["kappa", "sigma", "N", "contract", "analytic", "mc_mean", "mc_se"]
    assert len(rows) == 2 * len(points)
    for (kappa, sigma, n_obs), vol, var in zip(points, rows[::2], rows[1::2]):
        rm = make_instance(sigma, kappa, n_obs)[2]
        key = [cli._fmt(kappa), cli._fmt(sigma), str(n_obs)]
        assert vol[:5] == key + ["vol-swap", format(swaps.vol_swap_tv(rm).strike, ".17g")]
        assert var[:5] == key + ["var-swap", format(swaps.var_swap_tv(rm).strike, ".17g")]
        assert float(vol[6]) > 0 and float(var[6]) > 0
