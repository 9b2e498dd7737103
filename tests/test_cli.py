import numpy as np
import pytest
from conftest import kummer_tail_constant

from omega_pricer.cli import EXIT_CONFIG, EXIT_NUMERICS, EXIT_OK, load_config, main, run


def _read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            out[k] = v
    return out


def _read_curve(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows[:, 0], rows[:, 1], rows[:, 2]


def test_preset_bs_negative_rational(tmp_path):
    code = main(["--preset", "bs_negative_rational",
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    summary = _read_summary(tmp_path / "summary.txt")
    assert 7.18 <= float(summary["l_star"]) <= 7.28
    assert 8.29 <= float(summary["u_star"]) <= 8.39
    s, v, payoff = _read_curve(tmp_path / "value_curve.csv")
    assert len(s) == 512
    assert np.all(v >= payoff - 1e-9)
    # value grows without bound as s -> 0+ under the negative rate
    assert v[0] > 2.0 * 20.0
    # equality with the payoff only on the stopping interval
    l, u = float(summary["l_star"]), float(summary["u_star"])
    outside = (s < l - 0.05) | (s > u + 0.05)
    assert np.all(v[outside] > payoff[outside] + 1e-9)


def test_preset_crash_linear(tmp_path):
    code = main(["--preset", "crash_linear", "--out-dir", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    summary = _read_summary(tmp_path / "summary.txt")
    assert float(summary["l_star"]) == 0.0
    u = float(summary["u_star"])
    assert 0.0 < u < 20.0
    s, v, payoff = _read_curve(tmp_path / "value_curve.csv")
    # l* = 0: the stopping region reaches zero, so V(0+) tends to the strike
    assert v[0] == pytest.approx(payoff[0], abs=1e-12)
    assert abs(v[0] - 20.0) < 0.2


def test_preset_gold_loan_smoke(tmp_path):
    code = main(["--preset", "gold_loan", "--out-dir", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    summary = _read_summary(tmp_path / "summary.txt")
    assert "call_mc" in summary and "dual_put_mc" in summary
    assert int(summary["mc_path_steps"]) > 0
    assert summary["call_mc_unreliable"] == "False"
    assert summary["dual_put_mc_unreliable"] == "False"


def test_config_roundtrip_bit_identical(tmp_path):
    cfg_text = """
[model]
sigma = 0.0
lam = 6.0
phi = 2.0
r = 0.05

[discount]
kind = linear
c = 0.1

[contract]
payoff = put
strike = 20.0

[task]
task = price
"""
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(cfg_text)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--config", str(cfg_file), "--out-dir", str(out1), "--quiet"]) == EXIT_OK
    assert main(["--config", str(out1 / "resolved_config.ini"),
                 "--out-dir", str(out2), "--quiet"]) == EXIT_OK
    assert (out1 / "value_curve.csv").read_bytes() == (out2 / "value_curve.csv").read_bytes()


def test_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "bad.ini"
    cfg_file.write_text("[model]\nsigma = 0.2\nbogus_key = 1\n")
    assert main(["--config", str(cfg_file), "--out-dir", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_CONFIG


def test_dt_key_rejected(tmp_path, capsys):
    # every Monte Carlo path steps from event to event, so no step size is read
    cfg_file = tmp_path / "dt.ini"
    cfg_file.write_text("[task]\ntask = boundaries\n[numerics]\ndt = 1e-3\n")
    assert main(["--preset", "crash_linear", "--config", str(cfg_file),
                 "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
    assert "unknown key 'dt'" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    cfg_file = tmp_path / "bad2.ini"
    cfg_file.write_text("[nonsense]\nx = 1\n")
    assert main(["--config", str(cfg_file), "--out-dir", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_CONFIG


def test_bad_discount_kind_rejected(tmp_path):
    cfg = load_config(preset="crash_linear")
    cfg["discount"]["kind"] = "parabolic"
    assert run(cfg, tmp_path / "o", quiet=True) == EXIT_CONFIG


def test_missing_discount_param_rejected(tmp_path):
    cfg = load_config(preset="crash_linear")
    cfg["discount"]["c"] = None
    assert run(cfg, tmp_path / "o", quiet=True) == EXIT_CONFIG


def test_sigma_pos_step_discount_prices(tmp_path):
    # a step rate reaches the state system like a smooth one, for sigma > 0 too
    cfg = load_config(overrides={
        "model": {"sigma": 0.2, "lam": 6.0, "phi": 2.0, "r": 0.05},
        "discount": {"kind": "step", "r": 0.05, "rho": 0.02, "y": 15.0}})
    assert run(cfg, tmp_path, quiet=True) == EXIT_OK
    summary = _read_summary(tmp_path / "summary.txt")
    assert 0.0 < float(summary["u_star"]) < 20.0
    assert float(summary["derivative_gap_u"]) < 1e-4


def test_two_sided_price_writes_l_condition_and_hjb(tmp_path):
    cfg = load_config(overrides={
        "model": {"sigma": 0.0, "lam": 0.5, "phi": 3.0, "r": 0.30},
        "discount": {"kind": "step", "r": -0.02, "rho": 0.12, "y": 1.0,
                     "direction": "above"}})
    assert run(cfg, tmp_path, quiet=True) == EXIT_OK
    summary = _read_summary(tmp_path / "summary.txt")
    assert 0.0 < float(summary["l_star"]) < float(summary["u_star"]) < 20.0
    assert summary["l_condition"] == "kink"
    assert float(summary["hjb_continuation_sup"]) < 1e-3
    assert float(summary["hjb_stopping_violation"]) <= 1e-12


@pytest.mark.parametrize("sigma", [1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 1e-150, 5e-324])
def test_unresolvable_small_sigma_is_numerics_error(tmp_path, sigma):
    # the fast frozen exponent -2 zeta / sigma^2 is beyond double steps in y;
    # far below that the fast root of psi is beyond double range itself
    cfg = load_config(overrides={
        "model": {"sigma": sigma, "lam": 3.0, "phi": 1.5, "r": 0.05},
        "discount": {"kind": "linear", "c": 0.1}})
    assert run(cfg, tmp_path, quiet=True) == EXIT_NUMERICS
    cause = "fast frozen exponent" if sigma > 1e-10 else "psi_roots cannot resolve the fast root"
    assert cause in _read_summary(tmp_path / "summary.txt")["error"]


def test_unsupported_combination_is_config_error(tmp_path):
    # negative near zero without the flat-below-one certificate: no route
    cfg = load_config(overrides={
        "model": {"sigma": 0.0, "lam": 6.0, "phi": 2.0, "r": 0.05},
        "discount": {"kind": "step", "r": -0.02, "rho": 0.12, "y": 0.5,
                     "direction": "above"}})
    assert run(cfg, tmp_path, quiet=True) == EXIT_CONFIG
    summary = _read_summary(tmp_path / "summary.txt")
    assert "error" in summary


def test_scale_task_dumps_table(tmp_path):
    cfg = load_config(preset="crash_linear")
    cfg["task"]["task"] = "scale"
    cfg["numerics"]["grid_n"] = 257
    cfg["numerics"]["x_max"] = 2.0
    assert run(cfg, tmp_path, quiet=True) == EXIT_OK
    rows = np.loadtxt(tmp_path / "scale_table.csv", delimiter=",", skiprows=1)
    assert rows.shape == (257, 4)
    header = (tmp_path / "scale_table.csv").read_text().splitlines()[0]
    assert header == "x,W,Z,H"
    assert rows[0, 1] == pytest.approx(1.0 / 2.05, rel=1e-9)  # W(0) = 1/mu
    assert rows[0, 2] == 1.0


def test_scale_task_short_table_tail_constant(tmp_path, crash_model):
    """The tail constant does not depend on the table length: at x_max = 0.25
    it matches the Kummer closed form at u = 1 as a long table does."""
    cfg = load_config(preset="crash_linear")
    cfg["task"]["task"] = "scale"
    cfg["numerics"]["grid_n"] = 65
    cfg["numerics"]["x_max"] = 0.25
    assert run(cfg, tmp_path, quiet=True) == EXIT_OK
    c_zw = float(_read_summary(tmp_path / "summary.txt")["c_zw"])
    # the preset's model is the crash_model fixture, its rate Linear(0.1)
    assert c_zw == pytest.approx(kummer_tail_constant(crash_model, 0.1, 1.0), rel=1e-8)


def test_mc_check_task(tmp_path):
    cfg = load_config(preset="crash_linear")
    cfg["task"]["task"] = "mc-check"
    cfg["numerics"]["n_paths"] = 20_000
    cfg["numerics"]["t_max"] = 40.0
    cfg["numerics"]["mc_spot"] = 15.0
    assert run(cfg, tmp_path, quiet=True) == EXIT_OK
    summary = _read_summary(tmp_path / "summary.txt")
    assert float(summary["abs_gap_over_stderr"]) < 4.0
    assert summary["mc_unreliable"] == "False"
    assert int(summary["mc_path_steps"]) > 0


def test_bermudan_task(tmp_path):
    cfg = load_config(preset="bs_negative_rational")
    cfg["discount"] = {"kind": "constant", "r": 0.05}
    cfg["task"]["task"] = "bermudan"
    cfg["numerics"]["bermudan_xi"] = 4
    cfg["numerics"]["bermudan_horizon"] = 5.0
    assert run(cfg, tmp_path, quiet=True) == EXIT_OK
    summary = _read_summary(tmp_path / "summary.txt")
    assert "bermudan_v_20" in summary
    assert float(summary["kernel_residual_mass"]) < 1e-10


def test_requires_config_or_preset(capsys):
    with pytest.raises(SystemExit):
        main(["--out-dir", "/tmp/x"])


def test_defaults_recorded_in_resolved_config(tmp_path):
    cfg = load_config(preset="crash_linear")
    run(cfg, tmp_path, quiet=True)
    resolved = (tmp_path / "resolved_config.ini").read_text()
    # defaults that were never set explicitly still appear
    assert "grid_n = 1537" in resolved
    assert "seed = 0" in resolved
    assert "kind = linear" in resolved
