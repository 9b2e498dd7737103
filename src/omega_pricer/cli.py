"""Command-line front end: INI config in, CSV curves and key=value summary out.

The config format is line-oriented ``key = value`` under ``[section]``
headers.  Unknown keys are rejected; every default that fills in is recorded
in the emitted resolved config so a run can be reproduced bit-identically.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from pathlib import Path

import numpy as np

from . import discount as _discount
from .levy import LevyModel
from .mc import (bermudan_dp, bermudan_value_at, default_t_max, stopped_value,
                 symmetry_check)
from .pricer import Boundaries, PricingProblem, hjb_residual, optimize_boundaries
from .scale import LogGrid, build_scale_table

__all__ = ["main", "run", "load_config", "PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3

_SCHEMA = {
    "model": {
        "sigma": (float, 0.0),
        "lam": (float, 0.0),
        "phi": (float, 1.0),
        "r": (float, 0.05),
        "calibrate": (bool, True),
        "mu": (float, None),
    },
    "discount": {
        "kind": (str, "constant"),
        "r": (float, None),
        "rho": (float, None),
        "y": (float, None),
        "direction": (str, "below"),
        "c": (float, None),
        "d": (float, None),
        "k": (float, None),
        "knots_s": (str, None),
        "knots_w": (str, None),
    },
    "contract": {
        "payoff": (str, "put"),
        "strike": (float, 20.0),
    },
    "task": {
        "task": (str, "price"),
    },
    "numerics": {
        "grid_n": (int, 1537),
        "x_max": (float, 3.0),
        "n_paths": (int, 200_000),
        "seed": (int, 0),
        "t_max": (float, None),
        "curve_n": (int, 512),
        "mc_spot": (float, None),
        "bermudan_xi": (int, 6),
        "bermudan_horizon": (float, 10.0),
        "call_spot": (float, None),
        "call_l": (float, None),
        "call_u": (float, None),
    },
}

PRESETS = {
    # negative rational discount in a Black-Scholes market
    "bs_negative_rational": {
        "model": {"sigma": 0.2, "lam": 0.0, "r": 0.05},
        "discount": {"kind": "rational", "c": 0.001, "d": 0.01},
        "contract": {"payoff": "put", "strike": 20.0},
        "task": {"task": "price"},
    },
    # linear discount in the finite-variation exponential-crash market
    "crash_linear": {
        "model": {"sigma": 0.0, "lam": 6.0, "phi": 2.0, "r": 0.05},
        "discount": {"kind": "linear", "c": 0.1},
        "contract": {"payoff": "put", "strike": 20.0},
        "task": {"task": "price"},
    },
    # gold-loan style call: omega = r - borrowing_rate, priced via symmetry + MC
    "gold_loan": {
        "model": {"sigma": 0.2, "lam": 0.0, "r": 0.05},
        "discount": {"kind": "constant", "r": 0.03},
        "contract": {"payoff": "call", "strike": 20.0},
        "task": {"task": "symmetry"},
        "numerics": {"n_paths": 20_000, "call_spot": 20.0, "call_l": 30.0,
                     "call_u": 60.0},
    },
}


class ConfigError(ValueError):
    pass


def _coerce(raw: str, typ):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {raw!r}")
    return typ(raw)


def load_config(path=None, preset=None, overrides=None) -> dict:
    """Parse and validate a config file or preset into a nested dict."""
    cfg = {sec: {k: dflt for k, (_, dflt) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    source = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        source = PRESETS[preset]
        for sec, kv in source.items():
            for k, v in kv.items():
                cfg[sec][k] = v
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"unknown section [{sec}]")
            for key, raw in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"unknown key {key!r} in [{sec}]")
                cfg[sec][key] = _coerce(raw, _SCHEMA[sec][key][0])
    for sec, kv in (overrides or {}).items():
        cfg[sec].update(kv)
    return cfg


def _build_discount(dc: dict):
    kind = dc["kind"]
    try:
        if kind == "constant":
            return _discount.Constant(_req(dc, "r"))
        if kind == "step":
            return _discount.Step(_req(dc, "r"), _req(dc, "rho"), _req(dc, "y"),
                                  dc.get("direction") or "below")
        if kind == "linear":
            return _discount.Linear(_req(dc, "c"))
        if kind == "rational":
            return _discount.Rational(_req(dc, "c"), _req(dc, "d"))
        if kind == "log_area":
            return _discount.LogArea(_req(dc, "k"))
        if kind == "tabulated":
            ks = tuple(float(t) for t in str(_req(dc, "knots_s")).split(","))
            kw = tuple(float(t) for t in str(_req(dc, "knots_w")).split(","))
            return _discount.Tabulated(ks, kw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad discount parameters for kind={kind}: {err}") from err
    raise ConfigError(f"unknown discount kind {kind!r}")


def _req(dc: dict, key: str):
    v = dc.get(key)
    if v is None:
        raise ConfigError(f"discount kind {dc['kind']!r} requires key {key!r}")
    return v


def _build_model(mc: dict) -> LevyModel:
    if mc["calibrate"]:
        return LevyModel.calibrated(r=mc["r"], sigma=mc["sigma"],
                                    lam=mc["lam"], phi=mc["phi"])
    if mc["mu"] is None:
        raise ConfigError("calibrate = false requires an explicit mu")
    return LevyModel(mu=mc["mu"], sigma=mc["sigma"], lam=mc["lam"], phi=mc["phi"])


def _resolved_config_text(cfg: dict) -> str:
    lines = []
    for sec in _SCHEMA:
        lines.append(f"[{sec}]")
        for key, val in cfg[sec].items():
            if val is None:
                continue
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def _write_curve(path: Path, s, values, payoff):
    with open(path, "w", newline="\n") as fh:
        fh.write("s,value,payoff\n")
        for a, b, c in zip(s, values, payoff):
            fh.write(f"{float(a)!r},{float(b)!r},{float(c)!r}\n")


def run(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    """Execute one configured task; returns the process exit code."""
    t_start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}

    def finish(code):
        summary["runtime_s"] = f"{time.perf_counter() - t_start:.3f}"
        summary["exit_code"] = code
        with open(out_dir / "summary.txt", "w", newline="\n") as fh:
            for k, v in summary.items():
                fh.write(f"{k} = {v}\n")
        with open(out_dir / "resolved_config.ini", "w", newline="\n") as fh:
            fh.write(_resolved_config_text(cfg))
        if not quiet:
            for k, v in summary.items():
                print(f"{k} = {v}")
        return code

    try:
        model = _build_model(cfg["model"])
        omega = _build_discount(cfg["discount"])
        problem = PricingProblem(model, omega, cfg["contract"]["strike"],
                                 cfg["contract"]["payoff"])
    except (ConfigError, ValueError) as err:
        summary["error"] = str(err)
        return finish(EXIT_CONFIG)
    task = cfg["task"]["task"]
    num = cfg["numerics"]
    summary["task"] = task
    summary["model"] = (f"mu={model.mu} sigma={model.sigma} lam={model.lam} "
                        f"phi={model.phi}")
    summary["discount"] = repr(omega)
    try:
        if task in ("price", "boundaries"):
            if problem.payoff == "call":
                raise ConfigError("price/boundaries tasks accept puts; route "
                                  "calls through task = symmetry")
            result = optimize_boundaries(problem, n_curve=num["curve_n"])
            summary["l_star"] = f"{result.l_star:.10g}"
            summary["u_star"] = f"{result.u_star:.10g}"
            for k, v in result.fit.items():
                summary[k] = f"{v:.6e}"
            summary["convexity_margin"] = f"{result.diagnostics['convexity_margin']:.6e}"
            if "l_condition" in result.diagnostics:
                summary["l_condition"] = result.diagnostics["l_condition"]
            hjb = hjb_residual(result, problem)
            summary["hjb_continuation_sup"] = f"{hjb['continuation_sup']:.6e}"
            summary["hjb_stopping_violation"] = f"{hjb['stopping_violation']:.6e}"
            if task == "price":
                _write_curve(out_dir / "value_curve.csv", result.s_grid, result.values,
                             problem.intrinsic(result.s_grid))
                summary["curve_file"] = "value_curve.csv"
        elif task == "scale":
            grid = LogGrid(num["x_max"], num["grid_n"])
            tab = build_scale_table(model, omega, grid)
            xs = grid.nodes()
            with open(out_dir / "scale_table.csv", "w", newline="\n") as fh:
                fh.write("x,W,Z,H\n")
                for i, x in enumerate(xs):
                    hv = tab.hh[i] if tab.hh is not None else float("nan")
                    fh.write(f"{float(x)!r},{float(tab.w[i])!r},{float(tab.z[i])!r},{float(hv)!r}\n")
            summary["c_zw"] = f"{tab.c_zw:.10g}"
            summary["table_file"] = "scale_table.csv"
        elif task == "mc-check":
            result = optimize_boundaries(problem, n_curve=num["curve_n"])
            s0 = num["mc_spot"] if num["mc_spot"] is not None else 0.75 * problem.strike + 0.25 * 2 * problem.strike
            est = stopped_value(model, omega, problem.strike, result.boundaries,
                                s0, num["n_paths"], t_max=num["t_max"],
                                seed=num["seed"])
            analytic = float(np.atleast_1d(result.value_fn(np.array([s0])))[0])
            summary["l_star"] = f"{result.l_star:.10g}"
            summary["u_star"] = f"{result.u_star:.10g}"
            summary["mc_spot"] = s0
            summary["mc_mean"] = f"{est.mean:.8g}"
            summary["mc_stderr"] = f"{est.stderr:.4g}"
            summary["analytic"] = f"{analytic:.8g}"
            summary["abs_gap_over_stderr"] = f"{abs(est.mean - analytic) / max(est.stderr, 1e-12):.3f}"
            summary["mc_truncation_mass"] = f"{est.truncation_mass:.4g}"
            summary["mc_unreliable"] = est.unreliable
            summary["mc_path_steps"] = est.path_steps
        elif task == "symmetry":
            if problem.payoff != "call":
                raise ConfigError("task = symmetry requires payoff = call")
            s0 = num["call_spot"] if num["call_spot"] is not None else problem.strike
            K = problem.strike
            b = Boundaries(num["call_l"] if num["call_l"] is not None else 1.25 * max(s0, K),
                           num["call_u"] if num["call_u"] is not None else 2.5 * max(s0, K))
            t_max = num["t_max"] if num["t_max"] is not None \
                else default_t_max(omega, K)
            lhs, rhs = symmetry_check(problem, s0, b, num["n_paths"], t_max,
                                      seed=num["seed"])
            comb = (lhs.stderr ** 2 + rhs.stderr ** 2) ** 0.5
            summary["call_mc"] = f"{lhs.mean:.8g} +- {lhs.stderr:.4g}"
            summary["dual_put_mc"] = f"{rhs.mean:.8g} +- {rhs.stderr:.4g}"
            summary["gap_over_stderr"] = f"{abs(lhs.mean - rhs.mean) / max(comb, 1e-12):.3f}"
            summary["call_mc_unreliable"] = lhs.unreliable
            summary["dual_put_mc_unreliable"] = rhs.unreliable
            summary["mc_path_steps"] = lhs.path_steps + rhs.path_steps
        elif task == "bermudan":
            n_dates = 2 ** num["bermudan_xi"]
            res = bermudan_dp(model, omega, problem.strike,
                              num["bermudan_horizon"], n_dates)
            spots = problem.strike * np.array([0.5, 0.75, 1.0, 1.25, 1.5])
            vals = bermudan_value_at(res, spots)
            for sp, vv in zip(spots, vals):
                summary[f"bermudan_v_{sp:g}"] = f"{vv:.8g}"
            summary["kernel_residual_mass"] = f"{res['kernel_residual_mass']:.3e}"
        else:
            raise ConfigError(f"unknown task {task!r}")
    except (np.linalg.LinAlgError, OverflowError, RuntimeError) as err:
        summary["error"] = f"{type(err).__name__}: {err}"
        return finish(EXIT_NUMERICS)
    except ValueError as err:
        # ConfigError, or a model/discount combination outside the supported domain
        summary["error"] = str(err)
        return finish(EXIT_CONFIG)
    return finish(EXIT_OK)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="omega-pricer",
                                 description="Perpetual American option pricing "
                                             "with asset-level-dependent discounting")
    ap.add_argument("--config", type=str, default=None, help="INI config path")
    ap.add_argument("--preset", type=str, default=None,
                    help=f"bundled preset: {', '.join(sorted(PRESETS))}")
    ap.add_argument("--out-dir", type=str, default="out")
    ap.add_argument("--seed", type=int, default=None, help="override numerics seed")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)
    if args.config is None and args.preset is None:
        ap.error("need --config or --preset")
    overrides = {}
    if args.seed is not None:
        overrides = {"numerics": {"seed": args.seed}}
    try:
        cfg = load_config(args.config, args.preset, overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, Path(args.out_dir), quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
