"""Workloads of the omega-pricer benchmark: inputs, operations and checks.

A workload is a list of operations built from the seed.  Operations call
only the public API of the library (``optimize_boundaries``,
``stopped_value``, ``bermudan_dp``, ``symmetry_check``, ``cli.load_config``
and ``cli.run``), looked up on the package at call time, so internals can be
rewritten or deleted without breaking the benchmark and the tracer can
patch what the calls reach.

Each operation has a timed ``run`` and an untimed ``collect`` that turns the
raw result into a dict of numbers and arrays.  Its ``check`` compares that
dict against references whose origin is stated where they are pinned, with
tolerances set above each route's known discretisation error so that a more
accurate core still passes.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import airy, hyp2f1, kve

K_PRESET = 20.0

# crash model (sigma = 0, lam = 6, phi = 2, r = 5%, omega = 0.1 s, K = 20):
# the independent recessive-solution route recorded in ROADMAP.md gives
# u* = 12.0888925 and Monte Carlo confirms it; the library returns
# 12.0888915.  The disputed criterion-2 band [4.51, 4.61] is not used.
CRASH_U_REF = 12.0888925
# V(15) of that contract at its u*, from the library at the commit that
# added this benchmark; the value is stationary in u at the optimum, so the
# 1e-6 gap between the two u* above moves it by far less than MC error.
CRASH_V15_REF = 6.4501735250354795

# sigma = 0.2 variant of the crash contract: pinned from the library at the
# commit that added this benchmark (no second route exists yet).  ROADMAP.md
# puts the route's discretisation error near 5e-4 relative in the value.
CREEP_U_REF = 11.889162349395779
CREEP_V30_REF = 2.9329898809316757
CREEP_V30_REF_TOL = 2e-3

# two-sided Step(-0.02, 0.12, y=1, above) contract, r = 0.3, lam = 0.5,
# phi = 3, K = 20: pinned from the library at the commit that added this
# benchmark.  l* sits on the step at y = 1.
STEP_L_REF = 0.9999989204741482
STEP_U_REF = 17.62768125940737

# paper's rational example (C = 0.001, D = 0.01, mu = 5%, sigma = 20%, K = 20)
PAPER_L_BAND = (7.18, 7.28)
PAPER_U_BAND = (8.29, 8.39)

# Black-Scholes boundaries against the closed forms: the generic h route
# anchors its outer branch at 4x the curve range with a locally constant
# rate, which for small linear rates was measured to move u* by 2e-4
# relative (mu = 0.0155, sigma = 0.317, C = 0.002, K = 11.47: 2.257329 vs
# 2.257784); elsewhere the errors stay near 1e-5
BS_BOUNDARY_RTOL = 5e-4
MC_MAX_SE = 4.0


@dataclass
class Op:
    """One operation: a timed call into the library and its checks."""

    id: str
    run: Callable[[], object]
    collect: Callable[[object], dict]
    check: Callable[[dict], list]


@dataclass
class Workload:
    ops: list
    cleanup: Callable[[], None] = lambda: None


def fingerprint(out: dict):
    """Exact, hashable image of an output dict (arrays compared bytewise)."""
    items = []
    for key in sorted(out):
        val = out[key]
        if isinstance(val, np.ndarray):
            items.append((key, val.dtype.str, val.shape, val.tobytes()))
        elif isinstance(val, dict):
            items.append((key, fingerprint(val)))
        else:
            items.append((key, repr(val)))
    return tuple(items)


def warm_up(api) -> None:
    """One small call through each public entry point a workload uses."""
    bs = api.LevyModel.black_scholes(0.05, 0.2)
    api.optimize_boundaries(api.PricingProblem(bs, api.Constant(0.05), K_PRESET),
                            n_curve=64)
    api.stopped_value(bs, api.Constant(0.05), K_PRESET, api.Boundaries(0.0, 14.0),
                      15.0, 64, 1e-2, t_max=1.0, seed=0)
    api.bermudan_dp(bs, api.Constant(0.05), K_PRESET, 1.0, 4, n_grid=129)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _curve_checks(out: dict, strike: float, convex: bool) -> list:
    """V >= payoff on the curve and, where it applies, convexity."""
    problems = []
    s, v = out["s"], out["values"]
    if not np.all(np.isfinite(v)):
        problems.append("non-finite value on the curve")
        return problems
    short = float(np.min(v - np.maximum(strike - s, 0.0)))
    if short < -1e-7 * strike:
        problems.append(f"value below payoff by {-short:.3e}")
    if convex:
        stride = max(1, len(s) // 128)
        ss, vv = s[::stride], v[::stride]
        h = ss[1] - ss[0]
        d2 = (vv[2:] - 2.0 * vv[1:-1] + vv[:-2]) / (h * h)
        floor = -1e-8 * float(np.max(np.abs(v)))
        if float(np.min(d2)) < floor:
            problems.append(f"convexity margin {float(np.min(d2)):.3e} < {floor:.3e}")
    return problems


def _fit_checks(fit: dict, smooth: bool, sides=("u",), smooth_tol: float = 1e-4) -> list:
    problems = []
    for side in sides:
        cont = fit[f"continuity_{side}"]
        if not cont < 1e-6:
            problems.append(f"continuity_{side} {cont:.3e} >= 1e-6")
        if smooth:
            gap = fit[f"derivative_gap_{side}"]
            if not gap < smooth_tol:
                problems.append(f"derivative_gap_{side} {gap:.3e} >= {smooth_tol:g}")
    return problems


def _price_collect(res) -> dict:
    return {"l": float(res.l_star), "u": float(res.u_star), "s": res.s_grid,
            "values": np.asarray(res.values, dtype=float),
            "fit": {k: float(v) for k, v in res.fit.items()}}


# ---------------------------------------------------------------------------
# independent Black-Scholes references (scipy special functions only)
# ---------------------------------------------------------------------------

def _fit_root(dlog: Callable, strike: float, lo: float, hi: float, n: int = 400):
    """First root of 1 + (K - b) h'(b)/h(b) on [lo, hi], scanning upward."""
    def f(b):
        return 1.0 + (strike - b) * dlog(b)
    xs = np.linspace(lo, hi, n)
    vals = [f(x) for x in xs]
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if np.isfinite(v0) and np.isfinite(v1) and v0 * v1 < 0.0:
            return brentq(f, x0, x1, xtol=1e-13, rtol=1e-14)
    return None


def _dlog_constant(mu, sigma, r):
    theta = (-(mu - 0.5 * sigma ** 2) - math.sqrt((mu - 0.5 * sigma ** 2) ** 2
                                                  + 2.0 * sigma ** 2 * r)) / sigma ** 2
    return lambda s: theta / s


def _dlog_linear(mu, sigma, c):
    """Decaying solution s^L K_{2|L|}(sqrt(8 c s)/sigma) of the h-equation."""
    big_l = 0.5 - mu / sigma ** 2
    nu = 2.0 * abs(big_l)

    def dlog(s):
        z = math.sqrt(8.0 * c * s) / sigma
        kp = -0.5 * (kve(nu - 1.0, z) + kve(nu + 1.0, z))
        return big_l / s + (kp / kve(nu, z)) * z / (2.0 * s)
    return dlog


def _dlog_log_area(mu, sigma, k_rate):
    """Decaying solution for omega = (log s - log k)^+: Airy above k, C^1
    continued through the omega = 0 solutions 1 and s^(1 - 2 mu/sigma^2)."""
    zeta = mu - 0.5 * sigma ** 2
    sig2 = sigma ** 2
    kappa = -zeta / sig2
    a = (2.0 / sig2) ** (1.0 / 3.0)
    c0 = zeta ** 2 / (2.0 * sig2)
    p = -2.0 * zeta / sig2

    def airy_part(y):
        ai, aip, _, _ = airy(a * (y + c0))
        return ai, kappa * ai + a * aip  # h and dh/dy up to e^{kappa y}

    h0, dh0 = airy_part(0.0)

    def dlog(s):
        y = math.log(s / k_rate)
        if y >= 0.0:
            ai, dai = airy_part(y)
            return dai / ai / s
        grow = math.exp(p * y)
        ramp = math.expm1(p * y) / p if abs(p) > 1e-12 else y
        return dh0 * grow / (h0 + dh0 * ramp) / s
    return dlog


def _rational_branch(mu, sigma, c, d, which):
    """h_i(s) = s^d_i 2F1(a_i, b_i; c_i; -s): i = 1 outer, i = 2 inner."""
    sig2 = sigma ** 2
    big_l = 0.5 - mu / sig2
    m = math.sqrt(big_l ** 2 - 2.0 * d / sig2)
    g = math.sqrt(big_l ** 2 - 2.0 * (c + d) / sig2)
    sgn = 1.0 if which == 1 else -1.0
    a, b, cc = sgn * (m - g), -sgn * (m + g), 1.0 - sgn * 2.0 * g
    dd = -sgn * g + big_l

    def dlog(s):
        f = hyp2f1(a, b, cc, -s)
        fp = -(a * b / cc) * hyp2f1(a + 1.0, b + 1.0, cc + 1.0, -s)
        return dd / s + fp / f
    return dlog


def bs_reference(kind: str, p: dict):
    """(l*, u*) from the closed-form solutions, or None where none exists."""
    mu, sigma, strike = p["mu"], p["sigma"], p["strike"]
    if kind == "constant":
        dl = _dlog_constant(mu, sigma, p["r"])
        theta = dl(1.0)
        return 0.0, strike * theta / (theta - 1.0)
    if kind == "linear":
        return 0.0, _fit_root(_dlog_linear(mu, sigma, p["c"]), strike,
                              0.02 * strike, 0.999 * strike)
    if kind == "log_area":
        return 0.0, _fit_root(_dlog_log_area(mu, sigma, p["k"]), strike,
                              0.02 * strike, 0.999 * strike)
    if kind == "rational":
        u = _fit_root(_rational_branch(mu, sigma, p["c"], p["d"], 1), strike,
                      0.02 * strike, 0.999 * strike)
        l = _fit_root(_rational_branch(mu, sigma, p["c"], p["d"], 2), strike,
                      0.005 * strike, u)
        return l, u
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# bs_batch
# ---------------------------------------------------------------------------

# contracts per kind; the rational count includes the paper's example.  The
# median latency falls inside the rational cluster, not in the gap between
# it and the slower linear and log-area contracts, where it would jump
BS_COUNTS = {"constant": 40, "rational": 60, "linear": 25, "log_area": 25}
BS_DESIGN_SEED = 20200718


def _latin_hypercube(design, rng, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims, one per stratum in every dimension.

    The pairing of strata comes from the fixed design generator and the
    position inside each stratum from the seed, so every seed prices the
    same spread of contracts and per-seed changes in cost stay small.
    """
    strata = np.stack([design.permutation(n) for _ in range(dims)], axis=1)
    return (strata + rng.random((n, dims))) / n


def _span(x, lo, hi):
    return lo + (hi - lo) * x


def bs_contracts(seed: int) -> list:
    """(kind, params) drawn from the seed, a Latin hypercube per kind.

    Rational contracts are drawn in the finite-value domain
    L^2 >= 2(C+D)/sigma^2 with L = 1/2 - mu/sigma^2 < 0, through
    G = sqrt(L^2 - 2(C+D)/sigma^2) < 1/2.  The library's closed-form outer
    branch changes sign when G >= 1/2 (its c parameter 1 - 2G turns
    negative), which it reports as a math domain error.  Log-area contracts
    keep the log drift mu - sigma^2/2 positive: with a zero rate below k and
    a downward drift, waiting always beats stopping and no boundary exists.
    """
    rng = np.random.default_rng(seed)
    design = np.random.default_rng(BS_DESIGN_SEED)
    out = []
    for kind, n in BS_COUNTS.items():
        if kind == "rational":
            n -= 1
            out.append(("rational", {"mu": 0.05, "sigma": 0.2, "strike": 20.0,
                                     "c": 0.001, "d": 0.01, "paper": True}))
        for row in _latin_hypercube(design, rng, n, 5):
            strike = _span(row[0], 10.0, 30.0)
            if kind == "rational":
                sigma = _span(row[1], 0.15, 0.30)
                big_l = _span(row[2], -1.0, -0.3)
                g = _span(row[3], 0.1, 0.9) * min(0.45, 0.9 * abs(big_l))
                total = sigma ** 2 * (big_l ** 2 - g ** 2) / 2.0
                frac = _span(row[4], 0.05, 0.5)
                p = {"mu": sigma ** 2 * (0.5 - big_l), "sigma": sigma,
                     "strike": strike, "c": frac * total, "d": (1.0 - frac) * total}
            elif kind == "log_area":
                sigma = _span(row[1], 0.15, 0.35)
                p = {"mu": 0.5 * sigma ** 2 + _span(row[2], 0.005, 0.05),
                     "sigma": sigma, "strike": strike, "k": strike * _span(row[3], 0.5, 1.5)}
            else:
                p = {"mu": _span(row[1], 0.01, 0.08), "sigma": _span(row[2], 0.15, 0.35),
                     "strike": strike}
                if kind == "constant":
                    p["r"] = _span(row[3], 0.02, 0.10)
                else:
                    p["c"] = _span(row[3], 0.002, 0.02)
            out.append((kind, p))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _bs_op(api, idx: int, kind: str, p: dict) -> Op:
    if kind == "constant":
        omega = api.Constant(p["r"])
    elif kind == "linear":
        omega = api.Linear(p["c"])
    elif kind == "log_area":
        omega = api.LogArea(p["k"])
    else:
        omega = api.Rational(p["c"], p["d"])
    problem = api.PricingProblem(api.LevyModel.black_scholes(p["mu"], p["sigma"]),
                                 omega, p["strike"])
    strike = p["strike"]
    reference = []  # computed on the first check, reused by later passes

    def run():
        return api.optimize_boundaries(problem)

    def check(out):
        problems = []
        if not reference:
            reference.append(bs_reference(kind, p))
        l_ref, u_ref = reference[0]
        if u_ref is None or _rel(out["u"], u_ref) > BS_BOUNDARY_RTOL:
            problems.append(f"u*={out['u']!r} vs closed form {u_ref!r}")
        if kind == "rational":
            if l_ref is None or _rel(out["l"], l_ref) > BS_BOUNDARY_RTOL:
                problems.append(f"l*={out['l']!r} vs closed form {l_ref!r}")
            if p.get("paper"):
                if not PAPER_L_BAND[0] <= out["l"] <= PAPER_L_BAND[1]:
                    problems.append(f"l*={out['l']!r} outside paper band {PAPER_L_BAND}")
                if not PAPER_U_BAND[0] <= out["u"] <= PAPER_U_BAND[1]:
                    problems.append(f"u*={out['u']!r} outside paper band {PAPER_U_BAND}")
        elif out["l"] != 0.0:
            problems.append(f"l*={out['l']!r}, want 0 for a nonnegative rate")
        if kind == "constant":
            s, v = out["s"], out["values"]
            above = s > out["u"] * (1.0 + 1e-9)
            theta = _dlog_constant(p["mu"], p["sigma"], p["r"])(1.0)
            ref = (strike - out["u"]) * (s[above] / out["u"]) ** theta
            err = float(np.max(np.abs(v[above] / ref - 1.0))) if above.any() else 0.0
            if err > 1e-4:
                problems.append(f"curve sup-rel error {err:.3e} vs closed form")
        sides = ("l", "u") if kind == "rational" else ("u",)
        problems += _fit_checks(out["fit"], smooth=True, sides=sides)
        # concave non-decreasing rates give a convex value
        problems += _curve_checks(out, strike, convex=kind != "log_area")
        return problems

    return Op(f"bs{idx:03d}_{kind}", run, _price_collect, check)


def bs_batch(api, seed: int, work: Path) -> Workload:
    return Workload([_bs_op(api, i, kind, p)
                     for i, (kind, p) in enumerate(bs_contracts(seed))])


# ---------------------------------------------------------------------------
# jump workloads
# ---------------------------------------------------------------------------

def _read_cli(out_dir: Path, code: int) -> dict:
    summary = {}
    for line in (out_dir / "summary.txt").read_text().splitlines():
        key, _, val = line.partition(" = ")
        if key != "runtime_s":
            summary[key] = val
    out = {"code": code, "summary": summary}
    curve = out_dir / "value_curve.csv"
    if curve.exists():
        data = np.loadtxt(curve, delimiter=",", skiprows=1, ndmin=2)
        out.update(s=data[:, 0], values=data[:, 1])
    return out


def _cli_op(api, op_id: str, cfg: dict, work: Path, check) -> Op:
    out_dir = work / op_id

    def run():
        return api.cli.run(cfg, out_dir, quiet=True)

    return Op(op_id, run, lambda code: _read_cli(out_dir, code), check)


def _crash_cli_op(api, work: Path) -> Op:
    cfg = api.cli.load_config(preset="crash_linear")

    def check(out):
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['summary'].get('error')}"]
        sm = out["summary"]
        problems = []
        if float(sm["l_star"]) != 0.0:
            problems.append(f"l*={sm['l_star']}, want 0")
        if _rel(float(sm["u_star"]), CRASH_U_REF) > 1e-4:
            problems.append(f"u*={sm['u_star']} vs {CRASH_U_REF}")
        if not float(sm["continuity_u"]) < 1e-6:
            problems.append(f"continuity_u {sm['continuity_u']}")
        if not float(sm["hjb_stopping_violation"]) <= 1e-12:
            problems.append(f"stopping violation {sm['hjb_stopping_violation']}")
        return problems + _curve_checks(out, K_PRESET, convex=True)

    return _cli_op(api, "crash_linear_cli", cfg, work, check)


def _step_op(api) -> Op:
    model = api.LevyModel.calibrated(r=0.30, sigma=0.0, lam=0.5, phi=3.0)
    problem = api.PricingProblem(model, api.Step(-0.02, 0.12, 1.0, "above"), K_PRESET)

    def run():
        return api.optimize_boundaries(problem, n_curve=128)

    def check(out):
        problems = []
        if not 0.0 < out["l"] < out["u"] < K_PRESET:
            problems.append(f"need 0 < l* < u* < K, got {out['l']!r}, {out['u']!r}")
        if abs(out["l"] - STEP_L_REF) > 1e-3:
            problems.append(f"l*={out['l']!r} vs {STEP_L_REF}")
        if _rel(out["u"], STEP_U_REF) > 1e-3:
            problems.append(f"u*={out['u']!r} vs {STEP_U_REF}")
        problems += _fit_checks(out["fit"], smooth=False, sides=("l", "u"))
        return problems + _curve_checks(out, K_PRESET, convex=False)

    return Op("step_two_sided", run, _price_collect, check)


def jump_fv(api, seed: int, work: Path) -> Workload:
    # the two contracts are pinned with their references; the seed only
    # orders them
    ops = [_crash_cli_op(api, work), _step_op(api)]
    order = np.random.default_rng(seed).permutation(len(ops))
    return Workload([ops[i] for i in order],
                    cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


def jump_creep(api, seed: int, work: Path) -> Workload:
    # one pinned contract; the seed has nothing to vary
    model = api.LevyModel.calibrated(r=0.05, sigma=0.2, lam=6.0, phi=2.0)
    problem = api.PricingProblem(model, api.Linear(0.1), K_PRESET)

    def run():
        return api.optimize_boundaries(problem, n_curve=128)

    def check(out):
        problems = []
        if out["l"] != 0.0:
            problems.append(f"l*={out['l']!r}, want 0")
        if _rel(out["u"], CREEP_U_REF) > 2e-3:
            problems.append(f"u*={out['u']!r} vs {CREEP_U_REF}")
        v30 = float(np.interp(30.0, out["s"], out["values"]))
        if _rel(v30, CREEP_V30_REF) > CREEP_V30_REF_TOL:
            problems.append(f"V(30)={v30!r} vs {CREEP_V30_REF}")
        problems += _fit_checks(out["fit"], smooth=True, smooth_tol=5e-3)
        return problems + _curve_checks(out, K_PRESET, convex=True)

    return Workload([Op("crash_sigma_creep", run, _price_collect, check)])


# ---------------------------------------------------------------------------
# verify_mc
# ---------------------------------------------------------------------------

def _mc_collect(est) -> dict:
    return {"mean": float(est.mean), "stderr": float(est.stderr)}


def _mc_check(ref: float):
    def check(out):
        gap = abs(out["mean"] - ref)
        if gap > MC_MAX_SE * out["stderr"] or gap > 0.01 * ref:
            return [f"MC {out['mean']!r} +- {out['stderr']!r} vs {ref!r}"]
        return []
    return check


def _bs_put_closed_form(mu, sigma, r, strike):
    theta = _dlog_constant(mu, sigma, r)(1.0)
    u = strike * theta / (theta - 1.0)
    return u, lambda s: np.where(s > u, (strike - u) * (np.asarray(s) / u) ** theta,
                                 strike - np.asarray(s))


# Bermudan ladder (log2 dates, horizon years) and the long-date rollback
BERMUDAN_LADDER = ((4, 5.0), (6, 10.0), (8, 20.0))
BERMUDAN_LONG = (10, 40.0)
BERMUDAN_SPOTS = np.array([15.0, 16.0, 18.0, 20.0, 24.0])


def verify_mc(api, seed: int, work: Path) -> Workload:
    """The verifier at pinned boundaries: no analytic layer runs."""
    crash = api.LevyModel.calibrated(r=0.05, sigma=0.0, lam=6.0, phi=2.0)
    bs = api.LevyModel.black_scholes(0.05, 0.2)
    u_bs, v_bs = _bs_put_closed_form(0.05, 0.2, 0.05, K_PRESET)
    perpetual = v_bs(BERMUDAN_SPOTS)
    base = 1000 * seed

    def mc_crash():
        return api.stopped_value(crash, api.Linear(0.1), K_PRESET,
                                 api.Boundaries(0.0, CRASH_U_REF), 15.0,
                                 200_000, 1e-3, t_max=60.0, seed=base + 1)

    def mc_bs():
        return api.stopped_value(bs, api.Constant(0.05), K_PRESET,
                                 api.Boundaries(0.0, u_bs), 15.0,
                                 200_000, 2e-3, t_max=120.0, seed=base + 2)

    gold_cfg = api.cli.load_config(preset="gold_loan",
                                   overrides={"numerics": {"seed": base + 3}})

    def gold_check(out):
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['summary'].get('error')}"]
        gap = float(out["summary"]["gap_over_stderr"])
        return [] if gap < MC_MAX_SE else [f"symmetry sides {gap} stderr apart"]

    def rollback(log2_dates, horizon):
        res = api.bermudan_dp(bs, api.Constant(0.05), K_PRESET, horizon,
                              2 ** log2_dates, n_grid=3073)
        return np.interp(np.log(BERMUDAN_SPOTS), res["x_grid"], res["values"])

    def ladder_check(out):
        problems = []
        rows = [out[f"rung{i}"] for i in range(len(BERMUDAN_LADDER))]
        for a, b in zip(rows[:-1], rows[1:]):
            if not np.all(b >= a - 1e-3):
                problems.append("Bermudan ladder not monotone")
        for row in rows:
            if not np.all(row <= perpetual + 1e-3):
                problems.append("Bermudan value above the perpetual closed form")
        return problems

    def long_check(out):
        row = out["values"]
        if not np.all(row <= perpetual + 1e-3):
            return ["long-date Bermudan above the perpetual closed form"]
        if float(np.max(perpetual - row)) > 0.05:
            return ["long-date Bermudan more than 0.05 below the perpetual"]
        return []

    ops = [
        Op("mc_crash", mc_crash, _mc_collect, _mc_check(CRASH_V15_REF)),
        Op("mc_bs_constant", mc_bs, _mc_collect, _mc_check(float(v_bs(15.0)))),
        _cli_op(api, "gold_loan_cli", gold_cfg, work, gold_check),
        Op("bermudan_ladder",
           lambda: [rollback(x, h) for x, h in BERMUDAN_LADDER],
           lambda rows: {f"rung{i}": r for i, r in enumerate(rows)}, ladder_check),
        Op("bermudan_long", lambda: rollback(*BERMUDAN_LONG),
           lambda row: {"values": row}, long_check),
    ]
    return Workload(ops, cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


def selftest(api, seed: int, work: Path) -> Workload:
    """Tiny workload for the self-test: the scale, pricer, specfun, mc and
    cli layers once each, plus one operation whose check fails on purpose."""
    bs = api.LevyModel.black_scholes(0.05, 0.2)
    u_bs, v_bs = _bs_put_closed_form(0.05, 0.2, 0.05, K_PRESET)

    def mc():
        return api.stopped_value(bs, api.Constant(0.05), K_PRESET,
                                 api.Boundaries(0.0, u_bs), 15.0, 4000, 1e-2,
                                 t_max=60.0, seed=seed)

    def deliberate(out):
        return ["deliberate failure: the self-test expects it to be counted"]

    ops = [
        _bs_op(api, 0, "constant", {"mu": 0.05, "sigma": 0.2, "strike": 20.0, "r": 0.05}),
        _bs_op(api, 1, "rational", {"mu": 0.05, "sigma": 0.2, "strike": 20.0,
                                    "c": 0.001, "d": 0.01, "paper": True}),
        _crash_cli_op(api, work),
        Op("mc_small", mc, _mc_collect, lambda out: [] if abs(out["mean"] - float(v_bs(15.0)))
           < 5.0 * out["stderr"] + 0.05 else ["small MC far from the closed form"]),
        Op("bermudan_small",
           lambda: api.bermudan_dp(bs, api.Constant(0.05), K_PRESET, 5.0, 16, n_grid=513),
           lambda res: {"values": res["values"]}, lambda out: []),
        Op("deliberate_failure", lambda: api.optimize_boundaries(
            api.PricingProblem(bs, api.Constant(0.05), K_PRESET), n_curve=64),
           _price_collect, deliberate),
    ]
    return Workload(ops, cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


WORKLOADS = {
    "jump_fv": jump_fv,
    "jump_creep": jump_creep,
    "bs_batch": bs_batch,
    "verify_mc": verify_mc,
}
# every workload a run accepts; the self-test one is not in BENCHMARK.json
BUILDERS = {**WORKLOADS, "selftest": selftest}
