"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 2 checks the linear-discount jump boundary and value curve
against their Kummer closed form (scipy's `hyperu`, independent of the
library); the reproduction band u* in [4.51, 4.61] it used to assert was
dropped because a stopping rule at 4.56 is worth less than immediate
exercise (see docs/criterion2.md).
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import hyperu

from omega_pricer import Constant, LevyModel, Linear, LogGrid, Rational
from omega_pricer.levy import psi_roots
from omega_pricer.mc import (bermudan_dp, bermudan_value_at, default_t_max,
                              stopped_value, symmetry_check)
from omega_pricer.pricer import (
    Boundaries,
    PricingProblem,
    convexity_margin,
    hjb_residual,
    optimize_boundaries,
)
from omega_pricer.scale import build_scale_table
from reference_scale import renewal_solve_w, renewal_solve_z

K = 20.0


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def bs_rational_result(bs_model):
    t0 = time.perf_counter()
    res = optimize_boundaries(PricingProblem(bs_model, Rational(0.001, 0.01), K))
    res.diagnostics["wall_s"] = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def crash_linear_result(crash_model):
    t0 = time.perf_counter()
    res = optimize_boundaries(PricingProblem(crash_model, Linear(0.1), K))
    res.diagnostics["wall_s"] = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def classical_result(bs_model):
    return optimize_boundaries(PricingProblem(bs_model, Constant(0.05), K))


def test_criterion_1_rational_reproduction(bs_rational_result):
    """C=0.001, D=0.01, K=20, mu=5%, sigma=20%: l* in [7.18,7.28], u* in
    [8.29,8.39], runtime < 30 s single-threaded."""
    res = bs_rational_result
    ok = (7.18 <= res.l_star <= 7.28 and 8.29 <= res.u_star <= 8.39
          and res.diagnostics["wall_s"] < 30.0)
    assert _report(1, ok,
                   f"l*={res.l_star:.4f} (want [7.18,7.28]), u*={res.u_star:.4f} "
                   f"(want [8.29,8.39]), runtime {res.diagnostics['wall_s']:.1f}s")


def _crash_linear_closed_form(r, lam, phi, slope, strike):
    """Kummer closed form of the put for sigma = 0, Exp(phi) down-jumps and
    omega(s) = slope * s, built from scipy alone (docs/criterion2.md).

    Stopping at the first S <= u is worth, for s > u,
    V_u(s) = (K - u phi/(1+phi)) A(u) U(a, b, slope s/mu),
    a = 1+phi, b = 1+phi-lam/mu: the overshoot below u is memoryless, the
    Laplace transform of the passage solves Kummer's equation and A(u) is
    fixed by the generator at s = u+.  Returns the continuous-fit root u_cf
    of V_u(u+) = K - u and the curve s -> V_{u_cf}(s).
    """
    mu = r + lam / (1.0 + phi)  # martingale drift: psi(1) = r
    a, b = 1.0 + phi, 1.0 + phi - lam / mu

    def value(u, s):
        xu = slope * u / mu
        amp = lam / ((lam + slope * u) * hyperu(a, b, xu)
                     + slope * u * a * hyperu(a + 1.0, b + 1.0, xu))
        return ((strike - u * phi / (1.0 + phi)) * amp
                * hyperu(a, b, slope * np.asarray(s) / mu))

    u_cf = brentq(lambda u: value(u, u) - (strike - u), 0.05 * strike, strike,
                  xtol=1e-12)
    return u_cf, lambda s: value(u_cf, s)


def test_criterion_2_crash_linear_reproduction(crash_linear_result, crash_model):
    """C=0.1, K=20, r=5%, lam=6, phi=2, sigma=0: l* = 0, u* within 1e-6
    relative of the Kummer closed-form continuous-fit root (12.0889), value
    curve above u* within 1e-4 sup-relative of the closed form, runtime
    < 30 s single-threaded.

    The closed form is computed here from r, lam and phi with scipy's
    `hyperu`, independently of both library routes.  The band u* in
    [4.51, 4.61] that this criterion used to assert was dropped: stopping at
    the first S <= 4.56 is worth 7.80 at s = 10, where exercising at once
    pays 10, so 4.56 cannot be optimal, and exact-in-law Monte Carlo agrees.
    The band's source cannot be checked against the paper text in this
    repo.  Derivation and numbers: docs/criterion2.md.
    """
    assert (crash_model.sigma, crash_model.lam, crash_model.phi) == (0.0, 6.0, 2.0)
    u_cf, v_cf = _crash_linear_closed_form(0.05, 6.0, 2.0, 0.1, K)
    res = crash_linear_result
    u_err = abs(res.u_star / u_cf - 1.0)
    s = res.s_grid
    above = s > res.u_star * (1.0 + 1e-9)
    curve_err = float(np.max(np.abs(res.values[above] / v_cf(s[above]) - 1.0)))
    ok = (res.l_star == 0.0 and u_err < 1e-6 and curve_err < 1e-4
          and res.diagnostics["wall_s"] < 30.0)
    assert _report(2, ok,
                   f"l*={res.l_star} (want 0), u*={res.u_star:.7f} vs closed "
                   f"form {u_cf:.7f} (rel {u_err:.1e}, want < 1e-6), curve "
                   f"sup-rel err {curve_err:.2e} (want < 1e-4), runtime "
                   f"{res.diagnostics['wall_s']:.1f}s")


def test_criterion_3_classical_collapse(classical_result):
    """omega == r in BS collapses to the textbook perpetual put."""
    gamma = 2.0 * 0.05 / 0.04
    u_ref = K * gamma / (1.0 + gamma)
    res = classical_result
    ok_u = abs(res.u_star - u_ref) / u_ref < 1e-3
    s = res.s_grid
    above = s > res.u_star * (1.0 + 1e-9)
    ref = (K - res.u_star) * (s[above] / res.u_star) ** (-gamma)
    curve_err = float(np.max(np.abs(res.values[above] / ref - 1.0)))
    ok_c = curve_err < 1e-4
    assert _report(3, ok_u and ok_c,
                   f"u*={res.u_star:.6f} vs {u_ref:.6f}, curve sup-rel err "
                   f"{curve_err:.2e} (want < 1e-4)")


def test_criterion_4_solver_cross_validation(crash_model, crash_model_sigma):
    """The renewal state system (build_scale_table) and the reference march
    of the renewal equations agree to < 1e-6 sup-relative on [0,3]."""
    grid = LogGrid(3.0, 6001)
    rate = lambda x: Linear(0.1)(np.exp(x))
    worst = 0.0
    for model in (crash_model, crash_model_sigma):
        dec = psi_roots(model)
        tab = build_scale_table(model, Linear(0.1), grid)
        for a, renewal in ((tab.w, renewal_solve_w), (tab.z, renewal_solve_z)):
            b = renewal(dec, rate, grid)
            scale = np.maximum(np.abs(a), 1e-9 * np.max(np.abs(a)))
            worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    assert _report(4, worst < 1e-6,
                   f"sup relative route disagreement {worst:.2e} (want < 1e-6), "
                   f"sigma in {{0, 0.2}}")


def test_criterion_5_mc_agreement(crash_linear_result, classical_result,
                                  crash_model, bs_model):
    """stopped_value at the analytic optimum within 3 stderr and 1%,
    n = 2e5 paths, runtime < 2 min."""
    t0 = time.perf_counter()
    s0 = 15.0
    # (a) linear-discount crash model
    va = float(crash_linear_result.value_fn(np.array([s0]))[0])
    ea = stopped_value(crash_model, Linear(0.1), K, crash_linear_result.boundaries,
                       s0, 200_000, t_max=60.0, seed=101)
    gap_a = abs(ea.mean - va)
    ok_a = gap_a < 3.0 * ea.stderr and gap_a / va < 0.01
    # (b) classical collapse
    vb = float(classical_result.value_fn(np.array([s0]))[0])
    eb = stopped_value(bs_model, Constant(0.05), K, classical_result.boundaries,
                       s0, 200_000, t_max=120.0, seed=102)
    gap_b = abs(eb.mean - vb)
    ok_b = gap_b < 3.0 * eb.stderr and gap_b / vb < 0.01
    wall = time.perf_counter() - t0
    assert _report(5, ok_a and ok_b and wall < 120.0,
                   f"crash: mc {ea.mean:.4f}+-{ea.stderr:.4f} vs {va:.4f} "
                   f"({gap_a / ea.stderr:.2f} se, {100 * gap_a / va:.2f}%); "
                   f"classical: mc {eb.mean:.4f}+-{eb.stderr:.4f} vs {vb:.4f} "
                   f"({gap_b / eb.stderr:.2f} se, {100 * gap_b / vb:.2f}%); "
                   f"runtime {wall:.0f}s (< 120s)")


def test_criterion_6_convexity(crash_linear_result, classical_result):
    """Minimum scaled second difference >= -1e-8 max|V| on both curves."""
    details = []
    ok = True
    for name, res in (("crash", crash_linear_result),
                      ("classical", classical_result)):
        margin = convexity_margin(res)
        floor = -1e-8 * float(np.max(np.abs(res.values)))
        ok = ok and margin >= floor
        details.append(f"{name}: margin {margin:.2e} vs floor {floor:.2e}")
    assert _report(6, ok, "; ".join(details))


def test_criterion_7_fit_properties(bs_rational_result, crash_linear_result,
                                    classical_result):
    """Continuous fit < 1e-6 at every boundary; smooth fit < 1e-4 when
    sigma > 0; the sigma = 0 derivative gap is reported, not asserted."""
    ok = True
    details = []
    for name, res, sigma_pos in (("rational", bs_rational_result, True),
                                 ("crash", crash_linear_result, False),
                                 ("classical", classical_result, True)):
        for side in ("l", "u"):
            bpt = getattr(res, f"{side}_star")
            if bpt <= 0.0:
                continue
            cont = res.fit[f"continuity_{side}"]
            ok = ok and cont < 1e-6
            details.append(f"{name}.{side}: cont {cont:.1e}")
            gap = res.fit[f"derivative_gap_{side}"]
            if sigma_pos:
                ok = ok and gap < 1e-4
                details.append(f"smooth {gap:.1e}")
            else:
                details.append(f"deriv gap {gap:.2f} (reported)")
    assert _report(7, ok, "; ".join(details))


def test_criterion_8_hjb_residual(bs_rational_result, classical_result, bs_model):
    """Scaled generator residual < 1e-3 over continuation samples."""
    r1 = hjb_residual(bs_rational_result,
                      PricingProblem(bs_model, Rational(0.001, 0.01), K))
    r2 = hjb_residual(classical_result,
                      PricingProblem(bs_model, Constant(0.05), K))
    ok = (r1["continuation_sup"] < 1e-3 and r2["continuation_sup"] < 1e-3
          and r1["stopping_violation"] <= 1e-12
          and r2["stopping_violation"] <= 1e-12)
    assert _report(8, ok,
                   f"rational sup {r1['continuation_sup']:.2e}, classical sup "
                   f"{r2['continuation_sup']:.2e} (want < 1e-3)")


def test_criterion_9_put_call_symmetry():
    """Both identity sides within 3 combined stderr at 5 spot/strike pairs,
    neither side unreliable at the default horizon; independently optimised
    dual boundaries satisfy |l_c u* - sK|/(sK) < 1%."""
    r = 0.03
    level = 0.06  # constant discount level; > psi(1) keeps the dual put alive
    model = LevyModel.black_scholes(mu=r, sigma=0.2)
    pairs = [(18.0, 20.0), (20.0, 20.0), (22.0, 20.0), (20.0, 18.0), (16.0, 22.0)]
    worst_se = 0.0
    worst_trunc = 0.0
    ok_pairs = True
    for i, (s0, strike) in enumerate(pairs):
        pb = PricingProblem(model, Constant(level), strike, "call")
        m = max(s0, strike)
        lhs, rhs = symmetry_check(pb, s0, Boundaries(1.35 * m, 2.4 * m),
                                  30_000, default_t_max(pb.omega, strike),
                                  seed=300 + i)
        comb = math.hypot(lhs.stderr, rhs.stderr)
        dev = abs(lhs.mean - rhs.mean) / comb
        worst_se = max(worst_se, dev)
        ok_pairs = ok_pairs and dev < 3.0
        ok_pairs = ok_pairs and not lhs.unreliable and not rhs.unreliable
        worst_trunc = max(worst_trunc, lhs.truncation_mass, rhs.truncation_mass)

    # dual boundary identity: u* of the dual put from the analytic route,
    # l*_c of the call located by common-path MC maximisation.  The call's
    # up-crossing times of an increasing level ladder decompose into
    # independent inverse-Gaussian increments (exact, grid-free, and every
    # candidate level shares the same paths).
    s0, strike = 20.0, 20.0
    dual_model = LevyModel.black_scholes(mu=-r, sigma=0.2)
    dual_put = optimize_boundaries(
        PricingProblem(dual_model, Constant(level - r), s0), n_curve=64)
    u_dual = dual_put.u_star
    rng = np.random.default_rng(777)
    n_paths = 200_000
    levels = np.log(3.0 * strike * np.linspace(0.82, 1.18, 17))
    zeta = model.zeta  # positive: every upper level is reached a.s.
    sig2 = model.sigma ** 2
    gaps = np.diff(np.concatenate([[math.log(s0)], levels]))
    tau = np.zeros(n_paths)
    vals = np.empty(len(levels))
    for j, gap in enumerate(gaps):
        tau = tau + rng.wald(gap / zeta, gap * gap / sig2, n_paths)
        vals[j] = float(np.mean(np.exp(-level * tau))) * (math.exp(levels[j]) - strike)
    jmax = int(np.argmax(vals))
    sel = slice(max(0, jmax - 4), min(len(levels), jmax + 5))
    coef = np.polyfit(levels[sel], vals[sel], 2)
    l_call = math.exp(-coef[1] / (2.0 * coef[0]))
    identity_err = abs(l_call * u_dual - s0 * strike) / (s0 * strike)
    ok_id = identity_err < 0.01
    assert _report(9, ok_pairs and ok_id,
                   f"worst pair deviation {worst_se:.2f} se (want < 3), "
                   f"worst truncation mass {worst_trunc:.1e}; "
                   f"l_c*u_dual = {l_call * u_dual:.1f} vs sK = {s0 * strike:.0f} "
                   f"({100 * identity_err:.2f}%, want < 1%)")


def test_criterion_10_bermudan_convergence(classical_result, bs_model):
    """Bermudan values rise monotonically (1e-3 slack) toward the perpetual
    value as the date mesh and horizon grow."""
    spots = np.array([15.0, 16.0, 18.0, 20.0, 24.0])
    perp = np.asarray(classical_result.value_fn(spots), dtype=float)
    seq = []
    for xi, horizon in ((4, 5.0), (6, 10.0), (8, 20.0)):
        res = bermudan_dp(bs_model, Constant(0.05), K, horizon, 2 ** xi,
                          n_grid=3073)
        seq.append(bermudan_value_at(res, spots))
    ok = True
    for a, b in zip(seq[:-1], seq[1:]):
        ok = ok and bool(np.all(b >= a - 1e-3))
    for vals in seq:
        ok = ok and bool(np.all(vals <= perp + 1e-3))
    gap_first = float(np.max(perp - seq[0]))
    gap_last = float(np.max(perp - seq[-1]))
    ok = ok and gap_last < gap_first
    assert _report(10, ok,
                   f"monotone increase across (Xi,T) ladder; residual gap to "
                   f"perpetual {gap_first:.3f} -> {gap_last:.3f}")
