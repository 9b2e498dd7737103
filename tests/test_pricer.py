import gc
import weakref

import numpy as np
import pytest

import omega_pricer.pricer as pricer_module
from omega_pricer import Constant, LevyModel, Linear, LogArea, Rational, Step, Tabulated
from omega_pricer.levy import psi_roots
from omega_pricer.pricer import (
    Boundaries,
    PricingProblem,
    convexity_margin,
    hjb_residual,
    optimize_boundaries,
    putcall_transform,
    rational_bs_branches,
    smooth_fit_residual,
    solve_h_ode,
    value_bs,
    value_jump,
    _JumpValuation,
    _fit_gap,
    _overshoot_mean,
)
from reference_scale import classical_w, classical_z, phi_right_inverse


@pytest.fixture(scope="module")
def classical_result(bs_model):
    return optimize_boundaries(PricingProblem(bs_model, Constant(0.05), 20.0))


@pytest.fixture(scope="module")
def rational_result(bs_model):
    return optimize_boundaries(
        PricingProblem(bs_model, Rational(C=0.001, D=0.01), 20.0))


@pytest.fixture(scope="module")
def crash_linear_result(crash_model):
    return optimize_boundaries(PricingProblem(crash_model, Linear(0.1), 20.0))


# ---------------------------------------------------------------------------
# Black-Scholes h-equation route
# ---------------------------------------------------------------------------

def test_h_branches_constant_rate_exponents(bs_model):
    inner, outer = solve_h_ode(bs_model, Constant(0.05))
    gamma = 2.0 * 0.05 / 0.04
    for s in (2.0, 8.0, 15.0):
        assert float(outer.dlog_ds(s)) * s == pytest.approx(-gamma, rel=1e-8)
        assert float(inner.dlog_ds(s)) * s == pytest.approx(1.0, rel=1e-8)


def test_h_branches_match_hypergeometric_forms(bs_model):
    """Numerically integrated branches reproduce the closed 2F1 solutions."""
    omega = Rational(C=0.001, D=0.01)
    inner, outer = solve_h_ode(bs_model, omega)
    _, h, _ = rational_bs_branches(bs_model, omega)
    s = np.linspace(1.0, 15.0, 57)
    anchor = 8.0
    for branch, i in ((inner, 2), (outer, 1)):
        got = branch.log_h_at(np.append(s, anchor))
        ref = np.array([h(i, sv) for sv in s])
        ratio = np.exp(got[:-1] - got[-1])
        assert np.max(np.abs(ratio / (ref / h(i, anchor)) - 1.0)) < 1e-6


def test_h_branch_ode_residual(bs_model):
    """Collocation residual of the branches' dense output against the h-equation."""
    omega = Rational(C=0.001, D=0.01)
    inner, outer = solve_h_ode(bs_model, omega)
    sig2 = bs_model.sigma ** 2
    zeta = bs_model.zeta
    delta = 5e-3
    for branch in (inner, outer):
        for x in (0.5, 1.5, 2.2):
            xs = x + delta * np.arange(-2, 3)
            dl = branch.dlog_ds(np.exp(xs)) * np.exp(xs)
            dprime = (-dl[4] + 8 * dl[3] - 8 * dl[1] + dl[0]) / (12 * delta)
            d = dl[2]
            resid = 0.5 * sig2 * (dprime + d * d) + zeta * d \
                - float(omega(np.exp(x)))
            assert abs(resid) < 1e-8


@pytest.mark.parametrize("omega, solves", [
    (Constant(0.05), 1), (Linear(0.01), 1), (LogArea(20.0), 1), (Rational(C=0.001, D=0.01), 4)],
    ids=["constant", "linear", "log_area", "rational"])
def test_h_branches_integrate_once(bs_model, monkeypatch, omega, solves):
    """One integration per branch direction actually read: the outer branch
    alone (anchored at the top, one direction) where omega >= 0 forces
    l* = 0; both branches, both ways from their 2F1 anchors, for the
    rational rate."""
    calls = []
    real = pricer_module.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(pricer_module, "solve_ivp", counting)
    optimize_boundaries(PricingProblem(bs_model, omega, 20.0))
    assert len(calls) == solves, calls


@pytest.mark.parametrize("omega", [Linear(0.01), Rational(C=0.001, D=0.01)],
                         ids=["linear", "rational"])
def test_h_branches_freed_without_collection(bs_model, monkeypatch, omega):
    """A dropped price frees its h-branches by reference counting alone:
    scipy's ODE solvers and brentq keep their functions in reference cycles,
    and nothing those functions capture may reach a branch."""
    refs = []
    init = pricer_module.HBranch.__init__

    def recording(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(pricer_module.HBranch, "__init__", recording)
    gc.disable()
    try:
        optimize_boundaries(PricingProblem(bs_model, omega, 20.0), n_curve=64)
        assert len(refs) == 2
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_bs_value_beyond_branch_range_raises(classical_result):
    """The branches cover up to 4 s_hi = 8.8 K; beyond it the value raises
    instead of extrapolating the dense output."""
    top = 4.0 * 2.2 * 20.0
    assert classical_result.value_fn(np.array([0.999 * top]))[0] > 0.0
    with pytest.raises(ValueError):
        classical_result.value_fn(np.array([1.001 * top]))


def test_value_bs_inside_is_payoff(bs_model):
    pb = PricingProblem(bs_model, Constant(0.05), 20.0)
    b = Boundaries(0.0, 14.0)
    assert value_bs(pb, b, 10.0) == pytest.approx(10.0)
    assert value_bs(pb, b, 14.0) == pytest.approx(6.0)


def test_value_bs_classical_closed_form(bs_model):
    pb = PricingProblem(bs_model, Constant(0.05), 20.0)
    gamma = 2.5
    u = 20.0 * gamma / (1.0 + gamma)
    b = Boundaries(0.0, u)
    s = np.array([15.0, 18.0, 25.0, 39.0])
    got = value_bs(pb, b, s)
    ref = (20.0 - u) * (s / u) ** (-gamma)
    assert np.max(np.abs(got / ref - 1.0)) < 1e-8


def test_value_bs_continuity_at_u(bs_model):
    pb = PricingProblem(bs_model, Constant(0.05), 20.0)
    b = Boundaries(0.0, 14.0)
    assert value_bs(pb, b, 14.0 * (1 + 1e-12)) == pytest.approx(6.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Boundary optimisation
# ---------------------------------------------------------------------------

def test_classical_collapse_boundary(classical_result):
    gamma = 2.5
    assert classical_result.l_star == 0.0
    assert classical_result.u_star == pytest.approx(20.0 * gamma / (1 + gamma),
                                                    rel=1e-9)


def test_rational_boundaries(rational_result):
    assert rational_result.l_star == pytest.approx(7.2359, abs=5e-3)
    assert rational_result.u_star == pytest.approx(8.3423, abs=5e-3)


def test_rational_curve_dominates_payoff(rational_result):
    s = rational_result.s_grid
    v = rational_result.values
    payoff = np.maximum(20.0 - s, 0.0)
    assert np.all(v >= payoff - 1e-9)
    outside = (s < rational_result.l_star - 0.05) | (s > rational_result.u_star + 0.05)
    assert np.all(v[outside] > payoff[outside] + 1e-9)


def test_rational_large_g_uses_generic_anchors():
    """G >= 1/2 turns the outer 2F1 branch negative (c = 1 - 2G <= 0); the
    generic anchors price the contract instead."""
    sigma, big_l, big_g = 0.2, -1.0, 0.6
    model = LevyModel.black_scholes(mu=(0.5 - big_l) * sigma ** 2, sigma=sigma)
    c_plus_d = 0.5 * (big_l ** 2 - big_g ** 2) * sigma ** 2
    pb = PricingProblem(model, Rational(0.3 * c_plus_d, 0.7 * c_plus_d), 20.0)
    res = optimize_boundaries(pb)
    assert res.diagnostics["h_route"] == "generic"
    assert 0.0 < res.l_star < res.u_star < 20.0
    assert max(res.fit.values()) < 1e-6
    assert hjb_residual(res, pb)["continuation_sup"] < 1e-3
    assert np.all(res.values >= np.maximum(20.0 - res.s_grid, 0.0))


def test_rational_value_blows_up_near_zero(rational_result):
    # negative discounting near zero makes the put value unbounded as s -> 0+
    v = rational_result.value_fn(np.array([0.05, 0.01]))
    assert v[1] > v[0] > 40.0


def test_crash_linear_boundary_continuous_fit(crash_linear_result):
    res = crash_linear_result
    assert res.l_star == 0.0
    u = res.u_star
    v_plus = float(res.value_fn(np.array([u * (1 + 1e-9)]))[0])
    assert abs(v_plus - (20.0 - u)) < 1e-6
    # derivative gap at u is genuinely nonzero for sigma = 0 (reported only)
    assert res.fit["derivative_gap_u"] > 0.01


def test_crash_constant_rate_matches_classical(crash_model):
    """sigma=0, omega == r: closed-form W/Z with c = r/Phi(r) as oracle."""
    pb = PricingProblem(crash_model, Constant(0.05), 20.0)
    u = 10.0
    decq = psi_roots(crash_model, 0.05)
    cq = 0.05 / phi_right_inverse(crash_model, 0.05)
    s = np.array([11.0, 14.0, 19.0])
    x = np.log(s / u)
    ref = ((20.0 - u * 2.0 / 3.0)
           * (classical_z(decq, x) - cq * classical_w(decq, x)))
    got = value_jump(pb, Boundaries(0.0, u), s)
    assert np.max(np.abs(got / ref - 1.0)) < 1e-5


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_tabulated_linear_equals_linear(sigma):
    """Piecewise-linear knots of omega = 0.1 s interpolate it exactly, so the
    tabulated kind must price like Linear(0.1) on its hull [0.01, 1000]."""
    model = LevyModel.calibrated(r=0.05, sigma=sigma, lam=6.0, phi=2.0)
    knots = (0.01, 1.0, 10.0, 100.0, 1000.0)
    tab = optimize_boundaries(PricingProblem(
        model, Tabulated(knots, tuple(0.1 * k for k in knots)), 20.0), n_curve=64)
    lin = optimize_boundaries(PricingProblem(model, Linear(0.1), 20.0), n_curve=64)
    assert tab.u_star == pytest.approx(lin.u_star, rel=1e-9)
    assert tab.value_fn(30.0)[0] == pytest.approx(lin.value_fn(30.0)[0], rel=1e-9)


@pytest.mark.parametrize("strike", [20.0, 17.1, 23.9])
def test_tabulated_knots_exactly_cover_the_range(crash_model, strike):
    """Knots on exactly [0.02 K, 2.2 K e^3], the range the recessive basis
    reads, price like Linear(0.1): the start level never rounds above it."""
    knots = (0.02 * strike, 2.2 * strike * np.exp(3.0))
    tab = optimize_boundaries(PricingProblem(
        crash_model, Tabulated(knots, tuple(0.1 * k for k in knots)), strike), n_curve=64)
    lin = optimize_boundaries(PricingProblem(crash_model, Linear(0.1), strike), n_curve=64)
    assert tab.u_star == pytest.approx(lin.u_star, rel=1e-9)


@pytest.mark.parametrize("strike", [1.04, 1.1, 20.0])
def test_recessive_basis_never_reads_below_its_range(crash_model, strike):
    """Knots exactly on [0.02 K, 2.2 K e^3]: exp(log(0.02 K)) rounds below
    0.02 K for K = 1.04 and 1.1, and neither the basis integration, the fit
    at the scan's first barrier u = 0.02 K nor the value above that barrier
    may read omega there."""
    knots = (0.02 * strike, 2.2 * strike * np.exp(3.0))
    gaps, values = [], []
    for omega in (Tabulated(knots, tuple(0.1 * k for k in knots)), Linear(0.1)):
        val = _JumpValuation(PricingProblem(crash_model, omega, strike))
        gaps.append([val.fit_gap(u, strike - u * crash_model.phi / (crash_model.phi + 1.0))
                     for u in np.linspace(0.02 * strike, 0.995 * strike, 5)])
        values.append(val.value(Boundaries(0.0, 0.02 * strike), [0.03 * strike, strike]))
    assert np.allclose(gaps[0], gaps[1], rtol=1e-9, atol=1e-12)
    assert np.allclose(values[0], values[1], rtol=1e-9)


def test_step_value_beyond_range_raises(crash_model):
    """The value is defined up to 2.2 K, for step rates as for smooth ones;
    beyond it the pricer raises instead of clamping to the last node."""
    res = optimize_boundaries(PricingProblem(crash_model, Step(0.05, 0.10, 30.0), 20.0),
                              n_curve=64)
    assert res.value_fn(40.0)[0] > 0.0
    with pytest.raises(ValueError):
        res.value_fn(1e3)


def test_crash_value_below_u_is_payoff(crash_model):
    pb = PricingProblem(crash_model, Linear(0.1), 20.0)
    assert value_jump(pb, Boundaries(0.0, 8.0), 5.0) == pytest.approx(15.0)


def test_sigma_pos_crash_smooth_fit():
    """sigma>0 jump boundary satisfies the smooth-fit condition."""
    model = LevyModel.calibrated(r=0.05, sigma=0.2, lam=6.0, phi=2.0)
    pb = PricingProblem(model, Linear(0.1), 20.0)
    res = optimize_boundaries(pb, n_curve=128)
    assert res.l_star == 0.0
    assert 0.0 < res.u_star < 20.0
    assert res.fit["continuity_u"] < 1e-6
    assert res.fit["derivative_gap_u"] < 5e-3
    s = res.s_grid
    assert np.all(res.values >= np.maximum(20.0 - s, 0.0) - 1e-7)


# (l*, u*, {s: V(s)}) of the sigma = 0.2 contracts from the QR-re-orthonormalised
# chunked basis that the adjoint normal replaced (DOP853 at rtol 1e-10, QR
# every 0.1 in y; self-converged to about 1e-10)
_SIGMA_POS_PINS = {
    "crash_linear": (0.0, 11.888878273018,
                     {25.0: 3.69751223881, 30.0: 2.934665638595, 39.0: 2.04302268557}),
    "step_one_sided": (0.0, 1.77559135866,
                       {25.0: 15.8174255077, 30.0: 15.6799793071, 39.0: 15.4842848374}),
    "step_two_sided": (1.00591449945, 16.4543668588,
                       {0.5: 20.1736233567, 25.0: 1.4226447896, 30.0: 1.02095340638,
                        39.0: 0.633402483285}),
}


@pytest.mark.parametrize("contract", list(_SIGMA_POS_PINS))
def test_sigma_pos_results_pinned(crash_model_sigma, contract):
    """sigma = 0.2 boundaries to 1e-9 and values to 1e-8 against the pins."""
    if contract == "crash_linear":
        pb = PricingProblem(crash_model_sigma, Linear(0.1), 20.0)
    elif contract == "step_one_sided":
        pb = PricingProblem(crash_model_sigma, Step(0.05, 0.02, 15.0), 20.0)
    else:
        pb = _step_two_sided(0.2)
    l_ref, u_ref, v_ref = _SIGMA_POS_PINS[contract]
    res = optimize_boundaries(pb, n_curve=128)
    assert res.l_star == pytest.approx(l_ref, rel=1e-9)
    assert res.u_star == pytest.approx(u_ref, rel=1e-9)
    s = np.array(list(v_ref))
    assert res.value_fn(s) == pytest.approx(np.array(list(v_ref.values())), rel=1e-8)


@pytest.mark.parametrize("sigma", [3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 1e-150, 5e-324])
def test_small_sigma_prices_or_raises_typed(sigma, monkeypatch):
    """sigma = 3e-5 prices (u* next to the sigma = 0 value 13.8223476); below
    it the fast frozen exponent (about -2 zeta / sigma^2) needs steps in y
    that doubles do not resolve, and the basis says so in a RuntimeError
    before it integrates anything.  Further down psi_roots itself cannot hold
    the fast root or its weight (sigma^2 = 1e-300 overflows (phi + g)^2;
    5e-324^2 underflows to 0), and says so before the basis is built."""
    import omega_pricer.scale as scale

    model = LevyModel.calibrated(r=0.05, sigma=sigma, lam=3.0, phi=1.5)
    pb = PricingProblem(model, Linear(0.1), 20.0)
    if sigma == 3e-5:
        assert optimize_boundaries(pb, n_curve=64).u_star == pytest.approx(
            13.822348327230745, rel=1e-10)
    else:
        solves = []
        monkeypatch.setattr(scale, "solve_ivp", lambda *a, **k: solves.append(a))
        cause = "fast frozen exponent" if sigma > 1e-10 else "cannot resolve the fast root"
        with pytest.raises(RuntimeError, match=cause):
            optimize_boundaries(pb, n_curve=64)
        assert solves == []


def test_sigma_pos_crash_without_fit_root_raises(crash_model_sigma):
    """A smooth-fit residual without a sign change on (0.02K, K) is an error,
    not a silent fallback to the value maximiser."""
    pb = PricingProblem(crash_model_sigma, Constant(0.01), 20.0)
    with pytest.raises(RuntimeError):
        optimize_boundaries(pb)


# ---------------------------------------------------------------------------
# Two-sided values
# ---------------------------------------------------------------------------

def test_two_sided_below_l_is_passage_ratio(crash_model):
    # constant discount: H-ratio collapses to e^{-Phi(r)(log l - log s)}
    pb = PricingProblem(crash_model, Constant(0.05), 20.0)
    ts = _JumpValuation(pb)
    l, u = 2.0, 5.0
    s = np.array([0.5, 1.0, 1.5])
    got = value_jump(pb, Boundaries(l, u), s, valuation=ts)
    phi_r = phi_right_inverse(crash_model, 0.05)
    ref = (20.0 - l) * np.exp(-phi_r * (np.log(l) - np.log(s)))
    assert np.max(np.abs(got / ref - 1.0)) < 1e-5


def test_two_sided_inside_is_payoff(crash_model):
    pb = PricingProblem(crash_model, Constant(0.05), 20.0)
    ts = _JumpValuation(pb)
    got = value_jump(pb, Boundaries(2.0, 5.0), np.array([2.0, 3.3, 5.0]),
                     valuation=ts)
    assert np.max(np.abs(got - (20.0 - np.array([2.0, 3.3, 5.0])))) < 1e-12


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_upward_passage_built_only_when_read(monkeypatch, sigma):
    """H is one forward integration, run on its first read: an omega >= 0
    price (l* = 0) never integrates it, even where omega is flat on (0, 1],
    and a two-sided price integrates it once."""
    calls = []
    real = pricer_module.forward_state

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(pricer_module, "forward_state", counting)
    model = LevyModel.calibrated(r=0.05, sigma=sigma, lam=6.0, phi=2.0)
    for omega in (Linear(0.1), Step(0.05, 0.02, 15.0)):
        optimize_boundaries(PricingProblem(model, omega, 20.0), n_curve=64)
    assert calls == []
    optimize_boundaries(_step_two_sided(sigma), n_curve=64)
    assert len(calls) == 1


def test_two_sided_requires_flat_certificate(crash_model):
    """Without omega constant on (0, 1] there is no H: the first read of it
    raises ValueError (the CLI's config error)."""
    pb = PricingProblem(crash_model, Step(-0.02, 0.12, y=0.5, direction="above"),
                        20.0)
    ts = _JumpValuation(pb)
    with pytest.raises(ValueError):
        ts.overshoot_gain(2.0)
    with pytest.raises(ValueError):
        value_jump(pb, Boundaries(2.0, 5.0), 1.0, valuation=ts)


def test_double_continuation_region_found():
    """Negative rate below one with net-up drift gives l* > 0."""
    model = LevyModel.calibrated(r=0.30, sigma=0.0, lam=0.5, phi=3.0)
    fn = Step(-0.02, 0.12, y=1.0, direction="above")
    res = optimize_boundaries(PricingProblem(model, fn, 20.0), n_curve=128)
    assert 0.0 < res.l_star < res.u_star < 20.0
    assert res.fit["continuity_l"] < 1e-6


def test_two_sided_edge_optimum_raises(crash_model):
    """Under Constant(-0.01) the value above u keeps rising as u falls (the
    old u-scan returned its floor, 0.05 K); the overshoot gain then peaks at
    the edge l = 0 of its scan, and the search raises instead of returning
    a boundary."""
    pb = PricingProblem(crash_model, Constant(-0.01), 20.0)
    with pytest.raises(RuntimeError, match="edge"):
        optimize_boundaries(pb)


def _step_two_sided(sigma):
    model = LevyModel.calibrated(r=0.30, sigma=sigma, lam=0.5, phi=3.0)
    return PricingProblem(model, Step(-0.02, 0.12, y=1.0, direction="above"), 20.0)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_overshoot_average_vs_quadrature(sigma):
    """K - u phi/(phi+1) + u^{-phi} B(l) against E[G(u e^{-Y})], Y ~ Exp(phi),
    by scipy quad over the landing level w, whose density is phi w^{phi-1}
    u^{-phi} on (0, u): G(w) = K - w on [l, u] and the continuation
    (K - l) H(w)/H(l) below l, with H read by h_at (kinked at w = 1)."""
    from scipy.integrate import quad

    pb = _step_two_sided(sigma)
    ts = _JumpValuation(pb)
    K, phi = pb.strike, pb.model.phi
    for u in (3.0, 10.0, 17.6):
        def density(w):
            return phi * w ** (phi - 1.0) / u ** phi

        for l in (0.3, 0.9, 1.0, 1.7, 2.9):
            h_l = ts.h_at(l)[0]
            inside = quad(lambda w: density(w) * (K - w), l, u, epsabs=0.0, epsrel=1e-12)[0]
            below = quad(lambda w: density(w) * (K - l) * ts.h_at(w)[0] / h_l, 0.0, l,
                         points=[1.0] if l > 1.0 else None, epsabs=0.0, epsrel=1e-12)[0]
            got = _overshoot_mean(pb, u, ts.overshoot_gain(l))
            assert got == pytest.approx(inside + below, rel=1e-8)


def test_two_sided_step_boundaries_sigma0():
    """sigma = 0: l* sits on the rate step at s = 1, a kink optimum of the
    overshoot gain whose one-sided slopes keep their value as h shrinks."""
    res = optimize_boundaries(_step_two_sided(0.0), n_curve=128)
    assert abs(res.l_star - 1.0) < 1e-6
    assert res.u_star == pytest.approx(17.6276806, rel=1e-8)
    assert res.diagnostics["l_condition"] == "kink"
    assert res.diagnostics["fit_condition"] == "continuous"
    slopes = res.diagnostics["l_slopes"]
    assert slopes["left"] == pytest.approx([0.510, 0.510], abs=1e-3)
    assert slopes["right"] == pytest.approx([-5.00, -5.00], abs=0.1)
    assert res.fit["continuity_u"] < 1e-9


def test_two_sided_step_boundaries_sigma_pos():
    """sigma = 0.2: a smooth optimum at l*, whose slopes shrink with the
    step, and smooth fit at both boundaries."""
    res = optimize_boundaries(_step_two_sided(0.2), n_curve=128)
    assert res.l_star == pytest.approx(1.0059145, abs=1e-7)
    assert res.u_star == pytest.approx(16.4543669, abs=1e-7)
    assert res.diagnostics["l_condition"] == "smooth"
    assert res.fit["derivative_gap_l"] < 1e-4
    assert res.fit["derivative_gap_u"] < 1e-4
    slopes = res.diagnostics["l_slopes"]
    for side in (slopes["left"], slopes["right"]):
        assert abs(side[1]) < 0.05 * abs(side[0])


def test_two_sided_flat_gain_raises(monkeypatch):
    """An overshoot gain that is flat around its scan maximum has no strict
    maximum there; the search raises instead of returning a plateau point."""
    monkeypatch.setattr(_JumpValuation, "overshoot_gain",
                        lambda self, l: -max(abs(l - 5.0) - 1.0, 0.0) ** 2)
    with pytest.raises(RuntimeError, match="not a local maximum"):
        optimize_boundaries(_step_two_sided(0.0), n_curve=64)


def _jump_contract(sigma, two_sided):
    if two_sided:
        return _step_two_sided(sigma)
    return PricingProblem(LevyModel.calibrated(r=0.05, sigma=sigma, lam=6.0, phi=2.0),
                          Linear(0.1), 20.0)


@pytest.mark.parametrize("two_sided", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_fit_scan_batch_equals_per_node(sigma, two_sided):
    """The u* scan reads its 48 nodes in one pass (one stacked basis read, one
    batched solve); every node equals the scalar fit residual brentq polishes."""
    pb = _jump_contract(sigma, two_sided)
    val = _JumpValuation(pb)
    gain = val.overshoot_gain(1.0 if two_sided else 0.0)
    us = np.linspace(0.4, 0.995 * pb.strike, 48)
    batch = _fit_gap(us, val, gain)
    per_node = np.array([_fit_gap(u, val, gain) for u in us])
    assert batch.shape == us.shape
    assert np.max(np.abs(batch / per_node - 1.0)) < 1e-13


# (l*, u*) of the jump contracts from the library before the fit scan read its
# nodes in one batch and H moved from DOP853 to LSODA at rtol 1e-13
_JUMP_BOUNDARY_PINS = {
    (0.0, False): (0.0, 12.088892514475749),
    (0.2, False): (0.0, 11.888878272615246),
    (0.0, True): (0.9999999882200004, 17.627680604724635),
    (0.2, True): (1.0059144994489568, 16.45436685881761),
}


@pytest.mark.parametrize("sigma, two_sided", list(_JUMP_BOUNDARY_PINS))
def test_jump_boundaries_pinned(sigma, two_sided):
    """l* and u* within 1e-10 relative of the pins (the bench contracts and
    the sigma = 0.2 two-sided Step)."""
    res = optimize_boundaries(_jump_contract(sigma, two_sided), n_curve=64)
    l_ref, u_ref = _JUMP_BOUNDARY_PINS[(sigma, two_sided)]
    assert res.l_star == pytest.approx(l_ref, rel=1e-10, abs=0.0)
    assert res.u_star == pytest.approx(u_ref, rel=1e-10)


@pytest.mark.parametrize("two_sided", [False, True])
def test_jump_derivative_gaps_at_fit_tolerance(two_sided):
    """value_deriv_fn reads the jets (H' below l, -1 on [l, u], the recessive
    solution's F' above u), so the sigma = 0.2 derivative gaps are the
    residuals of the boundary searches, not of a difference quotient inside
    the fast boundary layer (which read 1.5e-5 at u and 7.9e-6 at l): u* is
    a brentq root to 1e-10, l* a bounded maximiser to 1e-9 K = 2e-8, and the
    gap at l moves about 100 per unit of l."""
    res = optimize_boundaries(_jump_contract(0.2, two_sided), n_curve=64)
    assert res.fit["derivative_gap_u"] < 1e-9
    if two_sided:
        assert res.fit["derivative_gap_l"] < 1e-6


@pytest.mark.parametrize("two_sided", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_jump_value_deriv_vs_difference(sigma, two_sided):
    """The jets against central differences of the value, away from the kinks."""
    res = optimize_boundaries(_jump_contract(sigma, two_sided), n_curve=64)
    s = np.array([0.5, 0.9, 1.5, 3.0, 18.0, 25.0, 38.0])
    s = s[(np.abs(s - res.l_star) > 0.1) & (np.abs(s - res.u_star) > 0.1)]
    h = 1e-5 * s
    diff = (res.value_fn(s + h) - res.value_fn(s - h)) / (2.0 * h)
    assert res.value_deriv_fn(s) == pytest.approx(diff, rel=1e-7)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_hjb_two_sided(sigma):
    pb = _step_two_sided(sigma)
    res = hjb_residual(optimize_boundaries(pb), pb)
    assert res["continuation_sup"] < 1e-3
    assert res["stopping_violation"] <= 1e-12


def test_hjb_residual_converges_with_grid():
    """The default samples measure the value, not the stencil: the sigma = 0
    two-sided residual falls at least 10x when the curve step falls 4x (the
    first samples at s = 0.39 and 0.098, ds/s = 0.2, held it at 4.9e-4)."""
    pb = _step_two_sided(0.0)
    sups = [hjb_residual(optimize_boundaries(pb, n_curve=n), pb)["continuation_sup"]
            for n in (512, 2048)]
    assert sups[1] < 0.1 * sups[0]
    assert sups[0] < 1e-4


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def test_smooth_fit_classical(classical_result, bs_model):
    fit = classical_result.fit
    assert fit["continuity_u"] < 1e-6
    assert fit["derivative_gap_u"] < 1e-4  # sigma > 0: smooth fit holds


def test_interior_derivative_is_minus_one(classical_result):
    s_in = 0.5 * classical_result.u_star
    d = float(np.atleast_1d(classical_result.value_deriv_fn(s_in))[0])
    assert d == pytest.approx(-1.0, abs=1e-12)


def test_hjb_classical(classical_result, bs_model):
    res = hjb_residual(classical_result, PricingProblem(bs_model, Constant(0.05), 20.0))
    assert res["continuation_sup"] < 1e-3
    assert res["stopping_violation"] <= 0.0 + 1e-12


def test_hjb_rational(rational_result, bs_model):
    res = hjb_residual(rational_result,
                       PricingProblem(bs_model, Rational(0.001, 0.01), 20.0))
    assert res["continuation_sup"] < 1e-3


def test_hjb_crash(crash_linear_result, crash_model):
    res = hjb_residual(crash_linear_result,
                       PricingProblem(crash_model, Linear(0.1), 20.0))
    assert res["continuation_sup"] < 1e-3


def test_values_equal_payoff_in_stopping_region(crash_linear_result):
    s = crash_linear_result.s_grid
    inside = s <= crash_linear_result.u_star
    assert np.max(np.abs(crash_linear_result.values[inside]
                         - (20.0 - s[inside]))) == 0.0


def test_convexity_margins(classical_result, crash_linear_result):
    for res in (classical_result, crash_linear_result):
        margin = convexity_margin(res)
        assert margin >= -1e-8 * np.max(np.abs(res.values))


def test_convexity_detector_flags_corruption(classical_result):
    import copy

    bad = copy.copy(classical_result)
    bad.values = classical_result.values.copy()
    bad.values[350] += 0.05  # bump one node
    assert convexity_margin(bad, stride=1) < -1e-3


def test_monotone_in_discount(bs_model):
    r1 = optimize_boundaries(PricingProblem(bs_model, Constant(0.04), 20.0),
                             n_curve=128)
    r2 = optimize_boundaries(PricingProblem(bs_model, Constant(0.08), 20.0),
                             n_curve=128)
    assert np.all(r1.values >= r2.values - 1e-10)


def test_optimizer_optimality_crash(crash_model, crash_linear_result):
    """Perturbing u* by +-2 steps of the refinement never helps; for the
    two-sided Step (sigma = 0 and 0.2) neither does perturbing l* by +-1%
    and u* by +-0.02, alone or together, below l (s = 0.5) or above u
    (s = 30)."""
    pb = PricingProblem(crash_model, Linear(0.1), 20.0)
    u_star = crash_linear_result.u_star
    s0 = 30.0
    base = value_jump(pb, Boundaries(0.0, u_star), s0)
    for du in (-0.02, 0.02):
        assert value_jump(pb, Boundaries(0.0, u_star + du), s0) <= base + 1e-7
    s = np.array([0.5, 30.0])
    for sigma in (0.0, 0.2):
        pb = _step_two_sided(sigma)
        res = optimize_boundaries(pb, n_curve=64)
        val = _JumpValuation(pb)
        base = value_jump(pb, res.boundaries, s, valuation=val)
        for dl in (0.99, 1.0, 1.01):
            for du in (-0.02, 0.0, 0.02):
                b = Boundaries(res.l_star * dl, res.u_star + du)
                assert np.all(value_jump(pb, b, s, valuation=val) <= base + 1e-7)


def test_call_requires_transform_route(bs_model):
    pb = PricingProblem(bs_model, Constant(0.05), 20.0, "call")
    with pytest.raises(ValueError):
        optimize_boundaries(pb)


def test_putcall_transform_fields(crash_model_sigma):
    pb = PricingProblem(crash_model_sigma, Constant(0.06), 20.0, "call")
    spec = putcall_transform(pb, 18.0, Boundaries(30.0, 50.0))
    assert spec.spot == 20.0
    assert spec.strike == 18.0
    assert spec.jumps_up
    assert spec.jump_decay == pytest.approx(crash_model_sigma.phi + 1.0)
    assert spec.jump_rate == pytest.approx(
        crash_model_sigma.lam * crash_model_sigma.phi / (crash_model_sigma.phi + 1.0))
    assert spec.drift == pytest.approx(-(crash_model_sigma.zeta
                                         + crash_model_sigma.sigma ** 2))
    assert spec.l == pytest.approx(18.0 * 20.0 / 50.0)
    assert spec.u == pytest.approx(18.0 * 20.0 / 30.0)
    # boundary product identity l_c * u_dual = s K by construction of the map
    assert spec.l * 50.0 == pytest.approx(18.0 * 20.0)
    # dual discount: omega(sK/s_hat) - psi(1)
    assert float(spec.discount(36.0)) == pytest.approx(0.06 - 0.05, rel=1e-10)
