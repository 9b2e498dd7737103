import gc
import math
import weakref

import numpy as np
import pytest

from omega_pricer import Constant, LevyModel, Linear, LogGrid, Step
from omega_pricer.levy import psi_roots, laplace_exponent
from omega_pricer.pricer import PricingProblem, _JumpValuation, optimize_boundaries
from omega_pricer.scale import RecessiveBasis, build_scale_table
from reference_scale import (
    GridTooCoarseError,
    classical_w,
    classical_z,
    phi_right_inverse,
    renewal_solve_w,
    renewal_solve_z,
)


def _rate(fn, u=1.0):
    """x -> omega(u e^x), the rate of the reference march at level u."""
    return lambda x: fn(u * np.exp(x))


def test_classical_w_at_zero(crash_model, crash_model_sigma):
    assert classical_w(psi_roots(crash_model), 0.0) \
        == pytest.approx(1.0 / crash_model.mu, rel=1e-12)
    assert classical_w(psi_roots(crash_model_sigma), 0.0) == pytest.approx(0.0, abs=1e-13)


def test_classical_w_laplace_transform(crash_model_sigma):
    # int_0^inf e^{-theta x} W(x) dx = 1/psi(theta) for theta > Phi(0)
    from scipy.integrate import simpson

    dec = psi_roots(crash_model_sigma)
    theta = 2.0 * phi_right_inverse(crash_model_sigma, 0.0) + 1.0
    xs = np.linspace(0.0, 30.0, 300001)
    vals = np.exp(-theta * xs) * classical_w(dec, xs)
    quad = simpson(vals, x=xs)
    assert quad == pytest.approx(1.0 / laplace_exponent(crash_model_sigma, theta),
                                 rel=1e-6)


def test_renewal_zero_rate_collapses(crash_model):
    dec = psi_roots(crash_model)
    grid = LogGrid(3.0, 801)
    xi = _rate(Constant(0.0))
    w = renewal_solve_w(dec, xi, grid)
    z = renewal_solve_z(dec, xi, grid)
    assert np.max(np.abs(w - classical_w(dec, grid.nodes()))) < 1e-12
    assert np.max(np.abs(z - 1.0)) < 1e-12


@pytest.mark.parametrize("fixture", ["crash_model", "crash_model_sigma"])
def test_renewal_constant_rate_is_classical(fixture, request):
    """xi == q reproduces the classical q-scale functions (master regression)."""
    model = request.getfixturevalue(fixture)
    q = 0.05
    dec0 = psi_roots(model)
    decq = psi_roots(model, q)
    grid = LogGrid(3.0, 4001)
    xi = _rate(Constant(q))
    w = renewal_solve_w(dec0, xi, grid)
    z = renewal_solve_z(dec0, xi, grid)
    xs = grid.nodes()
    w_ref = classical_w(decq, xs)
    z_ref = classical_z(decq, xs)
    scale_w = np.maximum(np.abs(w_ref), 1e-9 * np.max(np.abs(w_ref)))
    assert np.max(np.abs(w - w_ref) / scale_w) < 1e-6
    assert np.max(np.abs(z - z_ref) / np.abs(z_ref)) < 1e-6
    # at zero: empty integrals
    assert w[0] == pytest.approx(classical_w(dec0, 0.0), abs=1e-14)
    assert z[0] == 1.0


def _h_table(model, fn, c, grid):
    tab = build_scale_table(model, fn, grid)
    assert tab.flat_level == c
    return tab.hh


def test_renewal_h_constant_rate(crash_model):
    # xi == c makes the kernel vanish: H = e^{Phi(c) x}, so the upward-passage
    # factor H(x)/H(a) is the classical first-passage transform e^{-Phi(c)(a-x)}
    c = 0.05
    grid = LogGrid(2.0, 501)
    phi_c = phi_right_inverse(crash_model, c)
    h = _h_table(crash_model, Constant(c), c, grid)
    xs = grid.nodes()
    assert h[0] == 1.0
    assert np.max(np.abs(h - np.exp(phi_c * xs))) < 1e-10
    a = xs[-1]
    assert np.max(np.abs(h / h[-1] - np.exp(-phi_c * (a - xs)))) < 1e-10


def test_renewal_h_step_rate(crash_model):
    # nonconstant part above the flat region makes H grow faster than e^{Phi(c)x}
    fn = Step(0.05, 0.10, y=1.0, direction="above")
    c = 0.05
    grid = LogGrid(2.5, 1001)
    phi_c = phi_right_inverse(crash_model, c)
    h = _h_table(crash_model, fn, c, grid)
    assert h[0] == 1.0
    assert np.all(np.diff(h) > 0.0)
    assert h[-1] > np.exp(phi_c * grid.x_max)


def test_ratio_limit_constant_rate(crash_model):
    q = 0.05
    tab = build_scale_table(crash_model, Constant(q), LogGrid(3.0, 1001))
    assert tab.c_zw == pytest.approx(q / phi_right_inverse(crash_model, q), rel=1e-7)


def test_ratio_limit_zero_rate(crash_model):
    core = RecessiveBasis(crash_model, Constant(0.0), 1.0, np.exp(8.0))
    assert abs(core.tail_constant(0.0)) < 1e-9


def test_passage_factor_monotone_tail(crash_model):
    # with the true c, x -> z(x) - c w(x) is non-increasing on the tail
    u = 4.56
    grid = LogGrid(3.0, 1201)
    dec = psi_roots(crash_model)
    xi = _rate(Linear(0.1), u)
    c = RecessiveBasis(crash_model, Linear(0.1), u, u * np.exp(3.0)).tail_constant(np.log(u))
    xs = grid.nodes()
    f = renewal_solve_z(dec, xi, grid) - c * renewal_solve_w(dec, xi, grid)
    tail = xs > 0.3
    assert np.all(np.diff(f[tail]) <= 1e-12)


@pytest.mark.parametrize("fixture", ["crash_model", "crash_model_sigma"])
def test_ode_vs_renewal_linear_rate(fixture, request):
    model = request.getfixturevalue(fixture)
    dec = psi_roots(model)
    grid = LogGrid(3.0, 6001)
    tab = build_scale_table(model, Linear(0.1), grid)
    for a, renewal in ((tab.w, renewal_solve_w), (tab.z, renewal_solve_z)):
        b = renewal(dec, _rate(Linear(0.1)), grid)
        scale = np.maximum(np.abs(a), 1e-9 * np.max(np.abs(a)))
        assert np.max(np.abs(a - b) / scale) < 1e-6


def _tight_forward(dec, rate, xs, i0=None, phi=None):
    """F = ups . P (and, with phi, int_0^x F e^{phi z} dz) of the renewal state
    system at xs by scipy's DOP853 at rtol 2.3e-14, atol 1e-16."""
    from scipy.integrate import solve_ivp

    g = np.asarray(dec.gammas)
    ups = np.asarray(dec.upsilons)
    m = len(g)
    v0 = np.ones(m) if i0 is None else np.eye(m)[i0] / ups[i0]

    def rhs(x, v):
        f = ups @ v[:m]
        dp = g * v[:m] + rate(x) * f
        return dp if phi is None else np.append(dp, f * math.exp(phi * x))

    sol = solve_ivp(rhs, (0.0, xs[-1]), v0 if phi is None else np.append(v0, 0.0),
                    method="DOP853", rtol=2.3e-14, atol=1e-16, t_eval=xs)
    assert sol.success
    return ups @ sol.y[:m], sol.y[-1]


def _rel_err(got, ref):
    """Largest relative error on x > 0 (W = 0 at x = 0 when sigma > 0)."""
    return float(np.max(np.abs(got[1:] / ref[1:] - 1.0)))


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_forward_state_vs_tight_reference(sigma):
    """W, Z (crash Linear(0.1)) and H with its tail integral (two-sided Step)
    from forward_state (LSODA at rtol 1e-13) within 2e-11 relative of a
    tight DOP853 integration; at rtol 1e-11 the sigma = 0 W drifts 2e-10."""
    model = LevyModel.calibrated(r=0.05, sigma=sigma, lam=6.0, phi=2.0)
    grid = LogGrid(3.0, 301)
    xs = grid.nodes()
    tab = build_scale_table(model, Linear(0.1), grid)
    dec = psi_roots(model)
    rate = lambda x: float(Linear(0.1)(np.exp(x)))
    assert _rel_err(tab.w, _tight_forward(dec, rate, xs)[0]) < 2e-11
    i0 = int(np.argmin(np.abs(dec.gammas)))
    assert _rel_err(tab.z, _tight_forward(dec, rate, xs, i0)[0]) < 2e-11

    model = LevyModel.calibrated(r=0.30, sigma=sigma, lam=0.5, phi=3.0)
    pb = PricingProblem(model, Step(-0.02, 0.12, y=1.0, direction="above"), 20.0)
    ys = np.linspace(0.0, math.log(44.0), 301)
    h, tail = _JumpValuation(pb)._forward(ys)
    dec = psi_roots(model, -0.02)
    h_ref, tail_ref = _tight_forward(dec, lambda y: float(pb.omega(math.exp(y))) + 0.02,
                                     ys, int(np.argmax(dec.gammas)), model.phi)
    assert _rel_err(h, h_ref) < 2e-11
    assert _rel_err(tail, tail_ref) < 2e-11


def test_ode_crash_initial_data(crash_model):
    # W(0) = 1/mu, W'(0) = (C + lam)/mu^2 for xi(x) = C e^x
    C = 0.1
    grid = LogGrid(0.02, 21)
    tab = build_scale_table(crash_model, Linear(C), grid)
    w = tab.w
    mu, lam = crash_model.mu, crash_model.lam
    assert w[0] == pytest.approx(1.0 / mu, rel=1e-12)
    slope = (w[1] - w[0]) / grid.h
    assert slope == pytest.approx((C + lam) / mu ** 2, rel=1e-2)
    z = tab.z
    assert z[0] == 1.0
    assert (z[1] - z[0]) / grid.h == pytest.approx(C / mu, rel=1e-2)


def test_ode_zero_rate_z_is_one(crash_model, crash_model_sigma):
    grid = LogGrid(2.0, 101)
    z0 = build_scale_table(crash_model, Constant(0.0), grid).z
    assert np.max(np.abs(z0 - 1.0)) < 1e-10
    tab = build_scale_table(crash_model_sigma, Constant(0.0), grid)
    assert np.max(np.abs(tab.z - 1.0)) < 1e-10
    assert tab.w[0] == pytest.approx(0.0, abs=1e-13)


def test_grid_refinement_second_order(crash_model_sigma):
    """Richardson ratio of the renewal march is ~4 under grid halving."""
    dec = psi_roots(crash_model_sigma)
    xi = _rate(Linear(0.1))
    x_probe = 2.0
    vals = []
    for n in (251, 501, 1001):
        grid = LogGrid(2.0, n)
        w = renewal_solve_w(dec, xi, grid)
        vals.append(np.interp(x_probe, grid.nodes(), w))
    ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
    assert 3.5 < ratio < 4.5


def test_positivity(crash_model):
    dec = psi_roots(crash_model)
    xi = _rate(Linear(0.1), 2.0)
    grid = LogGrid(3.0, 801)
    assert np.all(renewal_solve_w(dec, xi, grid) > 0.0)
    assert np.all(renewal_solve_z(dec, xi, grid) > 0.0)


def test_march_rejects_coarse_grid(crash_model):
    # enormous rate at coarse spacing makes the implicit weight exceed one
    xi = _rate(Linear(5e4), 20.0)
    dec = psi_roots(crash_model)
    with pytest.raises((GridTooCoarseError, OverflowError)) as err:
        renewal_solve_w(dec, xi, LogGrid(3.0, 31))
    if isinstance(err.value, GridTooCoarseError):
        assert err.value.suggested_n > 31


def _passage_factor(val, u, x, g):
    """Recessive solution with F(u) = 1 (sigma > 0) and landing mean g at the
    log-distances x >= 0 above u: the total down-passage factor for g = 1,
    its creeping part for g = 0."""
    return val.core.evaluate(math.log(u), val._coef(u, 1.0, g)[1],
                             math.log(u) + np.asarray(x, dtype=float))


def test_creeping_sigma_zero_is_zero(crash_model):
    val = _JumpValuation(PricingProblem(crash_model, Linear(0.1), 20.0))
    assert np.all(_passage_factor(val, 4.0, [0.0, 0.5], 0.0) == 0.0)


def _passage_closed_form(model, q, x):
    """Classical total factor Z - (q/Phi) W and creeping factor sigma^2/2 (W' - Phi W)."""
    dec = psi_roots(model, q)
    g = np.array(dec.gammas)
    u = np.array(dec.upsilons)
    big_phi = phi_right_inverse(model, q)
    w = np.exp(g * x) @ u
    wp = np.exp(g * x) @ (u * g)
    total = classical_z(dec, x) - q / big_phi * w
    return total, 0.5 * model.sigma ** 2 * (wp - big_phi * w)


@pytest.mark.parametrize("x", [1e-5, 0.2, 1.0])
def test_creeping_constant_rate_closed_form(crash_model_sigma, x):
    # recessive solutions with (F(0), gbar) = (1, 1) and (1, 0) at u = 1
    q = 0.05
    val = _JumpValuation(PricingProblem(crash_model_sigma, Constant(q), 20.0))
    total, creep = (_passage_factor(val, 1.0, [x], g) for g in (1.0, 0.0))
    want_total, want_creep = _passage_closed_form(crash_model_sigma, q, x)
    assert total[0] == pytest.approx(want_total, rel=1e-6)
    assert creep[0] == pytest.approx(want_creep, rel=1e-6)


def test_creeping_profile_matches_pointwise(crash_model_sigma):
    val = _JumpValuation(PricingProblem(crash_model_sigma, Linear(0.1), 20.0))
    total, prof = (_passage_factor(val, 4.0, [0.3, 0.8], g) for g in (1.0, 0.0))
    single = _passage_factor(val, 4.0, [0.3], 0.0)
    assert prof[0] == pytest.approx(single[0], rel=1e-12)
    assert np.all(prof > 0.0) and np.all(prof < total) and np.all(total < 1.0)


def test_creeping_requires_positive_x(crash_model_sigma):
    val = _JumpValuation(PricingProblem(crash_model_sigma, Constant(0.05), 20.0))
    with pytest.raises(ValueError):
        _passage_factor(val, 1.0, [-0.5], 0.0)


@pytest.mark.parametrize("u", [4.0, 12.0])
def test_recessive_tail_constant_vs_march(crash_model_sigma, u):
    """c(u) from [P-basis | 1](a, b, c) = e_i0 / ups_i0 at y = log u (the W and
    Z starts of the renewal state, so Z - c W is recessive) against the march's
    Z/W at x = 5, Richardson-extrapolated (second order in the step); the rate
    0.1 u e^5 there makes Z/W settle far below the tolerance."""
    fn = Linear(0.1)
    core = RecessiveBasis(crash_model_sigma, fn, 0.4, 44.0)
    dec = psi_roots(crash_model_sigma)
    xi = _rate(fn, u)
    r1, r2 = (renewal_solve_z(dec, xi, LogGrid(5.0, n))[-1]
              / renewal_solve_w(dec, xi, LogGrid(5.0, n))[-1] for n in (2001, 4001))
    assert core.tail_constant(np.log(u)) == pytest.approx(r2 + (r2 - r1) / 3.0, abs=2e-6)


def test_recessive_constants_self_convergence(crash_model_sigma, monkeypatch):
    """The production integration constants against a tenfold tighter
    tolerance and a doubled start margin on the sigma = 0.2 crash contract."""
    import omega_pricer.scale as scale

    pb = PricingProblem(crash_model_sigma, Linear(0.1), 20.0)
    base = optimize_boundaries(pb, n_curve=128)
    monkeypatch.setattr(scale, "_CORE_RTOL", scale._CORE_RTOL / 10.0)
    monkeypatch.setattr(scale, "_CORE_MARGIN", scale._CORE_MARGIN * 2.0)
    tight = optimize_boundaries(pb, n_curve=128)
    assert abs(tight.u_star - base.u_star) < 1e-6
    above = base.s_grid > max(base.u_star, tight.u_star)
    rel = np.abs(base.values[above] / tight.values[above] - 1.0)
    assert float(np.max(rel)) < 2e-4


def test_recessive_basis_integrations(crash_model, crash_model_sigma, monkeypatch):
    """Both orders integrate the basis once, backward over the whole range,
    and evaluate integrates forward once per barrier level: every coefficient
    vector read at one level shares that solve."""
    import omega_pricer.scale as scale

    spans = []
    solve_ivp = scale.solve_ivp

    def counting(*args, **kwargs):
        spans.append(tuple(args[1]))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scale, "solve_ivp", counting)
    for model in (crash_model, crash_model_sigma):
        spans.clear()
        core = RecessiveBasis(model, Linear(0.1), 0.4, 44.0)
        assert len(spans) == 1
        assert spans[0][0] > np.log(44.0) and spans[0][1] == pytest.approx(np.log(0.4))
        coef = np.ones(core.order - 1)
        for y0 in (np.log(2.0), np.log(5.0)):
            core.evaluate(y0, coef, [y0, y0 + 0.5])
            core.evaluate(y0, -2.0 * coef, [y0 + 1.0])
        assert spans[1:] == [(np.log(2.0), core.y_top), (np.log(5.0), core.y_top)]


@pytest.mark.parametrize("contract", ["crash_linear", "step_two_sided"])
def test_recessive_basis_freed_without_collection(crash_model_sigma, monkeypatch, contract):
    """A dropped price frees its basis by reference counting alone: scipy's
    ODE solvers and brentq keep their functions in reference cycles, and
    nothing those functions capture may reach the basis."""
    import omega_pricer.scale as scale

    if contract == "crash_linear":
        pb = PricingProblem(crash_model_sigma, Linear(0.1), 20.0)
    else:
        pb = PricingProblem(LevyModel.calibrated(r=0.30, sigma=0.2, lam=0.5, phi=3.0),
                            Step(-0.02, 0.12, y=1.0, direction="above"), 20.0)
    refs = []
    init = scale.RecessiveBasis.__init__

    def recording(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(scale.RecessiveBasis, "__init__", recording)
    gc.disable()
    try:
        optimize_boundaries(pb, n_curve=64)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("contract", ["crash_linear", "step_two_sided"])
def test_recessive_constants_self_convergence_sigma0(crash_model, monkeypatch, contract):
    """The one-integration sigma = 0 basis against a tenfold tighter tolerance
    and a doubled start margin, on the one-sided crash contract and the
    two-sided Step contract (whose value above u reads the same basis)."""
    import omega_pricer.scale as scale

    if contract == "crash_linear":
        pb = PricingProblem(crash_model, Linear(0.1), 20.0)
    else:
        pb = PricingProblem(LevyModel.calibrated(r=0.30, sigma=0.0, lam=0.5, phi=3.0),
                            Step(-0.02, 0.12, y=1.0, direction="above"), 20.0)
    base = optimize_boundaries(pb, n_curve=128)
    monkeypatch.setattr(scale, "_CORE_RTOL", scale._CORE_RTOL / 10.0)
    monkeypatch.setattr(scale, "_CORE_MARGIN", scale._CORE_MARGIN * 2.0)
    tight = optimize_boundaries(pb, n_curve=128)
    assert abs(tight.u_star / base.u_star - 1.0) < 1e-9
    assert float(np.max(np.abs(base.values / tight.values - 1.0))) < 1e-8


def test_recessive_basis_rejects_out_of_range(crash_model):
    core = RecessiveBasis(crash_model, Linear(0.1), 1.0, 10.0)
    with pytest.raises(ValueError):
        core.basis(np.log(20.0))
    with pytest.raises(ValueError):
        core.evaluate(np.log(2.0), [1.0], np.log(0.5))

