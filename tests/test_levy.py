import numpy as np
import pytest

from omega_pricer import Constant, LevyModel, martingale_drift
from omega_pricer.levy import laplace_exponent, laplace_exponent_deriv, psi_roots
from reference_scale import phi_right_inverse


def test_laplace_exponent_zero_is_zero(crash_model, bs_model, crash_model_sigma):
    for m in (crash_model, bs_model, crash_model_sigma):
        assert laplace_exponent(m, 0.0) == 0.0


def test_laplace_exponent_crash_example():
    # zeta=2.05, sigma=0, lam=6, phi=2, theta=1 -> 2.05 - 6/3 = 0.05
    m = LevyModel(mu=2.05, sigma=0.0, lam=6.0, phi=2.0)
    assert laplace_exponent(m, 1.0) == pytest.approx(0.05, abs=1e-14)


def test_laplace_exponent_bs_example():
    m = LevyModel.black_scholes(mu=0.05, sigma=0.2)  # zeta = 0.03
    assert laplace_exponent(m, 2.0) == pytest.approx(0.14, abs=1e-14)


def test_laplace_exponent_rejects_pole(crash_model):
    with pytest.raises(ValueError):
        laplace_exponent(crash_model, -2.5)


def test_laplace_exponent_strictly_convex(crash_model_sigma):
    th = np.linspace(0.0, 5.0, 41)
    vals = laplace_exponent(crash_model_sigma, th)
    d2 = np.diff(vals, 2)
    assert np.all(d2 > 0.0)


def test_phi_right_inverse_inverts_bs_example():
    m = LevyModel.black_scholes(mu=0.05, sigma=0.2)
    assert phi_right_inverse(m, 0.14) == pytest.approx(2.0, abs=1e-10)


def test_phi_right_inverse_zero_when_drift_nonnegative(bs_model):
    assert laplace_exponent_deriv(bs_model, 0.0) >= 0.0
    assert phi_right_inverse(bs_model, 0.0) == 0.0


def test_phi_right_inverse_defining_property(crash_model, crash_model_sigma):
    for m in (crash_model, crash_model_sigma):
        for q in (0.0, 0.02, 0.05, 0.8, 5.0):
            theta = phi_right_inverse(m, q)
            assert abs(laplace_exponent(m, theta) - q) < 1e-12
    # monotone in q
    qs = np.linspace(0.0, 2.0, 9)
    phis = [phi_right_inverse(crash_model, q) for q in qs]
    assert np.all(np.diff(phis) >= 0.0)


def test_phi_right_inverse_rejects_negative_q(bs_model):
    with pytest.raises(ValueError):
        phi_right_inverse(bs_model, -0.1)


def test_psi_roots_crash_closed_form():
    mu, lam, phi = 2.05, 6.0, 2.0
    m = LevyModel(mu=mu, sigma=0.0, lam=lam, phi=phi)
    dec = psi_roots(m)
    gamma2 = (lam - phi * mu) / mu
    ups1 = -phi / (lam - phi * mu)
    ups2 = lam / (mu * (lam - phi * mu))
    assert dec.gammas[0] == pytest.approx(0.0, abs=1e-14)
    assert dec.gammas[1] == pytest.approx(gamma2, rel=1e-12)
    assert dec.upsilons[0] == pytest.approx(ups1, rel=1e-12)
    assert dec.upsilons[1] == pytest.approx(ups2, rel=1e-12)
    assert sum(dec.upsilons) == pytest.approx(1.0 / mu, rel=1e-12)


def test_psi_roots_sigma_pos_sum_zero(crash_model_sigma):
    dec = psi_roots(crash_model_sigma)
    assert len(dec.gammas) == 3
    assert any(abs(g) < 1e-12 for g in dec.gammas)
    assert sum(dec.upsilons) == pytest.approx(0.0, abs=1e-12)
    for g in dec.gammas:
        if abs(g + crash_model_sigma.phi) > 1e-9:
            # roots of the continued rational function
            psi = (crash_model_sigma.zeta * g
                   + 0.5 * crash_model_sigma.sigma ** 2 * g * g
                   - crash_model_sigma.lam * g / (crash_model_sigma.phi + g))
            assert abs(psi) < 1e-9


def test_psi_roots_shifted_q(crash_model):
    dec = psi_roots(crash_model, q=0.05)
    for g in dec.gammas:
        psi = crash_model.mu * g - crash_model.lam * g / (crash_model.phi + g)
        assert abs(psi - 0.05) < 1e-9


def test_psi_roots_degenerate_collision_rejected():
    # lam = phi*mu exactly
    m = LevyModel(mu=3.0, sigma=0.0, lam=6.0, phi=2.0)
    with pytest.raises(ValueError):
        psi_roots(m)


def test_esscher_laplace_identity(crash_model_sigma):
    """The dual model of the put-call transform is the unit Esscher tilt of
    the reflected process: its exponent is psi(1 - theta) - psi(1)."""
    from omega_pricer.pricer import Boundaries, PricingProblem, putcall_transform

    m = crash_model_sigma
    pb = PricingProblem(m, Constant(0.06), 20.0, "call")
    d = putcall_transform(pb, 18.0, Boundaries(30.0, 50.0))
    for theta in np.linspace(-2.0, 2.5, 10):
        lhs = (d.drift * theta + 0.5 * d.sigma ** 2 * theta * theta
               + d.jump_rate * theta / (d.jump_decay - theta))
        rhs = laplace_exponent(m, 1.0 - theta) - laplace_exponent(m, 1.0)
        assert abs(lhs - rhs) < 1e-12


def test_martingale_drift_crash_example():
    assert martingale_drift(0.05, 6.0, 2.0) == pytest.approx(2.05, abs=1e-14)


def test_martingale_drift_no_jumps():
    assert martingale_drift(0.05, 0.0, 7.0) == 0.05


def test_martingale_calibration_psi1(crash_model, crash_model_sigma, bs_model):
    for m in (crash_model, crash_model_sigma, bs_model):
        assert abs(laplace_exponent(m, 1.0) - 0.05) < 1e-12


def test_model_validation():
    with pytest.raises(ValueError):
        LevyModel(mu=0.05, sigma=0.0, lam=0.0)  # degenerate
    with pytest.raises(ValueError):
        LevyModel(mu=0.05, sigma=-0.1)
    with pytest.raises(ValueError):
        LevyModel(mu=0.05, sigma=0.2, lam=1.0, phi=0.0)
