import math

import numpy as np
import pytest

from omega_pricer.specfun import gauss_2f1, gauss_2f1_deriv


def test_2f1_at_zero():
    assert gauss_2f1(0.3, -1.2, 0.7, 0.0) == 1.0


def test_2f1_log_identity():
    # 2F1(1,1;2;-x) = log(1+x)/x
    for x in (0.25, 1.0, 5.0, 20.0):
        assert gauss_2f1(1.0, 1.0, 2.0, -x) == pytest.approx(math.log1p(x) / x,
                                                             rel=1e-10)


def test_2f1_parameter_pole():
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 1.0, 0.0, -0.5)
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 1.0, -3.0, -0.5)


def test_2f1_rejects_x_ge_one():
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 1.0, 2.0, 1.5)


def test_2f1_derivative_contiguous_vs_fd():
    a, b, c = 0.1382, -0.3618, 0.7764
    for x in (-8.0, -2.0, -0.3, 0.2):
        h = 1e-5
        fd = (gauss_2f1(a, b, c, x + h) - gauss_2f1(a, b, c, x - h)) / (2 * h)
        assert gauss_2f1_deriv(a, b, c, x) == pytest.approx(fd, rel=1e-6)


def test_2f1_satisfies_ode():
    # x(1-x) y'' + [c - (a+b+1)x] y' - a b y = 0, derivatives by contiguous shifts
    a, b, c = 0.1382, -0.3618, 0.7764
    for x in (-12.0, -3.0, -0.4, 0.3):
        y = gauss_2f1(a, b, c, x)
        yp = gauss_2f1_deriv(a, b, c, x)
        ypp = (a * (a + 1.0) * b * (b + 1.0) / (c * (c + 1.0))
               * gauss_2f1(a + 2, b + 2, c + 2, x))
        resid = x * (1 - x) * ypp + (c - (a + b + 1) * x) * yp - a * b * y
        scale = max(abs(y), abs(yp), 1.0)
        assert abs(resid) / scale < 1e-8


def test_kummer_ratio_limit_matches_numeric_tail(crash_model):
    """Closed-form tail constant vs the state system's recessive basis.

    For sigma = 0 and omega = C s the W/Z functions at level u solve Kummer's
    equation in A e^x (A = C u / mu): two solutions 1F1(a1; b1; A e^x) and
    (-A e^x)^B 1F1(a2; b2; A e^x), weighted to the known initial data.  Both
    grow like Gamma(b)/Gamma(a) A^{a-b} times a shared factor, so
    c = lim Z/W is the ratio of the weighted asymptotic coefficients
    (scipy's hyp1f1 and gamma, independent of the library).
    """
    from scipy.special import gamma, hyp1f1

    from omega_pricer import Linear
    from omega_pricer.scale import RecessiveBasis

    C, u = 0.1, 4.56
    mu, lam, phi = crash_model.mu, crash_model.lam, crash_model.phi
    B = (lam - phi * mu) / mu
    A = C * u / mu
    Dd = C * u * (1 + phi) / mu
    a1, b1 = Dd / A, 1.0 - B
    a2, b2 = B + Dd / A, B + 1.0
    phase = complex(-A, 0.0) ** B

    f1 = hyp1f1(a1, b1, A)
    f2 = hyp1f1(a2, b2, A)
    f1p = a1 / b1 * hyp1f1(a1 + 1, b1 + 1, A) * A
    f2p = B * f2 + a2 / b2 * hyp1f1(a2 + 1, b2 + 1, A) * A
    M = np.array([[f1, phase * f2], [f1p, phase * f2p]], dtype=complex)
    kw = np.linalg.solve(M, np.array([1.0 / mu, (C * u + lam) / mu ** 2], dtype=complex))
    kz = np.linalg.solve(M, np.array([1.0, C * u / mu], dtype=complex))
    tails = np.array([gamma(b1) / gamma(a1) * A ** (a1 - b1),
                      phase * gamma(b2) / gamma(a2) * A ** (a2 - b2)])
    c_closed = (kz @ tails).real / (kw @ tails).real

    core = RecessiveBasis(crash_model, Linear(C), 0.4, 44.0)
    assert core.tail_constant(math.log(u)) == pytest.approx(c_closed, rel=1e-9)
