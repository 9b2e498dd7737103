"""Library solutions against scipy's special functions: the rational-discount
h-branches (Gauss 2F1) and the linear-rate tail constant (Kummer 1F1)."""

import math

import pytest
from conftest import kummer_tail_constant
from scipy.special import hyp2f1

from omega_pricer import LevyModel, Linear, Rational
from omega_pricer.pricer import rational_bs_branches
from omega_pricer.scale import RecessiveBasis

BS = LevyModel.black_scholes(mu=0.05, sigma=0.2)
RATIONAL = Rational(C=0.001, D=0.01)


def test_2f1_derivative_contiguous_vs_fd():
    """h_i' from the contiguous relation (a b / c) 2F1(a+1, b+1; c+1; .)
    against a central difference of h_i."""
    _, h, h_deriv = rational_bs_branches(BS, RATIONAL)
    for i in (1, 2):
        for s in (0.05, 0.4, 3.0, 12.0, 80.0):
            d = 1e-5 * s
            fd = (h(i, s + d) - h(i, s - d)) / (2 * d)
            assert h_deriv(i, s) == pytest.approx(fd, rel=1e-6)


def test_2f1_satisfies_ode():
    """h_1 and h_2 solve sigma^2 s^2/2 h'' + mu s h' - omega(s) h = 0, with h''
    of s^d 2F1(a, b; c; -s) from the second contiguous derivative."""
    params, h, h_deriv = rational_bs_branches(BS, RATIONAL)
    sig2 = BS.sigma ** 2
    for i in (1, 2):
        p = params[i]
        for s in (0.05, 0.4, 3.0, 12.0, 80.0):
            f = hyp2f1(p.a, p.b, p.c, -s)
            fp = p.a * p.b / p.c * hyp2f1(p.a + 1, p.b + 1, p.c + 1, -s)
            fpp = (p.a * (p.a + 1) * p.b * (p.b + 1) / (p.c * (p.c + 1))
                   * hyp2f1(p.a + 2, p.b + 2, p.c + 2, -s))
            hpp = (p.d * (p.d - 1) * s ** (p.d - 2) * f - 2 * p.d * s ** (p.d - 1) * fp
                   + s ** p.d * fpp)
            resid = 0.5 * sig2 * s * s * hpp + BS.mu * s * h_deriv(i, s) - RATIONAL(s) * h(i, s)
            scale = max(abs(h(i, s)), abs(s * h_deriv(i, s)))
            assert abs(resid) / scale < 1e-8


def test_kummer_ratio_limit_matches_numeric_tail(crash_model):
    """Closed-form tail constant (Kummer functions, see conftest) vs the
    state system's recessive basis."""
    C, u = 0.1, 4.56
    c_closed = kummer_tail_constant(crash_model, C, u)

    core = RecessiveBasis(crash_model, Linear(C), 0.4, 44.0)
    assert core.tail_constant(math.log(u)) == pytest.approx(c_closed, rel=1e-9)
