"""Black-Scholes route against closed forms and order properties.

The log-area boundary is checked against the Airy solution of the h-equation
(scipy's airy, independent of the library); Hypothesis draws constant- and
linear-rate contracts for the properties V >= payoff and V non-increasing in
the rate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import airy

from omega_pricer import Constant, LevyModel, Linear, LogArea, PricingProblem, optimize_boundaries


def _log_area_dlog(mu, sigma, k):
    """h'(s)/h(s) of the decaying solution for omega = (log s - log k)^+.

    In y = log(s/k): above k, h = e^{kappa y} Ai(a (y + c0)) with
    kappa = -zeta/sigma^2, a = (2/sigma^2)^{1/3}, c0 = zeta^2/(2 sigma^2);
    below k the rate is zero and h = A + B e^{p y}, p = -2 zeta/sigma^2,
    matched C^1 at y = 0.
    """
    sig2 = sigma ** 2
    zeta = mu - 0.5 * sig2
    kappa, a, c0, p = -zeta / sig2, (2.0 / sig2) ** (1.0 / 3.0), zeta ** 2 / (2.0 * sig2), -2.0 * zeta / sig2

    def dh_dy(y):
        ai, aip, _, _ = airy(a * (y + c0))
        return kappa + a * aip / ai

    slope0 = dh_dy(0.0)

    def dlog(s):
        y = math.log(s / k)
        if y >= 0.0:
            return dh_dy(y) / s
        return slope0 * math.exp(p * y) / (1.0 + slope0 * math.expm1(p * y) / p) / s
    return dlog


def _smooth_fit_root(dlog, strike):
    """First root of 1 + (K - u) h'(u)/h(u) on [0.02 K, 0.999 K]."""
    us = np.linspace(0.02 * strike, 0.999 * strike, 400)
    vals = [1.0 + (strike - u) * dlog(u) for u in us]
    for u0, u1, v0, v1 in zip(us[:-1], us[1:], vals[:-1], vals[1:]):
        if v0 * v1 < 0.0:
            return brentq(lambda u: 1.0 + (strike - u) * dlog(u), u0, u1, xtol=1e-14, rtol=1e-15)
    raise AssertionError("no smooth-fit root in the closed form")


@pytest.mark.parametrize("sigma", [0.2, 0.3])
@pytest.mark.parametrize("k_frac", [0.7, 1.2])
def test_log_area_boundary_matches_airy(sigma, k_frac):
    strike = 20.0
    mu = 0.5 * sigma ** 2 + 0.03
    res = optimize_boundaries(PricingProblem(LevyModel.black_scholes(mu, sigma),
                                             LogArea(k_frac * strike), strike), n_curve=64)
    ref = _smooth_fit_root(_log_area_dlog(mu, sigma, k_frac * strike), strike)
    assert res.l_star == 0.0
    assert res.u_star == pytest.approx(ref, rel=1e-7)


_contract = st.fixed_dictionaries({
    "kind": st.sampled_from(["constant", "linear"]),
    "mu": st.floats(0.01, 0.08),
    "sigma": st.floats(0.15, 0.35),
    "strike": st.floats(10.0, 30.0),
    "level": st.floats(0.2, 1.0),   # r = 0.10 level or c = 0.02 level
    "bump": st.floats(0.05, 1.0),   # relative rise of the rate
})


def _price(p, scale):
    rate = Constant(0.10 * p["level"] * scale) if p["kind"] == "constant" \
        else Linear(0.02 * p["level"] * scale)
    return optimize_boundaries(PricingProblem(LevyModel.black_scholes(p["mu"], p["sigma"]),
                                              rate, p["strike"]), n_curve=64)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_contract)
def test_bs_value_dominates_payoff(p):
    res = _price(p, 1.0)
    payoff = np.maximum(p["strike"] - res.s_grid, 0.0)
    assert np.all(res.values >= payoff - 1e-9 * p["strike"])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_contract)
def test_bs_value_non_increasing_in_rate(p):
    low, high = _price(p, 1.0), _price(p, 1.0 + p["bump"])
    assert np.all(high.values <= low.values + 1e-9 * p["strike"])
    assert high.u_star >= low.u_star - 1e-9 * p["strike"]
