import numpy as np
import pytest
from scipy.special import gamma, hyp1f1

from omega_pricer import LevyModel


@pytest.fixture(scope="session")
def crash_model():
    """Finite-variation exponential-crash model, martingale-calibrated at r=5%."""
    return LevyModel.calibrated(r=0.05, sigma=0.0, lam=6.0, phi=2.0)


@pytest.fixture(scope="session")
def crash_model_sigma():
    """Same jump structure with sigma = 0.2."""
    return LevyModel.calibrated(r=0.05, sigma=0.2, lam=6.0, phi=2.0)


@pytest.fixture(scope="session")
def bs_model():
    """Black-Scholes with mu = r = 5%, sigma = 20%."""
    return LevyModel.black_scholes(mu=0.05, sigma=0.2)


def classical_decomp_values(decomp, x):
    """Independent evaluation of sum ups_i e^{gamma_i x} used as test oracle."""
    g = np.asarray(decomp.gammas)
    u = np.asarray(decomp.upsilons)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.exp(np.outer(x, g)) @ u


def kummer_tail_constant(model, C, u):
    """Closed-form c = lim Z/W at level u for sigma = 0 and omega = C s.

    The W/Z functions at level u solve Kummer's equation in A e^x
    (A = C u / mu): two solutions 1F1(a1; b1; A e^x) and
    (-A e^x)^B 1F1(a2; b2; A e^x), weighted to the known initial data.  Both
    grow like Gamma(b)/Gamma(a) A^{a-b} times a shared factor, so c is the
    ratio of the weighted asymptotic coefficients (scipy's hyp1f1 and gamma,
    independent of the library).
    """
    mu, lam, phi = model.mu, model.lam, model.phi
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
    return (kz @ tails).real / (kw @ tails).real
