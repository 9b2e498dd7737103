"""Spectrally negative Levy models: Laplace exponents, roots, calibration.

Two model families are supported: Brownian motion with drift (Black-Scholes)
and Brownian-with-drift minus a compound Poisson process with exponentially
distributed downward jumps.  The log-price has Laplace exponent

    psi(theta) = zeta*theta + sigma^2/2 * theta^2 - lam*theta/(phi + theta)

with zeta = mu - sigma^2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevyModel",
    "RootDecomposition",
    "laplace_exponent",
    "laplace_exponent_deriv",
    "psi_roots",
    "martingale_drift",
]


@dataclass(frozen=True)
class LevyModel:
    """Parameters of the spectrally negative log-price process.

    mu is the arithmetic drift of the geometric model, sigma the volatility,
    lam the jump intensity and phi the rate of the exponential downward jumps
    (jump sizes Y ~ Exp(phi) are subtracted from the log-price).  The linear
    drift of the log-price is zeta = mu - sigma^2/2.
    """

    mu: float
    sigma: float = 0.0
    lam: float = 0.0
    phi: float = 1.0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.lam > 0.0 and self.phi <= 0.0:
            raise ValueError("phi must be > 0 when jumps are present")
        if self.sigma == 0.0 and self.lam == 0.0:
            raise ValueError("degenerate model: sigma = 0 requires lam > 0")

    @property
    def zeta(self) -> float:
        return self.mu - 0.5 * self.sigma * self.sigma

    @property
    def has_jumps(self) -> bool:
        return self.lam > 0.0

    @classmethod
    def black_scholes(cls, mu: float, sigma: float) -> "LevyModel":
        return cls(mu=mu, sigma=sigma, lam=0.0, phi=1.0)

    @classmethod
    def calibrated(cls, r: float, sigma: float = 0.0, lam: float = 0.0,
                   phi: float = 1.0) -> "LevyModel":
        """Model with drift chosen so that e^{-r t} S_t is a local martingale."""
        return cls(mu=martingale_drift(r, lam, phi), sigma=sigma, lam=lam, phi=phi)


@dataclass(frozen=True)
class RootDecomposition:
    """Real roots gamma_i of psi(gamma) = q with weights ups_i = 1/psi'(gamma_i).

    The zero scale function of the model killed at rate q is
    W^{(q)}(x) = sum_i ups_i e^{gamma_i x}.  gammas are sorted ascending;
    for q = 0 one root is 0.
    """

    gammas: tuple
    upsilons: tuple
    q: float = 0.0


def martingale_drift(r: float, lam: float, phi: float) -> float:
    """Drift mu that makes the discounted asset a local martingale: psi(1) = r."""
    if lam > 0.0 and phi <= 0.0:
        raise ValueError("phi must be > 0")
    if lam == 0.0:
        return r
    return r + lam / (phi + 1.0)


def laplace_exponent(model: LevyModel, theta):
    """psi(theta) = zeta*theta + sigma^2 theta^2 / 2 - lam*theta/(phi+theta).

    Defined for theta > -phi (all theta when lam = 0); strictly convex with
    psi(0) = 0.
    """
    theta = np.asarray(theta, dtype=float) if np.ndim(theta) else float(theta)
    if model.lam > 0.0 and np.any(np.asarray(theta) <= -model.phi):
        raise ValueError(f"theta must be > -phi = {-model.phi}")
    return _psi_continued(model, theta)


def laplace_exponent_deriv(model: LevyModel, theta):
    """First derivative psi'(theta)."""
    theta = np.asarray(theta, dtype=float) if np.ndim(theta) else float(theta)
    out = model.zeta + model.sigma ** 2 * theta
    if model.lam > 0.0:
        out = out - model.lam * model.phi / (model.phi + theta) ** 2
    return out


def _quadratic_roots(a: float, b: float, c: float) -> tuple:
    """Stable real roots of a x^2 + b x + c = 0 (two roots, possibly complex)."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        sq = complex(0.0, math.sqrt(-disc))
        return ((-b + sq) / (2 * a), (-b - sq) / (2 * a))
    sq = math.sqrt(disc)
    qq = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
    if qq == 0.0:
        return (0.0, 0.0)
    return (qq / a, c / qq)


def psi_roots(model: LevyModel, q: float = 0.0) -> RootDecomposition:
    """All roots of psi(gamma) = q with partial-fraction weights 1/psi'(gamma).

    The roots are those of the polynomial numerator of (phi+theta)(psi-q),
    which includes the analytic continuation past the pole at -phi.  They are
    real for q >= 0 in the supported models; complex pairs (possible for
    q < 0) are rejected.  For sigma > 0 one root runs off like
    -2 zeta / sigma^2 as sigma -> 0; a RuntimeError names it when double
    precision cannot hold it or its weight.
    """
    sig2 = model.sigma ** 2
    if model.sigma > 0.0 and sig2 == 0.0:
        raise _fast_root_error(model, q)
    if model.lam == 0.0:
        # quadratic: sigma^2/2 g^2 + zeta g - q = 0
        if model.sigma == 0.0:
            raise ValueError("model must have sigma > 0 or jumps")
        r1, r2 = _quadratic_roots(0.5 * sig2, model.zeta, -q)
        roots = [r1, r2]
    elif model.sigma == 0.0:
        # mu g (phi + g) - lam g - q (phi + g) = 0
        mu, lam, phi = model.mu, model.lam, model.phi
        if q == 0.0:
            if abs(lam - phi * mu) < 1e-14 * max(lam, abs(phi * mu), 1.0):
                raise ValueError("degenerate root collision: lam = phi*mu")
            roots = [0.0, (lam - phi * mu) / mu]
        else:
            r1, r2 = _quadratic_roots(mu, mu * phi - lam - q, -q * phi)
            roots = [r1, r2]
    else:
        # cubic: sigma^2/2 g^3 + (zeta + sigma^2 phi/2) g^2 + (zeta phi - lam - q) g - q phi
        zeta, lam, phi = model.zeta, model.lam, model.phi
        if q == 0.0:
            r1, r2 = _quadratic_roots(0.5 * sig2, zeta + 0.5 * sig2 * phi, zeta * phi - lam)
            roots = [0.0, r1, r2]
        else:
            poly = [0.5 * sig2, zeta + 0.5 * sig2 * phi, zeta * phi - lam - q, -q * phi]
            roots = list(np.roots(poly))
    cleaned = []
    for g in roots:
        if isinstance(g, complex) or np.iscomplexobj(g):
            if abs(np.imag(g)) > 1e-9 * max(1.0, abs(np.real(g))):
                raise ValueError(f"complex root pair for q={q}; real decomposition unavailable")
            g = float(np.real(g))
        cleaned.append(float(g))
    cleaned.sort()
    # polish with Newton steps on psi - q (roots beyond the pole included)
    gammas = []
    try:
        for g in cleaned:
            if model.lam == 0.0 or abs(g + model.phi) > 1e-9:
                for _ in range(3):
                    d = laplace_exponent_deriv(model, g)
                    f = _psi_continued(model, g) - q
                    if d != 0.0 and np.isfinite(d):
                        g = g - f / d
            gammas.append(g)
        derivs = [laplace_exponent_deriv(model, g) for g in gammas]
    except OverflowError as err:  # (phi + g)**2 past the double range
        raise _fast_root_error(model, q) from err
    if any(d == 0.0 for d in derivs):
        raise ValueError(f"degenerate (multiple) root in psi - {q}; weights undefined")
    ups = [1.0 / d for d in derivs]
    if not np.all(np.isfinite(gammas + ups)):
        raise _fast_root_error(model, q)
    return RootDecomposition(gammas=tuple(gammas), upsilons=tuple(ups), q=q)


def _fast_root_error(model: LevyModel, q: float) -> RuntimeError:
    sig2 = model.sigma ** 2
    fast = -2.0 * model.zeta / sig2 if sig2 > 0.0 else -math.copysign(math.inf, model.zeta)
    return RuntimeError(f"psi_roots cannot resolve the fast root of psi = {q} "
                        f"(about -2 zeta / sigma^2 = {fast:.3g}) in double precision "
                        f"at sigma = {model.sigma:.3g}; price with sigma = 0 or a larger sigma")


def _psi_continued(model: LevyModel, theta):
    # psi's formula, which continues it analytically below the pole at -phi
    out = model.zeta * theta + 0.5 * model.sigma ** 2 * theta * theta
    if model.lam > 0.0:
        out -= model.lam * theta / (model.phi + theta)
    return out

