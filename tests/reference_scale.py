"""Independent references for the scale layer, used only by the tests.

* The classical scale functions W^{(q)}(x) = sum_i ups_i e^{gamma_i x} and
  Z^{(q)}, in closed form from a root decomposition.
* The Volterra march: the renewal equations
  u(x) = f(x) + int_0^x W(x-z) rate(z) u(z) dz of the W- and Z-type scale
  functions, solved by convolving each kernel exponential exactly against a
  piecewise-linear interpolant of the running solution (product
  integration), an explicit O(n) forward march per table, second order in
  the step.  It shares no code with the renewal state system of
  omega_pricer.scale, which acceptance criterion 4 checks against it.
* Phi(q), the right inverse of the Laplace exponent, by bracketing and
  brentq: the independent check of psi_roots.

A rate is a vectorised callable x -> omega(u e^x) of the log price ratio x
above the level u.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from omega_pricer.levy import (LevyModel, RootDecomposition, laplace_exponent,
                               laplace_exponent_deriv)
from omega_pricer.scale import LogGrid

_ROOT_TOL = 1e-12


class GridTooCoarseError(ValueError):
    """March would be singular or under-resolved at the current spacing."""

    def __init__(self, msg: str, suggested_n: int):
        super().__init__(f"{msg}; retry with n >= {suggested_n}")
        self.suggested_n = suggested_n


def classical_w(decomp: RootDecomposition, x):
    """Classical scale function W^{(q)}(x) = sum_i ups_i e^{gamma_i x}, x >= 0."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(decomp.gammas, dtype=float)
    u = np.asarray(decomp.upsilons, dtype=float)
    with np.errstate(under="ignore", over="ignore"):
        out = np.exp(np.multiply.outer(x, g)) @ u
    return out if x.ndim else float(out)


def classical_z(decomp: RootDecomposition, x):
    """Classical Z^{(q)}(x) = 1 + q * int_0^x W^{(q)}(y) dy for q = decomp.q."""
    x = np.asarray(x, dtype=float)
    q = decomp.q
    if q == 0.0:
        return np.ones_like(x) if x.ndim else 1.0
    g = np.asarray(decomp.gammas, dtype=float)
    u = np.asarray(decomp.upsilons, dtype=float)
    gsafe = np.where(np.abs(g) > 1e-14, g, 1.0)
    with np.errstate(under="ignore"):
        expm = np.exp(np.multiply.outer(x, g)) - 1.0
        terms = np.where(np.abs(g) > 1e-14, expm / gsafe,
                         np.multiply.outer(x, np.ones_like(g)))
    out = 1.0 + q * (terms @ u)
    return out if x.ndim else float(out)


def _exp_weights(gh: np.ndarray):
    """Product-integration weights (per unit h) for kernel e^{gamma(h-tau)}.

    int_0^h e^{gamma(h-tau)} f(tau) dtau = h*(alpha*f(0) + beta*f(h)) for
    linear f, with gh = gamma*h.
    """
    gh = np.asarray(gh, dtype=complex)
    alpha = np.empty_like(gh)
    beta = np.empty_like(gh)
    small = np.abs(gh) < 1e-3
    gs = gh[small]
    alpha[small] = 0.5 + gs / 3.0 + gs ** 2 / 8.0 + gs ** 3 / 30.0 + gs ** 4 / 144.0
    beta[small] = 0.5 + gs / 6.0 + gs ** 2 / 24.0 + gs ** 3 / 120.0 + gs ** 4 / 720.0
    gl = gh[~small]
    egl = np.exp(gl)
    alpha[~small] = (egl * (gl - 1.0) + 1.0) / (gl * gl)
    beta[~small] = (egl - 1.0) / gl - alpha[~small]
    return alpha, beta


def _march_kernel(egh, aw, bw, ups, inhom, q, vals, ls):
    """Forward product-integration march; writes scaled values and log scales.

    Returns 0 on success, else the 1-based node index where the implicit
    diagonal weight made the march singular.
    """
    m = egh.shape[0]
    n = inhom.shape[0]
    J = np.zeros(m, dtype=np.complex128)
    sum_ub = 0.0
    for i in range(m):
        sum_ub += (ups[i] * bw[i]).real
    f_prev = q[0] * inhom[0]
    vals[0] = inhom[0]
    ls[0] = 0.0
    log_scale = 0.0
    for k in range(1, n):
        lead = 0.0
        for i in range(m):
            lead += (ups[i] * (egh[i] * J[i] + aw[i] * f_prev)).real
        den = 1.0 - sum_ub * q[k]
        if den <= 0.05:
            return k
        if -690.0 < log_scale < 690.0:
            u_k = (inhom[k] * math.exp(-log_scale) + lead) / den
        elif log_scale >= 690.0:
            u_k = lead / den
        else:
            # inhomogeneity dwarfs the state; resync the scale to it
            return -k
        f_k = q[k] * u_k
        for i in range(m):
            J[i] = egh[i] * J[i] + aw[i] * f_prev + bw[i] * f_k
        f_prev = f_k
        mag = abs(u_k)
        if mag > 1e250 or (mag != 0.0 and mag < 1e-250):
            fac = math.log(mag)
            sc = math.exp(-fac)
            for i in range(m):
                J[i] *= sc
            f_prev *= sc
            u_k *= sc
            log_scale += fac
        vals[k] = u_k
        ls[k] = log_scale
    return 0


def _march(gammas, upsilons, h: float, inhom: np.ndarray, q: np.ndarray):
    """Run the Volterra march; returns (scaled values, log scales)."""
    g = np.asarray(gammas, dtype=complex)
    ups = np.asarray(upsilons, dtype=complex)
    gh = g * h
    n = len(q)
    if not (np.all(np.isfinite(inhom)) and np.all(np.isfinite(q))):
        raise OverflowError("non-finite inhomogeneity or rate values in the march")
    if np.any(np.real(gh) > 690.0):
        raise GridTooCoarseError("kernel exponential overflows a single step", 2 * n)
    aw, bw = _exp_weights(gh)
    vals = np.empty(n)
    ls = np.empty(n)
    code = _march_kernel(np.exp(gh), aw * h, bw * h, ups,
                         np.ascontiguousarray(inhom, dtype=np.float64),
                         np.ascontiguousarray(q, dtype=np.float64), vals, ls)
    if code > 0:
        weight = abs(float(np.sum(ups * bw * h).real) * q[code])
        raise GridTooCoarseError(
            f"implicit diagonal weight {weight:.3f} at node {code} makes the march singular",
            int(math.ceil(n * max(2.0, 2.2 * weight))))
    if code < 0:
        raise OverflowError("march state decayed below the inhomogeneity scale")
    return vals, ls


def _march_plain(gammas, upsilons, h: float, inhom: np.ndarray, q: np.ndarray) -> np.ndarray:
    """March returning unscaled values; rejects ranges that overflow double."""
    vals, ls = _march(gammas, upsilons, h, inhom, q)
    if np.any(np.abs(ls) > 700.0):
        raise OverflowError("scale table leaves double range; reduce x_max")
    with np.errstate(over="ignore"):
        return vals * np.exp(ls)


def renewal_solve_w(decomp: RootDecomposition, rate, grid: LogGrid) -> np.ndarray:
    """W-type table: u = W + int_0^x W(x-y) rate(y) u(y) dy on the grid."""
    xs = grid.nodes()
    return _march_plain(decomp.gammas, decomp.upsilons, grid.h,
                        classical_w(decomp, xs), np.asarray(rate(xs), dtype=float))


def renewal_solve_z(decomp: RootDecomposition, rate, grid: LogGrid) -> np.ndarray:
    """Z-type table: u = 1 + int_0^x W(x-y) rate(y) u(y) dy on the grid."""
    xs = grid.nodes()
    return _march_plain(decomp.gammas, decomp.upsilons, grid.h,
                        np.ones(grid.n), np.asarray(rate(xs), dtype=float))


def phi_right_inverse(model: LevyModel, q: float) -> float:
    """Largest theta >= 0 with psi(theta) = q, for q >= 0."""
    if q < 0.0:
        raise ValueError("q must be >= 0")
    psi = lambda t: laplace_exponent(model, t)
    if q == 0.0:
        if laplace_exponent_deriv(model, 0.0) >= 0.0:
            return 0.0
        # psi dips negative right of 0, so a strictly positive root exists
        hi = 1.0
        for _ in range(200):
            if psi(hi) > 0.0:
                break
            hi *= 2.0
        else:
            raise RuntimeError(f"failed to bracket Phi(0): psi({hi}) = {psi(hi)}")
        lo = hi / 2.0
        for _ in range(2000):
            if psi(lo) < 0.0:
                break
            lo /= 2.0
        else:
            return 0.0
        return brentq(psi, lo, hi, xtol=_ROOT_TOL, rtol=8.881784197001252e-16)
    hi = 1.0
    for _ in range(200):
        if psi(hi) > q:
            break
        hi *= 2.0
    else:
        raise RuntimeError(f"failed to bracket Phi({q}): psi({hi}) = {psi(hi)} <= {q}")
    f = lambda t: psi(t) - q
    return brentq(f, 0.0, hi, xtol=_ROOT_TOL, rtol=8.881784197001252e-16)
