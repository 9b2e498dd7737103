"""State-dependent-rate scale functions of exponential-jump models.

The W/Z/H-type scale functions solve Volterra renewal equations
u(x) = f(x) + int_0^x W(x-z) rate(z) u(z) dz whose kernel is the classical
zero scale function W(x) = sum_i ups_i e^{gamma_i x}, a short sum of
exponentials for the supported models.  Two solvers use that structure:

* The march convolves each kernel exponential exactly against a
  piecewise-linear interpolant of the running solution (product
  integration), an explicit O(n) forward march per table with no stiffness
  penalty from fast kernel components; tail ratios (Z/W limits) are
  extrapolated from extended runs with Aitken acceleration.  It tables H,
  serves the CLI `scale` task and cross-checks the state system.
* The running convolutions of the march are the components of the state
  P, u = ups . P, of the linear system P' = (diag(gamma) + rate 1 ups^T) P.
  The system reads the rate only, never its slope, so step and tabulated
  rates integrate like smooth ones, and in absolute log-price y = log s it
  depends on no barrier.  `RecessiveBasis` integrates its recessive
  (decaying in s) solutions once, backward in y, so a single object serves
  every barrier level: the one-sided jump value, the passage factor Z - c W
  and its creeping part are all recessive solutions fixed by conditions at
  y = log u.  `ode_solve_crash` integrates it forward from one level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .discount import DiscountFn, LogDiscount, Tabulated
from .levy import LevyModel, RootDecomposition, phi_right_inverse, psi_roots

__all__ = [
    "LogGrid",
    "ScaleTable",
    "GridTooCoarseError",
    "RatioLimitError",
    "classical_w",
    "classical_z",
    "renewal_solve_w",
    "renewal_solve_z",
    "renewal_solve_h",
    "renewal_solve_w2",
    "ratio_limit",
    "ode_solve_crash",
    "ode_solve_crash_sigma",
    "RecessiveBasis",
    "build_scale_table",
    "phi_ext",
]


class GridTooCoarseError(ValueError):
    """March would be singular or under-resolved at the current spacing."""

    def __init__(self, msg: str, suggested_n: int):
        super().__init__(f"{msg}; retry with n >= {suggested_n}")
        self.suggested_n = suggested_n


class RatioLimitError(RuntimeError):
    """Tail-ratio extrapolation failed to stabilise."""

    def __init__(self, msg: str, estimates):
        super().__init__(f"{msg}; last estimates {list(estimates)}")
        self.estimates = tuple(estimates)


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid x_k = k*h on [0, x_max] (log of the price ratio)."""

    x_max: float
    n: int

    def __post_init__(self):
        if self.x_max <= 0.0 or self.n < 2:
            raise ValueError("need x_max > 0 and n >= 2")

    @property
    def h(self) -> float:
        return self.x_max / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.n)


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


def renewal_solve_w(decomp: RootDecomposition, xi: LogDiscount, grid: LogGrid) -> np.ndarray:
    """W-type table: u = W + int_0^x W(x-y) xi(y) u(y) dy on the grid."""
    xs = grid.nodes()
    return _march_plain(decomp.gammas, decomp.upsilons, grid.h,
                        classical_w(decomp, xs), np.asarray(xi(xs), dtype=float))


def renewal_solve_z(decomp: RootDecomposition, xi: LogDiscount, grid: LogGrid) -> np.ndarray:
    """Z-type table: u = 1 + int_0^x W(x-y) xi(y) u(y) dy on the grid."""
    xs = grid.nodes()
    return _march_plain(decomp.gammas, decomp.upsilons, grid.h,
                        np.ones(grid.n), np.asarray(xi(xs), dtype=float))


def renewal_solve_h(decomp_c: RootDecomposition, xi: LogDiscount, c: float,
                    grid: LogGrid, phi_c: float) -> np.ndarray:
    """H-type table: u = e^{Phi(c)x} + int_0^x W^{(c)}(x-z)(xi(z)-c) u(z) dz.

    decomp_c is the root decomposition of psi - c; the caller certifies that
    the rate equals c at and below the starting level.
    """
    xs = grid.nodes()
    return _march_plain(decomp_c.gammas, decomp_c.upsilons, grid.h,
                        np.exp(phi_c * xs), np.asarray(xi(xs), dtype=float) - c)


def renewal_solve_w2(decomp: RootDecomposition, xi: LogDiscount, grid: LogGrid) -> np.ndarray:
    """Two-argument table w2[j, k] = W-type function started at level x_k (j >= k).

    Column k solves the same Volterra equation on [x_k, x_max] with the rate
    read at absolute positions; entries above the diagonal are zero.
    """
    xs = grid.nodes()
    n = grid.n
    q = np.asarray(xi(xs), dtype=float)
    wg = classical_w(decomp, xs)
    out = np.zeros((n, n))
    for k0 in range(n):
        m = n - k0
        out[k0:, k0] = _march_plain(decomp.gammas, decomp.upsilons, grid.h,
                                    wg[:m], q[k0:])
    return out


# ---------------------------------------------------------------------------
# Tail-ratio extrapolation
# ---------------------------------------------------------------------------

def _aitken(seq: np.ndarray) -> np.ndarray:
    s = np.asarray(seq, dtype=float)
    d1 = np.diff(s)
    dd = np.diff(d1)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(dd != 0.0, d1[1:] ** 2 / np.where(dd != 0.0, dd, 1.0), 0.0)
    return s[2:] - corr


def _limit_from_samples(samples):
    """(estimate, relative spread) from iterated-Aitken tail extrapolation."""
    s = np.asarray(samples, dtype=float)
    s = s[np.isfinite(s)]
    if s.size < 3:
        raise RatioLimitError("too few usable tail samples", s)
    levels = [s]
    for _ in range(2):
        if levels[-1].size >= 3:
            levels.append(_aitken(levels[-1]))
    best = levels[-1]
    tail = best[-3:] if best.size >= 3 else best
    est = float(tail[-1])
    scale = max(abs(est), 1e-30)
    spread = float(np.max(np.abs(np.diff(tail)))) / scale if tail.size > 1 else math.inf
    return est, spread


def ratio_limit(zvals: np.ndarray, wvals: np.ndarray, grid: LogGrid,
                rel_tol: float = 1e-6) -> float:
    """Extrapolated limit of z(x)/w(x) as x grows, from same-grid tables."""
    n = len(wvals)
    m = max(1, n // 16)
    idx = np.arange(n - 1, n // 2, -m)[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.asarray(zvals, float)[idx] / np.asarray(wvals, float)[idx]
    est, spread = _limit_from_samples(r)
    if spread > rel_tol:
        # geometric decay toward zero: the relative spread never settles even
        # though the limit is plainly 0
        finite = r[np.isfinite(r)]
        mags = np.abs(finite)
        if (finite.size >= 4 and np.all(np.diff(mags) < 0.0)
                and mags[-1] < 0.2 * mags[0] and abs(est) < 1e-3 * mags[-1]):
            return est
        raise RatioLimitError(
            f"tail ratio not converged (spread {spread:.2e} > {rel_tol:.0e}); extend the grid",
            r[-3:])
    return est


def _rate_values(xi: LogDiscount, xs: np.ndarray):
    """Rate samples, truncated to the evaluable/finite prefix."""
    if isinstance(xi.base, Tabulated):
        hull = math.log(float(xi.base._xs[-1])) - xi.shift
        keep = xs <= hull + 1e-12
        xs = xs[keep]
    with np.errstate(over="ignore"):
        q = np.asarray(xi(xs), dtype=float)
    if not np.all(np.isfinite(q)):
        first_bad = int(np.argmax(~np.isfinite(q)))
        xs, q = xs[:first_bad], q[:first_bad]
    return xs, q


def _c_limit_by_extension(decomp, xi: LogDiscount, grid: LogGrid,
                          rel_tol: float = 1e-6, max_extra: float = 24.0) -> float:
    """c = lim Z/W from a joint extended march with rescaling."""
    h = grid.h
    n_ext = grid.n + int(round(max_extra / h))
    xs = np.arange(n_ext) * h
    xs, q = _rate_values(xi, xs)
    n_ext = len(xs)
    if n_ext < grid.n:
        raise RatioLimitError("rate not evaluable across the base grid", [])

    def run(n_use):
        inh = classical_w(decomp, xs[:n_use])
        wv, wls = _march(decomp.gammas, decomp.upsilons, h, inh, q[:n_use])
        zv, zls = _march(decomp.gammas, decomp.upsilons, h, np.ones(n_use), q[:n_use])
        return wv, wls, zv, zls

    try:
        wv, wls, zv, zls = run(n_ext)
    except GridTooCoarseError as err:
        # fast-growing rate: march only as far as the spacing allows
        bw = _exp_weights(np.asarray(decomp.gammas, complex) * h)[1]
        sum_b = abs(float(np.sum(np.asarray(decomp.upsilons, complex) * bw * h).real))
        cap = 0.5 / max(sum_b, 1e-300)
        over = np.abs(q) > cap
        n_ok = int(np.argmax(over)) if np.any(over) else n_ext
        if n_ok <= grid.n:
            raise err
        n_ext = n_ok
        wv, wls, zv, zls = run(n_ext)
    spacing = max(1, int(round(0.5 / h)))
    idx = np.arange(n_ext - 1, max(grid.n // 2, 2), -spacing)[::-1]
    if idx.size < 5:
        idx = np.unique(np.linspace(max(2, n_ext // 2), n_ext - 1, 9).astype(int))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ratios = (zv[idx] / wv[idx]) * np.exp(zls[idx] - wls[idx])
    est, spread = _limit_from_samples(ratios)
    if spread > rel_tol:
        finite = ratios[np.isfinite(ratios)]
        mags = np.abs(finite)
        if (finite.size >= 4 and np.all(np.diff(mags) < 0.0)
                and mags[-1] < 0.2 * mags[0] and abs(est) < 1e-3 * mags[-1]):
            return est  # geometric decay toward a zero limit
        raise RatioLimitError("extended march did not stabilise the tail ratio",
                              ratios[-3:])
    return est


def phi_ext(model: LevyModel, c: float) -> float:
    """Largest real root of psi = c (right inverse for c >= 0, continued below)."""
    if c >= 0.0:
        return phi_right_inverse(model, c)
    dec = psi_roots(model, c)
    return max(dec.gammas)


# ---------------------------------------------------------------------------
# Renewal state system
# ---------------------------------------------------------------------------

def ode_solve_crash(model: LevyModel, xi: LogDiscount, grid: LogGrid,
                    which: str = "W") -> np.ndarray:
    """W- or Z-type table by forward integration of the renewal state system.

    With W(x) = sum_i ups_i e^{gamma_i x} (q = 0) the table is ups . P for
    P' = (diag(gamma) + xi(x) 1 ups^T) P, started from P = 1 (W) or from
    e_i0 / ups_i0 (Z, i0 the zero root).  Serves every model and rate kind.
    """
    dec = psi_roots(model)
    g = np.asarray(dec.gammas)
    ups = np.asarray(dec.upsilons)
    if which == "W":
        p0 = np.ones_like(g)
    elif which == "Z":
        i0 = int(np.argmin(np.abs(g)))
        p0 = np.zeros_like(g)
        p0[i0] = 1.0 / ups[i0]
    else:
        raise ValueError("which must be 'W' or 'Z'")
    sol = solve_ivp(lambda x, p: g * p + float(xi(x)) * (ups @ p), (0.0, grid.x_max), p0,
                    t_eval=grid.nodes(), method="DOP853", rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    return ups @ sol.y


ode_solve_crash_sigma = ode_solve_crash


# Integration constants of RecessiveBasis, fixed by the self-convergence test
# in tests/test_scale.py (a tenfold tighter tolerance and a doubled margin move
# the sigma = 0.2 crash boundary by far less than 1e-6).
_CORE_RTOL = 1e-10
_CORE_CHUNK = 0.1    # re-orthonormalisation interval in y
_CORE_MARGIN = 3.0   # start this far above log(s_hi) so the start error decays by then


class RecessiveBasis:
    """Recessive solutions of the scale equation of (model, omega) on [s_lo, s_hi].

    In absolute log-price y = log s every scale function of an exponential-jump
    model is F = ups . P for the renewal state P' = (diag(gamma) + omega(e^y)
    1 ups^T) P, with m = 2 roots for sigma = 0 and m = 3 for sigma > 0; the
    system reads omega only, not its slope, and depends on no barrier.  One
    solution dominates as s -> infinity (like s^Phi(q) where the rate tends to
    q); the m - 1 dimensional subspace of the others (the recessive solutions)
    holds every passage factor.  The subspace is integrated once, backward in y
    from the frozen-coefficient recessive eigenvectors at log(s_hi) + margin, in
    chunks re-orthonormalised by QR (continuous orthonormalisation, Conte 1966)
    so the basis never loses rank.  Each chunk keeps its dense output and its R
    factor, so a recessive solution given by its coefficients at one level is
    known at every level above it.
    """

    def __init__(self, model: LevyModel, fn: DiscountFn, s_lo: float, s_hi: float):
        if not model.has_jumps:
            raise ValueError("recessive basis requires an exponential-jump model")
        if not 0.0 < s_lo <= s_hi:
            raise ValueError("need 0 < s_lo <= s_hi")
        dec = psi_roots(model)
        g = np.asarray(dec.gammas)
        ups = np.asarray(dec.upsilons)
        m = self.order = len(g)
        self.fn, self.gammas, self.upsilons = fn, g, ups
        self.y_lo = math.log(s_lo)
        self.y_top = math.log(s_hi)

        def rhs(y, v):
            p = v.reshape(m, m - 1)
            return (g[:, None] * p + fn(math.exp(y)) * (ups @ p)).ravel()

        y_hi = self.y_top + _CORE_MARGIN
        frozen = np.diag(g) + float(fn(math.exp(y_hi))) * np.outer(np.ones(m), ups)
        lam, vec = np.linalg.eig(frozen)
        by_re = np.argsort(lam.real)
        # the frozen exponents are the roots of psi = omega(e^y_hi); the dominant
        # one continues Phi(q) and must be separated from the rest (it decays
        # itself when q < 0)
        if not lam[by_re[-1]].real > lam[by_re[-2]].real:
            raise RuntimeError(f"no separated dominant mode at s = {math.exp(y_hi):.4g}: "
                               f"frozen exponents {lam}")
        rec = vec[:, by_re[:m - 1]]
        # real and imaginary parts span the same real subspace as a conjugate pair
        q = np.linalg.svd(np.hstack([rec.real, rec.imag]))[0][:, :m - 1]
        n_chunks = max(1, int(math.ceil((y_hi - self.y_lo) / _CORE_CHUNK)))
        self._edges = np.linspace(y_hi, self.y_lo, n_chunks + 1)
        self._dense = []
        self._r = []
        for y0, y1 in zip(self._edges[:-1], self._edges[1:]):
            sol = solve_ivp(rhs, (y0, y1), q.ravel(), method="DOP853", rtol=_CORE_RTOL,
                            atol=1e-3 * _CORE_RTOL, dense_output=True)
            if not sol.success:
                raise RuntimeError(f"recessive basis integration failed near "
                                   f"s = {math.exp(sol.t[-1]):.4g}: {sol.message}")
            q, r = np.linalg.qr(sol.y[:, -1].reshape(m, m - 1))
            self._dense.append(sol.sol)
            self._r.append(r)

    def _chunk(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if np.any(y < self.y_lo - 1e-12) or np.any(y > self.y_top + 1e-12):
            raise ValueError(f"log-price outside the basis range "
                             f"[{self.y_lo:.6g}, {self.y_top:.6g}]")
        k = np.searchsorted(-self._edges, -y, side="right") - 1
        return np.clip(k, 0, len(self._dense) - 1)

    def state(self, y: float) -> np.ndarray:
        """m x (m-1) matrix of the states P at y for the basis of y's chunk."""
        return self._dense[int(self._chunk(y))](y).reshape(self.order, -1)

    def basis(self, y: float) -> np.ndarray:
        """m x (m-1) matrix of (F, F', ...) at y+ for the basis of y's chunk.

        F' = (ups gamma) . P + omega W(0) F and, for sigma > 0 where W(0) = 0,
        F'' = (ups gamma^2) . P + omega W'(0+) F, with omega read at e^y.
        """
        p = self.state(y)
        w = float(self.fn(math.exp(y)))
        ug = self.upsilons * self.gammas
        f = self.upsilons @ p
        jet = [f, ug @ p + w * self.upsilons.sum() * f]
        if self.order == 3:
            jet.append((ug * self.gammas) @ p + w * ug.sum() * f)
        return np.array(jet)

    def evaluate(self, y0: float, coef, ys) -> np.ndarray:
        """F(ys) at ys >= y0 for the recessive solution F(y0) = basis(y0) @ coef.

        Chunk j's basis is chunk j+1's times R_j, so coefficients carry upward
        as c_j = R_j^{-1} c_{j+1}.
        """
        k0 = int(self._chunk(y0))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        ks = self._chunk(ys)
        if np.any(ks > k0):
            raise ValueError("evaluation points must lie at or above y0")
        out = np.empty(ys.shape)
        c = np.asarray(coef, dtype=float)
        for k in range(k0, int(np.min(ks, initial=k0)) - 1, -1):
            if k < k0:
                c = np.linalg.solve(self._r[k], c)
            sel = ks == k
            if np.any(sel):
                p = self._dense[k](ys[sel]).reshape(self.order, self.order - 1, -1)
                out[sel] = np.tensordot(self.upsilons, p, 1).T @ c
        return out


# ---------------------------------------------------------------------------
# Scale tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleTable:
    """Discretised scale functions for one rate function xi on one grid."""

    grid: LogGrid
    w: np.ndarray
    z: np.ndarray
    c_zw: float
    hh: Optional[np.ndarray] = None
    w2: Optional[np.ndarray] = None
    c_w2w: Optional[np.ndarray] = None
    flat_level: Optional[float] = None

    def interp_w(self, x):
        return np.interp(x, self.grid.nodes(), self.w)

    def interp_z(self, x):
        return np.interp(x, self.grid.nodes(), self.z)

    def passage_below(self, x):
        """Z(x) - c*W(x): the discounted down-passage factor."""
        return self.interp_z(x) - self.c_zw * self.interp_w(x)


def build_scale_table(model: LevyModel, xi: LogDiscount, grid: LogGrid, *,
                      want_h: bool = False, flat_level: Optional[float] = None,
                      want_w2: bool = False, c_rel_tol: float = 1e-6) -> ScaleTable:
    """W/Z tables plus the tail-ratio constant; optional H and two-argument W."""
    dec = psi_roots(model)
    w = renewal_solve_w(dec, xi, grid)
    z = renewal_solve_z(dec, xi, grid)
    c = _c_limit_by_extension(dec, xi, grid, rel_tol=c_rel_tol)
    hh = None
    if want_h:
        if flat_level is None:
            raise ValueError("H table requires the flat-below-one certificate level")
        dec_c = psi_roots(model, flat_level)
        hh = renewal_solve_h(dec_c, xi, flat_level, grid, phi_ext(model, flat_level))
    w2 = None
    c_w2w = None
    if want_w2:
        w2 = renewal_solve_w2(dec, xi, grid)
        c_w2w = _w2_column_limits(dec, xi, grid)
    return ScaleTable(grid=grid, w=w, z=z, c_zw=c, hh=hh, w2=w2, c_w2w=c_w2w,
                      flat_level=flat_level)


def _w2_column_limits(dec, xi: LogDiscount, grid: LogGrid,
                      max_extra: float = 14.0) -> np.ndarray:
    """c(z_k) = lim_y W(y, z_k)/W(y) per column, from extended marches."""
    h = grid.h
    n = grid.n
    n_ext = n + int(round(max_extra / h))
    xa = np.arange(n_ext) * h
    xa, q_abs = _rate_values(xi, xa)
    n_ext = len(xa)
    inh_abs = classical_w(dec, xa)
    dv, dls = _march(dec.gammas, dec.upsilons, h, inh_abs, q_abs)
    spacing = max(1, int(round(0.5 / h)))
    out = np.empty(n)
    for k0 in range(n):
        m = n_ext - k0
        nv, nls = _march(dec.gammas, dec.upsilons, h, inh_abs[:m], q_abs[k0:])
        idx = np.arange(m - 1, max((n - k0) // 2, 2), -spacing)[::-1]
        if idx.size < 5:
            idx = np.unique(np.linspace(max(2, m // 2), m - 1, 9).astype(int))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            ratios = (nv[idx] / dv[idx + k0]) * np.exp(nls[idx] - dls[idx + k0])
        est, spread = _limit_from_samples(ratios)
        if spread > 1e-5:
            raise RatioLimitError(f"two-argument column {k0} ratio not converged",
                                  ratios[-3:])
        out[k0] = est
    return out
