"""State-dependent-rate scale functions of exponential-jump models.

The W/Z/H-type scale functions solve Volterra renewal equations
u(x) = f(x) + int_0^x W(x-z) rate(z) u(z) dz whose kernel is the classical
zero scale function W(x) = sum_i ups_i e^{gamma_i x}, a short sum of
exponentials for the supported models.  The running convolutions of the
kernel exponentials are the components of a state P, u = ups . P, of the
linear system P' = (diag(gamma) + rate 1 ups^T) P, and every number the
library returns comes from that system:

* It reads the rate only, never its slope, so step and tabulated rates
  integrate like smooth ones, and in absolute log-price y = log s it depends
  on no barrier.  `RecessiveBasis` integrates the normal of the plane of its
  recessive (decaying in s) solutions once, backward in y, so one object
  serves every barrier level: the jump value, the passage factor Z - c W and
  its creeping part are recessive solutions fixed at y = log u, and the tail
  constant c = lim Z/W is the one that makes Z - c W recessive.
* `forward_state` integrates it forward from one level: W starts from
  P = 1, Z from e_i0 / ups_i0 (i0 the zero root) and H, with the roots of
  psi - c, from e_i / ups_i (i the root Phi(c)).  It gives the tables of
  `build_scale_table` and the jump pricer's H for l > 0.
* Both helpers run ODEPACK's LSODA with its step loop in compiled code.
  `_dense_solve` (scipy's solve_ivp with dense output) integrates the
  basis normal and `forward_state`, whose reads are not known in advance
  (root finders, minimisers and the forward right-hand side itself);
  `_point_solve` (scipy's odeint) gives a recessive solution at the points it
  is asked for and keeps nothing.  They run at rtol 1e-11 for the basis and
  its recessive solutions (a fit root reads them) and 1e-13 for
  `forward_state` (its tables are read as they are).
* The tests keep an independent reference for the state system in
  tests/reference_scale.py: the product-integration march of the renewal
  equations, which acceptance criterion 4 compares W and Z against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import ODEintWarning, odeint, solve_ivp

from .discount import DiscountFn, check_flat_below_one
from .levy import LevyModel, RootDecomposition, psi_roots

__all__ = [
    "LogGrid",
    "ScaleTable",
    "forward_state",
    "RecessiveBasis",
    "build_scale_table",
]


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


# ---------------------------------------------------------------------------
# Renewal state system
# ---------------------------------------------------------------------------

def forward_state(dec: RootDecomposition, rate, x_end: float,
                  i0: Optional[int] = None, phi: Optional[float] = None):
    """Dense forward solution of the renewal state system on [0, x_end].

    P' = (diag(gamma) + rate(x) 1 ups^T) P for the roots and weights of dec
    and a scalar rate(x), started from P = 1 (F = ups . P is then W-type) or,
    given i0, from e_i0 / ups_i0 (F(x) = e^{gamma_i0 x} + ...: Z-type for the
    zero root, H-type for Phi(c) of psi - c).  With phi one more component
    carries int_0^x F(z) e^{phi z} dz.  Integrated by _dense_solve at
    _FORWARD_RTOL; returns x -> stacked state at x (an array of x gives one
    column each), exactly the start state at x = 0, where LSODA's dense
    output can be an ulp off.
    """
    g = np.asarray(dec.gammas)
    ups = np.asarray(dec.upsilons)
    m = len(g)
    v0 = np.ones(m) if i0 is None else np.eye(m)[i0] / ups[i0]
    if phi is not None:
        v0 = np.append(v0, 0.0)

    def rhs(x, v):
        f = ups @ v[:m]
        dp = g * v[:m] + rate(x) * f
        return dp if phi is None else np.append(dp, f * math.exp(phi * x))

    sol = _dense_solve(rhs, (0.0, x_end), v0, _FORWARD_RTOL, float(g.min()),
                       "renewal state")

    def state(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.0, v0.reshape((-1,) + (1,) * x.ndim), sol(x))

    return state


# Integration constants of RecessiveBasis, checked by the self-convergence tests
# in tests/test_scale.py.  LSODA's global error at rtol 1e-10 left the sigma = 0.2
# crash curve 1e-8 from its converged value; at 1e-11 it is 7e-10, at no extra cost.
_CORE_RTOL = 1e-11
_CORE_MARGIN = 3.0   # start this far above log(s_hi) so the start error decays by then
# forward_state's tolerance, checked against a tight DOP853 reference in
# tests/test_scale.py: at 1e-11 the sigma = 0 W drifts 2e-10 from it, at 1e-13
# every W, Z and H table stays within 2e-11.
_FORWARD_RTOL = 1e-13


def _dense_solve(rhs, span, v0, rtol: float, fast: float, system: str):
    """Dense LSODA solution of v' = rhs(y, v) over span at relative tolerance
    rtol (absolute 1e-3 rtol); system names what is integrated in the errors.

    The caller has read the rate at both ends of the range, so a ValueError
    out of the solver is the solver's own: for sigma near 0 the fast mode of
    the state system (exponent fast, about -2 zeta / sigma^2) asks for steps
    in y below the spacing of doubles, and LSODA's dense output gets two
    equal step times.  RecessiveBasis refuses such a sigma before it
    integrates; forward_state relies on this error.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(rhs, span, v0, method="LSODA", rtol=rtol,
                            atol=1e-3 * rtol, dense_output=True)
    except ValueError as err:
        raise RuntimeError(f"{system} cannot resolve its fast frozen exponent "
                           f"{fast:.3g} in double precision ({err}); "
                           f"price with sigma = 0 or a larger sigma") from err
    if not np.all(np.abs(sol.y) < 1e300):  # also catches inf and nan
        raise OverflowError(f"{system} leaves double range; narrow its range")
    if not sol.success:
        raise RuntimeError(f"{system} integration failed near "
                           f"s = {math.exp(sol.t[-1]):.4g}: {sol.message}")
    return sol.sol


# Step limit of _point_solve per output interval (odeint's default, 500, is
# too few): the longest solve of the test suite (sigma = 0.01 drawn by the
# property test) takes about 4,600 steps in all.
_POINT_MXSTEP = 100_000


def _point_solve(rhs, y0: float, ys: np.ndarray, v0, rtol: float, system: str) -> np.ndarray:
    """Solution of v' = rhs(y, v), v(y0) = v0, at the sorted points ys >= y0, one
    row each: LSODA through odeint at relative tolerance rtol (absolute 1e-3
    rtol), with the whole step loop compiled and no dense output, never
    stepping past ys[-1]; system names what is integrated in the errors."""
    t = np.concatenate(([y0], ys))
    with warnings.catch_warnings():
        # a failure is read from the returned message, not from the warning
        warnings.simplefilter("ignore", ODEintWarning)
        with np.errstate(over="ignore", invalid="ignore"):
            v, info = odeint(rhs, v0, t, rtol=rtol, atol=1e-3 * rtol, tcrit=t[-1:],
                             mxstep=_POINT_MXSTEP, full_output=True, tfirst=True)
    # rows past a failure are left unwritten, so the message is read first
    if info["message"] not in ("Integration successful.",
                               "Nothing was done; the integration time was 0."):
        raise RuntimeError(f"{system} integration failed on s in [{math.exp(y0):.4g}, "
                           f"{math.exp(t[-1]):.4g}]: {info['message']}")
    if not np.all(np.abs(v) < 1e300):  # also catches inf and nan
        raise OverflowError(f"{system} leaves double range; narrow its range")
    return v[1:]


class RecessiveBasis:
    """Recessive solutions of the scale equation of (model, omega) on [s_lo, s_hi].

    In absolute log-price y = log s every scale function of an exponential-jump
    model is F = ups . P for the renewal state P' = A P, A = diag(gamma) +
    omega(e^y) 1 ups^T, with m = 2 roots for sigma = 0 and m = 3 for sigma > 0;
    the system reads omega only, not its slope, and depends on no barrier.  One
    solution dominates as s -> infinity (like s^Phi(q) where the rate tends to
    q); the m - 1 dimensional plane of the others (the recessive solutions)
    holds every passage factor.  The plane is kept as its unit normal w, the
    dominant solution backward in y of the adjoint w' = -A^T w (the
    codimension-1 compound-matrix method; Ng & Reid 1979, Allen & Bridges
    2002), integrated once from the frozen dominant left eigenvector at
    log(s_hi) + margin by a stiff-capable method (LSODA): the plane's fast
    mode, which would hold a direct integration of the plane to short steps,
    only decays in w.  A recessive solution given at one level is integrated
    forward under P' = A (I - w w^T) P, which keeps w . P constant, for each
    call of evaluate; only the normal is kept.
    """

    def __init__(self, model: LevyModel, fn: DiscountFn, s_lo: float, s_hi: float):
        if not 0.0 < s_lo <= s_hi:
            raise ValueError("need 0 < s_lo <= s_hi")
        dec = psi_roots(model)
        g = np.asarray(dec.gammas)
        ups = np.asarray(dec.upsilons)
        m = self.order = len(g)
        self.fn, self.gammas, self.upsilons = fn, g, ups
        self.y_lo = math.log(s_lo)
        while math.exp(self.y_lo) < s_lo:  # never read omega below s_lo
            self.y_lo = math.nextafter(self.y_lo, math.inf)
        self.y_top = math.log(s_hi)
        s_start = s_hi * math.exp(_CORE_MARGIN)
        y_hi = math.log(s_start)
        while math.exp(y_hi) > s_start:  # never read omega above s_hi e^margin
            y_hi = math.nextafter(y_hi, -math.inf)
        frozen = np.diag(g) + float(fn(math.exp(y_hi))) * np.outer(np.ones(m), ups)
        lam, vec = np.linalg.eig(frozen.T)
        by_re = np.argsort(lam.real)
        # the frozen exponents are the roots of psi = omega(e^y_hi); the dominant
        # one continues Phi(q) and must be separated from the rest (it decays
        # itself when q < 0)
        if not lam[by_re[-1]].real > lam[by_re[-2]].real:
            raise RuntimeError(f"no separated dominant mode at s = {math.exp(y_hi):.4g}: "
                               f"frozen exponents {lam}")
        w0 = vec[:, by_re[-1]].real
        fast = float(lam[by_re[0]].real)
        # for sigma near 0 the fast mode (exponent about -2 zeta / sigma^2) sets
        # LSODA's first step near sqrt(rtol) / |fast|; below the spacing of
        # doubles in y no solution is resolved (multiplied out: fast can be 0)
        if abs(fast) * np.spacing(y_hi) > math.sqrt(_CORE_RTOL):
            raise RuntimeError(f"recessive basis cannot resolve its fast frozen exponent "
                               f"{fast:.3g} in double precision (steps in y near "
                               f"{math.sqrt(_CORE_RTOL) / abs(fast):.3g}, spacing "
                               f"{np.spacing(y_hi):.3g}); price with sigma = 0 or a larger sigma")
        fn(math.exp(self.y_lo))  # a rate undefined at the bottom raises here, not in LSODA

        def rhs(y, w):
            # unit-norm adjoint: w' = -A^T w + (w . A^T w) w
            atw = g * w + fn(math.exp(y)) * w.sum() * ups
            return (w @ atw) * w - atw

        self._normal = _dense_solve(rhs, (y_hi, self.y_lo), w0 / np.linalg.norm(w0),
                                    _CORE_RTOL, fast, "recessive basis")

    def _check(self, y) -> None:
        if np.any(y < self.y_lo - 1e-12) or np.any(y > self.y_top + 1e-12):
            raise ValueError(f"log-price outside the basis range "
                             f"[{self.y_lo:.6g}, {self.y_top:.6g}]")

    def state(self, y) -> np.ndarray:
        """m x (m-1) orthonormal basis of the recessive states P at y; for an
        array of y, one such basis per entry, stacked on a leading axis (one
        read of the normal, one stacked QR)."""
        self._check(y)
        w = np.moveaxis(self._normal(y), 0, -1)[..., None]
        return np.linalg.qr(w, mode="complete")[0][..., 1:]

    def basis(self, y) -> np.ndarray:
        """m x (m-1) matrix of (F, F', ...) at y+ for the states of state(y),
        stacked like state for an array of y.

        F' = (ups gamma) . P + omega W(0) F and, for sigma > 0 where W(0) = 0,
        F'' = (ups gamma^2) . P + omega W'(0+) F, with omega read at e^y (at
        s_lo for y within rounding below the range).
        """
        p = self.state(y)
        w = np.asarray(self.fn(np.exp(np.maximum(y, self.y_lo))), dtype=float)[..., None]
        ug = self.upsilons * self.gammas
        f = self.upsilons @ p
        jet = [f, ug @ p + w * self.upsilons.sum() * f]
        if self.order == 3:
            jet.append((ug * self.gammas) @ p + w * ug.sum() * f)
        return np.stack(jet, axis=-2)

    def tail_constant(self, y: float) -> float:
        """c = lim Z/W for the W and Z started at level e^y.

        Z - c W is recessive, so at y the Z start e_i0 / ups_i0 is c times
        the W start 1 plus a recessive state: [P-basis | 1] (a, c) = e_i0 / ups_i0.
        """
        m = self.order
        i0 = int(np.argmin(np.abs(self.gammas)))
        z_start = np.eye(m)[i0] / self.upsilons[i0]
        return float(np.linalg.solve(np.column_stack([self.state(y), np.ones(m)]), z_start)[-1])

    def evaluate(self, y0: float, coef, ys, slope: bool = False) -> np.ndarray:
        """F(ys) at ys >= y0 for the recessive solution F(y0) = basis(y0) @ coef,
        or with slope its derivative F'(ys) in y (the second row of basis).

        Each call integrates the one state state(y0) @ coef forward from y0 to
        the largest of ys and keeps nothing, so a caller passes all its points
        at one level in one call.
        """
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        self._check(np.append(ys, y0))
        if np.any(ys < y0 - 1e-12):
            raise ValueError("evaluation points must lie at or above y0")
        g, ups, fn, normal = self.gammas, self.upsilons, self.fn, self._normal

        def rhs(y, v):
            w = normal(y)
            p = v - w * ((w @ v) / (w @ w))
            return g * p + fn(math.exp(y)) * (ups @ p)

        start = max(y0, self.y_lo)
        order = np.argsort(ys, kind="stable")
        p = np.empty((ys.size, self.order))
        p[order] = _point_solve(rhs, start, np.maximum(ys[order], start),
                                self.state(y0) @ np.asarray(coef, dtype=float),
                                _CORE_RTOL, "recessive solution")
        f = p @ ups
        if not slope:
            return f
        rate = np.asarray(self.fn(np.exp(ys)), dtype=float)
        return p @ (ups * g) + rate * ups.sum() * f


# ---------------------------------------------------------------------------
# Scale tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleTable:
    """Discretised scale functions of one rate omega on one grid above s = 1."""

    grid: LogGrid
    w: np.ndarray
    z: np.ndarray
    c_zw: float
    hh: Optional[np.ndarray] = None
    flat_level: Optional[float] = None


def build_scale_table(model: LevyModel, omega: DiscountFn, grid: LogGrid) -> ScaleTable:
    """W/Z tables at x = log s on the grid, the tail constant c = lim Z/W and,
    where omega is certified flat on (0, 1], the H table.

    W, Z and H are forward solutions of the renewal state system from s = 1;
    H uses the roots of psi - c for the flat level c of omega on (0, 1]
    (check_flat_below_one).  c comes from the recessive basis read at x = 0:
    the basis starts _CORE_MARGIN above the top of its range, and the error
    of that start decays over the whole span down to x = 0, so the range is
    the table's [0, x_max] but never shorter than [0, _CORE_MARGIN].
    """
    # np.exp, not math.exp: the two may differ in the last ulp
    rate = lambda x: float(omega(np.exp(x)))
    xs = grid.nodes()
    dec = psi_roots(model)
    ups = np.asarray(dec.upsilons)
    w = ups @ forward_state(dec, rate, grid.x_max)(xs)
    z = ups @ forward_state(dec, rate, grid.x_max, int(np.argmin(np.abs(dec.gammas))))(xs)
    top = math.exp(max(grid.x_max, _CORE_MARGIN))
    c = RecessiveBasis(model, omega, 1.0, top).tail_constant(0.0)
    flat = check_flat_below_one(omega)
    hh = None
    if flat is not None:
        dec = psi_roots(model, flat)
        sol = forward_state(dec, lambda x: rate(x) - flat, grid.x_max,
                            int(np.argmax(dec.gammas)))
        hh = np.asarray(dec.upsilons) @ sol(xs)
    return ScaleTable(grid=grid, w=w, z=z, c_zw=c, hh=hh, flat_level=flat)
