"""Value assembly and free-boundary optimisation for the perpetual put.

Two analytic routes cover the supported model/discount combinations:

* Black-Scholes models price through two solutions of the second-order
  equation sigma^2 s^2/2 h'' + mu s h' - omega(s) h = 0: an inner branch
  used below the stopping interval and an outer branch above it.  Each is
  one dense integration of (log h, d log h/d log s) per direction from its
  anchor, run on the branch's first read and interpolated for every later
  one, so the inner branch costs nothing where omega >= 0 forces l* = 0.
* Exponential-jump models price every stopping interval [l, u] through one
  valuation.  Above u the value is a recessive solution of the renewal
  state system, fixed by the generator equation at u+ and, when sigma > 0,
  by continuity at u; one scale.RecessiveBasis per problem serves every
  barrier and every rate kind.  The value above u and the fit residual at
  u read the one coefficient solve of that solution.  The jump from above
  u lands below u on the memoryless overshoot average,
  K - u phi/(phi+1) + u^{-phi} B(l), where the overshoot gain B(l) (0 at
  l = 0) is what continuing below l adds.
  Below l > 0 the value follows the upward-passage function H, one forward
  integration of the renewal state system of psi - c from the level s = 1
  below which the rate is the flat c, run on the first read of H.  l
  enters the value above u only through B, so l* maximises B once, for
  every u (l* = 0 where omega >= 0), and u* is the fit root with the
  landing mean that l* gives.

One root scan (first sign change on a node grid, polished by brentq) finds
u* on both routes and l* on the Black-Scholes route.  Calls are handled
exclusively through the put-call transform.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize_scalar
from scipy.special import hyp2f1

from .discount import DiscountFn, Rational, check_flat_below_one
from .levy import LevyModel, laplace_exponent, psi_roots
from .scale import RecessiveBasis, forward_state

__all__ = [
    "PricingProblem",
    "Boundaries",
    "PricingResult",
    "DualPutSpec",
    "solve_h_ode",
    "value_bs",
    "value_jump",
    "optimize_boundaries",
    "smooth_fit_residual",
    "hjb_residual",
    "convexity_margin",
    "putcall_transform",
    "rational_bs_branches",
]


@dataclass(frozen=True)
class PricingProblem:
    model: LevyModel
    omega: DiscountFn
    strike: float
    payoff: str = "put"

    def __post_init__(self):
        if self.strike <= 0.0:
            raise ValueError("strike must be > 0")
        if self.payoff not in ("put", "call"):
            raise ValueError("payoff must be 'put' or 'call'")

    def intrinsic(self, s):
        s = np.asarray(s, dtype=float)
        out = np.maximum(self.strike - s, 0.0) if self.payoff == "put" \
            else np.maximum(s - self.strike, 0.0)
        return out if s.ndim else float(out)


@dataclass(frozen=True)
class Boundaries:
    l: float
    u: float

    def __post_init__(self):
        if not (0.0 <= self.l <= self.u):
            raise ValueError("need 0 <= l <= u")


@dataclass
class PricingResult:
    boundaries: Boundaries
    s_grid: np.ndarray
    values: np.ndarray
    fit: dict
    diagnostics: dict
    value_fn: Callable = field(repr=False)
    value_deriv_fn: Callable = field(repr=False)

    @property
    def l_star(self) -> float:
        return self.boundaries.l

    @property
    def u_star(self) -> float:
        return self.boundaries.u


# ---------------------------------------------------------------------------
# Black-Scholes branch machinery
# ---------------------------------------------------------------------------

def _h_rhs(x, y, sig2, zeta, omega):
    """(log h, d log h/dx)' of the h-equation in x = log s."""
    d = y[1]
    q = float(omega(math.exp(x)))
    return [d, (2.0 / sig2) * q - (2.0 * zeta / sig2) * d - d * d]


class HBranch:
    """One solution h of the h-equation, as (log h, d log h/dx) in x = log s.

    The pair starts from an anchor where both are known and is integrated
    once, on the first read, up to x_hi and down to x_lo (DOP853, dense
    output; a direction whose end is the anchor is skipped).  Every read
    interpolates that output; a read outside [x_lo, x_hi] (widened to take
    in the anchor) raises ValueError.
    """

    def __init__(self, model: LevyModel, omega: DiscountFn,
                 x_anchor: float, log_h0: float, dlog0: float,
                 x_lo: float, x_hi: float):
        self.model, self.omega = model, omega
        self.x_anchor, self.y0 = x_anchor, [log_h0, dlog0]
        self.x_lo, self.x_hi = min(x_lo, x_anchor), max(x_hi, x_anchor)
        self._pieces = None

    def _solve(self, x_end: float):
        if x_end == self.x_anchor:
            return None
        # scipy's solver keeps its rhs in a reference cycle: pass the
        # coefficients, not a method of the branch
        sol = solve_ivp(_h_rhs, (self.x_anchor, x_end), self.y0, method="DOP853",
                        rtol=1e-11, atol=1e-12, dense_output=True,
                        args=(self.model.sigma ** 2, self.model.zeta, self.omega))
        if not sol.success:
            raise RuntimeError(f"h-equation integration failed: {sol.message}")
        return sol.sol

    def _read(self, s) -> np.ndarray:
        """(log h, d log h/dx) at the prices s, stacked on a leading axis of 2."""
        s = np.asarray(s, dtype=float)
        x = np.log(s).ravel()
        tiny = 1e-12 * max(1.0, abs(self.x_lo), abs(self.x_hi))
        if np.any(x < self.x_lo - tiny) or np.any(x > self.x_hi + tiny):
            raise ValueError(f"price outside the h-branch range "
                             f"[{math.exp(self.x_lo):.6g}, {math.exp(self.x_hi):.6g}]")
        if self._pieces is None:
            down, up = self._solve(self.x_lo), self._solve(self.x_hi)
            # a skipped direction is served by the other one, which starts there
            self._pieces = (up if down is None else down, down if up is None else up)
        down, up = self._pieces
        on_up = x >= self.x_anchor
        out = np.empty((2, x.size))
        for piece, sel in ((up, on_up), (down, ~on_up)):
            if np.any(sel):
                out[:, sel] = piece(x[sel])
        return out.reshape((2,) + s.shape)

    def log_h_at(self, s):
        return self._read(s)[0]

    def ratio(self, s_num, s_den):
        """h(s_num)/h(s_den) without leaving log space."""
        return np.exp(self.log_h_at(s_num) - self.log_h_at(s_den))

    def dlog_ds(self, s):
        """h'(s)/h(s)."""
        return self._read(s)[1] / np.asarray(s, dtype=float)


@dataclass(frozen=True)
class RationalBranchParams:
    a: float
    b: float
    c: float
    d: float


def rational_bs_branches(model: LevyModel, omega: Rational):
    """The two hypergeometric solutions for the rational discount family.

    h_i(s) = s^{d_i} 2F1(a_i, b_i; c_i; -s); the inner branch (i = 2) is used
    below the stopping interval and the outer branch (i = 1) above it.
    """
    sig2 = model.sigma ** 2
    L = 0.5 - model.mu / sig2
    M2 = L * L - 2.0 * omega.D / sig2
    G2 = L * L - 2.0 * (omega.C + omega.D) / sig2
    if M2 < 0.0 or G2 < 0.0:
        raise ValueError("discount too negative for a finite value function")
    M, G = math.sqrt(M2), math.sqrt(G2)
    params = {}
    for i in (1, 2):
        sgn = 1.0 if i == 1 else -1.0
        params[i] = RationalBranchParams(a=sgn * (M - G), b=-sgn * (M + G),
                                         c=1.0 - sgn * 2.0 * G, d=-sgn * G + L)

    def h(i, s):
        p = params[i]
        return s ** p.d * hyp2f1(p.a, p.b, p.c, -s)

    def h_deriv(i, s):
        # d/dz 2F1(a, b; c; z) = (a b / c) 2F1(a + 1, b + 1; c + 1; z)
        p = params[i]
        f = hyp2f1(p.a, p.b, p.c, -s)
        fp = -p.a * p.b / p.c * hyp2f1(p.a + 1.0, p.b + 1.0, p.c + 1.0, -s)
        return p.d * s ** (p.d - 1.0) * f + s ** p.d * fp

    return params, h, h_deriv


def _rational_closed_form(model: LevyModel, omega: DiscountFn) -> bool:
    """True when the 2F1 branches anchor the h-equation: rational omega, G < 1/2."""
    return isinstance(omega, Rational) and rational_bs_branches(model, omega)[0][1].c > 0.0


def solve_h_ode(model: LevyModel, omega: DiscountFn,
                s_range: tuple = (0.05, 40.0)) -> tuple:
    """Inner and outer solutions of the h-equation as HBranch objects.

    Both branches cover [s_lo/4, 4 s_hi].  The inner branch continues the
    larger-exponent power solution from s -> 0 and the outer branch the
    decaying one from s -> infinity; the generic anchors are those powers
    for the rate at s_lo/4 and at 4 s_hi.  For the rational discount family
    with G < 1/2 both branches are anchored to their closed hypergeometric
    forms (scipy's hyp2f1) at s = 1 and s = max(2, s_hi/2), which the
    integration then reproduces; for G >= 1/2 the outer 2F1 turns negative
    (c = 1 - 2G <= 0) and the generic anchors are used.  Nothing is
    integrated here: each branch integrates once, on its first read, so a
    branch that is never read costs nothing.
    """
    if model.sigma <= 0.0 or model.has_jumps:
        raise ValueError("h-equation route requires a Black-Scholes model")
    sig2 = model.sigma ** 2
    zeta = model.zeta
    s_lo, s_hi = s_range
    x_lo, x_hi = math.log(s_lo / 4.0), math.log(s_hi * 4.0)
    if _rational_closed_form(model, omega):
        _, h, h_deriv = rational_bs_branches(model, omega)

        def closed_form(i, a):
            return HBranch(model, omega, math.log(a), math.log(h(i, a)),
                           a * h_deriv(i, a) / h(i, a), x_lo, x_hi)

        return closed_form(2, 1.0), closed_form(1, max(2.0, 0.5 * s_hi))

    def power(s, sign, where):
        """Exponent of the power solution for the rate frozen at s."""
        disc = zeta * zeta + 2.0 * sig2 * float(omega(s))
        if disc < 0.0:
            raise ValueError(f"discount too negative {where} for a finite value")
        return (-zeta + sign * math.sqrt(disc)) / sig2

    inner = HBranch(model, omega, x_lo, 0.0, power(s_lo / 4.0, 1.0, "near zero"), x_lo, x_hi)
    outer = HBranch(model, omega, x_hi, 0.0, power(s_hi * 4.0, -1.0, "at infinity"),
                    x_lo, x_hi)
    return inner, outer


def value_bs(problem: PricingProblem, b: Boundaries, s,
             branches: Optional[tuple] = None):
    """Piecewise Black-Scholes value for stopping interval [l, u].

    (K - l) h_in(s)/h_in(l) below l, K - s on [l, u] and (K - u)
    h_out(s)/h_out(u) above u, read from the dense output of the branches
    (built from the default range of the problem when none are given).
    """
    if problem.model.has_jumps or problem.model.sigma <= 0.0:
        raise ValueError("value_bs requires a pure Black-Scholes model")
    if branches is None:
        s_min = b.l / 16.0 if b.l > 0.0 else None
        branches = solve_h_ode(problem.model, problem.omega,
                               s_range=_default_s_range(problem, s_min))
    inner, outer = branches
    K = problem.strike
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = K - s.astype(float)
    for branch, sel, edge in ((inner, s < b.l, b.l), (outer, s > b.u, b.u)):
        if np.any(sel):
            out[sel] = branch.ratio(s[sel], edge) * (K - edge)
    return float(out[0]) if scalar else out


def _default_s_range(problem: PricingProblem, s_min: Optional[float] = None) -> tuple:
    """(s_lo, s_hi) of the h-branches, which cover [s_lo/4, 4 s_hi]: the
    smooth-fit scans read [0.005 K, K] and the value below l reads down to
    s_min."""
    K = problem.strike
    lo = 0.02 * K if s_min is None else min(0.02 * K, 4.0 * s_min)
    return (lo, 2.2 * K)


# ---------------------------------------------------------------------------
# Exponential-jump value
# ---------------------------------------------------------------------------

def _overshoot_mean(problem: PricingProblem, u: float, gain: float) -> float:
    """Mean value at the landing u e^{-Y}, Y ~ Exp(phi), of a jump from u:
    K - u phi/(phi+1) for the payoff K - w, plus u^{-phi} B(l) when the
    value below l continues (gain = B(l), see _JumpValuation)."""
    phi = problem.model.phi
    return problem.strike - u * phi / (phi + 1.0) + gain * u ** (-phi)


class _JumpValuation:
    """Value of stopping on first entry into [l, u] under exponential jumps,
    shared by every interval.

    Above u the value is the recessive solution of the renewal state system
    that meets the generator equation at s = u+ (and, when sigma > 0,
    continuity at u); one RecessiveBasis on [0.02 K, 2.2 K] serves every
    barrier and rate kind.  value and fit_gap read the same coefficients,
    _coef(u, K - u, gbar): the solve is linear in (F(u), gbar), so it holds
    the jump-passage part (gbar times the solution for (1, 1) minus (1, 0))
    and the creeping part ((K - u) times the (1, 0) solution, zero for
    sigma = 0) at once.  Below l > 0 the value is (K - l) H(s)/H(l).
    Where omega equals its flat level c (y = log s <= 0) H = e^{Phi(c) y};
    above, H is the forward solution of the renewal state system of psi - c
    with rate omega(e^y) - c, started at y = 0 from H = 1 and integrated up
    to log(2.2 K) on the first read of H, so a price with l = 0 never
    integrates it.  The same integration carries int_0^y H(w) e^{phi w} dw
    for the overshoot average.

    The overshoot average splits as K - u phi/(phi+1) + u^{-phi} B(l) (see
    overshoot_gain, 0 at l = 0), and above u the value is nondecreasing in
    it, so the best l maximises B whatever u is.
    """

    def __init__(self, problem: PricingProblem):
        if not problem.model.has_jumps:
            raise ValueError("jump route requires an exponential-jump model")
        self.problem = problem
        K = problem.strike
        self.core = RecessiveBasis(problem.model, problem.omega, 0.02 * K, 2.2 * K)
        self._upward = None

    def _upward_passage(self) -> tuple:
        """(Phi(c), flat level c, roots of psi - c, top of the H range, dense H
        state), built on the first call; raises ValueError when omega is not
        constant on (0, 1]."""
        if self._upward is None:
            model, omega = self.problem.model, self.problem.omega
            flat = check_flat_below_one(omega)
            if flat is None:
                raise ValueError("l > 0 requires omega constant on (0, 1]")
            dec = psi_roots(model, flat)
            i = int(np.argmax(dec.gammas))
            y_top = max(math.log(2.2 * self.problem.strike), 0.0)
            sol = forward_state(dec, lambda y: float(omega(math.exp(y))) - flat,
                                y_top, i, model.phi)
            self._upward = (dec.gammas[i], flat, dec, y_top, sol)
        return self._upward

    def _forward(self, y, slope: bool = False):
        """(H, int_0^y H(w) e^{phi w} dw) at 0 <= y <= log(2.2 K), with dH/dy in
        place of H when slope is set: H' = (ups gamma) . P + (omega - c) W(0) H,
        the jet of RecessiveBasis.basis for the rates of psi - c."""
        _, flat, dec, y_top, sol = self._upward_passage()
        if np.any(y > y_top + 1e-12):
            raise ValueError(f"log-price above the H range {y_top:.6g}")
        v = sol(y)
        ups = np.asarray(dec.upsilons)
        h = ups @ v[:-1]
        if slope:
            rate = np.asarray(self.problem.omega(np.exp(y)), dtype=float) - flat
            h = (ups * np.asarray(dec.gammas)) @ v[:-1] + rate * ups.sum() * h
        return h, v[-1]

    def _coef(self, u, f0, gbar) -> tuple:
        """Basis at log u and coefficients of the recessive F with, at s = u+,
        sigma^2/2 F'' + zeta F' - (lam + omega(u)) F + lam gbar = 0 and, when
        sigma > 0, F = f0 (gbar: mean of F over the jump landing below u).
        For arrays u, f0, gbar (one entry per barrier) the bases and
        coefficients are stacked on a leading axis: one basis read, one
        batched solve."""
        model = self.problem.model
        basis = self.core.basis(np.log(u))
        rate = np.asarray(self.problem.omega(u), dtype=float)
        gen = np.stack(np.broadcast_arrays(-(model.lam + rate), model.zeta,
                                           0.5 * model.sigma ** 2), axis=-1)
        rows = [(gen[..., None, :self.core.order] @ basis)[..., 0, :]]
        rhs = [-model.lam * np.asarray(gbar, dtype=float)]
        if model.sigma > 0.0:
            rows.append(basis[..., 0, :])
            rhs.append(np.asarray(f0, dtype=float))
        rows, rhs = np.stack(rows, axis=-2), np.stack(np.broadcast_arrays(*rhs), axis=-1)
        return basis, np.linalg.solve(rows, rhs[..., None])[..., 0]

    def fit_gap(self, u, gbar):
        """Fit residual at barrier u: V(u+) - (K - u) for sigma = 0 (continuous
        fit), u (V'(u+) + 1) for sigma > 0 (smooth fit), where gbar is the mean
        value at the jump landing below u; elementwise for arrays u, gbar."""
        K = self.problem.strike
        basis, coef = self._coef(u, K - u, gbar)
        if self.problem.model.sigma == 0.0:
            return (basis[..., :1, :] @ coef[..., None])[..., 0, 0] - (K - u)
        return (basis[..., 1:2, :] @ coef[..., None])[..., 0, 0] + u

    def h_at(self, s, slope: bool = False) -> np.ndarray:
        """H at log-price y = log s, or with slope dH/dy; H = e^{Phi(c) y}
        where omega is flat (y <= 0)."""
        phi_c = self._upward_passage()[0]
        with np.errstate(divide="ignore"):
            y = np.log(np.atleast_1d(np.asarray(s, dtype=float)))
        out = np.exp(phi_c * np.minimum(y, 0.0)) * (phi_c if slope else 1.0)
        pos = y > 0.0
        if np.any(pos):
            out[pos] = self._forward(y[pos], slope)[0]
        return out

    def overshoot_gain(self, l: float) -> float:
        """B(l) = phi (K - l) I(l)/H(l) - K l^phi + phi/(phi+1) l^{phi+1} with
        I(l) = int_{-inf}^{log l} H(w) e^{phi w} dw: what continuing below l
        adds to the overshoot average, times u^phi (0 at l = 0)."""
        K = self.problem.strike
        phi = self.problem.model.phi
        if l <= 0.0:
            return 0.0
        phi_c = self._upward_passage()[0]
        log_l = math.log(l)
        if log_l <= 0.0:
            i_over_h = l ** phi / (phi_c + phi)
        else:
            h_l, tail = self._forward(log_l)
            i_over_h = (1.0 / (phi_c + phi) + tail) / h_l
        return float(phi * (K - l) * i_over_h - K * l ** phi + phi / (phi + 1.0) * l ** (phi + 1.0))

    def value(self, b: Boundaries, s, slope: bool = False) -> np.ndarray:
        """V(s) for the stopping interval [l, u], or with slope V'(s) from the
        jets of H and of the recessive solution (-1 on [l, u])."""
        K = self.problem.strike
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.full_like(s, -1.0) if slope else K - s
        below = s < b.l
        if np.any(below):
            out[below] = self.h_at(s[below], slope) / self.h_at(b.l)[0] * (K - b.l)
        above = s > b.u
        if np.any(above):
            gbar = _overshoot_mean(self.problem, b.u, self.overshoot_gain(b.l))
            coef = self._coef(b.u, K - b.u, gbar)[1]
            out[above] = self.core.evaluate(math.log(b.u), coef, np.log(s[above]), slope)
        if slope:
            # the jets are derivatives in y = log s
            out[below | above] /= s[below | above]
        return out


def value_jump(problem: PricingProblem, b: Boundaries, s,
               valuation: Optional[_JumpValuation] = None):
    """Value of stopping on first entry into [l, u] for exponential-jump models.

    Above u the value is one recessive solution fixed at u by the overshoot
    average and, when sigma > 0, by the creeping value K - u at u.
    Memorylessness detaches the exponential overshoot from the crossing
    level, so the average folds analytically against the landing payoff
    and, for l > 0, the below-l continuation factor H(.)/H(l); Monte Carlo
    (`mc.stopped_value`) is the independent check.
    The value is defined up to 2.2 K (built from the problem when no
    valuation is given).
    """
    if valuation is None:
        valuation = _JumpValuation(problem)
    out = valuation.value(b, s)
    return float(out[0]) if np.ndim(s) == 0 else out


def _fit_gap(u, valuation: _JumpValuation, gain: float):
    """valuation.fit_gap at the barrier u for the landing mean
    _overshoot_mean(problem, u, gain): a scalar (brentq's polish), or the
    scan's node array read in one pass (one basis read, one batched solve)."""
    return valuation.fit_gap(u, _overshoot_mean(valuation.problem, u, gain))


def _jump_boundaries(problem: PricingProblem, valuation: _JumpValuation) -> tuple:
    """(Boundaries, diagnostics) of the jump route.

    Where omega >= 0, l* = 0 and B(l*) = 0.  Otherwise l* maximises the
    overshoot gain B on [0, K] (48-node scan, bounded refine), once for
    every u, and the one-sided difference slopes of B at l*, at steps h and
    h/100, tell a kink optimum (slopes keep their value, as where omega
    jumps) from a smooth one (slopes shrink with h).  u* is then the first
    fit root above l* with the overshoot average that B(l*) gives.  Raises
    RuntimeError when B peaks at an edge of the scan, when l* is not a local
    maximum of B, or when u* <= l*.
    """
    K = problem.strike
    l_star = b_star = 0.0
    diagnostics = {}
    if not problem.omega.is_nonnegative:
        gain = valuation.overshoot_gain
        ls = np.linspace(0.0, K, 48)
        j = int(np.argmax([gain(l) for l in ls]))
        if j in (0, len(ls) - 1):
            raise RuntimeError(f"overshoot gain peaks at the edge l = {ls[j]:.6g} of the "
                               f"scan [0, {K:g}]; no interior lower boundary")
        res = minimize_scalar(lambda l: -gain(l), bounds=(ls[j - 1], ls[j + 1]),
                              method="bounded", options={"xatol": 1e-9 * K})
        l_star = float(res.x)
        b_star = gain(l_star)
        h = 1e-4 * l_star
        left = [(b_star - gain(l_star - d)) / d for d in (h, h / 100.0)]
        right = [(gain(l_star + d) - b_star) / d for d in (h, h / 100.0)]
        if not (left[0] > 0.0 > right[0]):
            raise RuntimeError(f"l = {l_star:.10g} is not a local maximum of the overshoot "
                               f"gain (slopes {left[0]:.3g} left, {right[0]:.3g} right)")
        # a kink keeps its slopes (ratio near 1), a smooth maximum scales them by 1/100
        shrink = max(abs(left[1] / left[0]), abs(right[1] / right[0]))
        diagnostics = {"l_condition": "kink" if shrink > 0.1 else "smooth",
                       "l_slopes": {"step": h, "left": left, "right": right}}
    lo, hi = max(0.02 * K, l_star), 0.995 * K
    u_star = _root_scan(lambda u: _fit_gap(u, valuation, b_star), lo, hi, n=48, xtol=1e-10)
    if u_star is None:
        raise RuntimeError(f"no fit root for the upper boundary in [{lo:.6g}, {hi:.6g}]; "
                           "stopping set degenerate")
    if u_star <= l_star:
        raise RuntimeError(f"upper boundary {u_star:.10g} not above l* = {l_star:.10g}")
    diagnostics["fit_condition"] = "continuous" if problem.model.sigma == 0.0 else "smooth"
    return Boundaries(l_star, u_star), diagnostics


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def smooth_fit_residual(result: PricingResult, problem: PricingProblem) -> dict:
    """Continuity and one-sided derivative gaps at both boundaries, read in
    the limit onto each boundary from value_fn and from the route's
    analytic derivative value_deriv_fn."""
    v = result.value_fn
    dv = result.value_deriv_fn
    K = problem.strike
    out = {}
    for name, bpt, side in (("l", result.l_star, -1.0), ("u", result.u_star, +1.0)):
        if bpt <= 0.0:
            out[f"continuity_{name}"] = 0.0
            out[f"derivative_gap_{name}"] = 0.0
            continue
        s_eps = bpt * (1.0 + side * 1e-12)
        out[f"continuity_{name}"] = abs(float(np.atleast_1d(v(s_eps))[0]) - (K - bpt))
        out[f"derivative_gap_{name}"] = abs(float(np.atleast_1d(dv(s_eps))[0]) + 1.0)
    return out


def convexity_margin(result: PricingResult, stride: Optional[int] = None) -> float:
    """Minimum scaled second difference of the value curve.

    Under a concave non-decreasing discount and convex payoff the curve is
    convex, so the margin must not fall below -1e-8 * max|V|.
    """
    s = result.s_grid
    v = result.values
    if stride is None:
        stride = max(1, len(s) // 128)
    ss = s[::stride]
    vv = v[::stride]
    h = np.diff(ss)
    if not np.allclose(h, h[0], rtol=1e-8):
        raise ValueError("convexity margin expects a uniform s-grid")
    d2 = (vv[2:] - 2.0 * vv[1:-1] + vv[:-2]) / (h[0] * h[0])
    return float(np.min(d2))


def hjb_residual(result: PricingResult, problem: PricingProblem) -> dict:
    """Scaled sup-norm of (A - omega)V over continuation samples.

    The samples are every eighth node of the stored curve, s[4:-4:8].  In
    the stopping region it reports the variational-inequality side
    max(A V - omega g, 0) instead.  Derivatives are central differences on
    the stored curve; the jump expectation integrates the curve against the
    exponential jump law above u on the curve's nodes, the payoff K - s in
    closed form on [l, u] and, below l > 0, result.value_fn by quadrature.
    The stencil's relative error grows like (ds/s)^2, so continuation
    samples start at the fixed level 0.2 K (ds/s <= 0.02 on a 512-point
    curve); the residual then falls with the curve's step instead of
    measuring the stencil at its smallest sample.
    """
    model, omega, K = problem.model, problem.omega, problem.strike
    s = result.s_grid
    v = result.values
    l_star, u_star = result.l_star, result.u_star
    ds = s[1] - s[0]
    samples = s[4:-4:8]
    s_floor = 0.2 * K
    mu = model.mu
    sig2 = model.sigma ** 2
    lam, phi = model.lam, model.phi

    def v_at(x):
        return np.interp(x, s, v)

    def excess_integral(w_top):
        """int_0^{w_top} (V(w) - (K - w)) w^{phi-1} dw for w_top <= l."""
        return quad(lambda w: (float(result.value_fn(np.array([w]))[0]) - (K - w))
                    * w ** (phi - 1.0), 0.0, w_top, epsabs=1e-13, epsrel=1e-10,
                    limit=200)[0]

    excess_l = excess_integral(l_star) if l_star > 0.0 and lam > 0.0 else 0.0

    def excess_below_l(si):
        """phi s^{-phi} int_0^{min(s, l)} (V(w) - (K - w)) w^{phi-1} dw."""
        return phi / si ** phi * (excess_l if si >= l_star else excess_integral(si))

    def jump_term(si, vi):
        if lam == 0.0:
            return 0.0
        # E V(s e^{-Y}) = phi s^{-phi} int_0^s V(w) w^{phi-1} dw, with V = K - w on
        # [0, min(s, u)] in closed form and the excess over it below l added
        w_in = min(si, u_star)
        analytic = (w_in / si) ** phi * (K - w_in * phi / (phi + 1.0)) if w_in > 0 else 0.0
        numeric = 0.0
        if si > u_star:
            wgrid = np.concatenate([[u_star], s[(s > u_star) & (s < si)], [si]])
            vals = v_at(wgrid) * wgrid ** (phi - 1.0)
            numeric = phi / si ** phi * np.trapezoid(vals, wgrid)
        return lam * (analytic + numeric + excess_below_l(si) - vi)

    worst_cont = 0.0
    worst_stop = 0.0
    for si in samples:
        if si <= s[1] + ds or si >= s[-2] - ds:
            continue
        vi = float(v_at(si))
        if l_star <= si <= u_star:
            gen = -mu * si + (lam * (si / (phi + 1.0) + excess_below_l(si)) if lam > 0.0 else 0.0)
            resid = gen - float(omega(si)) * (K - si)
            worst_stop = max(worst_stop, resid)
            continue
        if si < s_floor:
            continue
        if abs(si - u_star) < 2 * ds or (l_star > 0 and abs(si - l_star) < 2 * ds):
            continue  # stencil would straddle the kink
        vp = float((v_at(si + ds) - v_at(si - ds)) / (2 * ds))
        vpp = float((v_at(si + ds) - 2 * vi + v_at(si - ds)) / (ds * ds))
        gen = 0.5 * sig2 * si * si * vpp + mu * si * vp
        gen += jump_term(si, vi)
        resid = abs(gen - float(omega(si)) * vi) / (1.0 + abs(vi))
        worst_cont = max(worst_cont, resid)
    return {"continuation_sup": worst_cont, "stopping_violation": worst_stop}


# ---------------------------------------------------------------------------
# Put-call transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualPutSpec:
    """Dual put problem produced by the symmetry transform.

    The dual log-price has drift -zeta, the same sigma, and upward
    exponential jumps (rate jump_rate, decay jump_decay); its discount is
    theta(s') = omega(s K / s') - psi(1).
    """

    drift: float            # linear drift of the dual log-price
    sigma: float
    jump_rate: float
    jump_decay: float
    jumps_up: bool
    spot: float             # dual spot = original strike K
    strike: float           # dual strike = original spot s
    l: float
    u: float
    discount: Callable
    psi1: float


def putcall_transform(problem: PricingProblem, s: float, b: Boundaries) -> DualPutSpec:
    """Map a call under (zeta, sigma, Pi) to a put under the dual model.

    The dual log-price is log(sK) - X observed under the unit-tilted measure:
    its Laplace exponent is psi(1-theta) - psi(1), i.e. linear drift
    -(zeta + sigma^2) (arithmetic drift -mu), the same sigma, and the jump
    measure e^{-x} Pi(-dx), which turns Exp(phi) downward jumps into
    Exp(phi+1) upward jumps with rate lam*phi/(phi+1).  Boundaries map to
    (sK/u, sK/l) and the discount to omega(sK/.) - psi(1).
    """
    if problem.payoff != "call":
        raise ValueError("transform applies to call problems")
    model = problem.model
    K = problem.strike
    psi1 = float(laplace_exponent(model, 1.0))
    omega = problem.omega

    def dual_discount(s_hat):
        return np.asarray(omega(s * K / np.asarray(s_hat, dtype=float))) - psi1

    return DualPutSpec(
        drift=-(model.zeta + model.sigma ** 2),
        sigma=model.sigma,
        jump_rate=model.lam * model.phi / (model.phi + 1.0) if model.has_jumps else 0.0,
        jump_decay=model.phi + 1.0,
        jumps_up=True,
        spot=K,
        strike=s,
        l=s * K / b.u if b.u > 0.0 else math.inf,
        u=s * K / b.l if b.l > 0.0 else math.inf,
        discount=dual_discount,
        psi1=psi1,
    )


# ---------------------------------------------------------------------------
# Boundary optimisation entry point
# ---------------------------------------------------------------------------

def optimize_boundaries(problem: PricingProblem, n_curve: int = 512) -> PricingResult:
    """Locate the optimal stopping interval and assemble the value curve."""
    t0 = time.perf_counter()
    if problem.payoff == "call":
        raise ValueError("price calls through the put-call transform "
                         "(putcall_transform / mc.symmetry_check)")
    model = problem.model
    omega = problem.omega
    K = problem.strike
    diagnostics = {}
    s_grid = np.linspace(2.0 * K / n_curve, 2.0 * K, n_curve)
    if model.has_jumps:
        if model.sigma == 0.0 and model.mu <= 0.0:
            raise ValueError("finite-variation model needs positive drift")
        val = _JumpValuation(problem)
        bounds, diagnostics = _jump_boundaries(problem, val)
        value_fn = lambda s: val.value(bounds, s)
        deriv_fn = lambda s: val.value(bounds, s, slope=True)
    else:
        # where l* > 0 is possible the value below l is read on the curve and
        # down to 1e-4 K
        s_min = None if omega.is_nonnegative else min(1e-4 * K, s_grid[0])
        branches = solve_h_ode(model, omega, s_range=_default_s_range(problem, s_min))
        inner, outer = branches
        # smooth fit V'(b) = -1 with V = (K - b) h/h(b): 1 + (K - b) h'(b)/h(b) = 0
        u_star = _root_scan(lambda u: 1.0 + (K - u) * outer.dlog_ds(u), 0.02 * K, 0.999 * K)
        if u_star is None:
            raise RuntimeError("no smooth-fit boundary found; exercise degenerate")
        l_star = 0.0
        if not omega.is_nonnegative:
            l_star = _root_scan(lambda l: 1.0 + (K - l) * inner.dlog_ds(l),
                                0.005 * K, u_star) or 0.0
        bounds = Boundaries(l_star, u_star)
        value_fn = lambda s: value_bs(problem, bounds, s, branches=branches)

        def deriv_fn(s):
            s = np.atleast_1d(np.asarray(s, dtype=float))
            out = np.full_like(s, -1.0)
            for branch, sel in ((inner, s < bounds.l), (outer, s > bounds.u)):
                if np.any(sel):
                    out[sel] = value_fn(s[sel]) * branch.dlog_ds(s[sel])
            return out

        diagnostics["h_route"] = "rational-2f1" if _rational_closed_form(model, omega) \
            else "generic"
        diagnostics["fit_condition"] = "smooth"
    values = np.asarray(value_fn(s_grid), dtype=float)
    if bounds.u >= 0.999 * K:
        diagnostics["degenerate_u"] = True
    result = PricingResult(boundaries=bounds, s_grid=s_grid, values=values,
                           fit={}, diagnostics=diagnostics, value_fn=value_fn,
                           value_deriv_fn=deriv_fn)
    result.fit = smooth_fit_residual(result, problem)
    result.diagnostics["convexity_margin"] = convexity_margin(result)
    result.diagnostics["runtime_s"] = time.perf_counter() - t0
    return result


def _root_scan(f, lo, hi, n=192, xtol=1e-12):
    """First sign change of f on n nodes of [lo, hi], polished by brentq to
    xtol; None when f keeps its sign.

    f takes the whole node array in one call and scalars in the polish.
    """
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(f(xs), dtype=float)
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if np.isfinite(v0) and np.isfinite(v1) and v0 * v1 < 0.0:
            # brentq holds its function in a reference cycle: pass f, do not capture it
            return brentq(_polish, x0, x1, args=(f,), xtol=xtol)
    return None


def _polish(x, f):
    return float(f(x))
