"""Independent verification engine: first-entry Monte Carlo and Bermudan rollback.

Paths are advanced exactly in law: exponential inter-arrival jump times,
exact Exp(phi) jump sizes, Gaussian increments between events.

For sigma = 0 nothing is discretised.  A path moves along its drift between
jumps, so it steps straight to its next event: a jump, the exact time the
drift reaches the barrier it runs towards, or the horizon.  The discount
grows by (A(x_new) - A(x)) / zeta along each step, with A the closed-form
antiderivative of omega in log price (DiscountFn.log_antiderivative), or by
omega dt when zeta = 0; dt is not read.

For sigma > 0 and a constant rate nothing is discretised either.  Between
jumps the log price is a Brownian motion with drift, so a path takes one
Gaussian step to its next event (a jump or the horizon) and tests the one
barrier it can reach first: u from above, l from below.  It stops if the
step ends past that barrier, or else with the Brownian-bridge crossing
probability exp(-2 a c / dt_i), where a and c are the distances of the
step's start and end from the barrier in units of sigma.  A stopped path's
crossing time is s dt_i / (dt_i + s) with s ~ Wald(a dt_i / c, a^2) (the
time change of the bridge's first passage; by reflection the same law
whether the end lies past the barrier or not); it stops at the barrier's
price and its discount grows by the rate times that time.  dt is not read.

For sigma > 0 and any other rate two things are discretised.  The running
discount integral int omega(S) dw is a trapezoid on the step grid.  Barrier
crossing is detected by endpoint tests, whose bias is quantified through
step-refinement rather than corrected by bridge sampling.  Steps stretch
adaptively far from the barrier and shrink back to the base step dt nearby,
which leaves the detection bias at the base-step scale while keeping long
horizons affordable.

The vectorised engine keeps the live paths in compact arrays in path order
and filters them only on a step where some path stops or reaches the
horizon.  It carries a level at each path's current point (A where a
sigma = 0 path drifts, omega where a sigma > 0 path steps on a grid), so a
step evaluates it once, at its new end, and again only where a jump moved
the path.  Each estimate reports the number of path-steps it took.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import erf as _erf

from .discount import DiscountFn
from .levy import LevyModel
from .pricer import Boundaries, PricingProblem, putcall_transform

__all__ = [
    "McEstimate",
    "stopped_value",
    "bermudan_dp",
    "bermudan_value_at",
    "symmetry_check",
    "default_t_max",
]


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    truncation_mass: float      # bound on the censored-value contribution
    censored_fraction: float
    path_steps: int             # path-steps the engine advanced

    @property
    def unreliable(self) -> bool:
        return self.truncation_mass > 0.01 * max(abs(self.mean), 1e-12)


def default_t_max(omega: DiscountFn, strike: float) -> float:
    """Horizon making the censored payoff bound e^{-inf(omega) t} K < 1e-4."""
    lb = omega.lower_bound
    if lb <= 0.0:
        raise ValueError("omega not bounded away from zero below; pass t_max explicitly")
    return math.log(strike / 1e-4) / lb


# ---------------------------------------------------------------------------
# Vectorised stopped-value engine
# ---------------------------------------------------------------------------

def _engine(zeta: float, sigma: float, lam: float, phi: float, jumps_up: bool,
            omega_fn: Callable, omega_int: Callable, payoff_fn: Callable,
            l: float, u: float, s0: float, n_paths: int, dt: float, t_max: float,
            seed: int, payoff_cap: float,
            flat_rate: Optional[float] = None) -> McEstimate:
    """Vectorised first-entry estimator of E[e^{-int omega} payoff(S_tau)].

    payoff_cap bounds the payoff at every stopping point a path can reach;
    a stopped payoff is clipped to it, and the truncation mass is the
    censored paths' mean discount factor times it.  omega_fn is the rate at
    prices, omega_int its antiderivative in log price (omega_int'(v) =
    omega_fn(e^v)) and flat_rate the rate's value when it is constant,
    else None.  sigma = 0 with a drift reads omega_int; sigma > 0
    with a flat_rate reads neither callable; dt is read only by sigma > 0
    without a flat_rate.

    rng_j draws the jump times and sizes.  rng_n draws, on each sigma > 0
    step, one standard normal per live path; with a flat_rate it then draws
    one uniform per path whose step ends short of its barrier and one Wald
    variate per path that stops on the step, each in path order.
    """
    has_l = l > 0.0
    log_l = math.log(l) if has_l else -math.inf
    log_u = math.log(u)
    x0 = math.log(s0)
    if log_l <= x0 <= log_u:
        return McEstimate(float(payoff_fn(s0)), 0.0, n_paths, 0.0, 0.0, 0)
    rng_n = np.random.Generator(np.random.Philox(key=seed))
    rng_j = np.random.Generator(np.random.Philox(key=seed ^ 0x9E3779B97F4A7C15))
    # live set in path order: log-price, time, discount integral, next jump
    # time, the level at the current point (below), path index
    x = np.full(n_paths, x0)
    t = np.zeros(n_paths)
    d = np.zeros(n_paths)
    t_jump = rng_j.exponential(1.0 / lam, n_paths) if lam > 0.0 else None
    payoffs = np.zeros(n_paths)
    disc_at_stop = np.zeros(n_paths)
    censored = np.zeros(n_paths, dtype=bool)
    path = np.arange(n_paths)
    jump_dir = +1.0 if jumps_up else -1.0
    # the level carried per path: omega at the current point, or its
    # antiderivative where the discount integrates in closed form along a drift
    level = lambda v: np.asarray(omega_fn(np.exp(v)), dtype=float)
    target = math.inf  # sigma = 0: the barrier the drift runs towards
    bridge = sigma > 0.0 and flat_rate is not None
    if bridge:
        level = None  # the discount grows by flat_rate times the time
    elif sigma > 0.0:
        rate_scale = abs(zeta) + sigma + (lam / phi if lam > 0.0 else 0.0)
        m_disc = max(1.0, 0.02 / (dt * max(rate_scale, 1e-6)))
        m_cap = max(1.0, 0.1 / dt)
        m_max = min(m_disc, m_cap)
        safety = 8.0
    elif zeta != 0.0:
        target = log_u if zeta < 0.0 else log_l
        level = lambda v: np.asarray(omega_int(v), dtype=float)
    path_steps = 0

    with np.errstate(over="ignore"):
        w = None if bridge else level(x)
        while x.size:
            path_steps += x.size
            if sigma == 0.0:
                # one step per event: a jump, the drift's exact arrival at the
                # target barrier, or t_max; the discount integral is exact:
                # (A(x_new) - A(x)) / zeta, or omega dt without a drift
                dt_i = t_max - t
                hit = np.zeros(x.size, dtype=bool)
                if math.isfinite(target):
                    gap = (target - x) / zeta
                    hit = (gap > 0.0) & (gap <= dt_i)
                    dt_i[hit] = gap[hit]
                at_horizon = ~hit
                if lam > 0.0:
                    jumping = np.flatnonzero(t_jump <= t + dt_i)
                    dt_i[jumping] = t_jump[jumping] - t[jumping]
                    at_horizon[jumping] = False
                    hit[jumping] = False
                x_new = zeta * dt_i
                x_new += x
                x_new[hit] = target
                w_new = level(x_new)
                if zeta != 0.0:
                    d_new = w_new - w
                    d_new /= zeta
                else:
                    d_new = w * dt_i
                d_new += d
                t_new = t + dt_i
                stopping = (x_new >= log_l) & (x_new <= log_u)
            elif bridge:
                # one Gaussian step to the next event, a jump or t_max, tested
                # against the barrier the path reaches first: u from above, l
                # from below; a and c are the distances of the step's start
                # and end from it, c <= 0 where the end lies past it
                dt_i = t_max - t
                at_horizon = np.ones(x.size, dtype=bool)
                if lam > 0.0:
                    jumping = np.flatnonzero(t_jump <= t + dt_i)
                    dt_i[jumping] = t_jump[jumping] - t[jumping]
                    at_horizon[jumping] = False
                x_new = rng_n.standard_normal(x.size)
                x_new *= np.sqrt(dt_i)
                x_new *= sigma
                x_new += x
                x_new += zeta * dt_i
                above = x > log_u
                below = ~above
                a = x - log_u
                np.subtract(log_l, x, out=a, where=below)
                c = x_new - log_u
                np.subtract(log_l, x_new, out=c, where=below)
                stopping = c <= 0.0
                # short of the barrier: crossed with the bridge's probability;
                # the draws work on subsets, and a and c are freed before the
                # Wald draw, which keeps the step's peak memory low
                short = ~stopping
                p = a[short]
                p *= c[short]
                p *= -2.0 / (sigma * sigma)
                p /= dt_i[short]
                np.exp(p, out=p)
                stopping[short] = rng_n.random(p.size) < p
                # crossing time s dt_i / (dt_i + s), s ~ Wald(a dt_i / c, a^2 / sigma^2);
                # fmin maps the c = 0 limit (nan) to the step's end
                a_h, c_h, dt_h = a[stopping], c[stopping], dt_i[stopping]
                del a, c, p, short
                mean = a_h * dt_h
                mean /= np.abs(c_h, out=c_h)
                a_h /= sigma
                s_h = rng_n.wald(mean, np.square(a_h, out=a_h))
                np.add(dt_h, s_h, out=mean)
                s_h *= dt_h
                s_h /= mean
                dt_i[stopping] = np.fmin(s_h, dt_h, out=s_h)
                passed_dn = stopping & above
                passed_up = stopping & below
                d_new = dt_i * flat_rate
                d_new += d
                t_new = t + dt_i
                w_new = None
            else:
                # step stretching, provably clear of the barrier for diffusive
                # moves: dt * clip((dist / (safety sigma))^2 / dt, 1, m_max);
                # the in-place updates here and below keep the operation order
                # of the written formulas, so the estimates round the same
                m = np.abs(x - log_u)
                if has_l:
                    np.minimum(m, np.abs(x - log_l), out=m)
                m /= safety * sigma
                np.square(m, out=m)
                m /= dt
                dt_i = np.clip(m, 1.0, m_max, out=m)
                dt_i *= dt
                np.minimum(dt_i, t_max - t, out=dt_i)
                if lam > 0.0:
                    jumping = np.flatnonzero(t_jump <= t + dt_i)
                    dt_i[jumping] = t_jump[jumping] - t[jumping]
                # diffusion to the segment end (pre-jump position when
                # jumping): x + zeta dt + sigma sqrt(dt) z
                x_new = zeta * dt_i
                x_new += x
                dx = np.sqrt(dt_i)
                dx *= sigma
                dx *= rng_n.standard_normal(x.size)
                x_new += dx
                # trapezoid d + 0.5 (w + w_new) dt, omega carried from the step start
                w_new = level(x_new)
                d_new = w + w_new
                d_new *= 0.5
                d_new *= dt_i
                d_new += d
                t_new = t + dt_i
                at_horizon = t_new >= t_max - 1e-15
                # endpoint checks at the pre-jump position
                if has_l:
                    passed_dn = (x > log_u) & (x_new < log_l)
                    passed_up = (x < log_l) & (x_new > log_u)
                    stopping = (x_new >= log_l) & (x_new <= log_u)
                    stopping |= passed_dn
                    stopping |= passed_up
                else:
                    stopping = x_new <= log_u
            if lam > 0.0 and jumping.size:
                jj = jumping[~stopping[jumping]]
                if jj.size:
                    x_new[jj] += jump_dir * rng_j.exponential(1.0 / phi, jj.size)
                    landed = (x_new[jj] >= log_l) & (x_new[jj] <= log_u)
                    stopping[jj[landed]] = True
                    moved = jj[~landed]
                    if w_new is not None:
                        w_new[moved] = level(x_new[moved])
                t_jump[jumping] = t_new[jumping] \
                    + rng_j.exponential(1.0 / lam, jumping.size)
            ending = at_horizon | stopping
            if not ending.any():
                x, t, d, w = x_new, t_new, d_new, w_new
                continue
            disc_at_stop[path[ending]] = d_new[ending]
            censored[path[ending & ~stopping]] = True
            # stopping price: the entry point, or the barrier a step passed
            sp = np.exp(x_new[stopping])
            if bridge or (has_l and sigma > 0.0):
                sp = np.where(passed_dn[stopping], u,
                              np.where(passed_up[stopping], l, sp))
            payoffs[path[stopping]] = np.minimum(payoff_fn(sp), payoff_cap)
            live = ~ending
            x, t, d = x_new[live], t_new[live], d_new[live]
            w = w_new[live] if w_new is not None else None
            path = path[live]
            if lam > 0.0:
                t_jump = t_jump[live]
    with np.errstate(over="ignore", under="ignore"):
        dfac = np.exp(-np.clip(disc_at_stop, -700.0, 700.0))
    vals = np.where(censored, 0.0, dfac * payoffs)
    cmass = float(np.mean(np.where(censored, dfac, 0.0))) * payoff_cap
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
    return McEstimate(mean, stderr, n_paths, cmass, float(np.mean(censored)),
                      path_steps)


def stopped_value(model: LevyModel, omega: DiscountFn, strike: float,
                  b: Boundaries, s0: float, n_paths: int, dt: float,
                  t_max: Optional[float] = None, seed: int = 0) -> McEstimate:
    """MC estimate of the put value stopped on first entry into [l, u].

    dt is the base step of a sigma > 0 model with a non-constant rate.  It
    is unused at sigma = 0 and for a constant rate, where every path steps
    from event to event exactly.
    """
    if t_max is None:
        t_max = default_t_max(omega, strike)
    payoff = lambda s: np.maximum(strike - s, 0.0)
    flat_rate = omega.r if omega.kind == "constant" else None
    return _engine(model.zeta, model.sigma, model.lam, model.phi, False,
                   omega, omega.log_antiderivative, payoff, b.l, b.u, s0,
                   n_paths, dt, t_max, seed, payoff_cap=strike,
                   flat_rate=flat_rate)


# ---------------------------------------------------------------------------
# Bermudan dynamic programming
# ---------------------------------------------------------------------------

_MAX_JUMPS = 3  # jump events per Bermudan step; the rest is reported as residual mass


def _increment_bin_masses(model: LevyModel, delta: float, dx: float) -> tuple:
    """Bin masses of the one-step log-increment on an offset grid.

    Gaussian part exact via the error function; jump components convolve the
    Gaussian with Erlang(k, phi) by Gauss-Legendre quadrature, truncated at
    _MAX_JUMPS events with the residual mass reported.
    """
    m_mean = model.zeta * delta
    sd = model.sigma * math.sqrt(delta)
    lam, phi = model.lam, model.phi
    # jump span sized so the truncated Erlang tail is ~1e-11
    jump_span = (_MAX_JUMPS + 28.0) / phi if lam > 0.0 else 0.0
    span = abs(m_mean) + 8.0 * sd + jump_span
    half = int(math.ceil(span / dx)) + 1
    offs = np.arange(-half, half + 1) * dx
    edges = np.concatenate([offs - 0.5 * dx, [offs[-1] + 0.5 * dx]])

    def gauss_cdf(v):
        if sd == 0.0:
            return (v >= m_mean).astype(float)
        return 0.5 * (1.0 + _erf((v - m_mean) / (sd * math.sqrt(2.0))))

    if lam == 0.0:
        masses = np.diff(gauss_cdf(edges))
        return offs, masses, 0.0, float(abs(1.0 - masses.sum()))
    p_k = [math.exp(-lam * delta) * (lam * delta) ** k / math.factorial(k)
           for k in range(_MAX_JUMPS + 1)]
    masses = p_k[0] * np.diff(gauss_cdf(edges))
    nodes, weights = np.polynomial.legendre.leggauss(128)
    y_hi = (_MAX_JUMPS + 28.0) / phi
    yq = 0.5 * y_hi * (nodes + 1.0)
    wq = 0.5 * y_hi * weights
    for k in range(1, _MAX_JUMPS + 1):
        dens = phi ** k * yq ** (k - 1) * np.exp(-phi * yq) / math.factorial(k - 1)
        cdf_at = gauss_cdf(edges[None, :] + yq[:, None])  # increment = G - y
        masses = masses + p_k[k] * (wq * dens) @ np.diff(cdf_at, axis=1)
    residual = 1.0 - sum(p_k)  # truncated jump-count mass, reported
    quad_err = abs(float(masses.sum()) - sum(p_k))
    return offs, masses, float(residual), float(quad_err)


def bermudan_dp(model: LevyModel, omega: DiscountFn, strike: float,
                t_horizon: float, n_dates: int, n_grid: int = 2049) -> dict:
    """Backward recursion for the Bermudan put on an n_dates mesh.

    The log grid spans [log(0.005 K), log(4 K)] widened on each side by
    |zeta| t_horizon + 6 sigma sqrt(t_horizon).  One-step expectations are
    quadratures against the exact increment law; discounting within a step
    splits omega trapezoidally between the two step endpoints.  Returns the
    date-zero curve on the log grid together with kernel mass diagnostics.
    """
    K = strike
    delta = t_horizon / n_dates
    x_lo = math.log(0.005 * K) - abs(model.zeta) * t_horizon \
        - 6.0 * model.sigma * math.sqrt(t_horizon)
    x_hi = math.log(4.0 * K) + abs(model.zeta) * t_horizon \
        + 6.0 * model.sigma * math.sqrt(t_horizon)
    xs = np.linspace(x_lo, x_hi, n_grid)
    dx = xs[1] - xs[0]
    offs, masses, residual, mass_err = _increment_bin_masses(model, delta, dx)
    if mass_err > 1e-8:
        raise RuntimeError(f"increment quadrature lost mass: {mass_err:.2e}")
    s = np.exp(xs)
    payoff = np.maximum(K - s, 0.0)
    disc_half = np.exp(-0.5 * delta * np.asarray(omega(s), dtype=float))
    v = payoff.copy()
    half_off = len(offs) // 2
    pad_lo_x = x_lo + np.arange(-half_off, 0) * dx
    pad_lo = np.maximum(K - np.exp(pad_lo_x), 0.0) \
        * np.exp(-0.5 * delta * np.asarray(omega(np.exp(pad_lo_x)), dtype=float))
    pad_hi = np.zeros(half_off)
    kernel = masses[::-1]
    for _ in range(n_dates):
        integ = np.convolve(np.concatenate([pad_lo, v * disc_half, pad_hi]),
                            kernel, mode="valid")
        v = np.maximum(payoff, disc_half * integ)
    return {"x_grid": xs, "s_grid": s, "values": v, "delta": delta,
            "kernel_residual_mass": residual, "kernel_mass_error": float(mass_err)}


def bermudan_value_at(result: dict, spots) -> np.ndarray:
    return np.interp(np.log(np.asarray(spots, dtype=float)),
                     result["x_grid"], result["values"])


# ---------------------------------------------------------------------------
# Put-call symmetry check
# ---------------------------------------------------------------------------

def symmetry_check(problem: PricingProblem, s: float, b: Boundaries,
                   n_paths: int, dt: float, t_max: float,
                   seed: int = 0) -> tuple:
    """MC estimates of both sides of the put-call symmetry identity.

    Left: the call under the original spectrally negative model, stopped on
    [l, u].  Right: the dual put (upward jumps) with transformed discount,
    spot, strike and boundaries.  Returns (call_estimate, dual_put_estimate).

    The call payoff is capped at the edge of [l, u] the path meets:
    max(l - K, 0) from s < l, since the price passes upward levels only by
    diffusion and so enters at l, and max(u - K, 0) from s > u, where every
    entry lies at or below u.  The cap is finite for a one-sided region
    [l, inf), so its truncation mass is too.  The dual put is capped at its
    strike.
    """
    if problem.payoff != "call":
        raise ValueError("symmetry check starts from a call problem")
    model = problem.model
    K = problem.strike
    payoff_call = lambda sv: np.maximum(sv - K, 0.0)
    cap = max((b.l if s < b.l else b.u) - K, 0.0)
    omega_int = problem.omega.log_antiderivative
    flat_rate = problem.omega.r if problem.omega.kind == "constant" else None
    lhs = _engine(model.zeta, model.sigma, model.lam, model.phi, False,
                  problem.omega, omega_int, payoff_call, b.l, b.u, s, n_paths,
                  dt, t_max, seed, payoff_cap=cap, flat_rate=flat_rate)
    spec = putcall_transform(problem, s, b)
    payoff_put = lambda sv: np.maximum(spec.strike - sv, 0.0)
    u_eff = spec.u if math.isfinite(spec.u) else 1e12
    # the dual rate omega(sK e^{-v}) - psi(1) integrates to -A(log(sK) - v) - psi(1) v
    log_sk = math.log(s * K)
    dual_int = lambda v: -omega_int(log_sk - v) - spec.psi1 * v
    rhs = _engine(spec.drift, spec.sigma, spec.jump_rate, spec.jump_decay,
                  spec.jumps_up, spec.discount, dual_int, payoff_put, spec.l,
                  u_eff, spec.spot, n_paths, dt, t_max, seed + 1,
                  payoff_cap=spec.strike,
                  flat_rate=None if flat_rate is None else flat_rate - spec.psi1)
    return lhs, rhs
