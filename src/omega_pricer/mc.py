"""Independent verification engine: first-entry Monte Carlo and Bermudan rollback.

Paths are advanced exactly in law: exponential inter-arrival jump times,
exact Exp(phi) jump sizes, Gaussian increments between events.  Nothing is
discretised.

For sigma = 0 a path moves along its drift between jumps, so it steps
straight to its next event: a jump, the exact time the drift reaches the
barrier it runs towards, or the horizon.  The discount grows by
(A(x_new) - A(x)) / zeta along each step, with A the closed-form
antiderivative of omega in log price (DiscountFn.log_antiderivative), or by
omega dt when zeta = 0.

For sigma > 0 the log price is a Brownian motion with drift between jumps,
so a path takes one Gaussian step to its next event and tests the one
barrier it can reach first: u from above, l from below.  It stops if the
step ends past that barrier, or else with the Brownian-bridge crossing
probability exp(-2 a c / dt_i), a and c the distances of the step's start
and end from the barrier in units of sigma; it then stops at the barrier's
price at time s dt_i / (dt_i + s), s ~ Wald(a dt_i / c, a^2) (the time
change of the bridge's first passage; by reflection the same law whether
the end lies past the barrier or not).  Under a constant rate the events
are jumps and the horizon, and the discount grows by the rate times the
time.  Any other rate adds a discount clock, the Poisson estimator of
Beskos, Papaspiliopoulos, Roberts & Fearnhead (2006):
e^{-int omega} = e^{-int lo} E[prod_j (1 - (omega(S_j) - lo) / c)] over the
events S_j of a Poisson clock of rate c.  A step reads lo and hi, the
bounds of omega on the log-price window x +- _DELTA, grows the discount by
lo times the time, is capped at (_DELTA / 3 sigma)^2 and ends early at a
clock event of rate c = max(hi - lo, _C_MIN), where the path's weight takes
the factor 1 - (omega(S) - lo) / c.

The vectorised engine keeps the live paths in compact arrays in path order.
A sigma = 0 step moves them to their ends in place, in a few whole-array
passes.  The jumps that end a step update the whole arrays when every live
path jumps and none stopped before its jump, the common case of a pure-jump
model, and gather only the jumping paths otherwise.  On a step where some
path stops or reaches the horizon, compaction finds the ending paths with
one np.flatnonzero and gathers the live ones with take.  A sigma = 0 path
carries a level at its current point (A where it drifts, omega without a
drift), so a step evaluates it once at its new end, and again only on the
paths a jump moved that stay live.  Both jump updates make the same draws
in the same order with the same arithmetic, so an estimate does not depend
on which one runs.  Each estimate reports the number of path-steps it took.
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

# The discount clock of a sigma > 0 path under a non-constant rate.  A step
# bounds omega on the log-price window x +- _DELTA and is capped at
# (_DELTA / 3 sigma)^2, so its Gaussian move leaves the window with
# probability under 0.3%.  The clock rate is at least _C_MIN per unit time:
# any c > 0 keeps the estimator unbiased, but hi - lo = 0 on a flat window
# runs no clock, so a path leaving it mid-step is discounted at lo past its
# edge.  Weights below _W_MIN go through Russian roulette: a climbing path
# meets clock rates that grow with omega, and without it its steps shorten.
_DELTA = 0.25
_C_MIN = 0.05
_W_MIN = 1e-3


def _shorten_to_jumps(t_jump, t, dt_i):
    """Shorten dt_i in place to the next jump wherever it comes first.

    Returns the mask of those paths and their count: when every path jumps,
    dt_i is overwritten with one subtraction and no index is gathered.
    """
    jumps_first = t_jump <= t + dt_i
    n_jump = int(np.count_nonzero(jumps_first))
    if n_jump == dt_i.size:
        np.subtract(t_jump, t, out=dt_i)
    elif n_jump:
        jumping = np.flatnonzero(jumps_first)
        dt_i[jumping] = t_jump[jumping] - t[jumping]
    return jumps_first, n_jump


def _engine(zeta: float, sigma: float, lam: float, phi: float, jumps_up: bool,
            omega_fn: Callable, omega_int: Callable, omega_bounds: Callable,
            payoff_fn: Callable, l: float, u: float, s0: float, n_paths: int,
            t_max: float, seed: int, payoff_cap: float,
            flat_rate: Optional[float] = None) -> McEstimate:
    """Vectorised first-entry estimator of E[e^{-int omega} payoff(S_tau)].

    payoff_cap bounds the payoff at every stopping point a path can reach;
    a stopped payoff is clipped to it, and the truncation mass is the
    censored paths' mean discount factor, clock weight included, times it.
    omega_fn is the rate at prices, omega_int its antiderivative in log price
    (omega_int'(v) = omega_fn(e^v)), omega_bounds(s_lo, s_hi) its (min, max)
    on price windows and flat_rate its value when it is constant, else None.
    sigma = 0 reads omega_int with a drift and omega_fn without one; sigma > 0
    reads omega_bounds at each step and omega_fn at clock events, or none of
    the callables with a flat_rate.

    rng_j draws the jump times and sizes.  rng_n draws, on each sigma > 0
    step, one standard normal per live path, then one uniform per path whose
    step ends short of its barrier and one Wald variate per path that stops
    on the step, each in path order.  rng_c draws, on each clocked step, c
    times the clock time per live path, then one uniform per roulette path.
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
    # time, the sigma = 0 level (below) or the clock weight, path index
    x = np.full(n_paths, x0)
    t = np.zeros(n_paths)
    d = np.zeros(n_paths)
    t_jump = rng_j.exponential(1.0 / lam, n_paths) if lam > 0.0 else None
    payoffs = np.zeros(n_paths)
    disc_at_stop = np.zeros(n_paths)
    censored = np.zeros(n_paths, dtype=bool)
    path = np.arange(n_paths)
    jump_dir = +1.0 if jumps_up else -1.0
    clocked = sigma > 0.0 and flat_rate is None
    if clocked:
        rng_c = np.random.Generator(np.random.Philox(key=seed ^ 0xBB67AE8584CAA73B))
        step_cap = (_DELTA / (3.0 * sigma)) ** 2
        wt = np.ones(n_paths)
        wt_at_stop = np.ones(n_paths)
    # sigma = 0: the barrier the drift runs towards, and the level carried per
    # path, the rate's antiderivative along a drift, else the rate itself
    target = math.inf
    level = lambda v: np.asarray(omega_fn(np.exp(v)), dtype=float)
    if sigma == 0.0 and zeta != 0.0:
        target = log_u if zeta < 0.0 else log_l
        level = lambda v: np.asarray(omega_int(v), dtype=float)
    path_steps = 0

    with np.errstate(over="ignore"):
        w = level(x) if sigma == 0.0 else None
        while x.size:
            n = x.size
            path_steps += n
            if sigma == 0.0:
                # one step per event: a jump, the drift's exact arrival at the
                # target barrier, or t_max; the discount integral is exact:
                # (A(x_new) - A(x)) / zeta, or omega dt without a drift.  The
                # live arrays move to the step's end in place.
                dt_i = t_max - t
                hit = None
                if math.isfinite(target):
                    gap = target - x
                    gap /= zeta
                    hit = (gap > 0.0) & (gap <= dt_i)
                    np.copyto(dt_i, gap, where=hit)
                    del gap
                at_horizon = np.ones(n, dtype=bool) if hit is None else ~hit
                if lam > 0.0:
                    jumps_first, n_jump = _shorten_to_jumps(t_jump, t, dt_i)
                    if n_jump:
                        at_horizon &= ~jumps_first
                        if hit is not None:
                            hit &= ~jumps_first
                t += dt_i
                if zeta == 0.0:
                    d += w * dt_i
                dt_i *= zeta
                x += dt_i
                if hit is not None:
                    np.copyto(x, target, where=hit)
                w_new = level(x)
                if zeta != 0.0:
                    # (A(x_new) - A(x)) / zeta, in dt_i's buffer
                    np.subtract(w_new, w, out=dt_i)
                    dt_i /= zeta
                    d += dt_i
                w = w_new
                del dt_i
                stopping = (x >= log_l) & (x <= log_u)
            else:
                # one Gaussian step to the next event, a jump or t_max, and on
                # clocked paths the cap or a clock event, tested against the
                # barrier the path reaches first: u from above, l from below;
                # a and c are the distances of the step's start and end from
                # it, c <= 0 where the end lies past it
                dt_i = t_max - t
                at_horizon = np.ones(n, dtype=bool)
                if clocked:
                    lo, hi = omega_bounds(np.exp(x - _DELTA), np.exp(x + _DELTA))
                    rate = np.maximum(hi - lo, _C_MIN)
                    t_clock = rng_c.standard_exponential(n) / rate
                    capped = dt_i > step_cap
                    dt_i[capped] = step_cap
                    clocking = t_clock < dt_i
                    dt_i[clocking] = t_clock[clocking]
                    at_horizon &= ~(capped | clocking)
                if lam > 0.0:
                    jumps_first, n_jump = _shorten_to_jumps(t_jump, t, dt_i)
                    if n_jump:
                        at_horizon &= ~jumps_first
                        if clocked:
                            clocking &= ~jumps_first
                x_new = rng_n.standard_normal(n)
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
                # freed before compaction, whose stopping-price pass would
                # otherwise set the estimate's peak memory
                del a_h, c_h, dt_h, mean, s_h
                passed_dn = stopping & above
                passed_up = stopping & below
                d += dt_i * (lo if clocked else flat_rate)
                t += dt_i
                x = x_new
                del dt_i
                if clocked:
                    # a clock event on a live path: its weight takes the factor
                    # 1 - (omega(S) - lo) / c; roulette keeps a weight below
                    # _W_MIN with probability |weight| / _W_MIN, raised to
                    # _W_MIN in size, and stops the others with weight 0
                    ev = np.flatnonzero(clocking & ~stopping)
                    w_ev = wt[ev] * (1.0 - (omega_fn(np.exp(x[ev])) - lo[ev]) / rate[ev])
                    small = np.flatnonzero(np.abs(w_ev) < _W_MIN)
                    kept = rng_c.random(small.size) * _W_MIN < np.abs(w_ev[small])
                    w_ev[small] = np.where(kept, np.copysign(_W_MIN, w_ev[small]), 0.0)
                    wt[ev] = w_ev
                    stopping[ev[small[~kept]]] = True
            # the jumps at the step's end: on the whole live arrays when every
            # path jumps and none stopped before (a sigma = 0 path's level is
            # then read after compaction, on the paths that stay live), else
            # on the jumping paths alone
            relevel = False
            if lam > 0.0 and n_jump:
                if n_jump == n and not stopping.any():
                    size = rng_j.exponential(1.0 / phi, n)
                    size *= jump_dir
                    x += size
                    np.logical_and(x >= log_l, x <= log_u, out=stopping)
                    relevel = w is not None
                    np.add(t, rng_j.exponential(1.0 / lam, n), out=t_jump)
                else:
                    jumping = np.flatnonzero(jumps_first)
                    jj = jumping[~stopping[jumping]]
                    if jj.size:
                        x_jj = x[jj] + jump_dir * rng_j.exponential(1.0 / phi, jj.size)
                        x[jj] = x_jj
                        landed = (x_jj >= log_l) & (x_jj <= log_u)
                        stopping[jj[landed]] = True
                        if w is not None:
                            w[jj[~landed]] = level(x_jj[~landed])
                    t_jump[jumping] = t[jumping] \
                        + rng_j.exponential(1.0 / lam, jumping.size)
            # compaction by index: one pass finds the paths that end, one the
            # paths that stay, and each live array is gathered once
            ending = np.logical_or(at_horizon, stopping, out=at_horizon)
            end = np.flatnonzero(ending)
            if end.size:
                p_end = path[end]
                disc_at_stop[p_end] = d[end]
                if clocked:
                    wt_at_stop[p_end] = wt[end]
                st = stopping[end]
                censored[p_end[~st]] = True
                # stopping price: the entry point, or the barrier a step passed
                idx = end[st]
                sp = x.take(idx)
                np.exp(sp, out=sp)
                if sigma > 0.0:
                    np.copyto(sp, u, where=passed_dn[idx])
                    np.copyto(sp, l, where=passed_up[idx])
                payoffs[p_end[st]] = np.minimum(payoff_fn(sp), payoff_cap)
                del p_end, idx, sp
                keep = np.flatnonzero(~ending)
                x = x.take(keep)
                t = t.take(keep)
                d = d.take(keep)
                path = path.take(keep)
                if w is not None and not relevel:
                    w = w.take(keep)
                if clocked:
                    wt = wt.take(keep)
                if lam > 0.0:
                    t_jump = t_jump.take(keep)
            if relevel:
                w = level(x)
    with np.errstate(over="ignore", under="ignore"):
        dfac = np.exp(-np.clip(disc_at_stop, -700.0, 700.0))
    if clocked:
        dfac *= wt_at_stop
    vals = np.where(censored, 0.0, dfac * payoffs)
    cmass = float(np.mean(np.where(censored, dfac, 0.0))) * payoff_cap
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
    return McEstimate(mean, stderr, n_paths, cmass, float(np.mean(censored)),
                      path_steps)


def stopped_value(model: LevyModel, omega: DiscountFn, strike: float,
                  b: Boundaries, s0: float, n_paths: int, dt: Optional[float] = None,
                  t_max: Optional[float] = None, seed: int = 0) -> McEstimate:
    """MC estimate of the put value stopped on first entry into [l, u].

    Every path steps from event to event exactly, so no step size enters;
    dt is not read, and its slot stays for callers that pass t_max after it
    by position.
    """
    if t_max is None:
        t_max = default_t_max(omega, strike)
    payoff = lambda s: np.maximum(strike - s, 0.0)
    flat_rate = omega.r if omega.kind == "constant" else None
    return _engine(model.zeta, model.sigma, model.lam, model.phi, False,
                   omega, omega.log_antiderivative, omega.bounds, payoff, b.l, b.u,
                   s0, n_paths, t_max, seed, payoff_cap=strike, flat_rate=flat_rate)


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
    # one padded buffer: payoff below the grid, zeros above, and each date's
    # discounted values written into its middle
    padded = np.concatenate([pad_lo, np.zeros(n_grid + half_off)])
    mid = padded[half_off:half_off + n_grid]
    kernel = masses[::-1]
    for _ in range(n_dates):
        np.multiply(v, disc_half, out=mid)
        integ = np.convolve(padded, kernel, mode="valid")
        integ *= disc_half
        np.maximum(payoff, integ, out=v)
    return {"x_grid": xs, "s_grid": s, "values": v, "delta": delta,
            "kernel_residual_mass": residual, "kernel_mass_error": float(mass_err)}


def bermudan_value_at(result: dict, spots) -> np.ndarray:
    return np.interp(np.log(np.asarray(spots, dtype=float)),
                     result["x_grid"], result["values"])


# ---------------------------------------------------------------------------
# Put-call symmetry check
# ---------------------------------------------------------------------------

def symmetry_check(problem: PricingProblem, s: float, b: Boundaries,
                   n_paths: int, t_max: float, seed: int = 0) -> tuple:
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
    omega = problem.omega
    flat_rate = omega.r if omega.kind == "constant" else None
    lhs = _engine(model.zeta, model.sigma, model.lam, model.phi, False,
                  omega, omega.log_antiderivative, omega.bounds, payoff_call,
                  b.l, b.u, s, n_paths, t_max, seed, payoff_cap=cap,
                  flat_rate=flat_rate)
    spec = putcall_transform(problem, s, b)
    payoff_put = lambda sv: np.maximum(spec.strike - sv, 0.0)
    u_eff = spec.u if math.isfinite(spec.u) else 1e12
    # the dual rate omega(sK e^{-v}) - psi(1) integrates to -A(log(sK) - v) - psi(1) v,
    # and s -> sK/s maps a window [a, b] onto [sK/b, sK/a]
    sk = s * K
    dual_int = lambda v: -omega.log_antiderivative(math.log(sk) - v) - spec.psi1 * v
    dual_bounds = lambda a, b: tuple(v - spec.psi1 for v in omega.bounds(sk / b, sk / a))
    rhs = _engine(spec.drift, spec.sigma, spec.jump_rate, spec.jump_decay,
                  spec.jumps_up, spec.discount, dual_int, dual_bounds, payoff_put,
                  spec.l, u_eff, spec.spot, n_paths, t_max, seed + 1,
                  payoff_cap=spec.strike,
                  flat_rate=None if flat_rate is None else flat_rate - spec.psi1)
    return lhs, rhs
