import math

import numpy as np
import pytest
from scipy.stats import norm

from omega_pricer import Constant, LevyModel, Linear, LogArea, Step, Tabulated
from omega_pricer.levy import laplace_exponent
from omega_pricer.pricer import Boundaries, PricingProblem, optimize_boundaries, value_jump
from omega_pricer.mc import (
    _engine,
    bermudan_dp,
    bermudan_value_at,
    default_t_max,
    stopped_value,
    symmetry_check,
)


def test_exponential_moment(crash_model_sigma):
    """E[S_t] = s0 e^{psi(1) t} within 3 standard errors."""
    rng = np.random.default_rng(5)
    n, t = 100_000, 1.0
    z = rng.standard_normal(n)
    nj = rng.poisson(crash_model_sigma.lam * t, n)
    jumps = np.zeros(n)
    total = int(nj.sum())
    sizes = rng.exponential(1.0 / crash_model_sigma.phi, total)
    np.add.at(jumps, np.repeat(np.arange(n), nj), sizes)
    x = crash_model_sigma.zeta * t + crash_model_sigma.sigma * math.sqrt(t) * z - jumps
    s = np.exp(x)
    target = math.exp(laplace_exponent(crash_model_sigma, 1.0) * t)
    se = s.std(ddof=1) / math.sqrt(n)
    assert abs(s.mean() - target) < 3.0 * se


def test_stopped_value_immediate(bs_model):
    est = stopped_value(bs_model, Constant(0.05), 20.0, Boundaries(0.0, 14.0),
                        10.0, 1000, t_max=10.0, seed=0)
    assert est.mean == 20.0 - 10.0
    assert est.stderr == 0.0


def test_stopped_value_bs_classical(bs_model):
    gamma = 2.5
    u = 20.0 * gamma / (1 + gamma)
    est = stopped_value(bs_model, Constant(0.05), 20.0, Boundaries(0.0, u),
                        15.0, 60_000, t_max=120.0, seed=3)
    ref = (20.0 - u) * (15.0 / u) ** (-gamma)
    assert abs(est.mean - ref) < 3.0 * est.stderr
    assert abs(est.mean - ref) / ref < 0.01
    assert not est.unreliable


def test_default_t_max_rule():
    assert default_t_max(Constant(0.05), 20.0) == pytest.approx(
        math.log(20.0 / 1e-4) / 0.05)
    with pytest.raises(ValueError):
        default_t_max(Linear(0.1), 20.0)  # infimum is zero


def test_stopped_value_crash_vs_analytic(crash_model):
    pb = PricingProblem(crash_model, Linear(0.1), 20.0)
    res = optimize_boundaries(pb, n_curve=64)
    s0 = 15.0
    analytic = float(res.value_fn(np.array([s0]))[0])
    est = stopped_value(crash_model, Linear(0.1), 20.0, res.boundaries, s0,
                        50_000, t_max=60.0, seed=4)
    assert abs(est.mean - analytic) < 3.0 * est.stderr
    assert abs(est.mean - analytic) / analytic < 0.01


def test_stopped_value_sigma_pos_step_vs_analytic(crash_model_sigma):
    # a discontinuous rate with sigma > 0, priced by the same core as smooth ones
    fn = Step(0.05, 0.10, y=12.0)
    res = optimize_boundaries(PricingProblem(crash_model_sigma, fn, 20.0), n_curve=64)
    s0 = 15.0
    analytic = float(res.value_fn(np.array([s0]))[0])
    est = stopped_value(crash_model_sigma, fn, 20.0, res.boundaries, s0,
                        50_000, t_max=60.0, seed=4)
    assert abs(est.mean - analytic) < 3.0 * est.stderr
    assert abs(est.mean - analytic) / analytic < 0.01


@pytest.mark.parametrize("model, fn, s0", [
    ("crash_model_sigma", Linear(0.1), 30.0),
    ("crash_model_sigma", Step(0.05, 0.02, 15.0), 15.0),
    ("crash_model_sigma", Step(0.05, 0.10, 12.0), 15.0),
    ("bs_model", Linear(0.01), 20.0),
    ("bs_model", LogArea(20.0), 20.0),
], ids=["crash-linear", "crash-step-0.02", "crash-step-0.10", "bs-linear", "bs-log-area"])
def test_clocked_vs_analytic(model, fn, s0, request):
    """sigma > 0 under a non-constant rate runs the discount clock: at its own
    optimal interval each contract reads the analytic value within 3 SE."""
    model = request.getfixturevalue(model)
    res = optimize_boundaries(PricingProblem(model, fn, 20.0), n_curve=64)
    analytic = float(res.value_fn(np.array([s0]))[0])
    est = stopped_value(model, fn, 20.0, res.boundaries, s0, 100_000, t_max=100.0,
                        seed=21)
    assert not est.unreliable
    assert abs(est.mean - analytic) < 3.0 * est.stderr


def test_clock_runs_on_flat_windows(crash_model_sigma):
    """Where omega is flat on a step's window the clock still runs at c_min:
    a path that leaves the window during its step meets the rate step at
    s = 12, where omega jumps by 1.0.  With no clock on flat windows this
    reads about 5 SE low."""
    fn = Step(0.05, 1.0, 12.0)
    b = Boundaries(0.0, 3.0)
    analytic = value_jump(PricingProblem(crash_model_sigma, fn, 20.0), b, 15.0)
    est = stopped_value(crash_model_sigma, fn, 20.0, b, 15.0, 300_000, t_max=100.0,
                        seed=40)
    assert abs(est.mean - analytic) < 3.0 * est.stderr


@pytest.mark.parametrize("s0", [1.5, 4.5])
def test_stopped_value_two_sided_vs_analytic(s0):
    """The two-sided value at an interior interval: s = 1.5 lies below l and
    reads H above the rate step at s = 1; s = 4.5 lies above u, where the
    overshoot average folds in the integral of H below l (15.99 against 17.0
    for l = 0)."""
    model = LevyModel.calibrated(r=0.30, sigma=0.0, lam=0.5, phi=3.0)
    fn = Step(-0.02, 0.12, 1.0, "above")
    b = Boundaries(3.0, 4.0)
    analytic = value_jump(PricingProblem(model, fn, 20.0), b, s0)
    est = stopped_value(model, fn, 20.0, b, s0, 100_000, t_max=100.0, seed=5)
    assert not est.unreliable
    assert abs(est.mean - analytic) < 4.0 * est.stderr


@pytest.mark.parametrize("s0", [0.6, 20.0])
def test_stopped_value_two_sided_sigma_pos_vs_analytic(s0):
    """The sigma = 0.2 two-sided value at its own optimal interval
    (l* = 1.0059, u* = 16.454): s = 0.6 lies below l, where the flat rate
    -0.02 holds, and s = 20 above u, where creeping and jumps both reach the
    interval.  At s = 20 the standard error is 0.7% of the value, so the
    check is the 3 SE gap with the error itself held below 1%."""
    model = LevyModel.calibrated(r=0.30, sigma=0.2, lam=0.5, phi=3.0)
    fn = Step(-0.02, 0.12, 1.0, "above")
    res = optimize_boundaries(PricingProblem(model, fn, 20.0), n_curve=64)
    analytic = float(res.value_fn(np.array([s0]))[0])
    est = stopped_value(model, fn, 20.0, res.boundaries, s0, 50_000, t_max=100.0,
                        seed=5)
    assert not est.unreliable
    assert abs(est.mean - analytic) < 3.0 * est.stderr
    assert est.stderr < 0.01 * analytic


# (mean, stderr, censored_fraction, truncation_mass) to 1e-12 and path_steps
# exactly: a change to the engine's cost must leave these bits alone, a change
# to the estimator moves them (the sigma = 0 cases were re-pinned when their
# paths began to step from event to event with the discount integrated
# exactly, bs_constant when constant-rate sigma > 0 paths began to step from
# event to event with Brownian-bridge crossings; the symmetry call side's
# truncation mass when its payoff cap became the edge the path meets, l - K = 8
# from below, not u - K = 35; jump_step when non-constant sigma > 0 rates moved
# from a step grid to the discount clock).  The last four sigma = 0 cases run
# the step's other paths: no drift, a drift down onto u, paths censored at a
# short horizon next to paths that stop, and entry at l by drift from below.
PINNED = {
    "crash_linear": (6.246430095417811, 0.06542097263250458, 0.0, 0.0, 23734),
    "bs_constant": (5.02815214912052, 0.026977328366925304, 0.1028,
                    0.005096314475226033, 5000),
    "jump_step": (11.164650954590819, 0.04195065896986197, 0.0, 0.0, 32620),
    "symmetry": ((5.685784456261715, 0.04914128556415137, 0.271, 1.6060939024379646,
                  54998),
                 (5.639960244079621, 0.0075323999049838435, 0.0088,
                  0.1674163787121255, 14502)),
    "zero_drift": (3.7391985203266986, 0.05216587833880002, 0.0, 0.0, 7248),
    "drift_down_to_u": (9.90647310696159, 0.04119131795036245, 0.0, 0.0, 5781),
    "mixed_censoring": (6.0398800297429105, 0.07108568525025469, 0.3394,
                        2.2376526624953916, 10078),
    "drift_entry_at_l": (13.498955827984622, 0.019508314239302715, 0.0, 0.0, 11930),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_engine_pinned_estimates(case, crash_model, crash_model_sigma, bs_model):
    b12 = Boundaries(0.0, 12.0)
    runs = {
        "crash_linear": lambda: stopped_value(crash_model, Linear(0.1), 20.0, b12,
                                              15.0, 5000, t_max=60.0, seed=31),
        "bs_constant": lambda: stopped_value(bs_model, Constant(0.05), 20.0,
                                             Boundaries(0.0, 14.0), 15.0, 5000,
                                             t_max=120.0, seed=32),
        "jump_step": lambda: stopped_value(crash_model_sigma, Step(0.05, 0.10, 12.0),
                                           20.0, Boundaries(0.0, 12.5), 15.0, 5000,
                                           t_max=60.0, seed=33),
        # sigma = 0 call stopped on [28, 55]; the dual put has upward jumps
        "symmetry": lambda: symmetry_check(
            PricingProblem(crash_model, Constant(0.06), 20.0, "call"), 20.0,
            Boundaries(28.0, 55.0), 5000, 5.0, seed=34),
        "zero_drift": lambda: stopped_value(LevyModel(mu=0.0, lam=1.0, phi=2.0),
                                            Linear(0.1), 20.0, b12, 15.0, 5000,
                                            t_max=30.0, seed=41),
        "drift_down_to_u": lambda: stopped_value(LevyModel(mu=-0.2, lam=1.0, phi=2.0),
                                                 Constant(0.05), 20.0, b12, 15.0,
                                                 5000, t_max=60.0, seed=42),
        "mixed_censoring": lambda: stopped_value(crash_model, Linear(0.1), 20.0, b12,
                                                 15.0, 5000, t_max=0.5, seed=43),
        "drift_entry_at_l": lambda: stopped_value(
            LevyModel.calibrated(r=0.3, sigma=0.0, lam=0.5, phi=3.0),
            Step(-0.02, 0.12, 1.0, "above"), 20.0, Boundaries(3.0, 4.0), 1.5, 5000,
            t_max=100.0, seed=44),
    }
    ests = runs[case]()
    ests, pinned = (ests, PINNED[case]) if case == "symmetry" else ((ests,), (PINNED[case],))
    assert len(ests) == len(pinned)
    for est, want in zip(ests, pinned):
        got = (est.mean, est.stderr, est.censored_fraction, est.truncation_mass)
        assert got == pytest.approx(want[:4], rel=1e-12, abs=0.0)
        assert est.path_steps == want[4]


def test_path_steps_count(bs_model):
    # a constant rate takes one step per path to t_max = 1; a clocked rate
    # takes six steps capped at (0.25 / (3 sigma))^2 = 0.174, plus the clock
    # events (rate c_min = 0.05 here) that end a step early and add a step in
    # about three cases of four; no path reaches u = 1 from 15
    est = stopped_value(bs_model, Constant(0.05), 20.0, Boundaries(0.0, 1.0),
                        15.0, 1000, t_max=1.0, seed=8)
    assert est.censored_fraction == 1.0
    assert est.path_steps == 1000
    est = stopped_value(bs_model, Linear(0.001), 20.0, Boundaries(0.0, 1.0),
                        15.0, 1000, t_max=1.0, seed=8)
    assert est.censored_fraction == 1.0
    assert est.path_steps == 6 * 1000 + 28
    now = stopped_value(bs_model, Constant(0.05), 20.0, Boundaries(0.0, 16.0),
                        15.0, 1000, t_max=1.0, seed=8)
    assert now.path_steps == 0


def _assert_ignores_dt(cases):
    for model, fn, b, s0 in cases:
        kw = dict(n_paths=5000, t_max=60.0, seed=31)
        fine = stopped_value(model, fn, 20.0, b, s0, dt=1e-3, **kw)
        coarse = stopped_value(model, fn, 20.0, b, s0, dt=1e-2, **kw)
        assert fine == coarse == stopped_value(model, fn, 20.0, b, s0, **kw)
        assert fine.mean > 0.0


def test_sigma0_estimate_ignores_dt(crash_model):
    """sigma = 0 paths step from event to event with the discount integrated
    in closed form, so dt has no effect, one-sided or two-sided."""
    two_sided = LevyModel.calibrated(r=0.30, sigma=0.0, lam=0.5, phi=3.0)
    _assert_ignores_dt(((crash_model, Linear(0.1), Boundaries(0.0, 12.0), 15.0),
                        (two_sided, Step(-0.02, 0.12, 1.0, "above"),
                         Boundaries(3.0, 4.0), 1.5)))


def test_flat_rate_estimate_ignores_dt(bs_model, crash_model_sigma):
    """sigma > 0 paths under a constant rate step from event to event with
    bridge crossings, so dt has no effect: diffusion only, with jumps, and
    two-sided from below l."""
    two_sided = LevyModel.calibrated(r=0.30, sigma=0.2, lam=0.5, phi=3.0)
    _assert_ignores_dt(((bs_model, Constant(0.05), Boundaries(0.0, 14.0), 15.0),
                        (crash_model_sigma, Constant(0.05), Boundaries(0.0, 12.0), 15.0),
                        (two_sided, Constant(0.05), Boundaries(3.0, 4.0), 1.5)))


def test_clocked_estimate_ignores_dt(crash_model_sigma):
    """sigma > 0 paths under a varying rate step between clock events, so
    dt has no effect there either."""
    _assert_ignores_dt(((crash_model_sigma, Linear(0.1), Boundaries(0.0, 12.0), 15.0),))


def test_stopped_value_crash_sigma_constant_vs_analytic(crash_model_sigma):
    """The sigma = 0.2 crash put under a constant rate, stopped at its
    analytic u* = 1.3575: paths enter by jumps and by bridge crossings, and
    the estimate at s = 15 must read the analytic value 16.61333."""
    res = optimize_boundaries(PricingProblem(crash_model_sigma, Constant(0.05), 20.0),
                              n_curve=64)
    analytic = float(res.value_fn(np.array([15.0]))[0])
    assert analytic == pytest.approx(16.61333, abs=1e-5)
    est = stopped_value(crash_model_sigma, Constant(0.05), 20.0, res.boundaries,
                        15.0, 50_000, seed=11)
    assert not est.unreliable
    assert abs(est.mean - analytic) < 3.0 * est.stderr


def test_sigma0_steps_per_path(crash_model):
    # one step per jump plus the last one: about 4.5 per path, where a 1e-3
    # base step with stretching took about 190
    n = 20_000
    est = stopped_value(crash_model, Linear(0.1), 20.0, Boundaries(0.0, 12.0888925),
                        15.0, n, t_max=60.0, seed=12)
    assert est.path_steps < 10 * n


def test_sigma0_no_drift_closed_form():
    """Drift-free pure-jump model: the discount is omega dt per step.  From
    s0 > u the put stops after N = 1 + Poisson(phi a) jumps, a = log(s0/u),
    and lands at u e^{-Exp(phi)}, so V = q e^{-phi a (1 - q)} (K - u phi/(phi+1))
    with q = lam / (lam + r)."""
    model = LevyModel(mu=0.0, sigma=0.0, lam=2.0, phi=3.0)
    r, K, u, s0 = 0.05, 20.0, 12.0, 15.0
    q = model.lam / (model.lam + r)
    a = math.log(s0 / u)
    ref = q * math.exp(-model.phi * a * (1.0 - q)) * (K - u * model.phi / (model.phi + 1.0))
    est = stopped_value(model, Constant(r), K, Boundaries(0.0, u), s0, 50_000,
                        t_max=60.0, seed=13)
    assert abs(est.mean - ref) < 3.0 * est.stderr
    assert est.censored_fraction == 0.0


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_engine_plain_omega_function(sigma):
    """The engine reads the rate only through the callables it is given: a
    plain function in place of the DiscountFn (as a counting wrapper passes
    it) gives the same estimate bit for bit."""
    model = LevyModel.calibrated(r=0.05, sigma=sigma, lam=6.0, phi=2.0)
    fn = Linear(0.1)
    ref = stopped_value(model, fn, 20.0, Boundaries(0.0, 12.0), 15.0, 2000,
                        t_max=60.0, seed=7)
    got = _engine(model.zeta, model.sigma, model.lam, model.phi, False,
                  lambda s: fn(s), fn.log_antiderivative, fn.bounds,
                  lambda s: np.maximum(20.0 - s, 0.0), 0.0, 12.0, 15.0, 2000,
                  60.0, 7, payoff_cap=20.0)
    assert got == ref


def test_truncation_mass_reported(bs_model):
    # absurdly short horizon censors everything; the estimate must say so
    est = stopped_value(bs_model, Constant(0.05), 20.0, Boundaries(0.0, 10.0),
                        19.0, 2000, t_max=0.05, seed=6)
    assert est.censored_fraction > 0.99
    assert est.unreliable


def test_sigma0_tabulated_rate_read_on_live_paths_only(crash_model):
    """A sigma = 0 path reads the rate's antiderivative where it drifts and
    where a jump leaves it live: paths landing below the hull of a Tabulated
    rate stop there without a read, while paths drifting past its top raise."""
    knots = np.geomspace(5.0, 1e6, 7)
    fn = Tabulated(knots, 0.02 + 0.01 * np.log1p(knots))
    est = stopped_value(crash_model, fn, 20.0, Boundaries(0.0, 12.0), 15.0, 3000,
                        t_max=3.0, seed=9)
    assert est.censored_fraction < 1.0 and est.mean > 0.0
    low = np.geomspace(1e-3, 16.0, 7)
    with pytest.raises(ValueError, match="outside the tabulated hull"):
        stopped_value(crash_model, Tabulated(low, 0.02 + 0.01 * np.log1p(low)), 20.0,
                      Boundaries(0.0, 12.0), 15.0, 3000, t_max=3.0, seed=9)


# ---------------------------------------------------------------------------
# Bermudan dynamic programming
# ---------------------------------------------------------------------------

def test_bermudan_single_date_is_european(bs_model):
    K, r, sig, T = 20.0, 0.05, 0.2, 1.0
    res = bermudan_dp(bs_model, Constant(r), K, T, 1)
    spots = np.array([20.0, 22.0, 26.0])  # where early exercise does not bind
    d1 = (np.log(spots / K) + (r + sig * sig / 2) * T) / (sig * math.sqrt(T))
    d2 = d1 - sig * math.sqrt(T)
    euro = K * math.exp(-r * T) * norm.cdf(-d2) - spots * norm.cdf(-d1)
    got = bermudan_value_at(res, spots)
    assert np.max(np.abs(got / euro - 1.0)) < 1e-3
    assert res["kernel_mass_error"] < 1e-8


def test_bermudan_curve_convex(bs_model):
    res = bermudan_dp(bs_model, Constant(0.05), 20.0, 5.0, 16)
    s = res["s_grid"]
    v = res["values"]
    keep = (s > 1.0) & (s < 60.0)
    ss, vv = s[keep], v[keep]
    # convexity in the price variable: chord slopes must be non-decreasing
    slopes = np.diff(vv) / np.diff(ss)
    assert np.min(np.diff(slopes)) > -1e-6


def test_bermudan_with_jumps_mass_accounting(crash_model_sigma):
    res = bermudan_dp(crash_model_sigma, Constant(0.05), 20.0, 0.5, 8,
                      n_grid=1025)
    assert res["kernel_mass_error"] < 1e-8
    assert res["kernel_residual_mass"] < 1e-3  # lam*delta is small here
    v15 = float(bermudan_value_at(res, [15.0])[0])
    assert 5.0 <= v15 < 20.0


def test_bermudan_increases_with_horizon_and_mesh(bs_model):
    spots = np.array([15.0, 16.0, 18.0, 20.0, 24.0])
    prev = None
    for xi, horizon in ((3, 2.5), (4, 5.0), (5, 10.0)):
        res = bermudan_dp(bs_model, Constant(0.05), 20.0, horizon, 2 ** xi,
                          n_grid=1537)
        vals = bermudan_value_at(res, spots)
        if prev is not None:
            assert np.all(vals >= prev - 1e-3)
        prev = vals


# bermudan_value_at at s = 10, 14, 15, 18, 25 to 1e-12: a change to the
# rollback's cost must leave these bits alone
BERMUDAN_PINNED = {
    "bs_constant_16": [9.99995630754777, 5.9999603458369, 4.999936640381112,
                       2.792532944802675, 0.8214807761102341],
    "jump_linear_8": [9.999936533002534, 5.999674756280549, 4.999557007890881,
                      1.9997032886747017, 0.4103989023483871],
}


@pytest.mark.parametrize("case", sorted(BERMUDAN_PINNED))
def test_bermudan_pinned_values(case, bs_model, crash_model_sigma):
    if case == "bs_constant_16":
        res = bermudan_dp(bs_model, Constant(0.05), 20.0, 5.0, 16)
    else:
        res = bermudan_dp(crash_model_sigma, Linear(0.1), 20.0, 5.0, 8)
    got = bermudan_value_at(res, [10.0, 14.0, 15.0, 18.0, 25.0])
    assert list(got) == pytest.approx(BERMUDAN_PINNED[case], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Put-call symmetry
# ---------------------------------------------------------------------------

def _bs_call_from_below(mu, sigma, omega, K, s, l):
    """(l - K) (s/l)^theta, theta the positive root of
    sigma^2 theta^2 / 2 + zeta theta - omega = 0: the Black-Scholes call
    entered from below, which stops at l."""
    zeta = mu - 0.5 * sigma * sigma
    theta = (-zeta + math.sqrt(zeta * zeta + 2.0 * sigma * sigma * omega)) / (sigma * sigma)
    return (l - K) * (s / l) ** theta


def test_symmetry_bs_two_sides_agree(bs_model):
    """The Black-Scholes call entered from below stops at l = 26, so its value
    is the closed form of _bs_call_from_below (4.17086 here); both sides
    must read it and agree.  Stopping at a step end's price past l, not at
    l, reads high."""
    omega, K, s, l = 0.08, 20.0, 20.0, 26.0
    ref = _bs_call_from_below(0.05, 0.2, omega, K, s, l)
    assert ref == pytest.approx(4.17086, abs=1e-5)
    pb = PricingProblem(bs_model, Constant(omega), K, "call")
    lhs, rhs = symmetry_check(pb, s, Boundaries(l, 50.0), 30_000,
                              default_t_max(pb.omega, K), seed=9)
    comb = math.hypot(lhs.stderr, rhs.stderr)
    assert abs(lhs.mean - rhs.mean) < 3.0 * comb
    for est in (lhs, rhs):
        assert abs(est.mean - ref) < 3.0 * est.stderr
        assert not est.unreliable


def test_symmetry_one_sided_call_region(bs_model):
    """A call region [l, inf) entered from below: the call payoff is capped
    at l - K, the edge every path meets, so a censored path leaves a finite
    truncation mass and both sides read the closed form of
    _bs_call_from_below (4.17086) as reliable estimates."""
    omega, K, s, l = 0.08, 20.0, 20.0, 26.0
    ref = _bs_call_from_below(0.05, 0.2, omega, K, s, l)
    pb = PricingProblem(bs_model, Constant(omega), K, "call")
    ests = symmetry_check(pb, s, Boundaries(l, math.inf), 5000,
                          default_t_max(pb.omega, K), seed=3)
    for est in ests:
        assert math.isfinite(est.truncation_mass)
        assert not est.unreliable
        assert abs(est.mean - ref) < 3.0 * est.stderr


def test_symmetry_jump_two_sides_agree(crash_model_sigma):
    pb = PricingProblem(crash_model_sigma, Constant(0.06), 20.0, "call")
    lhs, rhs = symmetry_check(pb, 20.0, Boundaries(28.0, 55.0), 30_000,
                              default_t_max(pb.omega, 20.0), seed=9)
    comb = math.hypot(lhs.stderr, rhs.stderr)
    assert abs(lhs.mean - rhs.mean) < 3.0 * comb
    assert not lhs.unreliable and not rhs.unreliable


@pytest.mark.parametrize("model, fn", [
    ("crash_model", Step(0.06, 0.03, 10.0)),
    ("crash_model_sigma", Step(0.06, 0.03, 10.0)),
    ("bs_model", Step(0.08, 0.04, 24.0)),
], ids=["crash-sigma0", "crash-sigma0.2", "bs"])
def test_symmetry_step_rate_two_sides_agree(model, fn, request):
    # a rate step that paths of both sides cross: at sigma = 0 the dual side
    # integrates the transformed rate through its own antiderivative, at
    # sigma > 0 it runs the clock on the transformed bounds
    pb = PricingProblem(request.getfixturevalue(model), fn, 20.0, "call")
    lhs, rhs = symmetry_check(pb, 20.0, Boundaries(28.0, 55.0), 30_000, 60.0, seed=9)
    comb = math.hypot(lhs.stderr, rhs.stderr)
    assert abs(lhs.mean - rhs.mean) < 3.0 * comb
    assert not lhs.unreliable and not rhs.unreliable


def test_symmetry_degenerate_point_interval(bs_model):
    # l = u = K: the touch payoff (S-K)^+ at S = K is worthless
    pb = PricingProblem(bs_model, Constant(0.08), 20.0, "call")
    lhs, rhs = symmetry_check(pb, 18.0, Boundaries(20.0, 20.0), 2000, 5.0, seed=9)
    assert abs(lhs.mean) < 1e-9
    assert abs(rhs.mean) < 1e-9


def test_symmetry_rejects_put(bs_model):
    pb = PricingProblem(bs_model, Constant(0.08), 20.0, "put")
    with pytest.raises(ValueError):
        symmetry_check(pb, 20.0, Boundaries(26.0, 50.0), 100, 1.0)
