import numpy as np
import pytest
from scipy.integrate import quad

from omega_pricer import (
    Constant,
    Linear,
    LogArea,
    Rational,
    Step,
    Tabulated,
    check_flat_below_one,
)
from omega_pricer.discount import DiscountFn


def test_eval_constant():
    assert Constant(0.05)(3.0) == 0.05


def test_eval_rational_example():
    assert Rational(C=0.001, D=0.01)(1.0) == pytest.approx(-0.0105, abs=1e-15)


def test_eval_linear_example():
    assert Linear(0.1)(4.56) == pytest.approx(0.456, rel=1e-14)


def test_eval_step_directions():
    below = Step(r=0.05, rho=0.02, y=2.0, direction="below")
    assert below(1.0) == pytest.approx(0.07)
    assert below(3.0) == pytest.approx(0.05)
    above = Step(r=0.05, rho=0.02, y=2.0, direction="above")
    assert above(1.0) == pytest.approx(0.05)
    assert above(3.0) == pytest.approx(0.07)


def test_eval_log_area():
    fn = LogArea(K=2.0)
    assert fn(1.0) == 0.0
    assert fn(2.0 * np.e) == pytest.approx(1.0, rel=1e-14)


def test_tabulated_rejects_outside_hull():
    fn = Tabulated((1.0, 2.0, 4.0), (0.01, 0.02, 0.02))
    assert fn(3.0) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        fn(0.5)
    with pytest.raises(ValueError):
        fn(5.0)


def test_eval_respects_lower_bound():
    fns = [Constant(0.05), Step(0.05, 0.02, 2.0), Linear(0.1),
           Rational(0.001, 0.01), LogArea(2.0)]
    s = np.exp(np.linspace(np.log(1e-4), np.log(1e4), 301))
    for fn in fns:
        assert np.all(np.asarray(fn(s)) >= fn.lower_bound - 1e-15)


def test_flat_below_one_constant():
    assert check_flat_below_one(Constant(0.05)) == 0.05


def test_flat_below_one_step():
    assert check_flat_below_one(Step(0.05, 0.02, y=0.5)) is None
    assert check_flat_below_one(Step(0.05, 0.02, y=1.5)) == pytest.approx(0.07)
    assert check_flat_below_one(Step(0.05, 0.02, y=1.5, direction="above")) \
        == pytest.approx(0.05)


def test_flat_below_one_other_kinds():
    assert check_flat_below_one(Linear(0.1)) is None
    assert check_flat_below_one(Rational(0.001, 0.01)) is None
    assert check_flat_below_one(LogArea(K=2.0)) == 0.0
    assert check_flat_below_one(LogArea(K=0.5)) is None


class _Bump(DiscountFn):
    """omega = 0.05 + 5 on (0.5, 0.52): not flat below one, and narrower than
    the spacing of a 257-point log grid on [1e-8, 1]."""

    kind = "bump"

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = 0.05 + 5.0 * ((s > 0.5) & (s < 0.52))
        return out if s.ndim else float(out)

    @property
    def lower_bound(self):
        return 0.05


def test_flat_below_one_unknown_kind_is_none(crash_model):
    from omega_pricer import LogGrid, build_scale_table

    fn = _Bump()
    assert check_flat_below_one(fn) is None
    assert build_scale_table(crash_model, fn, LogGrid(1.0, 33)).hh is None


def test_nonnegativity_gate():
    assert Constant(0.05).is_nonnegative
    assert Linear(0.1).is_nonnegative
    assert LogArea(1.0).is_nonnegative
    assert not Rational(0.001, 0.01).is_nonnegative
    assert not Step(-0.02, 0.12, 1.0).is_nonnegative



# (rate, interval end points in log price, kinks of omega(e^v) inside them)
ANTIDERIVATIVE_CASES = {
    "constant": (Constant(0.05), (-2.0, 4.5), ()),
    "linear": (Linear(0.1), (-2.0, 4.5), ()),
    "rational": (Rational(0.001, 0.01), (-2.0, 4.5), ()),
    "log_area": (LogArea(20.0), (2.5, 4.5), (np.log(20.0),)),
    "step_below": (Step(0.05, 0.02, 15.0), (1.0, 4.5), (np.log(15.0),)),
    "step_above": (Step(-0.02, 0.12, 1.0, "above"), (-2.0, 3.0), (0.0,)),
    "tabulated": (Tabulated((0.5, 2.0, 10.0, 40.0), (0.01, 0.03, 0.06, 0.07)),
                  (np.log(0.6), np.log(39.0)), tuple(np.log([2.0, 10.0]))),
}


@pytest.mark.parametrize("case", sorted(ANTIDERIVATIVE_CASES))
def test_log_antiderivative_matches_quadrature(case):
    """A(b) - A(a) = int_a^b omega(e^v) dv to 1e-12 relative, in both
    directions, on the whole interval (across every kink) and on pieces that
    end between kinks."""
    fn, (lo, hi), kinks = ANTIDERIVATIVE_CASES[case]
    cut = lo + 0.37 * (hi - lo)
    for a, b in ((lo, hi), (hi, lo), (lo, cut), (cut, hi)):
        left, right = min(a, b), max(a, b)
        inside = [k for k in kinks if left < k < right]
        ref = quad(lambda v: float(fn(np.exp(v))), left, right, points=inside or None,
                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
        if a > b:
            ref = -ref
        got = float(fn.log_antiderivative(b) - fn.log_antiderivative(a))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    # vectorised evaluation agrees with the scalar one
    vs = np.linspace(lo, hi, 7)
    assert np.array_equal(fn.log_antiderivative(vs),
                          [float(fn.log_antiderivative(v)) for v in vs])


def test_tabulated_antiderivative_rejects_outside_hull():
    fn = Tabulated((0.5, 2.0, 10.0), (0.01, 0.03, 0.06))
    for v in (np.log(0.4), np.log(11.0), np.array([0.0, np.log(12.0)])):
        with pytest.raises(ValueError):
            fn.log_antiderivative(v)


@pytest.mark.parametrize("case", sorted(ANTIDERIVATIVE_CASES) + ["tabulated_peaks"])
def test_bounds_match_dense_sample(case):
    """bounds(s_lo, s_hi) bracket omega on each of 200 random windows and meet
    the min and max of a dense sample of it, up to the sample's spacing (the
    peaks case has its extremes at interior knots)."""
    if case == "tabulated_peaks":
        fn = Tabulated((0.5, 2.0, 3.0, 10.0), (0.04, 0.01, 0.08, 0.02))
        lo, hi = np.log(0.5), np.log(10.0)
    else:
        fn, (lo, hi), _ = ANTIDERIVATIVE_CASES[case]
    ends = np.sort(np.random.default_rng(3).uniform(lo, hi, (200, 2)), axis=1)
    got_lo, got_hi = fn.bounds(np.exp(ends[:, 0]), np.exp(ends[:, 1]))
    for (a, b), g_lo, g_hi in zip(ends, got_lo, got_hi):
        w = np.asarray(fn(np.exp(np.linspace(a, b, 20_001))))
        assert g_lo <= w.min() + 1e-15 and g_hi >= w.max() - 1e-15
        assert g_lo == pytest.approx(w.min(), abs=1e-4)
        assert g_hi == pytest.approx(w.max(), abs=1e-4)


def test_tabulated_bounds_clip_to_hull():
    """A window reaching past the knot hull is clipped to it, while omega read
    outside the hull still raises."""
    fn = Tabulated((0.5, 2.0, 10.0), (0.01, 0.03, 0.06))
    got = fn.bounds(np.array([0.3, 5.0, 20.0, 0.1]), np.array([1.0, 20.0, 30.0, 50.0]))
    assert np.allclose(got[0], [0.01, fn(5.0), 0.06, 0.01], rtol=0.0, atol=1e-15)
    assert np.allclose(got[1], [fn(1.0), 0.06, 0.06, 0.06], rtol=0.0, atol=1e-15)
    for s in (0.3, 20.0):
        with pytest.raises(ValueError):
            fn(s)
