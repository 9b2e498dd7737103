"""Order properties of the exponential-jump route.

Hypothesis draws crash models (sigma = 0 or in [0.01, 0.3], jump rate and
size) under linear rates omega = c s, and checks on the value curve that
V >= (K - s)^+, that V does not increase when c rises, and that V is convex,
as it must be under a concave non-decreasing rate and a convex payoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omega_pricer import LevyModel, Linear, PricingProblem, optimize_boundaries

STRIKE = 20.0

_contract = st.fixed_dictionaries({
    "sigma": st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
    "lam": st.floats(0.5, 8.0),
    "phi": st.floats(1.0, 4.0),
    "c": st.floats(0.02, 0.3),
    "bump": st.floats(0.05, 1.0),   # relative rise of c
})


def _price(p, scale):
    model = LevyModel.calibrated(r=0.05, sigma=p["sigma"], lam=p["lam"], phi=p["phi"])
    return optimize_boundaries(PricingProblem(model, Linear(p["c"] * scale), STRIKE),
                               n_curve=64)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_contract)
def test_jump_value_order_properties(p):
    low, high = _price(p, 1.0), _price(p, 1.0 + p["bump"])
    payoff = np.maximum(STRIKE - low.s_grid, 0.0)
    for res in (low, high):
        assert np.all(res.values >= payoff - 1e-9 * STRIKE)
        h = res.s_grid[1] - res.s_grid[0]
        assert np.min(np.diff(res.values, 2)) / h ** 2 >= -1e-8 * np.max(np.abs(res.values))
    assert np.all(high.values <= low.values + 1e-9 * STRIKE)
    assert high.u_star >= low.u_star - 1e-9 * STRIKE
