"""Discount functions omega(s).

The pricing formulas read omega in absolute log price, y -> omega(e^y).
They read the rate only, never its slope, so kinked and discontinuous kinds
(log-area, step, tabulated) enter exactly like smooth ones.  Every kind also
has a closed-form antiderivative in log price, A(v) with A'(v) = omega(e^v),
which the Monte Carlo engine uses to integrate the discount exactly along
drift segments, and bounds on price windows, which set its discount clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "DiscountFn",
    "Constant",
    "Step",
    "Linear",
    "Rational",
    "LogArea",
    "Tabulated",
    "check_flat_below_one",
]


class DiscountFn:
    """Base class: a discount rate omega(s) on s > 0, bounded from below."""

    kind = "abstract"

    def __call__(self, s):
        raise NotImplementedError

    def log_antiderivative(self, v):
        """A(v) with A'(v) = omega(e^v), vectorised over the log-price v."""
        raise NotImplementedError

    def bounds(self, s_lo, s_hi):
        """(min, max) of omega on each price window [s_lo, s_hi], vectorised:
        the values at the ends, which bound every kind monotone in s."""
        a = np.asarray(self(s_lo), dtype=float)
        b = np.asarray(self(s_hi), dtype=float)
        return np.minimum(a, b), np.maximum(a, b)

    @property
    def lower_bound(self) -> float:
        raise NotImplementedError

    @property
    def is_nonnegative(self) -> bool:
        """True when omega >= 0 everywhere (lets the pricer fix l* = 0)."""
        return self.lower_bound >= 0.0


@dataclass(frozen=True)
class Constant(DiscountFn):
    r: float
    kind = "constant"

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.full_like(s, self.r) if s.ndim else self.r

    def log_antiderivative(self, v):
        return self.r * np.asarray(v, dtype=float)

    @property
    def lower_bound(self) -> float:
        return self.r


@dataclass(frozen=True)
class Step(DiscountFn):
    """omega(s) = r + rho * 1{s <= y} (direction 'below') or 1{s > y} ('above')."""

    r: float
    rho: float
    y: float
    direction: str = "below"
    kind = "step"

    def __post_init__(self):
        if self.direction not in ("below", "above"):
            raise ValueError("direction must be 'below' or 'above'")
        if self.y <= 0.0:
            raise ValueError("y must be > 0")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        ind = (s <= self.y) if self.direction == "below" else (s > self.y)
        out = self.r + self.rho * ind
        return out if s.ndim else float(out)

    def log_antiderivative(self, v):
        v = np.asarray(v, dtype=float)
        ly = np.log(self.y)
        part = np.minimum(v, ly) if self.direction == "below" else np.maximum(v - ly, 0.0)
        return self.r * v + self.rho * part

    @property
    def lower_bound(self) -> float:
        return min(self.r, self.r + self.rho)


@dataclass(frozen=True)
class Linear(DiscountFn):
    """omega(s) = C*s."""

    C: float
    kind = "linear"

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self.C * s
        return out if s.ndim else float(out)

    def log_antiderivative(self, v):
        return self.C * np.exp(np.asarray(v, dtype=float))

    @property
    def lower_bound(self) -> float:
        return 0.0 if self.C >= 0.0 else -np.inf


@dataclass(frozen=True)
class Rational(DiscountFn):
    """omega(s) = -C/(s+1) - D, the negative-rate example family."""

    C: float
    D: float
    kind = "rational"

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = -self.C / (s + 1.0) - self.D
        return out if s.ndim else float(out)

    def log_antiderivative(self, v):
        # -C (v - log(1 + e^v)) = C log(1 + e^{-v}), which never overflows
        v = np.asarray(v, dtype=float)
        return self.C * np.logaddexp(0.0, -v) - self.D * v

    @property
    def lower_bound(self) -> float:
        return -self.C - self.D


@dataclass(frozen=True)
class LogArea(DiscountFn):
    """omega(s) = (log s - log K)^+, the area-option rate."""

    K: float
    kind = "log_area"

    def __post_init__(self):
        if self.K <= 0.0:
            raise ValueError("K must be > 0")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.maximum(np.log(s) - np.log(self.K), 0.0)
        return out if s.ndim else float(out)

    def log_antiderivative(self, v):
        return 0.5 * np.maximum(np.asarray(v, dtype=float) - np.log(self.K), 0.0) ** 2

    @property
    def lower_bound(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Tabulated(DiscountFn):
    """Piecewise-linear interpolation of (s_k, omega_k) knots.

    knots_s must be positive and strictly increasing; knots_w are arbitrary
    (omega need not be monotone).  Evaluation outside the knot hull is
    rejected; concavity of the knots implies concavity of the interpolant.
    """

    knots_s: tuple
    knots_w: tuple
    kind = "tabulated"
    _xs: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _ws: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        xs = np.asarray(self.knots_s, dtype=float)
        ws = np.asarray(self.knots_w, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.size != ws.size:
            raise ValueError("need matching 1-d knot arrays with >= 2 points")
        if np.any(np.diff(xs) <= 0.0) or xs[0] <= 0.0:
            raise ValueError("knot abscissae must be positive and increasing")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ws", ws)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < self._xs[0]) or np.any(s > self._xs[-1]):
            raise ValueError("evaluation outside the tabulated hull")
        out = np.interp(s, self._xs, self._ws)
        return out if s.ndim else float(out)

    def log_antiderivative(self, v):
        # omega = a_k + b_k e^v on knot piece k, so A = A(v_k) + a_k (v - v_k)
        # + (omega(e^v) - w_k), with A = 0 at the first knot
        v = np.asarray(v, dtype=float)
        s = np.exp(v)
        xs, ws = self._xs, self._ws
        if np.any(s < xs[0]) or np.any(s > xs[-1]):
            raise ValueError("evaluation outside the tabulated hull")
        b = np.diff(ws) / np.diff(xs)
        a = ws[:-1] - b * xs[:-1]
        lx = np.log(xs)
        at_knot = np.concatenate([[0.0], np.cumsum(a * np.diff(lx) + np.diff(ws))])
        k = np.clip(np.searchsorted(xs, s, side="right") - 1, 0, xs.size - 2)
        return at_knot[k] + a[k] * (v - lx[k]) + b[k] * (s - xs[k])

    def bounds(self, s_lo, s_hi):
        # the interpolant's extremes on a window (clipped to the hull) lie at
        # its ends or at knots inside it: the knots clipped to the window
        xs = self._xs
        lo = np.clip(s_lo, xs[0], xs[-1])[..., None]
        hi = np.clip(s_hi, xs[0], xs[-1])[..., None]
        w = np.interp(np.clip(xs, lo, hi), xs, self._ws)
        return w.min(axis=-1), w.max(axis=-1)

    @property
    def lower_bound(self) -> float:
        return float(np.min(self._ws))


def check_flat_below_one(fn: DiscountFn) -> Optional[float]:
    """Constant value of omega on (0, 1], or None if omega varies there.

    Decided by kind alone: an unknown kind gets None, since sampling a rate
    can miss a feature between samples.  The certificate gates the
    upward-passage (H) branches of the pricer and the H table of the scale
    task.
    """
    if fn.kind == "constant":
        return fn.r
    if fn.kind == "step":
        if fn.y >= 1.0:
            return fn.r + fn.rho if fn.direction == "below" else fn.r
        return None
    if fn.kind == "log_area":
        return 0.0 if fn.K >= 1.0 else None
    if fn.kind == "tabulated":
        xs = fn._xs
        if xs[0] > 1.0 or xs[-1] < 1.0:
            return None
        below = xs[xs <= 1.0]
        vals = fn(below) if below.size else np.array([])
        v1 = fn(1.0)
        if below.size and np.max(np.abs(vals - v1)) > 1e-12 * max(1.0, abs(v1)):
            return None
        # hull does not reach 0+, so flatness below the first knot is unverifiable
        return float(v1) if xs[0] <= 1e-6 else None
    return None
