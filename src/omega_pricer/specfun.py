"""Gauss 2F1 evaluator for the rational-discount Black-Scholes branches.

Power series where it converges fast and a Pfaff transformation for large
negative arguments.
"""

from __future__ import annotations

__all__ = [
    "gauss_2f1",
    "gauss_2f1_deriv",
]

_MAX_TERMS = 10_000
_SERIES_EPS = 1e-17


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and abs(x - round(x)) < 1e-13


def _series_2f1(a: float, b: float, c: float, x: float) -> float:
    """Plain hypergeometric series; caller guarantees convergence."""
    term = 1.0
    total = 1.0
    comp = 0.0  # Kahan compensation
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < _SERIES_EPS * abs(total):
            return total
    raise RuntimeError(f"2F1 series did not converge for x = {x}")


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) for real parameters and x < 1.

    Direct series for moderate |x|; for x < -0.5 the Pfaff transformation
    2F1(a,b;c;x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)) restores convergence.
    """
    if _is_nonpositive_integer(c):
        raise ValueError(f"2F1 parameter pole: c = {c}")
    if x >= 1.0:
        raise ValueError("argument must be < 1")
    if x == 0.0:
        return 1.0
    if x < -0.5:
        # Pfaff with the smaller of a, b in the prefactor exponent for stability
        if b < a:
            a, b = b, a
        return (1.0 - x) ** (-a) * _series_2f1(a, c - b, c, x / (x - 1.0))
    return _series_2f1(a, b, c, x)


def gauss_2f1_deriv(a: float, b: float, c: float, x: float) -> float:
    """d/dx 2F1(a,b;c;x) = (a b / c) 2F1(a+1, b+1; c+1; x)."""
    return a * b / c * gauss_2f1(a + 1.0, b + 1.0, c + 1.0, x)
