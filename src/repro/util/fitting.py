"""Least-squares complexity fits for the empirical scaling experiments.

The benchmarks measure simulated clock ticks for swept parameters and check
the *shape* of the paper's bounds: RCA ticks linear in ``D`` (Lemma 4.3),
GTD ticks linear in ``N*D`` (Lemma 4.4), and the ``N log N`` lower bound
curve (Theorem 5.1).  ``linear_fit`` performs an ordinary least-squares line
fit; ``power_fit`` fits ``y = a * x^b`` in log-log space to estimate the
scaling exponent.

Implemented in pure Python so the core library has zero dependencies; the
tests cross-check the fits against an array library's ``polyfit`` when one
is installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import AnalysisError

__all__ = ["FitResult", "linear_fit", "power_fit"]


@dataclass(frozen=True)
class FitResult:
    """Result of a least-squares fit.

    Attributes:
        slope: fitted slope (or exponent ``b`` for :func:`power_fit`).
        intercept: fitted intercept (or prefactor ``a`` for :func:`power_fit`).
        r_squared: coefficient of determination in the fitted space.
    """

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted line at ``x`` (in the fitted space)."""
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Ordinary least squares fit of ``y = slope * x + intercept``.

    Raises :class:`~repro.errors.AnalysisError` for fewer than two points or
    degenerate (constant) ``xs``.
    """
    if len(xs) != len(ys):
        raise AnalysisError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    if n < 2:
        raise AnalysisError("need at least two points to fit a line")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise AnalysisError("cannot fit a line to constant xs")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=slope, intercept=intercept, r_squared=r2)


def power_fit(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a * x^b`` via a line fit in log-log space.

    Returns a :class:`FitResult` whose ``slope`` is the exponent ``b`` and
    whose ``intercept`` is ``a`` (already exponentiated back).  All inputs
    must be strictly positive.
    """
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise AnalysisError("power_fit requires strictly positive data")
    log_fit = linear_fit([math.log(x) for x in xs], [math.log(y) for y in ys])
    return FitResult(
        slope=log_fit.slope,
        intercept=math.exp(log_fit.intercept),
        r_squared=log_fit.r_squared,
    )
