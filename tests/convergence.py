"""Observed order of accuracy on a refinement ladder, checked against a band.

On a ladder of step sizes h_0 > h_1 > ... with errors e_i ~ C h_i^p, each
neighbouring pair gives the observed order log(e_i / e_(i+1)) / log(h_i / h_(i+1)).
Where no exact solution is at hand, the differences of successive solutions
stand in for the errors: they fall at the same order p.
"""

from __future__ import annotations

import math

import numpy as np


def observed_orders(steps, errors) -> list[float]:
    """The observed order of each neighbouring pair of (step, error) on the ladder."""
    return [math.log(e0 / e1) / math.log(h0 / h1)
            for h0, h1, e0, e1 in zip(steps, steps[1:], errors, errors[1:])]


def successive_differences(solutions) -> list[float]:
    """Sup-norm differences of neighbouring solutions on the ladder, one fewer than them."""
    return [float(np.max(np.abs(a - b))) for a, b in zip(solutions, solutions[1:])]


def assert_order_in_band(steps, errors, low: float, high: float) -> None:
    """Check that every observed order on the ladder lies in [low, high]."""
    orders = observed_orders(steps, errors)
    assert all(low <= p <= high for p in orders), f"observed orders {orders} not in [{low}, {high}]"
