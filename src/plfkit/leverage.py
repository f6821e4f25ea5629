"""Recursive collateral / debt spirals and their exposure limits.

Starting from alpha of fresh capital at collateralization delta > 1, each
round redeposits the borrowable amount: after k rounds total collateral is
the partial geometric sum alpha * (1 + 1/delta + ... + 1/delta^k). Terms
are produced by iterated division, carrying the running term, so the
truncation error stays within one mantissa unit per round instead of
compounding through a powered denominator.
"""

from __future__ import annotations

from typing import NamedTuple

from .fixedpoint import ONE, ZERO, Dec


def _check_args(alpha: Dec, delta: Dec, rounds: int, premium: Dec | None = None) -> None:
    if alpha < ZERO:
        raise ValueError("alpha must be non-negative")
    if delta <= ONE:
        raise ValueError("delta must be strictly greater than 1")
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    if premium is not None and premium < ZERO:
        raise ValueError("premium must be non-negative")


def total_collateral(alpha: Dec, delta: Dec, rounds: int) -> Dec:
    """Collateral after ``rounds`` redeposits: sum of alpha / delta^i, i=0..k."""
    _check_args(alpha, delta, rounds)
    term = alpha
    total = alpha
    for _ in range(rounds):
        term = term / delta
        total = total + term
    return total


def total_debt(alpha: Dec, delta: Dec, rounds: int, premium: Dec) -> Dec:
    """Debt after ``rounds`` borrows, grossed up by the rate premium.

    The undiscounted sum runs i=1..k over the same iterated terms as
    total_collateral, so collateral minus zero-premium debt is exactly
    alpha.
    """
    _check_args(alpha, delta, rounds, premium)
    term = alpha
    total = ZERO
    for _ in range(rounds):
        term = term / delta
        total = total + term
    return total * (ONE + premium)


def max_exposure(alpha: Dec, delta: Dec) -> Dec:
    """Limit of total collateral as rounds grow: alpha * delta / (delta - 1)."""
    _check_args(alpha, delta, 0)
    return (alpha * delta) / (delta - ONE)


class LeverageQuote(NamedTuple):
    """One spiral, fully evaluated."""

    alpha: Dec
    delta: Dec
    rounds: int
    premium: Dec
    total_collateral: Dec
    total_debt: Dec
    max_exposure: Dec


def quote(alpha: Dec, delta: Dec, rounds: int, premium: Dec) -> LeverageQuote:
    """Evaluate collateral, debt, and the exposure limit in one call."""
    return LeverageQuote(
        alpha=alpha,
        delta=delta,
        rounds=rounds,
        premium=premium,
        total_collateral=total_collateral(alpha, delta, rounds),
        total_debt=total_debt(alpha, delta, rounds, premium),
        max_exposure=max_exposure(alpha, delta),
    )
