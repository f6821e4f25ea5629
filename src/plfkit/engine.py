"""State transitions: folding normalized event streams into global state.

apply_event is validate-then-commit: each transition computes its new
values in locals, running every check and every carrier-checked sum, and
only then writes them with plain assignments that cannot fail. So a failed
transition leaves the state untouched. Non-fatal oddities (mint/redeem
amount drift, repay overshoot beyond dust, non-monotone indices in the
input) surface as warning strings, never as silent repairs.

This module is the one place that knows what an event writes, and _fold
is the one loop that applies a stream: it hands each event's written
accounts and re-priced market to an optional observer (track_efficiency).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

from .events import EventRecord, OrderingKey
from .fixedpoint import SCALE, ZERO, Dec, DecOverflowError
from .model import GlobalState, MarketState, Position, _Record, state_bytes


class TransitionError(ValueError):
    """An event could not be applied; names the offending ordering key."""

    def __init__(self, key: OrderingKey, message: str):
        super().__init__(f"event {key.block}:{key.tx_index}:{key.log_index}: {message}")
        self.key = key


class ReplayError(RuntimeError):
    """A replay aborted partway; carries the partial-progress report."""

    def __init__(self, cause: TransitionError, report: "ReplayReport"):
        super().__init__(str(cause))
        self.cause = cause
        self.report = report


class ReplayReport(_Record):
    """What a replay did: how far it got and what it grumbled about."""

    __slots__ = ("events_applied", "digest", "warnings")

    def __init__(self, events_applied: int = 0, digest: str | None = None, warnings: list[str] | None = None):
        self.events_applied = events_applied
        self.digest = digest
        self.warnings = [] if warnings is None else warnings


def state_digest(state: GlobalState) -> str:
    """Collision-resistant fingerprint of the canonical serialization."""
    return hashlib.sha256(state_bytes(state)).hexdigest()


def _market(state: GlobalState, event: EventRecord, symbol: str) -> MarketState:
    market = state.markets.get(symbol)
    if market is None:
        raise TransitionError(event.key, f"unknown market {symbol!r}")
    return market


def _warn(warnings: list[str], event: EventRecord, message: str) -> None:
    key = event.key
    warnings.append(f"event {key.block}:{key.tx_index}:{key.log_index}: {message}")


def _check_amount_consistency(
    warnings: list[str],
    event: EventRecord,
    verb: str,
    underlying: Dec,
    ctokens: Dec,
    rate: Dec,
) -> None:
    # Tolerance is one cToken mantissa unit valued at the exchange rate.
    # Compared at 10**-36 scale so the band itself is never truncated away.
    drift = abs(underlying.mantissa * SCALE - ctokens.mantissa * rate.mantissa)
    if drift > rate.mantissa:
        _warn(
            warnings,
            event,
            f"{verb} amounts disagree with exchange rate {rate}: "
            f"underlying {underlying} vs {ctokens} ctokens",
        )


def _opened(state: GlobalState, account: str, symbol: str, position: Position | None) -> Position:
    """The position looked up before the commit, created if it was missing."""
    if position is None:
        position = state.participants.setdefault(account, {}).setdefault(symbol, Position())
    return position


def _repay(
    state: GlobalState,
    event: EventRecord,
    warnings: list[str],
    symbol: str,
    borrower: str,
    position: Position | None,
    amount: Dec,
) -> tuple[Dec, Dec]:
    """Shared RepayBorrow / LiquidateBorrow debt reduction: the borrower's
    new principal (at the market's index) and the market's new total
    borrows. Writes nothing."""
    market = state.markets[symbol]
    accrued = position.accrued_borrow(market.borrow_index) if position is not None else ZERO
    remainder = accrued - amount
    if remainder.is_negative():
        # Overshoot within one mantissa unit is routine truncation dust.
        if -remainder > Dec.from_mantissa(1):
            _warn(warnings, event, f"repay of {amount} exceeds accrued balance {accrued}; clamped to zero")
        remainder = ZERO

    total = market.total_borrows - amount
    if total.is_negative():
        # One mantissa unit per borrower left once this repay lands: the
        # others, and this one if any debt remains.
        borrowers = bool(remainder) + sum(
            1
            for account, holdings in state.participants.items()
            if account != borrower and (pos := holdings.get(symbol)) is not None and pos.borrow_principal
        )
        if -total > Dec.from_mantissa(borrowers):
            raise TransitionError(
                event.key,
                f"market {symbol!r} total borrows would go negative beyond "
                f"per-borrower slack ({total})",
            )
        total = ZERO
    return remainder, total


def apply_event(state: GlobalState, event: EventRecord) -> list[str]:
    """Apply one event in place; returns warnings (usually empty).

    Raises TransitionError on ordering violations, unknown markets,
    overdraws, aggregate underflow beyond truncation slack, or a sum that
    leaves the mantissa carrier. A failed event leaves the state untouched.
    """
    return _apply(state, event)[0]


def _apply(
    state: GlobalState, event: EventRecord
) -> tuple[list[str], tuple[str, ...], str | None]:
    """apply_event, also reporting what the event wrote: its warnings, the
    accounts whose positions it wrote, and the market whose exchange rate,
    borrow index, collateral factor or price it set (None if none)."""
    if state.cursor is not None and event.key <= state.cursor:
        raise TransitionError(
            event.key, f"does not follow cursor {state.cursor}; stream must be strictly increasing"
        )

    warnings: list[str] = []
    try:
        accounts, repriced = _transition(state, event, warnings)
    except DecOverflowError as exc:
        raise TransitionError(event.key, str(exc)) from exc
    state.cursor = event.key
    return warnings, accounts, repriced


def _transition(
    state: GlobalState, event: EventRecord, warnings: list[str]
) -> tuple[tuple[str, ...], str | None]:
    """One event's effect, cursor aside, as (accounts, repriced) of _apply:
    each branch checks and computes into locals, then assigns."""
    kind = event.kind
    payload = event.payload
    symbol = event.market

    if kind == "MarketListed":
        if symbol in state.markets:
            raise TransitionError(event.key, f"market {symbol!r} already listed")
        state.markets[symbol] = MarketState.listed(
            symbol, payload["initial_exchange_rate"], payload["initial_collateral_factor"]
        )
        return (), symbol

    if kind == "PriceUpdate":
        # Prices may arrive before the market is listed; the table is
        # keyed by asset, not by market.
        state.price_table.set(symbol, payload["price_usd"])
        return (), symbol

    if kind == "NewCloseFactor":
        state.params.close_factor = payload["new_close_factor"]
        return (), None

    market = _market(state, event, symbol)

    if kind in ("Mint", "Redeem"):
        account = payload["account"]
        ctokens = payload["amount_ctokens"]
        _check_amount_consistency(
            warnings, event, kind.lower(), payload["amount_underlying"], ctokens, market.exchange_rate
        )
        position = state.position(account, symbol)
        held = position.ctoken_balance if position is not None else ZERO
        if kind == "Mint":
            balance = held + ctokens
            supply = market.total_ctoken_supply + ctokens
        else:
            if ctokens > held:
                raise TransitionError(
                    event.key, f"redeem of {ctokens} ctokens exceeds balance {held} for {account}"
                )
            if position is None:  # a redeem of zero: nothing moves
                return (), None
            balance = held - ctokens
            supply = market.total_ctoken_supply - ctokens
            if supply.is_negative():
                raise TransitionError(event.key, f"market {symbol!r} ctoken supply would go negative")
        _opened(state, account, symbol, position).ctoken_balance = balance
        market.total_ctoken_supply = supply
        return (account,), None

    if kind in ("Borrow", "RepayBorrow"):
        account = payload["account"]
        amount = payload["amount_underlying"]
        position = state.position(account, symbol)
        if kind == "Borrow":
            # Interest folds into principal before the new debt lands.
            accrued = position.accrued_borrow(market.borrow_index) if position is not None else ZERO
            principal = accrued + amount
            total = market.total_borrows + amount
        else:
            principal, total = _repay(state, event, warnings, symbol, account, position, amount)
        position = _opened(state, account, symbol, position)
        position.borrow_principal = principal
        position.borrow_index_snapshot = market.borrow_index
        market.total_borrows = total
        return (account,), None

    if kind == "LiquidateBorrow":
        # The liquidator may be the borrower, and the collateral market
        # may be the repay market: every position is read before any write.
        borrower = payload["borrower"]
        liquidator = payload["liquidator"]
        seized = payload["seized_ctokens"]
        collateral_symbol = payload["collateral_market"]
        _market(state, event, collateral_symbol)
        collateral = state.position(borrower, collateral_symbol)
        held = collateral.ctoken_balance if collateral is not None else ZERO
        if seized > held:
            raise TransitionError(
                event.key,
                f"seizure of {seized} ctokens exceeds borrower collateral {held} "
                f"in {collateral_symbol!r}",
            )
        debt = state.position(borrower, symbol)
        principal, total = _repay(
            state, event, warnings, symbol, borrower, debt, payload["repay_amount_underlying"]
        )
        remaining = held - seized
        if liquidator == borrower:
            receiver, credited = collateral, held  # the seized cTokens come straight back
        else:
            receiver = state.position(liquidator, collateral_symbol)
            credited = (receiver.ctoken_balance if receiver is not None else ZERO) + seized
        # The debt position is created before the liquidator's collateral
        # position. Total supply is unchanged: the seizure is a transfer.
        debt = _opened(state, borrower, symbol, debt)
        debt.borrow_principal = principal
        debt.borrow_index_snapshot = market.borrow_index
        market.total_borrows = total
        if collateral is not None:  # else the seizure is zero
            collateral.ctoken_balance = remaining
        _opened(state, liquidator, collateral_symbol, receiver).ctoken_balance = credited
        return (borrower, liquidator), None

    if kind == "AccrueInterest":
        new_index = payload["new_borrow_index"]
        new_rate = payload["new_exchange_rate"]
        if new_index < market.borrow_index:
            _warn(warnings, event, f"borrow index decreased from {market.borrow_index} to {new_index}")
        if new_rate < market.exchange_rate:
            _warn(warnings, event, f"exchange rate decreased from {market.exchange_rate} to {new_rate}")
        total = market.total_borrows + payload["interest_accumulated_underlying"]
        market.borrow_index = new_index
        market.exchange_rate = new_rate
        market.total_borrows = total
        return (), symbol

    if kind == "NewCollateralFactor":
        market.collateral_factor = payload["new_factor"]
        return (), symbol

    if kind == "NewInterestRateModel":
        market.interest_model.model_id = payload["model_id"]
        market.interest_model.params = {}
        return (), None

    if kind == "NewInterestParams":
        market.interest_model.params = dict(payload["params_blob"])
        return (), None

    raise TransitionError(event.key, f"unhandled event kind {kind!r}")  # pragma: no cover


def _fold(
    state: GlobalState,
    events: Iterable[EventRecord],
    report: ReplayReport,
    observe: Callable[[EventRecord, list[str], tuple[str, ...], str | None], None] | None = None,
) -> None:
    """Apply a stream in place, counting events and collecting warnings in
    ``report``. ``observe`` sees each applied event with what _apply
    reported, before the event's warnings join the report, so it may append
    its own. A TransitionError propagates unwrapped."""
    for event in events:
        warnings, accounts, repriced = _apply(state, event)
        if observe is not None:
            observe(event, warnings, accounts, repriced)
        report.warnings.extend(warnings)
        report.events_applied += 1


def replay(
    state: GlobalState, events: Iterable[EventRecord]
) -> tuple[GlobalState, ReplayReport]:
    """Fold a stream into the given state (mutated in place).

    The first transition error aborts the fold and raises ReplayError with
    the partial-progress report attached.
    """
    report = ReplayReport()
    try:
        _fold(state, events, report)
    except TransitionError as exc:
        raise ReplayError(exc, report) from exc
    finally:
        report.digest = state_digest(state)
    return state, report
