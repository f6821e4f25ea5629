"""State transitions: folding normalized event streams into global state.

apply_event validates every precondition before mutating, so a failed
transition leaves the state untouched. Non-fatal oddities (mint/redeem
amount drift, repay overshoot beyond dust, non-monotone indices in the
input) surface as warning strings, never as silent repairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from .events import EventRecord, OrderingKey
from .fixedpoint import SCALE, ZERO, Dec, DecOverflowError
from .model import GlobalState, MarketState, Position, canonical_json_bytes


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


@dataclass
class ReplayReport:
    """What a replay did: how far it got and what it grumbled about."""

    events_applied: int = 0
    final_cursor: OrderingKey | None = None
    digest: str | None = None
    warnings: list[str] = field(default_factory=list)


def state_digest(state: GlobalState) -> str:
    """Collision-resistant fingerprint of the canonical serialization."""
    return hashlib.sha256(canonical_json_bytes(state)).hexdigest()


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


def _accrue_position(position: Position, market: MarketState) -> None:
    # Fold interest into principal and re-snapshot at the current index.
    if not position.borrow_principal.is_zero():
        position.borrow_principal = position.accrued_borrow(market.borrow_index)
    position.borrow_index_snapshot = market.borrow_index


def _count_borrowers(state: GlobalState, symbol: str) -> int:
    return sum(
        1
        for holdings in state.participants.values()
        if (pos := holdings.get(symbol)) is not None and not pos.borrow_principal.is_zero()
    )


def _repay(
    state: GlobalState,
    event: EventRecord,
    warnings: list[str],
    symbol: str,
    borrower: str,
    amount: Dec,
) -> None:
    """Shared RepayBorrow / LiquidateBorrow debt-reduction semantics."""
    market = _market(state, event, symbol)
    position = state.position(borrower, symbol, create=True)
    assert position is not None
    _accrue_position(position, market)

    remainder = position.borrow_principal - amount
    if remainder.is_negative():
        # Overshoot within one mantissa unit is routine truncation dust.
        if -remainder > Dec.from_mantissa(1):
            _warn(
                warnings,
                event,
                f"repay of {amount} exceeds accrued balance "
                f"{position.borrow_principal}; clamped to zero",
            )
        remainder = ZERO
    position.borrow_principal = remainder

    new_total = market.total_borrows - amount
    if new_total.is_negative():
        slack = Dec.from_mantissa(_count_borrowers(state, symbol))
        if -new_total > slack:
            raise TransitionError(
                event.key,
                f"market {symbol!r} total borrows would go negative beyond "
                f"per-borrower slack ({new_total})",
            )
        new_total = ZERO
    market.total_borrows = new_total


def apply_event(state: GlobalState, event: EventRecord) -> list[str]:
    """Apply one event in place; returns warnings (usually empty).

    Raises TransitionError on ordering violations, unknown markets,
    overdraws, aggregate underflow beyond truncation slack, or a sum that
    leaves the mantissa carrier.
    """
    if state.cursor is not None and event.key <= state.cursor:
        raise TransitionError(
            event.key, f"does not follow cursor {state.cursor}; stream must be strictly increasing"
        )

    warnings: list[str] = []
    try:
        _transition(state, event, warnings)
    except DecOverflowError as exc:
        raise TransitionError(event.key, str(exc)) from exc
    state.cursor = event.key
    return warnings


def _transition(state: GlobalState, event: EventRecord, warnings: list[str]) -> None:
    """The body of apply_event: one event's effect, cursor aside."""
    kind = event.kind
    payload = event.payload

    if kind == "MarketListed":
        symbol = event.market
        assert symbol is not None
        if symbol in state.markets:
            raise TransitionError(event.key, f"market {symbol!r} already listed")
        state.markets[symbol] = MarketState.listed(
            symbol,
            payload["initial_exchange_rate"],
            payload["initial_collateral_factor"],
        )

    elif kind == "Mint":
        market = _market(state, event, event.market)
        ctokens = payload["amount_ctokens"]
        _check_amount_consistency(
            warnings, event, "mint", payload["amount_underlying"], ctokens, market.exchange_rate
        )
        position = state.position(payload["account"], event.market, create=True)
        assert position is not None
        position.ctoken_balance = position.ctoken_balance + ctokens
        market.total_ctoken_supply = market.total_ctoken_supply + ctokens

    elif kind == "Redeem":
        market = _market(state, event, event.market)
        ctokens = payload["amount_ctokens"]
        _check_amount_consistency(
            warnings, event, "redeem", payload["amount_underlying"], ctokens, market.exchange_rate
        )
        position = state.position(payload["account"], event.market)
        held = position.ctoken_balance if position is not None else ZERO
        if ctokens > held:
            raise TransitionError(
                event.key,
                f"redeem of {ctokens} ctokens exceeds balance {held} "
                f"for {payload['account']}",
            )
        # No position means a redeem of zero: nothing moves.
        if position is not None:
            position.ctoken_balance = position.ctoken_balance - ctokens
            market.total_ctoken_supply = market.total_ctoken_supply - ctokens
            if market.total_ctoken_supply.is_negative():
                raise TransitionError(
                    event.key, f"market {event.market!r} ctoken supply would go negative"
                )

    elif kind == "Borrow":
        market = _market(state, event, event.market)
        amount = payload["amount_underlying"]
        position = state.position(payload["account"], event.market, create=True)
        assert position is not None
        _accrue_position(position, market)
        position.borrow_principal = position.borrow_principal + amount
        market.total_borrows = market.total_borrows + amount

    elif kind == "RepayBorrow":
        _repay(state, event, warnings, event.market, payload["account"], payload["amount_underlying"])

    elif kind == "LiquidateBorrow":
        repay_symbol = event.market
        assert repay_symbol is not None
        collateral_symbol = payload["collateral_market"]
        borrower = payload["borrower"]
        liquidator = payload["liquidator"]
        seized = payload["seized_ctokens"]

        _market(state, event, repay_symbol)
        _market(state, event, collateral_symbol)
        borrower_coll = state.position(borrower, collateral_symbol)
        held = borrower_coll.ctoken_balance if borrower_coll is not None else ZERO
        if seized > held:
            raise TransitionError(
                event.key,
                f"seizure of {seized} ctokens exceeds borrower collateral {held} "
                f"in {collateral_symbol!r}",
            )

        _repay(state, event, warnings, repay_symbol, borrower, payload["repay_amount_underlying"])
        if borrower_coll is not None:  # else the seizure is zero
            borrower_coll.ctoken_balance = borrower_coll.ctoken_balance - seized
        liquidator_coll = state.position(liquidator, collateral_symbol, create=True)
        assert liquidator_coll is not None
        liquidator_coll.ctoken_balance = liquidator_coll.ctoken_balance + seized
        # Total supply unchanged: the seizure is a transfer.

    elif kind == "AccrueInterest":
        market = _market(state, event, event.market)
        new_index = payload["new_borrow_index"]
        new_rate = payload["new_exchange_rate"]
        if new_index < market.borrow_index:
            _warn(
                warnings,
                event,
                f"borrow index decreased from {market.borrow_index} to {new_index}",
            )
        if new_rate < market.exchange_rate:
            _warn(
                warnings,
                event,
                f"exchange rate decreased from {market.exchange_rate} to {new_rate}",
            )
        market.borrow_index = new_index
        market.exchange_rate = new_rate
        market.total_borrows = market.total_borrows + payload["interest_accumulated_underlying"]

    elif kind == "NewCollateralFactor":
        market = _market(state, event, event.market)
        market.collateral_factor = payload["new_factor"]

    elif kind == "NewInterestRateModel":
        market = _market(state, event, event.market)
        market.interest_model.model_id = payload["model_id"]
        market.interest_model.params = {}

    elif kind == "NewInterestParams":
        market = _market(state, event, event.market)
        market.interest_model.params = dict(payload["params_blob"])

    elif kind == "NewCloseFactor":
        state.params.close_factor = payload["new_close_factor"]

    elif kind == "PriceUpdate":
        # Prices may arrive before the market is listed; the table is
        # keyed by asset, not by market.
        assert event.market is not None
        state.price_table.set(event.market, payload["price_usd"])

    else:  # pragma: no cover - parse layer rejects unknown kinds
        raise TransitionError(event.key, f"unhandled event kind {kind!r}")


def replay(
    state: GlobalState, events: Iterable[EventRecord]
) -> tuple[GlobalState, ReplayReport]:
    """Fold a stream into the given state (mutated in place).

    The first transition error aborts the fold and raises ReplayError with
    the partial-progress report attached.
    """
    report = ReplayReport(final_cursor=state.cursor)
    for event in events:
        try:
            report.warnings.extend(apply_event(state, event))
        except TransitionError as exc:
            report.digest = state_digest(state)
            raise ReplayError(exc, report) from exc
        report.events_applied += 1
        report.final_cursor = state.cursor
    report.digest = state_digest(state)
    return state, report
