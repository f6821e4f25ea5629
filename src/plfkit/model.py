"""Domain records for the loanable-funds state.

The global state is: markets (aggregates plus per-market interest
bookkeeping), a USD price table, participants (per-account per-market
positions), protocol parameters, and the ordering cursor of the last
applied event. Two invariants tie aggregates to positions: total cToken
supply equals the exact sum of participant balances, and total borrows
equal the sum of accrued borrow balances within one mantissa unit per
borrower (interest accrues lazily per position, truncating).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .events import OrderingKey, _encode_canonical
from .fixedpoint import ONE, ZERO, Dec, dec_muldiv


class MissingPriceError(LookupError):
    """No USD price recorded for an asset that must be valued."""

    def __init__(self, symbol: str):
        super().__init__(f"no price recorded for asset {symbol!r}")
        self.symbol = symbol


@dataclass(frozen=True)
class AssetId:
    """Token identity: symbol plus native on-chain decimals."""

    symbol: str
    decimals: int = 18

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("asset symbol must be non-empty")
        if not 0 <= self.decimals <= 18:
            raise ValueError("asset decimals must lie in [0, 18]")


@dataclass
class InterestModel:
    """Opaque interest metadata: a model identifier and parameter blob.

    Rates and indices are never derived from this; they arrive via
    AccrueInterest events. The blob exists so replays preserve governance
    history byte-for-byte.
    """

    model_id: str = ""
    params: dict[str, Dec] = field(default_factory=dict)


@dataclass
class ProtocolParams:
    """Protocol-wide parameters: close factor and liquidation incentive."""

    close_factor: Dec = ZERO
    liquidation_incentive: Dec = ZERO

    def __post_init__(self):
        if self.close_factor < ZERO or self.close_factor > ONE:
            raise ValueError("close factor must lie in [0, 1]")
        if self.liquidation_incentive < ZERO:
            raise ValueError("liquidation incentive must be non-negative")


@dataclass
class MarketState:
    """Per-market aggregates and interest bookkeeping."""

    asset: AssetId
    interest_model: InterestModel = field(default_factory=InterestModel)
    total_borrows: Dec = ZERO
    total_ctoken_supply: Dec = ZERO
    collateral_factor: Dec = ZERO
    borrow_index: Dec = ONE
    exchange_rate: Dec = ONE

    @classmethod
    def listed(cls, symbol: str, exchange_rate: Dec, collateral_factor: Dec) -> "MarketState":
        """Fresh market as created by a MarketListed event."""
        return cls(
            asset=AssetId(symbol),
            exchange_rate=exchange_rate,
            collateral_factor=collateral_factor,
        )


@dataclass
class Position:
    """One account's holdings in one market.

    borrow_principal is denominated at the index captured in
    borrow_index_snapshot; the live balance is principal * index / snapshot.
    """

    ctoken_balance: Dec = ZERO
    borrow_principal: Dec = ZERO
    borrow_index_snapshot: Dec = ONE

    def accrued_borrow(self, borrow_index: Dec) -> Dec:
        """Borrow balance brought forward to the given index.

        Computed as a single fused multiply-divide so only one truncation
        happens; refreshing at an unchanged index is then exact, which
        keeps market totals within one mantissa unit per borrower.
        """
        if self.borrow_principal.is_zero():
            return ZERO
        return dec_muldiv(self.borrow_principal, borrow_index, self.borrow_index_snapshot)

    def is_empty(self) -> bool:
        return self.ctoken_balance.is_zero() and self.borrow_principal.is_zero()


@dataclass
class PriceTable:
    """USD prices per asset symbol."""

    prices: dict[str, Dec] = field(default_factory=dict)

    def get(self, symbol: str) -> Dec:
        try:
            return self.prices[symbol]
        except KeyError:
            raise MissingPriceError(symbol) from None

    def set(self, symbol: str, price: Dec) -> None:
        if price <= ZERO:
            raise ValueError("prices must be positive")
        self.prices[symbol] = price


@dataclass
class GlobalState:
    """Complete engine state between two events."""

    markets: dict[str, MarketState] = field(default_factory=dict)
    participants: dict[str, dict[str, Position]] = field(default_factory=dict)
    price_table: PriceTable = field(default_factory=PriceTable)
    params: ProtocolParams = field(default_factory=ProtocolParams)
    cursor: OrderingKey | None = None

    @classmethod
    def fresh(cls, params: ProtocolParams | None = None) -> "GlobalState":
        """Empty state ready to replay a stream from its first event."""
        return cls(params=params if params is not None else ProtocolParams())

    def position(self, account: str, symbol: str) -> Position | None:
        """One account's market position, or None if it holds none."""
        holdings = self.participants.get(account)
        return None if holdings is None else holdings.get(symbol)

    def copy(self) -> "GlobalState":
        """Deep copy via the canonical dict round-trip."""
        return state_from_dict(state_to_dict(self))


# -- Canonical serialization ------------------------------------------------


def state_to_dict(state: GlobalState) -> dict[str, Any]:
    """Plain-dict form of the state; Dec values as canonical strings."""
    return {
        "cursor": None
        if state.cursor is None
        else {
            "block": state.cursor.block,
            "tx_index": state.cursor.tx_index,
            "log_index": state.cursor.log_index,
        },
        "params": {
            "close_factor": str(state.params.close_factor),
            "liquidation_incentive": str(state.params.liquidation_incentive),
        },
        "markets": {
            symbol: {
                "asset": {"symbol": m.asset.symbol, "decimals": m.asset.decimals},
                "interest_model": {
                    "model_id": m.interest_model.model_id,
                    "params": {k: str(v) for k, v in m.interest_model.params.items()},
                },
                "total_borrows": str(m.total_borrows),
                "total_ctoken_supply": str(m.total_ctoken_supply),
                "collateral_factor": str(m.collateral_factor),
                "borrow_index": str(m.borrow_index),
                "exchange_rate": str(m.exchange_rate),
            }
            for symbol, m in state.markets.items()
        },
        "participants": {
            account: {
                symbol: {
                    "ctoken_balance": str(p.ctoken_balance),
                    "borrow_principal": str(p.borrow_principal),
                    "borrow_index_snapshot": str(p.borrow_index_snapshot),
                }
                for symbol, p in holdings.items()
            }
            for account, holdings in state.participants.items()
        },
        "prices": {symbol: str(p) for symbol, p in state.price_table.prices.items()},
    }


def state_from_dict(data: dict[str, Any]) -> GlobalState:
    """Rebuild a GlobalState from its canonical dict form."""
    cursor_raw = data["cursor"]
    cursor = (
        None
        if cursor_raw is None
        else OrderingKey(cursor_raw["block"], cursor_raw["tx_index"], cursor_raw["log_index"])
    )
    params = ProtocolParams(
        close_factor=Dec(data["params"]["close_factor"]),
        liquidation_incentive=Dec(data["params"]["liquidation_incentive"]),
    )
    markets = {}
    for symbol, m in data["markets"].items():
        markets[symbol] = MarketState(
            asset=AssetId(m["asset"]["symbol"], m["asset"]["decimals"]),
            interest_model=InterestModel(
                model_id=m["interest_model"]["model_id"],
                params={k: Dec(v) for k, v in m["interest_model"]["params"].items()},
            ),
            total_borrows=Dec(m["total_borrows"]),
            total_ctoken_supply=Dec(m["total_ctoken_supply"]),
            collateral_factor=Dec(m["collateral_factor"]),
            borrow_index=Dec(m["borrow_index"]),
            exchange_rate=Dec(m["exchange_rate"]),
        )
    participants = {
        account: {
            symbol: Position(
                ctoken_balance=Dec(p["ctoken_balance"]),
                borrow_principal=Dec(p["borrow_principal"]),
                borrow_index_snapshot=Dec(p["borrow_index_snapshot"]),
            )
            for symbol, p in holdings.items()
        }
        for account, holdings in data["participants"].items()
    }
    prices = PriceTable({symbol: Dec(p) for symbol, p in data["prices"].items()})
    return GlobalState(
        markets=markets,
        participants=participants,
        price_table=prices,
        params=params,
        cursor=cursor,
    )


def canonical_json_bytes(state: GlobalState) -> bytes:
    """Byte-deterministic serialization: sorted keys, compact, ASCII."""
    return _encode_canonical(state_to_dict(state))


# -- Aggregate validation ----------------------------------------------------


@dataclass(frozen=True)
class StateViolation:
    """One aggregate out of step with the positions backing it."""

    market: str
    aggregate: str  # "total_ctoken_supply" or "total_borrows"
    expected: Dec
    actual: Dec


def validate_state(state: GlobalState) -> list[StateViolation]:
    """Check supply and borrow aggregates against position sums.

    Supply must match exactly; borrows may deviate by up to one mantissa
    unit per open borrow position (lazy accrual truncates per borrower).
    """
    violations: list[StateViolation] = []
    for symbol in sorted(state.markets):
        market = state.markets[symbol]
        ctoken_sum = ZERO
        accrued_sum = ZERO
        borrowers = 0
        for holdings in state.participants.values():
            pos = holdings.get(symbol)
            if pos is None:
                continue
            ctoken_sum = ctoken_sum + pos.ctoken_balance
            if not pos.borrow_principal.is_zero():
                borrowers += 1
                accrued_sum = accrued_sum + pos.accrued_borrow(market.borrow_index)
        if ctoken_sum != market.total_ctoken_supply:
            violations.append(
                StateViolation(symbol, "total_ctoken_supply", ctoken_sum, market.total_ctoken_supply)
            )
        drift = abs(market.total_borrows.mantissa - accrued_sum.mantissa)
        if drift > borrowers:
            violations.append(
                StateViolation(symbol, "total_borrows", accrued_sum, market.total_borrows)
            )
    return violations
