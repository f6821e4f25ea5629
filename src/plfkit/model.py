"""Domain records for the loanable-funds state.

The global state is: markets (aggregates plus per-market interest
bookkeeping), a USD price table, participants (per-account per-market
positions), protocol parameters, and the ordering cursor of the last
applied event. Two invariants tie aggregates to positions: total cToken
supply equals the exact sum of participant balances, and total borrows
equal the sum of accrued borrow balances within one mantissa unit per
borrower (interest accrues lazily per position, truncating). The dict
form decodes only to states a stream can write; copy() copies any state.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, NamedTuple

from .events import (
    OrderingKey, _dec_any, _dec_fraction, _dec_index, _dec_nonneg, _dec_positive, _encode_canonical, is_valid_address,
)
from .fixedpoint import ONE, ZERO, Dec, dec_muldiv, parse_canonical


class MissingPriceError(LookupError):
    """No USD price recorded for an asset that must be valued."""

    def __init__(self, symbol: str):
        super().__init__(f"no price recorded for asset {symbol!r}")
        self.symbol = symbol


class _Record:
    """The base of the state records: equality and a repr over __slots__,
    in declaration order, as a dataclass would give them. A record equals
    only a record of its own type with equal fields, and is unhashable."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class InterestModel(_Record):
    """Opaque interest metadata: a model identifier and parameter blob.

    Rates and indices are never derived from this; they arrive via
    AccrueInterest events. The blob exists so replays preserve governance
    history byte-for-byte.
    """

    __slots__ = ("model_id", "params")

    def __init__(self, model_id: str = "", params: dict[str, Dec] | None = None):
        self.model_id = model_id
        self.params = {} if params is None else params


class ProtocolParams(_Record):
    """Protocol-wide parameters: the close factor, the one an event writes."""

    __slots__ = ("close_factor",)

    def __init__(self, close_factor: Dec = ZERO):
        self.close_factor = close_factor


class MarketState(_Record):
    """Per-market aggregates and interest bookkeeping."""

    __slots__ = (
        "interest_model", "total_borrows", "total_ctoken_supply", "collateral_factor", "borrow_index",
        "exchange_rate",
    )

    def __init__(
        self,
        interest_model: InterestModel | None = None,
        total_borrows: Dec = ZERO,
        total_ctoken_supply: Dec = ZERO,
        collateral_factor: Dec = ZERO,
        borrow_index: Dec = ONE,
        exchange_rate: Dec = ONE,
    ):
        self.interest_model = InterestModel() if interest_model is None else interest_model
        self.total_borrows = total_borrows
        self.total_ctoken_supply = total_ctoken_supply
        self.collateral_factor = collateral_factor
        self.borrow_index = borrow_index
        self.exchange_rate = exchange_rate

    @classmethod
    def listed(cls, symbol: str, exchange_rate: Dec, collateral_factor: Dec) -> "MarketState":
        """Fresh market as created by a MarketListed event. The key in
        GlobalState.markets is the one place a market's symbol is recorded."""
        return cls(exchange_rate=exchange_rate, collateral_factor=collateral_factor)


class Position(_Record):
    """One account's holdings in one market.

    borrow_principal is denominated at the index captured in
    borrow_index_snapshot; the live balance is principal * index / snapshot.
    """

    __slots__ = ("ctoken_balance", "borrow_principal", "borrow_index_snapshot")

    def __init__(self, ctoken_balance: Dec = ZERO, borrow_principal: Dec = ZERO, borrow_index_snapshot: Dec = ONE):
        self.ctoken_balance = ctoken_balance
        self.borrow_principal = borrow_principal
        self.borrow_index_snapshot = borrow_index_snapshot

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


class PriceTable(_Record):
    """USD prices per asset symbol."""

    __slots__ = ("prices",)

    def __init__(self, prices: dict[str, Dec] | None = None):
        self.prices = {} if prices is None else prices

    def get(self, symbol: str) -> Dec:
        try:
            return self.prices[symbol]
        except KeyError:
            raise MissingPriceError(symbol) from None

    def set(self, symbol: str, price: Dec) -> None:
        if price <= ZERO:
            raise ValueError("prices must be positive")
        self.prices[symbol] = price


class GlobalState(_Record):
    """Complete engine state between two events."""

    __slots__ = ("markets", "participants", "price_table", "params", "cursor")

    def __init__(
        self,
        markets: dict[str, MarketState] | None = None,
        participants: dict[str, dict[str, Position]] | None = None,
        price_table: PriceTable | None = None,
        params: ProtocolParams | None = None,
        cursor: OrderingKey | None = None,
    ):
        self.markets = {} if markets is None else markets
        self.participants = {} if participants is None else participants
        self.price_table = PriceTable() if price_table is None else price_table
        self.params = ProtocolParams() if params is None else params
        self.cursor = cursor

    @classmethod
    def fresh(cls, params: ProtocolParams | None = None) -> "GlobalState":
        """Empty state ready to replay a stream from its first event."""
        return cls(params=params)

    def position(self, account: str, symbol: str) -> Position | None:
        """One account's market position, or None if it holds none."""
        holdings = self.participants.get(account)
        return None if holdings is None else holdings.get(symbol)

    def copy(self) -> "GlobalState":
        """Deep copy, record by record; the immutable Decs and cursor are shared."""
        return GlobalState(
            markets={
                symbol: MarketState(
                    InterestModel(m.interest_model.model_id, dict(m.interest_model.params)),
                    m.total_borrows, m.total_ctoken_supply, m.collateral_factor, m.borrow_index, m.exchange_rate,
                )
                for symbol, m in self.markets.items()
            },
            participants={
                account: {
                    symbol: Position(p.ctoken_balance, p.borrow_principal, p.borrow_index_snapshot)
                    for symbol, p in holdings.items()
                }
                for account, holdings in self.participants.items()
            },
            price_table=PriceTable(dict(self.price_table.prices)),
            params=ProtocolParams(self.params.close_factor),
            cursor=self.cursor,
        )


# -- Canonical serialization ------------------------------------------------


def state_to_dict(state: GlobalState) -> dict[str, Any]:
    """Plain-dict form of the state; Dec values as canonical strings."""
    return {
        "cursor": None if state.cursor is None else state.cursor._asdict(),
        "params": {
            "close_factor": str(state.params.close_factor),
            "liquidation_incentive": "0",  # no event writes it: a constant
        },
        "markets": {
            symbol: {
                "asset": {"symbol": symbol, "decimals": 18},  # no event writes it: a constant
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


def state_bytes(state: GlobalState) -> bytes:
    """Canonical bytes of state_to_dict(state): what the state digest
    hashes and a snapshot stores, encoded afresh on every call. A saved
    state's digest comes from save_snapshot, which hashes what it writes."""
    return _encode_canonical(state_to_dict(state))


# The keys state_to_dict writes, per object. The decoder takes exactly these.
_STATE_KEYS = frozenset({"cursor", "params", "markets", "participants", "prices"})
_CURSOR_KEYS = frozenset(OrderingKey._fields)
_PARAMS_KEYS = frozenset({"close_factor", "liquidation_incentive"})
_MARKET_KEYS = frozenset({
    "asset", "interest_model", "total_borrows", "total_ctoken_supply",
    "collateral_factor", "borrow_index", "exchange_rate",
})
_INTEREST_MODEL_KEYS = frozenset({"model_id", "params"})
_POSITION_KEYS = frozenset({"ctoken_balance", "borrow_principal", "borrow_index_snapshot"})


def _where(path: tuple[str, ...]) -> str:
    return "state" + "".join(f"[{part!r}]" for part in path)


def _object(data: Any, keys: frozenset[str] | None, path: tuple[str, ...] = ()) -> dict[str, Any]:
    """data itself, once it is a JSON object with exactly the given keys
    (with any keys when keys is None); path names it in the error."""
    if type(data) is dict and (keys is None or data.keys() == keys):
        return data
    where = _where(path)
    if type(data) is not dict:
        raise ValueError(f"{where} must be an object, not {type(data).__name__}")
    raise ValueError(f"{where} must have the keys {sorted(keys)}, not {sorted(data)}")


def _constant(data: Any, value: Any, path: tuple[str, ...]) -> None:
    """Refuse data unless it is value as JSON text: true and 18.0 are not 18."""
    want, got = _encode_canonical(value), _encode_canonical(data)
    if got != want:
        raise ValueError(f"{_where(path)}: must be {want.decode()}, not {got.decode()}")


def state_from_dict(data: Any) -> GlobalState:
    """Rebuild a GlobalState from its canonical dict form.

    Only the canonical form of a state a stream can write is accepted:
    exactly the keys state_to_dict writes, objects where it writes dicts,
    the asset and incentive constants it writes, only keys and values an
    event can write, and each decimal as Dec.__str__ writes it, within the
    bounds of the event field's checker. So
    state_to_dict(state_from_dict(data)) == data for every data it returns
    on; anything else raises ValueError, TypeError or DecOverflowError, for
    the first defect in walk order.
    """
    # Dec is immutable, so each distinct literal is decoded once and shared.
    memo: dict[str, Dec] = {}

    def dec(holder: dict[str, Any], name: str, check: Callable[[object], Dec], path: tuple[str, ...]) -> Dec:
        text = holder[name]
        value = memo.get(text) if type(text) is str else None
        if value is None:
            value = memo[text] = parse_canonical(text)
        low, high, message = check.bounds
        if not low <= value.mantissa <= high:
            raise ValueError(f"{_where((*path, name))}: {message}")
        return value

    _object(data, _STATE_KEYS)
    cursor = data["cursor"]
    if cursor is not None:
        _object(cursor, _CURSOR_KEYS, ("cursor",))
        for name in OrderingKey._fields:
            if type(cursor[name]) is not int or cursor[name] < 0:  # not a bool, nor 1.0
                raise ValueError(f"{_where(('cursor', name))}: must be a non-negative integer")
        cursor = OrderingKey(**cursor)
    params_raw = _object(data["params"], _PARAMS_KEYS, ("params",))
    _constant(params_raw["liquidation_incentive"], "0", ("params", "liquidation_incentive"))
    params = ProtocolParams(dec(params_raw, "close_factor", _dec_fraction, ("params",)))
    markets = {}
    for symbol, m in _object(data["markets"], None, ("markets",)).items():
        path = ("markets", symbol)
        if not symbol:
            raise ValueError(f"{_where(path)}: a market key must be a non-empty symbol")
        _object(m, _MARKET_KEYS, path)
        _constant(m["asset"], {"symbol": symbol, "decimals": 18}, (*path, "asset"))
        model = _object(m["interest_model"], _INTEREST_MODEL_KEYS, (*path, "interest_model"))
        model_params = _object(model["params"], None, (*path, "interest_model", "params"))
        if type(model["model_id"]) is not str:
            where = _where((*path, "interest_model", "model_id"))
            raise ValueError(f"{where} must be a string, not {type(model['model_id']).__name__}")
        markets[symbol] = MarketState(
            interest_model=InterestModel(
                model_id=model["model_id"],
                params={k: dec(model_params, k, _dec_any, (*path, "interest_model", "params")) for k in model_params},
            ),
            total_borrows=dec(m, "total_borrows", _dec_nonneg, path),
            total_ctoken_supply=dec(m, "total_ctoken_supply", _dec_nonneg, path),
            collateral_factor=dec(m, "collateral_factor", _dec_fraction, path),
            borrow_index=dec(m, "borrow_index", _dec_index, path),
            exchange_rate=dec(m, "exchange_rate", _dec_positive, path),
        )
    participants = {}
    for account, holdings in _object(data["participants"], None, ("participants",)).items():
        if not is_valid_address(account):
            raise ValueError(f"{_where(('participants', account))}: must be a 42-character lowercase 0x hex address")
        positions = participants[account] = {}
        if not _object(holdings, None, ("participants", account)):  # an event opens an account with a position
            raise ValueError(f"{_where(('participants', account))}: an account must hold at least one position")
        for symbol, p in holdings.items():
            path = ("participants", account, symbol)
            if symbol not in markets:  # an event opens a position only in a listed market
                raise ValueError(f"{_where(path)}: no market {symbol!r} is listed")
            _object(p, _POSITION_KEYS, path)
            positions[symbol] = Position(
                ctoken_balance=dec(p, "ctoken_balance", _dec_nonneg, path),
                borrow_principal=dec(p, "borrow_principal", _dec_nonneg, path),
                borrow_index_snapshot=dec(p, "borrow_index_snapshot", _dec_index, path),
            )
    prices = _object(data["prices"], None, ("prices",))
    return GlobalState(
        markets=markets,
        participants=participants,
        price_table=PriceTable({symbol: dec(prices, symbol, _dec_positive, ("prices",)) for symbol in prices}),
        params=params,
        cursor=cursor,
    )


def dict_digest(data: dict[str, Any]) -> str:
    """SHA-256 of a state's canonical dict form: the state digest of every
    state that state_to_dict turns into data."""
    return hashlib.sha256(_encode_canonical(data)).hexdigest()


# -- Aggregate validation ----------------------------------------------------


class StateViolation(NamedTuple):
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
