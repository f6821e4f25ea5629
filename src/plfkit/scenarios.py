"""Seeded scenario generation with annotated ground truth.

The generator plans event streams whose interesting moments (liquidable
windows, liquidations, concentration shapes) are known by construction,
then writes the stream plus an annotation file recording what a correct
engine must find at chosen checkpoints. Bookkeeping here is deliberately
naive and self-contained: it never calls the incremental engine, so the
two routes to the same numbers check each other. What it shares with the
engine is ``fixedpoint``'s mantissa arithmetic (``checked``, ``trunc_mul``,
``trunc_muldiv``); the oracle values accounts on plain int mantissas.

Spec and annotation documents are read back through ``events._decode_value``,
so each default of a spec field is written once, in its dataclass below.

Randomness comes exclusively from ``random.Random`` seeded with the spec's
seed: Mersenne Twister (MT19937), whose integer draws are stable across
platforms and Python versions, making generated streams byte-identical
for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Literal, Sequence

from .events import (
    EventRecord,
    OrderingKey,
    _dec_fraction,
    _dec_nonneg,
    _dec_positive,
    _decode_value,
    _encode_canonical,
    _encode_value,
    is_valid_address,
    write_events,
)
from .fixedpoint import ONE, ZERO, Dec, checked, dec_muldiv, trunc_mul, trunc_muldiv

ANNOTATION_FORMAT_VERSION = 1

_LIQUIDATOR = "0x" + format(0xB0000, "040x")


class GenerationError(ValueError):
    """The requested scenario cannot be realized consistently."""


# -- Spec --------------------------------------------------------------------


@dataclass(frozen=True)
class PricePath:
    """Random-walk envelope for one asset's USD price."""

    initial: Dec
    max_step_bps: int = 20
    floor: Dec | None = None  # defaults to 80% of initial
    cap: Dec | None = None  # defaults to 125% of initial

    def bounds(self) -> tuple[Dec, Dec]:
        floor = self.floor if self.floor is not None else self.initial * Dec("0.8")
        cap = self.cap if self.cap is not None else self.initial * Dec("1.25")
        return floor, cap


@dataclass(frozen=True)
class MarketSpec:
    symbol: str
    initial_exchange_rate: Dec
    collateral_factor: Dec
    price: PricePath


@dataclass(frozen=True)
class PlannedLiquidation:
    """An account that must turn liquidable at one block and be liquidated at another."""

    account: str
    liquidable_block: int
    liquidation_block: int


@dataclass(frozen=True)
class ConcentrationPlan:
    """Target top-account share vector for one side of the book."""

    side: Literal["supply", "borrow"]
    shares: tuple[Dec, ...]


@dataclass
class ScenarioSpec:
    seed: int
    markets: list[MarketSpec]
    accounts: int
    event_count: int
    planned_liquidations: list[PlannedLiquidation] = field(default_factory=list)
    planned_concentration: ConcentrationPlan | None = None
    close_factor: Dec = field(default_factory=lambda: Dec("0.5"))
    liquidation_incentive: Dec = field(default_factory=lambda: Dec("0.1"))
    checkpoint_count: int = 5


def default_spec(seed: int, event_count: int = 400, accounts: int = 8) -> ScenarioSpec:
    """A small two-market scenario with one planned liquidation."""
    return ScenarioSpec(
        seed=seed,
        markets=[
            MarketSpec("DAI", Dec("0.02"), Dec("0.75"), PricePath(Dec(1), max_step_bps=5)),
            MarketSpec("ETH", Dec("0.05"), Dec("0.6"), PricePath(Dec(100), max_step_bps=25)),
        ],
        accounts=accounts,
        event_count=event_count,
        planned_liquidations=[
            PlannedLiquidation("0x" + "ab" * 20, liquidable_block=40, liquidation_block=42)
        ],
    )


def spec_to_dict(spec: ScenarioSpec) -> dict[str, Any]:
    """The spec as plain JSON data: its field names, with Decs as strings."""
    return _encode_value(spec)


def spec_from_dict(data: dict[str, Any]) -> ScenarioSpec:
    """The spec a plain JSON document describes; see ``events._decode_value``."""
    return _decode_value(ScenarioSpec, data)


# -- Naive bookkeeping (the oracle side) -------------------------------------


@dataclass
class _MiniMarket:
    rate: Dec
    index: Dec
    factor: Dec
    supply: Dec = ZERO
    borrows: Dec = ZERO


@dataclass
class _MiniPos:
    ctokens: Dec = ZERO
    principal: Dec = ZERO
    snapshot: Dec = ONE


class _NaiveState:
    """From-first-principles replica of the transition semantics.

    Self-contained on purpose: shares only ``fixedpoint``'s mantissa
    arithmetic (``checked``, ``trunc_mul``, ``trunc_muldiv``) with the
    engine and values accounts on ints, so generated annotations are an
    independent route to every number the engine must reproduce.
    """

    def __init__(self) -> None:
        self.markets: dict[str, _MiniMarket] = {}
        self.positions: dict[str, dict[str, _MiniPos]] = {}
        self.prices: dict[str, Dec] = {}
        self.close_factor: Dec = ZERO
        self.members: dict[str, list[str]] = {}  # market -> accounts, insertion order

    def _pos(self, account: str, symbol: str) -> _MiniPos:
        holdings = self.positions.setdefault(account, {})
        pos = holdings.get(symbol)
        if pos is None:
            pos = _MiniPos()
            holdings[symbol] = pos
            # Positions are never deleted, so a new one is a new holder.
            self.members.setdefault(symbol, []).append(account)
        return pos

    @staticmethod
    def _accrued(pos: _MiniPos, index: Dec) -> Dec:
        if pos.principal.is_zero():
            return ZERO
        return dec_muldiv(pos.principal, index, pos.snapshot)

    def apply(self, event: EventRecord) -> None:
        kind = event.kind
        payload = event.payload
        if kind == "MarketListed":
            self.markets[event.market] = _MiniMarket(
                rate=payload["initial_exchange_rate"],
                index=ONE,
                factor=payload["initial_collateral_factor"],
            )
        elif kind == "Mint":
            pos = self._pos(payload["account"], event.market)
            pos.ctokens = pos.ctokens + payload["amount_ctokens"]
            market = self.markets[event.market]
            market.supply = market.supply + payload["amount_ctokens"]
        elif kind == "Redeem":
            pos = self._pos(payload["account"], event.market)
            pos.ctokens = pos.ctokens - payload["amount_ctokens"]
            market = self.markets[event.market]
            market.supply = market.supply - payload["amount_ctokens"]
        elif kind == "Borrow":
            market = self.markets[event.market]
            pos = self._pos(payload["account"], event.market)
            pos.principal = self._accrued(pos, market.index) + payload["amount_underlying"]
            pos.snapshot = market.index
            market.borrows = market.borrows + payload["amount_underlying"]
        elif kind == "RepayBorrow":
            self._repay(event.market, payload["account"], payload["amount_underlying"])
        elif kind == "LiquidateBorrow":
            self._repay(event.market, payload["borrower"], payload["repay_amount_underlying"])
            seized = payload["seized_ctokens"]
            borrower_pos = self._pos(payload["borrower"], payload["collateral_market"])
            borrower_pos.ctokens = borrower_pos.ctokens - seized
            liquidator_pos = self._pos(payload["liquidator"], payload["collateral_market"])
            liquidator_pos.ctokens = liquidator_pos.ctokens + seized
        elif kind == "AccrueInterest":
            market = self.markets[event.market]
            market.index = payload["new_borrow_index"]
            market.rate = payload["new_exchange_rate"]
            market.borrows = market.borrows + payload["interest_accumulated_underlying"]
        elif kind == "NewCollateralFactor":
            self.markets[event.market].factor = payload["new_factor"]
        elif kind == "NewCloseFactor":
            self.close_factor = payload["new_close_factor"]
        elif kind == "PriceUpdate":
            self.prices[event.market] = payload["price_usd"]
        # NewInterestRateModel / NewInterestParams carry no balance effects.

    def _repay(self, symbol: str, account: str, amount: Dec) -> None:
        market = self.markets[symbol]
        pos = self._pos(account, symbol)
        remainder = self._accrued(pos, market.index) - amount
        pos.principal = ZERO if remainder.is_negative() else remainder
        pos.snapshot = market.index
        new_total = market.borrows - amount
        market.borrows = ZERO if new_total.is_negative() else new_total

    def health(
        self,
        account: str,
        price_override: dict[str, Dec] | None = None,
        index_override: dict[str, Dec] | None = None,
        factor_override: dict[str, Dec] | None = None,
    ) -> tuple[Dec, Dec, Dec]:
        """(collateral power, borrow value, collateral value) in USD."""
        power, borrow_value, collateral_value = self._sums(
            account, price_override, index_override, factor_override
        )
        return (
            Dec.from_mantissa(power),
            Dec.from_mantissa(borrow_value),
            Dec.from_mantissa(collateral_value),
        )

    def _sums(
        self,
        account: str,
        price_override: dict[str, Dec] | None = None,
        index_override: dict[str, Dec] | None = None,
        factor_override: dict[str, Dec] | None = None,
    ) -> tuple[int, int, int]:
        """``health()``'s three sums as mantissas, in Dec's truncation order
        ``((ctokens*rate)*factor)*price`` and ``accrued*price``, with the
        carrier check at every product and partial sum."""
        power = 0
        borrow_value = 0
        collateral_value = 0
        for symbol, pos in self.positions.get(account, {}).items():
            ctokens = pos.ctokens.mantissa
            principal = pos.principal.mantissa
            if not ctokens and not principal:
                continue
            market = self.markets[symbol]
            price = self.prices[symbol]
            if price_override and symbol in price_override:
                price = price_override[symbol]
            price = price.mantissa
            if ctokens:
                factor = market.factor
                if factor_override and symbol in factor_override:
                    factor = factor_override[symbol]
                base = trunc_mul(ctokens, market.rate.mantissa)
                collateral_value = checked(collateral_value + trunc_mul(base, price))
                power = checked(power + trunc_mul(trunc_mul(base, factor.mantissa), price))
            if principal:
                index = market.index
                if index_override and symbol in index_override:
                    index = index_override[symbol]
                accrued = trunc_muldiv(principal, index.mantissa, pos.snapshot.mantissa)
                borrow_value = checked(borrow_value + trunc_mul(accrued, price))
        return power, borrow_value, collateral_value

    def is_liquidable(self, account: str) -> bool:
        power, borrow_value, _ = self._sums(account)
        return power < borrow_value

    def drift_safe(self, symbol: str, **override: dict[str, Dec]) -> bool:
        """Whether every holder in ``symbol`` that borrows keeps power >=
        _DRIFT_MARGIN times its borrow value under one of ``health()``'s
        overrides."""
        margin = _DRIFT_MARGIN.mantissa
        for account in self.members.get(symbol, ()):
            power, borrow_value, _ = self._sums(account, **override)
            if borrow_value and power < trunc_mul(borrow_value, margin):
                return False
        return True

    def liquidable_accounts(self) -> list[str]:
        return [a for a in sorted(self.positions) if self.is_liquidable(a)]

    def aggregates(self, symbol: str) -> tuple[Dec, Dec, Dec, Dec]:
        """(total supply, summed ctokens, total borrows, summed accrued)."""
        market = self.markets[symbol]
        ctoken_sum = ZERO
        accrued_sum = ZERO
        for account in self.members.get(symbol, ()):
            pos = self.positions[account][symbol]
            ctoken_sum = ctoken_sum + pos.ctokens
            accrued_sum = accrued_sum + self._accrued(pos, market.index)
        return market.supply, ctoken_sum, market.borrows, accrued_sum

    def accrued_of(self, account: str, symbol: str) -> Dec:
        pos = self.positions.get(account, {}).get(symbol)
        if pos is None:
            return ZERO
        return self._accrued(pos, self.markets[symbol].index)

    def ctokens_of(self, account: str, symbol: str) -> Dec:
        pos = self.positions.get(account, {}).get(symbol)
        return pos.ctokens if pos is not None else ZERO


# -- Ground truth ------------------------------------------------------------


@dataclass(frozen=True)
class MarketCheck:
    total_ctoken_supply: Dec
    participant_ctoken_sum: Dec
    total_borrows: Dec
    participant_accrued_sum: Dec


@dataclass(frozen=True)
class Checkpoint:
    block: int
    liquidable: tuple[str, ...]
    markets: dict[str, MarketCheck]


@dataclass(frozen=True)
class EfficiencyCheck:
    account: str
    start_block: int
    liquidation_block: int
    blocks_elapsed: int
    seized_value_usd: Dec
    warned: bool = False


@dataclass
class GroundTruth:
    checkpoints: list[Checkpoint]
    efficiency: list[EfficiencyCheck]


def ground_truth(
    events: Sequence[EventRecord], checkpoint_blocks: Sequence[int]
) -> GroundTruth:
    """Replay naively, re-evaluating every account after every event.

    Checkpoints capture the state after all events with block <= the
    checkpoint block. Streak semantics mirror the analytics contract: a
    liquidation closes the open streak; if the account is still underwater
    afterwards a new streak opens at the liquidation's key.
    """
    naive = _NaiveState()
    pending = sorted(set(checkpoint_blocks))
    checkpoints: list[Checkpoint] = []
    records: list[EfficiencyCheck] = []
    open_streaks: dict[str, int] = {}  # account -> start block

    def capture(block: int) -> None:
        checkpoints.append(
            Checkpoint(
                block=block,
                liquidable=tuple(naive.liquidable_accounts()),
                markets={
                    symbol: MarketCheck(*naive.aggregates(symbol))
                    for symbol in sorted(naive.markets)
                },
            )
        )

    for position, event in enumerate(events):
        while pending and pending[0] < event.key.block:
            capture(pending.pop(0))

        if event.kind == "LiquidateBorrow":
            borrower = event.payload["borrower"]
            start = open_streaks.pop(borrower, None)
            market = naive.markets[event.payload["collateral_market"]]
            seized_value = (event.payload["seized_ctokens"] * market.rate) * naive.prices[
                event.payload["collateral_market"]
            ]
            records.append(
                EfficiencyCheck(
                    account=borrower,
                    start_block=event.key.block if start is None else start,
                    liquidation_block=event.key.block,
                    blocks_elapsed=0 if start is None else event.key.block - start,
                    seized_value_usd=seized_value,
                    warned=start is None,
                )
            )

        naive.apply(event)

        for account in sorted(naive.positions):
            if naive.is_liquidable(account):
                open_streaks.setdefault(account, event.key.block)
            else:
                open_streaks.pop(account, None)

    while pending:
        # Checkpoints at or beyond the last block see the final state.
        capture(pending.pop(0))

    return GroundTruth(checkpoints=checkpoints, efficiency=records)


def ground_truth_to_dict(truth: GroundTruth) -> dict[str, Any]:
    return {
        "checkpoints": _encode_value(truth.checkpoints),
        "efficiency_records": _encode_value(truth.efficiency),
    }


def ground_truth_from_dict(data: dict[str, Any]) -> GroundTruth:
    return GroundTruth(
        checkpoints=_decode_value(list[Checkpoint], data["checkpoints"]),
        efficiency=_decode_value(list[EfficiencyCheck], data["efficiency_records"]),
    )


# -- Generation ---------------------------------------------------------------

_PLAN_RATE = Dec("0.02")
_PLAN_FACTOR = Dec("0.75")
_PLAN_COLL_PRICE = Dec(2)
_PLAN_DEBT = Dec(100)
_PLAN_CTOKENS = Dec(3500)  # power 3500 * 0.02 * 0.75 * 2 = 105: ratio 1.05 vs debt 100
_PLAN_DROP = Dec("0.9")  # push ratio to 0.945

_GUARD_MARGIN = Dec("1.15")  # borrows/redeems keep power >= 1.15 * borrow value
_DRIFT_MARGIN = Dec("1.02")  # price/interest/factor moves keep accounts above 1.02


class _Emitter:
    """Appends events with strictly increasing keys, mirroring them into the tracker."""

    def __init__(self, tracker: _NaiveState):
        self.tracker = tracker
        self.events: list[EventRecord] = []
        self.block = 1
        self._tx = 0
        self._log = 0

    def goto(self, block: int) -> None:
        if block < self.block:
            raise GenerationError(f"cannot move back to block {block} from {self.block}")
        if block > self.block:
            self.block = block
            self._tx = 0
            self._log = 0

    def emit(self, kind: str, market: str | None, payload: dict[str, Any], same_tx: bool = False) -> None:
        if self.events and self.events[-1].key.block == self.block:
            if same_tx:
                self._log += 1
            else:
                self._tx += 1
                self._log = 0
        event = EventRecord(
            key=OrderingKey(self.block, self._tx, self._log),
            kind=kind,
            market=market,
            payload=payload,
        )
        self.events.append(event)
        self.tracker.apply(event)


def _require_int(value: Any, name: str) -> None:
    # bool is an int subclass, but True is no seed or count.
    if type(value) is not int:
        raise GenerationError(f"{name} must be an integer, not {value!r}")


def _require_range(check: Callable[[object], Dec], value: Dec, name: str) -> None:
    # The parse layer's checker for the field the value is written to, so
    # that a spec cannot describe a stream that replay rejects.
    try:
        check(str(value))
    except ValueError as exc:
        raise GenerationError(f"{name} {value}: {exc}") from None


def _validate_spec(spec: ScenarioSpec) -> None:
    for name in ("seed", "accounts", "event_count", "checkpoint_count"):
        _require_int(getattr(spec, name), name)
    _require_range(_dec_fraction, spec.close_factor, "close_factor")
    _require_range(_dec_nonneg, spec.liquidation_incentive, "liquidation_incentive")
    if not 0 <= spec.seed < 2 ** 64:
        raise GenerationError("seed must be an unsigned 64-bit integer")
    if spec.accounts < 1:
        raise GenerationError("at least one account required")
    if spec.event_count < 20:
        raise GenerationError("event_count must be at least 20")
    if not spec.markets:
        raise GenerationError("at least one market required")
    symbols = [m.symbol for m in spec.markets]
    for symbol in symbols:
        if not isinstance(symbol, str) or not symbol:
            raise GenerationError(f"market symbol {symbol!r} is not a non-empty string")
    if len(set(symbols)) != len(symbols):
        raise GenerationError("market symbols must be unique")
    reserved = {"PLD", "CONC"} | {f"PLC{i}" for i in range(len(spec.planned_liquidations))}
    clash = reserved & set(symbols)
    if clash:
        raise GenerationError(f"market symbols {sorted(clash)} are reserved for planned structure")
    for market in spec.markets:
        _require_range(_dec_positive, market.initial_exchange_rate, f"market {market.symbol} initial_exchange_rate")
        _require_range(_dec_fraction, market.collateral_factor, f"market {market.symbol} collateral_factor")
        floor, cap = market.price.bounds()
        if not (ZERO < floor <= market.price.initial <= cap):
            raise GenerationError(f"price bounds for {market.symbol} must satisfy 0 < floor <= initial <= cap")
        _require_int(market.price.max_step_bps, "max_step_bps")
        if market.price.max_step_bps < 1:
            raise GenerationError("max_step_bps must be positive")
    seen_accounts = set()
    for plan in spec.planned_liquidations:
        if not is_valid_address(plan.account):
            raise GenerationError(f"planned account {plan.account!r} is not a valid address")
        if plan.account in seen_accounts:
            raise GenerationError(f"account {plan.account} appears in more than one plan")
        seen_accounts.add(plan.account)
        _require_int(plan.liquidable_block, "liquidable_block")
        _require_int(plan.liquidation_block, "liquidation_block")
        if plan.liquidation_block < plan.liquidable_block:
            raise GenerationError("liquidation_block must not precede liquidable_block")
    if spec.planned_concentration is not None:
        if spec.planned_concentration.side not in ("supply", "borrow"):
            raise GenerationError("concentration side must be 'supply' or 'borrow'")
        shares = spec.planned_concentration.shares
        if not shares:
            raise GenerationError("concentration plan needs at least one share")
        total = ZERO
        previous = ONE
        for share in shares:
            if share <= ZERO or share >= ONE:
                raise GenerationError("planted shares must lie in (0, 1)")
            if share > previous:
                raise GenerationError("planted shares must be non-increasing")
            previous = share
            total = total + share
        if total >= ONE:
            raise GenerationError("planted shares must sum to less than 1")
    if not 1 <= spec.checkpoint_count <= 50:
        raise GenerationError("checkpoint_count must lie in [1, 50]")


@dataclass(frozen=True)
class GeneratedScenario:
    events_path: str
    annotations_path: str
    event_count: int
    final_block: int


def _interest_event(
    tracker: _NaiveState, rng: Random, symbol: str
) -> dict[str, Any] | None:
    """AccrueInterest payload with growth in [1.0, 1.001], health-guarded."""
    market = tracker.markets[symbol]
    for attempt in range(3):
        growth = Dec.from_mantissa(rng.randrange(0, 10 ** 15 + 1) >> attempt)
        new_index = market.index * (ONE + growth)
        if not tracker.drift_safe(symbol, index_override={symbol: new_index}):
            continue
        rate_growth = Dec.from_mantissa(rng.randrange(0, 10 ** 15 + 1))
        new_rate = market.rate * (ONE + rate_growth)
        interest = ZERO
        for account in tracker.members.get(symbol, ()):
            pos = tracker.positions[account][symbol]
            if pos.principal.is_zero():
                continue
            interest = interest + (
                tracker._accrued(pos, new_index) - tracker._accrued(pos, market.index)
            )
        return {
            "new_borrow_index": new_index,
            "new_exchange_rate": new_rate,
            "interest_accumulated_underlying": interest,
        }
    return None


def generate(spec: ScenarioSpec, events_path: str, annotations_path: str) -> GeneratedScenario:
    """Write an event stream and its annotation file; fails loudly when
    the plan cannot be realized."""
    _validate_spec(spec)
    rng = Random(spec.seed)
    tracker = _NaiveState()
    emitter = _Emitter(tracker)

    actors = ["0x" + format(0xA0000 + i, "040x") for i in range(spec.accounts)]
    planned_accounts = {p.account for p in spec.planned_liquidations}
    actors = [a for a in actors if a not in planned_accounts]
    if not actors:
        raise GenerationError("all actor accounts are consumed by plans")

    # --- Setup: close factor, listings, prices, planned positions.
    emitter.emit("NewCloseFactor", None, {"new_close_factor": spec.close_factor})
    # (symbol, exchange rate, collateral factor, price) in listing order.
    listings = [
        (m.symbol, m.initial_exchange_rate, m.collateral_factor, m.price.initial)
        for m in spec.markets
    ]
    if spec.planned_liquidations:
        listings.append(("PLD", _PLAN_RATE, _PLAN_FACTOR, ONE))
    for i in range(len(spec.planned_liquidations)):
        listings.append((f"PLC{i}", _PLAN_RATE, _PLAN_FACTOR, _PLAN_COLL_PRICE))
    if spec.planned_concentration is not None:
        listings.append(("CONC", _PLAN_RATE, _PLAN_FACTOR, ONE))
    for symbol, rate, factor, price in listings:
        emitter.emit(
            "MarketListed",
            symbol,
            {"initial_exchange_rate": rate, "initial_collateral_factor": factor},
        )
        emitter.emit("PriceUpdate", symbol, {"price_usd": price})

    emitter.goto(emitter.block + 1)
    for i, plan in enumerate(spec.planned_liquidations):
        underlying = _PLAN_CTOKENS * _PLAN_RATE
        emitter.emit(
            "Mint",
            f"PLC{i}",
            {
                "account": plan.account,
                "amount_underlying": underlying,
                "amount_ctokens": _PLAN_CTOKENS,
            },
        )
        emitter.emit(
            "Borrow", "PLD", {"account": plan.account, "amount_underlying": _PLAN_DEBT}
        )
    setup_end = emitter.block
    for plan in spec.planned_liquidations:
        if plan.liquidable_block <= setup_end:
            raise GenerationError(
                f"plan for {plan.account} needs liquidable_block > {setup_end} "
                f"(setup occupies earlier blocks)"
            )

    # --- Random walk with pinned plan steps.
    conc = spec.planned_concentration
    reserved = 0 if conc is None else len(conc.shares) * (1 if conc.side == "supply" else 2)
    steps: list[tuple[int, str, int]] = []
    for i, plan in enumerate(spec.planned_liquidations):
        steps.append((plan.liquidable_block, "drop", i))
        steps.append((plan.liquidation_block, "liquidate", i))
    steps.sort()

    base_symbols = [m.symbol for m in spec.markets]
    specs_by_symbol = {m.symbol: m for m in spec.markets}

    def random_event() -> bool:
        """Emit one guarded random event; returns False if nothing fit."""
        for _ in range(6):
            action = rng.choice(
                ["mint", "mint", "mint", "borrow", "borrow", "repay", "repay",
                 "redeem", "accrue", "price", "price", "governance"]
            )
            symbol = rng.choice(base_symbols)
            market = tracker.markets[symbol]
            account = rng.choice(actors)
            if action == "mint":
                underlying = Dec(rng.randrange(1, 500))
                ctokens = underlying / market.rate
                if ctokens.is_zero():
                    continue
                emitter.emit(
                    "Mint",
                    symbol,
                    {
                        "account": account,
                        "amount_underlying": underlying,
                        "amount_ctokens": ctokens,
                    },
                )
                return True
            if action == "borrow":
                price = tracker.prices[symbol]
                power, borrow_value, _ = tracker.health(account)
                headroom = power - borrow_value * _GUARD_MARGIN
                if headroom <= ZERO:
                    continue
                value = headroom * Dec(rng.randrange(10, 50)) / Dec(100)
                amount = value / price
                if amount.is_zero():
                    continue
                new_borrow = borrow_value + amount * price
                if power < new_borrow * _GUARD_MARGIN:
                    continue
                payload = _interest_event(tracker, rng, symbol) if rng.random() < 0.25 else None
                if payload is not None:
                    emitter.emit("AccrueInterest", symbol, payload)
                emitter.emit(
                    "Borrow",
                    symbol,
                    {"account": account, "amount_underlying": amount},
                    same_tx=payload is not None,
                )
                return True
            if action == "repay":
                accrued = tracker.accrued_of(account, symbol)
                if accrued.is_zero():
                    continue
                if rng.random() < 0.2:
                    amount = accrued  # exact full repayment
                else:
                    amount = accrued * Dec(rng.randrange(10, 90)) / Dec(100)
                if amount.is_zero():
                    continue
                emitter.emit(
                    "RepayBorrow",
                    symbol,
                    {"account": account, "payer": account, "amount_underlying": amount},
                )
                return True
            if action == "redeem":
                held = tracker.ctokens_of(account, symbol)
                if held.is_zero():
                    continue
                # Derive ctokens from underlying so redeemed amounts stay
                # consistent at the exchange rate.
                underlying = (held * market.rate) * Dec(rng.randrange(5, 60)) / Dec(100)
                ctokens = underlying / market.rate
                if ctokens.is_zero() or ctokens > held:
                    continue
                price = tracker.prices[symbol]
                power, borrow_value, _ = tracker.health(account)
                loss = ((ctokens * market.rate) * market.factor) * price
                if power - loss < borrow_value * _GUARD_MARGIN:
                    continue
                emitter.emit(
                    "Redeem",
                    symbol,
                    {
                        "account": account,
                        "amount_underlying": underlying,
                        "amount_ctokens": ctokens,
                    },
                )
                return True
            if action == "accrue":
                payload = _interest_event(tracker, rng, symbol)
                if payload is None:
                    continue
                emitter.emit("AccrueInterest", symbol, payload)
                return True
            if action == "price":
                path = specs_by_symbol[symbol].price
                floor, cap = path.bounds()
                current = tracker.prices[symbol]
                for attempt in range(3):
                    step_bps = rng.randrange(1, path.max_step_bps + 1) >> attempt
                    if step_bps == 0:
                        break
                    step = Dec.from_mantissa(step_bps * 10 ** 14)
                    factor = (ONE - step) if rng.random() < 0.5 else (ONE + step)
                    candidate = current * factor
                    if candidate < floor:
                        candidate = floor
                    if candidate > cap:
                        candidate = cap
                    if candidate == current or candidate <= ZERO:
                        continue
                    if tracker.drift_safe(symbol, price_override={symbol: candidate}):
                        emitter.emit("PriceUpdate", symbol, {"price_usd": candidate})
                        return True
                continue
            if action == "governance":
                roll = rng.random()
                if roll < 0.35:
                    new_factor = Dec(rng.randrange(60, 91)) / Dec(100)
                    if new_factor < market.factor and not tracker.drift_safe(
                        symbol, factor_override={symbol: new_factor}
                    ):
                        continue
                    emitter.emit("NewCollateralFactor", symbol, {"new_factor": new_factor})
                elif roll < 0.55:
                    emitter.emit(
                        "NewCloseFactor",
                        None,
                        {"new_close_factor": Dec(rng.randrange(30, 71)) / Dec(100)},
                    )
                elif roll < 0.8:
                    emitter.emit(
                        "NewInterestRateModel",
                        symbol,
                        {"model_id": rng.choice(["jump-rate-v1", "jump-rate-v2", "linear-v1"])},
                    )
                else:
                    emitter.emit(
                        "NewInterestParams",
                        symbol,
                        {
                            "params_blob": {
                                "base": Dec(rng.randrange(0, 500)) / Dec(10000),
                                "slope": Dec(rng.randrange(100, 3000)) / Dec(10000),
                            }
                        },
                    )
                return True
        return False

    def run_plan_step(kind: str, index: int) -> None:
        plan = spec.planned_liquidations[index]
        symbol = f"PLC{index}"
        if kind == "drop":
            if tracker.is_liquidable(plan.account):
                raise GenerationError(
                    f"{plan.account} became liquidable before block {plan.liquidable_block}"
                )
            new_price = tracker.prices[symbol] * _PLAN_DROP
            emitter.emit("PriceUpdate", symbol, {"price_usd": new_price})
            if not tracker.is_liquidable(plan.account):
                raise GenerationError(
                    f"price drop failed to make {plan.account} liquidable at block "
                    f"{plan.liquidable_block}"
                )
        else:
            if not tracker.is_liquidable(plan.account):
                raise GenerationError(
                    f"{plan.account} is not liquidable at its liquidation block "
                    f"{plan.liquidation_block}"
                )
            accrued = tracker.accrued_of(plan.account, "PLD")
            repay = tracker.close_factor * accrued
            if repay.is_zero():
                raise GenerationError(f"planned repay for {plan.account} is zero")
            seized_value = repay * (ONE + spec.liquidation_incentive)
            seized = seized_value / (tracker.prices[symbol] * tracker.markets[symbol].rate)
            held = tracker.ctokens_of(plan.account, symbol)
            if seized > held:
                raise GenerationError(
                    f"planned seizure {seized} exceeds collateral {held} for {plan.account}"
                )
            emitter.emit(
                "LiquidateBorrow",
                "PLD",
                {
                    "borrower": plan.account,
                    "liquidator": _LIQUIDATOR,
                    "repay_amount_underlying": repay,
                    "collateral_market": symbol,
                    "seized_ctokens": seized,
                },
            )

    emitter.goto(emitter.block + 1)
    random_budget = spec.event_count - reserved
    step_pos = 0
    stall = 0
    while step_pos < len(steps) or len(emitter.events) < random_budget:
        while step_pos < len(steps) and steps[step_pos][0] == emitter.block:
            _, kind, index = steps[step_pos]
            run_plan_step(kind, index)
            step_pos += 1
        if step_pos < len(steps) and steps[step_pos][0] < emitter.block:
            raise GenerationError(
                f"plan step at block {steps[step_pos][0]} was skipped (now at {emitter.block})"
            )

        made_progress = False
        if len(emitter.events) < random_budget:
            for _ in range(rng.randrange(1, 4)):
                if len(emitter.events) >= random_budget:
                    break
                if random_event():
                    made_progress = True
        if step_pos < len(steps):
            next_block = steps[step_pos][0]
            if len(emitter.events) >= random_budget:
                emitter.goto(next_block)
            else:
                emitter.goto(min(emitter.block + rng.randrange(1, 3), next_block))
                if emitter.block == next_block:
                    continue
        else:
            if len(emitter.events) >= random_budget:
                break
            emitter.goto(emitter.block + rng.randrange(1, 3))
        stall = 0 if made_progress or step_pos < len(steps) else stall + 1
        if stall > 1000:
            raise GenerationError("generation stalled before reaching the event budget")

    # --- Concentration corrections, emitted last so nothing shifts after.
    if conc is not None:
        emitter.goto(emitter.block + 1)
        whales = ["0x" + format(0xC0000 + i, "040x") for i in range(len(conc.shares))]
        existing = ZERO
        best_existing = ZERO
        for account in sorted(tracker.positions):
            _, borrow_value, collateral_value = tracker.health(account)
            value = collateral_value if conc.side == "supply" else borrow_value
            existing = existing + value
            if value > best_existing:
                best_existing = value
        share_sum = ZERO
        for share in conc.shares:
            share_sum = share_sum + share
        scale = ONE - share_sum
        conc_market = tracker.markets["CONC"]
        for whale, share in zip(whales, conc.shares):
            target_value = (share * existing) / scale
            if target_value <= best_existing:
                raise GenerationError(
                    f"planted share {share} yields value {target_value}, not above the "
                    f"largest existing account ({best_existing}); infeasible ranking"
                )
            if conc.side == "supply":
                # CONC is priced at 1, so underlying value equals USD value.
                collateral = target_value
            else:
                collateral = (target_value * Dec(3)) / conc_market.factor
            emitter.emit(
                "Mint",
                "CONC",
                {
                    "account": whale,
                    "amount_underlying": collateral,
                    "amount_ctokens": collateral / conc_market.rate,
                },
            )
            if conc.side == "borrow":
                emitter.emit(
                    "Borrow", "CONC", {"account": whale, "amount_underlying": target_value}
                )

    events = emitter.events
    final_block = events[-1].key.block
    first_block = events[0].key.block

    # --- Annotations from a fresh, independent naive replay.
    if spec.checkpoint_count == 1 or final_block == first_block:
        checkpoint_blocks = [final_block]
    else:
        span = final_block - first_block
        checkpoint_blocks = sorted(
            {first_block + (span * i) // (spec.checkpoint_count - 1) for i in range(spec.checkpoint_count)}
            | {final_block}
        )
    truth = ground_truth(events, checkpoint_blocks)

    planned_by_account = {p.account: p for p in spec.planned_liquidations}
    matched = set()
    for record in truth.efficiency:
        plan = planned_by_account.get(record.account)
        if plan is None or record.warned:
            raise GenerationError(f"unplanned liquidation record for {record.account}")
        if (
            record.start_block != plan.liquidable_block
            or record.liquidation_block != plan.liquidation_block
        ):
            raise GenerationError(
                f"efficiency record for {record.account} does not match its plan"
            )
        matched.add(record.account)
    if matched != set(planned_by_account):
        raise GenerationError("some planned liquidations never produced records")
    for checkpoint in truth.checkpoints:
        for account in checkpoint.liquidable:
            if account not in planned_by_account:
                raise GenerationError(
                    f"unplanned account {account} is liquidable at block {checkpoint.block}"
                )

    write_events(events_path, events)
    declared = spec_to_dict(spec)
    annotation = {
        "format_version": ANNOTATION_FORMAT_VERSION,
        **{
            key: declared[key]
            for key in ("seed", "close_factor", "liquidation_incentive",
                        "planned_liquidations", "planned_concentration")
        },
        "event_count": len(events),
        "first_block": first_block,
        "final_block": final_block,
        **ground_truth_to_dict(truth),
    }
    with open(annotations_path, "wb") as handle:
        handle.write(_encode_canonical(annotation))
    return GeneratedScenario(
        events_path=events_path,
        annotations_path=annotations_path,
        event_count=len(events),
        final_block=final_block,
    )
