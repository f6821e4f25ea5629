"""Liquidation efficiency, concentration, and locked-funds analytics.

track_efficiency observes engine._fold, the one event loop, timing how long
positions stay liquidable before someone liquidates them. After each event
it values, through risk.LiquidableCache.liquidable, only the accounts that
LiquidableCache.changed names from engine._apply's report: those whose
positions the event wrote, and the holders of the market it re-priced (a
listing counts as one) whose movement budget that move used up. A
holder's budget bounds how far its markets may move before its sign, or
any check of a full valuation, could change; within it the holder is not
touched at all. A valued account is valued in full, each position
afresh, with its sums added in holdings order. So the sign and every
failure are exactly those of a full valuation, and the cost follows the
accounts that come near the liquidation line, not the holders of each
re-priced market. Full re-evaluation values every account with
account_health after every event, without the movement clocks: it is the
cross-check (the oracle-test mode).
funds_time_series folds the stream in one pass and values each sample block
before the first event beyond it applies: the markets' supplied and
borrowed USD on int mantissas, with Dec's truncation order and carrier
checks, wrapping the sums in Dec once per row. A sample that no event
reached since the previous one repeats that row's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

from .engine import ReplayReport, _fold, _warn
from .events import EventRecord, OrderingKey
from .fixedpoint import ZERO, Dec, checked, trunc_mul
from .model import GlobalState, MissingPriceError
from .risk import LiquidableCache, _sums, account_health

NOT_LIQUIDABLE_WARNING = "not-liquidable-at-engine-precision"


@dataclass(frozen=True)
class Streak:
    """One stretch of time an account spent liquidable."""

    account: str
    start: OrderingKey
    end: OrderingKey | None  # closing liquidation's key; None if still open


@dataclass(frozen=True)
class LiquidationRecord:
    """One executed liquidation and how stale its streak was."""

    account: str
    key: OrderingKey
    blocks_elapsed: int
    seized_value_usd: Dec
    warning: str | None = None


@dataclass
class EfficiencyTimeline:
    streaks: list[Streak] = field(default_factory=list)
    liquidations: list[LiquidationRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _seized_value(state: GlobalState, event: EventRecord) -> Dec:
    # Valued after the liquidation is applied, at the exchange rate and
    # price in force when it executes: the event itself changes neither.
    symbol = event.payload["collateral_market"]
    market = state.markets[symbol]
    price = state.price_table.get(symbol)
    return (event.payload["seized_ctokens"] * market.exchange_rate) * price


def track_efficiency(
    state: GlobalState,
    events: Iterable[EventRecord],
    full_reeval: bool = False,
) -> EfficiencyTimeline:
    """Replay a stream (mutating ``state``) and time liquidable streaks.

    A streak opens at the first event leaving an account's surplus
    negative. Recovery closes it silently; a LiquidateBorrow closes it
    with a record of blocks elapsed and the USD value seized. A
    liquidation that finds no open streak records zero blocks and a
    warning: at engine precision the account was never liquidable. The
    engine's own warnings come first, in event order.
    """
    timeline = EfficiencyTimeline()
    open_streaks: dict[str, OrderingKey] = {}
    cache = LiquidableCache(state)
    if full_reeval:
        def liquidable(account: str) -> bool:
            return account_health(state, account).liquidable
    else:
        liquidable = cache.liquidable

    for account in state.participants:
        if liquidable(account):
            key = state.cursor if state.cursor is not None else OrderingKey(0, 0, 0)
            open_streaks[account] = key

    def observe(
        event: EventRecord, warnings: list[str], accounts: tuple[str, ...], repriced: str | None
    ) -> None:
        if event.kind == "LiquidateBorrow":
            borrower = event.payload["borrower"]
            start = open_streaks.pop(borrower, None)
            if start is None:
                record = LiquidationRecord(
                    account=borrower,
                    key=event.key,
                    blocks_elapsed=0,
                    seized_value_usd=_seized_value(state, event),
                    warning=NOT_LIQUIDABLE_WARNING,
                )
                _warn(warnings, event, f"{NOT_LIQUIDABLE_WARNING}: {borrower}")
            else:
                record = LiquidationRecord(
                    account=borrower,
                    key=event.key,
                    blocks_elapsed=event.key.block - start.block,
                    seized_value_usd=_seized_value(state, event),
                )
                timeline.streaks.append(Streak(account=borrower, start=start, end=event.key))
            timeline.liquidations.append(record)

        for account in sorted(state.participants) if full_reeval else cache.changed(accounts, repriced):
            underwater = liquidable(account)
            if underwater and account not in open_streaks:
                open_streaks[account] = event.key
            elif not underwater and account in open_streaks:
                del open_streaks[account]  # recovered: closes without record

    _fold(state, events, ReplayReport(warnings=timeline.warnings), observe)

    for account in sorted(open_streaks):
        timeline.streaks.append(Streak(account=account, start=open_streaks[account], end=None))
    return timeline


@dataclass(frozen=True)
class CdfPoint:
    blocks: int
    cumulative_fraction: Dec


def efficiency_cdf(
    timeline: EfficiencyTimeline, weighting: Literal["value", "count"] = "value"
) -> list[CdfPoint]:
    """Cumulative distribution of blocks-to-liquidation.

    Weighted by seized USD value or by liquidation count. Points appear at
    each distinct blocks_elapsed; the final fraction is exactly 1 whenever
    any mass exists.
    """
    if weighting not in ("value", "count"):
        raise ValueError("weighting must be 'value' or 'count'")
    mass: dict[int, Dec] = {}
    for record in timeline.liquidations:
        weight = record.seized_value_usd if weighting == "value" else Dec(1)
        mass[record.blocks_elapsed] = mass.get(record.blocks_elapsed, ZERO) + weight
    total = ZERO
    for weight in mass.values():
        total = total + weight
    if total.is_zero():
        return []
    points: list[CdfPoint] = []
    cumulative = ZERO
    for blocks in sorted(mass):
        cumulative = cumulative + mass[blocks]
        points.append(CdfPoint(blocks=blocks, cumulative_fraction=cumulative / total))
    return points


@dataclass(frozen=True)
class ConcentrationRow:
    rank: int
    account: str
    value_usd: Dec
    share: Dec


@dataclass
class ConcentrationReport:
    """How concentrated one side of the book is across accounts."""

    side: Literal["supply", "borrow"]
    total_usd: Dec
    top1_share: Dec
    topn_share: Dec
    top_n: int
    rows: list[ConcentrationRow]
    undefined: bool = False  # true when the side's total is zero


def concentration(
    state: GlobalState, side: Literal["supply", "borrow"], top_n: int
) -> ConcentrationReport:
    """Rank accounts by USD value on one side of the book.

    Each account's side is its collateral or borrow sum from the valuation
    kernel, with the kernel's truncation and carrier checks; no health
    record and no ratio are computed, so neither can fail here.
    """
    if side not in ("supply", "borrow"):
        raise ValueError("side must be 'supply' or 'borrow'")
    if top_n < 1:
        raise ValueError("top_n must be at least 1")

    values: list[tuple[str, Dec]] = []
    for account, holdings in sorted(state.participants.items()):
        _, borrow, collateral, _, _ = _sums(state.markets, holdings, state.price_table.prices)
        values.append((account, Dec.from_mantissa(collateral if side == "supply" else borrow)))
    # Descending by value; address breaks ties for a stable ranking.
    values.sort(key=lambda item: (-item[1].mantissa, item[0]))

    total = ZERO
    for _, value in values:
        total = total + value
    undefined = total.is_zero()

    rows: list[ConcentrationRow] = []
    top_sum = ZERO
    for rank, (account, value) in enumerate(values, start=1):
        share = ZERO if undefined else value / total
        rows.append(ConcentrationRow(rank=rank, account=account, value_usd=value, share=share))
        if rank <= top_n:
            top_sum = top_sum + value
    top1 = rows[0].share if rows and not undefined else ZERO
    topn = ZERO if undefined else top_sum / total
    return ConcentrationReport(
        side=side,
        total_usd=total,
        top1_share=top1,
        topn_share=topn,
        top_n=top_n,
        rows=rows,
        undefined=undefined,
    )


@dataclass(frozen=True)
class FundsRow:
    """Aggregate USD funds at one sampled block."""

    block: int
    supplied_usd: Dec
    borrowed_usd: Dec
    locked_usd: Dec  # supplied - borrowed; negative when borrows exceed supply


def _funds_row(state: GlobalState, block: int) -> FundsRow:
    # Dec's truncation order on mantissas: (supply * rate) * price and
    # borrows * price, markets in sorted-symbol order, every product and
    # partial sum checked against the carrier.
    supplied = borrowed = 0
    prices = state.price_table.prices
    for symbol in sorted(state.markets):
        market = state.markets[symbol]
        supply = market.total_ctoken_supply.mantissa
        borrows = market.total_borrows.mantissa
        if not supply and not borrows:
            continue
        price = prices.get(symbol)
        if price is None:
            raise MissingPriceError(symbol)
        value = trunc_mul(trunc_mul(supply, market.exchange_rate.mantissa), price.mantissa)
        supplied = checked(supplied + value)
        borrowed = checked(borrowed + trunc_mul(borrows, price.mantissa))
    return FundsRow(
        block=block,
        supplied_usd=Dec.from_mantissa(supplied),
        borrowed_usd=Dec.from_mantissa(borrowed),
        locked_usd=Dec.from_mantissa(supplied - borrowed),
    )


def funds_time_series(
    state: GlobalState, events: Iterable[EventRecord], stride: int = 1
) -> tuple[list[FundsRow], list[str]]:
    """Supplied / borrowed / locked USD sampled every ``stride`` blocks,
    with the engine's warnings.

    Samples start at the first event's block and always include the final
    block; each row values the state after all events with block <= the
    sample block. With no events a single all-zero row is returned.
    A sample whose slice of the stream is empty repeats the previous row's
    values under its own block: no event reached the state since.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    report = ReplayReport()
    rows: list[FundsRow] = []
    valued = 0  # events applied when the last row was valued
    sample = last = None  # the next sample block, and the last event's

    def row_at(block: int) -> None:
        nonlocal valued
        if report.events_applied > valued:
            rows.append(_funds_row(state, block))
            valued = report.events_applied
        else:
            row = rows[-1]
            rows.append(FundsRow(block, row.supplied_usd, row.borrowed_usd, row.locked_usd))

    def sampled() -> Iterator[EventRecord]:
        # One pass: a sample is valued once an event beyond it arrives, so
        # before that event applies. Keys strictly increase, so blocks are
        # sorted; the first sample is the first event's block, so its slice
        # is never empty.
        nonlocal sample, last
        for event in events:
            last = event.key.block
            if sample is None:
                sample = last
            while last > sample:
                row_at(sample)
                sample += stride
            yield event

    _fold(state, sampled(), report)
    if last is None:
        return [FundsRow(0, ZERO, ZERO, ZERO)], []
    row_at(last)  # the final block, known only at the end of the stream
    return rows, report.warnings
