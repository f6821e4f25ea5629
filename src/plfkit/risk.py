"""Account health, liquidation math, and price sensitivity.

Health follows the borrowing-capacity rule: discounted collateral
(ctoken_balance * exchange_rate * collateral_factor * price, truncating in
that order) must cover the accrued borrow value. An account is liquidable
exactly when the surplus is strictly negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

from .fixedpoint import (
    MANTISSA_BOUND, ONE, SCALE, ZERO, Dec, DecOverflowError, checked, trunc_div, trunc_mul, trunc_muldiv,
)
from .model import GlobalState, MarketState, MissingPriceError, Position


@dataclass(frozen=True)
class AccountHealth:
    """Valuations for one account, all in USD."""

    collateral_power_usd: Dec
    borrow_value_usd: Dec
    surplus_usd: Dec
    collateral_value_usd: Dec
    ratio: Dec | None  # power / borrow value; None when nothing is borrowed

    @property
    def liquidable(self) -> bool:
        return self.surplus_usd.is_negative()


_EMPTY_HEALTH = AccountHealth(ZERO, ZERO, ZERO, ZERO, None)

# power, borrow value, collateral value, unpriced terms, missing price
_Sums = tuple[int, int, int, tuple[int, int, int] | None, str | None]
# A valuation's record for _budget: sums, debt, and (market, unpriced terms) per position
_Record = tuple[tuple[int, int, int] | None, bool, list[tuple[str, tuple[int, int, int] | None]]]


def _terms(position: Position, market: MarketState) -> tuple[int, int, int]:
    """One position's unpriced terms as mantissas: ctokens * rate, that
    times the collateral factor, and the accrued borrow."""
    base = trunc_mul(position.ctoken_balance.mantissa, market.exchange_rate.mantissa)
    principal = position.borrow_principal.mantissa
    return (
        base,
        trunc_mul(base, market.collateral_factor.mantissa),
        # Position.accrued_borrow on mantissas: no division without a debt.
        trunc_muldiv(principal, market.borrow_index.mantissa, position.borrow_index_snapshot.mantissa)
        if principal else 0,
    )


def _priced(terms: tuple[int, int, int], price: int) -> tuple[int, int, int]:
    """Collateral value, collateral power and borrow value of one
    position's terms at ``price`` (a mantissa)."""
    base, power_base, accrued = terms
    # A zero term prices to zero (power_base is zero with base): a supplier
    # or a borrower alone costs one or two products, not three.
    return (
        trunc_mul(base, price) if base else 0,
        trunc_mul(power_base, price) if base else 0,
        trunc_mul(accrued, price) if accrued else 0,
    )


def _sums(
    markets: Mapping[str, MarketState],
    holdings: Mapping[str, Position],
    prices: Mapping[str, Dec],
    unpriced: str | None = None,
) -> _Sums:
    """One account's collateral power, borrow value and collateral value.

    Sums are mantissas, built position by position in holdings order with
    Dec's truncation and carrier check at every product and partial sum.
    The market ``unpriced`` stays out of the sums; its terms come back
    unpriced as (ctokens * rate, that times the factor, accrued borrow),
    or None without a non-empty position there. A price missing before
    those terms raises MissingPriceError. One missing after them stops the
    sums where they are and comes back as the last element, for the
    caller to raise once it has priced the terms.
    """
    power = borrow = collateral = 0
    terms = None
    for symbol, position in holdings.items():
        if position.is_empty():
            continue
        market = markets[symbol]
        if symbol != unpriced:
            price = prices.get(symbol)
            if price is None:
                if terms is None:
                    raise MissingPriceError(symbol)
                return power, borrow, collateral, terms, symbol
        position_terms = _terms(position, market)
        if symbol == unpriced:
            terms = position_terms
            continue
        collateral_term, power_term, borrow_term = _priced(position_terms, price.mantissa)
        collateral = checked(collateral + collateral_term)
        power = checked(power + power_term)
        borrow = checked(borrow + borrow_term)
    return power, borrow, collateral, terms, None


def _at_price(sums: _Sums, price: int) -> tuple[int, int, int]:
    """Power, borrow value and collateral value from ``_sums``, with the
    market it left unpriced now priced at ``price`` (a mantissa)."""
    power, borrow, collateral, terms, missing = sums
    if terms is not None:
        base, power_base, accrued = terms
        if base:
            collateral = checked(collateral + trunc_mul(base, price))
            power = checked(power + trunc_mul(power_base, price))
        if accrued:
            borrow = checked(borrow + trunc_mul(accrued, price))
    if missing is not None:
        raise MissingPriceError(missing)
    return power, borrow, collateral


def _health(
    state: GlobalState, account: str, prices: Mapping[str, Dec]
) -> AccountHealth:
    holdings = state.participants.get(account)
    if not holdings:
        return _EMPTY_HEALTH
    power, borrow, collateral, _, _ = _sums(state.markets, holdings, prices)
    power_usd = Dec.from_mantissa(power)
    borrow_usd = Dec.from_mantissa(borrow)
    return AccountHealth(
        collateral_power_usd=power_usd,
        borrow_value_usd=borrow_usd,
        surplus_usd=power_usd - borrow_usd,
        collateral_value_usd=Dec.from_mantissa(collateral),
        ratio=None if borrow == 0 else power_usd / borrow_usd,
    )


def account_health(state: GlobalState, account: str) -> AccountHealth:
    """Value one account at current prices.

    Raises MissingPriceError if any market holding a nonzero position for
    this account lacks a price.
    """
    return _health(state, account, state.price_table.prices)


# Movement clocks count relative movement in units of 1 / _CLOCK_ONE.
_CLOCK_ONE = 1 << 64
# The largest budget, 1/4. Moves of relative sizes g_1, g_2, ... with
# sum G <= 1/4 leave a scale within [1 - G, e**G] of where it was, inside
# [1 - 2G, 1 + 2G], and so within [1/2, 3/2].
_MAX_BUDGET = _CLOCK_ONE // 4
# A step beyond every budget: the move expires every holder.
_UNBOUNDED = _MAX_BUDGET + 1
_SCALE_SQUARED = SCALE * SCALE


def _scales(market: MarketState, price: Dec | None) -> tuple[int, int, int, int, int] | None:
    """A market's per-unit scales as exact mantissa products: price,
    factor * price, rate * price (collateral value per cToken), rate *
    factor * price (power per cToken) and index * price (borrow value per
    unit of principal over snapshot). None without a price."""
    if price is None:
        return None
    price = price.mantissa
    factor_price = market.collateral_factor.mantissa * price
    rate = market.exchange_rate.mantissa
    return price, factor_price, rate * price, rate * factor_price, market.borrow_index.mantissa * price


def _step(old: tuple | None, new: tuple | None) -> int:
    """The largest relative move of any scale from ``old`` to ``new``,
    rounded up in clock units: 0 only when no scale moved. A scale that
    was negative or 0 and is no longer, a price that was not positive and
    a missing price make the step unbounded."""
    if old is None or new is None or old[0] <= 0:
        return _UNBOUNDED
    step = 0
    for before, after in zip(old, new):
        if before > 0:
            move = -(-abs(after - before) * _CLOCK_ONE // before)
            if move > step:
                step = move
        elif before < 0 or after:
            return _UNBOUNDED
    return step


class _Clock:
    """One market's movement clock: its scales at its last move (None when
    unpriced), its time (the movement so far, in clock units) and a heap
    of (deadline, account, generation) entries, live while the generation
    is the account's. For _budget it also keeps a position's term error
    bound and the collateral factor's whole units at the last move's
    inputs."""

    __slots__ = ("scales", "error", "units", "time", "due")

    def __init__(self, market: MarketState, price: Dec | None):
        self.time = self.error = self.units = 0
        self.due: list[tuple[int, str, int]] = []
        self._take(market, price)

    def _take(self, market: MarketState, price: Dec | None) -> None:
        self.scales = _scales(market, price)
        if price is not None:
            price, factor = abs(price.mantissa), abs(market.collateral_factor.mantissa)
            # A position's three term errors (see _budget), rounded up to
            # whole units: 3 + 3p + fp <= 7 + 3 floor(p) + floor(fp), p
            # and f the price and factor in units.
            self.error = 7 + 3 * (price // SCALE) + factor * price // _SCALE_SQUARED
            self.units = factor // SCALE

    def move(self, market: MarketState, price: Dec | None) -> int:
        """Take the market's inputs as they stand, advancing the time by
        the step from the last ones; returns the step."""
        old = self.scales
        self._take(market, price)
        step = _step(old, self.scales)
        self.time += step
        return step


class LiquidableCache:
    """``account_health(state, account).liquidable`` for the accounts of
    one state, valued only when their sign may have changed.

    ``liquidable`` is the one exact valuation. It values every non-empty
    position afresh with ``_terms`` and ``_priced`` and adds the products
    in holdings order, with the carrier check at every product and partial
    sum; the ratio account_health computes is checked too. So whatever
    changed the state (an event, a direct mutation or a replaced
    position), a valuation answers or fails exactly as account_health
    does.

    ``changed`` serves a caller that reports each event's written accounts
    and the market it re-priced or listed, as track_efficiency does from
    engine._apply's report. Each market keeps a movement clock: a move
    advances it by the largest relative change of the market's scales
    (``_scales``) since its previous move, rounded up, or by more than any
    budget when that change is unbounded. Each valuation keeps a record of
    its own: its sums, whether the account has a debt, and each non-empty
    position's market and unpriced terms. From that record alone the
    account gets a budget (``_budget``): while no market where it holds a
    non-empty position has moved further than the budget since, its sign
    and every check of a full valuation provably stay as they were. A move
    adds only the holders whose budget it used up, from its market's
    heap of deadlines; the other holders are not touched. Budgets are
    worked out at the first move after a valuation, so valuations between
    moves cost no more. Heaps are kept within a small multiple of the
    accounts valued.
    """

    def __init__(self, state: GlobalState):
        self._state = state
        # Accounts valued since the last move -> their valuation's record
        self._valued: dict[str, _Record] = {}
        prices = state.price_table.prices
        self._clocks = {symbol: _Clock(market, prices.get(symbol)) for symbol, market in state.markets.items()}
        self._generations: dict[str, int] = {}  # account -> its live entries' generation

    def liquidable(self, account: str) -> bool:
        state = self._state
        holdings = state.participants.get(account)
        if not holdings:
            return False
        markets, prices = state.markets, state.price_table.prices
        power = borrow = collateral = 0
        signed = debt = False
        positions = []
        try:
            for symbol, position in holdings.items():
                ctokens, principal = position.ctoken_balance.mantissa, position.borrow_principal.mantissa
                if not ctokens and not principal:
                    continue  # empty: valued as nothing, price or not
                market = markets[symbol]
                price = prices.get(symbol)
                if price is None:
                    raise MissingPriceError(symbol)
                terms = _terms(position, market)
                positions.append((symbol, terms))
                collateral_term, power_term, borrow_term = _priced(terms, price.mantissa)
                collateral = checked(collateral + collateral_term)
                power = checked(power + power_term)
                borrow = checked(borrow + borrow_term)
                if collateral_term < 0 or power_term < 0 or borrow_term < 0 or ctokens < 0:
                    signed = True
                if principal:
                    debt = True
                    if principal < 0 or position.borrow_index_snapshot.mantissa <= 0:
                        signed = True
            surplus = checked(power - borrow)
            # account_health's ratio power / borrow must fit the carrier too. As
            # |power| is below the bound, it can only overflow when |borrow| < 1.
            if borrow and -SCALE < borrow < SCALE:
                trunc_div(power, borrow)
        except BaseException:  # no sign to keep: valued at the next move of any market held
            self._valued[account] = None, False, [(symbol, None) for symbol in holdings]
            raise
        self._valued[account] = None if signed else (power, borrow, collateral), debt, positions
        return surplus < 0

    def changed(self, accounts: Iterable[str], repriced: str | None) -> list[str]:
        """The accounts to value after an event, in address order: the
        ``accounts`` it wrote and the holders valued here whose sign may
        have changed since their last valuation, for a caller that reports
        here, right after each event, the market whose exchange rate,
        collateral factor, borrow index or price it set, or that it listed
        (``repriced``). Every other account valued here keeps its last sign,
        and a valuation of it now would pass every check."""
        dirty = set(accounts)
        state = self._state
        market = state.markets.get(repriced)  # None if nothing moved or an unlisted asset was priced
        if market is not None:
            price = state.price_table.prices.get(repriced)
            clock = self._clocks.get(repriced)
            if clock is None:  # listed since this cache was made: no holders yet
                self._clocks[repriced] = _Clock(market, price)
            else:
                self._schedule()
                if clock.move(market, price):
                    due, time, generations = clock.due, clock.time, self._generations
                    while due and due[0][0] < time:
                        _, account, generation = heappop(due)
                        if generations[account] == generation:
                            dirty.add(account)
        return sorted(dirty)

    def _schedule(self) -> None:
        """Enter each account valued since the last move in the heap of
        every market where it holds a non-empty position, due when that
        market's time passes its time now plus the account's budget."""
        valued = self._valued
        if not valued:
            return
        clocks, generations = self._clocks, self._generations
        for account, record in valued.items():
            generation = generations[account] = generations.get(account, 0) + 1
            budget, held = _budget(record, clocks)
            for clock in held:
                heappush(clock.due, (clock.time + budget, account, generation))
        valued.clear()
        limit = 2 * len(generations) + 32
        for clock in clocks.values():
            if len(clock.due) > limit:  # drop the dead entries
                clock.due = [entry for entry in clock.due if generations[entry[1]] == entry[2]]
                heapify(clock.due)


def _budget(record: _Record, clocks: dict[str, _Clock]) -> tuple[int, list[_Clock]]:
    """An account's movement budget after a valuation, in clock units, and
    the clocks of the markets of its non-empty positions, from that
    valuation's record alone: its (power, borrow, collateral), None where a
    term or a position input was negative or the valuation failed; whether
    the account has a debt; and each non-empty position's market and
    unpriced terms (after a failure, each position's market).

    Within budget b, each market m of the account has moved by G_m <= b
    <= 1/4 since the valuation. A market with no move has the same inputs,
    so its terms are unchanged. A market that moved had a positive price,
    every other input non-negative and every scale positive or held at 0.
    So each of its per-unit values, the price and factor * price are
    within [1 - 2b, 1 + 2b] of what they were, and rate, rate * factor and
    index within a factor of 3. With non-negative position inputs, each
    truncation is downward by less than one unit, so a term is below its
    exact value by less than 1 + p (collateral, borrow) or 1 + p + fp
    (power), p and f the price and factor in units; that error grows by at
    most 3/2. With E the sum of those errors at the valuation, T = power +
    borrow and D = |power - borrow|:
    - sign: each total moves by at most 2b of itself plus 3E/2, so the
      surplus keeps its sign while 2bT <= D - 2E - 1;
    - carrier: the totals grow by at most 3/2 plus 3E/2 and the unpriced
      terms by at most 3 times, so they fit, and with them every term and
      partial sum (all non-negative), while all are below a quarter of
      the bound;
    - ratio: a debt of at least 2 USD + 3E stays at least 1 USD, and one
      with no principal stays 0.
    Any other account gets budget 0: it is valued at its next move.
    """
    sums, debt, positions = record
    held = [clocks[symbol] for symbol, _ in positions]
    if sums is None:
        return 0, held
    error = peak = 0
    for (_, (base, power_base, accrued)), clock in zip(positions, held):
        error += clock.error
        top = (base if base > power_base else power_base) + clock.units
        if accrued > top:
            top = accrued
        if top > peak:
            peak = top
    power, borrow, collateral = sums
    slack = abs(power - borrow) - 2 * error - 1
    if (
        slack <= 0
        or max(power, borrow, collateral, peak) + error + 2 >= MANTISSA_BOUND // 4
        or (debt and borrow < 2 * SCALE + 3 * error)
    ):
        return 0, held
    return min(_MAX_BUDGET, slack * _CLOCK_ONE // (2 * (power + borrow))), held


def liquidable_accounts(state: GlobalState) -> dict[str, AccountHealth]:
    """All accounts with strictly negative surplus, keyed by address."""
    result: dict[str, AccountHealth] = {}
    for account in sorted(state.participants):
        health = account_health(state, account)
        if health.liquidable:
            result[account] = health
    return result


def max_repay(state: GlobalState, borrower: str, symbol: str) -> Dec:
    """Close-factor bound on a single liquidation's repay amount."""
    market = state.markets.get(symbol)
    if market is None:
        raise KeyError(f"unknown market {symbol!r}")
    position = state.position(borrower, symbol)
    if position is None:
        return ZERO
    accrued = position.accrued_borrow(market.borrow_index)
    return state.params.close_factor * accrued


@dataclass(frozen=True)
class SeizeQuote:
    """What a liquidator pays, receives, and clears."""

    repay_value_usd: Dec
    seized_value_usd: Dec
    seized_ctokens: Dec
    profit_usd: Dec


def seize_quote_at_discount(
    repay_value_usd: Dec,
    discount: Dec,
    collateral_price_usd: Dec,
    exchange_rate: Dec,
) -> SeizeQuote:
    """Collateral seized for a repayment at a purchase discount.

    A d-discount liquidator pays (1 - d) of the collateral's value, so the
    seized value is repay / (1 - d). The incentive is a discount, not a
    premium, because a 10% discount means a 1/9 premium, and 18 digits
    cannot hold 1/9.
    """
    if discount < ZERO or discount >= ONE:
        raise ValueError("discount must lie in [0, 1)")
    seized_value = repay_value_usd / (ONE - discount)
    seized_ctokens = seized_value / (collateral_price_usd * exchange_rate)
    return SeizeQuote(
        repay_value_usd=repay_value_usd,
        seized_value_usd=seized_value,
        seized_ctokens=seized_ctokens,
        profit_usd=seized_value - repay_value_usd,
    )


@dataclass(frozen=True)
class SensitivityRow:
    """Liquidable exposure after one hypothetical price shock."""

    shock: Dec
    liquidable_accounts: int
    liquidable_collateral_usd: Dec


def price_sensitivity(
    state: GlobalState, symbol: str, shocks: Sequence[Dec]
) -> list[SensitivityRow]:
    """Re-evaluate every account under downward shocks to one asset.

    Each shock s replaces the asset's price with price * (1 - s); rows
    report how many accounts turn liquidable and their unweighted
    collateral value at shocked prices. The state is never modified.

    One pass over the accounts: each is valued once without the shocked
    asset, and each shock then prices only the shocked asset's terms of
    the accounts holding it. Truncation and carrier checks are those of a
    full valuation per shock, and a failure is the one that valuation
    would meet first: at the earliest failing shock, the first account in
    address order. The ratio is not computed, so it cannot overflow here.
    """
    base_price = state.price_table.get(symbol)
    for shock in shocks:
        if shock < ZERO or shock >= ONE:
            raise ValueError("shocks must lie in [0, 1)")
    if not shocks:
        return []
    prices = [(base_price * (ONE - shock)).mantissa for shock in shocks]
    counts = [0] * len(shocks)
    exposures = [0] * len(shocks)
    limit, failure = len(shocks), None  # rows before the earliest failing shock
    for _, holdings in sorted(state.participants.items()):
        sums = _sums(state.markets, holdings, state.price_table.prices, symbol)
        power, borrow, collateral, terms, _ = sums
        if terms is None and checked(power - borrow) >= 0:
            continue  # solvent at every shock
        for row in range(limit):
            try:
                if terms is not None:
                    power, borrow, collateral = _at_price(sums, prices[row])
                    if checked(power - borrow) >= 0:
                        continue
                counts[row] += 1
                exposures[row] = checked(exposures[row] + collateral)
            except (DecOverflowError, MissingPriceError) as exc:
                if row == 0:
                    raise
                limit, failure = row, exc
                break
    if failure is not None:
        raise failure
    return [
        SensitivityRow(
            shock=shock,
            liquidable_accounts=count,
            liquidable_collateral_usd=Dec.from_mantissa(exposure),
        )
        for shock, count, exposure in zip(shocks, counts, exposures)
    ]
