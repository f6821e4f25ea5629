"""Account health, liquidation math, and price sensitivity.

Health follows the borrowing-capacity rule: discounted collateral
(ctoken_balance * exchange_rate * collateral_factor * price, truncating in
that order) must cover the accrued borrow value. An account is liquidable
exactly when the surplus is strictly negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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


class LiquidableCache:
    """``account_health(state, account).liquidable`` for the accounts of
    one state, re-pricing only the positions whose inputs changed.

    Each (account, market) keeps the collateral, power and borrow products
    of its last valuation beside the seven values they came from: the
    position's cToken balance, borrow principal and index snapshot, the
    market's exchange rate, collateral factor and borrow index, and the
    price. ``liquidable`` reuses a product only while all seven are the
    same objects or equal, so the answer stays exact whatever changed the
    state: an event, a direct mutation or a replaced position. Sums are
    re-added in holdings order with the carrier check at every partial
    sum, and the ratio account_health computes is checked too, so a
    valuation fails exactly where account_health fails. Entries are
    bounded by accounts times markets.

    ``repriced`` is the path for a caller that knows which one market
    changed since an account's last valuation, as track_efficiency knows
    from engine._apply's report. It re-prices that market's term alone and
    moves the cached sums by its change, deciding the sign only where that
    provably gives what ``liquidable`` would; elsewhere it calls
    ``liquidable``.
    """

    def __init__(self, state: GlobalState):
        self._state = state
        # account -> market -> (the seven inputs, (collateral, power, borrow)
        # products, the unpriced terms of _terms)
        self._products: dict[str, dict[str, tuple[tuple, tuple[int, int, int], tuple[int, int, int]]]] = {}
        # account -> (power, borrow, collateral) of its last valuation, kept
        # only when that succeeded with no negative term
        self._sums: dict[str, tuple[int, int, int]] = {}

    def liquidable(self, account: str) -> bool:
        state = self._state
        holdings = state.participants.get(account)
        if not holdings:
            return False
        markets, prices = state.markets, state.price_table.prices
        cached = self._products.get(account)
        if cached is None:
            cached = self._products[account] = {}
        self._sums.pop(account, None)
        power = borrow = collateral = 0
        signed = False
        for symbol, position in holdings.items():
            ctokens, principal = position.ctoken_balance, position.borrow_principal
            if not ctokens.mantissa and not principal.mantissa:
                continue  # empty: valued as nothing, price or not
            market = markets[symbol]
            price = prices.get(symbol)
            if price is None:
                raise MissingPriceError(symbol)
            inputs = (
                ctokens, principal, position.borrow_index_snapshot, market.exchange_rate,
                market.collateral_factor, market.borrow_index, price,
            )
            entry = cached.get(symbol)
            if entry is None or entry[0] != inputs:
                terms = _terms(position, market)
                entry = cached[symbol] = inputs, _priced(terms, price.mantissa), terms
            collateral_term, power_term, borrow_term = entry[1]
            collateral = checked(collateral + collateral_term)
            power = checked(power + power_term)
            borrow = checked(borrow + borrow_term)
            if collateral_term < 0 or power_term < 0 or borrow_term < 0:
                signed = True
        surplus = checked(power - borrow)
        # account_health's ratio power / borrow must fit the carrier too. As
        # |power| is below the bound, it can only overflow when |borrow| < 1.
        if borrow and -SCALE < borrow < SCALE:
            trunc_div(power, borrow)
        if not signed:
            self._sums[account] = power, borrow, collateral
        return surplus < 0

    def repriced(self, account: str, symbol: str) -> bool:
        """``liquidable(account)``, for a caller that knows that since the
        account's last valuation here no input changed but market
        ``symbol``'s exchange rate, collateral factor, borrow index or price.

        The symbol's term is re-priced exactly as ``liquidable`` prices it,
        and the cached sums move by its change. Those are the sums
        ``liquidable`` would add up, so its sign is theirs wherever no check
        of its can fail, and that is proven here from the totals: products
        are carrier-checked as they are computed; with every term
        non-negative, each partial sum lies between 0 and its total, so
        totals below the bound keep every partial sum and the surplus
        inside the carrier; and the ratio needs no check while the borrow
        value is 0 or at least 1. A term that fails, a negative term, a
        total at the bound, a borrow value in (0, 1), a missing price or no
        sums from the last valuation leave the decision to ``liquidable``,
        which then fails where account_health fails.
        """
        sums = self._sums.get(account)
        if sums is None:
            return self.liquidable(account)
        power, borrow, collateral = sums
        state = self._state
        position = state.participants[account][symbol]
        ctokens, principal = position.ctoken_balance, position.borrow_principal
        if not ctokens.mantissa and not principal.mantissa:
            return power < borrow  # the position adds nothing, price or not
        market = state.markets[symbol]
        price = state.price_table.prices.get(symbol)
        cached = self._products[account]
        entry = cached.get(symbol)
        if price is None or entry is None:
            return self.liquidable(account)
        old_inputs, (old_collateral, old_power, old_borrow), terms = entry
        rate, factor, index = market.exchange_rate, market.collateral_factor, market.borrow_index
        try:
            # The position is as it was; the unpriced terms stand while the
            # market's three inputs are the same objects (a PriceUpdate).
            if old_inputs[3] is not rate or old_inputs[4] is not factor or old_inputs[5] is not index:
                terms = _terms(position, market)
            products = _priced(terms, price.mantissa)
        except ArithmeticError:
            return self.liquidable(account)
        collateral_term, power_term, borrow_term = products
        power += power_term - old_power
        borrow += borrow_term - old_borrow
        collateral += collateral_term - old_collateral
        if (
            collateral_term < 0 or power_term < 0 or borrow_term < 0
            or power >= MANTISSA_BOUND or borrow >= MANTISSA_BOUND or collateral >= MANTISSA_BOUND
            or 0 < borrow < SCALE
        ):
            return self.liquidable(account)
        cached[symbol] = old_inputs[:3] + (rate, factor, index, price), products, terms
        self._sums[account] = power, borrow, collateral
        return power < borrow


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
