from typing import Mapping, Sequence

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from plfkit import risk
from plfkit.engine import replay, state_digest
from plfkit.fixedpoint import MANTISSA_BOUND, ONE, SCALE, ZERO, Dec, DecOverflowError, trunc_mul
from plfkit.model import (
    GlobalState,
    MarketState,
    MissingPriceError,
    Position,
    ProtocolParams,
)
from plfkit.risk import (
    AccountHealth,
    SensitivityRow,
    _at_price,
    _health,
    _sums,
    account_health,
    liquidable_accounts,
    max_repay,
    price_sensitivity,
    seize_quote_at_discount,
)
from streams import ACCT_A, ACCT_B, ACCT_C, hand_fixture, sensitivity_stream


def one_supplier_state() -> GlobalState:
    state = GlobalState.fresh()
    state.markets["DAI"] = MarketState.listed("DAI", Dec("0.02"), Dec("0.75"))
    state.price_table.set("DAI", ONE)
    state.participants[ACCT_A] = {"DAI": Position(ctoken_balance=Dec(500))}
    return state


def at_block_10() -> GlobalState:
    state, _ = replay(GlobalState.fresh(), [e for e in hand_fixture() if e.key.block <= 10])
    return state


class TestAccountHealth:
    def test_borrow_capacity_example(self):
        # 500 cTokens at rate 0.02 and factor 0.75, priced at 1 USD.
        health = account_health(one_supplier_state(), ACCT_A)
        assert health.collateral_power_usd == Dec("7.5")
        assert health.collateral_value_usd == Dec(10)
        assert health.borrow_value_usd == ZERO
        assert health.ratio is None
        assert not health.liquidable

    def test_underwater_account_in_fixture(self):
        health = account_health(at_block_10(), ACCT_A)
        assert health.collateral_power_usd == Dec("189.375")
        assert health.borrow_value_usd == Dec(200)
        assert health.surplus_usd == Dec("-10.625")
        assert health.ratio == Dec("0.946875")
        assert health.liquidable

    def test_recovered_account_after_liquidation(self):
        state, _ = replay(GlobalState.fresh(), hand_fixture())
        health = account_health(state, ACCT_A)
        assert health.collateral_power_usd == Dec("123.37499999999999994")
        assert health.borrow_value_usd == Dec(100)
        assert health.ratio == Dec("1.233749999999999999")
        assert not health.liquidable

    def test_zero_surplus_is_not_liquidable(self):
        # Power an exact match for debt: strictly-below is the trigger.
        state = one_supplier_state()
        state.participants[ACCT_A]["DAI"].borrow_principal = Dec("7.5")
        health = account_health(state, ACCT_A)
        assert health.surplus_usd == ZERO
        assert not health.liquidable
        state.participants[ACCT_A]["DAI"].borrow_principal += Dec.from_mantissa(1)
        assert account_health(state, ACCT_A).liquidable

    def test_unknown_account_is_empty(self):
        health = account_health(one_supplier_state(), ACCT_B)
        assert health.collateral_power_usd == ZERO
        assert health.ratio is None

    def test_missing_price_raises(self):
        state = one_supplier_state()
        del state.price_table.prices["DAI"]
        with pytest.raises(MissingPriceError):
            account_health(state, ACCT_A)


class TestLiquidableAccounts:
    def test_fixture_flags_only_the_underwater_account(self):
        flagged = liquidable_accounts(at_block_10())
        assert list(flagged) == [ACCT_A]
        assert flagged[ACCT_A].surplus_usd == Dec("-10.625")

    def test_healthy_book_is_empty(self):
        assert liquidable_accounts(one_supplier_state()) == {}


class TestMaxRepay:
    def test_close_factor_bounds_accrued_debt(self):
        state = at_block_10()
        # B owes 100 at snapshot 1 against index 1.1: 110 accrued.
        assert max_repay(state, ACCT_B, "DAI") == Dec(55)

    def test_headline_half_of_three_million(self):
        state = GlobalState.fresh(ProtocolParams(close_factor=Dec("0.5")))
        state.markets["USDC"] = MarketState.listed("USDC", Dec("0.02"), Dec("0.75"))
        state.participants[ACCT_A] = {
            "USDC": Position(borrow_principal=Dec(3_000_000)),
        }
        assert max_repay(state, ACCT_A, "USDC") == Dec(1_500_000)

    def test_no_position_means_zero(self):
        assert max_repay(at_block_10(), ACCT_C, "DAI") == ZERO

    def test_unknown_market(self):
        with pytest.raises(KeyError):
            max_repay(at_block_10(), ACCT_A, "XYZ")


class TestSeizeQuotes:
    def test_discount_quote_headline_numbers(self):
        # Paying 1.35m for collateral at a 10% discount clears 1.5m.
        quote = seize_quote_at_discount(Dec(1_350_000), Dec("0.1"), ONE, ONE)
        assert quote.seized_value_usd == Dec(1_500_000)
        assert quote.profit_usd == Dec(150_000)
        assert quote.seized_ctokens == Dec(1_500_000)

    def test_discount_exactness_where_premium_form_truncates(self):
        # A 10% discount equals a 1/9 premium, which 18 digits cannot hold.
        discount_form = seize_quote_at_discount(Dec(9), Dec("0.1"), ONE, ONE)
        assert discount_form.seized_value_usd == Dec(10)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            seize_quote_at_discount(Dec(1), ONE, ONE, ONE)
        with pytest.raises(ValueError):
            seize_quote_at_discount(Dec(1), Dec("-0.1"), ONE, ONE)


class TestPriceSensitivity:
    def setup_method(self):
        self.state, _ = replay(GlobalState.fresh(), sensitivity_stream())

    def test_shock_ladder(self):
        shocks = [ZERO, Dec("0.01"), Dec("0.03"), Dec("0.05")]
        rows = price_sensitivity(self.state, "SHK", shocks)
        assert [r.liquidable_accounts for r in rows] == [0, 1, 2, 3]
        assert [r.liquidable_collateral_usd for r in rows] == [
            ZERO, Dec("132.66"), Dec("261.9"), Dec("389.5"),
        ]

    def test_zero_shock_matches_baseline(self):
        row = price_sensitivity(self.state, "SHK", [ZERO])[0]
        flagged = liquidable_accounts(self.state)
        assert row.liquidable_accounts == len(flagged)
        assert row.liquidable_collateral_usd == ZERO

    def test_state_is_untouched(self):
        before = state_digest(self.state)
        price_sensitivity(self.state, "SHK", [Dec("0.05")])
        assert state_digest(self.state) == before

    def test_shock_range_validated(self):
        with pytest.raises(ValueError):
            price_sensitivity(self.state, "SHK", [ONE])
        with pytest.raises(ValueError):
            price_sensitivity(self.state, "SHK", [Dec("-0.01")])

    def test_unpriced_asset_rejected(self):
        with pytest.raises(MissingPriceError):
            price_sensitivity(self.state, "XYZ", [ZERO])


# -- Reference valuation ------------------------------------------------------
#
# The Dec-object valuation and the per-shock sweep that risk.py used before
# both moved onto one integer-mantissa kernel. Kept here as written then,
# they are the reference the kernel must match exactly.


def reference_sums(
    state: GlobalState, account: str, prices: Mapping[str, Dec]
) -> tuple[Dec, Dec, Dec]:
    """Collateral power, borrow value and collateral value in Dec."""
    holdings = state.participants.get(account, {})
    power = ZERO
    borrow_value = ZERO
    collateral_value = ZERO
    for symbol, position in holdings.items():
        if position.is_empty():
            continue
        market = state.markets[symbol]
        price = prices.get(symbol)
        if price is None:
            raise MissingPriceError(symbol)
        if not position.ctoken_balance.is_zero():
            base = position.ctoken_balance * market.exchange_rate
            collateral_value = collateral_value + base * price
            power = power + (base * market.collateral_factor) * price
        if not position.borrow_principal.is_zero():
            accrued = position.accrued_borrow(market.borrow_index)
            borrow_value = borrow_value + accrued * price
    return power, borrow_value, collateral_value


def reference_health(
    state: GlobalState, account: str, prices: Mapping[str, Dec]
) -> AccountHealth:
    if not state.participants.get(account):
        return AccountHealth(ZERO, ZERO, ZERO, ZERO, None)
    power, borrow_value, collateral_value = reference_sums(state, account, prices)
    ratio = None if borrow_value.is_zero() else power / borrow_value
    return AccountHealth(
        collateral_power_usd=power,
        borrow_value_usd=borrow_value,
        surplus_usd=power - borrow_value,
        collateral_value_usd=collateral_value,
        ratio=ratio,
    )


def reference_sensitivity(
    state: GlobalState, symbol: str, shocks: Sequence[Dec]
) -> list[SensitivityRow]:
    """Every account valued from scratch once per shock."""
    base_price = state.price_table.get(symbol)
    for shock in shocks:
        if shock < ZERO or shock >= ONE:
            raise ValueError("shocks must lie in [0, 1)")
    rows: list[SensitivityRow] = []
    accounts = sorted(state.participants)
    for shock in shocks:
        shocked = dict(state.price_table.prices)
        shocked[symbol] = base_price * (ONE - shock)
        count = 0
        exposure = ZERO
        for account in accounts:
            health = reference_health(state, account, shocked)
            if health.liquidable:
                count += 1
                exposure = exposure + health.collateral_value_usd
        rows.append(
            SensitivityRow(
                shock=shock, liquidable_accounts=count, liquidable_collateral_usd=exposure
            )
        )
    return rows


def outcome(fn, *args):
    """The result, or the kind of failure: the error type and, for a
    missing price, the symbol it names."""
    try:
        return "ok", fn(*args)
    except MissingPriceError as exc:
        return "MissingPriceError", exc.symbol
    except DecOverflowError:
        return "DecOverflowError", None


SYMBOLS = ("AAA", "BBB", "CCC")
ACCOUNTS = tuple(f"0x{i:040x}" for i in range(1, 9))


def mantissas(low: int, high: int):
    return st.integers(low, high).map(Dec.from_mantissa)


@st.composite
def books(draw, huge: bool = False):
    """Random multi-market states of the shape replay produces.

    Holdings come in random market order, with empty positions, pure
    suppliers and pure borrowers. Amounts are scaled so that collateral
    power and debt land within a few times of each other, and shocks move
    accounts across the liquidation line. With ``huge``, amounts and
    prices may reach the carrier and some prices may be missing. Prices
    stay at least 100 and debts at least 1, so that under shocks of at
    most 99% every debt is worth at least 1 and no ratio can overflow.
    """
    unit = 10 ** 18
    if huge:
        ctoken_amounts = principals = st.one_of(
            st.integers(0, 10 ** 24), st.integers(10 ** 40, 10 ** 76)
        )
        prices = mantissas(100 * unit, 10 ** 60)
    else:
        ctoken_amounts = st.integers(2000 * unit, 8000 * unit)
        principals = st.integers(20 * unit, 100 * unit)
        prices = mantissas(unit // 2, 2 * unit)
    state = GlobalState.fresh()
    for symbol in SYMBOLS:
        state.markets[symbol] = MarketState.listed(
            symbol, draw(mantissas(unit // 66, unit // 40)), draw(mantissas(unit * 3 // 5, unit * 9 // 10))
        )
        state.markets[symbol].borrow_index = draw(mantissas(unit, unit + unit // 10))
        if not (huge and draw(st.integers(0, 4)) == 0):  # else unpriced
            state.price_table.set(symbol, draw(prices))
    for account in draw(st.lists(st.sampled_from(ACCOUNTS), unique=True, min_size=1, max_size=8)):
        holdings = {}
        for symbol in draw(st.permutations(SYMBOLS))[: draw(st.integers(0, 3))]:
            market = state.markets[symbol]
            kind = draw(st.sampled_from(("empty", "supply", "borrow", "both")))
            ctokens = draw(ctoken_amounts) if kind in ("supply", "both") else 0
            principal = draw(principals) if kind in ("borrow", "both") else 0
            if principal and huge:
                principal = max(principal, unit)
            snapshot = draw(mantissas(unit, market.borrow_index.mantissa))
            holdings[symbol] = Position(
                Dec.from_mantissa(ctokens), Dec.from_mantissa(principal), snapshot
            )
        state.participants[account] = holdings
    return state


percents = st.integers(0, 99).map(lambda pct: Dec(pct) / 100)
shock_lists = st.lists(st.one_of(percents, mantissas(0, 10 ** 18 - 1)), min_size=1, max_size=6)
# For huge books: a shocked price stays at least 1, so does any debt's value.
percent_lists = st.lists(percents, min_size=1, max_size=6)


@st.composite
def carrier_crossings(draw):
    """A huge book, a shocked symbol and two to six distinct percent
    shocks, largest first, so that the shocked price rises row by row.
    The first holding (in address order) that can take such a price
    names the symbol, priced so that the holding's collateral term fits
    the carrier at the first row and leaves it at a later one. The
    accounts after its holder are dropped: a failure of theirs at the
    first row would come first."""
    state = draw(books(huge=True))
    pcts = sorted(draw(st.lists(st.integers(0, 99), min_size=2, max_size=6, unique=True)), reverse=True)
    shocks = [Dec(pct) / 100 for pct in pcts]
    # At shock p% the term is about bound * (100 - p) / q.
    q = draw(st.integers(101 - pcts[0], 100 - pcts[-1]))
    accounts = sorted(state.participants)
    for index, account in enumerate(accounts):
        for symbol, position in state.participants[account].items():
            base = trunc_mul(position.ctoken_balance.mantissa, state.markets[symbol].exchange_rate.mantissa)
            price = MANTISSA_BOUND * SCALE * 100 // (max(base, 1) * q)
            if 100 * SCALE <= price < MANTISSA_BOUND:
                state.price_table.set(symbol, Dec.from_mantissa(price))
                for later in accounts[index + 1:]:
                    del state.participants[later]
                return state, symbol, shocks
    return state, draw(st.sampled_from(SYMBOLS)), shocks


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(books(), st.sampled_from(SYMBOLS), shock_lists)
    def test_sensitivity_rows_match_per_shock_valuation(self, state, symbol, shocks):
        assert price_sensitivity(state, symbol, shocks) == reference_sensitivity(state, symbol, shocks)

    @settings(max_examples=300, deadline=None)
    @given(books(huge=True), st.sampled_from(SYMBOLS), percent_lists)
    def test_sensitivity_fails_where_per_shock_valuation_fails(self, state, symbol, shocks):
        assert outcome(price_sensitivity, state, symbol, shocks) == outcome(
            reference_sensitivity, state, symbol, shocks
        )

    @settings(max_examples=300, deadline=None)
    @given(carrier_crossings())
    def test_sensitivity_fails_at_a_later_shock_where_per_shock_valuation_fails(self, crossing):
        state, symbol, shocks = crossing
        result = outcome(price_sensitivity, state, symbol, shocks)
        assert result == outcome(reference_sensitivity, state, symbol, shocks)
        if result[0] != "ok" and outcome(price_sensitivity, state, symbol, shocks[:1])[0] == "ok":
            event("fails only after the first shock")

    @settings(max_examples=300, deadline=None)
    @given(books(huge=True))
    def test_health_matches_dec_valuation(self, state):
        prices = state.price_table.prices
        for account in ACCOUNTS:
            assert outcome(_health, state, account, prices) == outcome(
                reference_health, state, account, prices
            )

    @settings(max_examples=300, deadline=None)
    @given(books(huge=True), st.sampled_from(SYMBOLS), shock_lists)
    def test_shocked_sums_match_dec_valuation(self, state, symbol, shocks):
        # The sweep's per-shock pricing against a full Dec valuation at the
        # shocked price, account by account, errors included. The sweep
        # computes no ratio, so neither does the valuation it is held to:
        # a shock near 100% can leave a debt worth under 1, where
        # power / borrow alone would overflow.
        prices = state.price_table.prices
        for shock in shocks:
            shocked = dict(prices)
            shocked[symbol] = prices.get(symbol, ONE) * (ONE - shock)
            for account, holdings in state.participants.items():

                def swept():
                    sums = _sums(state.markets, holdings, prices, symbol)
                    return _at_price(sums, shocked[symbol].mantissa)

                def full():
                    return tuple(v.mantissa for v in reference_sums(state, account, shocked))

                assert outcome(swept) == outcome(full)

    def test_sensitivity_never_values_per_shock(self, monkeypatch):
        state, _ = replay(GlobalState.fresh(), sensitivity_stream())
        calls = []
        monkeypatch.setattr(risk, "_health", lambda *args: calls.append(args))
        rows = price_sensitivity(state, "SHK", [ZERO, Dec("0.01"), Dec("0.03"), Dec("0.05")])
        assert calls == []
        assert [r.liquidable_accounts for r in rows] == [0, 1, 2, 3]

    def test_empty_shock_list_values_nothing(self):
        state, _ = replay(GlobalState.fresh(), sensitivity_stream())
        del state.price_table.prices["DBT"]  # every borrower is now unpriceable
        assert price_sensitivity(state, "SHK", []) == []
        with pytest.raises(MissingPriceError, match="DBT"):
            price_sensitivity(state, "SHK", [ZERO])

    @staticmethod
    def overflows_at_full_price() -> GlobalState:
        """ACCT_A's collateral in SHK is worth 4e58 USD at half price and
        8e58 at full price, beyond the carrier's 5.7e58."""
        state = GlobalState.fresh()
        state.markets["SHK"] = MarketState.listed("SHK", ONE, Dec("0.5"))
        state.price_table.set("SHK", Dec(2))
        state.participants[ACCT_A] = {"SHK": Position(ctoken_balance=Dec.from_mantissa(4 * 10 ** 76))}
        return state

    def test_failure_at_a_later_shock(self):
        state = self.overflows_at_full_price()
        assert len(price_sensitivity(state, "SHK", [Dec("0.5")])) == 1
        shocks = [Dec("0.5"), ZERO]
        assert outcome(price_sensitivity, state, "SHK", shocks) == ("DecOverflowError", None)
        assert outcome(reference_sensitivity, state, "SHK", shocks) == ("DecOverflowError", None)

    def test_earliest_failing_shock_comes_first(self):
        # ACCT_B, after ACCT_A, holds the unpriced ETH: it fails at the
        # first shock, before ACCT_A's overflow at the second.
        state = self.overflows_at_full_price()
        state.markets["ETH"] = MarketState.listed("ETH", ONE, ONE)
        state.participants[ACCT_B] = {"SHK": Position(ctoken_balance=ONE), "ETH": Position(ctoken_balance=ONE)}
        shocks = [Dec("0.5"), ZERO]
        assert outcome(price_sensitivity, state, "SHK", shocks) == ("MissingPriceError", "ETH")
        assert outcome(reference_sensitivity, state, "SHK", shocks) == ("MissingPriceError", "ETH")


class TestValuationOverflow:
    def huge_state(self) -> GlobalState:
        # Replays cleanly: each amount fits the carrier, their product does not.
        huge = Dec("9" * 57)
        state = GlobalState.fresh()
        state.markets["DAI"] = MarketState.listed("DAI", ONE, Dec("0.5"))
        state.price_table.set("DAI", huge)
        state.participants[ACCT_A] = {"DAI": Position(ctoken_balance=huge)}
        return state

    def test_health_overflows_where_dec_does(self):
        state = self.huge_state()
        with pytest.raises(DecOverflowError):
            reference_health(state, ACCT_A, state.price_table.prices)
        with pytest.raises(DecOverflowError):
            account_health(state, ACCT_A)

    def test_sensitivity_overflows_where_dec_does(self):
        state = self.huge_state()
        shocks = [ZERO, Dec("0.5")]
        with pytest.raises(DecOverflowError):
            reference_sensitivity(state, "DAI", shocks)
        with pytest.raises(DecOverflowError):
            price_sensitivity(state, "DAI", shocks)

    # Priced at 100, SHK collateral this large overflows at full price but
    # not at half price.
    EDGE = Dec.from_mantissa(2 ** 255 // 75)

    def edge_book(self, participants) -> GlobalState:
        # NOP is listed but never priced.
        state = GlobalState.fresh()
        for symbol in ("SHK", "NOP"):
            state.markets[symbol] = MarketState.listed(symbol, ONE, ONE)
        state.price_table.set("SHK", Dec(100))
        state.participants.update(participants)
        return state

    @pytest.mark.parametrize("shocks, expected", [
        ([Dec("0.5"), ZERO], ("MissingPriceError", "NOP")),  # ACCT_B fails at the first shock
        ([ZERO, Dec("0.5")], ("DecOverflowError", None)),  # ACCT_A fails at the first shock
    ])
    def test_earliest_failing_shock_wins(self, shocks, expected):
        state = self.edge_book({
            ACCT_A: {"SHK": Position(ctoken_balance=self.EDGE)},
            ACCT_B: {"NOP": Position(ctoken_balance=ONE)},
        })
        assert outcome(reference_sensitivity, state, "SHK", shocks) == expected
        assert outcome(price_sensitivity, state, "SHK", shocks) == expected

    @pytest.mark.parametrize("shocks, expected", [
        ([Dec("0.5")], ("MissingPriceError", "NOP")),
        ([ZERO], ("DecOverflowError", None)),
    ])
    def test_missing_price_after_shocked_asset(self, shocks, expected):
        # Valued in holdings order, SHK's terms overflow before the missing
        # NOP price is looked up, at full price only.
        state = self.edge_book({
            ACCT_A: {"SHK": Position(ctoken_balance=self.EDGE), "NOP": Position(ctoken_balance=ONE)},
        })
        assert outcome(reference_sensitivity, state, "SHK", shocks) == expected
        assert outcome(price_sensitivity, state, "SHK", shocks) == expected

    def test_partial_sum_overflows(self):
        # Each borrow term fits the carrier, their sum does not; power
        # stays high enough that the surplus alone would not overflow.
        bound = 2 ** 255
        state = GlobalState.fresh()
        for symbol in ("SHK", "DBT"):
            state.markets[symbol] = MarketState.listed(symbol, ONE, ONE)
            state.price_table.set(symbol, ONE)
        state.participants[ACCT_A] = {
            "DBT": Position(borrow_principal=Dec.from_mantissa(bound * 6 // 10)),
            "SHK": Position(ctoken_balance=Dec.from_mantissa(bound * 9 // 10),
                            borrow_principal=Dec.from_mantissa(bound * 6 // 10)),
        }
        with pytest.raises(DecOverflowError):
            reference_sensitivity(state, "SHK", [ZERO])
        with pytest.raises(DecOverflowError):
            price_sensitivity(state, "SHK", [ZERO])

    def test_only_the_ratio_overflows(self):
        # Power near the carrier over a debt of 10**-18 USD: the ratio
        # alone leaves the carrier. Health reports it; the sweep computes
        # no ratio, so its rows stand.
        state = GlobalState.fresh()
        state.markets["DAI"] = MarketState.listed("DAI", ONE, ONE)
        state.price_table.set("DAI", ONE)
        state.participants[ACCT_A] = {
            "DAI": Position(ctoken_balance=Dec(10 ** 50), borrow_principal=Dec.from_mantissa(1)),
        }
        with pytest.raises(DecOverflowError):
            account_health(state, ACCT_A)
        with pytest.raises(DecOverflowError):
            reference_sensitivity(state, "DAI", [ZERO])
        rows = price_sensitivity(state, "DAI", [ZERO])
        assert rows == [SensitivityRow(ZERO, 0, ZERO)]
