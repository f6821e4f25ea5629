import hashlib

import pytest

from plfkit.engine import state_digest
from plfkit.events import OrderingKey, _encode_canonical, is_valid_address
from plfkit.fixedpoint import ONE, ZERO, Dec
from plfkit.model import (
    AssetId,
    GlobalState,
    MarketState,
    MissingPriceError,
    Position,
    PriceTable,
    ProtocolParams,
    state_from_dict,
    state_to_dict,
    validate_state,
)
from streams import ACCT_A, ACCT_B


def small_state() -> GlobalState:
    """Two markets, two accounts, one accrued borrow."""
    state = GlobalState.fresh(ProtocolParams(Dec("0.5"), Dec("0.1")))
    dai = MarketState.listed("DAI", Dec("0.02"), Dec("0.75"))
    dai.borrow_index = Dec("1.1")
    dai.total_ctoken_supply = Dec(600)
    dai.total_borrows = Dec(110)
    state.markets["DAI"] = dai
    state.markets["ETH"] = MarketState.listed("ETH", Dec("0.05"), Dec("0.6"))
    state.price_table.set("DAI", Dec(1))
    state.price_table.set("ETH", Dec(100))
    state.participants[ACCT_A] = {
        "DAI": Position(ctoken_balance=Dec(500), borrow_principal=Dec(100),
                        borrow_index_snapshot=ONE),
    }
    state.participants[ACCT_B] = {"DAI": Position(ctoken_balance=Dec(100))}
    state.cursor = OrderingKey(9, 1, 0)
    return state


class TestIdentifiers:
    def test_asset_id(self):
        assert AssetId("DAI").decimals == 18
        with pytest.raises(ValueError):
            AssetId("")
        with pytest.raises(ValueError):
            AssetId("DAI", 19)
        for decimals in (True, 1.5, "6"):
            with pytest.raises(ValueError):
                AssetId("DAI", decimals)
        with pytest.raises(ValueError):
            AssetId(5)

    def test_account_id(self):
        assert is_valid_address(ACCT_A)
        assert not is_valid_address("0xABC")


class TestProtocolParams:
    def test_defaults(self):
        params = ProtocolParams()
        assert params.close_factor == ZERO
        assert params.liquidation_incentive == ZERO

    def test_close_factor_range(self):
        with pytest.raises(ValueError):
            ProtocolParams(close_factor=Dec("1.01"))
        with pytest.raises(ValueError):
            ProtocolParams(close_factor=Dec(-1))

    def test_incentive_sign(self):
        with pytest.raises(ValueError):
            ProtocolParams(liquidation_incentive=Dec("-0.1"))


class TestPosition:
    def test_fresh_market_defaults(self):
        market = MarketState.listed("DAI", Dec("0.02"), Dec("0.75"))
        assert market.borrow_index == ONE
        assert market.total_borrows == ZERO
        assert market.total_ctoken_supply == ZERO

    def test_accrued_borrow_scales_by_index_ratio(self):
        pos = Position(borrow_principal=Dec(100), borrow_index_snapshot=ONE)
        assert pos.accrued_borrow(Dec("1.1")) == Dec(110)

    def test_accrued_borrow_zero_principal(self):
        pos = Position(ctoken_balance=Dec(5))
        assert pos.accrued_borrow(Dec("2")) == ZERO

    def test_accrued_borrow_exact_at_unchanged_index(self):
        # A single truncation means re-reading the balance at the snapshot
        # index returns the principal bit-for-bit.
        principal = Dec("100.000000000000000007")
        snapshot = Dec("1.100000000000000003")
        pos = Position(borrow_principal=principal, borrow_index_snapshot=snapshot)
        assert pos.accrued_borrow(snapshot) == principal

    def test_is_empty(self):
        assert Position().is_empty()
        assert not Position(ctoken_balance=Dec(1)).is_empty()
        assert not Position(borrow_principal=Dec(1)).is_empty()


class TestPriceTable:
    def test_get_missing_raises(self):
        table = PriceTable()
        with pytest.raises(MissingPriceError, match="'ETH'") as excinfo:
            table.get("ETH")
        assert excinfo.value.symbol == "ETH"

    def test_set_rejects_non_positive(self):
        table = PriceTable()
        with pytest.raises(ValueError):
            table.set("DAI", ZERO)


class TestGlobalState:
    def test_position_lookup_without_create(self):
        state = small_state()
        assert state.position(ACCT_A, "DAI") is not None
        assert state.position(ACCT_A, "ETH") is None
        assert state.position("0x" + "99" * 20, "DAI") is None

    def test_copy_is_deep(self):
        state = small_state()
        clone = state.copy()
        clone.markets["DAI"].total_borrows = Dec(999)
        clone.participants[ACCT_A]["DAI"].ctoken_balance = ZERO
        clone.price_table.set("DAI", Dec(2))
        assert state.markets["DAI"].total_borrows == Dec(110)
        assert state.participants[ACCT_A]["DAI"].ctoken_balance == Dec(500)
        assert state.price_table.get("DAI") == Dec(1)


class TestSerialization:
    def test_dict_round_trip(self):
        state = small_state()
        rebuilt = state_from_dict(state_to_dict(state))
        assert state_to_dict(rebuilt) == state_to_dict(state)
        assert rebuilt.cursor == state.cursor
        assert rebuilt.params.close_factor == Dec("0.5")
        assert rebuilt.markets["DAI"].borrow_index == Dec("1.1")
        assert rebuilt.participants[ACCT_A]["DAI"].borrow_principal == Dec(100)

    def test_none_cursor_round_trips(self):
        state = GlobalState.fresh()
        assert state_from_dict(state_to_dict(state)).cursor is None

    def test_canonical_bytes_deterministic(self):
        one = _encode_canonical(state_to_dict(small_state()))
        two = _encode_canonical(state_to_dict(small_state()))
        assert one == two
        assert one.startswith(b"{")
        assert b" " not in one.split(b'"DAI"')[0]  # compact separators
        assert state_digest(small_state()) == hashlib.sha256(one).hexdigest()

    def test_canonical_bytes_reflect_state_changes(self):
        state = small_state()
        before = state_digest(state)
        state.markets["DAI"].total_borrows += Dec.from_mantissa(1)
        assert state_digest(state) != before


class TestValidateState:
    def test_consistent_state_is_clean(self):
        assert validate_state(small_state()) == []

    def test_supply_must_match_exactly(self):
        state = small_state()
        state.markets["DAI"].total_ctoken_supply += Dec.from_mantissa(1)
        violations = validate_state(state)
        assert [v.aggregate for v in violations] == ["total_ctoken_supply"]
        assert violations[0].market == "DAI"
        assert violations[0].expected == Dec(600)

    def test_borrow_drift_within_borrower_count_allowed(self):
        # One borrower in DAI, so one mantissa unit of drift is tolerated.
        state = small_state()
        state.markets["DAI"].total_borrows += Dec.from_mantissa(1)
        assert validate_state(state) == []

    def test_borrow_drift_beyond_borrower_count_flagged(self):
        state = small_state()
        state.markets["DAI"].total_borrows += Dec.from_mantissa(2)
        violations = validate_state(state)
        assert [v.aggregate for v in violations] == ["total_borrows"]
