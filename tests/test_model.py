import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plfkit.engine import TransitionError, apply_event, state_digest
from plfkit.events import OrderingKey, _encode_canonical, is_valid_address
from plfkit.fixedpoint import ONE, ZERO, Dec
from plfkit.model import (
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
from test_analytics import SYMBOLS, books, draw_event


def small_state() -> GlobalState:
    """Two markets, two accounts, one accrued borrow."""
    state = GlobalState.fresh(ProtocolParams(Dec("0.5")))
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
    def test_account_id(self):
        assert is_valid_address(ACCT_A)
        assert not is_valid_address("0xABC")


class TestProtocolParams:
    def test_defaults(self):
        params = ProtocolParams()
        assert params.close_factor == ZERO


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

    @staticmethod
    def out_of_range_state() -> GlobalState:
        """small_state written to past the engine: an index snapshot of 0.5
        and a balance of -5, values no stream can write."""
        state = small_state()
        state.markets["DAI"].interest_model.params["base"] = Dec("0.02")
        state.participants[ACCT_A]["DAI"].borrow_index_snapshot = Dec("0.5")
        state.participants[ACCT_B]["DAI"].ctoken_balance = Dec(-5)
        return state

    def test_copy_of_an_out_of_range_state_is_deep_and_equal(self):
        state = self.out_of_range_state()
        clone = state.copy()
        assert clone == state
        assert state_to_dict(clone) == state_to_dict(state)
        # No mutable record or dict is shared.
        pairs = [(clone.markets, state.markets), (clone.participants, state.participants),
                 (clone.price_table, state.price_table), (clone.price_table.prices, state.price_table.prices),
                 (clone.params, state.params)]
        for symbol, market in state.markets.items():
            copied = clone.markets[symbol]
            pairs += [(copied, market), (copied.interest_model, market.interest_model),
                      (copied.interest_model.params, market.interest_model.params)]
        for account, holdings in state.participants.items():
            pairs.append((clone.participants[account], holdings))
            pairs += [(clone.participants[account][symbol], position) for symbol, position in holdings.items()]
        assert all(copied is not original for copied, original in pairs)

    def test_decoder_refuses_an_out_of_range_state_by_path(self):
        form = state_to_dict(self.out_of_range_state())
        where = f"state['participants']['{ACCT_A}']['DAI']['borrow_index_snapshot']"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}: index must be at least 1$"):
            state_from_dict(form)
        form["participants"][ACCT_A]["DAI"]["borrow_index_snapshot"] = "1"
        where = f"state['participants']['{ACCT_B}']['DAI']['ctoken_balance']"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}: amount must be non-negative$"):
            state_from_dict(form)


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


# Every leaf state_to_dict writes, each key it writes them under, and the
# dicts whose keys it writes (each moved whole to a new key by a rekey).
MARKET_DECIMALS = ("total_borrows", "total_ctoken_supply", "collateral_factor", "borrow_index", "exchange_rate")
POSITION_DECIMALS = ("ctoken_balance", "borrow_principal", "borrow_index_snapshot")
LEAF_WRITES = (
    "cursor", "close_factor", "model_id", "model_params", *MARKET_DECIMALS,
    *POSITION_DECIMALS, "price", "new_participant", "new_market", "new_price",
)
REKEYED = ("markets", "participants", "holdings", "prices", "model_params")


def write_leaf(data, state: GlobalState) -> None:
    """One direct write, past the engine, to one leaf of the dict form or
    to a new participant, market or price."""
    what = data.draw(st.sampled_from(LEAF_WRITES))
    value = Dec.from_mantissa(data.draw(st.integers(1, 10 ** 30)))
    symbol = data.draw(st.sampled_from(sorted(state.markets)))
    market = state.markets[symbol]
    if what == "cursor":
        keys = st.builds(OrderingKey, st.integers(0, 10 ** 6), st.integers(0, 99), st.integers(0, 99))
        state.cursor = data.draw(st.none() | keys)
    elif what == "close_factor":  # within [0, 1], a range a stream can write
        state.params.close_factor = Dec.from_mantissa(data.draw(st.integers(0, 10 ** 18)))
    elif what == "model_id":
        market.interest_model.model_id = data.draw(st.text(max_size=4))
    elif what == "model_params":
        market.interest_model.params[data.draw(st.sampled_from(("base", "slope", "kink")))] = value
    elif what in MARKET_DECIMALS:
        setattr(market, what, value)
    elif what in POSITION_DECIMALS:
        account = data.draw(st.sampled_from(sorted(state.participants)))
        setattr(state.participants[account].setdefault(symbol, Position()), what, value)
    elif what == "price":
        state.price_table.set(symbol, value)
    elif what == "new_participant":
        account = f"0x{data.draw(st.integers(1, 20)):040x}"
        state.participants[account] = {symbol: Position(value, value, ONE)}
    elif what == "new_market":
        state.markets[data.draw(st.sampled_from(("DDD", "EEE")))] = MarketState.listed(symbol, value, value)
    else:
        state.price_table.set(data.draw(st.sampled_from(("DDD", "EEE", "FFF"))), value)


def rekey(data, state: GlobalState) -> None:
    """Move the last entry of one keyed dict to a new key: the same values
    in the same order, so that only the key changes."""
    where = data.draw(st.sampled_from(REKEYED))
    symbol = data.draw(st.sampled_from(sorted(state.markets)))
    mapping = {
        "markets": state.markets,
        "participants": state.participants,
        "holdings": state.participants[data.draw(st.sampled_from(sorted(state.participants)))],
        "prices": state.price_table.prices,
        "model_params": state.markets[symbol].interest_model.params,
    }[where]
    if mapping:
        if where == "participants":
            key = f"0x{data.draw(st.integers(21, 30)):040x}"
        else:
            key = data.draw(st.sampled_from(("DDD", "EEE", "FFF")))
        mapping[key] = mapping.pop(next(reversed(mapping)))


class TestStateBytesMemo:
    """state_digest keeps the last state's bytes under a content key; it must
    never hand back the bytes of a state that has since changed."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_digest_tracks_every_write(self, data):
        state = data.draw(books())
        for _ in range(data.draw(st.integers(1, 16))):
            step = data.draw(st.sampled_from(("event", "copy", "write", "write", "rekey")))
            # draw_event needs the book's three markets, which a rekey may move.
            if step == "event" and all(symbol in state.markets for symbol in SYMBOLS):
                block = 1 if state.cursor is None else state.cursor.block + 1
                try:
                    apply_event(state, draw_event(data, state, block))
                except TransitionError:
                    pass  # nothing written
            elif step == "copy":
                state = state.copy()
            elif step == "write":
                write_leaf(data, state)
            elif step == "rekey":
                rekey(data, state)
            expected = hashlib.sha256(_encode_canonical(state_to_dict(state))).hexdigest()
            assert state_digest(state) == expected


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
